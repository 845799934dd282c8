import hashlib
import logging
import os
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pivotsmt.align import AlignmentMatrix, symmetrize_gdfa, train_model1
from pivotsmt.corpus import ingest_bitext
from pivotsmt.decoder import DecoderSystem, decode_corpus, nbest
from pivotsmt.errors import DataError
from pivotsmt.ngramlm import train_kn
from pivotsmt import pipeline
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, TableSet
from pivotsmt.translit import CharModel, CharTrigramModel
from pivotsmt.pipeline import (
    ExperimentConfig, align_bitext, build_phrase_table, config_hash,
    run_experiment, synthesize_bitext,
)

from fixtures import PATHS, log_lines, make_experiment_fixture, usable_cpus, write_config
from oracles import viterbi_reference


def toy_bitext():
    src = ["das haus", "das buch", "ein haus"]
    tgt = ["the house", "the book", "a house"]
    return ingest_bitext(src, tgt)


_WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4).map(tuple)


class TestTraining:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=6), st.booleans())
    def test_align_bitext_equals_both_viterbi_orientations_then_gdfa(self, pairs, use_null):
        """One Viterbi orientation on the pair and on the swapped pair, the
        second transposed, symmetrizes as the reference's forward and
        backward alignments do."""
        if not any(src and tgt for src, tgt in pairs):
            with pytest.raises(DataError, match="empty bitext"):
                align_bitext(pairs, 3, use_null)
            return
        matrices, tgt_given_src, src_given_tgt = align_bitext(pairs, 3, use_null)
        assert (src_given_tgt, tgt_given_src) == (train_model1(pairs, 3, use_null),
                                                  train_model1([(t, s) for s, t in pairs],
                                                               3, use_null))
        expected = []
        for pair in pairs:
            forward, backward = (
                AlignmentMatrix(len(pair[0]), len(pair[1]), frozenset(
                    viterbi_reference(table.probs, use_null, pair, direction)))
                for table, direction in ((src_given_tgt, "forward"),
                                         (tgt_given_src, "backward")))
            expected.append(symmetrize_gdfa(forward, backward))
        assert matrices == expected

    def test_align_bitext_das_haus(self):
        bitext = toy_bitext()
        matrices, _, _ = align_bitext(bitext, iterations=10)
        assert matrices[0].links == {(0, 0), (1, 1)}

    def test_seeded_table_scores_are_pinned(self):
        """Each score's bits are pinned on every interpreter. Under Python
        3.12 a builtin `sum` of the lexical link averages changed the last
        bits of this table's scores (though not its Moses text, at 10
        significant digits)."""
        rng = random.Random(0)
        pairs = [(tuple(f"s{rng.randrange(12)}" for _ in range(rng.randint(1, 9))),
                  tuple(f"t{rng.randrange(12)}" for _ in range(rng.randint(1, 9))))
                 for _ in range(40)]
        table = build_phrase_table(pairs, em_iterations=5, max_phrase_len=5)
        scores = repr(sorted((e.source, e.target, e.scores()) for e in table))
        assert hashlib.sha256(scores.encode()).hexdigest() == \
            "e0b73b37526aaacd1921d01ab6f83c7e8a32208fa817469bb61ba49b6d3f691c"

    def test_build_phrase_table(self):
        table = build_phrase_table(toy_bitext(), em_iterations=10,
                                   max_phrase_len=2)
        targets = {e.target for e in table.get(("das",))}
        assert ("the",) in targets

    def test_decode_corpus_orders_preserved(self):
        table = build_phrase_table(toy_bitext(), em_iterations=10,
                                   max_phrase_len=2)
        lm = train_kn([s.split() for s in ["the house", "the book", "a house"]],
                      order=2)
        system = DecoderSystem(tables=TableSet([table]), lm=lm)
        hyps = [best for best, _ in decode_corpus(
            system, system.default_model(), [("das", "haus"), ("ein", "buch"), ()])]
        assert hyps[0] == ("the", "house")
        assert hyps[2] == ()

    # "#" is a character the character model knows but has no operation
    # for, so an OOV word with it takes the identity fallback and logs a
    # warning: "a#" in this process's share, and "b#" in the forked child's
    # share when two CPUs are usable
    SENTENCES = [("das", "haus"), ("a#", "buch"), ("ein", "haus", "ab"), (),
                 ("das", "buch"), ("haus", "b#"), ("ein", "ba")]

    @PATHS
    @pytest.mark.parametrize("n", [3, 7], ids=["3-sentences", "7-sentences"])
    @pytest.mark.parametrize("nbest_size", [0, 5], ids=["1-best", "5-best"])
    def test_decode_corpus_matches_serial(self, caplog, cpus, n, nbest_size):
        table = build_phrase_table(toy_bitext(), em_iterations=10,
                                   max_phrase_len=2)
        lm = train_kn([s.split() for s in ["the house", "the book", "a house"]],
                      order=2)
        char_lm = CharTrigramModel()
        for word in ("AB", "BA"):
            char_lm.observe(word)
        char_model = CharModel(ops={"a": {"A": 1.0}, "b": {"B": 1.0}},
                               src_chars=frozenset("ab#"), tgt_lm=char_lm)
        system = DecoderSystem(tables=TableSet([table]), lm=lm, translit_model=char_model)
        model = system.default_model()
        sentences = self.SENTENCES[:n]
        with caplog.at_level(logging.INFO, logger="pivotsmt"):
            serial = [((), [])] * n
            for k, tokens in enumerate(sentences):
                if tokens:
                    result = system.decode(tokens, model, keep_arcs=nbest_size > 0)
                    serial[k] = (result.best_tokens(),
                                 nbest(result, nbest_size) if nbest_size else [])
            serial_records = log_lines(caplog)
            caplog.clear()
            with usable_cpus(cpus) as forks:
                decoded = decode_corpus(system, model, sentences, nbest_size=nbest_size)
        assert decoded == serial
        assert len(forks) == (min(cpus, n) - 1 if n >= 4 else 0)
        assert log_lines(caplog) == serial_records
        fallbacks = [text for _, _, text in serial_records if "identity fallback" in text]
        assert fallbacks == [f"transliterate: no path for {word!r}; identity fallback"
                             for tokens in sentences for word in tokens if "#" in word]


class TestSynthesize:
    def identity_system(self):
        table = PhraseTable(role="baseline")
        for word in ("u1", "u2", "u3"):
            table.add(PhraseEntry((word,), (word,), 1.0, 1.0, 1.0, 1.0))
        lm = train_kn([["u1", "u2", "u3"]], order=2)
        return DecoderSystem(tables=TableSet([table]), lm=lm)

    def test_empty(self):
        assert synthesize_bitext([], self.identity_system()) == []

    def test_identity_preserves_source(self):
        pairs = ingest_bitext(["u1 u2", "u3", ""], ["e1 e2", "e3", "e4"])
        out = synthesize_bitext(pairs, self.identity_system())
        assert out == [(("u1", "u2"), ("e1", "e2")), (("u3",), ("e3",)), ((), ("e4",))]

    def test_pair_count_preserved(self):
        lines = [f"u{1 + i % 3}" for i in range(50)]
        bitext = ingest_bitext(lines, [f"e{i}" for i in range(50)])
        out = synthesize_bitext(bitext, self.identity_system())
        assert len(out) == 50


class TestConfig:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text(
            "# comment line\n"
            "work_dir = out\n"
            "train_src = a.txt\n"
            "lm_order = 4\n"
            "use_synth = concat\n",
            encoding="utf-8")
        config = ExperimentConfig.from_file(str(path))
        assert config.work_dir == "out"
        assert config.lm_order == 4
        assert config.use_synth == "concat"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("no_such_key = 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="no_such_key"):
            ExperimentConfig.from_file(str(path))

    def test_bad_mode(self):
        with pytest.raises(DataError):
            ExperimentConfig(use_synth="sometimes")

    def test_readme_example_parses(self, tmp_path):
        # the README's example config, its `ini` block under "Experiments"
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("\n## Experiments\n", 1)[1].split("```ini\n", 1)[1]
        path = tmp_path / "exp.conf"
        path.write_text(block.split("```", 1)[0], encoding="utf-8")
        config = ExperimentConfig.from_file(str(path))
        assert (config.train_src, config.dict_tsv, config.use_synth, config.use_dict,
                config.tune_rounds, config.seed) == ("train.src", "dict.tsv", "concat", "on", 0, 7)

    def test_hash_changes_with_content(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert config_hash(a) != config_hash(b)


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("smallfix"))
    return make_experiment_fixture(directory, seed=5, vocab=20, covered=14,
                                   n_train=150, n_synth=80, n_test=40, n_dev=10)


class TestExperiment:
    def test_missing_inputs_fail_early(self, tmp_path):
        config = ExperimentConfig(work_dir=str(tmp_path / "w"),
                                  train_src="nope.txt", train_tgt="nope2.txt",
                                  test_src="no.txt", test_tgt="no2.txt")
        with pytest.raises(DataError, match="missing experiment inputs"):
            run_experiment(config)
        assert not os.path.exists(str(tmp_path / "w" / "run.manifest"))

    def test_missing_lm_corpus_leaves_no_work_dir(self, small_fixture, tmp_path):
        config_path = write_config(str(tmp_path / "c.conf"), str(tmp_path / "run"),
                                   small_fixture, lm_corpus=str(tmp_path / "nope.txt"))
        with pytest.raises(DataError, match="missing experiment inputs: lm_corpus$"):
            run_experiment(ExperimentConfig.from_file(config_path))
        assert not os.path.exists(str(tmp_path / "run"))

    def test_empty_dev_fails_before_training(self, small_fixture, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("training started before the inputs were read")

        monkeypatch.setattr(pipeline.ngramlm, "train_kn", never)
        monkeypatch.setattr(pipeline.align, "train_model1", never)
        empty = tmp_path / "empty.txt"
        for text in ("", "\n\n\n"):  # no line, or blank lines only
            empty.write_text(text, encoding="utf-8")
            config_path = write_config(str(tmp_path / "c.conf"), str(tmp_path / "run"),
                                       small_fixture, tune_rounds=1,
                                       dev_src=str(empty), dev_tgt=str(empty))
            with pytest.raises(DataError, match="dev_src is empty"):
                run_experiment(ExperimentConfig.from_file(config_path))
            assert not os.path.exists(str(tmp_path / "run"))

    def test_bar_in_label_keeps_four_cells_a_row(self, small_fixture, tmp_path):
        work = str(tmp_path / "run")
        config_path = write_config(str(tmp_path / "c.conf"), work, small_fixture,
                                   label="hi|en", use_synth="concat", use_dict="on")
        run_experiment(ExperimentConfig.from_file(config_path))
        with open(os.path.join(work, "report.tsv"), encoding="utf-8") as handle:
            rows = [line.split("\t") for line in handle.read().splitlines()]
        assert [len(row) for row in rows] == [4] * 4  # header, +Syn, +Dict, oov
        assert rows[1][0] == "hi|en +Syn"

    def test_synth_improves_bleu(self, small_fixture, tmp_path):
        config_path = write_config(str(tmp_path / "c.conf"),
                                   str(tmp_path / "run"), small_fixture,
                                   use_synth="concat")
        config = ExperimentConfig.from_file(config_path)
        result = run_experiment(config)
        assert result.scores["bleu.Syn"] > result.scores["bleu.B0"]
        assert "| +" in result.report_text or "| -" in result.report_text

    def test_dict_mode_reduces_oov(self, small_fixture, tmp_path):
        config_path = write_config(str(tmp_path / "c.conf"),
                                   str(tmp_path / "run"), small_fixture,
                                   use_dict="on")
        result = run_experiment(ExperimentConfig.from_file(config_path))
        assert result.scores["oov.Dict"] < result.scores["oov.B0"]
        assert result.scores["bleu.Dict"] >= result.scores["bleu.B0"]

    def test_separate_table_mode_improves(self, small_fixture, tmp_path):
        config_path = write_config(str(tmp_path / "c.conf"),
                                   str(tmp_path / "run"), small_fixture,
                                   use_synth="separate")
        result = run_experiment(ExperimentConfig.from_file(config_path))
        assert result.scores["bleu.PT"] > result.scores["bleu.B0"]
        assert os.path.exists(os.path.join(str(tmp_path / "run"),
                                           "table.PT.1.moses"))

    def test_manifest_deterministic(self, small_fixture, tmp_path):
        config_path = write_config(str(tmp_path / "c.conf"),
                                   str(tmp_path / "run"), small_fixture,
                                   use_synth="concat")
        config = ExperimentConfig.from_file(config_path)
        first = run_experiment(config)
        with open(first.manifest_path, "rb") as handle:
            manifest_one = handle.read()
        second = run_experiment(ExperimentConfig.from_file(config_path))
        with open(second.manifest_path, "rb") as handle:
            manifest_two = handle.read()
        assert manifest_one == manifest_two

    def test_manifest_lists_artifact_hashes(self, small_fixture, tmp_path):
        work = str(tmp_path / "run")
        config_path = write_config(str(tmp_path / "c.conf"), work,
                                   small_fixture)
        result = run_experiment(ExperimentConfig.from_file(config_path))
        with open(result.manifest_path, encoding="utf-8") as handle:
            manifest = handle.read()
        assert "config_hash = " in manifest
        for name in os.listdir(work):
            if name != "run.manifest":
                assert name in manifest, f"{name} missing from manifest"
        assert manifest.count(".sha256 =") >= 5

    def test_mode_isolation(self, small_fixture, tmp_path):
        base_cfg = write_config(str(tmp_path / "a.conf"),
                                str(tmp_path / "run_a"), small_fixture)
        run_experiment(ExperimentConfig.from_file(base_cfg))
        with open(os.path.join(str(tmp_path / "run_a"), "table.B0.0.moses"),
                  "rb") as handle:
            solo = handle.read()
        both_cfg = write_config(str(tmp_path / "b.conf"),
                                str(tmp_path / "run_b"), small_fixture,
                                use_synth="concat", use_dict="on")
        run_experiment(ExperimentConfig.from_file(both_cfg))
        with open(os.path.join(str(tmp_path / "run_b"), "table.B0.0.moses"),
                  "rb") as handle:
            with_modes = handle.read()
        assert solo == with_modes

    def test_tuning_round_runs(self, small_fixture, tmp_path):
        config_path = write_config(
            str(tmp_path / "c.conf"), str(tmp_path / "run"), small_fixture,
            dev_src=small_fixture["dev"][0], dev_tgt=small_fixture["dev"][1],
            tune_rounds=1, nbest_size=10)
        result = run_experiment(ExperimentConfig.from_file(config_path))
        assert "bleu.B0" in result.scores
