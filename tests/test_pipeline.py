import logging
import os

import pytest

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


def toy_bitext():
    src = ["das haus", "das buch", "ein haus"]
    tgt = ["the house", "the book", "a house"]
    return ingest_bitext(src, tgt)


class TestTraining:
    def test_align_bitext_das_haus(self):
        bitext = toy_bitext()
        matrices, _, _ = align_bitext(bitext, iterations=10)
        assert matrices[0].links == {(0, 0), (1, 1)}

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
        from pivotsmt.corpus import Bitext
        out = synthesize_bitext(Bitext(), self.identity_system())
        assert len(out) == 0

    def test_identity_preserves_source(self):
        bitext = ingest_bitext(["u1 u2", "u3"], ["e1 e2", "e3"])
        out = synthesize_bitext(bitext, self.identity_system())
        assert len(out) == len(bitext)
        assert out.pairs[0] == (("u1", "u2"), ("e1", "e2"))

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
