import math
import random

import pytest

from pivotsmt.decoder import (
    DecoderSystem, LogLinearModel, TranslationOption, _coverage_future,
    collect_options, decode, derivation_features, format_nbest_line, nbest,
    read_weights, tune_weights, weighted_total, write_weights,
)
from pivotsmt.errors import DataError
from pivotsmt.ngramlm import train_kn
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, TableSet
from pivotsmt.translit import WordPairCorpus, mine_transliterations

from oracles import coverage_future_reference, enumerate_decodings


def table_of(entries, role="baseline"):
    table = PhraseTable(role=role)
    for src, tgt, p in entries:
        table.add(PhraseEntry(tuple(src.split()), tuple(tgt.split()), p, p, p, p))
    return table


@pytest.fixture(scope="module")
def uniform_lm():
    # flat-ish LM over the target tokens used below
    corpus = [[f"x{i}" for i in range(8)], [f"x{i}" for i in range(7, -1, -1)],
              ["x0", "x1"], ["y0", "y1", "y2", "y3"]]
    return train_kn(corpus, order=2)


class TestCollect:
    def test_single_word_single_entry(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        lattice = collect_options(["a"], tables)
        assert set(lattice) == {(0, 1)}
        assert len(lattice[(0, 1)]) == 1
        assert lattice[(0, 1)][0].origin == "baseline"

    def test_pass_through_for_unknown(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        lattice = collect_options(["a", "zzz"], tables)
        opts = lattice[(1, 2)]
        assert len(opts) == 1
        assert opts[0].origin == "pass-through"
        assert opts[0].target == ("zzz",)

    def test_translit_options_ranked(self):
        model, _ = mine_transliterations(
            WordPairCorpus([("ab", "AB", 1.0), ("ba", "BA", 1.0),
                            ("aa", "AA", 1.0), ("bb", "BB", 1.0)] * 3),
            iterations=6, threshold=0.5)
        tables = TableSet([table_of([("known", "x0", 1.0)])])
        lattice = collect_options(["known", "ab"], tables,
                                  translit_model=model, translit_k=3)
        opts = lattice[(1, 2)]
        assert 1 <= len(opts) <= 3
        assert all(o.origin == "translit" for o in opts)
        scores = [o.features["translit"] for o in opts]
        assert scores == sorted(scores, reverse=True)
        assert opts[0].target == ("AB",)

    def test_limit_keeps_best(self, uniform_lm):
        entries = [("a", f"x{i}", (i + 1) / 10.0) for i in range(8)]
        tables = TableSet([table_of(entries)])
        lattice = collect_options(["a"], tables, limit=3)
        assert len(lattice[(0, 1)]) == 3
        kept = {o.target[0] for o in lattice[(0, 1)]}
        assert kept == {"x7", "x6", "x5"}

    def test_multiple_tables_are_blocks(self, uniform_lm):
        t0 = table_of([("a", "x0", 0.9)], role="baseline")
        t1 = table_of([("a", "x1", 0.8)], role="triangulated")
        lattice = collect_options(["a"], TableSet([t0, t1]))
        opts = lattice[(0, 1)]
        assert len(opts) == 2
        by_origin = {o.origin: o for o in opts}
        floor = math.log10(1e-12)
        assert by_origin["baseline"].features["tm1.phi_fwd"] == floor
        assert by_origin["triangulated"].features["tm0.phi_fwd"] == floor
        assert by_origin["baseline"].features["tm0.phi_fwd"] == \
            pytest.approx(math.log10(0.9))

    def test_three_table_blocks_decode(self, uniform_lm):
        # baseline + triangulated + transliteration tables as three blocks,
        # each the only source of one word's translation
        baseline = table_of([("a", "x0", 0.9)], role="baseline")
        triangulated = table_of([("b", "x1", 0.8)], role="triangulated")
        transliterated = table_of([("c", "x2", 0.7)], role="transliterated")
        tables = TableSet([baseline, triangulated, transliterated])
        system = DecoderSystem(tables=tables, lm=uniform_lm)
        model = system.default_model()
        assert len([n for n in model.feature_order() if n.startswith("tm")]) == 12
        result = system.decode(["a", "b", "c"])
        assert result.best_tokens() == ("x0", "x1", "x2")
        feats = derivation_features(result.best_derivation, model, uniform_lm)
        floor = math.log10(1e-12)
        # each option scores its own block; the other two blocks stay floored
        assert feats["tm0.phi_fwd"] == pytest.approx(
            math.log10(0.9) + 2 * floor)
        assert feats["tm1.phi_fwd"] == pytest.approx(
            math.log10(0.8) + 2 * floor)
        assert feats["tm2.phi_fwd"] == pytest.approx(
            math.log10(0.7) + 2 * floor)


def random_instance(rng, lm_words, min_len=1, max_len=4):
    """A short sentence with random options over one table block."""
    n = rng.randint(min_len, max_len)
    sentence = [f"w{i}" for i in range(n)]
    lattice = {}
    total_options = 0
    # guarantee coverability with single-word spans
    for i in range(n):
        k = rng.randint(1, 2)
        opts = []
        for c in range(k):
            tgt = tuple(rng.choice(lm_words)
                        for _ in range(rng.randint(1, 2)))
            feats = {f"tm0.{f}": math.log10(rng.uniform(0.05, 1.0))
                     for f in ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")}
            opts.append(TranslationOption(i, i + 1, tgt, feats, "baseline"))
        lattice[(i, i + 1)] = opts
        total_options += k
    # a few multi-word spans
    for _ in range(rng.randint(0, 2)):
        if n < 2 or total_options >= 10:
            break
        i = rng.randrange(n - 1)
        j = rng.randint(i + 2, n)
        feats = {f"tm0.{f}": math.log10(rng.uniform(0.05, 1.0))
                 for f in ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")}
        opts = lattice.setdefault((i, j), [])
        opts.append(TranslationOption(
            i, j, (rng.choice(lm_words),), feats, "baseline"))
        total_options += 1
    return sentence, lattice


class TestDecode:
    def test_single_word(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        system = DecoderSystem(tables=tables, lm=uniform_lm)
        assert system.translate(["a"]) == ("x0",)

    def test_pass_through_in_place(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0), ("c", "x1", 1.0)])])
        system = DecoderSystem(tables=tables, lm=uniform_lm)
        out = system.translate(["a", "qqq", "c"])
        assert "qqq" in out

    def test_matches_exhaustive_enumeration(self, uniform_lm):
        rng = random.Random(314)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for trial in range(120):
            sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=6, stack_size=5000)
            ranked = enumerate_decodings(len(sentence), lattice, model.weights,
                                         uniform_lm, 6)
            assert ranked, "enumerator found no complete decoding"
            assert result.best_score == pytest.approx(ranked[0][1], abs=1e-9)

    def test_matches_exhaustive_enumeration_tight_window(self, uniform_lm):
        # 5-6 words under limits 0-3: the distortion window cuts off spans
        rng = random.Random(2718)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for trial in range(40):
            sentence, lattice = random_instance(rng, lm_words, 5, 6)
            limit = rng.randint(0, 3)
            ranked = enumerate_decodings(len(sentence), lattice, model.weights,
                                         uniform_lm, limit)
            try:
                result = decode(sentence, model, uniform_lm, lattice,
                                distortion_limit=limit, stack_size=5000)
            except DataError:
                assert not ranked, "decoder dead-ended where a decoding exists"
                continue
            assert result.best_score == pytest.approx(ranked[0][1], abs=1e-9)

    def test_coverage_future_matches_bitwise_scan(self):
        rng = random.Random(17)
        for n in range(1, 11):
            fc = {(i, j): rng.uniform(-20.0, 0.0)
                  for i in range(n) for j in range(i + 1, n + 1)}
            for coverage in range(1 << n):
                assert _coverage_future(coverage, n, fc) == \
                    coverage_future_reference(coverage, n, fc)

    def test_distortion_limit_soundness(self, uniform_lm):
        rng = random.Random(99)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(60):
            sentence, lattice = random_instance(rng, lm_words)
            limit = rng.randint(1, 4)
            try:
                result = decode(sentence, model, uniform_lm, lattice,
                                distortion_limit=limit, stack_size=200)
            except DataError:
                continue  # tight limits may make completion impossible
            prev_end = 0
            for option in result.best_derivation:
                assert abs(option.start - prev_end) <= limit
                prev_end = option.end

    def test_monotone_stack_growth(self, uniform_lm):
        rng = random.Random(5)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(40):
            sentence, lattice = random_instance(rng, lm_words)
            best = -math.inf
            for stack_size in (1, 2, 5, 20, 1000):
                result = decode(sentence, model, uniform_lm, lattice,
                                distortion_limit=6, stack_size=stack_size)
                assert result.best_score >= best - 1e-12
                best = max(best, result.best_score)

    def test_feature_additivity(self, uniform_lm):
        rng = random.Random(77)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(30):
            sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=6, stack_size=500)
            feats = derivation_features(result.best_derivation, model,
                                        uniform_lm)
            assert weighted_total(feats, model) == pytest.approx(
                result.best_score, abs=1e-9)

    def test_pass_through_totality(self, uniform_lm):
        # decoding never fails, even when no table knows any word
        rng = random.Random(41)
        tables = TableSet([table_of([("known", "x0", 1.0)])])
        system = DecoderSystem(tables=tables, lm=uniform_lm)
        for _ in range(25):
            sentence = [rng.choice(["known", "q1", "q2", "q3"])
                        for _ in range(rng.randint(1, 6))]
            out = system.translate(sentence)
            assert len(out) >= 1

    def test_uncoverable_position_rejected(self, uniform_lm):
        model = LogLinearModel.default(1)
        lattice = {(0, 1): [TranslationOption(
            0, 1, ("x0",), {f"tm0.{f}": -1.0 for f in
                            ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")},
            "baseline")]}
        with pytest.raises(DataError):
            decode(["a", "b"], model, uniform_lm, lattice)


class TestNBest:
    def test_n1_equals_best(self, uniform_lm):
        rng = random.Random(11)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        sentence, lattice = random_instance(rng, lm_words)
        result = decode(sentence, model, uniform_lm, lattice,
                        distortion_limit=6, stack_size=1000)
        items = nbest(result, 1)
        assert items[0].tokens == result.best_tokens()
        assert items[0].score == pytest.approx(result.best_score, abs=1e-12)

    def test_matches_enumerator_order(self, uniform_lm):
        rng = random.Random(23)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(40):
            sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=6, stack_size=5000)
            items = nbest(result, 10)
            ranked = enumerate_decodings(len(sentence), lattice,
                                         model.weights, uniform_lm, 6)
            # deduplicate enumerator output by target string, keep best
            seen = {}
            for tokens, score in ranked:
                if tokens not in seen:
                    seen[tokens] = score
            expected = sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))
            for item, (tokens, score) in zip(items, expected[:len(items)]):
                assert item.score == pytest.approx(score, abs=1e-9)

    def test_duplicates_keep_higher_score(self, uniform_lm):
        # two derivations of the same string: segmented vs single phrase
        table = table_of([("a", "x0", 0.9), ("b", "x1", 0.9),
                          ("a b", "x0 x1", 0.5)])
        system = DecoderSystem(tables=TableSet([table]), lm=uniform_lm)
        result = system.decode(["a", "b"])
        items = nbest(result, 10)
        tokens = [item.tokens for item in items]
        assert len(tokens) == len(set(tokens))

    def test_breakdown_sums(self, uniform_lm):
        table = table_of([("a", "x0", 0.7), ("a", "x1", 0.3)])
        system = DecoderSystem(tables=TableSet([table]), lm=uniform_lm)
        result = system.decode(["a"])
        model = system.default_model()
        for item in nbest(result, 5):
            assert weighted_total(item.features, model) == pytest.approx(
                item.score, abs=1e-9)

    def test_nbest_line_format(self, uniform_lm):
        table = table_of([("a", "x0", 1.0)])
        system = DecoderSystem(tables=TableSet([table]), lm=uniform_lm)
        result = system.decode(["a"])
        item = nbest(result, 1)[0]
        model = system.default_model()
        line = format_nbest_line(3, item, model.feature_order())
        parts = line.split(" ||| ")
        assert parts[0] == "3"
        assert parts[1] == "x0"
        assert "tm0.phi_fwd=" in parts[2]
        assert parts[3] == f"{item.score:.6f}"


class TestTune:
    def make_system(self, uniform_lm):
        table = table_of([("a", "x0", 0.6), ("a", "x1", 0.4),
                          ("b", "x1", 0.9)])
        return DecoderSystem(tables=TableSet([table]), lm=uniform_lm)

    def test_perfect_dev_unchanged(self, uniform_lm):
        system = self.make_system(uniform_lm)
        model = system.default_model()
        dev = [(("a",), system.translate(["a"], model)),
               (("b",), system.translate(["b"], model))]
        tuned = tune_weights(dev, system, model, rounds=1)
        assert tuned.weights == model.weights

    def test_ascent_property(self, uniform_lm):
        from pivotsmt.evalkit import corpus_bleu
        system = self.make_system(uniform_lm)
        initial = system.default_model()
        # references prefer the lower-phi candidate: weights must move
        dev = [(("a",), ("x1",))] * 3
        tuned = tune_weights(dev, system, initial, rounds=2)

        def dev_bleu(model):
            hyps = [system.translate(src, model) for src, _ in dev]
            return corpus_bleu(hyps, [ref for _, ref in dev])[0]

        assert dev_bleu(tuned) >= dev_bleu(initial)

    def test_deterministic(self, uniform_lm):
        system = self.make_system(uniform_lm)
        initial = system.default_model()
        dev = [(("a", "b"), ("x1", "x1"))] * 2
        first = tune_weights(dev, system, initial, rounds=2, seed=42)
        second = tune_weights(dev, system, initial, rounds=2, seed=42)
        assert first.weights == second.weights

    def test_empty_dev_rejected(self, uniform_lm):
        system = self.make_system(uniform_lm)
        with pytest.raises(DataError):
            tune_weights([], system, system.default_model())


class TestWeightsIO:
    def test_roundtrip(self, tmp_path, uniform_lm):
        model = LogLinearModel.default(2, use_translit=True)
        model.weights["lm"] = 0.75
        path = str(tmp_path / "weights.tsv")
        write_weights(model, path)
        back = read_weights(path, 2, use_translit=True)
        assert back.weights == pytest.approx(model.weights)

    def test_malformed(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("lm\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_weights(str(path), 1)
