import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pivotsmt import decoder
from pivotsmt.decoder import (
    TM_FEATURES, DecoderSystem, LogLinearModel, TranslationOption, _coverage_future,
    decode, decode_corpus, derivation_features, format_nbest_line, nbest, read_weights,
    tune_weights, weighted_total, write_weights,
)
from pivotsmt.errors import DataError
from pivotsmt.evalkit import BleuStats
from pivotsmt.ngramlm import MixtureModel, read_arpa, train_kn
from pivotsmt.phrasetab import PhraseEntry, PhraseTable, TableSet
from pivotsmt.translit import (DEFAULT_KBEST, CharModel, CharTrigramModel, WordPairCorpus,
                               build_translit_table, mine_transliterations)

from fixtures import read_file
from oracles import (coverage_future_reference, decode_reference, enumerate_decodings,
                     nbest_reference, tune_reference)


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


def options_of(sentence, tables, **search):
    """The options a DecoderSystem collects for `sentence` under its default model."""
    system = DecoderSystem(tables=tables, lm=None, **search)
    return system.lattice(sentence, system.default_model())


class TestCollect:
    def test_single_word_single_entry(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        lattice = options_of(["a"], tables)
        assert set(lattice) == {(0, 1)}
        assert len(lattice[(0, 1)]) == 1
        assert lattice[(0, 1)][0].origin == "baseline"

    def test_pass_through_for_unknown(self, uniform_lm):
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        lattice = options_of(["a", "zzz"], tables)
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
        lattice = options_of(["known", "ab"], tables, translit_model=model, option_limit=3)
        # the uncovered word's options are the first three of block tm1,
        # the `transliterated` table of its DEFAULT_KBEST transliterations
        entries = build_translit_table(model, ["ab"], DEFAULT_KBEST).get(("ab",))
        opts = lattice[(1, 2)]
        assert len(opts) == min(3, len(entries))
        assert all(o.origin == "transliterated" for o in opts)
        assert all(list(o.features) == [f"tm1.{f}" for f in TM_FEATURES] for o in opts)
        scores = [o.features["tm1.phi_fwd"] for o in opts]
        assert scores == sorted(scores, reverse=True)
        assert opts[0].target == ("AB",)
        assert {o.target for o in opts} <= {e.target for e in entries}
        assert [o.origin for o in lattice[(0, 1)]] == ["baseline"]

    def test_marker_transliterations_are_dropped(self):
        # d is written | and a, b, c as <, s, >, so the only transliteration
        # of "ddd" is the field separator and that of "abc" the LM marker
        # <s>: both words pass through. e is written > or x, so "abe" keeps
        # "<sx" alone, with probability 1.
        char_lm = CharTrigramModel()
        for word in ("|||", "<s>", "<sx"):
            char_lm.observe(word)
        char_model = CharModel(ops={"d": {"|": 1.0}, "a": {"<": 1.0}, "b": {"s": 1.0},
                                    "c": {">": 1.0}, "e": {">": 0.5, "x": 0.5}},
                               src_chars=frozenset("abcde"), tgt_lm=char_lm)
        tables = TableSet([table_of([("q", "Q", 1.0)])])
        system = DecoderSystem(tables=tables, lm=train_kn([["Q"]], order=2),
                               translit_model=char_model)
        assert system.translate(("q", "ddd")) == ("Q", "ddd")
        assert system.translate(("q", "abc")) == ("Q", "abc")
        lattice = system.lattice(("q", "abc", "abe"), system.default_model())
        assert [(o.origin, o.target) for o in lattice[1, 2]] == [("pass-through", ("abc",))]
        assert [(o.origin, o.target, o.features) for o in lattice[2, 3]] == \
            [("transliterated", ("<sx",), {f"tm1.{f}": 0.0 for f in TM_FEATURES})]

    def test_covered_sentence_gets_no_transliteration(self, uniform_lm):
        char_model = CharModel(ops={"a": {"x": 1.0}}, src_chars=frozenset("a"),
                               tgt_lm=CharTrigramModel())
        tables = TableSet([table_of([("a", "x0", 1.0)])])
        system = DecoderSystem(tables=tables, lm=uniform_lm, translit_model=char_model)
        # the model adds one block, weighed by every model of the system
        assert system.n_blocks == 2
        assert system.default_model().feature_order()[:8] == \
            [f"tm{i}.{f}" for i in range(2) for f in TM_FEATURES]
        lattice = system.lattice(["a", "a"], system.default_model())
        assert [o.origin for opts in lattice.values() for o in opts] == ["baseline"] * 2

    def test_limit_keeps_best(self, uniform_lm):
        entries = [("a", f"x{i}", (i + 1) / 10.0) for i in range(8)]
        tables = TableSet([table_of(entries)])
        lattice = options_of(["a"], tables, option_limit=3)
        assert len(lattice[(0, 1)]) == 3
        kept = {o.target[0] for o in lattice[(0, 1)]}
        assert kept == {"x7", "x6", "x5"}

    def test_multiple_tables_are_blocks(self, uniform_lm):
        t0 = table_of([("a", "x0", 0.9)], role="baseline")
        t1 = table_of([("a", "x1", 0.8)], role="triangulated")
        lattice = options_of(["a"], TableSet([t0, t1]))
        opts = lattice[(0, 1)]
        assert len(opts) == 2
        by_origin = {o.origin: o for o in opts}
        # each option carries its own table's block and nothing else
        assert list(by_origin["baseline"].features) == [f"tm0.{f}" for f in TM_FEATURES]
        assert list(by_origin["triangulated"].features) == [f"tm1.{f}" for f in TM_FEATURES]
        assert by_origin["baseline"].features["tm0.phi_fwd"] == math.log10(0.9)
        assert by_origin["triangulated"].features["tm1.phi_fwd"] == math.log10(0.8)

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
        # each option scores its own block; the blocks it lacks add 0, so
        # each block sums to exactly its own table's log score
        for i, prob in enumerate((0.9, 0.8, 0.7)):
            for feat in TM_FEATURES:
                assert feats[f"tm{i}.{feat}"] == math.log10(prob)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_character_model_decodes_as_its_table_appended(seed):
    # a system with a character model decodes, 1-best and n-best, as one
    # without it whose tables end with build_translit_table of the words
    # that no table covers. The first "ab" is one of them; the one after
    # "k0" is covered by a two-word phrase, and still gets the block's options
    char_lm = CharTrigramModel()
    for word in ("AB", "BA", "EB", "BAP", "ABBA"):
        char_lm.observe(word)
    char_model = CharModel(ops={"a": {"A": 0.7, "E": 0.3}, "b": {"B": 0.6, "P": 0.4}},
                           src_chars=frozenset("ab"), tgt_lm=char_lm)
    tables = [table_of([("k0", "x0", 0.7), ("k0", "x1", 0.3), ("k1", "x1", 1.0),
                        ("k0 ab", "x0 AB", 0.5)]),
              table_of([("k1", "x0", 0.6)], role="triangulated")]
    lm = train_kn([["x0", "x1", "AB"], ["BA", "x1"], ["x0", "AA", "x1"]], order=2)
    with_model = DecoderSystem(tables=TableSet(tables), lm=lm, translit_model=char_model)
    plain = DecoderSystem(tables=TableSet(tables), lm=lm)
    rng = random.Random(seed)
    sentence = [rng.choice(["k0", "k1", "ba", "aab", "abba"]) for _ in range(3)]
    at = rng.randrange(4)
    sentence[at:at] = ["k0", "ab"]
    sentence.insert(0, "ab")
    uncovered = [sentence[start] for (start, _), opts in
                 plain.lattice(sentence, plain.default_model()).items()
                 if opts[0].origin == "pass-through"]
    appended = DecoderSystem(tables=TableSet(tables + [build_translit_table(
        char_model, uncovered, DEFAULT_KBEST)]), lm=lm)
    model = with_model.default_model()
    assert model == appended.default_model()
    one, other = (system.decode(sentence, model, keep_arcs=False)
                  for system in (with_model, appended))
    assert (one.best_tokens(), one.best_score) == (other.best_tokens(), other.best_score)
    one, other = (nbest(system.decode(sentence, model), 10)
                  for system in (with_model, appended))
    assert one == other
    assert any(name.startswith("tm2.") and value for item in one
               for name, value in item.features.items())


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
                            distortion_limit=6, stack_size=5000, keep_arcs=False)
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
                                distortion_limit=limit, stack_size=5000, keep_arcs=False)
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
                                distortion_limit=limit, stack_size=200, keep_arcs=False)
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
                                distortion_limit=6, stack_size=stack_size, keep_arcs=False)
                assert result.best_score >= best - 1e-12
                best = max(best, result.best_score)

    def test_feature_additivity(self, uniform_lm):
        rng = random.Random(77)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(30):
            sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=6, stack_size=500, keep_arcs=False)
            feats = derivation_features(result.best_derivation, model,
                                        uniform_lm)
            assert weighted_total(feats, model.weights) == pytest.approx(
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
            decode(["a", "b"], model, uniform_lm, lattice,
                   distortion_limit=6, stack_size=200, keep_arcs=False)

    def test_stack_freed_once_expanded(self, monkeypatch):
        # only expanded nodes are reachable from the goal, so the rest of a
        # stack must not outlive its expansion
        counts = {"made": 0, "live": 0, "peak": 0}

        class CountedNode(decoder._Node):
            def __init__(self, *args):
                super().__init__(*args)
                counts["made"] += 1
                counts["live"] += 1
                counts["peak"] = max(counts["peak"], counts["live"])

            def __del__(self):
                counts["live"] -= 1

        monkeypatch.setattr(decoder, "_Node", CountedNode)
        n, k = 20, 4  # sized so that over 500 nodes are made under the gap constraint
        table = table_of([(f"w{i}", f"x{i}_{j}", 1.0 / (j + 2))
                          for i in range(n) for j in range(k)])
        lm = train_kn([[f"x{i}_{j}" for i in range(n)] for j in range(k)], order=2)
        system = DecoderSystem(tables=TableSet([table]), lm=lm,
                               distortion_limit=3, stack_size=10)
        result = system.decode([f"w{i}" for i in range(n)])
        assert result.best_tokens() == tuple(f"x{i}_0" for i in range(n))
        assert counts["made"] > 500
        assert counts["peak"] < counts["made"] / 3

    def test_one_best_paths_append_no_arc(self, uniform_lm, monkeypatch):
        # translate and decode_corpus without n-best lists read back-pointers
        # only, so their searches append no arc; DecoderSystem.decode and
        # n-best decoding still build the lattice
        appended = []

        class CountedArcs(list):
            def append(self, arc):
                appended.append(arc)
                super().append(arc)

        class CountedNode(decoder._Node):
            def __init__(self, *args):
                super().__init__(*args)
                if isinstance(self.arcs, list):
                    self.arcs = CountedArcs()

        results = []
        real_decode = decoder.decode
        monkeypatch.setattr(decoder, "_Node", CountedNode)
        monkeypatch.setattr(decoder, "decode", lambda *args, **kwargs: (
            results.append(real_decode(*args, **kwargs)) or results[-1]))
        table = table_of([("a", "x0", 0.6), ("a", "x1", 0.4), ("b", "x1", 0.9),
                          ("a b", "x0 x1", 0.5)])
        system = DecoderSystem(tables=TableSet([table]), lm=uniform_lm)
        model = system.default_model()
        sentences = [("a", "b"), ("b", "a", "b"), ("a",)]
        translated = [system.translate(sentence) for sentence in sentences]
        assert [best for best, _ in decode_corpus(system, model, sentences)] == translated
        assert len(results) == 6 and not appended
        assert all(result.goal.arcs == () for result in results)
        decode_corpus(system, model, sentences, nbest_size=3)
        system.decode(sentences[0])
        assert len(results) == 10 and appended
        assert all(result.goal.arcs for result in results[6:])

    def test_no_dead_end_under_a_narrow_beam(self, uniform_lm):
        # without the gap constraint, 9 of these 40 searches keep only
        # hypotheses that jumped too far past a gap, and find no complete one
        model = LogLinearModel.default(1)
        lm_words = [f"x{i}" for i in range(8)]
        for seed in range(40):
            sentence, lattice = random_instance(random.Random(seed), lm_words, 8, 10)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=2, stack_size=2, keep_arcs=False)
            spans = sorted((opt.start, opt.end) for opt in result.best_derivation)
            assert [pos for s, e in spans for pos in range(s, e)] == \
                list(range(len(sentence)))


def tied_instance(rng, n):
    """A sentence whose options repeat a few targets and table scores, so that
    many derivations tie: equal copies of one option, and segmentations of
    the same target string."""
    feats = {f"tm0.{f}": -0.5 for f in ("phi_fwd", "lex_fwd", "phi_bwd", "lex_bwd")}
    lattice = {}
    for i in range(n):
        lattice[(i, i + 1)] = [TranslationOption(i, i + 1, (rng.choice(["x0", "x1"]),),
                                                 dict(feats), "baseline")
                               for _ in range(rng.randint(1, 3))]
    for i in range(n - 1):
        if rng.random() < 0.5:
            target = tuple(rng.choice(["x0", "x1"]) for _ in range(2))
            lattice[(i, i + 2)] = [TranslationOption(i, i + 2, target, dict(feats),
                                                     "baseline")] * rng.randint(1, 2)
    return [f"w{i}" for i in range(n)], lattice


class TestNBest:
    def test_n1_equals_best(self, uniform_lm, monkeypatch):
        # the 1-best is the first derivation nbest enumerates, option for
        # option and to the last bit, also where many derivations tie
        enumerated = []
        features = decoder.derivation_features
        monkeypatch.setattr(decoder, "derivation_features", lambda derivation, *rest: (
            enumerated.append(list(derivation)) or features(derivation, *rest)))
        rng = random.Random(11)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for trial in range(60):
            if trial % 2:
                sentence, lattice = tied_instance(rng, rng.randint(2, 6))
            else:
                sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=rng.randint(1, 6), stack_size=1000,
                            keep_arcs=True)
            enumerated.clear()
            items = nbest(result, 1)
            assert items[0].tokens == result.best_tokens()
            assert items[0].score == result.best_score
            assert len(enumerated[0]) == len(result.best_derivation)
            assert all(a is b for a, b in zip(enumerated[0], result.best_derivation))

    def test_matches_enumerator_order(self, uniform_lm):
        rng = random.Random(23)
        lm_words = [f"x{i}" for i in range(8)]
        model = LogLinearModel.default(1)
        for _ in range(40):
            sentence, lattice = random_instance(rng, lm_words)
            result = decode(sentence, model, uniform_lm, lattice,
                            distortion_limit=6, stack_size=5000, keep_arcs=True)
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

    def test_result_without_arcs_rejected(self, uniform_lm):
        # its goal has no arcs, like the initial node, whose one derivation
        # is empty: nbest must not return that as an item
        table = table_of([("a", "x0", 0.7), ("a", "x1", 0.3)])
        system = DecoderSystem(tables=TableSet([table]), lm=uniform_lm)
        result = system.decode(["a"], keep_arcs=False)
        assert result.best_tokens() == ("x0",)
        with pytest.raises(ValueError, match="decoded without arcs"):
            nbest(result, 5)

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
            assert weighted_total(item.features, model.weights) == pytest.approx(
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


def repeated_target_instance(rng, n):
    """Two tables' options over a sentence, in random order and with few
    distinct targets. Half the draws are one entry that both tables hold:
    two options with equal dyadic scores in opposite blocks, whose static
    scores tie exactly under dyadic weights. The rest repeat targets with
    other scores, higher or lower than earlier options of the same target."""
    lattice = {}
    for i in range(n):
        for j in range(i + 1, min(n, i + 3) + 1):
            if j > i + 1 and rng.random() < 0.5:
                continue
            opts = []
            for _ in range(rng.randint(1, 4)):
                target = tuple(rng.choice(["x0", "x1", "x2"])
                               for _ in range(rng.randint(1, 2)))
                if rng.random() < 0.5:
                    values = [-rng.randint(1, 24) / 8 for _ in TM_FEATURES]
                    for table in (0, 1):
                        feats = {f"tm{t}.{f}": value if t == table else -12.0
                                 for t in (0, 1) for f, value in zip(TM_FEATURES, values)}
                        opts.append(TranslationOption(i, j, target, feats, f"table{table}"))
                else:
                    feats = {f"tm{t}.{f}": math.log10(rng.uniform(0.05, 1.0))
                             for t in (0, 1) for f in TM_FEATURES}
                    opts.append(TranslationOption(i, j, target, feats, "table0"))
            rng.shuffle(opts)
            lattice[(i, j)] = opts
    return [f"w{i}" for i in range(n)], lattice


def lattice_of(result):
    """Every node the goal reaches, keyed and scored, with its arcs grouped by
    (predecessor, target) in first-arc order and each group's highest
    increment: what dropping options that repeat a target leaves unchanged."""
    seen, todo, nodes = set(), [result.goal], []
    while todo:
        node = todo.pop()
        groups = {}
        for pred, option, inc in node.arcs:
            group = ((pred.coverage, pred.lm_state, pred.prev_end), option and option.target)
            groups[group] = max(groups.get(group, -math.inf), inc)
            if id(pred) not in seen:
                seen.add(id(pred))
                todo.append(pred)
        nodes.append(((node.coverage, node.lm_state, node.prev_end, node.score),
                      list(groups.items())))
    return sorted(nodes)


def items_of(items):
    return [(item.tokens, item.score, item.features) for item in items]


def assert_same_best(result, expected):
    """Same best score, to the bit, and the same 1-best options (`is`)."""
    assert result.best_score == expected.best_score
    assert len(result.best_derivation) == len(expected.best_derivation)
    assert all(a is b for a, b in zip(result.best_derivation, expected.best_derivation))


def assert_arc_free_search_agrees(args, search, *expected):
    """The search without arcs keeps none and finds the best of each of
    `expected` from its back-pointers alone."""
    result = decode(*args, **search, keep_arcs=False)
    assert result.goal.arcs == ()
    for other in expected:
        assert_same_best(result, other)


def assert_same_search(result, expected):
    """Same lattice, score, 1-best options and 10-best items, the latter also
    from the enumeration that gives every reachable node a list."""
    assert lattice_of(result) == lattice_of(expected)
    assert_same_best(result, expected)
    items = items_of(nbest(result, 10))
    assert items == items_of(nbest(expected, 10))
    assert items == items_of(nbest_reference(result, 10))


class TestSearchEqualsReference:
    """`decode` skips covered starts, spans past the reach of the first gap
    and options that repeat a target with no higher score; the reference
    visits and keeps them all, and both must agree to the last bit. The
    reference reads its 1-best from the arcs, and the search without arcs
    from its back-pointers."""

    def test_random_lattices_with_repeated_targets(self, uniform_lm):
        rng = random.Random(1414)
        weights = {name: 0.25 for name in decoder.feature_names(2)}
        weights.update(lm=0.5, word_penalty=0.125, phrase_penalty=-0.0625)
        model = LogLinearModel(weights=weights, n_tables=2)
        exact_ties = 0
        for _ in range(300):
            sentence, lattice = repeated_target_instance(rng, rng.randint(1, 7))
            for opts in lattice.values():
                statics = [(o.target, weighted_total(o.features, weights)) for o in opts]
                exact_ties += len(statics) - len(set(statics))
            search = dict(distortion_limit=rng.randint(0, 6), stack_size=rng.randint(1, 50))
            args = (sentence, model, uniform_lm, lattice)
            try:
                expected = decode_reference(*args, **search)
            except DataError:
                for keep_arcs in (True, False):
                    with pytest.raises(DataError):
                        decode(*args, **search, keep_arcs=keep_arcs)
                continue
            result = decode(*args, **search, keep_arcs=True)
            assert_same_search(result, expected)
            assert_arc_free_search_agrees(args, search, result, expected)
        assert exact_ties > 100

    def test_exactly_tied_arcs_into_one_node(self):
        # Under a unigram LM of weight 0 and dyadic weights, every score is
        # exact and nodes differ only in coverage and end, so the arcs of x0
        # and x1 options with equal features tie into one node: the
        # back-pointer must be the first of them, as in the reference.
        lm = train_kn([["x0", "x1"]], order=1)
        rng = random.Random(1616)
        weights = {name: 0.25 for name in decoder.feature_names(1)}
        weights.update(lm=0.0, word_penalty=0.125, phrase_penalty=0.0, distortion=0.5)
        model = LogLinearModel(weights=weights, n_tables=1)
        tied_nodes = 0
        for _ in range(150):
            sentence, lattice = tied_instance(rng, rng.randint(2, 6))
            args, search = (sentence, model, lm, lattice), dict(distortion_limit=6,
                                                                stack_size=1000)
            result = decode(*args, **search, keep_arcs=True)
            expected = decode_reference(*args, **search)
            assert_same_search(result, expected)
            assert_arc_free_search_agrees(args, search, result, expected)
            seen, todo = set(), [result.goal]
            while todo:
                node = todo.pop()
                best = [pred for pred, _, inc in node.arcs if pred.score + inc == node.score]
                tied_nodes += len(best) > 1
                for pred, _, _ in node.arcs:
                    if id(pred) not in seen:
                        seen.add(id(pred))
                        todo.append(pred)
        assert tied_nodes > 100, tied_nodes

    def test_option_one_ulp_below_a_later_one_is_kept(self, uniform_lm):
        # the two static scores differ, but their sums with the LM score
        # round to one value, so the earlier option's arc is the first best
        weights = {name: 0.0 for name in decoder.feature_names(1)}
        weights.update({"tm0.phi_fwd": 1.0, "lm": 4.0})
        model = LogLinearModel(weights=weights, n_tables=1)
        lower = TranslationOption(0, 1, ("x0",), {"tm0.phi_fwd": -1.0}, "table0")
        higher = TranslationOption(0, 1, ("x0",), {"tm0.phi_fwd": math.nextafter(-1.0, 0.0)},
                                   "table0")
        lattice = {(0, 1): [lower, higher]}
        args, search = (["w0"], model, uniform_lm, lattice), dict(distortion_limit=6,
                                                                  stack_size=10)
        result = decode(*args, **search, keep_arcs=True)
        assert result.best_derivation == [lower]
        expected = decode_reference(*args, **search)
        assert_same_search(result, expected)
        assert_arc_free_search_agrees(args, search, result, expected)


class TableLM:
    """An LM that looks each (context, word) up in a table, else scores -1;
    with dyadic values every score is exact, so ties are easy to build.
    Every state is minimal and every word stored."""

    def __init__(self, order, logprobs) -> None:
        self.order = order
        self.logprobs = logprobs

    def logprob(self, context, word):
        context = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        return self.logprobs.get((context, word), -1.0)

    def minimal_state(self, context):
        return context

    def stores(self, word):
        return True


def reachable_nodes(result):
    """Every node the goal reaches through its arcs, the goal itself left out."""
    seen, todo, nodes = {id(result.goal)}, [result.goal], []
    while todo:
        for pred, _, _ in todo.pop().arcs:
            if id(pred) not in seen:
                seen.add(id(pred))
                todo.append(pred)
                nodes.append(pred)
    return nodes


def beam_order(nodes):
    """`nodes` in the order `decode` ranks a stack: best score plus future
    first, ties by stack key."""
    return sorted(nodes, key=lambda nd: (-(nd.score + nd.future),
                                         (nd.coverage, nd.lm_state, nd.prev_end)))


def assert_one_span_per_stack(result):
    """The predecessors that one stack gives a node share one coverage: the
    node's previous end and the stack's cardinality fix the span that
    reaches it. This is why expanding a beam one coverage at a time leaves
    every node's arcs in the node-major beam order."""
    for node in reachable_nodes(result):
        by_stack = {}
        for pred, _, _ in node.arcs:
            by_stack.setdefault(bin(pred.coverage).count("1"), set()).add(pred.coverage)
        assert all(len(coverages) == 1 for coverages in by_stack.values())


@st.composite
def tie_heavy_search(draw):
    """A sentence, options over spans of up to three words, and search
    settings. Each option's target is made of x0 and x1 and its four table
    features share one value, -0.5 or -1: under dyadic weights and an LM
    with dyadic scores every score is exact, and many derivations tie."""
    n = draw(st.integers(1, 7))
    lattice = {}
    for i in range(n):
        for j in range(i + 1, min(n, i + 3) + 1):
            if j > i + 1 and not draw(st.booleans()):
                continue
            lattice[(i, j)] = [TranslationOption(
                i, j, tuple(draw(st.lists(st.sampled_from(["x0", "x1"]), min_size=1, max_size=2))),
                dict.fromkeys([f"tm0.{f}" for f in TM_FEATURES],
                              draw(st.sampled_from([-0.5, -1.0]))), "table0")
                for _ in range(draw(st.integers(1, 3)))]
    search = dict(distortion_limit=draw(st.integers(0, 3)),
                  stack_size=draw(st.sampled_from([1, 2, 3, 5, 1000])))
    return [f"w{i}" for i in range(n)], lattice, search


class TestGroupedExpansion:
    """`decode` expands each beam one coverage at a time; it must still
    give every node the arcs and back-pointer of the node-by-node
    `decode_reference`, in the same order, also where totals tie."""

    def test_interleaved_coverages_keep_the_first_tied_arc(self):
        # The beam of stack 1 is A (covers w0, ends in a), B (covers w1),
        # then C (covers w0, ends in c), so the search expands A and C
        # before B. A scores higher than C, but its LM step to y costs 1
        # more, so A and C reach the child (w0 w1, y) with equal totals:
        # its back-pointer must be A's arc, the first in beam order.
        lm = TableLM(2, {(("a",), "y"): -2.0})
        weights = {name: 0.25 for name in decoder.feature_names(1)}
        weights.update(lm=1.0, word_penalty=0.0, phrase_penalty=0.0, distortion=0.5)
        model = LogLinearModel(weights=weights, n_tables=1)
        lattice = {(0, 1): [word_option(0, "a", -1.0), word_option(0, "c", -2.0)],
                   (1, 2): [word_option(1, "y", -1.0)]}
        args, search = (["w0", "w1"], model, lm, lattice), dict(distortion_limit=6,
                                                                stack_size=10)
        result = decode(*args, **search, keep_arcs=True)
        stack = beam_order([nd for nd in reachable_nodes(result) if nd.coverage in (1, 2)])
        assert [(nd.coverage, nd.lm_state) for nd in stack] == [(1, ("a",)), (2, ("y",)),
                                                                 (1, ("c",))]
        child = next(nd for nd in reachable_nodes(result) if nd.coverage == 3
                     and nd.lm_state == ("y",))
        totals = [pred.score + inc for pred, _, inc in child.arcs]
        assert [pred for pred, _, _ in child.arcs] == [stack[0], stack[2]]
        assert totals == [child.score, child.score] == [-5.0, -5.0]
        assert child.back[0] is stack[0]
        assert result.best_tokens() == ("a", "y")
        expected = decode_reference(*args, **search)
        assert_same_search(result, expected)
        assert_arc_free_search_agrees(args, search, result, expected)

    def test_a_start_only_some_nodes_of_a_group_reach(self, uniform_lm):
        # One node covers w0-w2 ending at 3, as [0, 3) does, and another
        # ending at 1, as [1, 3) then [0, 1) does. At distortion limit 3,
        # [5, 6) lies in the window of the first only; the second may not
        # jump there.
        lattice = {(i, i + 1): [word_option(i, f"x{i}", -0.5)] for i in range(6)}
        lattice[(0, 3)] = [TranslationOption(0, 3, ("x0", "x1", "x2"),
                                             {f"tm0.{f}": -1.5 for f in TM_FEATURES}, "table0")]
        lattice[(1, 3)] = [TranslationOption(1, 3, ("x1", "x2"),
                                             {f"tm0.{f}": -1.0 for f in TM_FEATURES}, "table0")]
        args = ([f"w{i}" for i in range(6)], LogLinearModel.default(1), uniform_lm, lattice)
        search = dict(distortion_limit=3, stack_size=1000)
        result = decode(*args, **search, keep_arcs=True)
        ends = {nd.prev_end for nd in reachable_nodes(result) if nd.coverage == 0b111}
        assert {1, 3} <= ends
        expected = decode_reference(*args, **search)
        assert_same_search(result, expected)
        assert_arc_free_search_agrees(args, search, result, expected)

    @settings(deadline=None, max_examples=150)
    @given(tie_heavy_search(), st.sampled_from([0.0, 0.5]), st.booleans())
    def test_tie_heavy_searches_equal_reference(self, instance, w_dist, keep_arcs):
        # with the distortion weight 0, nodes of one coverage that differ
        # only in their end often reach one child with equal totals
        sentence, lattice, search = instance
        lm = TableLM(1, {((), "x0"): -0.5, ((), "x1"): -0.75})
        weights = {name: 0.25 for name in decoder.feature_names(1)}
        weights.update(lm=0.5, word_penalty=0.125, phrase_penalty=-0.0625, distortion=w_dist)
        args = (sentence, LogLinearModel(weights=weights, n_tables=1), lm, lattice)
        try:
            expected = decode_reference(*args, **search)
        except DataError:
            with pytest.raises(DataError):
                decode(*args, **search, keep_arcs=keep_arcs)
            return
        if keep_arcs:
            result = decode(*args, **search, keep_arcs=True)
            assert_same_search(result, expected)
            assert_one_span_per_stack(result)
        else:
            assert_arc_free_search_agrees(args, search, expected)


class FullStateLM:
    """An LM whose states are never shortened: recombination on every word
    the order keeps, as before minimal states."""

    def __init__(self, lm) -> None:
        self.lm = lm
        self.order = lm.order

    def logprob(self, context, word):
        return self.lm.logprob(context, word)

    def minimal_state(self, context):
        return context

    def stores(self, word):
        # a full state tells every two words apart, so no targets are merged
        return True


def oov_target_instance(rng, n):
    """Options over a sentence where most words get several targets the LM
    has never seen, as transliterations do, and the rest known targets."""
    lattice = {}
    for i in range(n):
        for j in range(i + 1, min(n, i + 2) + 1):
            if j > i + 1 and rng.random() < 0.6:
                continue
            unseen = j == i + 1 and rng.random() < 0.7
            pool = [f"o{k}" for k in range(8)] if unseen else [f"x{k}" for k in range(8)]
            opts = []
            for target in rng.sample(pool, rng.randint(1, 4)):
                feats = {f"tm0.{f}": math.log10(rng.uniform(0.05, 1.0)) for f in TM_FEATURES}
                opts.append(TranslationOption(i, j, (target,) * (j - i), feats, "table0"))
            lattice[(i, j)] = opts
    return [f"w{i}" for i in range(n)], lattice


# Two order-3 models in which the trigram "a b c" has a context that the file
# gives no backoff: "a b" is stored without a backoff column, or is missing
# together with the backoff of "a".
ARPA_TRIGRAM_CONTEXTS = {
    "zero_backoff_left_out": ["ngram 1=5", "ngram 2=4", "ngram 3=2", "",
                              "\\1-grams:", "-1.5\t<unk>", "-99\t<s>\t-0.5",
                              "-0.6\ta\t-0.4", "-0.6\tb\t-0.3", "-0.6\tc\t-0.2", "",
                              "\\2-grams:", "-0.3\t<s> a\t-0.1", "-0.4\ta b",
                              "-0.5\tb c", "-0.7\tb a", "",
                              "\\3-grams:", "-0.05\ta b c", "-0.2\t<s> a b"],
    "prefix_left_out": ["ngram 1=5", "ngram 2=2", "ngram 3=1", "",
                        "\\1-grams:", "-1.5\t<unk>", "-99\t<s>\t-0.5", "-0.6\ta",
                        "-0.6\tb\t-0.3", "-0.6\tc\t-0.2", "",
                        "\\2-grams:", "-0.5\tb c", "-0.7\tb a", "",
                        "\\3-grams:", "-0.05\ta b c"],
}


class TestMinimalLMStates:
    """Nodes recombine on the shortest LM state that gives every later word
    the same score; with the beam unbounded, the search must find the same
    best score, 1-best options and n-best items as one that keeps every
    state the LM order allows. The search without arcs must find the
    same best as the one with them and as `decode_reference`."""

    def test_unbounded_beam_equals_full_states(self):
        lm = train_kn([[f"x{k}" for k in range(8)], [f"x{k}" for k in range(7, -1, -1)],
                       ["x0", "x2", "x4", "x6"], ["x1", "x3", "x1", "x3"]], order=3)
        full_lm = FullStateLM(lm)
        rng = random.Random(1515)
        model = LogLinearModel.default(1)
        nodes = full_nodes = 0
        for _ in range(150):
            sentence, lattice = oov_target_instance(rng, rng.randint(1, 6))
            search = dict(distortion_limit=rng.randint(0, 6), stack_size=10 ** 6)
            result = decode(sentence, model, lm, lattice, **search, keep_arcs=True)
            expected = decode(sentence, model, full_lm, lattice, **search, keep_arcs=True)
            assert_same_best(result, expected)
            assert items_of(nbest(result, 10)) == items_of(nbest(expected, 10))
            args = (sentence, model, lm, lattice)
            assert_arc_free_search_agrees(args, search, result,
                                          decode_reference(*args, **search))
            nodes += len(lattice_of(result))
            full_nodes += len(lattice_of(expected))
        assert nodes < full_nodes / 2, (nodes, full_nodes)

    @pytest.mark.parametrize("name", sorted(ARPA_TRIGRAM_CONTEXTS))
    def test_arpa_context_without_backoff_equals_enumeration(self, name):
        lm = read_file(read_arpa, ["\\data\\", *ARPA_TRIGRAM_CONTEXTS[name], "", "\\end\\"])
        assert lm.minimal_state(("c", "a")) == ("a",)
        assert lm.minimal_state(("a", "b")) == ("a", "b")
        feats = {f"tm0.{f}": -0.5 for f in TM_FEATURES}
        lattice = {(i, i + 1): [TranslationOption(i, i + 1, (word,), dict(feats), "table0")
                                for word in ("a", "b", "c")] for i in range(3)}
        model = LogLinearModel.default(1)
        result = decode(["s0", "s1", "s2"], model, lm, lattice,
                        distortion_limit=6, stack_size=5000, keep_arcs=False)
        ranked = enumerate_decodings(3, lattice, model.weights, lm, 6)
        assert ranked[0][0] == ("a", "b", "c")  # through the trigram a b c
        assert result.best_tokens() == ranked[0][0]
        assert result.best_score == pytest.approx(ranked[0][1], abs=1e-9)


class CountingLM:
    """An LM that counts its `logprob` queries."""

    def __init__(self, lm) -> None:
        self.lm = lm
        self.order = lm.order
        self.queries = 0

    def logprob(self, context, word):
        self.queries += 1
        return self.lm.logprob(context, word)

    def minimal_state(self, context):
        return self.lm.minimal_state(context)

    def stores(self, word):
        return self.lm.stores(word)


def _x_lm():
    return train_kn([[f"x{k}" for k in range(8)], [f"x{k}" for k in range(7, -1, -1)],
                     ["x0", "x2", "x4", "x6"], ["x1", "x3", "x1", "x3"]], order=3)


def word_option(i, word, score):
    """A one-word option at position i whose four table features are `score`."""
    return TranslationOption(i, i + 1, (word,), {f"tm0.{f}": score for f in TM_FEATURES},
                             "table0")


class TestTargetsTheLMCannotTellApart:
    """A search without arcs keeps one option per span and target length
    among the targets made only of words the LM stores in no n-gram
    (`lm.stores`). It must still find `decode_reference`'s best score and
    1-best options to the bit, under any beam, and it must not merge a word
    that the LM stores but its `vocab` lacks."""

    LMS = {
        "ngram": _x_lm,
        # the other model stores o0 and o1, so only o2..o7 are merged
        "mixture": lambda: MixtureModel(_x_lm(), train_kn([["o0", "x1", "o1"], ["x2", "o0"]],
                                                          order=3), 0.6),
        "full_state": lambda: FullStateLM(_x_lm()),
    }

    @pytest.mark.parametrize("kind", sorted(LMS))
    def test_arc_free_search_equals_reference(self, kind):
        lm = CountingLM(self.LMS[kind]())
        rng = random.Random(2222)
        model = LogLinearModel.default(1)
        arc_free = with_arcs = 0
        for _ in range(150):
            sentence, lattice = oov_target_instance(rng, rng.randint(1, 6))
            search = dict(distortion_limit=rng.randint(0, 6),
                          stack_size=rng.choice([1, 2, 5, 10 ** 6]))
            args = (sentence, model, lm, lattice)
            expected = decode_reference(*args, **search)
            lm.queries = 0
            assert_arc_free_search_agrees(args, search, expected)
            arc_free += lm.queries
            lm.queries = 0
            decode(*args, **search, keep_arcs=True)
            with_arcs += lm.queries
        # the merged options' LM steps are never taken, except with full states
        if kind == "full_state":
            assert arc_free == with_arcs
        else:
            assert arc_free < with_arcs, (arc_free, with_arcs)

    def test_sentence_start_target_is_not_merged(self):
        # `<s>` is stored, as the unigram (<s>,), though not in `vocab`: it
        # scores -99, so the later unseen word must survive and win
        lm = _x_lm()
        assert "<s>" not in lm.vocab and lm.stores("<s>") and not lm.stores("o1")
        lattice = {(i, i + 1): [word_option(i, "<s>", -0.1), word_option(i, "o1", -0.2)]
                   for i in range(2)}
        args = (["w0", "w1"], LogLinearModel.default(1), lm, lattice)
        search = dict(distortion_limit=6, stack_size=100)
        expected = decode_reference(*args, **search)
        assert expected.best_tokens() == ("o1", "o1")
        assert_arc_free_search_agrees(args, search, expected)

    def test_word_only_inside_a_context_is_not_merged(self):
        # "a" is only the context of the trigram "a b c": not in `vocab`,
        # but stored, and the trigram makes it beat the unseen o0
        lines = [line for line in ARPA_TRIGRAM_CONTEXTS["prefix_left_out"] if line != "-0.6\ta"]
        lines[0] = "ngram 1=4"
        lm = read_file(read_arpa, ["\\data\\", *lines, "", "\\end\\"])
        assert "a" not in lm.vocab and lm.stores("a") and not lm.stores("o0")
        lattice = {(0, 1): [word_option(0, "o0", -0.5), word_option(0, "a", -0.6)],
                   (1, 2): [word_option(1, "b", 0.0)], (2, 3): [word_option(2, "c", 0.0)]}
        args = (["s0", "s1", "s2"], LogLinearModel.default(1), lm, lattice)
        search = dict(distortion_limit=0, stack_size=100)
        expected = decode_reference(*args, **search)
        assert expected.best_tokens() == ("a", "b", "c")
        assert_arc_free_search_agrees(args, search, expected)


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

    def test_each_weight_vector_scored_once(self, uniform_lm, monkeypatch):
        # A round scores its starting weights once; a coordinate then scores
        # only its trial steps, since it starts from the BLEU of the weights
        # that the previous coordinate kept, and a coordinate at which every
        # pooled hypothesis has the value 0 scores none. Scoring one weight
        # vector is one BleuStats.score call on the summed statistics.
        calls = []
        score = BleuStats.score
        monkeypatch.setattr(BleuStats, "score", lambda stats: calls.append(stats) or score(stats))
        system = self.make_system(uniform_lm)
        initial = system.default_model()
        dev = [(("a",), ("x1",))] * 3
        pooled = decode_corpus(system, initial, [src for src, _ in dev],
                               nbest_size=decoder.DEFAULT_NBEST_SIZE)
        used = {name for _, items in pooled for item in items
                for name, value in item.features.items() if value}
        assert "distortion" not in used  # one-word sentences never reorder
        tune_weights(dev, system, initial, rounds=1)
        visits, rest = divmod(len(calls) - 1, len(decoder._TUNE_STEPS))
        assert rest == 0
        assert visits > 0 and visits % len(used) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_reference(self, uniform_lm, seed):
        # 1-3 tables and 1-2 rounds. Table 1 covers only words some dev
        # sentences lack, so its features are 0 in some pools only; table 2
        # covers no dev word, so its features are 0 in every pool.
        rng = random.Random(seed)
        n_tables, rounds = 1 + seed % 3, 1 + seed // 3
        targets = [f"x{i}" for i in range(8)] + [f"y{i}" for i in range(4)]

        def random_table(sources):
            entries = {(src, " ".join(rng.sample(targets, rng.randint(1, 2)))):
                       rng.uniform(0.05, 1.0) for src in sources for _ in range(3)}
            return table_of([(src, tgt, p) for (src, tgt), p in entries.items()])

        tables = [random_table(["a", "b", "c", "d", "a b"]), random_table(["c", "d"]),
                  random_table(["z"])][:n_tables]
        system = DecoderSystem(tables=TableSet(tables), lm=uniform_lm)
        sources = [("a",), ("b", "a"), ("a", "b", "c"), ("d", "b", "a", "c"), ("c", "a", "b")]
        initial = system.default_model()
        pooled = decode_corpus(system, initial, sources, nbest_size=10)
        # each reference is a hypothesis of the first n-best list, so that
        # the weights have a BLEU to gain
        dev = [(src, rng.choice(items).tokens) for src, (_, items) in zip(sources, pooled)]
        used = [{name for item in items for name, value in item.features.items() if value}
                for _, items in pooled]
        if n_tables >= 2:
            assert "tm1.phi_fwd" in used[2] and "tm1.phi_fwd" not in used[1]
        if n_tables == 3:
            assert not any("tm2.phi_fwd" in names for names in used)
        tuned = tune_weights(dev, system, initial, rounds=rounds, nbest_size=10)
        assert tuned.weights == tune_reference(dev, system, initial, rounds, 10,
                                               decoder._TUNE_STEPS).weights

    def test_deterministic(self, uniform_lm):
        system = self.make_system(uniform_lm)
        initial = system.default_model()
        dev = [(("a", "b"), ("x1", "x1"))] * 2
        first = tune_weights(dev, system, initial, rounds=2)
        second = tune_weights(dev, system, initial, rounds=2)
        assert first.weights == second.weights

    def test_empty_dev_rejected(self, uniform_lm):
        system = self.make_system(uniform_lm)
        for dev in ([], [((), ())] * 3, [((), ("x1",))]):
            with pytest.raises(DataError, match="empty dev set"):
                tune_weights(dev, system, system.default_model())


class TestWeightsIO:
    def test_roundtrip(self, tmp_path, uniform_lm):
        model = LogLinearModel.default(2)
        model.weights["lm"] = 0.75
        path = str(tmp_path / "weights.tsv")
        write_weights(model, path)
        back = read_weights(path, 2)
        assert back.weights == pytest.approx(model.weights)

    def test_malformed(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("lm\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_weights(str(path), 1)

    def test_unknown_feature_names_line(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("lm\t0.5\nlmm\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"w.tsv:2: unknown feature 'lmm'"):
            read_weights(str(path), 1)
        path.write_text("tm1.phi_fwd\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="w.tsv:1: unknown feature"):
            read_weights(str(path), 1)
        # a character model weighs a table block, no `translit` feature
        path.write_text("translit\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="w.tsv:1: unknown feature"):
            read_weights(str(path), 2)

    def test_repeated_feature_names_line(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("lm\t0.5\ndistortion\t0.3\nlm\t0.7\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"w.tsv:3: feature 'lm' is given twice"):
            read_weights(str(path), 1)

    def test_missing_feature_weighs_zero(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("lm\t0.5\n", encoding="utf-8")
        weights = read_weights(str(path), 2).weights
        assert weights["lm"] == 0.5
        assert weights["tm1.phi_fwd"] == 0.0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_line(self, tmp_path, bad):
        path = tmp_path / "w.tsv"
        path.write_text(f"lm\t0.5\nword_penalty\t{bad}\n", encoding="utf-8")
        with pytest.raises(DataError, match="w.tsv:2"):
            read_weights(str(path), 1)
