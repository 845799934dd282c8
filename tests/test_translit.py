import hashlib
import io
import logging
import math
import os
import random
import re
import string
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pivotsmt.errors import DataError
import pivotsmt
from pivotsmt import translit
from pivotsmt.phrasetab import PhraseEntry, PhraseTable
from pivotsmt.translit import (
    CharModel, CharTrigramModel, TransliterationCandidate, WordPairCorpus, _initial_ops,
    build_translit_table, kbest_probs, mine_transliterations, read_char_model,
    read_mined_pairs, transliterate, write_char_model, write_mined_pairs,
)

from fixtures import read_file
from oracles import (
    SRC_ALPHABET, apply_bijection, initial_ops_reference, lattice_moves_reference,
    make_bijection_fixture, make_heldout_words, mine_reference, transliterate_reference,
)


@pytest.fixture(scope="module")
def mined_fixture():
    pairs, labels = make_bijection_fixture(seed=424)
    model, mined = mine_transliterations(WordPairCorpus(pairs), iterations=10,
                                         threshold=0.5)
    return pairs, labels, model, mined


def random_char_model(seed, dyadic):
    """A seeded model from source "abc" to target "xyz", with insertions,
    deletions and two 2-character source segments. A dyadic one has
    operation probabilities of 1, 1/2 and 1/4 only and an LM that saw every
    target word of one or two characters once, so that many strings tie
    to the bit."""
    rng = random.Random(seed)
    ops = {}
    for segment in ["", "a", "b", "c", "ab", "ca"]:
        targets = rng.sample([target for target in ["", "x", "y", "z", "xy", "zx"]
                              if segment or target], rng.randint(1, 4))
        if dyadic:
            probs = {1: [1.0], 2: [0.5, 0.5], 3: [0.5, 0.25, 0.25], 4: [0.25] * 4}[len(targets)]
        else:
            weights = [rng.uniform(0.05, 1.0) for _ in targets]
            probs = [weight / sum(weights) for weight in weights]
        ops[segment] = dict(zip(targets, probs))
    lm = CharTrigramModel()
    words = ["x", "y", "z"] + [c1 + c2 for c1 in "xyz" for c2 in "xyz"] if dyadic else \
        ["".join(rng.choice("xyz") for _ in range(rng.randint(1, 4))) for _ in range(12)]
    for word in words:
        lm.observe(word)
    return CharModel(ops=ops, src_chars=frozenset("abc"), tgt_lm=lm)


def hand_built_model():
    lm = CharTrigramModel()
    for word in ["xy", "hx"]:
        lm.observe(word)
    return CharModel(ops={"": {"h": 0.5}, "a": {"x": 0.7, "xy": 0.2, "": 0.1}},
                     src_chars=frozenset("a"), tgt_lm=lm)


def ambiguous_pairs(seed, count=120):
    """Word pairs over "abcdefgh" whose targets write each letter as its
    capital or, three times in ten, as X, Y or Z: a model mined from them
    has several likely operations for every letter, so a long word has a
    great many strings of nearly the best score."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        word = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 8)))
        target = "".join(c.upper() if rng.random() < 0.7 else rng.choice("XYZ") for c in word)
        pairs.append((word, target, 1.0))
    return pairs


class TestMining:
    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            mine_transliterations(WordPairCorpus([]), iterations=3)

    def test_identity_pair_recognized(self):
        model, mined = mine_transliterations(
            WordPairCorpus([("ab", "ab", 1.0)]), iterations=5, threshold=0.5)
        assert len(mined) == 1
        assert mined[0].posterior > 0.5

    def test_bijection_mixture_precision_recall(self, mined_fixture):
        pairs, labels, model, mined = mined_fixture
        mined_set = {(p.source, p.target) for p in mined}
        true_set = {(s, t) for (s, t, _), lab in zip(pairs, labels) if lab}
        noise_set = {(s, t) for (s, t, _), lab in zip(pairs, labels) if not lab}
        tp = len(mined_set & true_set)
        fp = len(mined_set & noise_set)
        fn = len(true_set - mined_set)
        precision = tp / max(tp + fp, 1)
        recall = tp / max(tp + fn, 1)
        assert precision >= 0.9
        assert recall >= 0.9

    def test_loglikelihood_nondecreasing(self, mined_fixture):
        _, _, model, _ = mined_fixture
        lls = model.log_likelihoods
        assert len(lls) >= 2
        for before, after in zip(lls, lls[1:]):
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_posterior_separation(self, mined_fixture):
        pairs, labels, model, _ = mined_fixture
        # recompute posteriors over the corpus via mining with 0 threshold
        _, all_pairs = mine_transliterations(WordPairCorpus(pairs),
                                             iterations=10, threshold=0.0)
        post = {(p.source, p.target): p.posterior for p in all_pairs}
        true_mean = sum(post[(s, t)] for (s, t, _), lab in zip(pairs, labels)
                        if lab) / sum(labels)
        noise_mean = sum(post[(s, t)] for (s, t, _), lab in zip(pairs, labels)
                         if not lab) / (len(labels) - sum(labels))
        assert true_mean > noise_mean

    def test_rows_normalized(self, mined_fixture):
        _, _, model, _ = mined_fixture
        for source_seg, row in model.ops.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_phrase_table_weights_accepted(self):
        table = PhraseTable()
        for i, (src, tgt) in enumerate([("ab", "AB"), ("ba", "BA"), ("aa", "AA")]):
            table.add(PhraseEntry((src,), (tgt,), 0.5, 0.5, 0.5, 0.5))
        table.add(PhraseEntry(("two", "tokens"), ("x",), 0.5, 0.5, 0.5, 0.5))
        corpus = WordPairCorpus.from_phrase_table(table)
        assert len(corpus) == 3  # multi-token entry ignored
        assert all(w == 0.5 for _, _, w in corpus.pairs)
        model, mined = mine_transliterations(corpus, iterations=5, threshold=0.5)
        assert {(p.source, p.target) for p in mined} == \
            {("ab", "AB"), ("ba", "BA"), ("aa", "AA")}

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            WordPairCorpus([("a", "b", 0.0)])

    def test_long_junk_pair_underflows_to_posterior_zero(self):
        # Both mixture terms of a 160/150-character junk pair underflow to 0.
        pairs, _ = make_bijection_fixture(seed=5, n_true=10, n_noise=10)
        rng = random.Random(7)
        alphabet = string.ascii_lowercase + string.digits
        junk = ("".join(rng.choice(alphabet) for _ in range(160)),
                "".join(rng.choice(alphabet.upper()) for _ in range(150)), 1.0)
        model, mined = mine_transliterations(WordPairCorpus(pairs + [junk]),
                                             iterations=3, threshold=0.0)
        assert (mined[-1].source, mined[-1].target) == junk[:2]
        assert mined[-1].posterior == 0.0
        assert all(math.isfinite(ll) for ll in model.log_likelihoods)


class TestInitialOps:
    def test_equals_per_pair_formula(self):
        pairs, _ = make_bijection_fixture(seed=12, n_true=20, n_noise=10)
        rng = random.Random(12)
        # repeated segments within a word, and weights other than 1
        pairs = [(s, t, rng.choice([0.5, 1.0, 2.5])) for s, t, _ in pairs]
        pairs += [("aab", "AAB", 1.0), ("abab", "ABAB", 0.75), ("aaaa", "AAAA", 2.0)]
        ops = _initial_ops(pairs)
        reference = initial_ops_reference(pairs)
        assert {a: set(row) for a, row in ops.items()} == \
            {a: set(row) for a, row in reference.items()}
        assert any(len(a) + len(b) > 2 for a, row in ops.items() for b in row)
        for a, row in ops.items():
            for b, p in row.items():
                assert p == pytest.approx(reference[a][b], rel=1e-12)


def assert_mining_equals_reference(pairs, iterations):
    model, mined = mine_transliterations(WordPairCorpus(pairs), iterations, threshold=0.0)
    ops, lam, log_likelihoods, posteriors = mine_reference(pairs, iterations,
                                                           _initial_ops(pairs))
    assert [(a, list(row.items())) for a, row in model.ops.items()] == \
        [(a, list(row.items())) for a, row in ops.items()]
    assert model.lam == lam
    assert model.log_likelihoods == log_likelihoods
    assert [pair.posterior for pair in mined] == posteriors
    return model, mined


class TestMiningEqualsDictReference:
    """The compiled-lattice miner gives the dict-based miner's bits."""

    def test_weighted_bijection_pairs(self):
        pairs, _ = make_bijection_fixture(seed=424, n_true=40, n_noise=40)
        rng = random.Random(424)
        pairs = [(s, t, rng.choice([0.5, 1.0, 2.5])) for s, t, _ in pairs]
        assert_mining_equals_reference(pairs, 6)

    def test_digraph_operations(self):
        rng = random.Random(3)
        letters = string.ascii_lowercase[:8]
        mapping = {c: c.upper() * (1 if k % 3 else 2) for k, c in enumerate(letters)}
        pairs = []
        for k in range(60):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 7)))
            noise = "".join(rng.choice("QRSTUVWXYZ") for _ in range(rng.randint(3, 7)))
            target = "".join(mapping[c] for c in word) if k % 3 else noise
            pairs.append((word, target, rng.choice([0.75, 1.0, 3.0])))
        model, _ = assert_mining_equals_reference(pairs, 5)
        assert any(len(a) + len(b) > 2 for a, row in model.ops.items() for b in row)

    def test_underflowing_pairs(self):
        # The 160/150-character junk pair underflows to 0 everywhere. In the
        # second E-pass the 200-character transliteration keeps a forward
        # sum above 0 while some of its moves underflow: the cells they lead
        # to pass nothing on, yet the pair's expectations are counted.
        pairs, _ = make_bijection_fixture(seed=5, n_true=10, n_noise=10)
        rng = random.Random(7)
        alphabet = string.ascii_lowercase + string.digits
        junk = ("".join(rng.choice(alphabet) for _ in range(160)),
                "".join(rng.choice(alphabet.upper()) for _ in range(150)), 1.0)
        word = "".join(rng.choice(SRC_ALPHABET) for _ in range(200))
        _, mined = assert_mining_equals_reference(
            pairs + [junk, (word, apply_bijection(word), 1.0)], 3)
        assert mined[-2].posterior == 0.0
        assert mined[-1].posterior == 1.0


_PAIRS = st.lists(st.tuples(st.text(alphabet="abcd", min_size=1, max_size=6),
                           st.text(alphabet="ABCD", min_size=1, max_size=6),
                           st.sampled_from([0.25, 1.0, 4.0])), min_size=1, max_size=10)
# A source three characters longer than its target: a complete path must
# spend the whole indel budget on deletions, so every move that inserts is
# a dead end.
_UNEQUAL_PAIRS = [("abcab", "AB", 1.0), ("ab", "AB", 1.0), ("ba", "BA", 1.0)]


@settings(deadline=None, max_examples=40)
@given(_PAIRS, st.integers(1, 4))
@example(_UNEQUAL_PAIRS, 3)
def test_mining_equals_dict_reference_on_random_pairs(pairs, iterations):
    assert_mining_equals_reference(pairs, iterations)


@settings(deadline=None, max_examples=60)
@given(_PAIRS, st.integers(0, 2 ** 16))
@example(_UNEQUAL_PAIRS, 0)
def test_lattice_keeps_exactly_the_moves_on_a_complete_path(pairs, seed):
    # after compiling, and after drop_dead with about a third of the
    # operations at probability 0, a lattice holds the moves whose source
    # is reachable from (0, 0, 0) and whose destination reaches a final
    # cell, all of them and in order
    ops_by_id = [(a, b) for a, row in _initial_ops(pairs).items() for b in row]
    op_ids = {}
    for op, (a, b) in enumerate(ops_by_id):
        op_ids.setdefault(a, {})[b] = op
    rng = random.Random(seed)
    probs = [0.0 if rng.random() < 1 / 3 else 0.5 for _ in ops_by_id]
    live = {op for op, p in enumerate(probs) if p}
    dropped = 0
    for s, t, _ in pairs:
        lattice = translit._Lattice(s, t, op_ids)
        reachable, complete = lattice_moves_reference(s, t, op_ids, set(range(len(ops_by_id))))
        assert list(zip(lattice.srcs, lattice.dsts, lattice.ops)) == complete
        dropped += len(reachable) - len(complete)
        lattice.drop_dead(probs)
        assert list(zip(lattice.srcs, lattice.dsts, lattice.ops)) == \
            lattice_moves_reference(s, t, op_ids, live)[1]
    if pairs == _UNEQUAL_PAIRS:
        assert dropped > 0


class TestDeterminism:
    def test_char_model_independent_of_hash_seed(self, tmp_path):
        # Half transliterations over 20 letters, some written as digraphs, half
        # noise: enough distinct segments that the order in which the first
        # E-step's normalizer is summed shows in the last bits. The pinned
        # hash holds on every interpreter, since the miner sums left to right
        # where Python 3.12's builtin sum would compensate.
        rng = random.Random(1)
        letters = string.ascii_lowercase[:20]
        mapping = {c: c.upper() * (1 if k % 3 else 2) for k, c in enumerate(letters)}
        lines = []
        for k in range(160):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 8)))
            noise = "".join(rng.choice(string.ascii_uppercase)
                            for _ in range(rng.randint(3, 8)))
            lines.append(f"{word}\t{''.join(mapping[c] for c in word) if k % 2 else noise}\n")
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text("".join(lines), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(pivotsmt.__file__))
        outputs = []
        for seed in ("0", "1", "2"):
            model_path = tmp_path / f"char{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "pivotsmt", "mine-translit",
                            "--pairs", str(pairs_path), "--model-out", str(model_path),
                            "--iterations", "2"],
                           env=env, check=True, capture_output=True)
            outputs.append(model_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert hashlib.sha256(outputs[0]).hexdigest() == \
            "c861a9ca405ca2b29d56666620deeb050ed995b58623978f0892595cb054960b"


class TestTransliterate:
    def test_hand_built_model_exact_candidates(self):
        model = hand_built_model()
        # every output of "a": x, xy or nothing, with at most INDEL_BUDGET = 3
        # inserted h's and deleted characters together
        expected = [
            ("hx", -1.0818764269584493), ("xy", -1.3249144756447437),
            ("x", -1.687540542555237), ("", -2.3979400086720375),
            ("xh", -2.687540542555237), ("hxy", -2.802035730364406),
            ("h", -2.833668578233475), ("hhx", -3.1232691121166742),
            ("hxh", -3.1232691121166747), ("xyh", -3.366307160802969),
            ("xhh", -3.687540542555237), ("hh", -3.833668578233475),
            ("hhhx", -4.123269112116675), ("hxhh", -4.123269112116675),
            ("xyhh", -4.366307160802969), ("xhhh", -4.6875405425552366),
            ("hhxy", -4.843428415522631), ("hxyh", -4.843428415522631),
            ("hhxh", -5.164661797274899), ("xyhhh", -5.366307160802969),
            ("hhhxy", -5.843428415522631), ("hxyhh", -5.843428415522631),
            ("hhxyh", -6.884821100680856),
        ]
        results = transliterate(model, "a", 100)
        assert [c.target for c in results] == [t for t, _ in expected]
        assert [c.score for c in results] == pytest.approx([s for _, s in expected],
                                                           rel=1e-12)
        assert not any(c.fallback for c in results)
        # "#" is unseen: it maps to itself, and every candidate is flagged
        expected = [("x#", -2.3865105468912557), ("hx#", -2.8222391164526934),
                    ("xy#", -3.065277165138988), ("#", -3.0969100130080562),
                    ("x#h", -3.3865105468912557), ("xh#", -3.3865105468912557)]
        results = transliterate(model, "a#", 6)
        assert [c.target for c in results] == [t for t, _ in expected]
        assert [c.score for c in results] == pytest.approx([s for _, s in expected],
                                                           rel=1e-12)
        assert all(c.fallback for c in results)

    def test_monotone_deterministic_mapping(self):
        model, _ = mine_transliterations(
            WordPairCorpus([("ab", "AB", 1.0)] * 3), iterations=8, threshold=0.5)
        best = transliterate(model, "ba", 1)
        assert best[0].target == "BA"

    def test_k_larger_than_candidate_space(self):
        model, _ = mine_transliterations(
            WordPairCorpus([("a", "A", 1.0)]), iterations=5, threshold=0.5)
        results = transliterate(model, "a", 500)
        assert 1 <= len(results) < 500
        targets = [c.target for c in results]
        assert len(set(targets)) == len(targets)

    def test_scores_nonincreasing(self, mined_fixture):
        _, _, model, _ = mined_fixture
        results = transliterate(model, "abcd", 10)
        scores = [c.score for c in results]
        assert scores == sorted(scores, reverse=True)

    def test_heldout_top1_accuracy(self, mined_fixture):
        _, _, model, _ = mined_fixture
        words = make_heldout_words(seed=777, count=100)
        correct = sum(
            transliterate(model, w, 1)[0].target == apply_bijection(w)
            for w in words)
        assert correct / len(words) >= 0.95

    def test_unseen_characters_fall_back_to_identity(self, mined_fixture):
        _, _, model, _ = mined_fixture
        results = transliterate(model, "a#b", 1)
        assert results[0].fallback
        assert "#" in results[0].target

    def test_k_validation(self, mined_fixture):
        _, _, model, _ = mined_fixture
        with pytest.raises(ValueError):
            transliterate(model, "ab", 0)

    @pytest.mark.parametrize("budget", [translit.INDEL_BUDGET, 8])
    def test_equals_brute_force_at_the_limits(self, monkeypatch, budget):
        # Each source character can become two target characters and
        # insertions can spend the whole budget, so the longest candidate
        # reaches the indel budget; with a budget of 8 it stops at the
        # output bound of 2 * len(word) + 4 instead.
        lm = CharTrigramModel()
        for word in ("xyzx", "yzxy", "zz"):
            lm.observe(word)
        model = CharModel(ops={"": {"xy": 0.5, "z": 0.5}, "a": {"xy": 0.4, "zx": 0.3, "": 0.3},
                               "b": {"yz": 0.6, "x": 0.4}},
                          src_chars=frozenset("ab"), tgt_lm=lm)
        monkeypatch.setattr(translit, "INDEL_BUDGET", budget)
        for word in ("a", "ab", "ba", "abb"):
            want = transliterate_reference(model, word, 10 ** 6, indel_budget=budget)
            assert [(c.target, c.score) for c in transliterate(model, word, 10 ** 6)] == want
            longest = 2 * len(word) + (4 if budget == 8 else budget)
            assert max(len(target) for target, _ in want) == longest

    def test_equals_brute_force_best_derivation(self):
        # "d" is unseen, so it also exercises the identity rescue
        for seed in range(6):
            model = random_char_model(seed, dyadic=False)
            rng = random.Random(seed)
            for _ in range(8):
                word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
                for k in (1, 7, 100000):
                    assert [(c.target, c.score) for c in transliterate(model, word, k)] \
                        == transliterate_reference(model, word, k)

    @pytest.mark.parametrize("length", [28, 40])
    def test_long_word_gives_k_candidates_without_fallback(self, caplog, length):
        model, _ = mine_transliterations(WordPairCorpus(ambiguous_pairs(1)), iterations=5)
        word = "".join(random.Random(length).choice("abcdefgh") for _ in range(length))
        with caplog.at_level(logging.WARNING, logger="pivotsmt"):
            results = transliterate(model, word, 100)
        assert len({c.target for c in results}) == len(results) == 100
        assert not any(c.fallback for c in results)
        assert caplog.records == []

    def test_very_long_word_needs_no_recursion(self, mined_fixture):
        _, _, model, _ = mined_fixture
        word = "".join(random.Random(2).choice(SRC_ALPHABET) for _ in range(2000))
        [best] = transliterate(model, word, 1)
        assert best.target == apply_bijection(word)
        assert not best.fallback

    def test_pop_cap_returns_what_was_found(self, monkeypatch, caplog):
        model = hand_built_model()
        every = {c.target for c in transliterate(model, "a", 100)}
        monkeypatch.setattr(translit, "MAX_POPS", 12)
        with caplog.at_level(logging.WARNING, logger="pivotsmt"):
            results = transliterate(model, "a", 100)
        assert 0 < len(results) < len(every)
        assert {c.target for c in results} <= every
        assert [r.getMessage() for r in caplog.records] == \
            [f"transliterate: 'a' stopped after 12 pops with {len(results)} candidates"]


def tie_cuts(ranked):
    """Each k whose k-th string ties the next one's score."""
    return [j + 1 for j in range(len(ranked) - 1) if ranked[j][1] == ranked[j + 1][1]]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 16), st.booleans(), st.text(alphabet="abcd", min_size=1, max_size=4))
@example(3, True, "ab")
def test_transliterate_equals_reference_on_random_models(seed, dyadic, word):
    # "d" is unseen, so it also exercises the identity rescue; a dyadic
    # model ties strings at the k-th place, where the target breaks the tie
    model = random_char_model(seed, dyadic)
    every = transliterate_reference(model, word, 10 ** 6)
    cuts = tie_cuts(every)
    if (seed, dyadic, word) == (3, True, "ab"):
        assert cuts
    for k in [1, *cuts[:4], 10 ** 6]:
        assert [(c.target, c.score) for c in transliterate(model, word, k)] == every[:k]


class TestTranslitTable:
    def test_empty_word_list(self, mined_fixture):
        _, _, model, _ = mined_fixture
        assert len(build_translit_table(model, [], 10)) == 0

    def test_normalized_features(self, mined_fixture):
        _, _, model, _ = mined_fixture
        table = build_translit_table(model, ["abc"], 100)
        entries = table.get(("abc",))
        assert 0 < len(entries) <= 100
        total = sum(e.phi_tgt_given_src for e in entries)
        assert total == pytest.approx(1.0, abs=1e-9)
        for e in entries:
            assert e.phi_tgt_given_src == e.phi_src_given_tgt
            assert e.lex_tgt_given_src == e.lex_src_given_tgt

    def test_bijection_top1(self, mined_fixture):
        _, _, model, _ = mined_fixture
        words = make_heldout_words(seed=31, count=20)
        table = build_translit_table(model, words, 5)
        for word in words:
            best = max(table.get((word,)), key=lambda e: e.phi_tgt_given_src)
            assert best.target == (apply_bijection(word),)

    def test_role_marked(self, mined_fixture):
        _, _, model, _ = mined_fixture
        assert build_translit_table(model, ["ab"], 3).role == "transliterated"

    def test_marker_candidates_are_dropped_before_normalizing(self):
        # writing a, b, c as <, s, > turns "abc" into the LM marker <s>, and
        # "d" has only the marker <unk> as a target: no table may hold
        # either, so the marker is left out, the other candidates of "abc"
        # sum to 1, and "d" gets no entry
        lm = CharTrigramModel()
        for word in ("<s>", "xs>", "<unk>"):
            lm.observe(word)
        model = CharModel(ops={"a": {"<": 0.75, "x": 0.25}, "b": {"s": 0.5, "y": 0.5},
                               "c": {">": 1.0}, "d": {"<unk>": 1.0}},
                          src_chars=frozenset("abcd"), tgt_lm=lm)
        kbest = [c.target for c in transliterate(model, "abc", 10)]
        assert sorted(kbest) == ["<s>", "<y>", "xs>", "xy>"]
        assert [c.target for c in transliterate(model, "d", 10)] == ["<unk>"]
        table = build_translit_table(model, ["abc", "d"], 10)
        entries = table.get(("abc",))
        assert sorted(e.target for e in entries) == [("<y>",), ("xs>",), ("xy>",)]
        assert sum(e.phi_tgt_given_src for e in entries) == pytest.approx(1.0, abs=1e-12)
        assert table.get(("d",)) == []

    def test_kbest_probs_relative_to_best_do_not_underflow(self):
        candidates = [TransliterationCandidate("a", -400.0, False),
                      TransliterationCandidate("b", -401.0, False)]
        assert kbest_probs(candidates) == pytest.approx([1 / 1.1, 0.1 / 1.1], rel=1e-12)


_WORD = st.text(alphabet="abcd", min_size=1, max_size=5)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(_WORD, _WORD), min_size=1, max_size=12),
       st.lists(_WORD, min_size=1, max_size=4), st.integers(1, 60))
def test_mined_model_gives_k_distinct_targets_and_a_table(pairs, words, k):
    model, _ = mine_transliterations(WordPairCorpus([(s, t, 1.0) for s, t in pairs]),
                                     iterations=3)
    for word in words:
        targets = [c.target for c in transliterate(model, word, k)]
        assert len(set(targets)) == len(targets) <= k
    build_translit_table(model, words, k)


class TestSerialization:
    def test_mined_pairs_tsv_roundtrip(self, tmp_path, mined_fixture):
        _, _, _, mined = mined_fixture
        buf = io.StringIO()
        write_mined_pairs(mined[:10], buf)
        back = read_file(read_mined_pairs, buf.getvalue())
        assert len(back) == 10
        assert back[0].source == mined[0].source
        assert back[0].posterior == pytest.approx(mined[0].posterior, abs=1e-6)

    def test_char_model_roundtrip(self, tmp_path, mined_fixture):
        _, _, model, _ = mined_fixture
        path = str(tmp_path / "model.json")
        write_char_model(model, path)
        back = read_char_model(path)
        assert back.lam == pytest.approx(model.lam)
        assert back.src_chars == model.src_chars
        word = "abcd"
        a = transliterate(model, word, 3)
        b = transliterate(back, word, 3)
        assert [c.target for c in a] == [c.target for c in b]
        for x, y in zip(a, b):
            assert x.score == pytest.approx(y.score, abs=1e-9)

    def test_corpus_tsv_parsing(self):
        corpus = read_file(WordPairCorpus.from_tsv, ["ab\tAB", "cd\tCD\t2.5"])
        assert corpus.pairs == [("ab", "AB", 1.0), ("cd", "CD", 2.5)]

    @pytest.mark.parametrize("line", ["cd\tCD\t0", "cd\tCD\t-1", "\tCD\t1", "cd\t",
                                      "c d\tCD", "cd\tC D\t2", "cd \tCD", "cd\t\xa0CD"])
    def test_corpus_tsv_bad_pair_names_line(self, line):
        with pytest.raises(DataError, match=r"^\S+/pairs\.tsv:2: "):
            read_file(WordPairCorpus.from_tsv, ["ab\tAB", line], "pairs.tsv")

    @pytest.mark.parametrize("pair", [("c d", "CD", 1.0), ("cd", "C\tD", 1.0), ("", "CD", 1.0)])
    def test_corpus_side_not_one_word_is_value_error(self, pair):
        with pytest.raises(ValueError, match="is not one non-empty word"):
            WordPairCorpus([("ab", "AB", 1.0), pair])

    def test_posterior_above_one_rejected(self):
        with pytest.raises(DataError, match="mined.tsv:2: posterior '1.5'"):
            read_file(read_mined_pairs, ["ab\tAB\t1.0", "cd\tCD\t1.5"], "mined.tsv")

    def test_corpus_tsv_malformed(self):
        with pytest.raises(DataError, match=":1"):
            read_file(WordPairCorpus.from_tsv, ["only-one-field"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_or_posterior_names_line(self, bad):
        lines = ["ab\tAB\t0.5", f"cd\tCD\t{bad}"]
        with pytest.raises(DataError, match="pairs.tsv:2"):
            read_file(WordPairCorpus.from_tsv, lines, "pairs.tsv")
        with pytest.raises(DataError, match="mined.tsv:2"):
            read_file(read_mined_pairs, lines, "mined.tsv")

    @pytest.mark.parametrize("field, value", [
        ("lambda", "NaN"), ("lambda", "Infinity"), ("lambda", "-Infinity"),
        ("lambda", "1e999"), ("lambda", "-0.1"), ("lambda", "1.5"),
        ("op", "NaN"), ("op", "Infinity"), ("op", "-Infinity"), ("op", "-0.5"),
        ("count", "NaN"), ("count", "-5.0"),
        ("lambda", "true"), ("lambda", '"0.5"'), ("lambda", "null"),
        ("op", "true"), ("op", '"0.5"'), ("op", "null"), ("count", "false"),
        ("src_chars", '"abc"'), ("src_chars", "[1]"), ("alphabet", '"xyz"'),
    ])
    def test_char_model_bad_value_rejected(self, tmp_path, mined_fixture, field, value):
        _, _, model, _ = mined_fixture
        path = str(tmp_path / "model.json")
        write_char_model(model, path)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if field in ("lambda", "src_chars", "alphabet"):
            text, n = re.subn(rf'"{field}": (\[[^]]*\]|[^,]+)', f'"{field}": {value}', text)
        else:
            block = {"op": "ops", "count": "counts"}[field]
            text, n = re.subn(rf'("{block}": \{{"[^"]*": \{{"[^"]*": )[^,}}]+',
                              rf"\g<1>{value}", text)
        assert n == 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with pytest.raises(DataError, match=re.escape(path)):
            read_char_model(path)
