import io
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pivotsmt.decoder import _lm_walk
from pivotsmt.errors import DataError
from pivotsmt.ngramlm import (
    MixtureModel, context_normalization, read_arpa, train_kn,
    write_arpa,
)

from fixtures import read_file
from oracles import KNReference, train_kn_reference


def fixture_corpus(seed=101, n_tokens=100, vocab=8):
    """Deterministic ~100-token corpus over a small vocabulary."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    sentences = []
    total = 0
    while total < n_tokens:
        n = rng.randint(2, 7)
        sentences.append([rng.choice(words) for _ in range(n)])
        total += n
    return sentences


def random_contexts(model, rng, count=50):
    words = sorted(model.vocab) + ["oov-token"]
    for _ in range(count):
        yield tuple(rng.choice(words) for _ in range(rng.randint(0, model.order)))


class TestTrainKn:
    def test_single_word_language(self):
        model = train_kn([["a", "a", "a"]] * 3, order=1)
        p_a = 10.0 ** model.logprob((), "a")
        p_unk = 10.0 ** model.unk_logprob
        assert p_unk > 0
        assert p_a == pytest.approx(1.0 - p_unk, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_kn([], order=2)

    def test_order_above_sentence_length_allowed(self):
        model = train_kn([["a", "b"]], order=5)
        assert model.order == 5
        assert math.isfinite(model.logprob(("a",), "b"))

    def test_heldout_matches_oracle(self):
        corpus = fixture_corpus()
        for order in (1, 2, 3):
            model = train_kn(corpus, order=order)
            oracle = KNReference(corpus, order=order)
            rng = random.Random(order)
            heldout = fixture_corpus(seed=999)[:5]
            for sent in heldout:
                context = ["<s>"]
                for word in sent:
                    got = model.logprob(context[1:], word)
                    want = math.log10(oracle.prob(tuple(context[1:]), word))
                    assert got == pytest.approx(want, abs=1e-9)
                    context.append(word)
            for ctx in random_contexts(model, rng, 20):
                for word in list(model.vocab)[:3] + ["never-seen"]:
                    got = model.logprob(ctx, word)
                    want = math.log10(oracle.prob(ctx, word))
                    assert got == pytest.approx(want, abs=1e-9)

    def test_normalization_on_random_contexts(self):
        model = train_kn(fixture_corpus(), order=3)
        rng = random.Random(5)
        for ctx in random_contexts(model, rng, 50):
            assert context_normalization(model, ctx) == pytest.approx(1.0, abs=1e-6)

    def test_bos_context_normalizes(self):
        model = train_kn(fixture_corpus(), order=3)
        assert context_normalization(model, ("<s>",)) == pytest.approx(1.0, abs=1e-6)

    def test_training_perplexity_beats_shuffled(self):
        corpus = fixture_corpus()
        model = train_kn(corpus, order=3)
        rng = random.Random(13)
        scramble = {w: f"w{(i + 3) % 8}" for i, w in
                    enumerate(sorted({w for s in corpus for w in s}))}
        shuffled = [[scramble[w] for w in s] for s in corpus]

        def logprob(sentences):  # equal token counts, so lower perplexity
            return sum(model.logprob(("<s>", *s[:k]), w)
                       for s in sentences for k, w in enumerate(s))

        assert logprob(corpus) >= logprob(shuffled)

    def test_reserved_marker_rejected(self):
        with pytest.raises(DataError):
            train_kn([["a", "<s>"]], order=2)

    def test_peak_memory_stays_near_the_model(self):
        # one order at a time keeps as scratch only the next order's raw
        # counts and this order's linear probabilities; building every
        # order at once peaked at about twice the finished model
        rng = random.Random(8)
        words = [f"w{i}" for i in range(300)]
        zipf = [1.0 / (rank + 1) for rank in range(300)]
        corpus = [tuple(rng.choices(words, zipf, k=rng.randint(3, 20)))
                  for _ in range(400)]
        tracemalloc.start()
        try:
            model = train_kn(corpus, order=5)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.logprobs) > 10000
        assert peak < 1.75 * held, (peak, held)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
                min_size=1, max_size=8).filter(any),
       st.integers(1, 5))
@example([["a"]], 5)
@example([[], ["b"], [], ["a", "b"]], 4)
def test_train_kn_equals_every_order_at_once_reference(corpus, order):
    model = train_kn(corpus, order)
    assert (model.logprobs, model.backoffs, model.unk_logprob, model.vocab) \
        == train_kn_reference(corpus, order)


def drop_backoffs(model, rng):
    """`model` as an ARPA file that leaves out about half its backoffs, each
    of which then reads as 0.0, as a file may write a zero backoff."""
    buf = io.StringIO()
    write_arpa(model, buf)
    lines = [line.rsplit("\t", 1)[0] if line.count("\t") == 2 and rng.random() < 0.5
             else line for line in buf.getvalue().splitlines()]
    return read_file(read_arpa, lines)


_WORDS = st.sampled_from(["a", "b", "c", "d"])
_CORPORA = st.lists(st.lists(_WORDS, max_size=6), min_size=1, max_size=8).filter(any)


@settings(deadline=None, max_examples=300)
@given(_CORPORA, _CORPORA, st.integers(1, 5),
       st.sampled_from(["train_kn", "arpa", "mixture"]), st.integers(0, 2 ** 16),
       st.lists(st.sampled_from(["a", "b", "c", "d", "<s>", "zz"]), max_size=4),
       st.lists(st.sampled_from(["a", "b", "c", "d", "zz", "yy"]), max_size=6))
def test_minimal_state_scores_like_the_full_state(corpus, other, order, kind, seed,
                                                  state, words):
    # the words after a state score the same bits from its minimal state,
    # also when each word's walk starts from the state the last one left
    lm = train_kn(corpus, order)
    if kind == "arpa":
        lm = drop_backoffs(lm, random.Random(seed))
    elif kind == "mixture":
        lm = MixtureModel(lm, train_kn(other, order), random.Random(seed).choice([0.0, 0.3, 1.0]))
    state = tuple(state[:order - 1])
    minimal = lm.minimal_state(state)
    assert state[len(state) - len(minimal):] == minimal
    assert _lm_walk(lm, state, words) == _lm_walk(lm, minimal, words)
    full_sum, full_state, walked_sum, walked_state = 0.0, state, 0.0, minimal
    for word in words:
        full_sum += lm.logprob(full_state, word)
        full_state = (full_state + (word,))[-(order - 1):] if order > 1 else ()
        lm_sum, walked_state = _lm_walk(lm, walked_state, [word])
        walked_sum += lm_sum
    assert walked_sum == full_sum
    assert walked_state == lm.minimal_state(full_state)


@settings(deadline=None, max_examples=300)
@given(_CORPORA, _CORPORA, st.integers(1, 5),
       st.sampled_from(["train_kn", "arpa", "mixture"]), st.integers(0, 2 ** 16),
       st.lists(st.sampled_from(["a", "b", "c", "d", "<s>", "zz"]), max_size=4),
       st.integers(1, 4))
def test_targets_of_unstored_words_are_one_to_the_lm(corpus, other, order, kind, seed,
                                                     state, length):
    # two targets of one length made only of words the LM stores in no
    # n-gram score the same bits from every minimal state and leave ()
    lm = train_kn(corpus, order)
    if kind == "arpa":
        lm = drop_backoffs(lm, random.Random(seed))
    elif kind == "mixture":
        lm = MixtureModel(lm, train_kn(other, order), random.Random(seed).choice([0.0, 0.3, 1.0]))
    assert lm.stores("<s>") and not lm.stores("zz")
    unstored = [word for word in ("a", "b", "c", "d", "zz", "yy") if not lm.stores(word)]
    rng = random.Random(seed)
    one, two = ([rng.choice(unstored) for _ in range(length)] for _ in range(2))
    state = lm.minimal_state(tuple(state[:order - 1]))
    assert _lm_walk(lm, state, one) == _lm_walk(lm, state, two)
    assert _lm_walk(lm, state, one)[1] == ()


def arpa_model(model):
    return model.order, model.logprobs, model.backoffs, model.unk_logprob, model.vocab


@settings(deadline=None, max_examples=200)
@given(_CORPORA, st.integers(1, 5), st.sampled_from(["space", "runs"]), st.randoms())
def test_any_whitespace_separates_like_a_tab(corpus, order, how, rng):
    # SRILM and KenLM split an ARPA line on any run of whitespace: a file
    # whose tabs and spaces are rewritten reads to the model its tabs give
    buf = io.StringIO()
    write_arpa(train_kn(corpus, order), buf)
    text = buf.getvalue()
    if how == "space":
        rewritten = text.replace("\t", " ")
    else:
        rewritten = "".join("".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))
                            if ch in " \t" else ch for ch in text)
    assert arpa_model(read_file(read_arpa, rewritten)) == arpa_model(read_file(read_arpa, text))


class TestLogprob:
    def test_long_context_truncated(self):
        model = train_kn(fixture_corpus(), order=2)
        long_ctx = ("w1", "w2", "w3", "w4")
        assert model.logprob(long_ctx, "w0") == model.logprob(long_ctx[-1:], "w0")

    def test_stored_ngram_returned_exactly(self):
        model = train_kn(fixture_corpus(), order=3)
        gram = next(g for g in model.logprobs if len(g) == 3)
        assert model.logprob(gram[:-1], gram[-1]) == model.logprobs[gram]

    def test_unknown_word_gets_unk_mass(self):
        model = train_kn(fixture_corpus(), order=2)
        assert model.logprob((), "xyzzy") == pytest.approx(model.unk_logprob)


class TestMixture:
    def test_lambda_one_identical(self):
        a = train_kn(fixture_corpus(1), order=2)
        b = train_kn(fixture_corpus(2), order=2)
        mix = MixtureModel(a, b, 1.0)
        for word in list(a.vocab)[:5]:
            assert mix.logprob((), word) == a.logprob((), word)

    def test_identical_models_any_lambda(self):
        a = train_kn(fixture_corpus(1), order=2)
        mix = MixtureModel(a, a, 0.5)
        for word in list(a.vocab)[:5]:
            assert mix.logprob(("w1",), word) == pytest.approx(
                a.logprob(("w1",), word), abs=1e-12)

    def test_convex_combination_oracle(self):
        a = train_kn(fixture_corpus(1), order=2)
        b = train_kn(fixture_corpus(2), order=2)
        lam = 0.3
        mix = MixtureModel(a, b, lam)
        rng = random.Random(4)
        for ctx in random_contexts(a, rng, 20):
            for word in list(a.vocab)[:3]:
                direct = math.log10(
                    lam * 10.0 ** a.logprob(ctx, word)
                    + (1 - lam) * 10.0 ** b.logprob(ctx, word))
                assert mix.logprob(ctx, word) == pytest.approx(direct, abs=1e-12)

    def test_mixture_bounds(self):
        a = train_kn(fixture_corpus(1), order=2)
        b = train_kn(fixture_corpus(2), order=2)
        mix = MixtureModel(a, b, 0.7)
        rng = random.Random(8)
        for ctx in random_contexts(a, rng, 20):
            for word in list(mix.vocab)[:4]:
                pa = 10.0 ** a.logprob(ctx, word)
                pb = 10.0 ** b.logprob(ctx, word)
                pm = 10.0 ** mix.logprob(ctx, word)
                assert min(pa, pb) - 1e-12 <= pm <= max(pa, pb) + 1e-12

    def test_order_mismatch_rejected(self):
        a = train_kn(fixture_corpus(1), order=2)
        b = train_kn(fixture_corpus(2), order=3)
        with pytest.raises(ValueError):
            MixtureModel(a, b, 0.5)

    def test_bad_lambda_rejected(self):
        a = train_kn(fixture_corpus(1), order=2)
        with pytest.raises(ValueError):
            MixtureModel(a, a, 1.5)


class TestArpa:
    def test_roundtrip_queries(self):
        model = train_kn(fixture_corpus(), order=3)
        buf = io.StringIO()
        write_arpa(model, buf)
        back = read_file(read_arpa, buf.getvalue())
        assert back.order == model.order
        rng = random.Random(21)
        for ctx in random_contexts(model, rng, 40):
            for word in list(model.vocab)[:3] + ["oov"]:
                assert abs(back.logprob(ctx, word)
                           - model.logprob(ctx, word)) < 1e-4

    def test_minimal_model(self):
        model = train_kn([["a"]], order=1)
        buf = io.StringIO()
        write_arpa(model, buf)
        text = buf.getvalue()
        assert text.startswith("\\data\\\n")
        assert "\\1-grams:" in text and text.rstrip().endswith("\\end\\")
        back = read_file(read_arpa, text)
        assert back.logprob((), "a") == pytest.approx(model.logprob((), "a"),
                                                      abs=1e-4)

    def test_handwritten_fixture_values(self):
        text = "\n".join([
            "\\data\\",
            "ngram 1=3",
            "ngram 2=2",
            "",
            "\\1-grams:",
            "-1.0\t<unk>",
            "-0.5\ta\t-0.30103",
            "-0.7\tb",
            "",
            "\\2-grams:",
            "-0.2\ta b",
            "-0.9\ta a",
            "",
            "\\end\\",
        ])
        model = read_file(read_arpa, text)
        assert model.logprob(("a",), "b") == pytest.approx(-0.2)
        assert model.logprob(("a",), "a") == pytest.approx(-0.9)
        # backoff path: p(b | b) = bow(b)=0 + p(b)
        assert model.logprob(("b",), "b") == pytest.approx(-0.7)
        # bow(a) applies when the bigram is missing: unk through backoff
        assert model.logprob(("a",), "zz") == pytest.approx(-0.30103 + -1.0)

    def test_order_five_roundtrip(self):
        model = train_kn(fixture_corpus(seed=55, n_tokens=60), order=5)
        buf = io.StringIO()
        write_arpa(model, buf)
        back = read_file(read_arpa, buf.getvalue())
        assert back.order == 5
        ctx = ("w1", "w2", "w3", "w4")
        for word in list(model.vocab)[:4]:
            assert abs(back.logprob(ctx, word)
                       - model.logprob(ctx, word)) < 1e-4

    def test_order_above_cap_rejected(self):
        with pytest.raises(ValueError):
            train_kn([["a", "b"]], order=6)

    def test_count_mismatch_rejected(self):
        text = "\n".join([
            "\\data\\", "ngram 1=5", "", "\\1-grams:",
            "-0.5\ta", "", "\\end\\",
        ])
        with pytest.raises(DataError, match="declares 5"):
            read_file(read_arpa, text)

    def test_malformed_header_rejected(self):
        with pytest.raises(DataError, match=":1"):
            read_file(read_arpa, "garbage first line\n")

    @pytest.mark.parametrize("word", ["a", "<unk>"])
    def test_repeated_ngram_names_second_line(self, tmp_path, word):
        # the second value does not silently win and count toward the header
        path = tmp_path / "lm.arpa"
        path.write_text("\n".join([
            "\\data\\", "ngram 1=3", "", "\\1-grams:", f"-1.0\t{word}", "-99\t<s>",
            f"-2.0\t{word}", "", "\\end\\",
        ]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:7: '{word}' is listed twice"):
            read_arpa(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["{bad}\ta\t-0.3", "-0.5\ta\t{bad}"])
    def test_non_finite_value_names_line(self, tmp_path, bad, entry):
        path = tmp_path / "lm.arpa"
        path.write_text("\n".join([
            "\\data\\", "ngram 1=2", "", "\\1-grams:", "-1.0\t<unk>",
            entry.format(bad=bad), "", "\\end\\",
        ]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="lm.arpa:6"):
            read_arpa(str(path))
