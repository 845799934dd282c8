"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written as straight-line reference code,
sharing no implementation paths with the package: flat dictionaries,
explicit loops, per-query recomputation. Slow is fine; wrong is not.
"""

from __future__ import annotations

import math
import random
import unicodedata

BOS = "<s>"


# --- reference tokenizer ------------------------------------------------------

def reference_tokenize(line: str) -> list[str]:
    padded = "".join(
        f" {ch} " if unicodedata.category(ch).startswith("P") else ch
        for ch in line
    )
    return padded.split()


# --- brute-force IBM Model 1 EM ----------------------------------------------

def em_model1_reference(pairs, iterations, use_null=False):
    """Flat-dict EM over t(src_word | tgt_word); returns (probs, lls).

    probs is keyed (conditioning, predicted); lls is the corpus
    log-likelihood evaluated with the parameters entering each iteration.
    """
    pairs = [(list(s), list(t)) for s, t in pairs if s and t]
    src_vocab = sorted({w for s, _ in pairs for w in s})
    uniform = 1.0 / len(src_vocab)
    t: dict[tuple, float] = {}
    for s, tgt in pairs:
        conds = [None] + tgt if use_null else tgt
        for e in conds:
            for f in s:
                t[(e, f)] = uniform
    lls = []
    for _ in range(iterations):
        counts = {key: 0.0 for key in t}
        totals: dict = {}
        ll = 0.0
        for s, tgt in pairs:
            conds = [None] + tgt if use_null else tgt
            for f in s:
                z = sum(t[(e, f)] for e in conds)
                ll += math.log(z / len(conds))
                for e in conds:
                    counts[(e, f)] += t[(e, f)] / z
        lls.append(ll)
        for (e, f), c in counts.items():
            totals[e] = totals.get(e, 0.0) + c
        t = {(e, f): c / totals[e] for (e, f), c in counts.items()}
    return t, lls


# --- brute-force consistent phrase enumeration ---------------------------------

def enumerate_phrase_pairs(src_len, tgt_len, links, max_len):
    """Quadruple loop over all span pairs, checking consistency directly.

    A box qualifies when it contains a link, no link crosses its boundary,
    and each of its four edges carries a link (tight boxes only).
    """
    links = set(links)
    out = set()
    for i1 in range(src_len):
        for i2 in range(i1, min(i1 + max_len - 1, src_len - 1) + 1):
            for j1 in range(tgt_len):
                for j2 in range(j1, min(j1 + max_len - 1, tgt_len - 1) + 1):
                    inside = [(i, j) for (i, j) in links
                              if i1 <= i <= i2 and j1 <= j <= j2]
                    if not inside:
                        continue
                    violated = any(
                        (i1 <= i <= i2) != (j1 <= j <= j2) for (i, j) in links
                    )
                    if violated:
                        continue
                    rows = {i for i, _ in inside}
                    cols = {j for _, j in inside}
                    if i1 in rows and i2 in rows and j1 in cols and j2 in cols:
                        out.add(((i1, i2), (j1, j2)))
    return out


# --- straight-line interpolated Kneser-Ney -------------------------------------

class KNReference:
    """Recomputes interpolated KN probabilities from raw counts per query."""

    def __init__(self, sentences, order):
        self.order = order
        self.raw: list[dict] = [dict() for _ in range(order + 1)]
        for sent in sentences:
            padded = (BOS,) + tuple(sent)
            for n in range(1, order + 1):
                for k in range(len(padded) - n + 1):
                    gram = padded[k:k + n]
                    if gram == (BOS,):
                        continue
                    self.raw[n][gram] = self.raw[n].get(gram, 0) + 1
        self.vocab = sorted(w for (w,) in self.raw[1])

    def _modified(self, gram):
        """Continuation count below the top order; raw when BOS-initial."""
        n = len(gram)
        if n == self.order or gram[0] == BOS:
            return self.raw[n].get(gram, 0)
        return sum(1 for g in self.raw[n + 1] if g[1:] == gram)

    def _discount(self, n):
        ones = twos = 0
        grams = (self.raw[self.order] if n == self.order
                 else {g: None for g in self._level_grams(n)})
        for gram in grams:
            c = self._modified(gram)
            if c == 1:
                ones += 1
            elif c == 2:
                twos += 1
        if ones == 0 or twos == 0:
            return 0.5
        return ones / (ones + 2.0 * twos)

    def _level_grams(self, n):
        return self.raw[n].keys()

    def prob(self, context, word):
        ctx = tuple(context)
        ctx = ctx[-(self.order - 1):] if self.order > 1 else ()
        return self._p(ctx, word)

    def _p(self, ctx, word):
        n = len(ctx) + 1
        if n == 1:
            d = self._discount(1)
            total = sum(self._modified((w,)) for w in self.vocab)
            n1plus = sum(1 for w in self.vocab if self._modified((w,)) > 0)
            uniform = 1.0 / (len(self.vocab) + 1)
            mass = d * n1plus / total
            if word in self.vocab:
                return (max(self._modified((word,)) - d, 0.0) / total
                        + mass * uniform)
            return mass * uniform
        extensions = [g for g in self._level_grams(n) if g[:-1] == ctx]
        denom = sum(self._modified(g) for g in extensions)
        if denom == 0:
            return self._p(ctx[1:], word)
        d = self._discount(n)
        bow = d * len(extensions) / denom
        numer = max(self._modified(ctx + (word,)) - d, 0.0)
        return numer / denom + bow * self._p(ctx[1:], word)


# --- explicit triangulation double loop ----------------------------------------

def triangulate_reference(src_pivot, pivot_tgt):
    """src_pivot / pivot_tgt are dicts {(src, tgt): (f1, f2, f3, f4)}.

    Returns {(out_src, out_tgt): (f1..f4)} summing the feature products
    over every pivot phrase both tables know.
    """
    pivots = ({t for (_, t) in pivot_tgt} | {s for (s, _) in src_pivot})
    out_srcs = {s for (s, _) in pivot_tgt}
    out_tgts = {t for (_, t) in src_pivot}
    result = {}
    for out_src in out_srcs:
        for out_tgt in out_tgts:
            sums = [0.0, 0.0, 0.0, 0.0]
            hit = False
            for pivot in pivots:
                left = pivot_tgt.get((out_src, pivot))
                right = src_pivot.get((pivot, out_tgt))
                if left is None or right is None:
                    continue
                hit = True
                for k in range(4):
                    sums[k] += left[k] * right[k]
            if hit:
                result[(out_src, out_tgt)] = tuple(sums)
    return result


# --- exhaustive decoder search --------------------------------------------------

def enumerate_decodings(n, lattice, weights, lm, distortion_limit):
    """All complete derivations as (tokens, score), best first.

    Mirrors the scoring contract: four table features plus an optional
    transliteration feature per option, LM increments from a BOS start
    state, word/phrase penalties as negated counts, distortion as the
    negated jump from the previous phrase end.
    """
    results = []

    def lm_step(state, tokens):
        total = 0.0
        for tok in tokens:
            total += lm.logprob(state, tok)
            state = (tuple(state) + (tok,))[-(lm.order - 1):] if lm.order > 1 else ()
        return total, state

    init_state = (BOS,) if lm.order > 1 else ()

    def recurse(coverage, prev_end, state, score, tokens):
        if all(coverage):
            results.append((tuple(tokens), score))
            return
        for (start, end), options in lattice.items():
            if any(coverage[start:end]):
                continue
            if abs(start - prev_end) > distortion_limit:
                continue
            for option in options:
                static = sum(weights[name] * value
                             for name, value in option.features.items())
                lm_inc, new_state = lm_step(state, option.target)
                inc = (static
                       + weights["lm"] * lm_inc
                       - weights["word_penalty"] * len(option.target)
                       - weights["phrase_penalty"]
                       - weights["distortion"] * abs(start - prev_end))
                cov = list(coverage)
                for k in range(start, end):
                    cov[k] = True
                recurse(cov, end, new_state, score + inc,
                        tokens + list(option.target))

    recurse([False] * n, 0, init_state, 0.0, [])
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


def coverage_future_reference(coverage, n, fc):
    """Future cost of a coverage mask, scanning one bit at a time."""
    total = 0.0
    i = 0
    while i < n:
        if coverage >> i & 1:
            i += 1
            continue
        j = i
        while j < n and not (coverage >> j & 1):
            j += 1
        total += fc[(i, j)]
        i = j
    return total


# --- transliteration fixture -----------------------------------------------------

SRC_ALPHABET = "abcdefgh"
TGT_ALPHABET = "ABCDEFGH"
NOISE_ALPHABET = "JKLMNPQRSTUVWXYZ"
BIJECTION = {s: t for s, t in zip(SRC_ALPHABET, TGT_ALPHABET)}


def apply_bijection(word: str) -> str:
    return "".join(BIJECTION[ch] for ch in word)


def make_bijection_fixture(seed, n_true=200, n_noise=200, min_len=3, max_len=8):
    """Labelled mixture of bijection-generated pairs and random noise pairs."""
    rng = random.Random(seed)
    pairs = []
    labels = []
    for _ in range(n_true):
        word = "".join(rng.choice(SRC_ALPHABET)
                       for _ in range(rng.randint(min_len, max_len)))
        pairs.append((word, apply_bijection(word), 1.0))
        labels.append(True)
    for _ in range(n_noise):
        src = "".join(rng.choice(SRC_ALPHABET)
                      for _ in range(rng.randint(min_len, max_len)))
        tgt = "".join(rng.choice(NOISE_ALPHABET)
                      for _ in range(rng.randint(min_len, max_len)))
        pairs.append((src, tgt, 1.0))
        labels.append(False)
    return pairs, labels


def make_heldout_words(seed, count=100, min_len=3, max_len=8):
    rng = random.Random(seed)
    return ["".join(rng.choice(SRC_ALPHABET)
                    for _ in range(rng.randint(min_len, max_len)))
            for _ in range(count)]
