"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written as straight-line reference code,
sharing no implementation paths with the package: flat dictionaries,
explicit loops, per-query recomputation. Slow is fine; wrong is not. The
exceptions are `decode_reference` and `nbest_reference`, earlier versions of
the search and of its n-best enumeration kept to compare the current ones
against bit for bit: they build and read the decoder's own nodes and
results, so that either enumeration can read either search's lattice. The
reference search reads its 1-best from the arcs
(`best_derivation_reference`), never from the back-pointers. Likewise
`tune_reference` is the coordinate ascent as it was before its trials were
scored from stored parts: it decodes through the package and adds the
package's BLEU statistics, but scores every hypothesis of every trial in full.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import unicodedata
from typing import Sequence

from pivotsmt.decoder import (NBEST_MAX_POPS, DecodeResult, LogLinearModel, NBestItem,
                              OptionLattice, TranslationOption,
                              _coverage_future, _future_costs, _lm_walk, _Node,
                              decode_corpus, derivation_features, derivation_tokens,
                              weighted_total)
from pivotsmt.errors import DataError
from pivotsmt.evalkit import BleuStats, sentence_stats

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
    Every co-occurring pair starts at 1 / |source vocabulary|.
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


# --- arithmetic-order references for the align and phrasetab fast paths -------
#
# These are the straightforward dict walks the package's flat-array code
# replaces. They add and multiply in the same order, so the package must
# match them with ==, dict order included.

def _ltr_sum(values):
    """Left to right: the builtin `sum` compensates rounding from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def model1_dict_reference(pairs, iterations, use_null=False):
    """Nested-dict Model 1 EM; returns (probs, lls) like TranslationTable.

    probs is {conditioning: {predicted: t}} holding the pairs the last
    E-step scored non-zero.
    """
    pairs = [(tuple(s), tuple(t)) for s, t in pairs if s and t]
    uniform = 1.0 / len({w for s, _ in pairs for w in s})
    probs: dict = {}
    lls = []
    for _ in range(iterations):
        counts: dict = {}
        totals: dict = {}
        ll = 0.0
        for src, tgt in pairs:
            cond = [None] + list(tgt) if use_null else list(tgt)
            rows = [probs.get(e) for e in cond]
            norm = math.log(len(cond))
            for f in src:
                scores = [(row.get(f, uniform) if row is not None else uniform)
                          for row in rows]
                denom = _ltr_sum(scores)
                ll += math.log(denom) - norm
                for e, score in zip(cond, scores):
                    if score == 0.0:
                        continue
                    post = score / denom
                    row_counts = counts.setdefault(e, {})
                    row_counts[f] = row_counts.get(f, 0.0) + post
                    totals[e] = totals.get(e, 0.0) + post
        lls.append(ll)
        probs = {e: {f: c / totals[e] for f, c in row.items()}
                 for e, row in counts.items()}
        uniform = 0.0  # only the first E-step sees the uniform init
    return probs, lls


def _t_prob(probs, predicted, conditioning):
    return probs.get(conditioning, {}).get(predicted, 0.0)


def viterbi_reference(probs, use_null, pair, direction):
    """Argmax links per predicted word, one probability lookup per cell."""
    src, tgt = pair
    predicted, conditioning = (src, tgt) if direction == "forward" else (tgt, src)
    links = set()
    for p_idx, word in enumerate(predicted):
        if not conditioning:
            continue
        best_idx, best = -1, 0.0
        for c_idx, cond_word in enumerate(conditioning):
            score = _t_prob(probs, word, cond_word)
            if score > best:
                best, best_idx = score, c_idx
        null_score = _t_prob(probs, word, None) if use_null else 0.0
        if best == 0.0:
            if use_null:
                continue
            best_idx = 0
        elif null_score > best:
            continue
        links.add((p_idx, best_idx) if direction == "forward" else (best_idx, p_idx))
    return links


def _lex_weight_reference(phrase_words, other_words, links_for, probs, use_null):
    weight = 1.0
    for idx, word in enumerate(phrase_words):
        linked = links_for.get(idx)
        if linked:
            avg = _ltr_sum(_t_prob(probs, word, other_words[k]) for k in linked) / len(linked)
        elif use_null:
            avg = _t_prob(probs, word, None)
        else:
            avg = 1.0
        weight *= avg
    return max(weight, 1e-12)


def score_phrases_reference(pairs, alignments, w_tgt_given_src, w_src_given_tgt,
                            max_len):
    """Per-box lexical weighting: re-scan the sentence's links for every box.

    pairs are (src, tgt) token tuples, alignments are link sets and the two
    w tables are (probs, use_null). Returns {(src phrase, tgt phrase):
    (phi(t|s), lex(t|s), phi(s|t), lex(s|t))}.
    """
    counts, src_totals, tgt_totals, lex_fwd, lex_bwd = {}, {}, {}, {}, {}
    for (src, tgt), links in zip(pairs, alignments):
        boxes = enumerate_phrase_pairs(len(src), len(tgt), links, max_len)
        for (i1, i2), (j1, j2) in sorted(boxes):
            s_phrase, t_phrase = tuple(src[i1:i2 + 1]), tuple(tgt[j1:j2 + 1])
            key = (s_phrase, t_phrase)
            counts[key] = counts.get(key, 0) + 1
            src_totals[s_phrase] = src_totals.get(s_phrase, 0) + 1
            tgt_totals[t_phrase] = tgt_totals.get(t_phrase, 0) + 1
            tgt_links, src_links = {}, {}
            for i, j in sorted(links):
                if i1 <= i <= i2 and j1 <= j <= j2:
                    tgt_links.setdefault(j - j1, []).append(i - i1)
                    src_links.setdefault(i - i1, []).append(j - j1)
            fwd = _lex_weight_reference(t_phrase, s_phrase, tgt_links, *w_tgt_given_src)
            bwd = _lex_weight_reference(s_phrase, t_phrase, src_links, *w_src_given_tgt)
            lex_fwd[key] = max(fwd, lex_fwd.get(key, 0.0))
            lex_bwd[key] = max(bwd, lex_bwd.get(key, 0.0))
    return {
        (s, t): (count / src_totals[s], lex_fwd[(s, t)],
                 count / tgt_totals[t], lex_bwd[(s, t)])
        for (s, t), count in counts.items()
    }


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


def train_kn_reference(corpus, order):
    """Every-order-at-once Kneser-Ney training, as the package did before it
    built one order at a time; returns (logprobs, backoffs, unk_logprob, vocab).

    It keeps the package's float expressions, so the package must match it
    with ==, not within a tolerance.
    """
    def discount(counts):
        n1 = n2 = 0
        for c in counts:
            if c == 1:
                n1 += 1
            elif c == 2:
                n2 += 1
        if n1 == 0 or n2 == 0:
            return 0.5
        return n1 / (n1 + 2.0 * n2)

    sentences = [tuple(s) for s in corpus]
    raw = [dict() for _ in range(order + 1)]
    for sent in sentences:
        padded = (BOS,) + sent
        for n in range(1, order + 1):
            grams = raw[n]
            for start in range(len(padded) - n + 1):
                gram = padded[start:start + n]
                if gram == (BOS,):
                    continue
                grams[gram] = grams.get(gram, 0) + 1

    vocab = frozenset(w for (w,) in raw[1])

    modified = [dict() for _ in range(order + 1)]
    modified[order] = dict(raw[order])
    for n in range(1, order):
        grams = {}
        for gram in raw[n + 1]:
            suffix = gram[1:]
            grams[suffix] = grams.get(suffix, 0) + 1
        for gram, count in raw[n].items():
            if gram[0] == BOS:
                grams[gram] = count
        modified[n] = grams

    discounts = [0.0] * (order + 1)
    for n in range(1, order + 1):
        discounts[n] = discount(modified[n].values())

    probs = {}
    backoffs = {}
    d1 = discounts[1]
    uni = modified[1]
    total = float(sum(uni.values()))
    n1plus = len(uni)
    v_plus_unk = len(vocab) + 1
    interp_mass = d1 * n1plus / total
    for (w,) in uni:
        probs[(w,)] = (max(uni[(w,)] - d1, 0.0) / total
                       + interp_mass / v_plus_unk)
    unk_prob = interp_mass / v_plus_unk

    for n in range(2, order + 1):
        d = discounts[n]
        grams = modified[n]
        by_context = {}
        for gram in grams:
            by_context.setdefault(gram[:-1], []).append(gram)
        for context, extensions in by_context.items():
            denom = float(sum(grams[g] for g in extensions))
            bow = d * len(extensions) / denom
            backoffs[context] = bow
            for gram in extensions:
                lower = probs[gram[1:]]
                probs[gram] = max(grams[gram] - d, 0.0) / denom + bow * lower

    logprobs = {g: math.log10(p) for g, p in probs.items()}
    logprobs[(BOS,)] = -99.0
    log_backoffs = {c: math.log10(b) for c, b in backoffs.items()}
    return logprobs, log_backoffs, math.log10(unk_prob), vocab


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
                static = _ltr_sum(weights[name] * value
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


def decode_reference(
    sentence: Sequence[str],
    model: LogLinearModel,
    lm,
    options: OptionLattice,
    distortion_limit: int,
    stack_size: int,
) -> DecodeResult:
    """`decoder.decode` before it skipped covered starts and options that
    repeat a target: it visits every start of the distortion window and
    keeps every option. The current search must build the same nodes and
    return the same score, 1-best options and n-best items.

    Find the best-scoring complete hypothesis by stack search.

    A new phrase must start within distortion_limit of the previous
    phrase's end, and end within distortion_limit of the first uncovered
    position, so that every gap stays reachable; the distortion feature is
    the negated jump distance.
    """
    n = len(sentence)
    if n == 0:
        raise ValueError("cannot decode an empty sentence")
    uncovered = [pos for pos in range(n)
                 if not any(s <= pos < e for (s, e) in options)]
    if uncovered:
        raise DataError(f"positions {uncovered} have no translation options")

    w_lm = model.weights["lm"]
    w_wp = model.weights["word_penalty"]
    w_pp = model.weights["phrase_penalty"]
    w_dist = model.weights["distortion"]

    # Per start position: (end, mask, length, [(option, static score, word
    # penalty, LM steps)]) in end order. LM steps are shared by every option
    # with the same target and map an LM state to (lm_sum, next state).
    lm_steps: dict[tuple[str, ...], dict[tuple[str, ...], tuple[float, tuple[str, ...]]]] = {}
    by_start: list[list[tuple[int, int, int, list]]] = [[] for _ in range(n)]
    for start, end in sorted(options):
        scored = [(option, weighted_total(option.features, model.weights),
                   w_wp * len(option.target),
                   lm_steps.setdefault(option.target, {}))
                  for option in options[(start, end)]]
        by_start[start].append((end, ((1 << (end - start)) - 1) << start,
                                end - start, scored))
    fc = _future_costs(n, by_start, lm, w_lm, w_pp)
    full = (1 << n) - 1
    futures: dict[int, float] = {}

    init_state: tuple[str, ...] = (BOS,) if lm.order > 1 else ()
    init = _Node(0, init_state, 0, _coverage_future(0, n, fc), True)
    init.score = 0.0
    stacks: list[dict[tuple, _Node]] = [dict() for _ in range(n + 1)]
    stacks[0][(0, init_state, 0)] = init

    for cardinality in range(n):
        # a stack key is (coverage, LM state, previous end), unique per node
        beam = heapq.nsmallest(stack_size, [(-(nd.score + nd.future), key, nd)
                                            for key, nd in stacks[cardinality].items()])
        # children point to parents only, so the goal can reach no node of
        # this stack outside the beam: free the rest, and their arcs, now
        stacks[cardinality] = {}
        for _, _, node in beam:
            covered = node.coverage
            node_state = node.lm_state
            node_score = node.score
            prev_end = node.prev_end
            for start in range(max(0, prev_end - distortion_limit),
                               min(n, prev_end + distortion_limit + 1)):
                dist_cost = w_dist * abs(start - prev_end)
                for end, mask, length, scored in by_start[start]:
                    if covered & mask:
                        break  # every longer span from this start overlaps too
                    coverage = covered | mask
                    gaps = ~coverage & full
                    if gaps and end - ((gaps & -gaps).bit_length() - 1) > distortion_limit:
                        break  # the first gap lies left of start, out of reach for longer spans too
                    child_stack = stacks[cardinality + length]
                    for option, static, wp_cost, steps in scored:
                        step = steps.get(node_state)
                        if step is None:
                            step = steps[node_state] = _lm_walk(lm, node_state, option.target)
                        lm_sum, state = step
                        inc = static + w_lm * lm_sum - wp_cost - w_pp - dist_cost
                        key = (coverage, state, end)
                        child = child_stack.get(key)
                        if child is None:
                            future = futures.get(coverage)
                            if future is None:
                                future = futures[coverage] = _coverage_future(
                                    coverage, n, fc)
                            child = _Node(coverage, state, end, future, True)
                            child_stack[key] = child
                        child.arcs.append((node, option, inc))
                        if node_score + inc > child.score:
                            child.score = node_score + inc

    # the goal's arcs: every complete hypothesis, best first, ties by stack key
    complete = sorted(stacks[n].items(), key=lambda item: (-item[1].score, item[0]))
    if not complete:
        raise DataError("no complete hypothesis found (search dead-ended)")
    goal = _Node(full, (), n, 0.0, True)
    goal.arcs = [(node, None, 0.0) for _, node in complete]
    goal.score = complete[0][1].score
    return DecodeResult(goal=goal, model=model, lm=lm, best_score=goal.score,
                        best_derivation=best_derivation_reference(goal))


def best_derivation_reference(goal: _Node) -> list[TranslationOption]:
    """The 1-best read from the arcs alone, as `decoder._best_derivation` did
    before the search kept back-pointers.

    From the goal back, each node's first arc of largest pred.score + inc:
    the same sum, of the same final scores, that the search compared, so
    ties keep the arc the search kept.
    """
    derivation: list[TranslationOption] = []
    node = goal
    while node.arcs:
        node, option, _ = max(node.arcs, key=lambda arc: arc[0].score + arc[2])
        if option is not None:
            derivation.append(option)
    derivation.reverse()
    return derivation


def nbest_reference(result: DecodeResult, n: int) -> list[NBestItem]:
    """`decoder.nbest` before it seeded each heap from the predecessors'
    scores: building a node's heap takes the first derivation of every
    predecessor, so every node the goal reaches gets a list. The current
    enumeration must return the same items.

    Up to n distinct target strings by descending score.

    Derivations are enumerated exactly from the recombination lattice
    (lazy k-best over back-pointer arcs); duplicate strings keep their
    highest-scoring derivation. The options `decode` drops only ever gave
    a string again after a derivation of it at least as good, so a list
    that NBEST_MAX_POPS cuts short holds every item the lattice with all
    options gives within that many pops, and possibly more.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lists: dict[int, list[tuple[float, int, int]]] = {}
    heaps: dict[int, list[tuple[float, int, int]]] = {}

    def ensure(node: _Node) -> None:
        nid = id(node)
        if nid in lists:
            return
        lists[nid] = []
        heap: list[tuple[float, int, int]] = []
        if not node.arcs:
            # initial node: the single empty derivation
            lists[nid].append((0.0, -1, -1))
            heaps[nid] = []
            return
        for arc_idx, (pred, _, inc) in enumerate(node.arcs):
            first = kth(pred, 0)
            if first is not None:
                heap.append((-(first[0] + inc), arc_idx, 0))
        heapq.heapify(heap)
        heaps[nid] = heap

    def kth(node: _Node, k: int):
        ensure(node)
        nid = id(node)
        entries = lists[nid]
        heap = heaps[nid]
        while len(entries) <= k and heap:
            neg, arc_idx, rank = heapq.heappop(heap)
            entries.append((-neg, arc_idx, rank))
            pred, _, inc = node.arcs[arc_idx]
            succ = kth(pred, rank + 1)
            if succ is not None:
                heapq.heappush(heap, (-(succ[0] + inc), arc_idx, rank + 1))
        return entries[k] if k < len(entries) else None

    def path(node: _Node, k: int) -> list[TranslationOption]:
        entry = kth(node, k)
        assert entry is not None
        _, arc_idx, rank = entry
        if arc_idx < 0:
            return []
        pred, option, _ = node.arcs[arc_idx]
        options = path(pred, rank)
        if option is not None:
            options.append(option)
        return options

    items: list[NBestItem] = []
    seen: set[tuple[str, ...]] = set()
    rank = 0
    while len(items) < n and rank < NBEST_MAX_POPS:
        entry = kth(result.goal, rank)
        if entry is None:
            break
        derivation = path(result.goal, rank)
        tokens = derivation_tokens(derivation)
        rank += 1
        if tokens in seen:
            continue
        seen.add(tokens)
        features = derivation_features(derivation, result.model, result.lm)
        items.append(NBestItem(tokens=tokens, score=entry[0], features=features))
    return items


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


# --- first-pass transliteration operations -------------------------------------

def initial_ops_reference(pairs, max_seg=2, min_support=3,
                          multi_weight=1e-3, eps_weight=1e-4):
    """The miner's first-pass joint operation table, one formula per (a, b).

    Every (a, b) of source and target segments (1..max_seg characters, or
    empty on one side) of every weighted word pair is scored on its own:
    an insertion or deletion weighs eps_weight; a substitution weighs
    dice^2 with dice = co(a, b)^2 / (occ(a) occ(b)), where co and occ sum
    the weights of the pairs that contain the segments, times multi_weight
    when it is not 1:1. Every weight is divided by the sum of all of them.
    A multi-character substitution found in fewer than min_support pairs
    stays in that sum but not in the table. Returns {a: {b: probability}}.
    """
    def segments(word):
        return {word[k:k + n] for n in range(1, max_seg + 1)
                for k in range(len(word) - n + 1)}

    seg_pairs = [(segments(s), segments(t), w) for s, t, w in pairs]

    def weight(a, b):
        if not a or not b:
            return eps_weight
        co = sum(w for src, tgt, w in seg_pairs if a in src and b in tgt)
        occ_a = sum(w for src, _, w in seg_pairs if a in src)
        occ_b = sum(w for _, tgt, w in seg_pairs if b in tgt)
        dice = co * co / (occ_a * occ_b)
        return dice * dice * (1.0 if len(a) == len(b) == 1 else multi_weight)

    scored = {}
    for src, tgt, _ in seg_pairs:
        for a in src | {""}:
            for b in tgt | {""}:
                if (a or b) and (a, b) not in scored:
                    scored[(a, b)] = weight(a, b)
    total = math.fsum(scored.values())
    table = {}
    for (a, b), value in scored.items():
        support = sum(1 for src, tgt, _ in seg_pairs if a in src and b in tgt)
        if len(a) == len(b) == 1 or not a or not b or support >= min_support:
            table.setdefault(a, {})[b] = value / total
    return table


# --- dict-based transliteration miner ---------------------------------------------
#
# The miner without compiled lattices: every E-pass re-runs the forward DP
# over all (i, j, d) cells with string slices and dict probes. It adds and
# multiplies in the same order as the package, so mine_transliterations
# must match it with ==, dict order included.

MAX_SEG = 2
INDEL_BUDGET = 3


def _forward_lattice(s, t, ops):
    """Forward DP over monotone segmentations within the indel budget.

    `ops` maps source segments to target-segment probability rows. Cells
    are indexed by source position, target position and unmatched-character
    budget used. Returns (total probability, forward table, move list);
    moves are (i, j, d, i2, j2, d2, src seg, tgt seg, p), leading from cell
    (i, j, d) to cell (i2, j2, d2).
    """
    m, n = len(s), len(t)
    budget = INDEL_BUDGET
    fwd = [[[0.0] * (budget + 1) for _ in range(n + 1)] for _ in range(m + 1)]
    fwd[0][0][0] = 1.0
    moves = []
    for i in range(m + 1):
        for j in range(n + 1):
            cell = fwd[i][j]
            for d in range(budget + 1):
                v = cell[d]
                if v == 0.0:
                    continue
                for di in range(0, MAX_SEG + 1):
                    if i + di > m:
                        break
                    a = s[i:i + di]
                    op_row = ops.get(a)
                    if op_row is None:
                        continue
                    for dj in range(0, MAX_SEG + 1):
                        if di == 0 and dj == 0:
                            continue
                        if j + dj > n:
                            break
                        spent = dj if di == 0 else (di if dj == 0 else 0)
                        if d + spent > budget:
                            continue
                        b = t[j:j + dj]
                        p = op_row.get(b, 0.0)
                        if p:
                            fwd[i + di][j + dj][d + spent] += v * p
                            moves.append((i, j, d, i + di, j + dj, d + spent, a, b, p))
    return _ltr_sum(fwd[m][n]), fwd, moves


def _accumulate_counts(s, t, fwd, moves, total, scale, counts):
    """Add forward-backward expectations of one pair into the count table."""
    m, n = len(s), len(t)
    budget = INDEL_BUDGET
    bwd = [[[0.0] * (budget + 1) for _ in range(n + 1)] for _ in range(m + 1)]
    for d in range(budget + 1):
        bwd[m][n][d] = 1.0
    for i, j, d, i2, j2, d2, a, b, p in reversed(moves):
        bwd[i][j][d] += p * bwd[i2][j2][d2]
    norm = scale / total
    for i, j, d, i2, j2, d2, a, b, p in moves:
        gamma = fwd[i][j][d] * p * bwd[i2][j2][d2] * norm
        if gamma:
            row = counts.setdefault(a, {})
            row[b] = row.get(b, 0.0) + gamma


def lattice_moves_reference(s, t, op_ids, live):
    """(every move out of a cell reachable from (0, 0, 0), the moves on a
    complete path) of a pair's lattice through the operation ids in `live`,
    by brute force over every cell and step: (source cell, destination
    cell, op id) triples numbered as in _Lattice, in (i, j, d, di, dj) order."""
    m, n, width = len(s), len(t), INDEL_BUDGET + 1

    def cell(i, j, d):
        return (i * (n + 1) + j) * width + d

    moves = []
    for i, j, d in itertools.product(range(m + 1), range(n + 1), range(width)):
        for di, dj in itertools.product(range(MAX_SEG + 1), repeat=2):
            spent = dj if di == 0 else (di if dj == 0 else 0)
            op = op_ids.get(s[i:i + di], {}).get(t[j:j + dj])
            if (di or dj) and i + di <= m and j + dj <= n and d + spent < width and op in live:
                moves.append((cell(i, j, d), cell(i + di, j + dj, d + spent), op))
    reached, finishing = {0}, {cell(m, n, d) for d in range(width)}
    while True:  # both closures, to a fixed point
        size = len(reached) + len(finishing)
        for src, dst, _ in moves:
            if src in reached:
                reached.add(dst)
            if dst in finishing:
                finishing.add(src)
        if len(reached) + len(finishing) == size:
            break
    reachable = [move for move in moves if move[0] in reached]
    return reachable, [move for move in reachable if move[1] in finishing]


def mine_reference(pairs, iterations, joint):
    """EM over weighted (s, t, w) pairs from the joint operation table `joint`.

    Returns (row-conditional ops, lambda, log-likelihoods, final posteriors)
    as mine_transliterations computes them.
    """
    src_freq = {}
    tgt_freq = {}
    src_total = tgt_total = 0.0
    for s, t, w in pairs:
        for ch in s:
            src_freq[ch] = src_freq.get(ch, 0.0) + w
            src_total += w
        for ch in t:
            tgt_freq[ch] = tgt_freq.get(ch, 0.0) + w
            tgt_total += w
    log_noise = [
        _ltr_sum(math.log(src_freq[ch] / src_total) for ch in s)
        + _ltr_sum(math.log(tgt_freq[ch] / tgt_total) for ch in t)
        for s, t, _ in pairs
    ]
    lam = 0.5
    log_likelihoods = []

    def e_pass(collect):
        counts = {}
        lam_num = 0.0
        weight_total = 0.0
        ll = 0.0
        posteriors = []
        for idx, (s, t, w) in enumerate(pairs):
            p_translit, fwd, moves = _forward_lattice(s, t, joint)
            p_noise = math.exp(log_noise[idx])
            mix = lam * p_translit + (1.0 - lam) * p_noise
            ll += w * (math.log(mix) if mix > 0 else math.log1p(-lam) + log_noise[idx])
            post = (lam * p_translit / mix) if mix > 0 else 0.0
            posteriors.append(post)
            lam_num += w * post
            weight_total += w
            if collect and post > 0 and p_translit > 0:
                _accumulate_counts(s, t, fwd, moves, p_translit, w * post, counts)
        return ll, counts, lam_num / weight_total, posteriors

    for _ in range(iterations):
        ll, counts, new_lam, _ = e_pass(collect=True)
        log_likelihoods.append(ll)
        total = _ltr_sum(c for row in counts.values() for c in row.values()
                         if c > 1e-12)
        joint = {}
        if total > 0:
            for a, row in counts.items():
                kept = {b: c / total for b, c in row.items() if c > 1e-12}
                if kept:
                    joint[a] = kept
        lam = min(max(new_lam, 1e-6), 1.0 - 1e-6)

    ll, _, _, final_posteriors = e_pass(collect=False)
    log_likelihoods.append(ll)

    ops = {}
    for a, row in joint.items():
        row_total = _ltr_sum(row.values())
        ops[a] = {b: p / row_total for b, p in row.items()}
    return ops, lam, log_likelihoods, final_posteriors


# --- brute-force k-best transliteration ------------------------------------------

def transliterate_reference(model, word, k, max_seg=2, indel_budget=3):
    """The k best target strings of `word`, each scored by its best derivation.

    Walks every monotone derivation: a step maps 0..max_seg source
    characters to one target segment of ops[source segment], an insertion
    (empty source) or deletion (empty target) costs its length out of
    indel_budget, the output is at most 2 * len(word) + 4 characters, and
    a character the model has never seen maps to itself unless ops has a
    row for it. A derivation's score subtracts each step's log10 operation
    probability plus its target-character LM terms from 0.0, then the
    end-of-word term, and is negated; that is the order the search adds
    in, so the maximum per target is the same float. Returns
    [(target, score)] sorted by (-score, target).
    """
    bow, eow = "\x02", "\x03"
    rows = dict(model.ops)
    for ch in word:
        if ch not in model.src_chars and ch not in rows:
            rows[ch] = {ch: 1.0}
    lm = model.tgt_lm
    max_out = 2 * len(word) + 4
    best = {}

    def walk(i, out, c1, c2, spent, neg):
        if i == len(word):
            score = -(neg - lm.logprob(c1, c2, eow))
            if out not in best or score > best[out]:
                best[out] = score
        for di in range(max_seg + 1):
            if i + di > len(word):
                break
            for target, p in rows.get(word[i:i + di], {}).items():
                if di == 0:
                    cost = len(target)
                elif target == "":
                    cost = di
                else:
                    cost = 0
                if di == 0 and target == "":
                    continue
                if spent + cost > indel_budget or p == 0 or len(out) + len(target) > max_out:
                    continue
                step = math.log10(p)
                a1, a2 = c1, c2
                for ch in target:
                    step += lm.logprob(a1, a2, ch)
                    a1, a2 = a2, ch
                walk(i + di, out + target, a1, a2, spent + cost, neg - step)

    walk(0, "", bow, bow, 0, 0.0)
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k]


def tune_reference(dev, system, initial, rounds, nbest_size, steps, max_n=4):
    """Coordinate ascent on corpus BLEU over pooled n-best lists, scoring
    each trial weight vector over every hypothesis of every pool.

    A hypothesis scores the left-to-right sum of its weight-times-value
    products, in feature order; each pool picks its first best hypothesis
    in token order (an empty pool scores as the empty output), and a trial
    is kept only if its BLEU beats the best so far by more than 1e-12.
    """
    weights = dict(initial.weights)
    order = initial.feature_order()
    refs = [tuple(ref) for _, ref in dev]
    pools = [{} for _ in dev]

    def bleu_of(trial):
        total = BleuStats(max_n=max_n)
        for pool, ref in zip(pools, refs):
            best_tokens, best_score = (), None
            for tokens in sorted(pool):
                score = _ltr_sum(t * v for t, v in zip(trial, (pool[tokens][n] for n in order)))
                if best_score is None or score > best_score:
                    best_tokens, best_score = tokens, score
            total.add(sentence_stats(best_tokens, ref, max_n))
        return total.score()

    best_weights, best_bleu = dict(weights), -1.0
    for _ in range(rounds):
        model = LogLinearModel(dict(weights), initial.n_tables)
        decoded = decode_corpus(system, model, [src for src, _ in dev], nbest_size=nbest_size)
        for (_, items), pool in zip(decoded, pools):
            for item in items:
                if (item.tokens not in pool or weighted_total(item.features, weights)
                        > weighted_total(pool[item.tokens], weights)):
                    pool[item.tokens] = item.features
        best_score = bleu_of([weights[name] for name in order])
        if best_score > best_bleu:
            best_bleu, best_weights = best_score, dict(weights)
        improved = True
        while improved:
            improved = False
            for k, name in enumerate(order):
                base = best_value = weights[name]
                for step in steps:
                    trial = [weights[n] for n in order]
                    trial[k] = base + step
                    bleu = bleu_of(trial)
                    if bleu > best_score + 1e-12:
                        best_score, best_value = bleu, base + step
                if best_value != base:
                    weights[name] = best_value
                    improved = True
                    if best_score > best_bleu:
                        best_bleu, best_weights = best_score, dict(weights)
    return LogLinearModel(best_weights, initial.n_tables)
