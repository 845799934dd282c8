"""Unsupervised transliteration mining and character-level transduction.

A two-component mixture is fit by EM over word pairs: the transliteration
component is a monotone character-alignment model (substitutions,
insertions and deletions of up to two characters); the non-transliteration
component is the product of independent source and target character
unigram frequencies. Pairs whose posterior clears a threshold are mined,
and a character model trained on them drives k-best transliteration.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence, TextIO

from .corpus import LM_RESERVED, ltr_sum, number, read_lines, records, write_lines
from .errors import DataError
from .phrasetab import PhraseEntry, PhraseTable

logger = logging.getLogger(__name__)

MAX_SEG = 2  # character operations map source segments of 0..2 chars to target segments of 0..2 chars

# Total characters a pair may leave unmatched (inserted plus deleted).
# Without this bound the transliteration component can explain arbitrary
# unrelated pairs through delete-everything/insert-everything paths and the
# mixture degenerates; transliterations are near-total character mappings,
# so a small budget covers script artifacts only.
INDEL_BUDGET = 3

# Multi-character operations exist to capture systematic digraph
# correspondences (aspirates, matras), not to memorize word pairs: a
# one-off 2:2 operation can explain any random pair far better than the
# character-unigram noise component ever could. They are therefore only
# admitted into the model family when their segments co-occur in at least
# this many distinct pairs.
MULTI_OP_MIN_SUPPORT = 3

# Pops one k-best search may make before it returns what it has found. The
# bound keeps realistic words far below it (a 100-best list of a word of 40
# characters takes a few thousand pops), but a model whose strings tie in
# large blocks, asked for very many of them, can still need an exponential
# number.
MAX_POPS = 200_000

DEFAULT_MINE_THRESHOLD = 0.5  # a pair whose posterior reaches it is mined
DEFAULT_MINE_ITERATIONS = 10  # mining EM iterations of `mine-translit`
DEFAULT_KBEST = 100  # transliterations per word of a `transliterated` table

_BOW = "\x02"  # begin-of-word marker for the target character model
_EOW = "\x03"


def _check_words(*words: str) -> None:
    for word in words:
        if word.split() != [word]:  # empty, or whitespace that splits it
            raise ValueError(f"word pair side {word!r} is not one non-empty word")


def _check_pair(src: str, tgt: str, weight: float) -> None:
    _check_words(src, tgt)
    if weight <= 0:
        raise ValueError(f"pair ({src!r}, {tgt!r}) has non-positive weight")


@dataclass
class WordPairCorpus:
    """Weighted (source word, target word) pairs feeding the miner."""

    pairs: list[tuple[str, str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for pair in self.pairs:
            _check_pair(*pair)

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_tsv(cls, path: str) -> "WordPairCorpus":
        """Parse the `src<TAB>tgt[<TAB>weight]` lines of a file (weight defaults to 1)."""
        pairs = []
        for where, (source, target, *weight) in records(path, widths=(2, 3)):
            pair = (source, target, number(weight[0], where, "weight") if weight else 1.0)
            try:
                _check_pair(*pair)
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
            pairs.append(pair)
        return cls(pairs)

    @classmethod
    def from_phrase_table(cls, table: PhraseTable) -> "WordPairCorpus":
        """Single-token entries of a phrase table as expectation-weighted pairs.

        The forward phrase probability serves as the pair weight.
        """
        pairs = []
        for entry in table:
            if len(entry.source) == 1 and len(entry.target) == 1:
                weight = entry.phi_tgt_given_src
                if weight > 0:
                    pairs.append((entry.source[0], entry.target[0], weight))
        return cls(pairs)


@dataclass(frozen=True)
class MinedPair:
    source: str
    target: str
    posterior: float


class CharTrigramModel:
    """Add-0.1 smoothed character trigram model over target words."""

    ALPHA = 0.1

    def __init__(self) -> None:
        self.counts: dict[tuple[str, str], dict[str, float]] = {}
        self.totals: dict[tuple[str, str], float] = {}
        self.alphabet: set[str] = set()

    def observe(self, word: str, weight: float = 1.0) -> None:
        chars = [_BOW, _BOW] + list(word) + [_EOW]
        self.alphabet.update(chars[2:])
        for k in range(2, len(chars)):
            ctx = (chars[k - 2], chars[k - 1])
            row = self.counts.setdefault(ctx, {})
            row[chars[k]] = row.get(chars[k], 0.0) + weight
            self.totals[ctx] = self.totals.get(ctx, 0.0) + weight

    def logprob(self, c1: str, c2: str, c3: str) -> float:
        # one extra slot of smoothing mass covers never-seen characters
        denom = self.totals.get((c1, c2), 0.0) + self.ALPHA * (len(self.alphabet) + 1)
        num = self.counts.get((c1, c2), {}).get(c3, 0.0) + self.ALPHA
        return math.log10(num / denom)

    def to_dict(self) -> dict:
        return {
            "alphabet": sorted(self.alphabet),
            "counts": {c1 + "\x00" + c2: row for (c1, c2), row in self.counts.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CharTrigramModel":
        model = cls()
        model.alphabet = set(data["alphabet"])
        for key, row in data["counts"].items():
            c1, c2 = key.split("\x00")
            model.counts[(c1, c2)] = dict(row)
            model.totals[(c1, c2)] = ltr_sum(row.values())
        return model


@dataclass
class CharModel:
    """Monotone character transduction model plus mixture prior.

    ops[a][b] is the probability of emitting target segment b while
    consuming source segment a; the empty source segment conditions
    insertions and the empty target segment realizes deletions. Each
    conditioning row sums to 1.
    """

    ops: dict[str, dict[str, float]] = field(default_factory=dict)
    lam: float = 0.5
    src_chars: frozenset[str] = frozenset()
    tgt_lm: CharTrigramModel = field(default_factory=CharTrigramModel)
    log_likelihoods: list[float] = field(default_factory=list)


class _Lattice:
    """One word pair's forward lattice, compiled once for every E-pass.

    Cell (i, j, d) is numbered (i * (n + 1) + j) * (INDEL_BUDGET + 1) + d
    for a target of n characters, so the final cells (m, n, *) come last.
    Move k goes from cell `srcs[k]` to cell `dsts[k]` through operation
    `ops[k]`. The moves come in (i, j, d, di, dj) order, the order the
    forward sum adds in, so they are sorted by source cell, and every
    destination numbers higher than its source.

    Only moves on a complete path are kept: their source is reachable from
    (0, 0, 0) and their destination reaches a final cell. Dropping any
    other move is exact. Its forward value never reaches the total, it
    adds p * 0.0 = +0.0 to a backward value that is not negative, and its
    expectation is 0, which is never counted.
    """

    __slots__ = ("size", "srcs", "dsts", "ops")

    def __init__(self, s: str, t: str, op_ids: dict[str, dict[str, int]]) -> None:
        """Every move on a complete path through `op_ids`, which maps source
        segments to target segments to operation ids."""
        m, n = len(s), len(t)
        width = INDEL_BUDGET + 1
        self.size = (m + 1) * (n + 1) * width
        reached = bytearray(self.size)
        reached[0] = 1
        moves: list[int] = []  # flat (source cell, destination cell, op id) triples
        # each source position's (di, operation row) and each target
        # position's (dj, segment), in ascending di and dj
        rows = [[(di, op_ids[s[i:i + di]]) for di in range(min(MAX_SEG, m - i) + 1)
                 if s[i:i + di] in op_ids] for i in range(m + 1)]
        segs = [[(dj, t[j:j + dj]) for dj in range(min(MAX_SEG, n - j) + 1)]
                for j in range(n + 1)]
        for i in range(m + 1):
            for j in range(n + 1):
                cell = (i * (n + 1) + j) * width
                if not any(reached[cell:cell + width]):
                    continue
                # (cell offset, budget spent, op id) of each step in (di, dj) order
                steps = []
                for di, row in rows[i]:
                    for dj, seg in segs[j]:
                        op = row.get(seg) if di or dj else None
                        if op is not None:
                            spent = dj if di == 0 else (di if dj == 0 else 0)
                            steps.append(((di * (n + 1) + dj) * width + spent, spent, op))
                for src in range(cell, cell + width):
                    if reached[src]:
                        room = cell + width - src  # budget left at this cell, plus 1
                        for offset, spent, op in steps:
                            if spent < room:
                                reached[src + offset] = 1
                                moves += (src, src + offset, op)
        self._keep_finishing(moves[0::3], moves[1::3], moves[2::3])

    def _keep_finishing(self, srcs: list[int], dsts: list[int], ops: list[int]) -> None:
        """Keep the moves whose destination reaches a final cell.

        One sweep in reverse move order decides every cell: the moves out
        of a move's destination all come after it, so the sweep has
        already decided the destination when it reaches the move.
        """
        finishes = bytearray(self.size)
        finishes[-(INDEL_BUDGET + 1):] = b"\x01" * (INDEL_BUDGET + 1)
        for src, dst in zip(reversed(srcs), reversed(dsts)):
            if finishes[dst]:
                finishes[src] = 1
        keep = list(map(finishes.__getitem__, dsts))
        self.srcs = list(compress(srcs, keep))
        self.dsts = list(compress(dsts, keep))
        self.ops = list(compress(ops, keep))

    def move_probs(self, probs: Sequence[float]) -> list[float]:
        """Each move's operation probability, from `probs` by operation id.

        Once half the moves have probability 0, the dead moves are dropped
        first: each drop costs one scan and halves the sweeps after it.
        """
        ps = list(map(probs.__getitem__, self.ops))
        dead = ps.count(0.0)
        if dead and 2 * dead >= len(ps):
            self.drop_dead(probs)
            ps = list(map(probs.__getitem__, self.ops))
        return ps

    def drop_dead(self, probs: Sequence[float]) -> None:
        """Drop the moves of zero-probability operations, then every move
        that is no longer on a complete path. EM never revives an operation
        once its probability is 0, so these moves stay dead."""
        live = bytearray(self.size)
        live[0] = 1
        srcs: list[int] = []
        dsts: list[int] = []
        ops: list[int] = []
        for src, dst, op in zip(self.srcs, self.dsts, self.ops):
            if live[src] and probs[op]:
                live[dst] = 1
                srcs.append(src)
                dsts.append(dst)
                ops.append(op)
        self._keep_finishing(srcs, dsts, ops)


def _forward_lattice(lattice: _Lattice, ps: list[float]) -> tuple[float, list[float]]:
    """Forward sum over a pair's monotone segmentations within the indel budget.

    `ps` holds each move's probability (`_Lattice.move_probs`). Returns
    (total probability, forward table by cell number). A move adds v * p
    into its destination unless its source value v or its probability p is
    0, so a cell that underflows to 0 passes nothing on. The lattice keeps
    only moves whose source is reachable from (0, 0, 0) and whose
    destination reaches a final cell: a dropped move would only feed
    forward values that never reach the total, so the total keeps its bits.
    """
    fwd = [0.0] * lattice.size
    fwd[0] = 1.0
    for src, dst, p in zip(lattice.srcs, lattice.dsts, ps):
        if p:
            v = fwd[src]
            if v:
                fwd[dst] += v * p
    return ltr_sum(fwd[-(INDEL_BUDGET + 1):]), fwd


def _accumulate_counts(lattice: _Lattice, fwd: list[float], ps: list[float],
                       total: float, scale: float, counts: list[float],
                       touched: list[int]) -> None:
    """Add one pair's forward-backward expectations into `counts` by operation id.

    Only the moves the forward sum took count: those out of cells whose
    forward value is not 0. One sweep in reverse move order adds each
    move's p * bwd[dst] into bwd[src] and computes its expectation
    v * p * bwd[dst] * norm. bwd[dst] is final when the sweep reaches the
    move, because the moves are sorted by source cell and dst numbers
    higher than the move's source, so every move out of dst comes after it
    in move order. A move whose probability is 0 adds 0.0 to a backward
    value and yields no expectation, and so would a move the lattice
    dropped, whose bwd[dst] is 0.0: neither changes anything. The
    expectations are then added in move order, so every sum keeps its
    order; each operation id gets appended to `touched` when its count
    first becomes non-zero.
    """
    bwd = [0.0] * lattice.size
    bwd[-(INDEL_BUDGET + 1):] = [1.0] * (INDEL_BUDGET + 1)
    norm = scale / total
    gammas = []
    for src, dst, p in zip(reversed(lattice.srcs), reversed(lattice.dsts), reversed(ps)):
        v = fwd[src]
        if v:
            b = bwd[dst]
            bwd[src] += p * b
            gammas.append(v * p * b * norm)
        else:
            gammas.append(0.0)
    gammas.reverse()
    for op, gamma in zip(lattice.ops, gammas):
        if gamma:
            count = counts[op]
            if not count:
                touched.append(op)
            counts[op] = count + gamma


def _segments(word: str) -> list[str]:
    """Distinct 1..MAX_SEG-character substrings of `word`, shortest first, in word order."""
    return list(dict.fromkeys(word[k:k + length] for length in range(1, MAX_SEG + 1)
                              for k in range(len(word) - length + 1)))


def _initial_ops(pairs: Sequence[tuple[str, str, float]]) -> dict[str, dict[str, float]]:
    """The joint operation table that the first E-step runs on.

    Co-occurrence statistics steer the first E-step into the separating
    basin: Dice-style scores (co^2 / (occ*occ), squared for contrast)
    start systematic correspondences far above the character-unigram
    baseline and chance combinations below it. Insertions and deletions
    get a small fixed weight, multi-character substitutions a damped one
    and only with MULTI_OP_MIN_SUPPORT supporting pairs; all weights are
    divided by one total.
    """
    co: dict[tuple[str, str], float] = {}
    occ_src: dict[str, float] = {}
    occ_tgt: dict[str, float] = {}
    support: dict[tuple[str, str], int] = {}
    for s, t, w in pairs:
        s_segs, t_segs = _segments(s), _segments(t)
        for a in s_segs:
            occ_src[a] = occ_src.get(a, 0.0) + w
        for b in t_segs:
            occ_tgt[b] = occ_tgt.get(b, 0.0) + w
        for a in s_segs:
            for b in t_segs:
                co[(a, b)] = co.get((a, b), 0.0) + w
                if len(a) + len(b) > 2:
                    support[(a, b)] = support.get((a, b), 0) + 1

    multi_weight = 1e-3  # multi-char ops must be earned from the data
    eps_weight = 1e-4    # insertions/deletions likewise
    weights: dict[tuple[str, str], float] = {}
    init_total = eps_weight * (len(occ_src) + len(occ_tgt))
    for (a, b), count in co.items():
        dice = count * count / (occ_src[a] * occ_tgt[b])
        weights[(a, b)] = dice * dice * (1.0 if len(a) + len(b) == 2 else multi_weight)
        init_total += weights[(a, b)]

    indel = eps_weight / init_total
    ops = {"": dict.fromkeys(occ_tgt, indel)}
    for a in occ_src:
        ops[a] = {"": indel}
    for (a, b), weight in weights.items():
        if len(a) + len(b) == 2 or support[(a, b)] >= MULTI_OP_MIN_SUPPORT:
            ops[a][b] = weight / init_total
    return ops


def mine_transliterations(
    corpus: WordPairCorpus,
    iterations: int,
    threshold: float = DEFAULT_MINE_THRESHOLD,
) -> tuple[CharModel, list[MinedPair]]:
    """EM-fit the transliteration mixture and return pairs above threshold.

    The returned model carries the fitted character operations, the mixture
    prior, and a target-side character trigram model trained from the mined
    pairs (falling back to posterior-weighted training when nothing clears
    the threshold).
    """
    if len(corpus) == 0:
        raise DataError("cannot mine transliterations from an empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")

    pairs = corpus.pairs
    # fixed non-transliteration component: independent char unigram products
    # over both sides jointly
    src_freq: dict[str, float] = {}
    tgt_freq: dict[str, float] = {}
    src_total = tgt_total = 0.0
    for s, t, w in pairs:
        for ch in s:
            src_freq[ch] = src_freq.get(ch, 0.0) + w
            src_total += w
        for ch in t:
            tgt_freq[ch] = tgt_freq.get(ch, 0.0) + w
            tgt_total += w
    log_noise = [
        ltr_sum(math.log(src_freq[ch] / src_total) for ch in s)
        + ltr_sum(math.log(tgt_freq[ch] / tgt_total) for ch in t)
        for s, t, _ in pairs
    ]

    # The operation distribution is a single joint multinomial during EM,
    # not a family of per-row conditionals: with row-local normalization,
    # low-traffic rows (rare source segments) are free to concentrate on
    # noise targets at high conditional probability and the mixture
    # degenerates; joint normalization makes junk operations compete with
    # every systematic correspondence and starve. The stored model is
    # conditionalized afterwards.
    joint = _initial_ops(pairs)
    # Each pair's lattice is compiled once over the first table's operations,
    # which hold every operation EM can give a non-zero probability later.
    ops_by_id = [(a, b) for a, row in joint.items() for b in row]
    op_ids: dict[str, dict[str, int]] = {}
    for op, (a, b) in enumerate(ops_by_id):
        op_ids.setdefault(a, {})[b] = op
    probs = [joint[a][b] for a, b in ops_by_id]
    lattices = [_Lattice(s, t, op_ids) for s, t, _ in pairs]
    lam = 0.5
    log_likelihoods: list[float] = []

    def e_pass(collect: bool):
        counts = [0.0] * len(ops_by_id)
        touched: list[int] = []
        lam_num = 0.0
        weight_total = 0.0
        ll = 0.0
        posteriors = []
        for idx, ((_, _, w), lattice) in enumerate(zip(pairs, lattices)):
            ps = lattice.move_probs(probs)
            p_translit, fwd = _forward_lattice(lattice, ps)
            p_noise = math.exp(log_noise[idx])
            mix = lam * p_translit + (1.0 - lam) * p_noise
            # a long pair can underflow both terms; its noise term in log space stays finite
            ll += w * (math.log(mix) if mix > 0 else math.log1p(-lam) + log_noise[idx])
            post = (lam * p_translit / mix) if mix > 0 else 0.0
            posteriors.append(post)
            lam_num += w * post
            weight_total += w
            if collect and post > 0 and p_translit > 0:
                _accumulate_counts(lattice, fwd, ps, p_translit, w * post,
                                   counts, touched)
        return ll, counts, touched, lam_num / weight_total, posteriors

    for _ in range(iterations):
        ll, counts, touched, new_lam, _ = e_pass(collect=True)
        log_likelihoods.append(ll)
        # count rows by source segment, each in the order its counts first
        # became non-zero: the order the total is summed and `joint` is built in
        rows: dict[str, list[int]] = {}
        for op in touched:
            rows.setdefault(ops_by_id[op][0], []).append(op)
        # counts below 1e-12 carry no information and only slow the DP
        total = ltr_sum(counts[op] for row in rows.values() for op in row
                        if counts[op] > 1e-12)
        joint = {}
        probs = [0.0] * len(ops_by_id)
        if total > 0:
            for a, row in rows.items():
                kept = {}
                for op in row:
                    if counts[op] > 1e-12:
                        probs[op] = kept[ops_by_id[op][1]] = counts[op] / total
                if kept:
                    joint[a] = kept
        lam = min(max(new_lam, 1e-6), 1.0 - 1e-6)

    # final posteriors under the converged parameters
    ll, _, _, _, final_posteriors = e_pass(collect=False)
    log_likelihoods.append(ll)

    # expose row-conditional operation probabilities
    ops: dict[str, dict[str, float]] = {}
    for a, row in joint.items():
        row_total = ltr_sum(row.values())
        ops[a] = {b: p / row_total for b, p in row.items()}

    mined = [
        MinedPair(s, t, post)
        for (s, t, _), post in zip(pairs, final_posteriors)
        if post >= threshold
    ]

    tgt_lm = CharTrigramModel()
    if mined:
        for pair in mined:
            tgt_lm.observe(pair.target)
    else:
        logger.warning("no pairs cleared the mining threshold; "
                       "character model falls back to posterior weighting")
        for (s, t, _), post in zip(pairs, final_posteriors):
            tgt_lm.observe(t, weight=max(post, 1e-3))

    model = CharModel(
        ops=ops,
        lam=lam,
        src_chars=frozenset(ch for s, _, _ in pairs for ch in s),
        tgt_lm=tgt_lm,
        log_likelihoods=log_likelihoods,
    )
    return model, mined


@dataclass(frozen=True)
class TransliterationCandidate:
    target: str
    score: float  # log10 of transduction prob times target char LM prob
    fallback: bool  # identity mapping was used for unseen characters


def transliterate(model: CharModel, word: str, k: int) -> list[TransliterationCandidate]:
    """The k best distinct target strings, by exact A* search.

    A derivation is scored by its character operations plus the target
    character trigram model, and each string by its best derivation;
    results come sorted by descending score with lexicographic
    tie-breaking. Characters never seen by the model fall back to identity
    mapping and flag the result.

    A search state is (output, source position, indel budget spent); its
    LM context is the output's last two characters. The bound h(position,
    context, spent) is the best log10 completion: every operation, its
    character-LM terms and the end-of-word term, under the indel budget.
    It ignores only the output room of 2 * len(word) + 4 characters, so it
    never underestimates a completion and is consistent. It is computed
    once per call, bottom-up over the states reachable from the start, and
    a state it puts at -inf is never pushed. States pop by prefix score
    plus h, while each prefix score is still accumulated step by step, so
    a string's score is the float its best derivation sums to. A pop is
    skipped when an earlier pop of the same (output, position) had no more
    budget spent and no lower prefix score: every completion of the later
    one is open to the earlier one and scores no higher.

    The bound is summed in another order than a prefix, so priorities may
    be off by rounding, far below 1e-9 for any realistic word. After the
    k-th string is found the search therefore keeps popping while the next
    priority is within 1e-9 of the k-th score, then sorts by (-score,
    target) and cuts to k: strings tied at the k-th place are broken by
    target, as if every derivation had been scored.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    unseen = {ch for ch in word if ch not in model.src_chars}
    fallback = bool(unseen)
    # identity rescue for unknown characters, unless the model has a row for them
    rows = {**{ch: {ch: 1.0} for ch in unseen}, **model.ops}
    lm = model.tgt_lm
    max_out = 2 * len(word) + 4
    m = len(word)
    # the usable operations at each source position, as (di, target segment,
    # its length, log10 probability, indel budget spent)
    steps = [[(di, b, len(b), math.log10(p), len(b) if di == 0 else (di if not b else 0))
              for di in range(0, min(MAX_SEG, m - i) + 1)
              for b, p in rows.get(word[i:i + di], {}).items()
              if (di or b) and p]
             for i in range(m + 1)]
    # each character-LM term once per call, keyed on (context, character)
    char_lps: dict[tuple[tuple[str, str], str], float] = {}

    def score_steps(i: int, ctx: tuple[str, str]
                    ) -> list[tuple[str, int, int, int, float, tuple[str, str]]]:
        """Position i's steps from LM context ctx, as (target segment, its
        length, di, budget spent, log10 probability plus the segment's LM
        terms, the LM context after it). Ending the word is the last step
        of position m; it leads to the one finalized state."""
        row = []
        for di, b, dj, lp, cost in steps[i]:
            new_ctx = ctx
            for ch in b:
                term = char_lps.get((new_ctx, ch))
                if term is None:
                    term = char_lps[new_ctx, ch] = lm.logprob(new_ctx[0], new_ctx[1], ch)
                lp += term
                new_ctx = (new_ctx[1], ch)
            row.append((b, dj, di, cost, lp, new_ctx))
        if i == m:
            row.append(("", 0, 1, 0, lm.logprob(ctx[0], ctx[1], _EOW), ctx))
        return row

    # The states reachable from the start, output aside, numbered in
    # (position, budget spent) order: a step advances the position or, as
    # an insertion, spends budget, so each state comes after its
    # predecessors. layers[i][spent] maps each LM context of position i to
    # its state's number, and scored[i, ctx] holds score_steps(i, ctx).
    layers: list[list[dict[tuple[str, str], int]]] = \
        [[{} for _ in range(INDEL_BUDGET + 1)] for _ in range(m + 1)]
    layers[0][0][_BOW, _BOW] = 0
    states: list[tuple[int, int, tuple[str, str]]] = []
    scored: dict[tuple[int, tuple[str, str]], list] = {}
    for i in range(m + 1):
        for spent in range(INDEL_BUDGET + 1):
            layer = layers[i][spent]
            for ctx in layer:
                layer[ctx] = len(states)
                states.append((i, spent, ctx))
                row = scored.get((i, ctx))
                if row is None:
                    row = scored[i, ctx] = score_steps(i, ctx)
                for b, dj, di, cost, lp, new_ctx in row:
                    if spent + cost <= INDEL_BUDGET and i + di <= m:
                        layers[i + di][spent + cost].setdefault(new_ctx, -1)
    # State s is at position pos[s] with budget spent_of[s]; the finalized
    # state, number `final`, is at m + 1 with 0 spent. bound[s] is its h,
    # summed from the last state back, and moves[s] its steps to states of
    # finite h, as (log10 score, target segment, its length, next state,
    # the next state's h).
    final = len(states)
    pos = [i for i, _, _ in states] + [m + 1]
    spent_of = [spent for _, spent, _ in states] + [0]
    bound = [-math.inf] * final + [0.0]
    moves: list[list[tuple[float, str, int, int, float]]] = [[] for _ in range(final + 1)]
    for s in range(final - 1, -1, -1):
        i, spent, ctx = states[s]
        best = -math.inf
        for b, dj, di, cost, lp, new_ctx in scored[i, ctx]:
            if spent + cost <= INDEL_BUDGET:
                t = layers[i + di][spent + cost][new_ctx] if i + di <= m else final
                h = bound[t]
                if h != -math.inf:
                    moves[s].append((lp, b, dj, t, h))
                    if lp + h > best:
                        best = lp + h
        bound[s] = best
    # heap entry: (-(prefix score + h), output, state, -prefix score)
    heap = [(-bound[0], "", 0, 0.0)] if bound[0] != -math.inf else []
    best_of: dict[str, float] = {}
    popped: dict[tuple[str, int], list[tuple[int, float]]] = {}
    kth_neg = math.inf  # -score of the k-th string found
    pops = 0
    while heap and heap[0][0] <= kth_neg + 1e-9:
        if pops == MAX_POPS:
            logger.warning("transliterate: %r stopped after %d pops with %d candidates",
                           word, pops, len(best_of))
            break
        pops += 1
        _, out, s, neg = heapq.heappop(heap)
        key = (out, pos[s])
        earlier = popped.get(key)
        if earlier is None:
            popped[key] = [(spent_of[s], neg)]
        else:
            spent = spent_of[s]
            if any(e_spent <= spent and e_neg <= neg for e_spent, e_neg in earlier):
                continue
            earlier.append((spent, neg))
        if s == final:
            if out not in best_of and len(best_of) == k - 1:
                kth_neg = neg
            best_of[out] = -neg
            continue
        room = max_out - len(out)
        for lp, b, dj, t, h in moves[s]:
            if dj <= room:
                prefix = neg - lp
                heapq.heappush(heap, (prefix - h, out + b, t, prefix))
    ranked = sorted(best_of.items(), key=lambda item: (-item[1], item[0]))[:k]
    results = [TransliterationCandidate(target, score, fallback) for target, score in ranked]
    if not results:
        # no usable operations at all: copy the word through, flagged
        score = 0.0
        ctx = (_BOW, _BOW)
        for ch in word:
            score += lm.logprob(ctx[0], ctx[1], ch)
            ctx = (ctx[1], ch)
        score += lm.logprob(ctx[0], ctx[1], _EOW)
        logger.warning("transliterate: no path for %r; identity fallback", word)
        results = [TransliterationCandidate(word, score, True)]
    return results


def kbest_probs(candidates: Sequence[TransliterationCandidate]) -> list[float]:
    """Candidate scores normalized to probabilities over the k-best list.

    The sum is taken in linear space relative to the best score, so long
    words cannot underflow it.
    """
    best = max(c.score for c in candidates)
    rel = [10.0 ** (c.score - best) for c in candidates]
    total = ltr_sum(rel)
    return [mass / total for mass in rel]


def usable_candidates(candidates: Sequence[TransliterationCandidate]
                      ) -> list[tuple[TransliterationCandidate, float]]:
    """The candidates that may be a phrase target, each with its
    probability among them (`kbest_probs`).

    A candidate whose target is a language-model marker or the field
    separator (`LM_RESERVED`) is dropped before the rest are normalized;
    the list is empty if none is left.
    """
    kept = [cand for cand in candidates if cand.target not in LM_RESERVED]
    return list(zip(kept, kbest_probs(kept))) if kept else []


def build_translit_table(model: CharModel, words: Sequence[str], k: int) -> PhraseTable:
    """k-best transliterations of each word as a one-word-phrase table.

    Forward features are the `usable_candidates` probabilities, duplicated
    to the backward features; a word left with no candidate gets no entry.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = PhraseTable(role="transliterated")
    done: set[str] = set()
    for word in words:
        if word in done:
            continue
        done.add(word)
        for cand, prob in usable_candidates(transliterate(model, word, k)):
            table.add(PhraseEntry((word,), (cand.target,), prob, prob, prob, prob))
    return table


# --- Serialization -----------------------------------------------------------

def write_mined_pairs(pairs: Iterable[MinedPair], dest: str | TextIO) -> None:
    """A side that is not one non-empty word, a ValueError before anything is written."""
    pairs = list(pairs)
    for pair in pairs:
        _check_words(pair.source, pair.target)
    write_lines(dest, (f"{pair.source}\t{pair.target}\t{pair.posterior:.6f}" for pair in pairs))


def read_mined_pairs(path: str) -> list[MinedPair]:
    return [MinedPair(source, target, number(posterior, where, "posterior", prob=True))
            for where, (source, target, posterior) in records(path)]


def write_char_model(model: CharModel, path: str) -> None:
    data = {
        "lambda": model.lam,
        "ops": model.ops,
        "src_chars": sorted(model.src_chars),
        "tgt_lm": model.tgt_lm.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, ensure_ascii=False, sort_keys=True)


def read_char_model(path: str) -> CharModel:
    """Load a JSON character model; a malformed, mistyped or out-of-range
    value, or whitespace in an operation segment or an alphabet, raises
    DataError."""
    def finite(text: str) -> float:  # also rejects NaN, Infinity and overflowing literals
        return number(text, path, "number")

    try:
        # every JSON number parses to a float, so any other type is an error
        data = json.loads("\n".join(read_lines(path)),
                          parse_float=finite, parse_int=finite, parse_constant=finite)
        ops, tgt_lm = data["ops"], data["tgt_lm"]
        values = [p for row in [*ops.values(), *tgt_lm["counts"].values()]
                  for p in row.values()]
        if not all(isinstance(p, float) for p in [data["lambda"], *values]):
            raise DataError(f"{path}: lambda, an operation probability or a trigram "
                            "count is not a number")
        if any(p < 0 for p in values):
            raise DataError(f"{path}: negative operation probability or trigram count")
        segments = [*ops, *(b for row in ops.values() for b in row)]
        for what, texts in (("src_chars", data["src_chars"]),
                            ("tgt_lm.alphabet", tgt_lm["alphabet"]),
                            ("operation segments", segments)):
            if not (isinstance(texts, list) and all(isinstance(c, str) for c in texts)):
                raise DataError(f"{path}: {what} is not a list of strings")
            # each is part of a word, which whitespace would split
            spaced = next((text for text in texts if any(map(str.isspace, text))), None)
            if spaced is not None:
                raise DataError(f"{path}: {what}: {spaced!r} holds whitespace")
        for a, row in ops.items():
            if not row or abs(ltr_sum(row.values()) - 1.0) > 1e-6:
                raise DataError(f"{path}: operation row {a!r} is empty or does not sum to 1")
        model = CharModel(
            ops={a: dict(row) for a, row in ops.items()},
            lam=data["lambda"],
            src_chars=frozenset(data["src_chars"]),
            tgt_lm=CharTrigramModel.from_dict(tgt_lm),
        )
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed character model ({exc})") from exc
    if not 0.0 <= model.lam <= 1.0:
        raise DataError(f"{path}: lambda {model.lam} is outside [0, 1]")
    return model
