"""EM word alignment and grow-diag-final-and symmetrization.

IBM Model 1 stands in for a full alignment cascade: it is exactly testable
against a brute-force oracle and the downstream pipeline only consumes the
symmetrized link sets.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .corpus import (TokenPair, bad_token, forked_map, ltr_sum, number, read_lines, records,
                     write_lines)
from .errors import DataError

logger = logging.getLogger(__name__)

NULL_TOKEN = "<null>"  # serialization form of the NULL conditioning row
DEFAULT_EM_ITERATIONS = 5  # Model 1 EM iterations of `align`, `extract` and an experiment


@dataclass
class TranslationTable:
    """Lexical translation distribution t(predicted | conditioning).

    `probs[e][f]` is the probability of the predicted word f given the
    conditioning word e; the optional NULL row is keyed by None. Every row
    sums to 1 within 1e-9 after training.
    """

    probs: dict[str | None, dict[str, float]] = field(default_factory=dict)
    use_null: bool = False
    log_likelihoods: list[float] = field(default_factory=list)

    def prob(self, predicted: str, conditioning: str | None) -> float:
        row = self.probs.get(conditioning)
        if row is None:
            return 0.0
        return row.get(predicted, 0.0)


@dataclass(frozen=True)
class AlignmentMatrix:
    """Set of (source index, target index) word links for one sentence pair."""

    src_len: int
    tgt_len: int
    links: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.links:
            if not (0 <= i < self.src_len and 0 <= j < self.tgt_len):
                raise ValueError(f"link ({i},{j}) out of bounds for "
                                 f"{self.src_len}x{self.tgt_len} pair")


def train_model1(
    bitext: Iterable[TokenPair],
    iterations: int,
    use_null: bool = True,
) -> TranslationTable:
    """EM-train t(source word | target word) on a bitext.

    The conditioning side is the target side of each pair (plus NULL when
    enabled), i.e. each source word is generated by one target word.
    Initialization is uniform over the source vocabulary.

    EM runs over interned co-occurrence cells: every (conditioning,
    predicted) pair of the bitext is numbered once, in corpus-scan order.
    Each iteration's E-step works a sentence at a time, with C-level passes
    over its flat cell ids (each source token's conditioning cells in turn),
    and adds up the posteriors in the same order as a per-word dict walk
    would: a cell's count token by token, a conditioning word's total over
    its positions token by token.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = []
    for src, tgt in bitext:
        if not src or not tgt:
            logger.warning("skipping sentence pair with an empty side")
            continue
        pairs.append((src, tgt))
    if not pairs:
        raise DataError("cannot train alignment model on an empty bitext")

    words = list(dict.fromkeys(w for src, _ in pairs for w in src))
    word_ids = {w: i for i, w in enumerate(words)}
    cond_ids: dict[str | None, int] = {}
    next_cell = itertools.count().__next__
    rows: list[dict[int, int]] = []  # per conditioning id: word id -> cell id
    cells = array("i")  # per source token, the cells of its conditioning words
    # per pair: (source length, conditioning length, the (word, position)
    # pairs of the words at one position laid out flat, (word, positions)
    # of the words at several)
    shapes = []
    for src, tgt in pairs:
        cond = (None, *tgt) if use_null else tgt
        conds = [cond_ids.setdefault(e, len(cond_ids)) for e in cond]
        rows += [defaultdict(next_cell) for _ in range(len(cond_ids) - len(rows))]
        sentence_rows = [rows[e] for e in conds]
        for f in src:
            cells.extend(map(operator.getitem, sentence_rows, itertools.repeat(word_ids[f])))
        positions: dict[int, list[int]] = {}
        for j, e in enumerate(conds):
            positions.setdefault(e, []).append(j)
        shapes.append((len(src), len(conds),
                       tuple([x for e, js in positions.items() if len(js) == 1 for x in (e, *js)]),
                       tuple([(e, js) for e, js in positions.items() if len(js) > 1])))
    n_cells = sum(map(len, rows))
    cell_cond = array("i", bytes(4 * n_cells))
    cell_word = array("i", bytes(4 * n_cells))
    for e, row in enumerate(rows):
        for w, c in row.items():
            cell_cond[c] = e
            cell_word[c] = w
    del rows, word_ids
    cond_words = list(cond_ids)

    # t and counts are lists: reading a list hands back the stored float,
    # reading an array makes a new one.
    t = [1.0 / len(words)] * n_cells
    log_likelihoods: list[float] = []
    for iteration in range(iterations):
        if iteration:
            # M-step. A cell that scored 0 has count 0 and stays at 0. No total
            # is 0: each row sums to 1, so one of its cells scores well again.
            del t  # the old scores go before the new ones are made
            t = list(map(operator.truediv, counts, map(totals.__getitem__, cell_cond)))
        counts = [0.0] * n_cells
        totals = [0.0] * len(cond_words)
        ll = 0.0
        pos = 0
        for n_src, n, once, repeated in shapes:
            ids = cells[pos:pos + n_src * n].tolist()
            pos += n_src * n
            scores = list(map(t.__getitem__, ids))
            denoms = [ltr_sum(scores[k:k + n]) for k in range(0, len(scores), n)]
            ll = ltr_sum(map(operator.sub, map(math.log, denoms),
                             itertools.repeat(math.log(n))), ll)
            posts = list(map(operator.truediv, scores, itertools.chain.from_iterable(
                map(itertools.repeat, denoms, itertools.repeat(n)))))
            for c, post in zip(ids, posts):  # a zero score adds +0.0, which changes no bit
                counts[c] += post
            flat = iter(once)
            for e, j in zip(flat, flat):
                totals[e] = ltr_sum(posts[j::n], totals[e])
            for e, js in repeated:  # a word at several positions: token by token
                totals[e] = ltr_sum(itertools.chain.from_iterable(
                    zip(*[posts[j::n] for j in js])), totals[e])
        log_likelihoods.append(ll)
        logger.info("model 1 iteration %d/%d: log-likelihood %.6f",
                    iteration + 1, iterations, ll)

    # Keep the cells the last E-step scored, in cell order. The scores and
    # counts go before the rows are filled, which take the new values' floats.
    del cells, shapes
    scored = bytes(map(bool, t))
    del t
    values = list(map(operator.truediv, counts, map(totals.__getitem__, cell_cond)))
    del counts
    probs: dict[str | None, dict[str, float]] = {}
    for p, v, e, w in zip(scored, values, cell_cond, cell_word):
        if p:
            probs.setdefault(cond_words[e], {})[words[w]] = v
    return TranslationTable(probs=probs, use_null=use_null,
                            log_likelihoods=log_likelihoods)


Links = list[tuple[int, ...]]  # per pair, per source word: its target index, or -1


def viterbi_align(table: TranslationTable, bitext: Sequence[TokenPair]) -> Links:
    """Argmax links of every pair: per source word, the index of its best
    target word, or -1 for no link.

    `table` is conditioned on the target side of `bitext`, as train_model1
    trained on it is. Ties go to the smaller target index. With the NULL
    row, a word whose NULL score is higher, or whose every score is 0,
    gets no link; without it, a word whose every score is 0 links to the
    first target word. A pair with an empty side has no links.
    """
    probs = table.probs
    null_row = probs.get(None, {}) if table.use_null else None
    links = []
    for src, tgt in bitext:
        if not tgt:
            links.append((-1,) * len(src))
            continue
        rows = [probs.get(e, {}) for e in tgt]
        best_js = []
        for f in src:
            scores = [row.get(f, 0.0) for row in rows]
            best = max(scores)  # the first maximum, which scores.index finds
            if null_row is not None and (best == 0.0 or null_row.get(f, 0.0) > best):
                best_js.append(-1)
            else:
                best_js.append(scores.index(best))
        links.append(tuple(best_js))
    return links


def train_both_directions(pairs: Sequence[TokenPair], iterations: int, use_null: bool = True
                          ) -> tuple[tuple[TranslationTable, Links], tuple[TranslationTable, Links]]:
    """`train_model1` on `pairs` and on the swapped pairs, each with the
    `viterbi_align` links of the pairs it trained on:
    ((t(src|tgt), a target index per source word),
    (t(tgt|src), a source index per target word)).

    Neither direction reads the other, so they run through
    corpus.forked_map: with two usable CPUs the swapped direction trains and
    aligns in a forked child while this process does the other. The tables,
    the links and the log are the same bits either way.
    """
    def train_and_align(bitext):
        table = train_model1(bitext, iterations, use_null)
        return table, viterbi_align(table, bitext)

    return tuple(forked_map(train_and_align, [pairs, [(t, s) for s, t in pairs]]))


# Neighborhood scan order for the grow step: the published pseudocode leaves
# both the link scan order and the neighbor order open, so both are pinned
# here for reproducibility. Diagonal neighbors are examined before
# orthogonal ones; links are scanned row-major within each fixed-point sweep.
_NEIGHBORS = ((-1, -1), (-1, 1), (1, -1), (1, 1), (-1, 0), (1, 0), (0, -1), (0, 1))


def symmetrize_gdfa(forward: AlignmentMatrix, backward: AlignmentMatrix) -> AlignmentMatrix:
    """Grow-diag-final-and merge of two directional alignments.

    Both matrices must already be in the same (source, target) coordinate
    frame. Starting from the intersection, the grow step repeatedly adds
    union points adjacent (8-neighborhood) to an aligned point when at
    least one of the two words is still unaligned; the final-and step adds
    union points where both words are unaligned. The output always
    satisfies intersection <= result <= union.
    """
    if (forward.src_len, forward.tgt_len) != (backward.src_len, backward.tgt_len):
        raise ValueError(
            f"dimension mismatch: {forward.src_len}x{forward.tgt_len} vs "
            f"{backward.src_len}x{backward.tgt_len}"
        )
    union = forward.links | backward.links
    alignment = set(forward.links & backward.links)
    src_aligned = {i for i, _ in alignment}
    tgt_aligned = {j for _, j in alignment}

    changed = True
    while changed:
        changed = False
        for i, j in sorted(alignment):
            for di, dj in _NEIGHBORS:
                pt = (i + di, j + dj)
                if pt in alignment or pt not in union:
                    continue
                if pt[0] not in src_aligned or pt[1] not in tgt_aligned:
                    alignment.add(pt)
                    src_aligned.add(pt[0])
                    tgt_aligned.add(pt[1])
                    changed = True

    for pt in sorted(union - alignment):
        if pt[0] not in src_aligned and pt[1] not in tgt_aligned:
            alignment.add(pt)
            src_aligned.add(pt[0])
            tgt_aligned.add(pt[1])

    return AlignmentMatrix(forward.src_len, forward.tgt_len, frozenset(alignment))


# --- Serialization -----------------------------------------------------------

def format_alignment(matrix: AlignmentMatrix) -> str:
    """One line of `i-j` links, sorted, space-separated (Moses convention)."""
    return " ".join(f"{i}-{j}" for i, j in sorted(matrix.links))


def parse_alignment(line: str, src_len: int, tgt_len: int,
                    lineno: int, name: str) -> AlignmentMatrix:
    links = set()
    for chunk in line.split():
        try:
            i_str, j_str = chunk.split("-")
            links.add((int(i_str), int(j_str)))
        except ValueError as exc:
            raise DataError(f"{name}:{lineno}: malformed alignment link {chunk!r}") from exc
    try:
        return AlignmentMatrix(src_len, tgt_len, frozenset(links))
    except ValueError as exc:
        raise DataError(f"{name}:{lineno}: {exc}") from exc


def write_alignments(dest: str | TextIO, matrices: Iterable[AlignmentMatrix]) -> None:
    write_lines(dest, map(format_alignment, matrices))


def read_alignments(path: str, sizes: Sequence[tuple[int, int]]) -> list[AlignmentMatrix]:
    """One matrix per line of a file; a blank line is a pair with no links."""
    lines = read_lines(path)
    if len(lines) != len(sizes):
        raise DataError(
            f"{path}: alignment file has {len(lines)} lines but corpus has {len(sizes)} pairs"
        )
    return [
        parse_alignment(line, src_len, tgt_len, lineno, path)
        for lineno, (line, (src_len, tgt_len)) in enumerate(zip(lines, sizes), start=1)
    ]


def write_table(dest: str | TextIO, table: TranslationTable) -> None:
    """Dump `e<TAB>f<TAB>prob` lines sorted by (e, descending prob).

    A table that read_table would not read back as it is, a ValueError
    before anything is written: one with a word that is empty, holds
    whitespace or is NULL_TOKEN, the name of the NULL row.
    """
    bad = bad_token({word for cond, row in table.probs.items() for word in (cond, *row)
                     if word is not None}, (NULL_TOKEN,))
    if bad is not None:
        raise ValueError(f"a t-table cannot hold the word {bad!r}: read back, it would "
                         "split, vanish or name the NULL row")
    write_lines(dest, (
        f"{NULL_TOKEN if cond is None else cond}\t{word}\t{prob:.10g}"
        for cond in sorted(table.probs, key=lambda e: (e is None, e or ""))
        for word, prob in sorted(table.probs[cond].items(), key=lambda kv: (-kv[1], kv[0]))))


def read_table(path: str) -> TranslationTable:
    probs: dict[str | None, dict[str, float]] = {}
    for where, (cond, word, prob) in records(path):
        row = probs.setdefault(None if cond == NULL_TOKEN else cond, {})
        if word in row:
            raise DataError(f"{where}: repeated pair ({cond!r}, {word!r})")
        row[word] = number(prob, where, "probability", prob=True)
    return TranslationTable(probs=probs, use_null=None in probs)
