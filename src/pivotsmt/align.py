"""EM word alignment and grow-diag-final-and symmetrization.

IBM Model 1 stands in for a full alignment cascade: it is exactly testable
against a brute-force oracle and the downstream pipeline only consumes the
symmetrized link sets.
"""

from __future__ import annotations

import itertools
import logging
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .corpus import forked_map, ltr_sum, number, read_lines, records, write_lines
from .errors import DataError

logger = logging.getLogger(__name__)

NULL_TOKEN = "<null>"  # serialization form of the NULL conditioning row

TokenPair = tuple[Sequence[str], Sequence[str]]


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
    initial: TranslationTable | None = None,
) -> TranslationTable:
    """EM-train t(source word | target word) on a bitext.

    The conditioning side is the target side of each pair (plus NULL when
    enabled), i.e. each source word is generated by one target word.
    Initialization is uniform over the source vocabulary; passing a
    previously trained table as `initial` resumes EM from it, so k
    iterations followed by k more equals 2k iterations in one call. On
    resume, a (conditioning, predicted) pair absent from `initial` starts
    at the fresh-run uniform value.

    EM runs over interned co-occurrence cells: every (conditioning,
    predicted) pair of the bitext is numbered once, in corpus-scan order,
    and each iteration walks flat arrays of cell ids, adding up posteriors
    in the same order as a per-word dict walk would.
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
    if initial is not None and initial.use_null != use_null:
        raise ValueError("initial table NULL setting does not match use_null")

    words = list(dict.fromkeys(w for src, _ in pairs for w in src))
    word_ids = {w: i for i, w in enumerate(words)}
    cond_ids: dict[str | None, int] = {}
    next_cell = itertools.count().__next__
    rows: list[dict[int, int]] = []  # per conditioning id: word id -> cell id
    cells = array("i")  # per source token, the cells of its conditioning words
    shapes = []  # per pair: (source length, conditioning ids)
    for src, tgt in pairs:
        cond = (None, *tgt) if use_null else tgt
        conds = tuple([cond_ids.setdefault(e, len(cond_ids)) for e in cond])
        rows += [defaultdict(next_cell) for _ in range(len(cond_ids) - len(rows))]
        sentence_rows = [rows[e] for e in conds]
        for f in src:
            f_id = word_ids[f]
            cells.extend([row[f_id] for row in sentence_rows])
        shapes.append((len(src), conds))
    n_cells = sum(map(len, rows))
    cell_cond = array("i", bytes(4 * n_cells))
    cell_word = array("i", bytes(4 * n_cells))
    for e, row in enumerate(rows):
        for w, c in row.items():
            cell_cond[c] = e
            cell_word[c] = w
    del rows, word_ids
    cond_words = list(cond_ids)

    uniform = 1.0 / len(words)
    if initial is None:
        t = array("d", [uniform]) * len(cell_cond)
    else:
        t = array("d", [
            initial.probs.get(cond_words[e], {}).get(words[w], uniform)
            for e, w in zip(cell_cond, cell_word)
        ])

    log_likelihoods = list(initial.log_likelihoods) if initial is not None else []
    for iteration in range(iterations):
        if iteration:  # M-step; a cell no posterior reached stays at 0
            t = array("d", [
                c / totals[e] if p else 0.0
                for p, c, e in zip(t, counts, cell_cond)
            ])
        counts = array("d", bytes(8 * len(t)))
        totals = [0.0] * len(cond_words)
        ll = 0.0
        pos = 0
        for n_src, conds in shapes:
            n = len(conds)
            norm = math.log(n)
            for _ in range(n_src):
                ids = cells[pos:pos + n]
                pos += n
                scores = list(map(t.__getitem__, ids))
                denom = ltr_sum(scores)
                ll += math.log(denom) - norm
                for c, e, score in zip(ids, conds, scores):
                    if score == 0.0:
                        continue
                    post = score / denom
                    counts[c] += post
                    totals[e] += post
        log_likelihoods.append(ll)
        logger.info("model 1 iteration %d/%d: log-likelihood %.6f",
                    iteration + 1, iterations, ll)

    # Keep the cells the last E-step scored, in cell order.
    probs: dict[str | None, dict[str, float]] = {}
    for p, c, e, w in zip(t, counts, cell_cond, cell_word):
        if p:
            probs.setdefault(cond_words[e], {})[words[w]] = c / totals[e]
    return TranslationTable(probs=probs, use_null=use_null,
                            log_likelihoods=log_likelihoods)


def train_both_directions(
    pairs: Sequence[TokenPair],
    iterations: int,
    use_null: bool = True,
) -> tuple[TranslationTable, TranslationTable]:
    """`train_model1` on `pairs` and on the swapped pairs: (t(src|tgt), t(tgt|src)).

    Neither direction reads the other, so they train through
    corpus.forked_map: with two usable CPUs the swapped direction trains in a
    forked child while this process trains the other. The tables and the
    log are the same bits either way.
    """
    forward, reverse = forked_map(lambda bitext: train_model1(bitext, iterations, use_null),
                                  [pairs, [(t, s) for s, t in pairs]])
    return forward, reverse


def viterbi_align(
    table: TranslationTable,
    pair: TokenPair,
    direction: str = "forward",
) -> AlignmentMatrix:
    """Argmax word alignment of one sentence pair, links as (src, tgt) indices.

    direction "forward" expects a table conditioned on the pair's target
    side (the orientation train_model1 produces on this bitext) and aligns
    each source word to its best target word. direction "backward" expects
    a table conditioned on the pair's source side (trained on the swapped
    bitext) and aligns each target word to its best source word. Both
    directions emit links in the same (source, target) coordinate frame.

    Ties break toward the smaller conditioning-word index; NULL alignments
    produce no link. A word unknown to the table aligns to NULL when the
    NULL row is enabled, else to the uniform-fallback argmax (smallest
    index) with a warning.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction: {direction!r}")
    src, tgt = pair
    links: set[tuple[int, int]] = set()
    if direction == "forward":
        predicted, conditioning = src, tgt
    else:
        predicted, conditioning = tgt, src
    if not conditioning:
        return AlignmentMatrix(len(src), len(tgt), frozenset())
    rows = [table.probs.get(cond_word) or {} for cond_word in conditioning]
    null_row = (table.probs.get(None) or {}) if table.use_null else {}
    for p_idx, word in enumerate(predicted):
        best_idx = -1
        best = 0.0
        for c_idx, row in enumerate(rows):
            score = row.get(word, 0.0)
            if score > best:
                best = score
                best_idx = c_idx
        if best == 0.0:
            if table.use_null:
                continue  # unknown word absorbed by NULL
            logger.warning("word %r unknown to table; uniform fallback alignment", word)
            best_idx = 0
        elif null_row.get(word, 0.0) > best:
            continue  # NULL alignment: no link
        if direction == "forward":
            links.add((p_idx, best_idx))
        else:
            links.add((best_idx, p_idx))
    return AlignmentMatrix(len(src), len(tgt), frozenset(links))


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
                    lineno: int = 0, name: str = "<alignments>") -> AlignmentMatrix:
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


def read_alignments(src: str | Iterable[str], sizes: Sequence[tuple[int, int]],
                    name: str = "<alignments>") -> list[AlignmentMatrix]:
    """One matrix per line of a path or of lines; a blank line is a pair with no links."""
    if isinstance(src, str):
        name, src = src, read_lines(src)
    lines = list(src)
    if len(lines) != len(sizes):
        raise DataError(
            f"{name}: alignment file has {len(lines)} lines but corpus has {len(sizes)} pairs"
        )
    return [
        parse_alignment(line, src_len, tgt_len, lineno, name)
        for lineno, (line, (src_len, tgt_len)) in enumerate(zip(lines, sizes), start=1)
    ]


def write_table(dest: str | TextIO, table: TranslationTable) -> None:
    """Dump `e<TAB>f<TAB>prob` lines sorted by (e, descending prob)."""
    write_lines(dest, (
        f"{NULL_TOKEN if cond is None else cond}\t{word}\t{prob:.10g}"
        for cond in sorted(table.probs, key=lambda e: (e is None, e or ""))
        for word, prob in sorted(table.probs[cond].items(), key=lambda kv: (-kv[1], kv[0]))))


def read_table(lines: str | Iterable[str], path: str = "<table>") -> TranslationTable:
    probs: dict[str | None, dict[str, float]] = {}
    for where, (cond, word, prob) in records(lines, path):
        cond = None if cond == NULL_TOKEN else cond
        probs.setdefault(cond, {})[word] = number(prob, where, "probability", prob=True)
    return TranslationTable(probs=probs, use_null=None in probs)
