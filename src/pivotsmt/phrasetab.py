"""Phrase-pair extraction, phrase-table scoring, pruning and Moses-format I/O.

A phrase table maps source phrases to scored target candidates carrying the
four standard features: forward/backward phrase translation probabilities
and forward/backward lexical weights.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence, TextIO

from .align import AlignmentMatrix, TranslationTable
from .corpus import (FIELD_SEP, LM_RESERVED, TokenPair, _tokens_of, bad_token, ltr_sum, number,
                     records, write_lines)
from .errors import DataError

logger = logging.getLogger(__name__)

SCORE_FLOOR = 1e-12  # keeps log-linear scores finite on serialization
DEFAULT_MAX_PHRASE_LEN = 5

Phrase = tuple[str, ...]
Span = tuple[int, int]  # inclusive bounds


@dataclass(frozen=True)
class PhraseEntry:
    """One scored source/target phrase pair.

    Feature order matches the Moses line grammar: phi(t|s), lex(t|s),
    phi(s|t), lex(s|t).
    """

    source: Phrase
    target: Phrase
    phi_tgt_given_src: float
    lex_tgt_given_src: float
    phi_src_given_tgt: float
    lex_src_given_tgt: float

    def scores(self) -> tuple[float, float, float, float]:
        return (self.phi_tgt_given_src, self.lex_tgt_given_src,
                self.phi_src_given_tgt, self.lex_src_given_tgt)


class PhraseTable:
    """Map from source phrase to target candidates, no duplicate pairs."""

    def __init__(self, role: str = "") -> None:
        self.role = role
        self.max_source_len = 0
        self._entries: dict[Phrase, dict[Phrase, PhraseEntry]] = {}

    def add(self, entry: PhraseEntry) -> None:
        targets = self._entries.setdefault(entry.source, {})
        if entry.target in targets:
            raise ValueError(
                f"duplicate phrase pair {entry.source!r} -> {entry.target!r}"
            )
        targets[entry.target] = entry
        if len(entry.source) > self.max_source_len:
            self.max_source_len = len(entry.source)

    def get(self, source: Phrase) -> list[PhraseEntry]:
        return list(self._entries.get(tuple(source), {}).values())

    def sources(self) -> list[Phrase]:
        return list(self._entries.keys())

    def __contains__(self, source: Phrase) -> bool:
        return tuple(source) in self._entries

    def __len__(self) -> int:
        return sum(len(t) for t in self._entries.values())

    def __iter__(self) -> Iterator[PhraseEntry]:
        for targets in self._entries.values():
            yield from targets.values()


@dataclass
class TableSet:
    """Phrase tables registered for decoding; each scores as its own block of four features."""

    tables: list[PhraseTable]

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("a table set needs at least one phrase table")


def extract_phrases(alignment: AlignmentMatrix, max_len: int) -> set[tuple[Span, Span]]:
    """All consistent phrase span pairs of one aligned sentence pair.

    A box (src span, tgt span) is extracted when it contains at least one
    link, no link crosses its boundary, both sides are at most max_len
    long, and every edge row/column carries a link (unaligned edge words
    are not expanded, so each source span yields at most its tight target
    projection). Spans are inclusive (first, last) index pairs.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    links = sorted(alignment.links)
    if not links:
        return set()
    by_src: dict[int, list[int]] = {}
    for i, j in links:
        by_src.setdefault(i, []).append(j)
    # links_at_tgt[j] = number of links in target column j
    col_counts = [0] * alignment.tgt_len
    for _, j in links:
        col_counts[j] += 1
    col_prefix = [0]
    for c in col_counts:
        col_prefix.append(col_prefix[-1] + c)

    out: set[tuple[Span, Span]] = set()
    for i1 in range(alignment.src_len):
        if i1 not in by_src:
            continue  # tight boxes start on an aligned row
        j_lo = j_hi = None
        n_links = 0
        last_linked_row = i1
        for i2 in range(i1, min(i1 + max_len, alignment.src_len)):
            cols = by_src.get(i2)
            if cols:
                lo, hi = min(cols), max(cols)
                j_lo = lo if j_lo is None else min(j_lo, lo)
                j_hi = hi if j_hi is None else max(j_hi, hi)
                n_links += len(cols)
                last_linked_row = i2
            if j_lo is None or last_linked_row != i2:
                continue  # tight boxes end on an aligned row
            if j_hi - j_lo + 1 > max_len:
                continue
            # consistency: the target projection must not pull in rows
            # outside [i1, i2]; equivalently the box holds every link whose
            # column falls inside the projection.
            if col_prefix[j_hi + 1] - col_prefix[j_lo] == n_links:
                out.add(((i1, i2), (j_lo, j_hi)))
    return out


def _link_averages(
    words: Sequence[str],
    other_words: Sequence[str],
    links_for: Sequence[list[int]],
    table: TranslationTable,
) -> list[float]:
    """Per word, the average probability over its links, in link order.

    Unlinked words use the NULL row when the table has one, else 1.0.
    """
    averages = []
    for word, linked in zip(words, links_for):
        if linked:
            averages.append(ltr_sum(table.prob(word, other_words[k]) for k in linked)
                            / len(linked))
        elif table.use_null:
            averages.append(table.prob(word, None))
        else:
            averages.append(1.0)
    return averages


def score_phrase_table(
    bitext: Iterable[TokenPair],
    alignments: Sequence[AlignmentMatrix],
    tgt_given_src: TranslationTable,
    src_given_tgt: TranslationTable,
    max_len: int = DEFAULT_MAX_PHRASE_LEN,
    role: str = "baseline",
) -> PhraseTable:
    """Extract and score a phrase table from a word-aligned bitext.

    Phrase probabilities are relative frequencies of extracted pair counts
    in both directions; lexical weights are alignment-based products of
    averages, keeping the best weight when a pair is observed with several
    internal alignments (deterministic). Each word's average is computed
    once per sentence, since a consistent box holds all of its links.
    """
    pairs = [(tuple(s), tuple(t)) for s, t in bitext]
    if len(pairs) != len(alignments):
        raise DataError(
            f"bitext has {len(pairs)} pairs but {len(alignments)} alignments given"
        )

    src_totals: dict[Phrase, int] = {}
    tgt_totals: dict[Phrase, int] = {}
    # per pair: [count, best lex(t|s), best lex(s|t)]; a tie keeps the first
    stats: dict[tuple[Phrase, Phrase], list] = {}

    for (src, tgt), alignment in zip(pairs, alignments):
        tgt_links: list[list[int]] = [[] for _ in tgt]
        src_links: list[list[int]] = [[] for _ in src]
        for i, j in sorted(alignment.links):
            tgt_links[j].append(i)
            src_links[i].append(j)
        fwd_avg = _link_averages(tgt, src, tgt_links, tgt_given_src)
        bwd_avg = _link_averages(src, tgt, src_links, src_given_tgt)
        for (i1, i2), (j1, j2) in sorted(extract_phrases(alignment, max_len)):
            s_phrase = src[i1 : i2 + 1]
            t_phrase = tgt[j1 : j2 + 1]
            src_totals[s_phrase] = src_totals.get(s_phrase, 0) + 1
            tgt_totals[t_phrase] = tgt_totals.get(t_phrase, 0) + 1
            fwd = max(math.prod(fwd_avg[j1 : j2 + 1]), SCORE_FLOOR)
            bwd = max(math.prod(bwd_avg[i1 : i2 + 1]), SCORE_FLOOR)
            record = stats.get((s_phrase, t_phrase))
            if record is None:
                stats[(s_phrase, t_phrase)] = [1, fwd, bwd]
            else:
                record[0] += 1
                record[1] = max(record[1], fwd)
                record[2] = max(record[2], bwd)

    table = PhraseTable(role=role)
    for (s_phrase, t_phrase), (count, fwd, bwd) in stats.items():
        table.add(PhraseEntry(s_phrase, t_phrase, count / src_totals[s_phrase], fwd,
                              count / tgt_totals[t_phrase], bwd))
    return table


def prune_table(table: PhraseTable, top_k: int) -> PhraseTable:
    """Keep the top_k targets per source by phi(t|s), ties lexicographic."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    pruned = PhraseTable(role=table.role)
    for source in table.sources():
        entries = sorted(table.get(source),
                         key=lambda e: (-e.phi_tgt_given_src, e.target))
        for entry in entries[:top_k]:
            pruned.add(entry)
    return pruned


# --- Moses-format I/O --------------------------------------------------------
#
# Line grammar: `src tokens ||| tgt tokens ||| phi(t|s) lex(t|s) phi(s|t) lex(s|t)`

_DELIM = " ||| "


def write_moses(table: PhraseTable, dest: str | TextIO) -> None:
    """Serialize a table; scores are floored at 1e-12 so logs stay finite.

    A table that read_moses would not read back as it is, a ValueError
    before anything is written: one with an empty phrase, with a token
    that is empty, holds whitespace or is the field separator `|||`, or
    with a target token that is a language-model marker.
    """
    entries = [entry for source in sorted(table.sources())
               for entry in sorted(table.get(source), key=lambda e: e.target)]
    # each distinct token of a side once; an empty phrase counts as one empty token
    sources = set(chain.from_iterable(source or ("",) for source in table.sources()))
    targets = set(chain.from_iterable(entry.target or ("",) for entry in entries))
    bad = min((b for b in (bad_token(sources, (FIELD_SEP,)), bad_token(targets, LM_RESERVED))
               if b is not None), default=None)
    if bad is not None:
        raise ValueError(f"a Moses table cannot hold the token {bad!r}: read back, "
                         "it would split, vanish, separate fields or be a language-model marker")
    write_lines(dest, (
        f"{' '.join(entry.source)}{_DELIM}{' '.join(entry.target)}{_DELIM}"
        + " ".join(f"{max(s, SCORE_FLOOR):.10g}" for s in entry.scores())
        for entry in entries))


def read_moses(path: str) -> PhraseTable:
    table = PhraseTable()
    for where, (source, target, score_field) in records(path, sep=_DELIM):
        scores = score_field.split()
        if len(scores) != 4:
            raise DataError(f"{where}: expected 4 scores, got {len(scores)}")
        # a target is language-model input, which adds its own markers
        source, target = _tokens_of(source, where), _tokens_of(target, where, LM_RESERVED)
        if not source or not target:
            raise DataError(f"{where}: empty source or target phrase")
        # phrase probabilities are at most 1; a lexical weight is not bounded,
        # since a triangulated one sums over pivot phrases
        values = [number(x, where, "score", nonneg=True, prob=k % 2 == 0)
                  for k, x in enumerate(scores)]
        try:
            table.add(PhraseEntry(source, target, *values))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return table


def moses_dumps(table: PhraseTable) -> str:
    buf = io.StringIO()
    write_moses(table, buf)
    return buf.getvalue()
