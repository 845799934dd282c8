"""Corpus BLEU, system-delta reports, manual-evaluation tallies and error profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .corpus import records
from .errors import DataError

MANUAL_CATEGORIES = ("helpful", "doubtful", "misleading")
ERROR_CATEGORIES = ("missing_untranslated", "wrong_translation", "word_order", "other")
DEFAULT_MAX_N = 4  # BLEU's longest n-gram


def round_half_up(value: float, decimals: int = 2) -> float:
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass
class BleuStats:
    """Additive corpus-level BLEU sufficient statistics."""

    max_n: int
    matches: list[int] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)
    hyp_len: int = 0
    ref_len: int = 0

    def __post_init__(self) -> None:
        if not self.matches:
            self.matches = [0] * self.max_n
        if not self.totals:
            self.totals = [0] * self.max_n

    def add(self, other: "BleuStats") -> None:
        if other.max_n != self.max_n:
            raise ValueError("cannot merge BLEU stats of different orders")
        for n in range(self.max_n):
            self.matches[n] += other.matches[n]
            self.totals[n] += other.totals[n]
        self.hyp_len += other.hyp_len
        self.ref_len += other.ref_len

    def score(self) -> float:
        """BLEU in [0, 100]: brevity penalty times the geometric mean of
        clipped n-gram precisions; zero whenever any precision is zero.

        Orders with no candidate n-grams at all carry no evidence and are
        omitted from the mean, so an identity corpus of short sentences
        still scores 100.
        """
        if self.hyp_len == 0:
            return 0.0
        log_sum = 0.0
        orders = 0
        for n in range(self.max_n):
            if self.totals[n] == 0:
                continue
            if self.matches[n] == 0:
                return 0.0
            orders += 1
            log_sum += math.log(self.matches[n] / self.totals[n])
        if orders == 0:
            return 0.0
        bp = math.exp(min(0.0, 1.0 - self.ref_len / self.hyp_len))
        return 100.0 * bp * math.exp(log_sum / orders)


def _ngram_counts(tokens: Sequence[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for k in range(len(tokens) - n + 1):
        gram = tuple(tokens[k:k + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def sentence_stats(hyp: Sequence[str], ref: Sequence[str], max_n: int) -> BleuStats:
    stats = BleuStats(max_n=max_n)
    stats.hyp_len = len(hyp)
    stats.ref_len = len(ref)
    for n in range(1, max_n + 1):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        stats.totals[n - 1] += max(len(hyp) - n + 1, 0)
        stats.matches[n - 1] += sum(
            min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
        )
    return stats


def corpus_bleu(
    hyps: Sequence[Sequence[str]],
    refs: Sequence[Sequence[str]],
    max_n: int = DEFAULT_MAX_N,
) -> tuple[float, BleuStats]:
    """Single-reference corpus BLEU over tokenized sentences."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if len(hyps) != len(refs):
        raise DataError(
            f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}"
        )
    stats = BleuStats(max_n=max_n)
    for hyp, ref in zip(hyps, refs):
        stats.add(sentence_stats(hyp, ref, max_n))
    return stats.score(), stats


def delta_report(baseline: float, system: float, label: str) -> list[str]:
    """The cells of one `label | baseline | system | delta` row, two decimals, half-up."""
    delta = round_half_up(system - baseline, 2)
    return [label, f"{round_half_up(baseline, 2):.2f}",
            f"{round_half_up(system, 2):.2f}", f"{delta:+.2f}"]


@dataclass
class ManualTally:
    """Counts of manual judgments per category."""

    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentages(self, decimals: int = 0) -> dict[str, float]:
        total = self.total
        if total == 0:
            return {c: 0.0 for c in MANUAL_CATEGORIES}
        return {
            c: round_half_up(100.0 * self.counts[c] / total, decimals)
            for c in MANUAL_CATEGORIES
        }


def read_manual_labels(path: str) -> list[str]:
    """The category of each `sent_id,judge_id,category` CSV line of a file; a
    category outside MANUAL_CATEGORIES is a DataError at its line."""
    labels = []
    for where, (_, _, category) in records(path, sep=","):
        category = category.strip()
        if category not in MANUAL_CATEGORIES:
            raise DataError(f"{where}: unknown manual category {category!r}")
        labels.append(category)
    return labels


def tally_manual(labels: Iterable[str]) -> ManualTally:
    """Count categories already checked by read_manual_labels."""
    counts = {c: 0 for c in MANUAL_CATEGORIES}
    for category in labels:
        counts[category] += 1
    return ManualTally(counts=counts)


@dataclass
class ErrorProfile:
    """Per-category sentence counts over an analyzed sample.

    Categories are not exclusive, so percentages may exceed 100 summed.
    """

    sample_size: int
    counts: dict[str, int]

    def percentages(self, decimals: int = 0) -> dict[str, float]:
        if self.sample_size == 0:
            return {c: 0.0 for c in ERROR_CATEGORIES}
        return {
            c: round_half_up(100.0 * self.counts[c] / self.sample_size, decimals)
            for c in ERROR_CATEGORIES
        }


def render_columns(rows: Sequence[Sequence[str]]) -> str:
    """Align (possibly ragged) rows into fixed-width plain-text columns."""
    if not rows:
        return ""
    n_cols = max(len(row) for row in rows)
    widths = [max((len(row[i]) for row in rows if i < len(row)), default=0)
              for i in range(n_cols)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )


def render_tsv(rows: Sequence[Sequence[str]]) -> str:
    return "\n".join("\t".join(row) for row in rows)
