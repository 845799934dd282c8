"""Phrase-table triangulation across a shared pivot language.

Two tables sharing a pivot phrase inventory are composed into a synthesized
table: every feature of an output pair is the sum over shared pivot phrases
of the product of the corresponding input features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .phrasetab import Phrase, PhraseEntry, PhraseTable, prune_table

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TriangulationConfig:
    """Bounds that keep the triangulated table from exploding."""

    min_score: float = 1e-7
    top_k: int = 20

    def __post_init__(self) -> None:
        if not (0.0 <= self.min_score < 1.0):
            raise ValueError("min_score must be in [0, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


def triangulate(
    pivot_to_tgt: PhraseTable,
    src_to_pivot: PhraseTable,
    config: TriangulationConfig = TriangulationConfig(),
) -> PhraseTable:
    """Compose p(tgt | pivot) with p(pivot | src) into p(tgt | src).

    `pivot_to_tgt` maps pivot phrases to target candidates; `src_to_pivot`
    maps source phrases to pivot candidates. Forward features combine
    forward features and backward combine backward. Entries whose forward
    phrase probability falls below config.min_score are dropped, then
    config.top_k pruning applies per source.
    """
    acc: dict[Phrase, dict[Phrase, list[float]]] = {}
    for src in src_to_pivot.sources():
        for bridge in src_to_pivot.get(src):
            inner = pivot_to_tgt.get(bridge.target)
            if not inner:
                continue
            b_scores = bridge.scores()
            row = acc.setdefault(src, {})
            for cand in inner:
                sums = row.setdefault(cand.target, [0.0, 0.0, 0.0, 0.0])
                c_scores = cand.scores()
                for k in range(4):
                    sums[k] += c_scores[k] * b_scores[k]

    table = PhraseTable(role="triangulated")
    for src, row in acc.items():
        for tgt, sums in row.items():
            if sums[0] < config.min_score:
                continue
            table.add(PhraseEntry(src, tgt, *sums))
    return prune_table(table, config.top_k)
