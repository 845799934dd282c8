"""Output checks computed by the benchmark itself, not by pivotsmt.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict

PHI_TOL = 1e-9
LM_NORM_TOL = 1e-6
TRI_REL_TOL = 1e-9
TRI_SAMPLE = 50


def phi_normalization(table, label: str) -> list[str]:
    """phi(t|s) sums to 1 over t for every s, and phi(s|t) over s for every t."""
    by_src: dict[tuple, float] = defaultdict(float)
    by_tgt: dict[tuple, float] = defaultdict(float)
    for entry in table:
        by_src[entry.source] += entry.phi_tgt_given_src
        by_tgt[entry.target] += entry.phi_src_given_tgt
    bad = [k for k, v in by_src.items() if abs(v - 1.0) > PHI_TOL]
    bad += [k for k, v in by_tgt.items() if abs(v - 1.0) > PHI_TOL]
    if not by_src:
        return [f"{label}: empty phrase table"]
    return [f"{label}: phi does not sum to 1 for {len(bad)} phrases, e.g. {bad[0]!r}"] if bad else []


def em_monotone(log_likelihoods: list[float], label: str) -> list[str]:
    """Model 1 EM never lowers the training log-likelihood."""
    for k in range(1, len(log_likelihoods)):
        prev, cur = log_likelihoods[k - 1], log_likelihoods[k]
        if cur < prev - 1e-9 * abs(prev):
            return [f"{label}: log-likelihood fell at EM iteration {k + 1}: {prev} -> {cur}"]
    if not log_likelihoods:
        return [f"{label}: no EM iterations recorded"]
    return []


def lm_normalization(context_normalization, lm, sentences, seed: int,
                     label: str, samples: int = 6) -> list[str]:
    """sum_w p(w | h) is 1 for the empty history, <s> and sampled histories."""
    rng = random.Random(f"{seed}:lm-contexts")
    contexts: list[tuple[str, ...]] = [(), ("<s>",)]
    for _ in range(samples):
        sent = rng.choice(sentences)
        cut = rng.randint(1, len(sent))
        contexts.append(tuple(["<s>"] + list(sent[:cut]))[-(lm.order - 1):])
    out = []
    for ctx in contexts:
        total = context_normalization(lm, ctx)
        if abs(total - 1.0) > LM_NORM_TOL:
            out.append(f"{label}: p(.|{' '.join(ctx)}) sums to {total!r}")
    return out


def triangulation_sample(tri, src_to_pivot, pivot_to_tgt, seed: int,
                         min_score: float, top_k: int) -> list[str]:
    """Recompute sampled entries as sum over pivots of feature products."""
    entries = sorted(tri, key=lambda e: (e.source, e.target))
    if not entries:
        return ["triangulation: empty output table"]
    out = []
    per_source: dict[tuple, int] = defaultdict(int)
    for e in entries:
        per_source[e.source] += 1
        if e.phi_tgt_given_src < min_score:
            out.append(f"triangulation: kept entry below min_score: {e!r}")
    if max(per_source.values()) > top_k:
        out.append("triangulation: more than top_k targets for a source")
    rng = random.Random(f"{seed}:tri-sample")
    for e in rng.sample(entries, min(TRI_SAMPLE, len(entries))):
        expected = [0.0, 0.0, 0.0, 0.0]
        for bridge in src_to_pivot.get(e.source):
            for cand in pivot_to_tgt.get(bridge.target):
                if cand.target == e.target:
                    for k, (x, y) in enumerate(zip(bridge.scores(), cand.scores())):
                        expected[k] += x * y
        for got, want in zip(e.scores(), expected):
            if not math.isclose(got, want, rel_tol=TRI_REL_TOL, abs_tol=0.0):
                out.append(f"triangulation: {e.source}->{e.target} has {got!r}, "
                           f"double sum gives {want!r}")
                break
    return out


def one_hypothesis_per_line(hyp_text: str, n_inputs: int, label: str) -> list[str]:
    n_lines = hyp_text.count("\n")
    if n_lines != n_inputs:
        return [f"{label}: {n_lines} hypothesis lines for {n_inputs} inputs"]
    return []


def f1(predicted: set, gold: set) -> float:
    hit = len(predicted & gold)
    if not hit:
        return 0.0
    precision = hit / len(predicted)
    recall = hit / len(gold)
    return 2 * precision * recall / (precision + recall)
