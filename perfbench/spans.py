"""Bench-side spans around pivotsmt's public functions.

The program is not instrumented: ``Tracer.install`` swaps module and class
attributes for wrappers that record a span per call, and ``uninstall``
puts the originals back. Spans stay in memory (name, start, end, parent
index) until the run ends. A layer's self time is its span time minus the
time its direct child spans cover; calls are strictly nested because every
workload runs in one thread.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = Patches()

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def wrap(self, owner, attr: str, name: str,
             after: Callable | None = None,
             on_error: Callable | None = None) -> None:
        """Record a span named `name` around every call of owner.attr.

        `after(result, args, kwargs)` and `on_error(exc, args, kwargs)` run
        once the span is closed, so the counting they do is charged to
        tracing overhead, not to the layer.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                idx = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    tracer.close(idx)
                    if on_error is not None:
                        on_error(exc, args, kwargs)
                    raise
                tracer.close(idx)
                if after is not None:
                    after(result, args, kwargs)
                return result
            wrapper.__wrapped__ = original
            return wrapper

        self._patches.replace(owner, attr, make)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- summaries ---------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return out


class CountingLM:
    """Language-model proxy that counts `logprob` queries."""

    def __init__(self, lm, tracer: Tracer) -> None:
        self._lm = lm
        self._tracer = tracer
        self.order = lm.order

    def logprob(self, context, word):
        self._tracer.counts["ngramlm.queries"] += 1
        return self._lm.logprob(context, word)

    def __getattr__(self, attr):
        return getattr(self._lm, attr)
