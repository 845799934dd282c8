"""Machine-speed sampler for normalizing wall times on a shared host.

On the 2-core VM this benchmark was built on, identical pure-Python work
runs at two speeds: a fixed 10 ms loop, run back to back for 40 s, took
about 10 or about 19 ms, switching every 0.25 to 2 s, with no steal time
visible to the guest and CPU time tracking wall time. A pass of a few
seconds therefore runs at a mix of both speeds that changes from pass to
pass, and a probe run only between passes samples that mix too sparsely:
the passes of one `grow` run, scaled by such a probe, were still up to
30% apart.

``Sampler`` instead samples the speed during the timed work. A wall-clock
interval timer (``SIGALRM``, every ``PERIOD`` seconds) runs a fixed loop of
about 1 ms in the signal handler, between two bytecodes of whatever the
program is doing, and records how long it took. The samples are uniform in
wall time, so the mean of ``REFERENCE_S / duration`` over an interval is the
mean speed over it, relative to full speed, and

    interval seconds at full speed = (wall time - time spent sampling)
                                     * mean relative speed.

A handler is delayed while the program is inside one long C call; the
program makes few of those. The loop is compute-bound and stays in cache,
and the host does not slow all code alike, so scaled times can still be
several percent off (NOTES.md, "Measuring on a shared machine").
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.05          # seconds between samples
REFERENCE_S = 0.00080  # `_loop` at full speed on the build host
MIN_SAMPLES = 10       # fewer in an interval: use the whole run's samples


def _loop() -> float:
    # dict updates with tuple keys and float arithmetic, like the program
    counts: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5
    return acc


class Sampler:
    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop()
        self.durations.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, durations: list[float]) -> float:
        """Mean speed relative to full speed over uniformly spaced samples."""
        return statistics.mean(REFERENCE_S / d for d in durations)

    def timed(self, work, *args):
        """Run ``work(*args)``; return its result, its measured seconds
        (the sampler's own time excluded) and the samples taken during it."""
        first, spent = len(self.durations), self.spent
        start = time.perf_counter()
        result = work(*args)
        elapsed = time.perf_counter() - start - (self.spent - spent)
        return result, elapsed, self.durations[first:]

    def scale(self, elapsed: float, inside: list[float]) -> float:
        """Seconds at full speed: by the samples taken during the interval,
        or, for an interval too short for MIN_SAMPLES, by all samples."""
        samples = inside if len(inside) >= MIN_SAMPLES else self.durations
        return elapsed * self.speed(samples)
