"""pivotsmt benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,decode,grow} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

The program under test is the checkout's own ``src/pivotsmt``; the run
exits with status 2, printing no result, when it is missing. Set-up is
timed in SETUP_REPEATS rounds, each repeating a set-up shorter than
SETUP_ROUND_SECONDS until it has run that long, and ``setup_s`` is the
median round's time per set-up. Timed passes
repeat while another one still fits in ``--seconds`` (at least
MIN_PASSES of them) and ``phase_s`` is the median. Each set-up and pass is scaled to full host speed by
``speed.Sampler``, which samples the speed of a fixed loop during the
timed work (see speed.py for why). Every pass is checked and must produce
byte-identical artifacts and the same failures.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` sets up once under spans, alternates untraced and traced
passes, and prints the per-layer metrics plus the tracing overhead.
Human-readable lines, including the per-workload metrics named in
NOTES.md, come before the final JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import checks
from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3          # set-up rounds per run
SETUP_ROUND_SECONDS = 1.0  # a round repeats a shorter set-up until this long
MIN_PASSES = 2             # timed passes per run, however long they take
FAILURE_KINDS = ("translit_failed", "tune_failed", "decode_failed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "decode", "grow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it."""
    if n <= 10:
        return 0
    return math.floor(100.0 * (n - 10) / n)


class Run:
    def __init__(self, args, workloads) -> None:
        self.args = args
        self.setup, self.run_pass, self.finish, self.setup_checks = \
            workloads.WORKLOADS[args.workload]
        self.scale = workloads.SCALES[args.scale]
        self.out_dir = os.path.join(ROOT, ".bench_out", args.workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.captures = workloads.Captures()
        self.problems: list[str] = []
        self.artifacts: dict[str, str] | None = None
        self.figures: dict[str, float] = {}
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.units = 0
        self.failure_kinds: dict[str, int] = {}

    def do_setup(self, sampler: Sampler | None = None):
        """Set up once; return the state, the measured seconds and the speed samples."""
        gc.collect()
        return _timed(sampler, self.setup, self.args.seed, self.scale, self.out_dir)

    def do_pass(self, state, tracer=None, sampler: Sampler | None = None):
        """Run one timed pass and check it; return measured seconds and speed samples."""
        gc.collect()
        result, elapsed, inside = _timed(sampler, self.run_pass, state, tracer)
        if tracer is not None:
            tracer.uninstall()
        artifacts, figures, problems = self.finish(state, result)
        self.problems += problems
        if self.artifacts is None:
            self.artifacts = artifacts
        elif artifacts != self.artifacts:
            self.problems.append("artifacts differ between passes of one run")
        self.figures = figures
        # Every pass repeats the same operations on the same inputs, so the
        # counts are those of one pass: they depend on the seed only, not on
        # how many passes fit in --seconds. A pass that fails differently
        # from the first is a check failure.
        kinds = {key: result.outputs[key] for key in FAILURE_KINDS if key in result.outputs}
        if not self.attempted:
            self.attempted, self.failed = result.attempted, result.failed
            self.failure_kinds = kinds
        elif (result.attempted, result.failed, kinds) != \
                (self.attempted, self.failed, self.failure_kinds):
            self.problems.append("failures differ between passes of one run")
        self.latencies += result.latencies_ms
        self.units = result.units
        return elapsed, inside

    def check_em(self) -> None:
        for k, curve in enumerate(self.captures.model1_curves):
            self.problems += checks.em_monotone(curve, f"Model 1 table {k}")


def _timed(sampler: Sampler | None, work, *args):
    if sampler is not None:
        return sampler.timed(work, *args)
    start = time.perf_counter()
    result = work(*args)
    return result, time.perf_counter() - start, []


def _room_for_another(measured: list[float], seconds: float) -> bool:
    """Whether one more pass of typical length still ends within ``seconds``."""
    return sum(measured) + statistics.median(measured) <= seconds


def untraced(run: Run) -> tuple[dict, list[str]]:
    sampler = Sampler()
    sampler.start()
    try:
        setups: list[tuple[float, list[float]]] = []
        state = None
        for _ in range(SETUP_REPEATS):
            # A set-up shorter than SETUP_ROUND_SECONDS is repeated, so that
            # enough speed samples fall in the round that times it.
            total, inside, count = 0.0, [], 0
            while total < SETUP_ROUND_SECONDS:
                state = None  # release the previous set-up before timing the next
                state, elapsed, samples = run.do_setup(sampler)
                total, count = total + elapsed, count + 1
                inside += samples
            setups.append((total / count, inside))
        run.problems += run.setup_checks(state)
        passes: list[tuple[float, list[float]]] = []
        while len(passes) < MIN_PASSES or _room_for_another(
                [t for t, _ in passes], run.args.seconds):
            passes.append(run.do_pass(state, sampler=sampler))
    finally:
        sampler.stop()
    run.check_em()

    setup_times = [sampler.scale(t, inside) for t, inside in setups]
    pass_times = [sampler.scale(t, inside) for t, inside in passes]
    setup_s = statistics.median(setup_times)
    phase_s = statistics.median(pass_times)
    metrics = {
        "setup_s": setup_s,
        "phase_s": phase_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": run.figures["quality"],
    }
    lines = [f"mean relative speed {sampler.speed(sampler.durations):.4f} "
             f"over {len(sampler.durations)} samples",
             f"setup_s {setup_s:.4f} s (median of {len(setups)} set-up rounds at full speed; "
             f"measured median {statistics.median(t for t, _ in setups):.4f} s)",
             f"phase_s {phase_s:.4f} s (median of {len(passes)} passes at full speed: "
             + ", ".join(f"{t:.4f}" for t in pass_times) + "; measured "
             + ", ".join(f"{t:.4f}" for t, _ in passes) + ")"]
    lines += workload_lines(run, phase_s, metrics)
    return metrics, lines


def workload_lines(run: Run, phase_s: float, metrics: dict) -> list[str]:
    """The per-workload metrics, by the names NOTES.md gives them."""
    name = run.args.workload
    lines = []
    if name == "train":
        lines.append(f"train_pairs_per_s {run.units / phase_s:.3f} sentence pairs/s")
        lines.append(f"lexicon_accuracy {metrics['quality']:.4f} % (quality)")
    if name == "decode":
        lines.append(f"decode_words_per_s {run.units / phase_s:.3f} source words/s")
    if name == "decode":
        n = len(run.latencies)
        tail = tail_percentile(n)
        lines.append(f"sent_p50_ms {_percentile(run.latencies, 50):.3f} ms "
                     f"(median of {n} sentences)")
        lines.append(f"sent_tail_ms {_percentile(run.latencies, tail):.3f} ms "
                     f"(p{tail} of {n} sentences; a failed sentence counts as inf)")
        lines.append(f"bleu {metrics['quality']:.4f} (quality)")
    if name == "grow":
        lines.append(f"grow_s {phase_s:.4f} s")
        lines.append(f"bleu {run.figures['bleu']:.4f}")
        lines.append(f"mine_f1 {run.figures['mine_f1']:.4f}")
        lines.append(f"triangulation_accuracy {metrics['quality']:.4f} % (quality)")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    detail = "".join(f", {k}={v}" for k, v in sorted(run.failure_kinds.items()))
    lines.append(f"failed_ratio {ratio:.4f} ({run.failed} failed / "
                 f"{run.attempted} attempted{detail})")
    return lines


def traced(run: Run) -> tuple[dict, list[str]]:
    import layers
    from spans import Tracer

    setup_tracer = Tracer()
    layers.instrument(setup_tracer)
    state, _, _ = run.do_setup()
    setup_tracer.uninstall()
    run.problems += run.setup_checks(state)

    pass_tracer = Tracer()
    plain: list[float] = []
    with_spans: list[float] = []
    while sum(plain) + sum(with_spans) < run.args.seconds:
        plain.append(run.do_pass(state)[0])
        layers.instrument(pass_tracer)
        with_spans.append(run.do_pass(state, pass_tracer)[0])
    run.check_em()

    metrics = layers.layer_metrics(setup_tracer, pass_tracer, len(with_spans))
    untraced_s = statistics.mean(plain)
    overhead = statistics.mean(with_spans) - untraced_s
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / untraced_s
    metrics["trace.spans"] = (len(setup_tracer.spans)
                              + len(pass_tracer.spans) / len(with_spans))
    lines = [f"traced passes {len(with_spans)}, untraced passes {len(plain)}",
             f"tracing overhead {overhead:.4f} s per pass "
             f"({100 * metrics['trace.overhead_ratio']:.2f}% of the untraced mean)"]
    return metrics, lines


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pivotsmt", "__init__.py")):
        print(f"perfbench: no pivotsmt sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, src)
    import workloads

    run = Run(args, workloads)
    metrics, lines = traced(run) if args.trace else untraced(run)
    run.captures.close()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")

    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    for artifact, digest in sorted((run.artifacts or {}).items()):
        print(f"sha256 {artifact} {digest}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
