"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

The name keeps pytest from collecting these with the program's tests, so an
edit to the benchmark never moves the program's test count and the other
way round.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402


def _generate(seed: int) -> str:
    return gen.digest(
        gen.bitext(seed, "train", 40, "a", "b"),
        gen.bitext(seed, "grow-ap", 20, "a", "p", 3, 15),
        gen.bitext(seed, "grow-pb", 20, "p", "b", 3, 15),
        gen.stratified(seed, "decode-test", [4, 17, 30]),
        gen.word_pairs(seed, 20, 10),
    )


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(_generate(11), _generate(11))

    def test_other_seed_other_bytes(self):
        self.assertNotEqual(_generate(11), _generate(12))

    def test_inputs_have_the_promised_shape(self):
        src, _ = gen.bitext(3, "train", 200, "a", "b")
        lengths = [len(line.split()) for line in src]
        self.assertEqual((min(lengths), max(lengths)), (4, 30))
        labels = [label for _, _, label in gen.word_pairs(3, 30, 10)]
        self.assertEqual((labels.count(True), labels.count(False)), (30, 10))
        # one-to-many and deleting correspondences make pairs differ in length
        pairs = gen.word_pairs(3, 200, 0)
        self.assertTrue(any(len(s) != len(t) for s, t, _ in pairs))


class SmokeTest(unittest.TestCase):
    """Tiny-size runs of every workload, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def test_every_workload_prints_the_declared_metrics_and_passes_checks(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                                 "--trace", trace, "--scale", "tiny"])
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.spec[group]}
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_failure_counts_do_not_depend_on_run_length(self):
        counts = []
        for seconds in ("0.1", "1"):
            proc = _run(["--workload", "decode", "--seed", "5", "--seconds", seconds,
                         "--trace", "0", "--scale", "tiny"])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0], counts[1])

    def test_checkout_without_sources_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = _run(["--workload", "train", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
