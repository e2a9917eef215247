#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark binary.

    python3 perfbench/tests/test_darbench.py

Runs every workload at smoke size through perfbench/run.py (building the
binary on first use) and checks that:
  - each run finishes in seconds with no failed operation;
  - every metric BENCHMARK.json names is printed with its unit (end-to-end
    metrics untraced, per-layer metrics traced);
  - a deliberately wrong reference makes the run fail with error_rate > 0;
  - without the library sources the benchmark exits non-zero and prints no
    result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, seconds=2, cwd=ROOT, timeout=600):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace), "--smoke",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def info_value(stdout, name):
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "info" and parts[1] == name:
            return float(parts[2])
    return None


class BenchmarkTest(unittest.TestCase):

    def check_metrics(self, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, BENCH["end_to_end"])
                for spec in BENCH["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][spec["name"]]["value"], 0)
                self.assertEqual(info_value(proc.stdout, "error_rate"), 0)
                self.assertIsNotNone(
                    info_value(proc.stdout, "input.distinct_tuple_share"))

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["per_layer"])
                coverage = result["metrics"]["trace.coverage"]["value"]
                if workload != "serve_hotswap":
                    self.assertGreater(coverage, 0.9)
                    self.assertLess(coverage, 1.1)

    def test_wrong_reference_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0, "--corrupt-reference")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(info_value(proc.stdout, "error_rate"), 0)

    def test_no_sources_means_no_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"))
            proc = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
