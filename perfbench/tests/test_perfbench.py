#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout.  The first test builds the benchmark
(python3 perfbench/run.py does the same on its first run).  Every workload
runs smoke-sized here: a few requests, one pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = run.WORKLOADS


def schedule(out, workload, seed):
    """The request schedule the binary generates for a seed."""
    res = subprocess.run([os.path.join(out, "perfbench"), "--workload",
                          workload, "--seed", str(seed), "--print-schedule",
                          "--smoke"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return res.stdout


def fingerprints(lines):
    """The schedule and work fingerprint line of a run.py output."""
    return [l for l in lines if l.startswith("fingerprint: schedule")]


def run_smoke(workload, trace, seed=7):
    """Runs perfbench/run.py smoke-sized; returns (exit code, stdout lines,
    parsed last line)."""
    res = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = res.stdout.splitlines()
    return res.returncode, lines, json.loads(lines[-1]) if lines else None


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.ensure_build()
        if cls.out is None:
            raise RuntimeError("benchmark build failed")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_schedule_is_a_function_of_the_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = schedule(self.out, w, 5)
                self.assertEqual(a, schedule(self.out, w, 5))
                self.assertNotEqual(a, schedule(self.out, w, 6))

    def test_exact_counters_repeat(self):
        for w in ("deep_dp", "churn_service"):
            with self.subTest(workload=w):
                code1, lines1, r1 = run_smoke(w, 1)
                code2, lines2, r2 = run_smoke(w, 1)
                self.assertEqual((code1, code2), (0, 0))
                self.assertEqual(fingerprints(lines1), fingerprints(lines2))
                counts = [m["name"] for m in self.spec["per_layer"]
                          if m["unit"] in ("count", "bytes")]
                for name in counts:
                    self.assertEqual(r1["metrics"][name],
                                     r2["metrics"][name], name)

    def test_metric_names_match_benchmark_json_and_gates_pass(self):
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, lines, res = run_smoke(w, trace)
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(list(res["metrics"]),
                                     [m["name"] for m in self.spec[section]])
                    for m in self.spec[section]:
                        self.assertEqual(res["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_metrics_are_ordered_and_checked_against_benchmark_json(self):
        spec = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "count"}]
        failures = []
        out, filled = run.order_metrics(
            spec, {"b": {"value": 3, "unit": "count"}}, True, failures)
        self.assertEqual(list(out), ["a", "b"])
        self.assertEqual(out["a"], {"value": 0.0, "unit": "ms"})
        self.assertEqual((filled, failures), (["a"], []))
        for measured in ({"b": {"value": 3, "unit": "count"}},
                         {"a": {"value": 1, "unit": "s"},
                          "b": {"value": 3, "unit": "count"}},
                         {"a": {"value": 1, "unit": "ms"},
                          "b": {"value": 3, "unit": "count"},
                          "c": {"value": 1, "unit": "ms"}}):
            failures = []
            run.order_metrics(spec, measured, False, failures)
            self.assertEqual(len(failures), 1, measured)

    def test_bare_directory_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            res = subprocess.run([sys.executable, "perfbench/run.py",
                                  "--workload", "deep_dp", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                                 cwd=d, env=env, capture_output=True,
                                 text=True, timeout=170)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
