#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at tiny sizes.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark through perfbench/run.py, then checks that every
workload runs and passes its output checks in both trace modes, that the
printed metric names and units are exactly the ones BENCHMARK.json lists,
that the digest repeats on one seed, that deliberately broken reports fail
the invariant checks, and that run.py refuses to run without the library
sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(args, cwd=ROOT, runner=RUN):
    return subprocess.run([sys.executable, runner] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def tiny(workload, seed=1, trace=0):
    p = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--tiny"])
    if p.returncode != 0:
        raise AssertionError("run failed:\n" + p.stderr[-2000:])
    lines = p.stdout.strip().splitlines()
    digest = [l for l in lines if l.startswith("digest:")]
    return json.loads(lines[-1]), digest


class PerfbenchTest(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_workloads_pass_checks_in_both_modes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e, _ = tiny(w["name"], trace=0)
                self.check_result(e2e, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(e2e["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                layers, _ = tiny(w["name"], trace=1)
                self.check_result(layers, SPEC["per_layer"])

    def test_digest_repeats_on_a_seed(self):
        _, first = tiny("ops_10k", seed=5)
        _, again = tiny("ops_10k", seed=5)
        _, other = tiny("ops_10k", seed=6)
        self.assertEqual(len(first), 1)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_broken_reports_fail_the_checks(self):
        p = run(["--self-check"])
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertIn("broken outputs rejected", p.stdout)

    def test_refuses_to_run_without_library_sources(self):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, target, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR="build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet_2k",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
