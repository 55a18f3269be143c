#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark binary through run.py, then check on the tiny "smoke"
workload that every metric named in BENCHMARK.json is printed with its unit
and a legal name, that the result line has the promised shape, that two runs
of one seed print the same determinism fingerprints, and that a checkout
without the repository's sources fails cleanly. The percentile, mean and
uncommitted-share arithmetic is checked on synthetic inputs by the binary's
--selftest.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(trace, seed=7):
    return run("--workload", "smoke", "--seed", str(seed), "--seconds", "1", "--trace", str(trace))


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.untraced = smoke(0)
        cls.traced = smoke(1)

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def check_metrics(self, proc, key):
        metrics = self.result(proc)["metrics"]
        promised = {m["name"]: m["unit"] for m in self.spec[key]}
        self.assertEqual(set(metrics), set(promised))
        for name, entry in metrics.items():
            self.assertRegex(name, NAME)
            self.assertRegex(entry["unit"], UNIT)
            self.assertEqual(entry["unit"], promised[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)
            self.assertIn("metric %s" % name.ljust(32), proc.stdout)

    def test_end_to_end_metrics_printed(self):
        self.check_metrics(self.untraced, "end_to_end")
        for m in self.spec["end_to_end"]:
            self.assertGreater(self.result(self.untraced)["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics_printed(self):
        self.check_metrics(self.traced, "per_layer")
        self.assertIn("traced wall", self.traced.stdout)

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in self.spec["end_to_end"])},
                      self.spec["end_to_end"])

    def test_same_seed_same_fingerprint(self):
        def fingerprints(proc):
            return sorted(set(re.findall(r"^sim seed=(\d+) events=(\d+) event_hash=(\w+)",
                                         proc.stdout, re.M)))
        again = smoke(0)
        self.assertTrue(fingerprints(self.untraced))
        self.assertEqual(fingerprints(self.untraced), fingerprints(again))
        self.assertNotEqual(fingerprints(self.untraced), fingerprints(smoke(0, seed=8)))

    def test_traced_run_matches_untraced(self):
        fingerprint = re.compile(r"^(?:sim|traced) seed=\d+ events=(\d+) event_hash=(\w+)", re.M)
        self.assertEqual(len(set(fingerprint.findall(self.traced.stdout))), 1)

    def test_selftest_arithmetic(self):
        proc = subprocess.run([os.path.join(build_dir(), "perfbench"), "--selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_bad_arguments_exit_2(self):
        self.assertEqual(run("--workload", "nope", "--seed", "1", "--seconds", "1",
                             "--trace", "0").returncode, 2)

    def test_fails_without_repository_sources(self):
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
