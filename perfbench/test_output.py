#!/usr/bin/env python3
"""Checks the benchmark's result line against BENCHMARK.json.

    python3 perfbench/test_output.py

Runs every workload of BENCHMARK.json for one second with --trace 0 and
--trace 1. Each run's last line of standard output must be one JSON object
with exactly the keys correct, attempted and failed (whole numbers) and
metrics, naming every end-to-end metric (--trace 0) or every per-layer
metric (--trace 1) with its unit and a numeric value. Also checks that the
benchmark fails, without a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Builds first if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_benchmark(cwd, workload, trace, seed=1):
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class ResultLineTest(unittest.TestCase):
    def check_result(self, workload, trace, expected):
        proc = run_benchmark(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stderr[-2000:])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for m in expected:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return metrics

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 1, SPEC["per_layer"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
