#!/usr/bin/env python3
"""Tests of the wall-clock benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (as perfbench/run.py does) and check that
  - every end-to-end and per-layer metric named in BENCHMARK.json is printed,
    with its unit, and nothing else;
  - the output check passes on an unperturbed run and rejects a perturbed
    final state, counting every step of every solve as failed;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(*extra, workload="clover-amr-tune", trace="0", cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", trace] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, listed):
        proc = run(trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in listed})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check("0", SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check("1", SPEC["per_layer"])


class OutputCheck(unittest.TestCase):
    def test_rejects_perturbed_final_state(self):
        proc = run("--perturb", "1e-6")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("failed the output check", proc.stderr)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0)


class StandaloneDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            proc = run(cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
