#!/usr/bin/env python3
"""Smoke test for the end-to-end benchmark.

  python3 perfbench/test_smoke.py

Builds the harness, runs every workload briefly (traced and untraced)
and checks that the correctness gate passes and that every metric
BENCHMARK.json names is emitted with its unit.  Also checks that the
benchmark refuses to run, without printing a result, from a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


class BenchmarkSmoke(unittest.TestCase):
    def test_every_workload_passes_the_gate_and_emits_every_metric(self):
        proc = subprocess.run(RUN + ["--smoke"], cwd=ROOT, capture_output=True,
                              text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("smoke: ok", proc.stdout)

    def test_refuses_to_run_without_the_repository(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                RUN + ["--workload", "storm_replay", "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            try:
                self.assertNotIn("metrics", json.loads(line))
            except json.JSONDecodeError:
                pass


if __name__ == "__main__":
    sys.exit(unittest.main())
