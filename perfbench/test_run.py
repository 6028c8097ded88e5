#!/usr/bin/env python3
"""Tests of the repository benchmark (perfbench/run.py).

Run from the repository root:
    python3 perfbench/test_run.py

test_smoke runs every workload briefly in both modes (about 20 s) and
relies on run.py --smoke's own checks: every BENCHMARK.json metric printed
with its unit, and the correctness gate passing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)


def last_line_is_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        return "correct" in json.loads(lines[-1])
    except ValueError:
        return False


class RunTest(unittest.TestCase):
    def test_smoke(self):
        proc = run([RUN, "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])
        self.assertIn("smoke: ok", proc.stdout)

    def test_result_line_has_contract_keys(self):
        proc = run([RUN, "--workload", "solo", "--seed", "3",
                    "--seconds", "1", "--trace", "0"])
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_unknown_workload_fails_without_result(self):
        proc = run([RUN, "--workload", "nope", "--seconds", "1"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(last_line_is_result(proc.stdout))

    def test_fails_without_repository_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot
        # build the engine, so the benchmark must fail without a result.
        lone = os.path.join(ROOT, ".bench_build", "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(["perfbench/run.py", "--workload", "solo", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(last_line_is_result(proc.stdout))
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
