#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Usage (from the repository root):
    python3 perfbench/steady.py [--workload NAME ...] [--seeds 1-10]

Runs perfbench/run.py once per seed (--trace 0, BENCHMARK.json's
run_seconds) for each workload and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1, from statistics.quantiles with
n=4) as a share of the median, next to the metric's bound. A spread under
a third of the bound is steady. Exits 1 when a run fails its gate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    status = 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not result.get("correct"):
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})")
                status = 1
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{w} ({len(args.seeds)} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "steady" if spread < m["bound"] / 3 else "UNSTEADY"
            print(f"  {m['name']:<16} median {med:12.6g} {m['unit']:<6} "
                  f"spread {spread:6.3f}  bound {m['bound']:.3f}  {flag}  "
                  f"[{' '.join(f'{x:.4g}' for x in v)}]")
    return status


if __name__ == "__main__":
    sys.exit(main())
