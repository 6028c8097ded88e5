#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/mdts_perf from source and runs it.

Usage (from the repository root):
    python3 perfbench/run.py --workload solo|logged \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

It builds mdts_perf into .bench_build/perfbench on first use, runs one
workload, audits every flight-recorder dump the run wrote with
tools/flight_check.py, and prints one JSON object as its last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A failed correctness gate exits 1.

--smoke runs every workload of BENCHMARK.json for one second in both
modes and checks that each listed metric is printed with its unit and that
the gate passes. Standard library only.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "mdts_perf")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds mdts_perf; build output goes to
    stderr so stdout stays the benchmark's own."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mdts_perf",
                  "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def flight_check(dump):
    """True when tools/flight_check.py accepts the dump."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "flight_check.py"), dump],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print(f"flight_check {os.path.basename(dump)}: "
          f"{proc.stdout.strip().splitlines()[-1] if proc.stdout else ''}")
    return proc.returncode == 0


def run(workload, seed, seconds, trace):
    """Runs one workload; returns the result object (None when mdts_perf
    produced none) after folding the flight audits into "correct"."""
    out_dir = os.path.join(OUT_DIR, workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(proc.stdout, end="")
        print(f"run.py: {workload} printed no result (exit "
              f"{proc.returncode})", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    dumps = result.pop("flight_dumps")
    audits_ok = all([flight_check(d) for d in dumps])
    result["correct"] = bool(result["correct"] and audits_ok and
                             proc.returncode == 0)
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w["name"], 1, 1, trace)
            where = f"{w['name']} --trace {trace}"
            if result is None or not result["correct"]:
                failures.append(f"{where}: correctness gate failed")
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if (got is None or got.get("unit") != m["unit"] or
                        not isinstance(got.get("value"), (int, float))):
                    failures.append(f"{where}: metric {m['name']} missing "
                                    f"or without unit {m['unit']}: {got}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{where}: unlisted metrics {sorted(extra)}")
    for f in failures:
        print(f"SMOKE FAIL: {f}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")

    build()
    if args.smoke:
        return smoke()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
