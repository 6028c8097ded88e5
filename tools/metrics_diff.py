#!/usr/bin/env python3
"""Diff two metrics snapshots written by MetricsSnapshot::WriteJsonFile.

Usage:
    tools/metrics_diff.py BEFORE.json AFTER.json [--all] [--tolerance=N]

Prints one line per counter or gauge whose value changed (name, before,
after, delta) and a block per histogram whose count changed: count/sum
deltas, the per-bucket count deltas, and the p50/p99 DERIVED FROM THE
DELTA distribution - the percentiles of just the events recorded between
the two snapshots, mirroring HistogramSnapshot::Percentile (power-of-two
buckets, bucket b covering values up to 2^b - 1, clamped by the after-side
max). The per-phase regression check flags any "engine.phase.*_us" or
"dmt.path.*_us" histogram whose full-distribution p99 rose by more than
the tolerance. With --all, unchanged entries are listed too.
--tolerance=N treats absolute deltas up to N as unchanged (useful when
comparing runs with small nondeterministic counters, e.g. retry or
lock-wait tallies).

Exits 0 when the snapshots match (within tolerance), 1 when anything
differs, 2 on bad input.

Standard library only; no third-party dependencies.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"metrics_diff: cannot read {path}: {e}")
    if not isinstance(snap, dict):
        sys.exit(f"metrics_diff: {path}: not a metrics snapshot object")
    return (snap.get("counters", {}), snap.get("gauges", {}),
            snap.get("histograms", {}))


def fmt_delta(delta):
    return f"{delta:+d}" if delta else "="


def bucket_deltas(before, after):
    """Per-bucket count deltas {bucket_index: delta}, zeros omitted."""
    ba = {int(k): int(v) for k, v in before.get("buckets", {}).items()}
    bb = {int(k): int(v) for k, v in after.get("buckets", {}).items()}
    out = {}
    for b in sorted(set(ba) | set(bb)):
        d = bb.get(b, 0) - ba.get(b, 0)
        if d:
            out[b] = d
    return out


def delta_percentile(deltas, p, max_clamp):
    """Percentile of the delta distribution, as HistogramSnapshot does it:
    walk cumulative bucket counts, report bucket b's upper bound 2^b - 1
    (bucket 0 holds exactly the value 0), clamped by the observed max."""
    total = sum(deltas.values())
    if total <= 0:
        return 0
    target = total * p / 100.0
    cumulative = 0
    for b in sorted(deltas):
        cumulative += deltas[b]
        if cumulative >= target and cumulative > 0:
            if b == 0:
                return 0
            upper = (1 << 64) - 1 if b >= 64 else (1 << b) - 1
            return min(upper, max_clamp) if max_clamp else upper
    return max_clamp


def full_percentile(hist, p):
    """Percentile of one snapshot's full histogram distribution (not the
    delta window): the comparison basis for the per-phase regression
    check, where before/after are usually two independent runs."""
    buckets = {int(k): int(v) for k, v in hist.get("buckets", {}).items()}
    return delta_percentile(buckets, p, int(hist.get("max", 0)))


def presence_note(name, section_a, section_b):
    """Annotation for a metric present in only one snapshot: a registry
    grows instruments lazily (e.g. wal.* only appears once a WAL is
    attached), so one-sided entries are expected, not an error; the
    missing side reads as 0."""
    if name not in section_a:
        return "  (added)"
    if name not in section_b:
        return "  (removed)"
    return ""


def diff_scalars(section_a, section_b, tolerance, list_all, rows):
    """Shared counter/gauge diff; returns the number of changed entries."""
    changed = 0
    for name in sorted(set(section_a) | set(section_b)):
        before = int(section_a.get(name, 0))
        after = int(section_b.get(name, 0))
        delta = after - before
        if abs(delta) > tolerance:
            changed += 1
        if delta != 0 or list_all:
            rows.append((name, str(before), str(after), fmt_delta(delta),
                         presence_note(name, section_a, section_b)))
    return changed


def main():
    parser = argparse.ArgumentParser(
        description="Diff two MetricsSnapshot JSON files.")
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--all", action="store_true",
                        help="also list unchanged metrics")
    parser.add_argument("--tolerance", type=int, default=0, metavar="N",
                        help="treat absolute deltas up to N as unchanged "
                             "(default 0: exact)")
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    counters_a, gauges_a, hists_a = load(args.before)
    counters_b, gauges_b, hists_b = load(args.after)

    changed = 0
    rows = []
    changed += diff_scalars(counters_a, counters_b, args.tolerance,
                            args.all, rows)
    gauge_start = len(rows)
    changed += diff_scalars(gauges_a, gauges_b, args.tolerance,
                            args.all, rows)
    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for i, (name, before, after, delta, note) in enumerate(rows):
            kind = "gauge  " if i >= gauge_start else "counter"
            print(f"{kind} {name:<{widths[0]}}  {before:>{widths[1]}} -> "
                  f"{after:>{widths[2]}}  {delta:>{widths[3]}}{note}")

    for name in sorted(set(hists_a) | set(hists_b)):
        ha = hists_a.get(name, {})
        hb = hists_b.get(name, {})
        dcount = int(hb.get("count", 0)) - int(ha.get("count", 0))
        dsum = int(hb.get("sum", 0)) - int(ha.get("sum", 0))
        if dcount == 0 and dsum == 0 and not args.all:
            continue
        if abs(dcount) > args.tolerance or abs(dsum) > args.tolerance:
            changed += 1
        deltas = bucket_deltas(ha, hb)
        max_clamp = int(hb.get("max", 0))
        p50 = delta_percentile(deltas, 50, max_clamp)
        p99 = delta_percentile(deltas, 99, max_clamp)
        note = presence_note(name, hists_a, hists_b)
        print(f"histogram {name}  count{fmt_delta(dcount)} "
              f"sum{fmt_delta(dsum)} (delta window: p50={p50} p99={p99})"
              f"{note}")
        for b in sorted(deltas):
            upper = "0" if b == 0 else f"<=2^{b}-1"
            print(f"  bucket[{b}] ({upper}): {fmt_delta(deltas[b])}")

    # Per-phase latency attribution: the "engine.phase.*_us" histogram
    # family holds per-transaction phase latencies in microseconds
    # (admission / lock / decide / mv_read / wal_append / fsync / ack),
    # and "dmt.path.*_us" holds the distributed critical-path segment
    # classes (network / lock_wait / backoff / site_down_retry /
    # processing) in simulated microseconds. A phase or segment whose p99
    # moved up by more than the tolerance is flagged as a regression and
    # fails the diff - CI's one-line answer to "which phase got slower
    # between these two runs".
    for name in sorted(set(hists_a) & set(hists_b)):
        if not (name.startswith("engine.phase.")
                or name.startswith("dmt.path.")):
            continue
        pa = full_percentile(hists_a[name], 99)
        pb = full_percentile(hists_b[name], 99)
        if pb > pa + args.tolerance:
            changed += 1
            print(f"phase regression {name}: p99 {pa} -> {pb} us "
                  f"(+{pb - pa}"
                  + (f", tolerance {args.tolerance}" if args.tolerance
                     else "")
                  + ")")

    # Multiversion bookkeeping lint: when a snapshot carries the
    # version-chain series, the live-version gauge should equal installs
    # minus reclaims. The engine's registry collector reads all three in
    # one EngineStats pass, so a snapshot of a quiescent engine satisfies
    # it exactly. That pass locks the shards one at a time rather than
    # taking an atomic cut, so a snapshot taken mid-run can be off by the
    # installs and reclaims in flight; and counters outlive a destroyed
    # engine while its live-version level does not. So this is a warning
    # and does not affect the exit code.
    for label, counters, gauges in (("before", counters_a, gauges_a),
                                    ("after", counters_b, gauges_b)):
        if "engine.versions_installed" not in counters:
            continue
        installed = int(counters.get("engine.versions_installed", 0))
        gc = int(counters.get("engine.versions_gc", 0))
        live = int(gauges.get("engine.live_versions", 0))
        if live != installed - gc:
            print(f"warning ({label}): engine.live_versions={live} != "
                  f"versions_installed={installed} - versions_gc={gc} "
                  f"(= {installed - gc}; consistent only in snapshots of "
                  f"a quiescent live engine - collection locks shards one "
                  f"at a time, not an atomic cut)")

    if changed == 0:
        print("snapshots match"
              + (f" within tolerance {args.tolerance}"
                 if args.tolerance else "")
              + ("" if args.all else " (use --all to list entries)"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
