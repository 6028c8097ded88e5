#!/usr/bin/env python3
"""mdtop: a tiny top(1)-style terminal view of the live telemetry exporter.

Usage:
    tools/mdtop.py [--host=H] [--port=P] [--interval=SECS] [--once]

Polls http://HOST:PORT/series.json (the windowed Sampler export served by
`mt_throughput --serve` / `fault_sweep --serve`) and redraws one screen per
poll: the newest window's counter rates split into throughput (commit
counters) and an abort-reason mix with proportional bars, the gauge values,
and the most recent starvation-watchdog alerts. When the exporter also
serves /phases.json (per-transaction latency attribution), a phases pane
shows each lifecycle phase's count, mean, p50/p99, max, and the exemplar
transaction behind the worst sample. A distributed pane lists the dmt.*
rates - or an explicit "no dist metrics" placeholder when the exporter is
engine-only - and, when /paths.json is live (fault_sweep --serve --paths),
a critical-path pane with the per-segment-class share of distributed time
and the slowest transactions. --once prints a single frame without
clearing the screen and exits (scriptable; the docs' sample output comes
from it).

Standard library only; no third-party dependencies. Exits 0 on Ctrl-C,
1 when the exporter cannot be reached.

Sample frame:

    mdtop  127.0.0.1:9464  window #42 t=12.30 dt=0.100  (50 windows, 1 alert)

    throughput
      dmt.committed                         4520.0/s
    aborts
      dmt.aborts.lex_order                   312.0/s  ##################
      dmt.aborts.down_site                    41.5/s  ##
    gauges
      dmt.max_consecutive_aborts                  12
      obs.starvation_alert.dmt.max_consec...       1  ALERT
    phases (lifetime, us)
      lock        n=1284 mean=3 p50=1 p99=15 max=412  worst T731
      wal_append  n=1284 mean=48 p50=31 p99=255 max=1023  worst T98
    alerts (latest first)
      {"source": "dmt.max_consecutive_aborts", "threshold": 8, ...}
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

CLEAR = "\x1b[2J\x1b[H"
BAR_WIDTH = 30
NAME_WIDTH = 42


def fetch(url, timeout):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def shorten(name):
    if len(name) <= NAME_WIDTH:
        return name
    return name[: NAME_WIDTH - 3] + "..."


# Lifecycle order of the engine's phase timers; phases the exporter reports
# that are not listed here (future additions) render after these, sorted.
PHASE_ORDER = ["admission", "lock", "decide", "mv_read", "wal_append",
               "fsync", "ack"]


def render_phases(phases, lines):
    """Append the per-phase latency attribution pane: one row per lifecycle
    phase with count, mean, p50/p99, max (all microseconds, lifetime
    distribution) and the exemplar - the transaction id stamped on the
    worst sample, the hop from a bad percentile to a flight-recorder or
    trace lookup."""
    named = [p for p in PHASE_ORDER if p in phases]
    named += sorted(p for p in phases if p not in PHASE_ORDER)
    rows = [p for p in named if phases[p].get("count", 0)]
    if not rows:
        return
    lines.append("phases (lifetime, us)")
    width = max(len(p) for p in rows)
    for p in rows:
        h = phases[p]
        count = h.get("count", 0)
        mean = h.get("sum_us", 0) // max(count, 1)
        ex = h.get("exemplar", {})
        lines.append(
            f"  {p:<{width}}  n={count} mean={mean} "
            f"p50={h.get('p50_us', 0)} p99={h.get('p99_us', 0)} "
            f"max={h.get('max_us', 0)}  worst T{ex.get('txn', '?')}")


def render_paths(paths, lines):
    """Append the distributed critical-path pane fed by /paths.json: the
    collector's lifetime per-segment-class split of where distributed
    transactions spend their time, plus the slowest retained transactions
    (the ones worth pulling out of the dump with tools/critical_path.py)."""
    agg = paths.get("aggregates", {}) if paths else {}
    total = int(agg.get("total_us", 0))
    if not agg.get("paths"):
        return
    lines.append("critical paths (lifetime, us)")
    lines.append(f"  {agg.get('paths', 0)} paths extracted "
                 f"({agg.get('committed', 0)} committed), "
                 f"{total} us on the critical path")
    segments = {n: int(v) for n, v in agg.get("segments", {}).items() if v}
    peak = max(segments.values(), default=0)
    for n in sorted(segments, key=segments.get, reverse=True):
        share = 100.0 * segments[n] / total if total else 0.0
        bar = "#" * int(round(segments[n] / peak * BAR_WIDTH)) if peak else ""
        lines.append(f"  {shorten(n):<{NAME_WIDTH}} {share:>11.1f}%  {bar}")
    for t in paths.get("txns", [])[:3]:
        lines.append(f"  slowest T{t.get('txn', '?')}: "
                     f"{t.get('latency_us', 0)} us, "
                     f"{t.get('attempts', '?')} attempt(s), "
                     + ("committed" if t.get("committed") else "gave up"))


def render(series, endpoint, phases=None, paths=None):
    windows = series.get("windows", [])
    alerts = series.get("alerts", [])
    lines = []
    if not windows:
        lines.append(f"mdtop  {endpoint}  waiting for windows "
                     f"({series.get('samples_taken', 0)} samples taken; "
                     "two are needed for the first rate window)")
        return "\n".join(lines) + "\n"
    w = windows[-1]
    active = sum(1 for a in alerts if a.get("active"))
    lines.append(
        f"mdtop  {endpoint}  window #{w.get('seq', '?')} "
        f"t={w.get('t', 0):.2f} dt={w.get('dt', 0):.3f}  "
        f"({len(windows)} windows, {len(alerts)} alerts"
        + (f", {active} ACTIVE" if active else "") + ")")
    lines.append("")

    rates = w.get("rates", {})
    commits = {n: r for n, r in rates.items() if n.endswith(".committed")
               or n.endswith(".commits")}
    aborts = {n: r for n, r in rates.items()
              if ".aborts." in n or ".rejected." in n}
    versions = {n: r for n, r in rates.items()
                if n.endswith(".versions_installed")
                or n.endswith(".versions_gc")}
    dist = {n: r for n, r in rates.items() if n.startswith("dmt.")
            and n not in commits and n not in aborts}
    other = {n: r for n, r in rates.items()
             if n not in commits and n not in aborts and n not in versions
             and n not in dist}

    lines.append("throughput")
    for n in sorted(commits):
        lines.append(f"  {shorten(n):<{NAME_WIDTH}} {commits[n]:>12.1f}/s")
    if not commits:
        lines.append("  (no commit counters moved this window)")

    lines.append("aborts")
    peak = max(aborts.values(), default=0.0)
    for n in sorted(aborts, key=aborts.get, reverse=True):
        bar = "#" * int(round(aborts[n] / peak * BAR_WIDTH)) if peak else ""
        lines.append(f"  {shorten(n):<{NAME_WIDTH}} {aborts[n]:>12.1f}/s  "
                     f"{bar}")
    if not aborts:
        lines.append("  (none this window)")

    if versions:
        # Multiversion engines: install and GC rates side by side; a GC
        # rate persistently below the install rate means chains are
        # growing (check the live_versions gauge below).
        lines.append("versions")
        for n in sorted(versions):
            lines.append(f"  {shorten(n):<{NAME_WIDTH}} "
                         f"{versions[n]:>12.1f}/s")

    gauges = w.get("gauges", {})
    if other:
        lines.append("other rates")
        for n in sorted(other, key=other.get, reverse=True)[:8]:
            lines.append(f"  {shorten(n):<{NAME_WIDTH}} {other[n]:>12.1f}/s")

    # Distributed pane: always drawn so an engine-only exporter reads as
    # "dist metrics absent" rather than as a silently missing pane.
    lines.append("distributed (dmt)")
    if dist:
        for n in sorted(dist, key=dist.get, reverse=True)[:8]:
            lines.append(f"  {shorten(n):<{NAME_WIDTH}} {dist[n]:>12.1f}/s")
    elif any(n.startswith("dmt.") for n in rates):
        lines.append("  (dmt counters idle this window)")
    else:
        lines.append("  (no dist metrics: engine-only exporter)")

    if gauges:
        lines.append("gauges")
        for n in sorted(gauges):
            flag = ("  ALERT" if n.startswith("obs.starvation_alert.")
                    and gauges[n] else "")
            lines.append(f"  {shorten(n):<{NAME_WIDTH}} {gauges[n]:>12}"
                         f"{flag}")

    hists = w.get("histograms", {})
    if hists:
        lines.append("latency (this window)")
        for n in sorted(hists):
            h = hists[n]
            lines.append(f"  {shorten(n):<{NAME_WIDTH}} "
                         f"n={h.get('count', 0)} p50={h.get('p50', 0)} "
                         f"p99={h.get('p99', 0)}")

    if phases:
        render_phases(phases, lines)

    if paths:
        render_paths(paths, lines)

    if alerts:
        lines.append("alerts (latest first)")
        for a in list(reversed(alerts))[:5]:
            lines.append(f"  {json.dumps(a)}")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description="Terminal view of the live telemetry exporter.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9464)
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll interval in seconds (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit (no screen clears)")
    args = parser.parse_args()

    endpoint = f"{args.host}:{args.port}"
    url = f"http://{endpoint}/series.json"
    phases_url = f"http://{endpoint}/phases.json"
    paths_url = f"http://{endpoint}/paths.json"
    try:
        while True:
            try:
                series = fetch(url, timeout=2.0)
            except (urllib.error.URLError, OSError, TimeoutError,
                    json.JSONDecodeError) as e:
                print(f"mdtop: cannot fetch {url}: {e}", file=sys.stderr)
                return 1
            try:
                # Best-effort: the pane is empty when the run carries no
                # metrics registry or predates the phase timers.
                phases = fetch(phases_url, timeout=2.0).get("phases", {})
            except (urllib.error.URLError, OSError, TimeoutError,
                    json.JSONDecodeError):
                phases = {}
            try:
                # Best-effort: empty unless a PathCollector is attached
                # (fault_sweep --serve with tracing on).
                paths = fetch(paths_url, timeout=2.0)
            except (urllib.error.URLError, OSError, TimeoutError,
                    json.JSONDecodeError):
                paths = {}
            frame = render(series, endpoint, phases, paths)
            if args.once:
                sys.stdout.write(frame)
                return 0
            sys.stdout.write(CLEAR + frame)
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
