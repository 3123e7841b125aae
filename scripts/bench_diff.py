#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on latency or throughput regressions.

Usage: bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]

Both files carry {"schema": "BENCH_N", "results": [{"name", "p50_us", "p90_us",
"p99_us", "msgs_per_sec"}, ...]} — the row shape is stable across schema versions.
Rows are matched by name; for each shared row the per-percentile latency delta and
the throughput delta are printed. Exits non-zero if any latency percentile on any
shared row regresses by more than the threshold (default 10%), or if the delivery
rate (msgs_per_sec) of a throughput bench — any row whose name contains
"throughput" — drops by more than the threshold, or if a row carrying the
"allocs_per_msg" counter (the instrumented-allocator hot_path_allocs bench) grows
it by more than the threshold on both sides, or if the byte throughput
(bytes_per_sec, carried by fig7 from BENCH_8 on) of a throughput bench drops by
more than the threshold, or if the telemetry self-overhead ratio (overhead_ratio,
carried by the telemetry_overhead bench from BENCH_9 on) grows by more than the
threshold on both sides. Rows, sections, and keys present on only one side are
reported as new/dropped series but never fail the run (benchmarks and their
columns come and go across PRs — a newer schema must always diff cleanly against
an older baseline).

When BOTH files carry a top-level "profile" section with the same "seeds" list
(the median of busprof's critical-path report over a seed sweep, embedded by
scripts/bench.sh via scripts/profile_median.py), its per-stage p99 latencies
and per-node queue high-watermarks are gated the same way: >threshold growth on
a stage p99 or a ".hwm" gauge fails the run. A profile present on only one
side, or profiles over different seed lists (older baselines embed a single
seed's report, whose numbers flip on any fault re-draw), are reported and
skipped.

The deterministic simulator makes bench numbers replayable, so a genuine regression
here is a code change, not scheduler noise.
"""

import argparse
import json
import sys

LATENCY_KEYS = ("p50_us", "p90_us", "p99_us")
# Sub-millisecond percentiles jitter by whole simulator ticks; don't flag noise on
# effectively-zero baselines.
MIN_BASELINE_US = 1.0
# Delivery-rate drops only fail rows that are actually throughput benches, and only
# above a sane baseline (latency benches report token rates or zero).
MIN_BASELINE_RATE = 1.0
# The allocation gate needs a non-trivial baseline too: below one alloc per message
# a single new first-touch allocation would read as a huge percentage.
MIN_BASELINE_ALLOCS = 0.5
# Queue high-watermarks are small integers; a 0-or-1 baseline would turn a single
# extra queued packet into a triple-digit percentage.
MIN_BASELINE_HWM = 2.0
# A near-zero overhead baseline (tracing off) would turn any nonzero reading into
# a huge percentage; only gate series that already pay measurable overhead.
MIN_BASELINE_OVERHEAD = 0.001


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("results", []):
        name = row.get("name")
        if name:
            rows[name] = row
    return doc.get("schema", "?"), rows, doc


def diff_profile(base_doc, cur_doc, threshold, regressions):
    """Gates the busprof 'profile' section: stage p99s and queue high-watermarks."""
    bp, cp = base_doc.get("profile"), cur_doc.get("profile")
    if not bp or not cp:
        if bp or cp:
            side = "current" if cp else "baseline"
            print(f"  profile: only the {side} file carries one; skipping")
        return
    bseeds, cseeds = bp.get("seeds"), cp.get("seeds")
    if not bseeds or bseeds != cseeds:
        print(f"  profile: seed lists differ (baseline {bseeds or 'single seed'}, "
              f"current {cseeds or 'single seed'}); skipping")
        return
    bstages, cstages = bp.get("stage_p99_us", {}), cp.get("stage_p99_us", {})
    for stage in sorted(set(bstages) & set(cstages)):
        bv, cv = bstages[stage], cstages[stage]
        if bv < MIN_BASELINE_US:
            print(f"  profile.stage.{stage:26s} p99 {bv:.0f}->{cv:.0f}us")
            continue
        pct = (cv - bv) / bv * 100.0
        print(f"  profile.stage.{stage:26s} p99 {bv:.0f}->{cv:.0f}us ({pct:+.1f}%)")
        if pct > threshold:
            regressions.append(
                f"profile: stage {stage} p99 {bv:.1f}us -> {cv:.1f}us ({pct:+.1f}%)")
    bq, cq = bp.get("queues", {}), cp.get("queues", {})
    for node in sorted(set(bq) & set(cq)):
        for gauge in sorted(set(bq[node]) & set(cq[node])):
            if not gauge.endswith(".hwm"):
                continue
            bv, cv = bq[node][gauge], cq[node][gauge]
            if bv < MIN_BASELINE_HWM:
                continue
            pct = (cv - bv) / bv * 100.0
            print(f"  profile.queue {node}.{gauge} {bv:.0f}->{cv:.0f} ({pct:+.1f}%)")
            if pct > threshold:
                regressions.append(
                    f"profile: queue {node}.{gauge} {bv:.0f} -> {cv:.0f} ({pct:+.1f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max tolerated latency growth, percent (default 10)")
    args = ap.parse_args()

    base_schema, base, base_doc = load(args.baseline)
    cur_schema, cur, cur_doc = load(args.current)
    shared = sorted(set(base) & set(cur))
    print(f"bench_diff: {args.baseline} ({base_schema}) -> {args.current} ({cur_schema}), "
          f"{len(shared)} shared rows, threshold {args.threshold:.0f}%")

    regressions = []
    for name in shared:
        b, c = base[name], cur[name]
        cells = []
        for key in LATENCY_KEYS:
            bv, cv = b.get(key, 0.0), c.get(key, 0.0)
            if bv < MIN_BASELINE_US:
                cells.append(f"{key} {bv:.0f}->{cv:.0f}us")
                continue
            pct = (cv - bv) / bv * 100.0
            cells.append(f"{key} {bv:.0f}->{cv:.0f}us ({pct:+.1f}%)")
            if pct > args.threshold:
                regressions.append(f"{name}: {key} {bv:.1f}us -> {cv:.1f}us ({pct:+.1f}%)")
        brate, crate = b.get("msgs_per_sec", 0.0), c.get("msgs_per_sec", 0.0)
        if brate > 0:
            rate_pct = (crate - brate) / brate * 100.0
            cells.append(f"rate {brate:.0f}->{crate:.0f}/s ({rate_pct:+.1f}%)")
            if ("throughput" in name and brate >= MIN_BASELINE_RATE
                    and -rate_pct > args.threshold):
                regressions.append(
                    f"{name}: msgs_per_sec {brate:.1f}/s -> {crate:.1f}/s ({rate_pct:+.1f}%)")
        # Byte throughput (fig7 carries it from BENCH_8 on; older baselines lack it).
        bbytes, cbytes = b.get("bytes_per_sec", 0.0), c.get("bytes_per_sec", 0.0)
        if bbytes > 0:
            bytes_pct = (cbytes - bbytes) / bbytes * 100.0
            cells.append(f"bytes {bbytes:.0f}->{cbytes:.0f}/s ({bytes_pct:+.1f}%)")
            if ("throughput" in name and bbytes >= MIN_BASELINE_RATE
                    and -bytes_pct > args.threshold):
                regressions.append(
                    f"{name}: bytes_per_sec {bbytes:.1f}/s -> {cbytes:.1f}/s "
                    f"({bytes_pct:+.1f}%)")
        # Telemetry self-overhead gate (BENCH_9 on): the stats plane must not creep.
        # Like every newer key, rows carrying it on only one side are tolerated —
        # they surface below as new/dropped series, never as a KeyError.
        if "overhead_ratio" in b and "overhead_ratio" in c:
            bo, co = b["overhead_ratio"], c["overhead_ratio"]
            if bo >= MIN_BASELINE_OVERHEAD:
                over_pct = (co - bo) / bo * 100.0
                cells.append(f"overhead {bo:.4f}->{co:.4f} ({over_pct:+.1f}%)")
                if over_pct > args.threshold:
                    regressions.append(
                        f"{name}: overhead_ratio {bo:.4f} -> {co:.4f} ({over_pct:+.1f}%)")
            else:
                cells.append(f"overhead {bo:.4f}->{co:.4f}")
        elif "overhead_ratio" in c:
            cells.append(f"overhead (new series) {c['overhead_ratio']:.4f}")
        # Allocation gate: only rows that carry the counter on BOTH sides compare
        # (the key first appears in BENCH_6; older baselines simply lack it).
        if "allocs_per_msg" in b and "allocs_per_msg" in c:
            ballocs, callocs = b["allocs_per_msg"], c["allocs_per_msg"]
            if ballocs >= MIN_BASELINE_ALLOCS:
                alloc_pct = (callocs - ballocs) / ballocs * 100.0
                cells.append(f"allocs {ballocs:.1f}->{callocs:.1f}/msg ({alloc_pct:+.1f}%)")
                if alloc_pct > args.threshold:
                    regressions.append(
                        f"{name}: allocs_per_msg {ballocs:.2f} -> {callocs:.2f} "
                        f"({alloc_pct:+.1f}%)")
            else:
                cells.append(f"allocs {ballocs:.1f}->{callocs:.1f}/msg")
        print(f"  {name:40s} " + "  ".join(cells))

    for name in sorted(set(base) - set(cur)):
        print(f"  {name:40s} (dropped: baseline-only row)")
    for name in sorted(set(cur) - set(base)):
        print(f"  {name:40s} (new: no baseline)")

    diff_profile(base_doc, cur_doc, args.threshold, regressions)

    if regressions:
        print(f"bench_diff: FAIL — {len(regressions)} regression(s) > "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    print("bench_diff: OK — no latency, throughput, allocation, or profile "
          "regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
