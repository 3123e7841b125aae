#!/usr/bin/env python3
"""Reduce busprof --json reports over a seed sweep to one median profile.

Usage: profile_median.py SEED:REPORT.json [SEED:REPORT.json ...]

Prints {"seeds": [...], "stage_p99_us": {stage: median}, "queues": {node:
{gauge: median}}} on stdout, keeping only the ".hwm" queue gauges. These are
the keys scripts/bench_diff.py gates. busprof's profiled WAN scenario drops
frames at 10% loss from one fault RNG, so any change in frame count re-draws
which frames are lost and moves a single seed's p99s and high-watermarks by
2-8x either way; the median over a sweep does not flip on such a re-draw.
"""

import json
import statistics
import sys


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    seeds = []
    stages = {}
    queues = {}
    for arg in argv[1:]:
        seed, path = arg.split(":", 1)
        seeds.append(int(seed))
        with open(path) as f:
            report = json.load(f)
        for stage, value in report.get("stage_p99_us", {}).items():
            stages.setdefault(stage, []).append(value)
        for node, gauges in report.get("queues", {}).items():
            for gauge, value in gauges.items():
                if gauge.endswith(".hwm"):
                    queues.setdefault(node, {}).setdefault(gauge, []).append(value)
    out = {
        "seeds": seeds,
        "stage_p99_us": {s: statistics.median(v) for s, v in sorted(stages.items())},
        "queues": {n: {g: statistics.median(v) for g, v in sorted(gs.items())}
                   for n, gs in sorted(queues.items())},
    }
    json.dump(out, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
