#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run it from the repository root. The first call configures and builds the bus library
and the benchmark into .bench_build/perfbench (an optimized CMake build of
perfbench/CMakeLists.txt); later calls rebuild incrementally. The benchmark's own
report goes to stdout, followed by one metric line per metric and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones and
writes the first traced episode's publish and upcall spans to
.bench_build/perfbench/spans-<workload>-seed<n>.tsv.

Exit status: 0 when the run completed and every output check passed; 1 when the build
failed, the run failed or timed out, or any check failed; 2 on bad arguments.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines) or None on timeout."""
    proc = subprocess.Popen([os.path.join(BUILD_DIR, "perfbench")] + args,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return proc.returncode, out.splitlines()


def select_metrics(spec, trace, reported):
    """Picks the metrics of BENCHMARK.json for this mode, with the units it declares."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in wanted:
        got = reported.get(m["name"])
        if got is None:
            problems.append("metric %s was not reported" % m["name"])
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s is not a finite number" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result object or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(BUILD_DIR, "spans-%s-seed%d.tsv" % (workload, seed))]
    res = run_binary(args)
    if res is None:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    code, lines = res
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log("perfbench: %s printed no result (exit %d)" % (workload, code))
        return 1, None
    metrics, problems = select_metrics(spec, trace, result.get("metrics", {}))
    for p in problems:
        print("FAIL: " + p)
    correct = bool(result.get("correct")) and code == 0 and not problems
    for name, m in metrics.items():
        print("  %-38s %20.6f %s" % (name, m["value"], m["unit"]))
    out = {"correct": correct, "attempted": int(result.get("attempted", 0)),
           "failed": int(result.get("failed", 0)), "metrics": metrics}
    return (0 if correct else 1), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        parser.error("unknown workload %r (one of: %s, all)" % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build("perfbench"):
        log("perfbench: build failed")
        return 1

    status, results = 0, {}
    for w in workloads:
        code, out = run_workload(spec, w, args.seed, seconds, args.trace)
        status = status or code
        results[w] = out
    if len(workloads) == 1:
        if results[workloads[0]] is not None:
            print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
