#!/usr/bin/env bash
# Runs the JSON-emitting benchmarks and assembles their per-binary JSON lines into
# BENCH_9.json (schema BENCH_9: one row per measurement with name, latency-or-rate
# percentiles, msgs/sec, and bytes/sec — same row shape as BENCH_2..8 — plus a
# "router_wan" section carrying the per-segment bandwidth breakdown from the
# capture accountant, see src/capture/bandwidth.h, a "hot_path_allocs/steady" row
# carrying the allocs_per_msg counter from the instrumented-allocator bench, the
# journal_append rows measuring write-ahead ledger commit cost, a "profile"
# section: the median over a busprof seed sweep of the per-stage critical-path
# p99s and queue high-watermarks for the profiled WAN scenario, with its seed
# list, see tools/busprof and scripts/profile_median.py, and from BENCH_9 on the
# telemetry_overhead rows carrying the stats plane's self-measured overhead_ratio
# at trace-sampling periods {1, 64, off} — the bench binary itself fails if the
# ratio reaches 5% at the default 1/64 sampling). Afterwards, diffs the fresh
# numbers against the newest previous BENCH_*.json via scripts/bench_diff.py and
# fails on a >10% latency regression, a >10% throughput-bench delivery-rate drop,
# a >10% hot-path allocation growth, a >10% regression in a profile stage p99 /
# queue high-watermark median (only against a baseline with the same seed
# list), or a >10% overhead_ratio growth.
# See docs/TELEMETRY.md.
#
#   scripts/bench.sh                     # build in build-bench/, write BENCH_9.json
#   BUILD_DIR=build scripts/bench.sh     # reuse an existing build dir
#   OUT=/tmp/b.json scripts/bench.sh     # write somewhere else
#   BENCHES="rmi_latency" scripts/bench.sh  # run a subset
#   DIFF_THRESHOLD=25 scripts/bench.sh   # loosen the regression gate (one-off,
#                                        # e.g. after a measurement-methodology change)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
JOBS=${JOBS:-$(nproc)}
OUT=${OUT:-BENCH_9.json}
DIFF_THRESHOLD=${DIFF_THRESHOLD:-10}
BENCHES=${BENCHES:-"rmi_latency fig5_latency fig6_throughput_msgs fig7_throughput_bytes fig8_subjects router_wan hot_path_allocs journal_append telemetry_overhead"}

echo "== configure + build (${BUILD_DIR})"
cmake -B "${BUILD_DIR}" -S . > /dev/null
# shellcheck disable=SC2086
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ${BENCHES} busprof

tmpdir=$(mktemp -d)
trap 'rm -rf "${tmpdir}"' EXIT

for b in ${BENCHES}; do
  echo "== ${b}"
  : > "${tmpdir}/${b}.jsonl"
  # router_wan additionally exports its bandwidth breakdown for the BENCH section.
  BENCH_JSON="${tmpdir}/${b}.jsonl" \
    BENCH_BANDWIDTH_JSON="${tmpdir}/${b}.bandwidth.json" \
    "${BUILD_DIR}/bench/${b}" > "${tmpdir}/${b}.log"
  tail -3 "${tmpdir}/${b}.log" | sed 's/^/   /'
done

# The profile section: the per-key median of busprof's critical-path stage p99s
# and queue high-watermarks for the profiled WAN scenario over seeds 42 and
# 1-30 (scripts/profile_median.py; a single seed flips on any fault re-draw).
# Empty under -DIB_TELEMETRY=OFF builds, where busprof traces no paths.
echo "== busprof (seeds 42, 1-30)"
profile_args=()
for seed in 42 $(seq 1 30); do
  "${BUILD_DIR}/tools/busprof/busprof" --json --seed "${seed}" > "${tmpdir}/profile.${seed}.json"
  profile_args+=("${seed}:${tmpdir}/profile.${seed}.json")
done
if command -v python3 > /dev/null; then
  python3 scripts/profile_median.py "${profile_args[@]}" > "${tmpdir}/profile.json"
fi

{
  printf '{"schema": "BENCH_9",\n'
  if [ -s "${tmpdir}/router_wan.bandwidth.json" ]; then
    printf '"router_wan": %s,\n' "$(cat "${tmpdir}/router_wan.bandwidth.json")"
  fi
  if [ -s "${tmpdir}/profile.json" ]; then
    printf '"profile": %s,\n' "$(cat "${tmpdir}/profile.json")"
  fi
  printf '"results": [\n'
  first=1
  for b in ${BENCHES}; do
    while IFS= read -r line; do
      [ -n "${line}" ] || continue
      if [ "${first}" -eq 1 ]; then first=0; else printf ',\n'; fi
      printf '  %s' "${line}"
    done < "${tmpdir}/${b}.jsonl"
  done
  printf '\n]}\n'
} > "${OUT}"

if command -v python3 > /dev/null; then
  python3 -m json.tool "${OUT}" > /dev/null && echo "== ${OUT}: valid JSON"
fi
echo "== wrote ${OUT} ($(grep -c '"name"' "${OUT}") results)"

# Compare against the newest committed baseline that isn't the file just written;
# a >10% regression on any latency percentile fails the run.
if command -v python3 > /dev/null; then
  baseline=""
  for f in $(ls -1 BENCH_*.json 2> /dev/null | sort -rV); do
    [ "${f}" != "$(basename "${OUT}")" ] && { baseline="${f}"; break; }
  done
  if [ -n "${baseline}" ]; then
    echo "== bench_diff vs ${baseline}"
    python3 scripts/bench_diff.py "${baseline}" "${OUT}" --threshold "${DIFF_THRESHOLD}"
  else
    echo "== bench_diff: no previous BENCH_*.json baseline; skipping"
  fi
fi
