#!/usr/bin/env bash
# Runs the substrate micro-benchmarks and records the tracked throughput
# baseline as JSON.
#
#   scripts/bench_substrate.sh [build_dir] [out_file]
#
#   build_dir  cmake build tree containing bench/micro_substrate
#              (default: build)
#   out_file   where to write the google-benchmark JSON report
#              (default: BENCH_substrate.json in the repo root)
#
# Environment:
#   VROOM_BENCH_FILTER    benchmark name regex (default: all benchmarks)
#   VROOM_BENCH_MIN_TIME  per-benchmark min run time in seconds (default 0.5)
#
# The interesting series for cross-commit comparison:
#   BM_LoadsPerSecond/...  items_per_second  = end-to-end loads/sec
#                          sim_events_per_sec, peak_rss_bytes counters
#   BM_DeployMacroServesPerSecond
#                          items_per_second  = deployment macro serves/sec
#                          (manual time: the scenario's macro wall clock)
# Compare against the previous baseline with e.g.
#   jq '.benchmarks[] | select(.name|startswith("BM_LoadsPerSecond"))
#       | {name, items_per_second}' BENCH_substrate.json
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_file="${2:-$repo_root/BENCH_substrate.json}"
bench_bin="$build_dir/bench/micro_substrate"

if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable" >&2
  echo "build it first: cmake --build $build_dir --target micro_substrate" >&2
  exit 1
fi

filter="${VROOM_BENCH_FILTER:-.}"
min_time="${VROOM_BENCH_MIN_TIME:-0.5}"

# Metrics snapshot (obs registry CSV/Prometheus export + wall sidecar)
# written next to the JSON report for inspecting the run. It is not
# committed (see .gitignore); no script or test reads it. Override by
# exporting VROOM_METRICS yourself.
metrics_dir="${VROOM_METRICS:-${out_file%.json}_metrics}"

# Note: the bundled google-benchmark predates the "0.5s" suffix syntax.
VROOM_METRICS="$metrics_dir" "$bench_bin" \
  --benchmark_filter="$filter" \
  --benchmark_min_time="$min_time" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$out_file"

echo
echo "JSON report: $out_file"
echo "metrics snapshot: $metrics_dir"
