#!/usr/bin/env bash
# Times every figure bench at full corpus size and prints the wall seconds
# of each binary and of the whole suite. The worker count is the caller's
# VROOM_JOBS; bench output is discarded.
#
#   VROOM_JOBS=4 scripts/time_benches.sh <build_dir>
#
# Wall time depends on the host: compare suites only between runs on one
# machine, alternating the builds being compared.
set -euo pipefail

build_dir="${1:?usage: time_benches.sh <build_dir>}"
unset VROOM_TRACE VROOM_OUT_DIR VROOM_PROFILE

total=0
for bin in "$build_dir"/bench/*; do
  name="$(basename "$bin")"
  [[ -f "$bin" && -x "$bin" ]] || continue
  start=$EPOCHREALTIME
  if ! "$bin" > /dev/null 2>&1; then
    echo "error: $name failed" >&2
    exit 1
  fi
  secs=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { print b - a }')
  total=$(awk -v t="$total" -v s="$secs" 'BEGIN { print t + s }')
  printf '%-28s %7.2f s\n' "$name" "$secs"
done
printf '%-28s %7.2f s  (VROOM_JOBS=%s)\n' total "$total" "${VROOM_JOBS:-unset}"
