#!/usr/bin/env bash
# ctest check for malformed numbers: every malformed or out-of-range value
# of the examples' numeric arguments must print the usage line and exit
# with status 2, and a well-formed run must exit 0. Covers
# example_vroom_cli's flags and example_incremental_deployment's page
# count. Each further binary runs once with VROOM_JOBS=abc and must exit 0
# after exactly one "[env] warning" line, however many sweeps, task
# fan-outs and tables it makes.
#
#   scripts/check_cli_args.sh <example_vroom_cli> <example_incremental_deployment> [<bench>...]
set -uo pipefail

usage="usage: check_cli_args.sh <example_vroom_cli> <example_incremental_deployment> [<bench>...]"
cli="${1:?$usage}"
incremental="${2:?$usage}"
shift 2
unset VROOM_TRACE VROOM_OUT_DIR
failed=0

expect() {  # expect <status> <binary> <args...>
  local want="$1" bin="$2"; shift 2
  local out
  out="$("$bin" "$@" 2>&1 > /dev/null)"
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $(basename "$bin") $* exited $got, expected $want" >&2
    failed=1
  elif [[ "$want" == 2 && "$out" != usage:* ]]; then
    echo "FAIL: $(basename "$bin") $* printed no usage line" >&2
    failed=1
  fi
}

for bad in \
    "--pages 0" "--pages 3x" "--pages abc" "--pages -2" "--pages" \
    "--loads 0" "--loads 1.5" \
    "--seed banana" "--seed -1" "--seed 18446744073709551616" \
    "--loss abc" "--loss 2" "--loss 1" "--loss -0.1" "--loss nan" \
    "--rrc -500" "--rrc 250ms" "--rrc 1e3"; do
  # Word splitting on purpose: each entry is a flag and its value.
  # shellcheck disable=SC2086
  expect 2 "$cli" --pages 1 --loads 1 $bad
done
expect 2 "$cli" --pages 1 --seed " 7"
expect 2 "$cli" --pages 1 --seed "7 "
expect 0 "$cli" --pages 1 --loads 1 --seed 7 --loss 0.001 --rrc 0 --strategy http2

for bad in -5 0 abc 3x "" " 3" 1.5 99999999999999999999; do
  expect 2 "$incremental" "$bad"
done
expect 0 "$incremental" 1

for bin in "$@"; do
  err="$(VROOM_JOBS=abc "$bin" 2>&1 > /dev/null)"
  status=$?
  warnings="$(grep -c '^\[env\] warning' <<< "$err")"
  if [[ "$status" != 0 || "$warnings" != 1 ]]; then
    echo "FAIL: $(basename "$bin") at VROOM_JOBS=abc exited $status" \
         "with $warnings [env] warnings, expected 0 with 1" >&2
    failed=1
  fi
done

exit "$failed"
