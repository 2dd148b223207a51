#!/usr/bin/env bash
# ctest check for example_vroom_cli's numeric flags: every malformed or
# out-of-range value must print the usage line and exit with status 2, and
# a well-formed run must exit 0.
#
#   scripts/check_cli_args.sh <path to example_vroom_cli>
set -uo pipefail

cli="${1:?usage: check_cli_args.sh <example_vroom_cli>}"
unset VROOM_BENCH_PAGES VROOM_TRACE VROOM_OUT_DIR VROOM_METRICS
failed=0

expect() {  # expect <status> <args...>
  local want="$1"; shift
  "$cli" "$@" > /dev/null 2>&1
  local got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: vroom_cli $* exited $got, expected $want" >&2
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
  expect 2 --pages 1 --loads 1 $bad
done
expect 2 --pages 1 --seed " 7"
expect 2 --pages 1 --seed "7 "
expect 0 --pages 1 --loads 1 --seed 7 --loss 0.001 --rrc 0 --strategy http2

exit "$failed"
