#!/usr/bin/env bash
# ctest check of the determinism contract on figure output: every bench
# named on the command line must print byte-identical stdout at
# VROOM_JOBS=1 and VROOM_JOBS=4, with every other VROOM_* variable unset.
# Fleet telemetry goes to stderr, which is not compared.
#
#   scripts/check_jobs_determinism.sh <bench binary>...
set -uo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: check_jobs_determinism.sh <bench binary>..." >&2
  exit 2
fi
for var in $(compgen -e); do
  [[ "$var" == VROOM_* ]] && unset "$var"
done
out="$(mktemp -d)" || exit 1
trap 'rm -rf "$out"' EXIT
failed=0

for bin in "$@"; do
  name="$(basename "$bin")"
  ran=1
  for jobs in 1 4; do
    if ! VROOM_JOBS=$jobs "$bin" > "$out/$name.$jobs" 2> /dev/null; then
      echo "FAIL: $name exited non-zero at VROOM_JOBS=$jobs" >&2
      ran=0
    fi
  done
  if [[ "$ran" == 0 ]]; then
    failed=1
  elif cmp -s "$out/$name.1" "$out/$name.4"; then
    echo "ok: $name"
  else
    echo "FAIL: $name stdout differs between VROOM_JOBS=1 and 4" >&2
    diff "$out/$name.1" "$out/$name.4" | head -20 >&2
    failed=1
  fi
done
exit "$failed"
