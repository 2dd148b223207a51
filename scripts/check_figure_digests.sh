#!/usr/bin/env bash
# ctest check that pins figure output to a record: every bench named on the
# command line runs once at VROOM_JOBS=4, with every other VROOM_* variable
# unset, and the sha256 of its stdout must equal the line recorded for it
# in scripts/figure_digests.txt. The record must name exactly the benches
# given. A change that moves a figure on purpose re-records the file with
# --record and reports the changed lines.
#
#   scripts/check_figure_digests.sh [--record] <bench binary>...
set -uo pipefail

record=0
if [[ "${1:-}" == --record ]]; then
  record=1
  shift
fi
if [[ $# -eq 0 ]]; then
  echo "usage: check_figure_digests.sh [--record] <bench binary>..." >&2
  exit 2
fi
digests="$(cd "$(dirname "$0")" && pwd)/figure_digests.txt"
for var in $(compgen -e); do
  [[ "$var" == VROOM_* ]] && unset "$var"
done
out="$(mktemp -d)" || exit 1
trap 'rm -rf "$out"' EXIT
failed=0

for bin in "$@"; do
  name="$(basename "$bin")"
  if ! VROOM_JOBS=4 "$bin" > "$out/$name" 2> /dev/null; then
    echo "FAIL: $name exited non-zero" >&2
    failed=1
    continue
  fi
  echo "$(sha256sum < "$out/$name" | cut -d' ' -f1)  $name" >> "$out/digests"
done
[[ "$failed" == 0 ]] || exit 1
sort -k2 "$out/digests" > "$out/got"

if [[ "$record" == 1 ]]; then
  cp "$out/got" "$digests"
  echo "recorded $(wc -l < "$digests") digests in $digests"
  exit 0
fi
if [[ ! -f "$digests" ]]; then
  echo "FAIL: no record at $digests (run with --record)" >&2
  exit 1
fi
if cmp -s "$out/got" "$digests"; then
  echo "ok: $(wc -l < "$digests") benches match $digests"
  exit 0
fi
echo "FAIL: figure stdout differs from $digests (recorded < > this build):" >&2
diff "$digests" "$out/got" >&2
exit 1
