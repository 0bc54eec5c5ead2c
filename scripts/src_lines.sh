#!/usr/bin/env bash
# Line counts of the simulator library: one row per src/ module (every
# *.h and *.cc under src/<module>/) and the src/ total. Report only: it
# always exits 0, so the CI lint job and scripts/check.sh --lint-only print
# the size every change moves to, without gating on it.
#
# Usage: scripts/src_lines.sh
set -uo pipefail

cd "$(dirname "$0")/.." || exit 0

count_lines() {
  find "$@" -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
    xargs -0 -r cat | wc -l
}

echo "src/ lines (*.h, *.cc)"
for dir in src/*/; do
  printf '  %-14s %6d\n' "$(basename "$dir")" "$(count_lines "$dir")"
done
printf '  %-14s %6d\n' total "$(count_lines src)"
exit 0
