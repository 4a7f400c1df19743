#!/usr/bin/env bash
# Production lines per crate and per file.
#
# A file's production lines are its lines before the first line that is
# exactly `#[cfg(test)]` at column 0 (the unit-test module), or all of
# its lines if it has none. Blank lines and comments count. Crates are
# `crates/<name>/src` plus the facade's `src/`.
#
# Usage: scripts/prod_lines.sh [crate...]   e.g. scripts/prod_lines.sh netsim
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '/^#\[cfg\(test\)\]$/ { exit } { n++ } END { print n + 0 }' "$1"
}

report() {
  local name=$1 dir=$2 total=0 n f
  while IFS= read -r f; do
    n=$(count "$f")
    total=$((total + n))
    printf '  %6d  %s\n' "$n" "$f"
  done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
  printf '%s: %d\n' "$name" "$total"
  grand=$((grand + total))
}

grand=0
if [ $# -eq 0 ]; then
  set -- $(ls crates) facade
fi
for c in "$@"; do
  if [ "$c" = facade ]; then
    report facade src
  else
    report "$c" "crates/$c/src"
  fi
done
printf 'total: %d\n' "$grand"
