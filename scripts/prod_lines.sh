#!/usr/bin/env bash
# Production lines per crate and per file.
#
# A file's production lines are all of its lines but its test modules:
# a line `#[cfg(test)]`, at any indentation, followed by `mod NAME {`
# is skipped up to the module's closing `}` at the same indentation, and
# counting goes on after it. A `#[cfg(test)]`-gated `include!("…");`
# line is skipped too, and the file it pulls in is test code and counts
# 0. Blank lines and comments count. Crates are `crates/<name>/src` plus
# the facade's `src/`.
#
# Usage: scripts/prod_lines.sh [crate...]   e.g. scripts/prod_lines.sh netsim
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '
    end != "" { if ($0 == end) end = ""; next }
    gated {
      gated = 0
      if ($0 ~ /^[ \t]*(pub[^ ]* )?mod [A-Za-z0-9_]+ \{$/) {
        match($0, /^[ \t]*/)
        end = substr($0, 1, RLENGTH) "}"
        next
      }
      if ($0 ~ /^[ \t]*include!\(.*\);$/) next
      n++
    }
    /^[ \t]*#\[cfg\(test\)\]$/ { gated = 1; next }
    { n++ }
    END { print n + gated }
  ' "$1"
}

# The files under $1 that a line `include!("…");` right after a
# `#[cfg(test)]` line names, as paths beside the including file.
test_includes() {
  find "$1" -name '*.rs' -exec awk '
    gated && match($0, /^include!\("[^"]+"\);$/) {
      dir = FILENAME
      sub(/[^\/]*$/, "", dir)
      print dir substr($0, 11, RLENGTH - 13)
    }
    { gated = ($0 == "#[cfg(test)]") }
  ' {} +
}

report() {
  local name=$1 dir=$2 total=0 n f tests
  tests=$(test_includes "$dir")
  while IFS= read -r f; do
    if grep -qxF "$f" <<<"$tests"; then
      n=0
    else
      n=$(count "$f")
    fi
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
