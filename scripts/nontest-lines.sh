#!/usr/bin/env bash
# Non-test Rust lines per crate and per dependency shim: the lines before
# each file's first `#[cfg(test)]`, summed per source directory, then the
# total. Informational; the ROADMAP tracks the total.
#
# Usage: scripts/nontest-lines.sh [CHECKOUT]   (default: the current directory)
set -euo pipefail
cd "${1:-.}"
total=0
for src in src crates/*/src shims/*/src; do
  n=$(find "$src" -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; \
    | awk '{ s += $1 } END { print s + 0 }')
  printf '%7d  %s\n' "$n" "$src"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
