#!/usr/bin/env bash
# Fails when the root package or a crate under crates/ declares a dependency
# (normal, dev or build) that its src/, tests/, benches/ and examples/ never
# name. The root manifest's [workspace.dependencies] table lists what members
# may use, not what the root package uses, so it is skipped. A dependency
# `foo-bar` counts as named by `foo_bar::`, `use foo_bar` or
# `extern crate foo_bar` anywhere in those directories.
#
# Usage: scripts/unused-deps.sh [CHECKOUT]   (default: the current directory)
set -euo pipefail
cd "${1:-.}"
status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  dirs=()
  for sub in src tests benches examples; do
    [ -d "$dir/$sub" ] && dirs+=("$dir/$sub")
  done
  # Dependency names: the keys of every [*dependencies] table but the
  # workspace's, and the `[dependencies.NAME]` table form.
  deps=$(awk '
    /^\[/ {
      in_deps = ($0 ~ /^\[([^]]*\.)?(dev-|build-)?dependencies\]$/ && $0 !~ /^\[workspace\./)
      if (match($0, /^\[([^]]*\.)?(dev-|build-)?dependencies\.[^]]+\]$/)) {
        name = $0; sub(/^.*dependencies\./, "", name); sub(/\]$/, "", name); print name
      }
      next
    }
    in_deps && /^[A-Za-z0-9_-]+[ .=]/ { name = $0; sub(/[ .=].*$/, "", name); print name }
  ' "$manifest" | sort -u)
  for dep in $deps; do
    ident=${dep//-/_}
    if ! grep -rqE "(^|[^A-Za-z0-9_])${ident}::|use ${ident}([^A-Za-z0-9_]|$)|extern crate ${ident}([^A-Za-z0-9_]|$)" \
      --include='*.rs' "${dirs[@]}"; then
      echo "$manifest: \`$dep\` is declared but never used" >&2
      status=1
    fi
  done
done
exit $status
