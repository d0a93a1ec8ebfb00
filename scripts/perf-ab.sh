#!/usr/bin/env bash
# A/B comparison of two commits on one perfbench workload.
#
# Usage: scripts/perf-ab.sh <base-rev> <workload> <pairs> <seconds> [seed]
#
# Exports the committed trees of <base-rev> and HEAD (`git archive`, so
# uncommitted edits take no part), builds perfbench for each into its own
# CARGO_TARGET_DIR, then runs `perfbench/run.py --trace 0` on both sides
# <pairs> times, alternating which side runs first. Prints, per metric, each
# side's median and quartiles and how many pairs HEAD won (ties count for
# neither); a metric's better direction comes from BENCHMARK.json. Every raw
# result line is kept in $PERF_AB_DIR (default .perf-ab/ in the checkout).
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <base-rev> <workload> <pairs> <seconds> [seed]" >&2
  exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
root=$(git rev-parse --show-toplevel)
work=$(mkdir -p "${PERF_AB_DIR:-$root/.perf-ab}" && cd "${PERF_AB_DIR:-$root/.perf-ab}" && pwd)
tag="$workload-s$seed-$(date +%Y%m%d%H%M%S)"

for side in base head; do
  rev=$base_rev
  [ "$side" = head ] && rev=HEAD
  sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
  echo "$side: $rev = $sha" >&2
  rm -rf "${work:?}/$side-src"
  mkdir -p "$work/$side-src"
  git -C "$root" archive "$sha" | tar -x -C "$work/$side-src"
  CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
    --manifest-path "$work/$side-src/perfbench/Cargo.toml"
done

run_side() {
  (cd "$work/$1-src" && CARGO_TARGET_DIR="$work/$1-target" python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null) \
    | tail -n 1 >>"$work/$tag.$1.jsonl"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
  for side in $order; do
    run_side "$side"
  done
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$work/$tag.base.jsonl" "$work/$tag.head.jsonl" "$root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

base = [json.loads(line) for line in open(sys.argv[1])]
head = [json.loads(line) for line in open(sys.argv[2])]
spec = json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for side, runs in (("base", base), ("head", head)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"{side}: {len(runs)} runs, {failed} of {attempted} operations failed")
print(f"{'metric':<24} {'base q1/median/q3':>36} {'head q1/median/q3':>36} {'head wins':>10}")
for name in base[0]["metrics"]:
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    sign = {"higher": 1, "lower": -1}.get(better.get(name))
    wins = "n/a"
    if sign is not None:
        won = sum(1 for x, y in zip(b, h) if (y - x) * sign > 0)
        wins = f"{won}/{len(b)}"
    fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
    print(f"{name:<24} {fmt(quartiles(b)):>36} {fmt(quartiles(h)):>36} {wins:>10}")
EOF
