#!/usr/bin/env bash
# Paired A/B of the perfbench benchmark: a base revision against the
# working tree.
#
# Builds <base-rev>'s perfbench in a temporary `git worktree` and the
# working tree's beside it (each in its own target directory), then runs
# the two binaries alternately — base first in odd pairs, the working tree
# first in even pairs — for N pairs per workload, at the run length
# BENCHMARK.json sets. For every end-to-end metric it prints each side's
# median and quartiles, the change of the median, how many pairs the
# working tree won (ties count for neither) and whether the medians differ
# by more than the base's interquartile range; and the failed runs.
#
# Usage:
#   scripts/perf_ab.sh <base-rev> [pairs=10] [seed=0] [workload...]
#   scripts/perf_ab.sh HEAD~1 10 0 kernels
#
# Needs python3 (JSON and statistics). Removes the worktree and both
# builds on exit; every run's result line is kept in a log it names.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${1:?usage: $0 <base-rev> [pairs] [seed] [workload...]}
PAIRS=${2:-10}
SEED=${3:-0}
shift $(($# < 3 ? $# : 3))
WORKLOADS=${*:-kernels apps}
RUN_SECONDS=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

TMP=$(mktemp -d)
LOG=$(mktemp --suffix=.perf_ab.log)
cleanup() {
  git worktree remove --force "$TMP/base" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

git worktree add --detach --quiet "$TMP/base" "$BASE"
build() { # <source tree> <name>
  echo "== building $2's perfbench ($1)" >&2
  CARGO_TARGET_DIR="$TMP/target-$2" cargo build --quiet --release --offline --locked \
    --manifest-path "$1/perfbench/Cargo.toml"
  cp "$TMP/target-$2/release/dvs-perfbench" "$TMP/$2.bin"
}
build "$TMP/base" base
build . change

for w in $WORKLOADS; do
  for i in $(seq "$PAIRS"); do
    order="base change"
    if [ $((i % 2)) -eq 0 ]; then order="change base"; fi
    for side in $order; do
      echo "== $w pair $i/$PAIRS: $side" >&2
      line=$("$TMP/$side.bin" --workload "$w" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 |
        tail -n 1)
      echo "$w $i $side $line" >>"$LOG"
    done
  done
done

python3 - "$LOG" "$BASE" "$SEED" "$RUN_SECONDS" <<'EOF'
import json, statistics, sys

log, base_rev, seed, secs = sys.argv[1:]
higher = {m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]
          if m["better"] == "higher"}
runs = {}  # workload -> side -> [result]
for raw in open(log):
    w, pair, side, line = raw.split(" ", 3)
    runs.setdefault(w, {}).setdefault(side, []).append(json.loads(line))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for w, sides in runs.items():
    base, change = sides["base"], sides["change"]
    print(f"\n{w}: {len(base)} pairs, seed {seed}, {secs} s runs, base {base_rev}")
    for side, rs in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in rs)
        bad = sum(not r["correct"] for r in rs)
        print(f"  {side}: {failed} failed operations, {bad} runs not correct")
    rows = [("metric", "base median [Q1, Q3]", "change median [Q1, Q3]", "change",
             "wins", "gap > base IQR")]
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        sign = -1 if name in higher else 1
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        (b1, bm, b3), (c1, cm, c3) = quartiles(b), quartiles(c)
        rows.append((name, f"{bm:.5g} [{b1:.5g}, {b3:.5g}]", f"{cm:.5g} [{c1:.5g}, {c3:.5g}]",
                     f"{100 * (cm / bm - 1):+.2f}%" if bm else "n/a", f"{wins}/{len(b)}",
                     "yes" if abs(cm - bm) > b3 - b1 else "no"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(f"{v:<{width}}" if i == 0 else f"{v:>{width}}"
                               for i, (v, width) in enumerate(zip(r, widths))))
EOF
echo "runs: $LOG" >&2
