#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: a base revision against the
# working tree, in interleaved rounds.
#
#   scripts/bench_ab.sh <base-rev> [workload...] [--rounds N] [--seconds S]
#
# Builds <base-rev>'s perfbench in a temporary `git worktree` and the
# working tree's perfbench, each with its own CARGO_TARGET_DIR, then runs
# BENCHMARK.json's command for every workload (default: all it lists)
# in N rounds (default 10) of S seconds each (default: its run_seconds).
# Round r runs both sides with seed r; odd rounds run base first, even
# rounds head first, so slow stretches of a shared host fall on both
# sides alike. The worktree is removed on exit.
#
# For each end-to-end metric BENCHMARK.json lists, the report prints each
# side's median and min–max, the head/base median ratio, the number of
# rounds in which head read better, and the base's interquartile range
# over its median. Set BENCH_AB_DIR to keep the builds and per-run JSON
# lines in a known directory (default: a fresh temporary one). Needs git,
# cargo and python3 (stdlib only).
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

usage() {
    echo "usage: scripts/bench_ab.sh <base-rev> [workload...] [--rounds N] [--seconds S]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
BASE_REV="$1"
shift
ROUNDS=10
SECONDS_PER_RUN=""
WORKLOADS=()
while [ $# -gt 0 ]; do
    case "$1" in
        --rounds) [ $# -ge 2 ] || usage; ROUNDS="$2"; shift 2 ;;
        --seconds) [ $# -ge 2 ] || usage; SECONDS_PER_RUN="$2"; shift 2 ;;
        -*) usage ;;
        *) WORKLOADS+=("$1"); shift ;;
    esac
done
[[ "$ROUNDS" =~ ^[1-9][0-9]*$ ]] || { echo "--rounds must be a positive integer" >&2; exit 2; }

BASE_SHA="$(git rev-parse --verify "${BASE_REV}^{commit}")"

# The benchmark's command, run seconds and workloads, from BENCHMARK.json.
mapfile -t CMD < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
[ -n "$SECONDS_PER_RUN" ] || SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ ${#WORKLOADS[@]} -eq 0 ]; then
    mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

WORK="${BENCH_AB_DIR:-$(mktemp -d)}"
mkdir -p "$WORK/runs"
BASE_TREE="$WORK/base"
cleanup() {
    git -C "$ROOT" worktree remove --force "$BASE_TREE" 2>/dev/null || true
    git -C "$ROOT" worktree prune
}
trap cleanup EXIT
git worktree add --detach "$BASE_TREE" "$BASE_SHA" >/dev/null

# side -> checkout directory and target directory
declare -A TREE=([base]="$BASE_TREE" [head]="$ROOT")
declare -A TARGET=([base]="$WORK/target-base" [head]="$WORK/target-head")

for side in base head; do
    echo "== building $side perfbench (${TREE[$side]}) =="
    (cd "${TREE[$side]}" && CARGO_TARGET_DIR="${TARGET[$side]}" \
        cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

run_one() {
    local side="$1" workload="$2" round="$3"
    local out="$WORK/runs/$workload.$side.$round"
    echo "-- round $round/$ROUNDS $workload $side"
    (cd "${TREE[$side]}" && CARGO_TARGET_DIR="${TARGET[$side]}" \
        "${CMD[@]}" --workload "$workload" --seed "$round" --seconds "$SECONDS_PER_RUN" --trace 0) \
        >"$out.log"
    tail -n 1 "$out.log" >"$out.json"
}

for round in $(seq 1 "$ROUNDS"); do
    if [ $((round % 2)) -eq 1 ]; then order=(base head); else order=(head base); fi
    for workload in "${WORKLOADS[@]}"; do
        for side in "${order[@]}"; do
            run_one "$side" "$workload" "$round"
        done
    done
done

echo "== base ${BASE_SHA:0:12} vs head (working tree), $ROUNDS rounds x ${SECONDS_PER_RUN} s, runs in $WORK/runs =="
python3 - "$WORK/runs" "$ROUNDS" "${WORKLOADS[@]}" <<'EOF'
import json, statistics, sys

runs, rounds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

for workload in workloads:
    res = {side: [json.load(open(f"{runs}/{workload}.{side}.{r}.json"))
                  for r in range(1, rounds + 1)] for side in ("base", "head")}
    print(f"\n{workload}")
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in res[side])
        attempted = sum(r["attempted"] for r in res[side])
        print(f"  {side}: {failed} of {attempted} outputs failed")
    print(f"  {'metric':<18} {'base median [min-max]':>28} {'head median [min-max]':>28}"
          f" {'head/base':>9} {'head better':>11} {'base IQR/med':>12}")
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in res[s]] for s in res}
        med = {s: statistics.median(v) for s, v in vals.items()}
        lower = m["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        q1, q3 = quartiles(vals["base"])
        ratio = med["head"] / med["base"] if med["base"] else float("nan")
        iqr = (q3 - q1) / med["base"] if med["base"] else float("nan")
        cell = {s: f"{med[s]:.4g} [{min(vals[s]):.4g}-{max(vals[s]):.4g}]" for s in vals}
        print(f"  {name:<18} {cell['base']:>28} {cell['head']:>28}"
              f" {ratio:>9.3f} {wins:>8}/{rounds:<2} {iqr:>12.3f}")
EOF
