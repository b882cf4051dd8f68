#!/usr/bin/env bash
# Paired benchmark runs of a parent revision and the working tree — the
# procedure behind every perf claim and "no regression" line in
# CHANGES.md, by hand until PR 24.
#
#   scripts/paired_runs.sh <parent-rev> --workload W [--seed S] [--pairs N]
#                          [--seconds T] [--trace] [--cgu1] [--scratch DIR]
#
# Exports <parent-rev> into DIR/parent (git archive; the working tree is
# the change, uncommitted edits included), builds each side's
# benchmark/ into its own target directory, then runs the two binaries
# N times as run.sh would (`--workload W --seed S --seconds T --trace 0`)
# with separate --work-dir / --results-dir, alternating which side goes
# first. Prints, per end-to-end metric of BENCHMARK.json: both medians
# and quartiles, the pairs the change won, and whether the move exceeds
# the metric's bound or the parent's inter-quartile range.
#
#   --trace   a traced pass instead: every per-layer metric, no verdicts
#             (per-layer numbers explain, they do not gate)
#   --cgu1    CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1 on both sides —
#             ROADMAP's check that a move is not code placement
#
# Run from the root of the checkout. Nothing under benchmark/ is edited;
# cargo's rewrite of benchmark/Cargo.lock is restored on exit, unless the
# file already differed from the index when the script started (an
# intended edit, kept as found).
set -euo pipefail

if [[ ! -f benchmark/Cargo.toml || $# -lt 1 ]]; then
    echo "usage (from the checkout's root): scripts/paired_runs.sh <parent-rev> --workload W" \
        "[--seed S] [--pairs N] [--seconds T] [--trace] [--cgu1] [--scratch DIR]" >&2
    exit 2
fi
parent_rev="$1"
shift
workload="" seed=7 pairs=10 trace=0 cgu1=0 scratch="${TMPDIR:-/tmp}/paired_runs"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --scratch) scratch="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --cgu1) cgu1=1; shift ;;
        *) echo "paired_runs.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[[ -n "$workload" ]] || { echo "paired_runs.sh: --workload is required" >&2; exit 2; }
parent_rev="$(git rev-parse --verify "$parent_rev^{commit}")"

mkdir -p "$scratch"
scratch="$(cd "$scratch" && pwd)"
rm -rf "$scratch/parent"
mkdir -p "$scratch/parent"
git archive "$parent_rev" | tar -x -C "$scratch/parent"

suffix=$((cgu1 ? 1 : 16))
[[ $cgu1 -eq 1 ]] && export CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
build() { # <checkout> <side>
    CARGO_TARGET_DIR="$scratch/target-$2-cgu$suffix" \
        cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" >&2
}
restore_lock=:
if git diff --quiet -- benchmark/Cargo.lock; then
    restore_lock="git checkout --quiet -- benchmark/Cargo.lock"
fi
trap '$restore_lock' EXIT
build "$scratch/parent" parent
build . change

out="$scratch/runs-$workload-seed$seed-trace$trace-cgu$suffix"
rm -rf "$out"
mkdir -p "$out"
run() { # <side> <pair>
    "$scratch/target-$1-cgu$suffix/release/spotlight-e2e" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --work-dir "$out/work-$1" --results-dir "$out/results-$1" 2>/dev/null |
        tail -n 1 >"$out/$1-$2.json"
}
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        run "$side" "$pair"
    done
    echo "pair $pair/$pairs done (${order[*]})" >&2
done

python3 - "$out" "$pairs" "$trace" "$parent_rev" "$workload" "$seed" "$suffix" <<'EOF'
import json, sys
from statistics import median, quantiles

out, pairs, trace, rev, workload, seed, cgu = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", *sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
runs = {side: [json.load(open(f"{out}/{side}-{p}.json")) for p in range(1, pairs + 1)]
        for side in ("parent", "change")}
print(f"parent {rev[:7]} vs working tree, {workload}, seed {seed}, {pairs} pairs, "
      f"codegen-units {cgu}, trace {int(trace)}")
for side, results in runs.items():
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    wrong = sum(not r["correct"] for r in results)
    print(f"  {side}: {failed} of {attempted} operations failed, {wrong} runs incorrect")

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4, method="inclusive")
    return q[0], q[2]

end_to_end = {m["name"]: m for m in spec["end_to_end"]}
names = [n for n in runs["parent"][0]["metrics"] if trace or n in end_to_end]
print(f"{'metric':32} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'move':>8}  verdict")
for name in names:
    p = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
    c = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
    if not p or not c:
        continue
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    pm, cm = median(p), median(c)
    move = (cm - pm) / pm if pm else 0.0
    cells = (f"{name:32} " + f"{pm:.6g} [{p1:.6g}, {p3:.6g}]".rjust(36) + " "
             + f"{cm:.6g} [{c1:.6g}, {c3:.6g}]".rjust(36) + f" {move:+8.1%}")
    if name not in end_to_end:
        print(cells)
        continue
    higher = end_to_end[name]["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    won = sum(better(cv, pv) for pv, cv in zip(p, c))
    lost = sum(better(pv, cv) for pv, cv in zip(p, c))
    worse_by = -move if higher else move
    verdict = [f"won {won}/{len(p)}, lost {lost}"]
    if worse_by > end_to_end[name]["bound"]:
        verdict.append(f"WORSE THAN THE {end_to_end[name]['bound']:.0%} BOUND")
    verdict.append("medians apart by more than parent's IQR" if abs(cm - pm) > p3 - p1
                   else "inside parent's IQR")
    if len(p) >= 10 and won >= 0.9 * len(p) and abs(cm - pm) > p3 - p1:
        verdict.append("meets the gain rule")
    print(cells + "  " + "; ".join(verdict))
EOF
