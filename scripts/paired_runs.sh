#!/usr/bin/env bash
# Paired benchmark runs of a parent revision and the working tree — the
# procedure behind every perf claim and "no regression" line in
# CHANGES.md, by hand until PR 24.
#
#   scripts/paired_runs.sh <parent-rev> --workload W|all [--seed S] [--pairs N]
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
#   --workload all   every workload BENCHMARK.json lists, in one series:
#             each pair runs them all in turn, the side that goes first
#             alternating run by run, and one table covers all of them
#             (the no-regression evidence of a PR that claims no gain)
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
    echo "usage (from the checkout's root): scripts/paired_runs.sh <parent-rev> --workload W|all" \
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
workloads=("$workload")
if [[ "$workload" == all ]]; then
    mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
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
run() { # <workload> <side> <pair>
    mkdir -p "$out/$1"
    "$scratch/target-$2-cgu$suffix/release/spotlight-e2e" \
        --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --work-dir "$out/$1/work-$2" --results-dir "$out/$1/results-$2" 2>/dev/null |
        tail -n 1 >"$out/$1/$2-$3.json"
}
for ((pair = 1; pair <= pairs; pair++)); do
    for i in "${!workloads[@]}"; do
        # Alternates pair by pair for each workload, and between
        # neighbouring workloads within a pair.
        if (((pair + i) % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run "${workloads[i]}" "$side" "$pair"
        done
        echo "pair $pair/$pairs of ${workloads[i]} done (${order[*]})" >&2
    done
done

python3 - "$out" "$pairs" "$trace" "$parent_rev" "$seed" "$suffix" "${workloads[@]}" <<'EOF'
import json, sys
from statistics import median, quantiles

out, pairs, trace, rev, seed, cgu = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", *sys.argv[4:7]
workloads = sys.argv[7:]
spec = json.load(open("BENCHMARK.json"))
runs = {w: {side: [json.load(open(f"{out}/{w}/{side}-{p}.json")) for p in range(1, pairs + 1)]
            for side in ("parent", "change")}
        for w in workloads}
print(f"parent {rev[:7]} vs working tree, {' '.join(workloads)}, seed {seed}, {pairs} pairs, "
      f"codegen-units {cgu}, trace {int(trace)}")
for w in workloads:
    for side, results in runs[w].items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        wrong = sum(not r["correct"] for r in results)
        print(f"  {w} {side}: {failed} of {attempted} operations failed, {wrong} runs incorrect")

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4, method="inclusive")
    return q[0], q[2]

end_to_end = {m["name"]: m for m in spec["end_to_end"]}
print(f"{'workload':15} {'metric':32} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
      f" {'move':>8}  verdict")
rows = [(w, n) for w in workloads for n in runs[w]["parent"][0]["metrics"] if trace or n in end_to_end]
for w, name in rows:
    p = [r["metrics"][name]["value"] for r in runs[w]["parent"] if name in r["metrics"]]
    c = [r["metrics"][name]["value"] for r in runs[w]["change"] if name in r["metrics"]]
    if not p or not c:
        continue
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    pm, cm = median(p), median(c)
    move = (cm - pm) / pm if pm else 0.0
    cells = (f"{w:15} {name:32} " + f"{pm:.6g} [{p1:.6g}, {p3:.6g}]".rjust(36) + " "
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
