#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output
#       is the result as one JSON object (the form the driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       every workload, one after another, each in its own process:
#       an untraced pass (end-to-end metrics), then a traced pass
#       (per-layer metrics, trace-<workload>.json)
#
# Run from the root of the checkout. Everything written lands under
# benchmark/ (target/, results/) or $CARGO_TARGET_DIR.
set -euo pipefail

here="benchmark"
if [[ ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run from the root of the checkout (no $here/Cargo.toml here)" >&2
    exit 2
fi

workload=""
seed=7
seconds=22
trace=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace 0|1` from the driver, bare `--trace` by hand.
            if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/spotlight-e2e"

# Every run removes its own work directory; this removes their parent
# once it is empty.
trap 'rmdir "$here/target/work" 2>/dev/null || true' EXIT

if [[ -n "$workload" ]]; then
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "${trace:-0}"
    exit
fi

# By hand: all four workloads, untraced then traced (the traced pass at
# half the length), with the wall time of each and a cap on each pass.
# What a killed earlier run left behind goes first.
rm -rf "$here/target/work"
passes=(0 1)
[[ -n "$trace" ]] && passes=("$trace")
caps=(240 90)
started=$SECONDS
for pass in "${passes[@]}"; do
    pass_started=$SECONDS
    pass_seconds=$((pass == 0 ? seconds : (seconds + 1) / 2))
    for w in serve_static ingest_durable live_mixed study_sim; do
        w_started=$SECONDS
        echo "== $w (trace $pass) =="
        "$bin" --workload "$w" --seed "$seed" --seconds "$pass_seconds" --trace "$pass" \
            2>/dev/null | grep -v '^{'
        echo "-- $w wall $((SECONDS - w_started)) s"
    done
    pass_wall=$((SECONDS - pass_started))
    echo "== pass (trace $pass) wall $pass_wall s, cap ${caps[$pass]} s =="
    if (( pass_wall > caps[pass] )); then
        echo "run.sh: pass took $pass_wall s, over its ${caps[$pass]} s cap" >&2
        exit 1
    fi
done
echo "== all wall $((SECONDS - started)) s =="
if [[ -n "$(ls -A "$here/target/work" 2>/dev/null)" ]]; then
    echo "run.sh: work directories left behind in $here/target/work" >&2
    exit 1
fi
