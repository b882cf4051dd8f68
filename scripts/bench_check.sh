#!/usr/bin/env bash
# Perf regression gate for the verify path: runs a fresh
# scripts/bench_snapshot.sh and compares the perf-tracked suites
# (tick/*, tick_threads/1, tick_component/*, pool_dispatch/pool_scope*,
# store_query_100k/*, serve_route/*, ...) against the latest committed
# BENCH_PR<N>.json. A tracked bench whose
# fresh median exceeds baseline × TOLERANCE (default 1.3) fails the
# check — but not before being re-run ONCE in isolation: on this 1-CPU
# box a snapshot run shares the core with cargo/rustc noise, which
# produces occasional false 1.5-1.7x readings that vanish when the
# bench runs alone. Only a bench that regresses in BOTH the shared run
# and its isolated re-run fails the gate. (With a pre-generated FRESH
# snapshot there is nothing to re-run, so the first verdict stands.)
# A tracked bench that is in the baseline but not in the fresh run
# fails the same way, as MISSING.
#
# The fresh snapshot also runs the HTTP load generator with `--check`
# (see bench_snapshot.sh): serving capacity, overload shedding, and
# drain are gated on every fresh bench_check run.
#
# Usage:
#   scripts/bench_check.sh                 # fresh run vs latest BENCH_PR<N>.json
#   scripts/bench_check.sh BASELINE.json   # fresh run vs a chosen baseline
#   scripts/bench_check.sh BASELINE.json FRESH.json   # compare two snapshots
#   TOLERANCE=1.5 scripts/bench_check.sh   # loosen the gate

set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${TOLERANCE:-1.3}"
# The bench suites a regressed name might live in (the shim's CLI
# filter makes a no-match suite run a cheap no-op).
SUITES=(substrate store analysis policy serve)
# tick_threads/{2,4,...} are deliberately NOT gated: they measure the
# host's parallelism (a 1-core CI box vs a multicore baseline host
# would "regress" 3x with zero code change). Only the single-thread
# variant is machine-portable enough to gate.
# store_ingest_contended/* and store_window_sweep_1m/* (PR 4) gate the
# striped-store ingest path and the epoch-summarized month sweep.
# tick/tick_chaos_disabled pins the chaos layer's disabled-path cost:
# with ChaosConfig::default() the tick pays one bool branch per shard,
# so this bench must track tick/testbed_tick.
# store_ingest_durable/* and recover_1m/* gate the crash-safe
# persistence layer: WAL-backed ingest must stay within tolerance of
# its own baseline, and the 1M-record replay must not quietly slow
# down. (Durable ingest runs ~5x the in-memory medians on this 1-CPU
# ext4 box: one fsync pass over the 16 stripe files costs ~1.7ms
# against an in-memory total of ~2.2ms, so the issue's 1.3x target is
# below the hardware's fsync floor; the gate pins the measured number
# instead.)
# pool_dispatch/pool_scope_4 (PR 10) gates the persistent worker
# pool's submit/join cost — the dispatch overhead every parallel tick,
# snapshot build, and HTTP drainer pays. Its thread_scope_4 twin is
# NOT median-gated (OS thread spawn latency is host noise), but the
# pair feeds the dispatch-ratio assertion below. tick_threads/1 runs
# over the pool since PR 10 and stays gated; tick_threads/{2,4}
# remain ungated on this 1-CPU host for the reason above — the pool
# does not change that (parked workers still need real cores to help).
# serve_route/*, serve_json/*, serve_parse/* (PR 13) gate the HTTP
# request path without the socket: parse a point head, route it (query
# + JSON encode into the caller's buffer), the two all-market advisor
# scans, and one availability body.
TRACKED='^(tick|tick_component|store_query_100k|store_ingest_contended|store_ingest_durable|store_window_sweep_1m|recover_1m|serve_route|serve_json|serve_parse)/|^tick_threads/1$|^pool_dispatch/pool_scope'

BASELINE="${1:-}"
if [ -z "$BASELINE" ]; then
    BASELINE="$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n1 || true)"
fi
if [ -z "$BASELINE" ] || [ ! -f "$BASELINE" ]; then
    echo "bench_check: no baseline BENCH_PR<N>.json found" >&2
    exit 2
fi

SCRATCH="$(mktemp -d /tmp/bench_check.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

FRESH="${2:-}"
FRESH_GENERATED=0
if [ -z "$FRESH" ]; then
    FRESH="$SCRATCH/fresh.json"
    FRESH_GENERATED=1
    scripts/bench_snapshot.sh "$FRESH" >&2
fi

# Extract "name median_ns" pairs from a snapshot (one bench per line in
# the criterion shim's JSON-lines format).
extract() {
    # `|| true`: a pattern miss must reach the empty-table guard below
    # with a clear message, not die silently under `set -e`.
    grep -o '"name":"[^"]*","median_ns":[0-9.]*' "$1" \
        | sed 's/"name":"//; s/","median_ns":/ /' || true
}

extract "$BASELINE" > "$SCRATCH/base.pairs"
extract "$FRESH" > "$SCRATCH/fresh.pairs"

# An empty table means the snapshot format drifted away from extract()'s
# pattern — fail loudly rather than comparing against nothing.
for f in "$SCRATCH/base.pairs" "$SCRATCH/fresh.pairs"; do
    if [ ! -s "$f" ]; then
        echo "bench_check: no benches extracted from ${BASELINE}/${FRESH} (format drift?)" >&2
        exit 2
    fi
done

# compare <base.pairs> <fresh.pairs> <regressed-names-out>
# Prints the comparison table; writes each regressed or missing name to
# $3; exits non-zero when anything regressed or a tracked baseline
# bench is MISSING from the fresh run (renamed, filtered out, or its
# suite died mid-run — a deliberate deletion is retired by committing
# a newer BENCH_PR<N>.json without it). First median per name wins on
# both sides: snapshots may embed older baseline sections further down,
# and a retried fresh run prepends its isolated medians.
compare() {
    : > "$3"
    awk -v tol="$TOLERANCE" -v tracked="$TRACKED" -v rout="$3" '
        NR == FNR { if (!($1 in base)) { base[$1] = $2; order[++nbase] = $1 } next }
        $1 ~ tracked && !($1 in seen) {
            seen[$1] = 1
            if (!($1 in base)) {
                printf "  NEW      %-55s %12.1f ns (no baseline)\n", $1, $2
                next
            }
            ratio = $2 / base[$1]
            status = (ratio <= tol) ? "ok" : "REGRESSED"
            printf "  %-8s %-55s %12.1f -> %12.1f ns (%.2fx)\n", status, $1, base[$1], $2, ratio
            if (ratio > tol) { failures++; print $1 >> rout }
        }
        END {
            for (i = 1; i <= nbase; i++) {
                name = order[i]
                if (name ~ tracked && !(name in seen)) {
                    printf "  MISSING  %-55s %12.1f ns in baseline, absent from fresh run\n", name, base[name]
                    missing++; print name >> rout
                }
            }
            if (failures > 0 || missing > 0) {
                printf "bench_check: %d tracked bench(es) regressed beyond %.2fx, %d missing\n", failures, tol, missing
                exit 1
            }
            print "bench_check: all tracked benches within tolerance"
        }
    ' "$1" "$2"
}

# Absolute dispatch-ratio gate (PR 10): submitting N tasks to the
# parked pool must stay at least MIN_POOL_SPEEDUP (default 5x) cheaper
# than spawning N OS threads for them — the whole point of the pool.
# Both medians come from the same fresh snapshot, so host noise
# cancels. Skipped with a warning if a hand-supplied FRESH snapshot
# predates the pool_dispatch group.
MIN_POOL_SPEEDUP="${MIN_POOL_SPEEDUP:-5}"
check_pool_ratio() {
    local pool thread
    pool="$(awk '$1 == "pool_dispatch/pool_scope_4" { print $2; exit }' "$1")"
    thread="$(awk '$1 == "pool_dispatch/thread_scope_4" { print $2; exit }' "$1")"
    if [ -z "$pool" ] || [ -z "$thread" ]; then
        echo "bench_check: WARNING pool_dispatch pair missing from fresh snapshot; ratio gate skipped" >&2
        return 0
    fi
    awk -v p="$pool" -v t="$thread" -v min="$MIN_POOL_SPEEDUP" 'BEGIN {
        ratio = t / p
        printf "  pool_dispatch ratio: thread_scope_4 %.1f ns / pool_scope_4 %.1f ns = %.1fx (need >= %.1fx)\n", t, p, ratio, min
        if (ratio < min) {
            print "bench_check: pool dispatch is not cheap enough vs thread::scope"
            exit 1
        }
    }'
}

check_pool_ratio "$SCRATCH/fresh.pairs"

if compare "$SCRATCH/base.pairs" "$SCRATCH/fresh.pairs" "$SCRATCH/regressed"; then
    exit 0
fi

if [ "$FRESH_GENERATED" -ne 1 ] || [ ! -s "$SCRATCH/regressed" ]; then
    exit 1
fi

echo "bench_check: re-running $(wc -l < "$SCRATCH/regressed") regressed or missing bench(es) once in isolation" >&2
RETRY_LINES="$SCRATCH/retry.lines"
: > "$RETRY_LINES"
while IFS= read -r name; do
    for suite in "${SUITES[@]}"; do
        CRITERION_JSON="$RETRY_LINES" cargo bench --bench "$suite" -- "$name" >&2
    done
done < "$SCRATCH/regressed"

extract "$RETRY_LINES" > "$SCRATCH/retry.pairs"
if [ ! -s "$SCRATCH/retry.pairs" ]; then
    echo "bench_check: isolated re-run produced no measurements (filter drift?)" >&2
    exit 1
fi

echo "== after isolated re-run =="
cat "$SCRATCH/retry.pairs" "$SCRATCH/fresh.pairs" > "$SCRATCH/fresh2.pairs"
compare "$SCRATCH/base.pairs" "$SCRATCH/fresh2.pairs" "$SCRATCH/regressed2"
