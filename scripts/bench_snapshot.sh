#!/usr/bin/env bash
# Records the benchmark medians of the perf-tracked suites into a JSON
# snapshot (default: BENCH_PR<N>.json argument, e.g.
# `scripts/bench_snapshot.sh BENCH_PR1.json`), so each PR's perf
# trajectory is committed alongside the code.
#
# The criterion shim (crates/shims/criterion) appends one JSON line per
# benchmark to $CRITERION_JSON; this script wraps those lines into a
# single document with provenance.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_SNAPSHOT.json}"
SUITES=(substrate store analysis policy serve)

LINES="$(mktemp)"
trap 'rm -f "$LINES"' EXIT

for suite in "${SUITES[@]}"; do
    echo ">> cargo bench --bench $suite" >&2
    CRITERION_JSON="$LINES" cargo bench --bench "$suite"
done

# Resident store footprint before/after compaction on the month-scale
# synthetic study (also re-checks summarized-query exactness; see
# crates/bench/src/bin/store_footprint.rs).
echo ">> cargo run --release -p spotlight-bench --bin store_footprint" >&2
FOOTPRINT="$(cargo run --release -p spotlight-bench --bin store_footprint 2>/dev/null | tail -n1)"

# HTTP serving capacity, overload shedding, and drain over the same
# month-scale store (crates/bench/src/bin/loadgen.rs). `--check` gates
# the run: >=100k qps capacity, excess load shed with 503+Retry-After
# at 2x, accepted p99 within 5x of the 1x p99, zero handler 5xx and
# zero panics. A busy 1-CPU box can produce one false miss, so a
# failed check is retried once before failing the snapshot.
echo ">> cargo run --release -p spotlight-bench --bin loadgen -- --check" >&2
LOADGEN="$(cargo run --release -p spotlight-bench --bin loadgen -- --check 2>/dev/null | tail -n1)" || {
    echo ">> loadgen check failed; retrying once on a quieter core" >&2
    LOADGEN="$(cargo run --release -p spotlight-bench --bin loadgen -- --check 2>/dev/null | tail -n1)"
}

{
    echo '{'
    echo "  \"generated_by\": \"scripts/bench_snapshot.sh\","
    echo "  \"git_rev\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
    echo "  \"suites\": [$(printf '"%s",' "${SUITES[@]}" | sed 's/,$//')],"
    echo "  \"store_footprint\": ${FOOTPRINT:-null},"
    echo "  \"http_loadgen\": ${LOADGEN:-null},"
    echo "  \"loc\": $(scripts/loc_report.sh --json),"
    echo '  "benches": ['
    sed 's/^/    /; $!s/$/,/' "$LINES"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT ($(grep -c median_ns "$OUT") benches)" >&2
