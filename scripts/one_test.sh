#!/usr/bin/env bash
# Runs one test, in release, by its exact name, and fails unless exactly
# one test passed. `cargo test` exits 0 when a name matches nothing
# ("0 passed; N filtered out"), so a smoke naming a misspelled or
# renamed test would otherwise pass without running it. The name is
# matched with `--exact`: a unit test is named with its module path. An
# `#[ignore]`d test runs too (`--include-ignored`), so a slow test kept
# out of tier-1 still has one way to run by name.
#
# Usage:
#   scripts/one_test.sh <cargo test selection> <exact test name>
#   scripts/one_test.sh --test live_mode same_seed_same_service_history
#   scripts/one_test.sh -p spotlight-core manager::tests::durable_live_run_recovers_identically
#   scripts/one_test.sh -p spotlight-serve --test spotlightd spotlightd_survives_kill_9

set -euo pipefail
cd "$(dirname "$0")/.."

log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test --release "$@" -- --exact --include-ignored 2>&1 | tee "$log"
passed=$(grep -oE '^test result: [a-zA-Z]+\. [0-9]+ passed' "$log" | awk '{n += $4} END {print n + 0}')
if [ "$passed" -ne 1 ]; then
    echo "one_test: $passed tests passed for '$*', expected exactly 1" >&2
    exit 1
fi
