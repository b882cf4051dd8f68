#!/usr/bin/env bash
# The full verify path of ROADMAP.md, in its order, stopping at the
# first failing step: every tests/ and examples/ file bound to a crate,
# format, lints, rustdoc (no broken or private intra-doc link), tier-1
# build + tests, the `repro all` golden, the benchmark package's own
# tests (it must compile unmodified against the crates), the benchmark
# itself, then the four smokes.
#
# Cargo rewrites benchmark/Cargo.lock in the working copy whenever it
# builds the benchmark package (the committed file predates PR 16); the
# script puts the committed file back after each such step — and on
# the way out, if a step failed — unless the file already differed
# from the index when the script started (a `benchmark`-archetype PR
# editing it on purpose).
#
# Usage:
#   scripts/verify_all.sh          # ~10 min on the 2-vCPU host

set -euo pipefail
cd "$(dirname "$0")/.."

restore_lock=:
if git diff --quiet -- benchmark/Cargo.lock; then
    restore_lock="git checkout -q -- benchmark/Cargo.lock"
fi
trap '$restore_lock' EXIT

step() {
    echo
    echo "==== verify: $* ===="
    "$@"
}

# crates/integration/Cargo.toml binds tests/ and examples/ by hand (and
# crates/serve/Cargo.toml the test of its `spotlightd` binary): a file
# neither lists is silently neither built nor run.
tests_and_examples_are_listed() {
    local f missing=0
    for f in tests/*.rs examples/*.rs; do
        grep -qF "path = \"../../$f\"" crates/integration/Cargo.toml crates/serve/Cargo.toml && continue
        echo "verify_all: $f has no [[test]]/[[example]] entry in crates/integration/Cargo.toml or crates/serve/Cargo.toml" >&2
        missing=1
    done
    return "$missing"
}

step tests_and_examples_are_listed
step cargo fmt --check
step cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" step cargo doc --no-deps --offline
step cargo build --release
step cargo test -q
step scripts/repro_golden.sh
(cd benchmark && step cargo test --release --offline)
$restore_lock
step benchmark/run.sh
$restore_lock
step scripts/chaos_smoke.sh
step scripts/recovery_smoke.sh
step scripts/torture_smoke.sh
step scripts/http_smoke.sh

echo
echo "verify_all: OK"
