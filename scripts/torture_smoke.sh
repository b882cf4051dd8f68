#!/usr/bin/env bash
# Kill-9 crash-torture smoke for the verify path: runs the shipped
# `spotlightd` binary (tests/spotlightd.rs::spotlightd_survives_kill_9,
# ignored under plain `cargo test`, in release) on fresh directories
# while a client queries it, and SIGKILLs it mid-append, mid-checkpoint
# and mid-compact (>=21 kills, >=4 in each phase by what the daemon
# printed before it died, >=4 with a request in flight). Each killed
# directory is recovered twice and held to an uninterrupted in-process
# run of the same world: per market a prefix of its records, at least
# the ones collected through the last `checkpointed <t>` the daemon
# printed, bit-identical on every counter. Then `spotlightd --days 0`
# restarts on it and serves every recovered probe.
#
# The world is fixed (standard catalog, seed 42) and the kill schedule's
# seed is a constant of the test; only the timing of a kill varies.
#
# Usage:
#   scripts/torture_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== torture smoke: kill -9 spotlightd (release) =="
scripts/one_test.sh -p spotlight-serve --test spotlightd spotlightd_survives_kill_9

echo "torture smoke: OK"
