#!/usr/bin/env bash
# HTTP service smoke for the verify path: seeds a durable store, serves
# it, and drives the server with concurrent well-behaved clients plus
# hostile ones — slow-loris tricklers, oversized request lines/headers/
# bodies, malformed and unsupported requests — then drains mid-flight.
# Asserts every hostile input gets the right status code, the slow-loris
# is cut off with 408, requests arriving mid-drain get 503 + Retry-After
# and the drain is not forced, zero handler 5xx and zero worker panics,
# and the drained store closes cleanly so the restart replays nothing
# (see crates/bench/src/bin/http_smoke.rs). Overload shedding (the
# shedder's 503 + Retry-After + Connection: close, for a full queue and
# for an exhausted permit) is not driven here: it is pinned by
# overload_is_shed_with_503_and_permits_are_released in
# tests/http_service.rs.
#
# Usage:
#   scripts/http_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== http smoke: building release harness =="
cargo build --release -p spotlight-bench --bin http_smoke

echo "== http smoke: hostile-client and drain scenarios =="
./target/release/http_smoke

echo "http smoke: OK"
