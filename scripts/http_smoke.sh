#!/usr/bin/env bash
# HTTP service smoke for the verify path: runs the shipped `spotlightd`
# binary (tests/spotlightd.rs, in release) on a fresh durable directory
# for one simulated day while four keep-alive clients query every
# endpoint, holds its `/v1/advisor/fallbacks` answers — mid-run and
# after the run — and one `/v1/availability` body to an in-process twin
# of the same world, stops it by closing stdin while a client loops
# (200s, then a 503 with Retry-After or a close; exit 0; the drain not
# forced; no 5xx, no panic, durability never lost), and restarts it on
# the same directory (zero replay, a clean-shutdown marker, every probe
# back, a clock that did not go backwards).
#
# Then, in release and by exact name (scripts/one_test.sh), the tests
# of the server's admission and drain paths:
#   http_service overload_is_shed_with_503_and_permits_are_released
#       (the acceptor's non-blocking 503 for a full queue and for no
#       permit; every permit comes back)
#   http_service a_drain_past_its_deadline_is_forced_and_leaves_the_store_to_the_caller
#       (a half-sent head outlives the drain deadline: `forced`, and the
#       caller's store `Arc` is the last one)
#   pool_starvation parked_drainers_leave_pool_threads_for_detached_tasks
#       (as many open keep-alive connections as the shared pool has
#       threads still leave a detached pool task runnable)
#
# The rest of the hostile-input matrix (400/404/413/414/431, signed
# lengths, the endless window, the threshold bound), slow-loris and
# dribbling heads and a drain with a half-sent head in flight are tests
# in tests/http_service.rs; 405/505 and every route's bytes are pinned
# by tests/serve_golden.rs.
#
# Usage:
#   scripts/http_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== http smoke: spotlightd end to end (release) =="
cargo test --release -p spotlight-serve --test spotlightd

echo "== http smoke: admission and drain (release) =="
scripts/one_test.sh --test http_service overload_is_shed_with_503_and_permits_are_released
scripts/one_test.sh --test http_service \
    a_drain_past_its_deadline_is_forced_and_leaves_the_store_to_the_caller
scripts/one_test.sh --test pool_starvation parked_drainers_leave_pool_threads_for_detached_tasks

echo "http smoke: OK"
