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
# The hostile-input matrix (400/404/413/414/431, signed lengths, the
# endless window, the threshold bound), slow-loris and dribbling heads,
# a drain with a half-sent head in flight and overload shedding are
# tests in tests/http_service.rs; 405/505 and every route's bytes are
# pinned by tests/serve_golden.rs.
#
# Usage:
#   scripts/http_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== http smoke: spotlightd end to end (release) =="
cargo test --release -p spotlight-serve --test spotlightd

echo "http smoke: OK"
