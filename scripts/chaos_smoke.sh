#!/usr/bin/env bash
# Seeded chaos soak for the verify path: drives the live-mode
# deployment through a regional API outage, a throttling storm, and a
# transient-error burst (tests/live_mode.rs, seed 53) and checks the
# retry/breaker pipeline degrades gracefully and recovers; reruns a
# chaotic seed (default and binding API limit) and demands the same
# report and per-market histories; holds the live region managers to
# the engine's policy (identical histories with no faults, every
# PolicyConfig field honoured); holds a probed world to an unprobed
# one (probing_does_not_move_the_world); then replays the chaos
# schedule at several thread counts to hold the determinism contract
# (tests/determinism.rs).
#
# Each step runs one test by its exact name through scripts/one_test.sh,
# which fails unless exactly that one test ran.
#
# Usage:
#   scripts/chaos_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== chaos smoke: live-mode soak (outage + storm + burst) =="
scripts/one_test.sh --test live_mode chaos_soak_degrades_gracefully_and_recovers

echo "== chaos smoke: same seed, same service history =="
scripts/one_test.sh --test live_mode same_seed_same_service_history

echo "== chaos smoke: one policy, two hosts =="
scripts/one_test.sh --test live_mode live_and_engine_hosts_record_identical_histories
scripts/one_test.sh --test live_mode live_mode_honours_every_policy_field

echo "== chaos smoke: probing does not move the world (no chaos, outage, burst) =="
scripts/one_test.sh --test live_mode probing_does_not_move_the_world

echo "== chaos smoke: fault-schedule determinism across thread counts =="
scripts/one_test.sh --test determinism chaos_schedule_is_thread_count_invariant

echo "chaos smoke: OK"
