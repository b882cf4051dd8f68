#!/usr/bin/env bash
# Crash-recovery smoke for the verify path: runs the torn-write fault
# matrix (truncated tail, torn frame, bit rot, duplicated tail record),
# the compact-then-crash-then-recover sequence, the checkpoint/tail
# interplay (tests/persistence.rs), the durable live/engine recovery
# twins (crates/core), and degrade-and-heal: the seeded disk-fault
# schedule, the durability machine's enumeration and a live run healing
# on a faulty disk — all against release builds.
#
# Each step runs one test by its exact name through scripts/one_test.sh,
# which fails unless exactly that one test ran.
#
# Usage:
#   scripts/recovery_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== recovery smoke: torn-write fault matrix =="
scripts/one_test.sh --test persistence fault_matrix_recovery_keeps_the_surviving_prefix

echo "== recovery smoke: compact, crash, recover =="
scripts/one_test.sh --test persistence compact_then_crash_then_recover_loses_nothing

echo "== recovery smoke: checkpoint with a torn tail =="
scripts/one_test.sh --test persistence checkpoint_with_torn_tail_recovers_through_the_snapshot

echo "== recovery smoke: durable live-mode and engine-mode twins =="
scripts/one_test.sh -p spotlight-core manager::tests::durable_live_run_recovers_identically
scripts/one_test.sh -p spotlight-core spotlight::tests::durable_engine_run_recovers_equal_to_in_memory_twin

echo "== recovery smoke: degrade and heal =="
scripts/one_test.sh --test persistence seeded_fault_schedule_degrades_heals_and_keeps_the_watermark
scripts/one_test.sh -p spotlight-core durability::tests::durability_machine_keeps_its_promises_over_every_sequence
scripts/one_test.sh --test live_mode durable_live_run_degrades_and_heals_on_a_faulty_disk

echo "recovery smoke: OK"
