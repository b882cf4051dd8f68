#!/usr/bin/env bash
# Crash-recovery smoke for the verify path: runs the torn-write fault
# matrix (truncated tail, torn frame, bit rot, duplicated tail record,
# among several stripes' and the region events' frames in one generation
# file, in sequence order), the WAL's order under concurrent appends,
# flushes and rotates (every generation file strictly increasing), the
# on-disk layout (one WAL file per generation, no file per compaction
# pass, one unlink per covered generation), the
# compact-then-crash-then-recover sequence (the recovered summaries
# equal a never-crashed twin's), a durable compaction equal to an
# in-memory one, healthy and degraded, the checkpoint/tail
# interplay (tests/persistence.rs), the durable live/engine recovery
# twins (crates/core), a restart on a store closed with a region
# degraded (the first success closes the carried episode without a new
# trip), and degrade-and-heal: the seeded disk-fault
# schedule, the durability machine's enumeration and a live run healing
# on a faulty disk, a failed WAL fsync that the next flush retries
# before the watermark moves, and a rotate whose fsync fails, which
# keeps its generation and the watermark — and the sealed-section path: the section
# decoder under hostile and damaged input, a damaged checkpoint file a
# hard error, the slab form's bit-for-bit
# round trip and its hostile decodes (a market reference past the
# table, a time delta leaving u64, a spike reference past the probe
# slab or to another trigger, every truncation), production's spikes
# sealed as one- or two-byte references to their probes
# (durable::tests::production_spikes_cost_at_most_two_bytes_each), a
# section cut into several frames, and a crash right after flush() —
# a stripe section refused when a query would misread its interval
# positions or sorted lists
# (durable::tests::recovery_refuses_stripe_indices_its_queries_would_trip_over)
# or its open interval, prefix sums or interval order
# (durable::tests::decode_stripe_refuses_prefix_sums_and_orders_the_span_sums_would_misread),
# and the two guards of a directory's format: a checkpoint of another
# section count refused
# (durable::tests::recovery_refuses_a_checkpoint_of_another_section_count)
# and a header with a byte past its version, or cut short, refused
# (log::tests::open_with_corrupt_header_is_a_clean_error) — and the
# section-at-a-time loader: a checkpoint whose frames are intact but
# whose last stripe section does not decompress or decode refused, and
# a checkpoint of STRIPES + 2 sections refused by its count before any
# section is decoded; and the checkpoint file's bytes against
# tests/golden/checkpoint_format13.hex —
# all against release builds.
#
# Each step runs one test by its exact name through scripts/one_test.sh,
# which fails unless exactly that one test ran.
#
# Usage:
#   scripts/recovery_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== recovery smoke: torn-write fault matrix, one generation file in sequence order =="
scripts/one_test.sh --test persistence fault_matrix_recovery_keeps_the_surviving_prefix

echo "== recovery smoke: concurrent appends, flushes and rotates keep the sequence order =="
scripts/one_test.sh -p spotlight-persist wal::tests::concurrent_appends_and_flushes_keep_seq_order

echo "== recovery smoke: one file per durable event =="
scripts/one_test.sh --test persistence one_file_per_durable_event

echo "== recovery smoke: compact, crash, recover =="
scripts/one_test.sh --test persistence compact_then_crash_then_recover_loses_nothing

echo "== recovery smoke: a durable compaction equals an in-memory one, degraded too =="
scripts/one_test.sh --test persistence a_durable_compaction_equals_an_in_memory_one

echo "== recovery smoke: checkpoint with a torn tail =="
scripts/one_test.sh --test persistence checkpoint_with_torn_tail_recovers_through_the_snapshot

echo "== recovery smoke: durable live-mode and engine-mode twins =="
scripts/one_test.sh -p spotlight-core manager::tests::durable_live_run_recovers_identically
scripts/one_test.sh -p spotlight-core spotlight::tests::durable_engine_run_recovers_equal_to_in_memory_twin

echo "== recovery smoke: a restart while a region is degraded =="
scripts/one_test.sh --test live_mode a_region_degraded_at_a_stop_recovers_after_a_restart

echo "== recovery smoke: degrade and heal =="
scripts/one_test.sh --test persistence seeded_fault_schedule_degrades_heals_and_keeps_the_watermark
scripts/one_test.sh -p spotlight-core durability::tests::durability_machine_keeps_its_promises_over_every_sequence
scripts/one_test.sh --test live_mode durable_live_run_degrades_and_heals_on_a_faulty_disk
scripts/one_test.sh -p spotlight-persist wal::tests::a_failed_fsync_is_retried_and_never_moves_the_watermark
scripts/one_test.sh -p spotlight-persist wal::tests::a_rotate_whose_fsync_fails_keeps_its_generation_and_the_watermark

echo "== recovery smoke: compressed sections and flush =="
scripts/one_test.sh -p spotlight-core durable::tests::lz_decoder_survives_hostile_and_damaged_stripe_sections
scripts/one_test.sh -p spotlight-core durable::tests::slab_form_round_trips_bit_for_bit
scripts/one_test.sh -p spotlight-core durable::tests::hostile_slabs_are_decode_errors
scripts/one_test.sh -p spotlight-core durable::tests::production_spikes_cost_at_most_two_bytes_each
scripts/one_test.sh -p spotlight-persist log::tests::oversize_checkpoint_sections_chunk_and_reassemble
scripts/one_test.sh -p spotlight-persist log::tests::damaged_checkpoint_is_a_hard_error
scripts/one_test.sh --test persistence flushed_records_survive_a_crash_without_a_clean_marker

echo "== recovery smoke: stripe indices, prefix sums and interval order a query would misread =="
scripts/one_test.sh -p spotlight-core durable::tests::recovery_refuses_stripe_indices_its_queries_would_trip_over
scripts/one_test.sh -p spotlight-core durable::tests::decode_stripe_refuses_prefix_sums_and_orders_the_span_sums_would_misread

echo "== recovery smoke: a checkpoint of another section count, a damaged header =="
scripts/one_test.sh -p spotlight-core durable::tests::recovery_refuses_a_checkpoint_of_another_section_count
scripts/one_test.sh -p spotlight-persist log::tests::open_with_corrupt_header_is_a_clean_error

echo "== recovery smoke: the section-at-a-time loader, the checkpoint file's bytes =="
scripts/one_test.sh -p spotlight-core durable::tests::recovery_refuses_a_checkpoint_whose_last_stripe_does_not_load
scripts/one_test.sh -p spotlight-core durable::tests::recovery_counts_the_sections_before_it_loads_one
scripts/one_test.sh --test persistence checkpoint_file_matches_its_golden_bytes

echo "recovery smoke: OK"
