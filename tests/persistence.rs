//! Crash-safe persistence tests: the torn-write fault matrix, the
//! compact-then-crash sequence, checkpoint/tail interplay, durable
//! against in-memory compaction, and a year-scale bounded-RAM run.
//!
//! The oracle throughout: a store recovered from a damaged log must be
//! indistinguishable — bit-identical summarized queries — from a store
//! that never crashed and only ever saw the ops that survived on disk.

use cloud_sim::ids::{Az, Family, InstanceType, MarketId, Platform, Region, Size};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use spotlight_core::durable::HEAL_RETRY_CAP;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::store::{DataStore, SpikeEvent};
use spotlight_core::{DurabilityMode, DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use spotlight_persist::{
    fault, frame, DiskIo, FaultKind, FaultProfile, FaultWindow, FaultyDisk, LogDir,
};
use std::sync::Arc;
use std::time::Instant;

/// Fast writer options for tests: no fsync, ample queue.
fn opts() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Never,
        queue_capacity: 4096,
        ..DurableOptions::default()
    }
}

/// Distinct `i` give distinct markets: the zone is `i % 3` of
/// us-east-1 and the instance type steps with `i / 3` from `c3.large`,
/// which is `market(0)`'s.
fn market(i: u8) -> MarketId {
    let step = usize::from(i / 3);
    MarketId {
        az: Az::new(Region::UsEast1, i % 3),
        instance_type: InstanceType::new(
            Family::ALL[(Family::C3.index() + step / 9) % Family::ALL.len()],
            Size::ALL[(Size::Large.index() + step) % Size::ALL.len()],
        ),
        platform: Platform::LinuxUnix,
    }
}

#[test]
fn market_makes_distinct_markets() {
    let markets: std::collections::HashSet<MarketId> = (0..=u8::MAX).map(market).collect();
    assert_eq!(markets.len(), 256);
    assert_eq!(
        market(0).instance_type,
        "c3.large".parse::<InstanceType>().unwrap()
    );
}

/// A varied but deterministic probe stream: alternating kinds, a mix of
/// informative outcomes, drifting ratios — enough to exercise interval
/// tracking and the span sums, not just raw appends.
fn probe_at(i: u64, m: MarketId) -> ProbeRecord {
    let kind = if i.is_multiple_of(2) {
        ProbeKind::OnDemand
    } else {
        ProbeKind::Spot
    };
    let outcome = match i % 4 {
        0 | 2 => ProbeOutcome::Fulfilled,
        1 => ProbeOutcome::InsufficientCapacity,
        _ => ProbeOutcome::PriceTooLow,
    };
    ProbeRecord {
        at: SimTime::from_secs(i * 60),
        market: m,
        kind,
        trigger: ProbeTrigger::Periodic,
        outcome,
        spot_ratio: 1.0 + (i % 7) as f64 * 0.25,
        bid: (kind == ProbeKind::Spot).then(|| Price::from_dollars(0.2)),
        cost: Price::from_dollars(0.02 + (i % 3) as f64 * 0.01),
    }
}

/// Bit-identical summarized queries between two stores over `markets`.
fn assert_same_summaries(got: &DataStore, want: &DataStore, markets: &[MarketId]) {
    assert_eq!(got.len(), want.len(), "recorded probe count");
    assert_eq!(got.total_cost(), want.total_cost(), "total cost");
    assert_eq!(got.suppressed_probes(), want.suppressed_probes());
    let (g, w) = (got.read(), want.read());
    assert_eq!(
        g.probes().copied().collect::<Vec<_>>(),
        w.probes().copied().collect::<Vec<_>>(),
        "raw probe log"
    );
    assert_eq!(
        g.intervals().copied().collect::<Vec<_>>(),
        w.intervals().copied().collect::<Vec<_>>(),
        "unavailability intervals"
    );
    for &m in markets {
        for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
            assert_eq!(g.probe_stats(m, kind), w.probe_stats(m, kind));
            assert_eq!(g.is_unavailable(m, kind), w.is_unavailable(m, kind));
            assert_eq!(
                g.closed_interval_count(m, kind),
                w.closed_interval_count(m, kind)
            );
        }
    }
}

/// One op of the fault matrix's script, as the store and its twin take
/// it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Probe(ProbeRecord),
    Degraded(Region, SimTime),
}

impl Op {
    fn apply(self, store: &DataStore) {
        match self {
            Op::Probe(p) => _ = store.record_probe(p),
            Op::Degraded(region, at) => store.mark_region_degraded(region, at),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The fault matrix: truncated tail, torn frame, bit rot, and a
    // duplicated tail record, each at a generated position, in the one
    // file of a generation that holds several stripes' ops and the
    // region events, in sequence order.
    // Whatever prefix of the file survives the damage, the recovered
    // store must equal a never-crashed store that saw exactly the ops of
    // that prefix.
    #[test]
    fn fault_matrix_recovery_keeps_the_surviving_prefix(
        n_ops in 2u64..30,
        fault_pick in 0u8..4,
        where_pick in any::<u64>(),
    ) {
        let markets: Vec<MarketId> = (0..8).map(|i| wide_market(i * 7)).collect();
        // Sequence numbers are issued in this order: op `k` is seq `k`.
        let ops: Vec<Op> = (0..n_ops)
            .flat_map(|i| {
                let probe = Op::Probe(probe_at(i, markets[i as usize % markets.len()]));
                let degraded = (i == n_ops / 2)
                    .then(|| Op::Degraded(Region::EuWest1, SimTime::from_secs(i * 60)));
                std::iter::once(probe).chain(degraded)
            })
            .collect();
        let tmp = TempDir::new("fault-matrix");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, opts()).unwrap();
        // A flush every three ops: the file holds several of the
        // writer's batches, every stripe's ops among them.
        for (k, op) in ops.iter().enumerate() {
            op.apply(&store);
            if k % 3 == 2 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        drop(store);

        // Every op is a frame of generation 0's one file, in sequence
        // order: op `k` is the file's frame `k`.
        let log = LogDir::open(&dir).unwrap();
        prop_assert_eq!(log.list_wal().unwrap(), vec![0]);
        let wal = log.wal_path(0);
        let spans = fault::frame_spans(&wal).unwrap();
        prop_assert_eq!(spans.len(), ops.len() + 1); // header + frames
        let frames = spans.len() - 1;
        let file = std::fs::read(&wal).unwrap();
        let body = frame::strip_header(&file, frame::magic::WAL).unwrap();
        let in_file: Vec<u64> = frame::scan(body).frames.iter().map(|f| f.seq).collect();
        prop_assert_eq!(&in_file, &(0..ops.len() as u64).collect::<Vec<_>>());

        // Damage the log; `survivors` is how many frames must remain.
        let survivors = match fault_pick {
            0 => {
                // Truncation at a frame boundary (possibly no-op).
                let keep = (where_pick % (frames as u64 + 1)) as usize;
                let end = if keep == 0 { spans[0].1 } else { spans[keep].1 };
                fault::truncate_at(&wal, end as u64).unwrap();
                keep
            }
            1 => {
                // A torn frame: the file ends mid-frame j.
                let j = (where_pick % frames as u64) as usize + 1;
                let (s, e) = spans[j];
                let cut = s + 1 + (where_pick % (e - s - 1) as u64) as usize;
                fault::truncate_at(&wal, cut as u64).unwrap();
                j - 1
            }
            2 => {
                // Bit rot inside frame j: j and everything after it is
                // unreachable (the scan cannot trust frame boundaries
                // past a bad CRC), whatever stripe its op belongs to.
                let j = (where_pick % frames as u64) as usize + 1;
                let (s, e) = spans[j];
                let off = s + (where_pick % (e - s) as u64) as usize;
                fault::corrupt_byte_at(&wal, off as u64, 0x20).unwrap();
                j - 1
            }
            _ => {
                // A retried append duplicated the tail record; replay
                // drops it below the sequence floor.
                prop_assert!(fault::duplicate_tail_frame(&wal).unwrap());
                frames
            }
        };

        let recovered = DataStore::recover(&dir).unwrap();
        let twin = DataStore::new();
        for op in &ops[..survivors] {
            op.apply(&twin);
        }
        assert_same_summaries(&recovered, &twin, &markets);
        prop_assert_eq!(recovered.degraded_regions(), twin.degraded_regions());
        prop_assert_eq!(
            recovered.region_health(Region::EuWest1),
            twin.region_health(Region::EuWest1)
        );

        // The reopened log must keep accepting appends (fresh
        // generation, so the damaged tail is never appended into) and
        // survive another recovery.
        recovered.record_probe(probe_at(n_ops, markets[0]));
        recovered.flush().unwrap();
        drop(recovered);
        let again = DataStore::recover(&dir).unwrap();
        prop_assert_eq!(again.len(), twin.len() + 1);
    }
}

/// On disk the store writes one file per durable event, for all its
/// stripes: a generation is one WAL file for every stripe's ops and
/// the store-wide ones, a compaction pass writes nothing, and a
/// checkpoint unlinks one file per generation it covers.
#[test]
fn one_file_per_durable_event() {
    let tmp = TempDir::new("one-file-per-event");
    let dir = tmp.path().join("store");
    let names = |prefix: &str| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(prefix))
            .collect();
        names.sort();
        names
    };
    let twin = DataStore::new();
    // 400 markets spread over every stripe, plus store-wide ops.
    let feed = |store: &DataStore, from: u64| {
        for i in from..from + 400 {
            store.record_probe(probe_at(i, wide_market(i as usize * 13)));
        }
        store.mark_region_degraded(Region::ApSoutheast2, SimTime::from_secs(from * 60));
        store.mark_region_recovered(Region::ApSoutheast2, SimTime::from_secs(from * 60 + 600));
        store.record_suppressed();
    };
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    feed(&store, 0);
    feed(&twin, 0);
    store.flush().unwrap();
    assert_eq!(
        names("wal-"),
        ["wal-00000000.log"],
        "one file for 16 stripes and the store-wide ops"
    );

    // A compaction creates no file.
    let before = SimTime::from_secs(200 * 60);
    let first = twin.compact(before);
    assert_eq!(store.compact(before), first);
    assert_eq!(names(""), ["header", "wal-00000000.log"]);

    // Two crashes, each recovered into a fresh generation that takes one
    // more batch: three generations, three files. No checkpoint holds
    // the first pass, so the first recovery replays its records.
    drop(store);
    let log = LogDir::open(&dir).unwrap();
    for round in 1..3 {
        let store = DataStore::recover(&dir).unwrap();
        feed(&store, round * 400);
        feed(&twin, round * 400);
        store.flush().unwrap();
    }
    let store = DataStore::recover(&dir).unwrap();
    assert_eq!(log.list_wal().unwrap(), vec![0, 1, 2]);
    assert_eq!(names("wal-").len(), 3, "one file per generation");

    // A second pass drops everything the twin's two passes dropped. The
    // checkpoint then covers every generation and unlinks its one file
    // each: none is left.
    let before = SimTime::from_secs(1_000 * 60);
    let second = twin.compact(before).dropped_probes;
    assert_eq!((first.dropped_probes, second), (200, 800));
    assert_eq!(store.compact(before).dropped_probes, 200 + 800);
    store.checkpoint().unwrap();
    assert_eq!(names(""), ["checkpoint", "header"]);
    drop(store);
    let markets: Vec<MarketId> = (0..1_200).map(|i| wide_market(i * 13)).collect();
    assert_same_summaries(&DataStore::recover(&dir).unwrap(), &twin, &markets);
}

/// The body (header stripped) of the first WAL generation a durable
/// store writes for 48 probes and 16 spikes, with its frame
/// boundaries — written once per process.
fn real_wal() -> &'static (Vec<u8>, Vec<usize>) {
    static WAL: std::sync::OnceLock<(Vec<u8>, Vec<usize>)> = std::sync::OnceLock::new();
    WAL.get_or_init(|| {
        let tmp = TempDir::new("frame-mutation");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, opts()).unwrap();
        for i in 0..48 {
            store.record_probe(probe_at(i, market(i as u8)));
            if i % 3 == 0 {
                store.record_spike(SpikeEvent {
                    market: market(i as u8),
                    at: SimTime::from_secs(i * 60),
                    ratio: 1.0 + i as f64 / 8.0,
                    probed: true,
                });
            }
        }
        store.flush().unwrap();
        drop(store);
        let log = LogDir::open(&dir).unwrap();
        let wal = log.wal_path(0);
        let file = std::fs::read(&wal).unwrap();
        let body = frame::strip_header(&file, frame::magic::WAL)
            .unwrap()
            .to_vec();
        // The header's span, then one per frame: their ends in the body.
        let spans = fault::frame_spans(&wal).unwrap();
        let bounds: Vec<usize> = spans
            .iter()
            .map(|&(_, end)| end - frame::HEADER_LEN)
            .collect();
        let scanned = frame::scan(&body);
        assert_eq!(
            (scanned.end, scanned.frames.len()),
            (frame::ScanEnd::Clean, 64)
        );
        assert_eq!(bounds.len(), 65);
        (body, bounds)
    })
}

/// One byte-level mutation of a file body, at an offset taken modulo
/// the body's length (plus one).
#[derive(Debug, Clone)]
enum Mutation {
    Overwrite(usize, Vec<u8>),
    Insert(usize, Vec<u8>),
    Delete(usize, usize),
    Truncate(usize),
    FlipBit(usize, u8),
}

fn any_mutation() -> impl Strategy<Value = Mutation> {
    let bytes = || proptest::collection::vec(any::<u8>(), 1..24);
    prop_oneof![
        (any::<usize>(), bytes()).prop_map(|(at, b)| Mutation::Overwrite(at, b)),
        (any::<usize>(), bytes()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        (any::<usize>(), 1usize..400).prop_map(|(at, n)| Mutation::Delete(at, n)),
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Mutation::FlipBit(at, bit)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `frame::scan` on damaged real WAL bytes: it never panics, its valid
    // prefix lies inside the body and re-scans clean to the same frames,
    // and what it returns is a prefix of the undamaged file's frames —
    // unless the damage amounts to cutting out whole frames, which leaves
    // a valid file of the others.
    #[test]
    fn frame_scan_of_mutated_wal_bytes_keeps_a_valid_prefix(mutation in any_mutation()) {
        let (body, bounds) = real_wal();
        let original = frame::scan(body).frames;
        let mut bytes = body.clone();
        let len = bytes.len();
        let at = |pos: usize| pos % (len + 1);
        match mutation {
            Mutation::Overwrite(pos, b) => {
                let at = at(pos).min(bytes.len() - 1);
                let end = (at + b.len()).min(bytes.len());
                bytes[at..end].copy_from_slice(&b[..end - at]);
            }
            Mutation::Insert(pos, b) => {
                let at = at(pos);
                bytes.splice(at..at, b);
            }
            Mutation::Delete(pos, n) => {
                let at = at(pos);
                bytes.drain(at..(at + n).min(len));
            }
            Mutation::Truncate(pos) => bytes.truncate(at(pos)),
            Mutation::FlipBit(pos, bit) => {
                let at = at(pos).min(bytes.len() - 1);
                bytes[at] ^= 1 << bit;
            }
        }
        // Whether the result is the body less frames `i..j` exactly: its
        // head up to frame `i` and its tail from frame `j` unchanged. A
        // delete elsewhere can come to that where the log repeats itself.
        let head = body.iter().zip(&bytes).take_while(|(a, b)| a == b).count();
        let tail = (body.iter().rev().zip(bytes.iter().rev()))
            .take_while(|(a, b)| a == b)
            .count();
        let spliced = (len.checked_sub(bytes.len()).filter(|&cut| cut > 0)).and_then(|cut| {
            (0..bounds.len()).find_map(|i| {
                let j = bounds.binary_search(&(bounds[i] + cut)).ok()?;
                (bounds[i] <= head && len - bounds[j] <= tail).then_some((i, j))
            })
        });

        let scanned = frame::scan(&bytes);
        prop_assert!(scanned.valid_len <= bytes.len());
        match spliced {
            Some((i, j)) => {
                let rest = [&original[..i], &original[j..]].concat();
                prop_assert_eq!(&scanned.frames, &rest);
                prop_assert_eq!(scanned.end, frame::ScanEnd::Clean);
            }
            None => prop_assert!(original.starts_with(&scanned.frames)),
        }
        let again = frame::scan(&bytes[..scanned.valid_len]);
        prop_assert_eq!(again.end, frame::ScanEnd::Clean);
        prop_assert_eq!(again.frames, scanned.frames);
        prop_assert_eq!(again.valid_len, scanned.valid_len);
    }
}

/// Flat-file snapshot of a store directory, taken to model a crash at
/// this instant: recovery then runs against the copy while the live
/// store keeps going.
fn snapshot_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The degraded-durability contract under a *seeded* ENOSPC/EIO
    // schedule: whenever the store publishes a `durability_lost`
    // watermark, a crash at that instant must still recover every op at
    // or before the watermark (and the survivors must be an exact
    // prefix of the stream); afterwards `tend_durability` must heal the
    // store onto a fresh WAL generation with nothing lost at all.
    #[test]
    fn seeded_fault_schedule_degrades_heals_and_keeps_the_watermark(
        seed in any::<u64>(),
        n_ops in 60u64..140,
        mean_gap in 600u64..4_000,
        mean_len in 260u64..1_400,
    ) {
        let m = market(0);
        let profile = FaultProfile {
            mean_gap,
            mean_len,
            windows: 3,
            kinds: vec![FaultKind::WriteEnospc, FaultKind::WriteEio],
        };
        let io = Arc::new(FaultyDisk::seeded(seed, &profile));
        let tmp = TempDir::new("seeded-degrade-heal");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(
            &dir,
            DurableOptions {
                io: Some(io.clone() as Arc<dyn DiskIo>),
                ..opts()
            },
        )
        .unwrap();
        // The driver's clock, made up: every tend is past any backoff.
        let mut now = Instant::now();
        let mut clock = move || {
            now += HEAL_RETRY_CAP;
            now
        };

        // At least `n_ops` ops, and as many more as it takes to put the
        // whole fault schedule behind the disk's write position (how
        // many bytes an op costs is the format's business, not this
        // test's): the clean close below needs a disk that has healed.
        let mut crash_checked = false;
        let mut issued = 0u64;
        while issued < n_ops || !io.exhausted() {
            let i = issued;
            issued += 1;
            store.record_probe(probe_at(i, m));
            // Flushes fail while a fault window is active; the sink is
            // expected to absorb that, not ingest.
            let _ = store.flush();
            if let Some(w) = store.durability_lost() {
                if !crash_checked {
                    crash_checked = true;
                    // Crash NOW: the published watermark is a promise
                    // about what is already on disk.
                    let crash_dir = tmp.path().join("crash");
                    snapshot_dir(&dir, &crash_dir);
                    let crashed = DataStore::recover(&crash_dir).unwrap();
                    let covered = (0..=i)
                        .filter(|j| probe_at(*j, m).at <= w)
                        .count();
                    prop_assert!(
                        crashed.len() >= covered,
                        "watermark {w:?} promised {covered} ops, \
                         recovery found {}",
                        crashed.len()
                    );
                    let twin = DataStore::new();
                    for j in 0..crashed.len() as u64 {
                        twin.record_probe(probe_at(j, m));
                    }
                    assert_same_summaries(&crashed, &twin, &[m]);
                }
                // With the crash point audited, let the driver's clock
                // tick: heals may fail into backoff and retry.
                let _ = store.tend_durability(clock());
            }
        }

        // The schedule is finite, so tending must converge on Durable.
        let mut tends = 0;
        while store.durability_mode() != Some(DurabilityMode::Durable) {
            let _ = store.tend_durability(clock());
            tends += 1;
            prop_assert!(tends < 200, "heal never converged: {:?}",
                store.durability_stats());
        }
        prop_assert_eq!(store.durability_lost(), None);
        let stats = store.durability_stats().unwrap();
        prop_assert_eq!(crash_checked, stats.degraded_transitions > 0);
        if stats.degraded_transitions > 0 {
            prop_assert!(stats.heals >= 1, "degraded but never healed");
            prop_assert!(stats.io_errors >= 3, "retries consumed faults");
        }

        // Post-heal, the store is a normal durable store again: one
        // more op, a clean close, and a zero-replay recovery seeing
        // every op ever applied in memory (the healing checkpoint
        // captured the ones the degraded WAL dropped).
        let n_ops = issued;
        store.record_probe(probe_at(n_ops, m));
        store.close().unwrap();
        let (full, info) = DataStore::recover_with_report(
            &dir,
            DurableOptions::default(),
        )
        .unwrap();
        prop_assert!(info.from_clean_shutdown, "close wrote the marker");
        prop_assert_eq!(info.replayed_ops, 0, "clean restart replays nothing");
        prop_assert_eq!(full.len() as u64, n_ops + 1);
        let twin = DataStore::new();
        for j in 0..=n_ops {
            twin.record_probe(probe_at(j, m));
        }
        assert_same_summaries(&full, &twin, &[m]);

        // A heal re-establishes the log at a *fresh* generation; its
        // checkpoint prunes the generations the degraded WAL abandoned.
        if stats.degraded_transitions > 0 {
            let log = LogDir::open(&dir).unwrap();
            let gens = log.list_wal().unwrap();
            prop_assert!(
                gens.iter().all(|&generation| generation >= 1),
                "healed store still appending to generation 0: {gens:?}"
            );
        }
    }
}

/// The satellite sequence: compact, then crash *without* a checkpoint,
/// then recover. Nothing the compaction folded away may be lost, and a
/// checkpoint afterwards pins the compacted resident set exactly.
#[test]
fn compact_then_crash_then_recover_loses_nothing() {
    let tmp = TempDir::new("compact-crash");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    let twin = DataStore::new();
    let markets: Vec<MarketId> = (0..5).map(market).collect();
    let total = 240u64;
    for i in 0..total {
        let p = probe_at(i, markets[(i % 5) as usize]);
        store.record_probe(p);
        twin.record_probe(p);
    }
    for i in 0..10u64 {
        let s = SpikeEvent {
            market: markets[(i % 5) as usize],
            at: SimTime::from_secs(i * 600),
            ratio: 2.5,
            probed: i % 2 == 0,
        };
        store.record_spike(s);
        twin.record_spike(s);
    }

    let before = SimTime::from_secs(120 * 60);
    let dropped = store.compact(before);
    assert_eq!(dropped, twin.compact(before), "same compaction on both");
    assert!(dropped.dropped_probes > 0, "compaction must have work");
    let stats = store.durability_stats().unwrap();
    assert_eq!(stats.io_errors, 0, "error: {:?}", stats.last_error);

    // Crash without a checkpoint: the full WAL replays, so summaries
    // match the never-crashed twin and the replayed raw history is a
    // superset of its compacted resident set.
    store.flush().unwrap();
    drop(store);
    let recovered = DataStore::recover(&dir).unwrap();
    assert_eq!(recovered.len(), twin.len());
    assert_eq!(recovered.total_cost(), twin.total_cost());
    {
        let (g, w) = (recovered.read(), twin.read());
        for &m in &markets {
            for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
                assert_eq!(g.probe_stats(m, kind), w.probe_stats(m, kind));
            }
        }
    }
    assert!(recovered.resident_records() >= twin.resident_records());

    // Re-compacting converges on the twin's resident set, and then the
    // recovered summaries equal the twin's.
    let again = recovered.compact(before);
    assert_eq!(again, dropped);
    assert_eq!(recovered.resident_records(), twin.resident_records());
    assert_same_summaries(&recovered, &twin, &markets);

    // A checkpoint now pins the compacted state: recovery no longer
    // resurrects the dropped records.
    recovered.checkpoint().unwrap();
    drop(recovered);
    let after_ckpt = DataStore::recover(&dir).unwrap();
    assert_eq!(after_ckpt.resident_records(), twin.resident_records());
    assert_same_summaries(&after_ckpt, &twin, &markets);
}

/// A durable store compacts exactly as an in-memory twin fed the same
/// ops: at the same horizons both drop the same records and keep the
/// same resident set — healthy, and degraded by a full disk, whose
/// compaction writes nothing either. After a heal and a clean close the
/// recovered store answers as the twin.
#[test]
fn a_durable_compaction_equals_an_in_memory_one() {
    for degraded in [false, true] {
        // A full disk for the first 64 KiB written: the writer's retries
        // of the first batch all fail, and so do heals until the
        // attempts have written past it.
        let full = FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 0,
            to: 1 << 16,
        };
        let io = Arc::new(FaultyDisk::scripted(
            degraded.then_some(full).into_iter().collect(),
        ));
        let tmp = TempDir::new("compaction-twins");
        let dir = tmp.path().join("store");
        let opts = DurableOptions {
            io: Some(io as Arc<dyn DiskIo>),
            ..opts()
        };
        let store = DataStore::create_durable(&dir, opts).unwrap();
        let twin = DataStore::new();
        let markets: Vec<MarketId> = (0..5).map(market).collect();
        for pass in 1..=3u64 {
            for i in (pass - 1) * 200..pass * 200 {
                let m = markets[(i % 5) as usize];
                let p = probe_at(i, m);
                store.record_probe(p);
                twin.record_probe(p);
                if i % 7 == 0 {
                    let s = SpikeEvent {
                        market: m,
                        at: p.at,
                        ratio: 2.5,
                        probed: i % 2 == 0,
                    };
                    store.record_spike(s);
                    twin.record_spike(s);
                }
            }
            // A full disk fails the flush; the next append degrades.
            assert_eq!(store.flush().is_err(), degraded);
            let before = SimTime::from_secs((pass * 200 - 50) * 60);
            let dropped = store.compact(before);
            assert_eq!(dropped, twin.compact(before), "pass {pass}");
            assert!(dropped.dropped_probes > 0 && dropped.dropped_spikes > 0);
            assert_eq!(store.resident_records(), twin.resident_records());
        }
        let mode = store.durability_mode().unwrap();
        assert_eq!(mode == DurabilityMode::Degraded, degraded);

        // The driver's clock, made up: every tend is past any backoff.
        let mut now = Instant::now();
        let mut tends = 0;
        while store.durability_mode() != Some(DurabilityMode::Durable) {
            now += HEAL_RETRY_CAP;
            let _ = store.tend_durability(now);
            tends += 1;
            assert!(tends < 1_000, "{:?}", store.durability_stats());
        }
        store.close().unwrap();
        let recovered = DataStore::recover(&dir).unwrap();
        assert_eq!(recovered.resident_records(), twin.resident_records());
        assert_same_summaries(&recovered, &twin, &markets);
    }
}

/// `flush()` is a durability point of its own: a copy of the directory
/// taken right after it — no close, no checkpoint after the appends, so
/// no clean-shutdown marker — recovers every flushed record, the older
/// ones through the (compressed) checkpoint and the rest from the log
/// tail.
#[test]
fn flushed_records_survive_a_crash_without_a_clean_marker() {
    let tmp = TempDir::new("flush-then-crash");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    let feed = |range: std::ops::Range<u64>| {
        for i in range {
            store.record_probe(probe_at(i, market(i as u8 % 7)));
        }
    };
    feed(0..400);
    store.checkpoint().unwrap();
    feed(400..1_000);
    store.flush().unwrap();
    let crash = tmp.path().join("crash");
    snapshot_dir(&dir, &crash);
    assert!(!crash.join("clean").exists(), "no close, no marker");

    let (recovered, info) =
        DataStore::recover_with_report(&crash, DurableOptions::default()).unwrap();
    assert!(info.checkpoint_loaded && !info.from_clean_shutdown);
    assert_eq!(info.replayed_ops, 600, "the appends after the checkpoint");
    assert_eq!(recovered.len(), 1_000);
    let (g, w) = (recovered.read(), store.read());
    for m in (0..7).map(market) {
        let of = |p: &&ProbeRecord| p.market == m;
        let (got, want) = (g.probes().filter(of), w.probes().filter(of));
        assert!(got.eq(want), "{m:?}: every flushed record, in order");
    }
    drop((g, w));
    store.close().unwrap();
}

/// Checkpoint + damaged tail: ops before the checkpoint live in the
/// snapshot (their WAL generations are pruned), ops after it live in
/// the fresh generation — and a torn write there only costs the torn
/// record itself.
#[test]
fn checkpoint_with_torn_tail_recovers_through_the_snapshot() {
    let m = market(0);
    let tmp = TempDir::new("ckpt-torn-tail");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    for i in 0..25u64 {
        store.record_probe(probe_at(i, m));
    }
    store.checkpoint().unwrap();
    for i in 25..35u64 {
        store.record_probe(probe_at(i, m));
    }
    store.flush().unwrap();
    drop(store);

    // The post-checkpoint tail lives in generation 1; tear its final
    // frame.
    let log = LogDir::open(&dir).unwrap();
    let wal = log.wal_path(1);
    let spans = fault::frame_spans(&wal).unwrap();
    let &(s, e) = spans.last().unwrap();
    fault::truncate_at(&wal, (s + (e - s) / 2) as u64).unwrap();

    let recovered = DataStore::recover(&dir).unwrap();
    let twin = DataStore::new();
    for i in 0..34u64 {
        twin.record_probe(probe_at(i, m));
    }
    assert_same_summaries(&recovered, &twin, &[m]);

    // Recovery reopened the log at generation 2 and replayed 0 and 1
    // into memory; this checkpoint rotates to 3, captures everything,
    // and deletes every generation below its floor.
    recovered.checkpoint().unwrap();
    drop(recovered);
    let log = LogDir::open(&dir).unwrap();
    let gens = log.list_wal().unwrap();
    assert!(
        gens.iter().all(|&generation| generation >= 2),
        "second checkpoint prunes the replayed generations, got {gens:?}"
    );
    assert_same_summaries(&DataStore::recover(&dir).unwrap(), &twin, &[m]);
}

/// Same ops, same bytes: a checkpoint holds nothing that depends on
/// the process that wrote it. The on-demand rejection counts and the
/// region-health table (one entry per region here, the former spread
/// over the stripes) were `RandomState` maps written in iteration order.
#[test]
fn checkpoints_of_equal_stores_are_byte_identical() {
    let write = |name: &str| {
        let tmp = TempDir::new(name);
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, opts()).unwrap();
        for (i, region) in Region::ALL.into_iter().enumerate() {
            let m = MarketId {
                az: Az::new(region, 0),
                ..market(0)
            };
            for j in 0..4 {
                store.record_probe(probe_at(4 * i as u64 + j, m));
            }
            let at = SimTime::from_secs(1_000 * i as u64);
            store.mark_region_degraded(region, at);
            if i % 2 == 0 {
                store.mark_region_recovered(region, at + SimDuration::from_secs(300));
            }
        }
        store.checkpoint().unwrap();
        std::fs::read(dir.join("checkpoint")).unwrap()
    };
    let first = write("ckpt-bytes-a");
    // Sized before compression: the file itself is smaller since
    // format 5.
    let tmp = TempDir::new("ckpt-bytes-raw");
    std::fs::write(tmp.path().join("checkpoint"), &first).unwrap();
    LogDir::create(tmp.path()).unwrap();
    let log = LogDir::open(tmp.path()).unwrap();
    let raw: usize = log
        .read_checkpoint()
        .unwrap()
        .unwrap()
        .sections()
        .map(|section| section.unwrap().len())
        .sum();
    assert!(raw > 1_000, "a real checkpoint: {raw} B");
    for name in ["ckpt-bytes-b", "ckpt-bytes-c"] {
        assert!(
            first == write(name),
            "{name}: equal stores, different bytes"
        );
    }
}

/// The `checkpoint` file a small fixed store leaves after `close()`,
/// byte for byte: probes in several stripes, spikes (one repeating a
/// `PriceSpike` probe), and the region table. How the checkpoint is
/// written and loaded may change; its bytes change only with a
/// `frame::FORMAT_VERSION` bump, which regenerates the file
/// (`CHECKPOINT_GOLDEN_WRITE=1 cargo test --test persistence
/// checkpoint_file_matches_its_golden_bytes`).
#[test]
fn checkpoint_file_matches_its_golden_bytes() {
    const GOLDEN: &str = include_str!("golden/checkpoint_format13.hex");
    let tmp = TempDir::new("ckpt-golden");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    for i in 0..48u64 {
        store.record_probe(probe_at(i, market((i % 6) as u8)));
    }
    let spike = ProbeRecord {
        trigger: ProbeTrigger::PriceSpike { ratio: 2.5 },
        ..probe_at(49, market(1))
    };
    store.record_probe(spike);
    for (at, ratio, probed) in [(spike.at, 2.5, true), (SimTime::from_secs(90), 1.75, false)] {
        store.record_spike(SpikeEvent {
            market: market(1),
            at,
            ratio,
            probed,
        });
    }
    store.mark_region_degraded(Region::UsWest2, SimTime::from_secs(600));
    store.close().unwrap();
    let bytes = std::fs::read(dir.join("checkpoint")).unwrap();
    let rendered: String = bytes
        .chunks(32)
        .map(|line| line.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect();
    if std::env::var_os("CHECKPOINT_GOLDEN_WRITE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/checkpoint_format13.hex"
        );
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    assert_eq!(rendered, GOLDEN, "the checkpoint file's bytes moved");
}

/// Keys whose intervals lie months apart persist what they observed,
/// not one bucket per empty hour, and recover — through the checkpoint
/// and through the replayed tail — to the same span sums.
#[test]
fn keys_with_long_empty_epoch_gaps_recover_exactly() {
    use ProbeOutcome::{Fulfilled, InsufficientCapacity};
    const HOUR: u64 = 3600;
    // Gaps of 1200–2500 empty hours; one interval closes two hours
    // after it opened, the last one stays open.
    let script = [
        (0, InsufficientCapacity),
        (2, Fulfilled),
        (1203, Fulfilled),
        (2500, InsufficientCapacity),
        (2501, Fulfilled),
        (5002, InsufficientCapacity),
    ];
    let markets = [market(0), market(1)];
    let feed = |store: &DataStore, steps: &[(u64, ProbeOutcome)]| {
        for &(hour, outcome) in steps {
            for (i, &m) in markets.iter().enumerate() {
                let mut p = probe_at(0, m);
                p.at = SimTime::from_secs(hour * HOUR + 600 * i as u64);
                p.outcome = outcome;
                store.record_probe(p);
            }
        }
    };

    let tmp = TempDir::new("sparse-epoch-gaps");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    feed(&store, &script[..4]);
    store.checkpoint().unwrap();
    feed(&store, &script[4..]);
    store.flush().unwrap();
    drop(store);
    let checkpoint_len = std::fs::metadata(dir.join("checkpoint")).unwrap().len();
    assert!(
        checkpoint_len < 16 * 1024,
        "2501 hours of two keys must not persist 2501 buckets each: {checkpoint_len} B"
    );

    let twin = DataStore::new();
    feed(&twin, &script);
    let recovered = DataStore::recover(&dir).unwrap();
    assert_same_summaries(&recovered, &twin, &markets);
    let (g, w) = (recovered.read(), twin.read());
    for &m in &markets {
        for (from, to) in [(0, 6000), (1, 2500), (3, 1203), (2500, 2502), (2400, 5003)] {
            let (from, to) = (
                SimTime::from_secs(from * HOUR),
                SimTime::from_secs(to * HOUR),
            );
            let kind = ProbeKind::OnDemand;
            assert_eq!(
                g.unavailable_seconds_in(m, kind, from, to),
                w.unavailable_seconds_in(m, kind, from, to)
            );
        }
        let whole = g.unavailable_seconds_in(
            m,
            ProbeKind::OnDemand,
            SimTime::ZERO,
            SimTime::from_secs(6000 * HOUR),
        );
        assert_eq!(whole, (2 + 1 + 998) * HOUR - 600 * (m == markets[1]) as u64);
    }
}

/// One market of the paper's 5184: 9 regions × 6 AZ indices × 8
/// instance families × 3 sizes × 4 platforms, mixed-radix over `i`.
fn wide_market(i: usize) -> MarketId {
    const FAMILIES: [&str; 8] = ["m1", "m3", "m4", "c1", "c3", "c4", "r3", "t2"];
    const SIZES: [&str; 3] = ["large", "xlarge", "2xlarge"];
    const PLATFORMS: [Platform; 4] = [
        Platform::LinuxUnix,
        Platform::LinuxUnixVpc,
        Platform::Windows,
        Platform::SuseLinux,
    ];
    let region = Region::ALL[i % 9];
    let ty = format!("{}.{}", FAMILIES[(i / 54) % 8], SIZES[(i / 432) % 3]);
    MarketId {
        az: Az::new(region, ((i / 9) % 6) as u8),
        instance_type: ty.parse().unwrap(),
        platform: PLATFORMS[(i / 1296) % 4],
    }
}

/// Year-scale ingest over all 5184 markets with monthly compaction
/// and checkpoints: the resident set stays bounded
/// while the recorded history keeps growing, and the store still
/// recovers. Gated: run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "year-scale run; release-mode only, run explicitly"]
fn year_scale_5184_market_run_stays_resident_bounded() {
    const MARKETS: usize = 5184;
    const PER_HOUR: usize = 128;
    const HOURS: u64 = 365 * 24;
    const RESIDENT_CAP: u64 = 250_000;

    let tmp = TempDir::new("year-scale");
    let dir = tmp.path().join("store");
    let store = DataStore::create_durable(&dir, opts()).unwrap();
    let mut issued = 0u64;
    for h in 0..HOURS {
        let now = SimTime::from_secs(h * 3600);
        for k in 0..PER_HOUR {
            let i = (h as usize * PER_HOUR + k) % MARKETS;
            let mut p = probe_at(h * PER_HOUR as u64 + k as u64, wide_market(i));
            p.at = now;
            store.record_probe(p);
            issued += 1;
        }
        if h > 0 && h % (30 * 24) == 0 {
            // Keep two weeks of raw records resident; free the rest.
            store.compact(SimTime::from_secs((h - 14 * 24) * 3600));
            store.checkpoint().unwrap();
            assert!(
                store.resident_records() < RESIDENT_CAP,
                "resident set unbounded: {} records at hour {h}",
                store.resident_records()
            );
        }
    }
    assert_eq!(store.len() as u64, issued);
    let stats = store.durability_stats().unwrap();
    assert_eq!(stats.io_errors, 0, "error: {:?}", stats.last_error);
    assert!(store.disk_bytes().unwrap() > 0);

    let sample = wide_market(17);
    let want_stats = store.read().probe_stats(sample, ProbeKind::OnDemand);
    let want_resident = store.resident_records();
    store.flush().unwrap();
    drop(store);

    let recovered = DataStore::recover(&dir).unwrap();
    assert_eq!(recovered.len() as u64, issued);
    assert_eq!(recovered.resident_records(), want_resident);
    assert_eq!(
        recovered.read().probe_stats(sample, ProbeKind::OnDemand),
        want_stats
    );
}
