//! Immutable, atomically-swapped snapshots of the store — the
//! RCU/arc-swap pattern the HTTP query service reads through.
//!
//! [`DataStore::read`] takes a capture of the store per call — right
//! for a batch of analyses, wrong for a serving hot path, where a
//! million GETs must not each pay O(keys) and visit every stripe lock.
//! Instead the service publishes a [`StoreSnapshot`] — the same owned,
//! immutable capture of the stripes plus the store-wide counters, kept
//! with its capture time — into a [`SnapshotHub`], and request workers
//! read through a per-worker [`SnapshotReader`] cache:
//!
//! * **Publish** (ingest side): [`DataStore::snapshot`] →
//!   [`SnapshotHub::publish`]. The capture is a shallow clone of each
//!   stripe — it shares every record chunk, spike-ratio bucket and
//!   per-key state with the store, and ingest copies on first write
//!   what a capture still holds (see [`crate::store`], "Sharing") — so
//!   a publish costs what changed since the last one, not the size of
//!   the store. The publish itself swaps the `Arc` under a tiny mutex
//!   and bumps a generation counter.
//! * **Read** (query side, hot): [`SnapshotReader::current`] is one
//!   atomic generation load plus a branch; the mutex is touched only
//!   on the first read after a publish. Queries then run over
//!   [`StoreSnapshot::read`] — the same [`crate::store::StoreRead`]
//!   view [`DataStore::read`] returns, borrowed instead of owned, so
//!   readers never block ingest and ingest never blocks readers.
//!
//! The crate forbids `unsafe`, so the swap is a mutex-guarded `Arc`
//! clone rather than an `AtomicPtr` dance; the generation check keeps
//! that mutex off the per-request path entirely.
//!
//! # Captured eagerly, derived lazily
//!
//! A publish takes the capture and the clock and nothing else. What
//! only the all-market questions need is **derived** from the capture
//! by the first request of a generation that asks, and kept with the
//! snapshot for the rest of them — the capture cannot change, so every
//! request would otherwise recompute the same per-market numbers:
//!
//! * an `AdvisorTable` (see [`crate::query`]): every probed market in
//!   `MarketId` order with its on-demand key's counters, its
//!   unavailable seconds over the default span `[0, max(as_of, 1))` and
//!   its rejection times, plus a **rank** — the rows sorted once by
//!   (that unavailable fraction, position) — behind
//!   [`StoreSnapshot::probed_markets_sorted`],
//!   [`StoreSnapshot::top_available_markets`] and
//!   [`StoreSnapshot::uncorrelated_fallbacks`] — a `OnceLock`, so
//!   requests racing for it build it once. A default-span ranking walks
//!   the rank and stops at `n`, exactly: the top is the rank filtered,
//!   and a fallback's score (correlation ≥ 0, own fraction, position)
//!   puts every uncorrelated candidate first and in rank order, so only
//!   the correlated ones the walk set aside are ever sorted, and only
//!   when it runs out of the others;
//! * lifetime spike counts per threshold asked for, at most
//!   [`MAX_SPIKE_THRESHOLDS`] of them, behind
//!   [`StoreSnapshot::spikes_at_or_above_each`].
//!
//! Lazily, because a publish nobody puts such a question to then costs
//! nothing (no per-capture sort of the market list any more); the
//! first request of a generation pays the build instead — the walk
//! every such request used to make, plus that sort and the rank's.
//! Neither is part of the capture: [`StoreSnapshot::read`] — what
//! [`crate::query::SpotLightQuery`], `repro`, the examples and the
//! benchmark's oracle evaluate — never reads them, which is what lets
//! `tests/properties.rs` hold the derived answers to that path's.

use crate::query::AdvisorTable;
use crate::store::{Capture, DataStore, StoreRead};
use crate::sync::Mutex;
use cloud_sim::ids::MarketId;
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The most thresholds one `/v1/spike-rates` request may name, and the
/// most distinct thresholds a snapshot memoises spike counts for.
pub const MAX_SPIKE_THRESHOLDS: usize = 32;

/// An owned, immutable capture of the store's queryable state,
/// consistent across stripes (captured under every stripe's read lock)
/// and sharing with the store whatever ingest has not rewritten since.
#[derive(Debug)]
pub struct StoreSnapshot {
    capture: Capture,
    as_of: SimTime,
    /// Derived by the first request that ranks every market.
    advisor: OnceLock<AdvisorTable>,
    /// Lifetime spike counts by threshold bits, as asked for; at most
    /// [`MAX_SPIKE_THRESHOLDS`] entries.
    spike_counts: Mutex<Vec<(u64, u64)>>,
}

impl StoreSnapshot {
    /// A lock-free read view over the snapshot — the full
    /// [`StoreRead`] query/analysis surface, shareable across any
    /// number of threads.
    pub fn read(&self) -> StoreRead<'_> {
        self.capture.read()
    }

    /// The publisher-supplied capture time: queries default their
    /// observation span's end (their "now") to this.
    pub fn as_of(&self) -> SimTime {
        self.as_of
    }

    /// The derived table, built by the first caller.
    pub(crate) fn advisor(&self) -> &AdvisorTable {
        self.advisor
            .get_or_init(|| AdvisorTable::build(&self.read(), self.as_of))
    }

    /// Every market probed at least once as of the capture, sorted —
    /// the advisor endpoints' candidates (derived on first use).
    pub fn probed_markets_sorted(&self) -> &[MarketId] {
        &self.advisor().markets
    }

    /// [`StoreRead::spikes_at_or_above_each`], memoised: a threshold is
    /// swept for once per snapshot while the memo has room, all the
    /// misses of one call in one pass over the buckets.
    pub fn spikes_at_or_above_each(&self, thresholds: &[f64]) -> Vec<u64> {
        let known = |counts: &[(u64, u64)], threshold: f64| {
            let hit = counts
                .iter()
                .find(|&&(bits, _)| bits == threshold.to_bits());
            hit.map(|&(_, count)| count)
        };
        // Held across the sweep: requests racing for a threshold wait
        // for one sweep rather than each running their own.
        let mut memo = self.spike_counts.lock();
        let mut missing: Vec<f64> = thresholds.to_vec();
        missing.retain(|&t| known(&memo, t).is_none());
        let mut swept = Vec::new();
        if !missing.is_empty() {
            let counts = self.read().spikes_at_or_above_each(&missing);
            swept.extend(missing.iter().map(|t| t.to_bits()).zip(counts));
            for &(bits, count) in &swept {
                if memo.len() < MAX_SPIKE_THRESHOLDS && memo.iter().all(|&(b, _)| b != bits) {
                    memo.push((bits, count));
                }
            }
        }
        let count = |&t| known(&memo, t).or_else(|| known(&swept, t));
        let counts = thresholds.iter().map(count);
        counts.map(|c| c.expect("every miss was swept")).collect()
    }

    /// Probes recorded over the store's lifetime as of the capture.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when the captured store had recorded no probes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total money spent on probes as of the capture.
    pub fn total_cost(&self) -> Price {
        self.read().total_cost()
    }
}

impl DataStore {
    /// Captures an immutable snapshot of the store's queryable state —
    /// the capture [`DataStore::read`] takes (a shallow clone of every
    /// stripe plus the store-wide counters and health tables, from one
    /// instant), kept with `as_of`, the publisher's clock: what
    /// snapshot queries treat as "now".
    ///
    /// The capture copies no record, index or key state — only each
    /// stripe's chunk spines and map tables — so its cost follows the
    /// number of keys, spike epochs and chunks, and what ingest pays
    /// afterwards follows what it rewrites while the snapshot is alive.
    /// A sub-second publish cadence is affordable.
    pub fn snapshot(&self, as_of: SimTime) -> StoreSnapshot {
        StoreSnapshot {
            capture: self.capture(|| ()).0,
            as_of,
            advisor: OnceLock::new(),
            spike_counts: Mutex::default(),
        }
    }
}

/// The publication point: one current [`StoreSnapshot`] behind an
/// atomically-bumped generation. Writers swap; readers poll the
/// generation and re-clone the `Arc` only when it moved.
#[derive(Debug)]
pub struct SnapshotHub {
    current: Mutex<Arc<StoreSnapshot>>,
    generation: AtomicU64,
}

impl SnapshotHub {
    /// Creates a hub publishing `initial` at generation 0.
    pub fn new(initial: StoreSnapshot) -> Self {
        SnapshotHub {
            current: Mutex::new(Arc::new(initial)),
            generation: AtomicU64::new(0),
        }
    }

    /// Publishes a new snapshot, returning the new generation. Readers
    /// observe the bump and refresh on their next request.
    ///
    /// The previous generation is released only after the hub's mutex
    /// is: when no reader still holds it that release is its whole
    /// teardown, and a reloading reader's [`SnapshotHub::load`] must
    /// not wait behind it.
    pub fn publish(&self, snapshot: StoreSnapshot) -> u64 {
        let next = Arc::new(snapshot);
        let mut current = self.current.lock();
        let previous = std::mem::replace(&mut *current, next);
        // Bumped while the mutex is held so a reader that sees the new
        // generation is guaranteed to load (at least) this snapshot.
        let generation = self.generation.fetch_add(1, Ordering::Release) + 1;
        drop(current);
        drop(previous);
        generation
    }

    /// Captures and publishes a fresh snapshot of `store` in one call —
    /// the publication hook an ingest loop runs at its own cadence.
    pub fn republish(&self, store: &DataStore, as_of: SimTime) -> u64 {
        self.publish(store.snapshot(as_of))
    }

    /// The current snapshot (clones the `Arc` under the mutex; use a
    /// [`SnapshotReader`] on hot paths).
    pub fn load(&self) -> Arc<StoreSnapshot> {
        self.current.lock().clone()
    }

    /// The current generation (0 until the first [`SnapshotHub::publish`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// A per-worker cache of the hub's current snapshot. The fast path of
/// [`SnapshotReader::current`] is one atomic load and a pointer return;
/// only the first call after a publish pays the mutex.
#[derive(Debug)]
pub struct SnapshotReader {
    generation: u64,
    cached: Arc<StoreSnapshot>,
}

impl SnapshotReader {
    /// Creates a reader primed with the hub's current snapshot.
    pub fn new(hub: &SnapshotHub) -> Self {
        // Generation first: if a publish lands in between, the cache is
        // newer than the recorded generation and the next `current`
        // call harmlessly reloads.
        let generation = hub.generation();
        SnapshotReader {
            generation,
            cached: hub.load(),
        }
    }

    /// The freshest published snapshot, refreshing the cache only when
    /// the hub's generation moved.
    pub fn current(&mut self, hub: &SnapshotHub) -> &Arc<StoreSnapshot> {
        let generation = hub.generation();
        if generation != self.generation {
            self.generation = generation;
            self.cached = hub.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
    use crate::query::SpotLightQuery;
    use cloud_sim::catalog::Catalog;
    use cloud_sim::ids::{Az, Platform, Region};
    use std::sync::atomic::AtomicBool;

    fn market(i: u8) -> MarketId {
        MarketId {
            az: Az::new(Region::UsEast1, i),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    fn probe(at: u64, m: MarketId, outcome: ProbeOutcome) -> ProbeRecord {
        ProbeRecord {
            at: SimTime::from_secs(at),
            market: m,
            kind: ProbeKind::OnDemand,
            trigger: ProbeTrigger::PriceSpike { ratio: 2.0 },
            outcome,
            spot_ratio: 2.0,
            bid: None,
            cost: Price::from_dollars(0.1),
        }
    }

    #[test]
    fn snapshot_answers_match_live_reads() {
        let store = DataStore::new();
        let m = market(0);
        store.record_probe(probe(0, m, ProbeOutcome::InsufficientCapacity));
        store.record_probe(probe(900, m, ProbeOutcome::Fulfilled));
        store.record_probe(probe(1800, market(1), ProbeOutcome::Fulfilled));
        store.mark_region_degraded(Region::EuWest1, SimTime::from_secs(100));

        let snap = store.snapshot(SimTime::from_secs(3600));
        let live = store.read();
        let frozen = snap.read();
        let span = (SimTime::ZERO, SimTime::from_secs(3600));

        let ql = SpotLightQuery::new(&live, span.0, span.1);
        let qs = SpotLightQuery::new(&frozen, span.0, span.1);
        assert_eq!(
            ql.availability(m, ProbeKind::OnDemand),
            qs.availability(m, ProbeKind::OnDemand)
        );
        assert_eq!(
            ql.freshness(m, ProbeKind::OnDemand),
            qs.freshness(m, ProbeKind::OnDemand)
        );
        assert_eq!(ql.degraded_regions(), qs.degraded_regions());
        assert_eq!(live.len(), frozen.len());
        assert_eq!(live.total_cost(), frozen.total_cost());
        assert_eq!(
            live.probed_markets().count(),
            frozen.probed_markets().count()
        );
        assert_eq!(snap.as_of(), SimTime::from_secs(3600));
        assert_eq!(snap.probed_markets_sorted(), [m, market(1)]);
    }

    #[test]
    fn snapshot_is_immutable_under_later_ingest() {
        let store = DataStore::new();
        let m = market(0);
        store.record_probe(probe(0, m, ProbeOutcome::Fulfilled));
        let snap = store.snapshot(SimTime::from_secs(10));
        store.record_probe(probe(20, m, ProbeOutcome::InsufficientCapacity));
        let frozen = snap.read();
        assert_eq!(frozen.len(), 1);
        assert!(!frozen.is_unavailable(m, ProbeKind::OnDemand));
        assert_eq!(store.read().len(), 2);
    }

    /// The header must be read under the stripe guards: read after
    /// they drop, a writer racing the capture (not the publisher
    /// itself, as in the coherence tests below) leaves `len` and
    /// `total_cost` ahead of the probes the snapshot holds.
    #[test]
    fn snapshot_header_matches_stripes_under_a_racing_writer() {
        let markets = Catalog::standard().markets().to_vec();
        let store = DataStore::new();
        for (i, &m) in markets.iter().enumerate() {
            store.record_probe(probe(i as u64, m, ProbeOutcome::Fulfilled));
        }
        // Stops the writer when the captures finish — or a failed
        // assertion unwinds — so the scope's join never hangs.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                started.wait();
                let mut t = 0;
                while !stop.load(Ordering::Relaxed) {
                    store.record_probe(probe(
                        t,
                        markets[t as usize % markets.len()],
                        ProbeOutcome::Fulfilled,
                    ));
                    t += 1;
                }
            });
            let _stop = StopOnDrop(&stop);
            started.wait();
            for t in 0..50u64 {
                let snap = store.snapshot(SimTime::from_secs(t));
                let held = snap.read().probes().map(|p| p.cost).sum::<Price>();
                assert_eq!(
                    snap.len(),
                    snap.read().probes().count(),
                    "capture {t}: header ahead of stripes"
                );
                assert_eq!(snap.total_cost(), held, "capture {t}");
            }
        });
    }

    /// The derived state is per generation, built by whoever asks
    /// first — once, however many ask at once — and a generation nobody
    /// asks costs nothing to publish or to drop.
    #[test]
    fn derived_state_is_built_once_on_demand_and_never_by_a_publish() {
        let store = DataStore::new();
        for (i, m) in (0..8).map(market).enumerate() {
            store.record_probe(probe(i as u64, m, ProbeOutcome::InsufficientCapacity));
            store.record_spike(crate::store::SpikeEvent {
                market: m,
                at: SimTime::from_secs(i as u64),
                ratio: i as f64,
                probed: true,
            });
        }
        let hub = SnapshotHub::new(store.snapshot(SimTime::from_secs(10)));
        let first = hub.load();
        let gate = std::sync::Barrier::new(4);
        let tables: Vec<usize> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        let markets = first.probed_markets_sorted();
                        assert_eq!(markets.len(), 8);
                        markets.as_ptr() as usize
                    })
                })
                .collect();
            racers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(
            tables.iter().all(|&t| t == tables[0]),
            "one table: {tables:?}"
        );

        // Superseded before anybody asked: nothing was derived.
        hub.republish(&store, SimTime::from_secs(20));
        let second = hub.load();
        hub.republish(&store, SimTime::from_secs(30));
        assert!(second.advisor.get().is_none());
        assert_eq!(second.spike_counts.lock().capacity(), 0);
        assert!(hub.load().advisor.get().is_none());

        // Distinct thresholds fill the memo and then stop growing it.
        for base in 0..3 {
            let flood: Vec<f64> = (0..MAX_SPIKE_THRESHOLDS)
                .map(|i| (base * MAX_SPIKE_THRESHOLDS + i) as f64 / 10.0)
                .collect();
            assert_eq!(
                second.spikes_at_or_above_each(&flood),
                second.read().spikes_at_or_above_each(&flood)
            );
            assert_eq!(second.spike_counts.lock().len(), MAX_SPIKE_THRESHOLDS);
        }
        assert!(second.advisor.get().is_none(), "spike counts need no table");
    }

    #[test]
    fn hub_generation_gates_reader_refresh() {
        let store = DataStore::new();
        let m = market(0);
        store.record_probe(probe(0, m, ProbeOutcome::Fulfilled));
        let hub = SnapshotHub::new(store.snapshot(SimTime::from_secs(1)));
        let mut reader = SnapshotReader::new(&hub);
        assert_eq!(hub.generation(), 0);
        assert_eq!(reader.current(&hub).len(), 1);

        store.record_probe(probe(5, m, ProbeOutcome::Fulfilled));
        assert_eq!(reader.current(&hub).len(), 1, "not yet published");
        let generation = hub.republish(&store, SimTime::from_secs(6));
        assert_eq!(generation, 1);
        assert_eq!(reader.current(&hub).len(), 2);
        assert_eq!(reader.current(&hub).as_of(), SimTime::from_secs(6));
    }

    #[test]
    fn concurrent_publishers_and_readers_stay_coherent() {
        let store = Arc::new(DataStore::new());
        let hub = Arc::new(SnapshotHub::new(store.snapshot(SimTime::ZERO)));
        std::thread::scope(|scope| {
            let publisher = {
                let store = Arc::clone(&store);
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    for t in 0..200u64 {
                        store.record_probe(probe(
                            t,
                            market((t % 4) as u8),
                            ProbeOutcome::Fulfilled,
                        ));
                        hub.republish(&store, SimTime::from_secs(t));
                    }
                })
            };
            for _ in 0..2 {
                let hub = Arc::clone(&hub);
                scope.spawn(move || {
                    let mut reader = SnapshotReader::new(&hub);
                    let mut last = 0usize;
                    for _ in 0..1000 {
                        let snap = reader.current(&hub);
                        let n = snap.len();
                        assert!(n >= last, "snapshots must advance monotonically");
                        assert_eq!(snap.read().probes().count(), n);
                        last = n;
                    }
                });
            }
            publisher.join().unwrap();
        });
        assert_eq!(hub.load().len(), 200);
    }
}
