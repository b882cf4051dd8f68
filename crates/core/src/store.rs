//! SpotLight's database: every probe, spike, unavailability interval,
//! revocation observation, and intrinsic-bid measurement.
//!
//! The prototype in the paper logged "all states and status changes
//! timestamps ... into database" through a dedicated database manager
//! (Chapter 4). Here the store is a **lock-striped, summarized
//! in-memory log**: the analysis (`crate::analysis`) and the query
//! interface (`crate::query`) are pure functions over a [`StoreRead`]
//! snapshot of it.
//!
//! # Striping
//!
//! Records are routed to one of [`STRIPES`] (16) stripes by a hash of
//! their market id; each stripe sits behind its own
//! [`crate::sync::RwLock`]. Ingest (`record_*`, all `&self`)
//! write-locks exactly one stripe, so concurrent probe workers in live
//! mode only contend when they hit the same stripe. Reads are
//! **captures**: [`DataStore::read`] takes every stripe's read lock
//! (in stripe order, so captures never deadlock against writers) for
//! the length of a shallow clone, reads the store-wide counters and
//! health table while they are held, lets go, and exposes the whole-log
//! iteration and per-key API on the owned view. No caller ever holds a
//! stripe guard, so nothing that reads the store stops what fills it.
//! On the store itself `len`, `total_cost` and `suppressed_probes` are
//! lock-free atomics.
//!
//! # Index invariants
//!
//! Within a stripe the log slabs (`probes`, `spikes`, `intervals`, …)
//! are append-only between compactions. The one secondary index is
//! `keys`: one `KeyState` per `(market, kind)` holding everything the
//! per-key queries need in a single hash lookup — running
//! informative/rejection counters, the key's interval index (positions
//! in the interval slab, in interval-open order, each with the closed
//! seconds of the key's earlier intervals), the at-most-one open
//! interval (always the index's last) and the time-sorted rejection
//! timestamps. Every probe creates its key and compaction keeps keys
//! and intervals, so the key table is also the set of markets ever
//! probed, and a key's closed-interval count is its index's length less
//! the open one. There is no per-market index: a market's raw probes,
//! revocations and intrinsic bids are a filter over its stripe's slab.
//! A checkpoint's stripe is refused on load unless its interval
//! positions fall inside its slab, its open interval is its index's
//! last, its prefix sums are the running sums of its intervals, an
//! ordered key's intervals are start-sorted and non-overlapping, and
//! its sorted lists are sorted.
//!
//! # Span sums
//!
//! A key's unavailable seconds inside a span
//! ([`StoreRead::unavailable_seconds_in`]) are a prefix difference over
//! its interval index: each entry carries `closed_before`, the closed
//! seconds of the key's earlier intervals, written once when the
//! interval opens — so the only write a probe makes to a key's lists is
//! an insert (a rejection's time) or an append (an opening's entry).
//! For a key whose intervals are start-sorted and non-overlapping
//! (always true for the engine's monotone timestamps) a span costs two
//! partition points by start, one prefix difference over the intervals
//! inside it and the two boundary intervals clipped to it — the one
//! straddling its start and the last one starting inside it — plus the
//! open interval: exact, and O(log intervals) whatever the span. A key that ever observes
//! out-of-order interval bookkeeping is flagged `disordered` and walks
//! its intervals exactly. Spike ratios are bucketed per [`EPOCH_SECS`]
//! epoch in sorted lists, so threshold counts
//! ([`StoreRead::spikes_at_or_above`]) are binary searches per bucket,
//! independent of the raw spike log.
//!
//! # Sharing
//!
//! A stripe holds **one copy of what was observed** and hands out
//! shallow captures of it. `Stripe::clone` — taken in one place,
//! `DataStore::capture`, under the stripes' read locks, for
//! [`DataStore::read`], [`DataStore::snapshot`] and
//! [`DataStore::checkpoint`] alike — copies the stripe's tables and
//! never a record, an index or a key's history:
//!
//! * the five record slabs (`probes`, `spikes`, `intervals`,
//!   `revocations`, `intrinsic_bids`) are `crate::shared::ChunkVec`s
//!   of `Arc`-shared chunks; a clone copies the chunk spine;
//! * every list in the two maps — an epoch's sorted spike ratios, a
//!   key's interval index and rejection times — is a
//!   `crate::shared::CowVec`,
//!   elements and spare capacity in one `Arc`'d buffer; a clone bumps a
//!   reference count. The buffer is one pointer hop from its table, as
//!   the `Vec` it replaces was, and a key's scalars (counters, open
//!   interval, freshness) stay inline in the key table: a capture copies
//!   those with the table, and the advisor scans never chase a key's
//!   allocation around a heap that copy-on-write has shuffled.
//!
//! The invariant that makes a capture immutable: ***no `&mut` into a
//! stripe's shared parts except through the two containers' write
//! methods***, which test [`Arc::get_mut`] and copy the one buffer a
//! clone still holds before writing (what `Arc::make_mut` does, without
//! the second hop an `Arc<Vec<T>>` would add). Every `record_*` /
//! `compact` mutation goes through them, so a writer copies one list or
//! one chunk the first time it touches it after a capture — under the
//! stripe's write lock, which is why the units are that small — and
//! nothing when no capture is alive (the test is then an uncontended
//! reference-count check). A publish so costs what changed since the
//! last one, and the previous generation's teardown frees only what was
//! replaced.
//!
//! A probe writes a key's lists only when it changes what they hold: a
//! rejection inserts its time, and one that opens an interval appends
//! to the interval index. A fulfilment — one that closes an interval
//! too, which writes the slab — updates the key's inline scalars only,
//! so after a capture it copies no list.
//!
//! # Compaction
//!
//! [`DataStore::compact`] folds records strictly older than a retention
//! horizon into the summaries and frees the raw slabs: probe and spike
//! records are dropped (their contributions already live in the running
//! counters, rejection-time indices, interval log, and spike-ratio
//! buckets), while intervals, rejection timestamps, revocations, and
//! intrinsic bids — the small derived structures every summarized query
//! is answered from — are retained in full. Summarized queries
//! (`availability`, `unavailable_seconds`, `spike_rates`,
//! `top_available_markets`, `conditional_unavailability`,
//! `mean_time_to_revocation`, the running counters) therefore return
//! bit-identical results before and after compaction; only raw-log
//! iteration (`probes`, `spikes`) shrinks to the retained window. No
//! index points into either slab, so compacting one is a filter.
//! [`DataStore::len`] keeps counting every probe ever recorded;
//! [`DataStore::resident_records`] / [`DataStore::resident_bytes`]
//! report what is actually held.
//!
//! # Durability and recovery
//!
//! A store opened with [`DataStore::create_durable`] additionally
//! appends every mutation to a CRC-framed, append-only log (one staging
//! buffer, one file per generation on disk, its frames in sequence
//! order), written by a background thread behind a bounded queue with a
//! configurable fsync policy ([`crate::durable::DurableOptions`]).
//! [`DataStore::checkpoint`] writes an atomic full-state snapshot and
//! prunes the log behind it; [`DataStore::recover`] rebuilds the store
//! from the last checkpoint plus the surviving log tail, trimming torn
//! or corrupt tail frames and dropping, with one monotone sequence
//! floor, the covered and duplicated frames. [`DataStore::compact`] is
//! the same in both modes: it frees raw records whose summaries are
//! kept, and the next checkpoint writes the compacted stripes. The
//! protocol, sequence-number reasoning, and crash-safety argument live in
//! [`crate::durable`]; the recovery oracle is
//! `tests/persistence.rs`, which asserts a recovered store answers
//! summarized queries bit-identically to one that never crashed across
//! a torn/truncated/corrupted/duplicated fault matrix.
//!
//! # Runtime I/O faults and degraded mode
//!
//! A disk that starts failing at runtime does not panic the store and
//! does not block ingest. After bounded in-writer retries the store
//! drops to **degraded** mode: appends stay in memory only, a
//! `durability_lost` watermark (the last op provably on disk) is
//! published through [`DataStore::durability_lost`], live reports, and
//! query freshness, and the caller's periodic
//! [`DataStore::tend_durability`]`(now)` re-establishes the log at a
//! fresh generation — a healing checkpoint captures every op recorded
//! while degraded. The first heal runs at the first tend after the
//! writer gives up, later ones back off on the caller's clock (the live
//! driver passes the wall clock; tests pass made-up instants): one
//! clock-free state machine decides, `durability::DurabilityMachine`.
//! Graceful shutdown
//! ([`DataStore::close`]) writes a clean-shutdown marker after a final
//! checkpoint so the next recovery skips tail-scan replay entirely.
//! The full state machine is documented in [`crate::durable`];
//! `tests/spotlightd.rs::spotlightd_survives_kill_9` (run by
//! `scripts/torture_smoke.sh`) SIGKILLs the shipped `spotlightd` against
//! it.

use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, UnavailabilityInterval};
use crate::shared::{ChunkVec, CowVec};
use crate::sync::RwLock;
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The store's stripe count (markets hash across these).
pub const STRIPES: usize = 16;

/// rustc-hash-style multiplicative hasher. Two properties matter here:
/// it is a few ns per `MarketId` (the store hashes a market on every
/// record and every per-market lookup — SipHash showed up as 30%+ of
/// an indexed query), and it is deterministic across processes, so
/// stripe layout and map iteration order are stable and output is
/// reproducible.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                tail |= u64::from(b) << (8 * i);
            }
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The width in seconds (one hour) of the epochs spike ratios are
/// bucketed by.
pub const EPOCH_SECS: u64 = 3600;

/// A spike observation: a published price crossing SpotLight's radar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeEvent {
    /// The market that spiked.
    pub market: MarketId,
    /// When the spike was observed.
    pub at: SimTime,
    /// Spot/on-demand price ratio.
    pub ratio: f64,
    /// Whether the policy issued a probe for it (sampling/cooldown/budget
    /// may suppress probes; unprobed spikes are excluded from
    /// conditional-probability trials).
    pub probed: bool,
}

/// One revocation-watch observation (the `Revocation` probing function).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationRecord {
    /// The watched market.
    pub market: MarketId,
    /// When the spot instance was acquired.
    pub acquired_at: SimTime,
    /// The bid it was acquired with.
    pub bid: Price,
    /// When the platform revoked it; `None` if it survived the hold.
    pub revoked_at: Option<SimTime>,
    /// When the hold ended (revocation or voluntary release).
    pub released_at: Option<SimTime>,
}

/// One intrinsic-bid measurement (the `BidSpread` probing function).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntrinsicBidRecord {
    /// The market measured.
    pub market: MarketId,
    /// When the search ran.
    pub at: SimTime,
    /// The published spot price at the time.
    pub published: Price,
    /// The lowest bid that actually obtained an instance.
    pub intrinsic: Price,
    /// Spot requests the search needed (the paper reports 2–3 average,
    /// 6 maximum).
    pub attempts: u32,
}

/// Running per-`(market, kind)` probe counters over the store's
/// lifetime (compaction keeps them; no span narrows them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Informative probes (everything but `ApiLimited`).
    pub informative: u64,
    /// Probes with an unavailable outcome.
    pub rejections: u64,
}

/// What one [`DataStore::compact`] pass removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Raw probe records dropped (folded into the summaries).
    pub dropped_probes: u64,
    /// Raw spike records dropped (ratios remain in the epoch buckets).
    pub dropped_spikes: u64,
}

/// One entry of a key's interval index: the interval's position in the
/// stripe's slab, and the closed seconds of the key's earlier
/// intervals, written once when the interval opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexEntry {
    pub(crate) pos: usize,
    pub(crate) closed_before: u64,
}

/// Everything one `(market, kind)` key maintains, reachable in a single
/// hash lookup at ingest. It sits in the stripe's key table itself — the
/// scalars inline, each list's buffer one hop away — so an all-market
/// scan never chases a key's allocation around the heap.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyState {
    pub(crate) stats: ProbeStats,
    /// The key's intervals, in interval-open order.
    pub(crate) intervals: CowVec<IndexEntry>,
    /// The at-most-one open interval, as an index into the slab: the
    /// last entry's.
    pub(crate) open: Option<usize>,
    /// Latest informative probe timestamp — the freshness anchor of
    /// [`StoreRead::last_informative_at`]. A max, not a last-write, so
    /// out-of-order live-mode arrivals cannot move it backwards.
    pub(crate) last_informative: Option<SimTime>,
    /// Set once the key's intervals stop being start-sorted and
    /// non-overlapping (possible under live-mode reordering); span
    /// sums then walk the intervals instead of reading the prefix.
    pub(crate) disordered: bool,
    /// Time-sorted timestamps of unavailable-outcome probes.
    pub(crate) rejection_times: CowVec<SimTime>,
}

impl KeyState {
    /// Completed intervals: compaction keeps every interval, and only
    /// the open one has not closed.
    pub(crate) fn closed_intervals(&self) -> u64 {
        (self.intervals.len() - usize::from(self.open.is_some())) as u64
    }
}

/// The seconds `interval` was unavailable, if it has closed.
pub(crate) fn closed_secs(interval: &UnavailabilityInterval) -> u64 {
    interval.duration().map_or(0, |d| d.as_secs())
}

/// One lock stripe: a shard of the log plus its secondary indices.
/// `Clone` is the shallow capture `DataStore::capture` takes per
/// stripe; what it shares with the clone is written only through the
/// copy-on-write containers (module docs, "Sharing").
#[derive(Debug, Clone, Default)]
pub(crate) struct Stripe {
    pub(crate) probes: ChunkVec<ProbeRecord>,
    pub(crate) spikes: ChunkVec<SpikeEvent>,
    /// Sorted spike ratios per epoch — the summary `spike_rates` reads;
    /// holds every spike ever recorded (compaction keeps it intact).
    pub(crate) spike_ratios_by_epoch: FxHashMap<u64, CowVec<f64>>,
    pub(crate) intervals: ChunkVec<UnavailabilityInterval>,
    pub(crate) keys: FxHashMap<(MarketId, ProbeKind), KeyState>,
    /// Ordered, like the region-health table: a checkpoint of equal
    /// state is then equal bytes.
    pub(crate) od_rejections_by_region: BTreeMap<Region, u64>,
    pub(crate) revocations: ChunkVec<RevocationRecord>,
    pub(crate) intrinsic_bids: ChunkVec<IntrinsicBidRecord>,
}

/// The health of one region's probing transport, as the live pipeline's
/// circuit breakers report it (see `crate::manager`). Degraded means
/// the region's API was failing persistently — the region's recent
/// observations are missing, not negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionHealth {
    /// Whether the region is currently marked degraded.
    pub degraded: bool,
    /// When the current (or latest) degraded episode began.
    pub since: SimTime,
    /// Total seconds spent degraded over completed episodes.
    pub degraded_secs: u64,
    /// Completed + ongoing degraded episodes (breaker trips).
    pub trips: u64,
}

impl RegionHealth {
    /// Seconds spent degraded through `now`, an open episode included.
    pub fn degraded_secs_at(&self, now: SimTime) -> u64 {
        let open = now.saturating_since(self.since).as_secs();
        self.degraded_secs + if self.degraded { open } else { 0 }
    }
}

crate::counters! {
    /// What one region manager's retry pipeline is doing (see
    /// `crate::manager`), beside its [`RegionHealth`]. Not persisted:
    /// counts run from the store's opening; gauges are set per batch.
    pub struct RegionCounters / RegionCounts {
        /// Retry attempts dispatched from the pending queue.
        retries_issued,
        /// Probe intents dropped because the pending queue overflowed.
        probes_abandoned,
        /// Panics the manager's supervisor caught.
        worker_panics,
        /// Probes waiting out a backoff or an open breaker (gauge).
        pending,
        /// Probe resources whose release is being retried (gauge).
        orphans,
    }
}

/// What `DataStore::capture` takes, all of it as of one instant: the
/// store-wide counters and health table, and a shallow clone of every
/// stripe. A [`StoreRead`] owns or borrows one; a `StoreSnapshot` keeps
/// one; a checkpoint encodes one.
#[derive(Debug, Clone)]
pub(crate) struct Capture {
    pub(crate) recorded_probes: u64,
    pub(crate) total_cost_micros: u64,
    pub(crate) suppressed_probes: u64,
    pub(crate) region_health: BTreeMap<Region, RegionHealth>,
    durability_lost: Option<SimTime>,
    pub(crate) stripes: Box<[Stripe]>,
}

impl Capture {
    /// A view borrowing this capture (O(1), no allocation).
    pub(crate) fn read(&self) -> StoreRead<'_> {
        StoreRead {
            capture: Cow::Borrowed(self),
        }
    }
}

/// Regions marked degraded in `health`, in canonical region order.
fn degraded_in(health: &BTreeMap<Region, RegionHealth>) -> Vec<Region> {
    let degraded = health.iter().filter(|(_, h)| h.degraded);
    degraded.map(|(&r, _)| r).collect()
}

/// The in-memory database: N independently locked stripes plus
/// store-wide atomic counters and the region-health table.
#[derive(Debug)]
pub struct DataStore {
    pub(crate) stripes: Box<[RwLock<Stripe>]>,
    pub(crate) recorded_probes: AtomicU64,
    pub(crate) total_cost_micros: AtomicU64,
    pub(crate) suppressed_probes: AtomicU64,
    /// Region degradation markers, written by live-mode circuit
    /// breakers. A separate (tiny, rarely written) lock so marking a
    /// region never contends with probe ingest.
    pub(crate) region_health: RwLock<BTreeMap<Region, RegionHealth>>,
    /// Each region manager's pipeline counters, by [`Region::index`].
    region_counters: [RegionCounters; Region::ALL.len()],
    /// The operation log, when this store was opened in durable mode
    /// (see [`crate::durable`]). `None` for plain in-memory stores —
    /// every ingest path then skips logging entirely.
    pub(crate) durable: Option<crate::durable::DurableSink>,
}

impl Default for DataStore {
    fn default() -> Self {
        DataStore::new()
    }
}

/// A shareable handle to the store. Writers (`record_*`) go straight
/// through `&self` — the striping is internal — so engine agents and
/// live-mode threads share it without an outer lock.
pub type SharedStore = Arc<DataStore>;

/// Creates an empty shared store.
pub fn shared_store() -> SharedStore {
    Arc::new(DataStore::new())
}

/// Routes a market to a stripe: the deterministic Fx hash of its id,
/// high bits folded into the low bits the modulo looks at. A free
/// function so live stores and owned snapshots (which have no
/// `DataStore`) agree on the layout.
pub fn stripe_index(market: MarketId) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    market.hash(&mut h);
    let h = h.finish();
    ((h >> 32) ^ h) as usize % STRIPES
}

/// Inserts `item` into a list kept sorted by `key_of`. Appends in O(1)
/// when the new item's key is the latest (the engine's monotone case);
/// binary-search inserts otherwise.
fn insert_sorted_by<T: Copy, K: PartialOrd>(
    sorted: &mut CowVec<T>,
    item: T,
    key_of: impl Fn(&T) -> K,
) {
    let at = match sorted.last() {
        Some(last) if key_of(last) > key_of(&item) => {
            sorted.partition_point(|x| key_of(x) <= key_of(&item))
        }
        _ => sorted.len(),
    };
    sorted.insert(at, item);
}

/// Drops the records of a raw slab (probes or spikes) older than
/// `before`, returning how many went. What the records contributed
/// stays in the key table and the spike-ratio buckets.
fn compact_slab<T: Copy>(
    slab: &mut ChunkVec<T>,
    at: impl Fn(&T) -> SimTime,
    before: SimTime,
) -> u64 {
    let old_len = slab.len();
    let kept: ChunkVec<T> = slab.iter().filter(|&r| at(r) >= before).copied().collect();
    if kept.len() != old_len {
        *slab = kept;
    }
    (old_len - slab.len()) as u64
}

impl DataStore {
    /// Creates an empty store of [`STRIPES`] lock stripes, the one layout
    /// every store has.
    pub fn new() -> Self {
        DataStore {
            stripes: (0..STRIPES).map(|_| RwLock::default()).collect(),
            recorded_probes: AtomicU64::new(0),
            total_cost_micros: AtomicU64::new(0),
            suppressed_probes: AtomicU64::new(0),
            region_health: RwLock::default(),
            region_counters: Default::default(),
            durable: None,
        }
    }

    /// The number of lock stripes, [`STRIPES`].
    pub fn stripe_count(&self) -> usize {
        STRIPES
    }

    /// The store's one capture, and the only code that holds more than
    /// one stripe guard: under every stripe's read guard (in stripe
    /// order) and the region-health guard it reads the counters, runs
    /// `under_guards` and shallow-clones the stripes (module docs,
    /// "Sharing"). Every `record_*` bumps its counters and stages its
    /// log frame inside the write-lock section of the one lock it
    /// mutates under, which these guards exclude: counters, stripes and
    /// whatever `under_guards` reads are as of one instant.
    pub(crate) fn capture<T>(&self, under_guards: impl FnOnce() -> T) -> (Capture, T) {
        let guards: Vec<_> = self.stripes.iter().map(|s| s.read()).collect();
        let health = self.region_health.read();
        let extra = under_guards();
        let capture = Capture {
            recorded_probes: self.recorded_probes.load(Ordering::Relaxed),
            total_cost_micros: self.total_cost_micros.load(Ordering::Relaxed),
            suppressed_probes: self.suppressed_probes.load(Ordering::Relaxed),
            region_health: health.clone(),
            durability_lost: self.durability_lost(),
            stripes: guards.iter().map(|g| Stripe::clone(g)).collect(),
        };
        (capture, extra)
    }

    /// A consistent view of the whole store as of this call: `len`,
    /// `total_cost`, region health and every stripe from one instant.
    /// The view owns a shallow capture and holds **no lock** — ingest,
    /// checkpoints and heals proceed while it lives, and it can be sent
    /// to or shared with other threads. Taking it costs a shallow clone,
    /// O(keys + spike epochs + chunks); a view alive during ingest costs the
    /// writer one copy per list or chunk it touches (module docs,
    /// "Sharing").
    pub fn read(&self) -> StoreRead<'_> {
        StoreRead {
            capture: Cow::Owned(self.capture(|| ()).0),
        }
    }

    /// Records a probe, maintaining unavailability intervals: a rejected
    /// probe opens an interval for its `(market, kind)` (if none is
    /// open); a fulfilled probe closes it. Returns `true` when this
    /// probe *opened* a new interval — i.e. it is an initial detection.
    ///
    /// Locks only the market's stripe; concurrent callers for other
    /// stripes proceed in parallel.
    pub fn record_probe(&self, probe: ProbeRecord) -> bool {
        let mut stripe = self.stripes[stripe_index(probe.market)].write();
        // The counter bumps live inside the stripe-lock critical
        // section, next to the WAL append: checkpoint captures the
        // counters and `next_seq` under every stripe lock, so a probe
        // is either entirely inside the snapshot (counted, seq below
        // the captured floor) or entirely replayed on recovery — never
        // both, which would double-count it in `len`/`total_cost`.
        self.recorded_probes.fetch_add(1, Ordering::Relaxed);
        self.total_cost_micros
            .fetch_add(probe.cost.as_micros(), Ordering::Relaxed);
        if let Some(d) = &self.durable {
            d.append(&crate::durable::StoreOp::Probe(probe));
        }
        stripe.record_probe(probe)
    }

    /// Records a spike observation (raw log + epoch ratio summary).
    pub fn record_spike(&self, spike: SpikeEvent) {
        let mut stripe = self.stripes[stripe_index(spike.market)].write();
        if let Some(d) = &self.durable {
            d.append(&crate::durable::StoreOp::Spike(spike));
        }
        stripe.spikes.push(spike);
        let epoch = spike.at.as_secs() / EPOCH_SECS;
        let ratios = stripe.spike_ratios_by_epoch.entry(epoch).or_default();
        insert_sorted_by(ratios, spike.ratio, |&r| r);
    }

    /// Records that the policy wanted to probe but was suppressed by
    /// budget or service limits.
    pub fn record_suppressed(&self) {
        let total = self.suppressed_probes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(d) = &self.durable {
            // Lock-free path: the op carries the running total and
            // replays via `fetch_max`, so frame order never matters.
            d.append(&crate::durable::StoreOp::Suppressed { total });
        }
    }

    /// Marks a region's probing transport degraded (a live-mode circuit
    /// breaker tripped at `at`). Idempotent while already degraded.
    pub fn mark_region_degraded(&self, region: Region, at: SimTime) {
        let mut health = self.region_health.write();
        let h = health.entry(region).or_default();
        if !h.degraded {
            h.degraded = true;
            h.since = at;
            h.trips += 1;
            if let Some(d) = &self.durable {
                d.append(&crate::durable::StoreOp::RegionDegraded { region, at });
            }
        }
    }

    /// Marks a region's probing transport recovered at `at`, folding the
    /// episode into `degraded_secs`. A no-op if the region was never
    /// marked degraded.
    pub fn mark_region_recovered(&self, region: Region, at: SimTime) {
        let mut health = self.region_health.write();
        if let Some(h) = health.get_mut(&region) {
            if h.degraded {
                h.degraded = false;
                h.degraded_secs += at.saturating_since(h.since).as_secs();
                if let Some(d) = &self.durable {
                    d.append(&crate::durable::StoreOp::RegionRecovered { region, at });
                }
            }
        }
    }

    /// The health record of one region, if a breaker ever reported it.
    pub fn region_health(&self, region: Region) -> Option<RegionHealth> {
        self.region_health.read().get(&region).copied()
    }

    /// Regions currently marked degraded, in canonical region order.
    /// Takes no stripe lock, so health endpoints never queue on ingest.
    pub fn degraded_regions(&self) -> Vec<Region> {
        degraded_in(&self.region_health.read())
    }

    /// The counters `region`'s manager keeps in this store.
    pub fn region_counters(&self, region: Region) -> &RegionCounters {
        &self.region_counters[region.index()]
    }

    /// Records a revocation-watch observation.
    pub fn record_revocation(&self, rec: RevocationRecord) {
        let mut stripe = self.stripes[stripe_index(rec.market)].write();
        if let Some(d) = &self.durable {
            d.append(&crate::durable::StoreOp::Revocation(rec));
        }
        stripe.revocations.push(rec);
    }

    /// Records an intrinsic-bid measurement.
    pub fn record_intrinsic_bid(&self, rec: IntrinsicBidRecord) {
        let mut stripe = self.stripes[stripe_index(rec.market)].write();
        if let Some(d) = &self.durable {
            d.append(&crate::durable::StoreOp::IntrinsicBid(rec));
        }
        stripe.intrinsic_bids.push(rec);
    }

    /// Folds raw records strictly older than `before` into the
    /// summaries and frees their slabs. Intervals, rejection
    /// timestamps, spike-ratio buckets, revocations, intrinsic bids, and
    /// every running counter are retained, so summarized queries are
    /// unchanged; raw-log iteration shrinks to the retained window.
    ///
    /// Compaction frees raw records whose summaries are kept: nothing
    /// is written, and a durable store compacts exactly as an in-memory
    /// one (a degraded one too). One pass takes each stripe's write lock
    /// in turn; the next checkpoint writes the compacted stripes.
    pub fn compact(&self, before: SimTime) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for stripe in self.stripes.iter() {
            let mut s = stripe.write();
            stats.dropped_probes += compact_slab(&mut s.probes, |p| p.at, before);
            stats.dropped_spikes += compact_slab(&mut s.spikes, |sp| sp.at, before);
        }
        stats
    }

    /// Raw records currently resident (probes + spikes + revocations +
    /// intrinsic bids). [`DataStore::compact`] lowers this;
    /// [`DataStore::len`] is unaffected.
    pub fn resident_records(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| {
                let s = s.read();
                (s.probes.len() + s.spikes.len() + s.revocations.len() + s.intrinsic_bids.len())
                    as u64
            })
            .sum()
    }

    /// Approximate resident heap footprint of the store's slabs and
    /// indices, in bytes: capacities × element sizes over the slabs'
    /// chunks and spines, the per-epoch spike ratios, and each
    /// key's interval index and rejection times.
    /// Hash-map tables — a key's scalars live there — and allocator or
    /// reference-count headers are not counted; buffers shared with a
    /// live capture are counted once, here.
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes = 0usize;
        for stripe in &self.stripes {
            let s = stripe.read();
            bytes += s.probes.heap_bytes();
            bytes += s.spikes.heap_bytes();
            bytes += s.intervals.heap_bytes();
            bytes += s.revocations.heap_bytes();
            bytes += s.intrinsic_bids.heap_bytes();
            bytes += s
                .spike_ratios_by_epoch
                .values()
                .map(CowVec::heap_bytes)
                .sum::<usize>();
            bytes += s
                .keys
                .values()
                .map(|k| k.intervals.heap_bytes() + k.rejection_times.heap_bytes())
                .sum::<usize>();
        }
        bytes as u64
    }

    /// Total money spent on probes.
    pub fn total_cost(&self) -> Price {
        Price::from_micros(self.total_cost_micros.load(Ordering::Relaxed))
    }

    /// Probes suppressed by budget or service limits.
    pub fn suppressed_probes(&self) -> u64 {
        self.suppressed_probes.load(Ordering::Relaxed)
    }

    /// Number of probes recorded over the store's lifetime (compaction
    /// does not lower this).
    pub fn len(&self) -> usize {
        self.recorded_probes.load(Ordering::Relaxed) as usize
    }

    /// True when no probes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Stripe {
    fn record_probe(&mut self, probe: ProbeRecord) -> bool {
        self.probes.push(probe);
        let key = (probe.market, probe.kind);
        let state = self.keys.entry(key).or_default();
        if probe.outcome.is_informative() {
            state.stats.informative += 1;
            state.last_informative =
                Some(state.last_informative.map_or(probe.at, |t| t.max(probe.at)));
            if probe.outcome.is_unavailable() {
                state.stats.rejections += 1;
            }
        }

        if probe.outcome.is_unavailable() {
            insert_sorted_by(&mut state.rejection_times, probe.at, |&t| t);
            if probe.kind == ProbeKind::OnDemand {
                *self
                    .od_rejections_by_region
                    .entry(probe.market.region())
                    .or_insert(0) += 1;
            }
            if state.open.is_some() {
                return false;
            }
            // Opening a new interval: the previous one (necessarily
            // closed) must end at or before this start for the prefix
            // to stay valid.
            let mut closed_before = 0;
            if let Some(last) = state.intervals.last() {
                let prev = &self.intervals[last.pos];
                if probe.at < prev.start || prev.end.is_some_and(|e| probe.at < e) {
                    state.disordered = true;
                }
                closed_before = last.closed_before + closed_secs(prev);
            }
            let pos = self.intervals.len();
            state.open = Some(pos);
            state.intervals.push(IndexEntry { pos, closed_before });
            self.intervals.push(UnavailabilityInterval {
                market: probe.market,
                kind: probe.kind,
                start: probe.at,
                end: None,
                detect_ratio: probe.spot_ratio,
                detected_via_related: probe.trigger.is_related(),
            });
            true
        } else {
            if probe.outcome == ProbeOutcome::Fulfilled {
                if let Some(idx) = state.open.take() {
                    let interval = &mut self.intervals[idx];
                    interval.end = Some(probe.at);
                    if probe.at < interval.start {
                        state.disordered = true;
                    }
                }
            }
            false
        }
    }

    /// Seconds of measured unavailability of the key `state` (one of
    /// this stripe's) inside `[from, to)`, open intervals running to
    /// `to`: a prefix difference plus two clipped boundary intervals for
    /// an ordered key (module docs, "Span sums"), an exact walk for a
    /// disordered one.
    fn unavailable_seconds_in(&self, state: &KeyState, from: SimTime, to: SimTime) -> u64 {
        let (a, b) = (from.as_secs(), to.as_secs());
        if b <= a {
            return 0;
        }
        let index = &state.intervals;
        let at = |i: usize| &self.intervals[index[i].pos];
        // An interval's closed seconds inside the span.
        let clip = |interval: &UnavailabilityInterval| {
            interval.end.map_or(0, |end| {
                end.as_secs()
                    .min(b)
                    .saturating_sub(interval.start.as_secs().max(a))
            })
        };
        let closed = if state.disordered {
            index.iter().map(|e| clip(&self.intervals[e.pos])).sum()
        } else {
            // Entries `lo..hi` start inside the span, and all but
            // `hi - 1` end inside it; only `lo - 1` reaches into it from
            // before.
            let starts_before =
                |t: u64| move |e: &IndexEntry| self.intervals[e.pos].start.as_secs() < t;
            let lo = index.partition_point(starts_before(a));
            let hi = lo + index[lo..].partition_point(starts_before(b));
            let mut closed = lo.checked_sub(1).map_or(0, |i| clip(at(i)));
            if hi > lo {
                closed += index[hi - 1].closed_before - index[lo].closed_before + clip(at(hi - 1));
            }
            closed
        };
        let open = state.open.map_or(0, |id| {
            b.saturating_sub(self.intervals[id].start.as_secs().max(a))
        });
        closed + open
    }
}

/// A consistent read view over every stripe: the whole query and
/// analysis surface of the store.
///
/// A view is one capture of the store — counters and stripes as of one
/// instant — and holds no lock. [`DataStore::read`]'s view owns its
/// capture; [`crate::snapshot::StoreSnapshot::read`]'s borrows the
/// snapshot's (O(1); any number of readers share it — the HTTP
/// service's hot path). Every accessor reads a counter or indexes the
/// stripe slice, whichever it is.
#[derive(Debug)]
pub struct StoreRead<'a> {
    capture: Cow<'a, Capture>,
}

/// One `(market, kind)`'s state next to the stripe whose interval slab
/// its indices point into — what [`StoreRead::key`]'s single hash
/// lookup yields, and what every per-key answer is read from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRef<'a> {
    stripe: &'a Stripe,
    pub(crate) state: &'a KeyState,
}

impl<'a> KeyRef<'a> {
    /// Seconds of measured unavailability inside `[from, to)`.
    pub(crate) fn unavailable_seconds_in(self, from: SimTime, to: SimTime) -> u64 {
        self.stripe.unavailable_seconds_in(self.state, from, to)
    }

    /// The key's unavailability intervals, in open order.
    pub(crate) fn intervals(self) -> impl Iterator<Item = &'a UnavailabilityInterval> {
        let stripe = self.stripe;
        self.state
            .intervals
            .iter()
            .map(move |e| &stripe.intervals[e.pos])
    }
}

impl StoreRead<'_> {
    /// The one hash lookup behind every per-key accessor; callers that
    /// need several facts of a key fetch it once.
    pub(crate) fn key(&self, market: MarketId, kind: ProbeKind) -> Option<KeyRef<'_>> {
        let stripe = self.stripe_for(market);
        let state = stripe.keys.get(&(market, kind))?;
        Some(KeyRef { stripe, state })
    }

    fn stripes(&self) -> std::slice::Iter<'_, Stripe> {
        self.capture.stripes.iter()
    }

    fn stripe_for(&self, market: MarketId) -> &Stripe {
        &self.capture.stripes[stripe_index(market)]
    }

    /// All resident probes, stripe by stripe (record order within a
    /// stripe; cross-market order is stripe layout, not global time).
    /// One market's probes are this filtered by market.
    pub fn probes(&self) -> impl Iterator<Item = &ProbeRecord> + '_ {
        self.stripes().flat_map(|s| s.probes.iter())
    }

    /// All resident spike observations.
    pub fn spikes(&self) -> impl Iterator<Item = &SpikeEvent> + '_ {
        self.stripes().flat_map(|s| s.spikes.iter())
    }

    /// Spikes with `ratio >= threshold`, counted over the store's
    /// lifetime from the per-epoch sorted ratio buckets (a binary
    /// search per bucket; unaffected by compaction).
    pub fn spikes_at_or_above(&self, threshold: f64) -> u64 {
        self.spikes_at_or_above_each(&[threshold])[0]
    }

    /// [`StoreRead::spikes_at_or_above`] for each of `thresholds`, in
    /// one pass over the buckets.
    pub fn spikes_at_or_above_each(&self, thresholds: &[f64]) -> Vec<u64> {
        let mut counts = vec![0; thresholds.len()];
        for ratios in self
            .stripes()
            .flat_map(|s| s.spike_ratios_by_epoch.values())
        {
            for (count, &t) in counts.iter_mut().zip(thresholds) {
                *count += (ratios.len() - ratios.partition_point(|&r| r < t)) as u64;
            }
        }
        counts
    }

    /// All unavailability intervals (open ones have `end == None`),
    /// stripe by stripe.
    pub fn intervals(&self) -> impl Iterator<Item = &UnavailabilityInterval> + '_ {
        self.stripes().flat_map(|s| s.intervals.iter())
    }

    /// The unavailability intervals of one `(market, kind)`, in open
    /// order.
    pub fn intervals_of(
        &self,
        market: MarketId,
        kind: ProbeKind,
    ) -> impl Iterator<Item = &UnavailabilityInterval> + '_ {
        self.key(market, kind)
            .into_iter()
            .flat_map(KeyRef::intervals)
    }

    /// Completed unavailability intervals of one `(market, kind)`, O(1).
    pub fn closed_interval_count(&self, market: MarketId, kind: ProbeKind) -> u64 {
        self.key(market, kind)
            .map_or(0, |k| k.state.closed_intervals())
    }

    /// The time-sorted timestamps of unavailable-outcome probes of one
    /// `(market, kind)` — the input the correlation analyses binary
    /// search.
    ///
    /// "Unavailable" is [`crate::probe::ProbeOutcome::is_unavailable`]:
    /// for on-demand probes the engine only ever produces
    /// `InsufficientCapacity`, but a caller recording an on-demand
    /// probe with `CapacityNotAvailable` would be counted here too.
    pub fn rejection_times(&self, market: MarketId, kind: ProbeKind) -> &[SimTime] {
        self.key(market, kind)
            .map_or(&[], |k| &k.state.rejection_times)
    }

    /// Iterates every `(market, kind)` that has recorded rejections,
    /// with its time-sorted rejection timestamps.
    pub fn rejection_entries(
        &self,
    ) -> impl Iterator<Item = ((MarketId, ProbeKind), &[SimTime])> + '_ {
        self.stripes().flat_map(|s| {
            s.keys
                .iter()
                .filter(|(_, k)| !k.rejection_times.is_empty())
                .map(|(&key, k)| (key, &*k.rejection_times))
        })
    }

    /// Running informative/rejection counters of one `(market, kind)`.
    pub fn probe_stats(&self, market: MarketId, kind: ProbeKind) -> ProbeStats {
        self.key(market, kind)
            .map_or_else(ProbeStats::default, |k| k.state.stats)
    }

    /// Seconds of measured unavailability of `(market, kind)` inside
    /// `[from, to)` (open intervals run to `to`). O(log intervals) for
    /// an ordered key — see the module docs, "Span sums".
    pub fn unavailable_seconds_in(
        &self,
        market: MarketId,
        kind: ProbeKind,
        from: SimTime,
        to: SimTime,
    ) -> u64 {
        self.key(market, kind)
            .map_or(0, |k| k.unavailable_seconds_in(from, to))
    }

    /// On-demand rejection counts per region, merged from the stripes'
    /// running counters. Counts any unavailable outcome on an on-demand
    /// probe (from the engine that is exactly `InsufficientCapacity`).
    pub fn od_rejections_by_region(&self) -> BTreeMap<Region, u64> {
        let mut out = BTreeMap::new();
        for stripe in self.stripes() {
            for (&region, &n) in &stripe.od_rejections_by_region {
                *out.entry(region).or_insert(0) += n;
            }
        }
        out
    }

    /// Whether `(market, kind)` has an open unavailability interval.
    pub fn is_unavailable(&self, market: MarketId, kind: ProbeKind) -> bool {
        self.key(market, kind)
            .is_some_and(|k| k.state.open.is_some())
    }

    /// The latest informative probe timestamp of `(market, kind)` —
    /// the freshness anchor of [`crate::query::SpotLightQuery::freshness`].
    /// `None` when the key has never produced an informative
    /// observation.
    pub fn last_informative_at(&self, market: MarketId, kind: ProbeKind) -> Option<SimTime> {
        self.key(market, kind)
            .and_then(|k| k.state.last_informative)
    }

    /// The health record of one region, if a breaker ever reported it.
    pub fn region_health(&self, region: Region) -> Option<RegionHealth> {
        self.capture.region_health.get(&region).copied()
    }

    /// The store's durability-loss watermark as of this view, if its
    /// durable log was degraded (see [`DataStore::durability_lost`]).
    pub fn durability_lost(&self) -> Option<SimTime> {
        self.capture.durability_lost
    }

    /// Regions marked degraded, in canonical region order.
    pub fn degraded_regions(&self) -> Vec<Region> {
        degraded_in(&self.capture.region_health)
    }

    /// All revocation observations.
    pub fn revocations(&self) -> impl Iterator<Item = &RevocationRecord> + '_ {
        self.stripes().flat_map(|s| s.revocations.iter())
    }

    /// The revocation observations of one market, in record order — a
    /// scan of the market's own stripe (like intrinsic bids, too few to
    /// index).
    pub fn revocations_of(&self, market: MarketId) -> impl Iterator<Item = &RevocationRecord> + '_ {
        let revocations = self.stripe_for(market).revocations.iter();
        revocations.filter(move |r| r.market == market)
    }

    /// All intrinsic-bid measurements.
    pub fn intrinsic_bids(&self) -> impl Iterator<Item = &IntrinsicBidRecord> + '_ {
        self.stripes().flat_map(|s| s.intrinsic_bids.iter())
    }

    /// The intrinsic-bid measurements of one market, in record order —
    /// a scan of the market's own stripe (bids are too few to index).
    pub fn intrinsic_bids_of(
        &self,
        market: MarketId,
    ) -> impl Iterator<Item = &IntrinsicBidRecord> + '_ {
        let bids = self.stripe_for(market).intrinsic_bids.iter();
        bids.filter(move |r| r.market == market)
    }

    /// Markets that were probed at least once, each once (a lifetime
    /// fact: every probe creates its `(market, kind)` key and compaction
    /// keeps keys).
    pub fn probed_markets(&self) -> impl Iterator<Item = MarketId> + '_ {
        self.stripes().flat_map(|s| {
            // A market is listed at the first of its kinds in this order.
            let first = move |&&(market, kind): &&(MarketId, ProbeKind)| {
                let earlier: &[ProbeKind] = match kind {
                    ProbeKind::OnDemand => &[],
                    ProbeKind::Spot => &[ProbeKind::OnDemand],
                    ProbeKind::InterruptionNotice => &[ProbeKind::OnDemand, ProbeKind::Spot],
                };
                earlier.iter().all(|&k| !s.keys.contains_key(&(market, k)))
            };
            s.keys.keys().filter(first).map(|&(market, _)| market)
        })
    }

    /// Total money spent on probes.
    pub fn total_cost(&self) -> Price {
        Price::from_micros(self.capture.total_cost_micros)
    }

    /// Probes suppressed by budget or service limits.
    pub fn suppressed_probes(&self) -> u64 {
        self.capture.suppressed_probes
    }

    /// Number of probes recorded over the store's lifetime.
    pub fn len(&self) -> usize {
        self.capture.recorded_probes as usize
    }

    /// True when no probes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeTrigger;
    use cloud_sim::ids::{Az, Platform, Region};

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
    fn rejection_opens_interval_once() {
        let s = DataStore::new();
        assert!(s.record_probe(probe(10, market(0), ProbeOutcome::InsufficientCapacity)));
        assert!(!s.record_probe(probe(20, market(0), ProbeOutcome::InsufficientCapacity)));
        let r = s.read();
        assert!(r.is_unavailable(market(0), ProbeKind::OnDemand));
        assert_eq!(r.intervals().count(), 1);
        assert_eq!(r.intervals_of(market(0), ProbeKind::OnDemand).count(), 1);
    }

    #[test]
    fn fulfilment_closes_interval() {
        let s = DataStore::new();
        s.record_probe(probe(10, market(0), ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(310, market(0), ProbeOutcome::Fulfilled));
        let r = s.read();
        assert!(!r.is_unavailable(market(0), ProbeKind::OnDemand));
        let i = *r.intervals().next().unwrap();
        assert_eq!(i.end, Some(SimTime::from_secs(310)));
        assert_eq!(i.duration().unwrap().as_secs(), 300);
        assert_eq!(r.closed_interval_count(market(0), ProbeKind::OnDemand), 1);
    }

    #[test]
    fn kinds_tracked_independently() {
        let s = DataStore::new();
        s.record_probe(probe(10, market(0), ProbeOutcome::InsufficientCapacity));
        let mut sp = probe(20, market(0), ProbeOutcome::CapacityNotAvailable);
        sp.kind = ProbeKind::Spot;
        assert!(s.record_probe(sp));
        let r = s.read();
        assert!(r.is_unavailable(market(0), ProbeKind::OnDemand));
        assert!(r.is_unavailable(market(0), ProbeKind::Spot));
        assert_eq!(r.intervals().count(), 2);
        assert_eq!(r.intervals_of(market(0), ProbeKind::OnDemand).count(), 1);
        assert_eq!(r.intervals_of(market(0), ProbeKind::Spot).count(), 1);
        // Two keys, one market.
        assert_eq!(r.probed_markets().collect::<Vec<_>>(), [market(0)]);
    }

    #[test]
    fn held_outcomes_do_not_close_intervals() {
        let s = DataStore::new();
        let mut sp = probe(10, market(0), ProbeOutcome::CapacityNotAvailable);
        sp.kind = ProbeKind::Spot;
        s.record_probe(sp);
        let mut ptl = probe(20, market(0), ProbeOutcome::PriceTooLow);
        ptl.kind = ProbeKind::Spot;
        s.record_probe(ptl);
        assert!(s.read().is_unavailable(market(0), ProbeKind::Spot));
    }

    #[test]
    fn cost_accumulates_and_indexes_work() {
        let s = DataStore::new();
        s.record_probe(probe(10, market(0), ProbeOutcome::Fulfilled));
        s.record_probe(probe(20, market(1), ProbeOutcome::Fulfilled));
        s.record_probe(probe(30, market(0), ProbeOutcome::Fulfilled));
        assert_eq!(s.total_cost(), Price::from_dollars(0.3));
        let r = s.read();
        let probes_of = |m| r.probes().filter(|p| p.market == m).count();
        assert_eq!(probes_of(market(0)), 2);
        assert_eq!(probes_of(market(1)), 1);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn probe_stats_track_informative_and_rejections() {
        let s = DataStore::new();
        s.record_probe(probe(10, market(0), ProbeOutcome::Fulfilled));
        s.record_probe(probe(20, market(0), ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(30, market(0), ProbeOutcome::ApiLimited));
        let r = s.read();
        let st = r.probe_stats(market(0), ProbeKind::OnDemand);
        assert_eq!(st.informative, 2);
        assert_eq!(st.rejections, 1);
        assert_eq!(
            r.probe_stats(market(1), ProbeKind::OnDemand),
            ProbeStats::default()
        );
    }

    #[test]
    fn out_of_order_inserts_keep_indices_sorted() {
        let s = DataStore::new();
        for t in [50u64, 10, 30, 20, 40] {
            s.record_probe(probe(t, market(0), ProbeOutcome::InsufficientCapacity));
        }
        let r = s.read();
        let rejections = r.rejection_times(market(0), ProbeKind::OnDemand);
        assert!(rejections.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rejections.len(), 5);
    }

    #[test]
    fn region_rejection_counters_accumulate() {
        let s = DataStore::new();
        s.record_probe(probe(10, market(0), ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(20, market(1), ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(30, market(0), ProbeOutcome::Fulfilled));
        assert_eq!(s.read().od_rejections_by_region()[&Region::UsEast1], 2);
    }

    #[test]
    fn shared_store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedStore>();
        // A view holds no guard, so it crosses threads too.
        assert_send_sync::<StoreRead<'_>>();
        let s = shared_store();
        s.record_spike(SpikeEvent {
            market: market(0),
            at: SimTime::ZERO,
            ratio: 1.5,
            probed: true,
        });
        let view = s.read();
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(view.spikes().count(), 1));
        });
        std::thread::scope(|scope| {
            scope.spawn(move || assert_eq!(view.spikes_at_or_above(1.0), 1));
        });
        assert_eq!(s.read().spikes_at_or_above(2.0), 0);
    }

    #[test]
    fn concurrent_writers_do_not_lose_records() {
        let s = shared_store();
        std::thread::scope(|scope| {
            for w in 0..4u8 {
                let s = &s;
                scope.spawn(move || {
                    for t in 0..500u64 {
                        s.record_probe(probe(t, market(w), ProbeOutcome::Fulfilled));
                    }
                });
            }
        });
        assert_eq!(s.len(), 2000);
        let r = s.read();
        for w in 0..4u8 {
            assert_eq!(r.probes().filter(|p| p.market == market(w)).count(), 500);
            assert_eq!(
                r.probe_stats(market(w), ProbeKind::OnDemand).informative,
                500
            );
        }
    }

    #[test]
    fn span_sums_match_interval_walk() {
        // An interval crossing three hours plus an open one: the prefix
        // sums equal the clipped walk.
        let s = DataStore::new();
        let m = market(0);
        s.record_probe(probe(1800, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(9000, m, ProbeOutcome::Fulfilled)); // 7200 s closed
        s.record_probe(probe(20_000, m, ProbeOutcome::InsufficientCapacity)); // open
        let r = s.read();
        let q = |a: u64, b: u64| {
            r.unavailable_seconds_in(
                m,
                ProbeKind::OnDemand,
                SimTime::from_secs(a),
                SimTime::from_secs(b),
            )
        };
        assert_eq!(q(0, 30_000), 7200 + 10_000);
        assert_eq!(q(0, 9000), 7200);
        assert_eq!(q(3600, 7200), 3600); // inside the closed interval
        assert_eq!(q(2000, 8000), 6000); // straddling neither end
        assert_eq!(q(10_000, 15_000), 0);
        assert_eq!(q(25_000, 30_000), 5000); // open interval clipped to span
    }

    #[test]
    fn openings_write_the_closed_seconds_before_them() {
        let s = DataStore::new();
        let m = market(0);
        // The key's index, as `(slab position, closed_before)`.
        let index = |r: &StoreRead<'_>| -> Vec<(usize, u64)> {
            r.key(m, ProbeKind::OnDemand).map_or_else(Vec::new, |k| {
                let entries = k.state.intervals.iter();
                entries.map(|e| (e.pos, e.closed_before)).collect()
            })
        };
        // A fulfilment with nothing open, and a repeated rejection or a
        // limited probe while open, write no entry.
        s.record_probe(probe(100, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(4000, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(5000, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(8000, m, ProbeOutcome::ApiLimited));
        assert_eq!(index(&s.read()), [(0, 0)]);
        // Closing [4000, 12_000) writes the slab, not the index.
        s.record_probe(probe(12_000, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(20_000, m, ProbeOutcome::Fulfilled));
        assert_eq!(index(&s.read()), [(0, 0)]);
        // The next openings carry the seconds closed before them; an
        // open interval adds nothing until it closes.
        s.record_probe(probe(30_000, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(30_500, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(40_000, m, ProbeOutcome::InsufficientCapacity));
        assert_eq!(index(&s.read()), [(0, 0), (1, 8000), (2, 8500)]);
        let r = s.read();
        assert_eq!(r.closed_interval_count(m, ProbeKind::OnDemand), 2);
        let st = r.probe_stats(m, ProbeKind::OnDemand);
        assert_eq!((st.informative, st.rejections), (8, 4));
    }

    #[test]
    fn probes_that_change_no_list_leave_a_snapshots_lists_shared() {
        let s = DataStore::new();
        let markets: Vec<_> = (0..4).map(market).collect();
        for &m in &markets {
            s.record_probe(probe(100, m, ProbeOutcome::InsufficientCapacity));
            s.record_probe(probe(5000, m, ProbeOutcome::Fulfilled));
        }
        let snap = s.snapshot(SimTime::from_secs(5000));
        for &m in &markets {
            s.record_probe(probe(6000, m, ProbeOutcome::Fulfilled));
            s.record_probe(probe(6500, m, ProbeOutcome::ApiLimited));
            s.record_probe(probe(7000, m, ProbeOutcome::Fulfilled));
        }
        // The two lists of a key, as the live store and the snapshot
        // hold them: shared, or not, per list.
        let shared = |snap: &crate::snapshot::StoreSnapshot, m: MarketId| -> [bool; 2] {
            let live = s.stripes[stripe_index(m)].read();
            let live = &live.keys[&(m, ProbeKind::OnDemand)];
            let read = snap.read();
            let frozen = read.key(m, ProbeKind::OnDemand).unwrap().state;
            assert!(live.stats.informative > frozen.stats.informative);
            [
                live.intervals.shares_buffer_with(&frozen.intervals),
                live.rejection_times
                    .shares_buffer_with(&frozen.rejection_times),
            ]
        };
        for &m in &markets {
            assert_eq!(shared(&snap, m), [true; 2], "{m:?}");
        }
        // A rejection opens an interval: it copies the index and the
        // rejection times. A fulfilment that closes an interval after
        // a capture writes neither list.
        s.record_probe(probe(8000, markets[0], ProbeOutcome::InsufficientCapacity));
        assert_eq!(shared(&snap, markets[0]), [false, false]);
        let opened = s.snapshot(SimTime::from_secs(8000));
        s.record_probe(probe(9000, markets[0], ProbeOutcome::Fulfilled));
        assert_eq!(shared(&opened, markets[0]), [true; 2]);
        let r = opened.read();
        let frozen = r.intervals_of(markets[0], ProbeKind::OnDemand).last();
        assert_eq!(
            frozen.and_then(|i| i.end),
            None,
            "the slab copied its chunk"
        );
    }

    #[test]
    fn compaction_preserves_summaries_and_frees_slabs() {
        let s = DataStore::new();
        let m = market(0);
        for t in 0..200u64 {
            let outcome = if t % 10 == 0 {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            };
            s.record_probe(probe(t * 100, m, outcome));
            s.record_spike(SpikeEvent {
                market: m,
                at: SimTime::from_secs(t * 100),
                ratio: 1.0 + (t % 5) as f64,
                probed: true,
            });
        }
        let horizon = SimTime::from_secs(15_000);
        let (stats_before, unavail_before, spikes_ge2, rejections) = {
            let r = s.read();
            (
                r.probe_stats(m, ProbeKind::OnDemand),
                r.unavailable_seconds_in(
                    m,
                    ProbeKind::OnDemand,
                    SimTime::ZERO,
                    SimTime::from_secs(20_000),
                ),
                r.spikes_at_or_above(2.0),
                r.rejection_times(m, ProbeKind::OnDemand).to_vec(),
            )
        };
        let before_records = s.resident_records();
        let dropped = s.compact(horizon);
        assert!(dropped.dropped_probes > 0 && dropped.dropped_spikes > 0);
        assert!(s.resident_records() < before_records);
        assert_eq!(s.len(), 200, "logical count survives compaction");
        let r = s.read();
        assert_eq!(r.probe_stats(m, ProbeKind::OnDemand), stats_before);
        assert_eq!(
            r.unavailable_seconds_in(
                m,
                ProbeKind::OnDemand,
                SimTime::ZERO,
                SimTime::from_secs(20_000)
            ),
            unavail_before
        );
        assert_eq!(r.spikes_at_or_above(2.0), spikes_ge2);
        assert_eq!(r.rejection_times(m, ProbeKind::OnDemand), &rejections[..]);
        assert!(r.probes().all(|p| p.at >= horizon));
        assert!(r.spikes().all(|sp| sp.at >= horizon));
        assert!(r.probed_markets().any(|pm| pm == m), "market stays known");
    }

    #[test]
    fn last_informative_tracks_max_not_last_write() {
        let s = DataStore::new();
        let m = market(0);
        assert_eq!(s.read().last_informative_at(m, ProbeKind::OnDemand), None);
        s.record_probe(probe(100, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(500, m, ProbeOutcome::InsufficientCapacity));
        // ApiLimited is not informative: it must not advance freshness.
        s.record_probe(probe(900, m, ProbeOutcome::ApiLimited));
        // An out-of-order arrival must not move freshness backwards.
        s.record_probe(probe(300, m, ProbeOutcome::Fulfilled));
        assert_eq!(
            s.read().last_informative_at(m, ProbeKind::OnDemand),
            Some(SimTime::from_secs(500))
        );
        assert_eq!(s.read().last_informative_at(m, ProbeKind::Spot), None);
    }

    #[test]
    fn region_health_episodes_accumulate() {
        let s = DataStore::new();
        let r = Region::ApSoutheast2;
        assert_eq!(s.region_health(r), None);
        s.mark_region_degraded(r, SimTime::from_secs(1000));
        // Re-marking while degraded is idempotent.
        s.mark_region_degraded(r, SimTime::from_secs(1500));
        {
            let read = s.read();
            assert_eq!(read.degraded_regions(), vec![r]);
            let h = read.region_health(r).unwrap();
            assert!(h.degraded);
            assert_eq!(h.trips, 1);
            assert_eq!(h.since, SimTime::from_secs(1000));
        }
        s.mark_region_recovered(r, SimTime::from_secs(4000));
        let h = s.region_health(r).unwrap();
        assert!(!h.degraded);
        assert_eq!(h.degraded_secs, 3000);
        // A second episode bumps trips and adds seconds.
        s.mark_region_degraded(r, SimTime::from_secs(5000));
        s.mark_region_recovered(r, SimTime::from_secs(5600));
        let h = s.region_health(r).unwrap();
        assert_eq!(h.trips, 2);
        assert_eq!(h.degraded_secs, 3600);
        assert!(s.read().degraded_regions().is_empty());
        // Recovering a never-degraded region is a no-op.
        s.mark_region_recovered(Region::EuWest1, SimTime::from_secs(1));
        assert_eq!(s.region_health(Region::EuWest1), None);
    }
}
