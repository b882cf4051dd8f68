//! SpotLight's database: every probe, spike, unavailability interval,
//! revocation observation, and intrinsic-bid measurement.
//!
//! The prototype in the paper logged "all states and status changes
//! timestamps ... into database" through a dedicated database manager
//! (Chapter 4). Here the store is a **lock-striped, epoch-summarized
//! in-memory log**: the analysis (`crate::analysis`) and the query
//! interface (`crate::query`) are pure functions over a [`StoreRead`]
//! snapshot of it.
//!
//! # Striping
//!
//! Records are routed to one of N stripes by a hash of their market id;
//! each stripe sits behind its own [`crate::sync::RwLock`]. Ingest
//! (`record_*`, all `&self`) write-locks exactly one stripe, so
//! concurrent probe workers in live mode only contend when they hit the
//! same stripe. Reads are **captures**: [`DataStore::read`] takes every
//! stripe's read lock (in stripe order, so captures never deadlock
//! against writers) for the length of a shallow clone, reads the
//! store-wide counters and health table while they are held, lets go,
//! and exposes the whole-log iteration and per-key API on the owned
//! view. No caller ever holds a stripe guard, so nothing that
//! reads the store stops what fills it. On the store itself `len`,
//! `total_cost` and `suppressed_probes` are lock-free atomics.
//!
//! # Index invariants
//!
//! Within a stripe the log slabs (`probes`, `spikes`, `intervals`, …)
//! are append-only between compactions. The one secondary index is
//! `keys`: one `KeyState` per `(market, kind)` holding everything the
//! per-key queries need in a single hash lookup — running
//! informative/rejection counters, the key's interval index (positions
//! in the interval slab, in interval-open order), the at-most-one open
//! interval, the time-sorted rejection timestamps, the closed-interval
//! counter, and the key's epoch summary. Every probe creates its key and
//! compaction keeps keys, so the key table is also the set of markets
//! ever probed. There is no per-market index: a market's raw probes,
//! revocations and intrinsic bids are a filter over its stripe's slab.
//! A checkpoint's stripe is refused on load unless its interval
//! positions fall inside its slab and its sorted lists are sorted.
//!
//! # Epoch summaries
//!
//! Each `(market, kind)` additionally maintains fixed-width time
//! buckets ([`DataStore::epoch_width`], default one hour) with
//! informative/rejection counts and **closed-unavailable seconds**,
//! updated incrementally at ingest (interval seconds are distributed
//! over the epochs they cover when the interval closes). The series is
//! **sparse**: it is the epoch-sorted list of the key's *non-empty*
//! buckets, so a key costs what was observed of it, not how long the
//! store has been up — SpotLight probes on price spikes under a budget,
//! and a key is observed in few of its hours. Window sweeps
//! ([`StoreRead::unavailable_seconds_in`]) read whole buckets for the
//! epochs fully inside the query span (two partition points and a scan)
//! and binary-search the key's interval index only for the two boundary
//! epochs — O(log buckets + buckets in span + log intervals) instead of
//! O(intervals in span). The fast path
//! requires the key's intervals to be start-sorted and non-overlapping
//! (always true for the engine's monotone timestamps); a key that ever
//! observes out-of-order interval bookkeeping is flagged and falls back
//! to the exact full walk. Spike ratios are likewise bucketed per epoch
//! in sorted lists, so threshold counts ([`StoreRead::spikes_at_or_above`])
//! are binary searches per bucket, independent of the raw spike log.
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
//!   key's interval index, rejection times and epoch summary — is a
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
//! # Compaction
//!
//! [`DataStore::compact`] folds records strictly older than a retention
//! horizon into the summaries and frees the raw slabs: probe and spike
//! records are dropped (their contributions already live in the running
//! counters, rejection-time indices, interval log, and epoch
//! summaries), while intervals, rejection timestamps, revocations, and
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
//! appends every mutation to a per-stripe, CRC-framed, append-only
//! segment log (one log *stream* per stripe plus a meta stream for
//! store-wide events), written by a background thread behind a bounded
//! queue with a configurable fsync policy
//! ([`crate::durable::DurableOptions`]). [`DataStore::checkpoint`]
//! writes an atomic full-state snapshot and prunes the log behind it;
//! [`DataStore::recover`] rebuilds the store from the last checkpoint
//! plus the surviving log tail, trimming torn or corrupt tail frames
//! and dropping duplicated frames a retried append can leave. In
//! durable mode [`DataStore::compact`] *spills* the doomed raw records
//! into sealed on-disk segments before freeing their slabs, so
//! bounded-RAM operation never destroys history. The protocol,
//! sequence-number reasoning, and crash-safety argument live in
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
//! query freshness, and the driver's periodic
//! [`DataStore::tend_durability`] call re-establishes the log at a
//! fresh generation once the disk recovers — a healing checkpoint
//! captures every op recorded while degraded. Graceful shutdown
//! ([`DataStore::close`]) writes a clean-shutdown marker after a final
//! checkpoint so the next recovery skips tail-scan replay entirely.
//! The full state machine is documented in [`crate::durable`]; the
//! kill-9 crash-torture harness (`crates/bench/src/bin/torture.rs`,
//! driven by `scripts/torture_smoke.sh`) exercises real SIGKILLed
//! child processes against it.

use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, UnavailabilityInterval};
use crate::shared::{ChunkVec, CowVec};
use crate::sync::RwLock;
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default stripe count (markets hash across these).
pub const DEFAULT_STRIPES: usize = 16;

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

/// Default epoch-summary bucket width.
pub const DEFAULT_EPOCH: SimDuration = SimDuration::from_secs(3600);

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

/// Running per-`(market, kind)` probe counters.
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

/// One non-empty epoch bucket of a `(market, kind)` summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EpochCell {
    pub(crate) epoch: u64,
    pub(crate) informative: u64,
    pub(crate) rejections: u64,
    pub(crate) unavail_secs: u64,
}

impl EpochCell {
    fn at(epoch: u64) -> Self {
        EpochCell {
            epoch,
            ..EpochCell::default()
        }
    }
}

/// A key's non-empty epoch buckets, strictly sorted by epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EpochSeries {
    pub(crate) cells: CowVec<EpochCell>,
}

impl EpochSeries {
    /// Mutable access to epoch `e`'s cell, creating it if absent: an
    /// O(1) update or append when `e` is the latest epoch (the engine's
    /// monotone time), a binary-search insert otherwise (live-mode
    /// reordering).
    fn cell(&mut self, e: u64) -> &mut EpochCell {
        let pos = match self.cells.last() {
            Some(last) if last.epoch == e => self.cells.len() - 1,
            Some(last) if last.epoch > e => {
                let pos = self.cells.partition_point(|c| c.epoch < e);
                if self.cells[pos].epoch != e {
                    self.cells.insert(pos, EpochCell::at(e));
                }
                pos
            }
            _ => {
                self.cells.push(EpochCell::at(e));
                self.cells.len() - 1
            }
        };
        &mut self.cells.as_mut_slice()[pos]
    }

    /// The cells of epochs `[from, to)`.
    fn cells_in(&self, from: u64, to: u64) -> &[EpochCell] {
        let lo = self.cells.partition_point(|c| c.epoch < from);
        let hi = self.cells.partition_point(|c| c.epoch < to);
        &self.cells[lo..hi.max(lo)]
    }

    /// Sum of closed-unavailable seconds over epochs `[from, to)`.
    fn unavail_in(&self, from: u64, to: u64) -> u64 {
        self.cells_in(from, to).iter().map(|c| c.unavail_secs).sum()
    }

    /// Sum of (informative, rejection) counts over epochs `[from, to)`.
    fn counts_in(&self, from: u64, to: u64) -> (u64, u64) {
        self.cells_in(from, to)
            .iter()
            .fold((0, 0), |(i, r), c| (i + c.informative, r + c.rejections))
    }
}

/// Everything one `(market, kind)` key maintains, reachable in a single
/// hash lookup at ingest. It sits in the stripe's key table itself — the
/// scalars inline, each list's buffer one hop away — so an all-market
/// scan never chases a key's allocation around the heap.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyState {
    pub(crate) stats: ProbeStats,
    /// Indices into the stripe's interval slab, in interval-open order.
    pub(crate) intervals: CowVec<usize>,
    /// The at-most-one open interval, as an index into the slab.
    pub(crate) open: Option<usize>,
    pub(crate) closed_intervals: u64,
    /// Latest informative probe timestamp — the freshness anchor of
    /// [`StoreRead::last_informative_at`]. A max, not a last-write, so
    /// out-of-order live-mode arrivals cannot move it backwards.
    pub(crate) last_informative: Option<SimTime>,
    /// Set once the key's intervals stop being start-sorted and
    /// non-overlapping (possible under live-mode reordering); the
    /// epoch fast path then yields to the exact full walk.
    pub(crate) disordered: bool,
    /// Time-sorted timestamps of unavailable-outcome probes.
    pub(crate) rejection_times: CowVec<SimTime>,
    pub(crate) epochs: EpochSeries,
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

/// What `DataStore::capture` takes, all of it as of one instant: the
/// store-wide counters and health table, and a shallow clone of every
/// stripe. A [`StoreRead`] owns or borrows one; a `StoreSnapshot` keeps
/// one; a checkpoint encodes one.
#[derive(Debug, Clone)]
pub(crate) struct Capture {
    epoch_secs: u64,
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
    pub(crate) epoch_secs: u64,
    pub(crate) recorded_probes: AtomicU64,
    pub(crate) total_cost_micros: AtomicU64,
    pub(crate) suppressed_probes: AtomicU64,
    /// Region degradation markers, written by live-mode circuit
    /// breakers. A separate (tiny, rarely written) lock so marking a
    /// region never contends with probe ingest.
    pub(crate) region_health: RwLock<BTreeMap<Region, RegionHealth>>,
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
pub(crate) fn stripe_index(market: MarketId, stripes: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    market.hash(&mut h);
    let h = h.finish();
    ((h >> 32) ^ h) as usize % stripes
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

/// Distributes a closed interval's `[start, end)` seconds over the
/// epoch buckets it covers.
fn add_closed_span(epochs: &mut EpochSeries, start: u64, end: u64, width: u64) {
    if end <= start {
        return;
    }
    let last = (end - 1) / width;
    for e in (start / width)..=last {
        let lo = start.max(e * width);
        let hi = end.min((e + 1) * width);
        epochs.cell(e).unavail_secs += hi - lo;
    }
}

/// Drops the records of a raw slab (probes or spikes) older than
/// `before` among its first `limit` entries, returning how many went.
/// Entries at or past `limit` are kept regardless: in durable mode they
/// arrived after the spill snapshot and are not sealed on disk yet. What
/// the records contributed stays in the key table and the epoch buckets.
fn compact_slab<T: Copy>(
    slab: &mut ChunkVec<T>,
    at: impl Fn(&T) -> SimTime,
    before: SimTime,
    limit: usize,
) -> u64 {
    let old_len = slab.len();
    let kept: ChunkVec<T> = slab
        .iter()
        .enumerate()
        .filter(|&(i, r)| i >= limit || at(r) >= before)
        .map(|(_, r)| *r)
        .collect();
    if kept.len() != old_len {
        *slab = kept;
    }
    (old_len - slab.len()) as u64
}

impl DataStore {
    /// Creates an empty store with the default layout
    /// ([`DEFAULT_STRIPES`] stripes, [`DEFAULT_EPOCH`] epochs).
    pub fn new() -> Self {
        DataStore::with_layout(DEFAULT_STRIPES, DEFAULT_EPOCH)
    }

    /// Creates an empty store with `stripes` lock stripes and `epoch`
    /// wide summary buckets.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero or `epoch` is zero-length.
    pub fn with_layout(stripes: usize, epoch: SimDuration) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        assert!(epoch.as_secs() > 0, "epoch width must be positive");
        DataStore {
            stripes: (0..stripes).map(|_| RwLock::default()).collect(),
            epoch_secs: epoch.as_secs(),
            recorded_probes: AtomicU64::new(0),
            total_cost_micros: AtomicU64::new(0),
            suppressed_probes: AtomicU64::new(0),
            region_health: RwLock::default(),
            durable: None,
        }
    }

    /// The configured number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The configured epoch-summary bucket width.
    pub fn epoch_width(&self) -> SimDuration {
        SimDuration::from_secs(self.epoch_secs)
    }

    fn stripe_of(&self, market: MarketId) -> usize {
        stripe_index(market, self.stripes.len())
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
            epoch_secs: self.epoch_secs,
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
        let epoch = probe.at.as_secs() / self.epoch_secs;
        let idx = self.stripe_of(probe.market);
        let mut stripe = self.stripes[idx].write();
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
            d.append(idx as u32, &crate::durable::StoreOp::Probe(probe));
        }
        stripe.record_probe(probe, epoch, self.epoch_secs)
    }

    /// Records a spike observation (raw log + epoch ratio summary).
    pub fn record_spike(&self, spike: SpikeEvent) {
        let epoch = spike.at.as_secs() / self.epoch_secs;
        let idx = self.stripe_of(spike.market);
        let mut stripe = self.stripes[idx].write();
        if let Some(d) = &self.durable {
            d.append(idx as u32, &crate::durable::StoreOp::Spike(spike));
        }
        stripe.spikes.push(spike);
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
            d.append(
                self.meta_stream(),
                &crate::durable::StoreOp::Suppressed { total },
            );
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
                d.append(
                    self.meta_stream(),
                    &crate::durable::StoreOp::RegionDegraded { region, at },
                );
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
                    d.append(
                        self.meta_stream(),
                        &crate::durable::StoreOp::RegionRecovered { region, at },
                    );
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

    /// Records a revocation-watch observation.
    pub fn record_revocation(&self, rec: RevocationRecord) {
        let idx = self.stripe_of(rec.market);
        let mut stripe = self.stripes[idx].write();
        if let Some(d) = &self.durable {
            d.append(idx as u32, &crate::durable::StoreOp::Revocation(rec));
        }
        stripe.revocations.push(rec);
    }

    /// Records an intrinsic-bid measurement.
    pub fn record_intrinsic_bid(&self, rec: IntrinsicBidRecord) {
        let idx = self.stripe_of(rec.market);
        let mut stripe = self.stripes[idx].write();
        if let Some(d) = &self.durable {
            d.append(idx as u32, &crate::durable::StoreOp::IntrinsicBid(rec));
        }
        stripe.intrinsic_bids.push(rec);
    }

    /// Folds raw records strictly older than `before` into the
    /// summaries and frees their slabs. Intervals, rejection
    /// timestamps, epoch summaries, revocations, intrinsic bids, and
    /// every running counter are retained, so summarized queries are
    /// unchanged; raw-log iteration shrinks to the retained window.
    ///
    /// In durable mode the doomed raw records are first sealed into
    /// spill segments on disk (see [`crate::durable`]) — compaction
    /// *spills* rather than destroys, so the full raw history survives
    /// bounded-RAM operation. If a stripe's spill write fails, that
    /// stripe keeps its raw slabs (nothing is lost; the error is
    /// surfaced via [`DataStore::durability_stats`]).
    pub fn compact(&self, before: SimTime) -> CompactionStats {
        // Durable compaction releases the stripe lock between spilling
        // and dropping, so concurrent passes must not interleave (the
        // same records would be sealed twice).
        let _spill_guard = self.durable.as_ref().map(|d| d.compact_lock.lock());
        let mut stats = CompactionStats::default();
        // One directory listing numbers the whole pass's segments.
        let spill_numbers = match &self.durable {
            Some(d) => {
                let Some(numbers) = crate::durable::next_spill_numbers(d, self.stripes.len())
                else {
                    return stats; // nothing can be sealed: every slab stays
                };
                Some((d, numbers))
            }
            None => None,
        };
        for (idx, stripe) in self.stripes.iter().enumerate() {
            // In durable mode the doomed records are sealed *before*
            // their slabs are touched, and the synchronous segment
            // write runs with no stripe lock held — ingest and reads
            // proceed during the disk IO. Only the snapshotted slab
            // prefix is dropped afterwards: records that arrive
            // mid-spill (even ones older than `before`) stay resident
            // until the next pass, so segments never hold duplicates.
            let spilled = match &spill_numbers {
                Some((d, numbers)) => {
                    let ((block, records), probes_len, spikes_len) = {
                        let s = stripe.read();
                        (
                            crate::durable::encode_spill(&s, before),
                            s.probes.len(),
                            s.spikes.len(),
                        )
                    };
                    if !crate::durable::write_spill(d, idx, numbers[idx], &block, records) {
                        continue; // keep the raw slabs: nothing sealed
                    }
                    Some((probes_len, spikes_len))
                }
                None => None,
            };
            let mut s = stripe.write();
            let (probe_limit, spike_limit) = spilled.unwrap_or((s.probes.len(), s.spikes.len()));
            stats.dropped_probes += compact_slab(&mut s.probes, |p| p.at, before, probe_limit);
            stats.dropped_spikes += compact_slab(&mut s.spikes, |sp| sp.at, before, spike_limit);
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
    /// chunks and spines, the per-epoch lists, and each
    /// key's interval index, rejection times and sparse epoch cells.
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
                .map(|k| {
                    k.intervals.heap_bytes()
                        + k.rejection_times.heap_bytes()
                        + k.epochs.cells.heap_bytes()
                })
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
    fn record_probe(&mut self, probe: ProbeRecord, epoch: u64, epoch_secs: u64) -> bool {
        self.probes.push(probe);
        let key = (probe.market, probe.kind);
        let state = self.keys.entry(key).or_default();
        if probe.outcome.is_informative() {
            state.stats.informative += 1;
            state.last_informative =
                Some(state.last_informative.map_or(probe.at, |t| t.max(probe.at)));
            let cell = state.epochs.cell(epoch);
            cell.informative += 1;
            if probe.outcome.is_unavailable() {
                state.stats.rejections += 1;
                cell.rejections += 1;
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
            // closed) must end at or before this start for the epoch
            // fast path to stay valid.
            if let Some(&last) = state.intervals.last() {
                let prev = &self.intervals[last];
                if probe.at < prev.start || prev.end.is_some_and(|e| probe.at < e) {
                    state.disordered = true;
                }
            }
            let interval_idx = self.intervals.len();
            state.open = Some(interval_idx);
            state.intervals.push(interval_idx);
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
                    state.closed_intervals += 1;
                    if probe.at < interval.start {
                        state.disordered = true;
                    }
                    add_closed_span(
                        &mut state.epochs,
                        interval.start.as_secs(),
                        probe.at.as_secs(),
                        epoch_secs,
                    );
                }
            }
            false
        }
    }

    /// Exact closed-interval overlap with `[from, to)` for a key on the
    /// epoch fast path (start-sorted, non-overlapping intervals): one
    /// binary search plus a scan of the intervals starting inside the
    /// range. The open interval, if any, is the caller's business.
    fn closed_overlap(&self, state: &KeyState, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        let ids = &state.intervals;
        let first = ids.partition_point(|&id| self.intervals[id].start.as_secs() < from);
        let mut total = 0u64;
        if first > 0 {
            // At most one closed interval can straddle `from`.
            let prev = &self.intervals[ids[first - 1]];
            if let Some(end) = prev.end {
                let e = end.as_secs().min(to);
                total += e.saturating_sub(from.max(prev.start.as_secs()));
            }
        }
        for &id in &ids[first..] {
            let interval = &self.intervals[id];
            let s = interval.start.as_secs();
            if s >= to {
                break;
            }
            if let Some(end) = interval.end {
                total += end.as_secs().min(to).saturating_sub(s);
            }
        }
        total
    }

    /// Seconds of measured unavailability of the key `state` (one of
    /// this stripe's) inside `[from, to)`, open intervals running to
    /// `to`. Epoch-summarized: whole buckets for the epochs fully inside
    /// the span, binary searches for the two boundary epochs; exact
    /// full walk for disordered keys.
    fn unavailable_seconds_in(
        &self,
        state: &KeyState,
        from: SimTime,
        to: SimTime,
        epoch_secs: u64,
    ) -> u64 {
        let (a, b) = (from.as_secs(), to.as_secs());
        if b <= a {
            return 0;
        }
        let closed = if state.disordered {
            state
                .intervals
                .iter()
                .filter_map(|&id| {
                    let interval = &self.intervals[id];
                    interval.end.map(|end| {
                        end.as_secs()
                            .min(b)
                            .saturating_sub(interval.start.as_secs().max(a))
                    })
                })
                .sum()
        } else {
            let first_full = a.div_ceil(epoch_secs);
            let end_full = b / epoch_secs;
            // Adaptive: the epoch path touches up to one cell per in-span
            // bucket, the index walk one entry per interval — pick
            // whichever is smaller (sparse keys over long spans are
            // cheaper to walk; dense keys are cheaper to bucket-sum).
            let buckets = end_full.saturating_sub(first_full);
            if first_full >= end_full || (state.intervals.len() as u64) < buckets {
                self.closed_overlap(state, a, b)
            } else {
                self.closed_overlap(state, a, first_full * epoch_secs)
                    + state.epochs.unavail_in(first_full, end_full)
                    + self.closed_overlap(state, end_full * epoch_secs, b)
            }
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
    epoch_secs: u64,
}

impl<'a> KeyRef<'a> {
    /// Seconds of measured unavailability inside `[from, to)`.
    pub(crate) fn unavailable_seconds_in(self, from: SimTime, to: SimTime) -> u64 {
        self.stripe
            .unavailable_seconds_in(self.state, from, to, self.epoch_secs)
    }

    /// The key's unavailability intervals, in open order.
    pub(crate) fn intervals(self) -> impl Iterator<Item = &'a UnavailabilityInterval> {
        let stripe = self.stripe;
        self.state
            .intervals
            .iter()
            .map(move |&i| &stripe.intervals[i])
    }
}

impl StoreRead<'_> {
    /// The one hash lookup behind every per-key accessor; callers that
    /// need several facts of a key fetch it once.
    pub(crate) fn key(&self, market: MarketId, kind: ProbeKind) -> Option<KeyRef<'_>> {
        let stripe = self.stripe_for(market);
        let state = stripe.keys.get(&(market, kind))?;
        Some(KeyRef {
            stripe,
            state,
            epoch_secs: self.capture.epoch_secs,
        })
    }

    fn stripes(&self) -> std::slice::Iter<'_, Stripe> {
        self.capture.stripes.iter()
    }

    fn stripe_for(&self, market: MarketId) -> &Stripe {
        let stripes = &self.capture.stripes;
        &stripes[stripe_index(market, stripes.len())]
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

    /// Completed unavailability intervals of one `(market, kind)` —
    /// a running counter, O(1).
    pub fn closed_interval_count(&self, market: MarketId, kind: ProbeKind) -> u64 {
        self.key(market, kind)
            .map_or(0, |k| k.state.closed_intervals)
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

    /// Informative/rejection counts of one `(market, kind)` restricted
    /// to the epochs fully covering `[from, to)` — served from the
    /// epoch summary (whole buckets; boundary epochs are included).
    pub fn probe_counts_around(
        &self,
        market: MarketId,
        kind: ProbeKind,
        from: SimTime,
        to: SimTime,
    ) -> (u64, u64) {
        let w = self.capture.epoch_secs;
        self.key(market, kind).map_or((0, 0), |k| {
            k.state
                .epochs
                .counts_in(from.as_secs() / w, to.as_secs().div_ceil(w))
        })
    }

    /// Seconds of measured unavailability of `(market, kind)` inside
    /// `[from, to)` (open intervals run to `to`). Epoch-summarized —
    /// see the module docs.
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
    fn epoch_summary_matches_interval_walk() {
        // One-hour epochs; an interval crossing three epochs plus an
        // open one: the summarized sweep equals the clipped walk.
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
        assert_eq!(q(3600, 7200), 3600); // one whole middle epoch
        assert_eq!(q(2000, 8000), 6000); // boundary epochs only
        assert_eq!(q(10_000, 15_000), 0);
        assert_eq!(q(25_000, 30_000), 5000); // open interval clipped to span
    }

    #[test]
    fn epoch_probe_counts_cover_span_buckets() {
        // Hourly epochs: probes at 600 s, 4000 s, 4100 s (one rejected).
        let s = DataStore::new();
        let m = market(0);
        s.record_probe(probe(600, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(4000, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(4100, m, ProbeOutcome::ApiLimited)); // not informative
        let r = s.read();
        let counts = |a: u64, b: u64| {
            r.probe_counts_around(
                m,
                ProbeKind::OnDemand,
                SimTime::from_secs(a),
                SimTime::from_secs(b),
            )
        };
        assert_eq!(counts(0, 8000), (2, 1));
        // Boundary epochs are included whole: a span inside epoch 1
        // still sees that epoch's counts, never partial ones.
        assert_eq!(counts(3700, 3800), (1, 1));
        assert_eq!(counts(0, 3600), (1, 0));
        assert_eq!(counts(7200, 10_000), (0, 0));
        assert_eq!(
            r.probe_counts_around(market(1), ProbeKind::OnDemand, SimTime::ZERO, SimTime::MAX),
            (0, 0)
        );
    }

    proptest::proptest! {
        // The sparse series against a `BTreeMap` model: random
        // per-field updates at out-of-order epochs and multi-epoch
        // closed spans.
        #[test]
        fn epoch_series_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0u64..40, 1u64..500, 0u64..6), 0..120),
            ranges in proptest::collection::vec((0u64..50, 0u64..50), 1..12),
        ) {
            use spotlight_persist::{Decode, Encode};
            const WIDTH: u64 = 100;
            let mut series = EpochSeries::default();
            // epoch -> (informative, rejections, unavail_secs)
            let mut model = std::collections::BTreeMap::<u64, (u64, u64, u64)>::new();
            let mut unavail_secs = 0;
            for (field, epoch, delta, more_epochs) in ops {
                match field {
                    0 => {
                        series.cell(epoch).informative += delta;
                        model.entry(epoch).or_default().0 += delta;
                    }
                    1 => {
                        series.cell(epoch).rejections += delta;
                        model.entry(epoch).or_default().1 += delta;
                    }
                    2 => {
                        series.cell(epoch).unavail_secs += delta;
                        model.entry(epoch).or_default().2 += delta;
                        unavail_secs += delta;
                    }
                    _ => {
                        // Starts inside `epoch`, ends `more_epochs` later.
                        let start = epoch * WIDTH + delta % WIDTH;
                        let end = start + more_epochs * WIDTH + delta % 37;
                        add_closed_span(&mut series, start, end, WIDTH);
                        unavail_secs += end - start;
                        for second in start..end {
                            model.entry(second / WIDTH).or_default().2 += 1;
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(series.unavail_in(0, u64::MAX), unavail_secs);
            let as_model: Vec<_> = series
                .cells
                .iter()
                .map(|c| (c.epoch, (c.informative, c.rejections, c.unavail_secs)))
                .collect();
            // Strictly epoch-sorted, and exactly the non-empty buckets.
            proptest::prop_assert_eq!(&as_model, &model.clone().into_iter().collect::<Vec<_>>());
            for (a, b) in ranges {
                let expect = model.range(a..b.max(a)).fold((0, 0, 0), |acc, (_, m)| {
                    (acc.0 + m.0, acc.1 + m.1, acc.2 + m.2)
                });
                proptest::prop_assert_eq!(series.counts_in(a, b), (expect.0, expect.1));
                proptest::prop_assert_eq!(series.unavail_in(a, b), expect.2);
            }
            // Reads over absent epochs inserted nothing.
            proptest::prop_assert_eq!(series.cells.len(), model.len());
            // On disk: the cell count, then the four integers of each
            // non-empty bucket and nothing for the empty ones.
            let cells_len: usize = model
                .iter()
                .flat_map(|(&e, &(i, r, u))| [e, i, r, u])
                .map(|v| v.to_bytes().len())
                .sum();
            let bytes = series.to_bytes();
            proptest::prop_assert_eq!(bytes.len(), model.len().to_bytes().len() + cells_len);
            proptest::prop_assert_eq!(EpochSeries::from_bytes(&bytes), Ok(series));
        }
    }

    #[test]
    fn an_unsorted_epoch_series_does_not_decode() {
        use spotlight_persist::{Decode, DecodeError, Encode};
        let cells = vec![EpochCell::at(7), EpochCell::at(7)];
        assert_eq!(
            EpochSeries::from_bytes(&cells.to_bytes()),
            Err(DecodeError::Invalid("epoch series order"))
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
