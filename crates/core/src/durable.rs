//! Durable mode: the store-specific operation log, checkpoints, and
//! crash recovery layered on `spotlight-persist`.
//!
//! # The operation log
//!
//! A durable [`DataStore`] owns a [`spotlight_persist::WalHandle`] with
//! one log *stream per stripe* plus a meta stream (stream index =
//! stripe count) for store-wide events. Every `record_*` call encodes a
//! `StoreOp` and appends it **while holding the lock it mutated
//! under** (the market's stripe lock; the region-health lock for
//! breaker events), so each stream's frames are in exactly the order
//! the in-memory state observed them. Suppressed-probe counts are the
//! one lock-free path: their op carries the post-increment running
//! total and replays via `fetch_max`, which is idempotent and
//! order-insensitive, so no lock is needed.
//!
//! # Checkpoints and the sequence protocol
//!
//! Appends carry a global monotone sequence number assigned under the
//! mutated lock. [`DataStore::checkpoint`] **rotates, then captures**:
//!
//! 1. *Rotate.* With no store lock held it closes the WAL's current
//!    generation and moves the writer to a fresh one — the checkpoint's
//!    **floor**. `rotate()` returns only after every frame of the closed
//!    generation has been handed to the writer, written, and fsynced.
//! 2. *Capture.* It then takes the store's one capture
//!    (`DataStore::capture`, which [`DataStore::read`] and
//!    [`DataStore::snapshot`] take too): under *every* stripe's **read**
//!    guard plus the region-health read guard it reads `next_seq`, the
//!    next unissued sequence number, and the counters, takes a shallow
//!    clone of each stripe, and releases. Shared guards suffice: a
//!    frame is sequenced, and its op applied, inside one *write*-lock
//!    critical section of the lock the op mutates under, and a read
//!    guard excludes those sections exactly as a write guard would —
//!    while all are held no such op is half-applied and none can be
//!    sequenced, so `next_seq` still splits them into "inside the
//!    capture" and "replayed". (The lock-free suppressed counter has
//!    its own argument below.)
//! 3. *Write.* It encodes the captured state with no lock held and
//!    writes the checkpoint — `next_seq` and the floor in its meta
//!    section, a `CheckpointMeta` record, then one section per stripe —
//!    atomically (temp + fsync + rename + dir fsync).
//! 4. *Prune.* Only then does it delete every generation below the
//!    floor.
//!
//! Why nothing below the floor is ever needed again: a frame's sequence
//! number is assigned, and its op applied in memory, inside one critical
//! section of the lock the op mutates under. A frame in a generation
//! older than the floor was handed to the writer before `rotate()`
//! returned, so its sequence number was assigned before the capture
//! took that lock — it is below the captured `next_seq`, and its
//! critical section had ended, so its effect is inside the captured
//! state. (The lock-free suppressed counter: its frame carries a total
//! the counter had already reached, and the capture reads the counter
//! later.) Conversely an op sequenced at or after `next_seq` ran after
//! the capture released its lock, so its frame was staged after the
//! rotate and lands in the floor generation or a later one, which
//! recovery scans. Ops that slipped in between the rotate and the
//! capture sit in the floor generation with sequence numbers below
//! `next_seq`; recovery's per-stream floor skips them — they are inside
//! the checkpoint. So the covered log is gone the moment the checkpoint
//! lands, and a just-checkpointed, quiescent directory holds no log at
//! all.
//!
//! Nothing is deleted until the checkpoint write has returned: a
//! failure at any step (the rotate, the write, a crash between them)
//! leaves the previous checkpoint and the whole log since *its* floor —
//! one generation boundary richer, nothing poorer — and a crash after
//! the write leaves the new checkpoint plus a log tail, and perhaps some
//! generations below the floor that recovery skips and the next
//! checkpoint deletes. Every case recovers exactly.
//!
//! # Recovery
//!
//! [`DataStore::recover`] rebuilds the store: decode the last
//! checkpoint (if any), then replay every WAL generation **at or above
//! the checkpoint's floor** in `(generation, stream)` order through the
//! normal in-memory ingest paths, filtering each stream by a monotone
//! per-stream sequence floor that starts at the checkpoint's
//! `next_seq` — which uniformly drops both checkpoint-covered frames
//! and the duplicated-tail frames a retried append can leave behind.
//! Frame scanning stops at the first torn, truncated, or corrupt frame,
//! so a crash mid-write costs at most the unsynced tail. Recovery never
//! appends to scanned files: it reopens the log at a fresh generation.
//!
//! # Degraded durability and healing
//!
//! A long-running collector must survive the disk itself misbehaving,
//! not just process death. When the WAL writer's bounded in-thread
//! retries cannot get a batch onto disk (persistent `ENOSPC`/`EIO`, or
//! repeated fsync failure), the sink transitions to
//! [`DurabilityMode::Degraded`]:
//!
//! * Ingest keeps working **in memory** — `record_*` calls skip the
//!   encode+append entirely (counted in
//!   [`DurabilityStats::ops_dropped`]) instead of wedging on a dead
//!   disk.
//! * The transition publishes a `durability_lost` watermark: the max op
//!   time that was provably written *and fsynced* before the failure.
//!   Ops at or before the watermark survive a crash; ops after it exist
//!   only in memory until the store heals. (The watermark is a valid
//!   frontier because record order carries non-decreasing op times —
//!   live ticks advance monotonically.)
//! * [`DataStore::tend_durability`] — called by the live driver every
//!   tick, or by any caller on its own schedule — retries a *heal*
//!   with exponential backoff: revive the WAL at a fresh generation,
//!   then take a full checkpoint (which rotates once more — a heal
//!   advances two generations, and its floor is the second). The
//!   checkpoint captures every op the degraded window dropped (they are
//!   still in memory), so a successful heal loses nothing that was
//!   recorded: the store returns to [`DurabilityMode::Durable`] and the
//!   watermark clears.
//!   A still-broken disk fails the checkpoint and the sink returns to
//!   degraded, backing off further.
//!
//! # Graceful shutdown
//!
//! [`DataStore::close`] takes a final checkpoint (its rotate drains the
//! write-behind queue) and writes an atomic clean-shutdown marker
//! recording the log position: the next sequence number and the
//! generation the writer stands at, which nothing was appended to.
//! [`DataStore::recover`] consumes the marker (it is removed, and the
//! removal fsynced, before the store reopens, so it can never be
//! trusted twice) and, when it matches the checkpoint — same
//! `next_seq`, and `marker.generation == checkpoint floor` — skips the
//! WAL tail scan entirely: [`RecoveryInfo::replayed_ops`] is 0 and
//! [`RecoveryInfo::from_clean_shutdown`] is true. An unclean death
//! leaves no marker and recovery replays the tail as usual.

use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger, UnavailabilityInterval};
use crate::shared::{ChunkVec, CowVec};
use crate::store::{
    DataStore, EpochCell, EpochSeries, IntrinsicBidRecord, KeyState, ProbeStats, RegionHealth,
    RevocationRecord, SpikeEvent, Stripe,
};
use cloud_sim::ids::Region;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_persist::log::{CleanMarker, LogDir};
use spotlight_persist::wal::{WalConfig, WalHandle};
use spotlight_persist::{enum_codec, record_codec, Decode, DecodeError, DiskIo, Encode, Reader};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use spotlight_persist::FsyncPolicy;

/// Tuning knobs for a durable store's writer.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When the log writer fsyncs (default: once per drained batch).
    pub fsync: FsyncPolicy,
    /// Bounded depth of the append queue; ingest blocks (backpressure)
    /// when the disk falls this far behind.
    pub queue_capacity: usize,
    /// Disk-I/O layer under every write and fsync; `None` means the
    /// real filesystem. Tests inject a
    /// [`spotlight_persist::FaultyDisk`] here.
    pub io: Option<Arc<dyn DiskIo>>,
    /// Backoff before the first heal attempt after a degraded
    /// transition; doubles per failed attempt.
    pub heal_retry_base: Duration,
    /// Ceiling on the heal backoff.
    pub heal_retry_cap: Duration,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Batch,
            queue_capacity: 4096,
            io: None,
            heal_retry_base: Duration::from_millis(100),
            heal_retry_cap: Duration::from_secs(10),
        }
    }
}

/// Whether a durable store is actually putting ops on disk right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Appends flow to the WAL normally.
    #[default]
    Durable,
    /// The disk defeated bounded retry: ops are in-memory only until a
    /// heal succeeds (see the module docs).
    Degraded,
}

const MODE_DURABLE: u8 = 0;
const MODE_DEGRADED: u8 = 1;
/// Sentinel for "no durability loss": the watermark atomic holds this
/// when the store has never degraded (or has fully healed).
const NO_LOSS: u64 = u64::MAX;

/// Counters describing a durable store's log activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Operations appended to the log.
    pub appended_ops: u64,
    /// Framed bytes appended to the log.
    pub appended_bytes: u64,
    /// Fsyncs issued by the writer.
    pub fsyncs: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Raw records sealed into spill segments by compaction.
    pub spilled_records: u64,
    /// Write/fsync errors the durable paths have hit.
    pub io_errors: u64,
    /// Description of the most recent IO error, if any.
    pub last_error: Option<String>,
    /// Whether appends are currently reaching disk.
    pub mode: DurabilityMode,
    /// While degraded (or until a heal completes): ops at or before
    /// this time are provably on disk; later ones may be memory-only.
    /// `None` when fully durable.
    pub durability_lost: Option<SimTime>,
    /// Ops skipped at the sink while degraded (in memory only until
    /// the healing checkpoint captures them).
    pub ops_dropped: u64,
    /// Frames the WAL writer dropped after exhausting its retries.
    pub dropped_frames: u64,
    /// Durable → degraded transitions.
    pub degraded_transitions: u64,
    /// Successful heals (WAL re-established plus a full checkpoint).
    pub heals: u64,
}

/// What [`DataStore::recover_with_report`] actually did — the
/// crash-torture harness asserts on this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Ops applied from the WAL tail past the checkpoint floor
    /// (including suppressed-counter applications). Zero after a clean
    /// shutdown.
    pub replayed_ops: u64,
    /// Whether a valid clean-shutdown marker let recovery skip the tail
    /// scan entirely.
    pub from_clean_shutdown: bool,
    /// Whether a checkpoint existed and was loaded.
    pub checkpoint_loaded: bool,
}

/// The durable half of a [`DataStore`]: directory, WAL, and counters.
#[derive(Debug)]
pub(crate) struct DurableSink {
    pub(crate) dir: LogDir,
    pub(crate) wal: WalHandle,
    checkpoints: AtomicU64,
    spilled_records: AtomicU64,
    /// Generation the writer is currently appending to — after a
    /// successful checkpoint, that checkpoint's floor.
    current_gen: AtomicU64,
    /// Serializes checkpoints (rotate + capture + write must not
    /// interleave between two callers).
    ckpt_lock: crate::sync::Mutex<()>,
    /// Serializes durable compaction passes: spill-then-drop releases
    /// the stripe lock between snapshot and drop, so two concurrent
    /// `compact` calls could otherwise seal the same records twice and
    /// race each other's prefix drop.
    pub(crate) compact_lock: crate::sync::Mutex<()>,
    /// Errors from durable paths outside the WAL writer (spills).
    io_errors: AtomicU64,
    last_error: crate::sync::Mutex<Option<String>>,
    /// [`MODE_DURABLE`] or [`MODE_DEGRADED`].
    mode: AtomicU8,
    /// Op-time watermark published at the degraded transition
    /// ([`NO_LOSS`] when fully durable).
    durability_lost: AtomicU64,
    /// Ops skipped at the sink while degraded.
    ops_dropped: AtomicU64,
    degraded_transitions: AtomicU64,
    heals: AtomicU64,
    /// Heal backoff bookkeeping.
    heal: crate::sync::Mutex<HealState>,
    heal_retry_base: Duration,
    heal_retry_cap: Duration,
}

#[derive(Debug, Default)]
struct HealState {
    /// Failed heal attempts since the degraded transition.
    attempts: u32,
    /// Earliest instant the next heal may run; `None` when not
    /// degraded.
    next_retry: Option<Instant>,
}

impl DurableSink {
    fn new(dir: LogDir, wal: WalHandle, current_gen: u64, opts: &DurableOptions) -> DurableSink {
        DurableSink {
            dir,
            wal,
            checkpoints: AtomicU64::new(0),
            spilled_records: AtomicU64::new(0),
            current_gen: AtomicU64::new(current_gen),
            ckpt_lock: crate::sync::Mutex::new(()),
            compact_lock: crate::sync::Mutex::new(()),
            io_errors: AtomicU64::new(0),
            last_error: crate::sync::Mutex::new(None),
            mode: AtomicU8::new(MODE_DURABLE),
            durability_lost: AtomicU64::new(NO_LOSS),
            ops_dropped: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            heal: crate::sync::Mutex::new(HealState::default()),
            heal_retry_base: opts.heal_retry_base,
            heal_retry_cap: opts.heal_retry_cap,
        }
    }

    /// Appends one op to `stream`. Called with the mutated lock held so
    /// the stream's frame order matches state order. Encodes into a
    /// thread-local scratch buffer: this is the per-record hot path and
    /// must not allocate.
    ///
    /// While degraded this is two atomic loads and an increment — the
    /// op stays in memory only, counted, until a heal's checkpoint
    /// captures it.
    pub(crate) fn append(&self, stream: u32, op: &StoreOp) {
        if self.mode.load(Ordering::Acquire) == MODE_DEGRADED {
            self.ops_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.wal.is_degraded() {
            // First observer of the writer giving up publishes the
            // transition and its watermark.
            self.enter_degraded();
            self.ops_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            op.encode(&mut buf);
            if self.wal.append(stream, &buf, op.at_secs()).is_err() {
                // The writer thread is gone (shutdown race): stop
                // pretending appends persist.
                self.enter_degraded();
                self.ops_dropped.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Publishes the durable → degraded transition exactly once per
    /// episode: the watermark is the writer's durability frontier at
    /// the moment of failure, and the first heal attempt is scheduled.
    fn enter_degraded(&self) {
        if self
            .mode
            .compare_exchange(
                MODE_DURABLE,
                MODE_DEGRADED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.durability_lost
                .store(self.wal.durable_at(), Ordering::Release);
            self.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            let mut heal = self.heal.lock();
            heal.attempts = 0;
            heal.next_retry = Some(Instant::now() + self.heal_retry_base);
        }
    }

    /// The published durability-loss watermark, if any.
    fn lost_watermark(&self) -> Option<SimTime> {
        match self.durability_lost.load(Ordering::Acquire) {
            NO_LOSS => None,
            secs => Some(SimTime::from_secs(secs)),
        }
    }

    fn note_error(&self, what: &str, err: &io::Error) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(format!("{what}: {err}"));
    }
}

/// One logged store mutation. Its tag table below expands to an
/// exhaustive `match`, so a new persisted record type cannot compile
/// without a wire representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StoreOp {
    /// A probe observation (`record_probe`).
    Probe(ProbeRecord),
    /// A spike observation (`record_spike`).
    Spike(SpikeEvent),
    /// A revocation-watch observation (`record_revocation`).
    Revocation(RevocationRecord),
    /// An intrinsic-bid measurement (`record_intrinsic_bid`).
    IntrinsicBid(IntrinsicBidRecord),
    /// The suppressed-probe running total after an increment.
    Suppressed {
        /// Post-increment value of the suppressed counter.
        total: u64,
    },
    /// A circuit breaker tripped for `region` at `at`.
    RegionDegraded {
        /// The degraded region.
        region: Region,
        /// When the episode began.
        at: SimTime,
    },
    /// A circuit breaker closed for `region` at `at`.
    RegionRecovered {
        /// The recovered region.
        region: Region,
        /// When the episode ended.
        at: SimTime,
    },
}

enum_codec!(StoreOp, "store op tag" {
    0 => Probe(p),
    1 => Spike(s),
    2 => Revocation(r),
    3 => IntrinsicBid(b),
    4 => Suppressed { total },
    5 => RegionDegraded { region, at },
    6 => RegionRecovered { region, at },
});

impl StoreOp {
    /// The op's time in seconds, fed to the WAL's durability watermark.
    /// 0 (never advancing the watermark) for untimed ops.
    fn at_secs(&self) -> u64 {
        match self {
            StoreOp::Probe(p) => p.at.as_secs(),
            StoreOp::Spike(s) => s.at.as_secs(),
            StoreOp::Revocation(r) => r
                .released_at
                .or(r.revoked_at)
                .unwrap_or(r.acquired_at)
                .as_secs(),
            StoreOp::IntrinsicBid(b) => b.at.as_secs(),
            StoreOp::Suppressed { .. } => 0,
            StoreOp::RegionDegraded { at, .. } | StoreOp::RegionRecovered { at, .. } => {
                at.as_secs()
            }
        }
    }
}

enum_codec!(ProbeKind, "probe kind tag" {
    0 => OnDemand,
    1 => Spot,
    2 => InterruptionNotice,
});

enum_codec!(ProbeOutcome, "probe outcome tag" {
    0 => Fulfilled,
    1 => InsufficientCapacity,
    2 => CapacityNotAvailable,
    3 => PriceTooLow,
    4 => CapacityOversubscribed,
    5 => ApiLimited,
});

enum_codec!(ProbeTrigger, "probe trigger tag" {
    0 => PriceSpike { ratio },
    1 => FamilyFanout { origin, origin_ratio },
    2 => CrossAzFanout { origin, origin_ratio },
    3 => Recovery,
    4 => Periodic,
    5 => CrossVerify { origin },
    6 => BidSearch,
    7 => RevocationWatch,
    8 => EvictionNotice { evict_at },
});

/// Sparse on disk as in memory (since format version 2): only the
/// key's non-empty buckets travel, each carrying its epoch.
impl Encode for EpochSeries {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cells.encode(out);
    }
}

impl Decode for EpochSeries {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let cells = CowVec::<EpochCell>::decode(r)?;
        // The in-memory binary searches rely on it.
        if !cells.windows(2).all(|w| w[0].epoch < w[1].epoch) {
            return Err(DecodeError::Invalid("epoch series order"));
        }
        Ok(EpochSeries { cells })
    }
}

/// On disk both shared containers are the `Vec<T>` of their elements:
/// the count, then the elements.
impl<T: Encode> Encode for CowVec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for CowVec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::decode(r)?.into_iter().collect())
    }
}

impl<T: Encode> Encode for ChunkVec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self.iter() {
            item.encode(out);
        }
    }
}

impl<T: Decode + Copy> Decode for ChunkVec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::decode(r)?.into_iter().collect())
    }
}

/// A checkpoint's meta section (section 0; the stripes follow, one
/// section each): the store-wide counters and health table of the
/// capture, and the two numbers recovery resumes the log from —
/// `next_seq`, the first sequence number *not* inside the capture, and
/// `floor`, the generation the checkpoint rotated to.
#[derive(Debug, PartialEq)]
struct CheckpointMeta {
    recorded_probes: u64,
    total_cost_micros: u64,
    suppressed_probes: u64,
    next_seq: u64,
    floor: u64,
    region_health: BTreeMap<Region, RegionHealth>,
}

// Every plain record of the store as it lies on disk: its fields in
// wire order — which for `KeyState` is *not* the declaration order.
record_codec! {
    ProbeRecord { at, market, kind, trigger, outcome, spot_ratio, bid, cost }
    SpikeEvent { market, at, ratio, probed }
    RevocationRecord { market, acquired_at, bid, revoked_at, released_at }
    IntrinsicBidRecord { market, at, published, intrinsic, attempts }
    UnavailabilityInterval { market, kind, start, end, detect_ratio, detected_via_related }
    RegionHealth { degraded, since, degraded_secs, trips }
    ProbeStats { informative, rejections }
    EpochCell { epoch, informative, rejections, unavail_secs }
    KeyState {
        stats, intervals, open, closed_intervals, rejection_times, last_informative, epochs,
        disordered,
    }
    Stripe {
        probes, spikes, spike_ratios_by_epoch, intervals, keys, od_rejections_by_region,
        revocations, intrinsic_bids,
    }
    CheckpointMeta {
        recorded_probes, total_cost_micros, suppressed_probes, next_seq, floor, region_health,
    }
}

fn bad_data(err: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

fn corrupt(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Decodes a checkpoint's stripe section, refusing what would otherwise
/// surface at the first query as a panic or a wrong count: an interval
/// position a key holds (listed or open) past the stripe's interval
/// slab, or a rejection-time list or spike-ratio bucket out of order
/// (they are binary-searched; a key's epoch series checks its own).
fn decode_stripe(section: &[u8]) -> Result<Stripe, DecodeError> {
    fn ascending<T: PartialOrd>(list: &[T]) -> bool {
        let descent = |w: &[T]| w[0].partial_cmp(&w[1]) == Some(std::cmp::Ordering::Greater);
        !list.windows(2).any(descent)
    }
    let stripe = Stripe::from_bytes(section)?;
    let in_slab = |&i: &usize| i < stripe.intervals.len();
    for key in stripe.keys.values() {
        if !key.intervals.iter().chain(&key.open).all(in_slab) {
            return Err(DecodeError::Invalid("interval position"));
        }
        if !ascending(&key.rejection_times) {
            return Err(DecodeError::Invalid("rejection time order"));
        }
    }
    if !stripe.spike_ratios_by_epoch.values().all(|r| ascending(r)) {
        return Err(DecodeError::Invalid("spike ratio order"));
    }
    Ok(stripe)
}

/// Encodes every raw record of `stripe` older than `before` as one
/// spill block — the `Vec<StoreOp>` wire form, `count ++ ops`, probes
/// then spikes — and returns it with the count. One buffer per stripe
/// and memory-only, so it is cheap enough to run under the stripe lock;
/// the slow segment write is [`write_spill`].
pub(crate) fn encode_spill(stripe: &Stripe, before: SimTime) -> (Vec<u8>, u64) {
    let probes = || stripe.probes.iter().filter(|p| p.at < before);
    let spikes = || stripe.spikes.iter().filter(|s| s.at < before);
    // Counted first: the count leads the block, and sizes it.
    let count = probes().count() + spikes().count();
    if count == 0 {
        return (Vec::new(), 0);
    }
    let mut block = Vec::with_capacity(count * 32);
    count.encode(&mut block);
    for p in probes() {
        StoreOp::Probe(*p).encode(&mut block);
    }
    for s in spikes() {
        StoreOp::Spike(*s).encode(&mut block);
    }
    (block, count as u64)
}

/// The next free spill-segment number of every stripe, from one
/// directory listing per compaction pass. `None` — no stripe may spill,
/// so none may drop — if the directory cannot be listed.
pub(crate) fn next_spill_numbers(sink: &DurableSink, stripes: usize) -> Option<Vec<u64>> {
    sink.dir
        .next_spill_numbers(stripes)
        .map_err(|err| sink.note_error("spill", &err))
        .ok()
}

/// Seals an [`encode_spill`] block of `records` records into spill
/// segment `n` of stripe `idx`. Synchronous disk IO — callers must
/// **not** hold the stripe lock, so ingest and reads proceed while the
/// segment lands. Returns `false` — telling the caller to *keep* the
/// raw slabs — if the segment could not be written; spill-then-drop is
/// the no-data-loss invariant of durable compaction.
pub(crate) fn write_spill(
    sink: &DurableSink,
    idx: usize,
    n: u64,
    block: &[u8],
    records: u64,
) -> bool {
    if records == 0 {
        return true;
    }
    match sink.dir.write_spill(idx as u32, n, block) {
        Ok(()) => {
            sink.spilled_records.fetch_add(records, Ordering::Relaxed);
            true
        }
        Err(err) => {
            sink.note_error("spill", &err);
            false
        }
    }
}

impl DataStore {
    /// Stream index carrying store-wide (non-stripe) ops.
    pub(crate) fn meta_stream(&self) -> u32 {
        self.stripes.len() as u32
    }

    /// Creates an empty **durable** store rooted at `dir`, with the
    /// default layout.
    ///
    /// # Errors
    ///
    /// Fails if `dir` cannot be initialized (or already holds a store).
    pub fn create_durable(dir: &Path, opts: DurableOptions) -> io::Result<DataStore> {
        DataStore::create_durable_with_layout(
            dir,
            opts,
            crate::store::DEFAULT_STRIPES,
            crate::store::DEFAULT_EPOCH,
        )
    }

    /// Creates an empty durable store with an explicit layout.
    ///
    /// # Errors
    ///
    /// Fails if `dir` cannot be initialized (or already holds a store).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero or `epoch` is zero-length, like
    /// [`DataStore::with_layout`].
    pub fn create_durable_with_layout(
        dir: &Path,
        opts: DurableOptions,
        stripes: usize,
        epoch: SimDuration,
    ) -> io::Result<DataStore> {
        let mut store = DataStore::with_layout(stripes, epoch);
        let mut app_meta = Vec::new();
        (stripes as u32).encode(&mut app_meta);
        epoch.as_secs().encode(&mut app_meta);
        let mut log = LogDir::create(dir, stripes as u32 + 1, &app_meta)?;
        if let Some(io) = &opts.io {
            log = log.with_io(Arc::clone(io));
        }
        let wal = WalHandle::open(
            &log,
            WalConfig {
                streams: stripes as u32 + 1,
                fsync: opts.fsync,
                queue_capacity: opts.queue_capacity,
            },
            0,
            0,
        )?;
        store.durable = Some(DurableSink::new(log, wal, 0, &opts));
        Ok(store)
    }

    /// Rebuilds a store from `dir`: last checkpoint plus the surviving
    /// log tail, with default writer options for the reopened log.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, a damaged header/checkpoint, or an
    /// undecodable op (all meaning something other than a crash-torn
    /// tail happened to the directory).
    pub fn recover(dir: &Path) -> io::Result<DataStore> {
        DataStore::recover_with(dir, DurableOptions::default())
    }

    /// [`DataStore::recover`] with explicit writer options.
    ///
    /// # Errors
    ///
    /// See [`DataStore::recover`].
    pub fn recover_with(dir: &Path, opts: DurableOptions) -> io::Result<DataStore> {
        DataStore::recover_with_report(dir, opts).map(|(store, _)| store)
    }

    /// [`DataStore::recover_with`], also reporting what recovery did —
    /// the crash-torture harness asserts on this.
    ///
    /// # Errors
    ///
    /// See [`DataStore::recover`].
    pub fn recover_with_report(
        dir: &Path,
        opts: DurableOptions,
    ) -> io::Result<(DataStore, RecoveryInfo)> {
        let (mut log, dir_meta) = LogDir::open(dir)?;
        if let Some(io) = &opts.io {
            log = log.with_io(Arc::clone(io));
        }
        // Consume the clean-shutdown marker up front: whatever happens
        // from here on (including a crash mid-recovery), a stale marker
        // can never talk a *later* recovery out of a replay it needs.
        let marker = log.read_clean_marker()?;
        log.remove_clean_marker()?;
        let mut mr = Reader::new(&dir_meta.app_meta);
        let stripes = u32::decode(&mut mr).map_err(bad_data)? as usize;
        let epoch_secs = u64::decode(&mut mr).map_err(bad_data)?;
        mr.expect_empty().map_err(bad_data)?;
        if dir_meta.streams != stripes as u32 + 1 || stripes == 0 || epoch_secs == 0 {
            return Err(corrupt("header layout mismatch"));
        }
        let mut store = DataStore::with_layout(stripes, SimDuration::from_secs(epoch_secs));

        // 1. The checkpoint, if one was ever completed.
        let mut next_seq = 0u64;
        let mut min_gen = 0u64;
        let mut checkpoint_loaded = false;
        if let Some(sections) = log.read_checkpoint()? {
            checkpoint_loaded = true;
            if sections.len() != stripes + 1 {
                return Err(corrupt("checkpoint section count mismatch"));
            }
            let meta = CheckpointMeta::from_bytes(&sections[0]).map_err(bad_data)?;
            next_seq = meta.next_seq;
            min_gen = meta.floor;
            let relaxed = Ordering::Relaxed;
            store.recorded_probes.store(meta.recorded_probes, relaxed);
            store
                .total_cost_micros
                .store(meta.total_cost_micros, relaxed);
            store
                .suppressed_probes
                .store(meta.suppressed_probes, relaxed);
            *store.region_health.write() = meta.region_health;
            for (i, section) in sections[1..].iter().enumerate() {
                *store.stripes[i].write() = decode_stripe(section).map_err(bad_data)?;
            }
        }

        // 2. Replay the log tail — unless a clean-shutdown marker
        // proves the tail holds nothing past the checkpoint. The marker
        // must agree with the checkpoint it was written after
        // (`close()` writes the marker with no appends in between, at
        // the generation the closing checkpoint rotated to — its
        // floor); any mismatch means it is stale debris and the full
        // scan runs.
        let from_clean_shutdown = checkpoint_loaded
            && marker.is_some_and(|m| m.next_seq == next_seq && m.generation == min_gen);
        let mut replayed_ops = 0u64;
        let mut max_gen = min_gen;
        let mut max_seq = next_seq;
        if !from_clean_shutdown {
            // Per-stream monotone sequence floors drop
            // checkpoint-covered frames and retried-append duplicates
            // alike; the frame scanner already trimmed torn tails.
            let mut floor = vec![next_seq; stripes + 1];
            for (generation, stream) in log.list_wal()? {
                max_gen = max_gen.max(generation);
                // Below the checkpoint's floor every frame is inside
                // the checkpoint (module docs): not even read.
                if generation < min_gen || stream as usize > stripes {
                    continue;
                }
                let scanned = log.read_wal(generation, stream)?;
                for frame in scanned.frames {
                    max_seq = max_seq.max(frame.seq + 1);
                    let op = StoreOp::from_bytes(&frame.body).map_err(bad_data)?;
                    if let StoreOp::Suppressed { total } = op {
                        // Monotone and idempotent: applied regardless of
                        // the sequence floor, which makes the lock-free
                        // suppressed path correct under any interleaving
                        // with a concurrent checkpoint.
                        store.suppressed_probes.fetch_max(total, Ordering::Relaxed);
                        replayed_ops += 1;
                        continue;
                    }
                    if frame.seq < floor[stream as usize] {
                        continue;
                    }
                    floor[stream as usize] = frame.seq + 1;
                    store.apply(op);
                    replayed_ops += 1;
                }
            }
        }

        // 3. Never append after a possibly-torn tail: reopen the log at
        // a fresh generation.
        let new_gen = max_gen + 1;
        let wal = WalHandle::open(
            &log,
            WalConfig {
                streams: stripes as u32 + 1,
                fsync: opts.fsync,
                queue_capacity: opts.queue_capacity,
            },
            new_gen,
            max_seq,
        )?;
        store.durable = Some(DurableSink::new(log, wal, new_gen, &opts));
        Ok((
            store,
            RecoveryInfo {
                replayed_ops,
                from_clean_shutdown,
                checkpoint_loaded,
            },
        ))
    }

    /// Applies a replayed op through the normal in-memory ingest paths
    /// (`durable` is still unset during replay, so nothing re-logs).
    fn apply(&self, op: StoreOp) {
        match op {
            StoreOp::Probe(p) => {
                self.record_probe(p);
            }
            StoreOp::Spike(s) => self.record_spike(s),
            StoreOp::Revocation(r) => self.record_revocation(r),
            StoreOp::IntrinsicBid(b) => self.record_intrinsic_bid(b),
            StoreOp::Suppressed { total } => {
                self.suppressed_probes.fetch_max(total, Ordering::Relaxed);
            }
            StoreOp::RegionDegraded { region, at } => self.mark_region_degraded(region, at),
            StoreOp::RegionRecovered { region, at } => self.mark_region_recovered(region, at),
        }
    }

    /// Whether this store persists to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Forces everything appended so far onto disk. A no-op `Ok` for
    /// in-memory stores.
    ///
    /// # Errors
    ///
    /// Returns the first IO error the log writer hit since the last
    /// flush.
    pub fn flush(&self) -> io::Result<()> {
        match &self.durable {
            Some(d) => d.wal.flush(),
            None => Ok(()),
        }
    }

    /// Writes a full-state checkpoint and deletes the log it covers.
    /// Recovery cost is then one checkpoint load plus the tail since.
    ///
    /// Ingest waits only for the capture and a live read view holds
    /// nothing up: the WAL is rotated with no store lock held; the
    /// store's one capture then takes every stripe lock, shared, for
    /// the length of a shallow clone (see [`crate::store`], "Sharing"),
    /// reading the counters and the WAL position with the stripes;
    /// encoding and the disk writes run with no lock held, a writer
    /// meanwhile copying the one list or chunk it touches. Caller-driven
    /// (no automatic trigger), so ingest cannot self-deadlock against it.
    ///
    /// # Errors
    ///
    /// `Unsupported` for in-memory stores; otherwise filesystem errors.
    /// On error the previous checkpoint and the full log remain, so the
    /// store stays recoverable.
    pub fn checkpoint(&self) -> io::Result<()> {
        let Some(d) = &self.durable else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "checkpoint on an in-memory store",
            ));
        };
        let _ckpt = d.ckpt_lock.lock();
        // Rotate, then capture (module docs): once `rotate` returns,
        // every frame in a generation below `floor` is on disk with a
        // sequence number the capture below will find already issued.
        let floor = d.wal.rotate()?;
        d.current_gen.store(floor, Ordering::Relaxed);
        // Ops sequenced before `next_seq` are inside the capture,
        // everything at or after it is replayed on recovery.
        let (captured, next_seq) = self.capture(|| d.wal.next_seq());
        let meta = CheckpointMeta {
            recorded_probes: captured.recorded_probes,
            total_cost_micros: captured.total_cost_micros,
            suppressed_probes: captured.suppressed_probes,
            next_seq,
            floor,
            region_health: captured.region_health,
        };
        // Encoded with no lock held; each clone goes as soon as it is
        // encoded, so ingest stops copying what it shares with it.
        let mut sections = vec![meta.to_bytes()];
        for stripe in captured.stripes.into_vec() {
            sections.push(stripe.to_bytes());
        }
        // Nothing is deleted before the checkpoint is durable; from
        // then on recovery starts at `floor`.
        d.dir.write_checkpoint(&sections)?;
        d.dir.delete_wal_before(floor)?;
        d.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Log/checkpoint/spill counters; `None` for in-memory stores.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.durable.as_ref()?;
        let ws = d.wal.stats();
        let last_error = d.last_error.lock().clone().or_else(|| ws.last_error_text());
        Some(DurabilityStats {
            appended_ops: ws.appended_ops.load(Ordering::Relaxed),
            appended_bytes: ws.appended_bytes.load(Ordering::Relaxed),
            fsyncs: ws.fsyncs.load(Ordering::Relaxed),
            checkpoints: d.checkpoints.load(Ordering::Relaxed),
            spilled_records: d.spilled_records.load(Ordering::Relaxed),
            io_errors: ws.io_errors.load(Ordering::Relaxed) + d.io_errors.load(Ordering::Relaxed),
            last_error,
            mode: match d.mode.load(Ordering::Acquire) {
                MODE_DEGRADED => DurabilityMode::Degraded,
                _ => DurabilityMode::Durable,
            },
            durability_lost: d.lost_watermark(),
            ops_dropped: d.ops_dropped.load(Ordering::Relaxed),
            dropped_frames: ws.dropped_frames.load(Ordering::Relaxed),
            degraded_transitions: d.degraded_transitions.load(Ordering::Relaxed),
            heals: d.heals.load(Ordering::Relaxed),
        })
    }

    /// Whether appends are currently reaching disk; `None` for
    /// in-memory stores.
    pub fn durability_mode(&self) -> Option<DurabilityMode> {
        let d = self.durable.as_ref()?;
        Some(match d.mode.load(Ordering::Acquire) {
            MODE_DEGRADED => DurabilityMode::Degraded,
            _ => DurabilityMode::Durable,
        })
    }

    /// The durability-loss watermark: ops at or before this time are
    /// provably on disk, later ones may be memory-only. `None` when
    /// fully durable (or in-memory).
    pub fn durability_lost(&self) -> Option<SimTime> {
        self.durable.as_ref()?.lost_watermark()
    }

    /// Drives the degraded → durable heal loop. Call this periodically
    /// from a maintenance point (the live driver does so once per
    /// tick), never from inside a `record_*` call — a successful heal
    /// runs a full checkpoint, which takes every stripe lock (shared, for
    /// the length of a clone: a live read view does not hold it up).
    ///
    /// Returns `Ok(true)` when a heal completed this call, `Ok(false)`
    /// when there was nothing to do (healthy, in-memory, or backoff not
    /// yet elapsed).
    ///
    /// # Errors
    ///
    /// A failed heal attempt returns its IO error after re-entering
    /// degraded mode and doubling the retry backoff; the store remains
    /// usable either way.
    pub fn tend_durability(&self) -> io::Result<bool> {
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        if d.mode.load(Ordering::Acquire) == MODE_DURABLE {
            if d.wal.is_degraded() {
                // The writer died quietly (e.g. fsync failures with no
                // intervening append): publish the transition here so
                // an idle store still heals.
                d.enter_degraded();
            } else {
                return Ok(false);
            }
        }
        {
            let heal = d.heal.lock();
            match heal.next_retry {
                Some(due) if Instant::now() >= due => {}
                _ => return Ok(false),
            }
        }
        self.heal_now()
    }

    /// One heal attempt, ignoring backoff: revive the WAL at a fresh
    /// generation, re-enable appends, then checkpoint so every op that
    /// was memory-only while degraded becomes durable.
    fn heal_now(&self) -> io::Result<bool> {
        let d = self.durable.as_ref().expect("heal on a durable store");
        let new_gen = match d.wal.revive() {
            Ok(gen) => gen,
            Err(err) => return Err(self.heal_failed(err)),
        };
        d.current_gen.store(new_gen, Ordering::Relaxed);
        // Re-enable appends *before* the checkpoint: an op recorded
        // from here on lands either in a fresh WAL generation (this
        // one, or the one the checkpoint rotates to) or inside the
        // checkpoint snapshot — both recoverable. The reverse order
        // would silently lose ops recorded between the capture and the
        // flip.
        d.mode.store(MODE_DURABLE, Ordering::Release);
        if let Err(err) = self.checkpoint() {
            // The disk is still bad: back off and go around again.
            d.mode.store(MODE_DEGRADED, Ordering::Release);
            return Err(self.heal_failed(err));
        }
        d.durability_lost.store(NO_LOSS, Ordering::Release);
        d.heals.fetch_add(1, Ordering::Relaxed);
        let mut heal = d.heal.lock();
        heal.attempts = 0;
        heal.next_retry = None;
        Ok(true)
    }

    /// Records a failed heal attempt: note the error and double the
    /// backoff (capped).
    fn heal_failed(&self, err: io::Error) -> io::Error {
        let d = self.durable.as_ref().expect("heal on a durable store");
        d.note_error("heal", &err);
        let mut heal = d.heal.lock();
        heal.attempts = heal.attempts.saturating_add(1);
        let backoff = d
            .heal_retry_base
            .saturating_mul(1u32 << heal.attempts.min(16))
            .min(d.heal_retry_cap);
        heal.next_retry = Some(Instant::now() + backoff);
        err
    }

    /// Gracefully shuts the store down: final checkpoint (healing
    /// first if degraded, so memory-only ops reach disk), then a
    /// clean-shutdown marker that lets the next [`DataStore::recover`]
    /// skip the WAL tail scan entirely. Consumes the store — taking it
    /// by value is what guarantees no append races the marker.
    ///
    /// A no-op `Ok` for in-memory stores.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the final checkpoint or the marker write.
    /// On error the store is dropped *without* a marker, which is
    /// always safe: the next recovery simply replays the tail.
    pub fn close(self) -> io::Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        if d.mode.load(Ordering::Acquire) == MODE_DEGRADED || d.wal.is_degraded() {
            d.enter_degraded();
            self.heal_now()?;
        } else {
            self.checkpoint()?;
        }
        let d = self.durable.as_ref().expect("durable checked above");
        d.dir.write_clean_marker(CleanMarker {
            next_seq: d.wal.next_seq(),
            generation: d.current_gen.load(Ordering::Relaxed),
        })
    }

    /// Total on-disk bytes of the store directory (WAL + checkpoint +
    /// spill segments); `None` for in-memory stores or on a read error.
    pub fn disk_bytes(&self) -> Option<u64> {
        self.durable.as_ref().and_then(|d| d.dir.disk_bytes().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeOutcome;
    use cloud_sim::ids::{Az, MarketId, Platform};
    use cloud_sim::price::Price;
    use proptest::prelude::*;
    use spotlight_persist::tempdir::TempDir;
    use spotlight_persist::{FaultKind, FaultWindow, FaultyDisk};

    const HOUR: SimDuration = SimDuration::from_secs(3600);

    fn market(i: u8) -> MarketId {
        MarketId {
            az: Az::new(Region::UsEast1, i % 3),
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

    fn op_round_trip(op: StoreOp) {
        let bytes = op.to_bytes();
        assert_eq!(StoreOp::from_bytes(&bytes).expect("decode"), op);
    }

    /// Every variant of the three probe enums. The lists come out of
    /// compile-time exhaustive matches: adding a variant upstream breaks
    /// this build, not just coverage.
    fn all_kinds() -> Vec<ProbeKind> {
        match ProbeKind::OnDemand {
            ProbeKind::OnDemand | ProbeKind::Spot | ProbeKind::InterruptionNotice => vec![
                ProbeKind::OnDemand,
                ProbeKind::Spot,
                ProbeKind::InterruptionNotice,
            ],
        }
    }

    fn all_triggers() -> Vec<ProbeTrigger> {
        match ProbeTrigger::Recovery {
            ProbeTrigger::PriceSpike { .. }
            | ProbeTrigger::FamilyFanout { .. }
            | ProbeTrigger::CrossAzFanout { .. }
            | ProbeTrigger::Recovery
            | ProbeTrigger::Periodic
            | ProbeTrigger::CrossVerify { .. }
            | ProbeTrigger::BidSearch
            | ProbeTrigger::RevocationWatch
            | ProbeTrigger::EvictionNotice { .. } => vec![
                ProbeTrigger::PriceSpike { ratio: 2.5 },
                ProbeTrigger::FamilyFanout {
                    origin: market(0),
                    origin_ratio: 3.0,
                },
                ProbeTrigger::CrossAzFanout {
                    origin: market(1),
                    origin_ratio: 1.5,
                },
                ProbeTrigger::Recovery,
                ProbeTrigger::Periodic,
                ProbeTrigger::CrossVerify { origin: market(2) },
                ProbeTrigger::BidSearch,
                ProbeTrigger::RevocationWatch,
                ProbeTrigger::EvictionNotice {
                    evict_at: SimTime::from_secs(7200),
                },
            ],
        }
    }

    fn all_outcomes() -> Vec<ProbeOutcome> {
        match ProbeOutcome::Fulfilled {
            ProbeOutcome::Fulfilled
            | ProbeOutcome::InsufficientCapacity
            | ProbeOutcome::CapacityNotAvailable
            | ProbeOutcome::PriceTooLow
            | ProbeOutcome::CapacityOversubscribed
            | ProbeOutcome::ApiLimited => vec![
                ProbeOutcome::Fulfilled,
                ProbeOutcome::InsufficientCapacity,
                ProbeOutcome::CapacityNotAvailable,
                ProbeOutcome::PriceTooLow,
                ProbeOutcome::CapacityOversubscribed,
                ProbeOutcome::ApiLimited,
            ],
        }
    }

    #[test]
    fn probe_kind_and_trigger_every_variant_round_trips() {
        let (all_kinds, all_triggers, all_outcomes) = (all_kinds(), all_triggers(), all_outcomes());
        assert_eq!(all_kinds.len(), 3);
        assert_eq!(all_triggers.len(), 9);
        for kind in &all_kinds {
            for trigger in &all_triggers {
                for outcome in &all_outcomes {
                    let mut p = probe(1234, market(0), *outcome);
                    p.kind = *kind;
                    p.trigger = *trigger;
                    p.bid = Some(Price::from_dollars(0.07));
                    op_round_trip(StoreOp::Probe(p));
                }
            }
        }
    }

    #[test]
    fn store_op_non_probe_variants_round_trip() {
        op_round_trip(StoreOp::Spike(SpikeEvent {
            market: market(0),
            at: SimTime::from_secs(42),
            ratio: 3.25,
            probed: false,
        }));
        op_round_trip(StoreOp::Revocation(RevocationRecord {
            market: market(1),
            acquired_at: SimTime::from_secs(100),
            bid: Price::from_dollars(0.2),
            revoked_at: Some(SimTime::from_secs(900)),
            released_at: Some(SimTime::from_secs(900)),
        }));
        op_round_trip(StoreOp::IntrinsicBid(IntrinsicBidRecord {
            market: market(2),
            at: SimTime::from_secs(55),
            published: Price::from_dollars(0.1),
            intrinsic: Price::from_dollars(0.04),
            attempts: 3,
        }));
        op_round_trip(StoreOp::Suppressed { total: 17 });
        op_round_trip(StoreOp::RegionDegraded {
            region: Region::EuWest1,
            at: SimTime::from_secs(5),
        });
        op_round_trip(StoreOp::RegionRecovered {
            region: Region::EuWest1,
            at: SimTime::from_secs(65),
        });
    }

    /// Markets for the golden records: between them every `Size`, and
    /// regions, zones, families and platforms away from tag 0.
    fn golden_market(i: usize) -> MarketId {
        const TYPES: [&str; 9] = [
            "t1.micro",
            "m1.small",
            "m3.medium",
            "c3.large",
            "r3.xlarge",
            "d2.2xlarge",
            "i2.4xlarge",
            "cc2.8xlarge",
            "c4.10xlarge",
        ];
        MarketId {
            az: Az::new(Region::ALL[(i + 3) % 9], (i * 7 % 26) as u8),
            instance_type: TYPES[i % 9].parse().unwrap(),
            platform: Platform::ALL[(i + 1) % 4],
        }
    }

    /// One `StoreOp` of every variant; the probes carry one
    /// `ProbeTrigger` of every variant and, between them, every
    /// `ProbeKind` and `ProbeOutcome`. Integers straddle varint widths.
    fn golden_ops() -> Vec<StoreOp> {
        let (kinds, outcomes) = (all_kinds(), all_outcomes());
        let mut ops: Vec<StoreOp> = all_triggers()
            .into_iter()
            .enumerate()
            .map(|(i, trigger)| {
                let kind = kinds[i % kinds.len()];
                StoreOp::Probe(ProbeRecord {
                    at: SimTime::from_secs(100 + 70_000 * i as u64),
                    market: golden_market(i),
                    kind,
                    trigger,
                    outcome: outcomes[i % outcomes.len()],
                    spot_ratio: 0.5 + i as f64,
                    bid: (kind == ProbeKind::Spot).then(|| Price::from_micros(65_000 + i as u64)),
                    cost: Price::from_micros(130 * i as u64),
                })
            })
            .collect();
        ops.extend([
            StoreOp::Spike(SpikeEvent {
                market: golden_market(9),
                at: SimTime::from_secs(42),
                ratio: 3.25,
                probed: true,
            }),
            StoreOp::Revocation(RevocationRecord {
                market: golden_market(10),
                acquired_at: SimTime::from_secs(100),
                bid: Price::from_dollars(0.2),
                revoked_at: Some(SimTime::from_secs(u64::from(u32::MAX) + 9)),
                released_at: None,
            }),
            StoreOp::IntrinsicBid(IntrinsicBidRecord {
                market: golden_market(11),
                at: SimTime::from_secs(55),
                published: Price::from_dollars(0.1),
                intrinsic: Price::from_micros(u64::MAX),
                attempts: 3,
            }),
            StoreOp::Suppressed { total: 17_000 },
            StoreOp::RegionDegraded {
                region: Region::EuWest1,
                at: SimTime::from_secs(5),
            },
            StoreOp::RegionRecovered {
                region: Region::SaEast1,
                at: SimTime::from_secs(3_000_000),
            },
        ]);
        ops
    }

    /// Every list non-empty, `open: Some`, and no two fields of one
    /// type equal — so two fields swapped on the wire change the bytes.
    fn golden_key_state() -> KeyState {
        KeyState {
            stats: ProbeStats {
                informative: 300,
                rejections: 17,
            },
            intervals: [3usize, 200].into_iter().collect(),
            open: Some(200),
            closed_intervals: 1,
            last_informative: Some(SimTime::from_secs(2_500_000)),
            disordered: true,
            rejection_times: [90u64, 20_000]
                .into_iter()
                .map(SimTime::from_secs)
                .collect(),
            epochs: EpochSeries {
                cells: [(0u64, 2u64, 1u64, 3_600u64), (694, 298, 16, 1_234)]
                    .into_iter()
                    .map(|(epoch, informative, rejections, unavail_secs)| EpochCell {
                        epoch,
                        informative,
                        rejections,
                        unavail_secs,
                    })
                    .collect(),
            },
        }
    }

    /// A one-element slab, list or map.
    fn one<C: FromIterator<T>, T>(item: T) -> C {
        std::iter::once(item).collect()
    }

    /// One element per slab and one entry per map: with a single entry,
    /// `RandomState` iteration order cannot reach the bytes. Its key
    /// points at the one interval, so a checkpoint would load it.
    fn golden_stripe() -> Stripe {
        let m = golden_market(12);
        let Some(StoreOp::Probe(p)) = golden_ops().into_iter().nth(1) else {
            unreachable!("the golden ops start with the probes");
        };
        let key = KeyState {
            intervals: one(0usize),
            open: Some(0),
            ..golden_key_state()
        };
        Stripe {
            probes: one(p),
            spikes: one(SpikeEvent {
                market: m,
                at: SimTime::from_secs(18_001),
                ratio: 2.25,
                probed: false,
            }),
            spike_ratios_by_epoch: one((5u64, [1.5, 2.25].into_iter().collect())),
            intervals: one(UnavailabilityInterval {
                market: m,
                kind: ProbeKind::Spot,
                start: SimTime::from_secs(600),
                end: Some(SimTime::from_secs(4_200)),
                detect_ratio: 1.75,
                detected_via_related: true,
            }),
            keys: one(((m, ProbeKind::Spot), key)),
            od_rejections_by_region: one((Region::ApNortheast1, 41)),
            revocations: one(RevocationRecord {
                market: m,
                acquired_at: SimTime::from_secs(7),
                bid: Price::from_micros(310_000),
                revoked_at: None,
                released_at: Some(SimTime::from_secs(3_607)),
            }),
            intrinsic_bids: one(IntrinsicBidRecord {
                market: m,
                at: SimTime::from_secs(80),
                published: Price::from_micros(90_000),
                intrinsic: Price::from_micros(50_001),
                attempts: 2,
            }),
        }
    }

    fn golden_meta() -> CheckpointMeta {
        CheckpointMeta {
            recorded_probes: 1_234_567,
            total_cost_micros: 98_765_432_100,
            suppressed_probes: 321,
            next_seq: 4_300_000_000,
            floor: 17,
            region_health: one((
                Region::ApSoutheast2,
                RegionHealth {
                    degraded: true,
                    since: SimTime::from_secs(86_400),
                    degraded_secs: 7_200,
                    trips: 3,
                },
            )),
        }
    }

    /// The golden values' encodings, labelled as the golden file labels
    /// them: `store_op.<n>`, `key_state`, `stripe`, `checkpoint_meta`.
    fn golden_records() -> Vec<(String, Vec<u8>)> {
        let mut records: Vec<(String, Vec<u8>)> = golden_ops()
            .iter()
            .enumerate()
            .map(|(i, op)| (format!("store_op.{i}"), op.to_bytes()))
            .collect();
        records.push(("key_state".into(), golden_key_state().to_bytes()));
        records.push(("stripe".into(), golden_stripe().to_bytes()));
        records.push(("checkpoint_meta".into(), golden_meta().to_bytes()));
        records
    }

    /// Format 4, byte for byte: `tests/golden/format4_records.hex` was
    /// written by this test when format 4 dropped a stripe's per-market
    /// probe and revocation indices. Its other lines are format 3's,
    /// first written at PR 20 (`7d1bf61`, the last commit with a
    /// hand-written `Encode`/`Decode` pair per record), so a field list
    /// or tag table that drifts from that wire order fails here. It is
    /// regenerated (`FORMAT4_GOLDEN_WRITE=1 cargo test -p spotlight-core
    /// format4_golden`) only together with a `FORMAT_VERSION` bump.
    #[test]
    fn format4_golden_bytes_encode_and_decode() {
        const GOLDEN: &str = include_str!("../../../tests/golden/format4_records.hex");
        let rendered: String = golden_records()
            .iter()
            .map(|(label, bytes)| {
                let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                format!("{label} {hex}\n")
            })
            .collect();
        if std::env::var_os("FORMAT4_GOLDEN_WRITE").is_some() {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/golden/format4_records.hex"
            );
            std::fs::write(path, &rendered).expect("write golden");
            return;
        }
        assert_eq!(rendered, GOLDEN, "format 4 bytes moved");

        // And the file decodes back to the values it was written from.
        let ops = golden_ops();
        for line in GOLDEN.lines() {
            let (label, hex) = line.split_once(' ').expect("label, space, hex");
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect();
            match label {
                "key_state" => same_key(
                    &KeyState::from_bytes(&bytes).expect(label),
                    &golden_key_state(),
                ),
                "stripe" => same_stripe(&decode_stripe(&bytes).expect(label), &golden_stripe()),
                "checkpoint_meta" => assert_eq!(
                    CheckpointMeta::from_bytes(&bytes).expect(label),
                    golden_meta()
                ),
                op => {
                    let n = op
                        .strip_prefix("store_op.")
                        .and_then(|n| n.parse::<usize>().ok());
                    assert_eq!(
                        StoreOp::from_bytes(&bytes).expect(label),
                        ops[n.expect("store_op.<n>")]
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Real bytes, one drawn flip / truncate / insert: no decoder of
        // a persisted shape panics, and whatever still decodes as a
        // `StoreOp` is the one encoding of its value.
        #[test]
        fn decoders_are_total_and_canonical_on_mutated_golden_bytes(
            pick in any::<usize>(),
            mutation in 0u8..3,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let records = golden_records();
            let (label, mut bytes) = records[pick % records.len()].clone();
            let at = at % bytes.len();
            match mutation {
                0 => bytes[at] ^= byte | 1,
                1 => bytes.truncate(at),
                _ => bytes.insert(at, byte),
            }
            let mut r = Reader::new(&bytes);
            match label.as_str() {
                "key_state" => drop(KeyState::decode(&mut r)),
                "stripe" => drop(decode_stripe(&bytes)),
                "checkpoint_meta" => drop(CheckpointMeta::decode(&mut r)),
                _ => {
                    if let Ok(op) = StoreOp::decode(&mut r) {
                        prop_assert_eq!(op.to_bytes(), &bytes[..bytes.len() - r.remaining()]);
                    }
                }
            }
        }
    }

    #[test]
    fn durable_ingest_recovers_identically() {
        let tmp = TempDir::new("durable-roundtrip");
        let dir = tmp.path().join("store");
        {
            let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
            for t in 0..50u64 {
                let outcome = if t % 7 == 0 {
                    ProbeOutcome::InsufficientCapacity
                } else {
                    ProbeOutcome::Fulfilled
                };
                store.record_probe(probe(t * 60, market((t % 5) as u8), outcome));
            }
            store.record_spike(SpikeEvent {
                market: market(0),
                at: SimTime::from_secs(30),
                ratio: 4.0,
                probed: true,
            });
            store.record_suppressed();
            store.record_suppressed();
            store.mark_region_degraded(Region::EuWest1, SimTime::from_secs(10));
            store.mark_region_recovered(Region::EuWest1, SimTime::from_secs(400));
            store.record_revocation(RevocationRecord {
                market: market(1),
                acquired_at: SimTime::from_secs(5),
                bid: Price::from_dollars(0.3),
                revoked_at: None,
                released_at: Some(SimTime::from_secs(3600)),
            });
            store.record_intrinsic_bid(IntrinsicBidRecord {
                market: market(2),
                at: SimTime::from_secs(80),
                published: Price::from_dollars(0.09),
                intrinsic: Price::from_dollars(0.05),
                attempts: 2,
            });
            assert!(store.is_durable());
            let stats = store.durability_stats().expect("stats");
            assert_eq!(stats.appended_ops, 50 + 1 + 2 + 2 + 1 + 1);
            assert_eq!(stats.io_errors, 0);
        } // drop flushes and joins the writer

        let recovered = DataStore::recover(&dir).expect("recover");
        assert_eq!(recovered.len(), 50);
        assert_eq!(recovered.total_cost(), Price::from_dollars(5.0));
        assert_eq!(recovered.suppressed_probes(), 2);
        let health = recovered.region_health(Region::EuWest1).expect("health");
        assert_eq!(health.degraded_secs, 390);
        let r = recovered.read();
        assert_eq!(r.probes().count(), 50);
        assert_eq!(r.spikes_at_or_above(3.0), 1);
        assert_eq!(r.revocations().count(), 1);
        assert_eq!(r.intrinsic_bids().count(), 1);
        for i in 0..5u8 {
            assert!(r.probe_stats(market(i), ProbeKind::OnDemand).informative > 0);
        }
    }

    #[test]
    fn checkpoint_prunes_log_and_recovery_replays_tail() {
        let tmp = TempDir::new("durable-ckpt");
        let dir = tmp.path().join("store");
        {
            let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
            for t in 0..30u64 {
                store.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
            }
            store.checkpoint().expect("checkpoint");
            for t in 30..40u64 {
                store.record_probe(probe(t * 60, market(1), ProbeOutcome::InsufficientCapacity));
            }
            assert_eq!(store.durability_stats().expect("stats").checkpoints, 1);
        }
        let recovered = DataStore::recover(&dir).expect("recover");
        assert_eq!(recovered.len(), 40);
        let r = recovered.read();
        let probes_of = |m| r.probes().filter(|p| p.market == m).count();
        assert_eq!(probes_of(market(0)), 30);
        assert_eq!(probes_of(market(1)), 10);
        assert!(r.is_unavailable(market(1), ProbeKind::OnDemand));
        // A second recovery of the recovered directory still agrees.
        drop(r);
        drop(recovered);
        let again = DataStore::recover(&dir).expect("recover again");
        assert_eq!(again.len(), 40);
    }

    #[test]
    fn checkpoint_racing_ingest_never_double_counts() {
        // Regression: the probe counters used to bump before the stripe
        // lock was taken, so a checkpoint could capture an in-flight
        // probe's counter increment while its WAL frame got a sequence
        // number at or past the captured floor — counted in the
        // snapshot *and* replayed on recovery.
        let tmp = TempDir::new("durable-ckpt-race");
        let dir = tmp.path().join("store");
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 300;
        {
            let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
            std::thread::scope(|scope| {
                for w in 0..WRITERS {
                    let store = &store;
                    scope.spawn(move || {
                        for t in 0..PER_WRITER {
                            store.record_probe(probe(
                                t * 60,
                                market(w as u8),
                                ProbeOutcome::Fulfilled,
                            ));
                        }
                    });
                }
                scope.spawn(|| {
                    for _ in 0..5 {
                        store.checkpoint().expect("checkpoint");
                    }
                });
            });
        }
        let recovered = DataStore::recover(&dir).expect("recover");
        let total = (WRITERS * PER_WRITER) as usize;
        assert_eq!(recovered.len(), total);
        assert_eq!(recovered.read().probes().count(), total);
        assert_eq!(
            recovered.total_cost(),
            Price::from_micros(Price::from_dollars(0.1).as_micros() * total as u64)
        );
    }

    /// `checkpoint()` encodes from shallow clones after releasing the
    /// stripe locks, so writers run — and copy what the clones still
    /// hold — during the encode. Whatever the interleaving, checkpoint
    /// plus tail must hold exactly what was recorded.
    #[test]
    fn checkpoint_racing_ingest_loses_nothing() {
        use std::sync::atomic::AtomicBool;
        const WRITERS: u8 = 3; // one market each: per-key order is the writer's
        const ROUNDS: u64 = 8;
        const PER_ROUND: u64 = 400;
        fn nth_probe(writer: u8, i: u64) -> ProbeRecord {
            let outcome = match i % 5 {
                0 | 1 => ProbeOutcome::InsufficientCapacity,
                4 => ProbeOutcome::ApiLimited,
                _ => ProbeOutcome::Fulfilled,
            };
            probe(i * 60, market(writer), outcome)
        }
        // Releases the writers even when an assertion unwinds.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }

        let tmp = TempDir::new("durable-ckpt-race-twin");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        // Ops each writer may have issued so far; the main thread raises
        // it a round at a time and checkpoints once the round is under
        // way, so every checkpoint runs against live ingest.
        let allowed = AtomicU64::new(0);
        let written = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (store, allowed, written, stop) = (&store, &allowed, &written, &stop);
                scope.spawn(move || {
                    let mut i = 0;
                    loop {
                        if i < allowed.load(Ordering::Acquire) {
                            store.record_probe(nth_probe(w, i));
                            written.fetch_add(1, Ordering::Release);
                            i += 1;
                        } else if stop.load(Ordering::Acquire) {
                            break;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let _stop = StopOnDrop(&stop);
            for round in 0..ROUNDS {
                allowed.fetch_add(PER_ROUND, Ordering::Release);
                let before = round * PER_ROUND * u64::from(WRITERS);
                while written.load(Ordering::Acquire) == before {
                    std::thread::yield_now();
                }
                store.checkpoint().expect("checkpoint");
            }
        });
        assert_eq!(store.durability_stats().expect("stats").checkpoints, ROUNDS);
        store.close().expect("close");

        let twin = DataStore::new();
        for w in 0..WRITERS {
            for i in 0..ROUNDS * PER_ROUND {
                twin.record_probe(nth_probe(w, i));
            }
        }
        let recovered = DataStore::recover(&dir).expect("recover");
        assert_eq!(recovered.len(), twin.len());
        assert_eq!(recovered.total_cost(), twin.total_cost());
        let (r, t) = (recovered.read(), twin.read());
        assert_eq!(r.probes().count(), t.probes().count());
        for w in 0..WRITERS {
            let (m, kind) = (market(w), ProbeKind::OnDemand);
            assert_eq!(r.probe_stats(m, kind), t.probe_stats(m, kind));
            assert_eq!(r.is_unavailable(m, kind), t.is_unavailable(m, kind));
            assert_eq!(r.rejection_times(m, kind), t.rejection_times(m, kind));
        }
    }

    #[test]
    fn durable_compaction_spills_before_dropping() {
        let tmp = TempDir::new("durable-spill");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        for t in 0..100u64 {
            store.record_probe(probe(
                t * 100,
                market((t % 4) as u8),
                ProbeOutcome::Fulfilled,
            ));
        }
        let stats = store.compact(SimTime::from_secs(5000));
        assert!(stats.dropped_probes > 0);
        let dstats = store.durability_stats().expect("stats");
        assert_eq!(dstats.spilled_records, stats.dropped_probes);
        assert_eq!(dstats.io_errors, 0);
        assert!(store.disk_bytes().expect("disk bytes") > 0);
    }

    /// A spill segment is one block in the `Vec<StoreOp>` wire form:
    /// the doomed probes in slab order, then the doomed spikes.
    #[test]
    fn spill_segment_is_one_block_of_store_ops() {
        let tmp = TempDir::new("durable-spill-block");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable_with_layout(&dir, DurableOptions::default(), 1, HOUR)
            .expect("create");
        let mut expected = Vec::new();
        for t in 0..40u64 {
            let p = probe(t * 100, market((t % 3) as u8), ProbeOutcome::Fulfilled);
            store.record_probe(p);
            if t * 100 < 2500 {
                expected.push(StoreOp::Probe(p));
            }
        }
        for t in [300u64, 2400, 2600] {
            let s = SpikeEvent {
                market: market(0),
                at: SimTime::from_secs(t),
                ratio: 2.5,
                probed: true,
            };
            store.record_spike(s);
            if t < 2500 {
                expected.push(StoreOp::Spike(s));
            }
        }
        let stats = store.compact(SimTime::from_secs(2500));
        assert_eq!(
            (stats.dropped_probes, stats.dropped_spikes),
            (25, 2),
            "everything older than the horizon was resident"
        );
        let log = &store.durable.as_ref().expect("durable").dir;
        assert_eq!(log.list_spills().expect("list"), vec![(0, 0)]);
        let block = log.read_spill(0, 0).expect("read");
        assert_eq!(
            Vec::<StoreOp>::from_bytes(&block).expect("decode"),
            expected
        );
        // A pass with nothing to seal writes no segment; the next one
        // that has takes the next number.
        assert_eq!(store.compact(SimTime::from_secs(2500)).dropped_probes, 0);
        assert_eq!(store.compact(SimTime::from_secs(3000)).dropped_probes, 5);
        assert_eq!(log.list_spills().expect("list"), vec![(0, 0), (0, 1)]);
        assert_eq!(
            store.durability_stats().expect("stats").spilled_records,
            25 + 2 + 5 + 1
        );
    }

    fn wal_bytes(log: &LogDir) -> Vec<((u64, u32), u64)> {
        log.list_wal()
            .expect("list")
            .into_iter()
            .map(|(generation, stream)| {
                let len = std::fs::metadata(log.wal_path(generation, stream))
                    .expect("wal file")
                    .len();
                ((generation, stream), len)
            })
            .collect()
    }

    /// Rotate-then-capture: the generation a checkpoint closes holds
    /// only ops the checkpoint contains, so it is deleted as soon as
    /// the checkpoint is durable — not one checkpoint later.
    #[test]
    fn checkpoint_leaves_no_covered_log() {
        let tmp = TempDir::new("durable-no-covered-log");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        let d = store.durable.as_ref().expect("durable");
        for round in 0..3u64 {
            for t in 0..200u64 {
                let at = (round * 200 + t) * 60;
                store.record_probe(probe(at, market((t % 5) as u8), ProbeOutcome::Fulfilled));
            }
            if round == 1 {
                store.compact(SimTime::from_secs(200 * 60));
            }
            store.flush().expect("flush");
            assert!(
                wal_bytes(&d.dir).iter().map(|(_, len)| len).sum::<u64>() > 200 * 20,
                "the round's ops are in the log"
            );
            store.checkpoint().expect("checkpoint");

            let floor = d.current_gen.load(Ordering::Relaxed);
            assert_eq!(floor, round + 1, "one generation per checkpoint");
            let wal = wal_bytes(&d.dir);
            assert!(
                wal.iter().all(|&((generation, _), _)| generation >= floor),
                "a generation below the floor {floor} survived: {wal:?}"
            );
            // Quiescent: what is left of the log is at most the file
            // headers of the floor generation (its files are created on
            // first append, so here: nothing), and the directory is
            // checkpoint + spill + header.
            let wal_total: u64 = wal.iter().map(|(_, len)| len).sum();
            assert!(wal_total <= 8 * wal.len() as u64, "log bytes left: {wal:?}");
            let named = |prefix: &str| -> u64 {
                std::fs::read_dir(&dir)
                    .expect("read dir")
                    .map(|entry| entry.expect("entry"))
                    .filter(|entry| entry.file_name().to_string_lossy().starts_with(prefix))
                    .map(|entry| entry.metadata().expect("metadata").len())
                    .sum()
            };
            assert_eq!(round >= 1, named("spill-") > 0);
            assert_eq!(
                store.disk_bytes().expect("disk bytes"),
                named("checkpoint") + named("spill-") + named("header") + wal_total
            );
        }
        drop(store);
        let (recovered, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
        assert!(info.checkpoint_loaded && !info.from_clean_shutdown);
        assert_eq!(
            info.replayed_ops, 0,
            "nothing was logged past the checkpoint"
        );
        assert_eq!(recovered.len(), 600);
    }

    /// A checkpoint that fails *after* its rotate (the write itself
    /// hits a bad sector) has deleted nothing: recovery runs from the
    /// previous checkpoint through every generation since, across the
    /// extra boundary, and equals a twin that saw every op.
    #[test]
    fn failed_checkpoint_write_after_the_rotate_keeps_the_old_checkpoint_and_the_full_log() {
        // The same script on a healthy disk first, to learn where the
        // second checkpoint's one write starts (the encoding is
        // deterministic); then with an EIO window exactly there.
        let run = |windows: Vec<FaultWindow>, dir: &Path| {
            let io = Arc::new(FaultyDisk::scripted(windows));
            let store = DataStore::create_durable(
                dir,
                DurableOptions {
                    io: Some(io.clone() as Arc<dyn DiskIo>),
                    ..DurableOptions::default()
                },
            )
            .expect("create");
            for t in 0..30u64 {
                store.record_probe(probe(
                    t * 60,
                    market((t % 4) as u8),
                    ProbeOutcome::Fulfilled,
                ));
            }
            store.checkpoint().expect("first checkpoint");
            for t in 30..50u64 {
                let outcome = ProbeOutcome::InsufficientCapacity;
                store.record_probe(probe(t * 60, market((t % 4) as u8), outcome));
            }
            store.flush().expect("flush");
            let at = io.written();
            (store, at, io)
        };
        let tmp = TempDir::new("durable-failed-ckpt");
        let (healthy, write_at, _) = run(Vec::new(), &tmp.path().join("healthy"));
        healthy.checkpoint().expect("healthy second checkpoint");
        drop(healthy);

        let dir = tmp.path().join("store");
        let (store, at, io) = run(
            vec![FaultWindow {
                kind: FaultKind::WriteEio,
                from: write_at,
                to: write_at + 1,
            }],
            &dir,
        );
        assert_eq!(at, write_at, "the script is deterministic");
        let d = store.durable.as_ref().expect("durable");
        let before = wal_bytes(&d.dir);
        let err = store
            .checkpoint()
            .expect_err("the checkpoint write must fail");
        assert_eq!(err.raw_os_error(), Some(5), "EIO surfaces: {err}");
        assert_eq!(io.injected(), 1);
        assert_eq!(
            d.current_gen.load(Ordering::Relaxed),
            2,
            "the rotate happened before the failure"
        );
        assert_eq!(wal_bytes(&d.dir), before, "nothing was deleted");
        assert_eq!(store.durability_stats().expect("stats").checkpoints, 1);
        // Ingest goes on, into the generation the failed checkpoint
        // rotated to; then the process dies without another checkpoint.
        for t in 50..60u64 {
            store.record_probe(probe(
                t * 60,
                market((t % 4) as u8),
                ProbeOutcome::Fulfilled,
            ));
        }
        store.flush().expect("flush");
        let generations: Vec<u64> = wal_bytes(&d.dir).iter().map(|&((g, _), _)| g).collect();
        assert!(generations.contains(&1) && generations.contains(&2));
        drop(store);

        let twin = DataStore::new();
        for t in 0..60u64 {
            let outcome = if (30..50).contains(&t) {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            };
            twin.record_probe(probe(t * 60, market((t % 4) as u8), outcome));
        }
        let (recovered, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
        assert!(info.checkpoint_loaded);
        assert_eq!(
            info.replayed_ops, 30,
            "everything since the first checkpoint"
        );
        assert_eq!(recovered.len(), twin.len());
        assert_eq!(recovered.total_cost(), twin.total_cost());
        let (r, t) = (recovered.read(), twin.read());
        assert_eq!(r.probes().count(), t.probes().count());
        for i in 0..4u8 {
            let (m, kind) = (market(i), ProbeKind::OnDemand);
            assert_eq!(r.probe_stats(m, kind), t.probe_stats(m, kind));
            assert_eq!(r.is_unavailable(m, kind), t.is_unavailable(m, kind));
            assert_eq!(r.rejection_times(m, kind), t.rejection_times(m, kind));
            assert!(r
                .probes()
                .filter(|p| p.market == m)
                .eq(t.probes().filter(|p| p.market == m)));
        }
        drop((r, t));
        // The disk healed (the window is behind us): the next
        // checkpoint lands and takes the whole backlog with it.
        recovered.checkpoint().expect("checkpoint after recovery");
        let d = recovered.durable.as_ref().expect("durable");
        assert!(wal_bytes(&d.dir).is_empty());
    }

    /// The log's directory entries are made durable, not just its
    /// bytes: a new generation file is synced into the directory before
    /// the flush that covers it is acknowledged, and recovery syncs the
    /// removal of the clean-shutdown marker it consumed.
    #[test]
    fn log_names_and_marker_removal_are_synced_to_the_directory() {
        let tmp = TempDir::new("durable-dir-sync");
        let dir = tmp.path().join("store");
        let io = Arc::new(FaultyDisk::scripted(Vec::new()));
        let opts = |io: &Arc<FaultyDisk>| DurableOptions {
            io: Some(io.clone() as Arc<dyn DiskIo>),
            ..DurableOptions::default()
        };
        let store = DataStore::create_durable(&dir, opts(&io)).expect("create");
        assert_eq!((io.written(), io.dir_syncs()), (0, 0));
        store.record_probe(probe(60, market(0), ProbeOutcome::Fulfilled));
        store.flush().expect("flush");
        assert!(
            io.written() > 8,
            "the generation file was created and written"
        );
        assert_eq!(io.dir_syncs(), 1, "and named durably before the ack");
        store.record_probe(probe(120, market(0), ProbeOutcome::Fulfilled));
        store.flush().expect("flush");
        assert_eq!(io.dir_syncs(), 1, "once per created file, not per batch");
        store.close().expect("close");

        let io = Arc::new(FaultyDisk::scripted(Vec::new()));
        let (recovered, info) = DataStore::recover_with_report(&dir, opts(&io)).expect("recover");
        assert!(info.from_clean_shutdown);
        assert!(!dir.join("clean").exists());
        assert_eq!(
            (io.written(), io.dir_syncs()),
            (0, 1),
            "recovery wrote nothing, and synced the marker's removal"
        );
        drop(recovered);
        // No marker this time: nothing removed, nothing to sync.
        let io = Arc::new(FaultyDisk::scripted(Vec::new()));
        let (_, info) = DataStore::recover_with_report(&dir, opts(&io)).expect("recover again");
        assert!(!info.from_clean_shutdown);
        assert_eq!(io.dir_syncs(), 0);
    }

    fn same_key(a: &KeyState, b: &KeyState) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.open, b.open);
        assert_eq!(a.closed_intervals, b.closed_intervals);
        assert_eq!(a.last_informative, b.last_informative);
        assert_eq!(a.disordered, b.disordered);
        assert_eq!(a.rejection_times, b.rejection_times);
        assert_eq!(a.epochs, b.epochs);
    }

    fn same_stripe(a: &Stripe, b: &Stripe) {
        assert!(a.probes.iter().eq(b.probes.iter()));
        assert!(a.spikes.iter().eq(b.spikes.iter()));
        assert_eq!(a.spike_ratios_by_epoch, b.spike_ratios_by_epoch);
        assert!(a.intervals.iter().eq(b.intervals.iter()));
        assert_eq!(a.od_rejections_by_region, b.od_rejections_by_region);
        assert!(a.revocations.iter().eq(b.revocations.iter()));
        assert!(a.intrinsic_bids.iter().eq(b.intrinsic_bids.iter()));
        assert_eq!(a.keys.len(), b.keys.len());
        for (key, state) in &a.keys {
            same_key(state, &b.keys[key]);
        }
    }

    /// Whole-stripe state through the codec: what a checkpoint section
    /// holds decodes to the same records, indices, key states and
    /// counters.
    #[test]
    fn stripe_and_key_state_round_trip() {
        let store = DataStore::with_layout(1, HOUR);
        for t in 0..300u64 {
            let outcome = match t % 7 {
                0 | 1 => ProbeOutcome::InsufficientCapacity,
                2 => ProbeOutcome::ApiLimited,
                _ => ProbeOutcome::Fulfilled,
            };
            let mut p = probe(t * 1700, market((t % 3) as u8), outcome);
            if t % 2 == 1 {
                p.kind = ProbeKind::Spot;
                p.bid = Some(Price::from_dollars(0.25));
            }
            store.record_probe(p);
        }
        for t in 0..20u64 {
            store.record_spike(SpikeEvent {
                market: market((t % 3) as u8),
                at: SimTime::from_secs(t * 9000),
                ratio: 1.5 + t as f64 / 8.0,
                probed: t % 2 == 0,
            });
        }
        store.record_revocation(RevocationRecord {
            market: market(1),
            acquired_at: SimTime::from_secs(5),
            bid: Price::from_dollars(0.3),
            revoked_at: Some(SimTime::from_secs(u64::from(u32::MAX) + 9)),
            released_at: None,
        });
        store.record_intrinsic_bid(IntrinsicBidRecord {
            market: market(2),
            at: SimTime::from_secs(80),
            published: Price::from_dollars(0.09),
            intrinsic: Price::from_micros(u64::MAX),
            attempts: u32::MAX,
        });
        store.compact(SimTime::from_secs(100 * 1700));

        let original = store.stripes[0].read();
        assert!(original.keys.len() >= 6 && original.intervals.len() > 10);
        let bytes = original.to_bytes();
        let decoded = decode_stripe(&bytes).expect("stripe decodes");
        same_stripe(&original, &decoded);
        for state in original.keys.values() {
            same_key(
                state,
                &KeyState::from_bytes(&state.to_bytes()).expect("key state decodes"),
            );
        }
        // Truncated anywhere, a stripe is an error, never a panic.
        for cut in (0..bytes.len()).step_by(97) {
            assert!(Stripe::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// A checkpoint is CRC-checked, not trusted: a stripe whose key
    /// points past its interval slab, or whose binary-searched lists are
    /// out of order, decodes field by field — and would panic the first
    /// `intervals_of`, or miscount quietly. Recovery refuses each one
    /// with `InvalidData`, and loads the unmutated stripe.
    #[test]
    fn recovery_refuses_stripe_indices_its_queries_would_trip_over() {
        let tmp = TempDir::new("durable-bad-indices");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable_with_layout(&dir, DurableOptions::default(), 1, HOUR)
            .expect("create");
        for t in 0..6u64 {
            let outcome = if t % 2 == 0 {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            };
            store.record_probe(probe(t * 600, market(0), outcome));
        }
        for ratio in [2.0, 3.0] {
            store.record_spike(SpikeEvent {
                market: market(0),
                at: SimTime::from_secs(60),
                ratio,
                probed: true,
            });
        }
        store.close().expect("close");
        let (log, _) = LogDir::open(&dir).expect("open");
        let sections = log.read_checkpoint().expect("read").expect("a checkpoint");
        let good = Stripe::from_bytes(&sections[1]).expect("the stripe decodes");
        for what in [
            "listed interval",
            "open interval",
            "rejection times",
            "spike ratios",
        ] {
            let mut stripe = good.clone();
            let past = stripe.intervals.len();
            let key = (market(0), ProbeKind::OnDemand);
            let state = stripe.keys.get_mut(&key).expect("the key");
            match what {
                "listed interval" => state.intervals.push(past),
                "open interval" => state.open = Some(past),
                "rejection times" => {
                    state.rejection_times = state.rejection_times.iter().rev().copied().collect();
                }
                _ => {
                    let ratios = stripe.spike_ratios_by_epoch.values_mut().next();
                    let ratios = ratios.expect("a bucket");
                    *ratios = ratios.iter().rev().copied().collect();
                }
            }
            let mut damaged = sections.clone();
            damaged[1] = stripe.to_bytes();
            log.write_checkpoint(&damaged).expect("write");
            let err = DataStore::recover(&dir).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        log.write_checkpoint(&sections).expect("restore");
        let recovered = DataStore::recover(&dir).expect("the unmutated checkpoint loads");
        let r = recovered.read();
        assert_eq!(r.intervals_of(market(0), ProbeKind::OnDemand).count(), 3);
        assert_eq!(r.spikes_at_or_above(2.5), 1);
    }

    #[test]
    fn close_writes_marker_and_recovery_skips_replay() {
        let tmp = TempDir::new("durable-clean-close");
        let dir = tmp.path().join("store");
        {
            let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
            for t in 0..25u64 {
                store.record_probe(probe(
                    t * 60,
                    market((t % 3) as u8),
                    ProbeOutcome::Fulfilled,
                ));
            }
            store.close().expect("close");
        }
        let (recovered, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
        assert!(info.from_clean_shutdown, "marker must be honored");
        assert!(info.checkpoint_loaded);
        assert_eq!(info.replayed_ops, 0, "clean restart does no tail replay");
        assert_eq!(recovered.len(), 25);

        // The marker is single-use: an unclean drop now must replay.
        recovered.record_probe(probe(9000, market(0), ProbeOutcome::Fulfilled));
        drop(recovered);
        let (again, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover again");
        assert!(!info.from_clean_shutdown);
        assert_eq!(info.replayed_ops, 1);
        assert_eq!(again.len(), 26);
    }

    #[test]
    fn close_on_empty_store_is_clean() {
        let tmp = TempDir::new("durable-close-empty");
        let dir = tmp.path().join("store");
        DataStore::create_durable(&dir, DurableOptions::default())
            .expect("create")
            .close()
            .expect("close");
        let (recovered, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
        assert!(info.from_clean_shutdown);
        assert_eq!(info.replayed_ops, 0);
        assert_eq!(recovered.len(), 0);
    }

    /// Probes the disk-fault tests record before their scripted window.
    const PROBES: u64 = 20;

    /// Measures the byte length of the single coalesced WAL write that
    /// flushing `count` identical probes produces, so fault windows can
    /// target exact write attempts (the encoding is deterministic).
    fn measured_flush_len(count: u64) -> u64 {
        let io = Arc::new(FaultyDisk::scripted(Vec::new()));
        let tmp = TempDir::new("durable-measure");
        let store = DataStore::create_durable(
            &tmp.path().join("store"),
            DurableOptions {
                fsync: FsyncPolicy::Never,
                io: Some(io.clone() as Arc<dyn DiskIo>),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        for t in 0..count {
            store.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
        }
        store.flush().expect("flush");
        io.written() - 8 // minus the stream file header
    }

    /// A scripted ENOSPC window defeats the writer's bounded retry,
    /// the sink degrades (publishing the loss watermark), and once the
    /// window is behind us `tend_durability` heals: fresh generation,
    /// full checkpoint, and nothing recorded in memory is lost.
    #[test]
    fn faulty_disk_degrades_store_then_tend_heals() {
        let flush_len = measured_flush_len(PROBES);
        // Cover the first write attempt and the start of the third:
        // all three retries fail (each attempt advances the cumulative
        // position by `flush_len`), and every later write clears it.
        let io = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 8,
            to: 8 + 2 * flush_len + 1,
        }]));
        let tmp = TempDir::new("durable-degrade-heal");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(
            &dir,
            DurableOptions {
                fsync: FsyncPolicy::Never,
                io: Some(io.clone() as Arc<dyn DiskIo>),
                heal_retry_base: Duration::ZERO,
                ..DurableOptions::default()
            },
        )
        .expect("create");
        for t in 0..PROBES {
            store.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
        }
        let err = store.flush().expect_err("the scripted window must fire");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC surfaces: {err}");
        assert!(io.injected() >= 3, "every retry consumed a fault");

        // The sink observes the writer's surrender at the next append.
        store.record_probe(probe(PROBES * 60, market(0), ProbeOutcome::Fulfilled));
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Degraded));
        assert!(store.durability_lost().is_some(), "watermark published");
        let stats = store.durability_stats().expect("stats");
        assert_eq!(stats.degraded_transitions, 1);
        assert_eq!(stats.ops_dropped, 1);
        assert!(stats.dropped_frames >= 1);
        assert!(stats.io_errors >= 3);

        // Degraded ingest still lands in memory.
        assert_eq!(store.len(), PROBES as usize + 1);

        // The window is exhausted, so the heal goes through.
        assert!(io.exhausted());
        assert!(store.tend_durability().expect("heal"), "heal ran");
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Durable));
        assert_eq!(store.durability_lost(), None);
        let stats = store.durability_stats().expect("stats");
        assert_eq!(stats.heals, 1);
        assert_eq!(stats.checkpoints, 1);
        // Nothing to do when healthy.
        assert!(!store.tend_durability().expect("idle tend"));

        // Post-heal appends persist, and recovery sees every op that
        // was ever applied in memory — including the dropped one the
        // healing checkpoint captured.
        store.record_probe(probe((PROBES + 1) * 60, market(1), ProbeOutcome::Fulfilled));
        store.close().expect("close");
        let recovered = DataStore::recover(&dir).expect("recover");
        assert_eq!(recovered.len(), PROBES as usize + 2);
    }

    /// A durable store at `dir` holding `PROBES` probes of market 0 that
    /// a scripted ENOSPC window has kept off the disk: the failed flush
    /// is behind it and the window exhausted, so the next append
    /// observes the degraded writer and the next heal goes through.
    fn store_on_a_full_disk(dir: &Path, heal_retry_base: Duration) -> DataStore {
        let flush_len = measured_flush_len(PROBES);
        let io = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 8,
            to: 8 + 2 * flush_len + 1,
        }]));
        let store = DataStore::create_durable(
            dir,
            DurableOptions {
                fsync: FsyncPolicy::Never,
                io: Some(io as Arc<dyn DiskIo>),
                heal_retry_base,
                ..DurableOptions::default()
            },
        )
        .expect("create");
        for t in 0..PROBES {
            store.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
        }
        assert!(store.flush().is_err(), "the scripted window must fire");
        store
    }

    /// `close()` on a degraded store heals first (ignoring backoff), so
    /// the final checkpoint and marker cover the memory-only ops.
    #[test]
    fn close_while_degraded_heals_first() {
        let tmp = TempDir::new("durable-degraded-close");
        let dir = tmp.path().join("store");
        // A heal via tend would have to wait out this backoff; close
        // ignores it.
        let store = store_on_a_full_disk(&dir, Duration::from_secs(3600));
        store.record_probe(probe(PROBES * 60, market(2), ProbeOutcome::Fulfilled));
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Degraded));
        assert!(!store.tend_durability().expect("backoff holds"));
        store.close().expect("close heals then marks");

        let (recovered, info) =
            DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
        assert!(info.from_clean_shutdown);
        assert_eq!(info.replayed_ops, 0);
        assert_eq!(recovered.len(), PROBES as usize + 1);
    }

    /// A read view holds no stripe guard, so nothing durable waits for
    /// it: with one alive — on the same thread, where a guard-holding
    /// view would be a self-deadlock — ingest proceeds, a degraded store
    /// heals through `tend_durability` and `checkpoint()` returns;
    /// `close()` then writes its marker beside the same capture held as
    /// a snapshot (`close(self)` ends the view's borrow, not a lock).
    /// Both keep answering as of the capture and the recovered store
    /// equals a twin that saw every op. Runs under a watchdog so a
    /// regression fails instead of hanging.
    #[test]
    fn checkpoint_heal_and_close_do_not_wait_for_a_view() {
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let tmp = TempDir::new("durable-view-held");
            let dir = tmp.path().join("store");
            let store = store_on_a_full_disk(&dir, Duration::ZERO);
            let twin = DataStore::new();
            for t in 0..PROBES {
                twin.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
            }
            let record = |p: ProbeRecord| {
                store.record_probe(p);
                twin.record_probe(p);
            };
            record(probe(PROBES * 60, market(0), ProbeOutcome::Fulfilled));
            assert_eq!(store.durability_mode(), Some(DurabilityMode::Degraded));

            let view = store.read();
            // The same capture without the borrow of `store`: it
            // outlives the store below.
            let kept = store.snapshot(SimTime::from_secs(PROBES * 60));
            let as_of_capture = |r: &crate::store::StoreRead<'_>| {
                assert_eq!(r.len(), PROBES as usize + 1);
                assert!(r.probes().all(|p| p.market == market(0)));
                assert_eq!(r.probes().count(), PROBES as usize + 1);
                assert!(!r.is_unavailable(market(1), ProbeKind::OnDemand));
                assert!(r.durability_lost().is_some(), "captured while degraded");
            };
            record(probe(1, market(1), ProbeOutcome::InsufficientCapacity));
            assert!(store.tend_durability().expect("heal"), "heal ran");
            assert_eq!(store.durability_mode(), Some(DurabilityMode::Durable));
            record(probe(2, market(1), ProbeOutcome::InsufficientCapacity));
            store.checkpoint().expect("checkpoint");
            record(probe(3, market(2), ProbeOutcome::Fulfilled));
            as_of_capture(&view);
            drop(view);
            store.close().expect("close");
            as_of_capture(&kept.read());

            let (recovered, info) =
                DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
            assert!(info.from_clean_shutdown, "close wrote its marker");
            assert_eq!(recovered.len(), twin.len());
            assert_eq!(recovered.total_cost(), twin.total_cost());
            let (r, t) = (recovered.read(), twin.read());
            assert!(r.probes().eq(t.probes()));
            for m in [market(0), market(1), market(2)] {
                let kind = ProbeKind::OnDemand;
                assert_eq!(r.probe_stats(m, kind), t.probe_stats(m, kind));
                assert_eq!(r.is_unavailable(m, kind), t.is_unavailable(m, kind));
                assert_eq!(r.rejection_times(m, kind), t.rejection_times(m, kind));
            }
            let _ = done.send(());
        });
        if finished.recv_timeout(Duration::from_secs(30))
            == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        {
            panic!("still running after 30 s: something durable waits for the view");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn checkpoint_on_in_memory_store_is_unsupported() {
        let store = DataStore::new();
        assert!(!store.is_durable());
        assert!(store.flush().is_ok());
        assert_eq!(store.durability_stats(), None);
        assert_eq!(store.disk_bytes(), None);
        assert_eq!(
            store.checkpoint().expect_err("must fail").kind(),
            io::ErrorKind::Unsupported
        );
    }
}
