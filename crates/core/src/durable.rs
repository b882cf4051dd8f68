//! Durable mode: the store-specific operation log, checkpoints, and
//! crash recovery layered on `spotlight-persist`.
//!
//! # The operation log
//!
//! A durable [`DataStore`] owns a [`spotlight_persist::WalHandle`], one
//! ordered log. Every `record_*` call encodes a `StoreOp` and appends it
//! **while holding the lock it mutated under** (the market's stripe
//! lock; the region-health lock for breaker events), so the log holds
//! the ops of any one lock in exactly the order the in-memory state
//! observed them. The WAL assigns sequence numbers and sends staged
//! frames under its one staging lock, so a generation file is in
//! strictly increasing sequence order. Suppressed-probe counts are the
//! one lock-free path: their op carries the post-increment running
//! total and replays via `fetch_max`, which is idempotent and
//! order-insensitive, so no store lock is needed.
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
//!    section, a `CheckpointMeta` record, then one section
//!    per stripe, its raw slabs in the slab form (below) — atomically
//!    (temp + fsync + rename + dir fsync).
//! 4. *Prune.* Only then does it delete every generation below the
//!    floor: one unlink per generation, one file each.
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
//! `next_seq`; recovery's sequence floor, which starts there, skips
//! them — they are inside the checkpoint. So the covered log is
//! gone the moment the checkpoint lands, and a just-checkpointed,
//! quiescent directory holds no log at all.
//!
//! Nothing is deleted until the checkpoint write has returned: a
//! failure at any step (the rotate, the write, a crash between them)
//! leaves the previous checkpoint and the whole log since *its* floor —
//! one generation boundary richer, nothing poorer — and a crash after
//! the write leaves the new checkpoint plus a log tail, and perhaps some
//! generations below the floor that recovery skips and the next
//! checkpoint deletes. Every case recovers exactly.
//!
//! # The slab form
//!
//! A checkpoint's stripe sections write a stripe's `probes` and
//! `spikes` slabs in one form, each record in slab order. Within a
//! section a record's `at` is the zigzag delta from the previous record
//! of its slab; a `market` or a trigger's `origin` is `0 ++ MarketId`
//! the first time and its table index + 1 after that; a trigger ratio
//! bit-equal to the record's
//! `spot_ratio` (NaN and -0.0 stay exact) is a flag on the trigger's
//! tag. A spike has two forms, behind a leading varint: `0`, then the
//! record as above, or `n ≥ 1`, a reference to the probe
//! `last + unzigzag(n − 1)` of the section's probe slab (`last` the
//! previous reference's probe, first 0). A reference stands for a
//! `probed` spike that repeats a `PriceSpike` probe — its market, its
//! `at`, its ratio bit for bit — and that probe is what the reader
//! rebuilds it from. Production records no other kind: the policy
//! records a spike exactly when its `PriceSpike` probe answers
//! informatively, right after that probe, so nearly every spike is a
//! one-byte reference. References never leave their section, so a
//! spike whose probe sits in another section stays in full. The WAL
//! keeps context-free frames: a torn tail must leave a decodable
//! prefix.
//!
//! # Recovery
//!
//! [`DataStore::recover`] rebuilds the store: decode the last
//! checkpoint (if any), then replay every WAL generation **at or above
//! the checkpoint's floor**, each file in file order, through the
//! normal in-memory ingest paths. The log is in strictly increasing
//! sequence order across its files, so one monotone sequence floor that
//! starts at the checkpoint's `next_seq` drops exactly the frames
//! recovery must not apply: below `next_seq` they are inside the
//! checkpoint, and below an applied frame's sequence number they are
//! the duplicated tail a retried append can leave behind. Frame
//! scanning stops at the first torn, truncated, or corrupt frame, so a
//! crash mid-write costs at most the unsynced tail: what survives is a
//! prefix of the sequence order.
//! Recovery never appends to scanned files: it reopens the log at a
//! fresh generation.
//!
//! Compaction is not logged. A pass after the checkpoint freed raw
//! records whose frames are still in the tail, so the replay brings
//! them back resident; their summaries are the same either way.
//!
//! # Degraded durability and healing
//!
//! A long-running collector must survive the disk itself misbehaving,
//! not just process death. When the WAL writer's bounded in-thread
//! retries cannot get a batch onto disk (persistent `ENOSPC`/`EIO`, or
//! repeated fsync failure) it *surrenders*, and the store turns
//! [`DurabilityMode::Degraded`]:
//!
//! * Ingest keeps working **in memory**: `record_*` calls skip the
//!   encode+append (counted in [`DurabilityStats::ops_dropped`]).
//! * A `durability_lost` watermark is published: the writer's
//!   `durable_at` at the surrender, the max op time provably written
//!   *and fsynced* (a valid frontier: record order carries
//!   non-decreasing op times). Ops after it may exist only in memory. A
//!   second surrender in the same episode does not move it.
//! * [`DataStore::tend_durability`] runs a *heal*: revive the WAL at a
//!   fresh generation, accept appends again, then checkpoint (a heal
//!   advances two generations; its floor is the second). The checkpoint
//!   captures every op the degraded window dropped, so a heal that lands
//!   loses nothing: the store is durable again and the watermark
//!   clears. A failed heal stays degraded and backs off.
//!
//! The logic is one value, `durability::DurabilityMachine`, which does
//! no IO and reads no clock: its events are the surrender, a tend at
//! `now`, the heal's success or failure at `now`, and close, and each
//! transition returns the IO to run with its mutex released. The caller
//! supplies the time (the live driver the wall clock, tests made-up
//! instants). The first heal of an episode runs at the first tend after
//! the surrender; after `n` failed heals the next waits
//! `min(`[`HEAL_RETRY_BASE`]` · 2^n, `[`HEAL_RETRY_CAP`]`)`. Appends and
//! captures read atomic mirrors of its mode and watermark that only the
//! store writes, and the surrender is observed in one place
//! (`DurableSink::observe`): on an append, a tend or a close.
//!
//! # Graceful shutdown
//!
//! [`DataStore::close`] takes a final checkpoint (its rotate drains the
//! write-behind queue; a degraded store heals instead, whatever the
//! backoff says) and writes an atomic clean-shutdown marker
//! recording the log position: the next sequence number and the
//! generation the writer stands at, which nothing was appended to.
//! [`DataStore::recover`] consumes the marker (it is removed, and the
//! removal fsynced, before the store reopens, so it can never be
//! trusted twice) and, when it matches the checkpoint — same
//! `next_seq`, and `marker.generation == checkpoint floor` — skips the
//! WAL tail scan entirely: [`RecoveryInfo::replayed_ops`] is 0 and
//! [`RecoveryInfo::from_clean_shutdown`] is true. An unclean death
//! leaves no marker and recovery replays the tail as usual.

use crate::durability::{DurabilityMachine, Event, Io};
use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger, UnavailabilityInterval};
use crate::shared::{ChunkVec, CowVec};
use crate::store::{
    closed_secs, DataStore, FxHashMap, IndexEntry, IntrinsicBidRecord, KeyState, ProbeStats,
    RegionHealth, RevocationRecord, SpikeEvent, Stripe, STRIPES,
};
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::time::SimTime;
use spotlight_persist::log::{CleanMarker, LogDir};
use spotlight_persist::wal::{WalConfig, WalHandle};
use spotlight_persist::{enum_codec, record_codec, Decode, DecodeError, DiskIo, Encode, Reader};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use crate::durability::{DurabilityMode, HEAL_RETRY_BASE, HEAL_RETRY_CAP};
pub use spotlight_persist::FsyncPolicy;

/// Tuning knobs for a durable store's writer.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When the log writer fsyncs (default: once per drained batch).
    pub fsync: FsyncPolicy,
    /// Bounded depth of the append queue, in messages; ingest blocks
    /// (backpressure) when the disk falls this far behind. Under
    /// `Batch` and `Never` each message is one staged batch of at least
    /// [`spotlight_persist::wal::STAGE_BYTES`] (32 KiB), so the default
    /// 4,096 lets about 128 MiB of frames queue before an append
    /// blocks; under `Always` each is one op.
    pub queue_capacity: usize,
    /// Disk-I/O layer under every write and fsync; `None` means the
    /// real filesystem. Tests inject a
    /// [`spotlight_persist::FaultyDisk`] here.
    pub io: Option<Arc<dyn DiskIo>>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::Batch,
            queue_capacity: 4096,
            io: None,
        }
    }
}

/// The watermark mirror outside a degraded episode.
const NO_LOSS: u64 = u64::MAX;

/// Counters describing a durable store's log activity. Its mode and
/// loss watermark are [`DataStore::durability_mode`] and
/// [`DataStore::durability_lost`].
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
    /// Write/fsync errors the durable paths (log, checkpoint, heal) have
    /// hit, each counted once.
    pub io_errors: u64,
    /// Description of the most recent of them, if any.
    pub last_error: Option<String>,
    /// Ops skipped at the sink while degraded (memory-only until a heal).
    pub ops_dropped: u64,
    /// Frames the WAL writer dropped after exhausting its retries.
    pub dropped_frames: u64,
    /// Durable → degraded transitions.
    pub degraded_transitions: u64,
    /// Successful heals (WAL re-established plus a full checkpoint).
    pub heals: u64,
}

/// What [`DataStore::recover_with_report`] actually did — the kill-9
/// test of `spotlightd` asserts on this.
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

crate::counters! {
    /// What a durable store's own paths count, beside the WAL's
    /// [`spotlight_persist::WalStats`]; [`DurabilityStats`] reads both.
    struct SinkCounters / SinkCounts {
        /// Checkpoints completed.
        checkpoints,
        /// Ops skipped at the sink while degraded.
        ops_dropped,
    }
}

/// The durable half of a [`DataStore`]: directory, WAL, the durability
/// machine and counters. IO errors go to the WAL's one error record.
#[derive(Debug)]
pub(crate) struct DurableSink {
    dir: LogDir,
    wal: WalHandle,
    counters: SinkCounters,
    /// Generation the writer is currently appending to — after a
    /// successful checkpoint, that checkpoint's floor.
    current_gen: AtomicU64,
    /// Serializes checkpoints (rotate + capture + write must not
    /// interleave between two callers).
    ckpt_lock: crate::sync::Mutex<()>,
    /// Held for one transition or a stats read, never across IO.
    machine: crate::sync::Mutex<DurabilityMachine>,
    /// Mirrors of the machine: appends are dropped (lowered by a heal
    /// once the WAL is revived), and its watermark or [`NO_LOSS`].
    dropping: AtomicBool,
    lost: AtomicU64,
}

impl DurableSink {
    /// The sink over `dir`, its writer appending to `generation` from
    /// sequence number `seq`.
    fn open(dir: LogDir, opts: &DurableOptions, generation: u64, seq: u64) -> io::Result<Self> {
        let config = WalConfig {
            fsync: opts.fsync,
            queue_capacity: opts.queue_capacity,
        };
        Ok(DurableSink {
            wal: WalHandle::open(&dir, config, generation, seq)?,
            dir,
            counters: SinkCounters::default(),
            current_gen: AtomicU64::new(generation),
            ckpt_lock: crate::sync::Mutex::new(()),
            machine: crate::sync::Mutex::new(DurabilityMachine::default()),
            dropping: AtomicBool::new(false),
            lost: AtomicU64::new(NO_LOSS),
        })
    }

    /// Appends one op to the log. Called with the mutated lock held so
    /// the log's order matches state order. Encodes into a
    /// thread-local scratch buffer: this is the per-record hot path and
    /// must not allocate.
    ///
    /// While degraded this is an atomic load and an increment. A failed
    /// send means the writer thread is gone: the WAL reports that as a
    /// surrender for the next call to observe.
    pub(crate) fn append(&self, op: &StoreOp) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let sent = !self.observe()
            && SCRATCH.with(|scratch| {
                let mut buf = scratch.borrow_mut();
                buf.clear();
                op.encode(&mut buf);
                self.wal.append(&buf, op.at_secs()).is_ok()
            });
        if !sent {
            self.counters.ops_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether appends are dropped, feeding the writer's surrender to the
    /// machine on the way: the one place it is observed. Skipped while
    /// dropping, so a heal's not yet revived writer never counts twice.
    fn observe(&self) -> bool {
        if self.dropping.load(Ordering::Acquire) {
            return true;
        }
        if !self.wal.is_degraded() {
            return false;
        }
        let durable_at = SimTime::from_secs(self.wal.durable_at());
        self.drive(Event::Surrendered(durable_at));
        true
    }

    /// One transition, the mutex held for it alone. A surrender or a
    /// heal's outcome republishes the mirrors; entering a heal does not:
    /// its IO lowers `dropping` once the WAL is revived.
    fn drive(&self, event: Event) -> Io {
        let mut machine = self.machine.lock();
        let io = machine.on(event);
        if !matches!(event, Event::Tend(_) | Event::Close) {
            let lost = machine.lost();
            self.dropping.store(lost.is_some(), Ordering::Release);
            let secs = lost.map_or(NO_LOSS, SimTime::as_secs);
            self.lost.store(secs, Ordering::Release);
        }
        io
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
    IndexEntry { pos, closed_before }
    KeyState { stats, intervals, open, rejection_times, last_informative, disordered }
    CheckpointMeta {
        recorded_probes, total_cost_micros, suppressed_probes, next_seq, floor, region_health,
    }
}

/// The flag a slab sets on a trigger's tag byte in place of a ratio
/// bit-equal to its record's `spot_ratio`.
const RATIO_ELIDED: u8 = 0x80;

/// A section's market table (module docs, "The slab form"), in order of
/// first use: the writer's references, the reader's list.
#[derive(Default)]
struct Markets {
    index: FxHashMap<MarketId, usize>,
    list: Vec<MarketId>,
}

impl Markets {
    fn put(&mut self, market: MarketId, out: &mut Vec<u8>) {
        let next = self.index.len() + 1;
        match *self.index.entry(market).or_insert(next) {
            i if i == next => (0usize, market).encode(out),
            i => i.encode(out),
        }
    }

    fn take(&mut self, r: &mut Reader<'_>) -> Result<MarketId, DecodeError> {
        match usize::decode(r)? {
            0 => MarketId::decode(r).inspect(|&market| self.list.push(market)),
            i => (self.list.get(i - 1).copied()).ok_or(DecodeError::Invalid("market reference")),
        }
    }

    /// The tag (the trigger table's, which writes the others), flagged
    /// if the ratio is left out, the origin's reference, the ratio.
    fn put_trigger(&mut self, trigger: ProbeTrigger, spot: f64, out: &mut Vec<u8>) {
        let (tag, origin) = match trigger {
            ProbeTrigger::PriceSpike { .. } => (0, None),
            ProbeTrigger::FamilyFanout { origin, .. } => (1, Some(origin)),
            ProbeTrigger::CrossAzFanout { origin, .. } => (2, Some(origin)),
            ProbeTrigger::CrossVerify { origin } => (5, Some(origin)),
            plain => return plain.encode(out),
        };
        // Bit equality keeps a NaN's payload and a zero's sign.
        let ratio = trigger.spike_ratio();
        let elided = ratio.is_some_and(|r| r.to_bits() == spot.to_bits());
        out.push(if elided { tag | RATIO_ELIDED } else { tag });
        if let Some(origin) = origin {
            self.put(origin, out);
        }
        if let Some(ratio) = ratio.filter(|_| !elided) {
            ratio.encode(out);
        }
    }

    fn take_trigger(&mut self, spot: f64, r: &mut Reader<'_>) -> Result<ProbeTrigger, DecodeError> {
        let Some(tag @ (0 | 1 | 2 | 5)) = r.peek().map(|tag| tag & !RATIO_ELIDED) else {
            // Refuses a flag on the others, as any tag it does not list.
            return ProbeTrigger::decode(r);
        };
        let elided = u8::decode(r)? != tag;
        let origin = (tag != 0).then(|| self.take(r)).transpose()?;
        let ratio = (!elided && tag != 5).then(|| f64::decode(r)).transpose()?;
        let ratio = ratio.unwrap_or(spot);
        Ok(match (tag, origin) {
            (0, _) => ProbeTrigger::PriceSpike { ratio },
            (1, Some(origin)) => ProbeTrigger::FamilyFanout {
                origin,
                origin_ratio: ratio,
            },
            (2, Some(origin)) => ProbeTrigger::CrossAzFanout {
                origin,
                origin_ratio: ratio,
            },
            (_, Some(origin)) if !elided => ProbeTrigger::CrossVerify { origin },
            _ => return Err(DecodeError::Invalid("probe trigger tag")),
        })
    }
}

/// The spike a `PriceSpike` probe repeats: what a reference to it
/// stands for (module docs, "The slab form").
fn repeated(p: &ProbeRecord) -> Option<SpikeEvent> {
    let ProbeTrigger::PriceSpike { ratio } = p.trigger else {
        return None;
    };
    Some(SpikeEvent {
        market: p.market,
        at: p.at,
        ratio,
        probed: true,
    })
}

/// Writes a probe slab, then a spike slab: each its length, then its
/// records in the slab form.
fn write_slabs<'a>(
    probes: impl Iterator<Item = &'a ProbeRecord> + Clone,
    spikes: impl Iterator<Item = &'a SpikeEvent> + Clone,
    out: &mut Vec<u8>,
) {
    let (mut markets, mut prev) = (Markets::default(), 0);
    // The slab's probes by the spike each repeats, bit for bit.
    let bits = |s: &SpikeEvent| (s.market, s.at, s.ratio.to_bits(), s.probed);
    let mut spiked = FxHashMap::default();
    probes.clone().count().encode(out);
    for (i, p) in probes.enumerate() {
        put_delta(&mut prev, p.at, out);
        markets.put(p.market, out);
        (p.kind, p.outcome).encode(out);
        p.spot_ratio.encode(out);
        markets.put_trigger(p.trigger, p.spot_ratio, out);
        (p.bid, p.cost).encode(out);
        if let Some(s) = repeated(p) {
            spiked.insert(bits(&s), i);
        }
    }
    prev = 0;
    let mut last = 0usize;
    spikes.clone().count().encode(out);
    for s in spikes {
        if let Some(&i) = spiked.get(&bits(s)) {
            (zigzag(i.wrapping_sub(last) as i64) + 1).encode(out);
            last = i;
            continue;
        }
        0u64.encode(out);
        put_delta(&mut prev, s.at, out);
        markets.put(s.market, out);
        (s.ratio, s.probed).encode(out);
    }
}

/// Reads what [`write_slabs`] wrote.
fn read_slabs(
    r: &mut Reader<'_>,
) -> Result<(ChunkVec<ProbeRecord>, ChunkVec<SpikeEvent>), DecodeError> {
    let (mut markets, mut prev) = (Markets::default(), 0);
    let (mut probes, mut spikes) = (ChunkVec::default(), ChunkVec::default());
    for _ in 0..usize::decode(r)? {
        let (at, market) = (take_delta(&mut prev, r)?, markets.take(r)?);
        let (kind, outcome) = Decode::decode(r)?;
        let spot_ratio = f64::decode(r)?;
        probes.push(ProbeRecord {
            at,
            market,
            kind,
            outcome,
            spot_ratio,
            trigger: markets.take_trigger(spot_ratio, r)?,
            bid: Decode::decode(r)?,
            cost: Decode::decode(r)?,
        });
    }
    prev = 0;
    let mut last = 0usize;
    for _ in 0..usize::decode(r)? {
        let spike = match u64::decode(r)? {
            0 => SpikeEvent {
                at: take_delta(&mut prev, r)?,
                market: markets.take(r)?,
                ratio: f64::decode(r)?,
                probed: bool::decode(r)?,
            },
            n => {
                let delta = isize::try_from(unzigzag(n - 1)).ok();
                last = (delta.and_then(|delta| last.checked_add_signed(delta)))
                    .filter(|&i| i < probes.len())
                    .ok_or(DecodeError::Invalid("spike reference"))?;
                repeated(&probes[last]).ok_or(DecodeError::Invalid("spike reference"))?
            }
        };
        spikes.push(spike);
    }
    Ok((probes, spikes))
}

/// Writes `at` as the zigzag delta from the previous record's time in
/// its slab. Times are below 2^63 s, so every delta fits an `i64`.
fn put_delta(prev: &mut u64, at: SimTime, out: &mut Vec<u8>) {
    zigzag(at.as_secs().wrapping_sub(*prev) as i64).encode(out);
    *prev = at.as_secs();
}

/// Reads what [`put_delta`] wrote; a delta that leaves `u64` is refused.
fn take_delta(prev: &mut u64, r: &mut Reader<'_>) -> Result<SimTime, DecodeError> {
    let delta = unzigzag(u64::decode(r)?);
    *prev = (prev.checked_add_signed(delta)).ok_or(DecodeError::Invalid("time delta"))?;
    Ok(SimTime::from_secs(*prev))
}

/// A signed delta as an unsigned varint's value: small either way is small.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(zigzag: u64) -> i64 {
    (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64)
}

/// A checkpoint's stripe section: its raw slabs in the slab form, then
/// the rest in its record form.
impl Encode for Stripe {
    fn encode(&self, out: &mut Vec<u8>) {
        write_slabs(self.probes.iter(), self.spikes.iter(), out);
        self.spike_ratios_by_epoch.encode(out);
        self.intervals.encode(out);
        self.keys.encode(out);
        self.od_rejections_by_region.encode(out);
        self.revocations.encode(out);
        self.intrinsic_bids.encode(out);
    }
}

impl Decode for Stripe {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (probes, spikes) = read_slabs(r)?;
        Ok(Stripe {
            probes,
            spikes,
            spike_ratios_by_epoch: Decode::decode(r)?,
            intervals: Decode::decode(r)?,
            keys: Decode::decode(r)?,
            od_rejections_by_region: Decode::decode(r)?,
            revocations: Decode::decode(r)?,
            intrinsic_bids: Decode::decode(r)?,
        })
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
/// position a key lists past the stripe's interval slab, an open
/// interval that is not the index's last, a `closed_before` that is not
/// the running sum of the key's closed seconds, an ordered key whose
/// intervals go back in time (the span sums read both; module docs of
/// `crate::store`, "Span sums"), or a rejection-time list or
/// spike-ratio bucket out of order (they are binary-searched).
fn decode_stripe(section: &[u8]) -> Result<Stripe, DecodeError> {
    fn ascending<T: PartialOrd>(list: &[T]) -> bool {
        let descent = |w: &[T]| w[0].partial_cmp(&w[1]) == Some(std::cmp::Ordering::Greater);
        !list.windows(2).any(descent)
    }
    let stripe = Stripe::from_bytes(section)?;
    for key in stripe.keys.values() {
        if !key.intervals.iter().all(|e| e.pos < stripe.intervals.len()) {
            return Err(DecodeError::Invalid("interval position"));
        }
        if key
            .open
            .is_some_and(|open| key.intervals.last().map(|e| e.pos) != Some(open))
        {
            return Err(DecodeError::Invalid("open interval"));
        }
        let intervals = || key.intervals.iter().map(|e| &stripe.intervals[e.pos]);
        let mut sum = 0u64;
        for (entry, interval) in key.intervals.iter().zip(intervals()) {
            let running =
                (entry.closed_before == sum).then(|| sum.checked_add(closed_secs(interval)));
            sum = running
                .flatten()
                .ok_or(DecodeError::Invalid("closed seconds before"))?;
        }
        let times = intervals().flat_map(|i| [Some(i.start), i.end]).flatten();
        if !(key.disordered || times.is_sorted()) {
            return Err(DecodeError::Invalid("interval order"));
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

impl DataStore {
    /// Creates an empty **durable** store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails if `dir` cannot be initialized (or already holds a store).
    pub fn create_durable(dir: &Path, opts: DurableOptions) -> io::Result<DataStore> {
        let mut store = DataStore::new();
        let mut log = LogDir::create(dir)?;
        if let Some(io) = &opts.io {
            log = log.with_io(Arc::clone(io));
        }
        store.durable = Some(DurableSink::open(log, &opts, 0, 0)?);
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
        DataStore::recover_with_report(dir, DurableOptions::default()).map(|(store, _)| store)
    }

    /// [`DataStore::recover`] with explicit writer options, also
    /// reporting what recovery did — the kill-9 test of `spotlightd`
    /// asserts on this.
    ///
    /// # Errors
    ///
    /// See [`DataStore::recover`].
    pub fn recover_with_report(
        dir: &Path,
        opts: DurableOptions,
    ) -> io::Result<(DataStore, RecoveryInfo)> {
        let mut log = LogDir::open(dir)?;
        if let Some(io) = &opts.io {
            log = log.with_io(Arc::clone(io));
        }
        // Consume the clean-shutdown marker up front: whatever happens
        // from here on (including a crash mid-recovery), a stale marker
        // can never talk a *later* recovery out of a replay it needs.
        let marker = log.read_clean_marker()?;
        log.remove_clean_marker()?;
        let mut store = DataStore::new();

        // 1. The checkpoint, if one was ever completed.
        let mut next_seq = 0u64;
        let mut min_gen = 0u64;
        let mut checkpoint_loaded = false;
        if let Some(sections) = log.read_checkpoint()? {
            checkpoint_loaded = true;
            // The one guard against a checkpoint of another layout.
            if sections.len() != STRIPES + 1 {
                return Err(corrupt("checkpoint section count mismatch"));
            }
            let meta = CheckpointMeta::from_bytes(&sections[0]).map_err(bad_data)?;
            next_seq = meta.next_seq;
            min_gen = meta.floor;
            *store.recorded_probes.get_mut() = meta.recorded_probes;
            *store.total_cost_micros.get_mut() = meta.total_cost_micros;
            *store.suppressed_probes.get_mut() = meta.suppressed_probes;
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
            // One monotone sequence floor (module docs) drops
            // checkpoint-covered frames and retried-append duplicates
            // alike; the frame scanner already trimmed the torn tail.
            let mut floor = next_seq;
            for generation in log.list_wal()? {
                max_gen = max_gen.max(generation);
                // Below the checkpoint's floor every frame is inside
                // the checkpoint (module docs): not even read.
                if generation < min_gen {
                    continue;
                }
                log.read_wal(generation, |seq, body| {
                    max_seq = max_seq.max(seq + 1);
                    let op = StoreOp::from_bytes(body).map_err(bad_data)?;
                    // A suppressed total is monotone and idempotent:
                    // applied regardless of the floor, which makes the
                    // lock-free suppressed path correct under any
                    // interleaving with a concurrent checkpoint.
                    if seq >= floor || matches!(op, StoreOp::Suppressed { .. }) {
                        floor = floor.max(seq + 1);
                        store.apply(op);
                        replayed_ops += 1;
                    }
                    Ok(())
                })?;
            }
        }

        // 3. Never append after a possibly-torn tail: reopen the log at
        // a fresh generation.
        store.durable = Some(DurableSink::open(log, &opts, max_gen + 1, max_seq)?);
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
            StoreOp::Probe(p) => _ = self.record_probe(p),
            StoreOp::Spike(s) => self.record_spike(s),
            StoreOp::Revocation(r) => self.record_revocation(r),
            StoreOp::IntrinsicBid(b) => self.record_intrinsic_bid(b),
            StoreOp::Suppressed { total } => {
                _ = self.suppressed_probes.fetch_max(total, Ordering::Relaxed)
            }
            StoreOp::RegionDegraded { region, at } => self.mark_region_degraded(region, at),
            StoreOp::RegionRecovered { region, at } => self.mark_region_recovered(region, at),
        }
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
    /// `Unsupported` for in-memory stores; otherwise filesystem errors
    /// (a failed write or prune is counted in [`DurabilityStats`]; a
    /// failed rotate was, by the writer). On error the previous
    /// checkpoint and the full log remain, so the store stays
    /// recoverable.
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
        let written = d.dir.write_checkpoint(&sections);
        written
            .and_then(|()| d.dir.delete_wal_before(floor))
            .inspect_err(|err| d.wal.stats().record_error(err, "checkpoint"))?;
        d.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Log and checkpoint counters; `None` for in-memory stores.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let d = self.durable.as_ref()?;
        let ws = d.wal.stats();
        let machine = *d.machine.lock();
        let counts = d.counters.snapshot();
        Some(DurabilityStats {
            appended_ops: ws.appended_ops.load(Ordering::Relaxed),
            appended_bytes: ws.appended_bytes.load(Ordering::Relaxed),
            fsyncs: ws.fsyncs.load(Ordering::Relaxed),
            checkpoints: counts.checkpoints,
            io_errors: ws.io_errors.load(Ordering::Relaxed),
            last_error: ws.last_error_text(),
            ops_dropped: counts.ops_dropped,
            dropped_frames: ws.dropped_frames.load(Ordering::Relaxed),
            degraded_transitions: machine.degraded_transitions,
            heals: machine.heals,
        })
    }

    /// Whether appends are currently reaching disk; `None` for
    /// in-memory stores.
    pub fn durability_mode(&self) -> Option<DurabilityMode> {
        let d = self.durable.as_ref()?;
        Some(match d.dropping.load(Ordering::Acquire) {
            true => DurabilityMode::Degraded,
            false => DurabilityMode::Durable,
        })
    }

    /// The durability-loss watermark: ops at or before this time are
    /// provably on disk, later ones may be memory-only. `None` when
    /// fully durable (or in-memory).
    pub fn durability_lost(&self) -> Option<SimTime> {
        match self.durable.as_ref()?.lost.load(Ordering::Acquire) {
            NO_LOSS => None,
            secs => Some(SimTime::from_secs(secs)),
        }
    }

    /// Drives the degraded → durable heal loop at `now`, the caller's
    /// clock. Call it from a maintenance point, never from inside a
    /// `record_*` call: a heal runs a full checkpoint. Returns whether a
    /// heal completed (not when healthy, in-memory, or backing off).
    ///
    /// # Errors
    ///
    /// A failed heal returns its IO error; the store stays degraded and
    /// backs off (module docs), usable either way.
    pub fn tend_durability(&self, now: Instant) -> io::Result<bool> {
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        // An idle store observes a quiet surrender here.
        d.observe();
        if d.drive(Event::Tend(now)) != Io::Heal {
            return Ok(false);
        }
        let healed = self.heal(d);
        d.drive(match healed {
            Ok(()) => Event::HealSucceeded,
            Err(_) => Event::HealFailed(now),
        });
        healed.map(|()| true)
    }

    /// The machine's `Heal`: revive the WAL at a fresh generation,
    /// re-enable appends, then checkpoint so every op that was
    /// memory-only while degraded becomes durable.
    fn heal(&self, d: &DurableSink) -> io::Result<()> {
        let revived = d.wal.revive();
        let generation = revived.inspect_err(|err| d.wal.stats().record_error(err, "heal"))?;
        d.current_gen.store(generation, Ordering::Relaxed);
        // Appends back on *before* the checkpoint: an op recorded from
        // here lands in a fresh generation or inside the capture. The
        // reverse order would lose ops recorded between the two.
        d.dropping.store(false, Ordering::Release);
        self.checkpoint()
    }

    /// Gracefully shuts the store down: final checkpoint (a heal if
    /// degraded, whatever the backoff says), then a clean-shutdown
    /// marker that lets the next [`DataStore::recover`] skip the WAL
    /// tail scan. Taking the store by value keeps appends off the marker.
    ///
    /// A no-op `Ok` for in-memory stores.
    ///
    /// # Errors
    ///
    /// Filesystem errors from the final checkpoint or the marker write.
    /// On error the store is dropped *without* a marker, which is
    /// always safe: the next recovery simply replays the tail, and the
    /// watermark's promise still holds.
    pub fn close(self) -> io::Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        d.observe();
        match d.drive(Event::Close) {
            Io::Heal => self.heal(d)?,
            _ => self.checkpoint()?,
        }
        d.dir.write_clean_marker(CleanMarker {
            next_seq: d.wal.next_seq(),
            generation: d.current_gen.load(Ordering::Relaxed),
        })
    }

    /// Total on-disk bytes of the store directory (WAL + checkpoint);
    /// `None` for in-memory stores or on a read error.
    pub fn disk_bytes(&self) -> Option<u64> {
        self.durable.as_ref().and_then(|d| d.dir.disk_bytes().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeOutcome;
    use crate::store::stripe_index;
    use cloud_sim::ids::{Az, Family, InstanceType, MarketId, Platform, Size};
    use cloud_sim::price::Price;
    use cloud_sim::time::SimDuration;
    use proptest::prelude::*;
    use spotlight_persist::tempdir::TempDir;
    use spotlight_persist::{FaultKind, FaultWindow, FaultyDisk};

    const HOUR: SimDuration = SimDuration::from_secs(3600);

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

    /// `n` distinct markets that share `market(0)`'s stripe, `market(0)`
    /// first: one stripe section holds them all.
    fn stripe_mates(n: usize) -> Vec<MarketId> {
        let home = market(0);
        let others = (0..26u8).flat_map(|az| {
            Platform::ALL.map(move |platform| MarketId {
                az: Az::new(Region::UsEast1, az),
                platform,
                ..home
            })
        });
        let mates: Vec<_> = std::iter::once(home)
            .chain(others.filter(|&m| m != home && stripe_index(m) == stripe_index(home)))
            .take(n)
            .collect();
        assert_eq!(mates.len(), n, "too few markets share a stripe");
        mates
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
            intervals: [(3usize, 0u64), (200, 5_400)]
                .into_iter()
                .map(|(pos, closed_before)| IndexEntry { pos, closed_before })
                .collect(),
            open: Some(200),
            last_informative: Some(SimTime::from_secs(2_500_000)),
            disordered: true,
            rejection_times: [90u64, 20_000]
                .into_iter()
                .map(SimTime::from_secs)
                .collect(),
        }
    }

    /// A one-element slab, list or map.
    fn one<C: FromIterator<T>, T>(item: T) -> C {
        std::iter::once(item).collect()
    }

    /// One entry per map: with a single entry, `RandomState` iteration
    /// order cannot reach the bytes. Its key points at the one interval,
    /// so a checkpoint would load it. Two probes, the first a
    /// `PriceSpike` one, and a spike in each form: one in full, one
    /// that repeats that probe.
    fn golden_stripe() -> Stripe {
        let m = golden_market(12);
        let probes: ChunkVec<ProbeRecord> = (golden_ops().into_iter().take(2))
            .map(|op| match op {
                StoreOp::Probe(p) => p,
                _ => unreachable!("the golden ops start with the probes"),
            })
            .collect();
        let repeat = repeated(&probes[0]).expect("the first golden probe is a spike's");
        let key = KeyState {
            intervals: one(IndexEntry {
                pos: 0,
                closed_before: 0,
            }),
            open: Some(0),
            ..golden_key_state()
        };
        let full = SpikeEvent {
            market: m,
            at: SimTime::from_secs(18_001),
            ratio: 2.25,
            probed: false,
        };
        Stripe {
            probes,
            spikes: [full, repeat].into_iter().collect(),
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
    /// or tag table that drifts from that wire order fails here. Format
    /// 5 compressed the sections these records sit in, not a record
    /// byte, so the file kept its bytes and its name. Format 7 rewrote
    /// its two checkpoint-only lines, `stripe` (its slabs in the slab
    /// form) and `checkpoint_meta` (its spill count); every WAL record
    /// line and `key_state` kept its bytes. Format 9 rewrote `stripe`
    /// again, for its second probe and its spike in the reference form,
    /// and format 10 `checkpoint_meta`, which dropped the spill count.
    /// Format 12 rewrote `key_state` and `stripe`, whose epoch cells
    /// dropped their probe and rejection counts; format 13 rewrote them
    /// again, when a key dropped its epoch cells and closed-interval
    /// count and its index entries gained `closed_before`. Both times
    /// every `store_op.*` line and `checkpoint_meta` kept their bytes.
    /// It is regenerated
    /// (`FORMAT4_GOLDEN_WRITE=1 cargo test -p spotlight-core
    /// format4_golden`) only together with a `FORMAT_VERSION` bump that
    /// changes a record's encoding.
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

    /// One stripe section as a checkpoint holds it before compression:
    /// 120 probes of three markets that share a stripe, and its
    /// compressed block.
    fn stripe_section() -> &'static (Vec<u8>, Vec<u8>) {
        static SECTION: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
        SECTION.get_or_init(|| {
            let tmp = TempDir::new("durable-lz-stripe");
            let dir = tmp.path().join("store");
            let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
            let mates = stripe_mates(3);
            for t in 0..120u64 {
                let outcome = match t % 3 {
                    0 => ProbeOutcome::InsufficientCapacity,
                    _ => ProbeOutcome::Fulfilled,
                };
                store.record_probe(probe(t * 300, mates[t as usize % 3], outcome));
            }
            store.close().expect("close");
            let log = LogDir::open(&dir).expect("open");
            let sections = log.read_checkpoint().expect("read").expect("a checkpoint");
            let raw = sections[1 + stripe_index(market(0))].clone();
            let mut packed = Vec::new();
            spotlight_persist::lz::compress(&raw, &mut packed);
            (raw, packed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // The section decoder under hostile input never panics: drawn
        // bytes decode to an error or to exactly the length they
        // declare; every truncation of a compressed stripe section is
        // an error or (cut after its last match) the original bytes;
        // and every single-byte flip is an error or a block of the
        // original length — a flipped literal decodes to other bytes,
        // which the frame CRC around the section is there to catch —
        // that the stripe decoder then takes or refuses, also without
        // panicking.
        #[test]
        fn lz_decoder_survives_hostile_and_damaged_stripe_sections(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            mask in 1u8..255,
        ) {
            use spotlight_persist::lz::decompress;
            if let Ok(out) = decompress(&bytes) {
                prop_assert_eq!(u64::decode(&mut Reader::new(&bytes)), Ok(out.len() as u64));
            }
            let (raw, packed) = stripe_section();
            prop_assert!(packed.len() * 2 < raw.len(), "{} of {} B", packed.len(), raw.len());
            prop_assert_eq!(decompress(packed).as_ref(), Ok(raw));
            for cut in 0..packed.len() {
                if let Ok(out) = decompress(&packed[..cut]) {
                    prop_assert_eq!(&out, raw, "cut at {}", cut);
                }
            }
            for at in 0..packed.len() {
                let mut flipped = packed.clone();
                flipped[at] ^= mask;
                if let Ok(out) = decompress(&flipped) {
                    prop_assert_eq!(out.len(), raw.len(), "flip at {}", at);
                    drop(decode_stripe(&out));
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

    /// A probe drawn from three numbers: its time below 2^63 (any two
    /// times' delta fits an `i64`), one of 24 markets and origins, every
    /// kind, outcome and trigger, and ratios that are NaN (with a
    /// payload), ±0.0 or finite, the trigger's equal to the spot ratio
    /// or not.
    fn drawn_probe(time: u64, pick: u64, shape: u64) -> ProbeRecord {
        let ratio = |draw: u64| match draw % 5 {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | (draw >> 3) & 0xffff),
            1 => 0.0,
            2 => -0.0,
            _ => (draw >> 3 & 0xfff) as f64 / 64.0,
        };
        let spot_ratio = ratio(pick >> 10);
        let trigger_ratio = match shape >> 20 & 1 {
            0 => spot_ratio,
            _ => ratio(shape >> 21),
        };
        let origin = golden_market((pick >> 5) as usize % 24);
        let trigger = match all_triggers()[(shape >> 8) as usize % 9] {
            ProbeTrigger::PriceSpike { .. } => ProbeTrigger::PriceSpike {
                ratio: trigger_ratio,
            },
            ProbeTrigger::FamilyFanout { .. } => ProbeTrigger::FamilyFanout {
                origin,
                origin_ratio: trigger_ratio,
            },
            ProbeTrigger::CrossAzFanout { .. } => ProbeTrigger::CrossAzFanout {
                origin,
                origin_ratio: trigger_ratio,
            },
            ProbeTrigger::CrossVerify { .. } => ProbeTrigger::CrossVerify { origin },
            plain => plain,
        };
        ProbeRecord {
            at: SimTime::from_secs(time >> (1 + shape % 63)),
            market: golden_market(pick as usize % 24),
            kind: all_kinds()[(shape >> 4) as usize % 3],
            trigger,
            outcome: all_outcomes()[(shape >> 12) as usize % 6],
            spot_ratio,
            bid: (shape >> 16 & 1 == 1).then(|| Price::from_micros(pick >> 40)),
            cost: Price::from_micros(shape >> 30),
        }
    }

    /// A spike that repeats `p`, a `PriceSpike` probe, or (`miss` 2–4)
    /// just misses it: unprobed, its ratio one bit off (a NaN's payload,
    /// a zero's sign), or a second off.
    fn repeated_spike(p: &ProbeRecord, miss: u64) -> SpikeEvent {
        let s = repeated(p).expect("a `PriceSpike` probe");
        let (bits, secs) = (s.ratio.to_bits(), s.at.as_secs());
        let flip = if s.ratio == 0.0 { 1 << 63 } else { 1 };
        SpikeEvent {
            at: SimTime::from_secs(if miss == 4 { secs ^ 1 } else { secs }),
            ratio: f64::from_bits(if miss == 3 { bits ^ flip } else { bits }),
            probed: miss != 2,
            ..s
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random slabs, empty ones included, come back bit for bit from
        // the slab form: times in any order, every trigger, markets and
        // origins new and repeated, NaN and signed-zero ratios elided or
        // written, and spikes drawn, repeating a `PriceSpike` probe or
        // just missing one — twins (a second `PriceSpike` probe of the
        // same market and second, another ratio) included. Compared as
        // record encodings, so a NaN's payload and a zero's sign count.
        #[test]
        fn slab_form_round_trips_bit_for_bit(
            drawn in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..48),
            twins in proptest::collection::vec(any::<u64>(), 0..8),
            spiked in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        ) {
            let mut probes: Vec<ProbeRecord> =
                drawn.iter().map(|&(time, pick, shape)| drawn_probe(time, pick, shape)).collect();
            for &twin in twins.iter().filter(|_| !drawn.is_empty()) {
                let p = probes[twin as usize % probes.len()];
                let at = (twin >> 16) as usize % (probes.len() + 1);
                for bits in [p.spot_ratio.to_bits(), p.spot_ratio.to_bits() ^ (twin >> 8 | 1)] {
                    let trigger = ProbeTrigger::PriceSpike { ratio: f64::from_bits(bits) };
                    probes.insert(at, ProbeRecord { trigger, ..p });
                }
            }
            let spiky: Vec<&ProbeRecord> = (probes.iter())
                .filter(|p| matches!(p.trigger, ProbeTrigger::PriceSpike { .. }))
                .collect();
            let spikes: Vec<SpikeEvent> = (spiked.iter())
                .map(|&(time, pick)| match pick >> 13 & 7 {
                    miss @ 0..=4 if !spiky.is_empty() => {
                        repeated_spike(spiky[time as usize % spiky.len()], miss)
                    }
                    _ => SpikeEvent {
                        at: SimTime::from_secs(time >> (1 + pick % 63)),
                        market: golden_market((pick >> 6) as usize % 24),
                        ratio: drawn_probe(0, pick, 0).spot_ratio,
                        probed: pick >> 12 & 1 == 1,
                    },
                })
                .collect();
            let mut bytes = Vec::new();
            write_slabs(probes.iter(), spikes.iter(), &mut bytes);
            let mut r = Reader::new(&bytes);
            let (back, spikes_back) = read_slabs(&mut r).expect("decodes");
            prop_assert_eq!(r.remaining(), 0);
            let wire = |p: &ProbeRecord| p.to_bytes();
            prop_assert!(back.iter().map(wire).eq(probes.iter().map(wire)));
            let wire = |s: &SpikeEvent| s.to_bytes();
            prop_assert!(spikes_back.iter().map(wire).eq(spikes.iter().map(wire)));
        }
    }

    /// Slabs a hostile or damaged section holds are decode errors, never
    /// a panic: a market reference past the table, a time delta that
    /// leaves `u64` either way, a spike reference past the probe slab,
    /// to a probe of another trigger or leaving `usize`, a ratio flag on
    /// a trigger without a ratio, and a section cut at any byte.
    /// `decode_stripe` refuses each of them in a stripe section.
    #[test]
    fn hostile_slabs_are_decode_errors() {
        // No probes, then spikes of one market in full at the given
        // deltas, its references as given after the first record's
        // literal.
        let spikes = |deltas: &[i64], references: usize| {
            let mut out = vec![0];
            deltas.len().encode(&mut out);
            for (i, &delta) in deltas.iter().enumerate() {
                (0u64, zigzag(delta)).encode(&mut out);
                match i {
                    0 => (0usize, market(0)).encode(&mut out),
                    _ => references.encode(&mut out),
                }
                (2.5f64, true).encode(&mut out);
            }
            out
        };
        let decoded = |bytes: &[u8]| read_slabs(&mut Reader::new(bytes));
        let top = (1u64 << 63) - 1;
        let (_, fine) = decoded(&spikes(&[i64::MAX, i64::MAX], 1)).expect("at the edge");
        let times: Vec<u64> = fine.iter().map(|s| s.at.as_secs()).collect();
        assert_eq!(times, [top, 2 * top]);
        // One probe of `trigger`, then one spike of form `n`.
        let referring = |trigger, n: u64| {
            let p = ProbeRecord {
                trigger,
                ..probe(60, market(0), ProbeOutcome::Fulfilled)
            };
            let mut out = Vec::new();
            write_slabs([p].iter(), [].iter(), &mut out);
            out.pop(); // the empty spike slab's count
            (1usize, n).encode(&mut out);
            out
        };
        let spike = ProbeTrigger::PriceSpike { ratio: 2.5 };
        let (_, rebuilt) = decoded(&referring(spike, 1)).expect("a reference");
        let want = SpikeEvent {
            market: market(0),
            at: SimTime::from_secs(60),
            ratio: 2.5,
            probed: true,
        };
        assert!(rebuilt.iter().eq([want].iter()));
        let invalid = |what| Err::<(), _>(DecodeError::Invalid(what));
        // The stripe around them: an empty stripe's slabs are two zeros.
        let rest = Stripe::default().to_bytes()[2..].to_vec();
        for (bytes, what) in [
            (spikes(&[i64::MAX, i64::MAX, 2], 1), "time delta"),
            (spikes(&[-1], 1), "time delta"),
            (spikes(&[60, 60], 2), "market reference"),
            (referring(spike, 1 + zigzag(1)), "spike reference"),
            (referring(ProbeTrigger::Recovery, 1), "spike reference"),
            (referring(spike, 1 + zigzag(-1)), "spike reference"),
        ] {
            assert_eq!(decoded(&bytes).map(drop), invalid(what), "{what}");
            let stripe = [bytes, rest.clone()].concat();
            assert_eq!(decode_stripe(&stripe).map(drop), invalid(what), "{what}");
        }
        // A probe whose `Recovery` or `CrossVerify` tag carries the flag.
        for tag in [3u8, 5] {
            let mut bytes = vec![1, 0];
            (0usize, market(0)).encode(&mut bytes);
            (ProbeKind::Spot, ProbeOutcome::Fulfilled).encode(&mut bytes);
            (2.0f64, tag | RATIO_ELIDED).encode(&mut bytes);
            1usize.encode(&mut bytes);
            assert_eq!(
                decoded(&bytes).map(drop),
                invalid("probe trigger tag"),
                "tag {tag}"
            );
        }
        // Every truncation of a real section, slab form and all: an
        // error, and a refused stripe.
        let store = DataStore::new();
        let mates = stripe_mates(4);
        for (i, trigger) in all_triggers().into_iter().enumerate() {
            let mut p = probe(
                7_200 - i as u64 * 300,
                mates[i % 4],
                ProbeOutcome::Fulfilled,
            );
            p.trigger = trigger;
            store.record_probe(p);
            store.record_spike(SpikeEvent {
                market: mates[i % 3],
                at: p.at,
                ratio: 2.0,
                probed: true,
            });
        }
        let stripe = store.stripes[stripe_index(market(0))].read();
        let mut slabs = Vec::new();
        write_slabs(stripe.probes.iter(), stripe.spikes.iter(), &mut slabs);
        for cut in 0..slabs.len() {
            assert!(decoded(&slabs[..cut]).is_err(), "slabs cut at {cut}");
        }
        let bytes = stripe.to_bytes();
        assert!(bytes.starts_with(&slabs) && decode_stripe(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(decode_stripe(&bytes[..cut]).is_err(), "stripe cut at {cut}");
        }
    }

    /// Production's spikes are references: each repeats the
    /// `PriceSpike` probe the policy just recorded. On a durable engine
    /// run of the testbed, compacted and checkpointed after a day, then
    /// recovered from the checkpoint and a day's tail, every checkpoint
    /// stripe section's and every recovered stripe's spikes add at most
    /// 2 bytes apiece to its slabs (the full form takes ~13).
    #[test]
    fn production_spikes_cost_at_most_two_bytes_each() {
        use crate::{SpotLight, SpotLightConfig};
        use cloud_sim::{catalog::Catalog, config::SimConfig, engine::Engine};

        let tmp = TempDir::new("durable-spike-refs");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        let store: crate::store::SharedStore = Arc::new(store);
        let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(31));
        engine.cloud_mut().warmup(20);
        let agent = SpotLight::new(SpotLightConfig::default(), store.clone());
        engine.add_agent(Box::new(agent));
        engine.run_until(SimTime::ZERO + SimDuration::days(1));
        let compacted = store.compact(SimTime::ZERO + HOUR * 12);
        assert!(compacted.dropped_spikes > 0, "{compacted:?}");
        store.checkpoint().expect("checkpoint");
        engine.run_until(SimTime::ZERO + SimDuration::days(2));
        drop((engine, store)); // no clean close: recovery replays the tail

        let recovered = DataStore::recover(&dir).expect("recover");
        let log = &recovered.durable.as_ref().expect("durable").dir;
        let checkpoint = log.read_checkpoint().expect("read").expect("a checkpoint");
        let checkpointed = checkpoint[1..]
            .iter()
            .map(|section| decode_stripe(section).expect("stripe"));
        let resident = recovered.stripes.iter().map(|stripe| stripe.read().clone());
        let slabs = |s: Stripe| -> (Vec<ProbeRecord>, Vec<SpikeEvent>) {
            (
                s.probes.iter().copied().collect(),
                s.spikes.iter().copied().collect(),
            )
        };
        let sections: Vec<_> = checkpointed.chain(resident).map(slabs).collect();
        let mut spikes = 0;
        for (i, (probes, spiked)) in sections.iter().enumerate() {
            let (mut with, mut without) = (Vec::new(), Vec::new());
            write_slabs(probes.iter(), spiked.iter(), &mut with);
            write_slabs(probes.iter(), [].iter(), &mut without);
            let cost = with.len() - without.len();
            assert!(
                cost <= 2 * spiked.len(),
                "section {i}: {cost} B, {} spikes",
                spiked.len()
            );
            spikes += spiked.len();
        }
        assert!(spikes >= 100, "{spikes} spikes");
    }

    /// Every WAL generation present with its file's length.
    fn wal_bytes(log: &LogDir) -> Vec<(u64, u64)> {
        log.list_wal()
            .expect("list")
            .into_iter()
            .map(|generation| {
                let len = std::fs::metadata(log.wal_path(generation))
                    .expect("wal file")
                    .len();
                (generation, len)
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
                wal.iter().all(|&(generation, _)| generation >= floor),
                "a generation below the floor {floor} survived: {wal:?}"
            );
            // Quiescent: what is left of the log is at most the file
            // header of the floor generation (its file is created on
            // first append, so here: nothing), and the directory is
            // checkpoint + header.
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
            assert_eq!(
                store.disk_bytes().expect("disk bytes"),
                named("checkpoint") + named("header") + wal_total
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
        let generations: Vec<u64> = wal_bytes(&d.dir).iter().map(|&(g, _)| g).collect();
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
        assert_eq!(a.last_informative, b.last_informative);
        assert_eq!(a.disordered, b.disordered);
        assert_eq!(a.rejection_times, b.rejection_times);
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
        let store = DataStore::new();
        let mates = stripe_mates(3);
        for t in 0..300u64 {
            let outcome = match t % 7 {
                0 | 1 => ProbeOutcome::InsufficientCapacity,
                2 => ProbeOutcome::ApiLimited,
                _ => ProbeOutcome::Fulfilled,
            };
            let mut p = probe(t * 1700, mates[t as usize % 3], outcome);
            if t % 2 == 1 {
                p.kind = ProbeKind::Spot;
                p.bid = Some(Price::from_dollars(0.25));
            }
            store.record_probe(p);
        }
        for t in 0..20u64 {
            store.record_spike(SpikeEvent {
                market: mates[t as usize % 3],
                at: SimTime::from_secs(t * 9000),
                ratio: 1.5 + t as f64 / 8.0,
                probed: t % 2 == 0,
            });
        }
        store.record_revocation(RevocationRecord {
            market: mates[1],
            acquired_at: SimTime::from_secs(5),
            bid: Price::from_dollars(0.3),
            revoked_at: Some(SimTime::from_secs(u64::from(u32::MAX) + 9)),
            released_at: None,
        });
        store.record_intrinsic_bid(IntrinsicBidRecord {
            market: mates[2],
            at: SimTime::from_secs(80),
            published: Price::from_dollars(0.09),
            intrinsic: Price::from_micros(u64::MAX),
            attempts: u32::MAX,
        });
        store.compact(SimTime::from_secs(100 * 1700));

        let original = store.stripes[stripe_index(market(0))].read();
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
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
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
        let log = LogDir::open(&dir).expect("open");
        let sections = log.read_checkpoint().expect("read").expect("a checkpoint");
        let section = 1 + stripe_index(market(0));
        let good = Stripe::from_bytes(&sections[section]).expect("the stripe decodes");
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
                "listed interval" => state.intervals.push(IndexEntry {
                    pos: past,
                    closed_before: 0,
                }),
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
            damaged[section] = stripe.to_bytes();
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

    /// The span sums read a key's `closed_before` values and, for an
    /// ordered key, trust its intervals to be start-sorted and
    /// non-overlapping. A stripe whose prefix sums are not the running
    /// sums of its intervals, whose open interval is not its index's
    /// last, or whose ordered key goes back in time would answer wrong
    /// counts (or underflow): each is refused. The same intervals
    /// flagged disordered load, since those keys are walked.
    #[test]
    fn decode_stripe_refuses_prefix_sums_and_orders_the_span_sums_would_misread() {
        let store = DataStore::new();
        let key = (market(0), ProbeKind::OnDemand);
        // Closed [100, 700), [1000, 1900) and [3000, 3050), open from 4000.
        for (at, outcome) in [
            (100, ProbeOutcome::InsufficientCapacity),
            (700, ProbeOutcome::Fulfilled),
            (1000, ProbeOutcome::CapacityNotAvailable),
            (1900, ProbeOutcome::Fulfilled),
            (3000, ProbeOutcome::InsufficientCapacity),
            (3050, ProbeOutcome::Fulfilled),
            (4000, ProbeOutcome::InsufficientCapacity),
        ] {
            store.record_probe(probe(at, market(0), outcome));
        }
        let good = store.stripes[stripe_index(market(0))].read().clone();
        let sums = |s: &Stripe| -> Vec<u64> {
            s.keys[&key]
                .intervals
                .iter()
                .map(|e| e.closed_before)
                .collect()
        };
        assert_eq!(sums(&good), [0, 600, 1500, 1550]);
        assert!(decode_stripe(&good.to_bytes()).is_ok());
        // Rewrites a key's prefix sums as its intervals' running sums.
        let resum = |s: &mut Stripe| {
            let mut sum = 0;
            let state = s.keys.get_mut(&key).expect("the key");
            for entry in state.intervals.as_mut_slice() {
                entry.closed_before = sum;
                sum += closed_secs(&s.intervals[entry.pos]);
            }
        };
        for (what, refusal) in [
            ("a sum off by one", "closed seconds before"),
            ("a sum past u64", "closed seconds before"),
            ("the open interval first", "open interval"),
            ("intervals reversed", "interval order"),
            ("intervals overlapping", "interval order"),
            ("an interval ending before it starts", "interval order"),
        ] {
            let mut stripe = good.clone();
            let state = stripe.keys.get_mut(&key).expect("the key");
            let first = state.intervals[0].pos;
            match what {
                "a sum off by one" => state.intervals.as_mut_slice()[2].closed_before += 1,
                "a sum past u64" => {
                    // The first interval's seconds are right; adding the
                    // second's overflows.
                    state.intervals.as_mut_slice()[1].closed_before = u64::MAX - 100;
                    stripe.intervals[first].end = Some(SimTime::from_secs(u64::MAX));
                }
                "the open interval first" => state.open = Some(first),
                "intervals reversed" => {
                    let reversed: Vec<_> = state.intervals.iter().rev().map(|e| e.pos).collect();
                    for (entry, pos) in state.intervals.as_mut_slice().iter_mut().zip(reversed) {
                        entry.pos = pos;
                    }
                    state.open = state.intervals.last().map(|e| e.pos);
                    resum(&mut stripe);
                }
                "intervals overlapping" => {
                    stripe.intervals[first].end = Some(SimTime::from_secs(1200));
                    resum(&mut stripe);
                }
                _ => {
                    stripe.intervals[first].end = Some(SimTime::from_secs(50));
                    resum(&mut stripe);
                }
            }
            let bytes = stripe.to_bytes();
            assert_eq!(
                decode_stripe(&bytes).err(),
                Some(DecodeError::Invalid(refusal)),
                "{what}"
            );
            if refusal == "interval order" {
                stripe.keys.get_mut(&key).expect("the key").disordered = true;
                assert!(
                    decode_stripe(&stripe.to_bytes()).is_ok(),
                    "{what}, disordered"
                );
            }
        }
    }

    /// A checkpoint holds one meta section and one per stripe. Nothing
    /// else on disk names the layout, so recovery refuses a checkpoint
    /// of any other section count with `InvalidData`, and loads the
    /// unmutated one.
    #[test]
    fn recovery_refuses_a_checkpoint_of_another_section_count() {
        let tmp = TempDir::new("durable-section-count");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        store.record_probe(probe(60, market(0), ProbeOutcome::Fulfilled));
        store.close().expect("close");
        let log = LogDir::open(&dir).expect("open");
        let sections = log.read_checkpoint().expect("read").expect("a checkpoint");
        assert_eq!(sections.len(), STRIPES + 1);
        for count in [STRIPES, STRIPES + 2] {
            let mut other = sections.clone();
            other.resize(count, Stripe::default().to_bytes());
            log.write_checkpoint(&other).expect("write");
            let err = DataStore::recover(&dir).expect_err("another section count");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{count}: {err}");
            assert_eq!(err.to_string(), "checkpoint section count mismatch");
        }
        log.write_checkpoint(&sections).expect("restore");
        let recovered = DataStore::recover(&dir).expect("the unmutated checkpoint loads");
        assert_eq!(recovered.len(), 1);
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
        io.written() - 8 // minus the generation file header
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

        // The window is exhausted, so the heal — due at the first tend
        // after the surrender — goes through.
        assert!(io.exhausted());
        let now = crate::test_epoch();
        assert!(store.tend_durability(now).expect("heal"), "heal ran");
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Durable));
        assert_eq!(store.durability_lost(), None);
        let stats = store.durability_stats().expect("stats");
        assert_eq!(stats.heals, 1);
        assert_eq!(stats.checkpoints, 1);
        // Nothing to do when healthy.
        assert!(!store.tend_durability(now).expect("idle tend"));

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
    /// is behind it, so the next append observes the degraded writer.
    /// The window is exhausted, so the next heal goes through — unless
    /// `heal_fails`, when it takes the first heal's checkpoint write too.
    fn store_on_a_full_disk(dir: &Path, heal_fails: bool) -> DataStore {
        let flush_len = measured_flush_len(PROBES);
        let attempts = if heal_fails { 3 } else { 2 };
        let io = Arc::new(FaultyDisk::scripted(vec![FaultWindow {
            kind: FaultKind::WriteEnospc,
            from: 8,
            to: 8 + attempts * flush_len + 1,
        }]));
        let store = DataStore::create_durable(
            dir,
            DurableOptions {
                fsync: FsyncPolicy::Never,
                io: Some(io as Arc<dyn DiskIo>),
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
        let store = store_on_a_full_disk(&dir, true);
        store.record_probe(probe(PROBES * 60, market(2), ProbeOutcome::Fulfilled));
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Degraded));
        // The first heal fails; a tend would now have to wait out the
        // backoff, and close ignores it.
        let now = crate::test_epoch();
        let err = store
            .tend_durability(now)
            .expect_err("the disk is still full");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC surfaces: {err}");
        let soon = now + HEAL_RETRY_BASE;
        assert!(!store.tend_durability(soon).expect("backoff holds"));
        assert_eq!(store.durability_mode(), Some(DurabilityMode::Degraded));
        assert!(store.durability_lost().is_some());
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
            let store = store_on_a_full_disk(&dir, false);
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
            let now = crate::test_epoch();
            assert!(store.tend_durability(now).expect("heal"), "heal ran");
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
        if finished.recv_timeout(std::time::Duration::from_secs(30))
            == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
        {
            panic!("still running after 30 s: something durable waits for the view");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Every durable path — the log writer, a checkpoint — counts its
    /// failures once in one error record, whose last error is the
    /// latest: a checkpoint's does not hide a later WAL failure, and a
    /// failed checkpoint write is counted and named.
    #[test]
    fn one_error_record_names_the_latest_failure_of_every_durable_path() {
        // On a flushed, quiescent store: two checkpoints, then one more
        // flushed batch. Returns the write positions of each checkpoint
        // and the end of the batch, which the same script on a healthy
        // disk finds.
        let run = |windows: Vec<FaultWindow>, dir: &Path| {
            let io = Arc::new(FaultyDisk::scripted(windows));
            let opts = DurableOptions {
                fsync: FsyncPolicy::Never,
                io: Some(io.clone() as Arc<dyn DiskIo>),
                ..DurableOptions::default()
            };
            let store = DataStore::create_durable(dir, opts).expect("create");
            for t in 0..20u64 {
                store.record_probe(probe(t * 60, market(0), ProbeOutcome::Fulfilled));
            }
            store.flush().expect("flush");
            let errors = || store.durability_stats().expect("stats").io_errors;
            let last = || store.durability_stats().expect("stats").last_error;
            let at_checkpoint = io.written();
            let checkpoint = store.checkpoint();
            let after_checkpoint = (errors(), last());
            let at_second = io.written();
            let second = store.checkpoint();
            let after_second = (errors(), last());
            store.record_probe(probe(3600, market(1), ProbeOutcome::Fulfilled));
            let flushed = store.flush();
            let positions = [at_checkpoint, at_second, io.written()];
            (
                positions,
                [checkpoint, second],
                flushed,
                after_checkpoint,
                after_second,
                (errors(), last()),
            )
        };
        let tmp = TempDir::new("durable-one-error-record");
        let (at, [checkpoint, second], flushed, _, _, (errors, last)) =
            run(Vec::new(), &tmp.path().join("a"));
        assert!(checkpoint.is_ok() && second.is_ok() && flushed.is_ok());
        assert_eq!((errors, last), (0, None));

        let window = |kind, from| FaultWindow {
            kind,
            from,
            to: from + 1,
        };
        let faults = vec![
            window(FaultKind::WriteEnospc, at[0]),
            window(FaultKind::WriteEio, at[1]),
            // The batch's last byte: its first attempt fails, the retry
            // lands past the window.
            window(FaultKind::WriteEnospc, at[2] - 1),
        ];
        let (again, [checkpoint, second], flushed, after_checkpoint, after_second, after_wal) =
            run(faults, &tmp.path().join("b"));
        assert_eq!(again[..2], at[..2], "the script is deterministic");
        assert_eq!(checkpoint.expect_err("ENOSPC").raw_os_error(), Some(28));
        assert_eq!(second.expect_err("EIO").raw_os_error(), Some(5));
        let named = |(errors, last): (u64, Option<String>), what: &str, os: &str| {
            let last = last.expect("an error was recorded");
            assert!(
                last.starts_with(what) && last.ends_with(os),
                "{what}: {last}"
            );
            errors
        };
        assert_eq!(named(after_checkpoint, "checkpoint: ", "(os error 28)"), 1);
        assert_eq!(named(after_second, "checkpoint: ", "(os error 5)"), 2);
        assert!(flushed.is_err(), "the flush reports the failed attempt");
        assert_eq!(named(after_wal, "wal append: ", "(os error 28)"), 3);
    }

    #[test]
    fn checkpoint_on_in_memory_store_is_unsupported() {
        let store = DataStore::new();
        assert!(store.flush().is_ok());
        assert_eq!(store.durability_stats(), None);
        assert_eq!(store.disk_bytes(), None);
        assert_eq!(
            store.checkpoint().expect_err("must fail").kind(),
            io::ErrorKind::Unsupported
        );
    }
}
