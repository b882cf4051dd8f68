//! The live condition: one writer thread ingesting into the served
//! store open-loop at a paced rate, and — the ROADMAP's publisher
//! shape — handing `hub.republish` to the shared pool every 200 ms.

use crate::gen::{Gen, Op};
use crate::trace::{self, ROOT};
use cloud_sim::time::SimTime;
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::SharedStore;
use spotlight_pool::WorkerPool;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered ingest rate, probes per second (their spikes ride along).
pub const PACE_PROBES_PER_S: f64 = 20_000.0;
pub const PUBLISH_EVERY: Duration = Duration::from_millis(200);
const TICK: Duration = Duration::from_millis(1);
/// A probe ingested later than this after it was due has missed the
/// schedule and counts as a failed operation (the limit a freshness
/// sentinel has, too). On the baseline the writer is held up for
/// 100-200 ms a few times per run; a writer that cannot keep its pace
/// is seconds behind within seconds.
pub const LATE_LIMIT_MS: f64 = 2_000.0;

/// What the writer does right now; set by the phase driver.
pub const PAUSED: u8 = 0;
/// Ingest at pace and republish periodically (query phases).
pub const INGEST_AND_PUBLISH: u8 = 1;
/// Ingest at pace only: the freshness phase publishes per sentinel.
pub const INGEST: u8 = 2;
const STOP: u8 = 3;

/// An open-loop schedule at [`PACE_PROBES_PER_S`]: how many probes are
/// due and not yet ingested, and how late the oldest of them is.
#[derive(Debug)]
pub struct Pacer {
    started: Instant,
    ingested: u64,
}

impl Pacer {
    pub fn start() -> Pacer {
        Pacer {
            started: Instant::now(),
            ingested: 0,
        }
    }

    /// Probes the schedule has called for by now.
    pub fn due(&self) -> u64 {
        (self.started.elapsed().as_secs_f64() * PACE_PROBES_PER_S) as u64
    }

    /// `(probes pending, lateness of the oldest in milliseconds)`, if
    /// any are due.
    pub fn pending(&self) -> Option<(u64, f64)> {
        let due = self.due();
        (due > self.ingested).then(|| {
            let oldest_due = self.started
                + Duration::from_secs_f64((self.ingested + 1) as f64 / PACE_PROBES_PER_S);
            (
                due - self.ingested,
                oldest_due.elapsed().as_nanos() as f64 / 1e6,
            )
        })
    }

    pub fn ingested(&mut self, probes: u64) {
        self.ingested += probes;
    }
}

/// What the writer measured over its active periods.
#[derive(Debug, Default)]
pub struct LiveReport {
    /// What the schedule called for: active time x pace, whatever was
    /// ingested.
    pub offered_probes: u64,
    pub ingested_probes: u64,
    /// Of those, the ones ingested more than [`LATE_LIMIT_MS`] late.
    pub late_probes: u64,
    pub ingested_ops: u64,
    /// How late each batch ran behind its due time, milliseconds.
    pub lag_ms: Vec<f64>,
    pub publishes: u64,
}

pub struct LiveWriter {
    mode: Arc<AtomicU8>,
    /// The mode the writer has taken up — and, for the modes that do
    /// not publish, only once no periodic publish is in flight.
    acked: Arc<AtomicU8>,
    handle: JoinHandle<(LiveReport, Gen)>,
}

impl LiveWriter {
    pub fn start(
        store: SharedStore,
        hub: Arc<SnapshotHub>,
        as_of: Arc<AtomicU64>,
        mut gen: Gen,
    ) -> LiveWriter {
        // SeqCst: the mode gates which thread may publish; the driver
        // must see its own switch take effect before the next phase.
        let mode = Arc::new(AtomicU8::new(PAUSED));
        let acked = Arc::new(AtomicU8::new(PAUSED));
        let (thread_mode, thread_acked) = (Arc::clone(&mode), Arc::clone(&acked));
        let handle = std::thread::Builder::new()
            .name("live-writer".into())
            .spawn(move || {
                let pool = WorkerPool::global();
                let publishing = Arc::new(AtomicBool::new(false));
                let mut report = LiveReport::default();
                let mut ops: Vec<Op> = Vec::new();
                // The schedule of the current active period.
                let mut period: Option<Pacer> = None;
                let mut last_publish = Instant::now();
                loop {
                    let mode = thread_mode.load(Ordering::SeqCst);
                    // Ingest whatever is due by now — also when told to
                    // pause or stop, so that nothing offered is dropped
                    // and lateness shows as lag, not as a shortfall.
                    if let Some(pacer) = period.as_mut() {
                        if let Some((pending, lag_ms)) = pacer.pending() {
                            report.lag_ms.push(lag_ms);
                            let before = gen.probes;
                            ops.clear();
                            gen.fill(&mut ops, pending);
                            for op in &ops {
                                op.apply(&store);
                            }
                            let ingested = gen.probes - before;
                            pacer.ingested(ingested);
                            report.ingested_probes += ingested;
                            report.ingested_ops += ops.len() as u64;
                            if lag_ms > LATE_LIMIT_MS {
                                report.late_probes += ingested;
                            }
                        }
                        // The period ends here: what it offered is what
                        // its clock says, not what got ingested.
                        if mode == PAUSED || mode == STOP {
                            report.offered_probes += pacer.due();
                            period = None;
                        }
                    }
                    if mode == STOP {
                        break;
                    }
                    if mode == INGEST_AND_PUBLISH || !publishing.load(Ordering::SeqCst) {
                        thread_acked.store(mode, Ordering::SeqCst);
                    }
                    if mode == PAUSED {
                        std::thread::sleep(TICK);
                        continue;
                    }
                    period.get_or_insert_with(Pacer::start);
                    if mode == INGEST_AND_PUBLISH
                        && last_publish.elapsed() >= PUBLISH_EVERY
                        && !publishing.swap(true, Ordering::SeqCst)
                    {
                        last_publish = Instant::now();
                        report.publishes += 1;
                        let now = as_of.fetch_max(gen.now_secs(), Ordering::SeqCst);
                        let as_of = SimTime::from_secs(now.max(gen.now_secs()));
                        let (store, hub) = (Arc::clone(&store), Arc::clone(&hub));
                        let publishing = Arc::clone(&publishing);
                        let spawned = pool.spawn(move || {
                            trace::span("snapshot.republish", ROOT, trace::new_op(), |_| {
                                hub.republish(&store, as_of)
                            });
                            publishing.store(false, Ordering::SeqCst);
                        });
                        if spawned.is_err() {
                            break;
                        }
                    }
                    std::thread::sleep(TICK);
                }
                // Let an in-flight publish finish before the store's
                // owner tears the service down.
                while publishing.load(Ordering::SeqCst) {
                    std::thread::sleep(TICK);
                }
                (report, gen)
            })
            .expect("spawn live writer");
        LiveWriter {
            mode,
            acked,
            handle,
        }
    }

    /// Switches the writer and waits until it has: a sentinel's
    /// republish must never race a periodic one carrying older data.
    pub fn set_mode(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
        while self.acked.load(Ordering::SeqCst) != mode {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the writer; returns its report and the op stream, ready
    /// to be continued.
    pub fn stop(self) -> (LiveReport, Gen) {
        self.mode.store(STOP, Ordering::SeqCst);
        self.handle.join().expect("live writer thread")
    }
}
