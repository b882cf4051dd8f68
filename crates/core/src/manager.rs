//! The live deployment: Chapter 4's hierarchical managers under one
//! clock, hardened against a misbehaving cloud.
//!
//! The paper's prototype ran region managers (one per region, batching
//! state polls and enforcing service limits), per-market probe managers,
//! and a database manager that serialized all writes. This module
//! reproduces that shape with real concurrency:
//!
//! * a [`LiveDriver`] owns the cloud and the clock: each
//!   [`LiveDriver::step`] advances the cloud one tick, routes the
//!   tick's events per region, and runs every region manager's batch as
//!   a task of one [`WorkerPool::scope`], whose join barrier holds the
//!   clock until all are done. Whatever else must ride that clock (a
//!   publisher, a checkpointer, a shutdown) goes between two `step`s:
//!   `spotlight_serve::Service` is that loop, with an hourly republish
//!   and a daily checkpoint and compaction, and `spotlightd` runs it
//!   until its stdin closes;
//! * **region managers** (one per region, concurrent within a step) each
//!   run their region's instance of the policy the engine's
//!   [`crate::spotlight::SpotLight`] hosts, through their own transport.
//!
//! # The retry/breaker pipeline
//!
//! An always-on information service cannot assume a polite cloud (see
//! [`cloud_sim::chaos`] for the faults it must survive), so every probe
//! goes through a resilience pipeline:
//!
//! 1. **Error classification** — [`cloud_sim::api::ApiError::is_retryable`]
//!    splits failures into endpoint conditions (throttling, outages,
//!    transient server errors) and terminal answers. A retryable failure
//!    is a missing observation, not a negative one.
//! 2. **Backoff queue** — retryable failures re-enter a per-region
//!    pending queue with jittered exponential backoff and a per-probe
//!    attempt budget ([`ResilienceConfig::retry_budget`]); only when the
//!    budget is exhausted is the probe answered
//!    [`crate::probe::ProbeOutcome::ApiLimited`]. The queue is bounded
//!    ([`ResilienceConfig::max_pending`]); overflow abandons the oldest
//!    intent (counted, and recorded as suppressed). A parked probe that
//!    lands, and the spike it confirms, carry the time of that tick.
//! 3. **Circuit breaker** — consecutive transport failures trip a
//!    per-region breaker: the worker stops hammering the dead endpoint,
//!    marks the region degraded in the store
//!    ([`crate::store::DataStore::mark_region_degraded`]), and half-opens
//!    on a schedule to send trial probes. The first success closes the
//!    breaker and marks the region recovered, so staleness-aware
//!    queries ([`crate::query::SpotLightQuery::freshness`]) can tell
//!    "available" from "we could not look".
//! 4. **Orphan reaping** — a probe whose launch (or spot request)
//!    succeeded but whose terminate (or cancel) failed would hold a
//!    service-limit slot forever; such resources enter a worker-local
//!    orphan list retried every batch.
//! 5. **Supervision** — each region manager catches panics at the batch
//!    boundary: a crash while handling one tick's events is counted
//!    ([`LiveReport::worker_panics`]), fed to the circuit breaker, and
//!    the manager carries on with its pending queue, policy state, wake
//!    list, and orphan list intact. A manager is a plain value the
//!    driver owns, not a thread: nothing can die between batches.
//!
//! The driver also tends the store's durability each tick
//! ([`crate::store::DataStore::tend_durability`]): when disk faults
//! degrade the durable log, heals — WAL re-establishment plus a full
//! checkpoint — run on the driver's clock, never on an ingest path. The
//! driver supplies the wall clock the heal backoff is measured on: live
//! mode's one wall-clock read.
//!
//! The paper's *database manager* — a thread serializing every write —
//! is subsumed by the lock-striped [`SharedStore`]: region managers
//! record probes and spikes directly, and only writers hitting the same
//! market-hash stripe contend. Each worker also keeps its own clone of
//! the immutable catalog, so price and sibling lookups never touch the
//! cloud lock; the cloud is locked only for API calls and published
//! prices.
//!
//! # The engine twin
//!
//! A manager handles a tick's events before the wake-ups due at it, as
//! the engine does; a wake-up between two ticks lands on the next one.
//! With no faults and an API limit that cannot bind nothing is parked,
//! and a live run records the per-market probe and spike histories of an
//! engine run without spot checks, spot probes included
//! (`tests/live_mode.rs::live_and_engine_hosts_record_identical_histories`).
//! A manager's calls touch only its region's shard, token bucket, chaos
//! stream, sampling stream (seeded from the run's seed and the region)
//! and jitter RNG, so those histories and the [`LiveReport`] are
//! seed-deterministic at any interleaving; the order of *different*
//! regions' records in the store's slabs is not.

use crate::policy::PolicyConfig;
use crate::spotlight::{call, Answer, Orphan, Policy, Port, Probe, API_LIMITED};
use crate::store::SharedStore;
use crate::sync::Mutex;
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::{Cloud, CloudEvent};
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_pool::WorkerPool;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Knobs of the per-region retry/breaker pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Maximum transport attempts per probe (first try + retries).
    /// When exhausted the probe is recorded as
    /// [`crate::probe::ProbeOutcome::ApiLimited`].
    pub retry_budget: u32,
    /// Base backoff delay; attempt `n` waits `base × 2^n`, jittered
    /// ±50%, capped at [`ResilienceConfig::retry_cap`].
    pub retry_base: SimDuration,
    /// Upper bound on a single backoff delay.
    pub retry_cap: SimDuration,
    /// Bound on the per-region pending-retry queue; overflow abandons
    /// the probe intent (counted in [`LiveReport::probes_abandoned`]).
    pub max_pending: usize,
    /// Consecutive transport failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening to
    /// send a trial probe.
    pub breaker_cooldown: SimDuration,
    /// Test knob: make the worker panic on every Nth event batch, to
    /// exercise the supervision path. `None` (the default) never
    /// panics.
    #[doc(hidden)]
    pub chaos_panic_period: Option<u64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry_budget: 4,
            retry_base: SimDuration::from_secs(300),
            retry_cap: SimDuration::from_secs(3600),
            max_pending: 256,
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::from_secs(1800),
            chaos_panic_period: None,
        }
    }
}

impl ResilienceConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.retry_budget == 0 {
            return Err("retry_budget must be at least 1".into());
        }
        if self.retry_base.is_zero() {
            return Err("retry_base must be positive".into());
        }
        if self.max_pending == 0 {
            return Err("max_pending must be at least 1".into());
        }
        if self.breaker_threshold == 0 {
            return Err("breaker_threshold must be at least 1".into());
        }
        Ok(())
    }
}

/// Summary of a live run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveReport {
    /// Probes recorded.
    pub probes: usize,
    /// Probes issued per region.
    pub per_region_probes: BTreeMap<Region, usize>,
    /// Ticks driven.
    pub ticks: u64,
    /// Retry attempts dispatched from the pending queues.
    pub retries_issued: u64,
    /// Probe intents dropped because a pending queue overflowed.
    pub probes_abandoned: u64,
    /// Circuit-breaker trips across all regions.
    pub breaker_trips: u64,
    /// Seconds each region spent with its breaker open or half-open
    /// (only regions that degraded at all appear).
    pub degraded_secs: BTreeMap<Region, u64>,
    /// Worker panics the supervisors caught (the worker kept running
    /// with its pending queue intact).
    pub worker_panics: u64,
}

/// A probe waiting in the backoff queue.
#[derive(Debug, Clone, Copy)]
struct PendingProbe {
    probe: Probe,
    due: SimTime,
    /// Transport attempts already spent on this probe.
    attempt: u32,
}

/// Circuit-breaker state of one region's transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Transport healthy; calls flow.
    Closed,
    /// Tripped: no calls until `until`.
    Open { until: SimTime },
    /// Cooldown elapsed: trial calls allowed; first success closes,
    /// first failure re-opens.
    HalfOpen,
}

/// The robustness counters one worker accumulates.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    retries_issued: u64,
    probes_abandoned: u64,
    breaker_trips: u64,
    degraded_secs: u64,
    worker_panics: u64,
}

/// One region manager, less its policy: the retry/breaker transport the
/// policy's attempts go through (its [`Port`]), the wake-ups the policy
/// asked for, and the supervision of each batch.
struct RegionWorker {
    region: Region,
    resilience: ResilienceConfig,
    /// The immutable market catalog, cloned once at construction so
    /// lookups need no cloud lock.
    catalog: Catalog,
    store: SharedStore,
    cloud: Arc<Mutex<Cloud>>,
    /// The tick being handled, set with each batch.
    now: SimTime,
    /// The policy's wake-ups by `(time, token)`: tokens rise in the
    /// order they were asked for, so this is the engine's order too.
    wakes: BTreeSet<(SimTime, u64)>,
    /// Probes waiting out a backoff or an open breaker.
    pending: Vec<PendingProbe>,
    /// What probes could not release; retried every batch so it cannot
    /// leak service-limit slots.
    orphans: Vec<Orphan>,
    breaker: Breaker,
    consecutive_failures: u32,
    /// Start of the current degraded episode, while one is open.
    degraded_since: Option<SimTime>,
    /// Backoff jitter source, seeded from the region alone.
    rng: SimRng,
    stats: WorkerStats,
    /// Event batches handled so far (drives the chaos panic knob).
    batches_handled: u64,
    /// The current tick's events for this region, routed here by the
    /// driver; the buffer is reused across ticks.
    batch: Vec<CloudEvent>,
}

impl Port for RegionWorker {
    fn now(&self) -> SimTime {
        self.now
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn published_price(&self, market: MarketId) -> Option<Price> {
        self.cloud.lock().oracle_published_price(market)
    }

    /// `None` when the attempt was parked for a retry.
    fn attempt(&mut self, probe: Probe) -> Option<Answer> {
        let due = self.now;
        self.send(PendingProbe {
            probe,
            due,
            attempt: 0,
        })
    }

    fn wake_at(&mut self, at: SimTime, token: u64) {
        self.wakes.insert((at, token));
    }
}

impl RegionWorker {
    fn new(
        region: Region,
        resilience: &ResilienceConfig,
        store: SharedStore,
        cloud: Arc<Mutex<Cloud>>,
    ) -> Self {
        let catalog = cloud.lock().catalog().clone();
        RegionWorker {
            region,
            resilience: resilience.clone(),
            catalog,
            store,
            cloud,
            now: SimTime::ZERO,
            wakes: BTreeSet::new(),
            pending: Vec::new(),
            orphans: Vec::new(),
            breaker: Breaker::Closed,
            consecutive_failures: 0,
            degraded_since: None,
            rng: SimRng::seed_from(0x00C0_FFEE ^ region.index() as u64),
            stats: WorkerStats::default(),
            batches_handled: 0,
            batch: Vec::new(),
        }
    }

    /// Spends one transport attempt on `intent` — none while the breaker
    /// is open — and returns the answer, or re-queues the intent and
    /// returns `None`.
    fn send(&mut self, mut intent: PendingProbe) -> Option<Answer> {
        let now = self.now;
        if !self.breaker_allows(now) {
            // No attempt is spent while the breaker is open — the
            // intent waits for the half-open trial window.
            intent.due = match self.breaker {
                Breaker::Open { until } => until,
                _ => now + self.resilience.retry_base,
            };
            self.enqueue(intent);
            return None;
        }
        // Cloud critical section: just the API calls.
        let result = call(&mut self.cloud.lock(), intent.probe);
        let answer = match result {
            Ok((answer, orphan)) => {
                self.orphans.extend(orphan);
                answer
            }
            Err(e) if e.is_retryable() => {
                self.on_transport_failure(now);
                if intent.attempt + 1 < self.resilience.retry_budget {
                    intent.due = now + self.backoff(intent.attempt);
                    intent.attempt += 1;
                    self.enqueue(intent);
                    return None;
                }
                // Budget exhausted: the missing observation is
                // answered as the probe having been squeezed out.
                return Some(API_LIMITED);
            }
            // A terminal error is the endpoint's answer, with no
            // availability information in it.
            Err(_) => API_LIMITED,
        };
        self.on_transport_success(now);
        Some(answer)
    }

    /// The jittered exponential backoff delay of the given attempt.
    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let base = self.resilience.retry_base.as_secs();
        let cap = self.resilience.retry_cap.as_secs().max(base);
        let raw = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
        let jittered = (raw as f64 * self.rng.uniform_range(0.5, 1.5)).max(1.0);
        SimDuration::from_secs(jittered as u64)
    }

    fn enqueue(&mut self, p: PendingProbe) {
        if self.pending.len() >= self.resilience.max_pending {
            // Queue full: the intent is lost. Count it both locally and
            // as a suppressed probe so the loss shows in the store too.
            self.stats.probes_abandoned += 1;
            self.store.record_suppressed();
            return;
        }
        self.pending.push(p);
    }

    /// Whether the breaker lets a call through at `now`, transitioning
    /// open → half-open when the cooldown has elapsed.
    fn breaker_allows(&mut self, now: SimTime) -> bool {
        match self.breaker {
            Breaker::Closed | Breaker::HalfOpen => true,
            Breaker::Open { until } if now >= until => {
                self.breaker = Breaker::HalfOpen;
                true
            }
            Breaker::Open { .. } => false,
        }
    }

    fn on_transport_success(&mut self, now: SimTime) {
        self.consecutive_failures = 0;
        if self.breaker != Breaker::Closed {
            self.breaker = Breaker::Closed;
            self.store.mark_region_recovered(self.region, now);
            if let Some(since) = self.degraded_since.take() {
                self.stats.degraded_secs += now.saturating_since(since).as_secs();
            }
        }
    }

    fn on_transport_failure(&mut self, now: SimTime) {
        match self.breaker {
            Breaker::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.resilience.breaker_threshold {
                    self.breaker = Breaker::Open {
                        until: now + self.resilience.breaker_cooldown,
                    };
                    self.stats.breaker_trips += 1;
                    self.degraded_since = Some(now);
                    self.store.mark_region_degraded(self.region, now);
                }
            }
            // A failed half-open trial re-opens the breaker; the
            // degraded episode continues, no new trip.
            Breaker::HalfOpen => {
                self.breaker = Breaker::Open {
                    until: now + self.resilience.breaker_cooldown,
                };
            }
            Breaker::Open { .. } => {}
        }
    }

    /// Retries the release of every orphan. Keeps only the ones that
    /// fail retryably again.
    fn reap_orphans(&mut self) {
        if self.orphans.is_empty() || !self.breaker_allows(self.now) {
            return;
        }
        let mut cloud = self.cloud.lock();
        // Released (a duplicate charge supersedes the estimate already
        // recorded) or gone: either way the slot is free.
        self.orphans
            .retain(|orphan| orphan.release(&mut cloud).is_err_and(|e| e.is_retryable()));
    }

    /// Dispatches the pending probes that have come due, answering the
    /// ones that land into `policy`; the rest, and any a dispatch
    /// re-queues, wait on.
    fn dispatch_due(&mut self, policy: &mut Policy) {
        let now = self.now;
        let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.due <= now);
        self.pending = waiting;
        for p in due {
            if p.attempt > 0 {
                self.stats.retries_issued += 1;
            }
            if let Some(answer) = self.send(p) {
                policy.on_answer(self, p.probe, answer);
            }
        }
    }

    /// Takes the next wake-up due by the tick being handled.
    fn due_wake(&mut self) -> Option<u64> {
        self.wakes.first().filter(|&&(at, _)| at <= self.now)?;
        self.wakes.pop_first().map(|(_, token)| token)
    }

    fn handle_events(&mut self, policy: &mut Policy, events: &[CloudEvent]) {
        self.batches_handled += 1;
        if let Some(period) = self.resilience.chaos_panic_period {
            if self.batches_handled.is_multiple_of(period) {
                panic!("chaos: injected worker panic (region {:?})", self.region);
            }
        }
        self.reap_orphans();
        self.dispatch_due(policy);
        for event in events {
            policy.on_event(self, event);
        }
        // The engine's order: a tick's events before its wake-ups.
        while let Some(token) = self.due_wake() {
            policy.on_wake(self, token);
        }
    }

    /// Handles the batch the driver routed here at tick `now`,
    /// supervised: a panic while handling one batch must not take the
    /// region manager down. The worker keeps its pending queue, wake
    /// list, and orphan list, and `policy` its state; the panic is
    /// counted and fed to the circuit breaker like any other
    /// transport-layer failure, so a persistently-crashing region backs
    /// off instead of crash-looping at full speed.
    fn handle_batch(&mut self, policy: &mut Policy, now: SimTime) {
        self.now = now;
        let mut events = std::mem::take(&mut self.batch);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.handle_events(policy, &events)
        }));
        if outcome.is_err() {
            self.stats.worker_panics += 1;
            self.on_transport_failure(now);
        }
        events.clear();
        self.batch = events;
    }
}

/// The live deployment as a clock a caller can ride: [`LiveDriver::new`]
/// builds the region managers, each [`LiveDriver::step`] is one lockstep
/// tick, [`LiveDriver::finish`] closes the run. A caller that
/// publishes, checkpoints or stops *between* ticks does so between two
/// `step`s, as `spotlight_serve::Service` does; a run to a fixed horizon
/// is a loop of `step`s.
pub struct LiveDriver {
    cloud: Arc<Mutex<Cloud>>,
    store: SharedStore,
    /// One region manager per region, in [`Catalog::regions`] order: a
    /// worker and the policy it hosts.
    workers: Vec<(RegionWorker, Policy)>,
    /// Drain buffer for a tick's events, reused across ticks.
    events: Vec<CloudEvent>,
    ticks: u64,
    // The report counts THIS run's probes even on a pre-populated store.
    probes_at_start: usize,
}

impl LiveDriver {
    /// Builds one region manager per region of `cloud`'s catalog,
    /// recording into `store`. Nothing runs until the first `step`.
    ///
    /// # Panics
    ///
    /// If `policy` or `resilience` fails its own `validate`.
    pub fn new(
        cloud: Cloud,
        store: SharedStore,
        policy: &PolicyConfig,
        resilience: &ResilienceConfig,
    ) -> Self {
        policy.validate().expect("invalid policy");
        resilience.validate().expect("invalid resilience");
        let (regions, seed) = (cloud.catalog().regions(), cloud.config().seed);
        let cloud = Arc::new(Mutex::new(cloud));
        let workers = regions
            .into_iter()
            .map(|r| {
                let worker = RegionWorker::new(r, resilience, store.clone(), cloud.clone());
                // Each region samples from its own stream, so how the pool
                // interleaves the managers cannot change any draw.
                let sampling = SimRng::seed_from(seed ^ 0x5107).fork(r.index() as u64);
                (worker, Policy::new(policy.clone(), sampling, store.clone()))
            })
            .collect();
        LiveDriver {
            workers,
            events: Vec::new(),
            ticks: 0,
            probes_at_start: store.len(),
            cloud,
            store,
        }
    }

    /// One lockstep tick: advances the cloud, hands every region
    /// manager its events, waits for all of them, tends the store's
    /// durability. Returns the simulated time the tick ended at.
    pub fn step(&mut self) -> SimTime {
        let now = {
            let mut cloud = self.cloud.lock();
            cloud.tick();
            cloud.drain_events_into(&mut self.events);
            cloud.now()
        };
        for event in self.events.drain(..) {
            let market = match event {
                CloudEvent::PriceChange { market, .. }
                | CloudEvent::CapacityEvictionNotice { market, .. } => market,
                _ => continue,
            };
            let region = market.region();
            if let Some((worker, _)) = self.workers.iter_mut().find(|(w, _)| w.region == region) {
                worker.batch.push(event);
            }
        }
        // Lockstep: the scope returns only when every region manager
        // has drained this tick's batch, so probes (and chaos faults)
        // happen at the simulated times they were scheduled for,
        // independent of how the pool schedules the tasks. Without that
        // barrier a starved manager's probes would land at whatever
        // later cloud time the lock race gives them.
        WorkerPool::global().scope(|scope| {
            for (worker, policy) in &mut self.workers {
                scope.spawn(move || worker.handle_batch(policy, now));
            }
        });
        // Durability maintenance rides the driver's clock: if the
        // store degraded (disk faults), this is where heals run, their
        // backoff measured on the wall clock.
        let _ = self.store.tend_durability(std::time::Instant::now());
        self.ticks += 1;
        now
    }

    /// Closes the run: flushes the store and returns the cloud (for
    /// post-run oracle inspection) with the run's summary.
    pub fn finish(self) -> (Cloud, LiveReport) {
        let end = self.cloud.lock().now();
        let mut report = LiveReport {
            ticks: self.ticks,
            ..LiveReport::default()
        };
        for (worker, policy) in self.workers {
            let mut stats = worker.stats;
            // Fold a still-open degraded episode into the counters so
            // the report sees it even when the run ends mid-outage.
            if let Some(since) = worker.degraded_since {
                stats.degraded_secs += end.saturating_since(since).as_secs();
            }
            report
                .per_region_probes
                .insert(worker.region, policy.recorded);
            report.retries_issued += stats.retries_issued;
            report.probes_abandoned += stats.probes_abandoned;
            report.breaker_trips += stats.breaker_trips;
            report.worker_panics += stats.worker_panics;
            if stats.degraded_secs > 0 {
                report
                    .degraded_secs
                    .insert(worker.region, stats.degraded_secs);
            }
        }
        report.probes = self.store.len() - self.probes_at_start;
        let cloud = Arc::into_inner(self.cloud).expect("the workers are gone");

        // Make the run durable before reporting: everything the workers
        // appended is on disk when this returns. An in-memory store's
        // flush is a no-op; a failing disk surfaces through the store's
        // `durability_stats` and `durability_lost`, not a panic here.
        let _ = self.store.flush();
        (cloud.into_inner(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeKind, ProbeOutcome, ProbeTrigger};
    use crate::store::shared_store;
    use cloud_sim::chaos::ChaosWindow;
    use cloud_sim::config::SimConfig;
    use cloud_sim::ids::{InstanceId, MarketId};
    use std::sync::Arc;

    /// `days` of `cloud` on a [`LiveDriver`] recording into `store`, with
    /// spike threshold 0.5.
    fn drive(
        cloud: Cloud,
        store: SharedStore,
        days: u64,
        resilience: &ResilienceConfig,
    ) -> (Cloud, LiveReport) {
        let policy = PolicyConfig {
            spike_threshold: 0.5,
            ..PolicyConfig::default()
        };
        let ticks = SimDuration::days(days).as_secs() / cloud.config().tick.as_secs();
        let mut driver = LiveDriver::new(cloud, store, &policy, resilience);
        for _ in 0..ticks {
            driver.step();
        }
        driver.finish()
    }

    #[test]
    fn live_run_collects_probes_concurrently() {
        let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(21));
        cloud.warmup(20);
        let store = shared_store();
        // Pre-populate one record: the report must count only this
        // run's probes, not the store's lifetime total.
        let seeded = crate::probe::ProbeRecord {
            at: cloud_sim::time::SimTime::ZERO,
            market: cloud.catalog().markets()[0],
            kind: ProbeKind::OnDemand,
            trigger: ProbeTrigger::Recovery,
            outcome: ProbeOutcome::Fulfilled,
            spot_ratio: 0.5,
            bid: None,
            cost: Price::ZERO,
        };
        store.record_probe(seeded);
        let (cloud, report) = drive(cloud, store.clone(), 2, &ResilienceConfig::default());
        assert_eq!(report.ticks, 2 * 86_400 / 300);
        assert_eq!(report.probes, store.len() - 1);
        assert!(
            report.per_region_probes.len() >= 2,
            "both testbed regions should have managers"
        );
        // The cloud is returned intact and time advanced.
        assert_eq!(
            cloud.now().as_secs(),
            20 * 300 + 2 * 86_400 // warmup + live run
        );
        // Probe volume equals the per-region sums: nothing is lost
        // between the workers' direct stripe writes and the store.
        let sum: usize = report.per_region_probes.values().sum();
        assert_eq!(sum, report.probes);
        // No chaos here, but ordinary rate-limit throttling is a
        // transport failure too, so the breaker may legitimately trip.
        // What must hold: degraded time is only accounted against
        // regions whose breaker actually tripped.
        assert!(report.degraded_secs.is_empty() || report.breaker_trips > 0);
    }

    #[test]
    fn durable_live_run_recovers_identically() {
        use crate::durable::DurableOptions;
        use crate::store::DataStore;
        use spotlight_persist::tempdir::TempDir;

        let tmp = TempDir::new("live-durable");
        let dir = tmp.path().join("store");
        let store: SharedStore =
            Arc::new(DataStore::create_durable(&dir, DurableOptions::default()).expect("create"));
        let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(29));
        cloud.warmup(20);
        let (_, report) = drive(cloud, store.clone(), 1, &ResilienceConfig::default());
        assert!(report.probes > 0);
        let durable = store.durability_stats().expect("a durable store");
        assert!(durable.appended_ops >= report.probes as u64);
        assert!(durable.appended_bytes > 0);
        assert!(durable.fsyncs > 0);

        // Fingerprint the live store, drop it (joining the log
        // writer), and demand the recovered store answer identically.
        let markets: Vec<_> = {
            let r = store.read();
            r.probes().map(|p| p.market).collect()
        };
        let live_len = store.len();
        let live_cost = store.total_cost();
        let live_suppressed = store.suppressed_probes();
        let live_stats: Vec<_> = markets
            .iter()
            .map(|&m| store.read().probe_stats(m, ProbeKind::OnDemand))
            .collect();
        drop(store);

        let recovered = DataStore::recover(&dir).expect("recover");
        assert_eq!(recovered.len(), live_len);
        assert_eq!(recovered.total_cost(), live_cost);
        assert_eq!(recovered.suppressed_probes(), live_suppressed);
        let r = recovered.read();
        assert_eq!(r.probes().count(), live_len);
        for (m, want) in markets.iter().zip(live_stats) {
            assert_eq!(r.probe_stats(*m, ProbeKind::OnDemand), want);
        }
    }

    /// Installs a panic hook that swallows the injected chaos panics
    /// (they are expected noise here) but forwards everything else.
    fn silence_chaos_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.starts_with("chaos:") {
                    default_hook(info);
                }
            }));
        });
    }

    #[test]
    fn supervised_workers_survive_injected_panics() {
        silence_chaos_panics();
        let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(31));
        cloud.warmup(20);
        let store = shared_store();
        let resilience = ResilienceConfig {
            // Every 40th batch dies mid-flight, per region.
            chaos_panic_period: Some(40),
            ..ResilienceConfig::default()
        };
        let (cloud, report) = drive(cloud, store.clone(), 2, &resilience);
        let ticks = 2 * 86_400 / 300;
        assert_eq!(report.ticks, ticks, "the clock never wedges");
        let expected_panics: u64 = (ticks / 40) * report.per_region_probes.len() as u64;
        assert_eq!(
            report.worker_panics, expected_panics,
            "every injected panic is caught and counted"
        );
        assert!(report.probes > 0, "the workers kept probing after panics");
        assert_eq!(report.probes, store.len());
        // The cloud came back: every worker survived to be joined.
        assert_eq!(cloud.now().as_secs(), 20 * 300 + 2 * 86_400);
    }

    #[test]
    fn resilience_validation_catches_zeros() {
        let r = ResilienceConfig {
            retry_budget: 0,
            ..ResilienceConfig::default()
        };
        assert!(r.validate().is_err());
        let r = ResilienceConfig {
            breaker_threshold: 0,
            ..ResilienceConfig::default()
        };
        assert!(r.validate().is_err());
        let r = ResilienceConfig {
            max_pending: 0,
            ..ResilienceConfig::default()
        };
        assert!(r.validate().is_err());
        ResilienceConfig::default().validate().unwrap();
    }

    // ---- The retry/breaker pipeline on a bare `RegionWorker`: no
    // driver, no pool, no thread. ----

    const HIT: Region = Region::UsEast1;
    const OUTAGE: SimDuration = SimDuration::from_secs(7_200);
    const T0: SimTime = SimTime::ZERO;

    /// A region manager for [`HIT`] over a fresh testbed cloud whose
    /// API is out in that region for the first [`OUTAGE`] of simulated
    /// time, plus the region's markets.
    fn pipeline(resilience: ResilienceConfig) -> (Arc<Mutex<Cloud>>, RegionWorker, Vec<MarketId>) {
        let mut config = SimConfig::paper(67);
        config.chaos.outages.push(ChaosWindow {
            region: HIT,
            start: T0,
            duration: OUTAGE,
        });
        let cloud = Cloud::new(Catalog::testbed(), config);
        let markets: Vec<MarketId> = cloud
            .catalog()
            .markets()
            .iter()
            .copied()
            .filter(|m| m.region() == HIT)
            .collect();
        let cloud = Arc::new(Mutex::new(cloud));
        let worker = RegionWorker::new(HIT, &resilience, shared_store(), cloud.clone());
        (cloud, worker, markets)
    }

    /// A default policy recording into `w`'s store.
    fn policy_of(w: &RegionWorker) -> Policy {
        Policy::new(
            PolicyConfig::default(),
            SimRng::seed_from(0),
            w.store.clone(),
        )
    }

    /// Sends one recovery probe of `market` through `w`'s port at `now`.
    fn send(w: &mut RegionWorker, market: MarketId, now: SimTime) {
        let probe = Probe {
            market,
            trigger: ProbeTrigger::Recovery,
            bid: None,
        };
        w.now = now;
        assert_eq!(w.attempt(probe), None, "the outage parks every probe");
    }

    /// [`pipeline`] with three probes already failed into the outage at
    /// [`T0`] (one attempt spent each) — enough to trip a threshold-3
    /// breaker.
    fn tripped() -> (Arc<Mutex<Cloud>>, RegionWorker, Vec<MarketId>) {
        let (cloud, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 3,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..3] {
            send(&mut w, m, T0);
        }
        (cloud, w, markets)
    }

    /// Ticks `cloud` until its clock reads `until`.
    fn advance(cloud: &Mutex<Cloud>, until: SimTime) -> SimTime {
        let mut cloud = cloud.lock();
        while cloud.now() < until {
            cloud.tick();
        }
        cloud.now()
    }

    #[test]
    fn breaker_opens_at_exactly_the_threshold_and_degrades_the_region_once() {
        let (_, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 3,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..2] {
            send(&mut w, m, T0);
        }
        assert_eq!(w.breaker, Breaker::Closed, "one short of the threshold");
        assert_eq!(w.consecutive_failures, 2);
        assert_eq!(w.store.region_health(HIT), None);

        send(&mut w, markets[2], T0);
        let until = T0 + w.resilience.breaker_cooldown;
        assert_eq!(w.breaker, Breaker::Open { until });
        assert_eq!(w.degraded_since, Some(T0));
        // A failed attempt is a missing observation: nothing recorded,
        // every intent back in the queue with one attempt spent.
        assert_eq!(w.store.len(), 0);
        assert_eq!(w.pending.len(), 3);
        assert!(w.pending.iter().all(|p| p.attempt == 1 && p.due > T0));

        // More traffic against the open breaker is not another trip.
        send(&mut w, markets[3], T0);
        assert_eq!(w.stats.breaker_trips, 1);
        let health = w.store.region_health(HIT).expect("marked degraded");
        assert!(health.degraded);
        assert_eq!((health.since, health.trips), (T0, 1));
    }

    #[test]
    fn an_open_breaker_spends_no_attempt_and_requeues_at_its_deadline() {
        let (_, mut w, markets) = tripped();
        let Breaker::Open { until } = w.breaker else {
            panic!("fixture must have tripped the breaker");
        };
        let later = T0 + SimDuration::from_secs(60);
        send(&mut w, markets[3], later);
        let queued = w.pending.last().expect("re-queued");
        assert_eq!((queued.probe.market, queued.attempt), (markets[3], 0));
        assert_eq!(queued.due, until, "waits for the half-open window");
        assert_eq!(w.breaker, Breaker::Open { until }, "state untouched");
        assert_eq!(w.store.len(), 0);
    }

    #[test]
    fn a_failed_half_open_trial_reopens_without_a_new_trip() {
        let (cloud, mut w, _) = tripped();
        // The cooldown elapses while the outage still rages.
        let now = advance(&cloud, T0 + w.resilience.breaker_cooldown);
        assert!(now < T0 + OUTAGE);
        w.now = now;
        w.dispatch_due(&mut policy_of(&w));
        let until = now + w.resilience.breaker_cooldown;
        assert_eq!(w.breaker, Breaker::Open { until });
        assert_eq!(w.stats.breaker_trips, 1, "same episode");
        assert_eq!(w.store.region_health(HIT).map(|h| h.trips), Some(1));
        assert_eq!(w.degraded_since, Some(T0));
        // Exactly one intent was the trial (a second attempt spent);
        // the other two met the re-opened breaker and wait for it.
        assert_eq!(w.pending.len(), 3);
        let mut attempts: Vec<u32> = w.pending.iter().map(|p| p.attempt).collect();
        attempts.sort_unstable();
        assert_eq!(attempts, [1, 1, 2]);
        assert_eq!(w.pending.iter().filter(|p| p.due == until).count(), 2);
    }

    #[test]
    fn a_half_open_success_closes_the_breaker_and_accounts_the_episode() {
        let (cloud, mut w, _) = tripped();
        let now = advance(&cloud, T0 + OUTAGE);
        let mut policy = policy_of(&w);
        w.now = now;
        w.dispatch_due(&mut policy);
        assert_eq!(w.breaker, Breaker::Closed);
        assert_eq!(w.consecutive_failures, 0);
        assert_eq!(w.degraded_since, None);
        assert_eq!(w.stats.degraded_secs, now.saturating_since(T0).as_secs());
        let health = w.store.region_health(HIT).expect("was marked");
        assert!(!health.degraded, "marked recovered");
        assert_eq!(health.degraded_secs, w.stats.degraded_secs);
        // All three intents finally got their answer.
        assert!(w.pending.is_empty());
        assert_eq!(w.stats.retries_issued, 3);
        assert_eq!((w.store.len(), policy.recorded), (3, 3));
    }

    #[test]
    fn a_full_pending_queue_abandons_and_counts_a_suppressed_probe() {
        let (_, mut w, markets) = pipeline(ResilienceConfig {
            max_pending: 2,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..3] {
            send(&mut w, m, T0);
        }
        assert_eq!(w.pending.len(), 2, "the bound holds");
        assert_eq!(w.stats.probes_abandoned, 1);
        assert_eq!(
            w.store.suppressed_probes(),
            1,
            "the loss shows in the store"
        );
        assert!(w.pending.iter().all(|p| p.probe.market != markets[2]));
    }

    #[test]
    fn backoff_stays_within_half_to_three_halves_of_the_capped_exponential() {
        let (_, mut w, _) = pipeline(ResilienceConfig::default());
        let base = w.resilience.retry_base.as_secs();
        let cap = w.resilience.retry_cap.as_secs();
        for attempt in 0..40 {
            let raw = base.saturating_mul(1 << attempt.min(16)).min(cap);
            for _ in 0..50 {
                let delay = w.backoff(attempt).as_secs();
                assert!(
                    (raw / 2..=raw * 3 / 2).contains(&delay),
                    "attempt {attempt}: {delay}s outside [0.5, 1.5] x {raw}s"
                );
            }
        }
    }

    #[test]
    fn wake_ups_land_on_the_first_tick_at_or_after_their_time() {
        let (_, mut w, _) = pipeline(ResilienceConfig::default());
        let at = |secs| T0 + SimDuration::from_secs(secs);
        w.wakes.extend([(at(301), 1), (at(300), 3), (at(100), 2)]);
        w.now = at(300);
        let due: Vec<u64> = std::iter::from_fn(|| w.due_wake()).collect();
        assert_eq!(due, [2, 3], "in time order; 301 s waits for the next tick");
        assert_eq!(w.wakes, BTreeSet::from([(at(301), 1)]));
    }

    #[test]
    fn a_caught_panic_feeds_the_breaker_and_keeps_the_queues() {
        silence_chaos_panics();
        let (_, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 1,
            chaos_panic_period: Some(1),
            ..ResilienceConfig::default()
        });
        let later = T0 + SimDuration::hours(9);
        w.pending.push(PendingProbe {
            probe: Probe {
                market: markets[0],
                trigger: ProbeTrigger::Recovery,
                bid: None,
            },
            due: later,
            attempt: 2,
        });
        w.wakes.insert((later, 1));
        w.orphans.push(Orphan::OdInstance(InstanceId(7)));
        w.batch.push(CloudEvent::PriceChange {
            market: markets[2],
            previous: Price::ZERO,
            price: Price::from_dollars(9.0),
            at: T0,
        });

        w.handle_batch(&mut policy_of(&w), T0);
        assert_eq!(w.stats.worker_panics, 1);
        assert_eq!(w.stats.breaker_trips, 1, "a crash is a transport failure");
        assert!(matches!(w.breaker, Breaker::Open { .. }));
        assert!(w.store.region_health(HIT).is_some_and(|h| h.degraded));
        assert_eq!(w.pending.len(), 1);
        assert_eq!(
            (w.pending[0].probe.market, w.pending[0].attempt),
            (markets[0], 2)
        );
        assert_eq!(w.wakes, BTreeSet::from([(later, 1)]), "the wake schedule");
        assert_eq!(w.orphans, [Orphan::OdInstance(InstanceId(7))]);
        // The crashed batch is dropped, not replayed into the next tick.
        assert!(w.batch.is_empty());
        assert_eq!(w.store.len(), 0);
    }
}
