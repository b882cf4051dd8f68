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
//!   publisher, a checkpointer, a shutdown) goes between two `step`s;
//! * **region managers** (one per region, concurrent within a step) run
//!   the spike-triggered probing policy against the shared cloud,
//!   keeping their own re-probe (recovery) schedules.
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
//!    budget is exhausted is the probe recorded as
//!    [`ProbeOutcome::ApiLimited`]. The queue is bounded
//!    ([`ResilienceConfig::max_pending`]); overflow abandons the oldest
//!    intent (counted, and recorded as suppressed).
//! 3. **Circuit breaker** — consecutive transport failures trip a
//!    per-region breaker: the worker stops hammering the dead endpoint,
//!    marks the region degraded in the store
//!    ([`crate::store::DataStore::mark_region_degraded`]), and half-opens
//!    on a schedule to send trial probes. The first success closes the
//!    breaker and marks the region recovered, so staleness-aware
//!    queries ([`crate::query::SpotLightQuery::freshness`]) can tell
//!    "available" from "we could not look".
//! 4. **Orphan reaping** — an on-demand probe whose launch succeeded but
//!    whose terminate failed would leak a service-limit slot forever;
//!    such instances enter a worker-local orphan list retried every
//!    batch.
//! 5. **Supervision** — each region manager catches panics at the batch
//!    boundary: a crash while handling one tick's events is counted
//!    ([`LiveReport::worker_panics`]), fed to the circuit breaker, and
//!    the manager carries on with its pending queue, recovery schedule,
//!    and orphan list intact. A manager is a plain value the driver
//!    owns, not a thread: nothing can die between batches.
//!
//! The driver also tends the store's durability each tick
//! ([`crate::store::DataStore::tend_durability`]): when disk faults
//! degrade the durable log, heals — WAL re-establishment plus a full
//! checkpoint — run on the driver's clock, never on an ingest path.
//!
//! Provider-pushed [`cloud_sim::cloud::CloudEvent::CapacityEvictionNotice`]
//! events are recorded as free [`ProbeKind::InterruptionNotice`] records,
//! so eviction signals sit in the store alongside probe-derived
//! observations.
//!
//! The paper's *database manager* — a thread serializing every write —
//! is subsumed by the lock-striped [`SharedStore`]: region managers
//! record probes and spikes directly, and only writers hitting the same
//! market-hash stripe contend. Each worker also keeps its own clone of
//! the immutable catalog, so price/sibling lookups never touch the
//! cloud lock; the cloud is locked only for the API calls that actually
//! mutate it.
//!
//! The engine-hosted [`crate::spotlight::SpotLight`] agent is the
//! single-threaded twin of this deployment; the live mode exists to
//! demonstrate and test the concurrent architecture (pool tasks,
//! [`crate::sync::Mutex`] for the cloud, the store's internal
//! [`crate::sync::RwLock`] stripes). A region manager's calls touch
//! only its own region's shard, token bucket, chaos stream and jitter
//! RNG, so each market's probe and spike history and the [`LiveReport`]
//! (but for its wall-clock-batched fsync count) are seed-deterministic
//! at any interleaving; the order in which *different* regions' records
//! land in the store's slabs is not.

use crate::policy::PolicyConfig;
use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use crate::store::{SharedStore, SpikeEvent};
use crate::sync::Mutex;
use cloud_sim::api::ApiError;
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::{Cloud, CloudEvent};
use cloud_sim::ids::{InstanceId, MarketId, Region};
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_pool::WorkerPool;
use std::collections::{BTreeMap, HashMap};

/// Knobs of the per-region retry/breaker pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Maximum transport attempts per probe (first try + retries).
    /// When exhausted the probe is recorded as
    /// [`ProbeOutcome::ApiLimited`].
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

/// Configuration for a live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The probing policy all region managers apply.
    pub policy: PolicyConfig,
    /// How long (simulation time) to run.
    pub duration: SimDuration,
    /// The retry/breaker pipeline knobs.
    pub resilience: ResilienceConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            policy: PolicyConfig::default(),
            duration: SimDuration::days(1),
            resilience: ResilienceConfig::default(),
        }
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
    /// Operations this run appended to the store's durable log (zero
    /// for an in-memory store).
    pub durable_ops: u64,
    /// Framed bytes this run appended to the durable log.
    pub durable_bytes: u64,
    /// Fsyncs the durable log's writer issued during this run,
    /// including the final end-of-run flush.
    pub durable_fsyncs: u64,
    /// Worker panics the supervisors caught (the worker kept running
    /// with its pending queue intact).
    pub worker_panics: u64,
    /// Write/fsync errors the durable paths hit during this run (zero
    /// for an in-memory store).
    pub durable_io_errors: u64,
    /// Ops the store skipped persisting while its durability was
    /// degraded during this run (they stayed in memory until a healing
    /// checkpoint).
    pub durable_ops_dropped: u64,
    /// If the store ended the run with durability still degraded: ops
    /// at or before this time are provably on disk, later ones may be
    /// memory-only. `None` when fully durable (or in-memory).
    pub durability_lost: Option<SimTime>,
}

/// A probe intent waiting in the backoff queue.
#[derive(Debug, Clone, Copy)]
struct PendingProbe {
    market: MarketId,
    trigger: ProbeTrigger,
    due: SimTime,
    /// Transport attempts already spent on this intent.
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
    probes_issued: usize,
    retries_issued: u64,
    probes_abandoned: u64,
    breaker_trips: u64,
    degraded_secs: u64,
    worker_panics: u64,
}

/// One region manager's probing state.
struct RegionWorker {
    region: Region,
    policy: PolicyConfig,
    resilience: ResilienceConfig,
    /// The immutable market catalog, cloned once at construction so
    /// lookups need no cloud lock.
    catalog: Catalog,
    store: SharedStore,
    cooldown_until: HashMap<MarketId, SimTime>,
    /// Markets awaiting recovery, with their next re-probe time.
    /// Iterated to order a tick's recovery probes — and under a binding
    /// API limit the order decides which probe is throttled — so it is
    /// an ordered map: same seed, same probes.
    recovery_due: BTreeMap<MarketId, SimTime>,
    /// Probe intents waiting out a backoff or an open breaker.
    pending: Vec<PendingProbe>,
    /// Launched instances whose terminate call failed; retried every
    /// batch so they cannot leak service-limit slots.
    orphans: Vec<InstanceId>,
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

/// What one transport attempt produced.
enum Attempt {
    /// The endpoint answered (any answer, including a capacity
    /// rejection or a terminal error): record this outcome.
    Answered(ProbeOutcome, Price),
    /// The endpoint itself failed (throttle/outage/transient): retry.
    Failed,
}

impl RegionWorker {
    fn new(
        region: Region,
        policy: &PolicyConfig,
        resilience: &ResilienceConfig,
        catalog: Catalog,
        store: SharedStore,
    ) -> Self {
        RegionWorker {
            region,
            policy: policy.clone(),
            resilience: resilience.clone(),
            catalog,
            store,
            cooldown_until: HashMap::new(),
            recovery_due: BTreeMap::new(),
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

    fn probe_od(
        &mut self,
        cloud: &Mutex<Cloud>,
        market: MarketId,
        trigger: ProbeTrigger,
        now: SimTime,
    ) {
        let intent = PendingProbe {
            market,
            trigger,
            due: now,
            attempt: 0,
        };
        self.probe_od_attempt(cloud, intent, now);
    }

    /// Spends one transport attempt on `intent` — none while the breaker
    /// is open — and records the answer, re-queues, or gives up.
    fn probe_od_attempt(&mut self, cloud: &Mutex<Cloud>, mut intent: PendingProbe, now: SimTime) {
        if !self.breaker_allows(now) {
            // No attempt is spent while the breaker is open — the
            // intent waits for the half-open trial window.
            intent.due = match self.breaker {
                Breaker::Open { until } => until,
                _ => now + self.resilience.retry_base,
            };
            self.enqueue(intent);
            return;
        }
        let market = intent.market;
        let od_price = self.catalog.od_price(market);
        // Cloud critical section: just the API call and the price read.
        let (attempt_result, spot_ratio) = {
            let mut cloud = cloud.lock();
            let result = match cloud.run_od_instance(market) {
                Ok(id) => match cloud.terminate_od_instance(id) {
                    Ok(cost) => Attempt::Answered(ProbeOutcome::Fulfilled, cost),
                    Err(e) => {
                        // The observation stands (the launch succeeded;
                        // the one-hour minimum is the best cost
                        // estimate), but the instance now occupies a
                        // service-limit slot until the reaper frees it.
                        if e.is_retryable() {
                            self.orphans.push(id);
                        }
                        Attempt::Answered(ProbeOutcome::Fulfilled, od_price)
                    }
                },
                Err(ApiError::InsufficientInstanceCapacity { .. }) => {
                    Attempt::Answered(ProbeOutcome::InsufficientCapacity, Price::ZERO)
                }
                Err(e) if e.is_retryable() => Attempt::Failed,
                Err(_) => Attempt::Answered(ProbeOutcome::ApiLimited, Price::ZERO),
            };
            let spot_ratio = cloud
                .oracle_published_price(market)
                .map_or(0.0, |p| p.ratio_to(od_price));
            (result, spot_ratio)
        };
        let (outcome, cost) = match attempt_result {
            Attempt::Answered(outcome, cost) => {
                self.on_transport_success(now);
                (outcome, cost)
            }
            Attempt::Failed => {
                self.on_transport_failure(now);
                if intent.attempt + 1 < self.resilience.retry_budget {
                    intent.due = now + self.backoff(intent.attempt);
                    intent.attempt += 1;
                    self.enqueue(intent);
                    return;
                }
                // Budget exhausted: the missing observation is
                // recorded as the probe having been squeezed out.
                (ProbeOutcome::ApiLimited, Price::ZERO)
            }
        };
        self.record(market, intent.trigger, outcome, spot_ratio, cost, now);
    }

    /// Records a probe outcome and maintains the recovery schedule.
    /// The single `record_probe` call site keeps `probes_issued` equal
    /// to the store's record count for this worker.
    fn record(
        &mut self,
        market: MarketId,
        trigger: ProbeTrigger,
        outcome: ProbeOutcome,
        spot_ratio: f64,
        cost: Price,
        now: SimTime,
    ) {
        self.stats.probes_issued += 1;
        // Direct striped write: locks only this market's stripe.
        self.store.record_probe(ProbeRecord {
            at: now,
            market,
            kind: ProbeKind::OnDemand,
            trigger,
            outcome,
            spot_ratio,
            bid: None,
            cost,
        });
        match outcome {
            ProbeOutcome::InsufficientCapacity => {
                self.recovery_due
                    .entry(market)
                    .or_insert(now + self.policy.reprobe_interval);
            }
            ProbeOutcome::Fulfilled => {
                self.recovery_due.remove(&market);
            }
            _ => {}
        }
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

    /// Retries terminate calls for instances whose first terminate
    /// failed. Keeps only the ones that fail retryably again.
    fn reap_orphans(&mut self, cloud: &Mutex<Cloud>, now: SimTime) {
        if self.orphans.is_empty() || !self.breaker_allows(now) {
            return;
        }
        let orphans = std::mem::take(&mut self.orphans);
        let mut cloud = cloud.lock();
        for id in orphans {
            match cloud.terminate_od_instance(id) {
                Err(e) if e.is_retryable() => self.orphans.push(id),
                // Terminated (the duplicate charge supersedes the
                // estimate already recorded) or gone: either way the
                // slot is free.
                _ => {}
            }
        }
    }

    /// Dispatches pending probes that have come due. Dispatching can
    /// re-enqueue (breaker still open, next backoff step), so it runs
    /// over a drained snapshot.
    fn dispatch_due(&mut self, cloud: &Mutex<Cloud>, now: SimTime) {
        if self.pending.iter().all(|p| p.due > now) {
            return;
        }
        let mut queue = std::mem::take(&mut self.pending);
        let mut i = 0;
        while i < queue.len() {
            if queue[i].due <= now {
                let p = queue.swap_remove(i);
                if p.attempt > 0 {
                    self.stats.retries_issued += 1;
                }
                self.probe_od_attempt(cloud, p, now);
            } else {
                i += 1;
            }
        }
        // Anything probe_od_attempt re-enqueued joins the survivors.
        queue.append(&mut self.pending);
        self.pending = queue;
    }

    fn handle_events(&mut self, cloud: &Mutex<Cloud>, events: &[CloudEvent], now: SimTime) {
        self.batches_handled += 1;
        if let Some(period) = self.resilience.chaos_panic_period {
            if self.batches_handled.is_multiple_of(period) {
                panic!("chaos: injected worker panic (region {:?})", self.region);
            }
        }
        self.reap_orphans(cloud, now);
        self.dispatch_due(cloud, now);

        // Due recovery probes (the batch cadence is the tick).
        let due: Vec<MarketId> = self
            .recovery_due
            .iter()
            .filter(|&(_, &t)| t <= now)
            .map(|(&m, _)| m)
            .collect();
        for market in due {
            self.recovery_due
                .insert(market, now + self.policy.reprobe_interval);
            self.probe_od(cloud, market, ProbeTrigger::Recovery, now);
        }

        for &event in events {
            let (market, price) = match event {
                CloudEvent::PriceChange { market, price, .. } => (market, price),
                CloudEvent::CapacityEvictionNotice {
                    market, evict_at, ..
                } => {
                    // A provider-pushed interruption notice: a free
                    // observation, recorded without any API call.
                    self.stats.probes_issued += 1;
                    self.store.record_probe(ProbeRecord {
                        at: now,
                        market,
                        kind: ProbeKind::InterruptionNotice,
                        trigger: ProbeTrigger::EvictionNotice { evict_at },
                        outcome: ProbeOutcome::CapacityNotAvailable,
                        spot_ratio: 0.0,
                        bid: None,
                        cost: Price::ZERO,
                    });
                    continue;
                }
                _ => continue,
            };
            debug_assert_eq!(market.region(), self.region);
            let ratio = price.ratio_to(self.catalog.od_price(market));
            if ratio < self.policy.spike_threshold {
                continue;
            }
            if self
                .cooldown_until
                .get(&market)
                .is_some_and(|&until| now < until)
            {
                continue;
            }
            self.cooldown_until
                .insert(market, now + self.policy.market_cooldown);
            self.store.record_spike(SpikeEvent {
                market,
                at: now,
                ratio,
                probed: true,
            });
            self.probe_od(cloud, market, ProbeTrigger::PriceSpike { ratio }, now);

            // Fan out while we still believe the market is unavailable.
            if self.recovery_due.contains_key(&market) {
                if self.policy.family_fanout {
                    let trigger = ProbeTrigger::FamilyFanout {
                        origin: market,
                        origin_ratio: ratio,
                    };
                    for sibling in self.catalog.family_siblings(market) {
                        self.probe_od(cloud, sibling, trigger, now);
                    }
                }
                if self.policy.cross_az_fanout {
                    let trigger = ProbeTrigger::CrossAzFanout {
                        origin: market,
                        origin_ratio: ratio,
                    };
                    for sibling in self.catalog.az_siblings(market) {
                        self.probe_od(cloud, sibling, trigger, now);
                    }
                }
            }
        }
    }

    /// Handles the batch the driver routed here, supervised: a panic
    /// while handling one batch must not take the region manager down.
    /// The worker keeps its pending queue, recovery schedule, and orphan
    /// list; the panic is counted and fed to the circuit breaker like
    /// any other transport-layer failure, so a persistently-crashing
    /// region backs off instead of crash-looping at full speed.
    fn handle_batch(&mut self, cloud: &Mutex<Cloud>, now: SimTime) {
        let mut events = std::mem::take(&mut self.batch);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.handle_events(cloud, &events, now)
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
/// tick, [`LiveDriver::finish`] closes the run. [`run_live`] is the
/// run-to-completion loop over it; a service that publishes,
/// checkpoints or stops *between* ticks calls `step` itself.
pub struct LiveDriver {
    cloud: Mutex<Cloud>,
    store: SharedStore,
    /// One region manager per region, in [`Catalog::regions`] order.
    workers: Vec<RegionWorker>,
    /// Drain buffer for a tick's events, reused across ticks.
    events: Vec<CloudEvent>,
    ticks: u64,
    // The report counts THIS run's probes even on a pre-populated store.
    probes_at_start: usize,
    durable_at_start: Option<crate::durable::DurabilityStats>,
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
        let catalog = cloud.catalog();
        let workers = catalog
            .regions()
            .into_iter()
            .map(|r| RegionWorker::new(r, policy, resilience, catalog.clone(), store.clone()))
            .collect();
        LiveDriver {
            workers,
            events: Vec::new(),
            ticks: 0,
            probes_at_start: store.len(),
            durable_at_start: store.durability_stats(),
            cloud: Mutex::new(cloud),
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
            if let Some(worker) = self.workers.iter_mut().find(|w| w.region == region) {
                worker.batch.push(event);
            }
        }
        // Lockstep: the scope returns only when every region manager
        // has drained this tick's batch, so probes (and chaos faults)
        // happen at the simulated times they were scheduled for,
        // independent of how the pool schedules the tasks. Without that
        // barrier a starved manager's probes would land at whatever
        // later cloud time the lock race gives them.
        let cloud = &self.cloud;
        WorkerPool::global().scope(|scope| {
            for worker in &mut self.workers {
                scope.spawn(move || worker.handle_batch(cloud, now));
            }
        });
        // Durability maintenance rides the driver's clock: if the
        // store degraded (disk faults), this is where heals run.
        let _ = self.store.tend_durability();
        self.ticks += 1;
        now
    }

    /// Closes the run: flushes the store and returns the cloud (for
    /// post-run oracle inspection) with the run's summary.
    pub fn finish(self) -> (Cloud, LiveReport) {
        let cloud = self.cloud.into_inner();
        let mut report = LiveReport {
            ticks: self.ticks,
            ..LiveReport::default()
        };
        for worker in self.workers {
            let mut stats = worker.stats;
            // Fold a still-open degraded episode into the counters so
            // the report sees it even when the run ends mid-outage.
            if let Some(since) = worker.degraded_since {
                stats.degraded_secs += cloud.now().saturating_since(since).as_secs();
            }
            report
                .per_region_probes
                .insert(worker.region, stats.probes_issued);
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

        // Make the run durable before reporting: everything the workers
        // appended is on disk when this returns. An in-memory store's
        // flush is a no-op; a failing disk surfaces through
        // `durability_stats`, not a panic mid-report.
        let _ = self.store.flush();
        if let (Some(start), Some(end)) = (self.durable_at_start, self.store.durability_stats()) {
            report.durable_ops = end.appended_ops - start.appended_ops;
            report.durable_bytes = end.appended_bytes - start.appended_bytes;
            report.durable_fsyncs = end.fsyncs - start.fsyncs;
            report.durable_io_errors = end.io_errors - start.io_errors;
            report.durable_ops_dropped = end.ops_dropped - start.ops_dropped;
        }
        report.durability_lost = self.store.durability_lost();
        (cloud, report)
    }
}

/// Runs the live deployment over `cloud` for `config.duration` and
/// records into `store`.
///
/// Returns the cloud (for post-run oracle inspection) and a run summary.
/// The store passed in receives every probe and spike, plus region
/// degradation markers from the workers' circuit breakers.
pub fn run_live(cloud: Cloud, store: SharedStore, config: LiveConfig) -> (Cloud, LiveReport) {
    let ticks = config.duration.as_secs() / cloud.config().tick.as_secs().max(1);
    let mut driver = LiveDriver::new(cloud, store, &config.policy, &config.resilience);
    for _ in 0..ticks {
        driver.step();
    }
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::shared_store;
    use cloud_sim::chaos::ChaosWindow;
    use cloud_sim::config::SimConfig;
    use std::sync::Arc;

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
        let config = LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(2),
            ..LiveConfig::default()
        };
        let (cloud, report) = run_live(cloud, store.clone(), config);
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
    fn live_and_engine_modes_find_the_same_phenomena() {
        // Not bit-identical (thread interleavings differ) but both must
        // observe spikes on the same volatile testbed.
        let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(23));
        cloud.warmup(20);
        let store = shared_store();
        let (_, report) = run_live(
            cloud,
            store.clone(),
            LiveConfig {
                policy: PolicyConfig {
                    spike_threshold: 0.5,
                    ..PolicyConfig::default()
                },
                duration: SimDuration::days(3),
                ..LiveConfig::default()
            },
        );
        assert!(report.probes > 0, "expected probes in three days");
        assert!(store.read().spikes().next().is_some());
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
        let (_, report) = run_live(
            cloud,
            store.clone(),
            LiveConfig {
                policy: PolicyConfig {
                    spike_threshold: 0.5,
                    ..PolicyConfig::default()
                },
                duration: SimDuration::days(1),
                ..LiveConfig::default()
            },
        );
        assert!(report.probes > 0);
        assert!(report.durable_ops >= report.probes as u64);
        assert!(report.durable_bytes > 0);
        assert!(report.durable_fsyncs > 0);

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
        let config = LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(2),
            resilience: ResilienceConfig {
                // Every 40th batch dies mid-flight, per region.
                chaos_panic_period: Some(40),
                ..ResilienceConfig::default()
            },
        };
        let (cloud, report) = run_live(cloud, store.clone(), config);
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
    fn pipeline(resilience: ResilienceConfig) -> (Mutex<Cloud>, RegionWorker, Vec<MarketId>) {
        let mut config = SimConfig::paper(67);
        config.chaos.outages.push(ChaosWindow {
            region: HIT,
            start: T0,
            duration: OUTAGE,
        });
        let cloud = Cloud::new(Catalog::testbed(), config);
        let catalog = cloud.catalog().clone();
        let markets: Vec<MarketId> = catalog
            .markets()
            .iter()
            .copied()
            .filter(|m| m.region() == HIT)
            .collect();
        let worker = RegionWorker::new(
            HIT,
            &PolicyConfig::default(),
            &resilience,
            catalog,
            shared_store(),
        );
        (Mutex::new(cloud), worker, markets)
    }

    /// [`pipeline`] with three probes already failed into the outage at
    /// [`T0`] (one attempt spent each) — enough to trip a threshold-3
    /// breaker.
    fn tripped() -> (Mutex<Cloud>, RegionWorker, Vec<MarketId>) {
        let (cloud, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 3,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..3] {
            w.probe_od(&cloud, m, ProbeTrigger::Recovery, T0);
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
        let (cloud, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 3,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..2] {
            w.probe_od(&cloud, m, ProbeTrigger::Recovery, T0);
        }
        assert_eq!(w.breaker, Breaker::Closed, "one short of the threshold");
        assert_eq!(w.consecutive_failures, 2);
        assert_eq!(w.store.region_health(HIT), None);

        w.probe_od(&cloud, markets[2], ProbeTrigger::Recovery, T0);
        let until = T0 + w.resilience.breaker_cooldown;
        assert_eq!(w.breaker, Breaker::Open { until });
        assert_eq!(w.degraded_since, Some(T0));
        // A failed attempt is a missing observation: nothing recorded,
        // every intent back in the queue with one attempt spent.
        assert_eq!(w.store.len(), 0);
        assert_eq!(w.pending.len(), 3);
        assert!(w.pending.iter().all(|p| p.attempt == 1 && p.due > T0));

        // More traffic against the open breaker is not another trip.
        w.probe_od(&cloud, markets[3], ProbeTrigger::Recovery, T0);
        assert_eq!(w.stats.breaker_trips, 1);
        let health = w.store.region_health(HIT).expect("marked degraded");
        assert!(health.degraded);
        assert_eq!((health.since, health.trips), (T0, 1));
    }

    #[test]
    fn an_open_breaker_spends_no_attempt_and_requeues_at_its_deadline() {
        let (cloud, mut w, markets) = tripped();
        let Breaker::Open { until } = w.breaker else {
            panic!("fixture must have tripped the breaker");
        };
        let later = T0 + SimDuration::from_secs(60);
        w.probe_od(&cloud, markets[3], ProbeTrigger::Recovery, later);
        let queued = w.pending.last().expect("re-queued");
        assert_eq!((queued.market, queued.attempt), (markets[3], 0));
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
        w.dispatch_due(&cloud, now);
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
        w.dispatch_due(&cloud, now);
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
        assert_eq!((w.store.len(), w.stats.probes_issued), (3, 3));
    }

    #[test]
    fn a_full_pending_queue_abandons_and_counts_a_suppressed_probe() {
        let (cloud, mut w, markets) = pipeline(ResilienceConfig {
            max_pending: 2,
            ..ResilienceConfig::default()
        });
        for &m in &markets[..3] {
            w.probe_od(&cloud, m, ProbeTrigger::Recovery, T0);
        }
        assert_eq!(w.pending.len(), 2, "the bound holds");
        assert_eq!(w.stats.probes_abandoned, 1);
        assert_eq!(
            w.store.suppressed_probes(),
            1,
            "the loss shows in the store"
        );
        assert!(w.pending.iter().all(|p| p.market != markets[2]));
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
    fn a_caught_panic_feeds_the_breaker_and_keeps_the_queues() {
        silence_chaos_panics();
        let (cloud, mut w, markets) = pipeline(ResilienceConfig {
            breaker_threshold: 1,
            chaos_panic_period: Some(1),
            ..ResilienceConfig::default()
        });
        let later = T0 + SimDuration::hours(9);
        w.pending.push(PendingProbe {
            market: markets[0],
            trigger: ProbeTrigger::Recovery,
            due: later,
            attempt: 2,
        });
        w.recovery_due.insert(markets[1], later);
        w.orphans.push(InstanceId(7));
        w.batch.push(CloudEvent::PriceChange {
            market: markets[2],
            previous: Price::ZERO,
            price: Price::from_dollars(9.0),
            at: T0,
        });

        w.handle_batch(&cloud, T0);
        assert_eq!(w.stats.worker_panics, 1);
        assert_eq!(w.stats.breaker_trips, 1, "a crash is a transport failure");
        assert!(matches!(w.breaker, Breaker::Open { .. }));
        assert!(w.store.region_health(HIT).is_some_and(|h| h.degraded));
        assert_eq!(w.pending.len(), 1);
        assert_eq!((w.pending[0].market, w.pending[0].attempt), (markets[0], 2));
        assert_eq!(w.recovery_due.get(&markets[1]), Some(&later));
        assert_eq!(w.orphans, [InstanceId(7)]);
        // The crashed batch is dropped, not replayed into the next tick.
        assert!(w.batch.is_empty());
        assert_eq!(w.store.len(), 0);
    }
}
