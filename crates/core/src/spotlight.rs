//! The SpotLight service: the §3 probing policy, and an engine [`Agent`]
//! that hosts it beside spot-capacity checks, intrinsic-bid searches and
//! revocation watches.
//!
//! # One policy, two hosts
//!
//! The policy (§3.1–§3.4: probe on-demand when a spot price reaches
//! `T × od`, sample with `p` and sub-threshold changes with `p′`, cool
//! the market down, re-probe an unavailable market every `δ` until it
//! recovers, fan out to its siblings, cross-verify the other contract) is
//! one `Policy`, written against a `Port`: the time, the catalog, a
//! published price, one on-demand or spot attempt, a wake-up. An attempt
//! returns an answer or nothing; every answer takes one path. In the
//! engine ([`SpotLight`]) the port is [`Ctx`] behind a windowed budget
//! and nothing means the budget refused; spot checks, bid searches and
//! revocation holds, whose settings only [`SpotLightConfig`] carries, are
//! engine-hosted. In a [`crate::manager::LiveDriver`] region manager the
//! port is the retry/breaker transport and nothing means the attempt was
//! parked; a parked attempt that lands is answered at that tick's time.

use crate::bidspread::find_intrinsic_bid;
use crate::budget::BudgetManager;
use crate::policy::{PolicyConfig, SpotLightConfig};
use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use crate::store::{IntrinsicBidRecord, RevocationRecord, SharedStore, SpikeEvent};
use cloud_sim::api::ApiError;
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::{Cloud, CloudEvent};
use cloud_sim::engine::{Agent, Ctx};
use cloud_sim::ids::{InstanceId, MarketId, SpotRequestId};
use cloud_sim::lifecycle::SpotRequestState;
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::SimTime;
use std::collections::{HashMap, HashSet};

/// What a probe learned and what it cost.
pub(crate) type Answer = (ProbeOutcome, Price);

/// The answer of a probe that could not be sent.
pub(crate) const API_LIMITED: Answer = (ProbeOutcome::ApiLimited, Price::ZERO);

/// A probe the policy sends: what a [`Port`] attempts and, once it is
/// answered, what gets recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    pub(crate) market: MarketId,
    pub(crate) trigger: ProbeTrigger,
    /// The bid of a spot probe; `None` for an on-demand one.
    pub(crate) bid: Option<Price>,
}

/// What the policy needs of a cloud.
pub(crate) trait Port {
    /// The current simulated time.
    fn now(&self) -> SimTime;
    /// The immutable market catalog.
    fn catalog(&self) -> &Catalog;
    /// A market's published spot price.
    fn published_price(&self, market: MarketId) -> Option<Price>;
    /// One on-demand or (with a bid) spot attempt: the answer, or
    /// `None` when none came back now.
    fn attempt(&mut self, probe: Probe) -> Option<Answer>;
    /// Asks for `Policy::on_wake(token)` at `at`.
    fn wake_at(&mut self, at: SimTime, token: u64);
}

/// What a probe obtained and must give back at once; an orphan when the
/// release failed retryably, for it holds a service-limit slot until a
/// later release succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Orphan {
    /// A launched on-demand instance, to terminate.
    OdInstance(InstanceId),
    /// A fulfilled spot request, whose instance to terminate.
    SpotInstance(SpotRequestId),
    /// A held spot request, to cancel.
    SpotRequest(SpotRequestId),
}

impl Orphan {
    /// One release call: what it charged, or its error.
    pub(crate) fn release(self, cloud: &mut Cloud) -> Result<Price, ApiError> {
        match self {
            Orphan::OdInstance(id) => cloud.terminate_od_instance(id),
            Orphan::SpotInstance(id) => cloud.terminate_spot_instance(id),
            Orphan::SpotRequest(id) => cloud.cancel_spot_request(id).map(|()| Price::ZERO),
        }
    }
}

/// Sends `probe` and releases what it obtained: the answer, plus the
/// orphan a failed release left (a fulfilled probe then costs its
/// estimate, the on-demand or the published spot price); or the
/// request's own error. A capacity rejection is an answer, not an error.
pub(crate) fn call(cloud: &mut Cloud, probe: Probe) -> Result<(Answer, Option<Orphan>), ApiError> {
    let market = probe.market;
    let (outcome, obtained, estimate) = match probe.bid {
        None => match cloud.run_od_instance(market) {
            Ok(id) => {
                let estimate = cloud.catalog().od_price(market);
                (ProbeOutcome::Fulfilled, Orphan::OdInstance(id), estimate)
            }
            Err(ApiError::InsufficientInstanceCapacity { .. }) => {
                return Ok(((ProbeOutcome::InsufficientCapacity, Price::ZERO), None));
            }
            Err(e) => return Err(e),
        },
        Some(bid) => {
            let sub = cloud.request_spot_instance(market, bid)?;
            let outcome = match sub.status {
                SpotRequestState::Fulfilled => ProbeOutcome::Fulfilled,
                SpotRequestState::CapacityNotAvailable => ProbeOutcome::CapacityNotAvailable,
                SpotRequestState::PriceTooLow => ProbeOutcome::PriceTooLow,
                SpotRequestState::CapacityOversubscribed => ProbeOutcome::CapacityOversubscribed,
                _ => return Ok((API_LIMITED, None)),
            };
            match outcome {
                ProbeOutcome::Fulfilled => {
                    let estimate = cloud.oracle_published_price(market).unwrap_or(bid);
                    (outcome, Orphan::SpotInstance(sub.id), estimate)
                }
                _ => (outcome, Orphan::SpotRequest(sub.id), Price::ZERO),
            }
        }
    };
    Ok(match obtained.release(cloud) {
        Ok(cost) => ((outcome, cost), None),
        Err(e) => ((outcome, estimate), e.is_retryable().then_some(obtained)),
    })
}

/// What a scheduled wake-up should do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Action {
    /// Re-probe an unavailable market until it recovers
    /// (`RequestInsufficiency`), with the trigger the re-probes carry.
    Recovery(MarketId, ProbeKind, ProbeTrigger),
    /// Probe the next batch of spot markets (`CheckCapacity`).
    SpotCheckBatch,
    /// Run the intrinsic-bid search on `bidspread_markets[idx]`
    /// (`BidSpread`).
    BidSpread(usize),
    /// Voluntarily release a revocation-watch hold (`Revocation`).
    ReleaseHold(SpotRequestId),
}

/// The §3 probing policy, hosted by [`SpotLight`] in the engine and by
/// each region manager of [`crate::manager::LiveDriver`].
pub(crate) struct Policy {
    cfg: PolicyConfig,
    store: SharedStore,
    /// The sampling stream (`p`, `p′`).
    rng: SimRng,
    actions: HashMap<u64, Action>,
    next_action: u64,
    cooldown_until: HashMap<MarketId, SimTime>,
    recovering: HashSet<(MarketId, ProbeKind)>,
    /// Probe records written so far, interruption notices included.
    pub(crate) recorded: usize,
}

impl Policy {
    pub(crate) fn new(cfg: PolicyConfig, rng: SimRng, store: SharedStore) -> Self {
        Policy {
            cfg,
            store,
            rng,
            actions: HashMap::new(),
            next_action: 1,
            cooldown_until: HashMap::new(),
            recovering: HashSet::new(),
            recorded: 0,
        }
    }

    /// Files `action` under a fresh wake-up token.
    fn token(&mut self, action: Action) -> u64 {
        let id = self.next_action;
        self.next_action += 1;
        self.actions.insert(id, action);
        id
    }

    fn record(&mut self, record: ProbeRecord) -> bool {
        self.recorded += 1;
        self.store.record_probe(record)
    }

    /// Handles a cloud event: spike triggering on a price change, a free
    /// observation on an interruption notice. Returns the spike probe's
    /// outcome when one was answered.
    pub(crate) fn on_event<P: Port>(
        &mut self,
        port: &mut P,
        event: &CloudEvent,
    ) -> Option<ProbeOutcome> {
        let now = port.now();
        match *event {
            CloudEvent::PriceChange { market, price, .. } => {
                let ratio = price.ratio_to(port.catalog().od_price(market));
                let off_cooldown = self
                    .cooldown_until
                    .get(&market)
                    .is_none_or(|&until| now >= until);
                let sampled = off_cooldown
                    && if ratio >= self.cfg.spike_threshold {
                        self.rng.chance(self.cfg.sampling_probability)
                    } else {
                        self.rng.chance(self.cfg.subthreshold_sampling)
                    };
                if !sampled {
                    return None;
                }
                self.cooldown_until
                    .insert(market, now + self.cfg.market_cooldown);
                let trigger = ProbeTrigger::PriceSpike { ratio };
                self.probe(port, market, ProbeKind::OnDemand, trigger)
            }
            // A provider-pushed interruption notice (chaos-injected
            // capacity eviction): recorded without any API call.
            CloudEvent::CapacityEvictionNotice {
                market, evict_at, ..
            } => {
                self.record(ProbeRecord {
                    at: now,
                    market,
                    kind: ProbeKind::InterruptionNotice,
                    trigger: ProbeTrigger::EvictionNotice { evict_at },
                    outcome: ProbeOutcome::CapacityNotAvailable,
                    spot_ratio: 0.0,
                    bid: None,
                    cost: Price::ZERO,
                });
                None
            }
            _ => None,
        }
    }

    /// Runs wake-up `token` when it is a recovery re-probe; any other
    /// action is the host's and is handed back.
    pub(crate) fn on_wake<P: Port>(&mut self, port: &mut P, token: u64) -> Option<Action> {
        let action = self.actions.remove(&token)?;
        let Action::Recovery(market, kind, trigger) = action else {
            return Some(action);
        };
        // The re-probe schedules the next one if the market is still
        // unavailable.
        self.recovering.remove(&(market, kind));
        self.probe(port, market, kind, trigger);
        None
    }

    /// Issues one on-demand or spot probe (bidding the published price);
    /// returns its outcome when it was answered now.
    fn probe<P: Port>(
        &mut self,
        port: &mut P,
        market: MarketId,
        kind: ProbeKind,
        trigger: ProbeTrigger,
    ) -> Option<ProbeOutcome> {
        let bid = match kind {
            ProbeKind::Spot => Some(
                port.published_price(market)?
                    .min(port.catalog().bid_cap(market)),
            ),
            _ => None,
        };
        let probe = Probe {
            market,
            trigger,
            bid,
        };
        let answer = port.attempt(probe)?;
        self.on_answer(port, probe, answer);
        Some(answer.0)
    }

    /// The one path an answer takes, now or when a parked attempt lands:
    /// record it, track the market until it recovers, fan out after a
    /// spike-triggered detection, cross-verify a spot detection, and
    /// record the spike an informative spike probe confirms.
    pub(crate) fn on_answer<P: Port>(&mut self, port: &mut P, probe: Probe, answer: Answer) {
        let (outcome, cost) = answer;
        let kind = probe.bid.map_or(ProbeKind::OnDemand, |_| ProbeKind::Spot);
        let (now, market) = (port.now(), probe.market);
        let od_price = port.catalog().od_price(market);
        let spot_price = port.published_price(market);
        let opened = self.record(ProbeRecord {
            at: now,
            market,
            kind,
            trigger: probe.trigger,
            outcome,
            spot_ratio: spot_price.map_or(0.0, |p| p.ratio_to(od_price)),
            bid: probe.bid,
            cost,
        });
        if outcome == ProbeOutcome::Fulfilled {
            self.recovering.remove(&(market, kind));
        } else if outcome.is_unavailable() {
            if self.recovering.insert((market, kind)) {
                // Re-probes of the CheckCapacity stream keep the Periodic
                // trigger (§3.3: "continues to issue the probe ... until
                // the capacity becomes available"), so the Figure
                // 5.10/5.11 analyses see them.
                let trigger = match probe.trigger {
                    ProbeTrigger::Periodic => ProbeTrigger::Periodic,
                    _ => ProbeTrigger::Recovery,
                };
                let token = self.token(Action::Recovery(market, kind, trigger));
                port.wake_at(now + self.cfg.reprobe_interval, token);
            }
            match (kind, probe.trigger) {
                (ProbeKind::OnDemand, ProbeTrigger::PriceSpike { ratio }) => {
                    self.fan_out(port, market, ratio);
                }
                // A verification is not verified in turn.
                (ProbeKind::Spot, ProbeTrigger::CrossVerify { .. }) => {}
                // Verify the on-demand side of the market (Chapter 4:
                // "when spot request held due to market unavailability,
                // issue an on-demand instance request").
                (ProbeKind::Spot, _) if opened && self.cfg.cross_verify => {
                    let trigger = ProbeTrigger::CrossVerify { origin: market };
                    self.probe(port, market, ProbeKind::OnDemand, trigger);
                }
                _ => {}
            }
        }
        match probe.trigger {
            ProbeTrigger::PriceSpike { ratio } if outcome.is_informative() => {
                self.store.record_spike(SpikeEvent {
                    market,
                    at: now,
                    ratio,
                    probed: true,
                });
            }
            _ => {}
        }
    }

    /// Fan-out after an initial detection: family siblings, cross-zone
    /// siblings, and a spot verification of the same market.
    fn fan_out<P: Port>(&mut self, port: &mut P, origin: MarketId, origin_ratio: f64) {
        if self.cfg.family_fanout {
            let trigger = ProbeTrigger::FamilyFanout {
                origin,
                origin_ratio,
            };
            for sibling in port.catalog().family_siblings(origin) {
                self.probe(port, sibling, ProbeKind::OnDemand, trigger);
            }
        }
        if self.cfg.cross_az_fanout {
            let trigger = ProbeTrigger::CrossAzFanout {
                origin,
                origin_ratio,
            };
            for sibling in port.catalog().az_siblings(origin) {
                self.probe(port, sibling, ProbeKind::OnDemand, trigger);
            }
        }
        if self.cfg.cross_verify {
            let trigger = ProbeTrigger::CrossVerify { origin };
            self.probe(port, origin, ProbeKind::Spot, trigger);
        }
    }
}

/// The engine host's [`Port`]: the engine's [`Ctx`] behind the windowed
/// budget, which records the probes it refuses in the store.
struct EnginePort<'c, 'a>(&'c mut Ctx<'a>, &'c mut BudgetManager, &'c SharedStore);

impl Port for EnginePort<'_, '_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn catalog(&self) -> &Catalog {
        self.0.cloud.catalog()
    }

    fn published_price(&self, market: MarketId) -> Option<Price> {
        self.0.cloud.oracle_published_price(market)
    }

    /// Refused when the budget's window has no room for the probe's
    /// estimate: the on-demand price, or a spot market's published price.
    fn attempt(&mut self, probe: Probe) -> Option<Answer> {
        let estimate = match probe.bid {
            None => self.catalog().od_price(probe.market),
            Some(bid) => self.published_price(probe.market).unwrap_or(bid),
        };
        let now = self.now();
        if !self.1.allows(now, estimate) {
            self.2.record_suppressed();
            return None;
        }
        let answer = call(self.0.cloud, probe).map_or(API_LIMITED, |(answer, _)| answer);
        self.1.charge(now, answer.1);
        Some(answer)
    }

    fn wake_at(&mut self, at: SimTime, token: u64) {
        self.0.wake_at(at, token);
    }
}

/// An active revocation-watch hold.
#[derive(Debug, Clone, Copy)]
struct Hold {
    market: MarketId,
    acquired_at: SimTime,
    bid: Price,
}

/// The SpotLight probing service, hosted by the engine.
pub struct SpotLight {
    cfg: SpotLightConfig,
    store: SharedStore,
    budget: BudgetManager,
    policy: Policy,
    spot_cursor: usize,
    holds: HashMap<SpotRequestId, Hold>,
    /// Markets with an active hold (one watch at a time per market).
    held_markets: HashSet<MarketId>,
}

impl std::fmt::Debug for SpotLight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpotLight")
            .field("recovering", &self.policy.recovering.len())
            .field("holds", &self.holds.len())
            .finish_non_exhaustive()
    }
}

impl SpotLight {
    /// Creates the service with its configuration and shared store.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(cfg: SpotLightConfig, store: SharedStore) -> Self {
        cfg.validate().expect("invalid SpotLight configuration");
        let rng = SimRng::seed_from(cfg.seed);
        SpotLight {
            budget: BudgetManager::new(cfg.budget, SimTime::ZERO),
            policy: Policy::new(cfg.policy.clone(), rng, store.clone()),
            cfg,
            store,
            spot_cursor: 0,
            holds: HashMap::new(),
            held_markets: HashSet::new(),
        }
    }

    fn acquire_hold(&mut self, ctx: &mut Ctx<'_>, market: MarketId) {
        let now = ctx.now();
        let bid = ctx.cloud.catalog().od_price(market);
        if !self.budget.allows(now, bid) {
            self.store.record_suppressed();
            return;
        }
        match ctx.cloud.request_spot_instance(market, bid) {
            Ok(sub) if sub.status == SpotRequestState::Fulfilled => {
                self.budget.charge(now, bid); // reserve one hour of budget
                self.holds.insert(
                    sub.id,
                    Hold {
                        market,
                        acquired_at: now,
                        bid,
                    },
                );
                self.held_markets.insert(market);
                let token = self.policy.token(Action::ReleaseHold(sub.id));
                ctx.wake_at(now + self.cfg.revocation_hold_max, token);
            }
            Ok(sub) => {
                let _ = ctx.cloud.cancel_spot_request(sub.id);
            }
            Err(_) => {}
        }
    }

    fn run_spot_check_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(sc) = self.cfg.spot_check else {
            return;
        };
        let markets: Vec<MarketId> = {
            let all = ctx.cloud.catalog().markets();
            (0..sc.batch_size)
                .map(|k| all[(self.spot_cursor + k) % all.len()])
                .collect()
        };
        self.spot_cursor = (self.spot_cursor + sc.batch_size) % ctx.cloud.catalog().markets().len();
        let mut port = EnginePort(ctx, &mut self.budget, &self.store);
        for market in markets {
            // Skip markets already being tracked as unavailable; the
            // recovery loop owns them.
            if !self.policy.recovering.contains(&(market, ProbeKind::Spot)) {
                let trigger = ProbeTrigger::Periodic;
                self.policy
                    .probe(&mut port, market, ProbeKind::Spot, trigger);
            }
        }
        let token = self.policy.token(Action::SpotCheckBatch);
        ctx.wake_at(ctx.now() + sc.interval, token);
    }

    fn run_bidspread(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let market = self.cfg.bidspread_markets[idx];
        let now = ctx.now();
        let est = ctx
            .cloud
            .oracle_published_price(market)
            .unwrap_or(Price::ZERO);
        if self.budget.allows(now, est) {
            if let Some(result) = find_intrinsic_bid(ctx.cloud, market, 6) {
                self.budget.charge(now, result.cost);
                if let Some(intrinsic) = result.intrinsic {
                    self.store.record_intrinsic_bid(IntrinsicBidRecord {
                        market,
                        at: now,
                        published: result.published,
                        intrinsic,
                        attempts: result.attempts,
                    });
                }
                // The search's requests are probes too.
                self.store.record_probe(ProbeRecord {
                    at: now,
                    market,
                    kind: ProbeKind::Spot,
                    trigger: ProbeTrigger::BidSearch,
                    outcome: if result.intrinsic.is_some() {
                        ProbeOutcome::Fulfilled
                    } else {
                        ProbeOutcome::CapacityNotAvailable
                    },
                    spot_ratio: result
                        .published
                        .ratio_to(ctx.cloud.catalog().od_price(market)),
                    bid: result.intrinsic,
                    cost: result.cost,
                });
            }
        } else {
            self.store.record_suppressed();
        }
        let token = self.policy.token(Action::BidSpread(idx));
        ctx.wake_at(now + self.cfg.bidspread_interval, token);
    }

    fn release_hold(&mut self, ctx: &mut Ctx<'_>, request: SpotRequestId) {
        let Some(hold) = self.holds.remove(&request) else {
            return; // already revoked
        };
        self.held_markets.remove(&hold.market);
        let now = ctx.now();
        if ctx.cloud.terminate_spot_instance(request).is_ok() {
            self.store.record_revocation(RevocationRecord {
                market: hold.market,
                acquired_at: hold.acquired_at,
                bid: hold.bid,
                revoked_at: None,
                released_at: Some(now),
            });
        }
    }
}

impl Agent for SpotLight {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Align budget windows with the deployment start.
        self.budget = BudgetManager::new(self.cfg.budget, ctx.now());
        if let Some(sc) = self.cfg.spot_check {
            let token = self.policy.token(Action::SpotCheckBatch);
            ctx.wake_at(ctx.now() + sc.interval, token);
        }
        for idx in 0..self.cfg.bidspread_markets.len() {
            // Stagger the searches so they do not collide on limits.
            let offset = cloud_sim::time::SimDuration::from_secs(601 * (idx as u64 + 1));
            let token = self.policy.token(Action::BidSpread(idx));
            ctx.wake_at(ctx.now() + offset, token);
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let port = &mut EnginePort(ctx, &mut self.budget, &self.store);
        match self.policy.on_wake(port, token) {
            Some(Action::SpotCheckBatch) => self.run_spot_check_batch(ctx),
            Some(Action::BidSpread(idx)) => self.run_bidspread(ctx, idx),
            Some(Action::ReleaseHold(request)) => self.release_hold(ctx, request),
            Some(Action::Recovery(..)) | None => {}
        }
    }

    fn on_cloud_event(&mut self, ctx: &mut Ctx<'_>, event: &CloudEvent) {
        let port = &mut EnginePort(ctx, &mut self.budget, &self.store);
        let spike_probe = self.policy.on_event(port, event);
        match *event {
            // Revocation watch: acquire a spot instance during a probed
            // spike and see whether it survives.
            CloudEvent::PriceChange { market, .. }
                if spike_probe.is_some_and(ProbeOutcome::is_informative)
                    && self.cfg.revocation_watch.contains(&market)
                    && !self.held_markets.contains(&market) =>
            {
                self.acquire_hold(ctx, market);
            }
            CloudEvent::SpotTerminatedByPrice { request, at, .. } => {
                if let Some(hold) = self.holds.remove(&request) {
                    self.held_markets.remove(&hold.market);
                    self.store.record_revocation(RevocationRecord {
                        market: hold.market,
                        acquired_at: hold.acquired_at,
                        bid: hold.bid,
                        revoked_at: Some(at),
                        released_at: Some(at),
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PolicyConfig, SpotCheckConfig};
    use crate::store::shared_store;
    use cloud_sim::catalog::Catalog;
    use cloud_sim::config::SimConfig;
    use cloud_sim::engine::Engine;
    use cloud_sim::time::{SimDuration, SimTime};

    fn run_spotlight(days: u64, sim_seed: u64, cfg: SpotLightConfig) -> crate::store::SharedStore {
        let config = SimConfig::paper(sim_seed);
        let mut engine = Engine::new(Catalog::testbed(), config);
        engine.cloud_mut().warmup(20);
        let store = shared_store();
        engine.add_agent(Box::new(SpotLight::new(cfg, store.clone())));
        engine.run_until(SimTime::ZERO + SimDuration::days(days));
        store
    }

    #[test]
    fn collects_probes_on_volatile_testbed() {
        let cfg = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            spot_check: Some(SpotCheckConfig {
                interval: SimDuration::from_secs(900),
                batch_size: 8,
            }),
            ..SpotLightConfig::default()
        };
        let store = run_spotlight(3, 11, cfg);
        let s = store.read();
        assert!(!s.is_empty(), "expected probes on a volatile testbed");
        assert!(
            s.probes().any(|p| p.kind == ProbeKind::Spot),
            "spot checks should run"
        );
        assert!(
            s.spikes().all(|sp| sp.probed),
            "recorded spikes are probed spikes"
        );
        // Every closed interval ends after it starts.
        for i in s.intervals() {
            if let Some(end) = i.end {
                assert!(end > i.start);
            }
        }
    }

    #[test]
    fn fan_out_probes_follow_detections() {
        let cfg = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            spot_check: None,
            ..SpotLightConfig::default()
        };
        let store = run_spotlight(5, 13, cfg);
        let s = store.read();
        let detections = s
            .probes()
            .filter(|p| {
                p.outcome == ProbeOutcome::InsufficientCapacity
                    && matches!(p.trigger, ProbeTrigger::PriceSpike { .. })
            })
            .count();
        let related = s.probes().filter(|p| p.trigger.is_related()).count();
        if detections > 0 {
            assert!(related > 0, "detections must trigger related-market probes");
        }
    }

    #[test]
    fn durable_engine_run_recovers_equal_to_in_memory_twin() {
        use crate::durable::DurableOptions;
        use crate::store::DataStore;
        use spotlight_persist::tempdir::TempDir;
        use std::sync::Arc;

        let cfg = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            spot_check: Some(SpotCheckConfig {
                interval: SimDuration::from_secs(900),
                batch_size: 8,
            }),
            ..SpotLightConfig::default()
        };

        // The deterministic engine makes the in-memory twin a perfect
        // oracle for the durable run: same seed, same probe stream.
        let twin = run_spotlight(2, 31, cfg.clone());

        let tmp = TempDir::new("engine-durable");
        let dir = tmp.path().join("store");
        {
            let store: crate::store::SharedStore = Arc::new(
                DataStore::create_durable(&dir, DurableOptions::default()).expect("create"),
            );
            let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(31));
            engine.cloud_mut().warmup(20);
            engine.add_agent(Box::new(SpotLight::new(cfg, store.clone())));
            engine.run_until(SimTime::ZERO + SimDuration::days(2));
            assert!(store.is_durable());
        } // drop: drain + final fsync

        let recovered = DataStore::recover(&dir).expect("recover");
        assert!(!twin.is_empty());
        assert_eq!(recovered.len(), twin.len());
        assert_eq!(recovered.total_cost(), twin.total_cost());
        assert_eq!(recovered.suppressed_probes(), twin.suppressed_probes());
        let want = twin.read();
        let got = recovered.read();
        assert_eq!(
            got.probes().collect::<Vec<_>>(),
            want.probes().collect::<Vec<_>>(),
            "recovered raw probe log must be bit-identical"
        );
        assert_eq!(got.spikes().count(), want.spikes().count());
        assert_eq!(
            got.intervals().collect::<Vec<_>>(),
            want.intervals().collect::<Vec<_>>()
        );
        assert_eq!(
            got.revocations().collect::<Vec<_>>(),
            want.revocations().collect::<Vec<_>>()
        );
        for p in want.probes() {
            assert_eq!(
                got.probe_stats(p.market, p.kind),
                want.probe_stats(p.market, p.kind)
            );
        }
    }

    #[test]
    fn budget_limits_probing() {
        use crate::budget::BudgetConfig;
        use cloud_sim::price::Price;
        let tight = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            budget: BudgetConfig {
                window: SimDuration::hours(6),
                limit: Some(Price::from_dollars(0.30)),
            },
            ..SpotLightConfig::default()
        };
        let unlimited = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            ..SpotLightConfig::default()
        };
        let tight_store = run_spotlight(3, 17, tight);
        let free_store = run_spotlight(3, 17, unlimited);
        let tight_cost = tight_store.total_cost();
        let free_cost = free_store.total_cost();
        assert!(
            tight_cost < free_cost,
            "tight budget must spend less: {tight_cost} vs {free_cost}"
        );
        assert!(tight_store.suppressed_probes() > 0);
    }

    #[test]
    fn sampling_probability_thins_probes() {
        let full = SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                market_cooldown: SimDuration::from_secs(60),
                ..PolicyConfig::default()
            },
            spot_check: None,
            ..SpotLightConfig::default()
        };
        let sampled = SpotLightConfig {
            policy: PolicyConfig {
                sampling_probability: 0.1,
                ..full.policy.clone()
            },
            ..full.clone()
        };
        let spike_probes = |store: &crate::store::SharedStore| {
            store
                .read()
                .probes()
                .filter(|p| matches!(p.trigger, ProbeTrigger::PriceSpike { .. }))
                .count()
        };
        let full_n = spike_probes(&run_spotlight(3, 19, full));
        let sampled_n = spike_probes(&run_spotlight(3, 19, sampled));
        assert!(
            sampled_n < full_n / 2,
            "10% sampling should trigger far fewer spike probes ({sampled_n} vs {full_n})"
        );
    }
}
