//! The SpotLight service itself: an [`Agent`] that watches every spot
//! market, probes on price spikes, fans out to related markets, tracks
//! unavailability until recovery, periodically checks spot capacity,
//! measures intrinsic bids, and observes revocations.
//!
//! This is the deterministic in-engine deployment; the concurrent
//! "live" deployment of Chapter 4's manager hierarchy lives in
//! [`crate::manager`]. Both write the same [`crate::store::DataStore`].

use crate::bidspread::find_intrinsic_bid;
use crate::policy::SpotLightConfig;
use crate::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use crate::store::{IntrinsicBidRecord, RevocationRecord, SharedStore, SpikeEvent};
use cloud_sim::api::ApiError;
use cloud_sim::cloud::CloudEvent;
use cloud_sim::engine::{Agent, Ctx};
use cloud_sim::ids::{MarketId, SpotRequestId};
use cloud_sim::lifecycle::SpotRequestState;
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::SimTime;
use std::collections::{HashMap, HashSet};

/// What a scheduled wake-up should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Re-probe an unavailable market until it recovers
    /// (`RequestInsufficiency`); the flag records whether the probe
    /// chain originated from the periodic `CheckCapacity` stream.
    Recovery(MarketId, ProbeKind, bool),
    /// Probe the next batch of spot markets (`CheckCapacity`).
    SpotCheckBatch,
    /// Run the intrinsic-bid search on `bidspread_markets[idx]`
    /// (`BidSpread`).
    BidSpread(usize),
    /// Voluntarily release a revocation-watch hold (`Revocation`).
    ReleaseHold(SpotRequestId),
}

/// An active revocation-watch hold.
#[derive(Debug, Clone, Copy)]
struct Hold {
    market: MarketId,
    acquired_at: SimTime,
    bid: Price,
}

/// The SpotLight probing service.
pub struct SpotLight {
    cfg: SpotLightConfig,
    store: SharedStore,
    budget: crate::budget::BudgetManager,
    rng: SimRng,
    actions: HashMap<u64, Action>,
    next_action: u64,
    cooldown_until: HashMap<MarketId, SimTime>,
    recovering: HashSet<(MarketId, ProbeKind)>,
    spot_cursor: usize,
    holds: HashMap<SpotRequestId, Hold>,
    /// Markets with an active hold (one watch at a time per market).
    held_markets: HashSet<MarketId>,
}

impl std::fmt::Debug for SpotLight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpotLight")
            .field("recovering", &self.recovering.len())
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
        let budget = crate::budget::BudgetManager::new(cfg.budget, SimTime::ZERO);
        let rng = SimRng::seed_from(cfg.seed);
        SpotLight {
            cfg,
            store,
            budget,
            rng,
            actions: HashMap::new(),
            next_action: 1,
            cooldown_until: HashMap::new(),
            recovering: HashSet::new(),
            spot_cursor: 0,
            holds: HashMap::new(),
            held_markets: HashSet::new(),
        }
    }

    /// Total probe spend so far.
    pub fn spend(&self) -> Price {
        self.budget.spent_total()
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_>, at: SimTime, action: Action) {
        let id = self.next_action;
        self.next_action += 1;
        self.actions.insert(id, action);
        ctx.wake_at(at, id);
    }

    fn ratio(ctx: &Ctx<'_>, market: MarketId, price: Price) -> f64 {
        price.ratio_to(ctx.cloud.catalog().od_price(market))
    }

    /// Issues one on-demand probe and handles its consequences.
    fn probe_od(
        &mut self,
        ctx: &mut Ctx<'_>,
        market: MarketId,
        trigger: ProbeTrigger,
    ) -> ProbeOutcome {
        let now = ctx.now();
        let od_price = ctx.cloud.catalog().od_price(market);
        if !self.budget.allows(now, od_price) {
            self.store.record_suppressed();
            return ProbeOutcome::ApiLimited;
        }
        let (outcome, cost) = match ctx.cloud.run_od_instance(market) {
            Ok(id) => {
                let cost = ctx.cloud.terminate_od_instance(id).unwrap_or(od_price);
                (ProbeOutcome::Fulfilled, cost)
            }
            Err(ApiError::InsufficientInstanceCapacity { .. }) => {
                (ProbeOutcome::InsufficientCapacity, Price::ZERO)
            }
            Err(_) => (ProbeOutcome::ApiLimited, Price::ZERO),
        };
        self.budget.charge(now, cost);
        let spot_ratio = ctx
            .cloud
            .oracle_published_price(market)
            .map_or(0.0, |p| Self::ratio(ctx, market, p));
        // Build the record before recording it: the store's stripe lock
        // is held only for the record call itself.
        let record = ProbeRecord {
            at: now,
            market,
            kind: ProbeKind::OnDemand,
            trigger,
            outcome,
            spot_ratio,
            bid: None,
            cost,
        };
        let opened = self.store.record_probe(record);

        if outcome == ProbeOutcome::Fulfilled {
            self.recovering.remove(&(market, ProbeKind::OnDemand));
        } else if outcome == ProbeOutcome::InsufficientCapacity {
            if self.recovering.insert((market, ProbeKind::OnDemand)) {
                self.schedule(
                    ctx,
                    now + self.cfg.policy.reprobe_interval,
                    Action::Recovery(market, ProbeKind::OnDemand, false),
                );
            }
            let _ = opened;
            if let ProbeTrigger::PriceSpike { ratio } = trigger {
                self.fan_out(ctx, market, ratio);
            }
        }
        outcome
    }

    /// Fan-out after an initial detection: family siblings, cross-zone
    /// siblings, and a spot verification of the same market.
    fn fan_out(&mut self, ctx: &mut Ctx<'_>, origin: MarketId, origin_ratio: f64) {
        if self.cfg.policy.family_fanout {
            for sibling in ctx.cloud.catalog().family_siblings(origin) {
                self.probe_od(
                    ctx,
                    sibling,
                    ProbeTrigger::FamilyFanout {
                        origin,
                        origin_ratio,
                    },
                );
            }
        }
        if self.cfg.policy.cross_az_fanout {
            for sibling in ctx.cloud.catalog().az_siblings(origin) {
                self.probe_od(
                    ctx,
                    sibling,
                    ProbeTrigger::CrossAzFanout {
                        origin,
                        origin_ratio,
                    },
                );
            }
        }
        if self.cfg.policy.cross_verify {
            self.probe_spot(ctx, origin, ProbeTrigger::CrossVerify { origin }, None);
        }
    }

    /// Issues one spot probe (bidding `bid`, default the published
    /// price) and handles its consequences.
    fn probe_spot(
        &mut self,
        ctx: &mut Ctx<'_>,
        market: MarketId,
        trigger: ProbeTrigger,
        bid: Option<Price>,
    ) -> ProbeOutcome {
        let now = ctx.now();
        let Some(published) = ctx.cloud.oracle_published_price(market) else {
            return ProbeOutcome::ApiLimited;
        };
        let bid = bid
            .unwrap_or(published)
            .min(ctx.cloud.catalog().bid_cap(market));
        if !self.budget.allows(now, published) {
            self.store.record_suppressed();
            return ProbeOutcome::ApiLimited;
        }
        let (outcome, cost) = match ctx.cloud.request_spot_instance(market, bid) {
            Ok(sub) => match sub.status {
                SpotRequestState::Fulfilled => {
                    let cost = ctx
                        .cloud
                        .terminate_spot_instance(sub.id)
                        .unwrap_or(published);
                    (ProbeOutcome::Fulfilled, cost)
                }
                SpotRequestState::CapacityNotAvailable => {
                    let _ = ctx.cloud.cancel_spot_request(sub.id);
                    (ProbeOutcome::CapacityNotAvailable, Price::ZERO)
                }
                SpotRequestState::PriceTooLow => {
                    let _ = ctx.cloud.cancel_spot_request(sub.id);
                    (ProbeOutcome::PriceTooLow, Price::ZERO)
                }
                SpotRequestState::CapacityOversubscribed => {
                    let _ = ctx.cloud.cancel_spot_request(sub.id);
                    (ProbeOutcome::CapacityOversubscribed, Price::ZERO)
                }
                _ => (ProbeOutcome::ApiLimited, Price::ZERO),
            },
            Err(_) => (ProbeOutcome::ApiLimited, Price::ZERO),
        };
        self.budget.charge(now, cost);
        let record = ProbeRecord {
            at: now,
            market,
            kind: ProbeKind::Spot,
            trigger,
            outcome,
            spot_ratio: Self::ratio(ctx, market, published),
            bid: Some(bid),
            cost,
        };
        let opened = self.store.record_probe(record);

        if outcome == ProbeOutcome::Fulfilled {
            self.recovering.remove(&(market, ProbeKind::Spot));
        } else if outcome == ProbeOutcome::CapacityNotAvailable {
            if self.recovering.insert((market, ProbeKind::Spot)) {
                let from_periodic = matches!(trigger, ProbeTrigger::Periodic);
                self.schedule(
                    ctx,
                    now + self.cfg.policy.reprobe_interval,
                    Action::Recovery(market, ProbeKind::Spot, from_periodic),
                );
            }
            // Verify the on-demand side of the market (Chapter 4:
            // "when spot request held due to market unavailability,
            // issue an on-demand instance request").
            if opened
                && self.cfg.policy.cross_verify
                && !matches!(trigger, ProbeTrigger::CrossVerify { .. })
            {
                self.probe_od(ctx, market, ProbeTrigger::CrossVerify { origin: market });
            }
        }
        outcome
    }

    /// Handles a published price change: spike triggering + revocation
    /// watching.
    fn on_price_change(&mut self, ctx: &mut Ctx<'_>, market: MarketId, price: Price) {
        let ratio = Self::ratio(ctx, market, price);
        let now = ctx.now();

        let off_cooldown = self
            .cooldown_until
            .get(&market)
            .is_none_or(|&until| now >= until);
        let eligible = off_cooldown
            && if ratio >= self.cfg.policy.spike_threshold {
                self.rng.chance(self.cfg.policy.sampling_probability)
            } else {
                self.rng.chance(self.cfg.policy.subthreshold_sampling)
            };

        let mut probed = false;
        if eligible {
            self.cooldown_until
                .insert(market, now + self.cfg.policy.market_cooldown);
            let outcome = self.probe_od(ctx, market, ProbeTrigger::PriceSpike { ratio });
            probed = outcome.is_informative();
        }
        if probed {
            self.store.record_spike(SpikeEvent {
                market,
                at: now,
                ratio,
                probed,
            });
        }

        // Revocation watch: acquire a spot instance during a spike and
        // see whether it survives.
        if probed
            && self.cfg.revocation_watch.contains(&market)
            && !self.held_markets.contains(&market)
        {
            self.acquire_hold(ctx, market);
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
                self.schedule(
                    ctx,
                    now + self.cfg.revocation_hold_max,
                    Action::ReleaseHold(sub.id),
                );
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
        for market in markets {
            // Skip markets already being tracked as unavailable; the
            // recovery loop owns them.
            if self.recovering.contains(&(market, ProbeKind::Spot)) {
                continue;
            }
            self.probe_spot(ctx, market, ProbeTrigger::Periodic, None);
        }
        let at = ctx.now() + sc.interval;
        self.schedule(ctx, at, Action::SpotCheckBatch);
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
                    spot_ratio: Self::ratio(ctx, market, result.published),
                    bid: result.intrinsic,
                    cost: result.cost,
                });
            }
        } else {
            self.store.record_suppressed();
        }
        let at = now + self.cfg.bidspread_interval;
        self.schedule(ctx, at, Action::BidSpread(idx));
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
        self.budget = crate::budget::BudgetManager::new(self.cfg.budget, ctx.now());
        if let Some(sc) = self.cfg.spot_check {
            let at = ctx.now() + sc.interval;
            self.schedule(ctx, at, Action::SpotCheckBatch);
        }
        for idx in 0..self.cfg.bidspread_markets.len() {
            // Stagger the searches so they do not collide on limits.
            let offset = cloud_sim::time::SimDuration::from_secs(601 * (idx as u64 + 1));
            let at = ctx.now() + offset;
            self.schedule(ctx, at, Action::BidSpread(idx));
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(action) = self.actions.remove(&token) else {
            return;
        };
        match action {
            Action::Recovery(market, kind, from_periodic) => {
                // The recovery probe itself re-schedules when the market
                // is still unavailable. Re-probes of the CheckCapacity
                // stream keep the Periodic trigger (§3.3: "continues to
                // issue the probe ... until the capacity becomes
                // available"), so the Figure 5.10/5.11 analyses see them.
                self.recovering.remove(&(market, kind));
                match kind {
                    ProbeKind::OnDemand => {
                        self.probe_od(ctx, market, ProbeTrigger::Recovery);
                    }
                    ProbeKind::Spot if from_periodic => {
                        self.probe_spot(ctx, market, ProbeTrigger::Periodic, None);
                    }
                    ProbeKind::Spot => {
                        self.probe_spot(ctx, market, ProbeTrigger::Recovery, None);
                    }
                    // Notices are pushed by the provider, never probed for.
                    ProbeKind::InterruptionNotice => {}
                }
            }
            Action::SpotCheckBatch => self.run_spot_check_batch(ctx),
            Action::BidSpread(idx) => self.run_bidspread(ctx, idx),
            Action::ReleaseHold(request) => self.release_hold(ctx, request),
        }
    }

    fn on_cloud_event(&mut self, ctx: &mut Ctx<'_>, event: &CloudEvent) {
        match *event {
            CloudEvent::PriceChange { market, price, .. } => {
                self.on_price_change(ctx, market, price);
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
            CloudEvent::CapacityEvictionNotice {
                market, evict_at, ..
            } => {
                // A provider-pushed interruption notice (chaos-injected
                // capacity eviction): a free unavailability observation.
                self.store.record_probe(ProbeRecord {
                    at: ctx.now(),
                    market,
                    kind: ProbeKind::InterruptionNotice,
                    trigger: ProbeTrigger::EvictionNotice { evict_at },
                    outcome: ProbeOutcome::CapacityNotAvailable,
                    spot_ratio: 0.0,
                    bid: None,
                    cost: Price::ZERO,
                });
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
