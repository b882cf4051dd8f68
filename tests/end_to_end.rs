//! End-to-end pipeline tests: cloud → SpotLight → store → analysis →
//! queries, validated against the simulator's ground truth.

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::CloudEvent;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::{Agent, Ctx, Engine};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::analysis::{duration_cdf, spike_unavailability};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::probe::{ProbeKind, ProbeOutcome};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::{shared_store, SharedStore};

fn run(
    days: u64,
    seed: u64,
    threshold: f64,
) -> (cloud_sim::cloud::Cloud, SharedStore, SimTime, SimTime) {
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(seed));
    engine.cloud_mut().warmup(50);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(days);
    let store = shared_store();
    engine.add_agent(Box::new(SpotLight::new(
        SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: threshold,
                ..PolicyConfig::default()
            },
            ..SpotLightConfig::default()
        },
        store.clone(),
    )));
    engine.run_until(end);
    let (cloud, _) = engine.into_parts();
    (cloud, store, start, end)
}

#[test]
fn deterministic_end_to_end_replay() {
    let summarize = |store: &SharedStore| {
        let s = store.read();
        (
            s.len(),
            s.spikes().count(),
            s.intervals().count(),
            s.total_cost(),
        )
    };
    let (_, a, _, _) = run(2, 99, 0.5);
    let (_, b, _, _) = run(2, 99, 0.5);
    assert_eq!(summarize(&a), summarize(&b), "same seed, same study");
}

#[test]
fn probe_records_are_well_formed() {
    let (cloud, store, start, end) = run(3, 5, 0.5);
    let s = store.read();
    assert!(!s.is_empty(), "expected probes over 3 volatile days");
    for p in s.probes() {
        assert!(p.at >= start && p.at <= end, "probe outside study span");
        assert!(
            cloud.catalog().market_exists(p.market),
            "probe for unknown market"
        );
        if p.kind == ProbeKind::Spot {
            assert!(p.bid.is_some(), "spot probes carry their bid");
        }
        if p.outcome == ProbeOutcome::Fulfilled {
            assert!(
                p.cost >= cloud.catalog().od_price(p.market).scale(0.01),
                "fulfilled probes pay something"
            );
        } else {
            assert!(p.cost.is_zero(), "rejected probes are free");
        }
    }
    // The store's cost ledger matches the per-record sum.
    let sum: cloud_sim::price::Price = s.probes().map(|p| p.cost).sum();
    assert_eq!(sum, s.total_cost());
}

#[test]
fn measured_unavailability_matches_ground_truth_direction() {
    // Markets the simulator reports as shorter on capacity (ground
    // truth) must also look less available through SpotLight's probes.
    let (cloud, store, start, end) = run(5, 13, 0.4);
    let s = store.read();
    let query = SpotLightQuery::new(&s, start, end);

    // Ground truth: total shortage seconds per pool from the trace.
    let mut truth: Vec<(cloud_sim::ids::PoolId, u64)> = Vec::new();
    for shortage in cloud.trace().shortages() {
        let end_t = shortage.end.unwrap_or(end);
        let secs = end_t.saturating_since(shortage.start).as_secs();
        match truth.iter_mut().find(|(p, _)| *p == shortage.pool) {
            Some((_, total)) => *total += secs,
            None => truth.push((shortage.pool, secs)),
        }
    }
    assert!(
        !truth.is_empty(),
        "seed 13 must leave a shortage to compare"
    );
    // The pool with the most ground-truth shortage should have measured
    // unavailability on at least one of its markets.
    truth.sort_by_key(|&(_, secs)| std::cmp::Reverse(secs));
    let (worst_pool, secs) = truth[0];
    assert!(secs >= 3600, "worst pool {worst_pool} short only {secs}s");
    let measured: u64 = cloud
        .catalog()
        .markets_in_pool(worst_pool)
        .map(|m| query.unavailable_seconds(m, ProbeKind::OnDemand))
        .sum();
    assert!(
        measured > 0,
        "ground-truth worst pool {worst_pool} ({secs}s short) has no measured \
         unavailability at all"
    );
}

#[test]
fn analysis_functions_work_on_real_study_output() {
    let (_, store, _, _) = run(4, 21, 0.4);
    let s = store.read();
    let curve = spike_unavailability(&s, SimDuration::from_secs(900), None);
    assert_eq!(curve.len(), 11, "thresholds >0 .. >10x");
    assert!(curve[0].trials > 0, "the >0 bucket has trials");
    for p in &curve {
        if let Some(prob) = p.probability {
            assert!((0.0..=1.0).contains(&prob));
        }
    }
    // The duration CDF is a valid CDF.
    let cdf = duration_cdf(&s);
    let mut last = 0.0;
    for h in [0.1, 0.5, 1.0, 5.0, 20.0, 100.0] {
        let f = cdf.fraction_at_or_below(h);
        assert!(f >= last && f <= 1.0);
        last = f;
    }
}

/// A second agent sharing the engine with SpotLight: verifies agents
/// compose (the case-study workloads run beside the prober).
struct EventCounter {
    price_changes: u64,
    revocation_warnings: u64,
}

impl Agent for EventCounter {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_wake(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn on_cloud_event(&mut self, _ctx: &mut Ctx<'_>, event: &CloudEvent) {
        match event {
            CloudEvent::PriceChange { .. } => self.price_changes += 1,
            CloudEvent::SpotRevocationWarning { .. } => self.revocation_warnings += 1,
            _ => {}
        }
    }
}

#[test]
fn agents_compose_on_one_engine() {
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(33));
    engine.cloud_mut().warmup(20);
    let end = engine.cloud().now() + SimDuration::days(1);
    let store = shared_store();
    engine.add_agent(Box::new(SpotLight::new(
        SpotLightConfig::default(),
        store.clone(),
    )));
    let counter_idx = engine.add_agent(Box::new(EventCounter {
        price_changes: 0,
        revocation_warnings: 0,
    }));
    engine.run_until(end);
    let (_, mut agents) = engine.into_parts();
    let _ = agents.remove(counter_idx);
    // Both agents ran without interfering; SpotLight still collected.
    let db = store.read();
    assert!(!db.is_empty() || db.spikes().next().is_none());
}
