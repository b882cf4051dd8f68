//! The region-sharded tick's determinism contract (see
//! `cloud_sim::cloud`): the same seed and config must produce identical
//! `CloudEvent` sequences, market prices, traces, and billing at any
//! thread count, across randomized seeds and catalog shapes — including
//! under interleaved API traffic that exercises fulfilment, revocation,
//! and held-request re-evaluation inside the parallel phase.

use cloud_sim::catalog::{Catalog, CatalogBuilder};
use cloud_sim::chaos::{ChaosConfig, ChaosWindow, ErrorBurst, EventDelay, EvictionProfile};
use cloud_sim::cloud::{Cloud, CloudEvent};
use cloud_sim::config::SimConfig;
use cloud_sim::ids::{MarketId, Region, SpotRequestId};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use cloud_sim::trace::ShortageInterval;
use proptest::prelude::*;

/// Everything observable a run produces; two runs are equivalent iff
/// their fingerprints are equal.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: Vec<CloudEvent>,
    submissions: Vec<String>,
    prices: Vec<(MarketId, Price, Price)>,
    ledger_total: Price,
    shortages: Vec<ShortageInterval>,
}

/// Drives `ticks` demand steps with a deterministic sprinkle of spot
/// requests (exact-price bids fulfil and later revoke; low bids stay
/// held and re-evaluate every tick) and occasional cancellations.
fn run(catalog: Catalog, seed: u64, threads: usize, ticks: u64) -> Fingerprint {
    let mut config = SimConfig::paper(seed);
    config.record_all_prices = true;
    config.threads = threads;
    let markets: Vec<MarketId> = catalog.markets().to_vec();
    let mut cloud = Cloud::new(catalog, config);

    let mut events = Vec::new();
    let mut drained = Vec::new();
    let mut submissions = Vec::new();
    let mut open: Vec<SpotRequestId> = Vec::new();
    for t in 0..ticks {
        cloud.tick();
        cloud.drain_events_into(&mut drained);
        events.extend_from_slice(&drained);
        let m = markets[(t as usize * 7) % markets.len()];
        if t % 3 == 0 {
            if let Some(p) = cloud.oracle_published_price(m) {
                // Alternate between fulfillable and held bids.
                let bid = if t % 6 == 0 { p } else { p.scale(0.5) };
                match cloud.request_spot_instance(m, bid) {
                    Ok(sub) => {
                        submissions.push(format!("{t}:{}:{:?}", sub.id, sub.status));
                        open.push(sub.id);
                    }
                    Err(e) => submissions.push(format!("{t}:err:{}", e.error_code())),
                }
            }
        }
        if t % 11 == 0 {
            if let Some(id) = open.pop() {
                let outcome = cloud.cancel_spot_request(id).map_err(|e| e.error_code());
                submissions.push(format!("{t}:cancel:{id}:{outcome:?}"));
            }
        }
    }

    Fingerprint {
        events,
        submissions,
        prices: markets
            .iter()
            .map(|&m| {
                (
                    m,
                    cloud.oracle_true_price(m).unwrap(),
                    cloud.oracle_published_price(m).unwrap(),
                )
            })
            .collect(),
        ledger_total: cloud.ledger().total(),
        shortages: cloud.trace().shortages().to_vec(),
    }
}

/// A full-spectrum fault schedule aimed at `region`: an outage, a
/// throttling storm, a transient-error burst, delayed event delivery,
/// and capacity evictions, all inside a 120-tick (36 000 s) run.
fn chaos_for(region: Region) -> ChaosConfig {
    ChaosConfig {
        outages: vec![ChaosWindow {
            region,
            start: SimTime::from_secs(3_000),
            duration: SimDuration::from_secs(6_000),
        }],
        throttle_storms: vec![ChaosWindow {
            region,
            start: SimTime::from_secs(12_000),
            duration: SimDuration::from_secs(3_000),
        }],
        error_bursts: vec![ErrorBurst {
            window: ChaosWindow {
                region,
                start: SimTime::from_secs(18_000),
                duration: SimDuration::from_secs(6_000),
            },
            fraction: 0.4,
        }],
        event_delay: Some(EventDelay {
            probability: 0.3,
            max_delay_ticks: 4,
        }),
        evictions: Some(EvictionProfile {
            rate_per_market_day: 4.0,
            notice_lead: SimDuration::minutes(10),
            hold: SimDuration::hours(1),
        }),
    }
}

/// Like [`run`], but with chaos injected and a stream of on-demand
/// probes aimed at `od_target` so the API-level fault schedule (outage,
/// storm, burst) lands in the fingerprint as observed error codes.
fn run_with_chaos(
    catalog: Catalog,
    seed: u64,
    threads: usize,
    ticks: u64,
    chaos: &ChaosConfig,
    od_target: MarketId,
) -> Fingerprint {
    let mut config = SimConfig::paper(seed);
    config.record_all_prices = true;
    config.threads = threads;
    config.chaos = chaos.clone();
    let markets: Vec<MarketId> = catalog.markets().to_vec();
    let mut cloud = Cloud::new(catalog, config);

    let mut events = Vec::new();
    let mut drained = Vec::new();
    let mut submissions = Vec::new();
    for t in 0..ticks {
        cloud.tick();
        cloud.drain_events_into(&mut drained);
        events.extend_from_slice(&drained);
        if t % 2 == 0 {
            match cloud.run_od_instance(od_target) {
                Ok(id) => {
                    let done = cloud
                        .terminate_od_instance(id)
                        .map(|c| c.to_string())
                        .map_err(|e| e.error_code());
                    submissions.push(format!("{t}:od:ok:{done:?}"));
                }
                Err(e) => submissions.push(format!("{t}:od:{}", e.error_code())),
            }
        }
        if t % 5 == 0 {
            let m = markets[(t as usize * 7) % markets.len()];
            if let Some(p) = cloud.oracle_published_price(m) {
                match cloud.request_spot_instance(m, p) {
                    Ok(sub) => {
                        submissions.push(format!("{t}:{}:{:?}", sub.id, sub.status));
                        let _ = cloud.cancel_spot_request(sub.id);
                    }
                    Err(e) => submissions.push(format!("{t}:err:{}", e.error_code())),
                }
            }
        }
    }

    Fingerprint {
        events,
        submissions,
        prices: markets
            .iter()
            .map(|&m| {
                (
                    m,
                    cloud.oracle_true_price(m).unwrap(),
                    cloud.oracle_published_price(m).unwrap(),
                )
            })
            .collect(),
        ledger_total: cloud.ledger().total(),
        shortages: cloud.trace().shortages().to_vec(),
    }
}

/// A randomized multi-region catalog: `region_mask` picks a non-empty
/// subset of the nine regions, each with `az_count` zones, over a small
/// mixed (commodity + specialized) type set.
fn build_catalog(region_mask: u16, az_count: u8, type_pick: usize) -> Catalog {
    let type_sets: [&[&str]; 3] = [
        &["c3.large", "m3.large"],
        &["c3.xlarge", "d2.2xlarge"],
        &["c3.large", "c3.2xlarge", "g2.2xlarge"],
    ];
    let mut b = CatalogBuilder::new();
    for (r, &region) in Region::ALL.iter().enumerate() {
        if region_mask & (1 << r) != 0 {
            b.region(region, az_count);
        }
    }
    for (i, ty) in type_sets[type_pick % type_sets.len()].iter().enumerate() {
        b.instance_type(
            ty.parse().unwrap(),
            Price::from_dollars(0.105 * (i + 1) as f64),
        );
    }
    b.platform(cloud_sim::ids::Platform::LinuxUnix);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // `threads = 1` and `threads = 4` (and an uneven `threads = 3`)
    // must be observably indistinguishable.
    #[test]
    fn sharded_tick_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        region_mask in 1u16..512,
        az_count in 1u8..3,
        type_pick in 0usize..3,
    ) {
        let catalog = || build_catalog(region_mask, az_count, type_pick);
        let single = run(catalog(), seed, 1, 120);
        let four = run(catalog(), seed, 4, 120);
        prop_assert_eq!(&single, &four, "threads=4 diverged from threads=1");
        let three = run(catalog(), seed, 3, 120);
        prop_assert_eq!(&single, &three, "threads=3 diverged from threads=1");
    }

    // The chaos schedule is part of the determinism contract: the same
    // seed and `ChaosConfig` must produce a bit-identical fault
    // schedule (observed error codes, eviction notices, delayed event
    // deliveries) and identical downstream state at any thread count.
    #[test]
    fn chaos_schedule_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        region_mask in 1u16..512,
    ) {
        let catalog = || build_catalog(region_mask, 2, 2);
        let region = catalog().regions()[0];
        let od_target = *catalog()
            .markets()
            .iter()
            .find(|m| m.region() == region)
            .expect("region has markets");
        let chaos = chaos_for(region);
        let single = run_with_chaos(catalog(), seed, 1, 120, &chaos, od_target);
        let four = run_with_chaos(catalog(), seed, 4, 120, &chaos, od_target);
        prop_assert_eq!(&single, &four, "chaos at threads=4 diverged from threads=1");
        let again = run_with_chaos(catalog(), seed, 1, 120, &chaos, od_target);
        prop_assert_eq!(&single, &again, "chaos replay must be exact");
        // The schedule actually fired: the 6000-second outage covers
        // on-demand probes of the target region, so its error code must
        // appear in the fingerprint.
        prop_assert!(
            single.submissions.iter().any(|s| s.contains(":od:Unavailable")),
            "expected the outage to surface in observed error codes"
        );
    }

    // Same-thread-count replay is exact (the baseline determinism the
    // engine docs promise), and different seeds genuinely differ.
    #[test]
    fn replay_is_exact_and_seeds_matter(seed in 0u64..1_000_000) {
        let catalog = || build_catalog(0b101, 2, 0);
        let a = run(catalog(), seed, 2, 80);
        let b = run(catalog(), seed, 2, 80);
        prop_assert_eq!(&a, &b, "same seed must replay exactly");
        let c = run(catalog(), seed ^ 0xdead_beef, 2, 80);
        prop_assert!(a != c, "different seeds should diverge");
    }
}

/// The service's answers are part of "same seed, same bits": two stores
/// fed the same probes list the same observed markets in the same
/// order, and — every candidate here ties on both of
/// `uncorrelated_fallbacks`' scores, so position decides — name the same
/// fallbacks. (`observed_markets` was a `RandomState` `HashSet`: each
/// call drew its own order, and `repro fig-6-1` named a different
/// fallback market per run.)
#[test]
fn observed_markets_and_fallbacks_do_not_depend_on_hasher_state() {
    use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
    use spotlight_core::query::SpotLightQuery;
    use spotlight_core::store::DataStore;

    let markets: Vec<MarketId> = Catalog::standard()
        .markets()
        .iter()
        .copied()
        .filter(|m| m.region() == Region::UsEast1)
        .take(60)
        .collect();
    assert_eq!(markets.len(), 60);
    let answers = || {
        let store = DataStore::new();
        for (i, &market) in markets.iter().enumerate() {
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(60 * i as u64),
                market,
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Periodic,
                outcome: ProbeOutcome::Fulfilled,
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            });
        }
        let view = store.read();
        let query = SpotLightQuery::new(&view, SimTime::ZERO, SimTime::from_secs(86_400));
        let observed = query.observed_markets();
        let fallbacks =
            query.uncorrelated_fallbacks(markets[0], &observed, SimDuration::hours(1), 5);
        (observed, fallbacks)
    };
    let (observed, fallbacks) = answers();
    assert_eq!(observed.len(), 60);
    assert_eq!(fallbacks.len(), 5);
    assert!(observed.windows(2).all(|w| w[0] < w[1]), "sorted");
    for _ in 0..3 {
        assert_eq!(answers(), (observed.clone(), fallbacks.clone()));
    }
}
