//! Integration tests of the live (Chapter 4) deployment: the manager
//! hierarchy must run the engine's policy (the engine's histories when
//! nothing fails, every policy field honoured), produce the same store
//! for the same seed, and offer a clock that a publisher, a checkpointer
//! and a compactor can ride.

use cloud_sim::catalog::Catalog;
use cloud_sim::chaos::{ChaosWindow, ErrorBurst};
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::Engine;
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::manager::{run_live, LiveConfig, LiveDriver};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::store::{shared_store, DataStore, SharedStore, SpikeEvent};
use spotlight_core::{DurableOptions, LiveReport, ResilienceConfig, SnapshotHub, SpotLight};
use spotlight_persist::tempdir::TempDir;
use std::sync::Arc;

fn policy() -> PolicyConfig {
    PolicyConfig {
        spike_threshold: 0.5,
        ..PolicyConfig::default()
    }
}

#[test]
fn live_store_is_structurally_sound() {
    let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(41));
    cloud.warmup(20);
    let store = shared_store();
    let (cloud, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(3),
            ..LiveConfig::default()
        },
    );
    let s = store.read();
    assert_eq!(report.probes, s.len());
    for p in s.probes() {
        assert!(cloud.catalog().market_exists(p.market));
        if p.kind == ProbeKind::Spot {
            assert!(
                matches!(p.trigger, ProbeTrigger::CrossVerify { .. }),
                "live mode probes spot only to cross-verify: {p:?}"
            );
        }
    }
    // Spikes recorded by region managers reference probed markets only.
    for spike in s.spikes() {
        assert!(spike.probed);
        assert!(spike.ratio >= 0.5, "below-threshold spikes are not probed");
    }
    // Intervals only open on rejections and close on fulfilment. A
    // same-timestamp reject→fulfil pair (one manager probing a market
    // twice in one batch) legally yields a zero-duration interval, so
    // the bound is inclusive.
    for i in s.intervals() {
        if let Some(end) = i.end {
            assert!(end >= i.start);
        }
    }
}

#[test]
fn region_managers_stay_in_their_region() {
    let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(43));
    cloud.warmup(20);
    let store = shared_store();
    let (_, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(2),
            ..LiveConfig::default()
        },
    );
    // Per-region totals account for every probe.
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes);
}

#[test]
fn live_mode_respects_service_limits() {
    // Even with many concurrent spikes the region managers go through
    // the rate-limited API. Throttling is a retryable transport
    // condition, so it surfaces as retries dispatched through the
    // backoff queue — not as instantly-recorded ApiLimited probes —
    // and the pipeline must neither wedge nor lose probes.
    let mut config = SimConfig::paper(47);
    config.limits.api_calls_per_minute_per_region = 12; // very tight
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    let store = shared_store();
    let (_, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(2),
            ..LiveConfig::default()
        },
    );
    // With a 12/min budget and fan-out probing, throttling must appear
    // — and every throttled probe re-enters the backoff queue.
    assert!(
        report.retries_issued > 0,
        "expected throttled probes to be retried under a 12 calls/min limit"
    );
    // Nothing lost: every probe intent either landed in the store or
    // was counted as abandoned.
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes);
    // Probes that did exhaust their retry budget (if any) were recorded
    // as ApiLimited, which carries no availability information — they
    // must never have opened an unavailability interval.
    let s = store.read();
    for p in s.probes() {
        if p.outcome == ProbeOutcome::ApiLimited {
            assert!(!p.outcome.is_unavailable());
        }
    }
}

#[test]
fn chaos_soak_degrades_gracefully_and_recovers() {
    // Graceful-degradation soak: a 12-hour API outage, then a 6-hour
    // throttling storm, then a 2-hour transient-error burst, all in
    // us-east-1. run_live must complete without deadlock or panic, the
    // region must be flagged degraded while faults rage and recovered
    // after, and probing (hence estimate freshness) must converge back
    // once the fault window ends.
    let mut config = SimConfig::paper(53);
    let hit = Region::UsEast1; // the testbed's first region
    config.chaos.outages.push(ChaosWindow {
        region: hit,
        start: SimTime::from_secs(86_400),
        duration: SimDuration::hours(12),
    });
    config.chaos.throttle_storms.push(ChaosWindow {
        region: hit,
        start: SimTime::from_secs(129_600),
        duration: SimDuration::hours(6),
    });
    config.chaos.error_bursts.push(ErrorBurst {
        window: ChaosWindow {
            region: hit,
            start: SimTime::from_secs(200_000),
            duration: SimDuration::hours(2),
        },
        fraction: 0.5,
    });
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    let store = shared_store();
    let (cloud, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(4),
            ..LiveConfig::default()
        },
    );
    // The run completed every tick despite a day of regional faults.
    assert_eq!(report.ticks, 4 * 86_400 / 300);
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes, "no probe lost under chaos");

    // The pipeline actually engaged: retries were dispatched, the
    // breaker tripped on the outage, and degraded time was accounted.
    assert!(report.retries_issued > 0, "retries must be issued");
    assert!(report.breaker_trips >= 1, "the outage must trip a breaker");
    let degraded = report.degraded_secs.get(&hit).copied().unwrap_or(0);
    assert!(degraded > 0, "degraded seconds must be accounted to {hit}");

    let s = store.read();
    // Probes with no availability information were recorded as such
    // (retry budgets exhausted during the 12-hour outage).
    let limited = s
        .probes()
        .filter(|p| p.market.region() == hit && p.outcome == ProbeOutcome::ApiLimited)
        .count();
    assert!(limited > 0, "budget-exhausted probes must be recorded");

    // After the fault window the breaker closed and the store says so.
    assert!(
        s.region_health(hit).is_some_and(|h| !h.degraded),
        "region must be marked recovered after the faults end"
    );
    let end = cloud.now();
    let q = SpotLightQuery::new(&s, SimTime::ZERO, end);
    assert!(q.degraded_regions().is_empty());

    // Estimates converge back: the storm ends at t=151200s, leaving
    // ~2.3 days of healthy probing; some us-east-1 market must have an
    // informative observation from after the faults.
    let recovered_markets = cloud
        .catalog()
        .markets()
        .iter()
        .filter(|m| m.region() == hit)
        .filter(|&&m| {
            q.freshness(m, ProbeKind::OnDemand)
                .last_informative
                .is_some_and(|t| t > SimTime::from_secs(151_200))
        })
        .count();
    assert!(
        recovered_markets > 0,
        "informative probes must resume after the fault window"
    );
}

/// A testbed cloud (seed 61) whose us-east-1 suffers a 6 h API outage
/// on day two and a 2 h transient-error burst on day three.
fn chaotic_cloud(api_calls_per_minute: Option<u32>) -> Cloud {
    let mut config = SimConfig::paper(61);
    if let Some(limit) = api_calls_per_minute {
        config.limits.api_calls_per_minute_per_region = limit;
    }
    config.chaos.outages.push(ChaosWindow {
        region: Region::UsEast1,
        start: SimTime::from_secs(86_400),
        duration: SimDuration::hours(6),
    });
    config.chaos.error_bursts.push(ErrorBurst {
        window: ChaosWindow {
            region: Region::UsEast1,
            start: SimTime::from_secs(200_000),
            duration: SimDuration::hours(2),
        },
        fraction: 0.5,
    });
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    cloud
}

/// What a market's consumers can see of one run: its probes and its
/// spikes, each in store order.
type MarketHistory = (MarketId, Vec<ProbeRecord>, Vec<SpikeEvent>);

/// Three chaotic days through `run_live` into an in-memory store: the
/// report and every catalog market's history.
fn service_history(api_calls_per_minute: Option<u32>) -> (LiveReport, Vec<MarketHistory>) {
    let store = shared_store();
    let (cloud, report) = run_live(
        chaotic_cloud(api_calls_per_minute),
        store.clone(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(3),
            ..LiveConfig::default()
        },
    );
    (report, market_histories(&store, &cloud))
}

/// Every catalog market's history in `store`.
fn market_histories(store: &SharedStore, cloud: &Cloud) -> Vec<MarketHistory> {
    let s = store.read();
    cloud
        .catalog()
        .markets()
        .iter()
        .map(|&m| {
            let probes = s.probes().filter(|p| p.market == m).copied().collect();
            let spikes = s.spikes().filter(|sp| sp.market == m).copied().collect();
            (m, probes, spikes)
        })
        .collect()
}

/// A warmed-up testbed cloud with no chaos and an API limit that cannot
/// bind: no probe is ever parked for a retry.
fn quiet_cloud(seed: u64) -> Cloud {
    let mut config = SimConfig::paper(seed);
    config.limits.api_calls_per_minute_per_region = 1_000_000;
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    cloud
}

#[test]
fn live_and_engine_hosts_record_identical_histories() {
    // One policy, two hosts. With nothing parked, a region manager's
    // port answers every attempt at once, as the engine's does, and a
    // manager handles a tick's events before its wake-ups, as the engine
    // does; regions share no policy state the engine would interleave.
    for seed in [41, 43, 47, 53] {
        let store = shared_store();
        let (cloud, _) = run_live(
            quiet_cloud(seed),
            store.clone(),
            LiveConfig {
                policy: policy(),
                duration: SimDuration::days(3),
                ..LiveConfig::default()
            },
        );
        let live = market_histories(&store, &cloud);

        let store = shared_store();
        let mut engine = Engine::with_cloud(quiet_cloud(seed));
        let end = engine.cloud().now() + SimDuration::days(3);
        let config = SpotLightConfig {
            policy: policy(),
            spot_check: None,
            ..SpotLightConfig::default()
        };
        engine.add_agent(Box::new(SpotLight::new(config, store.clone())));
        engine.run_until(end);
        let hosted = market_histories(&store, engine.cloud());

        let kinds = |h: &[MarketHistory], kind| {
            h.iter()
                .flat_map(|(_, p, _)| p)
                .filter(|p| p.kind == kind)
                .count()
        };
        assert!(
            kinds(&live, ProbeKind::OnDemand) > 0,
            "seed {seed}: nothing probed"
        );
        assert!(
            kinds(&live, ProbeKind::Spot) > 0,
            "seed {seed}: nothing cross-verified"
        );
        for (want, got) in hosted.iter().zip(&live) {
            assert_eq!(got, want, "seed {seed}: {}", want.0);
        }
    }
}

/// Three quiet days (seed 47) of `policy` on a [`LiveDriver`]: every
/// catalog market's history.
fn driven_histories(policy: PolicyConfig) -> Vec<MarketHistory> {
    let store = shared_store();
    let cloud = quiet_cloud(47);
    let ticks = 3 * 86_400 / cloud.config().tick.as_secs();
    let mut driver = LiveDriver::new(cloud, store.clone(), &policy, &ResilienceConfig::default());
    for _ in 0..ticks {
        driver.step();
    }
    let (cloud, _) = driver.finish();
    market_histories(&store, &cloud)
}

#[test]
fn live_mode_honours_every_policy_field() {
    let probes = |h: &[MarketHistory], keep: fn(&ProbeRecord) -> bool| -> Vec<ProbeRecord> {
        let all = h.iter().flat_map(|(_, probes, _)| probes);
        all.filter(|p| keep(p)).copied().collect()
    };
    let spot = |h: &[MarketHistory]| probes(h, |p| p.kind == ProbeKind::Spot);
    let spike_probes = |h: &[MarketHistory]| {
        probes(h, |p| matches!(p.trigger, ProbeTrigger::PriceSpike { .. })).len()
    };
    let below_t = |h: &[MarketHistory]| h.iter().flat_map(|(_, _, s)| s).any(|s| s.ratio < 0.5);
    let with = |change: fn(&mut PolicyConfig)| {
        let mut policy = policy();
        change(&mut policy);
        driven_histories(policy)
    };

    // Defaults: p = 1, p′ = 0, cross-verification on.
    let full = with(|_| {});
    assert!(!spot(&full).is_empty(), "cross_verify probes spot");
    assert!(
        spot(&full)
            .iter()
            .all(|p| matches!(p.trigger, ProbeTrigger::CrossVerify { .. })),
        "every spot probe cross-verifies"
    );
    assert!(!below_t(&full), "p′ = 0 records no spike below T");

    let sampled = with(|p| p.sampling_probability = 0.5);
    assert!(
        spike_probes(&sampled) < spike_probes(&full),
        "p = 0.5 samples fewer spikes: {} vs {}",
        spike_probes(&sampled),
        spike_probes(&full)
    );
    let again = with(|p| p.sampling_probability = 0.5);
    assert_eq!(again, sampled, "the sampling stream is seeded");

    assert!(
        below_t(&with(|p| p.subthreshold_sampling = 1.0)),
        "p′ = 1 records spikes below T"
    );
    assert!(
        spot(&with(|p| p.cross_verify = false)).is_empty(),
        "no cross-verification, no spot probe"
    );
}

#[test]
fn same_seed_same_service_history() {
    // Region managers run concurrently, but each one's calls touch only
    // its own region's shard, token bucket, chaos stream and jitter RNG:
    // interleaving may reorder *different* regions' records in a shared
    // slab, never what any one market's consumers see, nor the report.
    // The 3 calls/min run makes the API limit bind, so the order a
    // manager issues a tick's probes in decides which one is throttled.
    for limit in [None, Some(3)] {
        let (report, histories) = service_history(limit);
        assert!(report.retries_issued > 0 && report.breaker_trips > 0);
        assert!(histories.iter().any(|(_, probes, _)| !probes.is_empty()));
        for run in 1..=2 {
            let (again, histories_again) = service_history(limit);
            assert_eq!(again, report, "limit {limit:?}, rerun {run}: report");
            for (want, got) in histories.iter().zip(&histories_again) {
                assert_eq!(got, want, "limit {limit:?}, rerun {run}: {}", want.0);
            }
        }
    }
}

#[test]
fn publisher_checkpointer_and_compactor_ride_the_drivers_clock() {
    const DAYS: u64 = 2;
    const EVERY: u64 = 12; // ticks between maintenance rounds: one simulated hour
    let tmp = TempDir::new("live-driver-clock");
    let dir = tmp.path().join("store");
    let store =
        Arc::new(DataStore::create_durable(&dir, DurableOptions::default()).expect("create"));
    let cloud = chaotic_cloud(None);
    let ticks = DAYS * 86_400 / cloud.config().tick.as_secs();
    let hub = SnapshotHub::new(store.snapshot(cloud.now()));
    let mut driver = LiveDriver::new(
        cloud,
        store.clone(),
        &policy(),
        &ResilienceConfig::default(),
    );

    let (mut last_as_of, mut last_len, mut rounds) = (hub.load().as_of(), 0, 0);
    for tick in 1..=ticks {
        let now = driver.step();
        if tick % EVERY != 0 {
            continue;
        }
        rounds += 1;
        hub.republish(&store, now);
        store.checkpoint().expect("checkpoint between ticks");
        store.compact(SimTime::from_secs(now.as_secs().saturating_sub(86_400)));
        let published = hub.load();
        assert_eq!(hub.generation(), rounds);
        assert!(published.as_of() > last_as_of, "as_of is monotone");
        assert!(published.as_of() <= now, "never ahead of the clock");
        assert!(published.len() >= last_len, "a snapshot never forgets");
        assert!(published.len() <= store.len());
        (last_as_of, last_len) = (published.as_of(), published.len());
    }
    assert_eq!(rounds, ticks / EVERY);
    let (cloud, report) = driver.finish();

    // Riding the clock changes nothing the clock drives: the same seed
    // and span through run_live reports the same probes and ticks.
    let (_, reference) = run_live(
        chaotic_cloud(None),
        shared_store(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(DAYS),
            ..LiveConfig::default()
        },
    );
    assert_eq!(report.ticks, reference.ticks);
    assert_eq!(report.probes, reference.probes);
    assert_eq!(report.per_region_probes, reference.per_region_probes);
    assert_eq!(report.probes, store.len());
    assert_eq!(report.durability_lost, None);

    // finish() dropped the driver's handles: the store closes cleanly
    // and a restart replays nothing and answers what the live one did.
    let markets = cloud.catalog().markets().to_vec();
    let stats_of = |s: &DataStore| -> Vec<_> {
        let view = s.read();
        let stats = |&m| view.probe_stats(m, ProbeKind::OnDemand);
        markets.iter().map(stats).collect()
    };
    let live_stats = stats_of(&store);
    let live_len = store.len();
    let store = Arc::into_inner(store).expect("finish released the driver's store handles");
    store.close().expect("close");
    let (recovered, info) =
        DataStore::recover_with_report(&dir, DurableOptions::default()).expect("recover");
    assert!(info.from_clean_shutdown);
    assert_eq!(info.replayed_ops, 0, "clean restart replays nothing");
    assert_eq!(recovered.len(), live_len);
    assert_eq!(stats_of(&recovered), live_stats);
}
