//! Shared helpers for the SpotLight benchmark suite.
//!
//! The benches live in `benches/`:
//!
//! * `substrate` — cloud-sim hot paths (tick, clearing, API calls);
//! * `policy` — SpotLight's probing paths;
//! * `analysis` — the Chapter 5 analysis kernels on synthetic stores;
//! * `store` — probe-database ingest, recovery replay, and the indexed
//!   and epoch-summarized query paths;
//! * `serve` — the HTTP request path without the socket (parse, route,
//!   JSON encode).
//!
//! `scripts/bench_snapshot.sh` runs all five.

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::store::{DataStore, SpikeEvent};

/// A warmed-up testbed cloud.
pub fn testbed_cloud(seed: u64) -> Cloud {
    let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(seed));
    cloud.warmup(20);
    cloud
}

/// Deterministic synthetic probe records over a dozen us-east-1
/// markets, time-ordered, with a mix of kinds and outcomes.
/// The spike/trigger price ratio of the `i`-th synthetic record —
/// shared by [`synthetic_probes`] and [`synthetic_store`] so the spike
/// log and the probe log cannot drift apart.
fn synthetic_ratio(i: u64) -> f64 {
    0.2 + ((i * 7919) % 1000) as f64 / 100.0
}

pub fn synthetic_probes(n: u64) -> Vec<ProbeRecord> {
    synthetic_probes_spaced(n, 97)
}

/// Like [`synthetic_probes`] but with a chosen inter-record spacing in
/// seconds — `spacing = 3` packs a million records into roughly one
/// month of simulated time, the month-scale-study shape the
/// `store_window_sweep_1m` benches and compaction measurements use.
pub fn synthetic_probes_spaced(n: u64, spacing: u64) -> Vec<ProbeRecord> {
    let types = ["c3.large", "c3.xlarge", "c3.2xlarge", "m3.large"];
    (0..n)
        .map(|i| {
            let market = MarketId {
                az: Az::new(Region::UsEast1, (i % 3) as u8),
                instance_type: types[(i % 4) as usize].parse().unwrap(),
                platform: Platform::LinuxUnix,
            };
            let ratio = synthetic_ratio(i);
            let unavailable = i % 17 == 0;
            ProbeRecord {
                at: SimTime::from_secs(i * spacing),
                market,
                kind: if i % 5 == 0 {
                    ProbeKind::Spot
                } else {
                    ProbeKind::OnDemand
                },
                trigger: if i % 5 == 0 {
                    ProbeTrigger::Periodic
                } else {
                    ProbeTrigger::PriceSpike { ratio }
                },
                outcome: if unavailable {
                    if i % 5 == 0 {
                        ProbeOutcome::CapacityNotAvailable
                    } else {
                        ProbeOutcome::InsufficientCapacity
                    }
                } else {
                    ProbeOutcome::Fulfilled
                },
                spot_ratio: ratio.min(1.2),
                bid: None,
                cost: Price::ZERO,
            }
        })
        .collect()
}

/// Builds a deterministic synthetic store with `n` probes and spikes —
/// the shared input of the analysis and store benches.
pub fn synthetic_store(n: u64) -> DataStore {
    synthetic_store_spaced(n, 97)
}

/// Like [`synthetic_store`] with a chosen inter-record spacing.
pub fn synthetic_store_spaced(n: u64, spacing: u64) -> DataStore {
    let store = DataStore::new();
    feed_synthetic_spaced(&store, n, spacing);
    store
}

/// Feeds the deterministic probe + spike stream into an existing store
/// — lets the footprint bin drive a durable store with the exact input
/// of [`synthetic_store_spaced`].
pub fn feed_synthetic_spaced(store: &DataStore, n: u64, spacing: u64) {
    for (i, p) in synthetic_probes_spaced(n, spacing).into_iter().enumerate() {
        store.record_spike(SpikeEvent {
            market: p.market,
            at: p.at,
            ratio: synthetic_ratio(i as u64),
            probed: true,
        });
        store.record_probe(p);
    }
}
