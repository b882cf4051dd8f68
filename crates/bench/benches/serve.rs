//! The HTTP request path without the socket: parse a point request
//! head, route it (query + JSON encode) and the two all-market advisor
//! questions over a standard-catalog snapshot, and encode one
//! availability body — the per-request budget lines the end-to-end
//! benchmark's `serve.parse_ns` / `serve.route_point_ns` /
//! `serve.route_advisor_us` are made of, gated in
//! `scripts/bench_check.sh`.

use cloud_sim::catalog::Catalog;
use cloud_sim::ids::MarketId;
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use criterion::{criterion_group, criterion_main, Criterion};
use spotlight_core::json;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader};
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_serve::parser::{self, Limits};
use spotlight_serve::router::{market_param, route, ServiceState};
use spotlight_serve::ServerStats;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const DAY: u64 = 86_400;
const DAYS: u64 = 15;
const PROBES: u64 = 300_000;

/// Every market of the standard catalog probed round-robin over
/// fifteen days, one probe in sixteen rejected — compacted to the last
/// three days like a store that has been serving for a while.
fn served_store(markets: &[MarketId]) -> DataStore {
    let store = DataStore::new();
    for i in 0..PROBES {
        store.record_probe(ProbeRecord {
            at: SimTime::from_secs(i * DAYS * DAY / PROBES),
            market: markets[(i % markets.len() as u64) as usize],
            kind: if i % 5 == 0 {
                ProbeKind::Spot
            } else {
                ProbeKind::OnDemand
            },
            trigger: ProbeTrigger::Periodic,
            outcome: if (i * 7919) % 16 == 0 {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            },
            spot_ratio: 1.0,
            bid: None,
            cost: Price::ZERO,
        });
    }
    store.compact(SimTime::from_secs((DAYS - 3) * DAY));
    store
}

fn bench_serve(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let markets = catalog.markets();
    let store: SharedStore = Arc::new(served_store(markets));
    let hub = Arc::new(SnapshotHub::new(
        store.snapshot(SimTime::from_secs(DAYS * DAY)),
    ));
    let state = ServiceState {
        hub: Arc::clone(&hub),
        store: Arc::downgrade(&store),
        stats: Arc::new(ServerStats::default()),
        draining: Arc::new(AtomicBool::new(false)),
        retry_after_secs: 1,
    };
    let mut reader = SnapshotReader::new(&hub);
    // A stride through the catalog so successive requests hit
    // different stripes and keys, as a client population would.
    let queries: Vec<String> = (0..1024)
        .map(|i| {
            let market = markets[(i * 2_654_435_761usize) % markets.len()];
            let kind = ["od", "spot"][i % 2];
            format!("market={}&kind={kind}", market_param(market))
        })
        .collect();
    let fallback_queries: Vec<String> = queries.iter().map(|q| format!("{q}&n=5")).collect();
    let mut next = 0usize;
    let mut turn = move || {
        next = (next + 1) % 1024;
        next
    };

    let mut group = c.benchmark_group("serve_route");
    for (name, path) in [
        ("availability", "/v1/availability"),
        ("freshness", "/v1/freshness"),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                route(path, &queries[turn()], &state, &mut reader)
                    .body
                    .len()
            })
        });
    }
    group.sample_size(10);
    group.bench_function("advisor_top", |b| {
        b.iter(|| route("/v1/advisor/top", "n=10", &state, &mut reader).status)
    });
    group.bench_function("advisor_fallbacks", |b| {
        b.iter(|| {
            let query = &fallback_queries[turn()];
            route("/v1/advisor/fallbacks", query, &state, &mut reader).status
        })
    });
    group.finish();

    // The availability body alone: the same fields the router writes,
    // from one precomputed answer, into a reused buffer.
    let snapshot = hub.load();
    let read = snapshot.read();
    let q = SpotLightQuery::new(&read, SimTime::ZERO, snapshot.as_of());
    let market = markets[markets.len() / 2];
    let (stats, fresh) = q.availability_qualified(market, ProbeKind::OnDemand);
    let name = market_param(market);
    let mut body = String::with_capacity(512);
    c.bench_function("serve_json/availability_body", |b| {
        b.iter(|| {
            body.clear();
            json::object(&mut body, |o| {
                o.str("market", &name);
                o.str("kind", "od");
                o.u64("start_secs", 0);
                o.u64("end_secs", snapshot.as_of().as_secs());
                o.value("availability", &stats);
                o.value("freshness", &fresh);
                o.u64("as_of_secs", snapshot.as_of().as_secs());
            });
            black_box(body.len())
        })
    });

    let head =
        format!("GET /v1/availability?market={name}&kind=od HTTP/1.1\r\nHost: spotlight\r\n\r\n")
            .into_bytes();
    let limits = Limits::default();
    c.bench_function("serve_parse/point_head", |b| {
        b.iter(|| black_box(parser::parse(black_box(&head), &limits)))
    });
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
