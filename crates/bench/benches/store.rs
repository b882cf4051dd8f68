//! Probe-database hot paths: ingest (`record_probe`, which maintains
//! every secondary index and epoch summary — sequential and contended
//! across threads, in memory and through the WAL), recovery replay,
//! the per-market query interface, and the epoch-summarized
//! month-scale window sweep. The full-scan oracles these paths are
//! checked against live in `tests/properties.rs`.

use cloud_sim::ids::MarketId;
use cloud_sim::time::{SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spotlight_bench::{synthetic_probes, synthetic_store, synthetic_store_spaced};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::store::DataStore;
use spotlight_core::{DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use std::hint::black_box;

fn bench_record_probe(c: &mut Criterion) {
    let probes = synthetic_probes(10_000);
    c.bench_function("store/record_probe_10k", |b| {
        b.iter_batched(
            || probes.clone(),
            |probes| {
                let store = DataStore::new();
                for p in probes {
                    black_box(store.record_probe(p));
                }
                store
            },
            BatchSize::LargeInput,
        )
    });
}

/// Ingest under thread contention: N workers splitting the same stream
/// across the store's lock stripes. On a single-CPU host the >1 rows
/// measure striping + scheduling overhead, not parallelism.
fn bench_ingest_contended(c: &mut Criterion) {
    let probes = synthetic_probes(20_000);
    let mut group = c.benchmark_group("store_ingest_contended");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(&threads.to_string(), |b| {
            b.iter_batched(
                || probes.clone(),
                |probes| {
                    let store = DataStore::new();
                    std::thread::scope(|scope| {
                        for chunk in probes.chunks(probes.len().div_ceil(threads)) {
                            let store = &store;
                            scope.spawn(move || {
                                for p in chunk {
                                    black_box(store.record_probe(*p));
                                }
                            });
                        }
                    });
                    store.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The contended ingest shape again, but appending through the durable
/// write-ahead log with batched fsync — the acceptance gate holds its
/// medians within 1.3× of `store_ingest_contended`.
fn bench_ingest_durable(c: &mut Criterion) {
    let probes = synthetic_probes(20_000);
    let mut group = c.benchmark_group("store_ingest_durable");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(&threads.to_string(), |b| {
            b.iter_batched(
                // Store creation and teardown are setup, not ingest:
                // the timed region is record_probe through flush. The
                // store and tempdir ride along in the routine's return
                // value so their drop (writer join, unlink) lands after
                // the sample's clock stops.
                || {
                    let tmp = TempDir::new("bench-ingest");
                    let store = DataStore::create_durable(
                        &tmp.path().join("store"),
                        DurableOptions {
                            fsync: FsyncPolicy::Batch,
                            queue_capacity: 4096,
                            ..DurableOptions::default()
                        },
                    )
                    .expect("durable store");
                    (probes.clone(), tmp, store)
                },
                |(probes, tmp, store)| {
                    std::thread::scope(|scope| {
                        for chunk in probes.chunks(probes.len().div_ceil(threads)) {
                            let store = &store;
                            scope.spawn(move || {
                                for p in chunk {
                                    black_box(store.record_probe(*p));
                                }
                            });
                        }
                    });
                    store.flush().expect("flush");
                    (store.len(), store, tmp)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Crash-recovery replay of a one-million-record log: each sample
/// rebuilds the full store from the on-disk WAL written once in setup.
fn bench_recover_1m(c: &mut Criterion) {
    let tmp = TempDir::new("bench-recover");
    let dir = tmp.path().join("store");
    {
        let store = DataStore::create_durable(
            &dir,
            DurableOptions {
                fsync: FsyncPolicy::Never,
                queue_capacity: 65_536,
                ..DurableOptions::default()
            },
        )
        .expect("durable store");
        for p in synthetic_probes(1_000_000) {
            store.record_probe(p);
        }
        store.flush().expect("flush");
    }
    let mut group = c.benchmark_group("recover_1m");
    group.sample_size(10);
    group.bench_function("replay", |b| {
        b.iter(|| black_box(DataStore::recover(&dir).expect("recover").len()))
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let store = synthetic_store(100_000);
    let span_end = SimTime::from_secs(100_000 * 97 + 1);
    let read = store.read();
    let query = SpotLightQuery::new(&read, SimTime::ZERO, span_end);
    // Sort: probed_markets() iterates per-stripe HashMaps, whose order
    // changes per process — the benched (a, b) pair must be stable
    // across runs for BENCH_PR*.json snapshots to be comparable.
    let mut markets: Vec<MarketId> = read.probed_markets().collect();
    markets.sort_by_key(|m| m.to_string());
    let (a, b) = (markets[0], markets[1]);

    let mut group = c.benchmark_group("store_query_100k");
    group.bench_function("availability_indexed", |bch| {
        bch.iter(|| {
            markets
                .iter()
                .map(|&m| query.availability(m, ProbeKind::OnDemand).probes)
                .sum::<u64>()
        })
    });
    group.bench_function("conditional_unavailability_indexed", |bch| {
        bch.iter(|| black_box(query.conditional_unavailability(a, b, SimDuration::from_secs(900))))
    });
    group.bench_function("probes_between_1h_window", |bch| {
        let from = SimTime::from_secs(4_000_000);
        let to = from + SimDuration::hours(1);
        bch.iter(|| read.probes_between(a, from, to).count())
    });
    group.bench_function("mean_time_to_revocation", |bch| {
        bch.iter(|| black_box(query.mean_time_to_revocation(a)))
    });
    group.finish();
}

/// The month-scale availability sweep: one million probes packed into
/// ~35 simulated days, every market's availability over the whole span.
/// `availability_summarized` reads running counters + epoch buckets.
fn bench_window_sweep(c: &mut Criterion) {
    let store = synthetic_store_spaced(1_000_000, 3);
    let span_end = SimTime::from_secs(1_000_000 * 3 + 1);
    let read = store.read();
    let query = SpotLightQuery::new(&read, SimTime::ZERO, span_end);
    let mut markets: Vec<MarketId> = read.probed_markets().collect();
    markets.sort_by_key(|m| m.to_string());

    let mut group = c.benchmark_group("store_window_sweep_1m");
    group.sample_size(20);
    group.bench_function("availability_summarized", |bch| {
        bch.iter(|| {
            markets
                .iter()
                .map(|&m| {
                    let st = query.availability(m, ProbeKind::OnDemand);
                    st.probes + query.unavailable_seconds(m, ProbeKind::OnDemand)
                })
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_record_probe,
    bench_ingest_contended,
    bench_ingest_durable,
    bench_recover_1m,
    bench_queries,
    bench_window_sweep
);
criterion_main!(benches);
