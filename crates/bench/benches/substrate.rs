//! Substrate hot paths: demand ticks, auction clearing, and the probe
//! API round trip.

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::market::clear;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spotlight_bench::testbed_cloud;
use std::hint::black_box;

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick");
    group.bench_function("testbed_tick", |b| {
        let mut cloud = testbed_cloud(1);
        b.iter(|| {
            cloud.tick();
            black_box(cloud.now());
        });
    });
    // Pins the disabled-chaos contract: with `ChaosConfig::default()`
    // the only chaos cost in the tick is one bool branch per shard, so
    // this must track `testbed_tick` (both are gated by bench_check).
    group.bench_function("tick_chaos_disabled", |b| {
        let mut config = SimConfig::paper(1);
        config.threads = 1;
        config.chaos = cloud_sim::chaos::ChaosConfig::default();
        let mut cloud = Cloud::new(Catalog::testbed(), config);
        cloud.warmup(5);
        b.iter(|| {
            cloud.tick();
            black_box(cloud.now());
        });
    });
    group.sample_size(10);
    group.bench_function("standard_catalog_tick_5184_markets", |b| {
        let mut config = SimConfig::paper(1);
        config.threads = 1;
        let mut cloud = Cloud::new(Catalog::standard(), config);
        cloud.warmup(5);
        b.iter(|| {
            cloud.tick();
            black_box(cloud.now());
        });
    });
    group.finish();
}

/// The region-sharded fan-out at fixed worker counts over the full
/// catalog. Results are identical at every setting (the determinism
/// contract); only wall-clock time may differ, and only when the
/// machine actually has that many cores.
fn bench_tick_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let name = threads.to_string();
        group.bench_function(&name, |b| {
            let mut config = SimConfig::paper(1);
            config.threads = threads;
            let mut cloud = Cloud::new(Catalog::standard(), config);
            cloud.warmup(5);
            b.iter(|| {
                cloud.tick();
                black_box(cloud.now());
            });
        });
    }
    group.finish();
}

/// Raw dispatch cost of the persistent worker pool versus spawning OS
/// threads per call — the overhead every parallel tick used to pay.
/// Each iteration submits `TASKS` trivial jobs and joins them;
/// `pool_scope` reuses parked workers, `thread_scope` spawns fresh
/// threads the way `Cloud::tick` did before the pool existed.
/// bench_check gates `pool_scope_4` and separately asserts the pool is
/// at least 5x cheaper than the thread-spawn variant.
fn bench_pool_dispatch(c: &mut Criterion) {
    use spotlight_pool::WorkerPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    const TASKS: usize = 4;
    let counter = AtomicU64::new(0);
    let mut group = c.benchmark_group("pool_dispatch");
    group.bench_function("pool_scope_4", |b| {
        let pool = WorkerPool::new(TASKS);
        b.iter(|| {
            pool.scope(|s| {
                for _ in 0..TASKS {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            black_box(counter.load(Ordering::Relaxed));
        });
    });
    group.sample_size(10);
    group.bench_function("thread_scope_4", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for _ in 0..TASKS {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            black_box(counter.load(Ordering::Relaxed));
        });
    });
    group.finish();
}

fn bench_tick_components(c: &mut Criterion) {
    use cloud_sim::config::DemandProfile;
    use cloud_sim::demand::{surge_weights, LevelGrid, MarketDemand};
    use cloud_sim::rng::SimRng;
    use cloud_sim::time::SimTime;

    let profile = DemandProfile::paper_calibration();
    let grid = LevelGrid::new(&profile);
    let sw = surge_weights(
        &profile.level_multiples,
        0.85,
        profile.surge_bid_decay,
        profile.surge_bid_cap_share,
    );
    let mut group = c.benchmark_group("tick_component");
    group.bench_function("market_demand_tick", |b| {
        let mut demand = MarketDemand::new();
        let mut rng = SimRng::seed_from(5);
        let mut t = 0u64;
        b.iter(|| {
            t += 300;
            demand.tick(SimTime::from_secs(t), &profile, &mut rng);
        });
    });
    // The fused path `clear_markets` actually runs: fixed-width mass
    // fill + running total, then the branch-free 15-level walk.
    group.bench_function("level_masses_and_clear_fused", |b| {
        use cloud_sim::market::clear_with_total;
        let demand = MarketDemand::new();
        let mut out = vec![0.0; grid.len()];
        b.iter(|| {
            let total = demand.level_masses_and_total_into(&grid, 50.0, &sw, &mut out);
            black_box(clear_with_total(
                &profile.level_multiples,
                &out,
                total,
                40.0,
            ))
        });
    });
    group.bench_function("clear_markets_only_testbed", |b| {
        let mut cloud = testbed_cloud(4);
        b.iter(|| {
            cloud.bench_clear_markets();
            black_box(cloud.now());
        });
    });
    group.bench_function("standard_normal", |b| {
        let mut rng = SimRng::seed_from(6);
        b.iter(|| black_box(rng.standard_normal()));
    });
    group.finish();
}

fn bench_clearing(c: &mut Criterion) {
    let multiples: Vec<f64> = vec![
        0.08, 0.12, 0.18, 0.25, 0.35, 0.5, 0.7, 0.85, 1.0, 1.3, 1.8, 2.5, 4.0, 6.0, 10.0,
    ];
    let masses: Vec<f64> = (0..15).map(|i| 10.0 / (i + 1) as f64).collect();
    c.bench_function("auction_clear_15_levels", |b| {
        b.iter(|| black_box(clear(&multiples, &masses, black_box(12.5))))
    });
}

fn bench_probe_roundtrip(c: &mut Criterion) {
    c.bench_function("od_probe_roundtrip", |b| {
        b.iter_batched_ref(
            || testbed_cloud(2),
            |cloud| {
                let market = cloud.catalog().markets()[0];
                if let Ok(id) = cloud.run_od_instance(market) {
                    let _ = cloud.terminate_od_instance(id);
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("spot_probe_roundtrip", |b| {
        b.iter_batched_ref(
            || testbed_cloud(3),
            |cloud| {
                let market = cloud.catalog().markets()[0];
                let bid = cloud.oracle_published_price(market).unwrap();
                if let Ok(sub) = cloud.request_spot_instance(market, bid) {
                    let _ = cloud.terminate_spot_instance(sub.id);
                    let _ = cloud.cancel_spot_request(sub.id);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_tick,
    bench_tick_threads,
    bench_pool_dispatch,
    bench_tick_components,
    bench_clearing,
    bench_probe_roundtrip
);
criterion_main!(benches);
