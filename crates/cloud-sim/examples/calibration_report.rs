//! Developer diagnostic: run the full-scale cloud for a few simulated
//! days and report the statistics that matter for calibrating the
//! demand model against the paper's Chapter 5 shapes.
//!
//! ```sh
//! cargo run --release -p cloud-sim --example calibration_report -- [days] [seed]
//! ```

use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::{Cloud, CloudEvent};
use cloud_sim::config::SimConfig;
use cloud_sim::ids::Region;
use cloud_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let days: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(42);

    let catalog = Catalog::standard();
    let config = SimConfig::paper(seed);
    println!(
        "catalog: {} markets, {} pools, {} zones",
        catalog.markets().len(),
        catalog.pools().len(),
        catalog.azs().len()
    );

    let mut cloud = Cloud::new(catalog, config);
    let wall = Instant::now();
    let end = SimTime::ZERO + SimDuration::days(days);

    let mut price_changes: u64 = 0;
    let mut spike_events: u64 = 0; // published price >= 1x od
    let mut shortage_starts: HashMap<Region, u64> = HashMap::new();
    let mut max_ratio: f64 = 0.0;
    let mut ratio_buckets = [0u64; 12]; // per spike multiple 1x..>10x

    let mut events = Vec::new();
    while cloud.now() < end {
        cloud.tick();
        cloud.drain_events_into(&mut events);
        for &ev in &events {
            match ev {
                CloudEvent::PriceChange { market, price, .. } => {
                    price_changes += 1;
                    let od = cloud.catalog().od_price(market);
                    let ratio = price.ratio_to(od);
                    max_ratio = max_ratio.max(ratio);
                    if ratio >= 1.0 {
                        spike_events += 1;
                        let b = (ratio.floor() as usize).min(11);
                        ratio_buckets[b] += 1;
                    }
                }
                CloudEvent::PoolShortageStarted { pool, .. } => {
                    *shortage_starts.entry(pool.az.region()).or_insert(0) += 1;
                }
                _ => {}
            }
        }
    }
    let elapsed = wall.elapsed();
    println!(
        "simulated {days} days in {:.1}s ({:.1} sim-days/s)",
        elapsed.as_secs_f64(),
        days as f64 / elapsed.as_secs_f64()
    );
    println!(
        "price changes: {price_changes} ({:.1}/market/day)",
        price_changes as f64 / cloud.market_count() as f64 / days as f64
    );
    println!("spike (>=1x) events: {spike_events}, max ratio {max_ratio:.1}");
    println!("spikes by floor(ratio): {ratio_buckets:?}");

    // Shortage statistics per region.
    println!("\nshortage starts per region (per pool-day):");
    let mut per_region_pools: HashMap<Region, usize> = HashMap::new();
    for p in cloud.catalog().pools() {
        *per_region_pools.entry(p.az.region()).or_insert(0) += 1;
    }
    for r in Region::ALL {
        let starts = shortage_starts.get(&r).copied().unwrap_or(0);
        let pools = per_region_pools.get(&r).copied().unwrap_or(1);
        println!(
            "  {:16} {:6} starts  ({:.3}/pool/day)",
            r.name(),
            starts,
            starts as f64 / pools as f64 / days as f64
        );
    }

    // Shortage durations from ground truth.
    let mut durations: Vec<f64> = cloud
        .trace()
        .shortages()
        .iter()
        .filter_map(|s| s.end.map(|e| (e - s.start).as_hours_f64()))
        .collect();
    durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if !durations.is_empty() {
        let n = durations.len();
        let pct = |q: f64| durations[((n as f64 * q) as usize).min(n - 1)];
        println!(
            "\nshortage durations (h): n={n} p50={:.2} p83={:.2} p95={:.2} max={:.2}",
            pct(0.50),
            pct(0.83),
            pct(0.95),
            durations[n - 1]
        );
        let under_1h = durations.iter().filter(|&&d| d < 1.0).count() as f64 / n as f64;
        let over_10h = durations.iter().filter(|&&d| d > 10.0).count() as f64 / n as f64;
        println!(
            "fraction <1h: {:.2} (paper ~0.83), >10h: {:.3} (paper ~0.05)",
            under_1h, over_10h
        );
    }

    // On-demand availability snapshot across markets (ground truth).
    let mut unavailable = 0usize;
    for &m in cloud.catalog().markets() {
        if cloud.oracle_od_available(m) == Some(false) {
            unavailable += 1;
        }
    }
    println!(
        "\nod-unavailable markets right now: {unavailable}/{} ({:.2}%)",
        cloud.market_count(),
        100.0 * unavailable as f64 / cloud.market_count() as f64
    );
}
