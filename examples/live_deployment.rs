//! Live deployment: the Chapter 4 manager hierarchy under one clock —
//! one region manager per region, run concurrently each tick as tasks of
//! the shared worker pool against the shared cloud — through a chaos
//! schedule, to show the retry/breaker pipeline degrading gracefully and
//! recovering. The report and every market's history repeat for a seed;
//! only the wall time differs between runs.
//!
//! ```sh
//! cargo run --release -p spotlight-tests --example live_deployment
//! ```

use cloud_sim::catalog::Catalog;
use cloud_sim::chaos::ChaosWindow;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::ids::Region;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::manager::{run_live, LiveConfig};
use spotlight_core::policy::PolicyConfig;
use spotlight_core::store::shared_store;

fn main() {
    let mut sim = SimConfig::paper(31);
    // A six-hour us-east-1 API outage on day two: the region manager's
    // circuit breaker must trip, the store must flag the region
    // degraded, and probing must converge back afterwards.
    sim.chaos.outages.push(ChaosWindow {
        region: Region::UsEast1,
        start: SimTime::from_secs(86_400),
        duration: SimDuration::hours(6),
    });
    let mut cloud = Cloud::new(Catalog::testbed(), sim);
    cloud.warmup(50);

    let store = shared_store();
    let config = LiveConfig {
        policy: PolicyConfig {
            spike_threshold: 0.5,
            ..PolicyConfig::default()
        },
        duration: SimDuration::days(3),
        ..LiveConfig::default()
    };

    println!("driving the cloud with one region manager per region...");
    let wall = std::time::Instant::now();
    let (cloud, report) = run_live(cloud, store.clone(), config);
    println!(
        "done in {:.2}s wall time: {} ticks, {} probes",
        wall.elapsed().as_secs_f64(),
        report.ticks,
        report.probes
    );
    for (region, probes) in &report.per_region_probes {
        println!("  region manager {region}: {probes} probes issued");
    }
    println!(
        "resilience: {} retries, {} abandoned, {} breaker trips",
        report.retries_issued, report.probes_abandoned, report.breaker_trips
    );
    for (region, secs) in &report.degraded_secs {
        println!("  {region} spent {secs}s degraded (breaker open)");
    }

    let db = store.read();
    println!(
        "database manager recorded {} probes, {} spikes, {} unavailability intervals",
        db.len(),
        db.spikes().count(),
        db.intervals().count()
    );
    println!("probe spend: {} over {} simulated days", db.total_cost(), 3);
    println!("cloud time now: {}", cloud.now());
}
