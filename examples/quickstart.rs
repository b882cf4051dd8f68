//! Quickstart: deploy SpotLight on a small simulated cloud for two days
//! and query what it learned.
//!
//! ```sh
//! cargo run --release -p spotlight-integration --example quickstart
//! ```

use cloud_sim::{Catalog, Engine, SimConfig, SimDuration};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::shared_store;

fn main() {
    // 1. A deterministic testbed cloud (two regions, one family each).
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(7));
    engine.cloud_mut().warmup(50);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(2);

    // 2. Deploy SpotLight: probe whenever a spot price spikes above
    //    half the on-demand price, fan out to related markets, verify
    //    the spot side, and check spot capacity periodically.
    let store = shared_store();
    let config = SpotLightConfig {
        policy: PolicyConfig {
            spike_threshold: 0.5,
            ..PolicyConfig::default()
        },
        ..SpotLightConfig::default()
    };
    engine.add_agent(Box::new(SpotLight::new(config, store.clone())));
    engine.run_until(end);

    // 3. Query the information service.
    let db = store.read();
    let query = SpotLightQuery::new(&db, start, end);
    println!(
        "SpotLight collected {} probes ({} spikes, total cost {})",
        db.len(),
        db.spikes().count(),
        db.total_cost()
    );
    println!();
    println!(
        "{:<44} {:>7} {:>9} {:>13}",
        "market", "probes", "rejected", "availability"
    );
    for &market in engine.cloud().catalog().markets() {
        let stats = query.availability(market, ProbeKind::OnDemand);
        if stats.probes == 0 {
            continue;
        }
        println!(
            "{:<44} {:>7} {:>9} {:>12.2}%",
            market.to_string(),
            stats.probes,
            stats.rejections,
            100.0 * stats.availability()
        );
    }

    // 4. Where is the cloud under-provisioned?
    println!();
    println!("on-demand rejections by region:");
    for (region, count) in query.rejection_counts_by_region() {
        println!("  {region}: {count}");
    }
}
