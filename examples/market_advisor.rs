//! Market advisor: the Chapter 3 query workflows — rank markets by
//! measured availability, estimate mean time to revocation, and
//! calibrate a probing budget from observed spike rates (§3.4).
//!
//! ```sh
//! cargo run --release -p spotlight-integration --example market_advisor
//! ```

use cloud_sim::price::Price;
use cloud_sim::{Catalog, Engine, SimConfig, SimDuration};
use spotlight_core::budget::calibrate_threshold;
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::shared_store;

fn main() {
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(11));
    engine.cloud_mut().warmup(50);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(4);

    let store = shared_store();
    let markets: Vec<_> = engine.cloud().catalog().markets().to_vec();
    let config = SpotLightConfig {
        policy: PolicyConfig {
            spike_threshold: 0.5,
            ..PolicyConfig::default()
        },
        // Watch every testbed market for revocations during spikes.
        revocation_watch: markets.clone(),
        revocation_hold_max: SimDuration::hours(4),
        ..SpotLightConfig::default()
    };
    engine.add_agent(Box::new(SpotLight::new(config, store.clone())));
    engine.run_until(end);

    let db = store.read();
    let query = SpotLightQuery::new(&db, start, end);

    // "Top server types with the longest availability" — Chapter 3's
    // example query, over on-demand probes.
    println!("most available markets (min 3 probes):");
    for (market, stats) in query.top_available_markets(&markets, None, 3, 5) {
        println!(
            "  {market}: {:.2}% available over {} probes",
            100.0 * stats.availability(),
            stats.probes
        );
    }

    // Mean time to revocation for a bid equal to the on-demand price.
    println!();
    println!("mean time to revocation (bid = on-demand price):");
    for &market in &markets {
        if let Some(mttr) = query.mean_time_to_revocation(market) {
            println!("  {market}: {mttr}");
        }
    }

    // Budget calibration: what threshold fits $5/day of probing?
    println!();
    let rates = query.spike_rates(&[0.5, 1.0, 2.0, 5.0], SimDuration::days(1));
    println!("observed spike rates per day:");
    for r in &rates {
        println!(
            "  >= {:.1}x od: {:.1} spikes/day",
            r.threshold, r.spikes_per_window
        );
    }
    let cost_per_probe = Price::from_dollars(0.3); // mean od price + fan-out overhead
    let budget = Price::from_dollars(5.0);
    match calibrate_threshold(&rates, cost_per_probe, budget) {
        Some(c) => println!(
            "for a {budget}/day budget at {cost_per_probe}/probe: \
             trigger at {:.1}x od, sampling p = {:.2} \
             (~{:.1} probes/day)",
            c.threshold, c.sampling, c.expected_probes_per_window
        ),
        None => println!("no calibration possible"),
    }
}
