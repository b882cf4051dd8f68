//! SpotCheck failover scenario (§6.1): a derivative cloud keeps
//! interactive VMs on cheap spot servers and migrates them to on-demand
//! servers when the spot price spikes — but the naive fallback fails
//! exactly when it is needed. SpotLight's availability data fixes the
//! fallback choice.
//!
//! ```sh
//! cargo run --release -p spotlight-integration --example spotcheck_failover
//! ```

use cloud_sim::{Catalog, Engine, SimConfig, SimDuration};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::shared_store;
use spotlight_derivative::series::{AvailabilityTimeline, PriceSeries};
use spotlight_derivative::spotcheck::{replay, SpotCheckConfig};

fn main() {
    // Run SpotLight over a volatile testbed for a week, recording full
    // price history for every market.
    let mut sim = SimConfig::paper(17);
    sim.record_all_prices = true;
    let mut engine = Engine::new(Catalog::testbed(), sim);
    engine.cloud_mut().warmup(50);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(7);
    let store = shared_store();
    engine.add_agent(Box::new(SpotLight::new(
        SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.5,
                ..PolicyConfig::default()
            },
            ..SpotLightConfig::default()
        },
        store.clone(),
    )));
    engine.run_until(end);
    let cloud = engine.into_parts().0;

    let db = store.read();
    let query = SpotLightQuery::new(&db, start, end);
    let markets: Vec<_> = cloud.catalog().markets().to_vec();

    // Host the VM in the most volatile market (most measured spikes).
    let host = *markets
        .iter()
        .max_by_key(|&&m| db.spikes().filter(|s| s.market == m).count())
        .expect("testbed has markets");
    let od_price = cloud.catalog().od_price(host);
    let prices = PriceSeries::new(cloud.trace().history(host).to_vec());

    // Naive fallback: the same market's on-demand servers, with the
    // unavailability SpotLight measured for it.
    let naive_timeline = AvailabilityTimeline::from_intervals(
        db.intervals()
            .filter(|i| i.market == host && i.kind == ProbeKind::OnDemand)
            .map(|i| (i.start, i.end.unwrap_or(end)))
            .collect(),
    );

    // SpotLight-informed fallback: an uncorrelated market.
    let fallback = query
        .uncorrelated_fallbacks(host, &markets, SimDuration::hours(1), 1)
        .first()
        .copied();
    let informed_timeline = match fallback {
        Some(f) => AvailabilityTimeline::from_intervals(
            db.intervals()
                .filter(|i| i.market == f && i.kind == ProbeKind::OnDemand)
                .map(|i| (i.start, i.end.unwrap_or(end)))
                .collect(),
        ),
        None => AvailabilityTimeline::default(),
    };

    let config = SpotCheckConfig::default();
    let naive = replay(&prices, od_price, &naive_timeline, &config, start, end);
    let informed = replay(&prices, od_price, &informed_timeline, &config, start, end);

    println!("SpotCheck VM hosted in {host} (bid = on-demand price {od_price})");
    println!("  revocations over 7 days: {}", naive.revocations);
    println!();
    println!(
        "  naive same-market fallback:   availability {:.3}%  ({} stalled migrations, \
         downtime {})",
        100.0 * naive.availability,
        naive.stalled_migrations,
        naive.downtime
    );
    match fallback {
        Some(f) => println!(
            "  SpotLight fallback -> {f}:\n                                availability \
             {:.3}%  ({} stalled migrations, downtime {})",
            100.0 * informed.availability,
            informed.stalled_migrations,
            informed.downtime
        ),
        None => println!("  (no uncorrelated fallback found)"),
    }
}
