//! SpotOn batch scheduler scenario (§6.2): pick the cheapest spot
//! market by the Equation 6.1 expected cost, then see how on-demand
//! unavailability inflates the real running time — and how SpotLight's
//! data fixes it.
//!
//! ```sh
//! cargo run --release -p spotlight-integration --example batch_scheduler
//! ```

use cloud_sim::{Catalog, Engine, SimConfig, SimDuration};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::shared_store;
use spotlight_derivative::series::{AvailabilityTimeline, PriceSeries};
use spotlight_derivative::spoton::{
    estimate_market_stats, mean_completion_hours, run_trials, select_market, JobSpec,
};

fn main() {
    let mut sim = SimConfig::paper(23);
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

    let job = JobSpec::representative();
    let markets: Vec<_> = cloud.catalog().markets().to_vec();

    // SpotOn's brute-force selection: estimate P_k and E[Z_k] per market
    // from its price history and minimize the Eq 6.1 expected cost.
    let mut names = Vec::new();
    let mut stats_rows = Vec::new();
    for &m in &markets {
        let prices = PriceSeries::new(cloud.trace().history(m).to_vec());
        let od = cloud.catalog().od_price(m);
        if let Some(stats) = estimate_market_stats(&prices, od, SimDuration::hours(2), 200) {
            names.push(m.to_string());
            stats_rows.push(stats);
        }
    }
    let named: Vec<(&str, _)> = names
        .iter()
        .map(String::as_str)
        .zip(stats_rows.iter().copied())
        .collect();
    let Some((chosen_name, cost)) = select_market(&job, named) else {
        println!("no viable market");
        return;
    };
    println!("Eq 6.1 selection: {chosen_name} at expected ${cost:.4}/useful-hour");
    let chosen = markets[names.iter().position(|n| n == chosen_name).unwrap()];

    // Replay the job 100 times against the measured availability data.
    let db = store.read();
    let query = SpotLightQuery::new(&db, start, end);
    let prices = PriceSeries::new(cloud.trace().history(chosen).to_vec());
    let od_price = cloud.catalog().od_price(chosen);
    let timeline_of = |m| {
        AvailabilityTimeline::from_intervals(
            db.intervals()
                .filter(|i| i.market == m && i.kind == ProbeKind::OnDemand)
                .map(|i| (i.start, i.end.unwrap_or(end)))
                .collect(),
        )
    };
    let naive_timeline = timeline_of(chosen);
    let informed_timeline = query
        .uncorrelated_fallbacks(chosen, &markets, SimDuration::hours(1), 1)
        .first()
        .map(|&f| timeline_of(f))
        .unwrap_or_default();

    let retry = SimDuration::from_secs(300);
    let span_end = end - SimDuration::hours(12);
    let naive = run_trials(
        &job,
        &prices,
        od_price,
        &naive_timeline,
        retry,
        start,
        span_end,
        100,
    );
    let informed = run_trials(
        &job,
        &prices,
        od_price,
        &informed_timeline,
        retry,
        start,
        span_end,
        100,
    );

    let revocations: u64 = naive.iter().map(|t| t.revocations).sum();
    println!(
        "100 trials of a {} job (checkpoint {} every {}):",
        job.work, job.checkpoint_time, job.checkpoint_interval
    );
    println!("  total revocations survived: {revocations}");
    println!(
        "  naive same-market restart:  mean completion {:.2} h",
        mean_completion_hours(&naive)
    );
    println!(
        "  SpotLight-informed restart: mean completion {:.2} h",
        mean_completion_hours(&informed)
    );
}
