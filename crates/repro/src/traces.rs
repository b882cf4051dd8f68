//! Trace-based figures: 2.1, 5.1(a), 5.1(b), 5.2 and 5.3 — price
//! series, intrinsic bids, and holding prices for specific markets.

use crate::experiment::{
    c3_2x_us_east_1d, fig_5_1a_markets, fig_5_1b_markets, fig_5_2_market, Study,
};
use crate::output::{banner, pct, Table};
use cloud_sim::ids::MarketId;
use cloud_sim::time::SimDuration;
use spotlight_core::analysis::holding_price_series;
use std::path::Path;

/// Samples the recorded price of `market` every `step` over the study
/// span, as `(secs, dollars)`.
fn sampled_trace(study: &Study, market: MarketId, step: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let mut t = study.start;
    while t <= study.end {
        if let Some(p) = study.cloud.trace().price_at(market, t) {
            out.push((t.as_secs(), p.as_dollars()));
        }
        t += SimDuration::from_secs(step);
    }
    out
}

/// Figure 2.1: the spot price of c3.2xlarge (us-east-1d) against its
/// on-demand price.
pub fn fig_2_1(study: &Study, out: &Path) {
    banner("Figure 2.1 — spot price vs on-demand price (c3.2xlarge, us-east-1d)");
    let market = c3_2x_us_east_1d();
    let od = study.cloud.catalog().od_price(market);
    let history = study.cloud.trace().history(market);
    let mut table = Table::new(vec!["t_secs", "spot_price", "od_price"]);
    for p in history {
        table.row(vec![
            p.at.as_secs().to_string(),
            format!("{:.4}", p.price.as_dollars()),
            format!("{:.4}", od.as_dollars()),
        ]);
    }
    crate::output::emit_csv(&table, out, "fig_2_1");
    let above = history.iter().filter(|p| p.price > od).count();
    let max = history
        .iter()
        .map(|p| p.price.ratio_to(od))
        .fold(0.0_f64, f64::max);
    println!(
        "  {} price changes recorded; {} exceeded the on-demand price (max {:.1}x od)",
        history.len(),
        above,
        max
    );
    println!("  paper shape: the spot price periodically exceeds the on-demand line");
}

/// Figure 5.1(a): price inversion within the c3.* family in one zone.
#[allow(clippy::needless_range_loop)] // parallel indexing into three traces
pub fn fig_5_1a(study: &Study, out: &Path) {
    banner("Figure 5.1(a) — c3.2x/4x/8xlarge spot prices in us-east-1d");
    let markets = fig_5_1a_markets();
    let step = 600;
    let traces: Vec<Vec<(u64, f64)>> = markets
        .iter()
        .map(|&m| sampled_trace(study, m, step))
        .collect();
    let mut table = Table::new(vec!["t_secs", "c3.2xlarge", "c3.4xlarge", "c3.8xlarge"]);
    let n = traces.iter().map(Vec::len).min().unwrap_or(0);
    let mut inversions = 0usize;
    for i in 0..n {
        let row = [traces[0][i], traces[1][i], traces[2][i]];
        if row[0].1 > row[2].1 {
            inversions += 1;
        }
        table.row(vec![
            row[0].0.to_string(),
            format!("{:.4}", row[0].1),
            format!("{:.4}", row[1].1),
            format!("{:.4}", row[2].1),
        ]);
    }
    crate::output::emit_csv(&table, out, "fig_5_1a");
    println!(
        "  arbitrage inversions (2xlarge dearer than 8xlarge): {:.1}% of samples \
         ({inversions}/{n})",
        100.0 * inversions as f64 / n.max(1) as f64
    );
    println!("  paper shape: the smaller type is sometimes the more expensive one");
}

/// Figure 5.1(b): the same type across availability zones.
#[allow(clippy::needless_range_loop)] // parallel indexing into three traces
pub fn fig_5_1b(study: &Study, out: &Path) {
    banner("Figure 5.1(b) — c3.2xlarge spot prices across us-east-1a/b/d");
    let markets = fig_5_1b_markets();
    let step = 600;
    let traces: Vec<Vec<(u64, f64)>> = markets
        .iter()
        .map(|&m| sampled_trace(study, m, step))
        .collect();
    let n = traces.iter().map(Vec::len).min().unwrap_or(0);
    let mut table = Table::new(vec!["t_secs", "us-east-1a", "us-east-1b", "us-east-1d"]);
    let mut max_divergence = 0.0_f64;
    let mut divergent = 0usize;
    for i in 0..n {
        let vals = [traces[0][i].1, traces[1][i].1, traces[2][i].1];
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        if lo > 0.0 {
            let ratio = hi / lo;
            max_divergence = max_divergence.max(ratio);
            if ratio >= 2.0 {
                divergent += 1;
            }
        }
        table.row(vec![
            traces[0][i].0.to_string(),
            format!("{:.4}", vals[0]),
            format!("{:.4}", vals[1]),
            format!("{:.4}", vals[2]),
        ]);
    }
    crate::output::emit_csv(&table, out, "fig_5_1b");
    println!(
        "  cross-zone divergence >=2x in {:.1}% of samples; max {:.1}x",
        100.0 * divergent as f64 / n.max(1) as f64,
        max_divergence
    );
    println!("  paper shape: zones diverge, at times by 5-6x");
}

/// Figure 5.2: intrinsic bid price vs published spot price.
pub fn fig_5_2(study: &Study, out: &Path) {
    banner("Figure 5.2 — intrinsic bid price vs published spot price (BidSpread)");
    let market = fig_5_2_market();
    let store = study.store.read();
    let records: Vec<_> = store.intrinsic_bids_of(market).collect();
    let mut table = Table::new(vec!["t_secs", "published", "intrinsic", "attempts"]);
    let mut above = 0usize;
    let mut attempts_total = 0u32;
    for r in &records {
        if r.intrinsic > r.published {
            above += 1;
        }
        attempts_total += r.attempts;
        table.row(vec![
            r.at.as_secs().to_string(),
            format!("{:.4}", r.published.as_dollars()),
            format!("{:.4}", r.intrinsic.as_dollars()),
            r.attempts.to_string(),
        ]);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_2");
    if !records.is_empty() {
        println!(
            "  searches: {}; intrinsic > published in {}; mean attempts {:.1} \
             (paper: 2-3 average, max 6)",
            records.len(),
            pct(Some(above as f64 / records.len() as f64)),
            attempts_total as f64 / records.len() as f64
        );
    }
}

/// Figure 5.3: least price to hold a spot instance for k hours.
pub fn fig_5_3(study: &Study, out: &Path) {
    banner("Figure 5.3 — least bid to hold a spot instance (c3.2xlarge, us-east-1d)");
    let market = c3_2x_us_east_1d();
    let od = study.cloud.catalog().od_price(market).as_dollars();
    let trace = sampled_trace(study, market, 600);
    let horizons = [
        SimDuration::hours(1),
        SimDuration::hours(3),
        SimDuration::hours(6),
        SimDuration::hours(12),
    ];
    let series = holding_price_series(&trace, &horizons);
    let mut table = Table::new(vec![
        "t_secs", "spot", "hold_1h", "hold_3h", "hold_6h", "hold_12h", "od",
    ]);
    let n = trace.len();
    for i in 0..n {
        let mut row = vec![trace[i].0.to_string(), format!("{:.4}", trace[i].1)];
        for (_, s) in &series {
            row.push(format!("{:.4}", s[i].1));
        }
        row.push(format!("{od:.4}"));
        table.row(row);
    }
    crate::output::emit_csv(&table, out, "fig_5_3");
    let mean = |xs: &[(u64, f64)]| xs.iter().map(|x| x.1).sum::<f64>() / xs.len().max(1) as f64;
    println!(
        "  mean spot price: ${:.4}   on-demand: ${od:.4}",
        mean(&trace)
    );
    for (h, s) in &series {
        println!(
            "  mean least bid to hold {:>4}: ${:.4} ({:+.0}% over spot)",
            format!("{h}"),
            mean(s),
            100.0 * (mean(s) / mean(&trace) - 1.0)
        );
    }
    println!("  paper shape: longer holds need bids well above the current spot price");
}
