//! Output checks. An HTTP body must equal what the same
//! `SpotLightQuery` gives on the hub's snapshot of that `as_of`; a
//! recovered store must equal an in-memory twin fed the same ops (the
//! twin is built during set-up, digested and dropped, so that it does
//! not sit in the measured process's memory).

use crate::gen::Markets;
use crate::phases::json_u64;
use crate::world::{World, KINDS};
use cloud_sim::ids::MarketId;
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::StoreSnapshot;
use spotlight_core::store::{DataStore, ProbeStats};
use spotlight_serve::router::market_param;
use std::io;

/// What two equal stores agree on: `len`, `total_cost` and every
/// market's `probe_stats` and `is_unavailable`, od and spot.
#[derive(Debug, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    total_cost: Price,
    per_market: Vec<(ProbeStats, bool)>,
}

pub fn digest(store: &DataStore, markets: &Markets) -> Digest {
    let read = store.read();
    let mut per_market = Vec::with_capacity(markets.ids.len() * KINDS.len());
    for &m in &markets.ids {
        for kind in KINDS {
            per_market.push((read.probe_stats(m, kind), read.is_unavailable(m, kind)));
        }
    }
    Digest {
        len: read.len(),
        total_cost: read.total_cost(),
        per_market,
    }
}

/// What a check on one response found.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Match,
    Mismatch,
    /// The serving snapshot was replaced twice around the request, so
    /// the one that answered is gone.
    Unverifiable,
}

fn candidates(snapshot: &StoreSnapshot) -> Vec<MarketId> {
    let read = snapshot.read();
    let mut candidates: Vec<MarketId> = read.probed_markets().collect();
    candidates.sort_unstable();
    candidates
}

/// The body (or the part of it that carries the answer) expected for
/// query `which` on `market`, evaluated on `snapshot`.
fn expected(which: usize, market: MarketId, kind: usize, snapshot: &StoreSnapshot) -> String {
    let read = snapshot.read();
    let as_of = snapshot.as_of();
    let now = as_of.max(SimTime::from_secs(1));
    let kind_name = ["od", "spot"][kind];
    let mut out = String::new();
    match which {
        0 => {
            let q = SpotLightQuery::new(&read, SimTime::ZERO, as_of);
            let (stats, fresh) = q.availability_qualified(market, KINDS[kind]);
            json::object(&mut out, |o| {
                o.str("market", &market_param(market));
                o.str("kind", kind_name);
                o.u64("start_secs", 0);
                o.u64("end_secs", as_of.as_secs());
                o.value("availability", &stats);
                o.value("freshness", &fresh);
                o.u64("as_of_secs", as_of.as_secs());
            });
        }
        1 => {
            let q = SpotLightQuery::new(&read, SimTime::ZERO, now);
            let fresh = q.freshness(market, KINDS[kind]);
            json::object(&mut out, |o| {
                o.str("market", &market_param(market));
                o.str("kind", kind_name);
                o.value("freshness", &fresh);
                o.u64("as_of_secs", as_of.as_secs());
            });
        }
        2 => {
            let q = SpotLightQuery::new(&read, SimTime::ZERO, as_of);
            let top = q.top_available_markets(&candidates(snapshot), None, 1, 10);
            json::array(&mut out, |a| {
                for (market, stats) in &top {
                    a.object(|o| {
                        o.str("market", &market_param(*market));
                        o.value("availability", stats);
                    });
                }
            });
        }
        3 => {
            let q = SpotLightQuery::new(&read, SimTime::ZERO, as_of);
            let rates = q.spike_rates(&[1.25, 1.5, 2.0, 5.0], SimDuration::days(1));
            json::array(&mut out, |a| {
                for rate in &rates {
                    a.object(|o| {
                        o.f64("threshold", rate.threshold);
                        o.f64("spikes_per_window", rate.spikes_per_window);
                    });
                }
            });
        }
        _ => {
            let q = SpotLightQuery::new(&read, SimTime::ZERO, now);
            let fallbacks = q.uncorrelated_fallbacks(
                market,
                &candidates(snapshot),
                SimDuration::from_secs(900),
                5,
            );
            json::array(&mut out, |a| {
                for fallback in &fallbacks {
                    a.str(&market_param(*fallback));
                }
            });
        }
    }
    out
}

/// Sends one request of kind `which` (0 availability, 1 freshness,
/// 2 advisor/top, 3 spike-rates, 4 advisor/fallbacks) for a drawn
/// market and checks the response against the oracle.
pub fn check_response(world: &mut World, which: usize) -> io::Result<Verdict> {
    let m = world.draw_market();
    let kind = m % 2;
    let market = world.markets.ids[m];
    let path = match which {
        0 => world.paths.availability[m][kind].as_str(),
        1 => world.paths.freshness[m][kind].as_str(),
        2 => "/v1/advisor/top?n=10",
        3 => "/v1/spike-rates",
        _ => world.paths.fallbacks[m].as_str(),
    };
    let before = world.hub.load();
    let client = world.client.as_mut().expect("client lives until teardown");
    let response = client.get(path)?;
    let after = world.hub.load();
    if response.status != 200 {
        return Ok(Verdict::Mismatch);
    }
    // Point and fallback bodies name their snapshot's `as_of`; the two
    // span-based scans name it as the default span end.
    let as_of = json_u64(&response.body, "as_of_secs").or(json_u64(&response.body, "end_secs"));
    let Some(snapshot) = [before, after]
        .into_iter()
        .find(|s| Some(s.as_of().as_secs()) == as_of)
    else {
        return Ok(Verdict::Unverifiable);
    };
    let expected = expected(which, market, kind, &snapshot);
    let matches = if which <= 1 {
        response.body == expected
    } else {
        response.body.contains(&expected)
    };
    Ok(if matches {
        Verdict::Match
    } else {
        Verdict::Mismatch
    })
}
