//! The benchmark's own seeded input generator.
//!
//! Produces a time-ordered stream of spike events and probe records
//! over every market of `Catalog::standard()` with the
//! kind/trigger/outcome mix of a real engine-mode study (proportions
//! taken from a 20-day `run_study` at seed 7: ~1.2M probes, ~0.6
//! spikes per probe, intervals opened by ~1 % of probes, ~20 % of
//! probes being recovery re-probes of a market already known to be
//! unavailable). The program under test only ever sees these generated
//! ops; the same `(seed, part)` always yields the same stream, which is
//! what lets every recovered store be compared against an in-memory
//! twin fed by a second generator.

use cloud_sim::catalog::Catalog;
use cloud_sim::ids::MarketId;
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::store::{DataStore, SpikeEvent};
use std::sync::Arc;

/// Simulated milliseconds between two generated probes at the density
/// of the reference study (1.2M probes over 20 days).
pub const STUDY_DT_MS: u64 = 20 * 86_400_000 / 1_200_000;

/// Index (into [`Markets::ids`]) of the market reserved for freshness
/// sentinels: the generator never emits an op for it, so a sentinel's
/// timestamp is visible in `/v1/freshness` exactly when the snapshot
/// holding it has been published.
pub const SENTINEL: usize = 0;

/// SplitMix64 — the bench's own RNG, so a change to the program's
/// `SimRng` can never change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The standard catalog's markets with what the generator needs per
/// market, all indexed alike.
#[derive(Debug)]
pub struct Markets {
    pub ids: Vec<MarketId>,
    od_price: Vec<Price>,
    /// A same-family market in the same zone (fan-out target), or the
    /// market itself when it has no sibling of equal index parity.
    family_sibling: Vec<u32>,
    /// The same type in another zone of the region, likewise.
    az_sibling: Vec<u32>,
}

impl Markets {
    pub fn standard() -> Arc<Markets> {
        let catalog = Catalog::standard();
        let ids: Vec<MarketId> = catalog.markets().to_vec();
        let index: std::collections::HashMap<MarketId, usize> =
            ids.iter().enumerate().map(|(i, m)| (*m, i)).collect();
        // Two-part generators split markets by index parity; siblings
        // keep the parity of their origin so each market's ops always
        // come from one generator, in time order.
        let sibling = |i: usize, candidates: Vec<MarketId>| -> u32 {
            candidates
                .iter()
                .filter_map(|m| index.get(m).copied())
                .find(|&j| j % 2 == i % 2 && j != SENTINEL)
                .unwrap_or(i) as u32
        };
        let family_sibling = (0..ids.len())
            .map(|i| sibling(i, catalog.family_siblings(ids[i])))
            .collect();
        let az_sibling = (0..ids.len())
            .map(|i| sibling(i, catalog.az_siblings(ids[i])))
            .collect();
        let od_price = ids.iter().map(|&m| catalog.od_price(m)).collect();
        Arc::new(Markets {
            ids,
            od_price,
            family_sibling,
            az_sibling,
        })
    }
}

/// One generated store operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Spike(SpikeEvent),
    Probe(ProbeRecord),
}

impl Op {
    /// Applies the op through the store's public ingest calls.
    pub fn apply(self, store: &DataStore) {
        match self {
            Op::Spike(s) => store.record_spike(s),
            Op::Probe(p) => {
                store.record_probe(p);
            }
        }
    }
}

/// A deterministic op stream over one partition of the markets.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    markets: Arc<Markets>,
    part: usize,
    parts: usize,
    clock_ms: u64,
    dt_ms: u64,
    /// Markets whose on-demand interval this stream has opened.
    open: Vec<u32>,
    is_open: Vec<bool>,
    /// Probes generated so far.
    pub probes: u64,
}

impl Gen {
    /// Stream `part` of `parts` (1 or 2), starting at simulated second
    /// `start_secs` and advancing `dt_ms` per probe.
    pub fn new(
        markets: &Arc<Markets>,
        seed: u64,
        part: usize,
        parts: usize,
        start_secs: u64,
        dt_ms: u64,
    ) -> Gen {
        assert!(parts == 1 || parts == 2, "markets split by index parity");
        Gen {
            rng: Rng::new(seed ^ (part as u64 + 1).wrapping_mul(0xa24b_aed4_963e_e407)),
            markets: Arc::clone(markets),
            part,
            parts,
            clock_ms: start_secs * 1000,
            dt_ms,
            open: Vec::new(),
            is_open: vec![false; markets.ids.len()],
            probes: 0,
        }
    }

    /// The stream's clock, in simulated seconds.
    pub fn now_secs(&self) -> u64 {
        self.clock_ms / 1000
    }

    fn pick_market(&mut self) -> usize {
        let n = self.markets.ids.len();
        loop {
            let i = self.rng.below(n);
            let i = i - i % self.parts + self.part;
            if i < n && i != SENTINEL {
                return i;
            }
        }
    }

    fn probe(
        &mut self,
        out: &mut Vec<Op>,
        m: usize,
        kind: ProbeKind,
        trigger: ProbeTrigger,
        outcome: ProbeOutcome,
        ratio: f64,
    ) {
        let price = self.markets.od_price[m];
        out.push(Op::Probe(ProbeRecord {
            at: SimTime::from_secs(self.clock_ms / 1000),
            market: self.markets.ids[m],
            kind,
            trigger,
            outcome,
            spot_ratio: ratio,
            bid: (kind == ProbeKind::Spot).then_some(price),
            cost: if outcome == ProbeOutcome::Fulfilled {
                price
            } else {
                Price::ZERO
            },
        }));
        self.probes += 1;
        self.clock_ms += self.dt_ms;
    }

    fn od_rejected(&mut self, m: usize) {
        if !self.is_open[m] {
            self.is_open[m] = true;
            self.open.push(m as u32);
        }
    }

    /// Appends ops to `out` until at least `probes` more probes have
    /// been generated (a fan-out burst may overshoot by two).
    pub fn fill(&mut self, out: &mut Vec<Op>, probes: u64) {
        let target = self.probes + probes;
        while self.probes < target {
            let r = self.rng.unit();
            let ratio = 1.0 + 9.0 * self.rng.unit().powi(3);
            if r < 0.21 && !self.open.is_empty() {
                // Recovery re-probe of a market known to be unavailable.
                let k = self.rng.below(self.open.len());
                let m = self.open[k] as usize;
                let recovered = self.rng.unit() < 0.045;
                let outcome = if recovered {
                    self.open.swap_remove(k);
                    self.is_open[m] = false;
                    ProbeOutcome::Fulfilled
                } else {
                    ProbeOutcome::InsufficientCapacity
                };
                self.probe(
                    out,
                    m,
                    ProbeKind::OnDemand,
                    ProbeTrigger::Recovery,
                    outcome,
                    ratio,
                );
            } else if r < 0.37 {
                // Periodic spot capacity check.
                let m = self.pick_market();
                let o = self.rng.unit();
                let outcome = if o < 0.83 {
                    ProbeOutcome::Fulfilled
                } else if o < 0.91 {
                    ProbeOutcome::PriceTooLow
                } else if o < 0.99 {
                    ProbeOutcome::CapacityOversubscribed
                } else {
                    ProbeOutcome::CapacityNotAvailable
                };
                self.probe(
                    out,
                    m,
                    ProbeKind::Spot,
                    ProbeTrigger::Periodic,
                    outcome,
                    ratio,
                );
            } else {
                // A price spike and the on-demand probe it triggers.
                let m = self.pick_market();
                let market = self.markets.ids[m];
                out.push(Op::Spike(SpikeEvent {
                    market,
                    at: SimTime::from_secs(self.clock_ms / 1000),
                    ratio,
                    probed: true,
                }));
                let rejected = self.is_open[m] || self.rng.unit() < 0.0075;
                let trigger = ProbeTrigger::PriceSpike { ratio };
                if !rejected {
                    self.probe(
                        out,
                        m,
                        ProbeKind::OnDemand,
                        trigger,
                        ProbeOutcome::Fulfilled,
                        ratio,
                    );
                    continue;
                }
                let detection = !self.is_open[m];
                self.od_rejected(m);
                self.probe(
                    out,
                    m,
                    ProbeKind::OnDemand,
                    trigger,
                    ProbeOutcome::InsufficientCapacity,
                    ratio,
                );
                if !detection {
                    continue;
                }
                // Fan out to a related market in the family and across
                // zones, as the policy does after a detection.
                for (sibling, p_rejected, family) in [
                    (self.markets.family_sibling[m] as usize, 0.8, true),
                    (self.markets.az_sibling[m] as usize, 0.2, false),
                ] {
                    if sibling == m {
                        continue;
                    }
                    let trigger = if family {
                        ProbeTrigger::FamilyFanout {
                            origin: market,
                            origin_ratio: ratio,
                        }
                    } else {
                        ProbeTrigger::CrossAzFanout {
                            origin: market,
                            origin_ratio: ratio,
                        }
                    };
                    let rejected = self.is_open[sibling] || self.rng.unit() < p_rejected;
                    let outcome = if rejected {
                        self.od_rejected(sibling);
                        ProbeOutcome::InsufficientCapacity
                    } else {
                        ProbeOutcome::Fulfilled
                    };
                    self.probe(out, sibling, ProbeKind::OnDemand, trigger, outcome, ratio);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ops_of(seed: u64, part: usize, parts: usize, probes: u64) -> Vec<Op> {
        let markets = Markets::standard();
        let mut gen = Gen::new(&markets, seed, part, parts, 0, STUDY_DT_MS);
        let mut out = Vec::new();
        gen.fill(&mut out, probes);
        out
    }

    #[test]
    fn same_seed_same_stream() {
        let a = format!("{:?}", ops_of(7, 0, 1, 20_000));
        let b = format!("{:?}", ops_of(7, 0, 1, 20_000));
        let c = format!("{:?}", ops_of(11, 0, 1, 20_000));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn covers_every_market_but_the_sentinel_and_so_every_stripe() {
        // 5288 markets hash over the store's 16 stripes; touching all
        // of them (checked through the store itself) touches every
        // stripe.
        let markets = Markets::standard();
        let store = DataStore::new();
        for op in ops_of(7, 0, 1, 200_000) {
            op.apply(&store);
        }
        let probed: HashSet<MarketId> = store.read().probed_markets().collect();
        assert_eq!(probed.len(), markets.ids.len() - 1);
        assert!(!probed.contains(&markets.ids[SENTINEL]));
        assert_eq!(store.stripe_count(), 16);
    }

    #[test]
    fn parts_are_disjoint_and_time_ordered() {
        let a = ops_of(7, 0, 2, 50_000);
        let b = ops_of(7, 1, 2, 50_000);
        let markets_of = |ops: &[Op]| -> HashSet<MarketId> {
            ops.iter()
                .map(|op| match op {
                    Op::Spike(s) => s.market,
                    Op::Probe(p) => p.market,
                })
                .collect()
        };
        assert!(markets_of(&a).is_disjoint(&markets_of(&b)));
        let times: Vec<u64> = a
            .iter()
            .map(|op| match op {
                Op::Spike(s) => s.at.as_secs(),
                Op::Probe(p) => p.at.as_secs(),
            })
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn mix_matches_the_reference_study() {
        let ops = ops_of(7, 0, 1, 300_000);
        let store = DataStore::new();
        let mut probes = 0u64;
        let mut spikes = 0u64;
        let mut spot = 0u64;
        for op in &ops {
            match op {
                Op::Spike(_) => spikes += 1,
                Op::Probe(p) => {
                    probes += 1;
                    spot += u64::from(p.kind == ProbeKind::Spot);
                }
            }
            op.apply(&store);
        }
        let intervals = store.read().intervals().count() as f64;
        let per_probe = |n: f64| n / probes as f64;
        assert!((0.5..0.7).contains(&per_probe(spikes as f64)), "{spikes}");
        assert!((0.12..0.2).contains(&per_probe(spot as f64)), "{spot}");
        assert!((0.005..0.03).contains(&per_probe(intervals)), "{intervals}");
    }
}
