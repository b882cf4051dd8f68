//! Spot-market clearing: the uniform-price auction where "the lowest
//! winning bid dictates the spot price" (§2.1.3).
//!
//! Each market holds a parametric bid book (mass of demanded instances at
//! each bid level, produced by [`crate::demand::MarketDemand`]) and a
//! supply share of its pool. Clearing walks the bid levels from the top:
//! the marginal (lowest) winning level sets the price. Prices are floored
//! at the lowest level (the market's reserve price — EC2 "has no
//! incentive to sell spot servers below the cost of the energy", §5.3)
//! and capped at the highest (the 10× on-demand bid cap).

use crate::price::Price;
use crate::time::SimTime;

/// The result of clearing one market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clearing {
    /// Index of the price level in the level grid.
    pub level_idx: usize,
    /// The clearing price as a multiple of the on-demand price.
    pub price_multiple: f64,
    /// Instances served (min of demand above the price and supply).
    pub served: f64,
    /// True when supply was zero or the top level alone exceeded it —
    /// the price pinned at the 10× cap.
    pub at_cap: bool,
    /// True when all demand fit — the price pinned at the reserve floor.
    pub at_floor: bool,
}

/// Clears a market: given `masses[i]` instances demanded at
/// `multiples[i]` × on-demand and `supply` instances available, returns
/// the uniform clearing price (lowest winning bid).
///
/// # Panics
///
/// Panics if the slices are empty or their lengths differ.
pub fn clear(multiples: &[f64], masses: &[f64], supply: f64) -> Clearing {
    assert!(!multiples.is_empty(), "need at least one bid level");
    assert_eq!(multiples.len(), masses.len(), "level arrays must align");
    // Summing through a fixed-width array gives the compiler a constant
    // trip count to unroll on the common 15-level grid; the summation
    // order (and therefore the result) is unchanged.
    let total: f64 = match <&[f64; crate::demand::FIXED_LEVELS]>::try_from(masses) {
        Ok(m) => m.iter().sum(),
        Err(_) => masses.iter().sum(),
    };
    clear_with_total(multiples, masses, total, supply)
}

/// [`clear`] with a precomputed `total = Σ masses` — the fused tick
/// path gets the sum for free from
/// [`crate::demand::MarketDemand::level_masses_and_total_into`] and
/// must not rescan the masses. `total` has to be the left-to-right sum
/// of `masses` bit for bit, or the floor decision (`total <= supply`)
/// could disagree with [`clear`] and break replay determinism.
///
/// # Panics
///
/// Panics if the slices are empty or their lengths differ.
pub fn clear_with_total(multiples: &[f64], masses: &[f64], total: f64, supply: f64) -> Clearing {
    assert!(!multiples.is_empty(), "need at least one bid level");
    assert_eq!(multiples.len(), masses.len(), "level arrays must align");
    let n = multiples.len();
    debug_assert_eq!(
        total,
        match <&[f64; crate::demand::FIXED_LEVELS]>::try_from(masses) {
            Ok(m) => m.iter().sum::<f64>(),
            Err(_) => masses.iter().sum(),
        },
        "total must be the left-to-right sum of masses"
    );

    if supply <= 0.0 {
        return Clearing {
            level_idx: n - 1,
            price_multiple: multiples[n - 1],
            served: 0.0,
            at_cap: true,
            at_floor: false,
        };
    }
    if total <= supply {
        // Everyone wins; the price rests at the reserve floor.
        return Clearing {
            level_idx: 0,
            price_multiple: multiples[0],
            served: total,
            at_cap: false,
            at_floor: true,
        };
    }

    // Fast path for the fixed 15-level grid: a branch-free marginal-
    // level walk with a constant trip count. Each step keeps the exact
    // subtraction chain of the early-exit loop below (`remaining`
    // freezes once the marginal level is found), so the selected level
    // — and every float — is bit-identical to the generic walk; the
    // selects compile to cmov/blend instead of a data-dependent branch
    // the predictor keeps missing near the clearing level.
    if let Ok(masses) = <&[f64; crate::demand::FIXED_LEVELS]>::try_from(masses) {
        let mut remaining = supply;
        let mut level = 0usize;
        let mut found = false;
        for i in (0..crate::demand::FIXED_LEVELS).rev() {
            let hit = !found && masses[i] >= remaining;
            level = if hit { i } else { level };
            found |= hit;
            remaining = if found {
                remaining
            } else {
                remaining - masses[i]
            };
        }
        debug_assert!(found, "total > supply guarantees a marginal level exists");
        return Clearing {
            level_idx: level,
            price_multiple: multiples[level],
            served: supply,
            // At the first iteration `remaining == supply`, so the
            // early-exit loop's cap test (`masses[i] > remaining &&
            // remaining == supply` at `i == n-1`) reduces to this.
            at_cap: level == n - 1 && masses[n - 1] > supply,
            at_floor: false,
        };
    }

    // Walk from the highest bid level down, filling supply.
    let mut remaining = supply;
    for i in (0..n).rev() {
        if masses[i] >= remaining {
            // Level i is the marginal (partially served) level: the
            // lowest winning bid sits here.
            return Clearing {
                level_idx: i,
                price_multiple: multiples[i],
                served: supply,
                at_cap: i == n - 1 && masses[i] > remaining && remaining == supply,
                at_floor: false,
            };
        }
        remaining -= masses[i];
    }
    unreachable!("total > supply guarantees a marginal level exists");
}

/// Dynamic state of one spot market.
#[derive(Debug, Clone)]
pub struct MarketState {
    /// The on-demand price governing this market (fixed by the catalog).
    pub od_price: Price,
    /// This market's share of its pool's spot supply.
    pub weight: f64,
    /// Baseline total demand mass, in instances.
    pub base_mass: f64,
    /// Capacity units per instance of this market's type.
    pub units: u32,
    /// Current true clearing price.
    true_price: Price,
    /// Price visible through the API (lags the true price by the 20–40 s
    /// propagation delay of §5.1.2).
    published_price: Price,
    /// A price change waiting to be published.
    pending_publish: Option<(SimTime, Price)>,
    /// Details of the last clearing.
    pub last_clearing: Clearing,
    /// Instances served to the background market at the last clearing.
    pub served_instances: f64,
}

impl MarketState {
    /// Creates a market at its floor price.
    pub fn new(
        od_price: Price,
        weight: f64,
        base_mass: f64,
        units: u32,
        floor_multiple: f64,
    ) -> Self {
        let floor = od_price.scale(floor_multiple);
        MarketState {
            od_price,
            weight,
            base_mass,
            units,
            true_price: floor,
            published_price: floor,
            pending_publish: None,
            last_clearing: Clearing {
                level_idx: 0,
                price_multiple: floor_multiple,
                served: 0.0,
                at_cap: false,
                at_floor: true,
            },
            served_instances: 0.0,
        }
    }

    /// The true (instantaneous) clearing price.
    pub fn true_price(&self) -> Price {
        self.true_price
    }

    /// The price currently visible through the API.
    pub fn published_price(&self) -> Price {
        self.published_price
    }

    /// The market's reserve floor price.
    pub fn floor_price(&self, floor_multiple: f64) -> Price {
        self.od_price.scale(floor_multiple)
    }

    /// The spot/on-demand price ratio of the true price.
    pub fn price_ratio(&self) -> f64 {
        self.true_price.ratio_to(self.od_price)
    }

    /// Applies a new clearing result at time `now`; a change to the true
    /// price is queued for publication at `publish_at`. Returns `true`
    /// when the true price changed.
    pub fn apply_clearing(
        &mut self,
        clearing: Clearing,
        now: SimTime,
        publish_at: SimTime,
    ) -> bool {
        debug_assert!(publish_at >= now);
        self.last_clearing = clearing;
        self.served_instances = clearing.served;
        let new_price = self.od_price.scale(clearing.price_multiple);
        if new_price != self.true_price {
            self.true_price = new_price;
            self.pending_publish = Some((publish_at, new_price));
            true
        } else {
            false
        }
    }

    /// Publishes any pending price whose publication time has arrived.
    /// Returns the newly published price, if any.
    pub fn publish_due(&mut self, now: SimTime) -> Option<Price> {
        match self.pending_publish {
            Some((at, price)) if at <= now => {
                self.pending_publish = None;
                if price != self.published_price {
                    self.published_price = price;
                    Some(price)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// True if a price change is still waiting to propagate — the window
    /// in which bids at the published price lose (§5.1.2).
    pub fn publication_lagging(&self) -> bool {
        self.pending_publish.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MULTIPLES: [f64; 5] = [0.1, 0.5, 1.0, 2.0, 10.0];

    #[test]
    fn all_demand_fits_price_at_floor() {
        let c = clear(&MULTIPLES, &[1.0, 1.0, 1.0, 0.0, 0.0], 10.0);
        assert!(c.at_floor);
        assert_eq!(c.price_multiple, 0.1);
        assert_eq!(c.served, 3.0);
    }

    #[test]
    fn zero_supply_pins_at_cap() {
        let c = clear(&MULTIPLES, &[1.0; 5], 0.0);
        assert!(c.at_cap);
        assert_eq!(c.price_multiple, 10.0);
        assert_eq!(c.served, 0.0);
    }

    #[test]
    fn marginal_level_sets_price() {
        // Demand: 2 @10x, 3 @2x, 5 @1x, supply 4 → winners: 2 @10x and
        // 2 of the 3 @2x → lowest winning bid = 2x.
        let c = clear(&MULTIPLES, &[0.0, 0.0, 5.0, 3.0, 2.0], 4.0);
        assert_eq!(c.price_multiple, 2.0);
        assert_eq!(c.served, 4.0);
        assert!(!c.at_floor && !c.at_cap);
    }

    #[test]
    fn exact_fill_prices_at_marginal_level() {
        // Supply exactly covers the top two levels.
        let c = clear(&MULTIPLES, &[0.0, 0.0, 5.0, 3.0, 2.0], 5.0);
        assert_eq!(c.price_multiple, 2.0);
    }

    #[test]
    fn shrinking_supply_raises_price() {
        let masses = [4.0, 3.0, 2.0, 1.0, 0.5];
        let mut last = 0.0_f64;
        let mut prices = Vec::new();
        for supply in [12.0, 6.0, 3.0, 1.0, 0.2] {
            let c = clear(&MULTIPLES, &masses, supply);
            assert!(
                c.price_multiple >= last,
                "price must not fall as supply shrinks"
            );
            last = c.price_multiple;
            prices.push(c.price_multiple);
        }
        assert!(prices[0] < prices[4], "prices should rise as supply falls");
    }

    #[test]
    fn market_state_price_lag() {
        let od = Price::from_dollars(0.42);
        let mut m = MarketState::new(od, 0.5, 10.0, 8, 0.1);
        assert_eq!(m.true_price(), od.scale(0.1));
        let clearing = clear(&MULTIPLES, &[0.0, 0.0, 5.0, 3.0, 2.0], 4.0);
        let changed = m.apply_clearing(clearing, SimTime::from_secs(100), SimTime::from_secs(130));
        assert!(changed);
        assert_eq!(m.true_price(), od.scale(2.0));
        assert_eq!(m.published_price(), od.scale(0.1), "not yet published");
        assert!(m.publication_lagging());
        assert_eq!(m.publish_due(SimTime::from_secs(120)), None);
        assert_eq!(m.publish_due(SimTime::from_secs(130)), Some(od.scale(2.0)));
        assert_eq!(m.published_price(), od.scale(2.0));
        assert!(!m.publication_lagging());
    }

    #[test]
    fn unchanged_price_does_not_publish() {
        let od = Price::from_dollars(1.0);
        let mut m = MarketState::new(od, 0.5, 10.0, 8, 0.1);
        let clearing = clear(&MULTIPLES, &[1.0, 0.0, 0.0, 0.0, 0.0], 10.0);
        let changed = m.apply_clearing(clearing, SimTime::ZERO, SimTime::from_secs(30));
        assert!(!changed, "price stayed at floor");
        assert_eq!(m.publish_due(SimTime::from_secs(60)), None);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_slices_panic() {
        let _ = clear(&MULTIPLES, &[1.0, 2.0], 1.0);
    }

    /// The branch-free fixed-15 walk must agree with the generic
    /// early-exit walk bit for bit — same level, price, served, and
    /// flags — across floor, cap, marginal, and exact-fill regimes.
    #[test]
    fn fixed_15_branchless_walk_matches_generic() {
        let multiples: [f64; 15] = core::array::from_fn(|i| 0.1 + 0.7 * i as f64);
        // A pseudo-random but deterministic mass pattern, including
        // zero levels and an uneven tail.
        let mut masses = [0.0f64; 15];
        let mut x = 9_876_543_210.0_f64;
        for m in masses.iter_mut() {
            x = (x * 1.103_515_245e0 + 12_345.0) % 1_000.0;
            *m = (x / 100.0).floor() * 0.75;
        }
        masses[3] = 0.0;
        masses[14] = 2.25;
        let total: f64 = masses.iter().sum();
        let mut supplies = vec![0.0, total * 2.0, total, 0.1, masses[14], masses[14] + 0.5];
        // Walk a supply sweep across every level boundary.
        let mut acc = 0.0;
        for i in (0..15).rev() {
            acc += masses[i];
            supplies.push(acc);
            supplies.push(acc + 0.25);
        }
        for supply in supplies {
            let fast = clear(&multiples, &masses, supply);
            // Force the generic path by clearing a 16-wide copy whose
            // extra bottom level holds zero mass: the walk visits the
            // same levels with the same remaining chain (index shifted
            // by one), and a zero level is never marginal for
            // `supply > 0`.
            let mut wide_multiples = [0.05f64; 16];
            wide_multiples[1..].copy_from_slice(&multiples);
            let mut wide_masses = [0.0f64; 16];
            wide_masses[1..].copy_from_slice(&masses);
            let generic = clear(&wide_multiples, &wide_masses, supply);
            if generic.at_floor {
                assert!(fast.at_floor, "supply {supply}");
                continue;
            }
            assert_eq!(fast.level_idx + 1, generic.level_idx, "supply {supply}");
            assert_eq!(
                fast.price_multiple, generic.price_multiple,
                "supply {supply}"
            );
            assert_eq!(fast.served, generic.served, "supply {supply}");
            assert_eq!(fast.at_cap, generic.at_cap, "supply {supply}");
        }
    }

    /// `clear_with_total` with the true sum is exactly `clear`.
    #[test]
    fn clear_with_total_matches_clear() {
        let masses = [4.0, 3.0, 2.0, 1.0, 0.5];
        let total: f64 = masses.iter().sum();
        for supply in [0.0, 0.2, 1.0, 3.0, 6.0, 12.0] {
            assert_eq!(
                clear_with_total(&MULTIPLES, &masses, total, supply),
                clear(&MULTIPLES, &masses, supply),
            );
        }
    }
}
