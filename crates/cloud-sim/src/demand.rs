//! Generative demand processes driving the simulated cloud.
//!
//! Three layers of stochastic demand reproduce the causal structure the
//! paper hypothesizes (§2.2, §5.2):
//!
//! * a **region busy factor** — one mean-reverting process per region,
//!   shared by every pool in it, giving the *ambient* cross-zone demand
//!   correlation of §5.2.3;
//! * **pool demand** — per (family × zone): organic on-demand and
//!   reserved utilization follow seasonal Ornstein–Uhlenbeck processes,
//!   punctuated by heavy-tailed *surge events*. Zone-local surges are
//!   rare and large; region-wide family surges are more frequent but
//!   attenuated, which is what makes big spikes *local* and small ones
//!   *correlated* (the trend of Figure 5.8);
//! * **market demand** — per spot market: a parametric bid curve (mass
//!   at each bid level) whose scale and tilt drift, plus spot-side surge
//!   events that spike the price *without* an on-demand shortage — the
//!   reason spike size only loosely correlates with unavailability
//!   (Figure 5.4).

use crate::config::DemandProfile;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Seasonal multiplier combining diurnal and weekly cycles.
///
/// `phase` shifts the diurnal peak to the region's time zone.
fn seasonal_factor(t: SimTime, phase: f64, diurnal_amplitude: f64, weekly_amplitude: f64) -> f64 {
    let day = (t.day_fraction() - phase) * std::f64::consts::TAU;
    let week = t.week_fraction() * std::f64::consts::TAU;
    // Peak mid-afternoon (sin peaks at 1/4 of the cycle).
    1.0 + diurnal_amplitude * day.sin() + weekly_amplitude * week.sin()
}

/// One active demand surge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Surge {
    /// Extra demand while active. For pool surges this is a fraction of
    /// the pool's on-demand cap; for market surges it is bid mass
    /// relative to the market's baseline supply.
    pub magnitude: f64,
    /// When the surge ends.
    pub ends_at: SimTime,
}

/// The region-shared busy factor: an OU process around 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDemand {
    busy: f64,
}

impl RegionDemand {
    /// Starts at the neutral level.
    pub fn new() -> Self {
        RegionDemand { busy: 1.0 }
    }

    /// Current busy factor (≥ 0.5).
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Advances the process one tick.
    pub fn tick(&mut self, profile: &DemandProfile, rng: &mut SimRng) {
        self.busy += profile.region_busy_reversion * (1.0 - self.busy)
            + profile.region_busy_noise * rng.standard_normal();
        self.busy = self.busy.clamp(0.5, 2.0);
    }
}

impl Default for RegionDemand {
    fn default() -> Self {
        RegionDemand::new()
    }
}

/// Demand targets produced by one pool tick, in capacity units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolTargets {
    /// Desired running reserved units.
    pub reserved_units: u64,
    /// Desired organic on-demand units (before the pool clamps to its
    /// cap; the excess becomes `od_unmet`).
    pub od_units: u64,
}

/// Per-pool demand state: reserved and on-demand OU processes plus
/// active surge events.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolDemand {
    od_cap: f64,
    reserved_granted: f64,
    /// Volatility multiplier of the pool's family.
    volatility: f64,
    /// Regional demand pressure multiplier.
    pressure: f64,
    /// Diurnal phase of the pool's region.
    phase: f64,
    od_level: f64,
    reserved_level: f64,
    surges: Vec<Surge>,
    /// Demand spilled in from sibling zones, applied on the next tick.
    pub spill_in: f64,
}

impl PoolDemand {
    /// Creates the demand state for a pool with the given static
    /// parameters, starting at its seasonal mean.
    pub fn new(
        od_cap: u64,
        reserved_granted: u64,
        volatility: f64,
        pressure: f64,
        phase: f64,
        profile: &DemandProfile,
    ) -> Self {
        PoolDemand {
            od_cap: od_cap as f64,
            reserved_granted: reserved_granted as f64,
            volatility,
            pressure,
            phase,
            od_level: profile.od_base_util * pressure * od_cap as f64,
            reserved_level: profile.reserved_util_mean * reserved_granted as f64,
            surges: Vec::new(),
            spill_in: 0.0,
        }
    }

    /// Registers a new surge event.
    pub fn add_surge(&mut self, surge: Surge) {
        self.surges.push(surge);
    }

    /// Total surge demand currently active, as a fraction of the od cap.
    fn surge_level(&self) -> f64 {
        self.surges.iter().map(|s| s.magnitude).sum()
    }

    /// Advances the pool demand one tick and returns the new targets.
    pub fn tick(
        &mut self,
        now: SimTime,
        profile: &DemandProfile,
        region_busy: f64,
        rng: &mut SimRng,
    ) -> PoolTargets {
        self.surges.retain(|s| s.ends_at > now);

        let season = seasonal_factor(
            now,
            self.phase,
            profile.od_diurnal_amplitude,
            profile.od_weekly_amplitude,
        );
        let od_mean = profile.od_base_util * self.pressure * self.od_cap * season * region_busy;
        self.od_level += profile.od_reversion * (od_mean - self.od_level)
            + profile.od_noise * self.od_cap * rng.standard_normal();
        self.od_level = self.od_level.clamp(0.0, 2.5 * self.od_cap);

        let res_season = 1.0
            + profile.reserved_util_amplitude
                * ((now.day_fraction() - self.phase) * std::f64::consts::TAU).sin();
        // Reserved starts couple to the same events that surge on-demand
        // (§2.2: starting an unused reservation shrinks the spot pool).
        let res_mean = (profile.reserved_util_mean * res_season
            + profile.reserved_surge_coupling * self.surge_level().min(1.0))
        .min(1.0)
            * self.reserved_granted;
        self.reserved_level += 0.2 * (res_mean - self.reserved_level)
            + 0.5 * profile.od_noise * self.reserved_granted * rng.standard_normal();
        self.reserved_level = self.reserved_level.clamp(0.0, self.reserved_granted);

        let surge_units = self.surge_level() * self.od_cap;
        let od_target = (self.od_level + surge_units + self.spill_in).max(0.0);
        self.spill_in = 0.0;

        PoolTargets {
            reserved_units: self.reserved_level.round() as u64,
            od_units: od_target.round() as u64,
        }
    }
}

/// Bid-level count of the paper-calibrated grid; the dense clearing
/// kernels carry a constant-trip-count fast path for this width so the
/// compiler can unroll and vectorize them.
pub(crate) const FIXED_LEVELS: usize = 15;

/// Precomputed bid-level constants shared by every market: the
/// normalized level profile and the tilt basis. Building this once per
/// cloud removes a divide-heavy inner loop from the per-market clearing
/// path ([`MarketDemand::level_masses_into`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelGrid {
    /// `level_profile[i] / Σ level_profile`.
    norm_profile: Vec<f64>,
    /// `(i − center) / center` per level, the linear tilt basis.
    tilt_basis: Vec<f64>,
}

impl LevelGrid {
    /// Precomputes the grid for a profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile has fewer than two levels (validated
    /// profiles always have at least three).
    pub fn new(profile: &DemandProfile) -> Self {
        let n = profile.level_profile.len();
        assert!(n >= 2, "need at least two bid levels");
        let sum: f64 = profile.level_profile.iter().sum();
        let center = (n as f64 - 1.0) / 2.0;
        LevelGrid {
            norm_profile: profile.level_profile.iter().map(|&p| p / sum).collect(),
            tilt_basis: (0..n).map(|i| (i as f64 - center) / center).collect(),
        }
    }

    /// Number of bid levels.
    pub fn len(&self) -> usize {
        self.norm_profile.len()
    }

    /// True when the grid has no levels (never, for validated profiles).
    pub fn is_empty(&self) -> bool {
        self.norm_profile.is_empty()
    }
}

/// Per-market spot demand: a parametric bid curve with drifting scale
/// and tilt, plus spot-side surges.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketDemand {
    scale: f64,
    tilt: f64,
    surges: Vec<Surge>,
}

impl MarketDemand {
    /// Creates a market demand state at its neutral level.
    pub fn new() -> Self {
        MarketDemand {
            scale: 1.0,
            tilt: 0.0,
            surges: Vec::new(),
        }
    }

    /// Registers a spot-side surge.
    pub fn add_surge(&mut self, surge: Surge) {
        self.surges.push(surge);
    }

    /// Total active surge mass relative to baseline supply.
    fn surge_level(&self) -> f64 {
        self.surges.iter().map(|s| s.magnitude).sum()
    }

    /// Advances the demand state one tick.
    pub fn tick(&mut self, now: SimTime, profile: &DemandProfile, rng: &mut SimRng) {
        self.surges.retain(|s| s.ends_at > now);
        self.scale += profile.spot_reversion * (1.0 - self.scale)
            + profile.spot_noise * rng.standard_normal();
        self.scale = self.scale.clamp(0.2, 3.0);
        self.tilt += profile.spot_reversion * (0.0 - self.tilt)
            + profile.spot_tilt_noise * rng.standard_normal();
        self.tilt = self.tilt.clamp(-0.9, 0.9);
    }

    /// Writes the current bid-level masses (in instances) into `out`,
    /// over a precomputed [`LevelGrid`] (no per-call normalization
    /// work).
    ///
    /// `base_mass` is the market's baseline total demand in instances;
    /// `surge_weights` distributes surge mass over the high bid levels.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the grid.
    pub fn level_masses_into(
        &self,
        grid: &LevelGrid,
        base_mass: f64,
        surge_weights: &[f64],
        out: &mut [f64],
    ) {
        let n = grid.len();
        assert_eq!(out.len(), n, "output slice length mismatch");
        assert_eq!(surge_weights.len(), n, "surge weight length mismatch");
        let scaled_base = base_mass * self.scale;
        let surge_mass = self.surge_level() * base_mass;
        // Fast path for the paper's fixed 15-level grid: converting the
        // slices to `[f64; 15]` gives the loop a constant trip count, so
        // the compiler fully unrolls and auto-vectorizes the kernel
        // (element-wise only — bit-identical to the generic loop). A lost
        // unroll shows in `sim.tick_t1_us` (traced `benchmark/run.sh`).
        if let (Ok(out), Ok(profile), Ok(tilt), Ok(surge)) = (
            <&mut [f64; FIXED_LEVELS]>::try_from(&mut *out),
            <&[f64; FIXED_LEVELS]>::try_from(grid.norm_profile.as_slice()),
            <&[f64; FIXED_LEVELS]>::try_from(grid.tilt_basis.as_slice()),
            <&[f64; FIXED_LEVELS]>::try_from(surge_weights),
        ) {
            for i in 0..FIXED_LEVELS {
                let tilt_factor = (1.0 + self.tilt * tilt[i]).max(0.05);
                out[i] = profile[i] * scaled_base * tilt_factor + surge_mass * surge[i];
            }
            return;
        }
        for i in 0..n {
            let tilt_factor = (1.0 + self.tilt * grid.tilt_basis[i]).max(0.05);
            out[i] =
                grid.norm_profile[i] * scaled_base * tilt_factor + surge_mass * surge_weights[i];
        }
    }

    /// [`MarketDemand::level_masses_into`] fused with the mass sum the
    /// clearing step needs: writes the bid-level masses into `out` and
    /// returns `Σ out[i]`, accumulated left to right over the
    /// just-written (L1-hot) array — bit-identical to re-summing the
    /// slice, which is exactly what [`crate::market::clear`] would
    /// otherwise do. The tick loop pairs this with
    /// [`crate::market::clear_with_total`] so each market's masses are
    /// produced, summed, and walked in one pass over flat fixed-width
    /// arrays with no rescan.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the grid.
    pub fn level_masses_and_total_into(
        &self,
        grid: &LevelGrid,
        base_mass: f64,
        surge_weights: &[f64],
        out: &mut [f64],
    ) -> f64 {
        self.level_masses_into(grid, base_mass, surge_weights, out);
        // Constant-trip-count sum on the fixed 15-level grid (same
        // left-to-right order as the generic fallback — FP addition
        // order is part of the determinism contract).
        match <&[f64; FIXED_LEVELS]>::try_from(&*out) {
            Ok(m) => m.iter().sum(),
            Err(_) => out.iter().sum(),
        }
    }
}

impl Default for MarketDemand {
    fn default() -> Self {
        MarketDemand::new()
    }
}

/// Computes the surge-mass distribution over bid levels: `cap_share` of
/// the mass sits directly at the bid cap (§2.1.3's "convenience bids"),
/// and the rest lands on levels at or above `from_multiple`, decaying
/// with the level multiple at rate `decay`.
pub fn surge_weights(
    level_multiples: &[f64],
    from_multiple: f64,
    decay: f64,
    cap_share: f64,
) -> Vec<f64> {
    let raw: Vec<f64> = level_multiples
        .iter()
        .map(|&m| {
            if m >= from_multiple {
                (-m / decay).exp()
            } else {
                0.0
            }
        })
        .collect();
    let sum: f64 = raw.iter().sum();
    let n = level_multiples.len();
    if sum <= 0.0 {
        // Degenerate grid: put everything on the top level.
        let mut w = vec![0.0; n];
        if let Some(last) = w.last_mut() {
            *last = 1.0;
        }
        return w;
    }
    let cap_share = cap_share.clamp(0.0, 1.0);
    let mut w: Vec<f64> = raw
        .into_iter()
        .map(|x| x / sum * (1.0 - cap_share))
        .collect();
    w[n - 1] += cap_share;
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn profile() -> DemandProfile {
        DemandProfile::paper_calibration()
    }

    #[test]
    fn seasonal_factor_oscillates_around_one() {
        let mut sum = 0.0;
        let n = 24 * 7;
        for h in 0..n {
            sum += seasonal_factor(SimTime::from_secs(h * 3600), 0.0, 0.1, 0.05);
        }
        assert!((sum / n as f64 - 1.0).abs() < 0.02);
    }

    #[test]
    fn region_demand_stays_bounded() {
        let mut rd = RegionDemand::new();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10_000 {
            rd.tick(&profile(), &mut rng);
            assert!((0.5..=2.0).contains(&rd.busy()));
        }
    }

    #[test]
    fn quiet_pool_demand_is_deterministic_mean() {
        let p = DemandProfile::quiet();
        let mut pd = PoolDemand::new(100, 50, 1.0, 1.0, 0.0, &p);
        let mut rng = SimRng::seed_from(2);
        let t = pd.tick(SimTime::ZERO, &p, 1.0, &mut rng);
        assert_eq!(t.od_units, (p.od_base_util * 100.0).round() as u64);
        assert!(t.reserved_units <= 50);
    }

    #[test]
    fn surges_raise_and_expire() {
        let p = DemandProfile::quiet();
        let mut pd = PoolDemand::new(100, 0, 1.0, 1.0, 0.0, &p);
        let mut rng = SimRng::seed_from(3);
        pd.add_surge(Surge {
            magnitude: 0.5,
            ends_at: SimTime::from_secs(600),
        });
        let during = pd.tick(SimTime::from_secs(300), &p, 1.0, &mut rng);
        let after = pd.tick(SimTime::from_secs(900), &p, 1.0, &mut rng);
        assert!(during.od_units > after.od_units);
        assert!(pd.surges.is_empty());
    }

    #[test]
    fn spill_in_applies_once() {
        let p = DemandProfile::quiet();
        let mut pd = PoolDemand::new(100, 0, 1.0, 1.0, 0.0, &p);
        let mut rng = SimRng::seed_from(4);
        let base = pd.tick(SimTime::ZERO, &p, 1.0, &mut rng).od_units;
        pd.spill_in = 20.0;
        let spiked = pd
            .tick(SimTime::ZERO + SimDuration::minutes(5), &p, 1.0, &mut rng)
            .od_units;
        let back = pd
            .tick(SimTime::ZERO + SimDuration::minutes(10), &p, 1.0, &mut rng)
            .od_units;
        assert_eq!(spiked, base + 20);
        assert_eq!(back, base);
    }

    #[test]
    fn market_masses_conserve_base_mass() {
        let p = profile();
        let md = MarketDemand::new();
        let n = p.level_profile.len();
        let sw = surge_weights(
            &p.level_multiples,
            0.85,
            p.surge_bid_decay,
            p.surge_bid_cap_share,
        );
        let grid = LevelGrid::new(&p);
        let mut out = vec![0.0; n];
        md.level_masses_into(&grid, 50.0, &sw, &mut out);
        let total: f64 = out.iter().sum();
        assert!((total - 50.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn market_surge_adds_high_level_mass() {
        let p = profile();
        let mut md = MarketDemand::new();
        let n = p.level_profile.len();
        let sw = surge_weights(
            &p.level_multiples,
            0.85,
            p.surge_bid_decay,
            p.surge_bid_cap_share,
        );
        let grid = LevelGrid::new(&p);
        let mut base = vec![0.0; n];
        md.level_masses_into(&grid, 50.0, &sw, &mut base);
        md.add_surge(Surge {
            magnitude: 1.0,
            ends_at: SimTime::from_secs(600),
        });
        let mut surged = vec![0.0; n];
        md.level_masses_into(&grid, 50.0, &sw, &mut surged);
        // Mass below 0.85× unchanged; mass above increased.
        for i in 0..n {
            if p.level_multiples[i] < 0.85 {
                assert!((surged[i] - base[i]).abs() < 1e-9);
            }
        }
        let high_base: f64 = base
            .iter()
            .zip(&p.level_multiples)
            .filter(|(_, &m)| m >= 0.85)
            .map(|(x, _)| x)
            .sum();
        let high_surged: f64 = surged
            .iter()
            .zip(&p.level_multiples)
            .filter(|(_, &m)| m >= 0.85)
            .map(|(x, _)| x)
            .sum();
        assert!((high_surged - high_base - 50.0).abs() < 1e-9);
    }

    #[test]
    fn surge_weights_sum_to_one_on_high_levels() {
        let p = profile();
        let w = surge_weights(
            &p.level_multiples,
            0.85,
            p.surge_bid_decay,
            p.surge_bid_cap_share,
        );
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (i, &m) in p.level_multiples.iter().enumerate() {
            if m < 0.85 {
                assert_eq!(w[i], 0.0);
            }
        }
    }

    #[test]
    fn surge_weights_degenerate_grid() {
        let w = surge_weights(&[0.1, 0.2], 0.5, 4.0, 0.3);
        assert_eq!(w, vec![0.0, 1.0]);
    }
}
