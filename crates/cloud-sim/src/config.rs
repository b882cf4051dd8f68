//! Simulation configuration: service limits and the demand-model
//! calibration constants.
//!
//! The demand model is deliberately explicit about its constants —
//! [`DemandProfile::paper_calibration`] is the preset that reproduces the
//! qualitative shapes of the paper's Chapter 5.

use crate::chaos::ChaosConfig;
use crate::ids::{Family, Platform, Region, Size};
use crate::time::SimDuration;

/// Per-region service limits, mirroring the limits SpotLight's prototype
/// had to manage (Chapter 4): at most 20 running on-demand instances and
/// 20 open spot requests per region, plus an API rate limit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceLimits {
    /// Maximum concurrently running externally launched on-demand
    /// instances per region.
    pub max_od_instances_per_region: u32,
    /// Maximum concurrently open spot requests per region.
    pub max_spot_requests_per_region: u32,
    /// API calls allowed per minute per region (token bucket).
    pub api_calls_per_minute_per_region: u32,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            max_od_instances_per_region: 20,
            max_spot_requests_per_region: 20,
            api_calls_per_minute_per_region: 240,
        }
    }
}

/// All calibration constants of the generative demand model.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandProfile {
    // ---- pool sizing -------------------------------------------------
    /// Physical pool units = `pool_scale × Σ member-market units`,
    /// scaled by the family scale.
    pub pool_scale: f64,
    /// Per-region demand pressure, indexed by [`Region::index`]: a
    /// multiplier on mean on-demand utilization, surge rates, and surge
    /// magnitudes. Well-provisioned regions (us-east-1) sit below 1;
    /// under-provisioned ones (sa-east-1, ap-southeast-1/2) above.
    pub region_pressure: [f64; 9],
    /// Exponent applied to regional pressure when scaling surge *rates*.
    pub surge_rate_pressure_exp: f64,
    /// Exponent applied to regional pressure when scaling surge
    /// *magnitudes*.
    pub surge_magnitude_pressure_exp: f64,
    /// Fraction of each pool promised to reserved instances.
    pub reserved_fraction: f64,
    /// Mean fraction of the reserved grant that is running.
    pub reserved_util_mean: f64,
    /// Diurnal amplitude of reserved running utilization.
    pub reserved_util_amplitude: f64,
    /// How strongly reserved *starts* couple to demand surges: users
    /// light up idle reservations during the same events that surge
    /// on-demand, shrinking spot supply toward its §2.2 lower bound
    /// (granted-but-not-running reservations) and pinning the price at
    /// the 10× cap.
    pub reserved_surge_coupling: f64,

    // ---- on-demand demand -------------------------------------------
    /// Mean organic on-demand utilization as a fraction of the §2.2 cap.
    pub od_base_util: f64,
    /// Diurnal amplitude of on-demand demand.
    pub od_diurnal_amplitude: f64,
    /// Weekly amplitude of on-demand demand.
    pub od_weekly_amplitude: f64,
    /// Mean-reversion rate of the on-demand OU process per tick.
    pub od_reversion: f64,
    /// Noise of the on-demand OU process (fraction of cap, per tick).
    pub od_noise: f64,
    /// Region-shared "busy factor" OU noise per tick.
    pub region_busy_noise: f64,
    /// Region-shared busy-factor mean-reversion per tick.
    pub region_busy_reversion: f64,

    // ---- on-demand surge events --------------------------------------
    /// Poisson rate (events/day) of zone-local demand surges per pool,
    /// before family-volatility scaling. These are heavy-tailed and
    /// *uncorrelated* across zones.
    pub pool_surge_rate_per_day: f64,
    /// Poisson rate (events/day) of region-wide family surges per region.
    /// These are moderate and *correlated* across zones (§3.2.2).
    pub region_surge_rate_per_day: f64,
    /// Pareto scale of zone-local surge magnitude (fraction of od cap).
    pub surge_magnitude_scale: f64,
    /// Pareto shape of zone-local surge magnitude.
    pub surge_magnitude_alpha: f64,
    /// Cap on a single surge's magnitude (fraction of od cap).
    pub surge_magnitude_cap: f64,
    /// Magnitude multiplier for region-wide surges (they are broader but
    /// shallower than local ones).
    pub region_surge_attenuation: f64,
    /// Median surge duration in seconds (lognormal).
    pub surge_duration_median_secs: f64,
    /// Lognormal sigma of surge durations.
    pub surge_duration_sigma: f64,
    /// Fraction of unserved on-demand demand that spills to the same
    /// family in the region's other zones on the next tick (§5.2.3).
    pub spill_fraction: f64,

    // ---- spot demand -------------------------------------------------
    /// Bid levels as multiples of the on-demand price, ascending. The
    /// lowest level doubles as the market's reserve floor.
    pub level_multiples: Vec<f64>,
    /// Relative demand mass at each level (same length as
    /// `level_multiples`); most mass sits at low multiples with a bump of
    /// "convenience" bids at 1×.
    pub level_profile: Vec<f64>,
    /// Total base spot demand as a multiple of a market's baseline
    /// supply; >1 keeps the floor busy.
    pub spot_demand_intensity: f64,
    /// Fraction of a pool's spot supply the operator keeps free of
    /// background demand so new spot requests bidding the current price
    /// normally fulfil (capacity-oversubscribed stays rare, §3.3).
    pub spot_headroom_frac: f64,
    /// Mean-reversion of the per-market demand-scale OU per tick.
    pub spot_reversion: f64,
    /// Noise of the per-market demand-scale OU per tick.
    pub spot_noise: f64,
    /// Noise of the per-market demand-tilt OU per tick (shifts mass
    /// between low and high bid levels).
    pub spot_tilt_noise: f64,
    /// Poisson rate (events/day) of spot-side demand surges per market,
    /// before family-volatility scaling. These spike the price *without*
    /// an on-demand shortage.
    pub spot_surge_rate_per_day: f64,
    /// Pareto scale of spot-surge mass (relative to baseline supply).
    pub spot_surge_scale: f64,
    /// Pareto shape of spot-surge mass.
    pub spot_surge_alpha: f64,
    /// Cap on spot-surge mass (relative to baseline supply).
    pub spot_surge_cap: f64,
    /// Exponential decay (in price multiples) of surge bid mass across
    /// the high bid levels: larger values put more panic bids at high
    /// multiples, enabling demand-driven spikes to the cap.
    pub surge_bid_decay: f64,
    /// Fraction of surge bid mass placed directly at the 10× cap — the
    /// "convenience bids" of §2.1.3 that users park at the maximum to
    /// avoid revocation.
    pub surge_bid_cap_share: f64,
    /// Structurally tight pools observed during the study period (the
    /// markets the paper's case studies pick), as
    /// `(region, zone index, family, pressure multiplier)`.
    pub hot_pools: Vec<(Region, u8, Family, f64)>,

    // ---- capacity parking (spot capacity-not-available, §5.3) --------
    /// Price ratio (spot/od) above which the operator never parks idle
    /// capacity.
    pub park_ratio_hi: f64,
    /// Rate (per pool per day, at a price ratio of zero) of entering the
    /// parked state; scales linearly down to zero at `park_ratio_hi`.
    pub park_enter_rate_per_day: f64,
    /// Median parked-state duration in seconds (lognormal).
    pub park_duration_median_secs: f64,
    /// Lognormal sigma of parked-state durations.
    pub park_duration_sigma: f64,
    /// Per-region parking aggressiveness, indexed by [`Region::index`].
    pub park_region_aggressiveness: [f64; 9],
}

impl DemandProfile {
    /// The calibration that reproduces the paper's Chapter 5 shapes.
    pub fn paper_calibration() -> Self {
        DemandProfile {
            pool_scale: 12.0,
            //               use1  usw1  usw2  euw1  euc1  apn1  aps1  aps2  sae1
            region_pressure: [0.75, 0.90, 0.85, 0.87, 0.92, 0.89, 1.08, 1.10, 1.22],
            surge_rate_pressure_exp: 2.0,
            surge_magnitude_pressure_exp: 2.0,
            reserved_fraction: 0.35,
            reserved_util_mean: 0.70,
            reserved_util_amplitude: 0.08,
            reserved_surge_coupling: 0.48,

            od_base_util: 0.55,
            od_diurnal_amplitude: 0.10,
            od_weekly_amplitude: 0.05,
            od_reversion: 0.25,
            od_noise: 0.020,
            region_busy_noise: 0.035,
            region_busy_reversion: 0.10,

            pool_surge_rate_per_day: 0.04,
            region_surge_rate_per_day: 0.50,
            surge_magnitude_scale: 0.17,
            surge_magnitude_alpha: 1.35,
            surge_magnitude_cap: 2.2,
            region_surge_attenuation: 0.30,
            surge_duration_median_secs: 600.0,
            surge_duration_sigma: 3.0,
            spill_fraction: 0.08,

            level_multiples: vec![
                0.08, 0.12, 0.18, 0.25, 0.35, 0.50, 0.70, 0.85, 1.00, 1.30, 1.80, 2.50, 4.00, 6.00,
                10.0,
            ],
            level_profile: vec![
                2.4, 2.6, 2.4, 2.0, 1.5, 1.1, 0.7, 0.45, 1.30, 0.18, 0.10, 0.06, 0.04, 0.025, 0.015,
            ],
            spot_demand_intensity: 1.18,
            spot_headroom_frac: 0.06,
            spot_reversion: 0.18,
            spot_noise: 0.030,
            spot_tilt_noise: 0.020,
            spot_surge_rate_per_day: 2.2,
            spot_surge_scale: 0.55,
            spot_surge_alpha: 1.45,
            spot_surge_cap: 15.0,
            surge_bid_decay: 12.0,
            surge_bid_cap_share: 0.30,
            hot_pools: vec![
                (Region::UsEast1, 4, Family::D2, 1.90),
                (Region::ApSoutheast2, 0, Family::G2, 1.35),
                (Region::ApSoutheast2, 1, Family::G2, 1.30),
            ],

            park_ratio_hi: 0.30,
            park_enter_rate_per_day: 1.2,
            park_duration_median_secs: 5400.0,
            park_duration_sigma: 1.0,
            //                       use1  usw1 usw2 euw1 euc1 apn1 aps1 aps2 sae1
            park_region_aggressiveness: [1.0, 0.45, 0.5, 0.5, 0.4, 0.5, 0.55, 0.55, 0.85],
        }
    }

    /// A quiet profile with no surges and no noise — capacity is always
    /// available. Useful as a unit-test baseline.
    pub fn quiet() -> Self {
        DemandProfile {
            od_base_util: 0.4,
            od_noise: 0.0,
            region_busy_noise: 0.0,
            reserved_util_amplitude: 0.0,
            od_diurnal_amplitude: 0.0,
            od_weekly_amplitude: 0.0,
            pool_surge_rate_per_day: 0.0,
            region_surge_rate_per_day: 0.0,
            spot_surge_rate_per_day: 0.0,
            spot_noise: 0.0,
            spot_tilt_noise: 0.0,
            park_enter_rate_per_day: 0.0,
            park_region_aggressiveness: [0.0; 9],
            hot_pools: Vec::new(),
            ..DemandProfile::paper_calibration()
        }
    }

    /// The volatility multiplier of a family: specialized hardware (d2,
    /// g2, i2, cluster types) has small, spiky pools; commodity families
    /// are calm. This is why the paper's case studies (Fig 6.1/6.2) pick
    /// d2 and g2 markets.
    pub fn family_volatility(&self, family: Family) -> f64 {
        match family {
            Family::D2 => 3.2,
            Family::G2 => 3.8,
            Family::I2 => 2.2,
            Family::Cc2 | Family::Cr1 | Family::Cg1 => 2.5,
            Family::Hs1 | Family::Hi1 => 2.0,
            Family::C3 => 1.7,
            Family::R3 => 1.4,
            Family::M3 => 1.1,
            Family::M1 | Family::M2 | Family::C1 | Family::T1 => 1.2,
            Family::M4 | Family::C4 | Family::T2 => 0.8,
        }
    }

    /// The demand-pressure multiplier of one pool: regional pressure ×
    /// family pressure × any hot-pool override.
    pub fn pool_pressure(&self, pool: crate::ids::PoolId) -> f64 {
        let region = pool.az.region();
        let base = self.region_pressure[region.index()] * self.family_od_pressure(pool.family);
        let hot = self
            .hot_pools
            .iter()
            .find(|&&(r, z, f, _)| r == region && z == pool.az.zone_index() && f == pool.family)
            .map(|&(_, _, _, mult)| mult);
        base * hot.unwrap_or(1.0)
    }

    /// Chronic on-demand pressure multiplier of a family: the
    /// specialized-hardware pools (d2, g2) the paper's case studies pick
    /// are structurally tight, so their revocations coincide with
    /// on-demand shortages far more often than commodity families'.
    pub fn family_od_pressure(&self, family: Family) -> f64 {
        match family {
            Family::D2 => 1.18,
            Family::G2 => 1.28,
            Family::I2 => 1.05,
            Family::Hs1 | Family::Hi1 | Family::Cc2 | Family::Cr1 | Family::Cg1 => 1.08,
            _ => 1.0,
        }
    }

    /// The pool-size multiplier of a family (specialized pools are
    /// smaller relative to their member demand).
    pub fn family_pool_scale(&self, family: Family) -> f64 {
        match family {
            Family::D2 | Family::G2 => 0.55,
            Family::I2 | Family::Hs1 | Family::Hi1 => 0.7,
            Family::Cc2 | Family::Cr1 | Family::Cg1 => 0.6,
            Family::C3 => 0.85,
            _ => 1.0,
        }
    }

    /// Relative popularity of a platform; used to split a pool's spot
    /// supply among member markets.
    pub fn platform_weight(&self, platform: Platform) -> f64 {
        match platform {
            Platform::LinuxUnix => 0.45,
            Platform::LinuxUnixVpc => 0.30,
            Platform::Windows => 0.15,
            Platform::SuseLinux => 0.10,
        }
    }

    /// Relative popularity of a size; smaller instances are requested
    /// more often.
    pub fn size_weight(&self, size: Size) -> f64 {
        match size {
            Size::Micro | Size::Small | Size::Medium => 1.0,
            Size::Large => 1.0,
            Size::Xlarge => 0.9,
            Size::X2 => 0.8,
            Size::X4 => 0.5,
            Size::X8 => 0.35,
            Size::X10 => 0.30,
        }
    }

    /// The diurnal phase shift of a region (fraction of a day), modelling
    /// its dominant customer time zone.
    pub fn region_phase(&self, region: Region) -> f64 {
        match region {
            Region::UsEast1 => 0.0,
            Region::UsWest1 | Region::UsWest2 => 0.125,
            Region::EuWest1 => -0.21,
            Region::EuCentral1 => -0.25,
            Region::ApNortheast1 => 0.42,
            Region::ApSoutheast1 => 0.46,
            Region::ApSoutheast2 => 0.54,
            Region::SaEast1 => 0.04,
        }
    }

    /// Validates internal consistency (level arrays aligned, monotone
    /// multiples, probabilities in range).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.level_multiples.len() != self.level_profile.len() {
            return Err(format!(
                "level_multiples ({}) and level_profile ({}) lengths differ",
                self.level_multiples.len(),
                self.level_profile.len()
            ));
        }
        if self.level_multiples.len() < 3 {
            return Err("need at least 3 bid levels".into());
        }
        if !self
            .level_multiples
            .windows(2)
            .all(|w| w[0] < w[1] && w[0] > 0.0)
        {
            return Err("level_multiples must be positive and strictly increasing".into());
        }
        if self.level_profile.iter().any(|&m| m < 0.0) {
            return Err("level_profile masses must be non-negative".into());
        }
        for (name, v) in [
            ("reserved_fraction", self.reserved_fraction),
            ("reserved_util_mean", self.reserved_util_mean),
            ("od_base_util", self.od_base_util),
            ("spill_fraction", self.spill_fraction),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        if self.pool_scale <= 0.0 || self.spot_demand_intensity <= 0.0 {
            return Err("pool_scale and spot_demand_intensity must be positive".into());
        }
        Ok(())
    }
}

impl Default for DemandProfile {
    fn default() -> Self {
        DemandProfile::paper_calibration()
    }
}

/// Below this many catalog markets, `threads = 0` (auto) resolves to
/// `1` and the tick runs inline. Explicit `threads` values are always
/// honoured.
///
/// Derivation (PR 10, re-derived for the persistent worker pool):
/// submitting four worker-group tasks to the parked pool and joining
/// the barrier measured ≈ 1.4 µs on the 1-CPU reference host (vs
/// ≈ 98 µs for the `thread::scope` spawn/join it replaced, a ~70×
/// drop), while one market's share of the tick is ≈ 93 ns (a
/// standard-catalog tick ≈ 480 µs over 5184 markets). The traced pass
/// of `benchmark/run.sh` reports both terms today, as
/// `pool.dispatch_us` and `sim.tick_t1_us`. A `W`-worker fan-out saves at most `T·(W−1)/W` of a
/// `T`-long tick, so parallelism breaks even around `T ≈ 2·dispatch ≈
/// 2.8 µs ≈ 30 markets; 128 keeps a ~4× margin for the boxed task and
/// worker-group vector each parallel tick allocates.
pub(crate) const PARALLEL_AUTO_MIN_MARKETS: usize = 128;

/// Top-level simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Seed for every stochastic process in the run.
    pub seed: u64,
    /// Demand-tick interval; prices and pool occupancy update at this
    /// granularity (EC2 spot prices move on a minutes scale).
    pub tick: SimDuration,
    /// Published spot prices lag the true clearing price by a uniform
    /// draw from this range, in seconds (the 20–40 s propagation delay of
    /// §5.1.2).
    pub price_lag_secs: (u64, u64),
    /// Warning EC2 gives before reclaiming a spot instance.
    pub revocation_warning: SimDuration,
    /// Demand-model calibration.
    pub demand: DemandProfile,
    /// Per-region service limits.
    pub limits: ServiceLimits,
    /// Record the full price history of every market (memory-heavy);
    /// when `false` only watched markets are recorded.
    pub record_all_prices: bool,
    /// Worker threads for the region-sharded tick: `0` (auto) resolves
    /// at construction to the machine's available parallelism — or to
    /// `1` for catalogs under `PARALLEL_AUTO_MIN_MARKETS` markets,
    /// where even the persistent pool's dispatch would cost more than
    /// the tick itself; `1` runs the shards inline on the calling
    /// thread (no cross-thread dispatch); higher values are always
    /// honoured and fan region shards out across that many workers of
    /// the shared persistent pool (`spotlight_pool`). The thread count
    /// affects wall-clock time only — results are bit-identical at any
    /// setting (see the determinism contract in [`crate::cloud`]).
    pub threads: usize,
    /// Deterministic fault injection (see [`crate::chaos`]). Defaults to
    /// everything off; stochastic faults draw from dedicated per-region
    /// chaos streams so enabling them does not perturb the demand
    /// trajectory of a seed.
    pub chaos: ChaosConfig,
}

impl SimConfig {
    /// The paper-calibrated configuration with the given seed.
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick.is_zero() {
            return Err("tick must be positive".into());
        }
        if self.price_lag_secs.0 > self.price_lag_secs.1 {
            return Err("price lag range is inverted".into());
        }
        if self.price_lag_secs.1 >= self.tick.as_secs() {
            return Err("price lag must be shorter than a tick".into());
        }
        self.chaos.validate()?;
        self.demand.validate()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x0005_4971,
            tick: SimDuration::from_secs(300),
            price_lag_secs: (20, 40),
            revocation_warning: SimDuration::from_secs(120),
            demand: DemandProfile::paper_calibration(),
            limits: ServiceLimits::default(),
            record_all_prices: false,
            threads: 0,
            chaos: ChaosConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_is_valid() {
        DemandProfile::paper_calibration().validate().unwrap();
        SimConfig::default().validate().unwrap();
        SimConfig::paper(7).validate().unwrap();
    }

    #[test]
    fn quiet_profile_is_valid_and_quiet() {
        let q = DemandProfile::quiet();
        q.validate().unwrap();
        assert_eq!(q.pool_surge_rate_per_day, 0.0);
        assert_eq!(q.od_noise, 0.0);
    }

    #[test]
    fn validation_catches_bad_levels() {
        let mut p = DemandProfile::paper_calibration();
        p.level_profile.pop();
        assert!(p.validate().is_err());

        let mut p = DemandProfile::paper_calibration();
        p.level_multiples[0] = 0.5; // no longer increasing
        assert!(p.validate().is_err());

        let mut p = DemandProfile::paper_calibration();
        p.od_base_util = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_catches_bad_lag() {
        let mut c = SimConfig::default();
        c.price_lag_secs = (50, 40);
        assert!(c.validate().is_err());
        let mut c = SimConfig::default();
        c.price_lag_secs = (20, 400);
        assert!(c.validate().is_err());
    }

    #[test]
    fn under_provisioned_regions_have_higher_pressure() {
        let p = DemandProfile::paper_calibration();
        use crate::ids::Region::*;
        assert!(p.region_pressure[SaEast1.index()] > p.region_pressure[UsEast1.index()]);
        assert!(p.region_pressure[ApSoutheast1.index()] > p.region_pressure[UsEast1.index()]);
        assert!(p.region_pressure[ApSoutheast2.index()] > p.region_pressure[UsEast1.index()]);
    }

    #[test]
    fn volatile_families_are_volatile() {
        let p = DemandProfile::paper_calibration();
        assert!(p.family_volatility(Family::G2) > p.family_volatility(Family::M4));
        assert!(p.family_pool_scale(Family::D2) < p.family_pool_scale(Family::M3));
    }
}
