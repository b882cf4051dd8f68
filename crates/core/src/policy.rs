//! Policy configuration: when and where SpotLight probes.
//!
//! The market-based probing policy of §3.1–§3.4: trigger a probe when a
//! spot price spikes above `T × od`, sample triggers with probability
//! `p`, re-probe unavailable markets every `δ` until they recover, fan
//! out to related markets (same family, other zones) after a detection,
//! and verify the other contract type. Costs are bounded by a windowed
//! budget (see [`crate::budget`]).

use crate::budget::BudgetConfig;
use cloud_sim::ids::MarketId;
use cloud_sim::time::SimDuration;

/// The market-based probing policy parameters. Both hosts of the policy
/// apply every field: the engine's [`crate::spotlight::SpotLight`] and the
/// live [`crate::manager::LiveDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// Trigger threshold `T`: probe when spot/od ≥ this multiple. The
    /// paper's deployment used `T = 1` (the on-demand price).
    pub spike_threshold: f64,
    /// Sampling probability `p` applied to each trigger (§3.4).
    pub sampling_probability: f64,
    /// Probability of probing a price change *below* the threshold —
    /// the §3.4 trick of lowering `p` to sample less-volatile events,
    /// used to populate the low spike buckets of Figure 5.4 cheaply.
    pub subthreshold_sampling: f64,
    /// Re-probe interval `δ` for unavailable markets (§3.2).
    pub reprobe_interval: SimDuration,
    /// Probe other types in the same family and zone after a detection
    /// (§3.2.1).
    pub family_fanout: bool,
    /// Probe the same type in the region's other zones after a detection
    /// (§3.2.2).
    pub cross_az_fanout: bool,
    /// Issue a spot probe when on-demand is rejected and an on-demand
    /// probe when spot capacity is unavailable (Chapter 4 / §5.4).
    pub cross_verify: bool,
    /// Minimum time between spike-triggered probes of one market; keeps
    /// repeated spikes from burning the budget on known state.
    pub market_cooldown: SimDuration,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            spike_threshold: 1.0,
            sampling_probability: 1.0,
            subthreshold_sampling: 0.0,
            reprobe_interval: SimDuration::from_secs(300),
            family_fanout: true,
            cross_az_fanout: true,
            cross_verify: true,
            market_cooldown: SimDuration::from_secs(1800),
        }
    }
}

impl PolicyConfig {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.sampling_probability) {
            return Err(format!(
                "sampling_probability must be in [0,1], got {}",
                self.sampling_probability
            ));
        }
        if !(0.0..=1.0).contains(&self.subthreshold_sampling) {
            return Err(format!(
                "subthreshold_sampling must be in [0,1], got {}",
                self.subthreshold_sampling
            ));
        }
        if self.spike_threshold < 0.0 || !self.spike_threshold.is_finite() {
            return Err(format!(
                "spike_threshold must be non-negative, got {}",
                self.spike_threshold
            ));
        }
        if self.reprobe_interval.is_zero() {
            return Err("reprobe_interval must be positive".into());
        }
        Ok(())
    }
}

/// Periodic spot capacity checking (`CheckCapacity`, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpotCheckConfig {
    /// Wake interval between batches.
    pub interval: SimDuration,
    /// Markets probed per batch (round-robin over the catalog).
    pub batch_size: usize,
}

impl Default for SpotCheckConfig {
    fn default() -> Self {
        SpotCheckConfig {
            interval: SimDuration::from_secs(600),
            batch_size: 64,
        }
    }
}

/// Full SpotLight deployment configuration. Beside the policy, its budget,
/// spot checks, bid searches and revocation watches are engine-hosted: a
/// live run carries a [`PolicyConfig`] only.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotLightConfig {
    /// The probing policy.
    pub policy: PolicyConfig,
    /// The cost budget.
    pub budget: BudgetConfig,
    /// Periodic spot probing; `None` disables it.
    pub spot_check: Option<SpotCheckConfig>,
    /// Markets to run the intrinsic-bid (`BidSpread`) search on.
    pub bidspread_markets: Vec<MarketId>,
    /// Interval between `BidSpread` runs per market.
    pub bidspread_interval: SimDuration,
    /// Markets to hold spot instances in during spikes (`Revocation`).
    pub revocation_watch: Vec<MarketId>,
    /// Maximum hold before voluntarily releasing a revocation watch.
    pub revocation_hold_max: SimDuration,
    /// Seed for the policy's own sampling randomness.
    pub seed: u64,
}

impl Default for SpotLightConfig {
    fn default() -> Self {
        SpotLightConfig {
            policy: PolicyConfig::default(),
            budget: BudgetConfig::default(),
            spot_check: Some(SpotCheckConfig::default()),
            bidspread_markets: Vec::new(),
            bidspread_interval: SimDuration::hours(4),
            revocation_watch: Vec::new(),
            revocation_hold_max: SimDuration::hours(6),
            seed: 0x5f07,
        }
    }
}

impl SpotLightConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.policy.validate()?;
        if let Some(sc) = &self.spot_check {
            if sc.batch_size == 0 {
                return Err("spot_check.batch_size must be positive".into());
            }
            if sc.interval.is_zero() {
                return Err("spot_check.interval must be positive".into());
            }
        }
        if !self.bidspread_markets.is_empty() && self.bidspread_interval.is_zero() {
            return Err("bidspread_interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_deployment() {
        let p = PolicyConfig::default();
        assert_eq!(p.spike_threshold, 1.0, "paper: T = on-demand price");
        assert_eq!(p.sampling_probability, 1.0, "paper: sample every event");
        assert!(p.family_fanout && p.cross_az_fanout && p.cross_verify);
        p.validate().unwrap();
        SpotLightConfig::default().validate().unwrap();
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_bad_values() {
        let mut p = PolicyConfig::default();
        p.sampling_probability = 1.5;
        assert!(p.validate().is_err());

        let mut p = PolicyConfig::default();
        p.spike_threshold = f64::NAN;
        assert!(p.validate().is_err());

        let mut p = PolicyConfig::default();
        p.reprobe_interval = SimDuration::ZERO;
        assert!(p.validate().is_err());

        let mut c = SpotLightConfig::default();
        c.spot_check = Some(SpotCheckConfig {
            interval: SimDuration::ZERO,
            batch_size: 1,
        });
        assert!(c.validate().is_err());

        let mut c = SpotLightConfig::default();
        c.spot_check = Some(SpotCheckConfig {
            interval: SimDuration::from_secs(60),
            batch_size: 0,
        });
        assert!(c.validate().is_err());
    }
}
