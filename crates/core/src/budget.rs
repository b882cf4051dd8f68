//! Probing-cost control (§3.4): windowed budgets and threshold
//! calibration.
//!
//! Every fulfilled probe pays at least one hour of server time, so
//! SpotLight budgets its spending per time window and simply stops
//! probing until the next window when the budget is consumed. Given
//! historical spike counts, [`calibrate_threshold`] picks the lowest
//! trigger threshold `T` (and a sampling probability `p`) whose expected
//! cost fits a budget.

use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};

/// Budget configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetConfig {
    /// Window length over which the budget applies.
    pub window: SimDuration,
    /// Spend limit per window; `None` means unlimited (the paper's
    /// deployment maximized data collection: `T = od price`, `p = 1`).
    pub limit: Option<Price>,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            window: SimDuration::days(1),
            limit: None,
        }
    }
}

/// Windowed budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetManager {
    config: BudgetConfig,
    window_start: SimTime,
    spent_in_window: Price,
}

impl BudgetManager {
    /// Creates a manager starting its first window at `start`.
    pub fn new(config: BudgetConfig, start: SimTime) -> Self {
        BudgetManager {
            config,
            window_start: start,
            spent_in_window: Price::ZERO,
        }
    }

    fn roll(&mut self, now: SimTime) {
        while now.saturating_since(self.window_start) >= self.config.window {
            self.window_start += self.config.window;
            self.spent_in_window = Price::ZERO;
        }
    }

    /// Whether the current window still has room for `estimated_cost`.
    pub fn allows(&mut self, now: SimTime, estimated_cost: Price) -> bool {
        self.roll(now);
        match self.config.limit {
            None => true,
            Some(limit) => self.spent_in_window + estimated_cost <= limit,
        }
    }

    /// Charges an actual probe cost.
    pub fn charge(&mut self, now: SimTime, cost: Price) {
        self.roll(now);
        self.spent_in_window += cost;
    }

    /// Whether the current window's budget is used up.
    pub fn exhausted(&self) -> bool {
        match self.config.limit {
            None => false,
            Some(limit) => self.spent_in_window >= limit,
        }
    }
}

/// Historical spike statistics for one candidate threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeRate {
    /// The candidate threshold (spot/od multiple).
    pub threshold: f64,
    /// Observed spikes at or above the threshold per window.
    pub spikes_per_window: f64,
}

/// A calibrated probing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The chosen trigger threshold `T`.
    pub threshold: f64,
    /// The chosen sampling probability `p`.
    pub sampling: f64,
    /// Expected probes per window under the calibration.
    pub expected_probes_per_window: f64,
}

/// Picks the lowest threshold `T` whose expected probing cost fits
/// `budget_per_window`, given historical spike rates (descending
/// thresholds are fine; the function sorts internally). If even the
/// highest threshold is too expensive, it keeps that threshold and
/// lowers the sampling probability `p` instead (§3.4: "By lowering p, we
/// can also lower T and sample some fraction of less-volatile events").
///
/// `cost_per_probe` should include the expected related-market fan-out
/// overhead (the paper treats fan-out as overhead deducted from the
/// triggering market's budget).
///
/// Returns `None` when `rates` is empty or the budget is zero.
pub fn calibrate_threshold(
    rates: &[SpikeRate],
    cost_per_probe: Price,
    budget_per_window: Price,
) -> Option<Calibration> {
    if rates.is_empty() || cost_per_probe.is_zero() || budget_per_window.is_zero() {
        return None;
    }
    let affordable = budget_per_window.as_dollars() / cost_per_probe.as_dollars();
    let mut sorted: Vec<SpikeRate> = rates.to_vec();
    sorted.sort_by(|a, b| a.threshold.partial_cmp(&b.threshold).expect("no NaN"));

    // Lowest threshold whose full sampling fits.
    for r in &sorted {
        if r.spikes_per_window <= affordable {
            return Some(Calibration {
                threshold: r.threshold,
                sampling: 1.0,
                expected_probes_per_window: r.spikes_per_window,
            });
        }
    }
    // Nothing fits: keep the highest threshold, sample a fraction.
    let last = sorted.last().expect("non-empty");
    let sampling = (affordable / last.spikes_per_window).clamp(0.0, 1.0);
    Some(Calibration {
        threshold: last.threshold,
        sampling,
        expected_probes_per_window: last.spikes_per_window * sampling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(limit_dollars: f64) -> BudgetConfig {
        BudgetConfig {
            window: SimDuration::hours(1),
            limit: Some(Price::from_dollars(limit_dollars)),
        }
    }

    #[test]
    fn unlimited_budget_always_allows() {
        let mut b = BudgetManager::new(BudgetConfig::default(), SimTime::ZERO);
        assert!(b.allows(SimTime::ZERO, Price::from_dollars(1e6)));
        b.charge(SimTime::ZERO, Price::from_dollars(1e6));
        assert!(!b.exhausted());
    }

    #[test]
    fn budget_blocks_and_resets_per_window() {
        let mut b = BudgetManager::new(cfg(1.0), SimTime::ZERO);
        assert!(b.allows(SimTime::from_secs(10), Price::from_dollars(0.6)));
        b.charge(SimTime::from_secs(10), Price::from_dollars(0.6));
        assert!(!b.allows(SimTime::from_secs(20), Price::from_dollars(0.6)));
        assert!(b.allows(SimTime::from_secs(20), Price::from_dollars(0.4)));
        b.charge(SimTime::from_secs(20), Price::from_dollars(0.4));
        assert!(b.exhausted());
        // Next window: fresh budget.
        assert!(b.allows(SimTime::from_secs(3700), Price::from_dollars(0.6)));
    }

    #[test]
    fn roll_skips_multiple_windows() {
        let mut b = BudgetManager::new(cfg(1.0), SimTime::ZERO);
        b.charge(SimTime::from_secs(10), Price::from_dollars(1.0));
        assert!(b.allows(SimTime::from_secs(10 * 3600), Price::from_dollars(1.0)));
        assert_eq!(b.spent_in_window, Price::ZERO);
    }

    #[test]
    fn calibration_picks_lowest_affordable_threshold() {
        let rates = [
            SpikeRate {
                threshold: 1.0,
                spikes_per_window: 100.0,
            },
            SpikeRate {
                threshold: 2.0,
                spikes_per_window: 20.0,
            },
            SpikeRate {
                threshold: 5.0,
                spikes_per_window: 2.0,
            },
        ];
        let c = calibrate_threshold(&rates, Price::from_dollars(0.5), Price::from_dollars(15.0))
            .unwrap();
        // Afford 30 probes: threshold 2.0 (20 spikes) fits, 1.0 doesn't.
        assert_eq!(c.threshold, 2.0);
        assert_eq!(c.sampling, 1.0);
    }

    #[test]
    fn calibration_falls_back_to_sampling() {
        let rates = [SpikeRate {
            threshold: 7.0,
            spikes_per_window: 100.0,
        }];
        let c = calibrate_threshold(&rates, Price::from_dollars(1.0), Price::from_dollars(10.0))
            .unwrap();
        assert_eq!(c.threshold, 7.0);
        assert!((c.sampling - 0.1).abs() < 1e-9);
        assert!((c.expected_probes_per_window - 10.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_degenerate_inputs() {
        assert!(
            calibrate_threshold(&[], Price::from_dollars(1.0), Price::from_dollars(1.0)).is_none()
        );
        let rates = [SpikeRate {
            threshold: 1.0,
            spikes_per_window: 1.0,
        }];
        assert!(calibrate_threshold(&rates, Price::ZERO, Price::from_dollars(1.0)).is_none());
        assert!(calibrate_threshold(&rates, Price::from_dollars(1.0), Price::ZERO).is_none());
    }
}
