//! SpotCheck (§6.1): a derivative IaaS cloud that runs nested VMs on
//! spot servers and live-migrates them to on-demand servers on
//! revocation.
//!
//! SpotCheck's availability hinges on an assumption the paper disproves:
//! that on-demand servers are always obtainable as a fallback. Spot
//! servers are revoked exactly when the spot price spikes above the
//! on-demand price — which is when the same market's on-demand servers
//! are *least* likely to be available. Replaying a market's measured
//! price trace against its measured on-demand unavailability timeline
//! quantifies the damage (the paper's Figure 6.1: 72–92% instead of four
//! nines) and shows SpotLight's fix: fall back to an *uncorrelated*
//! market instead.

use crate::series::{AvailabilityTimeline, PriceSeries};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};

/// SpotCheck configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotCheckConfig {
    /// Bid as a multiple of the on-demand price (SpotCheck bids the
    /// on-demand price: revocation == price exceeding it).
    pub bid_ratio: f64,
    /// Pause to copy the final memory state during a migration — the
    /// only downtime SpotCheck expects (bounded-time migration).
    pub migration_pause: SimDuration,
    /// How often a VM waiting for capacity re-checks availability.
    pub retry_interval: SimDuration,
}

impl Default for SpotCheckConfig {
    fn default() -> Self {
        SpotCheckConfig {
            bid_ratio: 1.0,
            migration_pause: SimDuration::from_secs(2),
            retry_interval: SimDuration::from_secs(300),
        }
    }
}

/// How SpotCheck chooses its on-demand fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// The paper's baseline: fall back to the on-demand servers of the
    /// *same* market (whose availability is correlated with the
    /// revocation).
    SameMarket,
    /// SpotLight-informed: fall back to an uncorrelated market that the
    /// information service reports as available (its measured
    /// unavailability enters through the second timeline).
    SpotLightInformed,
}

/// Result of replaying a SpotCheck VM over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotCheckReport {
    /// Fraction of time the VM was up.
    pub availability: f64,
    /// Spot revocations experienced.
    pub revocations: u64,
    /// Migrations that found the fallback immediately available.
    pub clean_migrations: u64,
    /// Migrations stalled by on-demand unavailability.
    pub stalled_migrations: u64,
    /// Total downtime.
    pub downtime: SimDuration,
    /// Span replayed.
    pub span: SimDuration,
}

/// Replays one SpotCheck VM over `[start, end)`.
///
/// * `prices` — the market's published spot price trace;
/// * `od_price` — the market's on-demand price (the bid reference);
/// * `fallback_od` — the measured on-demand unavailability timeline of
///   the *fallback* market (same market for the baseline, an
///   uncorrelated one for the SpotLight policy);
/// * `config` — timing parameters.
///
/// The VM runs on spot while the spot price is at or below the bid.
/// When the price rises above the bid the instance is revoked; SpotCheck
/// migrates to the fallback's on-demand servers, pausing for
/// `migration_pause` when capacity is there and stalling (full downtime)
/// until capacity appears otherwise. It moves back to spot once the spot
/// price falls back to the bid.
pub fn replay(
    prices: &PriceSeries,
    od_price: Price,
    fallback_od: &AvailabilityTimeline,
    config: &SpotCheckConfig,
    start: SimTime,
    end: SimTime,
) -> SpotCheckReport {
    assert!(end > start, "replay span must be non-empty");
    let bid = od_price.scale(config.bid_ratio);
    let mut t = start;
    let mut downtime = SimDuration::ZERO;
    let mut revocations = 0;
    let mut clean = 0;
    let mut stalled = 0;

    while t < end {
        // Running on spot: find the next revocation.
        let Some(revoked_at) = prices.next_above(t, bid) else {
            break; // no further revocation in the record
        };
        if revoked_at >= end {
            break;
        }
        revocations += 1;

        // Migrate to the fallback's on-demand capacity.
        let mut cursor = revoked_at;
        if fallback_od.unavailable_at(cursor) {
            stalled += 1;
            // Stall until on-demand capacity appears (checking every
            // retry interval) or the spot price falls back.
            let od_ready = fallback_od.next_available(cursor);
            let od_ready = ceil_to_interval(cursor, od_ready, config.retry_interval);
            let spot_back = prices.next_at_or_below(cursor, bid).unwrap_or(SimTime::MAX);
            let back_up = od_ready.min(spot_back).min(end);
            downtime += back_up.saturating_since(cursor);
            cursor = back_up;
        } else {
            clean += 1;
            let pause_end = (cursor + config.migration_pause).min(end);
            downtime += pause_end.saturating_since(cursor);
            cursor = pause_end;
        }

        // Now running on on-demand; return to spot when the price falls
        // back to the bid.
        let return_at = prices.next_at_or_below(cursor, bid).unwrap_or(end);
        t = return_at.max(cursor);
        if t <= revoked_at {
            // Guard against pathological zero-width steps.
            t = revoked_at + config.retry_interval;
        }
    }

    let span = end - start;
    let downtime = downtime.min(span);
    SpotCheckReport {
        availability: 1.0 - downtime.as_secs() as f64 / span.as_secs() as f64,
        revocations,
        clean_migrations: clean,
        stalled_migrations: stalled,
        downtime,
        span,
    }
}

/// Rounds `target` up so the stall ends on a retry-interval boundary
/// after `from` (a VM only notices recovery when it re-checks).
fn ceil_to_interval(from: SimTime, target: SimTime, interval: SimDuration) -> SimTime {
    if target <= from {
        return from;
    }
    let gap = target.saturating_since(from).as_secs();
    let step = interval.as_secs().max(1);
    from + SimDuration::from_secs(gap.div_ceil(step) * step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_sim::trace::PricePoint;

    fn series(points: &[(u64, f64)]) -> PriceSeries {
        PriceSeries::new(
            points
                .iter()
                .map(|&(t, d)| PricePoint {
                    at: SimTime::from_secs(t),
                    price: Price::from_dollars(d),
                })
                .collect(),
        )
    }

    const OD: f64 = 1.0;
    const HOUR: u64 = 3600;

    #[test]
    fn no_revocations_means_full_availability() {
        let prices = series(&[(0, 0.2)]);
        let report = replay(
            &prices,
            Price::from_dollars(OD),
            &AvailabilityTimeline::default(),
            &SpotCheckConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(24 * HOUR),
        );
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.revocations, 0);
    }

    #[test]
    fn clean_migration_costs_only_the_pause() {
        // Price above od during [1h, 2h): one revocation, fallback free.
        let prices = series(&[(0, 0.2), (HOUR, 1.5), (2 * HOUR, 0.2)]);
        let report = replay(
            &prices,
            Price::from_dollars(OD),
            &AvailabilityTimeline::default(),
            &SpotCheckConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(24 * HOUR),
        );
        assert_eq!(report.revocations, 1);
        assert_eq!(report.clean_migrations, 1);
        assert_eq!(report.downtime, SimDuration::from_secs(2));
        assert!(report.availability > 0.99997);
    }

    #[test]
    fn stalled_migration_counts_downtime() {
        // Revocation at 1h; on-demand unavailable 1h..2h; spot recovers
        // at 3h — the VM is down from 1h until od recovers at 2h.
        let prices = series(&[(0, 0.2), (HOUR, 1.5), (3 * HOUR, 0.2)]);
        let od_down = AvailabilityTimeline::from_intervals(vec![(
            SimTime::from_secs(HOUR),
            SimTime::from_secs(2 * HOUR),
        )]);
        let report = replay(
            &prices,
            Price::from_dollars(OD),
            &od_down,
            &SpotCheckConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(24 * HOUR),
        );
        assert_eq!(report.revocations, 1);
        assert_eq!(report.stalled_migrations, 1);
        assert_eq!(report.downtime, SimDuration::hours(1));
        assert!((report.availability - (1.0 - 1.0 / 24.0)).abs() < 1e-6);
    }

    #[test]
    fn stall_ends_early_if_spot_recovers_first() {
        // od down for 10h but spot price falls back after 30 min: the VM
        // resumes on spot.
        let prices = series(&[(0, 0.2), (HOUR, 1.5), (HOUR + 1800, 0.2)]);
        let od_down = AvailabilityTimeline::from_intervals(vec![(
            SimTime::from_secs(HOUR),
            SimTime::from_secs(11 * HOUR),
        )]);
        let report = replay(
            &prices,
            Price::from_dollars(OD),
            &od_down,
            &SpotCheckConfig::default(),
            SimTime::ZERO,
            SimTime::from_secs(24 * HOUR),
        );
        assert_eq!(report.downtime, SimDuration::from_secs(1800));
    }

    #[test]
    fn informed_fallback_beats_naive_on_correlated_outages() {
        // Two revocations, both correlated with same-market od outages.
        let prices = series(&[
            (0, 0.2),
            (HOUR, 2.0),
            (2 * HOUR, 0.2),
            (10 * HOUR, 3.0),
            (11 * HOUR, 0.2),
        ]);
        let same_market_down = AvailabilityTimeline::from_intervals(vec![
            (SimTime::from_secs(HOUR), SimTime::from_secs(2 * HOUR)),
            (SimTime::from_secs(10 * HOUR), SimTime::from_secs(11 * HOUR)),
        ]);
        let uncorrelated = AvailabilityTimeline::default();
        let cfg = SpotCheckConfig::default();
        let end = SimTime::from_secs(24 * HOUR);
        let naive = replay(
            &prices,
            Price::from_dollars(OD),
            &same_market_down,
            &cfg,
            SimTime::ZERO,
            end,
        );
        let informed = replay(
            &prices,
            Price::from_dollars(OD),
            &uncorrelated,
            &cfg,
            SimTime::ZERO,
            end,
        );
        assert!(naive.availability < 0.95);
        assert!(informed.availability > 0.9999);
        assert_eq!(naive.stalled_migrations, 2);
        assert_eq!(informed.stalled_migrations, 0);
    }
}
