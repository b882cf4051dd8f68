//! SpotOn (§6.2): a batch computing service that runs jobs on spot
//! servers with checkpointing (or replication) fault tolerance, falling
//! back to on-demand servers after revocations.
//!
//! SpotOn picks the market minimizing the expected cost of Equation 6.1
//! — but, like SpotCheck, it implicitly assumes the fallback on-demand
//! server is always obtainable. Replaying measured traces shows jobs
//! running 15–72% longer than expected (Figure 6.2); SpotLight restores
//! the expected running time by steering the fallback to an
//! uncorrelated market.

use crate::series::{AvailabilityTimeline, PriceSeries};
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};

/// A batch job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Useful work the job must complete.
    pub work: SimDuration,
    /// Time to write one checkpoint (the paper's representative job:
    /// 8 GB footprint ≈ six minutes).
    pub checkpoint_time: SimDuration,
    /// Interval between checkpoints (`τ` in Eq 6.1).
    pub checkpoint_interval: SimDuration,
    /// Time to restore from a checkpoint after a failure.
    pub restore_time: SimDuration,
}

impl JobSpec {
    /// The paper's representative job: one hour of work, 8 GB footprint,
    /// six-minute checkpoints every 15 minutes.
    pub fn representative() -> Self {
        JobSpec {
            work: SimDuration::hours(1),
            checkpoint_time: SimDuration::minutes(6),
            checkpoint_interval: SimDuration::minutes(15),
            restore_time: SimDuration::minutes(2),
        }
    }
}

/// Where a SpotOn job restarts after a revocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// The baseline: restart on the *same* market's on-demand servers
    /// (waiting out any unavailability).
    SameMarketOnDemand,
    /// SpotLight-informed: restart on an uncorrelated on-demand market.
    SpotLightInformed,
}

/// Result of one job trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Wall-clock completion time.
    pub completion: SimDuration,
    /// Revocations survived.
    pub revocations: u64,
    /// Time spent waiting for on-demand capacity.
    pub od_wait: SimDuration,
}

/// Replays one job starting at `start`.
///
/// The job runs on the spot market while the price is at or below the
/// on-demand price (SpotOn's bid), checkpointing on its interval. On a
/// revocation it loses work since the last checkpoint and restarts from
/// it on the fallback on-demand servers — stalling while
/// `fallback_od` reports them unavailable — then returns to spot when
/// the price falls back.
fn run_trial(
    job: &JobSpec,
    prices: &PriceSeries,
    od_price: Price,
    fallback_od: &AvailabilityTimeline,
    retry: SimDuration,
    start: SimTime,
) -> TrialResult {
    let bid = od_price;
    let mut now = start;
    let mut done = SimDuration::ZERO; // checkpointed work
    let mut revocations = 0;
    let mut od_wait = SimDuration::ZERO;

    // Overhead factor: while running, a checkpoint_time pause follows
    // every checkpoint_interval of work.
    let interval = job.checkpoint_interval.as_secs().max(1);
    let ckpt = job.checkpoint_time.as_secs();

    loop {
        let remaining = job.work - done;
        // Wall time to finish from here, with checkpoint overhead.
        let full_intervals = remaining.as_secs() / interval;
        let finish_wall = remaining.as_secs() + full_intervals * ckpt;
        let on_spot = prices.at(now).is_none_or(|p| p <= bid);

        if on_spot {
            let finish_at = now + SimDuration::from_secs(finish_wall);
            match prices.next_above(now, bid) {
                Some(revoked_at) if revoked_at < finish_at => {
                    // Work completed before revocation, rounded down to
                    // the last checkpoint.
                    let ran = revoked_at.saturating_since(now).as_secs();
                    let whole = ran / (interval + ckpt);
                    done += SimDuration::from_secs(whole * interval);
                    done = done.min(job.work);
                    revocations += 1;
                    now = revoked_at;
                    // Restart on on-demand.
                    if fallback_od.unavailable_at(now) {
                        let ready = fallback_od.next_available(now);
                        let gap = ready.saturating_since(now).as_secs();
                        let step = retry.as_secs().max(1);
                        let waited = SimDuration::from_secs(gap.div_ceil(step) * step);
                        od_wait += waited;
                        now += waited;
                    }
                    now += job.restore_time;
                }
                _ => {
                    now = finish_at;
                    break;
                }
            }
        } else {
            // On on-demand after a revocation: run until the spot price
            // falls back, then migrate back (SpotOn restarts the spot
            // instance from the last checkpoint; on-demand work is kept
            // via a checkpoint before the switch).
            let finish_at = now + SimDuration::from_secs(finish_wall);
            let spot_back = prices.next_at_or_below(now, bid).unwrap_or(SimTime::MAX);
            if spot_back >= finish_at {
                now = finish_at;
                break;
            }
            let ran = spot_back.saturating_since(now).as_secs();
            let whole = ran / (interval + ckpt);
            done += SimDuration::from_secs(whole * interval);
            done = done.min(job.work);
            now = spot_back + job.restore_time;
        }
    }

    TrialResult {
        completion: now.saturating_since(start),
        revocations,
        od_wait,
    }
}

/// Runs `n` trials with evenly spaced start times over `[start, end)`
/// and returns the results.
#[allow(clippy::too_many_arguments)]
pub fn run_trials(
    job: &JobSpec,
    prices: &PriceSeries,
    od_price: Price,
    fallback_od: &AvailabilityTimeline,
    retry: SimDuration,
    start: SimTime,
    end: SimTime,
    n: usize,
) -> Vec<TrialResult> {
    assert!(n > 0, "need at least one trial");
    assert!(end > start, "trial span must be non-empty");
    let span = (end - start).as_secs();
    (0..n)
        .map(|i| {
            let offset = span * i as u64 / n as u64;
            run_trial(
                job,
                prices,
                od_price,
                fallback_od,
                retry,
                start + SimDuration::from_secs(offset),
            )
        })
        .collect()
}

/// Mean completion time of a set of trials, in hours.
pub fn mean_completion_hours(trials: &[TrialResult]) -> f64 {
    if trials.is_empty() {
        return 0.0;
    }
    trials
        .iter()
        .map(|t| t.completion.as_hours_f64())
        .sum::<f64>()
        / trials.len() as f64
}

/// Market statistics SpotOn estimates from a price history for a bid
/// equal to the on-demand price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketStats {
    /// Probability a job of length `T` is revoked before completing.
    pub revocation_probability: f64,
    /// Expected time to revocation given one occurs (`E[Z]`).
    pub expected_time_to_revocation: SimDuration,
    /// Mean spot price over the history.
    pub mean_spot_price: Price,
}

/// Estimates `P_k` and `E[Z_k]` for a job of length `job_wall` by
/// sliding `samples` start points over the recorded history.
pub fn estimate_market_stats(
    prices: &PriceSeries,
    od_price: Price,
    job_wall: SimDuration,
    samples: usize,
) -> Option<MarketStats> {
    let start = prices.start()?;
    let end = prices.end()?;
    if end <= start + job_wall || samples == 0 {
        return None;
    }
    let span = (end - start - job_wall).as_secs();
    let mut revoked = 0u64;
    let mut z_total = 0u64;
    let mut price_total = 0.0;
    for i in 0..samples {
        let t = start + SimDuration::from_secs(span * i as u64 / samples as u64);
        price_total += prices.at(t).unwrap_or(Price::ZERO).as_dollars();
        if let Some(rev) = prices.next_above(t, od_price) {
            if rev < t + job_wall {
                revoked += 1;
                z_total += rev.saturating_since(t).as_secs();
                continue;
            }
        }
    }
    let p = revoked as f64 / samples as f64;
    let e_z = match z_total.checked_div(revoked) {
        Some(mean) => SimDuration::from_secs(mean),
        None => job_wall,
    };
    Some(MarketStats {
        revocation_probability: p,
        expected_time_to_revocation: e_z,
        mean_spot_price: Price::from_dollars(price_total / samples as f64),
    })
}

/// Equation 6.1: the expected cost per unit of useful work of running a
/// checkpointed job on spot market `k`.
///
/// * `spot_price` — the market's (mean) spot price;
/// * `p` — probability of revocation before completion (`P_k`);
/// * `e_z` — expected time to revocation (`E[Z_k]`);
/// * `t` — remaining running time of the job (`T`);
/// * `t_lost` — expected work lost on a revocation (`T_L`);
/// * `tau` — checkpoint interval (`τ`);
/// * `t_ckpt` — time per checkpoint (`T_c`).
///
/// Returns `None` when the denominator (expected useful time) is not
/// positive — checkpointing overhead swallows all progress.
#[allow(clippy::too_many_arguments)]
fn expected_cost_checkpointing(
    spot_price: Price,
    p: f64,
    e_z: SimDuration,
    t: SimDuration,
    t_lost: SimDuration,
    tau: SimDuration,
    t_ckpt: SimDuration,
) -> Option<f64> {
    let e_z = e_z.as_hours_f64();
    let t = t.as_hours_f64();
    let t_lost = t_lost.as_hours_f64();
    let tau = tau.as_hours_f64();
    let t_ckpt = t_ckpt.as_hours_f64();
    let expected_time = (1.0 - p) * t + p * e_z;
    let useful = (1.0 - p) * t + p * (e_z - t_lost) - (e_z / tau) * t_ckpt;
    (useful > 0.0).then(|| expected_time * spot_price.as_dollars() / useful)
}

/// Brute-force market selection: the market with the lowest Eq 6.1
/// expected cost for the job (the paper's SpotOn selection step).
pub fn select_market<'a>(
    job: &JobSpec,
    candidates: impl IntoIterator<Item = (&'a str, MarketStats)>,
) -> Option<(&'a str, f64)> {
    let t_lost = SimDuration::from_secs(job.checkpoint_interval.as_secs() / 2);
    candidates
        .into_iter()
        .filter_map(|(name, stats)| {
            expected_cost_checkpointing(
                stats.mean_spot_price,
                stats.revocation_probability,
                stats.expected_time_to_revocation,
                job.work,
                t_lost,
                job.checkpoint_interval,
                job.checkpoint_time,
            )
            .map(|cost| (name, cost))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
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

    const HOUR: u64 = 3600;

    fn job() -> JobSpec {
        JobSpec::representative()
    }

    #[test]
    fn uninterrupted_job_finishes_with_overhead_only() {
        let prices = series(&[(0, 0.2)]);
        let r = run_trial(
            &job(),
            &prices,
            Price::from_dollars(1.0),
            &AvailabilityTimeline::default(),
            SimDuration::from_secs(300),
            SimTime::ZERO,
        );
        assert_eq!(r.revocations, 0);
        // 1 h work + 4 checkpoints × 6 min = 84 min.
        assert_eq!(r.completion, SimDuration::minutes(84));
    }

    #[test]
    fn revocation_with_available_od_adds_modest_delay() {
        let prices = series(&[(0, 0.2), (1800, 2.0), (5 * HOUR, 0.2)]);
        let r = run_trial(
            &job(),
            &prices,
            Price::from_dollars(1.0),
            &AvailabilityTimeline::default(),
            SimDuration::from_secs(300),
            SimTime::ZERO,
        );
        assert_eq!(r.revocations, 1);
        assert_eq!(r.od_wait, SimDuration::ZERO);
        assert!(r.completion > SimDuration::minutes(84));
        assert!(r.completion < SimDuration::hours(3));
    }

    #[test]
    fn od_unavailability_extends_running_time() {
        let prices = series(&[(0, 0.2), (1800, 2.0), (5 * HOUR, 0.2)]);
        let od_down = AvailabilityTimeline::from_intervals(vec![(
            SimTime::from_secs(1800),
            SimTime::from_secs(1800 + 2 * HOUR),
        )]);
        let blocked = run_trial(
            &job(),
            &prices,
            Price::from_dollars(1.0),
            &od_down,
            SimDuration::from_secs(300),
            SimTime::ZERO,
        );
        let free = run_trial(
            &job(),
            &prices,
            Price::from_dollars(1.0),
            &AvailabilityTimeline::default(),
            SimDuration::from_secs(300),
            SimTime::ZERO,
        );
        assert!(blocked.od_wait >= SimDuration::hours(2));
        assert!(
            blocked.completion >= free.completion + SimDuration::hours(2),
            "blocked {} vs free {}",
            blocked.completion,
            free.completion
        );
    }

    #[test]
    fn trials_are_reproducible_and_positive() {
        let prices = series(&[(0, 0.2), (10 * HOUR, 1.5), (11 * HOUR, 0.2)]);
        let trials = run_trials(
            &job(),
            &prices,
            Price::from_dollars(1.0),
            &AvailabilityTimeline::default(),
            SimDuration::from_secs(300),
            SimTime::ZERO,
            SimTime::from_secs(24 * HOUR),
            10,
        );
        assert_eq!(trials.len(), 10);
        assert!(mean_completion_hours(&trials) >= 1.0);
    }

    #[test]
    fn eq61_costs_rise_with_revocation_probability() {
        let j = job();
        let price = Price::from_dollars(0.2);
        let stable = expected_cost_checkpointing(
            price,
            0.05,
            SimDuration::minutes(50),
            j.work,
            SimDuration::minutes(7),
            j.checkpoint_interval,
            j.checkpoint_time,
        )
        .unwrap();
        let flaky = expected_cost_checkpointing(
            price,
            0.60,
            SimDuration::minutes(30),
            j.work,
            SimDuration::minutes(7),
            j.checkpoint_interval,
            j.checkpoint_time,
        )
        .unwrap();
        assert!(flaky > stable, "flaky {flaky} stable {stable}");
    }

    #[test]
    fn eq61_degenerate_overhead_is_none() {
        let j = job();
        assert!(expected_cost_checkpointing(
            Price::from_dollars(0.2),
            0.9,
            SimDuration::hours(10),
            j.work,
            SimDuration::minutes(7),
            SimDuration::minutes(1), // checkpoint every minute, 6 min each
            j.checkpoint_time,
        )
        .is_none());
    }

    #[test]
    fn market_stats_estimate_matches_trace() {
        // Price exceeds od in the second half of every 2 h cycle.
        let mut pts = Vec::new();
        for c in 0..12u64 {
            pts.push((c * 2 * HOUR, 0.2));
            pts.push((c * 2 * HOUR + HOUR, 1.5));
        }
        let prices = series(&pts);
        let stats = estimate_market_stats(
            &prices,
            Price::from_dollars(1.0),
            SimDuration::hours(1),
            100,
        )
        .unwrap();
        // Roughly half of all starts hit a revocation within the hour
        // (starts in the low half revoke at the next boundary).
        assert!(stats.revocation_probability > 0.4);
        assert!(stats.expected_time_to_revocation <= SimDuration::hours(1));
    }

    #[test]
    fn selection_prefers_the_cheaper_stable_market() {
        let j = job();
        let stable = MarketStats {
            revocation_probability: 0.05,
            expected_time_to_revocation: SimDuration::minutes(50),
            mean_spot_price: Price::from_dollars(0.2),
        };
        let flaky = MarketStats {
            revocation_probability: 0.7,
            expected_time_to_revocation: SimDuration::minutes(20),
            mean_spot_price: Price::from_dollars(0.18),
        };
        let (name, _) = select_market(&j, [("stable", stable), ("flaky", flaky)]).unwrap();
        assert_eq!(name, "stable");
    }
}
