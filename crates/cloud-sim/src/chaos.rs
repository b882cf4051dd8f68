//! Deterministic fault injection: scheduled outages, throttling storms,
//! error bursts, delayed event delivery, and capacity evictions with
//! advance interruption notices.
//!
//! Real providers misbehave in ways the polite API surface of [`crate::api`]
//! never shows: regional API outages, request-rate storms, transient
//! `InternalError` bursts, and — per the SpotLake measurements — capacity
//! reclaims announced through interruption notices rather than price
//! crossings. [`ChaosConfig`] describes those faults declaratively on
//! [`crate::config::SimConfig`]; the cloud injects them during its tick
//! and at the API boundary.
//!
//! ## Determinism
//!
//! Scheduled windows ([`ChaosWindow`]) are explicit configuration, so
//! they are trivially identical across runs. The stochastic draws —
//! per-call error-burst coin flips, per-event delivery delays, and
//! per-market eviction picks — come from **dedicated per-region chaos
//! RNG streams** forked from the seed *after* the demand streams (see
//! `CHAOS_STREAM_BASE` in [`crate::cloud`]). Two consequences:
//!
//! * enabling chaos does not perturb the demand trajectory of a seed —
//!   prices and surges replay exactly as in the chaos-free run; and
//! * every chaos draw happens inside its region's shard, in shard-local
//!   phase order, so a given seed + [`ChaosConfig`] yields a
//!   bit-identical fault schedule at any thread count (the same
//!   contract, and the same proptest harness, as the demand streams).
//!
//! ## Cost when disabled
//!
//! The default configuration injects nothing and `ChaosConfig::is_enabled`
//! is `false`; the tick and API paths then pay a single branch. Every
//! workload of `benchmark/run.sh` runs with chaos disabled, so its
//! `sim.tick_t1_us` is the cost of this path.

use crate::ids::Region;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A scheduled per-region fault window `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosWindow {
    /// The region the fault applies to.
    pub region: Region,
    /// When the fault begins (absolute simulation time).
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

impl ChaosWindow {
    /// The exclusive end of the window.
    pub fn end(&self) -> SimTime {
        self.start.saturating_add(self.duration)
    }

    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: SimTime) -> bool {
        at >= self.start && at < self.end()
    }
}

/// A transient-error burst: during the window, each API call in the
/// region independently fails with [`crate::api::ApiError::InternalError`]
/// with probability `fraction`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBurst {
    /// When and where the burst applies.
    pub window: ChaosWindow,
    /// Per-call failure probability in `[0, 1]`.
    pub fraction: f64,
}

/// Delayed event delivery: each emitted [`crate::cloud::CloudEvent`]
/// is independently held back a uniform `1..=max_delay_ticks` ticks
/// with probability `probability`. Event timestamps keep the original
/// emission time — only *delivery* to the subscriber lags, the way a
/// slow notification pipeline lags the price history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventDelay {
    /// Per-event delay probability in `[0, 1]`.
    pub probability: f64,
    /// Maximum delivery delay, in ticks (at least 1 to have any effect).
    pub max_delay_ticks: u32,
}

/// Capacity evictions with advance interruption notices: markets are
/// picked at `rate_per_market_day`; a picked market emits a
/// [`crate::cloud::CloudEvent::CapacityEvictionNotice`] `notice_lead`
/// ahead of the reclaim, running spot instances there get revocation
/// warnings, and at eviction time the pool withholds spot capacity for
/// `hold` (new requests see `capacity-not-available`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionProfile {
    /// Poisson rate of evictions per market per day.
    pub rate_per_market_day: f64,
    /// Advance warning between the notice and the reclaim.
    pub notice_lead: SimDuration,
    /// How long the evicted capacity stays withheld.
    pub hold: SimDuration,
}

/// Declarative fault-injection plan. The default injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosConfig {
    /// Regional API outages: every call fails with
    /// [`crate::api::ApiError::ServiceUnavailable`].
    pub outages: Vec<ChaosWindow>,
    /// Throttling storms: the region's token bucket is pinned empty and
    /// every call fails with [`crate::api::ApiError::RequestLimitExceeded`].
    pub throttle_storms: Vec<ChaosWindow>,
    /// Transient-error bursts.
    pub error_bursts: Vec<ErrorBurst>,
    /// Delayed event delivery, if any.
    pub event_delay: Option<EventDelay>,
    /// Capacity evictions with interruption notices, if any.
    pub evictions: Option<EvictionProfile>,
}

impl ChaosConfig {
    /// Whether any fault is configured at all. When `false`, the tick
    /// and API paths skip chaos entirely (one branch).
    fn is_enabled(&self) -> bool {
        !self.outages.is_empty()
            || !self.throttle_storms.is_empty()
            || !self.error_bursts.is_empty()
            || self.event_delay.is_some()
            || self.evictions.is_some()
    }

    /// Validates probabilities, rates, and window shapes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.outages.iter().chain(&self.throttle_storms) {
            if w.duration.is_zero() {
                return Err(format!("chaos window in {} has zero duration", w.region));
            }
        }
        for b in &self.error_bursts {
            if b.window.duration.is_zero() {
                return Err(format!(
                    "error burst in {} has zero duration",
                    b.window.region
                ));
            }
            if !(0.0..=1.0).contains(&b.fraction) {
                return Err(format!(
                    "error burst fraction must be in [0,1], got {}",
                    b.fraction
                ));
            }
        }
        if let Some(d) = self.event_delay {
            if !(0.0..=1.0).contains(&d.probability) {
                return Err(format!(
                    "event delay probability must be in [0,1], got {}",
                    d.probability
                ));
            }
            if d.max_delay_ticks == 0 {
                return Err("event delay max_delay_ticks must be at least 1".into());
            }
        }
        if let Some(e) = self.evictions {
            if e.rate_per_market_day < 0.0 || !e.rate_per_market_day.is_finite() {
                return Err(format!(
                    "eviction rate must be finite and non-negative, got {}",
                    e.rate_per_market_day
                ));
            }
            if e.hold.is_zero() {
                return Err("eviction hold must be positive".into());
            }
        }
        Ok(())
    }
}

/// What, if anything, chaos does to one API call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ApiFault {
    /// No fault; the call proceeds normally.
    None,
    /// Regional outage: fail with `ServiceUnavailable`.
    Outage,
    /// Throttling storm: drain the token bucket and fail with
    /// `RequestLimitExceeded`.
    Throttled,
    /// Transient burst failure: fail with `InternalError`.
    Transient,
}

/// One region's chaos runtime: its slice of the schedule plus the
/// region's dedicated chaos RNG stream. Lives on the region shard so
/// every draw happens shard-locally (the determinism contract).
#[derive(Debug, Clone)]
pub(crate) struct ChaosState {
    /// Fast-path flag: the *global* config enables chaos. Kept even for
    /// regions with no scheduled windows, because stochastic faults
    /// (bursts, delays, evictions) may still apply.
    enabled: bool,
    /// This region's outage windows, as `(start, end)` seconds.
    outages: Vec<(u64, u64)>,
    /// This region's throttle storms, as `(start, end)` seconds.
    storms: Vec<(u64, u64)>,
    /// This region's error bursts, as `(start, end, fraction)`.
    bursts: Vec<(u64, u64, f64)>,
    /// Event-delay knob (global, copied per shard).
    pub delay: Option<EventDelay>,
    /// Eviction knob (global, copied per shard).
    pub evictions: Option<EvictionProfile>,
    /// The region's chaos stream — independent of its demand stream.
    pub rng: SimRng,
}

impl ChaosState {
    /// Builds the runtime slice of `config` for one region.
    pub fn for_region(config: &ChaosConfig, region_idx: usize, rng: SimRng) -> Self {
        let mine = |w: &ChaosWindow| w.region.index() == region_idx;
        ChaosState {
            enabled: config.is_enabled(),
            outages: config
                .outages
                .iter()
                .filter(|w| mine(w))
                .map(|w| (w.start.as_secs(), w.end().as_secs()))
                .collect(),
            storms: config
                .throttle_storms
                .iter()
                .filter(|w| mine(w))
                .map(|w| (w.start.as_secs(), w.end().as_secs()))
                .collect(),
            bursts: config
                .error_bursts
                .iter()
                .filter(|b| mine(&b.window))
                .map(|b| {
                    (
                        b.window.start.as_secs(),
                        b.window.end().as_secs(),
                        b.fraction,
                    )
                })
                .collect(),
            delay: config.event_delay,
            evictions: config.evictions,
            rng,
        }
    }

    /// Whether any fault is configured anywhere (the one-branch gate).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Classifies one API call at `now`. Outages shadow storms shadow
    /// bursts; the burst coin flip is drawn only while a burst window is
    /// active, so quiet periods consume no randomness. The schedules
    /// are tiny (hand-written fault plans), so a linear scan beats
    /// cursor bookkeeping.
    pub fn api_fault(&mut self, now: SimTime) -> ApiFault {
        if !self.enabled {
            return ApiFault::None;
        }
        let t = now.as_secs();
        let active = |&(s, e): &(u64, u64)| t >= s && t < e;
        if self.outages.iter().any(active) {
            return ApiFault::Outage;
        }
        if self.storms.iter().any(active) {
            return ApiFault::Throttled;
        }
        let fraction = self
            .bursts
            .iter()
            .filter(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, f)| f)
            .fold(0.0_f64, f64::max);
        if fraction > 0.0 && self.rng.chance(fraction) {
            return ApiFault::Transient;
        }
        ApiFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start: u64, dur: u64) -> ChaosWindow {
        ChaosWindow {
            region: Region::UsEast1,
            start: SimTime::from_secs(start),
            duration: SimDuration::from_secs(dur),
        }
    }

    #[test]
    fn default_is_disabled_and_valid() {
        let c = ChaosConfig::default();
        assert!(!c.is_enabled());
        c.validate().unwrap();
    }

    #[test]
    fn window_bounds_are_half_open() {
        let w = window(100, 50);
        assert!(!w.contains(SimTime::from_secs(99)));
        assert!(w.contains(SimTime::from_secs(100)));
        assert!(w.contains(SimTime::from_secs(149)));
        assert!(!w.contains(SimTime::from_secs(150)));
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let mut c = ChaosConfig::default();
        c.outages.push(window(0, 0));
        assert!(c.validate().is_err());

        let mut c = ChaosConfig::default();
        c.error_bursts.push(ErrorBurst {
            window: window(0, 100),
            fraction: 1.5,
        });
        assert!(c.validate().is_err());

        let c = ChaosConfig {
            event_delay: Some(EventDelay {
                probability: 0.5,
                max_delay_ticks: 0,
            }),
            ..ChaosConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ChaosConfig {
            evictions: Some(EvictionProfile {
                rate_per_market_day: -1.0,
                notice_lead: SimDuration::from_secs(120),
                hold: SimDuration::from_secs(600),
            }),
            ..ChaosConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn faults_shadow_in_severity_order() {
        let mut config = ChaosConfig::default();
        config.outages.push(window(100, 100));
        config.throttle_storms.push(window(150, 100));
        config.error_bursts.push(ErrorBurst {
            window: window(0, 1000),
            fraction: 1.0,
        });
        let mut state = ChaosState::for_region(&config, 0, SimRng::seed_from(1));
        // Outage shadows the storm and the burst.
        assert_eq!(state.api_fault(SimTime::from_secs(160)), ApiFault::Outage);
        // Storm shadows the burst once the outage ends.
        assert_eq!(
            state.api_fault(SimTime::from_secs(210)),
            ApiFault::Throttled
        );
        // Burst alone: fraction 1.0 always fires.
        assert_eq!(
            state.api_fault(SimTime::from_secs(500)),
            ApiFault::Transient
        );
        // Another region sees nothing.
        let mut other = ChaosState::for_region(&config, 3, SimRng::seed_from(1));
        assert_eq!(other.api_fault(SimTime::from_secs(160)), ApiFault::None);
    }

    #[test]
    fn disabled_state_draws_nothing() {
        let config = ChaosConfig::default();
        let mut state = ChaosState::for_region(&config, 0, SimRng::seed_from(7));
        let before = state.rng.clone();
        for t in 0..100 {
            assert_eq!(state.api_fault(SimTime::from_secs(t)), ApiFault::None);
        }
        // The RNG was never touched: replays stay aligned.
        assert_eq!(state.rng.uniform(), {
            let mut b = before;
            b.uniform()
        });
    }
}
