//! The EC2-like public API: the calls SpotLight's probes go through.
//!
//! Every method consumes an API token from the region's rate limiter and
//! honours the per-region service limits of Chapter 4 (at most 20 running
//! on-demand instances and 20 open spot requests). Errors carry the
//! EC2-style error code string via [`ApiError::error_code`]; the one
//! SpotLight cares most about is `InsufficientInstanceCapacity`.

use crate::billing::UsageKind;
use crate::chaos::ApiFault;
use crate::cloud::{Cloud, OdInstance, SpotEval, SpotRequest};
use crate::ids::{InstanceId, MarketId, Region, SpotRequestId};
use crate::lifecycle::{OdState, SpotRequestState, Tracked};
use crate::price::Price;
use std::fmt;

/// An error returned by the cloud API.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The platform has no capacity for the requested on-demand instance
    /// — the rejection SpotLight's probing is designed to detect.
    InsufficientInstanceCapacity {
        /// The market that was out of capacity.
        market: MarketId,
    },
    /// The per-region API rate limit was exceeded.
    RequestLimitExceeded {
        /// The throttled region.
        region: Region,
    },
    /// The account's running on-demand instance limit was reached.
    InstanceLimitExceeded {
        /// The limited region.
        region: Region,
    },
    /// The account's open spot request limit was reached.
    SpotRequestLimitExceeded {
        /// The limited region.
        region: Region,
    },
    /// The bid exceeds the 10× on-demand cap (§2.1.3).
    MaxSpotPriceTooHigh {
        /// The market bid on.
        market: MarketId,
        /// The maximum allowed bid.
        cap: Price,
    },
    /// A malformed parameter (unknown market, zero bid, …).
    InvalidParameter(String),
    /// The referenced instance or request does not exist.
    NotFound(String),
    /// The operation is illegal in the object's current state.
    InvalidState(String),
    /// The regional API endpoint is down (injected by a
    /// [`crate::chaos::ChaosConfig`] outage window).
    ServiceUnavailable {
        /// The unreachable region.
        region: Region,
    },
    /// A transient server-side failure (injected by a
    /// [`crate::chaos::ChaosConfig`] error burst). Retrying the same
    /// call later may succeed.
    InternalError {
        /// The failing region.
        region: Region,
    },
}

impl ApiError {
    /// The EC2-style error code string.
    pub fn error_code(&self) -> &'static str {
        match self {
            ApiError::InsufficientInstanceCapacity { .. } => "InsufficientInstanceCapacity",
            ApiError::RequestLimitExceeded { .. } => "RequestLimitExceeded",
            ApiError::InstanceLimitExceeded { .. } => "InstanceLimitExceeded",
            ApiError::SpotRequestLimitExceeded { .. } => "MaxSpotInstanceCountExceeded",
            ApiError::MaxSpotPriceTooHigh { .. } => "SpotMaxPriceTooHigh",
            ApiError::InvalidParameter(_) => "InvalidParameterValue",
            ApiError::NotFound(_) => "InvalidResourceID.NotFound",
            ApiError::InvalidState(_) => "IncorrectState",
            ApiError::ServiceUnavailable { .. } => "Unavailable",
            ApiError::InternalError { .. } => "InternalError",
        }
    }

    /// Whether retrying the same call later can reasonably succeed.
    ///
    /// Throttling, outages, and transient server errors are conditions
    /// of the *endpoint*, not the request — a caller with a backoff
    /// queue should retry them. Everything else either reports a true
    /// observation (`InsufficientInstanceCapacity`), a caller bug
    /// (`InvalidParameter`, `NotFound`, `InvalidState`,
    /// `MaxSpotPriceTooHigh`), or a limit retrying cannot lift
    /// (`InstanceLimitExceeded`, `SpotRequestLimitExceeded` — those
    /// clear only when the caller releases resources).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ApiError::RequestLimitExceeded { .. }
                | ApiError::ServiceUnavailable { .. }
                | ApiError::InternalError { .. }
        )
    }

    /// The region the error originated in, when it is a regional
    /// (endpoint-level) condition rather than a per-request one.
    pub fn region(&self) -> Option<Region> {
        match self {
            ApiError::RequestLimitExceeded { region }
            | ApiError::InstanceLimitExceeded { region }
            | ApiError::SpotRequestLimitExceeded { region }
            | ApiError::ServiceUnavailable { region }
            | ApiError::InternalError { region } => Some(*region),
            _ => None,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::InsufficientInstanceCapacity { market } => {
                write!(f, "insufficient capacity for {market}")
            }
            ApiError::RequestLimitExceeded { region } => {
                write!(f, "api rate limit exceeded in {region}")
            }
            ApiError::InstanceLimitExceeded { region } => {
                write!(f, "running on-demand instance limit reached in {region}")
            }
            ApiError::SpotRequestLimitExceeded { region } => {
                write!(f, "open spot request limit reached in {region}")
            }
            ApiError::MaxSpotPriceTooHigh { market, cap } => {
                write!(f, "bid above the {cap} cap for {market}")
            }
            ApiError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ApiError::NotFound(msg) => write!(f, "not found: {msg}"),
            ApiError::InvalidState(msg) => write!(f, "incorrect state: {msg}"),
            ApiError::ServiceUnavailable { region } => {
                write!(f, "api endpoint unavailable in {region}")
            }
            ApiError::InternalError { region } => {
                write!(f, "internal service error in {region}")
            }
        }
    }
}

impl std::error::Error for ApiError {}

/// The outcome of submitting a spot request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpotSubmission {
    /// The request id.
    pub id: SpotRequestId,
    /// The status after immediate evaluation.
    pub status: SpotRequestState,
    /// The launched instance, when fulfilled immediately.
    pub instance: Option<InstanceId>,
}

impl Cloud {
    fn check_market(&self, market: MarketId) -> Result<(), ApiError> {
        if self.market_loc.contains_key(&market) {
            Ok(())
        } else {
            Err(ApiError::InvalidParameter(format!(
                "unknown market {market}"
            )))
        }
    }

    /// The shard serving `region`. Callers resolve the region from an
    /// existing market or request, so the shard always exists.
    fn region_shard_idx(&self, region: Region) -> usize {
        self.shard_of_region[region.index()].expect("region resolved from a known market")
    }

    fn consume_token(&mut self, region: Region) -> Result<(), ApiError> {
        let per_minute = self.config.limits.api_calls_per_minute_per_region;
        let now = self.now;
        let si = self.region_shard_idx(region);
        let shard = &mut self.shards[si];
        // Chaos intercepts the call before the token bucket: an outage
        // answers nothing, a throttling storm pins the bucket empty (so
        // recovery after the storm starts from zero tokens), and an
        // error burst fails the call after it was accepted. One branch
        // when chaos is disabled.
        if shard.chaos.enabled() {
            match shard.chaos.api_fault(now) {
                ApiFault::Outage => return Err(ApiError::ServiceUnavailable { region }),
                ApiFault::Throttled => {
                    shard.api.drain(now);
                    return Err(ApiError::RequestLimitExceeded { region });
                }
                ApiFault::Transient => return Err(ApiError::InternalError { region }),
                ApiFault::None => {}
            }
        }
        if shard.api.try_consume(now, per_minute) {
            Ok(())
        } else {
            Err(ApiError::RequestLimitExceeded { region })
        }
    }

    /// Requests one on-demand instance in `market`.
    ///
    /// This is the probe primitive of §3.2: success means the on-demand
    /// market is obtainable right now; failure with
    /// [`ApiError::InsufficientInstanceCapacity`] means it is not.
    ///
    /// # Errors
    ///
    /// * [`ApiError::InvalidParameter`] — the market is not offered.
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    /// * [`ApiError::InstanceLimitExceeded`] — 20 running instances.
    /// * [`ApiError::InsufficientInstanceCapacity`] — the pool cannot
    ///   serve the request (the signal SpotLight logs).
    pub fn run_od_instance(&mut self, market: MarketId) -> Result<InstanceId, ApiError> {
        self.check_market(market)?;
        let region = market.region();
        self.consume_token(region)?;
        // A pool's region is its markets' region, so the pool_loc pair
        // serves both the limit check and the admission.
        let (si, pi) = self.pool_loc[&market.pool()];
        if self.shards[si].api.od_running >= self.config.limits.max_od_instances_per_region {
            return Err(ApiError::InstanceLimitExceeded { region });
        }
        let units = u64::from(market.instance_type.units());
        self.shards[si].pools[pi]
            .pool
            .admit_od_external(units)
            .map_err(|_| ApiError::InsufficientInstanceCapacity { market })?;

        let id = self.fresh_instance_id();
        let now = self.now;
        let mut state = Tracked::new(OdState::Pending, now);
        state
            .transition(OdState::Running, now)
            .expect("pending -> running is legal");
        self.od_instances.insert(
            id,
            OdInstance {
                id,
                market,
                units: market.instance_type.units(),
                launched_at: now,
                state,
            },
        );
        self.shards[si].api.od_running += 1;
        Ok(id)
    }

    /// Terminates a running on-demand instance and bills its usage
    /// (one-hour minimum). Returns the amount charged.
    ///
    /// # Errors
    ///
    /// * [`ApiError::NotFound`] — unknown instance.
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    pub fn terminate_od_instance(&mut self, id: InstanceId) -> Result<Price, ApiError> {
        let market = self
            .od_instances
            .get(&id)
            .ok_or_else(|| ApiError::NotFound(format!("instance {id}")))?
            .market;
        self.consume_token(market.region())?;
        let mut inst = self.od_instances.remove(&id).expect("checked above");
        let now = self.now;
        inst.state
            .transition(OdState::ShuttingDown, now)
            .expect("running -> shutting-down is legal");
        inst.state
            .transition(OdState::Terminated, now)
            .expect("shutting-down -> terminated is legal");
        let (si, pi) = self.pool_loc[&market.pool()];
        self.shards[si].pools[pi]
            .pool
            .release_od_external(u64::from(inst.units));
        let rate = self.catalog.od_price(market);
        let charged = self.ledger.charge(
            now,
            market,
            UsageKind::OnDemand,
            now.saturating_since(inst.launched_at),
            rate,
        );
        let api = &mut self.shards[si].api;
        api.od_running = api.od_running.saturating_sub(1);
        Ok(charged)
    }

    /// Submits a one-time spot instance request with the given bid and
    /// evaluates it immediately.
    ///
    /// The returned status follows Figure 3.2: `fulfilled` (an instance
    /// launched), or one of the held statuses `price-too-low`,
    /// `capacity-oversubscribed`, `capacity-not-available`. Held requests
    /// stay open — the cloud re-evaluates them every tick — until
    /// fulfilled or cancelled.
    ///
    /// # Errors
    ///
    /// * [`ApiError::MaxSpotPriceTooHigh`] — bid above 10× on-demand.
    /// * [`ApiError::InvalidParameter`] — unknown market or zero bid.
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    /// * [`ApiError::SpotRequestLimitExceeded`] — 20 open requests.
    pub fn request_spot_instance(
        &mut self,
        market: MarketId,
        bid: Price,
    ) -> Result<SpotSubmission, ApiError> {
        self.check_market(market)?;
        if bid.is_zero() {
            return Err(ApiError::InvalidParameter("zero bid".into()));
        }
        let cap = self.catalog.bid_cap(market);
        if bid > cap {
            return Err(ApiError::MaxSpotPriceTooHigh { market, cap });
        }
        let region = market.region();
        self.consume_token(region)?;
        let si = self.region_shard_idx(region);
        if self.shards[si].api.spot_open >= self.config.limits.max_spot_requests_per_region {
            return Err(ApiError::SpotRequestLimitExceeded { region });
        }

        let id = self.fresh_request_id();
        let now = self.now;
        let units = market.instance_type.units();
        let profile = &self.config.demand;
        let shard = &mut self.shards[si];
        shard.spot_requests.insert(
            id,
            SpotRequest {
                id,
                market,
                bid,
                units,
                state: Tracked::new(SpotRequestState::PendingEvaluation, now),
                instance: None,
                launched_at: None,
                launch_price: None,
                terminate_at: None,
            },
        );
        shard.active_spot.insert(id);
        shard.api.spot_open += 1;

        let outcome = shard.evaluate_spot(profile, market, bid, units);
        let status = match outcome {
            SpotEval::Fulfill => {
                let price = shard.markets[shard.market_index[&market]]
                    .state
                    .true_price();
                shard.fulfil_spot(id, now, price);
                SpotRequestState::Fulfilled
            }
            SpotEval::PriceTooLow => SpotRequestState::PriceTooLow,
            SpotEval::Oversubscribed => SpotRequestState::CapacityOversubscribed,
            SpotEval::NotAvailable => SpotRequestState::CapacityNotAvailable,
        };
        if status != SpotRequestState::Fulfilled {
            let req = shard.spot_requests.get_mut(&id).expect("just inserted");
            req.state
                .transition(status, now)
                .expect("pending-evaluation -> held is legal");
        }
        let instance = shard.spot_requests[&id].instance;
        Ok(SpotSubmission {
            id,
            status,
            instance,
        })
    }

    /// Cancels a spot request that has not been fulfilled.
    ///
    /// # Errors
    ///
    /// * [`ApiError::NotFound`] — unknown request.
    /// * [`ApiError::InvalidState`] — the request is fulfilled (terminate
    ///   the instance with [`Cloud::terminate_spot_instance`] instead).
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    pub fn cancel_spot_request(&mut self, id: SpotRequestId) -> Result<(), ApiError> {
        let (si, market) = self
            .find_spot_request(id)
            .ok_or_else(|| ApiError::NotFound(format!("spot request {id}")))?;
        self.consume_token(market.region())?;
        let now = self.now;
        let shard = &mut self.shards[si];
        let req = shard.spot_requests.get_mut(&id).expect("checked above");
        let state = req.state.current();
        if !state.is_held() && state != SpotRequestState::PendingEvaluation {
            return Err(ApiError::InvalidState(format!(
                "spot request {id} is {state}, not held"
            )));
        }
        req.state
            .transition(SpotRequestState::CanceledBeforeFulfillment, now)
            .expect("held -> cancelled is legal");
        shard.api.spot_open = shard.api.spot_open.saturating_sub(1);
        Ok(())
    }

    /// Terminates a fulfilled spot request's instance and bills its usage
    /// at the launch-time spot price. Returns the amount charged.
    ///
    /// # Errors
    ///
    /// * [`ApiError::NotFound`] — unknown request.
    /// * [`ApiError::InvalidState`] — the request has no running
    ///   instance.
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    pub fn terminate_spot_instance(&mut self, id: SpotRequestId) -> Result<Price, ApiError> {
        let (si, market) = self
            .find_spot_request(id)
            .ok_or_else(|| ApiError::NotFound(format!("spot request {id}")))?;
        self.consume_token(market.region())?;
        let now = self.now;
        let shard = &mut self.shards[si];
        let req = shard.spot_requests.get_mut(&id).expect("checked above");
        if !req.state.current().instance_running() {
            return Err(ApiError::InvalidState(format!(
                "spot request {id} has no running instance"
            )));
        }
        req.state
            .transition(SpotRequestState::InstanceTerminatedByUser, now)
            .expect("fulfilled/marked -> terminated-by-user is legal");
        let units = u64::from(req.units);
        let launched = req.launched_at.expect("running instance has launch time");
        let rate = req.launch_price.expect("running instance has launch price");
        let pi = shard.pool_index[&market.pool()];
        shard.pools[pi].pool.release_spot_external(units);
        shard.api.spot_open = shard.api.spot_open.saturating_sub(1);
        let charged = self.ledger.charge(
            now,
            market,
            UsageKind::Spot,
            now.saturating_since(launched),
            rate,
        );
        Ok(charged)
    }

    /// The currently published spot price of a market.
    ///
    /// # Errors
    ///
    /// * [`ApiError::InvalidParameter`] — unknown market.
    /// * [`ApiError::RequestLimitExceeded`] — API rate limit.
    pub fn describe_spot_price(&mut self, market: MarketId) -> Result<Price, ApiError> {
        self.check_market(market)?;
        self.consume_token(market.region())?;
        Ok(self
            .oracle_published_price(market)
            .expect("checked market exists"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::config::{DemandProfile, SimConfig};
    use crate::ids::{Az, Platform};
    use crate::time::SimTime;

    fn quiet_cloud(seed: u64) -> Cloud {
        let mut config = SimConfig::paper(seed);
        config.demand = DemandProfile::quiet();
        let mut c = Cloud::new(Catalog::testbed(), config);
        c.warmup(10);
        c
    }

    fn a_market(c: &Cloud) -> MarketId {
        c.catalog().markets()[0]
    }

    #[test]
    fn od_probe_roundtrip_bills_one_hour() {
        let mut c = quiet_cloud(1);
        let m = a_market(&c);
        let id = c.run_od_instance(m).unwrap();
        let charged = c.terminate_od_instance(id).unwrap();
        assert_eq!(charged, c.catalog().od_price(m), "one-hour minimum");
        assert_eq!(c.ledger().total(), charged);
    }

    #[test]
    fn unknown_market_is_invalid_parameter() {
        let mut c = quiet_cloud(2);
        let bogus = MarketId {
            az: Az::new(crate::ids::Region::UsWest2, 0),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::Windows,
        };
        let err = c.run_od_instance(bogus).unwrap_err();
        assert_eq!(err.error_code(), "InvalidParameterValue");
    }

    #[test]
    fn od_instance_limit_enforced() {
        let mut c = quiet_cloud(3);
        let m = a_market(&c);
        let limit = c.config().limits.max_od_instances_per_region;
        let mut ids = Vec::new();
        for _ in 0..limit {
            ids.push(c.run_od_instance(m).unwrap());
        }
        let err = c.run_od_instance(m).unwrap_err();
        assert!(matches!(err, ApiError::InstanceLimitExceeded { .. }));
        for id in ids {
            c.terminate_od_instance(id).unwrap();
        }
        assert!(c.run_od_instance(m).is_ok());
    }

    #[test]
    fn spot_request_fulfils_in_quiet_market() {
        let mut c = quiet_cloud(4);
        let m = a_market(&c);
        let price = c.describe_spot_price(m).unwrap();
        let sub = c.request_spot_instance(m, price).unwrap();
        assert_eq!(sub.status, SpotRequestState::Fulfilled);
        assert!(sub.instance.is_some());
        let charged = c.terminate_spot_instance(sub.id).unwrap();
        assert_eq!(charged, price, "one hour at the launch spot price");
    }

    #[test]
    fn bid_above_cap_rejected() {
        let mut c = quiet_cloud(5);
        let m = a_market(&c);
        let cap = c.catalog().bid_cap(m);
        let err = c
            .request_spot_instance(m, cap + Price::from_micros(1))
            .unwrap_err();
        assert!(matches!(err, ApiError::MaxSpotPriceTooHigh { .. }));
        assert_eq!(err.error_code(), "SpotMaxPriceTooHigh");
        // Bidding exactly the cap is fine.
        assert!(c.request_spot_instance(m, cap).is_ok());
    }

    #[test]
    fn low_bid_is_price_too_low_and_cancellable() {
        let mut c = quiet_cloud(6);
        let m = a_market(&c);
        let sub = c.request_spot_instance(m, Price::from_micros(1)).unwrap();
        assert_eq!(sub.status, SpotRequestState::PriceTooLow);
        c.cancel_spot_request(sub.id).unwrap();
        // Cancelled requests are garbage-collected after the next tick.
        c.tick();
        assert_eq!(c.find_spot_request(sub.id), None);
    }

    #[test]
    fn cancel_fulfilled_request_is_invalid_state() {
        let mut c = quiet_cloud(7);
        let m = a_market(&c);
        let price = c.describe_spot_price(m).unwrap();
        let sub = c.request_spot_instance(m, price).unwrap();
        assert_eq!(sub.status, SpotRequestState::Fulfilled);
        let err = c.cancel_spot_request(sub.id).unwrap_err();
        assert!(matches!(err, ApiError::InvalidState(_)));
        c.terminate_spot_instance(sub.id).unwrap();
    }

    #[test]
    fn spot_open_limit_enforced() {
        let mut c = quiet_cloud(8);
        let m = a_market(&c);
        let limit = c.config().limits.max_spot_requests_per_region;
        let mut ids = Vec::new();
        for _ in 0..limit {
            // Held (price-too-low) requests count against the limit.
            let sub = c.request_spot_instance(m, Price::from_micros(1)).unwrap();
            ids.push(sub.id);
        }
        let err = c
            .request_spot_instance(m, Price::from_micros(1))
            .unwrap_err();
        assert!(matches!(err, ApiError::SpotRequestLimitExceeded { .. }));
        for id in ids {
            c.cancel_spot_request(id).unwrap();
        }
        assert!(c.request_spot_instance(m, Price::from_micros(1)).is_ok());
    }

    #[test]
    fn rate_limit_exhausts_and_refills() {
        let mut config = SimConfig::paper(9);
        config.demand = DemandProfile::quiet();
        config.limits.api_calls_per_minute_per_region = 5;
        let mut c = Cloud::new(Catalog::testbed(), config);
        c.warmup(5);
        let m = a_market(&c);
        // Warmup consumed nothing; 5 tokens available.
        for _ in 0..5 {
            c.describe_spot_price(m).unwrap();
        }
        let err = c.describe_spot_price(m).unwrap_err();
        assert!(matches!(err, ApiError::RequestLimitExceeded { .. }));
        // After a tick (300 s), the bucket has refilled.
        c.tick();
        assert!(c.describe_spot_price(m).is_ok());
    }

    #[test]
    fn price_history_requires_watch() {
        let mut config = SimConfig::paper(10);
        let mut c = Cloud::new(Catalog::testbed(), config.clone());
        let m = a_market(&c);
        c.warmup(100);
        assert!(c.trace().history(m).is_empty());
        let _ = &mut config;
        c.watch_market(m);
        c.warmup(200);
        // A watched volatile market accumulates history.
        let hist = c.trace().history(m);
        assert!(!hist.is_empty(), "expected price changes after watching");
    }

    #[test]
    fn error_display_and_codes_are_stable() {
        use crate::ids::Region;
        let m = MarketId {
            az: Az::new(Region::UsEast1, 0),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::LinuxUnix,
        };
        let r = Region::EuWest1;
        // Every variant, its code string, and a Display fragment — the
        // codes are a wire format consumers match on, so drift here is
        // an API break.
        let cases: Vec<(ApiError, &str, &str)> = vec![
            (
                ApiError::InsufficientInstanceCapacity { market: m },
                "InsufficientInstanceCapacity",
                "insufficient capacity",
            ),
            (
                ApiError::RequestLimitExceeded { region: r },
                "RequestLimitExceeded",
                "rate limit exceeded",
            ),
            (
                ApiError::InstanceLimitExceeded { region: r },
                "InstanceLimitExceeded",
                "instance limit reached",
            ),
            (
                ApiError::SpotRequestLimitExceeded { region: r },
                "MaxSpotInstanceCountExceeded",
                "spot request limit reached",
            ),
            (
                ApiError::MaxSpotPriceTooHigh {
                    market: m,
                    cap: Price::from_dollars(1.05),
                },
                "SpotMaxPriceTooHigh",
                "cap",
            ),
            (
                ApiError::InvalidParameter("x".into()),
                "InvalidParameterValue",
                "invalid parameter",
            ),
            (
                ApiError::NotFound("x".into()),
                "InvalidResourceID.NotFound",
                "not found",
            ),
            (
                ApiError::InvalidState("x".into()),
                "IncorrectState",
                "incorrect state",
            ),
            (
                ApiError::ServiceUnavailable { region: r },
                "Unavailable",
                "unavailable",
            ),
            (
                ApiError::InternalError { region: r },
                "InternalError",
                "internal service error",
            ),
        ];
        for (err, code, fragment) in cases {
            assert_eq!(err.error_code(), code, "{err:?}");
            assert!(
                err.to_string().contains(fragment),
                "{err:?} display {:?} should contain {fragment:?}",
                err.to_string()
            );
        }
    }

    #[test]
    fn retryability_is_endpoint_conditions_only() {
        use crate::ids::Region;
        let m = MarketId {
            az: Az::new(Region::UsEast1, 0),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::LinuxUnix,
        };
        let r = Region::UsEast1;
        for retryable in [
            ApiError::RequestLimitExceeded { region: r },
            ApiError::ServiceUnavailable { region: r },
            ApiError::InternalError { region: r },
        ] {
            assert!(retryable.is_retryable(), "{retryable:?}");
            assert_eq!(retryable.region(), Some(r));
        }
        for terminal in [
            ApiError::InsufficientInstanceCapacity { market: m },
            ApiError::InstanceLimitExceeded { region: r },
            ApiError::SpotRequestLimitExceeded { region: r },
            ApiError::MaxSpotPriceTooHigh {
                market: m,
                cap: Price::from_dollars(1.0),
            },
            ApiError::InvalidParameter("x".into()),
            ApiError::NotFound("x".into()),
            ApiError::InvalidState("x".into()),
        ] {
            assert!(!terminal.is_retryable(), "{terminal:?}");
        }
    }

    #[test]
    fn chaos_outage_fails_api_calls_then_recovers() {
        use crate::chaos::ChaosWindow;
        use crate::ids::Region;
        use crate::time::SimDuration;
        let mut config = SimConfig::paper(11);
        config.demand = DemandProfile::quiet();
        config.chaos.outages.push(ChaosWindow {
            region: Region::UsEast1,
            start: SimTime::from_secs(300 * 12),
            duration: SimDuration::from_secs(300 * 4),
        });
        let mut c = Cloud::new(Catalog::testbed(), config);
        c.warmup(10);
        let m = a_market(&c);
        assert_eq!(m.region(), Region::UsEast1, "testbed leads with us-east-1");
        assert!(c.describe_spot_price(m).is_ok(), "before the outage");
        c.warmup(4); // into the window
        let err = c.describe_spot_price(m).unwrap_err();
        assert_eq!(err.error_code(), "Unavailable");
        assert!(err.is_retryable());
        c.warmup(4); // past the window
        assert!(c.describe_spot_price(m).is_ok(), "after the outage");
    }

    #[test]
    fn chaos_throttle_storm_drains_the_bucket() {
        use crate::chaos::ChaosWindow;
        use crate::ids::Region;
        use crate::time::SimDuration;
        let mut config = SimConfig::paper(12);
        config.demand = DemandProfile::quiet();
        config.limits.api_calls_per_minute_per_region = 6;
        config.chaos.throttle_storms.push(ChaosWindow {
            region: Region::UsEast1,
            start: SimTime::from_secs(300 * 10),
            duration: SimDuration::from_secs(300 * 2),
        });
        let mut c = Cloud::new(Catalog::testbed(), config);
        c.warmup(10);
        let m = a_market(&c);
        // Inside the storm every call throttles, even the first.
        let err = c.describe_spot_price(m).unwrap_err();
        assert!(matches!(err, ApiError::RequestLimitExceeded { .. }));
        // After the storm the bucket refills from zero: one tick of
        // elapsed time at 6/min is plenty for a call.
        c.warmup(3);
        assert!(c.describe_spot_price(m).is_ok(), "post-storm refill");
    }
}
