//! The shared physical capacity pool behind each family × zone.
//!
//! This module implements the paper's Figure 2.2: reserved, on-demand,
//! and spot servers in a market are carved out of *one* pool of physical
//! resources. The pool enforces the two bounds derived in §2.2:
//!
//! * on-demand usage can never exceed `physical − reserved_granted`
//!   (capacity promised to reservations is off-limits even when the
//!   reservations are not running), and
//! * spot supply is whatever is left after running reserved and
//!   on-demand servers: `physical − reserved_running − od_running`.
//!
//! All quantities are in normalized capacity units (see
//! [`crate::ids::Size::units`]). The pool is a passive accounting object:
//! the demand processes in [`crate::demand`] and the clearing logic in
//! [`crate::cloud`] drive it. Each pool is owned by its region's shard
//! (see the ownership model in [`crate::cloud`]): during the parallel
//! tick phase only that shard's worker may touch it, which is what lets
//! the tick fan out across regions without locks.

/// Why an on-demand admission attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OdRejection {
    /// The request would push on-demand usage above
    /// `physical − reserved_granted` — the pool is genuinely out of
    /// on-demand capacity (the paper's `InsufficientInstanceCapacity`).
    NoHeadroom,
    /// Capacity exists on paper but is still being reclaimed from spot
    /// instances that received their two-minute revocation warning; EC2
    /// rejects requests during this shift delay (§5.2.1).
    ReclaimInProgress,
}

/// Snapshot of a pool's occupancy, returned by [`CapacityPool::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSnapshot {
    /// Total physical units.
    pub physical: u64,
    /// Units promised to granted reservations.
    pub reserved_granted: u64,
    /// Units of running reserved instances.
    pub reserved_running: u64,
    /// Units of organic (background demand) on-demand instances.
    pub od_organic: u64,
    /// Units of externally launched (API) on-demand instances.
    pub od_external: u64,
    /// Units of spot instances allocated by the market clearing.
    pub spot_market: u64,
    /// Units of externally launched (API) spot instances.
    pub spot_external: u64,
    /// Organic on-demand demand the pool could not serve, in units.
    pub od_unmet: u64,
    /// Fraction of free spot room withheld from new fulfilment
    /// ("parked", the low-price capacity withholding of §5.3).
    pub parked_frac: f64,
}

impl PoolSnapshot {
    /// Units in use by anything.
    pub fn occupied(&self) -> u64 {
        self.reserved_running + self.od_running() + self.spot_running()
    }

    /// Total running on-demand units.
    pub fn od_running(&self) -> u64 {
        self.od_organic + self.od_external
    }

    /// Total running spot units.
    pub fn spot_running(&self) -> u64 {
        self.spot_market + self.spot_external
    }

    /// Completely idle units.
    pub fn idle(&self) -> u64 {
        self.physical - self.occupied()
    }
}

/// One physical capacity pool (family × availability zone).
#[derive(Debug, Clone)]
pub struct CapacityPool {
    physical: u64,
    reserved_granted: u64,
    reserved_running: u64,
    od_organic: u64,
    od_external: u64,
    spot_market: u64,
    spot_external: u64,
    od_unmet: u64,
    parked_frac: f64,
    /// True while capacity is being shifted from spot to on-demand
    /// (the two-minute revocation lag).
    reclaiming: bool,
}

impl CapacityPool {
    /// Creates a pool with `physical` total units, of which
    /// `reserved_granted` are promised to reservations.
    ///
    /// # Panics
    ///
    /// Panics if `reserved_granted > physical`.
    pub fn new(physical: u64, reserved_granted: u64) -> Self {
        assert!(
            reserved_granted <= physical,
            "reserved_granted ({reserved_granted}) exceeds physical ({physical})"
        );
        CapacityPool {
            physical,
            reserved_granted,
            reserved_running: 0,
            od_organic: 0,
            od_external: 0,
            spot_market: 0,
            spot_external: 0,
            od_unmet: 0,
            parked_frac: 0.0,
            reclaiming: false,
        }
    }

    /// Total physical units.
    pub fn physical(&self) -> u64 {
        self.physical
    }

    /// Units promised to granted reservations.
    pub fn reserved_granted(&self) -> u64 {
        self.reserved_granted
    }

    /// The ceiling on total on-demand usage: `physical − reserved_granted`
    /// (§2.2's upper bound).
    pub fn od_cap(&self) -> u64 {
        self.physical - self.reserved_granted
    }

    /// Units still available to new on-demand requests.
    pub fn od_headroom(&self) -> u64 {
        self.od_cap()
            .saturating_sub(self.od_organic + self.od_external)
    }

    /// Units available to the spot market after running reserved and
    /// on-demand servers (§2.2), *excluding* externally held spot
    /// instances (they already occupy their share).
    pub fn spot_supply(&self) -> u64 {
        self.physical
            .saturating_sub(self.reserved_running + self.od_organic + self.od_external)
            .saturating_sub(self.spot_external)
    }

    /// Whether organic on-demand demand currently exceeds what the pool
    /// can serve — the pool-wide shortage state.
    pub fn od_shortage(&self) -> bool {
        self.od_unmet > 0
    }

    /// Organic demand the pool could not serve, in units.
    pub fn od_unmet(&self) -> u64 {
        self.od_unmet
    }

    /// Fraction of free spot room withheld from new fulfilment.
    pub fn parked_frac(&self) -> f64 {
        self.parked_frac
    }

    /// Whether the operator is currently withholding capacity.
    pub fn parking_active(&self) -> bool {
        self.parked_frac > 0.0
    }

    /// True while capacity is being reclaimed from revoked spot servers.
    pub fn reclaiming(&self) -> bool {
        self.reclaiming
    }

    /// A copyable snapshot of the pool's occupancy.
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            physical: self.physical,
            reserved_granted: self.reserved_granted,
            reserved_running: self.reserved_running,
            od_organic: self.od_organic,
            od_external: self.od_external,
            spot_market: self.spot_market,
            spot_external: self.spot_external,
            od_unmet: self.od_unmet,
            parked_frac: self.parked_frac,
        }
    }

    /// Checks whether an on-demand request for `units` would be admitted,
    /// without mutating the pool.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when the request would be refused.
    pub fn check_od_admission(&self, units: u64) -> Result<(), OdRejection> {
        if units > self.od_headroom() {
            return Err(OdRejection::NoHeadroom);
        }
        // Capacity held by external spot instances cannot be displaced
        // instantly (they get the two-minute warning first).
        let free_excl_bg = self
            .physical
            .saturating_sub(self.reserved_running + self.od_organic + self.od_external)
            .saturating_sub(self.spot_external);
        if units > free_excl_bg {
            return Err(OdRejection::NoHeadroom);
        }
        // Admitting this request requires displacing background spot
        // capacity that has not finished shutting down yet.
        if self.reclaiming && units > free_excl_bg.saturating_sub(self.spot_market) {
            return Err(OdRejection::ReclaimInProgress);
        }
        Ok(())
    }

    /// Admits an externally launched on-demand instance of `units`.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when the pool cannot serve it.
    pub fn admit_od_external(&mut self, units: u64) -> Result<(), OdRejection> {
        self.check_od_admission(units)?;
        self.od_external += units;
        // Displace background spot capacity to make room; the reclaim
        // window (not this accounting) models the two-minute delay as
        // seen by subsequent admission checks.
        self.spot_market = self.spot_market.min(self.spot_supply());
        debug_assert!(self.invariants_hold());
        Ok(())
    }

    /// Releases an externally launched on-demand instance.
    ///
    /// # Panics
    ///
    /// Panics if more units are released than are held.
    pub fn release_od_external(&mut self, units: u64) {
        assert!(
            units <= self.od_external,
            "releasing {units} od units but only {} held",
            self.od_external
        );
        self.od_external -= units;
    }

    /// Admits an externally launched spot instance of `units`; the caller
    /// (the market clearing in [`crate::cloud`]) is responsible for
    /// checking price and parking rules first.
    ///
    /// Returns `false` without mutating if the pool has no free capacity.
    pub fn admit_spot_external(&mut self, units: u64) -> bool {
        if units > self.spot_supply().saturating_sub(self.spot_market) {
            return false;
        }
        self.spot_external += units;
        debug_assert!(self.invariants_hold());
        true
    }

    /// Releases an externally launched spot instance.
    ///
    /// # Panics
    ///
    /// Panics if more units are released than are held.
    pub fn release_spot_external(&mut self, units: u64) {
        assert!(
            units <= self.spot_external,
            "releasing {units} spot units but only {} held",
            self.spot_external
        );
        self.spot_external -= units;
    }

    /// Units currently held by external spot instances.
    pub fn spot_external(&self) -> u64 {
        self.spot_external
    }

    /// Units currently held by external on-demand instances.
    pub fn od_external(&self) -> u64 {
        self.od_external
    }

    /// Applies one demand-process step. Called once per tick by the cloud.
    ///
    /// * `reserved_running_target` — desired running reserved units.
    /// * `od_organic_target` — desired organic on-demand units.
    /// * `parked_frac` — fraction of free spot room the operator
    ///   withholds from new spot fulfilment (clamped to `[0, 1]`).
    ///
    /// Reserved demand is served first (its guarantee), then on-demand up
    /// to the §2.2 cap; whatever organic demand cannot be served is
    /// recorded in [`CapacityPool::od_unmet`]. Returns the spot units that
    /// had to be displaced to make room (used to trigger revocations and
    /// the reclaim window).
    pub fn apply_demand(
        &mut self,
        reserved_running_target: u64,
        od_organic_target: u64,
        parked_frac: f64,
    ) -> u64 {
        // Reserved demand is served first, but even it cannot instantly
        // displace externally held instances.
        let res_room = self
            .physical
            .saturating_sub(self.od_external + self.spot_external);
        self.reserved_running = reserved_running_target
            .min(self.reserved_granted)
            .min(res_room);

        // On-demand: capped by §2.2, by what external instances hold, and
        // by the physical space left after reserved and external usage.
        let od_cap_left = self.od_cap().saturating_sub(self.od_external);
        let physical_room = self
            .physical
            .saturating_sub(self.reserved_running + self.od_external + self.spot_external);
        let served = od_organic_target.min(od_cap_left).min(physical_room);
        self.od_unmet = od_organic_target - served;
        self.od_organic = served;

        // Whatever spot_market held beyond the new supply is displaced.
        let supply = self.spot_supply();
        let displaced = self.spot_market.saturating_sub(supply);
        self.spot_market = self.spot_market.min(supply);

        self.parked_frac = parked_frac.clamp(0.0, 1.0);
        debug_assert!(self.invariants_hold());
        displaced
    }

    /// Sets the units allocated by the market clearing, clamped to the
    /// available spot supply. Returns the clamped value.
    pub fn set_spot_market(&mut self, units: u64) -> u64 {
        self.spot_market = units.min(self.spot_supply());
        debug_assert!(self.invariants_hold());
        self.spot_market
    }

    /// Units allocated to the spot market by clearing.
    pub fn spot_market_units(&self) -> u64 {
        self.spot_market
    }

    /// Marks or clears the reclaim-in-progress window.
    pub fn set_reclaiming(&mut self, reclaiming: bool) {
        self.reclaiming = reclaiming;
    }

    /// Inst~units available to *new* spot fulfilment after parking:
    /// the free spot room scaled down by the parked fraction.
    pub fn spot_fulfilment_room(&self) -> u64 {
        let free = self.spot_supply().saturating_sub(self.spot_market);
        ((free as f64) * (1.0 - self.parked_frac)).round() as u64
    }

    fn occupied(&self) -> u64 {
        self.reserved_running
            + self.od_organic
            + self.od_external
            + self.spot_market
            + self.spot_external
    }

    /// The conservation invariant: nothing ever over-commits the pool.
    pub fn invariants_hold(&self) -> bool {
        self.reserved_running <= self.reserved_granted
            && self.occupied() <= self.physical
            && self.od_organic + self.od_external <= self.od_cap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> CapacityPool {
        CapacityPool::new(100, 40)
    }

    #[test]
    fn od_cap_follows_reserved_grant() {
        let p = pool();
        assert_eq!(p.od_cap(), 60);
        assert_eq!(p.od_headroom(), 60);
    }

    #[test]
    fn organic_demand_is_capped_and_unmet_recorded() {
        let mut p = pool();
        p.apply_demand(20, 80, 0.0);
        assert_eq!(p.snapshot().od_organic, 60);
        assert_eq!(p.od_unmet(), 20);
        assert!(p.od_shortage());
        assert_eq!(p.od_headroom(), 0);
    }

    #[test]
    fn spot_supply_shrinks_with_od_and_reserved() {
        let mut p = pool();
        assert_eq!(p.spot_supply(), 100);
        p.apply_demand(30, 40, 0.0);
        assert_eq!(p.spot_supply(), 30);
    }

    #[test]
    fn displacement_reported_when_od_grows() {
        let mut p = pool();
        p.apply_demand(0, 0, 0.0);
        p.set_spot_market(100);
        assert_eq!(p.spot_market_units(), 100);
        let displaced = p.apply_demand(0, 50, 0.0);
        assert_eq!(displaced, 50);
        assert_eq!(p.spot_market_units(), 50);
    }

    #[test]
    fn external_od_admission_checks_headroom() {
        let mut p = pool();
        p.apply_demand(0, 55, 0.0);
        assert_eq!(p.admit_od_external(4), Ok(()));
        assert_eq!(
            p.admit_od_external(2),
            Err(OdRejection::NoHeadroom),
            "55 organic + 4 external + 2 > cap 60"
        );
        p.release_od_external(4);
        assert_eq!(p.od_headroom(), 5);
    }

    #[test]
    fn reclaim_window_blocks_od_that_needs_displacement() {
        let mut p = pool();
        p.apply_demand(0, 0, 0.0);
        p.set_spot_market(100);
        p.set_reclaiming(true);
        // All capacity is spot-held and still shutting down.
        assert_eq!(p.check_od_admission(8), Err(OdRejection::ReclaimInProgress));
        p.set_reclaiming(false);
        assert_eq!(p.check_od_admission(8), Ok(()));
    }

    #[test]
    fn external_spot_occupies_and_releases() {
        let mut p = pool();
        assert!(p.admit_spot_external(10));
        assert_eq!(p.spot_supply(), 90);
        p.release_spot_external(10);
        assert_eq!(p.spot_supply(), 100);
    }

    #[test]
    fn spot_external_admission_fails_when_full() {
        let mut p = pool();
        p.apply_demand(40, 60, 0.0);
        assert_eq!(p.spot_supply(), 0);
        assert!(!p.admit_spot_external(1));
    }

    #[test]
    fn parking_reduces_fulfilment_room() {
        let mut p = pool();
        p.apply_demand(0, 50, 0.0);
        assert_eq!(p.spot_supply(), 50);
        assert_eq!(p.spot_fulfilment_room(), 50);
        p.apply_demand(0, 50, 0.9);
        assert_eq!(p.spot_fulfilment_room(), 5);
        p.apply_demand(0, 50, 1.0);
        assert_eq!(p.spot_fulfilment_room(), 0);
        // Out-of-range fractions are clamped.
        p.apply_demand(0, 50, 7.0);
        assert_eq!(p.spot_fulfilment_room(), 0);
    }

    #[test]
    fn snapshot_consistency() {
        let mut p = pool();
        p.apply_demand(20, 30, 0.1);
        p.set_spot_market(10);
        assert_eq!(p.admit_od_external(2), Ok(()));
        let s = p.snapshot();
        assert_eq!(s.occupied(), 20 + 30 + 2 + 10);
        assert_eq!(s.idle(), 100 - s.occupied());
        assert!(p.invariants_hold());
    }

    #[test]
    #[should_panic(expected = "exceeds physical")]
    fn overcommitted_grant_panics() {
        let _ = CapacityPool::new(10, 11);
    }
}
