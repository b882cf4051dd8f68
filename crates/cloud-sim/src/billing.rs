//! Usage billing: the account ledger SpotLight's probing budget draws on.
//!
//! EC2 bills by the started hour (§2.2 "each probe may incur a cost,
//! since there is a minimum charge — one hour of server time"). Spot
//! instances reclaimed by EC2 (terminated by price) get their final
//! partial hour free, which SpotLight's cost model exploits.

use crate::ids::MarketId;
use crate::price::Price;
use crate::time::{SimDuration, SimTime};

/// What kind of usage a billing record covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsageKind {
    /// On-demand instance time.
    OnDemand,
    /// Spot instance time, terminated by the user.
    Spot,
    /// Spot instance time, reclaimed by the platform (partial hour free).
    SpotRevoked,
}

/// One charge on the account.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingRecord {
    /// When the charge was applied.
    pub at: SimTime,
    /// The market the instance ran in.
    pub market: MarketId,
    /// The kind of usage.
    pub kind: UsageKind,
    /// Billed whole hours.
    pub hours: u64,
    /// Hourly rate applied.
    pub rate: Price,
    /// Total amount (`rate × hours`).
    pub amount: Price,
}

/// The account ledger: an append-only log of charges.
///
/// # Examples
///
/// ```
/// use cloud_sim::billing::Ledger;
/// let ledger = Ledger::new();
/// assert!(ledger.total().is_zero());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    records: Vec<BillingRecord>,
    total: Price,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Charges for an instance that ran for `used` at `rate` per hour.
    ///
    /// On-demand and user-terminated spot usage round the final partial
    /// hour *up*; platform-revoked spot usage rounds it *down* (the
    /// reclaimed partial hour is free). Returns the amount charged.
    pub fn charge(
        &mut self,
        at: SimTime,
        market: MarketId,
        kind: UsageKind,
        used: SimDuration,
        rate: Price,
    ) -> Price {
        let hours = match kind {
            UsageKind::OnDemand | UsageKind::Spot => used.billing_hours().max(1),
            UsageKind::SpotRevoked => used.as_secs() / 3600,
        };
        let amount = rate.times(hours);
        self.total += amount;
        self.records.push(BillingRecord {
            at,
            market,
            kind,
            hours,
            rate,
            amount,
        });
        amount
    }

    /// Total spend so far.
    pub fn total(&self) -> Price {
        self.total
    }

    /// All charges, oldest first.
    pub fn records(&self) -> &[BillingRecord] {
        &self.records
    }

    /// Spend within `[from, to)`.
    pub fn spend_between(&self, from: SimTime, to: SimTime) -> Price {
        self.records
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .map(|r| r.amount)
            .sum()
    }

    /// Spend per usage kind so far.
    pub fn spend_by_kind(&self, kind: UsageKind) -> Price {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.amount)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Az, Platform, Region};

    fn market() -> MarketId {
        MarketId {
            az: Az::new(Region::UsEast1, 0),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    #[test]
    fn od_minimum_one_hour() {
        let mut l = Ledger::new();
        let amt = l.charge(
            SimTime::from_secs(10),
            market(),
            UsageKind::OnDemand,
            SimDuration::from_secs(5),
            Price::from_dollars(0.105),
        );
        assert_eq!(amt, Price::from_dollars(0.105));
        assert_eq!(l.total(), amt);
    }

    #[test]
    fn partial_hours_round_up_for_user_terminated() {
        let mut l = Ledger::new();
        let amt = l.charge(
            SimTime::ZERO,
            market(),
            UsageKind::Spot,
            SimDuration::from_secs(3601),
            Price::from_dollars(0.1),
        );
        assert_eq!(amt, Price::from_dollars(0.2));
    }

    #[test]
    fn revoked_spot_partial_hour_free() {
        let mut l = Ledger::new();
        let amt = l.charge(
            SimTime::ZERO,
            market(),
            UsageKind::SpotRevoked,
            SimDuration::from_secs(90 * 60),
            Price::from_dollars(0.1),
        );
        assert_eq!(amt, Price::from_dollars(0.1), "only the full hour billed");
        let amt2 = l.charge(
            SimTime::ZERO,
            market(),
            UsageKind::SpotRevoked,
            SimDuration::from_secs(59 * 60),
            Price::from_dollars(0.1),
        );
        assert!(amt2.is_zero(), "sub-hour revoked usage is free");
    }

    #[test]
    fn window_and_kind_queries() {
        let mut l = Ledger::new();
        for (t, kind) in [
            (0u64, UsageKind::OnDemand),
            (100, UsageKind::Spot),
            (200, UsageKind::OnDemand),
        ] {
            l.charge(
                SimTime::from_secs(t),
                market(),
                kind,
                SimDuration::hours(1),
                Price::from_dollars(1.0),
            );
        }
        assert_eq!(
            l.spend_between(SimTime::from_secs(0), SimTime::from_secs(150)),
            Price::from_dollars(2.0)
        );
        assert_eq!(
            l.spend_by_kind(UsageKind::OnDemand),
            Price::from_dollars(2.0)
        );
        assert_eq!(l.records().len(), 3);
    }
}
