//! Trace recording: published price histories and ground-truth shortage
//! intervals.
//!
//! Recording every price change of every market for a three-month run is
//! memory-heavy, so by default only *watched* markets keep full price
//! histories (the figures that need full series — 2.1, 5.1–5.3, 6.1/6.2 —
//! watch their markets explicitly). Ground-truth pool shortage intervals
//! are always recorded; they are the simulator-side truth that the
//! SpotLight *probe-side* measurements are validated against.

use crate::ids::{MarketId, PoolId};
use crate::price::Price;
use crate::time::SimTime;
use std::collections::{HashMap, HashSet};

/// One point in a market's published price history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricePoint {
    /// When the price became visible.
    pub at: SimTime,
    /// The published price.
    pub price: Price,
}

/// A completed or open ground-truth shortage interval of one pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortageInterval {
    /// The pool that ran short of on-demand capacity.
    pub pool: PoolId,
    /// When the shortage began.
    pub start: SimTime,
    /// When it ended; `None` while still open.
    pub end: Option<SimTime>,
}

/// Store of recorded traces.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    record_all: bool,
    watched: HashSet<MarketId>,
    histories: HashMap<MarketId, Vec<PricePoint>>,
    shortages: Vec<ShortageInterval>,
    open_shortage: HashMap<PoolId, usize>,
}

impl TraceStore {
    /// Creates a store; `record_all` keeps full histories for every
    /// market instead of only watched ones.
    pub fn new(record_all: bool) -> Self {
        TraceStore {
            record_all,
            ..TraceStore::default()
        }
    }

    /// Starts recording the full price history of `market`.
    pub fn watch(&mut self, market: MarketId) {
        self.watched.insert(market);
    }

    /// Whether `market`'s history is being recorded.
    pub fn is_watched(&self, market: MarketId) -> bool {
        self.record_all || self.watched.contains(&market)
    }

    /// Records a published price change.
    pub fn record_price(&mut self, market: MarketId, at: SimTime, price: Price) {
        if !self.is_watched(market) {
            return;
        }
        let history = self.histories.entry(market).or_default();
        debug_assert!(history.last().is_none_or(|p| p.at <= at));
        history.push(PricePoint { at, price });
    }

    /// The recorded price history of a market, oldest first. Empty if the
    /// market is not watched.
    pub fn history(&self, market: MarketId) -> &[PricePoint] {
        self.histories.get(&market).map_or(&[], Vec::as_slice)
    }

    /// The price in force at time `t` according to the recorded history.
    pub fn price_at(&self, market: MarketId, t: SimTime) -> Option<Price> {
        let h = self.history(market);
        let idx = h.partition_point(|p| p.at <= t);
        idx.checked_sub(1).map(|i| h[i].price)
    }

    /// Marks the start of a ground-truth shortage in `pool`.
    pub fn shortage_started(&mut self, pool: PoolId, at: SimTime) {
        if self.open_shortage.contains_key(&pool) {
            return;
        }
        self.open_shortage.insert(pool, self.shortages.len());
        self.shortages.push(ShortageInterval {
            pool,
            start: at,
            end: None,
        });
    }

    /// Marks the end of a ground-truth shortage in `pool`.
    pub fn shortage_ended(&mut self, pool: PoolId, at: SimTime) {
        if let Some(idx) = self.open_shortage.remove(&pool) {
            self.shortages[idx].end = Some(at);
        }
    }

    /// All recorded shortage intervals (open ones have `end == None`).
    pub fn shortages(&self) -> &[ShortageInterval] {
        &self.shortages
    }

    /// Whether `pool` is in a ground-truth shortage at this moment.
    pub fn shortage_open(&self, pool: PoolId) -> bool {
        self.open_shortage.contains_key(&pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Az, Family, Platform, Region};

    fn market() -> MarketId {
        MarketId {
            az: Az::new(Region::UsEast1, 0),
            instance_type: "c3.large".parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    fn pool() -> PoolId {
        PoolId {
            az: Az::new(Region::UsEast1, 0),
            family: Family::C3,
        }
    }

    #[test]
    fn unwatched_markets_record_nothing() {
        let mut t = TraceStore::new(false);
        t.record_price(market(), SimTime::ZERO, Price::from_dollars(0.1));
        assert!(t.history(market()).is_empty());
        assert!(t.histories.is_empty());
    }

    #[test]
    fn watched_markets_record_history() {
        let mut t = TraceStore::new(false);
        t.watch(market());
        for (s, p) in [(0u64, 0.1), (100, 0.2), (200, 0.15)] {
            t.record_price(market(), SimTime::from_secs(s), Price::from_dollars(p));
        }
        assert_eq!(t.history(market()).len(), 3);
        assert_eq!(
            t.price_at(market(), SimTime::from_secs(150)),
            Some(Price::from_dollars(0.2))
        );
        assert_eq!(
            t.price_at(market(), SimTime::from_secs(0)),
            Some(Price::from_dollars(0.1))
        );
    }

    #[test]
    fn record_all_overrides_watch_list() {
        let mut t = TraceStore::new(true);
        t.record_price(market(), SimTime::ZERO, Price::from_dollars(0.1));
        assert_eq!(t.history(market()).len(), 1);
    }

    #[test]
    fn price_before_history_is_none() {
        let mut t = TraceStore::new(true);
        t.record_price(market(), SimTime::from_secs(100), Price::from_dollars(0.1));
        assert_eq!(t.price_at(market(), SimTime::from_secs(50)), None);
    }

    #[test]
    fn shortage_intervals_open_and_close() {
        let mut t = TraceStore::new(false);
        t.shortage_started(pool(), SimTime::from_secs(10));
        assert!(t.shortage_open(pool()));
        // Double-start is idempotent.
        t.shortage_started(pool(), SimTime::from_secs(20));
        t.shortage_ended(pool(), SimTime::from_secs(30));
        assert!(!t.shortage_open(pool()));
        // Double-end is idempotent.
        t.shortage_ended(pool(), SimTime::from_secs(40));
        assert_eq!(t.shortages().len(), 1);
        assert_eq!(t.shortages()[0].start, SimTime::from_secs(10));
        assert_eq!(t.shortages()[0].end, Some(SimTime::from_secs(30)));
    }
}
