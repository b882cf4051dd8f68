//! Step-function views over recorded data: price series and
//! availability timelines.
//!
//! Both case studies replay *measured* data — a market's published price
//! history and the on-demand unavailability intervals SpotLight
//! collected — so the inputs here are exactly what
//! `spotlight_core::store::DataStore` and the simulator's trace store
//! produce.

use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use cloud_sim::trace::PricePoint;

/// A right-continuous step function of price over time.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceSeries {
    points: Vec<PricePoint>,
}

impl PriceSeries {
    /// Wraps a recorded history (must be time-sorted, as the trace store
    /// guarantees).
    ///
    /// # Panics
    ///
    /// Panics if the points are not sorted by time.
    pub fn new(points: Vec<PricePoint>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].at <= w[1].at),
            "price history must be time-sorted"
        );
        PriceSeries { points }
    }

    /// True when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The recorded points.
    pub fn points(&self) -> &[PricePoint] {
        &self.points
    }

    /// First recorded timestamp.
    pub fn start(&self) -> Option<SimTime> {
        self.points.first().map(|p| p.at)
    }

    /// Last recorded timestamp.
    pub fn end(&self) -> Option<SimTime> {
        self.points.last().map(|p| p.at)
    }

    /// The price in force at `t` (the last change at or before `t`).
    pub fn at(&self, t: SimTime) -> Option<Price> {
        let i = self.points.partition_point(|p| p.at <= t);
        i.checked_sub(1).map(|i| self.points[i].price)
    }

    /// The first time at or after `t` where the price rises strictly
    /// above `threshold`; `None` if it never does (within the record).
    pub fn next_above(&self, t: SimTime, threshold: Price) -> Option<SimTime> {
        if self.at(t).is_some_and(|p| p > threshold) {
            return Some(t);
        }
        let i = self.points.partition_point(|p| p.at <= t);
        self.points[i..]
            .iter()
            .find(|p| p.price > threshold)
            .map(|p| p.at)
    }

    /// The first time at or after `t` where the price is at or below
    /// `threshold`; `None` if it never is (within the record).
    pub fn next_at_or_below(&self, t: SimTime, threshold: Price) -> Option<SimTime> {
        if self.at(t).is_some_and(|p| p <= threshold) {
            return Some(t);
        }
        let i = self.points.partition_point(|p| p.at <= t);
        self.points[i..]
            .iter()
            .find(|p| p.price <= threshold)
            .map(|p| p.at)
    }
}

/// A timeline of unavailability intervals (closed-open, time-sorted,
/// non-overlapping after normalization).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AvailabilityTimeline {
    /// Sorted, merged `(start, end)` unavailability intervals in seconds.
    intervals: Vec<(u64, u64)>,
}

impl AvailabilityTimeline {
    /// Builds a timeline from raw `(start, end)` intervals; open-ended
    /// intervals should be clamped by the caller to the observation end.
    pub fn from_intervals(mut raw: Vec<(SimTime, SimTime)>) -> Self {
        raw.sort_by_key(|&(s, _)| s);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            let (s, e) = (s.as_secs(), e.as_secs());
            if e <= s {
                continue;
            }
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        AvailabilityTimeline { intervals: merged }
    }

    /// Whether the resource is unavailable at `t`.
    pub fn unavailable_at(&self, t: SimTime) -> bool {
        let t = t.as_secs();
        let i = self.intervals.partition_point(|&(s, _)| s <= t);
        i.checked_sub(1).is_some_and(|i| self.intervals[i].1 > t)
    }

    /// The first time at or after `t` when the resource is available.
    pub fn next_available(&self, t: SimTime) -> SimTime {
        let secs = t.as_secs();
        let i = self.intervals.partition_point(|&(s, _)| s <= secs);
        match i.checked_sub(1) {
            Some(i) if self.intervals[i].1 > secs => SimTime::from_secs(self.intervals[i].1),
            _ => t,
        }
    }

    /// Total unavailable seconds within `[from, to)`.
    pub fn unavailable_secs(&self, from: SimTime, to: SimTime) -> u64 {
        let (from, to) = (from.as_secs(), to.as_secs());
        self.intervals
            .iter()
            .map(|&(s, e)| e.min(to).saturating_sub(s.max(from)))
            .sum()
    }

    /// The merged intervals.
    pub fn intervals(&self) -> &[(u64, u64)] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn price_lookup_is_right_continuous() {
        let s = series(&[(0, 0.1), (100, 0.5), (200, 0.2)]);
        assert_eq!(s.at(SimTime::from_secs(0)), Some(Price::from_dollars(0.1)));
        assert_eq!(s.at(SimTime::from_secs(99)), Some(Price::from_dollars(0.1)));
        assert_eq!(
            s.at(SimTime::from_secs(100)),
            Some(Price::from_dollars(0.5))
        );
        assert_eq!(
            s.at(SimTime::from_secs(500)),
            Some(Price::from_dollars(0.2))
        );
    }

    #[test]
    fn crossings() {
        let s = series(&[(0, 0.1), (100, 0.5), (200, 0.2), (300, 0.7)]);
        let th = Price::from_dollars(0.4);
        assert_eq!(
            s.next_above(SimTime::ZERO, th),
            Some(SimTime::from_secs(100))
        );
        assert_eq!(
            s.next_above(SimTime::from_secs(150), th),
            Some(SimTime::from_secs(150)),
            "already above"
        );
        assert_eq!(
            s.next_above(SimTime::from_secs(201), th),
            Some(SimTime::from_secs(300))
        );
        assert_eq!(
            s.next_at_or_below(SimTime::from_secs(100), th),
            Some(SimTime::from_secs(200))
        );
        assert_eq!(
            s.next_above(SimTime::from_secs(301), Price::from_dollars(1.0)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_history_panics() {
        let _ = series(&[(100, 0.1), (0, 0.2)]);
    }

    #[test]
    fn timeline_merges_overlaps() {
        let tl = AvailabilityTimeline::from_intervals(vec![
            (SimTime::from_secs(100), SimTime::from_secs(200)),
            (SimTime::from_secs(150), SimTime::from_secs(300)),
            (SimTime::from_secs(500), SimTime::from_secs(600)),
            (SimTime::from_secs(50), SimTime::from_secs(40)), // degenerate
        ]);
        assert_eq!(tl.intervals(), &[(100, 300), (500, 600)]);
        assert!(tl.unavailable_at(SimTime::from_secs(250)));
        assert!(!tl.unavailable_at(SimTime::from_secs(300)));
        assert!(!tl.unavailable_at(SimTime::from_secs(400)));
        assert_eq!(
            tl.next_available(SimTime::from_secs(250)),
            SimTime::from_secs(300)
        );
        assert_eq!(
            tl.next_available(SimTime::from_secs(400)),
            SimTime::from_secs(400)
        );
        assert_eq!(
            tl.unavailable_secs(SimTime::ZERO, SimTime::from_secs(1000)),
            300
        );
        assert_eq!(
            tl.unavailable_secs(SimTime::from_secs(200), SimTime::from_secs(550)),
            150
        );
    }
}
