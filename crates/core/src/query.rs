//! SpotLight's query interface: what applications ask the information
//! service.
//!
//! Chapter 3 sketches the interface ("an application might query
//! SpotLight for the top ten server types with the longest
//! mean-time-to-revocation for a bid price equal to the corresponding
//! on-demand price") and Chapter 6 uses it to steer SpotCheck and SpotOn
//! toward markets whose on-demand fallbacks are actually obtainable when
//! spot servers are revoked.
//!
//! Queries run over a [`StoreRead`] capture of the striped store, so a
//! batch of queries sees one consistent state, pays for the capture
//! once, not per call, and holds no lock while it runs.

use crate::budget::SpikeRate;
use crate::probe::ProbeKind;
use crate::shared::CowVec;
use crate::snapshot::StoreSnapshot;
use crate::store::{KeyRef, StoreRead};
use cloud_sim::ids::{MarketId, Region};
use cloud_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Availability summary of one market and contract kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityStats {
    /// Informative probes issued.
    pub probes: u64,
    /// Probes that found the market unobtainable.
    pub rejections: u64,
    /// Fraction of the observation span spent unavailable (measured from
    /// probe-bracketed intervals).
    pub unavailable_fraction: f64,
    /// Completed unavailability intervals.
    pub intervals: u64,
}

impl AvailabilityStats {
    /// The availability reading: `1 − unavailable_fraction`.
    pub fn availability(&self) -> f64 {
        1.0 - self.unavailable_fraction
    }
}

/// How current the store's knowledge of one `(market, kind)` is.
///
/// An availability estimate computed from week-old probes during a
/// regional API outage is not the same answer as one backed by a probe
/// from a minute ago; this struct is how queries say so instead of
/// fabricating confidence (the staleness half of the live mode's
/// graceful degradation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freshness {
    /// When the last *informative* probe of the key landed (probes that
    /// carried no availability information — `ApiLimited` — do not
    /// count). `None` when the key was never informatively observed.
    pub last_informative: Option<SimTime>,
    /// Age of that observation at the query span's end (the query's
    /// "now"). `None` when never observed.
    pub age: Option<SimDuration>,
    /// Whether the market's region is currently marked degraded by a
    /// live-mode circuit breaker — probes there are failing at the
    /// transport, so estimates cannot be refreshed.
    pub region_degraded: bool,
    /// If the store's *durability* is currently degraded (disk faults
    /// defeated the log writer's retries): observations at or before
    /// this time are provably on disk, later ones may not survive a
    /// crash. `None` when fully durable, including in-memory stores.
    /// Orthogonal to `region_degraded` — the answer itself is current,
    /// its crash-persistence is what is in doubt.
    pub durability_lost: Option<SimTime>,
}

impl Freshness {
    /// True when the key has an informative observation no older than
    /// `max_age` *and* the region's transport is healthy.
    pub fn is_fresh(&self, max_age: SimDuration) -> bool {
        !self.region_degraded && self.age.is_some_and(|a| a <= max_age)
    }
}

/// The `n` lowest-scored rows in ascending score order, equal scores in
/// row order — what a stable sort of every row followed by
/// `truncate(n)` yields, except that the rows beyond `n` are only
/// partitioned off, never sorted (the reference rankings scan ~5k
/// markets to return ten). Each row carries its position as the
/// tie-breaker.
fn best_n<T, K: PartialOrd>(
    mut rows: Vec<(usize, T)>,
    n: usize,
    score: impl Fn(&T) -> K,
) -> impl Iterator<Item = T> {
    let by_score_then_position = |a: &(usize, T), b: &(usize, T)| {
        score(&a.1)
            .partial_cmp(&score(&b.1))
            .expect("scores are finite")
            .then(a.0.cmp(&b.0))
    };
    if n < rows.len() {
        if n > 0 {
            rows.select_nth_unstable_by(n - 1, by_score_then_position);
        }
        rows.truncate(n);
    }
    rows.sort_unstable_by(by_score_then_position);
    rows.into_iter().map(|(_, row)| row)
}

/// P(`b` rejected within `window` of a detection of `a`) over `a`'s
/// fetched on-demand key and `b`'s time-sorted rejection times; `None`
/// when `a` has no detections.
fn conditional_unavailability(
    a: Option<KeyRef<'_>>,
    b_times: &[SimTime],
    window: SimDuration,
) -> Option<f64> {
    // Both sides are index-backed: `a`'s detections come from its
    // interval index and `b`'s rejections from its time-sorted
    // rejection index, so each trial is a binary search. The shared
    // read snapshot makes the cross-stripe access free.
    let mut trials = 0u64;
    let mut hits = 0u64;
    for i in a.into_iter().flat_map(KeyRef::intervals) {
        trials += 1;
        // `window` is a caller's (an HTTP client's) to choose.
        let to = i.start.saturating_add(window);
        let lo = b_times.partition_point(|&t| t < i.start);
        if b_times.get(lo).is_some_and(|&t| t <= to) {
            hits += 1;
        }
    }
    (trials > 0).then(|| hits as f64 / trials as f64)
}

/// What the all-market rankings read of one probed market's on-demand
/// key: its availability over the table's span, and its time-sorted
/// rejection times, shared with the capture.
#[derive(Debug)]
struct AdvisorRow {
    own: AvailabilityStats,
    rejection_times: CowVec<SimTime>,
}

/// Every probed market of one capture in `MarketId` order, one
/// contiguous [`AdvisorRow`] each: an all-market ranking walks this
/// instead of hashing every candidate into its stripe and chasing its
/// key. Derived from an immutable capture, so built at most once per
/// snapshot (see [`crate::snapshot`]) and never by the reference path —
/// [`SpotLightQuery`]'s rankings over caller-supplied candidates, which
/// the snapshot's are tested against.
///
/// Its **rank** is the row positions sorted once by (default-span
/// unavailable fraction, position) — the order both default-span
/// rankings are final in, so a request walks it and stops at `n`:
/// `top_available_markets` takes the first `n` rows its filter keeps,
/// and `uncorrelated_fallbacks`, scoring (correlation, own fraction,
/// position) with correlation ≥ 0, emits each uncorrelated candidate as
/// it is met (every one outranks every correlated one, and they are met
/// in their final order) and ranks the correlated ones it set aside
/// only if the walk runs out first.
#[derive(Debug)]
pub(crate) struct AdvisorTable {
    /// `[0, max(as_of, 1))`, the span requests default to.
    span: (SimTime, SimTime),
    pub(crate) markets: Box<[MarketId]>,
    rows: Box<[AdvisorRow]>,
    rank: Box<[u32]>,
}

impl AdvisorTable {
    pub(crate) fn build(read: &StoreRead<'_>, as_of: SimTime) -> Self {
        let span = (SimTime::ZERO, as_of.max(SimTime::from_secs(1)));
        let q = SpotLightQuery::new(read, span.0, span.1);
        let markets = q.observed_markets().into_boxed_slice();
        let row = |&market: &MarketId| {
            let key = read.key(market, ProbeKind::OnDemand);
            AdvisorRow {
                own: q.availability_of(key),
                rejection_times: key
                    .map(|k| k.state.rejection_times.clone())
                    .unwrap_or_default(),
            }
        };
        let rows: Box<[AdvisorRow]> = markets.iter().map(row).collect();
        // Fractions are finite and non-negative: their bits sort as they
        // do. (Positions fit a `u32`: market ids are a closed vocabulary.)
        let mut rank: Box<[u32]> = (0..rows.len() as u32).collect();
        rank.sort_unstable_by_key(|&at| (rows[at as usize].own.unavailable_fraction.to_bits(), at));
        AdvisorTable {
            span,
            markets,
            rows,
            rank,
        }
    }

    /// `(position, market, row)` of every probed market.
    fn rows(&self) -> impl Iterator<Item = (usize, MarketId, &AdvisorRow)> {
        let rows = self.markets.iter().zip(&self.rows).enumerate();
        rows.map(|(at, (&market, row))| (at, market, row))
    }

    /// [`Self::rows`] in rank order: most available first.
    fn ranked(&self) -> impl Iterator<Item = (usize, MarketId, &AdvisorRow)> {
        (self.rank.iter().map(|&at| at as usize)).map(|at| (at, self.markets[at], &self.rows[at]))
    }
}

/// The all-market questions, answered from the snapshot's derived
/// state (see [`crate::snapshot`]).
impl StoreSnapshot {
    /// [`SpotLightQuery::top_available_markets`] over every probed
    /// market and the span `[start, end)` (panics if it is empty): the
    /// default span, `[0, max(as_of, 1))`, walks the table's rank and
    /// stops at `n`; another asks every market's key and ranks them.
    pub fn top_available_markets(
        &self,
        span: (SimTime, SimTime),
        region: Option<Region>,
        min_probes: u64,
        n: usize,
    ) -> Vec<(MarketId, AvailabilityStats)> {
        let table = self.advisor();
        let wanted = |m: MarketId, row: &AdvisorRow| {
            row.own.probes >= min_probes && region.is_none_or(|r| m.region() == r)
        };
        if span == table.span {
            let rows = table.ranked().filter(|&(_, m, row)| wanted(m, row));
            return rows.map(|(_, m, row)| (m, row.own)).take(n).collect();
        }
        let read = self.read();
        let q = SpotLightQuery::new(&read, span.0, span.1);
        let rows = (table.rows())
            .filter(|&(_, m, row)| wanted(m, row))
            .map(|(at, m, _)| (at, (m, q.availability(m, ProbeKind::OnDemand))))
            .collect();
        best_n(rows, n, |(_, st)| st.unavailable_fraction).collect()
    }

    /// [`SpotLightQuery::uncorrelated_fallbacks`] for `market` over
    /// every probed market and the span `[0, max(as_of, 1))`, by a walk
    /// of the table's rank that stops at `n` (`AdvisorTable` says why
    /// that is exact). Only a candidate with rejections runs a
    /// correlation trial, and only against an origin with some.
    pub fn uncorrelated_fallbacks(
        &self,
        market: MarketId,
        window: SimDuration,
        n: usize,
    ) -> Vec<MarketId> {
        let (table, read) = (self.advisor(), self.read());
        let origin =
            (read.key(market, ProbeKind::OnDemand)).filter(|k| !k.state.rejection_times.is_empty());
        let pool = market.pool();
        let (mut out, mut correlated) = (Vec::new(), Vec::new());
        for (at, c, row) in table.ranked() {
            if out.len() == n {
                return out;
            }
            if c.pool() == pool {
                continue; // `market` itself included
            }
            let corr = if origin.is_none() || row.rejection_times.is_empty() {
                0.0
            } else {
                conditional_unavailability(origin, &row.rejection_times, window).unwrap_or(0.0)
            };
            if corr > 0.0 {
                correlated.push((at, (c, corr, row.own.unavailable_fraction)));
            } else {
                out.push(c);
            }
        }
        let rest = best_n(correlated, n - out.len(), |&(_, corr, own)| (corr, own));
        out.extend(rest.map(|(m, _, _)| m));
        out
    }
}

/// The query interface over a probe-database snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SpotLightQuery<'a> {
    store: &'a StoreRead<'a>,
    /// Observation span the fractions are computed over.
    span: (SimTime, SimTime),
}

impl<'a> SpotLightQuery<'a> {
    /// Creates a query interface over `store` for the observation span
    /// `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(store: &'a StoreRead<'a>, start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "observation span must be non-empty");
        SpotLightQuery {
            store,
            span: (start, end),
        }
    }

    /// Seconds of measured unavailability of `(market, kind)` inside the
    /// observation span (open intervals run to the span's end).
    ///
    /// Epoch-summarized: whole buckets for the epochs fully inside the
    /// span plus binary searches of this key's interval index for the
    /// two boundary epochs — O(buckets + log intervals), not O(intervals
    /// in span).
    pub fn unavailable_seconds(&self, market: MarketId, kind: ProbeKind) -> u64 {
        let (start, end) = self.span;
        self.store.unavailable_seconds_in(market, kind, start, end)
    }

    /// Availability summary of `(market, kind)` over the span.
    ///
    /// Counter-backed: probe and closed-interval counts come from the
    /// store's running per-`(market, kind)` counters (O(1)); the
    /// unavailable fraction comes from the epoch summaries.
    pub fn availability(&self, market: MarketId, kind: ProbeKind) -> AvailabilityStats {
        self.availability_of(self.store.key(market, kind))
    }

    /// [`SpotLightQuery::availability`] of an already fetched key (one
    /// hash lookup per answer); a never-probed key reads all zeros.
    fn availability_of(&self, key: Option<KeyRef<'_>>) -> AvailabilityStats {
        let (start, end) = self.span;
        let span_secs = (end - start).as_secs().max(1);
        let stats = key.map(|k| k.state.stats).unwrap_or_default();
        let unavailable = key.map_or(0, |k| k.unavailable_seconds_in(start, end));
        AvailabilityStats {
            probes: stats.informative,
            rejections: stats.rejections,
            unavailable_fraction: unavailable as f64 / span_secs as f64,
            intervals: key.map_or(0, |k| k.state.closed_intervals),
        }
    }

    /// How current the store's knowledge of `(market, kind)` is, aged
    /// against the query span's end.
    pub fn freshness(&self, market: MarketId, kind: ProbeKind) -> Freshness {
        self.freshness_of(self.store.key(market, kind), market)
    }

    /// [`SpotLightQuery::freshness`] of an already fetched key of
    /// `market`.
    fn freshness_of(&self, key: Option<KeyRef<'_>>, market: MarketId) -> Freshness {
        let last = key.and_then(|k| k.state.last_informative);
        let (_, end) = self.span;
        Freshness {
            last_informative: last,
            age: last.map(|t| end.saturating_since(t)),
            region_degraded: self
                .store
                .region_health(market.region())
                .is_some_and(|h| h.degraded),
            durability_lost: self.store.durability_lost(),
        }
    }

    /// Availability summary of `(market, kind)` qualified with how
    /// trustworthy it currently is — the staleness-aware variant of
    /// [`SpotLightQuery::availability`]. Callers that act on estimates
    /// (fallback selection, bid advice) should prefer this and check
    /// [`Freshness::is_fresh`] before trusting the stats.
    pub fn availability_qualified(
        &self,
        market: MarketId,
        kind: ProbeKind,
    ) -> (AvailabilityStats, Freshness) {
        let key = self.store.key(market, kind);
        (self.availability_of(key), self.freshness_of(key, market))
    }

    /// Regions currently marked degraded by live-mode circuit breakers,
    /// in `Region` order. Estimates there are frozen at their last
    /// pre-fault observation.
    pub fn degraded_regions(&self) -> Vec<Region> {
        self.store.degraded_regions()
    }

    /// All measured unavailability durations of a contract kind,
    /// appended into `out` (cleared first) so batch callers reuse one
    /// buffer across calls.
    pub fn unavailability_durations_into(&self, kind: ProbeKind, out: &mut Vec<SimDuration>) {
        out.clear();
        out.extend(
            self.store
                .intervals()
                .filter(|i| i.kind == kind)
                .filter_map(|i| i.duration()),
        );
    }

    /// All measured unavailability durations of a contract kind.
    pub fn unavailability_durations(&self, kind: ProbeKind) -> Vec<SimDuration> {
        let mut out = Vec::new();
        self.unavailability_durations_into(kind, &mut out);
        out
    }

    /// Mean time from acquiring a spot instance (at a bid equal to the
    /// on-demand price) to its revocation, from the revocation-watch
    /// observations. Holds that survived count at their full hold length
    /// (a conservative lower bound). `None` without observations.
    pub fn mean_time_to_revocation(&self, market: MarketId) -> Option<SimDuration> {
        let mut total = 0u64;
        let mut n = 0u64;
        for r in self.store.revocations_of(market) {
            let end = r.revoked_at.or(r.released_at)?;
            total += end.saturating_since(r.acquired_at).as_secs();
            n += 1;
        }
        (n > 0).then(|| SimDuration::from_secs(total / n))
    }

    /// Markets ranked by on-demand availability (most available first),
    /// optionally restricted to a region. Only markets with at least
    /// `min_probes` informative probes are ranked.
    pub fn top_available_markets(
        &self,
        candidates: &[MarketId],
        region: Option<Region>,
        min_probes: u64,
        n: usize,
    ) -> Vec<(MarketId, AvailabilityStats)> {
        let rows: Vec<(usize, (MarketId, AvailabilityStats))> = candidates
            .iter()
            .copied()
            .filter(|m| region.is_none_or(|r| m.region() == r))
            .map(|m| (m, self.availability(m, ProbeKind::OnDemand)))
            .filter(|(_, st)| st.probes >= min_probes)
            .enumerate()
            .collect();
        best_n(rows, n, |(_, st)| st.unavailable_fraction).collect()
    }

    /// P(on-demand of `b` unavailable within `window` | on-demand
    /// detection of `a`): the correlation SpotCheck must avoid in its
    /// fallback markets (§6.1). `None` when `a` has no detections.
    pub fn conditional_unavailability(
        &self,
        a: MarketId,
        b: MarketId,
        window: SimDuration,
    ) -> Option<f64> {
        conditional_unavailability(
            self.store.key(a, ProbeKind::OnDemand),
            self.store.rejection_times(b, ProbeKind::OnDemand),
            window,
        )
    }

    /// Fallback markets for `market`, ranked by (conditional correlation
    /// with `market`, then own unavailability): the SpotLight advice that
    /// restores SpotCheck/SpotOn to near-100% availability (Chapter 6).
    ///
    /// Candidates sharing `market`'s capacity pool (same family + zone)
    /// are excluded outright — they fail together by construction.
    pub fn uncorrelated_fallbacks(
        &self,
        market: MarketId,
        candidates: &[MarketId],
        window: SimDuration,
        n: usize,
    ) -> Vec<MarketId> {
        let origin = self.store.key(market, ProbeKind::OnDemand);
        let rows: Vec<(usize, (MarketId, f64, f64))> = candidates
            .iter()
            .copied()
            .filter(|&c| c != market && c.pool() != market.pool())
            .map(|c| {
                let key = self.store.key(c, ProbeKind::OnDemand);
                let rejected = key.map_or(&[][..], |k| &k.state.rejection_times);
                let corr = conditional_unavailability(origin, rejected, window).unwrap_or(0.0);
                let own = self.availability_of(key).unavailable_fraction;
                (c, corr, own)
            })
            .enumerate()
            .collect();
        best_n(rows, n, |&(_, corr, own)| (corr, own))
            .map(|(m, _, _)| m)
            .collect()
    }

    /// Historical spike rates per window at each candidate threshold —
    /// the input to [`crate::budget::calibrate_threshold`] (§3.4).
    ///
    /// Served from the per-epoch sorted spike-ratio buckets (a binary
    /// search per bucket per threshold), not a raw-log scan — so the
    /// answer is unchanged by compaction. The counts are over the
    /// store's **lifetime**: the query span does not select spikes, it
    /// only sets the number of windows the counts are divided by.
    pub fn spike_rates(&self, thresholds: &[f64], window: SimDuration) -> Vec<SpikeRate> {
        self.spike_rates_from(
            thresholds,
            self.store.spikes_at_or_above_each(thresholds),
            window,
        )
    }

    /// [`SpotLightQuery::spike_rates`] from lifetime `counts` the caller
    /// already holds, one per threshold
    /// ([`StoreSnapshot::spikes_at_or_above_each`] memoises them).
    pub fn spike_rates_from(
        &self,
        thresholds: &[f64],
        counts: Vec<u64>,
        window: SimDuration,
    ) -> Vec<SpikeRate> {
        let (start, end) = self.span;
        let windows = ((end - start).as_secs() as f64 / window.as_secs().max(1) as f64).max(1.0);
        thresholds
            .iter()
            .zip(counts)
            .map(|(&threshold, count)| SpikeRate {
                threshold,
                spikes_per_window: count as f64 / windows,
            })
            .collect()
    }

    /// Each region's raw count of rejected on-demand probes over the
    /// store's lifetime, written into `out` (replaced; filled in region
    /// order, so a `BTreeMap` or any ordered sink iterates the same on
    /// every run; a region without a rejection has no entry) — a quick
    /// "where is the cloud under-provisioned" view (§5.2.2) served from
    /// the stripes' running counters. The query span does not select
    /// the probes counted.
    pub fn rejection_counts_by_region_into<M: Default + Extend<(Region, u64)>>(&self, out: &mut M) {
        *out = M::default();
        out.extend(self.rejection_counts_by_region());
    }

    /// [`Self::rejection_counts_by_region_into`] as a fresh map.
    pub fn rejection_counts_by_region(&self) -> BTreeMap<Region, u64> {
        self.store.od_rejections_by_region()
    }

    /// Markets that were probed at least once, sorted — the store's own
    /// iteration order is per-stripe hash order, and callers such as
    /// [`Self::uncorrelated_fallbacks`] break ties by position.
    pub fn observed_markets(&self) -> Vec<MarketId> {
        let mut markets: Vec<MarketId> = self.store.probed_markets().collect();
        markets.sort_unstable();
        markets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeOutcome, ProbeRecord, ProbeTrigger};
    use crate::store::{DataStore, RevocationRecord};
    use cloud_sim::ids::{Az, Platform};
    use cloud_sim::price::Price;

    fn market(az: u8, ty: &str) -> MarketId {
        MarketId {
            az: Az::new(Region::UsEast1, az),
            instance_type: ty.parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    fn probe(at: u64, m: MarketId, outcome: ProbeOutcome) -> ProbeRecord {
        ProbeRecord {
            at: SimTime::from_secs(at),
            market: m,
            kind: ProbeKind::OnDemand,
            trigger: ProbeTrigger::PriceSpike { ratio: 2.0 },
            outcome,
            spot_ratio: 2.0,
            bid: None,
            cost: Price::ZERO,
        }
    }

    fn hour_span() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::from_secs(3600))
    }

    #[test]
    fn availability_fraction_from_intervals() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        s.record_probe(probe(0, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(900, m, ProbeOutcome::Fulfilled));
        let (a, b) = hour_span();
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        let st = q.availability(m, ProbeKind::OnDemand);
        assert_eq!(st.probes, 2);
        assert_eq!(st.rejections, 1);
        assert!((st.unavailable_fraction - 0.25).abs() < 1e-9);
        assert!((st.availability() - 0.75).abs() < 1e-9);
        assert_eq!(st.intervals, 1);
    }

    #[test]
    fn open_intervals_run_to_span_end() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        s.record_probe(probe(1800, m, ProbeOutcome::InsufficientCapacity));
        let (a, b) = hour_span();
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        assert_eq!(q.unavailable_seconds(m, ProbeKind::OnDemand), 1800);
    }

    #[test]
    fn mttr_averages_revocations() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        for (start, end) in [(0u64, 3600u64), (10_000, 11_800)] {
            s.record_revocation(RevocationRecord {
                market: m,
                acquired_at: SimTime::from_secs(start),
                bid: Price::from_dollars(0.1),
                revoked_at: Some(SimTime::from_secs(end)),
                released_at: Some(SimTime::from_secs(end)),
            });
        }
        let (a, b) = hour_span();
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        assert_eq!(
            q.mean_time_to_revocation(m),
            Some(SimDuration::from_secs((3600 + 1800) / 2))
        );
        assert_eq!(q.mean_time_to_revocation(market(1, "c3.large")), None);
    }

    #[test]
    fn conditional_unavailability_and_fallbacks() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        let correlated = market(1, "c3.large");
        let independent = market(1, "m3.large");
        // Two detections of m; `correlated` rejected within the window
        // of both, `independent` never rejected.
        for t in [0u64, 10_000] {
            s.record_probe(probe(t, m, ProbeOutcome::InsufficientCapacity));
            s.record_probe(probe(
                t + 60,
                correlated,
                ProbeOutcome::InsufficientCapacity,
            ));
            s.record_probe(probe(t + 400, m, ProbeOutcome::Fulfilled));
            s.record_probe(probe(t + 400, correlated, ProbeOutcome::Fulfilled));
            s.record_probe(probe(t + 60, independent, ProbeOutcome::Fulfilled));
        }
        let r = s.read();
        let q = SpotLightQuery::new(&r, SimTime::ZERO, SimTime::from_secs(20_000));
        let w = SimDuration::from_secs(900);
        assert_eq!(q.conditional_unavailability(m, correlated, w), Some(1.0));
        assert_eq!(q.conditional_unavailability(m, independent, w), Some(0.0));
        let fallbacks = q.uncorrelated_fallbacks(m, &[correlated, independent], w, 2);
        assert_eq!(fallbacks[0], independent);
        // Same-pool candidates are excluded.
        let same_pool = market(0, "c3.xlarge");
        let only = q.uncorrelated_fallbacks(m, &[same_pool], w, 5);
        assert!(only.is_empty());
    }

    #[test]
    fn top_available_requires_min_probes() {
        let s = DataStore::new();
        let good = market(0, "c3.large");
        let sparse = market(1, "c3.large");
        for t in 0..5 {
            s.record_probe(probe(t * 100, good, ProbeOutcome::Fulfilled));
        }
        s.record_probe(probe(0, sparse, ProbeOutcome::Fulfilled));
        let (a, b) = hour_span();
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        let top = q.top_available_markets(&[good, sparse], None, 3, 10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, good);
    }

    #[test]
    fn spike_rates_count_per_window() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        for (t, r) in [(0u64, 1.5), (600, 2.5), (1200, 6.0)] {
            s.record_spike(crate::store::SpikeEvent {
                market: m,
                at: SimTime::from_secs(t),
                ratio: r,
                probed: true,
            });
        }
        let (a, b) = hour_span();
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        let rates = q.spike_rates(&[1.0, 2.0, 5.0], SimDuration::from_secs(1800));
        assert_eq!(rates[0].spikes_per_window, 1.5); // 3 spikes / 2 windows
        assert_eq!(rates[1].spikes_per_window, 1.0);
        assert_eq!(rates[2].spikes_per_window, 0.5);
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        s.record_probe(probe(0, m, ProbeOutcome::InsufficientCapacity));
        s.record_probe(probe(600, m, ProbeOutcome::Fulfilled));
        let r = s.read();
        let (a, b) = hour_span();
        let q = SpotLightQuery::new(&r, a, b);
        let mut durations = vec![SimDuration::from_secs(999)];
        q.unavailability_durations_into(ProbeKind::OnDemand, &mut durations);
        assert_eq!(durations, vec![SimDuration::from_secs(600)]);
        let mut counts = BTreeMap::from([(Region::UsWest1, 42u64)]);
        q.rejection_counts_by_region_into(&mut counts);
        assert_eq!(counts, BTreeMap::from([(Region::UsEast1, 1u64)]));
        assert_eq!(counts, q.rejection_counts_by_region());
    }

    #[test]
    fn freshness_ages_against_span_end_and_flags_degraded_regions() {
        let s = DataStore::new();
        let m = market(0, "c3.large");
        let (a, b) = hour_span();
        // Never observed: no age, not fresh at any horizon.
        {
            let r = s.read();
            let q = SpotLightQuery::new(&r, a, b);
            let f = q.freshness(m, ProbeKind::OnDemand);
            assert_eq!(f.last_informative, None);
            assert_eq!(f.age, None);
            assert!(!f.is_fresh(SimDuration::days(365)));
        }
        // An informative probe sets the clock; ApiLimited does not.
        s.record_probe(probe(600, m, ProbeOutcome::Fulfilled));
        s.record_probe(probe(3000, m, ProbeOutcome::ApiLimited));
        {
            let r = s.read();
            let q = SpotLightQuery::new(&r, a, b);
            let f = q.freshness(m, ProbeKind::OnDemand);
            assert_eq!(f.last_informative, Some(SimTime::from_secs(600)));
            assert_eq!(f.age, Some(SimDuration::from_secs(3000)));
            assert!(f.is_fresh(SimDuration::from_secs(3000)));
            assert!(!f.is_fresh(SimDuration::from_secs(2999)));
            assert!(!f.region_degraded);
        }
        // A degraded region poisons freshness regardless of age.
        s.mark_region_degraded(Region::UsEast1, SimTime::from_secs(3100));
        {
            let r = s.read();
            let q = SpotLightQuery::new(&r, a, b);
            let (st, f) = q.availability_qualified(m, ProbeKind::OnDemand);
            assert_eq!(st.probes, 1);
            assert!(f.region_degraded);
            assert!(!f.is_fresh(SimDuration::days(365)));
            assert_eq!(q.degraded_regions(), vec![Region::UsEast1]);
        }
        // Recovery clears the flag.
        s.mark_region_recovered(Region::UsEast1, SimTime::from_secs(3200));
        let r = s.read();
        let q = SpotLightQuery::new(&r, a, b);
        assert!(q.freshness(m, ProbeKind::OnDemand).is_fresh(b - a));
        assert!(q.degraded_regions().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_span_panics() {
        let s = DataStore::new();
        let r = s.read();
        let _ = SpotLightQuery::new(&r, SimTime::from_secs(10), SimTime::from_secs(10));
    }
}
