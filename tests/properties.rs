//! Property-based tests (proptest) over the core data structures and
//! cross-crate invariants.

use cloud_sim::catalog::Catalog;
use cloud_sim::config::{DemandProfile, SimConfig};
use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::market::clear;
use cloud_sim::price::Price;
use cloud_sim::rng::SimRng;
use cloud_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::query::{AvailabilityStats, SpotLightQuery};
use spotlight_core::stats::{BucketedRate, Ecdf};
use spotlight_core::store::{stripe_index, DataStore, StoreRead};
use spotlight_derivative::series::AvailabilityTimeline;

fn any_market() -> impl Strategy<Value = MarketId> {
    (
        0u8..2,
        prop_oneof![Just("c3.large"), Just("c3.xlarge"), Just("c3.2xlarge")],
    )
        .prop_map(|(az, ty)| MarketId {
            az: Az::new(Region::UsEast1, az),
            instance_type: ty.parse().unwrap(),
            platform: Platform::LinuxUnix,
        })
}

proptest! {
    // ---- auction clearing --------------------------------------------

    #[test]
    fn clearing_price_is_monotone_in_supply(
        masses in proptest::collection::vec(0.0f64..50.0, 5),
        s1 in 0.0f64..100.0,
        s2 in 0.0f64..100.0,
    ) {
        let multiples = [0.1, 0.5, 1.0, 2.0, 10.0];
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let c_lo = clear(&multiples, &masses, lo);
        let c_hi = clear(&multiples, &masses, hi);
        // Less supply never means a lower price.
        prop_assert!(c_lo.price_multiple >= c_hi.price_multiple);
    }

    #[test]
    fn clearing_serves_at_most_supply_and_demand(
        masses in proptest::collection::vec(0.0f64..50.0, 5),
        supply in 0.0f64..200.0,
    ) {
        let multiples = [0.1, 0.5, 1.0, 2.0, 10.0];
        let c = clear(&multiples, &masses, supply);
        let total: f64 = masses.iter().sum();
        prop_assert!(c.served <= supply + 1e-9);
        prop_assert!(c.served <= total + 1e-9);
        prop_assert!(c.price_multiple >= multiples[0]);
        prop_assert!(c.price_multiple <= multiples[4]);
    }

    // ---- price arithmetic --------------------------------------------

    #[test]
    fn price_scale_monotone(dollars in 0.0f64..100.0, a in 0.0f64..5.0, b in 0.0f64..5.0) {
        let p = Price::from_dollars(dollars);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(p.scale(lo) <= p.scale(hi));
    }

    #[test]
    fn price_midpoint_between(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (pa, pb) = (Price::from_micros(a), Price::from_micros(b));
        let mid = pa.midpoint(pb);
        prop_assert!(mid >= pa.min(pb) && mid <= pa.max(pb));
    }

    // ---- statistics ---------------------------------------------------

    #[test]
    fn bucketed_rates_stay_probabilities(
        values in proptest::collection::vec((0.0f64..12.0, any::<bool>()), 1..200),
    ) {
        let mut r = BucketedRate::new(&[0.0, 1.0, 2.0, 5.0, 10.0]);
        for (v, hit) in values {
            r.observe(v, hit);
        }
        for b in 0..5 {
            if let Some(p) = r.rate(b) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            if let Some(p) = r.cumulative_rate(b) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            prop_assert!(r.cumulative_successes(b) <= r.cumulative_trials(b));
        }
    }

    #[test]
    fn ecdf_is_monotone(samples in proptest::collection::vec(0.0f64..1000.0, 0..200)) {
        let cdf = Ecdf::from_samples(samples);
        let mut last = 0.0;
        for x in [0.0, 1.0, 10.0, 100.0, 1000.0] {
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= last);
            prop_assert!((0.0..=1.0).contains(&f));
            last = f;
        }
    }

    // ---- availability timeline ---------------------------------------

    #[test]
    fn timeline_merge_is_sound(
        raw in proptest::collection::vec((0u64..10_000, 0u64..10_000), 0..30),
    ) {
        let intervals: Vec<(SimTime, SimTime)> = raw
            .iter()
            .map(|&(a, b)| (SimTime::from_secs(a), SimTime::from_secs(a + b % 1000)))
            .collect();
        let tl = AvailabilityTimeline::from_intervals(intervals.clone());
        // Merged intervals are sorted, non-overlapping, non-degenerate.
        for w in tl.intervals().windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
        for &(s, e) in tl.intervals() {
            prop_assert!(e > s);
        }
        // Any point inside an input interval is unavailable.
        for &(s, e) in &intervals {
            if e > s {
                prop_assert!(tl.unavailable_at(s));
                prop_assert!(tl.unavailable_at(SimTime::from_secs(e.as_secs() - 1)));
            }
        }
        // Totals are bounded by the span.
        let total = tl.unavailable_secs(SimTime::ZERO, SimTime::from_secs(20_000));
        prop_assert!(total <= 20_000);
    }

    // ---- probe store --------------------------------------------------

    #[test]
    fn store_intervals_always_well_formed(
        seq in proptest::collection::vec(
            (any_market(), prop_oneof![
                Just(ProbeOutcome::Fulfilled),
                Just(ProbeOutcome::InsufficientCapacity),
                Just(ProbeOutcome::PriceTooLow),
            ], 0u64..100_000),
            0..100,
        ),
    ) {
        let mut sorted = seq;
        sorted.sort_by_key(|&(_, _, t)| t);
        let store = DataStore::new();
        for (market, outcome, t) in sorted {
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(t),
                market,
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Recovery,
                outcome,
                spot_ratio: 0.5,
                bid: None,
                cost: Price::ZERO,
            });
        }
        // Closed intervals end at or after their start; at most one open
        // interval per market/kind.
        let read = store.read();
        let mut open = std::collections::HashSet::new();
        for i in read.intervals() {
            match i.end {
                Some(end) => prop_assert!(end >= i.start),
                None => prop_assert!(open.insert((i.market, i.kind))),
            }
        }
    }
}

// ---- store indices vs full-scan oracle --------------------------------
//
// The indexed store (per-(market, kind) interval and rejection indices,
// running probe counters, the probed-market list) must answer exactly
// like a naive scan over the append-only log, on any insert sequence —
// including out-of-order timestamps, which live mode can produce.

fn all_markets() -> Vec<MarketId> {
    let mut v = Vec::new();
    for az in 0u8..2 {
        for ty in ["c3.large", "c3.xlarge", "c3.2xlarge"] {
            v.push(MarketId {
                az: Az::new(Region::UsEast1, az),
                instance_type: ty.parse().unwrap(),
                platform: Platform::LinuxUnix,
            });
        }
    }
    v
}

fn any_probe() -> impl Strategy<Value = ProbeRecord> {
    (
        any_market(),
        prop_oneof![Just(ProbeKind::OnDemand), Just(ProbeKind::Spot),],
        prop_oneof![
            Just(ProbeOutcome::Fulfilled),
            Just(ProbeOutcome::InsufficientCapacity),
            Just(ProbeOutcome::CapacityNotAvailable),
            Just(ProbeOutcome::PriceTooLow),
            Just(ProbeOutcome::ApiLimited),
        ],
        0u64..50_000,
    )
        .prop_map(|(market, kind, outcome, t)| ProbeRecord {
            at: SimTime::from_secs(t),
            market,
            kind,
            trigger: ProbeTrigger::Recovery,
            outcome,
            spot_ratio: 0.5,
            bid: None,
            cost: Price::ZERO,
        })
}

/// `probed_markets()`, sorted, against the distinct markets of `seq`:
/// every market once — two kinds of one market are one entry.
fn assert_probed_markets_are(read: &StoreRead<'_>, seq: &[ProbeRecord], what: &str) {
    let mut listed: Vec<MarketId> = read.probed_markets().collect();
    listed.sort_unstable();
    let mut distinct: Vec<MarketId> = seq.iter().map(|p| p.market).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(listed, distinct, "{what}: probed markets");
}

proptest! {
    #[test]
    fn indexed_probe_queries_agree_with_scan_oracle(
        seq in proptest::collection::vec(any_probe(), 0..150),
    ) {
        use spotlight_core::durable::DurableOptions;
        use spotlight_persist::tempdir::TempDir;

        let tmp = TempDir::new("indexed-oracle");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        for p in &seq {
            store.record_probe(*p);
        }
        let read = store.read();
        assert_probed_markets_are(&read, &seq, "as recorded");
        for market in all_markets() {
            for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
                // rejection_times: sorted rejected-probe timestamps.
                let mut rej_oracle: Vec<SimTime> = read
                    .probes()
                    .filter(|p| p.market == market && p.kind == kind
                        && p.outcome.is_unavailable())
                    .map(|p| p.at)
                    .collect();
                rej_oracle.sort();
                prop_assert_eq!(
                    read.rejection_times(market, kind).to_vec(),
                    rej_oracle
                );

                // probe_stats: running counters == scan counts.
                let stats = read.probe_stats(market, kind);
                let informative = read
                    .probes()
                    .filter(|p| p.market == market && p.kind == kind
                        && p.outcome.is_informative())
                    .count() as u64;
                let rejections = read
                    .probes()
                    .filter(|p| p.market == market && p.kind == kind
                        && p.outcome.is_unavailable())
                    .count() as u64;
                prop_assert_eq!(stats.informative, informative);
                prop_assert_eq!(stats.rejections, rejections);

                // intervals_of: per-key index == full-log filter.
                let by_index: Vec<(SimTime, Option<SimTime>)> = read
                    .intervals_of(market, kind)
                    .map(|i| (i.start, i.end))
                    .collect();
                let by_scan: Vec<(SimTime, Option<SimTime>)> = read
                    .intervals()
                    .filter(|i| i.market == market && i.kind == kind)
                    .map(|i| (i.start, i.end))
                    .collect();
                prop_assert_eq!(by_index, by_scan);
            }
        }
        drop(read);
        // The market list is a lifetime fact: it survives a compaction
        // that drops every raw probe, and a checkpoint + recovery.
        store.compact(SimTime::MAX);
        assert_probed_markets_are(&store.read(), &seq, "after compact");
        store.checkpoint().expect("checkpoint");
        drop(store);
        let recovered = DataStore::recover(&dir).expect("recover");
        assert_probed_markets_are(&recovered.read(), &seq, "after recovery");
    }

    #[test]
    fn interval_bookkeeping_survives_indexing(
        seq in proptest::collection::vec(any_probe(), 0..150),
    ) {
        // Time-ordered inserts: the engine's monotone case, where the
        // open/close state machine semantics are well defined.
        let mut sorted = seq;
        sorted.sort_by_key(|p| p.at);
        let store = DataStore::new();
        for p in &sorted {
            store.record_probe(*p);
        }
        // At most one open interval per key; closed ones are ordered.
        let read = store.read();
        let mut open = std::collections::HashSet::new();
        for i in read.intervals() {
            match i.end {
                Some(end) => prop_assert!(end >= i.start),
                None => prop_assert!(open.insert((i.market, i.kind))),
            }
        }
        // is_unavailable reflects exactly the open set.
        for market in all_markets() {
            for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
                prop_assert_eq!(
                    read.is_unavailable(market, kind),
                    open.contains(&(market, kind))
                );
                // An open interval is always the key's latest.
                let intervals: Vec<_> = read.intervals_of(market, kind).collect();
                for (pos, i) in intervals.iter().enumerate() {
                    if i.end.is_none() {
                        prop_assert_eq!(pos, intervals.len() - 1);
                    }
                }
            }
        }
    }
}

// ---- whole-cloud conservation under random API traffic ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn pool_conservation_under_random_api_traffic(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..4, 0usize..14, 0.0f64..2.0), 1..60),
    ) {
        let mut config = SimConfig::paper(seed);
        config.demand = DemandProfile::paper_calibration();
        let mut cloud = cloud_sim::cloud::Cloud::new(Catalog::testbed(), config);
        cloud.warmup(10);
        let markets: Vec<MarketId> = cloud.catalog().markets().to_vec();
        let mut od_instances = Vec::new();
        let mut spot_requests = Vec::new();
        for (op, midx, ratio) in ops {
            let market = markets[midx % markets.len()];
            match op {
                0 => {
                    if let Ok(id) = cloud.run_od_instance(market) {
                        od_instances.push(id);
                    }
                }
                1 => {
                    if let Some(id) = od_instances.pop() {
                        let _ = cloud.terminate_od_instance(id);
                    }
                }
                2 => {
                    let bid = cloud.catalog().od_price(market).scale(0.1 + ratio);
                    if let Ok(sub) = cloud.request_spot_instance(market, bid) {
                        spot_requests.push(sub.id);
                    }
                }
                _ => {
                    cloud.tick();
                    if let Some(id) = spot_requests.pop() {
                        let _ = cloud.cancel_spot_request(id);
                        let _ = cloud.terminate_spot_instance(id);
                    }
                }
            }
            // The oracle stays coherent after every operation.
            for &pool in cloud.catalog().pools() {
                let snap = cloud.oracle_pool(pool).unwrap();
                prop_assert!(snap.occupied() <= snap.physical);
                prop_assert!(snap.reserved_running <= snap.reserved_granted);
            }
        }
    }
}

// ---- summaries & compaction vs scan oracle ----------------------------
//
// The summarized queries (availability, unavailable_seconds,
// spike_rates, top_available_markets, conditional_unavailability,
// region rejection counts) must answer exactly like brute-force
// formulas over the raw records — and must stay bit-identical after
// `compact` folds the raw slabs into the summaries.

proptest! {
    #[test]
    fn summarized_queries_match_oracle_and_survive_compaction(
        seq in proptest::collection::vec(any_probe(), 0..150),
        spikes in proptest::collection::vec((any_market(), 0u64..50_000, 0.0f64..12.0), 0..50),
        span_start in 0u64..50_000,
        span_len in 1u64..50_000,
        horizon in 0u64..60_000,
    ) {
        use spotlight_core::query::SpotLightQuery;
        use spotlight_core::store::SpikeEvent;
        use cloud_sim::time::SimDuration;

        let store = DataStore::new();
        for p in &seq {
            store.record_probe(*p);
        }
        for &(market, t, ratio) in &spikes {
            store.record_spike(SpikeEvent {
                market,
                at: SimTime::from_secs(t),
                ratio,
                probed: true,
            });
        }
        let qs = SimTime::from_secs(span_start);
        let qe = SimTime::from_secs(span_start + span_len);
        let window = SimDuration::from_secs(900);
        let thresholds = [0.0, 1.0, 2.5, 6.0];
        let markets = all_markets();
        let kinds = [ProbeKind::OnDemand, ProbeKind::Spot];

        // Brute-force oracles over the raw interval log (the exact
        // formula the pre-epoch store computed per query).
        let (unavail, stats, rates, top, conditional, regions) = {
            let read = store.read();
            let intervals: Vec<_> = read.intervals().copied().collect();
            let q = SpotLightQuery::new(&read, qs, qe);
            let mut unavail = Vec::new();
            for &m in &markets {
                for kind in kinds {
                    let oracle: u64 = intervals
                        .iter()
                        .filter(|i| i.market == m && i.kind == kind)
                        .map(|i| {
                            let s = i.start.max(qs);
                            let e = i.end.unwrap_or(qe).min(qe);
                            e.saturating_since(s).as_secs()
                        })
                        .sum();
                    prop_assert_eq!(
                        q.unavailable_seconds(m, kind), oracle,
                        "unavailable_seconds({}, {:?})", m, kind
                    );
                    unavail.push(oracle);
                }
            }
            let windows = (span_len as f64 / 900.0).max(1.0);
            let measured = q.spike_rates(&thresholds, window);
            for (rate, &t) in measured.iter().zip(&thresholds) {
                let oracle = spikes.iter().filter(|&&(_, _, r)| r >= t).count() as f64;
                prop_assert_eq!(
                    rate.spikes_per_window, oracle / windows,
                    "spike_rates(>= {})", t
                );
            }
            let stats: Vec<_> = markets
                .iter()
                .flat_map(|&m| kinds.map(|k| q.availability(m, k)))
                .collect();
            let top = q.top_available_markets(&markets, None, 0, markets.len());
            let conditional: Vec<_> = markets
                .iter()
                .map(|&b| q.conditional_unavailability(markets[0], b, window))
                .collect();
            (unavail, stats, measured, top, conditional, q.rejection_counts_by_region())
        };

        store.compact(SimTime::from_secs(horizon));

        // Every summarized answer is bit-identical on the compacted
        // store; the raw logs only retain the window.
        let read = store.read();
        let q = SpotLightQuery::new(&read, qs, qe);
        let mut i = 0;
        for &m in &markets {
            for kind in kinds {
                prop_assert_eq!(q.unavailable_seconds(m, kind), unavail[i]);
                prop_assert_eq!(q.availability(m, kind), stats[i]);
                i += 1;
            }
        }
        prop_assert_eq!(q.spike_rates(&thresholds, window), rates);
        prop_assert_eq!(q.top_available_markets(&markets, None, 0, markets.len()), top);
        for (j, &b) in markets.iter().enumerate() {
            prop_assert_eq!(
                q.conditional_unavailability(markets[0], b, window),
                conditional[j]
            );
        }
        prop_assert_eq!(q.rejection_counts_by_region(), regions);
        let cutoff = SimTime::from_secs(horizon);
        prop_assert!(read.probes().all(|p| p.at >= cutoff));
        prop_assert!(read.spikes().all(|s| s.at >= cutoff));
    }
}

// ---- span sums vs the overlap formula ---------------------------------
//
// A key whose intervals are start-sorted and non-overlapping answers
// `unavailable_seconds_in` with a prefix difference over its interval
// index plus its two boundary intervals. It must equal the brute-force
// overlap formula on every span, recorded, compacted and recovered.

/// Holds every key of `read` to the overlap formula on the spans
/// between points on, and a second either side of, its interval starts
/// and ends, and inside its open interval.
fn assert_span_sums_match_the_overlap_formula(read: &StoreRead<'_>, horizon: u64, stage: &str) {
    for m in all_markets() {
        for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
            let intervals: Vec<(u64, Option<u64>)> = read
                .intervals_of(m, kind)
                .map(|i| (i.start.as_secs(), i.end.map(SimTime::as_secs)))
                .collect();
            // The store flags a key disordered exactly when an opening
            // starts before the previous interval ends or a close lands
            // before its interval's start: a key whose starts and ends
            // never go back in time is on the prefix path.
            let times: Vec<u64> = intervals
                .iter()
                .flat_map(|&(s, e)| std::iter::once(s).chain(e))
                .collect();
            assert!(times.is_sorted(), "{stage}: {m:?} {kind:?} went disordered");
            let mut points: Vec<u64> = times
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t + 1])
                .chain([0, horizon])
                .collect();
            if let Some(&(start, None)) = intervals.last() {
                points.extend([start + 7, start + 600]);
            }
            points.sort_unstable();
            points.dedup();
            for &from in &points {
                for &to in &points {
                    let overlap: u64 = intervals
                        .iter()
                        .map(|&(s, e)| e.unwrap_or(to).min(to).saturating_sub(s.max(from)))
                        .sum();
                    let (a, b) = (SimTime::from_secs(from), SimTime::from_secs(to));
                    assert_eq!(
                        read.unavailable_seconds_in(m, kind, a, b),
                        overlap,
                        "{stage}: {m:?} {kind:?} [{from}, {to})"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn ordered_key_span_sums_match_the_overlap_formula(
        steps in proptest::collection::vec(
            (
                any_market(),
                any::<bool>(),
                prop_oneof![Just(0u64), 1u64..3000],
                prop_oneof![
                    Just(ProbeOutcome::Fulfilled),
                    Just(ProbeOutcome::InsufficientCapacity),
                    Just(ProbeOutcome::CapacityNotAvailable),
                    Just(ProbeOutcome::ApiLimited),
                ],
            ),
            0..160,
        ),
    ) {
        use spotlight_core::durable::DurableOptions;
        use spotlight_persist::tempdir::TempDir;

        let tmp = TempDir::new("span-sums");
        let dir = tmp.path().join("store");
        let store = DataStore::create_durable(&dir, DurableOptions::default()).expect("create");
        // Time-ordered, ties included (zero-length intervals, and
        // intervals that start where the last one ended).
        let mut now = 0;
        for (market, spot, gap, outcome) in steps {
            now += gap;
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(now),
                market,
                kind: if spot { ProbeKind::Spot } else { ProbeKind::OnDemand },
                trigger: ProbeTrigger::Recovery,
                outcome,
                spot_ratio: 0.5,
                bid: None,
                cost: Price::ZERO,
            });
        }
        let horizon = now + 1000;
        assert_span_sums_match_the_overlap_formula(&store.read(), horizon, "recorded");
        store.compact(SimTime::MAX);
        assert_span_sums_match_the_overlap_formula(&store.read(), horizon, "compacted");
        store.checkpoint().expect("checkpoint");
        drop(store);
        let recovered = DataStore::recover(&dir).expect("recover");
        assert_span_sums_match_the_overlap_formula(&recovered.read(), horizon, "recovered");
    }
}

// ---- capture isolation ------------------------------------------------
//
// A capture — a snapshot, or the view `DataStore::read` returns — is a
// shallow clone that shares record chunks, spike-ratio buckets and
// per-key state with the store it was taken from; ingest and
// compaction copy on first write whatever a capture still holds. So
// nothing done to the store after a capture — however much, and
// including a compaction that drops every raw record — may show
// through it, and none of it waits for the capture to go: the one taken
// after op `k` keeps answering exactly like a fresh store that only
// ever saw ops `0..k`.

#[derive(Debug, Clone)]
enum StoreOp {
    Probe(ProbeRecord),
    Spike(spotlight_core::store::SpikeEvent),
    Revocation(spotlight_core::store::RevocationRecord),
    IntrinsicBid(spotlight_core::store::IntrinsicBidRecord),
    Compact(SimTime),
    Snapshot,
}

impl StoreOp {
    fn apply(&self, store: &DataStore) {
        match *self {
            StoreOp::Probe(p) => {
                store.record_probe(p);
            }
            StoreOp::Spike(s) => store.record_spike(s),
            StoreOp::Revocation(r) => store.record_revocation(r),
            StoreOp::IntrinsicBid(b) => store.record_intrinsic_bid(b),
            StoreOp::Compact(before) => {
                store.compact(before);
            }
            StoreOp::Snapshot => {}
        }
    }

    /// The op with its market `m`, if it has one, moved to `to(m)`.
    fn remap(mut self, to: impl Fn(MarketId) -> MarketId) -> Self {
        match &mut self {
            StoreOp::Probe(p) => p.market = to(p.market),
            StoreOp::Spike(s) => s.market = to(s.market),
            StoreOp::Revocation(r) => r.market = to(r.market),
            StoreOp::IntrinsicBid(b) => b.market = to(b.market),
            StoreOp::Compact(_) | StoreOp::Snapshot => {}
        }
        self
    }
}

fn any_store_op() -> impl Strategy<Value = StoreOp> {
    use spotlight_core::store::{IntrinsicBidRecord, RevocationRecord, SpikeEvent};
    (0u8..16, any_probe(), 0.0f64..12.0).prop_map(|(pick, p, ratio)| {
        let (market, at) = (p.market, p.at);
        let price = Price::from_micros((ratio * 1e5) as u64);
        match pick {
            0..=8 => StoreOp::Probe(ProbeRecord { cost: price, ..p }),
            9 | 10 => StoreOp::Spike(SpikeEvent {
                market,
                at,
                ratio,
                probed: pick == 9,
            }),
            11 => StoreOp::Revocation(RevocationRecord {
                market,
                acquired_at: at,
                bid: price,
                revoked_at: None,
                released_at: Some(at + SimDuration::from_secs(600)),
            }),
            12 => StoreOp::IntrinsicBid(IntrinsicBidRecord {
                market,
                at,
                published: price,
                intrinsic: price.scale(0.5),
                attempts: 3,
            }),
            13 => StoreOp::Compact(at),
            _ => StoreOp::Snapshot,
        }
    })
}

/// A deterministic run-in that fills several slab chunks of a
/// one-stripe store: a rejection of market 0 that stays open (interval
/// slab index 0), then market 1 alternating rejected / fulfilled — one
/// more closed interval per pair. A later fulfilment of market 0 then
/// writes into the *first* interval chunk, long since full and shared
/// with every capture taken in between.
fn run_in(len: usize) -> Vec<StoreOp> {
    let markets = all_markets();
    (0..len as u64)
        .map(|i| {
            let rejected = i == 0 || i % 2 == 1;
            StoreOp::Probe(ProbeRecord {
                at: SimTime::from_secs(i * 30),
                market: markets[usize::from(i > 0)],
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Periodic,
                outcome: if rejected {
                    ProbeOutcome::InsufficientCapacity
                } else {
                    ProbeOutcome::Fulfilled
                },
                spot_ratio: 1.5,
                bid: None,
                cost: Price::from_micros(i),
            })
        })
        .collect()
}

/// As many markets as `all_markets()` that share the stripe of the
/// run-in's market (`all_markets()[1]`), that market first.
fn stripe_mates() -> Vec<MarketId> {
    let home = all_markets()[1];
    let others = (0..26u8).flat_map(|az| {
        Platform::ALL.map(move |platform| MarketId {
            az: Az::new(Region::UsEast1, az),
            platform,
            ..home
        })
    });
    let mates: Vec<_> = std::iter::once(home)
        .chain(others.filter(|&m| m != home && stripe_index(m) == stripe_index(home)))
        .take(all_markets().len())
        .collect();
    assert_eq!(
        mates.len(),
        all_markets().len(),
        "too few markets share a stripe"
    );
    mates
}

/// Everything a view serves, compared between two captures.
fn assert_same_answers(g: &StoreRead<'_>, w: &StoreRead<'_>, spans: &[(u64, u64)], what: &str) {
    assert_eq!(g.len(), w.len(), "{what}: len");
    assert_eq!(g.total_cost(), w.total_cost(), "{what}: total_cost");
    let probed = |r: &StoreRead<'_>| {
        let mut markets: Vec<MarketId> = r.probed_markets().collect();
        markets.sort_unstable();
        markets
    };
    assert_eq!(probed(g), probed(w), "{what}: probed markets");
    for threshold in [0.0, 1.0, 2.5, 6.0] {
        assert_eq!(
            g.spikes_at_or_above(threshold),
            w.spikes_at_or_above(threshold),
            "{what}: spikes >= {threshold}"
        );
    }
    assert!(g.spikes().eq(w.spikes()), "{what}: raw spikes");
    assert!(g.intrinsic_bids().eq(w.intrinsic_bids()), "{what}: bids");
    for m in all_markets() {
        let (gp, wp) = (g.probes(), w.probes());
        assert!(
            gp.filter(|p| p.market == m)
                .eq(wp.filter(|p| p.market == m)),
            "{what}: probes of {m}"
        );
        assert!(
            g.intrinsic_bids_of(m)
                .eq(w.intrinsic_bids().filter(|r| r.market == m)),
            "{what}: intrinsic_bids_of {m}"
        );
        assert!(
            g.revocations_of(m).eq(w.revocations_of(m)),
            "{what}: revocations_of {m}"
        );
        for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
            let what = format!("{what}: {m} {kind:?}");
            assert!(
                g.intervals_of(m, kind).eq(w.intervals_of(m, kind)),
                "{what}"
            );
            assert_eq!(
                g.rejection_times(m, kind),
                w.rejection_times(m, kind),
                "{what}"
            );
            assert_eq!(g.probe_stats(m, kind), w.probe_stats(m, kind), "{what}");
            for &(from, len) in spans {
                let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(from + len));
                assert_eq!(
                    g.unavailable_seconds_in(m, kind, from, to),
                    w.unavailable_seconds_in(m, kind, from, to),
                    "{what} in [{from}, {to})"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn snapshots_stay_isolated_from_later_ingest_and_compaction(
        run_in_len in prop_oneof![Just(0usize), 0usize..1400],
        random_ops in proptest::collection::vec(any_store_op(), 0..120),
        spans in proptest::collection::vec((0u64..50_000, 1u64..50_000), 1..6),
    ) {
        // The run-in writes one market, so it fills its stripe's chunks.
        let mut ops = run_in(run_in_len);
        // Captures inside the run-in too: the random ops then write
        // into chunks those hold, for after a run-in they go to markets
        // of its stripe.
        for at in [run_in_len / 3, run_in_len / 3 * 2] {
            if at > 0 {
                ops.insert(at, StoreOp::Snapshot);
            }
        }
        if run_in_len > 0 {
            let (all, mates) = (all_markets(), stripe_mates());
            let onto_mates = |m| mates[all.iter().position(|&a| a == m).expect("a drawn market")];
            ops.extend(random_ops.into_iter().map(|op| op.remap(onto_mates)));
        } else {
            ops.extend(random_ops);
        }
        let as_of = SimTime::from_secs(60_000);

        // On its own thread, under a watchdog: were a view to hold a
        // stripe guard, the ingest after it on the same thread would
        // never return — that must fail the case, not hang the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let store = DataStore::new();
            let mut captures = Vec::new();
            for (k, op) in ops.iter().enumerate() {
                op.apply(&store);
                if matches!(op, StoreOp::Snapshot) {
                    captures.push((k, store.snapshot(as_of), store.read()));
                }
            }
            store.compact(SimTime::MAX);
            assert_eq!(store.read().probes().count(), 0);

            for (k, snapshot, view) in &captures {
                let replayed = DataStore::new();
                for op in &ops[..*k] {
                    op.apply(&replayed);
                }
                let want = replayed.snapshot(as_of);
                assert_eq!(
                    snapshot.probed_markets_sorted(),
                    want.probed_markets_sorted(),
                    "snapshot after op {k}: probed markets"
                );
                let what = format!("snapshot after op {k}");
                assert_same_answers(&snapshot.read(), &want.read(), &spans, &what);
                let what = format!("view after op {k}");
                assert_same_answers(view, &replayed.read(), &spans, &what);
            }
            let _ = done.send(());
        });
        let limit = std::time::Duration::from_secs(10);
        if finished.recv_timeout(limit) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            panic!("still running after {limit:?}: a capture is holding up the store");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

// ---- concurrent ingest vs sequential ingest ---------------------------

/// Concurrent writers (each owning a disjoint set of markets, so per-key
/// arrival order matches the sequential run) must leave the striped
/// store with exactly the counters, indices, and summaries of a
/// single-threaded ingest of the same stream.
#[test]
fn concurrent_ingest_matches_sequential_ingest() {
    use spotlight_core::store::DataStore;

    let markets = all_markets();
    let probes: Vec<ProbeRecord> = (0..3000u64)
        .map(|i| {
            let market = markets[(i * 7 % markets.len() as u64) as usize];
            let kind = if i % 3 == 0 {
                ProbeKind::Spot
            } else {
                ProbeKind::OnDemand
            };
            let outcome = match i % 5 {
                0 => ProbeOutcome::InsufficientCapacity,
                1 => ProbeOutcome::CapacityNotAvailable,
                2 => ProbeOutcome::ApiLimited,
                _ => ProbeOutcome::Fulfilled,
            };
            ProbeRecord {
                at: SimTime::from_secs(i),
                market,
                kind,
                trigger: ProbeTrigger::Recovery,
                outcome,
                spot_ratio: 0.5,
                bid: None,
                cost: Price::from_micros(i),
            }
        })
        .collect();

    let sequential = DataStore::new();
    for p in &probes {
        sequential.record_probe(*p);
    }

    let concurrent = DataStore::new();
    std::thread::scope(|scope| {
        for worker in 0..3usize {
            let (probes, concurrent, markets) = (&probes, &concurrent, &markets);
            scope.spawn(move || {
                for p in probes {
                    let owner = markets.iter().position(|&m| m == p.market).unwrap() % 3;
                    if owner == worker {
                        concurrent.record_probe(*p);
                    }
                }
            });
        }
    });

    assert_eq!(concurrent.len(), sequential.len());
    assert_eq!(concurrent.total_cost(), sequential.total_cost());
    let (c, s) = (concurrent.read(), sequential.read());
    assert_eq!(c.od_rejections_by_region(), s.od_rejections_by_region());
    let span = (SimTime::ZERO, SimTime::from_secs(3000));
    for &m in &markets {
        for kind in [ProbeKind::OnDemand, ProbeKind::Spot] {
            assert_eq!(c.probe_stats(m, kind), s.probe_stats(m, kind));
            assert_eq!(c.rejection_times(m, kind), s.rejection_times(m, kind));
            assert_eq!(
                c.closed_interval_count(m, kind),
                s.closed_interval_count(m, kind)
            );
            let ci: Vec<_> = c.intervals_of(m, kind).map(|i| (i.start, i.end)).collect();
            let si: Vec<_> = s.intervals_of(m, kind).map(|i| (i.start, i.end)).collect();
            assert_eq!(ci, si, "intervals of {m} {kind:?}");
            assert_eq!(
                c.unavailable_seconds_in(m, kind, span.0, span.1),
                s.unavailable_seconds_in(m, kind, span.0, span.1)
            );
        }
    }
}

// ---- advisor top-n selection vs the full sort it replaced --------------

/// Forty markets over two regions: with at most 200 probes most of them
/// are never rejected, so `unavailable_fraction == 0.0` ties dominate.
fn advisor_markets() -> Vec<MarketId> {
    let mut out = Vec::new();
    for region in [Region::UsEast1, Region::SaEast1] {
        for zone in 0..4u8 {
            for ty in [
                "c3.large",
                "c3.xlarge",
                "m3.large",
                "r3.8xlarge",
                "t1.micro",
            ] {
                out.push(MarketId {
                    az: Az::new(region, zone),
                    instance_type: ty.parse().unwrap(),
                    platform: Platform::LinuxUnix,
                });
            }
        }
    }
    out
}

/// `top_available_markets` as it was before the top-n selection: a
/// stable sort of every qualifying row, then `truncate(n)`.
fn full_sort_top(
    q: &SpotLightQuery<'_>,
    candidates: &[MarketId],
    region: Option<Region>,
    min_probes: u64,
    n: usize,
) -> Vec<(MarketId, AvailabilityStats)> {
    let mut rows: Vec<(MarketId, AvailabilityStats)> = candidates
        .iter()
        .copied()
        .filter(|m| region.is_none_or(|r| m.region() == r))
        .map(|m| (m, q.availability(m, ProbeKind::OnDemand)))
        .filter(|(_, st)| st.probes >= min_probes)
        .collect();
    rows.sort_by(|a, b| {
        a.1.unavailable_fraction
            .partial_cmp(&b.1.unavailable_fraction)
            .expect("fractions are finite")
    });
    rows.truncate(n);
    rows
}

/// `uncorrelated_fallbacks` as it was: stable sort, then `take(n)`.
fn full_sort_fallbacks(
    q: &SpotLightQuery<'_>,
    market: MarketId,
    candidates: &[MarketId],
    window: SimDuration,
    n: usize,
) -> Vec<MarketId> {
    let mut rows: Vec<(MarketId, f64, f64)> = candidates
        .iter()
        .copied()
        .filter(|&c| c != market && c.pool() != market.pool())
        .map(|c| {
            let corr = q
                .conditional_unavailability(market, c, window)
                .unwrap_or(0.0);
            let own = q.availability(c, ProbeKind::OnDemand).unavailable_fraction;
            (c, corr, own)
        })
        .collect();
    rows.sort_by(|a, b| (a.1, a.2).partial_cmp(&(b.1, b.2)).expect("finite scores"));
    rows.into_iter().take(n).map(|(m, _, _)| m).collect()
}

proptest! {
    #[test]
    fn advisor_top_n_selection_matches_the_full_sort(
        probes in proptest::collection::vec((0usize..40, 0u64..40, 0u8..8), 0..200),
        n_picks in (0usize..8, 0usize..45),
        min_probes in 0u64..4,
        region_pick in 0usize..3,
        target in 0usize..40,
    ) {
        let (n_pick, n_free) = n_picks;
        let markets = advisor_markets();
        let store = DataStore::new();
        let mut at = 0u64;
        for (m, step, roll) in probes {
            at += step;
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(at),
                market: markets[m],
                kind: ProbeKind::OnDemand,
                trigger: ProbeTrigger::Periodic,
                // Rejections are rare, so most fractions tie at 0.0.
                outcome: if roll == 0 {
                    ProbeOutcome::InsufficientCapacity
                } else {
                    ProbeOutcome::Fulfilled
                },
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            });
        }
        let read = store.read();
        let q = SpotLightQuery::new(&read, SimTime::ZERO, SimTime::from_secs(at + 1));
        // The serving tier's candidate list: every probed market, sorted.
        let mut candidates: Vec<MarketId> = read.probed_markets().collect();
        candidates.sort_unstable();
        let len = candidates.len();
        let n = [0, 1, 10, len, len + 1, usize::MAX, n_free, len.saturating_sub(1)][n_pick];
        let region = [None, Some(Region::UsEast1), Some(Region::SaEast1)][region_pick];

        prop_assert_eq!(
            q.top_available_markets(&candidates, region, min_probes, n),
            full_sort_top(&q, &candidates, region, min_probes, n)
        );
        // All forty markets, unprobed ones included, in catalog order.
        prop_assert_eq!(
            q.top_available_markets(&markets, region, min_probes, n),
            full_sort_top(&q, &markets, region, min_probes, n)
        );
        let window = SimDuration::from_secs(900);
        prop_assert_eq!(
            q.uncorrelated_fallbacks(markets[target], &candidates, window, n),
            full_sort_fallbacks(&q, markets[target], &candidates, window, n)
        );
        prop_assert_eq!(
            q.uncorrelated_fallbacks(markets[target], &markets, window, n),
            full_sort_fallbacks(&q, markets[target], &markets, window, n)
        );
    }
}

// ---- the snapshot's derived table and memo vs the reference path -------

proptest! {
    // What `/v1/advisor/*` and `/v1/spike-rates` answer from — the
    // snapshot's lazily derived `AdvisorTable` (its rows and the rank
    // the default span walks) and spike-count memo — equals
    // `SpotLightQuery` over `observed_markets()` and
    // `StoreRead::spikes_at_or_above_each`, which never read either.
    #[test]
    fn derived_advisor_table_and_spike_memo_match_the_reference(
        // (The shim takes at most five strategies: grouped.)
        // Times in any order: keys go disordered, intervals stay open.
        load in (
            proptest::collection::vec((0usize..40, 0u8..10, 0u8..6, 0u64..50_000), 0..250),
            proptest::collection::vec((0usize..40, 0u64..50_000, 0.0f64..12.0), 0..60),
            prop_oneof![Just(None), (0u64..60_000).prop_map(Some)],
            any::<bool>(),
        ),
        as_of in prop_oneof![Just(0u64), Just(1u64), 1u64..60_000],
        explicit in (0u64..50_000, 1u64..50_000),
        picks in (0usize..40, 0usize..40, 2u64..6),
        thresholds in proptest::collection::vec(
            prop_oneof![Just(0.0f64), Just(1.25), Just(2.0), Just(5.0), 0.0f64..12.0], 1..40),
    ) {
        let (probes, spikes, compact_before, bursts) = load;
        let k = picks.2;
        let markets = advisor_markets();
        let store = DataStore::new();
        for (m, kind, outcome, t) in probes {
            // The burst family: every probe lands in one of five
            // 600-second bursts and half of them are rejections, so most
            // markets reject within the window of one another's
            // detections — correlated candidates, ranked last.
            let (t, outcome) = if bursts {
                (t % 5 * 10_000 + t / 5 % 600, if outcome == 2 { 3 } else { outcome })
            } else {
                (t, outcome)
            };
            store.record_probe(ProbeRecord {
                at: SimTime::from_secs(t),
                market: markets[m],
                // Mostly on-demand; some markets end up spot-only.
                kind: if kind < 8 { ProbeKind::OnDemand } else { ProbeKind::Spot },
                trigger: ProbeTrigger::Periodic,
                outcome: [
                    ProbeOutcome::Fulfilled,
                    ProbeOutcome::Fulfilled,
                    ProbeOutcome::Fulfilled,
                    ProbeOutcome::InsufficientCapacity,
                    ProbeOutcome::CapacityNotAvailable,
                    ProbeOutcome::ApiLimited,
                ][usize::from(outcome)],
                spot_ratio: 1.0,
                bid: None,
                cost: Price::ZERO,
            });
        }
        for (m, t, ratio) in spikes {
            store.record_spike(spotlight_core::store::SpikeEvent {
                market: markets[m],
                at: SimTime::from_secs(t),
                ratio,
                probed: true,
            });
        }
        if let Some(before) = compact_before {
            store.compact(SimTime::from_secs(before));
        }
        let snapshot = store.snapshot(SimTime::from_secs(as_of));
        let read = snapshot.read();
        let default_span = (SimTime::ZERO, SimTime::from_secs(as_of.max(1)));
        let explicit = (
            SimTime::from_secs(explicit.0),
            SimTime::from_secs(explicit.0 + explicit.1),
        );
        let observed = SpotLightQuery::new(&read, default_span.0, default_span.1).observed_markets();
        prop_assert_eq!(snapshot.probed_markets_sorted(), &observed[..]);
        let len = observed.len();

        for span in [default_span, explicit] {
            let q = SpotLightQuery::new(&read, span.0, span.1);
            // Every region with markets, and one with none.
            for region in [None, Some(Region::UsEast1), Some(Region::SaEast1), Some(Region::EuWest1)] {
                for min_probes in [0, 1, k] {
                    for n in [0, 1, 10, len + 1] {
                        prop_assert_eq!(
                            snapshot.top_available_markets(span, region, min_probes, n),
                            q.top_available_markets(&observed, region, min_probes, n),
                            "top: span {:?} region {:?} min_probes {} n {}", span, region, min_probes, n
                        );
                    }
                }
            }
        }

        let q = SpotLightQuery::new(&read, default_span.0, default_span.1);
        let never_probed = MarketId { az: Az::new(Region::EuWest1, 0), ..markets[0] };
        // `markets[i ^ 1]` shares `markets[i]`'s pool for the c3 pair.
        for origin in [markets[picks.0], markets[picks.1], markets[picks.0 ^ 1], never_probed] {
            for window in [60, 900, 50_000].map(SimDuration::from_secs) {
                // Where the snapshot's walk hands over to the rows it set
                // aside: after the candidates the reference scores
                // uncorrelated, of which those it scores (0, 0) lead.
                let scores: Vec<(f64, f64)> = (observed.iter())
                    .filter(|&&c| c != origin && c.pool() != origin.pool())
                    .map(|&c| {
                        let corr = q.conditional_unavailability(origin, c, window).unwrap_or(0.0);
                        (corr, q.availability(c, ProbeKind::OnDemand).unavailable_fraction)
                    })
                    .collect();
                let uncorrelated = scores.iter().filter(|s| s.0 == 0.0).count();
                let idle = scores.iter().filter(|&&s| s == (0.0, 0.0)).count();
                let edges = [uncorrelated, idle].map(|z| [z.saturating_sub(1), z, z + 1]);
                for n in [0, 1, 10, len + 1].into_iter().chain(edges.into_iter().flatten()) {
                    prop_assert_eq!(
                        snapshot.uncorrelated_fallbacks(origin, window, n),
                        q.uncorrelated_fallbacks(origin, &observed, window, n),
                        "fallbacks: origin {} window {:?} n {}", origin, window, n
                    );
                }
            }
        }

        // The memo: first asked, repeated, permuted, then pushed past
        // its capacity by distinct thresholds — and asked again.
        let mut permuted = thresholds.clone();
        permuted.reverse();
        let flood: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..30).map(|j| f64::from(i * 30 + j) / 7.0).collect())
            .collect();
        let lists = [&thresholds, &thresholds, &permuted, &flood[0], &flood[1], &flood[2], &permuted, &flood[2]];
        for (i, list) in lists.into_iter().enumerate() {
            prop_assert_eq!(
                snapshot.spikes_at_or_above_each(list),
                read.spikes_at_or_above_each(list),
                "spike counts, list {}", i
            );
        }
        let window = SimDuration::from_secs(3600);
        let q = SpotLightQuery::new(&read, explicit.0, explicit.1);
        let counts = snapshot.spikes_at_or_above_each(&thresholds);
        prop_assert_eq!(
            q.spike_rates_from(&thresholds, counts, window),
            q.spike_rates(&thresholds, window)
        );
    }
}

/// The walk at catalog scale: every market of the standard catalog,
/// probed on demand over a day, one in eighty rejecting in hourly bursts
/// shared with the others like it and one in eighty at random times.
/// Every origin's fallbacks (n = 5 and everything) and the top of every
/// region equal the reference's.
#[test]
fn advisor_walk_matches_the_reference_over_the_full_catalog() {
    let markets = Catalog::standard().markets().to_vec();
    let store = DataStore::new();
    let mut rng = SimRng::seed_from(25);
    for i in 0..30_000 {
        // Each market once, then at random: 1 to ~15 probes each.
        let m = if i < markets.len() {
            i
        } else {
            rng.uniform_usize(0, markets.len())
        };
        let (at, rejected) = match m % 80 {
            0 => (
                rng.uniform_usize(0, 24) * 3600 + rng.uniform_usize(0, 300),
                rng.chance(0.5),
            ),
            1 => (rng.uniform_usize(0, 86_400), rng.chance(0.3)),
            _ => (rng.uniform_usize(0, 86_400), false),
        };
        store.record_probe(ProbeRecord {
            at: SimTime::from_secs(at as u64),
            market: markets[m],
            kind: ProbeKind::OnDemand,
            trigger: ProbeTrigger::Periodic,
            outcome: if rejected {
                ProbeOutcome::InsufficientCapacity
            } else {
                ProbeOutcome::Fulfilled
            },
            spot_ratio: 1.0,
            bid: None,
            cost: Price::ZERO,
        });
    }
    let snapshot = store.snapshot(SimTime::from_secs(86_400));
    let read = snapshot.read();
    let span = (SimTime::ZERO, snapshot.as_of());
    let q = SpotLightQuery::new(&read, span.0, span.1);
    let observed = q.observed_markets();
    let len = observed.len();
    assert_eq!(len, markets.len());

    for region in std::iter::once(None).chain(Region::ALL.map(Some)) {
        for (min_probes, n) in [(0, 5), (0, len + 1), (6, 5), (6, len + 1)] {
            assert_eq!(
                snapshot.top_available_markets(span, region, min_probes, n),
                q.top_available_markets(&observed, region, min_probes, n),
                "top: region {region:?} min_probes {min_probes} n {n}"
            );
        }
    }

    // The reference ranks every candidate per origin; asked of every
    // origin that is too slow unoptimised. An origin without detections
    // scores every candidate uncorrelated, so its reference answer is the
    // availability order less its pool (contiguous in `observed`) —
    // checked against the reference itself once per region.
    let window = SimDuration::from_secs(900);
    let by_availability: Vec<MarketId> = (q.top_available_markets(&observed, None, 0, len))
        .into_iter()
        .map(|(m, _)| m)
        .collect();
    let mut checked = Vec::new();
    let (mut detected, mut set_aside) = (0, 0);
    for pool in observed.chunk_by(|a, b| a.pool() == b.pool()) {
        let uncorrelated: Vec<MarketId> = (by_availability.iter().copied())
            .filter(|c| c.pool() != pool[0].pool())
            .collect();
        for &origin in pool {
            let reference = || q.uncorrelated_fallbacks(origin, &observed, window, len + 1);
            let all = if q
                .conditional_unavailability(origin, origin, window)
                .is_some()
            {
                detected += 1;
                &reference()
            } else {
                if !checked.contains(&origin.region()) {
                    checked.push(origin.region());
                    assert_eq!(uncorrelated, reference(), "origin {origin}");
                }
                &uncorrelated
            };
            let correlated = (all.iter().rev())
                .take_while(|&&c| q.conditional_unavailability(origin, c, window) > Some(0.0))
                .count();
            set_aside += usize::from(correlated > 1);
            let walked = snapshot.uncorrelated_fallbacks(origin, window, len + 1);
            assert!(walked == *all, "origin {origin}");
            let top5 = snapshot.uncorrelated_fallbacks(origin, window, 5);
            assert_eq!(top5, all[..5], "origin {origin}");
        }
    }
    assert_eq!(checked.len(), Region::ALL.len());
    // The fill path ran: origins whose answer ends in several correlated
    // candidates, which the walk ranks only after it runs out.
    assert!(
        detected > 50 && set_aside > 20,
        "{detected} origins with detections, {set_aside} filled"
    );
}
