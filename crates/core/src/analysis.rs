//! The Chapter 5 analyses: every computation behind Figures 5.4–5.12,
//! as pure functions over a probe-store snapshot ([`StoreRead`]).
//!
//! The statistical definitions follow the paper:
//!
//! * trials are *probed* spikes, clustered so that only the first spike
//!   per market per window counts (Fig 5.4);
//! * "unavailable within a window" means a rejected probe for the same
//!   market inside `[spike, spike + window]`;
//! * related-market questions (Figs 5.7, 5.8, 5.12) look for rejections
//!   of markets in the same family/region (or the same type across
//!   zones) within the window of a detection.

use crate::probe::{ProbeKind, ProbeOutcome};
use crate::stats::{BucketedRate, Ecdf};
use crate::store::StoreRead;
use cloud_sim::ids::{Family, MarketId, Region};
use cloud_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// The paper's spike-size thresholds: ≥0×, ≥1×, …, ≥10× on-demand.
pub fn spike_thresholds() -> Vec<f64> {
    let mut v = vec![0.0];
    v.extend((1..=10).map(|k| k as f64));
    v
}

/// The paper's spot-price buckets for Figures 5.10/5.11, as lower edges
/// of the spot/od ratio: `[0, 1/10, 1/9, …, 1/2, 1]`.
pub fn spot_ratio_buckets() -> Vec<f64> {
    let mut v = vec![0.0];
    v.extend((2..=10).rev().map(|k| 1.0 / k as f64));
    v.push(1.0);
    v
}

/// One point of a probability-vs-spike-size curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The spike threshold (≥ this multiple of on-demand).
    pub threshold: f64,
    /// Estimated probability, `None` with zero trials.
    pub probability: Option<f64>,
    /// Trials at or above the threshold.
    pub trials: u64,
}

/// A per-market view of rejected on-demand probe times, served from the
/// store's time-sorted rejection index (no probe-log scan).
fn od_rejections<'a>(store: &'a StoreRead<'a>) -> HashMap<MarketId, &'a [SimTime]> {
    store
        .rejection_entries()
        .filter(|&((_, kind), _)| kind == ProbeKind::OnDemand)
        .map(|((market, _), times)| (market, times))
        .collect()
}

/// A per-(region, family) time-sorted index of *detections* (the opening
/// of measured unavailability intervals). Using detections rather than
/// every rejected recovery probe keeps long outages from being counted
/// once per re-probe.
fn detections_by_group(
    store: &StoreRead<'_>,
    kind: ProbeKind,
) -> HashMap<(Region, Family), Vec<(SimTime, MarketId)>> {
    let mut idx: HashMap<(Region, Family), Vec<(SimTime, MarketId)>> = HashMap::new();
    for i in store.intervals() {
        if i.kind == kind {
            idx.entry((i.market.region(), i.market.instance_type.family()))
                .or_default()
                .push((i.start, i.market));
        }
    }
    for v in idx.values_mut() {
        v.sort_by_key(|&(t, _)| t);
    }
    idx
}

fn any_in_window(sorted: &[SimTime], from: SimTime, to: SimTime) -> bool {
    let i = sorted.partition_point(|&t| t < from);
    sorted.get(i).is_some_and(|&t| t <= to)
}

/// Figure 5.4 / 5.6: P(on-demand unavailable within `window` of a spike)
/// as a function of spike size; `region` restricts to one region.
pub fn spike_unavailability(
    store: &StoreRead<'_>,
    window: SimDuration,
    region: Option<Region>,
) -> Vec<CurvePoint> {
    let rejections = od_rejections(store);
    let mut rate = BucketedRate::new(&spike_thresholds());

    // Cluster probed spikes per market: first spike per window opens a
    // cluster; later spikes within the window join it.
    let mut by_market: HashMap<MarketId, Vec<(SimTime, f64)>> = HashMap::new();
    for s in store.spikes() {
        if !s.probed {
            continue;
        }
        if region.is_some_and(|r| s.market.region() != r) {
            continue;
        }
        by_market.entry(s.market).or_default().push((s.at, s.ratio));
    }
    for (market, mut spikes) in by_market {
        spikes.sort_by_key(|&(t, _)| t);
        let rej: &[SimTime] = rejections.get(&market).copied().unwrap_or(&[]);
        let mut cluster_start: Option<SimTime> = None;
        let mut cluster_max = 0.0_f64;
        let flush = |start: SimTime, max_ratio: f64, rate: &mut BucketedRate| {
            let hit = any_in_window(rej, start, start + window);
            rate.observe(max_ratio, hit);
        };
        for (t, ratio) in spikes {
            match cluster_start {
                None => {
                    cluster_start = Some(t);
                    cluster_max = ratio;
                }
                Some(start) if t.saturating_since(start) <= window => {
                    cluster_max = cluster_max.max(ratio);
                }
                Some(start) => {
                    flush(start, cluster_max, &mut rate);
                    cluster_start = Some(t);
                    cluster_max = ratio;
                }
            }
        }
        if let Some(start) = cluster_start {
            flush(start, cluster_max, &mut rate);
        }
    }

    (0..rate.edges().len())
        .map(|b| CurvePoint {
            threshold: rate.edges()[b],
            probability: rate.cumulative_rate(b),
            trials: rate.cumulative_trials(b),
        })
        .collect()
}

/// Figure 5.5: the share of rejected on-demand probes landing in each
/// region, per spike-size bucket. Returns `(edges, region → share per
/// bucket)`; shares within one bucket sum to 1 (when it has any
/// rejections).
pub fn regional_rejection_share(store: &StoreRead<'_>) -> (Vec<f64>, BTreeMap<Region, Vec<f64>>) {
    let edges = spike_thresholds();
    let probe_bucket = BucketedRate::new(&edges);
    let mut counts: BTreeMap<Region, Vec<u64>> = BTreeMap::new();
    let mut totals = vec![0u64; edges.len()];
    for p in store.probes() {
        if p.kind != ProbeKind::OnDemand || p.outcome != ProbeOutcome::InsufficientCapacity {
            continue;
        }
        let Some(ratio) = p.trigger.spike_ratio() else {
            continue;
        };
        let Some(b) = probe_bucket.bucket_of(ratio) else {
            continue;
        };
        counts
            .entry(p.market.region())
            .or_insert_with(|| vec![0; edges.len()])[b] += 1;
        totals[b] += 1;
    }
    let shares = counts
        .into_iter()
        .map(|(r, c)| {
            (
                r,
                c.iter()
                    .zip(&totals)
                    .map(|(&n, &t)| if t > 0 { n as f64 / t as f64 } else { 0.0 })
                    .collect(),
            )
        })
        .collect();
    (edges, shares)
}

/// Figure 5.7: of all rejected on-demand probes, the share found via the
/// triggering price spike versus via related-market fan-out, per spike
/// bucket. Returns `(edges, by_spike_share, by_related_share)`.
pub fn rejection_attribution(store: &StoreRead<'_>) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let edges = spike_thresholds();
    let bucketer = BucketedRate::new(&edges);
    let mut spike = vec![0u64; edges.len()];
    let mut related = vec![0u64; edges.len()];
    for p in store.probes() {
        if p.kind != ProbeKind::OnDemand || p.outcome != ProbeOutcome::InsufficientCapacity {
            continue;
        }
        let Some(ratio) = p.trigger.spike_ratio() else {
            continue;
        };
        let Some(b) = bucketer.bucket_of(ratio) else {
            continue;
        };
        if p.trigger.is_related() {
            related[b] += 1;
        } else {
            spike[b] += 1;
        }
    }
    let mut spike_share = Vec::with_capacity(edges.len());
    let mut related_share = Vec::with_capacity(edges.len());
    for b in 0..edges.len() {
        let total = spike[b] + related[b];
        if total == 0 {
            spike_share.push(0.0);
            related_share.push(0.0);
        } else {
            spike_share.push(spike[b] as f64 / total as f64);
            related_share.push(related[b] as f64 / total as f64);
        }
    }
    (edges, spike_share, related_share)
}

/// Figure 5.8: after an initial on-demand detection, the probability
/// that at least one *same-type* market in another zone is also detected
/// unavailable within `window`, as a function of the detection's spike
/// size.
pub fn cross_az_unavailability(store: &StoreRead<'_>, window: SimDuration) -> Vec<CurvePoint> {
    let rejections = od_rejections(store);
    let mut rate = BucketedRate::new(&spike_thresholds());

    for interval in store.intervals() {
        if interval.kind != ProbeKind::OnDemand || interval.detected_via_related {
            continue;
        }
        let m = interval.market;
        let t = interval.start;
        let mut hit = false;
        for (&other, &times) in &rejections {
            if other == m
                || other.instance_type != m.instance_type
                || other.platform != m.platform
                || other.region() != m.region()
            {
                continue;
            }
            if any_in_window(times, t, t + window) {
                hit = true;
                break;
            }
        }
        rate.observe(interval.detect_ratio, hit);
    }

    (0..rate.edges().len())
        .map(|b| CurvePoint {
            threshold: rate.edges()[b],
            probability: rate.cumulative_rate(b),
            trials: rate.cumulative_trials(b),
        })
        .collect()
}

/// Figure 5.9: the CDF of measured on-demand unavailability durations,
/// in hours.
pub fn duration_cdf(store: &StoreRead<'_>) -> Ecdf {
    Ecdf::from_samples(
        store
            .intervals()
            .filter(|i| i.kind == ProbeKind::OnDemand)
            .filter_map(|i| i.duration().map(|d| d.as_hours_f64()))
            .collect(),
    )
}

/// Figure 5.10: P(capacity-not-available) for spot probes as a function
/// of the spot/od price ratio; `region` restricts to one region.
///
/// Only the periodic `CheckCapacity` stream (§3.3) counts:
/// cross-verification probes and recovery re-probes fired during
/// on-demand squeezes would otherwise bias the high-price buckets.
pub fn spot_cna_curve(store: &StoreRead<'_>, region: Option<Region>) -> Vec<CurvePoint> {
    use crate::probe::ProbeTrigger;
    let mut rate = BucketedRate::new(&spot_ratio_buckets());
    for p in store.probes() {
        if p.kind != ProbeKind::Spot || !matches!(p.trigger, ProbeTrigger::Periodic) {
            continue;
        }
        if region.is_some_and(|r| p.market.region() != r) {
            continue;
        }
        // Only capacity-informative outcomes count as trials: a
        // fulfilled probe or a capacity rejection.
        let cna = match p.outcome {
            ProbeOutcome::CapacityNotAvailable => true,
            ProbeOutcome::Fulfilled => false,
            _ => continue,
        };
        rate.observe(p.spot_ratio, cna);
    }
    (0..rate.edges().len())
        .map(|b| CurvePoint {
            threshold: rate.edges()[b],
            probability: rate.rate(b),
            trials: rate.trials(b),
        })
        .collect()
}

/// Figure 5.11: where spot capacity-not-available events land, as a
/// share per region per price bucket. Returns `(edges, region →
/// share-of-all-CNA per bucket)`.
pub fn spot_cna_distribution(store: &StoreRead<'_>) -> (Vec<f64>, BTreeMap<Region, Vec<f64>>) {
    let edges = spot_ratio_buckets();
    let bucketer = BucketedRate::new(&edges);
    let mut counts: BTreeMap<Region, Vec<u64>> = BTreeMap::new();
    let mut total = 0u64;
    for p in store.probes() {
        use crate::probe::ProbeTrigger;
        if p.kind == ProbeKind::Spot
            && p.outcome == ProbeOutcome::CapacityNotAvailable
            && matches!(p.trigger, ProbeTrigger::Periodic)
        {
            if let Some(b) = bucketer.bucket_of(p.spot_ratio) {
                counts
                    .entry(p.market.region())
                    .or_insert_with(|| vec![0; edges.len()])[b] += 1;
                total += 1;
            }
        }
    }
    let shares = counts
        .into_iter()
        .map(|(r, c)| {
            (
                r,
                c.iter()
                    .map(|&n| {
                        if total > 0 {
                            n as f64 / total as f64
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    (edges, shares)
}

/// The four relations of Figure 5.12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrossRelation {
    /// On-demand detection → related on-demand unavailability.
    OdOd,
    /// Spot detection → related spot unavailability.
    SpotSpot,
    /// On-demand detection → related spot unavailability.
    OdSpot,
    /// Spot detection → related on-demand unavailability.
    SpotOd,
}

impl CrossRelation {
    /// All four relations in figure order.
    pub const ALL: [CrossRelation; 4] = [
        CrossRelation::OdOd,
        CrossRelation::SpotSpot,
        CrossRelation::OdSpot,
        CrossRelation::SpotOd,
    ];

    /// The figure's label for the relation.
    pub fn label(self) -> &'static str {
        match self {
            CrossRelation::OdOd => "od-od",
            CrossRelation::SpotSpot => "spot-spot",
            CrossRelation::OdSpot => "od-spot",
            CrossRelation::SpotOd => "spot-od",
        }
    }
}

/// Figure 5.12: after a detection of one kind, the probability that a
/// *related* market (same family, same region, a different zone) is
/// detected unavailable in the other (or same) kind within each window.
pub fn cross_market_unavailability(
    store: &StoreRead<'_>,
    windows: &[SimDuration],
) -> BTreeMap<CrossRelation, Vec<f64>> {
    let od_idx = detections_by_group(store, ProbeKind::OnDemand);
    let spot_idx = detections_by_group(store, ProbeKind::Spot);
    let mut out: BTreeMap<CrossRelation, Vec<f64>> = BTreeMap::new();

    for relation in CrossRelation::ALL {
        let (from_kind, to_idx) = match relation {
            CrossRelation::OdOd => (ProbeKind::OnDemand, &od_idx),
            CrossRelation::SpotSpot => (ProbeKind::Spot, &spot_idx),
            CrossRelation::OdSpot => (ProbeKind::OnDemand, &spot_idx),
            CrossRelation::SpotOd => (ProbeKind::Spot, &od_idx),
        };
        // One pass over the interval log per relation: each trial
        // binary-searches the detection index once and then walks
        // forward, accumulating hits for every window at once.
        let mut trials = 0u64;
        let mut hits = vec![0u64; windows.len()];
        for interval in store.intervals() {
            if interval.kind != from_kind {
                continue;
            }
            let m = interval.market;
            let group = (m.region(), m.instance_type.family());
            trials += 1;
            let Some(entries) = to_idx.get(&group) else {
                continue;
            };
            let from = interval.start;
            let i = entries.partition_point(|&(t, _)| t < from);
            for (wi, &w) in windows.iter().enumerate() {
                let to = from + w;
                if entries[i..]
                    .iter()
                    .take_while(|&&(t, _)| t <= to)
                    .any(|&(_, other)| other.az != m.az)
                {
                    hits[wi] += 1;
                }
            }
        }
        let probs = hits
            .into_iter()
            .map(|h| {
                if trials > 0 {
                    h as f64 / trials as f64
                } else {
                    0.0
                }
            })
            .collect();
        out.insert(relation, probs);
    }
    out
}

/// Figure 5.3: the least bid needed to hold an instance for each horizon,
/// computed as the forward rolling maximum of a price trace. Input
/// points are `(seconds, dollars)`.
pub fn holding_price_series(
    trace: &[(u64, f64)],
    horizons: &[SimDuration],
) -> Vec<(SimDuration, Vec<(u64, f64)>)> {
    horizons
        .iter()
        .map(|&h| (h, crate::stats::rolling_forward_max(trace, h.as_secs())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeRecord, ProbeTrigger};
    use crate::store::DataStore;
    use crate::store::SpikeEvent;
    use cloud_sim::ids::{Az, Platform};
    use cloud_sim::price::Price;

    fn market(region: Region, az: u8, ty: &str) -> MarketId {
        MarketId {
            az: Az::new(region, az),
            instance_type: ty.parse().unwrap(),
            platform: Platform::LinuxUnix,
        }
    }

    fn probe(
        at: u64,
        m: MarketId,
        kind: ProbeKind,
        trigger: ProbeTrigger,
        outcome: ProbeOutcome,
        ratio: f64,
    ) -> ProbeRecord {
        ProbeRecord {
            at: SimTime::from_secs(at),
            market: m,
            kind,
            trigger,
            outcome,
            spot_ratio: ratio,
            bid: None,
            cost: Price::ZERO,
        }
    }

    fn spike(at: u64, m: MarketId, ratio: f64) -> SpikeEvent {
        SpikeEvent {
            market: m,
            at: SimTime::from_secs(at),
            ratio,
            probed: true,
        }
    }

    #[test]
    fn spike_curve_counts_hits_within_window() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        // Spike at t=0 (ratio 2), rejection at t=100 → hit for 900 s
        // window. Spike at t=5000 (ratio 5), no rejection → miss.
        s.record_spike(spike(0, m, 2.0));
        s.record_probe(probe(
            100,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::PriceSpike { ratio: 2.0 },
            ProbeOutcome::InsufficientCapacity,
            2.0,
        ));
        s.record_spike(spike(5000, m, 5.0));
        let curve = spike_unavailability(&s.read(), SimDuration::from_secs(900), None);
        // Threshold >=0: 2 trials, 1 hit.
        assert_eq!(curve[0].trials, 2);
        assert_eq!(curve[0].probability, Some(0.5));
        // Threshold >=5: 1 trial (the big spike), 0 hits.
        let p5 = curve.iter().find(|c| c.threshold == 5.0).unwrap();
        assert_eq!(p5.trials, 1);
        assert_eq!(p5.probability, Some(0.0));
    }

    #[test]
    fn spike_clustering_merges_within_window() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        // Three spikes inside one 900 s window = one trial.
        s.record_spike(spike(0, m, 1.0));
        s.record_spike(spike(300, m, 3.0));
        s.record_spike(spike(600, m, 2.0));
        let curve = spike_unavailability(&s.read(), SimDuration::from_secs(900), None);
        assert_eq!(curve[0].trials, 1);
        // The cluster carries its max ratio (3.0).
        let p3 = curve.iter().find(|c| c.threshold == 3.0).unwrap();
        assert_eq!(p3.trials, 1);
    }

    #[test]
    fn attribution_splits_by_trigger() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        let sib = market(Region::UsEast1, 0, "c3.xlarge");
        s.record_probe(probe(
            0,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::PriceSpike { ratio: 2.0 },
            ProbeOutcome::InsufficientCapacity,
            2.0,
        ));
        for t in [10, 20] {
            s.record_probe(probe(
                t,
                sib,
                ProbeKind::OnDemand,
                ProbeTrigger::FamilyFanout {
                    origin: m,
                    origin_ratio: 2.0,
                },
                ProbeOutcome::InsufficientCapacity,
                0.2,
            ));
        }
        let (edges, by_spike, by_related) = rejection_attribution(&s.read());
        let b = edges.iter().position(|&e| e == 2.0).unwrap();
        assert!((by_spike[b] - 1.0 / 3.0).abs() < 1e-9);
        assert!((by_related[b] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cross_az_looks_at_same_type_other_zones() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        let other_az = market(Region::UsEast1, 1, "c3.large");
        let other_type = market(Region::UsEast1, 1, "c3.xlarge");
        // Detection in zone a.
        s.record_probe(probe(
            0,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::PriceSpike { ratio: 2.0 },
            ProbeOutcome::InsufficientCapacity,
            2.0,
        ));
        // Same type rejected in zone b within the window → hit.
        s.record_probe(probe(
            100,
            other_az,
            ProbeKind::OnDemand,
            ProbeTrigger::CrossAzFanout {
                origin: m,
                origin_ratio: 2.0,
            },
            ProbeOutcome::InsufficientCapacity,
            0.3,
        ));
        // A different type in zone b should NOT count for Fig 5.8.
        s.record_probe(probe(
            110,
            other_type,
            ProbeKind::OnDemand,
            ProbeTrigger::FamilyFanout {
                origin: m,
                origin_ratio: 2.0,
            },
            ProbeOutcome::InsufficientCapacity,
            0.3,
        ));
        let curve = cross_az_unavailability(&s.read(), SimDuration::from_secs(900));
        // Three intervals opened, but only the zone-a one is an initial
        // (non-related) detection... the cross-az one was opened via a
        // related trigger, so trials == 1.
        assert_eq!(curve[0].trials, 1);
        assert_eq!(curve[0].probability, Some(1.0));
    }

    #[test]
    fn duration_cdf_uses_closed_od_intervals() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        s.record_probe(probe(
            0,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::PriceSpike { ratio: 2.0 },
            ProbeOutcome::InsufficientCapacity,
            2.0,
        ));
        s.record_probe(probe(
            7200,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::Recovery,
            ProbeOutcome::Fulfilled,
            0.2,
        ));
        let cdf = duration_cdf(&s.read());
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.quantile(1.0), Some(2.0), "two hours");
    }

    #[test]
    fn spot_cna_curve_buckets_by_ratio() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        // Low ratio: 1 CNA + 1 fulfilled → 50%.
        for (t, outcome) in [
            (0, ProbeOutcome::CapacityNotAvailable),
            (1000, ProbeOutcome::Fulfilled),
        ] {
            s.record_probe(probe(
                t,
                m,
                ProbeKind::Spot,
                ProbeTrigger::Periodic,
                outcome,
                0.05,
            ));
        }
        // High ratio: fulfilled only.
        s.record_probe(probe(
            2000,
            m,
            ProbeKind::Spot,
            ProbeTrigger::Periodic,
            ProbeOutcome::Fulfilled,
            0.9,
        ));
        // Held outcomes are not capacity trials.
        s.record_probe(probe(
            3000,
            m,
            ProbeKind::Spot,
            ProbeTrigger::Periodic,
            ProbeOutcome::PriceTooLow,
            0.05,
        ));
        let curve = spot_cna_curve(&s.read(), None);
        assert_eq!(curve[0].trials, 2);
        assert_eq!(curve[0].probability, Some(0.5));
        let hi = curve.iter().find(|c| c.threshold == 0.5).unwrap();
        assert_eq!(hi.trials, 1);
        assert_eq!(hi.probability, Some(0.0));
    }

    #[test]
    fn cross_market_relations() {
        let s = DataStore::new();
        let m = market(Region::UsEast1, 0, "c3.large");
        let related = market(Region::UsEast1, 1, "c3.xlarge");
        // od detection at t=0; related spot CNA at t=600.
        s.record_probe(probe(
            0,
            m,
            ProbeKind::OnDemand,
            ProbeTrigger::PriceSpike { ratio: 2.0 },
            ProbeOutcome::InsufficientCapacity,
            2.0,
        ));
        s.record_probe(probe(
            600,
            related,
            ProbeKind::Spot,
            ProbeTrigger::Periodic,
            ProbeOutcome::CapacityNotAvailable,
            0.1,
        ));
        let windows = [SimDuration::from_secs(300), SimDuration::from_secs(900)];
        let out = cross_market_unavailability(&s.read(), &windows);
        let od_spot = &out[&CrossRelation::OdSpot];
        assert_eq!(od_spot[0], 0.0, "600 s arrival misses the 300 s window");
        assert_eq!(od_spot[1], 1.0, "within the 900 s window");
        // spot-od: the spot detection at 600 looks forward; the od
        // rejection happened before it, so no hit.
        assert_eq!(out[&CrossRelation::SpotOd], vec![0.0, 0.0]);
    }

    #[test]
    fn holding_price_is_monotone_in_horizon() {
        let trace: Vec<(u64, f64)> = (0..100)
            .map(|i| (i * 600, 0.1 + 0.05 * ((i * 37) % 11) as f64))
            .collect();
        let series = holding_price_series(&trace, &[SimDuration::hours(1), SimDuration::hours(6)]);
        let one = &series[0].1;
        let six = &series[1].1;
        for (a, b) in one.iter().zip(six) {
            assert!(b.1 >= a.1, "longer horizons need bids at least as high");
            assert!(a.1 >= trace[0].1.min(0.1));
        }
    }
}
