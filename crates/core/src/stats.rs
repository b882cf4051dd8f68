//! Small statistics toolkit: bucketed probability estimators, empirical
//! CDFs, and rolling maxima — the machinery behind the Chapter 5
//! analyses.

/// A probability estimator over ordered threshold buckets: counts trials
/// and successes per bucket and reports `successes / trials`.
///
/// Used for all the "P(unavailable | spike ≥ k×)" curves.
///
/// # Examples
///
/// ```
/// use spotlight_core::stats::BucketedRate;
///
/// let mut r = BucketedRate::new(&[1.0, 2.0, 5.0]);
/// r.observe(2.4, true);   // lands in the ">=2" bucket
/// r.observe(2.6, false);
/// assert_eq!(r.rate(1), Some(0.5));
/// assert_eq!(r.rate(2), None); // no trials at >=5
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BucketedRate {
    edges: Vec<f64>,
    trials: Vec<u64>,
    successes: Vec<u64>,
}

impl BucketedRate {
    /// Creates an estimator with the given ascending bucket lower edges.
    /// A value `v` lands in the last bucket whose edge is ≤ `v`.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "need at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        BucketedRate {
            edges: edges.to_vec(),
            trials: vec![0; edges.len()],
            successes: vec![0; edges.len()],
        }
    }

    /// The bucket index a value lands in, or `None` below the first edge.
    pub fn bucket_of(&self, value: f64) -> Option<usize> {
        if value < self.edges[0] {
            return None;
        }
        Some(self.edges.partition_point(|&e| e <= value) - 1)
    }

    /// Records one trial with the given success flag.
    pub fn observe(&mut self, value: f64, success: bool) {
        if let Some(b) = self.bucket_of(value) {
            self.trials[b] += 1;
            if success {
                self.successes[b] += 1;
            }
        }
    }

    /// The bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Trials in a bucket.
    pub fn trials(&self, bucket: usize) -> u64 {
        self.trials[bucket]
    }

    /// The success rate of one bucket, `None` if it has no trials.
    pub fn rate(&self, bucket: usize) -> Option<f64> {
        (self.trials[bucket] > 0)
            .then(|| self.successes[bucket] as f64 / self.trials[bucket] as f64)
    }

    /// The *cumulative* success rate of all buckets at or above `bucket`
    /// — the "≥ k×" reading of the paper's figures.
    pub fn cumulative_rate(&self, bucket: usize) -> Option<f64> {
        let t: u64 = self.trials[bucket..].iter().sum();
        let s: u64 = self.successes[bucket..].iter().sum();
        (t > 0).then(|| s as f64 / t as f64)
    }

    /// Cumulative trials at or above `bucket`.
    pub fn cumulative_trials(&self, bucket: usize) -> u64 {
        self.trials[bucket..].iter().sum()
    }

    /// Cumulative successes at or above `bucket`.
    pub fn cumulative_successes(&self, bucket: usize) -> u64 {
        self.successes[bucket..].iter().sum()
    }

    /// Merges another estimator with identical edges into this one.
    ///
    /// # Panics
    ///
    /// Panics if the edges differ.
    pub fn merge(&mut self, other: &BucketedRate) {
        assert_eq!(self.edges, other.edges, "bucket edges must match");
        for i in 0..self.trials.len() {
            self.trials[i] += other.trials[i];
            self.successes[i] += other.successes[i];
        }
    }
}

/// An empirical CDF over `f64` samples.
///
/// # Examples
///
/// ```
/// use spotlight_core::stats::Ecdf;
///
/// let cdf = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs remain"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x` (0 when empty).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Rolling maximum of a step function over a look-ahead horizon: for each
/// step point `t`, the maximum value in `[t, t + horizon]`.
///
/// This is the "least price to hold a spot instance for k hours"
/// computation behind Figure 5.3.
pub fn rolling_forward_max(points: &[(u64, f64)], horizon_secs: u64) -> Vec<(u64, f64)> {
    let n = points.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (t, mut m) = points[i];
        let end = t + horizon_secs;
        for &(t2, v2) in &points[i + 1..] {
            if t2 > end {
                break;
            }
            m = m.max(v2);
        }
        out.push((t, m));
    }
    out
}

/// Mean of a slice, `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment() {
        let r = BucketedRate::new(&[1.0, 2.0, 5.0, 10.0]);
        assert_eq!(r.bucket_of(0.5), None);
        assert_eq!(r.bucket_of(1.0), Some(0));
        assert_eq!(r.bucket_of(1.99), Some(0));
        assert_eq!(r.bucket_of(2.0), Some(1));
        assert_eq!(r.bucket_of(7.0), Some(2));
        assert_eq!(r.bucket_of(100.0), Some(3));
    }

    #[test]
    fn rates_and_cumulative() {
        let mut r = BucketedRate::new(&[1.0, 2.0]);
        r.observe(1.5, false);
        r.observe(1.5, false);
        r.observe(1.5, true);
        r.observe(3.0, true);
        assert_eq!(r.rate(0), Some(1.0 / 3.0));
        assert_eq!(r.rate(1), Some(1.0));
        assert_eq!(r.cumulative_rate(0), Some(0.5));
        assert_eq!(r.cumulative_trials(0), 4);
        assert_eq!(r.cumulative_successes(1), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BucketedRate::new(&[1.0]);
        let mut b = BucketedRate::new(&[1.0]);
        a.observe(1.0, true);
        b.observe(1.0, false);
        a.merge(&b);
        assert_eq!(a.rate(0), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unordered_edges_panic() {
        let _ = BucketedRate::new(&[2.0, 1.0]);
    }

    #[test]
    fn ecdf_quantiles() {
        let cdf = Ecdf::from_samples(vec![3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(3.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.fraction_at_or_below(3.5), 0.6);
        assert!((Ecdf::from_samples(vec![]).quantile(0.5)).is_none());
    }

    #[test]
    fn ecdf_drops_nans() {
        let cdf = Ecdf::from_samples(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn rolling_max_looks_forward() {
        let pts = [(0, 1.0), (10, 5.0), (20, 2.0), (40, 9.0)];
        let out = rolling_forward_max(&pts, 15);
        assert_eq!(out[0], (0, 5.0)); // sees t=10
        assert_eq!(out[1], (10, 5.0)); // sees t=20 (2.0) but 5 > 2
        assert_eq!(out[2], (20, 2.0)); // t=40 is beyond 20+15
        assert_eq!(out[3], (40, 9.0));
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }
}
