//! Seeded random sampling used by the demand processes.
//!
//! Everything in the simulator draws from one [`SimRng`] so that a run is
//! fully determined by its seed. The generator is a self-contained
//! xoshiro256++ seeded through SplitMix64 (the container builds offline,
//! so no external RNG crate is used), and the helpers implement the
//! handful of distributions the demand model needs (normal, lognormal,
//! Pareto, Bernoulli) without pulling in a distributions crate.

/// The simulator's seeded random number generator.
///
/// # Examples
///
/// ```
/// use cloud_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// Ziggurat layer count for [`SimRng::standard_normal`].
const ZIG_LAYERS: usize = 128;
/// Tail cut-off of the 128-layer normal ziggurat (Doornik's ZIGNOR).
const ZIG_R: f64 = 3.442_619_855_899;
/// Per-layer area of the 128-layer normal ziggurat.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Precomputed ziggurat tables: layer edges `x`, the fast-path
/// acceptance ratios `x[i+1]/x[i]`, and the density at each edge.
struct ZigTables {
    x: [f64; ZIG_LAYERS + 1],
    ratio: [f64; ZIG_LAYERS + 1],
    pdf: [f64; ZIG_LAYERS + 1],
}

fn zig_tables() -> &'static ZigTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        // x[0] is the pseudo-width of the base strip (rectangle + tail);
        // x[1..] are the true layer edges, descending to x[128] = 0.
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            let y = ZIG_V / x[i - 1] + density(x[i - 1]);
            x[i] = (-2.0 * y.ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut ratio = [0.0; ZIG_LAYERS + 1];
        let mut pdf = [0.0; ZIG_LAYERS + 1];
        for i in 0..=ZIG_LAYERS {
            pdf[i] = density(x[i]);
            ratio[i] = if i < ZIG_LAYERS && x[i] > 0.0 {
                x[i + 1] / x[i]
            } else {
                0.0
            };
        }
        ZigTables { x, ratio, pdf }
    })
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng::with_stream(seed, 0)
    }

    /// Seeds a generator whose SplitMix64 expansion also folds in a
    /// stream id, so sibling streams from one seed are decorrelated.
    fn with_stream(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0xa24b_aed4_963e_e407);
        let mut state = [0u64; 4];
        for word in &mut state {
            // SplitMix64 step.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *word = z ^ (z >> 31);
        }
        if state == [0; 4] {
            state[0] = 0x1; // xoshiro must not start at the all-zero state
        }
        SimRng { state }
    }

    /// Derives an independent child stream; used to give subsystems their
    /// own streams so adding draws in one place does not perturb others.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::with_stream(self.next_u64() ^ stream, stream)
    }

    /// Splits off `n` decorrelated child streams with ids
    /// `base..base + n`, in order. The region-sharded tick uses this at
    /// construction to give every region its own stream: because the
    /// split happens once, in canonical region order, a region's stream
    /// identity depends only on the seed — never on which other regions
    /// a catalog offers or how many threads later consume the streams.
    pub fn fork_streams(&mut self, base: u64, n: usize) -> Vec<SimRng> {
        (0..n as u64).map(|i| self.fork(base + i)).collect()
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform() < p
    }

    /// A standard-normal sample via the 128-layer ziggurat: the common
    /// case is one raw draw, one compare, and one multiply, which keeps
    /// the OU processes off the `ln`/trig units the tick loop would
    /// otherwise saturate. The rare wedge/tail cases fall back to exact
    /// rejection sampling, so the distribution is not truncated.
    pub fn standard_normal(&mut self) -> f64 {
        let tables = zig_tables();
        loop {
            let bits = self.next_u64();
            let i = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
            // Signed uniform in (-1, 1) from the top 53 bits.
            let u = ((bits >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0;
            if u.abs() < tables.ratio[i] {
                // Entirely inside layer i+1's rectangle: accept.
                return u * tables.x[i];
            }
            if i == 0 {
                // Base strip: the |x| > R tail, sampled exactly.
                let sign = if u < 0.0 { -1.0 } else { 1.0 };
                loop {
                    let e1 = -(1.0 - self.uniform()).max(f64::MIN_POSITIVE).ln() / ZIG_R;
                    let e2 = -(1.0 - self.uniform()).max(f64::MIN_POSITIVE).ln();
                    if e2 + e2 > e1 * e1 {
                        return sign * (ZIG_R + e1);
                    }
                }
            }
            // Wedge between the rectangle and the density curve.
            let x = u * tables.x[i];
            let y = tables.pdf[i] + self.uniform() * (tables.pdf[i + 1] - tables.pdf[i]);
            if y < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// A lognormal sample parameterized by its *median* and the standard
    /// deviation of the underlying normal (`sigma`).
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.standard_normal()).exp()
    }

    /// A Pareto sample with scale `xm > 0` and shape `alpha > 0`:
    /// heavy-tailed surge magnitudes.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        let u = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        xm / u.powf(1.0 / alpha)
    }

    /// A raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_by_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_draw_count() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let fa = a.fork(1);
        let fb = b.fork(1);
        // Different parents give different children.
        assert_ne!(fa.clone().next_u64(), fb.clone().next_u64());
    }

    #[test]
    fn distinct_streams_from_one_parent_differ() {
        let mut a = SimRng::seed_from(7);
        let mut s1 = a.fork(1);
        let mut s2 = a.fork(2);
        let differs = (0..16).any(|_| s1.next_u64() != s2.next_u64());
        assert!(differs, "sibling streams must not coincide");
    }

    #[test]
    fn fork_streams_are_pairwise_distinct_and_reproducible() {
        let mut a = SimRng::seed_from(21);
        let mut b = SimRng::seed_from(21);
        let sa = a.fork_streams(2, 9);
        let sb = b.fork_streams(2, 9);
        for (x, y) in sa.iter().zip(&sb) {
            // Same seed reproduces the same streams.
            assert_eq!(x.clone().next_u64(), y.clone().next_u64());
        }
        for i in 0..sa.len() {
            for j in (i + 1)..sa.len() {
                let differs = {
                    let (mut x, mut y) = (sa[i].clone(), sa[j].clone());
                    (0..16).any(|_| x.next_u64() != y.next_u64())
                };
                assert!(differs, "streams {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from(13);
        for _ in 0..1000 {
            assert!(rng.pareto(0.2, 1.5) >= 0.2);
        }
    }

    #[test]
    fn lognormal_median_is_median() {
        let mut rng = SimRng::seed_from(17);
        let n = 20_000;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal_median(900.0, 2.0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median / 900.0 - 1.0).abs() < 0.12, "median {median}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }
}
