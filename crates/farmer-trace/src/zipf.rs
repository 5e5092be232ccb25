//! Zipfian sampling over a finite index range.
//!
//! File popularity in real file-system traces is heavily skewed; the
//! synthetic workload generators use Zipf-distributed choices for which
//! application runs next and which shared files are touched. `rand` does not
//! ship a Zipf distribution, so we implement one here: an inverse-transform
//! sampler over a precomputed cumulative table. Building the table is O(n);
//! each sample is O(log n) via binary search — plenty fast for the namespace
//! sizes the experiments use (≤ 10⁶).
//!
//! The table's terms go through libm's `powf`, whose last bit may differ
//! between libms (glibc, for one, picks an FMA or a non-FMA variant by CPU).
//! A sample moves only if its uniform draw lands in such a one-ULP sliver
//! of the CDF, about n·2⁻⁵³ per draw. The preset traces are pinned by hash
//! (`workload::presets`' tests), so a host where that happens is named
//! rather than silently recording other traces.

use rand::Rng;

/// Exact Zipf(α) sampler over `0..n`.
///
/// `P(k) ∝ 1 / (k+1)^α`. `alpha = 0` degenerates to the uniform
/// distribution; `alpha ≈ 0.8–1.2` matches commonly reported file-popularity
/// skews.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k]` = P(X ≤ k). Last entry is 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `0..n` with exponent `alpha`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha < 0` or `alpha` is not finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding leaving the last entry below 1.0.
        if let Some(c) = cdf.last_mut() {
            *c = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of outcomes.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first k with cdf[k] >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of outcome `k` (the tests' oracle).
    #[cfg(test)]
    fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12, "pmf({k}) = {}", z.pmf(k));
        }
    }

    #[test]
    fn pmf_is_monotone_decreasing() {
        let z = Zipf::new(50, 1.2);
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
    }

    #[test]
    fn samples_stay_in_range_and_skew_low() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut low = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            let k = z.sample(&mut rng);
            assert!(k < 1000);
            if k < 10 {
                low += 1;
            }
        }
        // With alpha=1 over 1000 outcomes, the top-10 mass is
        // H(10)/H(1000) ≈ 2.93/7.49 ≈ 39%. Allow generous slack.
        let frac = low as f64 / N as f64;
        assert!(frac > 0.30 && frac < 0.50, "top-10 mass {frac}");
    }

    #[test]
    fn sampling_matches_pmf_for_head() {
        let z = Zipf::new(8, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 8];
        const N: usize = 100_000;
        for _ in 0..N {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let observed = count as f64 / N as f64;
            let expected = z.pmf(k);
            assert!(
                (observed - expected).abs() < 0.01,
                "k={k}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_outcome_always_zero() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn rejects_empty_range() {
        let _ = Zipf::new(0, 1.0);
    }
}
