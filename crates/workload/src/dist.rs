//! Deterministic size and popularity distributions.

use ros_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A file-size distribution.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SizeDist {
    /// Every file has the same size.
    Fixed {
        /// The size in bytes.
        bytes: u64,
    },
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest size.
        lo: u64,
        /// Largest size.
        hi: u64,
    },
    /// Exponential with the given mean, clamped to `[lo, hi]` — a decent
    /// stand-in for the heavy-tailed file sizes of archival datasets.
    Exponential {
        /// Mean size in bytes.
        mean: u64,
        /// Clamp floor.
        lo: u64,
        /// Clamp ceiling.
        hi: u64,
    },
}

impl SizeDist {
    /// Samples one size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            SizeDist::Fixed { bytes } => bytes,
            SizeDist::Uniform { lo, hi } => {
                if lo >= hi {
                    lo
                } else {
                    rng.range_u64(lo, hi + 1)
                }
            }
            SizeDist::Exponential { mean, lo, hi } => {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "float-to-int `as` saturates, and the clamp below bounds the draw"
                )]
                let x = rng.exponential(mean as f64) as u64;
                x.clamp(lo, hi)
            }
        }
    }
}

/// Zipf-like popularity over `n` items: rank `k` (0-based) has weight
/// `1 / (k+1)^s`. Used for analytics readback skew.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: usize,
    /// Cumulative weights for inverse-transform sampling.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { n, cdf }
    }

    /// Samples an item index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit_f64();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.n - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = SimRng::seed_from(1);
        let d = SizeDist::Fixed { bytes: 1 << 20 };
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 1 << 20);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::seed_from(2);
        let d = SizeDist::Uniform { lo: 100, hi: 200 };
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((100..=200).contains(&s));
        }
        let degenerate = SizeDist::Uniform { lo: 5, hi: 5 };
        assert_eq!(degenerate.sample(&mut rng), 5);
    }

    #[test]
    fn exponential_clamps_and_averages() {
        let mut rng = SimRng::seed_from(3);
        let d = SizeDist::Exponential {
            mean: 1000,
            lo: 10,
            hi: 100_000,
        };
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((900.0..1100.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from(4);
        let z = Zipf::new(100, 1.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        // Rank 0 gets roughly 1/H(100) ≈ 19% of accesses.
        let share = counts[0] as f64 / 50_000.0;
        assert!((0.15..0.25).contains(&share), "rank-0 share = {share}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = SimRng::seed_from(5);
        let z = Zipf::new(10, 0.0);
        let mut counts = vec![0u32; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_500..2_500).contains(&c), "counts = {counts:?}");
        }
    }
}
