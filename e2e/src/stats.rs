//! Order statistics the benchmark reports: medians over repetitions,
//! nearest-rank percentiles over samples, the "ten samples beyond"
//! tail rule, and the quartile spread that says how noisy a run was.

/// Median of `values` (mean of the middle two for an even count).
/// An empty slice has no median; the benchmark never asks for one, so
/// it reads as 0 rather than poisoning a report with NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it (the same ceil rule
/// `ros_sim::LatencyRecorder` uses, so tails are never under-reported).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 1-based rank of the tail sample a set of `n` supports: p99 from
/// 1000 samples up, otherwise the highest rank that still leaves ten
/// samples beyond it, and never below the median.
pub fn tail_rank(n: usize) -> usize {
    if n >= 1000 {
        (n * 99).div_ceil(100)
    } else if n >= 20 {
        n - 10
    } else {
        n.div_ceil(2).max(1)
    }
}

/// Median and supported tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// Samples summarised.
    pub samples: usize,
    /// The median.
    pub p50: f64,
    /// The value at [`Quantiles::tail_q`].
    pub tail: f64,
    /// The quantile `tail` was read at (0.99 when the sample allows).
    pub tail_q: f64,
}

/// Summarises `values` (any order).
pub fn quantiles(values: &[f64]) -> Quantiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return Quantiles {
            samples: 0,
            p50: 0.0,
            tail: 0.0,
            tail_q: 0.0,
        };
    }
    let rank = tail_rank(v.len());
    Quantiles {
        samples: v.len(),
        p50: percentile(&v, 0.5),
        tail: v[rank - 1],
        tail_q: rank as f64 / v.len() as f64,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the acceptance protocol
/// computes over runs, applied here to the repetitions of one run.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_with_ceil() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.991), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(5000), 4950);
        assert_eq!(tail_rank(1000), 990);
        for n in [20usize, 96, 700, 999] {
            assert_eq!(n - tail_rank(n), 10, "n = {n}");
        }
        assert_eq!(tail_rank(12), 6);
        assert_eq!(tail_rank(1), 1);
        let q = quantiles(&(1..=700).map(f64::from).collect::<Vec<_>>());
        assert_eq!((q.samples, q.p50, q.tail), (700, 350.0, 690.0));
        assert!((q.tail_q - 690.0 / 700.0).abs() < 1e-12);
        assert_eq!(quantiles(&[]).samples, 0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
        assert!((iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
