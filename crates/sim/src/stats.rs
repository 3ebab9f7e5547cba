//! Measurement collection for the benchmark harness.
//!
//! Two collectors cover everything the paper's evaluation reports:
//!
//! - [`LatencyRecorder`] accumulates per-operation latencies and reports
//!   mean / min / max / percentiles (Tables 1 and 3, Figure 7).
//! - [`ThroughputSeries`] samples an instantaneous rate over simulated time
//!   (Figures 8-10's recording-speed curves).

use crate::bandwidth::Bandwidth;
use crate::time::{SimDuration, SimTime};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cell::RefCell;

#[cfg(test)]
thread_local! {
    /// Sorted-view rebuilds on this thread: the count the order-statistic
    /// tests pin (one sort per query batch, one more per new sample).
    static REBUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Accumulates operation latencies and reports summary statistics.
///
/// Order statistics (`min`/`max`/`percentile`) are served from a lazily
/// maintained sorted view: the first query after new samples arrive
/// sorts once, and every further query is O(1) (percentile) or O(1)
/// (min/max) without cloning the sample vector. Recording stays O(1).
///
/// # Examples
///
/// ```
/// use ros_sim::stats::LatencyRecorder;
/// use ros_sim::SimDuration;
///
/// let mut rec = LatencyRecorder::new("file write");
/// rec.record(SimDuration::from_millis(16));
/// rec.record(SimDuration::from_millis(14));
/// assert_eq!(rec.count(), 2);
/// assert_eq!(rec.mean(), SimDuration::from_millis(15));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    label: String,
    samples: Vec<SimDuration>,
    /// Sorted copy of `samples`, rebuilt on demand. Samples are only
    /// ever appended, so a length mismatch is a complete dirtiness
    /// test — no separate flag needed.
    sorted: RefCell<Vec<SimDuration>>,
}

impl Serialize for LatencyRecorder {
    fn serialize_value(&self) -> Value {
        // The sorted view is a cache; persist only label + samples
        // (same shape the former derive produced).
        Value::Object(vec![
            ("label".to_string(), self.label.serialize_value()),
            ("samples".to_string(), self.samples.serialize_value()),
        ])
    }
}

impl Deserialize for LatencyRecorder {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let label = String::deserialize_value(
            v.get("label")
                .ok_or_else(|| DeError::missing_field("label"))?,
        )?;
        let samples = Vec::<SimDuration>::deserialize_value(
            v.get("samples")
                .ok_or_else(|| DeError::missing_field("samples"))?,
        )?;
        Ok(LatencyRecorder {
            label,
            samples,
            sorted: RefCell::new(Vec::new()),
        })
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder with a human-readable label.
    pub fn new(label: impl Into<String>) -> Self {
        LatencyRecorder {
            label: label.into(),
            samples: Vec::new(),
            sorted: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` over the up-to-date sorted view, rebuilding it first if
    /// samples arrived since the last order-statistic query.
    fn with_sorted<R>(&self, f: impl FnOnce(&[SimDuration]) -> R) -> R {
        let mut sorted = self.sorted.borrow_mut();
        if sorted.len() != self.samples.len() {
            #[cfg(test)]
            REBUILDS.with(|n| n.set(n.get() + 1));
            sorted.clear();
            sorted.extend_from_slice(&self.samples);
            sorted.sort_unstable();
        }
        f(&sorted)
    }

    /// Returns the recorder's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Returns the number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns the arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_nanos() as u128).sum();
        let mean = total / self.samples.len() as u128;
        SimDuration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
    }

    /// Returns the smallest sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        self.with_sorted(|s| s.first().copied().unwrap_or(SimDuration::ZERO))
    }

    /// Returns the largest sample, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.with_sorted(|s| s.last().copied().unwrap_or(SimDuration::ZERO))
    }

    /// Returns the `q`-quantile (0.0 = min, 0.5 = median, 1.0 = max)
    /// using ceil-based nearest-rank (the sample at rank `⌈q·n⌉`), so a
    /// tail quantile never rounds down past the samples it covers; zero
    /// when empty.
    pub fn percentile(&self, q: f64) -> SimDuration {
        self.with_sorted(|s| {
            if s.is_empty() {
                return SimDuration::ZERO;
            }
            let q = q.clamp(0.0, 1.0);
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "q is clamped to [0, 1], so the rank lies in [0, len]"
            )]
            let rank = (q * s.len() as f64).ceil() as usize;
            s[rank.clamp(1, s.len()) - 1]
        })
    }

    /// Returns all samples in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// One `(time, bandwidth)` sample of a throughput curve.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Sample instant.
    pub at: SimTime,
    /// Instantaneous transfer rate at that instant.
    pub rate: Bandwidth,
}

/// Samples an instantaneous transfer rate over simulated time.
///
/// Used to regenerate the paper's recording-speed curves: Figure 8 (single
/// 25 GB drive ramp), Figure 9 (12-drive aggregate) and Figure 10 (100 GB
/// fail-safe oscillation).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThroughputSeries {
    label: String,
    points: Vec<RatePoint>,
}

impl ThroughputSeries {
    /// Creates an empty series with a human-readable label.
    pub fn new(label: impl Into<String>) -> Self {
        ThroughputSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Returns the series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a sample; samples must be pushed in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded sample.
    pub fn push(&mut self, at: SimTime, rate: Bandwidth) {
        if let Some(last) = self.points.last() {
            assert!(at >= last.at, "throughput samples must be time-ordered");
        }
        self.points.push(RatePoint { at, rate });
    }

    /// Returns the recorded samples.
    pub fn points(&self) -> &[RatePoint] {
        &self.points
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the peak sampled rate, or zero when empty.
    pub fn peak(&self) -> Bandwidth {
        self.points
            .iter()
            .map(|p| p.rate)
            .fold(Bandwidth::ZERO, Bandwidth::max)
    }

    /// Returns the time-weighted average rate over the sampled interval.
    ///
    /// Each sample's rate is held until the next sample (zero-order hold);
    /// an empty or single-point series averages to that point's rate.
    pub fn time_weighted_mean(&self) -> Bandwidth {
        match self.points.len() {
            0 => Bandwidth::ZERO,
            1 => self.points[0].rate,
            _ => {
                let mut weighted = 0.0;
                let mut total = 0.0;
                for pair in self.points.windows(2) {
                    let dt = pair[1].at.duration_since(pair[0].at).as_secs_f64();
                    weighted += pair[0].rate.bytes_per_sec() * dt;
                    total += dt;
                }
                if total == 0.0 {
                    self.points[0].rate
                } else {
                    Bandwidth::from_bytes_per_sec(weighted / total)
                }
            }
        }
    }

    /// Returns the span between the first and last sample.
    pub fn span(&self) -> SimDuration {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.at.duration_since(a.at),
            _ => SimDuration::ZERO,
        }
    }

    /// Sums several series point-by-point onto a shared time grid, producing
    /// the aggregate curve (e.g. 12 drives burning concurrently, Figure 9).
    ///
    /// Each input series is sampled with zero-order hold at every instant
    /// appearing in any series. Implemented as a single k-way sweep-line
    /// merge over the time-ordered inputs — O(total points × log k) with
    /// an incrementally maintained running sum — instead of resampling
    /// every series at every grid instant (which is quadratic in the
    /// total point count and dominated Figure 9 at drive-array scale).
    pub fn aggregate<'a>(
        label: impl Into<String>,
        series: impl IntoIterator<Item = &'a ThroughputSeries>,
    ) -> ThroughputSeries {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let series: Vec<&ThroughputSeries> = series.into_iter().collect();
        // Next unconsumed point index per series, and the rate each
        // series currently holds (bytes/sec, summed incrementally).
        let mut cursor = vec![0usize; series.len()];
        let mut held = vec![0.0f64; series.len()];
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = series
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.points.first().map(|p| Reverse((p.at, k))))
            .collect();
        let mut out = ThroughputSeries::new(label);
        let mut total = 0.0f64;
        while let Some(&Reverse((t, _))) = heap.peek() {
            // Fold in every series with a sample at instant `t`; within
            // a series, the last of several same-instant samples wins,
            // matching zero-order hold.
            while let Some(&Reverse((at, k))) = heap.peek() {
                if at != t {
                    break;
                }
                heap.pop();
                let pts = &series[k].points;
                let mut i = cursor[k];
                while i < pts.len() && pts[i].at == t {
                    i += 1;
                }
                let new = pts[i - 1].rate.bytes_per_sec();
                total += new - held[k];
                held[k] = new;
                cursor[k] = i;
                if i < pts.len() {
                    heap.push(Reverse((pts[i].at, k)));
                }
            }
            // Float cancellation could leave a tiny negative residue
            // once every series has dropped to zero; clamp it.
            out.push(t, Bandwidth::from_bytes_per_sec(total.max(0.0)));
        }
        out
    }

    /// Returns the zero-order-hold rate at instant `t` (zero before the
    /// first sample and after the last sample's hold is irrelevant here
    /// because a finished burn contributes zero). Binary search over the
    /// time-ordered points, O(log n).
    pub fn rate_at(&self, t: SimTime) -> Bandwidth {
        let after = self.points.partition_point(|p| p.at <= t);
        if after == 0 {
            Bandwidth::ZERO
        } else {
            self.points[after - 1].rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_statistics() {
        let mut rec = LatencyRecorder::new("op");
        for ms in [10u64, 20, 30, 40, 50] {
            rec.record(SimDuration::from_millis(ms));
        }
        assert_eq!(rec.count(), 5);
        assert_eq!(rec.mean(), SimDuration::from_millis(30));
        assert_eq!(rec.min(), SimDuration::from_millis(10));
        assert_eq!(rec.max(), SimDuration::from_millis(50));
        assert_eq!(rec.percentile(0.5), SimDuration::from_millis(30));
        assert_eq!(rec.percentile(0.0), SimDuration::from_millis(10));
        assert_eq!(rec.percentile(1.0), SimDuration::from_millis(50));
    }

    #[test]
    fn empty_recorder_is_zero() {
        let rec = LatencyRecorder::new("empty");
        assert_eq!(rec.mean(), SimDuration::ZERO);
        assert_eq!(rec.min(), SimDuration::ZERO);
        assert_eq!(rec.max(), SimDuration::ZERO);
        assert_eq!(rec.percentile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new("a");
        a.record(SimDuration::from_millis(10));
        let mut b = LatencyRecorder::new("b");
        b.record(SimDuration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn series_peak_and_mean() {
        let mut s = ThroughputSeries::new("burn");
        s.push(SimTime::from_secs(0), Bandwidth::from_mb_per_sec(10.0));
        s.push(SimTime::from_secs(10), Bandwidth::from_mb_per_sec(30.0));
        s.push(SimTime::from_secs(20), Bandwidth::from_mb_per_sec(30.0));
        assert_eq!(s.peak(), Bandwidth::from_mb_per_sec(30.0));
        // 10 MB/s for 10 s then 30 MB/s for 10 s -> 20 MB/s average.
        assert!((s.time_weighted_mean().mb_per_sec() - 20.0).abs() < 1e-9);
        assert_eq!(s.span(), SimDuration::from_secs(20));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn series_rejects_time_travel() {
        let mut s = ThroughputSeries::new("bad");
        s.push(SimTime::from_secs(5), Bandwidth::ZERO);
        s.push(SimTime::from_secs(1), Bandwidth::ZERO);
    }

    #[test]
    fn rate_at_holds_last_sample() {
        let mut s = ThroughputSeries::new("hold");
        s.push(SimTime::from_secs(1), Bandwidth::from_mb_per_sec(5.0));
        s.push(SimTime::from_secs(3), Bandwidth::from_mb_per_sec(7.0));
        assert_eq!(s.rate_at(SimTime::ZERO), Bandwidth::ZERO);
        assert_eq!(
            s.rate_at(SimTime::from_secs(2)),
            Bandwidth::from_mb_per_sec(5.0)
        );
        assert_eq!(
            s.rate_at(SimTime::from_secs(9)),
            Bandwidth::from_mb_per_sec(7.0)
        );
    }

    #[test]
    fn aggregate_sums_concurrent_series() {
        let mut a = ThroughputSeries::new("a");
        a.push(SimTime::from_secs(0), Bandwidth::from_mb_per_sec(10.0));
        a.push(SimTime::from_secs(10), Bandwidth::ZERO);
        let mut b = ThroughputSeries::new("b");
        b.push(SimTime::from_secs(5), Bandwidth::from_mb_per_sec(20.0));
        b.push(SimTime::from_secs(15), Bandwidth::ZERO);
        let sum = ThroughputSeries::aggregate("sum", [&a, &b]);
        assert_eq!(
            sum.rate_at(SimTime::from_secs(2)),
            Bandwidth::from_mb_per_sec(10.0)
        );
        assert_eq!(
            sum.rate_at(SimTime::from_secs(7)),
            Bandwidth::from_mb_per_sec(30.0)
        );
        assert_eq!(
            sum.rate_at(SimTime::from_secs(12)),
            Bandwidth::from_mb_per_sec(20.0)
        );
        assert_eq!(sum.rate_at(SimTime::from_secs(20)), Bandwidth::ZERO);
    }

    #[test]
    fn percentile_uses_ceil_nearest_rank() {
        // Regression: .round()-based ranks mis-placed quantiles — p91
        // of ten samples picked the 9th instead of the 10th, quietly
        // under-reporting tails.
        let mut rec = LatencyRecorder::new("tail");
        for ms in 1..=10u64 {
            rec.record(SimDuration::from_millis(ms));
        }
        assert_eq!(rec.percentile(0.91), SimDuration::from_millis(10));
        assert_eq!(rec.percentile(0.90), SimDuration::from_millis(9));
        // Ceil nearest-rank: the even-count median is the lower middle,
        // and any quantile past a rank boundary takes the next sample.
        let mut four = LatencyRecorder::new("four");
        for ms in [10u64, 20, 30, 40] {
            four.record(SimDuration::from_millis(ms));
        }
        assert_eq!(four.percentile(0.5), SimDuration::from_millis(20));
        assert_eq!(four.percentile(0.75), SimDuration::from_millis(30));
        assert_eq!(four.percentile(0.751), SimDuration::from_millis(40));
    }

    #[test]
    fn order_stats_refresh_after_new_samples() {
        // The cached sorted view must invalidate when samples arrive
        // between queries (both via record and via merge).
        let mut rec = LatencyRecorder::new("refresh");
        rec.record(SimDuration::from_millis(20));
        assert_eq!(rec.max(), SimDuration::from_millis(20));
        rec.record(SimDuration::from_millis(50));
        assert_eq!(rec.max(), SimDuration::from_millis(50));
        assert_eq!(rec.min(), SimDuration::from_millis(20));
        let mut other = LatencyRecorder::new("other");
        other.record(SimDuration::from_millis(5));
        rec.merge(&other);
        assert_eq!(rec.min(), SimDuration::from_millis(5));
        assert_eq!(rec.percentile(1.0), SimDuration::from_millis(50));
    }

    #[test]
    fn a_query_batch_sorts_once_and_a_new_sample_once_more() {
        let rebuilds = || REBUILDS.with(std::cell::Cell::get);
        let batch = |rec: &LatencyRecorder| {
            [
                rec.percentile(0.5),
                rec.percentile(0.95),
                rec.percentile(0.99),
                rec.min(),
                rec.max(),
            ]
        };
        let mut rec = LatencyRecorder::new("batch");
        for ms in (1..=4_000u64).rev() {
            rec.record(SimDuration::from_millis(ms));
        }
        let before = rebuilds();
        assert_eq!(batch(&rec)[3], SimDuration::from_millis(1));
        assert_eq!(rebuilds() - before, 1, "one batch, one sort");
        assert_eq!(batch(&rec)[0], SimDuration::from_millis(2_000));
        assert_eq!(rebuilds() - before, 1, "a second batch reuses the view");
        rec.record(SimDuration::from_millis(9_000));
        assert_eq!(batch(&rec)[4], SimDuration::from_millis(9_000));
        assert_eq!(rebuilds() - before, 2, "one new sample, one more sort");
    }

    #[test]
    fn recorder_serde_round_trip() {
        let mut rec = LatencyRecorder::new("rt");
        rec.record(SimDuration::from_millis(7));
        rec.record(SimDuration::from_millis(3));
        let _ = rec.max(); // populate the cache; it must not serialize
        let json = serde_json::to_string(&rec).unwrap();
        let back: LatencyRecorder = serde_json::from_str(&json).unwrap();
        assert_eq!(back.label(), "rt");
        assert_eq!(back.samples(), rec.samples());
        assert_eq!(back.percentile(0.5), SimDuration::from_millis(3));
    }

    #[test]
    fn aggregate_handles_same_instant_samples() {
        let mut a = ThroughputSeries::new("a");
        a.push(SimTime::from_secs(0), Bandwidth::from_mb_per_sec(10.0));
        a.push(SimTime::from_secs(5), Bandwidth::ZERO);
        let mut b = ThroughputSeries::new("b");
        b.push(SimTime::from_secs(0), Bandwidth::from_mb_per_sec(5.0));
        b.push(SimTime::from_secs(5), Bandwidth::from_mb_per_sec(15.0));
        // Same-instant re-sample: the later value wins (zero-order hold).
        b.push(SimTime::from_secs(5), Bandwidth::from_mb_per_sec(25.0));
        let sum = ThroughputSeries::aggregate("sum", [&a, &b]);
        assert_eq!(sum.len(), 2, "grid instants must stay deduplicated");
        assert_eq!(
            sum.rate_at(SimTime::from_secs(0)),
            Bandwidth::from_mb_per_sec(15.0)
        );
        assert_eq!(
            sum.rate_at(SimTime::from_secs(5)),
            Bandwidth::from_mb_per_sec(25.0)
        );
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        assert!(ThroughputSeries::aggregate("none", []).is_empty());
        let empty = ThroughputSeries::new("e");
        let mut one = ThroughputSeries::new("o");
        one.push(SimTime::from_secs(1), Bandwidth::from_mb_per_sec(2.0));
        let sum = ThroughputSeries::aggregate("sum", [&empty, &one]);
        assert_eq!(sum.len(), 1);
        assert_eq!(
            sum.rate_at(SimTime::from_secs(1)),
            Bandwidth::from_mb_per_sec(2.0)
        );
    }

    #[test]
    fn sweep_line_matches_naive_resampling() {
        // Pin the sweep-line merge against the definitionally obvious
        // grid resampler on irregular pseudo-random series.
        fn naive(series: &[&ThroughputSeries]) -> Vec<RatePoint> {
            let mut grid: Vec<SimTime> = series
                .iter()
                .flat_map(|s| s.points().iter().map(|p| p.at))
                .collect();
            grid.sort_unstable();
            grid.dedup();
            grid.into_iter()
                .map(|t| RatePoint {
                    at: t,
                    rate: series.iter().map(|s| s.rate_at(t)).sum(),
                })
                .collect()
        }
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let series: Vec<ThroughputSeries> = (0..7)
            .map(|k| {
                let mut s = ThroughputSeries::new(format!("s{k}"));
                let mut t = 0u64;
                for _ in 0..40 {
                    t += next() % 90; // duplicate instants included
                    s.push(
                        SimTime::from_secs(t),
                        Bandwidth::from_mb_per_sec((next() % 50) as f64),
                    );
                }
                s
            })
            .collect();
        let refs: Vec<&ThroughputSeries> = series.iter().collect();
        let fast = ThroughputSeries::aggregate("fast", refs.iter().copied());
        let slow = naive(&refs);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.points().iter().zip(&slow) {
            assert_eq!(f.at, s.at);
            assert!(
                (f.rate.bytes_per_sec() - s.rate.bytes_per_sec()).abs() < 1e-3,
                "rate diverged at {:?}: {} vs {}",
                f.at,
                f.rate,
                s.rate
            );
        }
    }

    #[test]
    fn single_point_series_mean_is_that_point() {
        let mut s = ThroughputSeries::new("one");
        s.push(SimTime::from_secs(1), Bandwidth::from_mb_per_sec(42.0));
        assert_eq!(s.time_weighted_mean(), Bandwidth::from_mb_per_sec(42.0));
        assert!(ThroughputSeries::new("none").time_weighted_mean().is_zero());
    }
}

/// A fixed-bucket latency histogram with logarithmic bucket edges, for
/// reporting latency distributions (e.g. the runner's per-op spread
/// between disk hits and mechanical fetches).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    label: String,
    /// Bucket upper edges, ascending; the last bucket is open-ended.
    edges: Vec<SimDuration>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with logarithmic edges from `min` up to
    /// `max` (both inclusive bounds of the edge range), `per_decade`
    /// buckets per 10x.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero, `max <= min`, or `per_decade` is zero.
    pub fn logarithmic(
        label: impl Into<String>,
        min: SimDuration,
        max: SimDuration,
        per_decade: u32,
    ) -> Self {
        assert!(!min.is_zero(), "min edge must be positive");
        assert!(max > min, "max must exceed min");
        assert!(per_decade > 0, "need at least one bucket per decade");
        let mut edges = Vec::new();
        let factor = 10f64.powf(1.0 / per_decade as f64);
        let mut edge = min.as_secs_f64();
        while edge <= max.as_secs_f64() * (1.0 + 1e-12) {
            edges.push(SimDuration::from_secs_f64(edge));
            edge *= factor;
        }
        let n = edges.len() + 1; // + the open-ended overflow bucket.
        Histogram {
            label: label.into(),
            edges,
            counts: vec![0; n],
        }
    }

    /// Returns the label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let idx = self
            .edges
            .iter()
            .position(|&e| d <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(upper_edge, count)`; the final entry has `None` as its
    /// edge (the overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<SimDuration>, u64)> + '_ {
        self.edges
            .iter()
            .copied()
            .map(Some)
            .chain(core::iter::once(None))
            .zip(self.counts.iter().copied())
    }

    /// The smallest edge at or below which at least `q` of the samples
    /// fall (an upper bound on the q-quantile); `None` when the quantile
    /// lands in the overflow bucket or the histogram is empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<SimDuration> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q is clamped to [0, 1], so the target lies in [0, total]"
        )]
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0;
        for (edge, count) in self.buckets() {
            acc += count;
            if acc >= target {
                return edge;
            }
        }
        None
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    fn hist() -> Histogram {
        Histogram::logarithmic(
            "latency",
            SimDuration::from_millis(1),
            SimDuration::from_secs(100),
            1,
        )
    }

    #[test]
    fn buckets_span_the_range_logarithmically() {
        let h = hist();
        // Edges at 1ms, 10ms, 100ms, 1s, 10s, 100s + overflow.
        assert_eq!(h.buckets().count(), 7);
    }

    #[test]
    fn samples_land_in_the_right_buckets() {
        let mut h = hist();
        h.record(SimDuration::from_micros(500)); // <= 1ms bucket.
        h.record(SimDuration::from_millis(9)); // <= 10ms.
        h.record(SimDuration::from_secs(70)); // <= 100s.
        h.record(SimDuration::from_secs(5000)); // Overflow.
        assert_eq!(h.total(), 4);
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![1, 1, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn quantile_upper_bounds() {
        let mut h = hist();
        for _ in 0..90 {
            h.record(SimDuration::from_millis(5)); // 10ms bucket.
        }
        for _ in 0..10 {
            h.record(SimDuration::from_secs(70)); // 100s bucket.
        }
        assert_eq!(
            h.quantile_upper_bound(0.5),
            Some(SimDuration::from_millis(10))
        );
        assert_eq!(
            h.quantile_upper_bound(0.99),
            Some(SimDuration::from_secs(100))
        );
        assert!(Histogram::logarithmic(
            "empty",
            SimDuration::from_millis(1),
            SimDuration::from_secs(1),
            1
        )
        .quantile_upper_bound(0.5)
        .is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_min_rejected() {
        Histogram::logarithmic("bad", SimDuration::ZERO, SimDuration::SECOND, 1);
    }
}
