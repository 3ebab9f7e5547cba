//! A run: inputs generated from the seed, one discarded warm-up
//! repetition, then a fixed number of timed repetitions.
//!
//! Run length is fixed by the repetition count, never by a clock, so
//! both sides of any later comparison do identical work. A noisy run
//! is reported as noisy; it is never extended.

use crate::calibrate::Calibrator;
use crate::inputs::{generate, Inputs, Scale, Workload};
use crate::rep::{run_rep, RepRecord};
use crate::spans::SpanLog;
use crate::stats::{iqr_share, median};
use std::time::Instant;

/// `--seconds` when the command line does not say (and the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 22;

/// Timed repetitions never go below this.
const MIN_REPS: usize = 10;

/// Times the inputs are generated; `setup_s` takes the median.
const GENERATIONS: usize = 7;

/// Share of the median repetition wall above which a run is flagged.
pub const NOISY_IQR_SHARE: f64 = 0.10;

/// What one repetition of a workload costs on the host the benchmark
/// was sized on, construction and preload included, in tenths of a
/// second. A constant, not a measurement: it only converts `--seconds`
/// into a repetition count.
fn nominal_rep_ds(workload: Workload) -> u64 {
    match workload {
        Workload::IngestBurn => 11,
        Workload::ColdRead => 26,
        Workload::SmallOps => 16,
        Workload::ClusterPreserve => 14,
    }
}

/// Timed repetitions of an untraced run asked to measure for `seconds`.
/// The count depends on the flag alone, never on how fast the host
/// turns out to be, and has a floor of ten.
pub fn reps_for(workload: Workload, seconds: u64) -> usize {
    let reps = seconds.saturating_mul(10) / nominal_rep_ds(workload);
    usize::try_from(reps).unwrap_or(MIN_REPS).max(MIN_REPS)
}

/// What one run measured.
pub struct Run {
    /// The generated inputs.
    pub inputs: Inputs,
    /// Wall of each input generation scaled to the nominal host, s.
    pub generate_s: Vec<f64>,
    /// The timed, untraced repetitions.
    pub reps: Vec<RepRecord>,
    /// The timed, traced repetitions (traced runs only), interleaved
    /// with the untraced ones.
    pub traced: Vec<RepRecord>,
    /// Spans of the traced repetitions.
    pub log: Option<SpanLog>,
    /// Ops attempted over every repetition run, warm-up included.
    pub attempted: u64,
    /// Ops that returned a typed error, over every repetition run.
    pub failed: u64,
}

impl Run {
    /// Raw script wall of each untraced repetition, s.
    pub fn raw_walls_s(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_ns as f64 / 1e9).collect()
    }

    /// Calibrated script wall of each untraced repetition, s.
    pub fn rep_walls_s(&self) -> Vec<f64> {
        self.reps.iter().map(RepRecord::calibrated_wall_s).collect()
    }

    /// Inter-quartile range of the calibrated repetition walls over
    /// their median: the noise left in the numbers the run reports.
    pub fn rep_wall_iqr_share(&self) -> f64 {
        iqr_share(&self.rep_walls_s())
    }

    /// The same for the raw walls: the noise the host made.
    pub fn raw_wall_iqr_share(&self) -> f64 {
        iqr_share(&self.raw_walls_s())
    }

    /// Median host-speed factor of the timed repetitions.
    pub fn calibration_factor(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.factor).collect::<Vec<_>>())
    }

    /// Median wall of one input generation, s.
    pub fn generate_median_s(&self) -> f64 {
        median(&self.generate_s)
    }
}

/// Generates the inputs and runs `reps` timed repetitions after one
/// warm-up. With `traced`, every timed repetition is followed by one
/// that also records spans.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: Scale,
    reps: usize,
    traced: bool,
) -> Result<Run, String> {
    let mut generate_s = Vec::with_capacity(GENERATIONS);
    let mut inputs = None;
    for _ in 0..GENERATIONS {
        // Drop the previous copy first: two live datasets would double
        // the peak memory the run reports.
        drop(inputs.take());
        let cal = Calibrator::start();
        let t = Instant::now();
        inputs = Some(generate(workload, seed, scale));
        let raw_s = t.elapsed().as_secs_f64();
        generate_s.push(raw_s * cal.finish().0);
    }
    let inputs = inputs.expect("GENERATIONS is at least one");

    let spans_per_rep = inputs.preload.len() + inputs.script.len() + 3;
    let mut run = Run {
        log: traced.then(|| SpanLog::with_capacity(spans_per_rep * reps)),
        inputs,
        generate_s,
        reps: Vec::with_capacity(reps),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // The first repetition in a process runs 2-3x slow (page faults,
    // cold caches); it is run and thrown away.
    let warm_up = run_rep(&run.inputs, 0, None)?;
    run.attempted += warm_up.attempted;
    run.failed += warm_up.failed;

    for i in 1..=reps {
        let rep = u32::try_from(i).expect("repetition count fits u32");
        let rec = run_rep(&run.inputs, rep, None)?;
        same_simulation(&warm_up, &rec, rep)?;
        run.attempted += rec.attempted;
        run.failed += rec.failed;
        run.reps.push(rec);
        if traced {
            let rec = run_rep(&run.inputs, rep, run.log.as_mut())?;
            same_simulation(&warm_up, &rec, rep)?;
            run.attempted += rec.attempted;
            run.failed += rec.failed;
            run.traced.push(rec);
        }
    }
    Ok(run)
}

/// The simulated clock is deterministic: every repetition must agree
/// with the first on every simulated number and count.
fn same_simulation(first: &RepRecord, rec: &RepRecord, rep: u32) -> Result<(), String> {
    if first.simulated() == rec.simulated() {
        Ok(())
    } else {
        Err(format!(
            "repetition {rep} disagrees with the warm-up on a simulated metric or count"
        ))
    }
}
