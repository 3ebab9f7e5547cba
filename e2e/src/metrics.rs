//! The metric catalogue — names, units, directions and bounds are the
//! contract later issues cite — and the arithmetic that turns a run
//! into values.

use crate::layers::{Shares, UnitCosts};
use crate::rep::RepRecord;
use crate::run::Run;
use crate::stats::{median, quantiles, Quantiles};
use crate::system::{front_layer, Call, PLANE_THREADS};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the simulator (wall
/// clock) or of the modelled rack (simulated clock) would see.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Whether `BENCHMARK.json` gates it. `failed_ops_share` is not:
    /// it is 0 on every workload by design, a relative bound on 0 is
    /// meaningless, and the run's `failed`/`attempted` carry it.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated: true,
    }
}

/// The end-to-end metrics, the same set on every workload.
///
/// Wall-clock metrics get 0.10, short `setup_s` the widest bound and
/// memory the tightest. Simulated metrics repeat exactly under one
/// seed, but the acceptance protocol compares runs at *different*
/// seeds, so their bounds cover what the seed moves (which files are
/// hot, which trays the aging plan strikes), not timing noise.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_wall_s", "1/s", Better::Higher, 0.25),
    e2e("payload_mb_per_wall_s", "MB/s", Better::Higher, 0.25),
    e2e("write_wall_us_mean", "us", Better::Lower, 0.25),
    e2e("read_wall_us_mean", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    EndToEnd {
        name: "failed_ops_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        gated: false,
    },
    e2e("write_sim_ms_p50", "ms", Better::Lower, 0.02),
    e2e("write_sim_ms_p99", "ms", Better::Lower, 0.02),
    e2e("read_sim_ms_p50", "ms", Better::Lower, 0.02),
    e2e("read_sim_ms_p99", "ms", Better::Lower, 0.05),
    e2e("sim_makespan_s", "s", Better::Lower, 0.25),
    e2e("media_bytes_per_payload_byte", "ratio", Better::Lower, 0.25),
];

/// One measured end-to-end metric.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The catalogue entry.
    pub def: &'static EndToEnd,
    /// The value: a median over repetitions for wall metrics, the
    /// (identical) per-repetition value for simulated ones.
    pub value: f64,
    /// Samples behind the value (repetitions, or latency samples).
    pub samples: usize,
    /// What the value is, where the name alone does not say.
    pub note: String,
}

fn ns_to_ms(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|ns| *ns as f64 / 1e6).collect()
}

fn tail_note(q: &Quantiles) -> String {
    format!(
        "p{:.2} of {} samples per repetition",
        q.tail_q * 100.0,
        q.samples
    )
}

/// Mean wall in µs of the calls of `kind` in one repetition.
fn call_mean_us(rec: &RepRecord, kind: Call) -> f64 {
    let (calls, ns) = rec.call_wall_ns(kind);
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Evaluates every end-to-end metric of an untraced run.
pub fn end_to_end(run: &Run) -> Vec<Measured> {
    let reps = &run.reps;
    let over_reps = |f: &dyn Fn(&RepRecord) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Every wall below is the calibrated one (see `calibrate`).
    let wall_s = RepRecord::calibrated_wall_s;
    // Simulated numbers are identical in every repetition (checked as
    // the run goes), so the first stands for all.
    let first = &reps[0];
    let writes = quantiles(&ns_to_ms(&first.write_sim_ns));
    let reads = quantiles(&ns_to_ms(&first.read_sim_ns));
    let per_rep = format!(
        "median of {} repetitions, calibrated (raw x {:.3})",
        reps.len(),
        run.calibration_factor()
    );

    let values: [(f64, usize, String); 13] = [
        (
            run.generate_median_s() + over_reps(&|r| r.setup_ns as f64 / 1e9 * r.setup_factor),
            reps.len(),
            format!(
                "median of {} input generations + median construction and preload of {} repetitions",
                run.generate_s.len(),
                reps.len()
            ),
        ),
        (over_reps(&|r| r.script_ops as f64 / wall_s(r)), reps.len(), per_rep.clone()),
        (
            over_reps(&|r| r.payload_bytes as f64 / 1e6 / wall_s(r)),
            reps.len(),
            per_rep.clone(),
        ),
        (
            over_reps(&|r| call_mean_us(r, Call::Write) * r.factor),
            reps.len(),
            per_rep.clone(),
        ),
        (
            over_reps(&|r| call_mean_us(r, Call::Read) * r.factor),
            reps.len(),
            per_rep.clone(),
        ),
        (peak_rss_mb(), 1, "VmHWM when the report is made".into()),
        (
            run.failed as f64 / run.attempted as f64,
            usize::try_from(run.attempted).unwrap_or(usize::MAX),
            "typed errors over ops attempted, warm-up included".into(),
        ),
        (writes.p50, writes.samples, "per repetition".into()),
        (writes.tail, writes.samples, tail_note(&writes)),
        (reads.p50, reads.samples, "per repetition".into()),
        (reads.tail, reads.samples, tail_note(&reads)),
        (
            first.makespan_ns as f64 / 1e9,
            reps.len(),
            "first op to quiescence after the final flush".into(),
        ),
        (
            first.end.media_bytes as f64 / first.acked_bytes as f64,
            reps.len(),
            format!(
                "{} trays spent over {} payload bytes acknowledged",
                first.end.trays_spent, first.acked_bytes
            ),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples, note))| Measured {
            def,
            value,
            samples,
            note,
        })
        .collect()
}

/// A per-layer metric: name, unit, direction. No bound: these explain
/// a movement, they do not gate one.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// The per-layer metrics of the traced run, layer by layer (the layers
/// are the crates). A metric that does not apply to a workload is
/// reported as `n/a` (0 in the machine-readable line).
pub const PER_LAYER: [PerLayer; 88] = [
    ("access.write_call_wall_us_p50", "us", L),
    ("access.write_call_wall_us_p99", "us", L),
    ("access.read_call_wall_us_p50", "us", L),
    ("access.read_call_wall_us_p99", "us", L),
    ("access.stack_sim_ms_per_write", "ms", L),
    ("access.stack_sim_ms_per_read", "ms", L),
    ("olfs.write_file_wall_us_p50", "us", L),
    ("olfs.write_file_wall_us_p99", "us", L),
    ("olfs.read_file_wall_us_p50", "us", L),
    ("olfs.read_file_wall_us_p99", "us", L),
    ("olfs.stat_wall_us_p50", "us", L),
    ("olfs.readdir_wall_us_p50", "us", L),
    ("olfs.unlink_wall_us_p50", "us", L),
    ("olfs.flush_wall_ms", "ms", L),
    ("olfs.evict_unload_wall_ms", "ms", L),
    ("olfs.audit_sample_wall_ms", "ms", L),
    ("olfs.buckets_sealed", "count", L),
    ("olfs.parity_runs", "count", L),
    ("olfs.burns", "count", L),
    ("olfs.fetches", "count", L),
    ("olfs.splits", "count", L),
    ("olfs.updates", "count", L),
    ("olfs.repairs", "count", L),
    ("olfs.latent_repairs", "count", L),
    ("olfs.burn_interrupts", "count", L),
    ("olfs.dedup_hits", "count", H),
    ("olfs.read_copy_bytes", "B", L),
    ("olfs.cache_hit_ratio", "ratio", H),
    ("olfs.cache_evictions", "count", L),
    ("olfs.reads_bucket_share", "ratio", H),
    ("olfs.reads_image_share", "ratio", H),
    ("olfs.reads_in_drive_share", "ratio", L),
    ("olfs.reads_roller_share", "ratio", L),
    ("olfs.write_sim_ms_steps", "ms", L),
    ("olfs.read_sim_ms_steps", "ms", L),
    ("olfs.read_sim_ms_fetch", "ms", L),
    ("olfs.first_byte_sim_ms_p50", "ms", L),
    ("olfs.sim_trace_residual_ms", "ms", L),
    ("olfs.self_wall_share_est", "ratio", L),
    ("udf.seal_mb_per_s", "MB/s", H),
    ("udf.parse_mb_per_s", "MB/s", H),
    ("udf.bucket_write_ns", "ns", L),
    ("udf.image_lookup_ns", "ns", L),
    ("udf.image_fill_ratio", "ratio", H),
    ("udf.wall_share_est", "ratio", L),
    ("cas.digest_image_mb_per_s", "MB/s", H),
    ("cas.digest_payload_mb_per_s", "MB/s", H),
    ("cas.verify_mb_per_s", "MB/s", H),
    ("cas.digest_calls_est", "count", L),
    ("cas.wall_share_est", "ratio", L),
    ("disk.encode_p_mb_per_s", "MB/s", H),
    ("disk.encode_pq_mb_per_s", "MB/s", H),
    ("disk.reconstruct_mb_per_s", "MB/s", H),
    ("disk.verify_group_mb_per_s", "MB/s", H),
    ("disk.plane_threads", "count", H),
    ("disk.wall_share_est", "ratio", L),
    ("drive.burn_sim_s_per_array", "s", L),
    ("drive.read_sim_ms_per_image", "ms", L),
    ("drive.model_call_ns", "ns", L),
    ("mech.load_sim_s_p50", "s", L),
    ("mech.unload_sim_s_p50", "s", L),
    ("mech.model_call_ns", "ns", L),
    ("sim.event_cycle_ns", "ns", L),
    ("sim.recorder_percentile_ns", "ns", L),
    ("faults.plan_generate_ms", "ms", L),
    ("faults.injected", "count", H),
    ("faults.skipped", "count", L),
    ("cluster.write_call_wall_us_p50", "us", L),
    ("cluster.write_call_wall_us_p99", "us", L),
    ("cluster.read_call_wall_us_p50", "us", L),
    ("cluster.read_call_wall_us_p99", "us", L),
    ("cluster.audit_all_wall_ms", "ms", L),
    ("cluster.cold_store_wall_ms", "ms", L),
    ("cluster.targets_of_ns", "ns", L),
    ("cluster.replica_writes_per_write", "ratio", L),
    ("cluster.rot_detected", "count", H),
    ("cluster.repaired_parity", "count", H),
    ("cluster.repaired_replica", "count", H),
    ("cluster.self_wall_share_est", "ratio", L),
    ("workload.generate_wall_ms", "ms", L),
    ("workload.ops", "count", H),
    ("workload.payload_mb", "MB", H),
    ("bench.timed_reps", "count", H),
    ("bench.rep_wall_iqr_share", "ratio", L),
    ("bench.raw_wall_iqr_share", "ratio", L),
    ("bench.calibration_factor", "ratio", H),
    ("bench.timer_overhead_ns", "ns", L),
    ("bench.trace_overhead_share", "ratio", L),
];

/// Values of the per-layer metrics that apply to one workload.
#[derive(Default)]
pub struct LayerValues(Vec<(&'static str, f64)>);

impl LayerValues {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not in the per-layer catalogue"
        );
        self.0.push((name, value));
    }

    /// The value of `name`, if it applies to the workload.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Walls in ns of one repetition's calls of `kind`, in the script or
/// in the preload.
fn walls_of(rec: &RepRecord, kind: Call, preload: bool) -> &[u64] {
    let walls = if preload {
        &rec.preload_walls
    } else {
        &rec.walls
    };
    &walls[kind as usize]
}

/// Wall of every call of `kind` over `reps`, in µs.
fn call_walls_us(reps: &[&RepRecord], kind: Call, preload: bool) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| walls_of(r, kind, preload).iter().map(|ns| *ns as f64 / 1e3))
        .collect()
}

/// Median over repetitions of the summed wall of `kind` calls, in ms.
fn call_total_ms(reps: &[&RepRecord], kind: Call, preload: bool) -> f64 {
    let totals: Vec<f64> = reps
        .iter()
        .map(|r| walls_of(r, kind, preload).iter().sum::<u64>() as f64 / 1e6)
        .collect();
    median(&totals)
}

/// Evaluates the per-layer metrics of a traced run.
pub fn per_layer(run: &Run, costs: &UnitCosts, shares: &Shares) -> LayerValues {
    let mut v = LayerValues::default();
    // Call walls come from every timed repetition, traced or not: the
    // spans reuse the timer's own instants, so both kinds measure the
    // same interval.
    let all: Vec<&RepRecord> = run.reps.iter().chain(&run.traced).collect();
    let first = &run.reps[0];
    let front = front_layer(run.inputs.workload);

    let mut quantile_pair = |p50: &'static str, p99: &'static str, kind: Call| {
        let q = quantiles(&call_walls_us(&all, kind, false));
        v.set(p50, q.p50);
        v.set(p99, q.tail);
    };
    match front {
        "access" => {
            quantile_pair(
                "access.write_call_wall_us_p50",
                "access.write_call_wall_us_p99",
                Call::Write,
            );
            quantile_pair(
                "access.read_call_wall_us_p50",
                "access.read_call_wall_us_p99",
                Call::Read,
            );
            v.set(
                "access.stack_sim_ms_per_write",
                costs.stack_sim_ms_per_write,
            );
            v.set("access.stack_sim_ms_per_read", costs.stack_sim_ms_per_read);
        }
        "cluster" => {
            quantile_pair(
                "cluster.write_call_wall_us_p50",
                "cluster.write_call_wall_us_p99",
                Call::Write,
            );
            quantile_pair(
                "cluster.read_call_wall_us_p50",
                "cluster.read_call_wall_us_p99",
                Call::Read,
            );
            v.set(
                "cluster.audit_all_wall_ms",
                call_total_ms(&all, Call::Audit, false),
            );
            v.set(
                "cluster.cold_store_wall_ms",
                call_total_ms(&all, Call::ColdStore, false),
            );
            v.set("cluster.targets_of_ns", costs.targets_of_ns);
            let writes = first.write_sim_ns.len().max(1) as f64;
            v.set(
                "cluster.replica_writes_per_write",
                first.replica_writes as f64 / writes,
            );
            v.set("cluster.rot_detected", first.audit.rotted as f64);
            v.set(
                "cluster.repaired_parity",
                first.audit.repaired_parity as f64,
            );
            v.set(
                "cluster.repaired_replica",
                first.audit.repaired_replica as f64,
            );
            v.set("cluster.self_wall_share_est", shares.cluster);
            v.set("faults.plan_generate_ms", run.inputs.plan_generate_ms);
            v.set("faults.injected", first.injected as f64);
            v.set("faults.skipped", first.skipped as f64);
        }
        _ => {
            quantile_pair(
                "olfs.write_file_wall_us_p50",
                "olfs.write_file_wall_us_p99",
                Call::Write,
            );
            quantile_pair(
                "olfs.read_file_wall_us_p50",
                "olfs.read_file_wall_us_p99",
                Call::Read,
            );
            for (name, kind) in [
                ("olfs.stat_wall_us_p50", Call::Stat),
                ("olfs.readdir_wall_us_p50", Call::Readdir),
                ("olfs.unlink_wall_us_p50", Call::Unlink),
            ] {
                v.set(name, quantiles(&call_walls_us(&all, kind, false)).p50);
            }
        }
    }
    if front != "cluster" {
        v.set(
            "olfs.flush_wall_ms",
            call_total_ms(&all, Call::Flush, false),
        );
        if !first.preload_walls[Call::GoCold as usize].is_empty() {
            v.set(
                "olfs.evict_unload_wall_ms",
                call_total_ms(&all, Call::GoCold, true),
            );
        }
        if !first.walls[Call::Audit as usize].is_empty() {
            v.set(
                "olfs.audit_sample_wall_ms",
                call_total_ms(&all, Call::Audit, false),
            );
        }
    }

    let c = first.end.counters;
    for (name, count) in [
        ("olfs.buckets_sealed", c.buckets_sealed),
        ("olfs.parity_runs", c.parity_runs),
        ("olfs.burns", c.burns),
        ("olfs.fetches", c.fetches),
        ("olfs.splits", c.splits),
        ("olfs.updates", c.updates),
        ("olfs.repairs", c.repairs),
        ("olfs.latent_repairs", c.latent_repairs),
        ("olfs.burn_interrupts", c.burn_interrupts),
        ("olfs.dedup_hits", c.dedup_hits),
        ("olfs.read_copy_bytes", c.read_copy_bytes),
        ("olfs.cache_evictions", first.end.cache.evictions),
    ] {
        v.set(name, count as f64);
    }
    let lookups = first.end.cache.hits + first.end.cache.misses;
    if lookups > 0 {
        v.set(
            "olfs.cache_hit_ratio",
            first.end.cache.hits as f64 / lookups as f64,
        );
    }
    let s = first.sources;
    let sourced = s.bucket + s.image + s.in_drive + s.roller;
    if sourced > 0 {
        for (name, n) in [
            ("olfs.reads_bucket_share", s.bucket),
            ("olfs.reads_image_share", s.image),
            ("olfs.reads_in_drive_share", s.in_drive),
            ("olfs.reads_roller_share", s.roller),
        ] {
            v.set(name, n as f64 / sourced as f64);
        }
    }
    let t = first.trace;
    if t.writes + t.reads > 0 {
        v.set(
            "olfs.write_sim_ms_steps",
            t.write_steps_ns as f64 / 1e6 / t.writes.max(1) as f64,
        );
        v.set(
            "olfs.read_sim_ms_steps",
            t.read_steps_ns as f64 / 1e6 / t.reads.max(1) as f64,
        );
        v.set(
            "olfs.read_sim_ms_fetch",
            t.read_fetch_ns as f64 / 1e6 / t.reads.max(1) as f64,
        );
        v.set("olfs.sim_trace_residual_ms", t.residual_ns as f64 / 1e6);
    }
    v.set(
        "olfs.first_byte_sim_ms_p50",
        quantiles(&ns_to_ms(&first.first_byte_ns)).p50,
    );
    v.set("olfs.self_wall_share_est", shares.olfs_self);

    v.set("udf.seal_mb_per_s", costs.seal_mb_per_s);
    v.set("udf.parse_mb_per_s", costs.parse_mb_per_s);
    v.set("udf.bucket_write_ns", costs.bucket_write_ns);
    v.set("udf.image_lookup_ns", costs.image_lookup_ns);
    v.set("udf.image_fill_ratio", costs.image_fill_ratio);
    v.set("udf.wall_share_est", shares.udf);
    v.set("cas.digest_image_mb_per_s", costs.digest_image_mb_per_s);
    v.set("cas.digest_payload_mb_per_s", costs.digest_payload_mb_per_s);
    v.set("cas.verify_mb_per_s", costs.verify_mb_per_s);
    v.set("cas.digest_calls_est", shares.digest_calls);
    v.set("cas.wall_share_est", shares.cas);
    v.set("disk.encode_p_mb_per_s", costs.encode_p_mb_per_s);
    v.set("disk.encode_pq_mb_per_s", costs.encode_pq_mb_per_s);
    v.set("disk.reconstruct_mb_per_s", costs.reconstruct_mb_per_s);
    v.set("disk.verify_group_mb_per_s", costs.verify_group_mb_per_s);
    v.set("disk.plane_threads", PLANE_THREADS as f64);
    v.set("disk.wall_share_est", shares.disk);
    v.set("drive.burn_sim_s_per_array", costs.burn_sim_s_per_array);
    v.set("drive.read_sim_ms_per_image", costs.read_sim_ms_per_image);
    v.set("drive.model_call_ns", costs.drive_model_call_ns);
    v.set("mech.load_sim_s_p50", costs.load_sim_s_p50);
    v.set("mech.unload_sim_s_p50", costs.unload_sim_s_p50);
    v.set("mech.model_call_ns", costs.mech_model_call_ns);
    v.set("sim.event_cycle_ns", costs.event_cycle_ns);
    v.set("sim.recorder_percentile_ns", costs.recorder_percentile_ns);

    v.set("workload.generate_wall_ms", run.generate_median_s() * 1e3);
    v.set("workload.ops", first.script_ops as f64);
    v.set("workload.payload_mb", first.payload_bytes as f64 / 1e6);
    v.set("bench.timed_reps", run.reps.len() as f64);
    v.set("bench.rep_wall_iqr_share", run.rep_wall_iqr_share());
    v.set("bench.raw_wall_iqr_share", run.raw_wall_iqr_share());
    v.set("bench.calibration_factor", run.calibration_factor());
    v.set("bench.timer_overhead_ns", costs.timer_overhead_ns);
    // Each traced repetition is compared with the untraced one run
    // just before it, so slow drift of the host cancels.
    let ratios: Vec<f64> = run
        .traced
        .iter()
        .zip(&run.reps)
        .map(|(traced, plain)| traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0)
        .collect();
    v.set("bench.trace_overhead_share", median(&ratios));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_manifest_alphabet() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let entries = |key: &str| {
            let start = manifest
                .find(&format!("\"{key}\": ["))
                .expect("key present");
            let end = start + manifest[start..].find("\n  ]").expect("list closes");
            manifest[start..end].matches("{\"name\"").count()
        };
        for m in END_TO_END.iter().filter(|m| m.gated) {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            );
            assert!(manifest.contains(&line), "missing or stale: {line}");
        }
        assert_eq!(
            entries("end_to_end"),
            END_TO_END.iter().filter(|m| m.gated).count()
        );
        for (name, unit, better) in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.word()
            );
            assert!(manifest.contains(&line), "missing or stale: {line}");
        }
        assert_eq!(entries("per_layer"), PER_LAYER.len());
        for w in crate::inputs::Workload::ALL {
            assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w.name())));
        }
    }
}
