//! Cluster scale-out scenario: the Fig. 7 op mix replayed against 1, 2,
//! 4 and 8 federated racks, plus the whole-rack failure drill.
//!
//! The paper prices growth in whole racks (§6) but never runs more than
//! one; this scenario checks that the federation layer actually delivers
//! rack-level scale-out — aggregate read throughput should grow close to
//! linearly with rack count, because rendezvous placement spreads archive
//! groups across members and reads route to group primaries in parallel.

use crate::experiments::BenchError;
use ros_cluster::{Cluster, ClusterConfig, ClusterReport, DrillReport};
use ros_workload::dist::SizeDist;
use ros_workload::spec::synth_data;
use ros_workload::{FileOp, WorkloadSpec};

/// One measured point of the scale-out sweep.
#[derive(Clone, Debug)]
pub(crate) struct ClusterScalePoint {
    /// Rack count.
    pub(crate) racks: usize,
    /// Aggregate read throughput over the read phase (MB/s).
    pub(crate) read_mbps: f64,
    /// Aggregate ingest throughput over the write phase, counting each
    /// replica's bytes (MB/s).
    pub(crate) write_mbps: f64,
    /// Mean read latency across racks (ms).
    pub(crate) read_mean_ms: f64,
    /// Median read latency (ms).
    pub(crate) read_p50_ms: f64,
    /// 95th-percentile read latency (ms).
    pub(crate) read_p95_ms: f64,
    /// 99th-percentile read latency (ms).
    pub(crate) read_p99_ms: f64,
    /// Read-throughput speedup versus the 1-rack point.
    pub(crate) speedup: f64,
}

/// Outcome of the rack-failure drill at cluster scale.
#[derive(Clone, Debug)]
pub(crate) struct ClusterDrillSummary {
    /// Rack count the drill ran at.
    pub(crate) racks: usize,
    /// Files the workload ingested before the failure.
    pub(crate) files_written: usize,
    /// The drill report (recovery time, loss, bytes moved).
    pub(crate) drill: DrillReport,
}

/// The multi-tenant mixed op workload (Fig. 7 mix: 70% reads over a
/// Zipf-skewed tenant population) the cluster scenarios replay.
fn mixed_spec(ops: usize) -> WorkloadSpec {
    WorkloadSpec::MultiTenantMixed {
        tenants: 24,
        tenant_skew: 0.5,
        ops,
        read_ratio: 0.7,
        sizes: SizeDist::Fixed { bytes: 16 * 1024 },
        fanout: 2,
    }
}

const SEED: u64 = 42;

struct PhaseRates {
    read_mbps: f64,
    write_mbps: f64,
    read_mean_ms: f64,
    read_p50_ms: f64,
    read_p95_ms: f64,
    read_p99_ms: f64,
}

/// Ingests the mix's writes in one epoch, then replays its reads/stats
/// in a second epoch, returning both phases' aggregate rates.
fn run_point(racks: usize, ops: usize) -> Result<PhaseRates, BenchError> {
    let err = |detail: String| BenchError {
        context: "cluster_scaleout",
        detail,
    };
    let mut cluster = Cluster::new(ClusterConfig::tiny(racks)).map_err(|e| err(e.to_string()))?;
    let ops = mixed_spec(ops).compile(SEED);
    cluster.begin_epoch();
    for op in &ops {
        if let FileOp::Write { path, size } = op {
            cluster
                .write_file(path, synth_data(path, *size))
                .map_err(|e| err(format!("ingest {path}: {e}")))?;
        }
    }
    let ingest = ClusterReport::collect(&cluster);
    cluster.begin_epoch();
    for op in &ops {
        match op {
            FileOp::Read { path } => {
                let report = cluster
                    .read_file(path)
                    .map_err(|e| err(format!("read {path}: {e}")))?;
                let expect = synth_data(path, report.data.len() as u64);
                if report.data.as_ref() != expect.as_slice() {
                    return Err(err(format!("payload mismatch on {path}")));
                }
            }
            FileOp::Stat { path } => {
                cluster
                    .stat(path)
                    .map_err(|e| err(format!("stat {path}: {e}")))?;
            }
            FileOp::Write { .. } => {}
        }
    }
    let reads = ClusterReport::collect(&cluster);
    // Percentiles share one cached sorted view inside the recorder, so
    // three tail queries cost one sort — no per-query sample cloning.
    Ok(PhaseRates {
        read_mbps: reads.read_throughput().mb_per_sec(),
        write_mbps: ingest.write_throughput().mb_per_sec(),
        read_mean_ms: reads.read_latency.mean().as_millis_f64(),
        read_p50_ms: reads.read_latency.percentile(0.50).as_millis_f64(),
        read_p95_ms: reads.read_latency.percentile(0.95).as_millis_f64(),
        read_p99_ms: reads.read_latency.percentile(0.99).as_millis_f64(),
    })
}

/// Runs the scale-out sweep over `rack_counts`, each replaying the same
/// `ops`-operation mix. The first entry is the speedup baseline.
pub(crate) fn cluster_scaleout(
    rack_counts: &[usize],
    ops: usize,
) -> Result<Vec<ClusterScalePoint>, BenchError> {
    let mut points = Vec::new();
    let mut baseline = None;
    for &racks in rack_counts {
        let rates = run_point(racks, ops)?;
        let base = *baseline.get_or_insert(rates.read_mbps);
        points.push(ClusterScalePoint {
            racks,
            read_mbps: rates.read_mbps,
            write_mbps: rates.write_mbps,
            read_mean_ms: rates.read_mean_ms,
            read_p50_ms: rates.read_p50_ms,
            read_p95_ms: rates.read_p95_ms,
            read_p99_ms: rates.read_p99_ms,
            speedup: if base > 0.0 {
                rates.read_mbps / base
            } else {
                0.0
            },
        });
    }
    Ok(points)
}

/// Ingests the mix on `racks` racks, replicates MV snapshots, fails one
/// rack and runs the re-replication drill.
pub(crate) fn cluster_failure_drill(
    racks: usize,
    ops: usize,
) -> Result<ClusterDrillSummary, BenchError> {
    let err = |detail: String| BenchError {
        context: "cluster_failure_drill",
        detail,
    };
    let mut cluster = Cluster::new(ClusterConfig::tiny(racks)).map_err(|e| err(e.to_string()))?;
    let ops = mixed_spec(ops).compile(SEED);
    let mut files_written = 0;
    for op in &ops {
        if let FileOp::Write { path, size } = op {
            cluster
                .write_file(path, synth_data(path, *size))
                .map_err(|e| err(format!("ingest {path}: {e}")))?;
            files_written += 1;
        }
    }
    cluster
        .replicate_mv_snapshots(true)
        .map_err(|e| err(format!("MV replication: {e}")))?;
    // Fail the busiest surviving candidate deterministically: rack 1 (a
    // middle member; rack 0 stays up as the reader's reference point).
    let victim = 1u32.min(u32::try_from(racks).unwrap_or(u32::MAX) - 1);
    cluster
        .fail_rack(victim)
        .map_err(|e| err(format!("fail rack {victim}: {e}")))?;
    let drill = cluster
        .rereplicate_after_failure(victim)
        .map_err(|e| err(format!("drill: {e}")))?;
    Ok(ClusterDrillSummary {
        racks,
        files_written,
        drill,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_scales_and_reports() {
        let points = cluster_scaleout(&[1, 2], 240).unwrap();
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        assert!(points[1].speedup > 1.0, "2 racks must beat 1");
        assert!(points[1].read_mbps > points[0].read_mbps);
    }

    #[test]
    fn drill_summary_has_zero_loss_at_replication_two() {
        let summary = cluster_failure_drill(4, 240).unwrap();
        assert_eq!(summary.drill.files_lost, 0);
        assert_eq!(summary.drill.files_verified, summary.drill.files_recovered);
        assert!(summary.files_written > 0);
        assert!(summary.drill.recovery_time.as_nanos() > 0);
    }
}
