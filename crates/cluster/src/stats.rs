//! Cluster-wide and per-rack measurement reports.
//!
//! All numbers cover the current measurement epoch (since the last
//! [`crate::Cluster::begin_epoch`], or cluster creation). Throughput is
//! bytes moved divided by the cluster makespan of the epoch — racks run
//! in parallel, so a read mix balanced over N racks shows close to N
//! times one rack's rate, which is the scale-out claim the bench
//! scenario checks.

use crate::router::Cluster;
use ros_sim::stats::LatencyRecorder;
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// Per-rack load summary for one measurement epoch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct RackLoadSummary {
    /// The rack's cluster identity.
    pub(crate) rack_id: u32,
    /// Whether the rack is serving requests.
    pub(crate) alive: bool,
    /// Reads served by this rack.
    pub(crate) reads: usize,
    /// Replica writes applied on this rack.
    pub(crate) writes: usize,
    /// Mean read latency on this rack.
    pub(crate) read_mean: SimDuration,
    /// Mean per-replica write latency on this rack.
    pub(crate) write_mean: SimDuration,
    /// Payload bytes read from this rack.
    pub(crate) bytes_read: u64,
    /// Payload bytes written to this rack (per replica).
    pub(crate) bytes_written: u64,
    /// Total payload bytes placed on this rack since creation.
    pub(crate) bytes_stored: u64,
}

/// Cluster-wide measurement report for one epoch.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Per-rack breakdown, rack id order.
    pub(crate) per_rack: Vec<RackLoadSummary>,
    /// All read latencies across racks (one sample per served read).
    pub read_latency: LatencyRecorder,
    /// All per-replica write latencies across racks.
    pub(crate) write_latency: LatencyRecorder,
    /// Cluster makespan of the epoch: furthest alive clock minus epoch
    /// start.
    pub(crate) elapsed: SimDuration,
    /// Payload bytes read cluster-wide.
    pub(crate) bytes_read: u64,
    /// Payload bytes written cluster-wide (counting each replica).
    pub(crate) bytes_written: u64,
}

impl ClusterReport {
    /// Collects the current epoch's measurements from `cluster`.
    pub fn collect(cluster: &Cluster) -> ClusterReport {
        let mut read_latency = LatencyRecorder::new("cluster read");
        let mut write_latency = LatencyRecorder::new("cluster write");
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let per_rack = cluster
            .racks()
            .iter()
            .map(|r| {
                read_latency.merge(&r.read_latency);
                write_latency.merge(&r.write_latency);
                bytes_read = bytes_read.saturating_add(r.bytes_read);
                bytes_written = bytes_written.saturating_add(r.bytes_written);
                RackLoadSummary {
                    rack_id: r.id().0,
                    alive: r.is_alive(),
                    reads: r.read_latency.count(),
                    writes: r.write_latency.count(),
                    read_mean: r.read_latency.mean(),
                    write_mean: r.write_latency.mean(),
                    bytes_read: r.bytes_read,
                    bytes_written: r.bytes_written,
                    bytes_stored: r.bytes_stored(),
                }
            })
            .collect();
        ClusterReport {
            per_rack,
            read_latency,
            write_latency,
            elapsed: cluster.elapsed_since(cluster.epoch_start),
            bytes_read,
            bytes_written,
        }
    }

    /// Aggregate read throughput over the epoch makespan.
    pub fn read_throughput(&self) -> Bandwidth {
        Self::rate(self.bytes_read, self.elapsed)
    }

    /// Aggregate write throughput (replica bytes) over the epoch makespan.
    pub fn write_throughput(&self) -> Bandwidth {
        Self::rate(self.bytes_written, self.elapsed)
    }

    fn rate(bytes: u64, elapsed: SimDuration) -> Bandwidth {
        if elapsed.is_zero() {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bytes_per_sec(bytes as f64 / elapsed.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ros_udf::UdfPath;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn report_accounts_reads_and_writes() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/r/f"), vec![1u8; 4096]).unwrap();
        c.read_file(&p("/r/f")).unwrap();
        let rep = ClusterReport::collect(&c);
        assert_eq!(rep.per_rack.len(), 2);
        assert_eq!(rep.read_latency.count(), 1);
        // Replication 2: two replica writes recorded.
        assert_eq!(rep.write_latency.count(), 2);
        assert_eq!(rep.bytes_read, 4096);
        assert_eq!(rep.bytes_written, 8192);
        assert!(rep.read_throughput().bytes_per_sec() > 0.0);
        assert!(rep.write_throughput().bytes_per_sec() > 0.0);
    }

    #[test]
    fn empty_epoch_reports_zero_rates() {
        let c = Cluster::new(ClusterConfig::tiny(1)).unwrap();
        let rep = ClusterReport::collect(&c);
        assert_eq!(rep.read_throughput(), Bandwidth::ZERO);
        assert_eq!(rep.write_throughput(), Bandwidth::ZERO);
    }
}
