//! Replays op lists against a NAS gateway, collecting statistics.

use crate::spec::{synth_data, FileOp};
use ros_access::NasGateway;
use ros_olfs::OlfsError;
use ros_sim::stats::{Histogram, LatencyRecorder};
use ros_sim::SimDuration;

/// Aggregate results of one run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Write-operation latencies.
    pub write_latency: LatencyRecorder,
    /// Read-operation latencies.
    pub read_latency: LatencyRecorder,
    /// Stat-operation latencies.
    pub stat_latency: LatencyRecorder,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Simulated wall time the run took.
    pub elapsed: SimDuration,
    /// Reads whose payload failed verification.
    pub corrupt_reads: u64,
    /// Read-latency distribution over log buckets (1 ms .. 1000 s),
    /// separating disk-tier hits from mechanical fetches at a glance.
    pub read_histogram: Histogram,
}

impl RunStats {
    fn new() -> Self {
        RunStats {
            write_latency: LatencyRecorder::new("write"),
            read_latency: LatencyRecorder::new("read"),
            stat_latency: LatencyRecorder::new("stat"),
            bytes_written: 0,
            bytes_read: 0,
            elapsed: SimDuration::ZERO,
            corrupt_reads: 0,
            read_histogram: Histogram::logarithmic(
                "read latency",
                SimDuration::from_millis(1),
                SimDuration::from_secs(1000),
                1,
            ),
        }
    }
}

/// Executes op lists against a gateway.
pub struct Runner {
    /// Verify read payloads against the synthesized contents.
    pub(crate) verify_reads: bool,
}

impl Default for Runner {
    fn default() -> Self {
        Runner { verify_reads: true }
    }
}

impl Runner {
    /// Creates a verifying runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the ops, returning statistics. Fails fast on engine errors.
    pub fn run(&self, gateway: &mut NasGateway, ops: &[FileOp]) -> Result<RunStats, OlfsError> {
        let mut stats = RunStats::new();
        let start = gateway.ros().now();
        for op in ops {
            match op {
                FileOp::Write { path, size } => {
                    let data = synth_data(path, *size);
                    let report = gateway.write_file(path, data)?;
                    stats.write_latency.record(report.latency);
                    stats.bytes_written += size;
                }
                FileOp::Read { path } => {
                    let report = gateway.read_file(path)?;
                    stats.read_latency.record(report.latency);
                    stats.read_histogram.record(report.latency);
                    stats.bytes_read += report.data.len() as u64;
                    if self.verify_reads {
                        let expect = synth_data(path, report.data.len() as u64);
                        if report.data.as_ref() != expect.as_slice() {
                            stats.corrupt_reads += 1;
                        }
                    }
                }
                FileOp::Stat { path } => {
                    let t0 = gateway.ros().now();
                    gateway.ros_mut().stat(path)?;
                    let dt = gateway.ros().now().duration_since(t0);
                    stats.stat_latency.record(dt);
                }
            }
        }
        stats.elapsed = gateway.ros().now().duration_since(start);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use ros_access::AccessStack;
    use ros_olfs::{Ros, RosConfig};

    fn gateway() -> NasGateway {
        NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::Ext4Olfs)
    }

    #[test]
    fn singlestream_write_runs_clean() {
        let mut g = gateway();
        let ops = WorkloadSpec::SinglestreamWrite {
            files: 10,
            file_size: 64 * 1024,
        }
        .compile(1);
        let stats = Runner::new().run(&mut g, &ops).unwrap();
        assert_eq!(stats.write_latency.count(), 10);
        assert_eq!(stats.bytes_written, 10 * 64 * 1024);
        assert_eq!(stats.corrupt_reads, 0);
        assert!(stats.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn singlestream_read_verifies_payloads() {
        let mut g = gateway();
        let ops = WorkloadSpec::SinglestreamRead {
            files: 5,
            file_size: 32 * 1024,
        }
        .compile(2);
        let stats = Runner::new().run(&mut g, &ops).unwrap();
        assert_eq!(stats.read_latency.count(), 5);
        assert_eq!(stats.bytes_read, 5 * 32 * 1024);
        assert_eq!(stats.corrupt_reads, 0, "payload integrity must hold");
    }

    #[test]
    fn analytics_readback_hits_cache_tiers() {
        let mut g = gateway();
        let ops = WorkloadSpec::AnalyticsReadback {
            dataset: 20,
            sizes: crate::dist::SizeDist::Fixed { bytes: 8 * 1024 },
            reads: 100,
            skew: 1.0,
        }
        .compile(3);
        let stats = Runner::new().run(&mut g, &ops).unwrap();
        assert_eq!(stats.read_latency.count(), 100);
        assert_eq!(stats.corrupt_reads, 0);
        // Buffered reads are milliseconds, not mechanical seconds.
        assert!(stats.read_latency.max() < SimDuration::from_secs(1));
    }

    #[test]
    fn stat_ops_are_recorded() {
        let mut g = gateway();
        let path: ros_udf::UdfPath = "/s".parse().unwrap();
        let ops = vec![
            FileOp::Write {
                path: path.clone(),
                size: 10,
            },
            FileOp::Stat { path },
        ];
        let stats = Runner::new().run(&mut g, &ops).unwrap();
        assert_eq!(stats.stat_latency.count(), 1);
    }

    #[test]
    fn missing_read_surfaces_error() {
        let mut g = gateway();
        let ops = vec![FileOp::Read {
            path: "/missing".parse().unwrap(),
        }];
        assert!(Runner::new().run(&mut g, &ops).is_err());
    }
}
