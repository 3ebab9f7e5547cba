//! The NAS gateway: clients' view of ROS over a chosen access stack.
//!
//! Wraps a [`ros_olfs::Ros`] engine behind an [`AccessStack`], wrapping
//! every operation's trace with the stack's extra work (Samba stats, SMB
//! overheads) and exposing streaming throughput. Also implements the
//! §4.8 *direct-writing mode*: "incoming files are directly transferred
//! to the SSD tier at full external bandwidth through CIFS or NFS, then
//! asynchronously delivered into OLFS".

use crate::params;
use crate::samba;
use crate::stack::{AccessStack, StackThroughput};
use bytes::Bytes;
use ros_olfs::engine::{ReadReport, WriteReport};
use ros_olfs::{OlfsError, Ros, UdfPath};
use ros_sim::{Bandwidth, SimDuration};
use std::collections::VecDeque;

/// A pending direct-mode file awaiting asynchronous delivery into OLFS.
#[derive(Clone, Debug)]
struct PendingDirect {
    path: UdfPath,
    data: Bytes,
}

/// The client-facing gateway.
pub struct NasGateway {
    ros: Ros,
    stack: AccessStack,
    link: params::NetworkLink,
    /// Files accepted in direct-writing mode, not yet in OLFS.
    direct_queue: VecDeque<PendingDirect>,
}

impl NasGateway {
    /// Wraps an engine behind a stack on the default 10GbE link.
    pub fn new(ros: Ros, stack: AccessStack) -> Self {
        Self::with_link(ros, stack, params::NetworkLink::TenGbE)
    }

    /// Wraps an engine behind a stack on a specific client link (§3.3
    /// also supports InfiniBand and Fibre Channel).
    pub fn with_link(ros: Ros, stack: AccessStack, link: params::NetworkLink) -> Self {
        NasGateway {
            ros,
            stack,
            link,
            direct_queue: VecDeque::new(),
        }
    }

    /// The active stack.
    pub fn stack(&self) -> AccessStack {
        self.stack
    }

    /// Access to the wrapped engine.
    pub fn ros(&self) -> &Ros {
        &self.ros
    }

    /// Mutable access to the wrapped engine (maintenance, time control).
    pub fn ros_mut(&mut self) -> &mut Ros {
        &mut self.ros
    }

    /// Streaming throughput of this deployment over the engine's actual
    /// buffer-volume baseline (Figure 6 regenerated live).
    pub fn throughput(&self) -> StackThroughput {
        let (r, w) = self.baseline();
        self.stack.throughput(r, w)
    }

    fn baseline(&self) -> (Bandwidth, Bandwidth) {
        // The ext4 baseline is one RAID-5 buffer volume (§5.3).
        (
            Bandwidth::from_mb_per_sec(1204.0),
            Bandwidth::from_mb_per_sec(1002.0),
        )
    }

    /// Writes a file through the stack.
    pub fn write_file(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
    ) -> Result<WriteReport, OlfsError> {
        let data = data.into();
        let mut report = self.ros.write_file(path, data)?;
        if self.stack.is_nas() {
            let wrapped = samba::wrap_write_trace(&report.trace);
            // Charge the extra Samba time on the simulation clock too.
            let extra = wrapped.total().saturating_sub(report.trace.total());
            self.ros.run_for(extra);
            report.latency = wrapped.total();
            report.trace = wrapped;
        }
        Ok(report)
    }

    /// Reads a file through the stack.
    pub fn read_file(&mut self, path: &UdfPath) -> Result<ReadReport, OlfsError> {
        let mut report = self.ros.read_file(path)?;
        if self.stack.is_nas() {
            let wrapped = samba::wrap_read_trace(&report.trace);
            let extra = wrapped.total().saturating_sub(report.trace.total());
            self.ros.run_for(extra);
            let forepart_answered = report.first_byte_latency < report.latency;
            report.latency = wrapped.total();
            if !forepart_answered {
                report.first_byte_latency = report.latency;
            }
            report.trace = wrapped;
        }
        Ok(report)
    }

    /// Accepts a file in direct-writing mode (§4.8): the transfer runs at
    /// full external bandwidth into the SSD tier and OLFS ingestion
    /// happens later via [`NasGateway::drain_direct`]. Returns the
    /// client-observed latency.
    pub fn write_direct(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
    ) -> Result<SimDuration, OlfsError> {
        let data = data.into();
        let rate = self.link.bandwidth();
        let latency = rate.time_for(data.len() as u64) + SimDuration::from_micros(500);
        self.ros.run_for(latency);
        self.direct_queue.push_back(PendingDirect {
            path: path.clone(),
            data,
        });
        Ok(latency)
    }

    /// Asynchronously delivers queued direct-mode files into OLFS.
    /// Returns how many were ingested.
    pub fn drain_direct(&mut self) -> Result<usize, OlfsError> {
        let mut n = 0;
        while let Some(pending) = self.direct_queue.pop_front() {
            self.ros.write_file(&pending.path, pending.data)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_olfs::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn gateway(stack: AccessStack) -> NasGateway {
        NasGateway::new(Ros::new(RosConfig::tiny()), stack)
    }

    #[test]
    fn samba_olfs_write_latency_is_53ms() {
        let mut g = gateway(AccessStack::SambaOlfs);
        let w = g.write_file(&p("/f"), vec![0u8; 1024]).unwrap();
        let ms = w.latency.as_millis_f64();
        assert!((ms - 53.0).abs() < 3.0, "samba write = {ms} ms (paper: 53)");
    }

    #[test]
    fn samba_olfs_read_latency_is_15ms() {
        let mut g = gateway(AccessStack::SambaOlfs);
        g.write_file(&p("/f"), vec![0u8; 1024]).unwrap();
        let r = g.read_file(&p("/f")).unwrap();
        let ms = r.latency.as_millis_f64();
        assert!((ms - 15.0).abs() < 2.0, "samba read = {ms} ms (paper: 15)");
        assert_eq!(r.data.len(), 1024);
    }

    #[test]
    fn local_stack_adds_nothing() {
        let mut g = gateway(AccessStack::Ext4Olfs);
        let w = g.write_file(&p("/f"), vec![0u8; 1024]).unwrap();
        let ms = w.latency.as_millis_f64();
        assert!((ms - 16.0).abs() < 2.0, "local write = {ms} ms (paper: 16)");
    }

    #[test]
    fn throughput_matches_stack_model() {
        let g = gateway(AccessStack::SambaOlfs);
        let t = g.throughput();
        assert!((t.read.mb_per_sec() - 236.1).abs() < 8.0);
        assert!((t.write.mb_per_sec() - 323.6).abs() < 8.0);
    }

    #[test]
    fn direct_mode_is_network_speed_then_async() {
        let mut g = gateway(AccessStack::SambaOlfs);
        let bytes = 1_250_000u64; // 1 ms at 10GbE.
        let lat = g
            .write_direct(&p("/direct/f"), vec![1u8; bytes as usize])
            .unwrap();
        assert!(lat < SimDuration::from_millis(3), "direct latency = {lat}");
        assert_eq!(g.direct_queue.len(), 1);
        // Not yet visible in OLFS.
        assert!(g.ros_mut().read_file(&p("/direct/f")).is_err());
        assert_eq!(g.drain_direct().unwrap(), 1);
        assert_eq!(g.direct_queue.len(), 0);
        let r = g.read_file(&p("/direct/f")).unwrap();
        assert_eq!(r.data.len(), bytes as usize);
    }

    #[test]
    fn gateway_advances_engine_clock_for_smb_time() {
        let mut g = gateway(AccessStack::SambaOlfs);
        let t0 = g.ros().now();
        g.write_file(&p("/f"), vec![0u8; 64]).unwrap();
        let elapsed = g.ros().now().duration_since(t0);
        assert!(elapsed >= SimDuration::from_millis(50));
    }
}
