//! Cluster-level fault routing and retry supervision.
//!
//! [`Cluster`] implements [`FaultSink`] for the rack-scoped fault kinds
//! (`RackOutage`, `RackSlow`) and forwards `AtRack`-wrapped events to
//! the addressed member's own sink, so one [`ros_faults::FaultPlan`] can
//! drive faults through every layer of a federation. The supervised
//! read/write wrappers retry transient cluster errors with exponential
//! backoff charged to every alive member clock (the racks run in
//! parallel; waiting is cluster-wide).

use crate::error::ClusterError;
use crate::router::{Cluster, ClusterReadReport, ClusterWriteReport};
use bytes::Bytes;
use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome, RetryPolicy, RetryStats};
use ros_sim::SimDuration;
use ros_udf::UdfPath;

impl Cluster {
    /// Advances every alive member clock by `d` — how the supervisor
    /// charges retry backoff to a federation that runs in parallel.
    pub fn run_all_for(&mut self, d: SimDuration) {
        for rack in self.racks.iter_mut().filter(|r| r.is_alive()) {
            rack.ros_mut().run_for(d);
        }
    }

    /// Operator maintenance pass across the federation: swaps failed
    /// SSD volume members and returns quarantined drive bays to
    /// rotation on every alive member. A member whose volumes cannot
    /// heal right now is left for the next pass rather than failing
    /// the sweep. Returns `(members_healed, bays_serviced)`.
    pub fn maintain_all(&mut self) -> (usize, usize) {
        let mut healed = 0;
        let mut serviced = 0;
        for rack in self.racks.iter_mut().filter(|r| r.is_alive()) {
            if let Ok(n) = rack.ros_mut().heal_volumes() {
                healed += n;
            }
            serviced += rack.ros_mut().service_quarantined_bays();
        }
        (healed, serviced)
    }

    /// Archive pass across the federation: flush buffered writes to
    /// disc, drain the burns, and evict the SSD buffer copies on every
    /// alive member, so subsequent reads exercise the optical path
    /// (load, seek, disc read) instead of the buffer. Returns the
    /// number of buffer copies evicted.
    pub fn archive_all(&mut self, limit: SimDuration) -> Result<usize, ClusterError> {
        self.flush_all()?;
        self.run_until_quiescent_all(limit);
        let mut evicted = 0;
        for rack in self.racks.iter_mut().filter(|r| r.is_alive()) {
            evicted += rack.ros_mut().evict_burned_copies();
        }
        Ok(evicted)
    }

    /// [`ros_faults::supervise`] over the federation: backoff runs every
    /// alive member clock, a spent budget is a typed
    /// [`ClusterError::RetriesExhausted`].
    fn supervised<T>(
        &mut self,
        op: &str,
        policy: &RetryPolicy,
        attempt: impl FnMut(&mut Cluster) -> Result<T, ClusterError>,
    ) -> Result<(T, RetryStats), ClusterError> {
        let exhausted = |attempts, last| ClusterError::RetriesExhausted {
            op: op.into(),
            attempts,
            last: Box::new(last),
        };
        ros_faults::supervise(self, policy, attempt, exhausted, Cluster::run_all_for)
    }

    /// Reads a file under `policy`: transient replica failures retry
    /// with backoff; hard errors surface immediately.
    pub fn read_file_supervised(
        &mut self,
        path: &UdfPath,
        policy: &RetryPolicy,
    ) -> Result<(ClusterReadReport, RetryStats), ClusterError> {
        self.supervised("read", policy, |c| c.read_file(path))
    }

    /// Writes a file under `policy`. A [`ClusterError::PartialWrite`] is
    /// returned as-is, never retried: the replicas it reached are
    /// durable and recorded, so a retry would mint a fresh version
    /// rather than complete this one — the caller treats it as a typed
    /// degraded-but-acknowledged outcome.
    pub fn write_file_supervised(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
        policy: &RetryPolicy,
    ) -> Result<(ClusterWriteReport, RetryStats), ClusterError> {
        let data: Bytes = data.into();
        self.supervised("write", policy, |c| c.write_file(path, data.clone()))
    }
}

/// Routes rack-scoped faults; `AtRack` unwraps one level and hands the
/// inner event to the member's own sink (which recursively routes it to
/// a drive, the mech, a volume, or disc media).
impl FaultSink for Cluster {
    fn inject_fault(&mut self, event: &FaultEvent) -> InjectionOutcome {
        match &event.kind {
            FaultKind::RackOutage { rack } => {
                let idx = *rack as usize % self.racks.len();
                if !self.racks[idx].is_alive() {
                    return InjectionOutcome::Skipped(format!("rack {idx} already down"));
                }
                if self.alive_racks() == 1 {
                    return InjectionOutcome::Skipped("last alive rack is spared".into());
                }
                if self
                    .fail_rack(u32::try_from(idx).unwrap_or(u32::MAX))
                    .is_err()
                {
                    return InjectionOutcome::Skipped(format!("rack {idx} cannot fail"));
                }
                InjectionOutcome::Injected
            }
            FaultKind::RackSlow { rack, factor_pct } => {
                let idx = *rack as usize % self.racks.len();
                if !self.racks[idx].is_alive() {
                    return InjectionOutcome::Skipped(format!("rack {idx} is down"));
                }
                self.racks[idx].set_slowdown_pct(*factor_pct);
                InjectionOutcome::Injected
            }
            FaultKind::AtRack { rack, fault } => {
                let idx = *rack as usize % self.racks.len();
                if !self.racks[idx].is_alive() {
                    return InjectionOutcome::Skipped(format!("rack {idx} is down"));
                }
                let inner = FaultEvent {
                    seq: event.seq,
                    at_op: event.at_op,
                    kind: (**fault).clone(),
                };
                self.racks[idx].ros_mut().inject_fault(&inner)
            }
            // Bare layer-level kinds are rack-internal; a cluster plan
            // addresses them through `AtRack`.
            _ => InjectionOutcome::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn ev(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        }
    }

    #[test]
    fn rack_outage_fails_over_reads() {
        let mut c = Cluster::new(ClusterConfig::tiny(3)).unwrap();
        let w = c.write_file(&p("/o/f"), vec![4u8; 2048]).unwrap();
        assert_eq!(
            c.inject_fault(&ev(FaultKind::RackOutage { rack: w.racks[0] })),
            InjectionOutcome::Injected
        );
        let (r, stats) = c
            .read_file_supervised(&p("/o/f"), &RetryPolicy::default())
            .unwrap();
        assert_eq!(r.data.as_ref(), &[4u8; 2048][..]);
        assert_eq!(r.fallbacks, 1, "replica serves");
        assert_eq!(stats.attempts, 1, "fallback is not a retry");
    }

    #[test]
    fn outage_spares_the_last_rack() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        assert_eq!(
            c.inject_fault(&ev(FaultKind::RackOutage { rack: 0 })),
            InjectionOutcome::Injected
        );
        assert!(matches!(
            c.inject_fault(&ev(FaultKind::RackOutage { rack: 1 })),
            InjectionOutcome::Skipped(_)
        ));
        assert!(matches!(
            c.inject_fault(&ev(FaultKind::RackOutage { rack: 0 })),
            InjectionOutcome::Skipped(_)
        ));
        assert_eq!(c.alive_racks(), 1);
    }

    #[test]
    fn rack_slow_scales_reported_latency() {
        let mut c = Cluster::new(ClusterConfig::tiny(1)).unwrap();
        let w1 = c.write_file(&p("/s/a"), vec![1u8; 4096]).unwrap();
        c.inject_fault(&ev(FaultKind::RackSlow {
            rack: 0,
            factor_pct: 300,
        }));
        let w2 = c.write_file(&p("/s/b"), vec![1u8; 4096]).unwrap();
        assert!(
            w2.latency.as_nanos() >= w1.latency.as_nanos() * 2,
            "3x slowdown must show in the reported latency ({} vs {})",
            w2.latency,
            w1.latency
        );
    }

    #[test]
    fn at_rack_forwards_to_the_member_stack() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        let w = c.write_file(&p("/ar/f"), vec![9u8; 200_000]).unwrap();
        c.flush_all().unwrap();
        for rack in &mut c.racks {
            rack.ros_mut().evict_burned_copies();
            rack.ros_mut().unload_all_bays().unwrap();
        }
        // A misfeed inside the primary rack: the supervised read retries
        // within that rack's replica before ever needing a fallback.
        let out = c.inject_fault(&ev(FaultKind::AtRack {
            rack: w.racks[0],
            fault: Box::new(FaultKind::MechTransient { count: 1 }),
        }));
        assert_eq!(out, InjectionOutcome::Injected);
        let (r, stats) = c
            .read_file_supervised(&p("/ar/f"), &RetryPolicy::default())
            .unwrap();
        assert_eq!(r.data.len(), 200_000);
        assert!(stats.attempts >= 1);
        // Bare layer kinds are not a cluster concern.
        assert_eq!(
            c.inject_fault(&ev(FaultKind::MechTransient { count: 1 })),
            InjectionOutcome::NotApplicable
        );
    }

    #[test]
    fn partial_write_is_a_durable_outcome_not_a_retry() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/pw/first"), vec![1u8; 512]).unwrap();
        let targets = c.targets_of(&p("/pw/first")).unwrap();
        let secondary = targets[1];
        c.racks[secondary as usize]
            .ros_mut()
            .write_file(&p("/pw/second/shadow"), vec![0u8; 16])
            .unwrap();
        let err = c
            .write_file_supervised(&p("/pw/second"), vec![2u8; 512], &RetryPolicy::default())
            .unwrap_err();
        match err {
            ClusterError::PartialWrite { completed, .. } => {
                assert_eq!(completed, vec![targets[0]]);
            }
            other => panic!("expected PartialWrite, got {other:?}"),
        }
        // The version that landed is durable and versioned exactly once.
        let (size, ver, _) = c.stat(&p("/pw/second")).unwrap();
        assert_eq!((size, ver), (512, 1));
    }
}
