//! RAID arrays over block devices.
//!
//! The prototype configures its disks as "multiple RAID volumes to improve
//! overall throughput and reliability" (§3.3): a 2-SSD RAID-1 for the
//! metadata volume and two 7-HDD RAID-5s for the write buffer and read
//! cache. The timing model reproduces the ext4 baseline of Figure 6
//! (1.2 GB/s read, 1.0 GB/s write on one RAID-5 volume) and models
//! degraded operation and rebuild after member failures.

use crate::device::BlockDevice;
use crate::params;
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// The prototype's RAID levels (§5.1): the MV on mirrored SSDs, the
/// data volumes on HDDs with rotating parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum RaidLevel {
    /// Mirroring.
    Raid1,
    /// Striping with single rotating parity.
    Raid5,
}

impl RaidLevel {
    /// Number of member failures the level tolerates.
    fn tolerated_failures(self, members: usize) -> usize {
        match self {
            RaidLevel::Raid1 => members.saturating_sub(1),
            RaidLevel::Raid5 => 1,
        }
    }
}

/// Errors from array operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaidError {
    /// The member index does not exist.
    NoSuchMember(usize),
    /// More members have failed than the level tolerates; data is lost.
    ArrayFailed,
}

impl core::fmt::Display for RaidError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RaidError::NoSuchMember(i) => write!(f, "no such member {i}"),
            RaidError::ArrayFailed => write!(f, "array has failed"),
        }
    }
}

impl std::error::Error for RaidError {}

/// A RAID array of identical members.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RaidArray {
    level: RaidLevel,
    members: Vec<BlockDevice>,
}

impl RaidArray {
    /// The prototype's metadata volume: 2 SSDs in RAID-1 (§5.1).
    pub fn prototype_metadata() -> Self {
        RaidArray {
            level: RaidLevel::Raid1,
            members: vec![BlockDevice::ssd(); 2],
        }
    }

    /// One of the prototype's data volumes: 7 HDDs in RAID-5 (§5.1).
    pub fn prototype_data() -> Self {
        RaidArray {
            level: RaidLevel::Raid5,
            members: vec![BlockDevice::hdd(); 7],
        }
    }

    /// Returns the member count.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Returns the number of failed members.
    pub fn failed_members(&self) -> usize {
        self.members.iter().filter(|m| m.failed).count()
    }

    /// Returns true if lost members exceed the level's tolerance.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed_members() > self.level.tolerated_failures(self.members.len())
    }

    /// Returns true if some members failed but data is still available.
    fn is_degraded(&self) -> bool {
        self.failed_members() > 0 && !self.is_failed()
    }

    /// Replaces a failed member with a fresh device (rebuild completes
    /// instantaneously from the caller's perspective).
    pub fn replace_member(&mut self, i: usize) -> Result<(), RaidError> {
        let m = self.members.get_mut(i).ok_or(RaidError::NoSuchMember(i))?;
        m.failed = false;
        Ok(())
    }

    /// Usable capacity in bytes.
    pub(crate) fn capacity(&self) -> u64 {
        let per = self.members[0].capacity;
        match self.level {
            RaidLevel::Raid1 => per,
            RaidLevel::Raid5 => per * (self.members.len() as u64 - 1),
        }
    }

    /// Aggregate sequential read bandwidth in the current health state.
    pub(crate) fn read_bandwidth(&self) -> Bandwidth {
        if self.is_failed() {
            return Bandwidth::ZERO;
        }
        let per = self.members[0].seq_read;
        let n = self.members.len() as f64;
        // Every spindle serves reads; mirrors serve independent reads
        // from both sides.
        let healthy = per.scale(n);
        if self.is_degraded() {
            healthy.scale(params::DEGRADED_FACTOR)
        } else {
            healthy
        }
    }

    /// Aggregate sequential (full-stripe) write bandwidth.
    pub(crate) fn write_bandwidth(&self) -> Bandwidth {
        if self.is_failed() {
            return Bandwidth::ZERO;
        }
        let per = self.members[0].seq_write;
        let n = self.members.len() as f64;
        let healthy = match self.level {
            // Every mirror writes everything.
            RaidLevel::Raid1 => per,
            // Full-stripe writes stream over the data members only.
            RaidLevel::Raid5 => per.scale(n - 1.0),
        };
        if self.is_degraded() {
            healthy.scale(params::DEGRADED_FACTOR)
        } else {
            healthy
        }
    }

    /// Time for one small random read (e.g. an index file on the
    /// metadata volume).
    pub(crate) fn random_read_time(&self, bytes: u64) -> Result<SimDuration, RaidError> {
        if self.is_failed() {
            return Err(RaidError::ArrayFailed);
        }
        Ok(self.members[0].random_read_time(bytes))
    }
}

/// The array accepts device-level loss/repair events. The `volume`
/// coordinate is the volume manager's routing concern; by the time an
/// event reaches a concrete array the member index applies directly
/// (wrapped modulo the member count so generated plans never miss).
impl ros_faults::FaultSink for RaidArray {
    fn inject_fault(&mut self, event: &ros_faults::FaultEvent) -> ros_faults::InjectionOutcome {
        use ros_faults::{FaultKind, InjectionOutcome};
        match &event.kind {
            FaultKind::SsdLoss { member, .. } => {
                let i = *member as usize % self.members.len();
                if self.members[i].failed {
                    InjectionOutcome::Skipped(format!("member {i} already failed"))
                } else {
                    self.members[i].failed = true;
                    InjectionOutcome::Injected
                }
            }
            FaultKind::SsdRepair { member, .. } => {
                let i = *member as usize % self.members.len();
                if self.members[i].failed {
                    self.members[i].failed = false;
                    InjectionOutcome::Injected
                } else {
                    InjectionOutcome::Skipped(format!("member {i} is healthy"))
                }
            }
            _ => InjectionOutcome::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_raid5_hits_figure6_baseline() {
        let a = RaidArray::prototype_data();
        let r = a.read_bandwidth().mb_per_sec();
        let w = a.write_bandwidth().mb_per_sec();
        assert!(
            (r - 1204.0).abs() < 10.0,
            "read = {r} MB/s (paper: 1.2 GB/s)"
        );
        assert!(
            (w - 1002.0).abs() < 10.0,
            "write = {w} MB/s (paper: 1.0 GB/s)"
        );
    }

    #[test]
    fn metadata_raid1_capacity_is_one_ssd() {
        let a = RaidArray::prototype_metadata();
        assert_eq!(a.capacity(), params::SSD_CAPACITY);
        assert_eq!(a.level, RaidLevel::Raid1);
    }

    #[test]
    fn raid5_capacity_excludes_parity() {
        let a = RaidArray::prototype_data();
        assert_eq!(a.capacity(), 6 * params::HDD_CAPACITY);
    }

    #[test]
    fn raid5_survives_one_failure_then_dies() {
        let mut a = RaidArray::prototype_data();
        assert!(!a.is_degraded());
        a.members[2].failed = true;
        assert!(a.is_degraded());
        assert!(!a.is_failed());
        // Degraded throughput drops.
        let w = a.write_bandwidth().mb_per_sec();
        assert!(w < 700.0, "degraded write = {w}");
        a.members[5].failed = true;
        assert!(a.is_failed());
        assert_eq!(
            a.random_read_time(1024).unwrap_err(),
            RaidError::ArrayFailed
        );
        assert_eq!(a.read_bandwidth(), Bandwidth::ZERO);
    }

    #[test]
    fn fault_sink_loss_and_repair_round_trip() {
        use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome, VolumeTarget};
        let mut a = RaidArray::prototype_data();
        let ev = |kind: FaultKind| FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        };
        let loss = FaultKind::SsdLoss {
            volume: VolumeTarget::Buffer,
            member: 9, // wraps to member 2 of the 7-wide array
        };
        assert_eq!(
            a.inject_fault(&ev(loss.clone())),
            InjectionOutcome::Injected
        );
        assert!(a.is_degraded());
        assert!(matches!(
            a.inject_fault(&ev(loss)),
            InjectionOutcome::Skipped(_)
        ));
        let repair = FaultKind::SsdRepair {
            volume: VolumeTarget::Buffer,
            member: 9,
        };
        assert_eq!(
            a.inject_fault(&ev(repair.clone())),
            InjectionOutcome::Injected
        );
        assert!(!a.is_degraded());
        assert!(matches!(
            a.inject_fault(&ev(repair)),
            InjectionOutcome::Skipped(_)
        ));
        assert_eq!(
            a.inject_fault(&ev(FaultKind::MechTransient { count: 1 })),
            InjectionOutcome::NotApplicable
        );
    }

    #[test]
    fn raid1_survives_all_but_one() {
        let mut a = RaidArray::prototype_metadata();
        a.members[0].failed = true;
        assert!(a.is_degraded());
        assert!(!a.is_failed());
        a.members[1].failed = true;
        assert!(a.is_failed());
    }

    #[test]
    fn replace_member_restores_health() {
        let mut a = RaidArray::prototype_data();
        a.members[3].failed = true;
        assert!(a.is_degraded());
        a.replace_member(3).unwrap();
        assert!(!a.is_degraded());
        assert_eq!(
            a.replace_member(99).unwrap_err(),
            RaidError::NoSuchMember(99)
        );
    }

    #[test]
    fn timed_operations() {
        let a = RaidArray::prototype_data();
        // 1.2 GB at 1.2 GB/s ≈ 1 s.
        let t = a.read_bandwidth().time_for(1_204_000_000).as_secs_f64();
        assert!((t - 1.0).abs() < 0.05, "t = {t}");
        let t = a.write_bandwidth().time_for(1_002_000_000).as_secs_f64();
        assert!((t - 1.0).abs() < 0.05, "t = {t}");
        let small = a.random_read_time(1024).unwrap();
        assert!(small < SimDuration::from_millis(10));
    }
}
