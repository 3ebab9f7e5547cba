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
use crate::parity::{self, ParityError};
use crate::plane::DataPlane;
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// Supported RAID levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// Mirroring.
    Raid1,
    /// Striping with single rotating parity.
    Raid5,
    /// Striping with double (P+Q) parity.
    Raid6,
}

impl RaidLevel {
    /// Number of member failures the level tolerates.
    pub fn tolerated_failures(self, members: usize) -> usize {
        match self {
            RaidLevel::Raid0 => 0,
            RaidLevel::Raid1 => members.saturating_sub(1),
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }

    /// Number of members carrying parity (capacity overhead).
    pub fn parity_members(self) -> usize {
        match self {
            RaidLevel::Raid0 | RaidLevel::Raid1 => 0,
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }
}

/// Errors from array operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaidError {
    /// Too few members for the level (RAID-5 needs 3, RAID-6 needs 4...).
    TooFewMembers,
    /// The member index does not exist.
    NoSuchMember(usize),
    /// More members have failed than the level tolerates; data is lost.
    ArrayFailed,
    /// A real-bytes rebuild hit malformed or unrecoverable member data.
    Parity(ParityError),
}

impl core::fmt::Display for RaidError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RaidError::TooFewMembers => write!(f, "too few members for RAID level"),
            RaidError::NoSuchMember(i) => write!(f, "no such member {i}"),
            RaidError::ArrayFailed => write!(f, "array has failed"),
            RaidError::Parity(e) => write!(f, "rebuild parity error: {e}"),
        }
    }
}

impl From<ParityError> for RaidError {
    fn from(e: ParityError) -> RaidError {
        RaidError::Parity(e)
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
    /// Builds an array; all members should be the same device model.
    pub fn new(level: RaidLevel, members: Vec<BlockDevice>) -> Result<Self, RaidError> {
        let min = match level {
            RaidLevel::Raid0 => 1,
            RaidLevel::Raid1 => 2,
            RaidLevel::Raid5 => 3,
            RaidLevel::Raid6 => 4,
        };
        if members.len() < min {
            return Err(RaidError::TooFewMembers);
        }
        Ok(RaidArray { level, members })
    }

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

    /// Returns the RAID level.
    pub fn level(&self) -> RaidLevel {
        self.level
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
    pub fn is_failed(&self) -> bool {
        self.failed_members() > self.level.tolerated_failures(self.members.len())
    }

    /// Returns true if some members failed but data is still available.
    pub fn is_degraded(&self) -> bool {
        self.failed_members() > 0 && !self.is_failed()
    }

    /// Marks a member failed.
    pub fn fail_member(&mut self, i: usize) -> Result<(), RaidError> {
        self.members
            .get_mut(i)
            .ok_or(RaidError::NoSuchMember(i))?
            .failed = true;
        Ok(())
    }

    /// Replaces a failed member with a fresh device (rebuild completes
    /// instantaneously from the caller's perspective; use
    /// [`RaidArray::rebuild_time`] for the duration to schedule).
    pub fn replace_member(&mut self, i: usize) -> Result<(), RaidError> {
        let m = self.members.get_mut(i).ok_or(RaidError::NoSuchMember(i))?;
        m.failed = false;
        Ok(())
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        let per = self.members[0].capacity;
        match self.level {
            RaidLevel::Raid0 => per * self.members.len() as u64,
            RaidLevel::Raid1 => per,
            RaidLevel::Raid5 => per * (self.members.len() as u64 - 1),
            RaidLevel::Raid6 => per * (self.members.len() as u64 - 2),
        }
    }

    /// Aggregate sequential read bandwidth in the current health state.
    pub fn read_bandwidth(&self) -> Bandwidth {
        if self.is_failed() {
            return Bandwidth::ZERO;
        }
        let per = self.members[0].seq_read;
        let n = self.members.len() as f64;
        let healthy = match self.level {
            // All spindles serve reads.
            RaidLevel::Raid0 | RaidLevel::Raid5 | RaidLevel::Raid6 => per.scale(n),
            // Mirrors can serve independent reads from both sides.
            RaidLevel::Raid1 => per.scale(n),
        };
        if self.is_degraded() {
            healthy.scale(params::DEGRADED_FACTOR)
        } else {
            healthy
        }
    }

    /// Aggregate sequential (full-stripe) write bandwidth.
    pub fn write_bandwidth(&self) -> Bandwidth {
        if self.is_failed() {
            return Bandwidth::ZERO;
        }
        let per = self.members[0].seq_write;
        let n = self.members.len() as f64;
        let healthy = match self.level {
            RaidLevel::Raid0 => per.scale(n),
            // Every mirror writes everything.
            RaidLevel::Raid1 => per,
            // Full-stripe writes stream over the data members only.
            RaidLevel::Raid5 => per.scale(n - 1.0),
            RaidLevel::Raid6 => per.scale(n - 2.0),
        };
        if self.is_degraded() {
            healthy.scale(params::DEGRADED_FACTOR)
        } else {
            healthy
        }
    }

    /// Time to read `bytes` sequentially.
    pub fn read_time(&self, bytes: u64) -> Result<SimDuration, RaidError> {
        if self.is_failed() {
            return Err(RaidError::ArrayFailed);
        }
        Ok(self.members[0].random_latency + self.read_bandwidth().time_for(bytes))
    }

    /// Time to write `bytes` sequentially (full stripes).
    pub fn write_time(&self, bytes: u64) -> Result<SimDuration, RaidError> {
        if self.is_failed() {
            return Err(RaidError::ArrayFailed);
        }
        Ok(self.members[0].random_latency + self.write_bandwidth().time_for(bytes))
    }

    /// Time for one small random read (e.g. an index file on the
    /// metadata volume).
    pub fn random_read_time(&self, bytes: u64) -> Result<SimDuration, RaidError> {
        if self.is_failed() {
            return Err(RaidError::ArrayFailed);
        }
        Ok(self.members[0].random_read_time(bytes))
    }

    /// Time to rebuild one replaced member: every surviving member is
    /// read in full while the replacement is written in full.
    pub fn rebuild_time(&self) -> SimDuration {
        let m = &self.members[0];
        m.seq_write.time_for(m.capacity)
    }

    /// Rebuilds the *real bytes* of lost members from the survivors,
    /// using the table-driven parity kernels on the given data plane.
    ///
    /// `members[i] = None` marks a lost member. The layout matches the
    /// level's on-array order: data members first, then parity — P last
    /// for RAID-5; P then Q last for RAID-6. RAID-1 members are mirrors;
    /// RAID-0 has no redundancy, so any loss is fatal. Returns the full
    /// member contents in order.
    ///
    /// This complements [`RaidArray::rebuild_time`]: the timing model
    /// says how long a rebuild takes on the simulated clock, while this
    /// says what the replacement member must contain — the two planes
    /// stay independent (DESIGN.md §12).
    pub fn rebuild_bytes(
        &self,
        members: &[Option<&[u8]>],
        plane: &DataPlane,
    ) -> Result<Vec<Vec<u8>>, RaidError> {
        if members.len() != self.members.len() {
            return Err(RaidError::NoSuchMember(members.len()));
        }
        let lost = members.iter().filter(|m| m.is_none()).count();
        if lost > self.level.tolerated_failures(members.len()) {
            return Err(RaidError::ArrayFailed);
        }
        match self.level {
            RaidLevel::Raid0 => Ok(members.iter().flatten().map(|m| m.to_vec()).collect()),
            RaidLevel::Raid1 => {
                let Some(source) = members.iter().flatten().next() else {
                    return Err(RaidError::ArrayFailed);
                };
                Ok(members.iter().map(|_| source.to_vec()).collect())
            }
            RaidLevel::Raid5 => {
                let split = members.len() - 1;
                let (data, parity) = members.split_at(split);
                let (mut full, p) = parity::reconstruct_p_with(data, parity[0], plane)?;
                full.push(p);
                Ok(full)
            }
            RaidLevel::Raid6 => {
                let split = members.len() - 2;
                let (data, parity) = members.split_at(split);
                let (mut full, p, q) =
                    parity::reconstruct_pq_with(data, parity[0], parity[1], plane)?;
                full.push(p);
                full.push(q);
                Ok(full)
            }
        }
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
        assert_eq!(a.level(), RaidLevel::Raid1);
    }

    #[test]
    fn raid5_capacity_excludes_parity() {
        let a = RaidArray::prototype_data();
        assert_eq!(a.capacity(), 6 * params::HDD_CAPACITY);
    }

    #[test]
    fn member_minimums_enforced() {
        assert_eq!(
            RaidArray::new(RaidLevel::Raid5, vec![BlockDevice::hdd(); 2]).unwrap_err(),
            RaidError::TooFewMembers
        );
        assert_eq!(
            RaidArray::new(RaidLevel::Raid6, vec![BlockDevice::hdd(); 3]).unwrap_err(),
            RaidError::TooFewMembers
        );
        assert!(RaidArray::new(RaidLevel::Raid0, vec![BlockDevice::hdd()]).is_ok());
    }

    #[test]
    fn raid5_survives_one_failure_then_dies() {
        let mut a = RaidArray::prototype_data();
        assert!(!a.is_degraded());
        a.fail_member(2).unwrap();
        assert!(a.is_degraded());
        assert!(!a.is_failed());
        // Degraded throughput drops.
        let w = a.write_bandwidth().mb_per_sec();
        assert!(w < 700.0, "degraded write = {w}");
        a.fail_member(5).unwrap();
        assert!(a.is_failed());
        assert_eq!(a.read_time(1024).unwrap_err(), RaidError::ArrayFailed);
        assert!(a.read_bandwidth().is_zero());
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
    fn raid6_survives_two_failures() {
        let mut a = RaidArray::new(RaidLevel::Raid6, vec![BlockDevice::hdd(); 7]).unwrap();
        a.fail_member(0).unwrap();
        a.fail_member(1).unwrap();
        assert!(a.is_degraded());
        a.fail_member(2).unwrap();
        assert!(a.is_failed());
    }

    #[test]
    fn raid1_survives_all_but_one() {
        let mut a = RaidArray::prototype_metadata();
        a.fail_member(0).unwrap();
        assert!(a.is_degraded());
        assert!(!a.is_failed());
        a.fail_member(1).unwrap();
        assert!(a.is_failed());
    }

    #[test]
    fn replace_member_restores_health() {
        let mut a = RaidArray::prototype_data();
        a.fail_member(3).unwrap();
        assert!(a.is_degraded());
        a.replace_member(3).unwrap();
        assert!(!a.is_degraded());
        assert!(a.rebuild_time() > SimDuration::from_secs(3600 * 5));
        assert_eq!(
            a.replace_member(99).unwrap_err(),
            RaidError::NoSuchMember(99)
        );
    }

    #[test]
    fn rebuild_bytes_restores_lost_members() {
        use crate::parity;
        let plane = DataPlane::new(2);
        // RAID-6: 5 data + P + Q, lose two data members.
        let data: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                (0..3000u32)
                    .map(|j| (j as u8) ^ i.wrapping_mul(41))
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let (p, q) = parity::encode_pq(&refs).unwrap();
        let a = RaidArray::new(RaidLevel::Raid6, vec![BlockDevice::hdd(); 7]).unwrap();
        let mut members: Vec<Option<&[u8]>> = refs.iter().map(|r| Some(*r)).collect();
        members.push(Some(&p));
        members.push(Some(&q));
        members[1] = None;
        members[3] = None;
        let full = a.rebuild_bytes(&members, &plane).unwrap();
        assert_eq!(full[1], data[1]);
        assert_eq!(full[3], data[3]);
        assert_eq!(full[5], p);
        assert_eq!(full[6], q);
        // Losing three members is fatal.
        members[4] = None;
        assert_eq!(
            a.rebuild_bytes(&members, &plane).unwrap_err(),
            RaidError::ArrayFailed
        );
        // RAID-1: any survivor repopulates every mirror.
        let m = RaidArray::prototype_metadata();
        let img = vec![0x5Au8; 128];
        let rebuilt = m.rebuild_bytes(&[None, Some(&img)], &plane).unwrap();
        assert_eq!(rebuilt, vec![img.clone(), img]);
        // Member-count mismatch is rejected.
        assert!(matches!(
            m.rebuild_bytes(&[None], &plane).unwrap_err(),
            RaidError::NoSuchMember(1)
        ));
    }

    #[test]
    fn timed_operations() {
        let a = RaidArray::prototype_data();
        // 1.2 GB at 1.2 GB/s ≈ 1 s.
        let t = a.read_time(1_204_000_000).unwrap().as_secs_f64();
        assert!((t - 1.0).abs() < 0.05, "t = {t}");
        let t = a.write_time(1_002_000_000).unwrap().as_secs_f64();
        assert!((t - 1.0).abs() < 0.05, "t = {t}");
        let small = a.random_read_time(1024).unwrap();
        assert!(small < SimDuration::from_millis(10));
    }
}
