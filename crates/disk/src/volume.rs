//! Volume manager and concurrent-stream interference.
//!
//! §4.7 identifies four concurrent intensive flows on the disk tier:
//! (1) users writing into buckets, (2) the parity maker reading data
//! images, (3) the parity maker writing the parity image, and (4) drives
//! reading images to burn. "These four I/O streams might interfere each
//! other to worsen overall performance. To avoid this problem, ROS can
//! configure disks into multiple volumes of independent RAIDs and further
//! schedule these I/O streams to different volumes at same time."
//!
//! The [`VolumeManager`] tracks which streams are active on which volume
//! and degrades effective bandwidth multiplicatively per extra stream, so
//! the scheduling policy above is *measurable* (see the ablation bench).

use crate::params;
use crate::raid::{RaidArray, RaidError};
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a registered volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VolumeId(pub u32);

/// Identifier of an active I/O stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StreamId(pub u64);

/// The four stream kinds of §4.7 (plus foreground reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKind {
    /// Clients writing file data into buckets.
    UserWrite,
    /// Clients reading file data that hits the disk tier.
    UserRead,
    /// Parity maker reading data disc images.
    ParityRead,
    /// Parity maker writing the parity disc image.
    ParityWrite,
    /// Optical drives pulling images off disk to burn.
    BurnRead,
}

/// Errors from the volume manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeError {
    /// Unknown volume.
    NoSuchVolume(VolumeId),
    /// Underlying array failure.
    Raid(RaidError),
    /// Volume is out of space.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes free.
        free: u64,
    },
}

impl From<RaidError> for VolumeError {
    fn from(e: RaidError) -> Self {
        VolumeError::Raid(e)
    }
}

impl core::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VolumeError::NoSuchVolume(v) => write!(f, "no such volume {v:?}"),
            VolumeError::Raid(e) => write!(f, "raid: {e}"),
            VolumeError::OutOfSpace { requested, free } => {
                write!(f, "out of space: need {requested}, free {free}")
            }
        }
    }
}

impl std::error::Error for VolumeError {}

struct VolumeState {
    array: RaidArray,
    used: u64,
}

/// Manages named volumes over RAID arrays and tracks stream placement.
pub struct VolumeManager {
    volumes: BTreeMap<VolumeId, VolumeState>,
    streams: BTreeMap<StreamId, (VolumeId, StreamKind)>,
    next_volume: u32,
    next_stream: u64,
}

impl Default for VolumeManager {
    fn default() -> Self {
        Self::new()
    }
}

impl VolumeManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        VolumeManager {
            volumes: BTreeMap::new(),
            streams: BTreeMap::new(),
            next_volume: 0,
            next_stream: 0,
        }
    }

    /// Registers a volume, returning its id.
    pub fn add_volume(&mut self, array: RaidArray) -> VolumeId {
        let id = VolumeId(self.next_volume);
        self.next_volume += 1;
        self.volumes.insert(id, VolumeState { array, used: 0 });
        id
    }

    /// Returns mutable access to the array (failure injection).
    pub fn array_mut(&mut self, vol: VolumeId) -> Result<&mut RaidArray, VolumeError> {
        Ok(&mut self
            .volumes
            .get_mut(&vol)
            .ok_or(VolumeError::NoSuchVolume(vol))?
            .array)
    }

    fn get(&self, vol: VolumeId) -> Result<&VolumeState, VolumeError> {
        self.volumes.get(&vol).ok_or(VolumeError::NoSuchVolume(vol))
    }

    /// Returns `(used, capacity)` for a volume.
    pub fn usage(&self, vol: VolumeId) -> Result<(u64, u64), VolumeError> {
        let v = self.get(vol)?;
        Ok((v.used, v.array.capacity()))
    }

    /// Reserves `bytes` of space on a volume.
    pub fn allocate(&mut self, vol: VolumeId, bytes: u64) -> Result<(), VolumeError> {
        let v = self
            .volumes
            .get_mut(&vol)
            .ok_or(VolumeError::NoSuchVolume(vol))?;
        let free = v.array.capacity().saturating_sub(v.used);
        if bytes > free {
            return Err(VolumeError::OutOfSpace {
                requested: bytes,
                free,
            });
        }
        v.used += bytes;
        Ok(())
    }

    /// Releases `bytes` of space on a volume.
    pub fn release(&mut self, vol: VolumeId, bytes: u64) -> Result<(), VolumeError> {
        let v = self
            .volumes
            .get_mut(&vol)
            .ok_or(VolumeError::NoSuchVolume(vol))?;
        v.used = v.used.saturating_sub(bytes);
        Ok(())
    }

    /// Opens a stream of `kind` on a volume.
    pub fn open_stream(
        &mut self,
        vol: VolumeId,
        kind: StreamKind,
    ) -> Result<StreamId, VolumeError> {
        self.get(vol)?;
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.streams.insert(id, (vol, kind));
        Ok(id)
    }

    /// Number of active streams on a volume.
    pub(crate) fn active_streams(&self, vol: VolumeId) -> usize {
        self.streams.values().filter(|(v, _)| *v == vol).count()
    }

    /// Interference factor for a volume: 1.0 with at most one stream,
    /// compounding [`params::STREAM_INTERFERENCE_FACTOR`] per extra
    /// stream.
    pub(crate) fn interference(&self, vol: VolumeId) -> f64 {
        let n = self.active_streams(vol);
        if n <= 1 {
            1.0
        } else {
            // Stream counts are tiny; saturate rather than wrap if a
            // pathological caller ever opens i32::MAX streams.
            let extra = i32::try_from(n - 1).unwrap_or(i32::MAX);
            params::STREAM_INTERFERENCE_FACTOR.powi(extra)
        }
    }

    /// Effective per-stream read bandwidth on a volume right now: the
    /// array's bandwidth, shared across streams, with interference.
    pub fn effective_read_bandwidth(&self, vol: VolumeId) -> Result<Bandwidth, VolumeError> {
        let v = self.get(vol)?;
        let n = self.active_streams(vol).max(1) as f64;
        Ok(v.array.read_bandwidth().scale(self.interference(vol) / n))
    }

    /// Effective per-stream write bandwidth on a volume right now.
    pub fn effective_write_bandwidth(&self, vol: VolumeId) -> Result<Bandwidth, VolumeError> {
        let v = self.get(vol)?;
        let n = self.active_streams(vol).max(1) as f64;
        Ok(v.array.write_bandwidth().scale(self.interference(vol) / n))
    }

    /// Time for a stream to read `bytes` at current contention.
    pub fn read_time(&self, vol: VolumeId, bytes: u64) -> Result<SimDuration, VolumeError> {
        let v = self.get(vol)?;
        if v.array.is_failed() {
            return Err(VolumeError::Raid(RaidError::ArrayFailed));
        }
        Ok(self.effective_read_bandwidth(vol)?.time_for(bytes))
    }

    /// Time for a stream to write `bytes` at current contention.
    pub fn write_time(&self, vol: VolumeId, bytes: u64) -> Result<SimDuration, VolumeError> {
        let v = self.get(vol)?;
        if v.array.is_failed() {
            return Err(VolumeError::Raid(RaidError::ArrayFailed));
        }
        Ok(self.effective_write_bandwidth(vol)?.time_for(bytes))
    }

    /// Time for one small random read (metadata lookups).
    pub fn random_read_time(&self, vol: VolumeId, bytes: u64) -> Result<SimDuration, VolumeError> {
        Ok(self.get(vol)?.array.random_read_time(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> (VolumeManager, VolumeId, VolumeId) {
        let mut m = VolumeManager::new();
        let a = m.add_volume(RaidArray::prototype_data());
        let b = m.add_volume(RaidArray::prototype_data());
        (m, a, b)
    }

    #[test]
    fn allocation_accounting() {
        let (mut m, a, _) = mgr();
        let (used, cap) = m.usage(a).unwrap();
        assert_eq!(used, 0);
        assert_eq!(cap, 6 * params::HDD_CAPACITY);
        m.allocate(a, 1_000_000).unwrap();
        assert_eq!(m.usage(a).unwrap().0, 1_000_000);
        m.release(a, 400_000).unwrap();
        assert_eq!(m.usage(a).unwrap().0, 600_000);
        let err = m.allocate(a, u64::MAX).unwrap_err();
        assert!(matches!(err, VolumeError::OutOfSpace { .. }));
    }

    #[test]
    fn single_stream_gets_full_bandwidth() {
        let (mut m, a, _) = mgr();
        m.open_stream(a, StreamKind::UserWrite).unwrap();
        let bw = m.effective_write_bandwidth(a).unwrap().mb_per_sec();
        assert!((bw - 1002.0).abs() < 10.0);
        assert!(m.open_stream(VolumeId(42), StreamKind::UserRead).is_err());
    }

    #[test]
    fn four_streams_on_one_volume_interfere() {
        let (mut m, a, _) = mgr();
        for kind in [
            StreamKind::UserWrite,
            StreamKind::ParityRead,
            StreamKind::ParityWrite,
            StreamKind::BurnRead,
        ] {
            m.open_stream(a, kind).unwrap();
        }
        assert_eq!(m.active_streams(a), 4);
        let interference = m.interference(a);
        assert!((interference - params::STREAM_INTERFERENCE_FACTOR.powi(3)).abs() < 1e-12);
        // Per-stream share is far below a quarter of the raw bandwidth.
        let per = m.effective_write_bandwidth(a).unwrap().mb_per_sec();
        assert!(per < 1002.0 / 4.0);
    }

    #[test]
    fn spreading_streams_avoids_interference() {
        let (mut m, a, b) = mgr();
        m.open_stream(a, StreamKind::UserWrite).unwrap();
        m.open_stream(b, StreamKind::BurnRead).unwrap();
        assert_eq!(m.interference(a), 1.0);
        assert_eq!(m.interference(b), 1.0);
        // Aggregate useful bandwidth across both volumes beats four
        // streams crammed onto one volume.
        let spread = m.effective_write_bandwidth(a).unwrap().mb_per_sec()
            + m.effective_read_bandwidth(b).unwrap().mb_per_sec();
        assert!(spread > 2000.0);
    }

    #[test]
    fn failed_array_propagates() {
        let (mut m, a, _) = mgr();
        use ros_faults::{FaultEvent, FaultKind, FaultSink, VolumeTarget};
        for member in 0..2 {
            let kind = FaultKind::SsdLoss {
                volume: VolumeTarget::Buffer,
                member,
            };
            let event = FaultEvent {
                seq: 0,
                at_op: 0,
                kind,
            };
            m.array_mut(a).unwrap().inject_fault(&event);
        }
        assert!(matches!(
            m.read_time(a, 1024).unwrap_err(),
            VolumeError::Raid(RaidError::ArrayFailed)
        ));
    }

    #[test]
    fn timed_io_reflects_contention() {
        let (mut m, a, _) = mgr();
        let t1 = m.write_time(a, 1_000_000_000).unwrap();
        m.open_stream(a, StreamKind::UserWrite).unwrap();
        m.open_stream(a, StreamKind::BurnRead).unwrap();
        let t2 = m.write_time(a, 1_000_000_000).unwrap();
        assert!(t2 > t1 * 2, "contended write must be slower: {t1} vs {t2}");
    }
}
