//! Block-device timing models (HDD and SSD).

use crate::params;
use ros_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// The kind of block device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum DeviceKind {
    /// Rotational disk: high sequential throughput, milliseconds of seek.
    Hdd,
    /// Flash device: fast everywhere, used for the metadata volume.
    Ssd,
}

/// One block device.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct BlockDevice {
    /// Device kind.
    pub(crate) kind: DeviceKind,
    /// Usable capacity in bytes.
    pub(crate) capacity: u64,
    /// Sequential read bandwidth.
    pub(crate) seq_read: Bandwidth,
    /// Sequential write bandwidth.
    pub(crate) seq_write: Bandwidth,
    /// Random access latency per I/O.
    pub(crate) random_latency: SimDuration,
    /// Whether the device has failed.
    pub(crate) failed: bool,
}

impl BlockDevice {
    /// A prototype-class 4 TB HDD (§5.1).
    pub(crate) fn hdd() -> Self {
        BlockDevice {
            kind: DeviceKind::Hdd,
            capacity: params::HDD_CAPACITY,
            seq_read: params::hdd_seq_read(),
            seq_write: params::hdd_seq_write(),
            random_latency: params::hdd_random_latency(),
            failed: false,
        }
    }

    /// A prototype-class 240 GB SATA SSD (§5.1).
    pub(crate) fn ssd() -> Self {
        BlockDevice {
            kind: DeviceKind::Ssd,
            capacity: params::SSD_CAPACITY,
            seq_read: params::ssd_seq_read(),
            seq_write: params::ssd_seq_write(),
            random_latency: params::ssd_random_latency(),
            failed: false,
        }
    }

    /// Time for one small random read of `bytes`.
    pub(crate) fn random_read_time(&self, bytes: u64) -> SimDuration {
        self.random_latency + self.seq_read.time_for(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_profile() {
        let d = BlockDevice::hdd();
        assert_eq!(d.kind, DeviceKind::Hdd);
        assert!(d.seq_read.mb_per_sec() > 150.0);
        // 1 GB sequential read takes ~6 s.
        let t = d.seq_read.time_for(1_000_000_000).as_secs_f64();
        assert!((5.0..7.0).contains(&t), "t = {t}");
    }

    #[test]
    fn ssd_is_much_faster_randomly() {
        let h = BlockDevice::hdd();
        let s = BlockDevice::ssd();
        let hr = h.random_read_time(4096);
        let sr = s.random_read_time(4096);
        assert!(hr.as_secs_f64() / sr.as_secs_f64() > 50.0);
    }
}
