//! Calibrated access-path constants with their paper citations.

use ros_sim::{Bandwidth, SimDuration};

/// Payload bandwidth of the client-facing 10GbE link (§3.3, §5.1).
pub fn network_10gbe() -> Bandwidth {
    Bandwidth::from_gbit_per_sec(10.0)
}

/// Client-facing network technologies the controller supports (§3.3:
/// "ROS also supports infiniband and Fibre channel (FC) networks that
/// are commonly used in storage area network (SAN) scenarios").
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NetworkLink {
    /// 10 Gb Ethernet (the NAS deployment of the prototype).
    TenGbE,
    /// Two bonded 10GbE NICs (§3.3: the SC has "two 10Gbps NICs",
    /// "providing more than 1GB/s external throughput").
    DualTenGbE,
    /// 4x QDR InfiniBand (SAN deployments).
    InfinibandQdr,
    /// 16 Gb Fibre Channel.
    Fc16,
}

impl NetworkLink {
    /// Payload bandwidth of the link (§3.3; non-10GbE figures are the
    /// technologies' nominal data rates, which the paper does not quote).
    pub(crate) fn bandwidth(self) -> Bandwidth {
        match self {
            NetworkLink::TenGbE => Bandwidth::from_gbit_per_sec(10.0),
            NetworkLink::DualTenGbE => Bandwidth::from_gbit_per_sec(20.0),
            // 40 Gb/s signalling, 32 Gb/s data after 8b/10b.
            NetworkLink::InfinibandQdr => Bandwidth::from_gbit_per_sec(32.0),
            // 16GFC carries ~1.6 GB/s after 64b/66b.
            NetworkLink::Fc16 => Bandwidth::from_bytes_per_sec(1.6e9),
        }
    }
}

/// FUSE streaming-read throughput factor relative to ext4 (§5.3:
/// "ext4+FUSE underperforms ext4 in throughput by 24.1% for read").
pub(crate) const FUSE_READ_FACTOR: f64 = 0.759;

/// FUSE streaming-write throughput factor with the `big_writes` 128 KB
/// flush option (§5.3: "51.8% for write due to kernel-user mode
/// switches"; §4.8 documents the big_writes setting).
pub(crate) const FUSE_WRITE_FACTOR: f64 = 0.482;

/// OLFS's additional read throughput factor on top of FUSE (§5.3:
/// "Ext4+OLFS further causes 28.9% read ... performance loss compared to
/// ext4+FUSE").
pub(crate) const OLFS_READ_FACTOR: f64 = 1.0 - 0.289;

/// OLFS's additional write throughput factor on top of FUSE (§5.3:
/// "... and 10.1% write performance loss").
pub(crate) const OLFS_WRITE_FACTOR: f64 = 1.0 - 0.101;

/// Samba streaming factors relative to ext4 (§5.3: "samba leads to about
/// 68.9% read and 68.0% write throughput degradation of ext4").
pub(crate) const SAMBA_READ_FACTOR: f64 = 1.0 - 0.689;

/// See [`SAMBA_READ_FACTOR`] (§5.3: "68.0% write throughput
/// degradation").
pub(crate) const SAMBA_WRITE_FACTOR: f64 = 1.0 - 0.680;

/// How much of the FUSE penalty remains visible behind Samba (the
/// network stack hides part of it; estimated from Figure 6's bars —
/// the paper quotes no number for samba+FUSE).
pub(crate) const FUSE_UNDER_SAMBA_READ: f64 = 0.78;

/// See [`FUSE_UNDER_SAMBA_READ`]: the write-side estimate from
/// Figure 6's samba+FUSE bar.
pub(crate) const FUSE_UNDER_SAMBA_WRITE: f64 = 0.97;

/// How much of the OLFS penalty remains visible behind Samba+FUSE,
/// calibrated so samba+OLFS lands on the measured 236.1 MB/s read and
/// 323.6 MB/s write (§5.3).
pub(crate) const OLFS_UNDER_SAMBA_READ: f64 = 0.81;

/// See [`OLFS_UNDER_SAMBA_READ`]: calibrated against §5.3's measured
/// 323.6 MB/s samba+OLFS write.
pub(crate) const OLFS_UNDER_SAMBA_WRITE: f64 = 1.04;

/// Extra stat operations Samba adds to a file-creating write (§5.3:
/// "In the case of samba+OLFS, writing new file increases extra 7 stat
/// operations" — one before the mknod and six after, per Figure 7).
pub(crate) const SAMBA_EXTRA_WRITE_STATS_BEFORE: usize = 1;

/// See [`SAMBA_EXTRA_WRITE_STATS_BEFORE`] (Figure 7's post-mknod
/// stat cluster, net of the one mknod itself issues).
pub(crate) const SAMBA_EXTRA_WRITE_STATS_AFTER: usize = 5;

/// Extra stat operations Samba adds to a read (Figure 7's read
/// breakdown shows a single leading stat).
pub(crate) const SAMBA_EXTRA_READ_STATS: usize = 1;

/// SMB protocol overhead per write-class request (compound
/// CREATE/SETINFO round trips on 10GbE plus smbd processing), calibrated
/// so samba+OLFS write lands on Figure 7's 53 ms.
pub(crate) fn smb_write_overhead() -> SimDuration {
    SimDuration::from_micros(19_200)
}

/// SMB protocol overhead per read-class request, calibrated so
/// samba+OLFS read lands on Figure 7's 15 ms.
pub(crate) fn smb_read_overhead() -> SimDuration {
    SimDuration::from_micros(2_700)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_carries_1_25_gbps() {
        assert_eq!(network_10gbe().bytes_per_sec(), 1.25e9);
    }

    #[test]
    fn link_variants_scale_sensibly() {
        assert_eq!(NetworkLink::TenGbE.bandwidth(), network_10gbe());
        // §3.3: two NICs provide "more than 1GB/s external throughput".
        assert!(NetworkLink::DualTenGbE.bandwidth().bytes_per_sec() > 1e9);
        assert!(NetworkLink::InfinibandQdr.bandwidth() > NetworkLink::DualTenGbE.bandwidth());
        assert!(NetworkLink::Fc16.bandwidth() > NetworkLink::TenGbE.bandwidth());
    }

    #[test]
    fn factors_are_fractions() {
        for f in [
            FUSE_READ_FACTOR,
            FUSE_WRITE_FACTOR,
            OLFS_READ_FACTOR,
            OLFS_WRITE_FACTOR,
            SAMBA_READ_FACTOR,
            SAMBA_WRITE_FACTOR,
            FUSE_UNDER_SAMBA_READ,
            FUSE_UNDER_SAMBA_WRITE,
            OLFS_UNDER_SAMBA_READ,
        ] {
            assert!(f > 0.0 && f <= 1.0, "factor {f}");
        }
        // OLFS behind Samba can slightly exceed 1.0 on writes: buffering
        // hides its cost entirely (§5.3's 323.6 vs samba's 320.6 MB/s).
        let w = OLFS_UNDER_SAMBA_WRITE;
        assert!((1.0..1.1).contains(&w));
    }
}
