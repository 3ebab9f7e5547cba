//! The five measured access-path configurations of Figure 6.

use crate::params;
use ros_sim::Bandwidth;
use serde::{Deserialize, Serialize};

/// One of the evaluated software stacks (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessStack {
    /// ext4 directly on the RAID-5 volume — the baseline.
    Ext4,
    /// An empty FUSE passthrough on ext4.
    Ext4Fuse,
    /// OLFS (via FUSE) on ext4.
    Ext4Olfs,
    /// Samba exporting ext4.
    Samba,
    /// Samba exporting the empty FUSE passthrough.
    SambaFuse,
    /// Samba exporting OLFS — the paper's recommended NAS deployment.
    SambaOlfs,
}

/// A stack's streaming throughput for both directions.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StackThroughput {
    /// Sequential read throughput.
    pub read: Bandwidth,
    /// Sequential write throughput.
    pub write: Bandwidth,
}

impl AccessStack {
    /// All configurations in Figure 6's order (baseline first).
    pub fn all() -> [AccessStack; 6] {
        [
            AccessStack::Ext4,
            AccessStack::Ext4Fuse,
            AccessStack::Ext4Olfs,
            AccessStack::Samba,
            AccessStack::SambaFuse,
            AccessStack::SambaOlfs,
        ]
    }

    /// Display name matching the paper's legend.
    pub fn name(self) -> &'static str {
        match self {
            AccessStack::Ext4 => "ext4",
            AccessStack::Ext4Fuse => "ext4+FUSE",
            AccessStack::Ext4Olfs => "ext4+OLFS",
            AccessStack::Samba => "samba",
            AccessStack::SambaFuse => "samba+FUSE",
            AccessStack::SambaOlfs => "samba+OLFS",
        }
    }

    /// Whether clients reach this stack over the network (NAS mode).
    pub(crate) fn is_nas(self) -> bool {
        matches!(
            self,
            AccessStack::Samba | AccessStack::SambaFuse | AccessStack::SambaOlfs
        )
    }

    /// The stack's throughput factors relative to the ext4 baseline
    /// `(read, write)`.
    pub(crate) fn factors(self) -> (f64, f64) {
        match self {
            AccessStack::Ext4 => (1.0, 1.0),
            AccessStack::Ext4Fuse => (params::FUSE_READ_FACTOR, params::FUSE_WRITE_FACTOR),
            AccessStack::Ext4Olfs => (
                params::FUSE_READ_FACTOR * params::OLFS_READ_FACTOR,
                params::FUSE_WRITE_FACTOR * params::OLFS_WRITE_FACTOR,
            ),
            AccessStack::Samba => (params::SAMBA_READ_FACTOR, params::SAMBA_WRITE_FACTOR),
            AccessStack::SambaFuse => (
                params::SAMBA_READ_FACTOR * params::FUSE_UNDER_SAMBA_READ,
                params::SAMBA_WRITE_FACTOR * params::FUSE_UNDER_SAMBA_WRITE,
            ),
            AccessStack::SambaOlfs => (
                params::SAMBA_READ_FACTOR
                    * params::FUSE_UNDER_SAMBA_READ
                    * params::OLFS_UNDER_SAMBA_READ,
                params::SAMBA_WRITE_FACTOR
                    * params::FUSE_UNDER_SAMBA_WRITE
                    * params::OLFS_UNDER_SAMBA_WRITE,
            ),
        }
    }

    /// Streaming throughput over a given ext4 baseline, capped by the
    /// client network for NAS stacks.
    pub fn throughput(
        self,
        baseline_read: Bandwidth,
        baseline_write: Bandwidth,
    ) -> StackThroughput {
        let (fr, fw) = self.factors();
        let mut read = baseline_read.scale(fr);
        let mut write = baseline_write.scale(fw);
        if self.is_nas() {
            let net = params::network_10gbe();
            read = read.min(net);
            write = write.min(net);
        }
        StackThroughput { read, write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> (Bandwidth, Bandwidth) {
        // The prototype's ext4-on-RAID-5 baseline (§5.3).
        (
            Bandwidth::from_mb_per_sec(1204.0),
            Bandwidth::from_mb_per_sec(1002.0),
        )
    }

    #[test]
    fn figure6_samba_olfs_hits_measured_throughput() {
        let (r, w) = baseline();
        let t = AccessStack::SambaOlfs.throughput(r, w);
        // §5.3: "OLFS can provide throughput of 236.1 MB/s for read and
        // 323.6 MB/s for write".
        assert!(
            (t.read.mb_per_sec() - 236.1).abs() < 8.0,
            "samba+OLFS read = {} (paper: 236.1 MB/s)",
            t.read
        );
        assert!(
            (t.write.mb_per_sec() - 323.6).abs() < 8.0,
            "samba+OLFS write = {} (paper: 323.6 MB/s)",
            t.write
        );
    }

    #[test]
    fn figure6_normalized_factors() {
        let cases = [
            (AccessStack::Ext4Fuse, 0.759, 0.482),
            (AccessStack::Ext4Olfs, 0.540, 0.433),
            (AccessStack::Samba, 0.311, 0.320),
        ];
        for (stack, read, write) in cases {
            let (fr, fw) = stack.factors();
            assert!(
                (fr - read).abs() < 0.01,
                "{}: read {fr} vs {read}",
                stack.name()
            );
            assert!(
                (fw - write).abs() < 0.01,
                "{}: write {fw} vs {write}",
                stack.name()
            );
        }
    }

    #[test]
    fn figure6_ordering_holds() {
        // Read bars descend: ext4 > FUSE > OLFS > samba > samba+FUSE >
        // samba+OLFS (Figure 6's left cluster).
        let reads: Vec<f64> = AccessStack::all().iter().map(|s| s.factors().0).collect();
        for pair in reads.windows(2) {
            assert!(
                pair[0] > pair[1],
                "read factors must strictly descend: {reads:?}"
            );
        }
        // Writes: samba+OLFS ≈ samba (network-bound), both far below
        // ext4+FUSE.
        let (_, w_samba) = AccessStack::Samba.factors();
        let (_, w_so) = AccessStack::SambaOlfs.factors();
        assert!((w_samba - w_so).abs() < 0.02);
    }

    #[test]
    fn nas_stacks_are_network_capped() {
        let big = Bandwidth::from_mb_per_sec(100_000.0);
        let t = AccessStack::Samba.throughput(big, big);
        assert!(t.read <= params::network_10gbe());
        let local = AccessStack::Ext4.throughput(big, big);
        assert_eq!(local.read, big);
    }

    #[test]
    fn names_and_membership() {
        assert_eq!(AccessStack::SambaOlfs.name(), "samba+OLFS");
        assert!(AccessStack::SambaFuse.is_nas());
        assert!(!AccessStack::Ext4Olfs.is_nas());
        assert_eq!(AccessStack::all().len(), 6);
    }
}
