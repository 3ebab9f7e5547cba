//! Cluster-level configuration.

use crate::error::ClusterError;
use ros_olfs::RosConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a multi-rack cluster.
///
/// Each member rack is an independent [`ros_olfs::Ros`] built from the
/// `rack` template with a distinct `rack_id` and a seed derived from the
/// cluster seed, so member behaviour is deterministic but decorrelated.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of member racks.
    pub(crate) racks: usize,
    /// Data replication factor: how many racks hold each archive group.
    /// At 2 or more, whole-rack failure loses no data.
    pub replication: usize,
    /// How many *other* racks hold a guardian copy of each rack's MV
    /// snapshot text (the §4.2 snapshot shipped cross-rack). 0 disables
    /// cross-rack MV guardianship.
    pub(crate) mv_guardians: usize,
    /// Template configuration for every member rack; `rack_id` and
    /// `seed` are overridden per member.
    pub rack: RosConfig,
    /// Cluster-level RNG seed; member rack seeds are derived from it.
    pub(crate) seed: u64,
}

impl ClusterConfig {
    /// A scaled-down cluster for tests and examples: `racks` tiny racks,
    /// replication 2 (capped at the rack count), one MV guardian.
    pub fn tiny(racks: usize) -> Self {
        ClusterConfig {
            racks,
            replication: 2.min(racks.max(1)),
            mv_guardians: 1.min(racks.saturating_sub(1)),
            rack: RosConfig::tiny(),
            seed: 0xC1_05_7E_12,
        }
    }

    /// Validates internal consistency (including the rack template).
    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
        if self.racks == 0 {
            return Err(ClusterError::Config("need at least one rack".into()));
        }
        if self.racks > u32::MAX as usize {
            return Err(ClusterError::Config("rack count exceeds u32 ids".into()));
        }
        if self.replication == 0 || self.replication > self.racks {
            return Err(ClusterError::Config(format!(
                "replication {} must be in 1..={} (rack count)",
                self.replication, self.racks
            )));
        }
        if self.mv_guardians >= self.racks {
            return Err(ClusterError::Config(format!(
                "mv_guardians {} must leave the owner out of its own guardian set \
                 (racks = {})",
                self.mv_guardians, self.racks
            )));
        }
        self.rack
            .validate()
            .map_err(|e| ClusterError::Config(format!("rack template: {e}")))?;
        Ok(())
    }

    /// The `RosConfig` for member rack `id`: template plus per-member
    /// identity and a decorrelated seed.
    pub(crate) fn rack_config(&self, id: u32) -> RosConfig {
        let mut cfg = self.rack.clone();
        cfg.rack_id = id;
        cfg.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(id).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_validates_at_all_scales() {
        for racks in 1..=8 {
            let cfg = ClusterConfig::tiny(racks);
            cfg.validate().unwrap();
            assert!(cfg.replication <= racks);
            assert!(cfg.mv_guardians < racks);
        }
    }

    #[test]
    fn validation_catches_mistakes() {
        let mut c = ClusterConfig::tiny(2);
        c.racks = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::tiny(2);
        c.replication = 3;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::tiny(2);
        c.mv_guardians = 2;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::tiny(2);
        c.rack.open_buckets = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn member_configs_are_distinct_and_deterministic() {
        let cfg = ClusterConfig::tiny(4);
        let a = cfg.rack_config(0);
        let b = cfg.rack_config(1);
        assert_eq!(a.rack_id, 0);
        assert_eq!(b.rack_id, 1);
        assert_ne!(a.seed, b.seed, "member seeds must be decorrelated");
        assert_eq!(cfg.rack_config(1), cfg.rack_config(1));
    }
}
