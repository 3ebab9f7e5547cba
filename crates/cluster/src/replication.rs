//! Cross-rack MV snapshot replication (§4.2 carried across racks).
//!
//! Inside one rack, OLFS already protects the metadata volume by burning
//! periodic snapshots to disc ([`ros_olfs::Ros::burn_mv_snapshot`]).
//! That survives a server crash but not the loss of the whole rack. The
//! cluster therefore also ships each rack's MV snapshot text to
//! `mv_guardians` *other* racks — the guardians are chosen by rendezvous
//! ranking on a per-rack key, and the copy travels through the guardian's
//! ordinary write path, so it is itself buffered, packed and burned like
//! any archive data.
//!
//! Recovery reads the newest guardian copy back and rebuilds a
//! [`MetadataVolume`] from it; [`ros_olfs::Ros::recover`] then installs
//! it on a rack that lost its MV but kept its media.

use crate::error::ClusterError;
use crate::placement::{self, RackId};
use crate::router::Cluster;
use bytes::Bytes;
use ros_olfs::mv::MetadataVolume;
use ros_udf::UdfPath;

/// Name of the directory under the root of each guardian rack holding
/// foreign MV snapshot copies. Lives outside user namespaces, like the
/// rack-local `/.mv-snapshots`.
pub(crate) const MV_REPLICA_DIR: &str = ".mv-replicas";

impl Cluster {
    /// Runs one MV replication round: every alive rack snapshots its
    /// namespace and ships the snapshot text to its guardian racks.
    /// With `burn_local` set, each rack also burns the snapshot to its
    /// own discs first (the single-rack §4.2 path).
    ///
    /// Guardians are the top `mv_guardians` alive racks by rendezvous
    /// rank on the key `mv:<rack>`, excluding the owner. Only the newest
    /// guardian copy is tracked for recovery. Returns the round's
    /// sequence number, which names its copies (`seq-{seq:06}`).
    pub fn replicate_mv_snapshots(&mut self, burn_local: bool) -> Result<u64, ClusterError> {
        self.mv_seq = self.mv_seq.wrapping_add(1);
        let seq = self.mv_seq;
        let alive: Vec<RackId> = self
            .racks
            .iter()
            .filter(|r| r.is_alive())
            .map(|r| r.id())
            .collect();
        for owner in &alive {
            let idx = self.rack_index(owner.0)?;
            if burn_local {
                self.racks[idx]
                    .ros_mut()
                    .burn_mv_snapshot()
                    .map_err(ClusterError::on(owner.0))?;
            }
            let text = self.racks[idx].ros().export_namespace();
            let guardians: Vec<RackId> = placement::rank(&format!("mv:{}", owner.0), &alive)
                .into_iter()
                .filter(|g| g != owner)
                .take(self.cfg.mv_guardians)
                .collect();
            if guardians.is_empty() {
                continue;
            }
            let payload = Bytes::from(text.into_bytes());
            let path = UdfPath::root()
                .join(MV_REPLICA_DIR)
                .join(&format!("rack-{:03}", owner.0))
                .join(&format!("seq-{seq:06}"));
            let mut placed = Vec::new();
            for g in guardians {
                let gidx = self.rack_index(g.0)?;
                let rack = &mut self.racks[gidx];
                rack.ros_mut()
                    .write_file(&path, payload.clone())
                    .map_err(ClusterError::on(g.0))?;
                rack.note_stored(payload.len() as u64);
                placed.push((g, path.clone()));
            }
            self.mv_guardian_paths.insert(owner.0, placed);
        }
        Ok(seq)
    }

    /// Recovers rack `owner`'s namespace from the newest guardian copy.
    /// Returns the rebuilt volume and the guardian that served it.
    ///
    /// Works whether or not `owner` is alive — this is the read path the
    /// failure drill uses to audit what a dead rack held.
    pub(crate) fn recover_namespace(
        &mut self,
        owner: u32,
    ) -> Result<(MetadataVolume, RackId), ClusterError> {
        self.rack_index(owner)?;
        let entries = self
            .mv_guardian_paths
            .get(&owner)
            .cloned()
            .ok_or(ClusterError::NoGuardianSnapshot(owner))?;
        for (guardian, path) in entries {
            let gidx = self.rack_index(guardian.0)?;
            if !self.racks[gidx].is_alive() {
                continue;
            }
            let report = match self.racks[gidx].ros_mut().read_file(&path) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let text = String::from_utf8_lossy(&report.data);
            let mv = MetadataVolume::restore(&text).map_err(ClusterError::on(guardian.0))?;
            return Ok((mv, guardian));
        }
        Err(ClusterError::NoGuardianSnapshot(owner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ros_olfs::recovery::{MvSource, MV_SNAPSHOT_DIR};

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    /// Round `seq`'s guardian copies, found where they landed: under
    /// each rack's replica directory, as `(guardian, owner, bytes)`.
    fn copies_landed(c: &mut Cluster, seq: u64) -> Vec<(u32, String, u64)> {
        let replicas = UdfPath::root().join(MV_REPLICA_DIR);
        let copy = format!("seq-{seq:06}");
        let mut landed = Vec::new();
        for rack in &mut c.racks {
            let guardian = rack.id().0;
            let Ok(owners) = rack.ros_mut().readdir(&replicas) else {
                continue;
            };
            for (owner, _) in owners {
                let path = replicas.join(&owner).join(&copy);
                if let Ok((bytes, _, _)) = rack.ros_mut().stat(&path) {
                    landed.push((guardian, owner, bytes));
                }
            }
        }
        landed
    }

    #[test]
    fn replication_round_ships_to_guardians() {
        let mut c = Cluster::new(ClusterConfig::tiny(3)).unwrap();
        c.write_file(&p("/a/f"), vec![1u8; 256]).unwrap();
        let seq = c.replicate_mv_snapshots(false).unwrap();
        assert_eq!(seq, 1);
        // tiny() keeps one guardian per rack: each of the three racks'
        // snapshots landed once, on another rack, and is not empty.
        let landed = copies_landed(&mut c, seq);
        let mut owners: Vec<&str> = landed.iter().map(|(_, owner, _)| owner.as_str()).collect();
        owners.sort_unstable();
        assert_eq!(owners, ["rack-000", "rack-001", "rack-002"], "{landed:?}");
        for (guardian, owner, bytes) in &landed {
            assert_ne!(format!("rack-{guardian:03}"), *owner);
            assert!(*bytes > 0, "{owner}'s copy is empty");
        }
        // No local burn was asked for.
        let snapshots: UdfPath = MV_SNAPSHOT_DIR.parse().unwrap();
        for rack in &mut c.racks {
            assert!(rack.ros_mut().readdir(&snapshots).is_err());
        }
    }

    #[test]
    fn guardian_copy_rebuilds_the_namespace() {
        let mut c = Cluster::new(ClusterConfig::tiny(3)).unwrap();
        for i in 0..5 {
            c.write_file(&p(&format!("/docs/f{i}")), vec![i as u8; 128])
                .unwrap();
        }
        c.replicate_mv_snapshots(false).unwrap();
        // Find a rack that holds some of /docs.
        let owner = c.targets_of(&p("/docs/f0")).unwrap()[0];
        let (mv, guardian) = c.recover_namespace(owner).unwrap();
        assert_ne!(guardian.0, owner, "guardian must be another rack");
        assert!(mv.file_count() >= 5, "namespace carries the files");
    }

    #[test]
    fn mv_loss_recovery_adopts_and_serves_reads() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/keep/f"), vec![9u8; 512]).unwrap();
        c.replicate_mv_snapshots(true).unwrap();
        let owner = c.targets_of(&p("/keep/f")).unwrap()[0];
        // Simulate MV loss on the owner: blank its namespace, then
        // recover from the guardian.
        let blank = MetadataVolume::restore(&MetadataVolume::default().snapshot()).unwrap();
        c.racks[owner as usize]
            .ros_mut()
            .recover(MvSource::Volume(blank))
            .unwrap();
        let (mv, _guardian) = c.recover_namespace(owner).unwrap();
        let report = c.racks[owner as usize]
            .ros_mut()
            .recover(MvSource::Volume(mv))
            .unwrap();
        assert!(report.files_recovered >= 1);
        let r = c.read_file(&p("/keep/f")).unwrap();
        assert_eq!(r.data.as_ref(), &[9u8; 512][..]);
    }

    #[test]
    fn missing_guardian_is_a_typed_error() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        assert!(matches!(
            c.recover_namespace(0).unwrap_err(),
            ClusterError::NoGuardianSnapshot(0)
        ));
    }

    #[test]
    fn single_rack_cluster_has_no_guardians() {
        let mut c = Cluster::new(ClusterConfig::tiny(1)).unwrap();
        c.write_file(&p("/solo/f"), vec![0u8; 64]).unwrap();
        let seq = c.replicate_mv_snapshots(false).unwrap();
        assert_eq!(copies_landed(&mut c, seq), []);
    }
}
