//! Whole-rack failure and the re-replication drill.
//!
//! The paper treats the rack as the unit of growth (§6); the cluster
//! treats it as the unit of failure too. When a rack dies, every archive
//! group it held must be brought back to full replication from the
//! surviving replicas, and the dead rack's namespace is audited from its
//! guardian MV snapshot so the operator knows exactly what was at risk.
//!
//! The drill models the operational runbook: fail the rack, restore its
//! namespace from a guardian, copy each affected group from a survivor
//! onto a fresh rendezvous-chosen rack, then verify every affected file
//! is readable again. With replication >= 2 a single rack failure loses
//! nothing; with replication 1 the drill reports the exact loss.

use crate::error::ClusterError;
use crate::placement::{self, RackId};
use crate::router::Cluster;
use ros_cas::{content_digests, verify_payload, Digest};
use ros_sim::SimDuration;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};

/// Outcome of a rack-failure re-replication drill.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DrillReport {
    /// The rack that failed.
    pub failed: u32,
    /// Guardian rack that supplied the dead rack's MV snapshot, if any.
    pub namespace_source: Option<u32>,
    /// Files recorded in the restored namespace audit.
    pub namespace_files: usize,
    /// Groups that were re-replicated onto a fresh rack.
    pub groups_relocated: usize,
    /// Groups left below the replication factor (no spare rack with
    /// capacity); their files are still readable from survivors.
    pub groups_degraded: usize,
    /// Files copied survivor -> fresh rack.
    pub files_recovered: usize,
    /// Files with no surviving replica (0 when replication >= 2).
    pub files_lost: usize,
    /// Copied files that read back *bit-exact* through the normal read
    /// path after the drill (CAS content-digest match against the
    /// survivor copy, digests computed on the data plane).
    pub files_verified: usize,
    /// Payload bytes copied between racks.
    pub bytes_moved: u64,
    /// Cluster time from drill start to full recovery (makespan; racks
    /// copy in parallel).
    pub recovery_time: SimDuration,
}

/// One group the dead rack held: key, current targets, member files
/// with their sizes.
type AffectedGroup = (String, Vec<RackId>, Vec<(String, u64)>);

impl Cluster {
    /// Marks rack `id` failed: its clock freezes and the router stops
    /// offering it reads, writes, or guardian duty.
    pub fn fail_rack(&mut self, id: u32) -> Result<(), ClusterError> {
        let idx = self.rack_index(id)?;
        if !self.racks[idx].is_alive() {
            return Err(ClusterError::RackDown(id));
        }
        self.racks[idx].fail();
        Ok(())
    }

    /// Runs the re-replication drill for an already-failed rack: audit
    /// its namespace from a guardian, copy every group it held from a
    /// survivor onto a fresh rack, and verify the affected files read
    /// back.
    pub fn rereplicate_after_failure(&mut self, failed: u32) -> Result<DrillReport, ClusterError> {
        let fidx = self.rack_index(failed)?;
        if self.racks[fidx].is_alive() {
            return Err(ClusterError::Internal(format!(
                "rack {failed} is still alive; fail it before the drill"
            )));
        }
        let start = self.now();

        // 1. Namespace audit from the guardian copy (what did we lose?).
        let (namespace_source, namespace_files) = match self.recover_namespace(failed) {
            Ok((mv, guardian)) => (Some(guardian.0), mv.file_count()),
            Err(ClusterError::NoGuardianSnapshot(_)) => (None, 0),
            Err(e) => return Err(e),
        };

        // 2. Collect the groups the dead rack held.
        let dead = RackId(failed);
        let affected: Vec<AffectedGroup> = self
            .groups
            .iter()
            .filter(|(_, g)| g.targets.contains(&dead))
            .map(|(k, g)| {
                let files = g.files.iter().map(|(p, s)| (p.clone(), *s)).collect();
                (k.clone(), g.targets.clone(), files)
            })
            .collect();

        let mut groups_relocated = 0;
        let mut groups_degraded = 0;
        let mut files_recovered = 0;
        let mut files_lost = 0;
        let mut bytes_moved = 0u64;
        let mut new_targets: Vec<(String, Vec<RackId>)> = Vec::new();
        let mut verify_list: Vec<(String, Digest)> = Vec::new();
        // Every rack is built from the one `cfg.rack` template, so the
        // drilled rack's plane is the federation's `data_plane_threads`.
        let plane = self.racks[fidx].ros().data_plane().clone();

        for (key, targets, files) in affected {
            let survivors: Vec<RackId> = targets
                .iter()
                .copied()
                .filter(|r| *r != dead && self.racks[r.0 as usize].is_alive())
                .collect();
            if survivors.is_empty() {
                files_lost += files.len();
                new_targets.push((key, survivors));
                continue;
            }
            let group_bytes: u64 = files.iter().map(|(_, s)| *s).sum();
            let candidates: Vec<(RackId, u64)> = self
                .racks
                .iter()
                .filter(|r| r.is_alive() && !survivors.contains(&r.id()))
                .map(|r| (r.id(), r.free_bytes()))
                .collect();
            let fresh = placement::select_targets(&key, &candidates, group_bytes, 1)
                .first()
                .copied();
            let Some(fresh) = fresh else {
                groups_degraded += 1;
                new_targets.push((key, survivors));
                continue;
            };
            // Pull the group's files from the survivors first (reads
            // advance only the survivor racks' clocks, in file order).
            let mut copies: Vec<(String, UdfPath, bytes::Bytes)> = Vec::with_capacity(files.len());
            for (path_str, _size) in &files {
                let path: UdfPath = path_str.parse().map_err(|_| {
                    ClusterError::Internal(format!("tracked path invalid: {path_str}"))
                })?;
                let mut data = None;
                for s in &survivors {
                    if let Ok(report) = self.racks[s.0 as usize].ros_mut().read_file(&path) {
                        data = Some(report.data);
                        break;
                    }
                }
                let Some(data) = data else {
                    files_lost += 1;
                    continue;
                };
                copies.push((path_str.clone(), path, data));
            }
            // Digest the survivor copies as one batch on the data plane;
            // the verify pass below re-reads each file and compares
            // bit-exact.
            let payloads: Vec<&[u8]> = copies.iter().map(|(_, _, data)| data.as_ref()).collect();
            let digests = content_digests(&payloads, &plane);
            for ((path_str, path, data), digest) in copies.into_iter().zip(digests) {
                let len = data.len() as u64;
                let tidx = self.rack_index(fresh.0)?;
                self.racks[tidx]
                    .ros_mut()
                    .write_file(&path, data)
                    .map_err(ClusterError::on(fresh.0))?;
                self.racks[tidx].note_stored(len);
                bytes_moved = bytes_moved.saturating_add(len);
                files_recovered += 1;
                verify_list.push((path_str, digest));
            }
            groups_relocated += 1;
            let mut updated = survivors;
            updated.push(fresh);
            new_targets.push((key, updated));
        }

        for (key, targets) in new_targets {
            if let Some(g) = self.groups.get_mut(&key) {
                g.targets = targets;
            }
        }

        // 3. Verify the copied files through the normal read path,
        //    bit-exact against the survivor copy's digest.
        let mut files_verified = 0;
        for (path_str, digest) in &verify_list {
            if let Ok(path) = path_str.parse::<UdfPath>() {
                if let Ok(report) = self.read_file(&path) {
                    if verify_payload(digest, &report.data, &plane).is_ok() {
                        files_verified += 1;
                    }
                }
            }
        }

        Ok(DrillReport {
            failed,
            namespace_source,
            namespace_files,
            groups_relocated,
            groups_degraded,
            files_recovered,
            files_lost,
            files_verified,
            bytes_moved,
            recovery_time: self.elapsed_since(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn loaded_cluster(racks: usize) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::tiny(racks)).unwrap();
        for g in 0..6 {
            for i in 0..3 {
                c.write_file(&p(&format!("/load/g{g}/f{i}")), vec![g as u8; 1024])
                    .unwrap();
            }
        }
        c
    }

    #[test]
    fn drill_restores_replication_with_zero_loss() {
        let mut c = loaded_cluster(4);
        c.replicate_mv_snapshots(false).unwrap();
        c.fail_rack(1).unwrap();
        let report = c.rereplicate_after_failure(1).unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.files_lost, 0, "replication 2 survives one rack");
        assert_eq!(report.files_verified, report.files_recovered);
        assert!(report.recovery_time > SimDuration::ZERO);
        // Every group is back at full replication on alive racks.
        for g in c.groups.values() {
            assert_eq!(g.targets.len(), 2);
            assert!(g.targets.iter().all(|r| c.racks[r.0 as usize].is_alive()));
        }
    }

    #[test]
    fn drill_audits_namespace_from_guardian() {
        let mut c = loaded_cluster(4);
        c.replicate_mv_snapshots(false).unwrap();
        c.fail_rack(2).unwrap();
        let report = c.rereplicate_after_failure(2).unwrap();
        assert!(report.namespace_source.is_some());
        assert!(report.namespace_files > 0);
    }

    #[test]
    fn replication_one_reports_exact_loss() {
        let mut cfg = ClusterConfig::tiny(3);
        cfg.replication = 1;
        let mut c = Cluster::new(cfg).unwrap();
        for g in 0..9 {
            c.write_file(&p(&format!("/solo/g{g}/f")), vec![7u8; 256])
                .unwrap();
        }
        c.fail_rack(0).unwrap();
        let held: usize = c
            .groups
            .values()
            .filter(|g| g.targets == vec![RackId(0)])
            .map(|g| g.files.len())
            .sum();
        let report = c.rereplicate_after_failure(0).unwrap();
        assert_eq!(report.files_lost, held);
        assert_eq!(report.files_recovered, 0, "nothing to copy from");
    }

    #[test]
    fn drill_requires_a_failed_rack() {
        let mut c = loaded_cluster(2);
        assert!(matches!(
            c.rereplicate_after_failure(0).unwrap_err(),
            ClusterError::Internal(_)
        ));
        c.fail_rack(0).unwrap();
        assert!(matches!(
            c.fail_rack(0).unwrap_err(),
            ClusterError::RackDown(0)
        ));
        assert!(matches!(
            c.fail_rack(9).unwrap_err(),
            ClusterError::UnknownRack(9)
        ));
    }

    #[test]
    fn two_rack_cluster_degrades_but_keeps_data() {
        let mut c = loaded_cluster(2);
        c.fail_rack(1).unwrap();
        let report = c.rereplicate_after_failure(1).unwrap();
        assert_eq!(report.files_lost, 0);
        // Nowhere to re-replicate: every group ran on both racks.
        assert_eq!(report.groups_relocated, 0);
        assert!(report.groups_degraded > 0);
        // Data still serves from the survivor.
        let r = c.read_file(&p("/load/g0/f0")).unwrap();
        assert_eq!(r.rack, 0);
        assert_eq!(r.data.len(), 1024);
    }
}
