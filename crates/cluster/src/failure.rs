//! Whole-rack failure and the re-replication drill.
//!
//! The paper treats the rack as the unit of growth (§6); the cluster
//! treats it as the unit of failure too. When a rack dies, every archive
//! group it held must be brought back to full replication from the
//! surviving replicas, and the dead rack's namespace is audited from its
//! guardian MV snapshot so the operator knows exactly what was at risk.
//!
//! The drill models the operational runbook: fail the rack, restore its
//! namespace from a guardian, then copy each affected file from a
//! survivor onto a fresh rendezvous-chosen rack and read it back there
//! (`Cluster::heal_file`). With replication >= 2 a single rack failure
//! loses nothing; with replication 1 the drill reports the exact loss.

use crate::error::ClusterError;
use crate::placement::{self, RackId};
use crate::router::Cluster;
use ros_sim::SimDuration;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// Copied files that read back from the fresh rack byte for byte
    /// equal to the bytes copied onto it.
    pub files_verified: usize,
    /// Payload bytes copied between racks.
    pub bytes_moved: u64,
    /// Cluster time from drill start to full recovery (makespan; racks
    /// copy in parallel).
    pub recovery_time: SimDuration,
}

/// One group the dead rack held: key, current targets, member files
/// with their sizes.
type AffectedGroup = (UdfPath, Vec<RackId>, BTreeMap<UdfPath, u64>);

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

    /// The one way back from a replica: reads `path` from the first
    /// alive rack in `holders` (placement order) other than `onto`,
    /// writes the bytes onto `onto` and reads them back from `onto`.
    /// Returns the bytes copied and whether the read-back equals them
    /// byte for byte, or `None` when no holder could serve the file.
    pub(crate) fn heal_file(
        &mut self,
        path: &UdfPath,
        holders: &[RackId],
        onto: RackId,
    ) -> Result<Option<(u64, bool)>, ClusterError> {
        let copied = holders.iter().filter(|r| **r != onto).find_map(|r| {
            let rack = &mut self.racks[r.0 as usize];
            if !rack.is_alive() {
                return None;
            }
            rack.ros_mut().read_file(path).ok()
        });
        let Some(copied) = copied else {
            return Ok(None);
        };
        let len = copied.data.len() as u64;
        let idx = self.rack_index(onto.0)?;
        let rack = &mut self.racks[idx];
        rack.ros_mut()
            .write_file(path, copied.data.clone())
            .map_err(ClusterError::on(onto.0))?;
        rack.note_stored(len);
        let back = rack.ros_mut().read_file(path);
        Ok(Some((len, back.is_ok_and(|b| b.data == copied.data))))
    }

    /// Runs the re-replication drill for an already-failed rack: audit
    /// its namespace from a guardian, then heal every file of every
    /// group it held from a survivor onto a fresh rack.
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
            .map(|(k, g)| (k.clone(), g.targets.clone(), g.files.clone()))
            .collect();

        // 3. Heal each group's files onto a fresh rack (reads advance
        //    only the survivors' clocks, writes and read-backs only the
        //    fresh rack's, in file order).
        let mut report = DrillReport {
            failed,
            namespace_source,
            namespace_files,
            groups_relocated: 0,
            groups_degraded: 0,
            files_recovered: 0,
            files_lost: 0,
            files_verified: 0,
            bytes_moved: 0,
            recovery_time: SimDuration::ZERO,
        };
        for (key, targets, files) in affected {
            let mut survivors: Vec<RackId> = targets
                .into_iter()
                .filter(|r| *r != dead && self.racks[r.0 as usize].is_alive())
                .collect();
            let candidates: Vec<(RackId, u64)> = self
                .racks
                .iter()
                .filter(|r| r.is_alive() && !survivors.contains(&r.id()))
                .map(|r| (r.id(), r.free_bytes()))
                .collect();
            let group_bytes = files.values().sum();
            let fresh = placement::select_targets(key.as_str(), &candidates, group_bytes, 1);
            if survivors.is_empty() {
                report.files_lost += files.len();
            } else if let Some(&fresh) = fresh.first() {
                for path in files.keys() {
                    match self.heal_file(path, &survivors, fresh)? {
                        Some((len, exact)) => {
                            report.bytes_moved = report.bytes_moved.saturating_add(len);
                            report.files_recovered += 1;
                            report.files_verified += usize::from(exact);
                        }
                        None => report.files_lost += 1,
                    }
                }
                report.groups_relocated += 1;
                survivors.push(fresh);
            } else {
                report.groups_degraded += 1;
            }
            if let Some(g) = self.groups.get_mut(&key) {
                g.targets = survivors;
            }
        }
        report.recovery_time = self.elapsed_since(start);
        Ok(report)
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
    fn the_drill_reads_each_copy_back_where_it_landed() {
        let mut c = loaded_cluster(4);
        let dead = RackId(1);
        let held: Vec<UdfPath> = c
            .groups
            .iter()
            .filter(|(_, g)| g.targets.contains(&dead))
            .map(|(key, _)| key.clone())
            .collect();
        let reads = |c: &Cluster| -> Vec<u64> {
            c.racks.iter().map(|r| r.ros().counters().reads).collect()
        };
        let before = reads(&c);
        c.fail_rack(dead.0).unwrap();
        let report = c.rereplicate_after_failure(dead.0).unwrap();
        let rose: Vec<u64> = reads(&c).iter().zip(&before).map(|(a, b)| a - b).collect();
        // Each relocated group's first survivor sources every file once,
        // and the fresh rack the drill appended reads every copy back
        // once. No rack reads anything else.
        let mut expect = vec![0u64; c.racks.len()];
        for key in &held {
            let g = &c.groups[key];
            let (source, fresh) = (g.targets[0], *g.targets.last().unwrap());
            assert_ne!(source, fresh, "{key} was relocated");
            expect[source.0 as usize] += g.files.len() as u64;
            expect[fresh.0 as usize] += g.files.len() as u64;
        }
        assert_eq!(rose, expect);
        assert_eq!(report.files_recovered, 9);
        assert_eq!(report.files_verified, report.files_recovered);
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
        assert_eq!(r.data.len(), 1024);
    }
}
