//! Federation-wide audit sweep with replica escalation (DESIGN.md §16).
//!
//! Each rack's LOCKSS-style sampled audit pass heals latent rot from its
//! own disc-array parity. When the rot exceeds the local schema's
//! tolerance the rack reports the images unrepairable — and the cluster
//! is the next rung of the ladder: the affected files are re-read from a
//! healthy replica rack, rewritten onto the damaged member, and verified
//! bit-exact through the normal read path. Only files with no healthy
//! source *anywhere* are reported lost.
//!
//! A sweep samples every rack at its start: each alive rack's pass is
//! begun ([`ros_olfs::Ros::audit_begin`]), all their copies are hashed
//! as one digest batch, and only then is each pass ended and escalated,
//! rack by rack. A pass verifies and charges what it gathered, so a
//! later rack read as a replica by an earlier rack's escalation still
//! audits the copies it held at the start.

use crate::error::ClusterError;
use crate::router::Cluster;
use ros_cas::{content_digest, verify_payload, verify_payloads};
use ros_sim::SimDuration;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Outcome of one cluster-wide audit sweep ([`Cluster::audit_all`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterAuditReport {
    /// Images digest-verified across all alive racks.
    pub sampled: usize,
    /// Sampled images whose bytes matched their recorded digest.
    pub verified: usize,
    /// Sampled images with latent rot (digest mismatch, no I/O error).
    pub rotted: usize,
    /// Rotted images healed locally from disc-array parity.
    pub repaired_parity: usize,
    /// Files re-fetched from a replica rack after local redundancy was
    /// exhausted, rewritten and digest-verified.
    pub repaired_replica: usize,
    /// Files with no healthy copy on any alive rack — actual data loss.
    pub lost: Vec<String>,
    /// Cluster time the sweep consumed (makespan across racks).
    pub elapsed: SimDuration,
}

impl Cluster {
    /// Moves every alive rack to cold storage: lingering buffer copies
    /// of burned images are evicted and loaded trays are returned to
    /// the roller, so subsequent reads and audits exercise the media
    /// path rather than a warm cache. Returns the number of racks
    /// cold-stored.
    pub fn cold_store_all(&mut self) -> usize {
        let mut n = 0;
        for rack in &mut self.racks {
            if !rack.is_alive() {
                continue;
            }
            rack.ros_mut().evict_all_burned_copies();
            if rack.ros_mut().unload_all_bays().is_ok() {
                n += 1;
            }
        }
        n
    }

    /// Runs one sampled-audit pass on every alive rack (up to `sample`
    /// images each), then escalates whatever local parity could not
    /// repair to the replica tier: the affected files are re-read from
    /// a healthy replica, rewritten onto the damaged rack, and the
    /// rewrite is verified bit-exact against the replica's digest
    /// through the normal read path.
    ///
    /// Every pass is begun before any is ended, and their copies are
    /// verified as one batch on the first alive rack's data plane (the
    /// thread count never changes a digest).
    pub fn audit_all(&mut self, sample: usize) -> Result<ClusterAuditReport, ClusterError> {
        let start = self.now();
        let mut report = ClusterAuditReport::default();

        let alive: Vec<usize> = (0..self.racks.len())
            .filter(|i| self.racks[*i].is_alive())
            .collect();
        let (mut passes, mut copies) = (Vec::new(), Vec::new());
        for &idx in &alive {
            let pass = self.racks[idx].ros_mut().audit_begin(sample);
            let mine = pass.copies();
            passes.push((idx, pass, mine.len()));
            copies.extend(mine);
        }
        let mut proofs = match alive.first() {
            Some(&first) => verify_payloads(copies, &self.racks[first].ros().data_plane()),
            None => Vec::new(),
        }
        .into_iter();
        for (idx, pass, n_copies) in passes {
            let rack_id = self.racks[idx].id();
            let plane = self.racks[idx].ros().data_plane();
            let mine = proofs.by_ref().take(n_copies).collect();
            let local = self.racks[idx].ros_mut().audit_end(pass, mine);
            report.sampled += local.sampled;
            report.verified += local.verified;
            report.rotted += local.rotted.len();
            report.repaired_parity += local.repaired.len();

            // Escalate: map unrepairable images to the files they hold.
            let mut paths: BTreeSet<String> = BTreeSet::new();
            for image in &local.unrepairable {
                for path in self.racks[idx].ros().paths_of_image(*image) {
                    paths.insert(path.to_string());
                }
            }
            for path_str in paths {
                let path: UdfPath = path_str.parse().map_err(|_| {
                    ClusterError::Internal(format!("tracked path invalid: {path_str}"))
                })?;
                let key = Cluster::group_key(&path);
                let sources: Vec<crate::placement::RackId> = self
                    .groups
                    .get(&key)
                    .map(|g| g.targets.clone())
                    .unwrap_or_default();
                // Read the healthy bytes from any alive replica.
                let mut data = None;
                for s in sources {
                    if s == rack_id || !self.racks[s.0 as usize].is_alive() {
                        continue;
                    }
                    if let Ok(rep) = self.racks[s.0 as usize].ros_mut().read_file(&path) {
                        data = Some(rep.data);
                        break;
                    }
                }
                let Some(data) = data else {
                    report.lost.push(path_str);
                    continue;
                };
                // Rewrite onto the damaged rack and verify bit-exact.
                let digest = content_digest(&data, &plane);
                let len = data.len() as u64;
                self.racks[idx]
                    .ros_mut()
                    .write_file(&path, data)
                    .map_err(ClusterError::on(rack_id.0))?;
                self.racks[idx].note_stored(len);
                let back = self.racks[idx]
                    .ros_mut()
                    .read_file(&path)
                    .map_err(ClusterError::on(rack_id.0))?;
                if verify_payload(&digest, &back.data, &plane).is_ok() {
                    report.repaired_replica += 1;
                } else {
                    report.lost.push(path_str);
                }
            }
        }
        report.elapsed = self.elapsed_since(start);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn ev(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        }
    }

    /// A replicated federation with archived (burned + cold) content.
    fn archived_cluster(racks: usize) -> (Cluster, Vec<(UdfPath, Vec<u8>)>) {
        let mut c = Cluster::new(ClusterConfig::tiny(racks)).unwrap();
        let mut files = Vec::new();
        for g in 0..4 {
            for i in 0..2 {
                let path = p(&format!("/audit/g{g}/f{i}"));
                let data = vec![(g * 16 + i) as u8; 60_000];
                c.write_file(&path, data.clone()).unwrap();
                files.push((path, data));
            }
        }
        c.archive_all(SimDuration::from_secs(86_400)).unwrap();
        // Send the trays back to the roller: cold storage means the
        // discs sit in the library, not in drives.
        for rack in &mut c.racks {
            rack.ros_mut().unload_all_bays().unwrap();
        }
        (c, files)
    }

    /// Every rack's simulated clock, in nanoseconds.
    fn clocks(c: &Cluster) -> Vec<u64> {
        c.racks.iter().map(|r| r.ros().now().as_nanos()).collect()
    }

    /// Strikes every burned in-tray disc of rack `rack` with
    /// `MediaRot`: one strike per disc of each used tray, so the
    /// victim selector (modulo the burned-disc count) reaches them all.
    /// Returns how many strikes landed.
    fn rot_every_disc(c: &mut Cluster, rack: usize) -> usize {
        let ros = c.racks[rack].ros_mut();
        let discs = ros.status().da_counts.1 as u64 * u64::from(ros.config().array_size());
        (0..discs)
            .filter(|&disc| {
                ros.inject_fault(&ev(FaultKind::MediaRot { disc, bytes: 4 }))
                    == InjectionOutcome::Injected
            })
            .count()
    }

    #[test]
    fn single_member_rot_heals_from_local_parity() {
        let (mut c, files) = archived_cluster(3);
        // One disc's rot on rack 0: within RAID-5 tolerance, so the
        // rack heals itself without touching its replicas.
        assert_eq!(
            c.racks[0]
                .ros_mut()
                .inject_fault(&ev(FaultKind::MediaRot { disc: 0, bytes: 4 })),
            InjectionOutcome::Injected
        );
        let report = c.audit_all(64).unwrap();
        // Field for field what the sweep reported, and where it left each
        // rack's clock, when every rack's pass hashed its own batches.
        let expect = ClusterAuditReport {
            sampled: 6,
            verified: 5,
            rotted: 1,
            repaired_parity: 1,
            repaired_replica: 0,
            lost: vec![],
            elapsed: SimDuration::from_nanos(79_705_123_721),
        };
        assert_eq!(report, expect);
        assert_eq!(
            clocks(&c),
            [241_203_634_952, 161_467_791_441, 161_501_387_452]
        );
        for (path, data) in &files {
            let r = c.read_file(path).unwrap();
            assert_eq!(r.data.as_ref(), data.as_slice());
        }
    }

    #[test]
    fn rot_beyond_parity_escalates_to_replica() {
        // The second pass loses rack 0's MV and restores it from the
        // guardian first: the engine's image -> paths view must follow
        // each adopted namespace, or nothing is escalated.
        for guardian_restore in [false, true] {
            let (mut c, files) = archived_cluster(3);
            if guardian_restore {
                c.replicate_mv_snapshots(false).unwrap();
                let held = files.iter().find_map(|(path, _)| {
                    let segs = c.racks[0].ros().image_segments(path)?;
                    Some((path.clone(), *segs.first()?))
                });
                let (path, image) = held.expect("rack 0 holds part of the namespace");
                let blank = ros_olfs::mv::MetadataVolume::default();
                c.racks[0].ros_mut().adopt_namespace(blank);
                assert!(c.racks[0].ros().paths_of_image(image).is_empty());
                c.recover_mv_via_guardian(0).unwrap();
                assert!(c.racks[0].ros().paths_of_image(image).contains(&path));
            }
            // Rot *every* burned disc on rack 0 and drop its lingering
            // buffer copies: local parity is exhausted, so the audit must
            // climb to the replica tier.
            c.racks[0].ros_mut().evict_all_burned_copies();
            assert!(rot_every_disc(&mut c, 0) >= 2);
            let report = c.audit_all(64).unwrap();
            assert!(report.rotted >= 1);
            assert!(
                report.repaired_replica >= 1,
                "replica escalation must repair: {report:?}"
            );
            assert!(report.lost.is_empty(), "replication 2 loses nothing");
            // Every file still reads back bit-exact through the router.
            for (path, data) in &files {
                let r = c.read_file(path).unwrap();
                assert_eq!(r.data.as_ref(), data.as_slice());
            }
        }
    }

    #[test]
    fn escalation_asks_replicas_for_namespace_paths_not_shadow_names() {
        let (mut c, files) = archived_cluster(3);
        // Rewrite every file once its first version is on disc: each
        // rack stores version 2 under a shadow name inside its images.
        let files: Vec<(UdfPath, Vec<u8>)> = files
            .into_iter()
            .map(|(path, data)| (path, data.iter().map(|b| b ^ 0xff).collect()))
            .collect();
        for (path, data) in &files {
            assert_eq!(c.write_file(path, data.clone()).unwrap().version, 2);
        }
        c.archive_all(SimDuration::from_secs(86_400)).unwrap();
        for rack in &mut c.racks {
            rack.ros_mut().unload_all_bays().unwrap();
        }
        c.racks[0].ros_mut().evict_all_burned_copies();
        assert!(rot_every_disc(&mut c, 0) >= 2);

        let report = c.audit_all(64).unwrap();
        assert!(report.repaired_replica >= 1, "{report:?}");
        assert!(report.lost.is_empty(), "false losses: {:?}", report.lost);
        // The re-fetched bytes landed on rack 0 itself: it serves every
        // file it holds without the router's help.
        let mut held = 0;
        for (path, data) in &files {
            if c.racks[0].ros().image_segments(path).is_some() {
                let r = c.racks[0].ros_mut().read_file(path).unwrap();
                assert!(r.data.as_ref() == data.as_slice(), "{path} on rack 0");
                held += 1;
            }
        }
        assert!(held >= 1, "rack 0 holds part of the namespace");
    }

    #[test]
    fn unreplicated_rot_is_reported_lost() {
        let mut cfg = ClusterConfig::tiny(1);
        cfg.replication = 1;
        let mut c = Cluster::new(cfg).unwrap();
        let path = p("/solo/f");
        c.write_file(&path, vec![9u8; 50_000]).unwrap();
        c.archive_all(SimDuration::from_secs(86_400)).unwrap();
        c.racks[0].ros_mut().unload_all_bays().unwrap();
        c.racks[0].ros_mut().evict_all_burned_copies();
        assert!(rot_every_disc(&mut c, 0) >= 1);
        let report = c.audit_all(64).unwrap();
        // No replica to climb to; pinned as for the sweep above.
        let expect = ClusterAuditReport {
            sampled: 2,
            verified: 0,
            rotted: 2,
            repaired_parity: 0,
            repaired_replica: 0,
            lost: vec!["/solo/f".to_string()],
            elapsed: SimDuration::from_nanos(464_844),
        };
        assert_eq!(report, expect);
        assert_eq!(clocks(&c), [161_417_288_025]);
    }

    #[test]
    fn audit_on_healthy_cluster_is_clean_and_deterministic() {
        let build = || {
            let (mut c, _) = archived_cluster(2);
            let report = c.audit_all(16).unwrap();
            (report, clocks(&c))
        };
        let (report, clocks) = build();
        // Pinned as for the sweeps above.
        let expect = ClusterAuditReport {
            sampled: 4,
            verified: 4,
            elapsed: SimDuration::from_nanos(3_805_908),
            ..ClusterAuditReport::default()
        };
        assert_eq!(report, expect);
        assert_eq!(clocks, [161_534_983_461; 2]);
        assert_eq!(build(), (report, clocks));
    }
}
