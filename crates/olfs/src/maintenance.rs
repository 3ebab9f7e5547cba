//! The Maintenance Interface (MI) — administrator operations (§4.1).
//!
//! "OLFS also offers a Maintenance Interface module (MI) to configure and
//! maintain the system by an interactive interface for administrators."
//!
//! Everything here is read-mostly introspection plus the long-running
//! care tasks: DAindex/DILindex inspection, scrubbing (§4.7's idle-time
//! sector-error checking), checkpointing system state into MV, and media
//! ageing injection for reliability drills.

use crate::dim::{DaState, GroupState, ImageInfo, ImageKind};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::{ArrayId, DiscId, ImageId};
use ros_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A point-in-time status summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemStatus {
    /// Identity of the reporting rack ([`crate::config::RosConfig::rack_id`]);
    /// 0 for a standalone deployment. Lets a cluster front end aggregate
    /// per-rack status without wrapping the type.
    pub rack_id: u32,
    /// Simulated time of the snapshot.
    pub now_nanos: u64,
    /// Files in the global namespace.
    pub files: usize,
    /// Directories in the global namespace.
    pub dirs: usize,
    /// MV bytes consumed.
    pub mv_bytes: u64,
    /// Registered images.
    pub images: usize,
    /// DAindex counts: (empty, used, failed).
    pub da_counts: (usize, usize, usize),
    /// Groups waiting to burn.
    pub burn_backlog: usize,
    /// Disk-buffer usage: (used, capacity).
    pub buffer_usage: (u64, u64),
    /// Read-cache residents.
    pub cached_images: usize,
}

/// Result of a [`Ros::verify_resident_images`] digest sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImageVerifyReport {
    /// Resident images whose payloads matched their recorded digest.
    pub verified: usize,
    /// Images whose resident bytes no longer match — candidates for
    /// re-fetch or parity repair.
    pub mismatched: Vec<ImageId>,
}

/// Result of a full-library scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Discs scanned.
    pub discs_scanned: usize,
    /// Images found with sector errors, per disc.
    pub damaged: Vec<(DiscId, Vec<ImageId>)>,
    /// Simulated time the scan consumed.
    pub elapsed: SimDuration,
}

impl Ros {
    /// Produces a status summary (the MI dashboard).
    pub fn status(&self) -> SystemStatus {
        SystemStatus {
            rack_id: self.cfg.rack_id,
            now_nanos: self.now().as_nanos(),
            files: self.mv.file_count(),
            dirs: self.mv.dir_count(),
            mv_bytes: self.mv.usage_bytes(),
            images: self.store.len(),
            da_counts: self.store.da_counts(),
            burn_backlog: self.burn_queue.len(),
            buffer_usage: self.vm.usage(self.vol_buffer).unwrap_or((0, 0)),
            cached_images: self.cache.len(),
        }
    }

    /// DAindex state of a tray, by dense slot index.
    pub fn da_state(&self, slot_index: u32) -> Option<DaState> {
        self.store.da_state(slot_index)
    }

    /// DILindex lookup: the physical location of a burned image.
    pub fn locate_image(&self, image: ImageId) -> Option<crate::dim::DiscLocation> {
        self.store.location_of(image)
    }

    /// Number of array groups in each lifecycle state:
    /// (collecting, parity-pending, ready, burning, burned).
    pub fn group_census(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.store.count_in_state(GroupState::Collecting),
            self.store.count_in_state(GroupState::ParityPending),
            self.store.count_in_state(GroupState::ReadyToBurn),
            self.store.count_in_state(GroupState::Burning),
            self.store.count_in_state(GroupState::Burned),
        )
    }

    /// Seals every non-empty open bucket into an image *without* waiting
    /// for burns (unlike [`Ros::flush`]). Returns how many were sealed.
    pub fn seal_open_buckets(&mut self) -> Result<usize, OlfsError> {
        let mut sealed = 0;
        for i in 0..self.wbm.len() {
            if self.wbm.bucket(i).is_some_and(|b| !b.is_empty()) {
                let d = self.seal_bucket(i, self.now())?;
                self.run_for(d);
                sealed += 1;
            }
        }
        Ok(sealed)
    }

    /// Drops the disk-tier copies of all burned images (simulating full
    /// cache pressure), forcing subsequent reads onto the discs. Returns
    /// how many copies were dropped.
    pub fn evict_burned_copies(&mut self) -> usize {
        let ids: Vec<ImageId> = self
            .cache
            .lru_order()
            .filter(|id| {
                self.store
                    .get(*id)
                    .map(|i| i.burned.is_some() && i.on_disk())
                    .unwrap_or(false)
            })
            .collect();
        let mut n = 0;
        for id in ids {
            if let Ok(freed) = self.store.evict_disk_copy(id) {
                let _ = self.vm.release(self.vol_buffer, freed);
                self.cache.remove(id);
                n += 1;
            }
        }
        n
    }

    /// Drops the disk-tier copies of *every* burned image — data and
    /// parity alike — modelling fully cold storage where the optical
    /// media hold the only copy. [`Ros::evict_burned_copies`] walks the
    /// read cache and therefore only sees data images; this sweep also
    /// drops the parity payloads the burn pipeline leaves in the
    /// buffer, which otherwise mask on-media rot from the audit.
    /// Returns how many copies were dropped.
    pub fn evict_all_burned_copies(&mut self) -> usize {
        let ids: Vec<ImageId> = self
            .store
            .images()
            .filter(|i| i.burned.is_some() && i.on_disk())
            .map(|i| i.id)
            .collect();
        let mut n = 0;
        for id in ids {
            if let Ok(freed) = self.store.evict_disk_copy(id) {
                let _ = self.vm.release(self.vol_buffer, freed);
                self.cache.remove(id);
                n += 1;
            }
        }
        n
    }

    /// Flips `bytes` payload bytes on every burned in-tray disc —
    /// latent rot, the counterpart of [`Ros::age_media`]'s sector
    /// errors. The flips raise no I/O error and are invisible to
    /// [`Ros::scrub`]; only an end-to-end digest audit
    /// ([`Ros::audit_sample`]) can find them. Each disc is struck once
    /// with its own id as the selector, so the drill is deterministic.
    /// Returns how many discs were rotted.
    pub fn rot_media(&mut self, bytes: u32) -> usize {
        let mut rotted = 0;
        let ids: Vec<DiscId> = (0..self.registry.len() as u64).map(DiscId).collect();
        for id in ids {
            if let Some(disc) = self.registry.disc_mut(id) {
                if !disc.is_blank() && disc.rot_bytes(id.0, bytes) > 0 {
                    rotted += 1;
                }
            }
        }
        rotted
    }

    /// Unloads every idle (non-burning) bay back to the roller, leaving
    /// all drives free. Returns the bays unloaded.
    pub fn unload_all_bays(&mut self) -> Result<usize, OlfsError> {
        let mut n = 0;
        for bay in 0..self.bays.len() {
            if matches!(self.mech.bay_contents(bay), Ok(Some(_))) {
                let d = self.unload_bay(bay, self.now())?;
                self.run_for(d);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Returns the image segments of a file's newest version.
    pub fn image_segments(&self, path: &ros_udf::UdfPath) -> Option<Vec<ImageId>> {
        self.mv
            .get(path)
            .and_then(|i| i.latest())
            .map(|e| e.segs.clone())
    }

    /// Rewrites every array a scrub found damaged onto fresh discs
    /// (§4.7): its data images are recalled to the buffer by image id
    /// (the fetch path reconstructs damaged members through parity), the
    /// old tray is retired as Failed, fresh parity is generated and the
    /// array is re-burned to an empty tray ([`Ros::rewrite_array`]).
    /// Returns how many arrays were rewritten; the DILindex is updated
    /// by the re-burn.
    pub fn rewrite_damaged_arrays(&mut self, report: &ScrubReport) -> Result<usize, OlfsError> {
        let gids: BTreeSet<ArrayId> = report
            .damaged
            .iter()
            .flat_map(|(_disc, images)| images)
            .filter_map(|image| self.store.get(*image).and_then(|i| i.array))
            .collect();
        let mut rewritten = 0;
        for gid in gids {
            let Some(group) = self.store.group(gid) else {
                continue;
            };
            for image in group.data.clone() {
                self.recall_image(image)?;
            }
            self.rewrite_array(gid)?;
            rewritten += 1;
        }
        // Let the re-burns complete.
        self.run_until_quiescent(ros_sim::SimDuration::from_secs(3600 * 24));
        Ok(rewritten)
    }

    /// Force-closes the partially filled collecting group and schedules
    /// its delayed parity generation — what `flush` does, without waiting
    /// for the burns.
    pub fn force_close_collecting_group(&mut self) -> Option<ArrayId> {
        let gid = self.store.force_close_collecting()?;
        self.schedule_parity(gid, self.now());
        Some(gid)
    }

    /// Checkpoints DAindex/DILindex and counters into MV's state store
    /// (§4.2: "Once ROS crashes, OLFS can recover from its previous
    /// checkpoint state with all state information stored in MV").
    pub fn checkpoint(&mut self) {
        let state = self.store.state_json();
        self.mv.put_state("dim", state);
        self.mv.put_state(
            "counters",
            serde_json::json!({
                "writes": self.counters.writes,
                "reads": self.counters.reads,
                "burns": self.counters.burns,
            }),
        );
        self.mv
            .put_state("checkpoint_nanos", serde_json::json!(self.now().as_nanos()));
    }

    /// Reads back the last checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<SimTime> {
        self.mv
            .get_state("checkpoint_nanos")
            .and_then(serde_json::Value::as_u64)
            .map(SimTime::from_nanos)
    }

    /// Ages every burned disc in the library with an elevated sector
    /// error rate (reliability drills; the nominal rate of §4.7 is
    /// 1e-16 and would never fire at test scale).
    pub fn age_media(&mut self, rate: f64) -> usize {
        let mut rng = self.rng_mut().fork(0xA6E);
        let mut failures = 0;
        let ids: Vec<DiscId> = (0..self.registry.len() as u64).map(DiscId).collect();
        for id in ids {
            if let Some(disc) = self.registry.disc_mut(id) {
                if !disc.is_blank() {
                    failures += disc.age(rate, &mut rng);
                }
            }
        }
        failures
    }

    /// Scrubs all *in-tray* burned discs for sector errors (§4.7:
    /// "disc sector-error checking can be scheduled at idle times and can
    /// periodically scan all the burned disc arrays").
    ///
    /// The scan charges read time per burned disc surface at the drive
    /// aggregate rate; it does not move any discs (a full mechanical
    /// verify would use the fetch path).
    pub fn scrub(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let agg = self.bays[0].aggregate_read_speed(self.cfg.disc_class);
        // The per-disc surface scan is pure read-only real-bytes work,
        // so it fans out on the data plane; results come back in disc-id
        // order, so the report and the simulated read time charged below
        // are identical at any thread count.
        let plane = self.data_plane();
        let registry = &self.registry;
        let ids: Vec<DiscId> = (0..registry.len() as u64).map(DiscId).collect();
        let scans: Vec<Option<(u64, Vec<u64>)>> = plane.map(&ids, |id| {
            let disc = registry.disc(*id)?;
            if disc.is_blank() {
                return None;
            }
            let bytes = disc.tracks().iter().map(ros_drive::Track::len).sum::<u64>();
            Some((bytes, disc.scrub()))
        });
        let mut total_bytes = 0u64;
        for (id, scan) in ids.iter().zip(scans) {
            let Some((bytes, damaged)) = scan else {
                continue;
            };
            report.discs_scanned += 1;
            total_bytes += bytes;
            if !damaged.is_empty() {
                report
                    .damaged
                    .push((*id, damaged.into_iter().map(ImageId).collect()));
            }
        }
        report.elapsed = agg.time_for(total_bytes);
        let elapsed = report.elapsed;
        self.run_for(elapsed);
        self.last_scrub = Some(report.clone());
        report
    }

    /// The most recent scrub result, whether scheduled (§4.7's idle-time
    /// pass) or run manually.
    pub fn last_scrub_report(&self) -> Option<&ScrubReport> {
        self.last_scrub.as_ref()
    }

    /// Verifies every image payload resident on the disk tier against
    /// its recorded `ros-cas` content digest — the MI's verify-by-digest
    /// sweep (DESIGN.md §14). Complements [`Ros::scrub`]: the scrub
    /// finds *media* damage on burned discs, this pass proves the
    /// *buffered* bytes still match what was sealed. Burned-and-evicted
    /// images are skipped; their bytes are verified by the fetch path
    /// before `restore_disk_copy` on the next fetch.
    ///
    /// All resident images are hashed as one batch on the data plane;
    /// the result is independent of the thread count.
    pub fn verify_resident_images(&self) -> ImageVerifyReport {
        let resident = self
            .store
            .images()
            .filter_map(|i| Some((i.id, (i.digest, i.payload.as_ref()?))));
        let (ids, pairs): (Vec<ImageId>, Vec<_>) = resident.unzip();
        let proofs = ros_cas::verify_payloads(pairs, &self.data_plane());
        let mut report = ImageVerifyReport::default();
        for (id, proof) in ids.into_iter().zip(proofs) {
            match proof {
                Ok(_) => report.verified += 1,
                Err(_) => report.mismatched.push(id),
            }
        }
        report
    }

    /// Repairs every data image a scrub found damaged, by fetching it —
    /// by image id, whatever the namespace says today — and
    /// reconstructing through parity on the way (§4.7: "data on the
    /// failed sectors can be recovered from their parity discs and the
    /// corresponding data discs in the same disc array"). The recovered
    /// bytes re-enter the buffer; [`Ros::rewrite_damaged_arrays`] moves
    /// them to fresh media. Damaged parity images hold no client bytes
    /// and are regenerated by that rewrite.
    ///
    /// Returns the images now healthy on the buffer.
    pub fn repair_damaged(&mut self, report: &ScrubReport) -> Result<Vec<ImageId>, OlfsError> {
        let mut repaired = Vec::new();
        for image in report.damaged.iter().flat_map(|(_disc, images)| images) {
            let info = self.store.get(*image).ok_or(OlfsError::ImageLost(*image))?;
            if info.kind == ImageKind::Parity {
                continue;
            }
            self.recall_image(*image)?;
            if self.store.get(*image).is_some_and(ImageInfo::on_disk) {
                repaired.push(*image);
            }
        }
        Ok(repaired)
    }

    /// Like [`Ros::repair_damaged`], but rides out transient mechanical
    /// and drive faults under `policy`. Repair fetches are idempotent
    /// (already-repaired images short-circuit on the healthy buffer
    /// copy), so a retried pass only redoes the work that failed.
    pub fn repair_damaged_supervised(
        &mut self,
        report: &ScrubReport,
        policy: &ros_faults::RetryPolicy,
    ) -> Result<(Vec<ImageId>, ros_faults::RetryStats), OlfsError> {
        self.supervised("repair", policy, |ros| ros.repair_damaged(report))
    }

    /// Brings a burned image back to the buffer by id; the fetch path
    /// repairs it through parity if the media is damaged.
    fn recall_image(&mut self, image: ImageId) -> Result<(), OlfsError> {
        let info = self.store.get(image).ok_or(OlfsError::ImageLost(image))?;
        if !info.on_disk() {
            let size = info.size;
            let (fetch_time, _) = self.fetch_image(image, size, self.now())?;
            self.run_for(fetch_time);
            self.counters.fetches += 1;
            self.cache.insert(image);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RosConfig;

    #[test]
    fn status_reflects_activity() {
        let mut ros = Ros::new(RosConfig::tiny());
        let before = ros.status();
        assert_eq!(before.files, 0);
        assert_eq!(before.rack_id, 0, "standalone racks report id 0");
        ros.write_file(&"/a/b".parse().unwrap(), vec![1u8; 100])
            .unwrap();
        let after = ros.status();
        assert_eq!(after.files, 1);
        assert!(after.mv_bytes > before.mv_bytes);
        assert_eq!(after.da_counts.0, 8);
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut ros = Ros::new(RosConfig::tiny());
        assert!(ros.last_checkpoint().is_none());
        ros.write_file(&"/f".parse().unwrap(), vec![0u8; 10])
            .unwrap();
        ros.checkpoint();
        let t = ros.last_checkpoint().unwrap();
        assert_eq!(t, ros.now());
    }

    #[test]
    fn scrub_on_clean_library_is_clean() {
        let mut ros = Ros::new(RosConfig::tiny());
        ros.write_file(&"/f".parse().unwrap(), vec![0u8; 4096])
            .unwrap();
        let report = ros.scrub();
        assert!(report.damaged.is_empty());
        assert_eq!(report.discs_scanned, 0, "nothing burned yet");
    }
}

/// A consistency violation found by [`Ros::verify_consistency`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyIssue {
    /// What is inconsistent.
    pub what: String,
}

impl Ros {
    /// Cross-checks the internal indices against each other — the
    /// invariants the design relies on:
    ///
    /// 1. every Burned group's images carry a DILindex location,
    /// 2. every DILindex location points at a Used (or Failed) tray,
    /// 3. every read-cache resident actually has a disk copy,
    /// 4. every MV entry's segments are known to the image store,
    /// 5. unburned images still hold their (only) disk copy.
    ///
    /// Returns the violations found (empty = consistent).
    pub fn verify_consistency(&self) -> Vec<ConsistencyIssue> {
        let mut issues = Vec::new();
        let mut push = |what: String| issues.push(ConsistencyIssue { what });

        // 1 + 2: burned groups.
        for gid in self.store.groups_in_state(GroupState::Burned) {
            let Some(group) = self.store.group(gid) else {
                continue;
            };
            for img in group.data.iter().chain(group.parity.iter()) {
                match self.store.location_of(*img) {
                    None => push(format!("burned image {img} missing from DILindex")),
                    Some(loc) => {
                        let idx = self.cfg.layout.slot_index(loc.slot);
                        match self.store.da_state(idx) {
                            Some(DaState::Used) | Some(DaState::Failed) => {}
                            other => push(format!(
                                "image {img} burned on tray {idx} in state {other:?}"
                            )),
                        }
                    }
                }
            }
        }

        // 3: cache residency.
        for id in self.cache.lru_order() {
            let on_disk = self
                .store
                .get(id)
                .map(crate::dim::ImageInfo::on_disk)
                .unwrap_or(false);
            if !on_disk {
                push(format!("cached image {id} has no disk copy"));
            }
        }

        // 4: MV references resolve.
        for (path, idx) in self.mv.iter_files() {
            for entry in idx.versions() {
                for seg in &entry.segs {
                    let known =
                        self.store.get(*seg).is_some() || self.wbm.locate_image(*seg).is_some();
                    if !known {
                        push(format!(
                            "{path} v{} references unknown image {seg}",
                            entry.ver
                        ));
                    }
                }
            }
        }

        // 5: unburned images must be on disk (they have no other copy).
        for gid in self
            .store
            .groups_in_state(GroupState::Collecting)
            .into_iter()
            .chain(self.store.groups_in_state(GroupState::ParityPending))
            .chain(self.store.groups_in_state(GroupState::ReadyToBurn))
        {
            let Some(group) = self.store.group(gid) else {
                continue;
            };
            for img in group.data.iter().chain(group.parity.iter()) {
                let ok = self
                    .store
                    .get(*img)
                    .map(crate::dim::ImageInfo::on_disk)
                    .unwrap_or(false);
                if !ok {
                    push(format!("unburned image {img} lost its disk copy"));
                }
            }
        }

        issues
    }
}

/// One entry of a file's provenance trail (§4.6: "OLFS can conveniently
/// implement data provenance and data audit").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Version number.
    pub version: u32,
    /// Size of that version, bytes.
    pub size: u64,
    /// Write time, simulation nanoseconds.
    pub mtime_nanos: u64,
    /// Whether the bytes are still retrievable (in-place bucket updates
    /// physically replace their predecessor, §4.6).
    pub readable: bool,
    /// Where each segment of that version physically lives right now.
    pub locations: Vec<ProvenanceLocation>,
}

/// Physical location of one segment of one version.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProvenanceLocation {
    /// Still staged in an open write bucket.
    OpenBucket {
        /// The staging image id.
        image: ImageId,
    },
    /// A sealed image on the disk buffer / read cache.
    DiskBuffer {
        /// The image id.
        image: ImageId,
    },
    /// Burned onto a disc (with its tray coordinates).
    Disc {
        /// The image id.
        image: ImageId,
        /// The physical disc.
        disc: DiscId,
        /// Dense tray index.
        slot_index: u32,
        /// Position within the tray.
        position: u32,
    },
    /// The image is referenced but cannot be located (should not happen
    /// in a consistent system).
    Unknown {
        /// The image id.
        image: ImageId,
    },
}

impl Ros {
    /// Returns the full audit trail of a file: every retained version,
    /// its write time, and the physical home of each of its segments.
    pub fn provenance(&self, path: &ros_udf::UdfPath) -> Result<Vec<ProvenanceRecord>, OlfsError> {
        let idx = self
            .mv
            .get(path)
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
        let mut out = Vec::new();
        for entry in idx.versions() {
            let locations = entry
                .segs
                .iter()
                .map(|&image| {
                    if self.wbm.locate_image(image).is_some() {
                        return ProvenanceLocation::OpenBucket { image };
                    }
                    match self.store.get(image) {
                        Some(info) => match info.burned {
                            Some(loc) => ProvenanceLocation::Disc {
                                image,
                                disc: loc.disc,
                                slot_index: self.cfg.layout.slot_index(loc.slot),
                                position: loc.position,
                            },
                            None if info.on_disk() => ProvenanceLocation::DiskBuffer { image },
                            None => ProvenanceLocation::Unknown { image },
                        },
                        None => ProvenanceLocation::Unknown { image },
                    }
                })
                .collect();
            out.push(ProvenanceRecord {
                version: entry.ver,
                size: entry.size,
                mtime_nanos: entry.mtime,
                readable: !entry.replaced,
                locations,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod provenance_tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> ros_udf::UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn provenance_tracks_versions_through_the_tiers() {
        let mut r = Ros::new(RosConfig::tiny());
        r.write_file(&p("/audit"), vec![1u8; 10_000]).unwrap();
        r.seal_open_buckets().unwrap();
        r.write_file(&p("/audit"), vec![2u8; 12_000]).unwrap();
        let trail = r.provenance(&p("/audit")).unwrap();
        assert_eq!(trail.len(), 2);
        assert!(trail.iter().all(|rec| rec.readable));
        assert!(matches!(
            trail[0].locations[0],
            ProvenanceLocation::DiskBuffer { .. }
        ));
        assert!(matches!(
            trail[1].locations[0],
            ProvenanceLocation::OpenBucket { .. }
        ));
        // Burn everything: both versions now name physical discs.
        r.flush().unwrap();
        let trail = r.provenance(&p("/audit")).unwrap();
        for rec in &trail {
            assert!(matches!(rec.locations[0], ProvenanceLocation::Disc { .. }));
        }
        // Timestamps are ordered.
        assert!(trail[0].mtime_nanos <= trail[1].mtime_nanos);
    }

    #[test]
    fn provenance_marks_in_place_overwrites_unreadable() {
        let mut r = Ros::new(RosConfig::tiny());
        r.write_file(&p("/ip"), vec![1u8; 100]).unwrap();
        r.write_file(&p("/ip"), vec![2u8; 100]).unwrap(); // In place.
        let trail = r.provenance(&p("/ip")).unwrap();
        assert_eq!(trail.len(), 2);
        assert!(!trail[0].readable, "v1 physically replaced");
        assert!(trail[1].readable);
        assert!(r.provenance(&p("/missing")).is_err());
    }
}
