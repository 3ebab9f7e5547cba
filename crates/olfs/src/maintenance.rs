//! The Maintenance Interface (MI) — administrator operations (§4.1).
//!
//! "OLFS also offers a Maintenance Interface module (MI) to configure and
//! maintain the system by an interactive interface for administrators."
//!
//! Everything here is read-mostly introspection plus the long-running
//! care tasks: DAindex/DILindex inspection and media ageing injection
//! for reliability drills. §4.7's idle-time media scan is the audit
//! ([`Ros::audit_sample`]).

use crate::dim::{DaState, GroupState, ImageInfo, ImageKind};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::{ArrayId, DiscId, ImageId};
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
    /// Data images with a copy on the disk buffer, burned or not: the
    /// read cache's residents ([`crate::cache`]).
    pub cached_images: usize,
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
            burn_backlog: self.store.count_in_state(GroupState::ReadyToBurn),
            buffer_usage: self.vm.usage(self.vol_buffer).unwrap_or((0, 0)),
            cached_images: self
                .store
                .images()
                .filter(|i| i.kind == ImageKind::Data && i.on_disk())
                .count(),
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
    /// (collecting, parity-pending, ready, burning, burned); a group
    /// waiting for buffer space for its parity counts as parity-pending.
    pub fn group_census(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.store.count_in_state(GroupState::Collecting),
            self.parity_pending(),
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

    /// Drops the disk-tier copies of all burned *data* images (the read
    /// cache's residents under full pressure), forcing subsequent reads
    /// onto the discs. Returns how many copies were dropped.
    pub fn evict_burned_copies(&mut self) -> usize {
        self.evict_burned_where(|i| i.kind == ImageKind::Data)
    }

    /// Drops the disk-tier copies of *every* burned image — data and
    /// parity alike — modelling fully cold storage where the optical
    /// media hold the only copy. Unlike [`Ros::evict_burned_copies`],
    /// this sweep also drops the parity payloads the burn pipeline
    /// leaves in the buffer, which otherwise mask on-media rot from the
    /// audit. Returns how many copies were dropped.
    pub fn evict_all_burned_copies(&mut self) -> usize {
        self.evict_burned_where(|_| true)
    }

    /// Drops the buffer copy of each burned image `pick` selects.
    /// Returns how many were dropped.
    fn evict_burned_where(&mut self, pick: impl Fn(&ImageInfo) -> bool) -> usize {
        let ids: Vec<ImageId> = self
            .store
            .images()
            .filter(|i| i.burned.is_some() && i.on_disk() && pick(i))
            .map(|i| i.id)
            .collect();
        ids.into_iter()
            .filter(|&id| self.drop_buffer_copy(id).is_ok())
            .count()
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

    /// Force-closes the partially filled collecting group and schedules
    /// its delayed parity generation — what `flush` does, without waiting
    /// for the burns.
    pub fn force_close_collecting_group(&mut self) -> Option<ArrayId> {
        let gid = self.store.force_close_collecting()?;
        self.schedule_parity(gid, self.now());
        Some(gid)
    }

    /// Ages every burned disc in the library with an elevated sector
    /// error rate (reliability drills; the nominal rate of §4.7 is
    /// 1e-16 and would never fire at test scale).
    ///
    /// This is the only model of §4.7's *random* sector errors, and why
    /// it is not a `FaultSink` event: `MediaCorruption` strikes the
    /// contiguous sectors at the start of a victim's first track, so
    /// every victim loses the same stripes and two victims in one RAID-5
    /// array are always beyond its tolerance. Damage scattered here
    /// lands in distinct stripes, which is what the sector-granular
    /// repair (DESIGN.md §16) is for.
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
    fn audit_on_clean_library_is_clean() {
        let mut ros = Ros::new(RosConfig::tiny());
        ros.write_file(&"/f".parse().unwrap(), vec![0u8; 4096])
            .unwrap();
        let report = ros.audit_sample(usize::MAX);
        assert!(report.rotted.is_empty());
        assert_eq!(report.sampled, 0, "nothing sealed yet");
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
    /// 3. (retired: residency has one record, the image store's, so no
    ///    second record can disagree with it),
    /// 4. every MV entry's segments are known to the image store,
    /// 5. unburned images still hold their (only) disk copy,
    /// 6. every Burning group's tray is loaded in the bay it names,
    /// 7. no bay burns two groups,
    /// 8. the buffer volume's bytes in use are exactly the payloads of
    ///    the images with a disk copy (open buckets reserve nothing until
    ///    they seal).
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
            .chain(self.store.groups_in_state(GroupState::AwaitingBuffer))
            .chain(self.store.groups_in_state(GroupState::ReadyToBurn))
        {
            let Some(group) = self.store.group(gid) else {
                continue;
            };
            for img in group.data.iter().chain(group.parity.iter()) {
                let ok = self
                    .store
                    .get(*img)
                    .map(ImageInfo::on_disk)
                    .unwrap_or(false);
                if !ok {
                    push(format!("unburned image {img} lost its disk copy"));
                }
            }
        }

        // 6 + 7: the burns in flight.
        let mut burning_bays = BTreeSet::new();
        for g in self
            .store
            .groups()
            .filter(|g| g.state == GroupState::Burning)
        {
            let bay = g.burn.map(|(bay, _)| bay);
            let loaded = bay.and_then(|bay| self.mech.bay_contents(bay).ok().flatten());
            if g.slot.is_none() || loaded != g.slot {
                push(format!(
                    "burning group {} is not loaded in bay {bay:?}",
                    g.id
                ));
            }
            if bay.is_some_and(|bay| !burning_bays.insert(bay)) {
                push(format!("bay {bay:?} burns two groups"));
            }
        }

        // 8: one record of the buffer.
        let used = self.vm.usage(self.vol_buffer).map_or(0, |(used, _)| used);
        let resident = self.resident_bytes();
        if used != resident {
            push(format!(
                "buffer holds {used} B in use but {resident} B of image copies"
            ));
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
