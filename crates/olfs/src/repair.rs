//! The repair ladder's first rung — the only repair code in OLFS (§4.7,
//! DESIGN.md §16).
//!
//! "Data on the failed sectors can be recovered from their parity discs
//! and the corresponding data discs in the same disc array under the
//! given tolerance degree ... the recovered data can be written to new
//! buckets and finally burned into free disc arrays."
//!
//! One path, keyed by image and array id and never by file path:
//!
//! 1. **gather** — [`Ros::inspect_many`] over the array's members: a buffer
//!    copy that verifies, else the burned bytes wherever the disc is
//!    ([`Ros::disc_at`]) plus the drive's damage map. Resident copies and
//!    the tracks of non-resident members are hashed as one digest batch;
//!    only a resident copy that fails sends its track to a second;
//! 2. **mask** — one damage mask per member: the drive's bad sectors
//!    where it reported any, every sector where the member is absent or
//!    read back cleanly but fails its digest (latent rot leaves no map).
//!    If what that yields fails a digest — rot beside the mapped damage
//!    — every unhealthy member is masked whole and the array tried again;
//! 3. **reconstruct** — [`Ros::rebuild`] runs one parity-kernel call per
//!    maximal run of sectors sharing a damaged set, so each 2 KB stripe
//!    tolerates `parity_discs` losses independently and a wholly lost
//!    member costs exactly one call;
//! 4. **restore** — [`Ros::restore`] puts a proof back on the buffer;
//! 5. **rewrite** — [`Ros::rewrite_array`] retires the tray and re-runs
//!    parity-and-burn onto fresh media.
//!
//! Callers hold policy only — which members to restore, whether to
//! rewrite, which counter to bump and at what rate the media reads are
//! charged: the fetch path (`engine.rs`) and the audit (`audit.rs`).

use crate::dim::{DaState, DiscLocation, ImageInfo};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::{ArrayId, ImageId};
use crate::redundancy;
use bytes::Bytes;
use ros_cas::{verify_payload, verify_payloads, CasError, Digest, Verified};
use ros_disk::DataPlane;
use ros_drive::media::{Disc, Payload};
use ros_mech::SlotAddress;
use ros_sim::SimDuration;
use std::ops::Range;

/// Stripe granularity of the damage mask: the media's sector size.
const SECTOR: usize = ros_sim::to_usize(ros_drive::params::SECTOR_BYTES);

/// One image's health, as decided by [`Ros::inspect_many`].
#[derive(Default)]
pub(crate) struct Inspection {
    /// The image's bytes, if a copy hashes to the digest the DIM records.
    pub proof: Option<Verified<Bytes>>,
    /// True when that healthy copy is the one on the buffer.
    pub resident: bool,
    /// The burned track as read from media; empty when the buffer copy
    /// settled it or no disc could be reached. Garbage at `bad`.
    pub track: Bytes,
    /// The track's unreadable sectors as the drive reports them
    /// (track-relative, ascending). Empty on an unhealthy track means the
    /// read was clean and only the digest disagrees.
    pub bad: Vec<u64>,
    /// Length of the buffer copy the gather took, healthy or not; 0 when
    /// the image had none. With `track`, what the inspection scanned.
    pub buffered: u64,
}

/// One copy [`Ros::gather`] took for the digest batch.
struct Taken {
    /// Index of its image in the gather.
    at: usize,
    /// The digest the DIM records for that image.
    digest: Digest,
    bytes: Bytes,
    /// True for the buffer copy, false for a cleanly read track.
    resident: bool,
}

/// What [`Ros::gather`] took from buffer and media, awaiting one digest
/// batch over [`Gathered::pairs`] and then [`Ros::settle`]. A snapshot:
/// settling never re-reads what the gather recorded, so it may run after
/// the store has moved on.
pub(crate) struct Gathered {
    /// The images inspected, in the caller's order.
    pub images: Vec<ImageId>,
    seen: Vec<Inspection>,
    taken: Vec<Taken>,
}

impl Gathered {
    /// `(recorded digest, bytes)` per copy taken, in order: the batch
    /// [`Ros::settle`] expects one result for each.
    pub(crate) fn pairs(&self) -> Vec<(Digest, Bytes)> {
        let pair = |t: &Taken| (t.digest, t.bytes.clone());
        self.taken.iter().map(pair).collect()
    }
}

#[cfg(test)]
thread_local! {
    /// Digest batches the inspections ran on this thread: the count the
    /// tests pin (one per audit pass or array gather, one more when a
    /// buffer copy fails).
    pub(crate) static DIGEST_BATCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One inspection digest batch ([`verify_payloads`]); an empty one is
/// not run.
pub(crate) fn verify_batch(
    pairs: Vec<(Digest, Bytes)>,
    plane: &DataPlane,
) -> Vec<Result<Verified<Bytes>, CasError>> {
    if pairs.is_empty() {
        return Vec::new();
    }
    #[cfg(test)]
    DIGEST_BATCHES.with(|n| n.set(n.get() + 1));
    verify_payloads(pairs, plane)
}

/// One data member of a rebuilt array.
pub(crate) struct RebuiltMember {
    /// The member.
    pub image: ImageId,
    /// Its bytes: hashed once at gather if they survived, once after
    /// reconstruction if they did not.
    pub proof: Verified<Bytes>,
    /// True when the buffer already holds these bytes.
    pub resident: bool,
}

/// Result of [`Ros::rebuild`].
pub(crate) struct Rebuilt {
    /// Every data member in group order.
    pub data: Vec<RebuiltMember>,
    /// Bytes the gather read from optical media, per member (data, then
    /// parity). How they are charged is the caller's policy.
    pub media_reads: Vec<u64>,
}

/// Collapses an ascending sector list into maximal `start..end` runs.
fn runs_of(bad: &[u64]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for &sector in bad {
        let sector = ros_sim::to_usize(sector);
        match runs.last_mut() {
            Some(run) if run.end == sector => run.end += 1,
            _ => runs.push(sector..sector + 1),
        }
    }
    runs
}

impl Ros {
    /// The burned disc at `loc`, wherever it physically is: resting in
    /// its tray, or in drive `loc.position` of the bay holding the tray.
    pub(crate) fn disc_at(&self, loc: DiscLocation) -> Option<&Disc> {
        self.registry.disc(loc.disc).or_else(|| {
            let bay = self.bay_holding(loc.slot)?;
            self.bays[bay].drive(loc.position as usize)?.disc()
        })
    }

    /// The bay whose drives hold tray `slot`'s discs, if it is loaded.
    fn bay_holding(&self, slot: SlotAddress) -> Option<usize> {
        (0..self.bays.len()).find(|&b| self.mech.bay_contents(b).ok().flatten() == Some(slot))
    }

    /// The one definition of "this image's bytes are healthy", for many
    /// images at once: a buffer copy that matches the recorded digest
    /// settles it; otherwise the burned track is read, damage map and
    /// all. [`Ros::gather`], one digest batch, [`Ros::settle`]: every
    /// resident copy and the cleanly read track of every image without
    /// one share lockstep passes (DESIGN.md §14).
    pub(crate) fn inspect_many(&self, images: &[ImageId]) -> Vec<Inspection> {
        let gathered = self.gather(images);
        let proofs = verify_batch(gathered.pairs(), &self.data_plane());
        self.settle(gathered, proofs)
    }

    /// The first half of [`Ros::inspect_many`]: takes each image's buffer
    /// copy, or, if it has none, its burned track with the damage map —
    /// a track that read back cleanly is taken for the digest batch.
    pub(crate) fn gather(&self, images: &[ImageId]) -> Gathered {
        let mut seen: Vec<Inspection> = images.iter().map(|_| Inspection::default()).collect();
        let mut taken = Vec::new();
        for (at, image) in images.iter().enumerate() {
            let Some(info) = self.store.get(*image) else {
                continue;
            };
            let (digest, resident) = (info.digest, info.payload.is_some());
            let bytes = match &info.payload {
                Some(bytes) => {
                    seen[at].buffered = bytes.len() as u64;
                    Some(bytes.clone())
                }
                None => self.read_track(info, &mut seen[at]),
            };
            if let Some(bytes) = bytes {
                taken.push(Taken {
                    at,
                    digest,
                    bytes,
                    resident,
                });
            }
        }
        Gathered {
            images: images.to_vec(),
            seen,
            taken,
        }
    }

    /// The second half of [`Ros::inspect_many`]: `proofs` holds one
    /// result per [`Gathered::pairs`] entry. A proof counts only for the
    /// digest its copy was taken against. The images whose buffer copy
    /// failed have their tracks read now and hashed as a second batch.
    pub(crate) fn settle(
        &self,
        gathered: Gathered,
        proofs: Vec<Result<Verified<Bytes>, CasError>>,
    ) -> Vec<Inspection> {
        let Gathered {
            images,
            mut seen,
            taken,
        } = gathered;
        let mut failed = Vec::new();
        for (t, proof) in taken.into_iter().zip(proofs) {
            match proof.ok().filter(|p| p.digest() == t.digest) {
                Some(proof) => {
                    seen[t.at].proof = Some(proof);
                    seen[t.at].resident = t.resident;
                }
                None if t.resident => failed.push((t.at, t.digest)),
                None => {}
            }
        }
        let mut tracks = Vec::new();
        for (at, digest) in failed {
            let Some(info) = self.store.get(images[at]) else {
                continue;
            };
            if let Some(bytes) = self.read_track(info, &mut seen[at]) {
                tracks.push((at, (digest, bytes)));
            }
        }
        let (at, pairs): (Vec<usize>, Vec<_>) = tracks.into_iter().unzip();
        for (i, proof) in at.into_iter().zip(verify_batch(pairs, &self.data_plane())) {
            seen[i].proof = proof.ok();
        }
        seen
    }

    /// Reads the image's burned track into `seen`, damage map and all,
    /// and returns its bytes if no sector failed.
    fn read_track(&self, info: &ImageInfo, seen: &mut Inspection) -> Option<Bytes> {
        let disc = self.disc_at(info.burned?)?;
        let Ok((Payload::Inline(bytes), bad)) = disc.read_image_raw(info.id.0) else {
            return None;
        };
        seen.track = bytes.clone();
        seen.bad = bad;
        seen.bad.is_empty().then(|| bytes.clone())
    }

    /// Gathers array `gid`, masks what cannot be trusted, reconstructs
    /// it through parity and hands back a proof per data member.
    ///
    /// A damage map says which sectors the drive could not read, not
    /// that the rest is sound, so when the sector-granular mask yields a
    /// member that fails its digest the array is tried once more with
    /// every unhealthy member masked whole.
    ///
    /// All or nothing: damage past the schema's tolerance in any one
    /// stripe is [`OlfsError::Unrecoverable`] naming the first member
    /// that could not be rebuilt. Mutates nothing either way.
    pub(crate) fn rebuild(&self, gid: ArrayId) -> Result<Rebuilt, OlfsError> {
        let group = self
            .store
            .group(gid)
            .ok_or_else(|| OlfsError::BadState(format!("no group {gid}")))?;
        let n_data = group.data.len();
        let members: Vec<ImageId> = group.data.iter().chain(&group.parity).copied().collect();
        let infos = members
            .iter()
            .map(|m| self.store.get(*m).ok_or(OlfsError::ImageLost(*m)))
            .collect::<Result<Vec<_>, _>>()?;
        let unrecoverable = |member: usize| OlfsError::Unrecoverable {
            image: members[member],
            array: Some(gid),
        };

        let seen = self.inspect_many(&members);
        let bytes_of = |i: usize| -> &[u8] {
            seen[i]
                .proof
                .as_ref()
                .map_or(&seen[i].track, Verified::bytes)
        };
        // Parity is as long as the longest data member; shorter members
        // are zero-filled to it, as they physically are on disc.
        let stripe_len = infos
            .iter()
            .map(|m| ros_sim::to_usize(m.size))
            .max()
            .unwrap_or(0);
        let every_sector = 0..stripe_len.div_ceil(SECTOR);
        let masks = |granular: bool| -> Vec<Vec<Range<usize>>> {
            seen.iter()
                .map(|s| match s.proof {
                    Some(_) => Vec::new(),
                    None if granular && !s.bad.is_empty() => runs_of(&s.bad),
                    None => vec![every_sector.clone()],
                })
                .collect()
        };
        let plane = self.data_plane();

        let reconstruct = |masks: &[Vec<Range<usize>>]| -> Result<Vec<RebuiltMember>, OlfsError> {
            // Between two neighbouring run boundaries the damaged set is
            // constant, so each such span is one kernel call.
            let mut cuts: Vec<usize> = masks
                .iter()
                .flatten()
                .flat_map(|run| [run.start, run.end])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut patched: Vec<Option<Vec<u8>>> = vec![None; n_data];
            for span in cuts.windows(2) {
                let lost = |i: usize| masks[i].iter().any(|run| run.contains(&span[0]));
                let Some(first_lost) = (0..n_data).find(|&i| lost(i)) else {
                    continue; // Only parity is damaged here; the rewrite regenerates it.
                };
                // The last sector of the stripe may be a partial one.
                let (lo, hi) = (span[0] * SECTOR, (span[1] * SECTOR).min(stripe_len));
                let part = |i: usize| -> Option<&[u8]> {
                    let bytes = bytes_of(i);
                    (!lost(i)).then(|| &bytes[lo.min(bytes.len())..hi.min(bytes.len())])
                };
                let data: Vec<Option<&[u8]>> = (0..n_data).map(part).collect();
                let parity = |k: usize| (n_data + k < members.len()).then(|| part(n_data + k));
                let rebuilt = redundancy::reconstruct_with(
                    self.cfg.redundancy,
                    &data,
                    &vec![hi - lo; n_data],
                    parity(0).flatten(),
                    parity(1).flatten(),
                    &plane,
                )
                .map_err(|_| unrecoverable(first_lost))?;
                for i in (0..n_data).filter(|&i| lost(i)) {
                    let buf = patched[i].get_or_insert_with(|| {
                        let mut buf = bytes_of(i).to_vec();
                        buf.resize(stripe_len, 0);
                        buf
                    });
                    buf[lo..hi].copy_from_slice(&rebuilt[i]);
                }
            }
            (0..n_data)
                .zip(patched)
                .map(|(i, patched)| {
                    let proof = match &seen[i].proof {
                        Some(proof) => proof.clone(),
                        None => {
                            let mut bytes = patched.unwrap_or_default();
                            bytes.truncate(ros_sim::to_usize(infos[i].size));
                            verify_payload(&infos[i].digest, Bytes::from(bytes), &plane)
                                .map_err(|_| unrecoverable(i))?
                        }
                    };
                    Ok(RebuiltMember {
                        image: members[i],
                        proof,
                        resident: seen[i].resident,
                    })
                })
                .collect()
        };

        let data = reconstruct(&masks(true)).or_else(|_| reconstruct(&masks(false)))?;
        Ok(Rebuilt {
            data,
            media_reads: seen.iter().map(|s| s.track.len() as u64).collect(),
        })
    }

    /// Puts verified bytes back on the disk buffer as `image`'s copy,
    /// replacing a resident copy (one that failed inspection, or the
    /// caller would not be restoring). Returns the buffer write time for
    /// the caller to charge.
    pub(crate) fn restore(
        &mut self,
        image: ImageId,
        proof: Verified<Bytes>,
    ) -> Result<SimDuration, OlfsError> {
        if self.store.get(image).is_some_and(ImageInfo::on_disk) {
            let freed = self.store.evict_disk_copy(image)?;
            let _ = self.vm.release(self.vol_buffer, freed);
        }
        let len = proof.bytes().len() as u64;
        let time = self.vm.write_time(self.vol_buffer, len)?;
        self.vm.allocate(self.vol_buffer, len)?;
        self.store.restore_disk_copy(image, proof)?;
        Ok(time)
    }

    /// Rewrites a burned array onto fresh media: the tray is retired as
    /// Failed, the group goes back to parity generation, and the normal
    /// burn pipeline picks it up from there. Every data member must be
    /// on the buffer — [`crate::dim::ImageStore::reset_group_for_rewrite`]
    /// refuses otherwise, before anything has changed.
    pub(crate) fn rewrite_array(&mut self, gid: ArrayId) -> Result<(), OlfsError> {
        let group = self
            .store
            .group(gid)
            .ok_or_else(|| OlfsError::BadState(format!("no group {gid}")))?;
        // The buffer copies of members that were on media are about to
        // become sole copies: pinned, like any unburned image, until the
        // re-burn's completion unpins them.
        let losing_media: Vec<ImageId> = group
            .data
            .iter()
            .copied()
            .filter(|id| self.store.location_of(*id).is_some())
            .collect();
        let old_slot = self.store.reset_group_for_rewrite(gid)?;
        for id in losing_media {
            self.cache.insert(id);
            self.cache.pin(id);
        }
        if let Some(slot) = old_slot {
            self.store
                .set_da_state(self.cfg.layout.slot_index(slot), DaState::Failed);
            // Best effort: a retired array that will not leave its bay
            // is evicted by the next load like any idle array.
            if let Some(bay) = self.bay_holding(slot) {
                let _ = self.unload_bay(bay, self.now());
            }
        }
        self.schedule_parity(gid, self.now());
        Ok(())
    }
}

#[cfg(test)]
impl Ros {
    /// [`Ros::disc_at`] for fault injection in tests.
    pub(crate) fn disc_at_mut(&mut self, loc: DiscLocation) -> Option<&mut Disc> {
        if self.registry.disc(loc.disc).is_some() {
            return self.registry.disc_mut(loc.disc);
        }
        let bay = self.bay_holding(loc.slot)?;
        self.bays[bay].drive_mut(loc.position as usize)?.disc_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditReport;
    use crate::config::{Redundancy, RosConfig};
    use crate::dim::GroupState;
    use ros_udf::UdfPath;

    /// One cold array of 4 discs: a 300 KB file per data image (two
    /// under RAID-6, three under RAID-5), every buffer copy dropped and
    /// the tray back on the roller.
    struct ColdArray {
        ros: Ros,
        gid: ArrayId,
        /// `(path, bytes, image)` per data member, in group order.
        files: Vec<(UdfPath, Vec<u8>, ImageId)>,
    }

    fn cold_array(redundancy: Redundancy, threads: usize) -> ColdArray {
        let mut cfg = RosConfig::tiny();
        cfg.disc_class = ros_drive::media::DiscClass::Custom {
            capacity: 512 * 1024,
        };
        cfg.layout.discs_per_tray = 4;
        cfg.drives_per_bay = 4;
        cfg.redundancy = redundancy;
        cfg.data_plane_threads = threads;
        let n_data = cfg.data_discs_per_array() as usize;
        let mut ros = Ros::new(cfg);
        let written: Vec<(UdfPath, Vec<u8>)> = (0..n_data)
            .map(|i| {
                let data: Vec<u8> = (0..300_000u32)
                    .map(|j| (j.wrapping_mul(31) >> 3) as u8 ^ (i as u8 + 1))
                    .collect();
                (format!("/mix/f{i}").parse().unwrap(), data)
            })
            .collect();
        for (path, data) in &written {
            ros.write_file(path, data.clone()).unwrap();
            ros.seal_open_buckets().unwrap(); // One file per image.
        }
        ros.flush().unwrap();
        ros.evict_all_burned_copies();
        ros.unload_all_bays().unwrap();
        let gid = ros.store.groups_in_state(GroupState::Burned)[0];
        assert_eq!(ros.store.group(gid).unwrap().data.len(), n_data);
        let files = written
            .into_iter()
            .map(|(path, data)| {
                let image = ros.image_segments(&path).unwrap()[0];
                (path, data, image)
            })
            .collect();
        ColdArray { ros, gid, files }
    }

    impl ColdArray {
        fn disc(&mut self, image: ImageId) -> &mut Disc {
            let loc = self.ros.store.location_of(image).unwrap();
            self.ros.disc_at_mut(loc).unwrap()
        }

        /// Marks track-relative `sectors` of `image` unreadable.
        fn break_sectors(&mut self, image: ImageId, sectors: &[u64]) {
            let disc = self.disc(image);
            let start = disc.find_track(image.0).unwrap().start_sector;
            for s in sectors {
                disc.corrupt_sector(start + s);
            }
        }

        /// Flips bytes of `image` with no sector error.
        fn rot(&mut self, image: ImageId) {
            // The selector picks the track; every disc here carries one.
            assert!(self.disc(image).rot_bytes(0, 7) > 0);
        }

        fn data_on_buffer(&self) -> usize {
            let on_disk = |(_, _, image): &&(UdfPath, Vec<u8>, ImageId)| {
                self.ros.store.get(*image).unwrap().on_disk()
            };
            self.files.iter().filter(on_disk).count()
        }

        fn parity(&self, k: usize) -> ImageId {
            self.ros.store.group(self.gid).unwrap().parity[k]
        }

        fn assert_cold_reads_need_no_repair(&mut self) {
            self.ros.evict_all_burned_copies();
            self.ros.unload_all_bays().unwrap();
            let before = self.ros.counters();
            for (path, data, _) in &self.files {
                let read = self.ros.read_file(path).unwrap();
                assert_eq!(read.data.as_ref(), data.as_slice(), "{path}");
            }
            let after = self.ros.counters();
            assert_eq!(
                (after.repairs, after.latent_repairs),
                (before.repairs, before.latent_repairs)
            );
            assert!(self.ros.verify_consistency().is_empty());
        }
    }

    /// RAID-6, one member rotted whole and another with sector errors:
    /// two losses in the damaged stripes, one elsewhere.
    fn rot_plus_sector_errors(threads: usize) -> ColdArray {
        let mut a = cold_array(Redundancy::Raid6, threads);
        let (rotted, broken) = (a.files[0].2, a.files[1].2);
        a.rot(rotted);
        a.break_sectors(broken, &[3, 4, 5, 90]);
        a
    }

    #[test]
    fn fetch_heals_sector_errors_beside_a_rotted_survivor() {
        for threads in [1, 2, 4] {
            let mut a = rot_plus_sector_errors(threads);
            // The sector-damaged member: its sibling's bytes read back
            // clean but rotted, and must be masked rather than trusted.
            let (path, data, _) = a.files[1].clone();
            let read = a.ros.read_file(&path).unwrap();
            assert_eq!(read.data.as_ref(), data.as_slice(), "threads={threads}");
            assert_eq!(a.ros.counters().repairs, 1);
            assert_eq!(a.data_on_buffer(), 1, "a fetch restores what was asked for");
            // The rotted member itself: clean read, digest mismatch.
            let (path, data, _) = a.files[0].clone();
            let read = a.ros.read_file(&path).unwrap();
            assert_eq!(read.data.as_ref(), data.as_slice(), "threads={threads}");
            assert_eq!(a.ros.counters().latent_repairs, 1);
            assert_eq!(a.ros.status().da_counts.2, 0, "a fetch retires no tray");
        }
    }

    /// Runs one full audit and returns its report with the clock.
    fn audit(a: &mut ColdArray) -> (AuditReport, ros_sim::SimTime) {
        let report = a.ros.audit_sample(64);
        (report, a.ros.now())
    }

    #[test]
    fn audit_heals_rot_plus_sector_errors_under_raid6() {
        let mut runs = Vec::new();
        for threads in [1, 2, 4] {
            let mut a = rot_plus_sector_errors(threads);
            let (report, now) = audit(&mut a);
            assert_eq!(report.rotted.len(), 2, "{report:?}");
            assert_eq!(report.repaired.len(), 2);
            assert!(report.unrepairable.is_empty());
            assert_eq!(a.ros.status().da_counts.2, 1, "the damaged tray is retired");
            a.assert_cold_reads_need_no_repair();
            runs.push((report, now));
        }
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "thread count shows");
        // Field for field what gathering one member at a time reported.
        let expect = AuditReport {
            sampled: 4,
            verified: 2,
            rotted: vec![ImageId(1), ImageId(3)],
            repaired: vec![ImageId(1), ImageId(3)],
            unrepairable: vec![],
            elapsed: SimDuration::from_nanos(27_474_252),
        };
        assert_eq!(runs[0].0, expect);
        // PR 23: + 5.6 ms, the kernel-user switches of the two writes, which
        // the clock now carries.
        assert_eq!(runs[0].1.as_nanos(), 261_162_247_856);
    }

    #[test]
    fn rebuild_gathers_as_a_batch_what_it_gathered_one_by_one() {
        let a = rot_plus_sector_errors(2);
        let rebuilt = a.ros.rebuild(a.gid).unwrap();
        assert_eq!(rebuilt.media_reads, [315_392; 4]);
        let members: Vec<(ImageId, bool, String)> = rebuilt
            .data
            .iter()
            .map(|m| (m.image, m.resident, m.proof.digest().to_hex()))
            .collect();
        // Re-pinned by PR 23: the images carry their files' mtimes, and a
        // write's mtime now includes the kernel-user switches before it.
        let digests = [
            "ae3a5306b313d563e8e269d5d93a9c8eb05a776016d149a4596dd734c44b6259",
            "25aa4553848f7ba0818ba6781863e78fe340700403369895f0331a7389537d3b",
        ];
        assert_eq!(
            members,
            [
                (ImageId(1), false, digests[0].to_string()),
                (ImageId(3), false, digests[1].to_string()),
            ]
        );
    }

    /// `f`'s result and the inspection digest batches it ran.
    fn batches_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        DIGEST_BATCHES.with(|n| n.set(0));
        let out = f();
        (out, DIGEST_BATCHES.with(std::cell::Cell::get))
    }

    /// A cold array with its first data member fetched back onto the
    /// buffer and its tray returned to the roller: one member audits
    /// through its buffer copy, the other three through their tracks.
    fn one_resident_three_tracks() -> ColdArray {
        let mut a = cold_array(Redundancy::Raid6, 2);
        let path = a.files[0].0.clone();
        a.ros.read_file(&path).unwrap();
        a.ros.unload_all_bays().unwrap();
        assert_eq!(a.data_on_buffer(), 1);
        a
    }

    #[test]
    fn an_audit_pass_over_residents_and_tracks_is_one_digest_batch() {
        let mut a = one_resident_three_tracks();
        let (report, batches) = batches_of(|| a.ros.audit_sample(64));
        assert_eq!((report.sampled, report.verified), (4, 4), "{report:?}");
        assert_eq!(batches, 1);
    }

    #[test]
    fn a_rotted_buffer_copy_adds_one_digest_batch() {
        let mut a = one_resident_three_tracks();
        let info = a.ros.store.get_mut(a.files[0].2).unwrap();
        let mut rotted = info.payload.as_ref().unwrap().to_vec();
        rotted[100] ^= 0xA5;
        info.payload = Some(Bytes::from(rotted));
        let (report, batches) = batches_of(|| a.ros.audit_sample(64));
        // The healthy track behind the rotted copy settles the image.
        assert_eq!((report.sampled, report.verified), (4, 4), "{report:?}");
        assert_eq!(batches, 2);
    }

    #[test]
    fn a_rebuild_gathers_its_members_in_one_digest_batch() {
        let a = rot_plus_sector_errors(2);
        let (rebuilt, batches) = batches_of(|| a.ros.rebuild(a.gid).unwrap());
        assert_eq!(rebuilt.data.len(), 2);
        assert_eq!(batches, 1);
    }

    #[test]
    fn an_audit_pass_verifies_and_charges_what_it_gathered() {
        let mut a = cold_array(Redundancy::Raid6, 2);
        let pass = a.ros.audit_begin(64);
        let scanned: u64 = pass.copies().iter().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(scanned, 4 * 315_392, "every member's track, no buffer copy");
        // A read between begin and end caches a gathered image.
        let (path, data, _) = a.files[0].clone();
        let read = a.ros.read_file(&path).unwrap();
        assert_eq!(read.data.as_ref(), data.as_slice());
        assert_eq!(a.data_on_buffer(), 1);
        let proofs = verify_payloads(pass.copies(), &a.ros.data_plane());
        let report = a.ros.audit_end(pass, proofs);
        assert_eq!((report.sampled, report.verified), (4, 4), "{report:?}");
        let agg = a.ros.bays[0].aggregate_read_speed(a.ros.cfg.disc_class);
        assert_eq!(report.elapsed, agg.time_for(scanned), "the tracks only");
    }

    #[test]
    fn audit_heals_sector_errors_in_disjoint_stripes_under_raid5() {
        let mut a = cold_array(Redundancy::Raid5, 1);
        let (first, second) = (a.files[0].2, a.files[1].2);
        a.break_sectors(first, &[2, 3]);
        a.break_sectors(second, &[10, 146]);
        let (report, _) = audit(&mut a);
        assert_eq!(report.repaired.len(), 2, "{report:?}");
        assert!(report.unrepairable.is_empty());
        a.assert_cold_reads_need_no_repair();
    }

    #[test]
    fn a_damage_map_is_not_a_clean_bill_for_the_other_sectors() {
        // Sector errors *and* rot on one member: the sector-granular
        // attempt trusts the rotted rest, fails its digest, and the
        // whole-member mask heals it.
        let mut a = cold_array(Redundancy::Raid5, 1);
        let image = a.files[2].2;
        a.break_sectors(image, &[40]);
        a.rot(image);
        let (path, data, _) = a.files[2].clone();
        assert_eq!(
            a.ros.read_file(&path).unwrap().data.as_ref(),
            data.as_slice()
        );
        assert_eq!(a.ros.counters().repairs, 1);
    }

    #[test]
    fn damage_past_the_tolerance_in_one_stripe_is_unrecoverable_and_touches_nothing() {
        let mut a = cold_array(Redundancy::Raid5, 1);
        let (first, second) = (a.files[0].2, a.files[1].2);
        a.break_sectors(first, &[2, 7]);
        a.break_sectors(second, &[7]);
        let gid = a.gid;
        assert_eq!(
            a.ros.rebuild(gid).err(),
            Some(OlfsError::Unrecoverable {
                image: first,
                array: Some(gid)
            })
        );
        let path = a.files[0].0.clone();
        assert_eq!(
            a.ros.read_file(&path).err(),
            Some(OlfsError::Unrecoverable {
                image: first,
                array: Some(gid)
            })
        );
        // The failed fetch left the array in a bay; the audit samples
        // buffer residents and in-tray discs.
        a.ros.unload_all_bays().unwrap();
        let (report, _) = audit(&mut a);
        assert!(report.repaired.is_empty());
        assert_eq!(report.unrepairable.len(), 2, "{report:?}");
        assert_eq!(a.data_on_buffer(), 0, "no buffer copy restored");
        assert_eq!(a.ros.status().da_counts.2, 0, "no tray retired");
        assert_eq!(a.ros.store.group(gid).unwrap().state, GroupState::Burned);
    }

    #[test]
    fn damaged_parity_rebuilds_no_data_and_is_regenerated_by_the_rewrite() {
        let mut a = cold_array(Redundancy::Raid6, 1);
        let (p, q) = (a.parity(0), a.parity(1));
        a.rot(p);
        a.break_sectors(q, &[1]);
        let rebuilt = a.ros.rebuild(a.gid).unwrap();
        for (member, (_, data, image)) in rebuilt.data.iter().zip(&a.files) {
            assert_eq!(member.image, *image);
            assert_eq!(member.proof.bytes(), data_image_bytes(&a, *image, data));
            assert!(!member.resident);
        }
        let (report, _) = audit(&mut a);
        assert_eq!(report.repaired, report.rotted);
        assert_eq!(report.rotted.len(), 2);
        assert!(
            a.ros.store.get(p).is_none(),
            "old parity images are dropped"
        );
        a.assert_cold_reads_need_no_repair();
    }

    /// The image bytes the store would hold for `image`, checked to
    /// carry the file.
    fn data_image_bytes<'a>(a: &'a ColdArray, image: ImageId, file: &[u8]) -> &'a [u8] {
        let loc = a.ros.store.location_of(image).unwrap();
        let disc = a.ros.disc_at(loc).unwrap();
        let Ok((Payload::Inline(bytes), _)) = disc.read_image_raw(image.0) else {
            panic!("no inline track for {image}");
        };
        assert!(bytes.windows(64).any(|w| w == &file[..64]));
        bytes
    }
}
