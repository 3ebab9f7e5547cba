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
//!    only a resident copy that fails sends its track to a second. An
//!    audit hands over the inspections its pass already made, and only
//!    the members they do not cover — unsampled, or cached, evicted or
//!    moved since the pass gathered them — are gathered;
//! 2. **mask** — one damage mask per member: the drive's bad sectors
//!    where it reported any, every sector where the member is absent or
//!    read back cleanly but fails its digest (latent rot leaves no map).
//!    If what that yields fails a digest — rot beside the mapped damage
//!    — every unhealthy member is masked whole and the array tried again;
//! 3. **reconstruct** — [`Ros::rebuild`] runs one parity-kernel call per
//!    maximal run of sectors sharing a damaged set, so each 2 KB stripe
//!    tolerates `parity_discs` losses independently and a wholly lost
//!    member costs exactly one call. The kernels read the survivors
//!    where their pieces lie, and a rebuilt member is its track with the
//!    rebuilt spans patched in ([`bytes::Parts::patched`]);
//! 4. **restore** — [`Ros::restore`] puts a proof back on the buffer;
//! 5. **rewrite** — [`Ros::rewrite_array`] retires the tray and re-runs
//!    parity-and-burn onto fresh media; parity whose every member was
//!    proven in step 1 is registered again rather than generated.
//!
//! Callers hold policy only — which members to restore, whether to
//! rewrite, which counter to bump and at what rate the media reads are
//! charged: the fetch path (`engine.rs`) and the audit (`audit.rs`).

use crate::dim::{DaState, DiscLocation, ImageInfo};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::{ArrayId, DiscId, ImageId};
use crate::redundancy;
use bytes::{Bytes, Parts, Pieces};
use ros_cas::{verify_payload, verify_payloads, CasError, Digest, Verified};
use ros_disk::DataPlane;
use ros_drive::media::{Disc, Payload};
use ros_mech::SlotAddress;
use ros_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;

/// Stripe granularity of the damage mask: the media's sector size.
const SECTOR: usize = ros_sim::to_usize(ros_drive::params::SECTOR_BYTES);

/// One image's health, as decided by [`Ros::inspect_many`].
#[derive(Default)]
pub(crate) struct Inspection {
    /// Where the gather found the image: whether it had a buffer copy,
    /// and where its burned disc was. The inspection stands for the
    /// image only while both still hold ([`Inspection::stands_for`]).
    found: (bool, Option<DiscLocation>),
    /// The image's bytes, if a copy hashes to the digest the DIM records.
    pub proof: Option<Verified<Parts>>,
    /// True when that healthy copy is the one on the buffer.
    pub resident: bool,
    /// The burned track as read from media; empty when the buffer copy
    /// settled it or no disc could be reached. Garbage at `bad`.
    pub track: Parts,
    /// The track's unreadable sectors as the drive reports them
    /// (track-relative, ascending). Empty on an unhealthy track means the
    /// read was clean and only the digest disagrees.
    pub bad: Vec<u64>,
    /// Length of the buffer copy the gather took, healthy or not; 0 when
    /// the image had none. With `track`, what the inspection scanned.
    pub buffered: u64,
}

impl Inspection {
    /// True while `info` is where the gather found it. A read that
    /// cached the image since, or a restore that evicted its copy under
    /// buffer pressure, or a rewrite that moved it, makes a fresh
    /// inspection see something else.
    fn stands_for(&self, info: &ImageInfo) -> bool {
        self.found == (info.on_disk(), info.burned)
    }
}

/// Bytes `range` of a member, read where its pieces lie: a survivor's
/// span handed to the parity kernels without copying it.
struct Span<'a> {
    bytes: &'a Parts,
    range: Range<usize>,
}

impl Pieces for Span<'_> {
    fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let Range { start, end } = self.range;
        let mut at = 0;
        self.bytes.pieces().filter_map(move |piece| {
            let (lo, hi) = (at, at + piece.len());
            at = hi;
            let (from, to) = (start.clamp(lo, hi) - lo, end.clamp(lo, hi) - lo);
            (from < to).then(|| &piece[from..to])
        })
    }
}

/// One copy [`Ros::gather`] took for the digest batch.
struct Taken {
    /// Index of its image in the gather.
    at: usize,
    /// The digest the DIM records for that image.
    digest: Digest,
    bytes: Parts,
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
    pub(crate) fn pairs(&self) -> Vec<(Digest, Parts)> {
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
    /// Bytes those batches hashed.
    static DIGEST_BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One inspection digest batch ([`verify_payloads`]); an empty one is
/// not run.
pub(crate) fn verify_batch(
    pairs: Vec<(Digest, Parts)>,
    plane: &DataPlane,
) -> Vec<Result<Verified<Parts>, CasError>> {
    if pairs.is_empty() {
        return Vec::new();
    }
    #[cfg(test)]
    {
        DIGEST_BATCHES.with(|n| n.set(n.get() + 1));
        let bytes: usize = pairs.iter().map(|(_, b)| b.len()).sum();
        DIGEST_BYTES.with(|n| n.set(n.get() + bytes));
    }
    verify_payloads(pairs, plane)
}

/// One data member of a rebuilt array.
pub(crate) struct RebuiltMember {
    /// The member.
    pub image: ImageId,
    /// Its bytes: hashed once at gather if they survived, once after
    /// reconstruction if they did not.
    pub proof: Verified<Parts>,
    /// True when the buffer already holds these bytes.
    pub resident: bool,
}

/// Result of [`Ros::rebuild`].
pub(crate) struct Rebuilt {
    /// Every data member in group order.
    pub data: Vec<RebuiltMember>,
    /// Every parity member's bytes, P then Q, when each was proven
    /// against its recorded digest; `None` when any was not.
    pub parity: Option<Vec<Verified<Parts>>>,
    /// Bytes the gather read from optical media, per member (data, then
    /// parity). How they are charged is the caller's policy.
    pub media_reads: Vec<u64>,
}

/// A [`Ros::rebuild`] that failed: why, and the inspections of the
/// array's members it made on the way — data then parity, none when it
/// failed before gathering — which a caller that falls back to the
/// members one by one takes instead of inspecting them again.
pub(crate) struct Unrebuilt {
    /// Why the array could not be rebuilt.
    pub error: OlfsError,
    /// One inspection per member, in group order.
    pub seen: Vec<Inspection>,
}

impl From<Unrebuilt> for OlfsError {
    fn from(failed: Unrebuilt) -> OlfsError {
        failed.error
    }
}

impl std::fmt::Debug for Unrebuilt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
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
        let proofs = verify_batch(gathered.pairs(), self.data_plane());
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
            seen[at].found = (resident, info.burned);
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
        proofs: Vec<Result<Verified<Parts>, CasError>>,
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
        for (i, proof) in at.into_iter().zip(verify_batch(pairs, self.data_plane())) {
            seen[i].proof = proof.ok();
        }
        seen
    }

    /// What a fetch that failed saw of `image`: its burned track and the
    /// drive's damage map, and no proof — the read came back with sector
    /// errors, or read cleanly and failed its digest. [`Ros::rebuild`]
    /// takes it instead of reading and hashing the member again. `None`
    /// for an image with a buffer copy, which a gather inspects first.
    pub(crate) fn failed_fetch(&self, image: ImageId) -> Option<Inspection> {
        let info = self.store.get(image).filter(|info| !info.on_disk())?;
        let mut seen = Inspection {
            found: (false, info.burned),
            ..Inspection::default()
        };
        self.read_track(info, &mut seen);
        Some(seen)
    }

    /// Reads the image's burned track into `seen`, damage map and all,
    /// and returns its bytes if no sector failed.
    fn read_track(&self, info: &ImageInfo, seen: &mut Inspection) -> Option<Parts> {
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
    /// `known` holds inspections already made of members — an audit
    /// pass's, or the failed fetch's of the member it read
    /// ([`Ros::failed_fetch`]): each is used as it is while it still
    /// stands for its member, and the members it does not cover are
    /// inspected as one batch.
    ///
    /// A damage map says which sectors the drive could not read, not
    /// that the rest is sound, so when the sector-granular mask yields a
    /// member that fails its digest the array is tried once more with
    /// every unhealthy member masked whole.
    ///
    /// All or nothing: damage past the schema's tolerance in any one
    /// stripe is [`OlfsError::Unrecoverable`] naming the first member
    /// that could not be rebuilt, handed back with the inspections
    /// ([`Unrebuilt`]). Mutates nothing either way.
    pub(crate) fn rebuild(
        &self,
        gid: ArrayId,
        mut known: BTreeMap<ImageId, Inspection>,
    ) -> Result<Rebuilt, Unrebuilt> {
        let Some(group) = self.store.group(gid) else {
            return Err(Unrebuilt {
                error: OlfsError::BadState(format!("no group {gid}")),
                seen: Vec::new(),
            });
        };
        let n_data = group.data.len();
        let members: Vec<ImageId> = group.data.iter().chain(&group.parity).copied().collect();
        let infos: Vec<Option<&ImageInfo>> = members.iter().map(|m| self.store.get(*m)).collect();
        let unrecoverable = |member: usize| OlfsError::Unrecoverable {
            image: members[member],
            array: Some(gid),
        };

        let known: Vec<Option<Inspection>> = members
            .iter()
            .zip(&infos)
            .map(|(m, info)| {
                known
                    .remove(m)
                    .filter(|s| info.is_some_and(|info| s.stands_for(info)))
            })
            .collect();
        let unknown: Vec<ImageId> = members
            .iter()
            .zip(&known)
            .filter_map(|(m, s)| s.is_none().then_some(*m))
            .collect();
        let mut fresh = self.inspect_many(&unknown).into_iter();
        let seen: Vec<Inspection> = known
            .into_iter()
            .map(|s| s.or_else(|| fresh.next()).unwrap_or_default())
            .collect();
        let infos = match infos.iter().position(Option::is_none) {
            None => infos.into_iter().flatten().collect::<Vec<_>>(),
            Some(lost) => {
                let error = OlfsError::ImageLost(members[lost]);
                return Err(Unrebuilt { error, seen });
            }
        };
        let bytes_of = |i: usize| -> &Parts {
            seen[i]
                .proof
                .as_ref()
                .map_or(&seen[i].track, Verified::payload)
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
            // Per lost data member, its rebuilt spans in ascending order.
            let mut patches: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n_data];
            for span in cuts.windows(2) {
                let lost = |i: usize| masks[i].iter().any(|run| run.contains(&span[0]));
                let Some(first_lost) = (0..n_data).find(|&i| lost(i)) else {
                    continue; // Only parity is damaged here; the rewrite regenerates it.
                };
                // The last sector of the stripe may be a partial one.
                let (lo, hi) = (span[0] * SECTOR, (span[1] * SECTOR).min(stripe_len));
                // Each survivor's span, read where its pieces lie.
                let spans: Vec<Option<Span<'_>>> = (0..members.len())
                    .map(|i| {
                        (!lost(i)).then(|| Span {
                            bytes: bytes_of(i),
                            range: lo..hi,
                        })
                    })
                    .collect();
                let data: Vec<Option<&Span<'_>>> =
                    spans[..n_data].iter().map(Option::as_ref).collect();
                let parity = |k: usize| spans.get(n_data + k).and_then(Option::as_ref);
                let rebuilt = redundancy::reconstruct_with(
                    self.cfg.redundancy,
                    &data,
                    &vec![hi - lo; n_data],
                    parity(0),
                    parity(1),
                    plane,
                )
                .map_err(|_| unrecoverable(first_lost))?;
                for (i, span) in (0..n_data).filter(|&i| lost(i)).zip(rebuilt) {
                    if span.len() != hi - lo {
                        return Err(unrecoverable(i));
                    }
                    patches[i].push((lo, span));
                }
            }
            (0..n_data)
                .zip(patches)
                .map(|(i, patches)| {
                    let proof = match &seen[i].proof {
                        Some(proof) => proof.clone(),
                        None => {
                            // The track with the rebuilt spans patched in,
                            // cut back from the stripe to the member.
                            let size = ros_sim::to_usize(infos[i].size);
                            let within = patches.into_iter().filter(|&(lo, _)| lo < size);
                            let cut = within
                                .map(|(lo, span)| (lo, span.slice(..span.len().min(size - lo))));
                            let bytes = seen[i].track.patched(cut);
                            verify_payload(&infos[i].digest, bytes, plane)
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

        let data = match reconstruct(&masks(true)).or_else(|_| reconstruct(&masks(false))) {
            Ok(data) => data,
            Err(error) => return Err(Unrebuilt { error, seen }),
        };
        let parity = seen[n_data..].iter().map(|s| s.proof.clone()).collect();
        Ok(Rebuilt {
            data,
            parity,
            media_reads: seen.iter().map(|s| s.track.len() as u64).collect(),
        })
    }

    /// Puts verified bytes back on the disk buffer as `image`'s copy —
    /// a fetch or a repair — replacing a resident copy (one
    /// that failed inspection, or the caller would not be restoring) —
    /// and marks it used at `at`. Returns the buffer write time for the
    /// caller to charge.
    pub(crate) fn restore(
        &mut self,
        image: ImageId,
        proof: Verified<Parts>,
        at: SimTime,
    ) -> Result<SimDuration, OlfsError> {
        if self.store.get(image).is_some_and(ImageInfo::on_disk) {
            self.drop_buffer_copy(image)?;
        }
        let len = proof.payload().len() as u64;
        let time = self.vm.write_time(self.vol_buffer, len)?;
        self.reserve_buffer(len)?;
        self.store.restore_disk_copy(image, proof)?;
        self.store.touch(image, at);
        Ok(time)
    }

    /// Rewrites a burned array onto fresh media at `at`: the tray is
    /// retired as Failed, the group goes back to parity generation, and
    /// the normal burn pipeline picks it up from there. Every data
    /// member must be on the buffer —
    /// [`crate::dim::ImageStore::reset_group_for_rewrite`] refuses
    /// otherwise, before anything has changed. `proven_parity`, the old
    /// parity with every member proven ([`Rebuilt::parity`]), is
    /// registered again instead of generated.
    pub(crate) fn rewrite_array(
        &mut self,
        gid: ArrayId,
        at: SimTime,
        proven_parity: Option<Vec<Verified<Parts>>>,
    ) -> Result<(), OlfsError> {
        // The reset clears the members' burn locations, so their buffer
        // copies are sole copies again — safe from buffer pressure, like
        // any unburned image, until the re-burn completes.
        let (old_slot, parity_bytes) = self.store.reset_group_for_rewrite(gid, proven_parity)?;
        self.vm.release(self.vol_buffer, parity_bytes)?;
        self.retry_waiting_parity(at);
        if let Some(slot) = old_slot {
            // Best effort: a retired array that will not leave its bay
            // is evicted by the next load like any idle array.
            if let Some(bay) = self.bay_holding(slot) {
                let _ = self.unload_bay(bay, at);
            }
            self.retire_tray(slot);
        }
        self.schedule_parity(gid, at);
        Ok(())
    }

    /// Retires tray `slot` as Failed — the one way a tray leaves
    /// service: a rewrite, a burn that failed to start or came back
    /// spoiled, a burn a crash cut — and lets go of its discs' bytes
    /// wherever the discs are, back in the tray or in a drive of a bay
    /// that could not unload. Each disc keeps its track table
    /// ([`Disc::forget_bytes`]), so what the tray occupies, where a
    /// fault lands and what a rot strike counts stay as they were.
    ///
    /// Nothing reads a retired tray's bytes again: the disc scan reads
    /// `Used` trays only, and no image locates on it — a rewrite cleared
    /// its members' burn locations and dropped its parity images, and an
    /// unfinished burn marked none. A tray some image still locates on
    /// keeps its bytes.
    pub(crate) fn retire_tray(&mut self, slot: SlotAddress) {
        let idx = self.cfg.layout.slot_index(slot);
        self.store.set_da_state(idx, DaState::Failed);
        let located = self
            .store
            .images()
            .any(|i| i.burned.is_some_and(|loc| loc.slot == slot));
        debug_assert!(!located, "tray {idx} retired with an image on it");
        if located {
            return;
        }
        let tray = self.registry.tray(idx).map(<[DiscId]>::to_vec);
        let bay = self.bay_holding(slot);
        for (i, id) in tray.into_iter().flatten().enumerate() {
            if let Some(disc) = self.registry.disc_mut(id) {
                disc.forget_bytes();
                continue;
            }
            let drive = bay.and_then(|b| self.bays[b].drive_mut(i));
            if let Some(disc) = drive.and_then(|d| d.disc_mut()).filter(|d| d.id == id.0) {
                disc.forget_bytes();
            }
        }
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

    #[test]
    fn a_repair_points_the_forepart_at_the_rebuilt_bytes() {
        use bytes::Pieces;
        let mut a = cold_array(Redundancy::Raid5, 1);
        let (path, data, image) = a.files[0].clone();
        a.rot(image);
        let read = a.ros.read_file(&path).unwrap();
        assert_eq!(read.data.as_ref(), data.as_slice());
        assert_eq!(a.ros.counters().latent_repairs, 1);
        let sealed = a.ros.store.get(image).unwrap().sealed.clone().unwrap();
        let forepart = a.ros.mv.get(&path).unwrap().forepart().unwrap().clone();
        assert_eq!(forepart.as_ref(), &data[..forepart.len()]);
        let inside = sealed.parts().pieces().any(|piece| {
            let range = piece.as_ptr_range();
            range.contains(&forepart.as_ptr()) && forepart.as_ptr_range().end <= range.end
        });
        assert!(
            inside,
            "the forepart still views the bytes the repair replaced"
        );
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

    /// What one [`Ros::rebuild`] gave back: each data member's digest,
    /// or the error.
    type RebuildOutcome = Result<Vec<String>, String>;

    /// Seeded overwrites of burned members: each case overwrites one byte
    /// range (offset, length and fill drawn from the seed) on each of 1 to
    /// tolerance + 1 members, data or parity, runs `rebuild`, checks it,
    /// and puts the original discs back.
    fn rebuild_sweep(
        redundancy: Redundancy,
        tolerance: usize,
        threads: usize,
    ) -> Vec<RebuildOutcome> {
        let mut a = cold_array(redundancy, threads);
        let group = a.ros.store.group(a.gid).unwrap();
        let members: Vec<ImageId> = group.data.iter().chain(&group.parity).copied().collect();
        let mut rng = ros_sim::SimRng::seed_from(0x7d);
        let mut outcomes = Vec::new();
        for _ in 0..12 {
            let victims = 1 + rng.index(tolerance + 1);
            let mut pool = members.clone();
            let mut originals = Vec::new();
            let mut changed = 0;
            for _ in 0..victims {
                let image = pool.swap_remove(rng.index(pool.len()));
                let disc = a.disc(image);
                let original = disc.clone();
                let Ok((Payload::Inline(parts), _)) = original.read_image_raw(image.0) else {
                    panic!("{image}: a burned member carries its bytes");
                };
                let mut bytes = parts.to_bytes().to_vec();
                let offset = rng.index(bytes.len());
                let len = 1 + rng.index((bytes.len() - offset).min(20_000));
                let fill = u8::try_from(rng.index(256)).unwrap();
                let range = offset..offset + len;
                if bytes[range.clone()].iter().any(|&b| b != fill) {
                    changed += 1;
                }
                bytes[range].fill(fill);
                let class = ros_drive::media::DiscClass::Custom {
                    capacity: 512 * 1024,
                };
                let mut mutated = Disc::blank(original.id, class, ros_drive::MediaKind::Worm);
                mutated
                    .burn_all_once(image.0, Payload::inline(bytes))
                    .unwrap();
                *disc = mutated;
                originals.push((image, original));
            }
            let outcome = match a.ros.rebuild(a.gid, BTreeMap::new()) {
                Ok(rebuilt) => {
                    assert!(
                        changed <= tolerance,
                        "{changed} members rebuilt past tolerance"
                    );
                    for m in &rebuilt.data {
                        let recorded = a.ros.store.get(m.image).unwrap().digest;
                        assert_eq!(m.proof.digest(), recorded, "{}", m.image);
                    }
                    Ok(rebuilt
                        .data
                        .iter()
                        .map(|m| m.proof.digest().to_hex())
                        .collect())
                }
                Err(Unrebuilt { error: e, .. }) => {
                    assert!(changed > tolerance, "{changed} changed members: {e}");
                    assert!(matches!(e, OlfsError::Unrecoverable { .. }), "{e}");
                    Err(e.to_string())
                }
            };
            outcomes.push(outcome);
            for (image, original) in originals {
                *a.disc(image) = original;
            }
        }
        outcomes
    }

    #[test]
    fn rebuild_of_overwritten_members_is_exact_or_unrecoverable() {
        for (redundancy, tolerance) in [(Redundancy::Raid5, 1), (Redundancy::Raid6, 2)] {
            let one = rebuild_sweep(redundancy, tolerance, 1);
            assert!(one.iter().any(Result::is_ok), "{redundancy:?}: {one:?}");
            assert!(one.iter().any(Result::is_err), "{redundancy:?}: {one:?}");
            assert_eq!(
                one,
                rebuild_sweep(redundancy, tolerance, 2),
                "{redundancy:?}"
            );
        }
    }

    #[test]
    fn rebuild_gathers_as_a_batch_what_it_gathered_one_by_one() {
        let a = rot_plus_sector_errors(2);
        let rebuilt = a.ros.rebuild(a.gid, BTreeMap::new()).unwrap();
        assert_eq!(rebuilt.media_reads, [315_392; 4]);
        let members: Vec<(ImageId, bool, String)> = rebuilt
            .data
            .iter()
            .map(|m| (m.image, m.resident, m.proof.digest().to_hex()))
            .collect();
        // Re-pinned by PR 23: the images carry their files' mtimes, and a
        // write's mtime now includes the kernel-user switches before it.
        // Re-pinned again when `CHUNK_BYTES` went from 256 KiB to 64 KiB,
        // and from 64 KiB to 16 KiB: the same image bytes, hashed as
        // different leaves.
        let digests = [
            "6eba2015e33b18610569bbfd562d3f39e0cb7af751d3a2007531c6944ed0da48",
            "443822aaff40769ec32915efa69bf497d3405f30070fc02d809cf6f32205d9d4",
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
        let mut rotted = info.payload.as_ref().unwrap().to_bytes().to_vec();
        rotted[100] ^= 0xA5;
        info.payload = Some(Parts::from(rotted));
        let (report, batches) = batches_of(|| a.ros.audit_sample(64));
        // The healthy track behind the rotted copy settles the image.
        assert_eq!((report.sampled, report.verified), (4, 4), "{report:?}");
        assert_eq!(batches, 2);
    }

    #[test]
    fn a_rebuild_gathers_its_members_in_one_digest_batch() {
        let a = rot_plus_sector_errors(2);
        let (rebuilt, batches) = batches_of(|| a.ros.rebuild(a.gid, BTreeMap::new()).unwrap());
        assert_eq!(rebuilt.data.len(), 2);
        assert_eq!(batches, 1);
    }

    /// `f`'s result with the inspection digest batches it ran and the
    /// bytes they hashed.
    fn hashed_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        DIGEST_BYTES.with(|n| n.set(0));
        let (out, batches) = batches_of(f);
        (out, batches, DIGEST_BYTES.with(std::cell::Cell::get))
    }

    #[test]
    fn a_fetch_repair_hashes_no_member_the_fetch_read() {
        // Rot: the fetch read the member cleanly and its digest failed.
        // Sector errors: the drive refused the read. Either way the
        // rebuild takes the fetch's view of the member and hashes only
        // the other three tracks.
        for sectors in [false, true] {
            let mut a = cold_array(Redundancy::Raid6, 2);
            let (path, data, image) = a.files[0].clone();
            if sectors {
                a.break_sectors(image, &[3, 4]);
            } else {
                a.rot(image);
            }
            let (read, batches, bytes) = hashed_by(|| a.ros.read_file(&path).unwrap());
            assert_eq!(read.data.as_ref(), data.as_slice(), "sectors={sectors}");
            let c = a.ros.counters();
            assert_eq!(c.repairs + c.latent_repairs, 1);
            assert_eq!((batches, bytes), (1, 3 * 315_392), "sectors={sectors}");
        }
    }

    /// Inline track bytes the rack's discs hold, in its trays: on
    /// Failed trays, and in all.
    fn inline_bytes(ros: &Ros) -> (usize, usize) {
        let (mut failed, mut all) = (0, 0);
        for idx in 0..ros.cfg.layout.total_slots() {
            let discs = ros.registry.tray(idx).unwrap().iter();
            let held: usize = discs
                .map(|id| ros.registry.disc(*id).expect("every disc home"))
                .flat_map(Disc::tracks)
                .map(|t| match t.payload() {
                    Payload::Inline(bytes) => bytes.len(),
                    Payload::Synthetic { .. } => 0,
                })
                .sum();
            if ros.store.da_state(idx) == Some(DaState::Failed) {
                failed += held;
            }
            all += held;
        }
        (failed, all)
    }

    #[test]
    fn a_retired_tray_holds_no_bytes_however_many_repairs() {
        let mut a = cold_array(Redundancy::Raid6, 1);
        let live = |a: &ColdArray| -> usize {
            let group = a.ros.store.group(a.gid).unwrap();
            let members = group.data.iter().chain(&group.parity);
            members
                .map(|m| ros_sim::to_usize(a.ros.store.get(*m).unwrap().size))
                .sum()
        };
        assert_eq!(inline_bytes(&a.ros), (0, live(&a)));
        for round in 0..4 {
            let rotted = a.files[round % 2].2;
            a.rot(rotted);
            let report = a.ros.audit_sample(64);
            assert_eq!(report.repaired, [rotted], "round {round}: {report:?}");
            a.ros.flush().unwrap();
            a.ros.evict_all_burned_copies();
            a.ros.unload_all_bays().unwrap();
            assert_eq!(a.ros.status().da_counts.2, round + 1, "round {round}");
            assert_eq!(inline_bytes(&a.ros), (0, live(&a)), "round {round}");
        }
        a.assert_cold_reads_need_no_repair();
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
        let proofs = verify_payloads(pass.copies(), a.ros.data_plane());
        let report = a.ros.audit_end(pass, proofs);
        assert_eq!((report.sampled, report.verified), (4, 4), "{report:?}");
        let agg = a.ros.bays[0].aggregate_read_speed(a.ros.cfg.disc_class);
        assert_eq!(report.elapsed, agg.time_for(scanned), "the tracks only");
    }

    #[test]
    fn an_audit_that_heals_a_rotted_member_hashes_one_digest_batch() {
        let mut a = cold_array(Redundancy::Raid6, 2);
        let rotted = a.files[0].2;
        a.rot(rotted);
        // The pass's inspections feed the rebuild, so its gather is the
        // only inspection batch; the rebuilt member's verification is not
        // one.
        let (report, batches) = batches_of(|| a.ros.audit_sample(64));
        assert_eq!(report.repaired, [rotted], "{report:?}");
        assert_eq!(batches, 1);
        a.assert_cold_reads_need_no_repair();
    }

    #[test]
    fn a_member_cached_or_evicted_after_the_pass_began_is_inspected_afresh() {
        // Cached: as in `an_audit_pass_verifies_and_charges_what_it_gathered`,
        // a read between begin and end caches the member the pass read
        // from media. The heal inspects its buffer copy — one batch —
        // and neither reads nor restores it.
        let mut a = cold_array(Redundancy::Raid6, 2);
        let rotted = a.files[1].2;
        a.rot(rotted);
        let pass = a.ros.audit_begin(64);
        let (path, data, _) = a.files[0].clone();
        assert_eq!(
            a.ros.read_file(&path).unwrap().data.as_ref(),
            data.as_slice()
        );
        let proofs = verify_payloads(pass.copies(), a.ros.data_plane());
        let (report, batches) = batches_of(|| a.ros.audit_end(pass, proofs));
        assert_eq!(report.repaired, [rotted], "{report:?}");
        assert_eq!(batches, 1, "the cached member, inspected afresh");
        let agg = a.ros.bays[0].aggregate_read_speed(a.ros.cfg.disc_class);
        let size = a.ros.store.get(rotted).unwrap().size;
        let restore = a.ros.vm.write_time(a.ros.vol_buffer, size).unwrap();
        assert_eq!(
            report.elapsed,
            agg.time_for(4 * 315_392) + agg.time_for(3 * 315_392) + restore,
            "the scan, the three tracks, one restore"
        );
        a.ros.run_audit(&report);
        a.assert_cold_reads_need_no_repair();

        // Evicted: the pass verified a buffer copy that is gone by the
        // heal. Trusting the pass would rewrite the array with that
        // member on no buffer (`SoleCopy`); inspected afresh, its track
        // is restored.
        let mut a = cold_array(Redundancy::Raid6, 2);
        let (path, _, cached) = a.files[0].clone();
        a.ros.read_file(&path).unwrap();
        a.ros.unload_all_bays().unwrap();
        let rotted = a.files[1].2;
        a.rot(rotted);
        let pass = a.ros.audit_begin(64);
        a.ros.evict_all_burned_copies();
        assert!(!a.ros.store.get(cached).unwrap().on_disk());
        let proofs = verify_payloads(pass.copies(), a.ros.data_plane());
        let report = a.ros.audit_end(pass, proofs);
        assert_eq!(report.repaired, [rotted], "{report:?}");
        assert_eq!(a.data_on_buffer(), 2);
        a.ros.run_audit(&report);
        a.assert_cold_reads_need_no_repair();
    }

    /// Each member's burned track, held: while a test holds it, no new
    /// allocation can take its address, though the retired tray lets go
    /// of its bytes.
    struct Tracks(Vec<Parts>);

    impl Tracks {
        fn of(a: &ColdArray, members: &[ImageId]) -> Tracks {
            Tracks(
                members
                    .iter()
                    .map(|m| {
                        let loc = a.ros.store.location_of(*m).unwrap();
                        let Ok((Payload::Inline(parts), _)) =
                            a.ros.disc_at(loc).unwrap().read_image_raw(m.0)
                        else {
                            panic!("no inline track for {m}");
                        };
                        parts.clone()
                    })
                    .collect(),
            )
        }

        /// The address of the first byte of each track.
        fn addresses(&self) -> Vec<usize> {
            let first = |parts: &Parts| parts.pieces().next().unwrap().as_ptr() as usize;
            self.0.iter().map(first).collect()
        }
    }

    #[test]
    fn a_reburn_registers_proven_parity_and_regenerates_rotted_parity() {
        // Data rot: P and Q read back proven, and the re-burn burns the
        // very bytes the old tray holds, generating nothing.
        let mut a = cold_array(Redundancy::Raid6, 1);
        let old = [a.parity(0), a.parity(1)];
        let before = Tracks::of(&a, &old);
        a.rot(a.files[0].2);
        let report = a.ros.audit_sample(64);
        assert_eq!(report.repaired.len(), 1, "{report:?}");
        let new = [a.parity(0), a.parity(1)];
        assert!(new.iter().all(|p| !old.contains(p)), "fresh parity ids");
        assert_eq!(Tracks::of(&a, &new).addresses(), before.addresses());
        a.assert_cold_reads_need_no_repair();

        // Parity rot: P fails its digest, so P and Q are both generated
        // again — neither is the old bytes' allocation.
        let mut a = cold_array(Redundancy::Raid6, 1);
        let old = [a.parity(0), a.parity(1)];
        let before = Tracks::of(&a, &old);
        a.rot(old[0]);
        let report = a.ros.audit_sample(64);
        assert_eq!(report.repaired, [old[0]], "{report:?}");
        let after = Tracks::of(&a, &[a.parity(0), a.parity(1)]).addresses();
        let before = before.addresses();
        assert!(
            after.iter().all(|p| !before.contains(p)),
            "{before:?} {after:?}"
        );
        a.assert_cold_reads_need_no_repair();
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
            a.ros
                .rebuild(gid, BTreeMap::new())
                .err()
                .map(OlfsError::from),
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
    fn a_forged_digest_is_unrecoverable_and_its_bytes_are_never_served() {
        // A burned member's recorded digest overwritten with its
        // sibling's: the media are intact, but no copy and no rebuild can
        // hash to the record, so every rung must refuse the bytes.
        let mut a = cold_array(Redundancy::Raid6, 1);
        let (forged, sibling) = (a.files[0].2, a.files[1].2);
        let theirs = a.ros.store.get(sibling).unwrap().digest;
        a.ros.store.get_mut(forged).unwrap().digest = theirs;
        let gid = a.gid;
        let path = a.files[0].0.clone();
        assert_eq!(
            a.ros.read_file(&path).err(),
            Some(OlfsError::Unrecoverable {
                image: forged,
                array: Some(gid)
            })
        );
        assert_eq!(a.data_on_buffer(), 0, "no buffer copy restored");
        // The failed fetch left the array in a bay; with the tray home the
        // audit finds the member rotted and out of local reach.
        a.ros.unload_all_bays().unwrap();
        let (report, _) = audit(&mut a);
        assert_eq!(report.rotted, [forged], "{report:?}");
        assert_eq!(report.unrepairable, [forged], "{report:?}");
        assert!(report.repaired.is_empty(), "{report:?}");
        assert_eq!(a.data_on_buffer(), 0, "the audit restores nothing");
        assert!(a.ros.read_file(&path).is_err());
        // The sibling whose digest was copied still reads back exact.
        let (path, data, _) = a.files[1].clone();
        assert_eq!(a.ros.read_file(&path).unwrap().data.as_ref(), data);
    }

    #[test]
    fn a_disc_scan_leaves_out_the_member_whose_digest_was_forged() {
        // As above, but the namespace is rebuilt from the discs: the scan
        // parses only digest-verified members, so the forged member's
        // file is not recovered and every other file reads back exact.
        let mut a = cold_array(Redundancy::Raid6, 1);
        let (forged, sibling) = (a.files[0].2, a.files[1].2);
        let theirs = a.ros.store.get(sibling).unwrap().digest;
        a.ros.store.get_mut(forged).unwrap().digest = theirs;
        a.ros.recover(crate::recovery::MvSource::DiscScan).unwrap();
        let path = &a.files[0].0;
        assert_eq!(
            a.ros.read_file(path).err(),
            Some(OlfsError::NotFound(path.to_string()))
        );
        for (path, data, _) in &a.files[1..] {
            assert_eq!(a.ros.read_file(path).unwrap().data.as_ref(), data);
        }
        assert_eq!(a.ros.verify_consistency(), []);
    }

    #[test]
    fn damaged_parity_rebuilds_no_data_and_is_regenerated_by_the_rewrite() {
        let mut a = cold_array(Redundancy::Raid6, 1);
        let (p, q) = (a.parity(0), a.parity(1));
        a.rot(p);
        a.break_sectors(q, &[1]);
        let rebuilt = a.ros.rebuild(a.gid, BTreeMap::new()).unwrap();
        for (member, (_, data, image)) in rebuilt.data.iter().zip(&a.files) {
            assert_eq!(member.image, *image);
            assert_eq!(member.proof.payload(), data_image_bytes(&a, *image, data));
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

    #[test]
    fn a_rewrite_releases_the_buffer_bytes_of_the_parity_it_drops() {
        let mut r = Ros::new(RosConfig::tiny());
        for i in 0..14u8 {
            let path: UdfPath = format!("/rw/{i}").parse().unwrap();
            r.write_file(&path, vec![i; 700_000]).unwrap();
        }
        r.flush().unwrap();
        let resident = |r: &Ros| -> u64 {
            r.store
                .images()
                .filter_map(|i| i.payload.as_ref())
                .map(|p| p.len() as u64)
                .sum()
        };
        let gid = r.store.groups_in_state(GroupState::Burned)[0];
        let parity = r.store.group(gid).unwrap().parity.clone();
        assert!(!parity.is_empty());
        assert!(parity.iter().all(|&p| r.store.get(p).unwrap().on_disk()));
        r.rewrite_array(gid, r.now(), None).unwrap();
        assert_eq!(r.status().buffer_usage.0, resident(&r));
        assert!(r.verify_consistency().is_empty());
        // The re-burn registers fresh parity and charges it once.
        r.flush().unwrap();
        assert_eq!(r.store.group(gid).unwrap().state, GroupState::Burned);
        assert_eq!(r.status().buffer_usage.0, resident(&r));
        assert!(r.verify_consistency().is_empty());
    }

    /// The image bytes the store would hold for `image`, checked to
    /// carry the file.
    fn data_image_bytes<'a>(a: &'a ColdArray, image: ImageId, file: &[u8]) -> &'a Parts {
        let loc = a.ros.store.location_of(image).unwrap();
        let disc = a.ros.disc_at(loc).unwrap();
        let Ok((Payload::Inline(bytes), _)) = disc.read_image_raw(image.0) else {
            panic!("no inline track for {image}");
        };
        assert!(bytes.to_bytes().windows(64).any(|w| w == &file[..64]));
        bytes
    }
}
