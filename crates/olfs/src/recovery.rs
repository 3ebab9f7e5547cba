//! Recovery: one way back to a running engine, whatever survived.
//!
//! [`Ros::recover`] takes the metadata volume from one [`MvSource`] and
//! installs it: every view derived from the MV — the image → paths map
//! and the dedup catalog — is rebuilt from its version entries. The
//! sources are the paper's:
//!
//! 1. **Power loss** (§4.2): "Once ROS crashes, OLFS can recover from its
//!    previous checkpoint state with all state information stored in MV."
//! 2. **MV snapshot burning** (§4.2): "MV is periodically burned into
//!    discs. Once MV fails, the entire global namespace can be recovered
//!    from discs... As an experiment, ROS took half an hour to recover MV
//!    from 120 discs."
//! 3. **Disc-scan reconstruction** (§4.4): because every image carries
//!    its files under their *unique global paths* with full ancestor
//!    directories, "Even if all electronic and mechanical components
//!    failed, all or partial data can be reconstructed by scanning all
//!    survived discs."
//!
//! Both disc sources read the library through the repair rung
//! ([`Ros::rebuild`]), so a recovery tolerates exactly the damage a read
//! tolerates.

use crate::dedup::DedupLayer;
use crate::dim::{DaState, GroupState};
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::ImageId;
use crate::index::{LocTag, VersionEntry};
use crate::mv::MetadataVolume;
use crate::wbm::{parse_link_file_name, parse_shadow_file_name, LinkFile};
use bytes::Bytes;
use ros_cas::Verified;
use ros_sim::SimDuration;
use ros_udf::{SealedImage, UdfPath};
use std::collections::BTreeMap;

/// Directory MV snapshots are written under.
pub const MV_SNAPSHOT_DIR: &str = "/.mv-snapshots";

/// Chunk size for snapshot part files.
const SNAPSHOT_PART_BYTES: usize = 512 * 1024;

/// Where [`Ros::recover`] takes the metadata volume from.
#[derive(Clone, Debug)]
pub enum MvSource {
    /// Power loss: the MV on its SSD RAID-1 survived as it was. Charges
    /// nothing.
    Live,
    /// A volume from elsewhere — a guardian rack's copy
    /// ([`MetadataVolume::restore`] of its snapshot text), or a blank
    /// one. Charges nothing; fetching the copy was the caller's read.
    Volume(MetadataVolume),
    /// The newest MV snapshot burned to this rack's discs (§4.2).
    /// Charges the scan: every used tray's load and unload, and its
    /// media reads at the bay's aggregate read rate.
    DiscSnapshot,
    /// The namespace the files on the discs describe (§4.4), charged as
    /// [`MvSource::DiscSnapshot`].
    DiscScan,
}

/// What a recovery read and installed.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Trays the scan loaded.
    pub trays_read: usize,
    /// Discs the scan read a track from.
    pub discs_read: usize,
    /// Digest-verified data images the scan parsed.
    pub images_parsed: usize,
    /// Files in the installed namespace.
    pub files_recovered: usize,
    /// Simulated time the recovery took.
    pub elapsed: SimDuration,
}

/// Every matching file occurrence a disc scan found; the same path may
/// appear in several images (split subfiles, version shadows).
#[derive(Default)]
struct ScanResult {
    report: RecoveryReport,
    files: Vec<(UdfPath, ImageId, Bytes)>,
}

impl Ros {
    /// Burns a snapshot of the current MV into the library (§4.2's
    /// periodic MV burn). The snapshot is chunked into part files under
    /// [`MV_SNAPSHOT_DIR`], written through the normal PBW path, and
    /// flushed to disc. Returns `(sequence_number, part_count)`.
    pub fn burn_mv_snapshot(&mut self) -> Result<(u64, usize), OlfsError> {
        let seq = self
            .mv
            .get_state("mv_snapshot_seq")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
            + 1;
        let snapshot = self.mv.snapshot().into_bytes();
        let parts: Vec<&[u8]> = snapshot.chunks(SNAPSHOT_PART_BYTES).collect();
        let count = parts.len();
        for (i, part) in parts.into_iter().enumerate() {
            let path: UdfPath = format!("{MV_SNAPSHOT_DIR}/{seq:06}/part-{i:06}")
                .parse()
                .map_err(|e| OlfsError::Udf(format!("{e}")))?;
            self.write_file(&path, part.to_vec())?;
        }
        self.flush()?;
        self.mv.put_state("mv_snapshot_seq", serde_json::json!(seq));
        Ok((seq, count))
    }

    /// The one way back: takes the metadata volume from `from`, installs
    /// it, and rebuilds the image → paths map and the dedup catalog from
    /// its version entries. The disc sources consult no live MV (it is
    /// assumed lost) and fail with [`OlfsError::BadState`] when no
    /// snapshot survived; a recovery that fails installs nothing.
    pub fn recover(&mut self, from: MvSource) -> Result<RecoveryReport, OlfsError> {
        let start = self.now();
        let snapshots = |path: &UdfPath| path.as_str().starts_with(MV_SNAPSHOT_DIR);
        let (mv, mut report) = match from {
            MvSource::Live => (std::mem::take(&mut self.mv), RecoveryReport::default()),
            MvSource::Volume(mv) => (mv, RecoveryReport::default()),
            MvSource::DiscSnapshot => {
                let scan = self.scan_burned_images(snapshots)?;
                (newest_snapshot(scan.files)?, scan.report)
            }
            MvSource::DiscScan => {
                let scan = self.scan_burned_images(|path| !snapshots(path))?;
                (namespace_of(scan.files)?, scan.report)
            }
        };
        self.mv = mv;
        self.image_paths.clear();
        self.dedup = DedupLayer::default();
        for (path, idx) in self.mv.iter_files() {
            for v in idx.versions() {
                self.dedup.adopt(path, v);
                for seg in &v.segs {
                    self.image_paths
                        .entry(*seg)
                        .or_default()
                        .insert(path.clone());
                }
            }
        }
        report.files_recovered = self.mv.file_count();
        report.elapsed = self.now().duration_since(start);
        Ok(report)
    }

    /// Exports the current MV as a portable snapshot string — the same
    /// serialization [`Ros::burn_mv_snapshot`] chunks onto discs. A
    /// cluster front end ships this text to guardian racks so the
    /// namespace survives whole-rack loss (restore the text with
    /// [`MetadataVolume::restore`], then [`Ros::recover`] from
    /// [`MvSource::Volume`]).
    pub fn export_namespace(&self) -> String {
        self.mv.snapshot()
    }

    /// Scans every Used tray: loads it, reads each of its burned arrays
    /// through [`Ros::rebuild`] — or, past the array's tolerance, takes
    /// the members [`Ros::inspect_many`] verifies — and parses every
    /// digest-verified data member, collecting the files matching
    /// `keep`. Media reads are charged at the bay's aggregate read rate,
    /// as the audit charges them. The image parse fans out on the data
    /// plane, in member order, so the result is identical at any thread
    /// count.
    fn scan_burned_images(
        &mut self,
        keep: impl Fn(&UdfPath) -> bool + Sync,
    ) -> Result<ScanResult, OlfsError> {
        let mut scan = ScanResult::default();
        let layout = self.cfg.layout;
        let burned = self.store.groups_in_state(GroupState::Burned);
        let used: Vec<u32> = (0..layout.total_slots())
            .filter(|i| self.store.da_state(*i) == Some(DaState::Used))
            .collect();
        for slot_index in used {
            let slot = layout.slot_at(slot_index);
            // Free a bay (the scan monopolises one bay's worth of
            // drives; scans run on an otherwise idle system).
            let (bay, freed) = self
                .take_bay(self.now())
                .ok_or(OlfsError::NoDriveAvailable)?;
            let loaded = self.load_bay(slot, bay, self.now() + freed)?;
            self.run_for(freed + loaded);
            scan.report.trays_read += 1;
            let mut tracks: Vec<u64> = Vec::new();
            let mut proofs: Vec<(ImageId, Verified<Bytes>)> = Vec::new();
            for group in burned.iter().filter_map(|gid| self.store.group(*gid)) {
                if group.slot != Some(slot) {
                    continue;
                }
                match self.rebuild(group.id) {
                    Ok(rebuilt) => {
                        tracks.extend(rebuilt.media_reads);
                        proofs.extend(rebuilt.data.into_iter().map(|m| (m.image, m.proof)));
                    }
                    Err(_) => {
                        let members: Vec<ImageId> =
                            group.data.iter().chain(&group.parity).copied().collect();
                        let seen = self.inspect_many(&members);
                        tracks.extend(seen.iter().map(|s| s.track.len() as u64));
                        let data = members.into_iter().zip(seen).take(group.data.len());
                        proofs.extend(data.filter_map(|(image, s)| Some((image, s.proof?))));
                    }
                }
            }
            scan.report.discs_read += tracks.iter().filter(|len| **len > 0).count();
            let keep = &keep;
            let parsed = self.data_plane().map(&proofs, |(image, proof)| {
                let img = SealedImage::from_bytes(proof.clone().into_bytes()).ok()?;
                let files = img.scan_files().into_iter().filter(|(path, _)| keep(path));
                let read = |(path, _)| img.read(&path).ok().map(|data| (path, *image, data));
                Some(files.filter_map(read).collect::<Vec<_>>())
            });
            for files in parsed.into_iter().flatten() {
                scan.report.images_parsed += 1;
                scan.files.extend(files);
            }
            let agg = self.bays[bay].aggregate_read_speed(self.cfg.disc_class);
            self.run_for(agg.time_for(tracks.iter().sum()));
            let unloaded = self.unload_bay(bay, self.now())?;
            self.run_for(unloaded);
        }
        Ok(scan)
    }
}

/// The newest snapshot sequence among `files`, restored.
fn newest_snapshot(files: Vec<(UdfPath, ImageId, Bytes)>) -> Result<MetadataVolume, OlfsError> {
    // sequence -> part path -> bytes, both in name order.
    let mut by_seq: BTreeMap<String, BTreeMap<UdfPath, Bytes>> = BTreeMap::new();
    for (path, _image, bytes) in files {
        let mut comps = path.components();
        if let (Some(_), Some(seq), Some(_), None) =
            (comps.next(), comps.next(), comps.next(), comps.next())
        {
            let seq = seq.to_owned();
            by_seq.entry(seq).or_default().insert(path, bytes);
        }
    }
    let (_seq, parts) = by_seq
        .into_iter()
        .next_back()
        .ok_or_else(|| OlfsError::BadState("no MV snapshot found on discs".into()))?;
    let mut joined = Vec::new();
    for part in parts.into_values() {
        joined.extend_from_slice(&part);
    }
    MetadataVolume::restore(
        core::str::from_utf8(&joined)
            .map_err(|_| OlfsError::BadState("snapshot not UTF-8".into()))?,
    )
}

/// The namespace the file occurrences found on disc describe (§4.4):
/// a file's own name is its first version, its subfiles ordered by the
/// offsets their link files record (the first subfile has none, offset
/// 0); each version shadow is the numbered version of the file it names.
/// A first version a link file shows to be missing a subfile — one
/// placed elsewhere than where the subfiles before it end, or a total
/// the subfiles found do not add up to — is left out, not served short.
fn namespace_of(files: Vec<(UdfPath, ImageId, Bytes)>) -> Result<MetadataVolume, OlfsError> {
    // (file, image) -> the link file stitching that image's subfile on.
    let mut links: BTreeMap<(UdfPath, ImageId), LinkFile> = BTreeMap::new();
    // file -> (subfiles `(image, len)`, shadows `(ver, image, len, shadow)`).
    type Found = (Vec<(ImageId, u64)>, Vec<(u32, ImageId, u64, UdfPath)>);
    let mut found: BTreeMap<UdfPath, Found> = BTreeMap::new();
    for (path, image, bytes) in files {
        let (Some(parent), Some(name)) = (path.parent(), path.name()) else {
            continue;
        };
        let len = bytes.len() as u64;
        if let Some(orig) = parse_link_file_name(name) {
            if let Ok(link) = LinkFile::from_json(core::str::from_utf8(&bytes).unwrap_or("")) {
                links.insert((parent.join(orig), image), link);
            }
        } else if let Some((ver, orig)) = parse_shadow_file_name(name) {
            let shadows = &mut found.entry(parent.join(orig)).or_default().1;
            shadows.push((ver, image, len, path.clone()));
        } else {
            found.entry(path).or_default().0.push((image, len));
        }
    }

    let mut mv = MetadataVolume::new();
    for (path, (subfiles, mut shadows)) in found {
        let link = |image: ImageId| links.get(&(path.clone(), image));
        let mut parts: Vec<(u64, ImageId, u64)> = subfiles
            .into_iter()
            .map(|(image, len)| (link(image).map_or(0, |l| l.offset), image, len))
            .collect();
        parts.sort_unstable();
        parts.dedup_by_key(|(_, image, _)| *image);
        let size: u64 = parts.iter().map(|(_, _, len)| len).sum();
        let mut end = 0;
        let whole = !parts.is_empty()
            && parts.iter().all(|(_, image, len)| {
                let start = end;
                end += len;
                link(*image).is_none_or(|l| l.offset == start && l.total_size == size)
            });
        let first = whole.then(|| {
            let (segs, seg_sizes) = parts
                .into_iter()
                .map(|(_, image, len)| (image, len))
                .unzip();
            VersionEntry::new(LocTag::Disc, size, 0, segs, seg_sizes)
        });
        if first.is_none() && shadows.is_empty() {
            continue;
        }
        let idx = mv.create(&path)?;
        if let Some(first) = first {
            idx.push_version(first);
        }
        shadows.sort_unstable();
        for (ver, image, size, shadow) in shadows {
            // Keep version numbers aligned: a gap repeats the entry
            // before it.
            while let Some(prev) = idx.latest().filter(|e| e.ver + 1 < ver).cloned() {
                idx.push_version(prev);
            }
            idx.push_version(VersionEntry {
                stored: Some(shadow),
                ..VersionEntry::new(LocTag::Disc, size, 0, vec![image], vec![size])
            });
        }
    }
    Ok(mv)
}
