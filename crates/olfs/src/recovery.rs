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
use bytes::{Bytes, Parts};
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
    /// The highest MV snapshot sequence any parsed image names.
    newest_seq: Option<u64>,
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
        let (mut mv, mut report, newest_seq) = match from {
            MvSource::Live => (std::mem::take(&mut self.mv), Default::default(), None),
            MvSource::Volume(mv) => (mv, Default::default(), None),
            MvSource::DiscSnapshot => {
                let scan = self.scan_burned_images(snapshots)?;
                (newest_snapshot(scan.files)?, scan.report, scan.newest_seq)
            }
            MvSource::DiscScan => {
                let scan = self.scan_burned_images(|path| !snapshots(path))?;
                (namespace_of(scan.files)?, scan.report, scan.newest_seq)
            }
        };
        // The next snapshot burns past every sequence on disc.
        if let Some(seq) = newest_seq {
            mv.put_state("mv_snapshot_seq", serde_json::json!(seq));
        }
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
    /// the members the rebuild's own inspections verified — and parses every
    /// digest-verified data member, collecting the files matching
    /// `keep` and the newest snapshot sequence any image names. Media
    /// reads are charged at the bay's aggregate read rate, as the audit
    /// charges them. The image parse fans out on the data plane, in
    /// member order, so the result is identical at any thread count.
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
            let mut proofs: Vec<(ImageId, Verified<Parts>)> = Vec::new();
            for group in burned.iter().filter_map(|gid| self.store.group(*gid)) {
                if group.slot != Some(slot) {
                    continue;
                }
                match self.rebuild(group.id, BTreeMap::new()) {
                    Ok(rebuilt) => {
                        tracks.extend(rebuilt.media_reads);
                        proofs.extend(rebuilt.data.into_iter().map(|m| (m.image, m.proof)));
                    }
                    Err(failed) => {
                        let members = group.data.iter().chain(&group.parity);
                        tracks.extend(failed.seen.iter().map(|s| s.track.len() as u64));
                        let data = members.zip(failed.seen).take(group.data.len());
                        proofs.extend(data.filter_map(|(image, s)| Some((*image, s.proof?))));
                    }
                }
            }
            scan.report.discs_read += tracks.iter().filter(|len| **len > 0).count();
            let keep = &keep;
            let parsed = self.data_plane().map(&proofs, |(image, proof)| {
                let img = SealedImage::from_bytes(proof.clone().into_bytes()).ok()?;
                let names = img.scan_files();
                let newest_seq = names.iter().filter_map(|(p, _)| snapshot_seq(p)).max();
                let files = names.into_iter().filter(|(path, _)| keep(path));
                let read = |(path, _)| img.read(&path).ok().map(|data| (path, *image, data));
                Some((newest_seq, files.filter_map(read).collect::<Vec<_>>()))
            });
            for (newest_seq, files) in parsed.into_iter().flatten() {
                scan.report.images_parsed += 1;
                scan.newest_seq = scan.newest_seq.max(newest_seq);
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

/// The sequence of the MV snapshot directory `path` lies in, if any.
fn snapshot_seq(path: &UdfPath) -> Option<u64> {
    let dir = path.parent()?;
    let seq = dir.name()?.parse().ok()?;
    (dir.parent()?.as_str() == MV_SNAPSHOT_DIR).then_some(seq)
}

/// A version shadow found on disc: `(version, image, bytes, shadow path)`.
type Shadow = (u32, ImageId, Bytes, UdfPath);
/// A file's first version as its subfiles `(image, bytes)`, and its shadows.
type Stitched = (Option<Vec<(ImageId, Bytes)>>, Vec<Shadow>);

/// The one place a split is undone (§4.4): a file's first version is its
/// subfiles in the offset order their link files record (the first has
/// none, offset 0), `None` when a link file shows one missing — placed
/// past where the ones before it end, or a total they do not add up to;
/// each version shadow is the version it numbers; a link file is never data.
fn stitch(files: Vec<(UdfPath, ImageId, Bytes)>) -> BTreeMap<UdfPath, Stitched> {
    // (file, image) -> the link file stitching that image's subfile on.
    let mut links: BTreeMap<(UdfPath, ImageId), LinkFile> = BTreeMap::new();
    type Found = (Vec<(ImageId, Bytes)>, Vec<Shadow>);
    let mut found: BTreeMap<UdfPath, Found> = BTreeMap::new();
    for (path, image, bytes) in files {
        let (Some(parent), Some(name)) = (path.parent(), path.name()) else {
            continue;
        };
        if let Some(orig) = parse_link_file_name(name) {
            if let Ok(link) = LinkFile::from_json(core::str::from_utf8(&bytes).unwrap_or("")) {
                links.insert((parent.join(orig), image), link);
            }
        } else if let Some((ver, orig)) = parse_shadow_file_name(name) {
            let shadows = &mut found.entry(parent.join(orig)).or_default().1;
            shadows.push((ver, image, bytes, path.clone()));
        } else {
            found.entry(path).or_default().0.push((image, bytes));
        }
    }
    let stitch_one = |(path, (subfiles, mut shadows)): (UdfPath, Found)| {
        let link = |image: ImageId| links.get(&(path.clone(), image));
        let mut parts: Vec<(u64, ImageId, Bytes)> = subfiles
            .into_iter()
            .map(|(image, bytes)| (link(image).map_or(0, |l| l.offset), image, bytes))
            .collect();
        parts.sort_unstable_by_key(|(offset, image, _)| (*offset, *image));
        parts.dedup_by_key(|(_, image, _)| *image);
        let size: u64 = parts.iter().map(|(_, _, bytes)| bytes.len() as u64).sum();
        let mut end = 0;
        let whole = !parts.is_empty()
            && parts.iter().all(|(_, image, bytes)| {
                let start = end;
                end += bytes.len() as u64;
                link(*image).is_none_or(|l| l.offset == start && l.total_size == size)
            });
        let first = whole.then(|| parts.into_iter().map(|(_, image, b)| (image, b)).collect());
        shadows.sort_unstable_by_key(|(ver, image, _, _)| (*ver, *image));
        (path, (first, shadows))
    };
    found.into_iter().map(stitch_one).collect()
}

/// The newest snapshot sequence on disc, restored: its parts in name
/// order, each joined from its subfiles. A part with no whole first
/// version is refused as [`OlfsError::NotFound`], naming the part.
fn newest_snapshot(mut files: Vec<(UdfPath, ImageId, Bytes)>) -> Result<MetadataVolume, OlfsError> {
    let Some(newest) = files.iter().filter_map(|(p, _, _)| snapshot_seq(p)).max() else {
        return Err(OlfsError::BadState("no MV snapshot found on discs".into()));
    };
    files.retain(|(p, _, _)| snapshot_seq(p) == Some(newest));
    let mut joined = Vec::new();
    for (part, (first, _)) in stitch(files) {
        for (_, bytes) in first.ok_or_else(|| OlfsError::NotFound(part.to_string()))? {
            joined.extend_from_slice(&bytes);
        }
    }
    MetadataVolume::restore(
        core::str::from_utf8(&joined)
            .map_err(|_| OlfsError::BadState("snapshot not UTF-8".into()))?,
    )
}

/// The namespace the file occurrences found on disc describe (§4.4), as
/// [`stitch`] joins them. A file with neither a whole first version nor
/// a shadow is left out, not served short.
fn namespace_of(files: Vec<(UdfPath, ImageId, Bytes)>) -> Result<MetadataVolume, OlfsError> {
    let mut mv = MetadataVolume::new();
    for (path, (first, shadows)) in stitch(files) {
        let first = first.map(|subfiles| {
            let segs = subfiles.iter().map(|(image, _)| *image).collect();
            let sizes: Vec<u64> = subfiles.iter().map(|(_, b)| b.len() as u64).collect();
            VersionEntry::new(LocTag::Disc, sizes.iter().sum(), 0, segs, sizes)
        });
        if first.is_none() && shadows.is_empty() {
            continue;
        }
        let idx = mv.create(&path)?;
        if let Some(first) = first {
            idx.push_version(first);
        }
        for (ver, image, bytes, shadow) in shadows {
            // Keep version numbers aligned: a gap repeats the entry
            // before it.
            while let Some(prev) = idx.latest().filter(|e| e.ver + 1 < ver).cloned() {
                idx.push_version(prev);
            }
            let size = bytes.len() as u64;
            idx.push_version(VersionEntry {
                stored: Some(shadow),
                ..VersionEntry::new(LocTag::Disc, size, 0, vec![image], vec![size])
            });
        }
    }
    Ok(mv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wbm::{link_file_name, shadow_file_name};

    type Occurrence = (UdfPath, ImageId, Bytes);

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    /// `data` as WBM writes a file split at `cuts`: subfile `i` on image
    /// `first_image + i`, each after the first beside its link file.
    fn split(path: &UdfPath, data: &[u8], cuts: &[usize], first_image: u64) -> Vec<Occurrence> {
        let link_path = path
            .parent()
            .unwrap()
            .join(&link_file_name(path.name().unwrap()));
        let bounds: Vec<usize> = [0]
            .iter()
            .chain(cuts)
            .chain([&data.len()])
            .copied()
            .collect();
        let mut found = Vec::new();
        for (i, w) in bounds.windows(2).enumerate() {
            let image = ImageId(first_image + i as u64);
            found.push((
                path.clone(),
                image,
                Bytes::copy_from_slice(&data[w[0]..w[1]]),
            ));
            if i > 0 {
                let link = LinkFile {
                    prev_image: image.0 - 1,
                    offset: w[0] as u64,
                    total_size: data.len() as u64,
                };
                found.push((link_path.clone(), image, Bytes::from(link.to_json())));
            }
        }
        found
    }

    fn joined(first: &[(ImageId, Bytes)]) -> Vec<u8> {
        first.iter().flat_map(|(_, b)| b.iter().copied()).collect()
    }

    /// A snapshot of an MV holding `files`, burned as sequence `seq` in
    /// parts of `part` bytes, the second part split in two across images.
    fn snapshot(seq: u64, files: &[&str], part: usize) -> (MetadataVolume, Vec<Occurrence>) {
        let mut mv = MetadataVolume::new();
        for f in files {
            mv.create(&p(f)).unwrap();
        }
        let text = mv.snapshot().into_bytes();
        let mut found = Vec::new();
        for (i, chunk) in text.chunks(part).enumerate() {
            let path = p(&format!("{MV_SNAPSHOT_DIR}/{seq:06}/part-{i:06}"));
            let cuts: &[usize] = if i == 1 { &[chunk.len() / 2] } else { &[] };
            found.extend(split(&path, chunk, cuts, seq * 100 + 2 * i as u64));
        }
        (mv, found)
    }

    #[test]
    fn a_scan_past_an_arrays_tolerance_inspects_its_members_once() {
        use crate::config::{Redundancy, RosConfig};
        use crate::repair::DIGEST_BATCHES;
        // One cold RAID-5 array of three 300 KB files, one per image.
        let mut cfg = RosConfig::tiny();
        cfg.disc_class = ros_drive::media::DiscClass::Custom {
            capacity: 512 * 1024,
        };
        cfg.layout.discs_per_tray = 4;
        cfg.drives_per_bay = 4;
        cfg.redundancy = Redundancy::Raid5;
        let mut ros = Ros::new(cfg);
        for i in 0..3u8 {
            let data: Vec<u8> = (0..300_000u32).map(|j| (j >> 3) as u8 ^ i).collect();
            ros.write_file(&p(&format!("/scan/f{i}")), data).unwrap();
            ros.seal_open_buckets().unwrap();
        }
        ros.flush().unwrap();
        ros.evict_all_burned_copies();
        ros.unload_all_bays().unwrap();
        let burned = ros.store.groups_in_state(GroupState::Burned);
        assert_eq!(burned.len(), 1);
        let data = ros.store.group(burned[0]).unwrap().data.clone();
        // The same sector unreadable on two data members: one more than
        // RAID-5 rebuilds.
        for image in &data[..2] {
            let loc = ros.store.location_of(*image).unwrap();
            let disc = ros.disc_at_mut(loc).unwrap();
            let start = disc.find_track(image.0).unwrap().start_sector;
            disc.corrupt_sector(start + 7);
        }
        DIGEST_BATCHES.with(|n| n.set(0));
        let scan = ros.scan_burned_images(|_| true).unwrap();
        // The failed rebuild's inspections are the scan's: one batch,
        // where inspecting the members again made two.
        assert_eq!(DIGEST_BATCHES.with(std::cell::Cell::get), 1);
        assert_eq!(scan.report.images_parsed, 1, "only the intact data member");
        let paths: Vec<String> = scan.files.iter().map(|(p, _, _)| p.to_string()).collect();
        assert_eq!(paths, ["/scan/f2"]);
    }

    #[test]
    fn subfiles_join_in_offset_order_whatever_the_scan_order() {
        let path = p("/d/f");
        let data: Vec<u8> = (0..200u8).collect();
        // Image ids run against the file order: only the links order it.
        let found: Vec<Occurrence> = split(&path, &data, &[30, 31, 150], 1)
            .into_iter()
            .map(|(path, image, bytes)| (path, ImageId(9 - image.0), bytes))
            .collect();
        for turn in 0..found.len() {
            let mut scanned = found.clone();
            scanned.rotate_left(turn);
            scanned[1..].reverse();
            let stitched = stitch(scanned);
            let (first, shadows) = &stitched[&path];
            assert_eq!(joined(first.as_ref().unwrap()), data, "turn {turn}");
            assert!(shadows.is_empty());
        }
    }

    #[test]
    fn a_link_file_is_never_data() {
        let path = p("/d/f");
        let found = split(&path, b"0123456789", &[4], 1);
        let stitched = stitch(found.clone());
        assert_eq!(stitched.keys().collect::<Vec<_>>(), [&path]);
        // A link file whose subfile went unread is no file at all.
        let links: Vec<Occurrence> = found.into_iter().filter(|o| o.0 != path).collect();
        assert_eq!(links.len(), 1);
        assert!(stitch(links).is_empty());
    }

    #[test]
    fn shadows_are_the_versions_they_number() {
        let shadow = |ver| {
            (
                p(&format!("/d/{}", shadow_file_name(ver, "f"))),
                ImageId(ver.into()),
                Bytes::from(vec![0; ver as usize]),
            )
        };
        let stitched = stitch(vec![
            shadow(3),
            (p("/d/f"), ImageId(1), Bytes::new()),
            shadow(2),
        ]);
        let (first, shadows) = &stitched[&p("/d/f")];
        assert_eq!(first.as_ref().map(Vec::len), Some(1));
        let vers: Vec<u32> = shadows.iter().map(|s| s.0).collect();
        assert_eq!(vers, [2, 3]);
    }

    #[test]
    fn a_split_snapshot_part_restores() {
        let (mv, found) = snapshot(1, &["/a", "/b/c"], 24);
        assert!(found.len() > 4, "the snapshot spans several parts");
        let restored = newest_snapshot(found).unwrap();
        assert_eq!(restored.snapshot(), mv.snapshot());
    }

    #[test]
    fn a_part_missing_its_first_subfile_is_refused() {
        let (_, mut found) = snapshot(1, &["/a", "/b/c"], 24);
        let part = p(&format!("{MV_SNAPSHOT_DIR}/000001/part-000001"));
        let at = found.iter().position(|o| o.0 == part).unwrap();
        found.remove(at);
        assert_eq!(
            newest_snapshot(found.clone()).unwrap_err(),
            OlfsError::NotFound(part.to_string())
        );
        let stitched = stitch(found);
        assert!(stitched[&part].0.is_none(), "never served short");
    }

    #[test]
    fn the_newest_of_two_sequences_is_taken() {
        let (_, old) = snapshot(9, &["/old"], 16);
        let (new, mut found) = snapshot(10, &["/new", "/newer"], 16);
        found.extend(old);
        found.reverse();
        let restored = newest_snapshot(found.clone()).unwrap();
        assert_eq!(restored.snapshot(), new.snapshot());
        let names: Vec<&UdfPath> = found.iter().map(|o| &o.0).collect();
        assert_eq!(names.into_iter().filter_map(snapshot_seq).max(), Some(10));
    }
}
