//! Namespace recovery: MV snapshots on disc and full disc-scan rebuild.
//!
//! Two mechanisms from the paper:
//!
//! 1. **MV snapshot burning** (§4.2): "MV is periodically burned into
//!    discs. Once MV fails, the entire global namespace can be recovered
//!    from discs... As an experiment, ROS took half an hour to recover MV
//!    from 120 discs."
//! 2. **Disc-scan reconstruction** (§4.4): because every image carries
//!    its files under their *unique global paths* with full ancestor
//!    directories, "Even if all electronic and mechanical components
//!    failed, all or partial data can be reconstructed by scanning all
//!    survived discs."

use crate::dim::DaState;
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::ImageId;
use crate::index::{LocTag, VersionEntry};
use crate::mv::MetadataVolume;
use crate::wbm::{parse_link_file_name, LinkFile};
use ros_sim::SimDuration;
use ros_udf::{SealedImage, UdfPath};
use std::collections::BTreeMap;

/// Directory MV snapshots are written under.
pub const MV_SNAPSHOT_DIR: &str = "/.mv-snapshots";

/// Chunk size for snapshot part files.
const SNAPSHOT_PART_BYTES: usize = 512 * 1024;

/// Result of a disc-scan rebuild.
#[derive(Clone, Debug)]
pub struct RebuildReport {
    /// Trays read.
    pub trays_read: usize,
    /// Discs read.
    pub discs_read: usize,
    /// Data images successfully parsed.
    pub images_parsed: usize,
    /// Files recovered into the rebuilt namespace.
    pub files_recovered: usize,
    /// Simulated time the rebuild took (mechanics + disc reads).
    pub elapsed: SimDuration,
    /// The rebuilt metadata volume.
    pub mv: MetadataVolume,
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

    /// Recovers the MV from the newest snapshot found by scanning the
    /// library's discs — the timed §4.2 experiment. Does not consult the
    /// live MV (assumed lost); returns the restored volume and the
    /// simulated recovery duration.
    pub fn recover_mv_from_discs(&mut self) -> Result<(MetadataVolume, SimDuration), OlfsError> {
        let start = self.now();
        let scan =
            self.scan_burned_images(|path, _| path.to_string().starts_with(MV_SNAPSHOT_DIR))?;
        // Pick the newest snapshot sequence present.
        let mut by_seq: BTreeMap<String, BTreeMap<String, Vec<u8>>> = BTreeMap::new();
        for (path, _image, bytes) in scan.files {
            let s = path.to_string();
            let comps = path.components();
            if comps.len() == 3 {
                by_seq.entry(comps[1].clone()).or_default().insert(s, bytes);
            }
        }
        let (_seq, parts) = by_seq
            .into_iter()
            .next_back()
            .ok_or_else(|| OlfsError::BadState("no MV snapshot found on discs".into()))?;
        let mut joined = Vec::new();
        for (_, part) in parts {
            joined.extend_from_slice(&part);
        }
        let restored = MetadataVolume::restore(
            core::str::from_utf8(&joined)
                .map_err(|_| OlfsError::BadState("snapshot not UTF-8".into()))?,
        )?;
        Ok((restored, self.now().duration_since(start)))
    }

    /// Full §4.4 disaster rebuild: scans every burned disc, parses its
    /// image, and reconstructs the namespace from the unique file paths,
    /// link files and version shadows found on the media alone.
    pub fn rebuild_namespace_from_discs(&mut self) -> Result<RebuildReport, OlfsError> {
        let start = self.now();
        let scan =
            self.scan_burned_images(|path, _| !path.to_string().starts_with(MV_SNAPSHOT_DIR))?;

        // Pass 1: classify occurrences.
        struct Continuation {
            offset: u64,
        }
        // (path, image) -> continuation info from link files.
        let mut continuations: BTreeMap<(String, u64), Continuation> = BTreeMap::new();
        // original path -> versions found as shadows: (ver, image, len,
        // the shadow's own path).
        let mut shadows: BTreeMap<String, Vec<(u32, ImageId, u64, UdfPath)>> = BTreeMap::new();
        // regular occurrences: (path, image, len).
        let mut regulars: Vec<(UdfPath, ImageId, u64)> = Vec::new();
        for (path, image, bytes) in &scan.files {
            let Some(name) = path.name() else { continue };
            if let Some(orig_name) = parse_link_file_name(name) {
                if let (Ok(link), Some(parent)) = (
                    LinkFile::from_json(core::str::from_utf8(bytes).unwrap_or("")),
                    path.parent(),
                ) {
                    let orig = parent.join(orig_name);
                    continuations.insert(
                        (orig.to_string(), image.0),
                        Continuation {
                            offset: link.offset,
                        },
                    );
                }
                continue;
            }
            if let Some(rest) = name.strip_prefix(".rosv") {
                if let Some(dash) = rest.find('-') {
                    if let (Ok(ver), Some(parent)) = (rest[..dash].parse::<u32>(), path.parent()) {
                        let orig = parent.join(&rest[dash + 1..]);
                        shadows.entry(orig.to_string()).or_default().push((
                            ver,
                            *image,
                            bytes.len() as u64,
                            path.clone(),
                        ));
                        continue;
                    }
                }
            }
            regulars.push((path.clone(), *image, bytes.len() as u64));
        }

        // Pass 2: assemble base files, ordering subfiles by their link
        // offsets (the first subfile has no link file, offset 0).
        let mut base: BTreeMap<String, Vec<(u64, ImageId, u64)>> = BTreeMap::new();
        for (path, image, len) in &regulars {
            let key = path.to_string();
            let offset = continuations
                .get(&(key.clone(), image.0))
                .map(|c| c.offset)
                .unwrap_or(0);
            base.entry(key).or_default().push((offset, *image, *len));
        }

        // Build the namespace.
        let mut mv = MetadataVolume::new();
        let mut files = 0usize;
        for (path_str, parts) in &base {
            let path: UdfPath = path_str.parse().map_err(|_| {
                OlfsError::BadState(format!("recovered path {path_str:?} failed to re-parse"))
            })?;
            let mut parts = parts.clone();
            parts.sort_unstable();
            parts.dedup_by_key(|(_, img, _)| *img);
            let total_size: u64 = parts.iter().map(|(_, _, l)| *l).sum();
            let segs: Vec<ImageId> = parts.iter().map(|(_, img, _)| *img).collect();
            let seg_sizes: Vec<u64> = parts.iter().map(|(_, _, l)| *l).collect();
            let idx = mv.create(&path)?;
            idx.push_version(VersionEntry::new(
                LocTag::Disc,
                total_size,
                0,
                segs,
                seg_sizes,
            ));
            files += 1;
            // Replay regenerated versions in order.
            let mut list = shadows.remove(path_str).unwrap_or_default();
            list.sort_unstable();
            for (ver, image, size, shadow) in list {
                // Keep version numbers aligned: a gap repeats the entry
                // before it.
                while let Some(prev) = idx.latest().filter(|e| e.ver + 1 < ver).cloned() {
                    idx.push_version(prev);
                }
                idx.push_version(shadow_entry(image, size, shadow));
            }
        }
        // What is left are shadow-only files (base version's image
        // lost): best effort.
        for (orig, mut list) in shadows {
            let path: UdfPath = orig.parse().map_err(|_| {
                OlfsError::BadState(format!("recovered path {orig:?} failed to re-parse"))
            })?;
            let idx = mv.create(&path)?;
            list.sort_unstable();
            for (_, image, size, shadow) in list {
                idx.push_version(shadow_entry(image, size, shadow));
            }
            files += 1;
        }

        Ok(RebuildReport {
            trays_read: scan.trays_read,
            discs_read: scan.discs_read,
            images_parsed: scan.images_parsed,
            files_recovered: files,
            elapsed: self.now().duration_since(start),
            mv,
        })
    }

    /// Replaces the live MV with a recovered one (end of a disaster
    /// drill).
    pub fn adopt_namespace(&mut self, mv: MetadataVolume) {
        self.mv = mv;
        self.image_paths.clear();
        for (path, idx) in self.mv.iter_files() {
            for seg in idx.versions().flat_map(|v| &v.segs) {
                self.image_paths
                    .entry(*seg)
                    .or_default()
                    .insert(path.clone());
            }
        }
    }

    /// Exports the current MV as a portable snapshot string — the same
    /// serialization [`Ros::burn_mv_snapshot`] chunks onto discs. A
    /// cluster front end ships this text to guardian racks so the
    /// namespace survives whole-rack loss (restore the text with
    /// [`MetadataVolume::restore`], then [`Ros::adopt_namespace`]).
    pub fn export_namespace(&self) -> String {
        self.mv.snapshot()
    }

    /// Scans every Used tray: loads it, reads each disc's data tracks in
    /// parallel, parses the images and collects files matching `keep`.
    ///
    /// Drive reads stay sequential (they need `&mut` drive state and
    /// charge simulated time); the CPU-bound image parse and file
    /// extraction fan out on the data plane afterwards, in read order,
    /// so the result is identical at any thread count.
    fn scan_burned_images(
        &mut self,
        keep: impl Fn(&UdfPath, &[u8]) -> bool + Sync,
    ) -> Result<ScanResult, OlfsError> {
        let mut result = ScanResult::default();
        let layout = self.cfg.layout;
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
            result.trays_read += 1;
            // Read all discs in parallel: charge the slowest drive.
            let mut slowest = SimDuration::ZERO;
            for pos in 0..self.cfg.drives_per_bay {
                let image_ids: Vec<u64> = {
                    let Some(disc) = self.bays[bay].drive(pos).and_then(|d| d.disc()) else {
                        continue;
                    };
                    if disc.is_blank() {
                        continue;
                    }
                    disc.tracks().iter().map(|t| t.image_id).collect()
                };
                if image_ids.is_empty() {
                    continue;
                }
                result.discs_read += 1;
                let mut drive_time = SimDuration::ZERO;
                let mut payloads: Vec<(u64, bytes::Bytes)> = Vec::with_capacity(image_ids.len());
                for image_id in image_ids {
                    let Some(drive) = self.bays[bay].drive_mut(pos) else {
                        continue;
                    };
                    let timed = match drive.read_image(image_id) {
                        Ok(t) => t,
                        Err(_) => continue, // Damaged track: skip in a scan.
                    };
                    drive_time += timed.duration;
                    match timed.payload {
                        ros_drive::Payload::Inline(b) => payloads.push((image_id, b)),
                        ros_drive::Payload::Synthetic { .. } => continue,
                    }
                }
                slowest = slowest.max(drive_time);
                // Parse and extract in parallel, in read order.
                let keep = &keep;
                let parsed = self.data_plane().map(&payloads, |(image_id, bytes)| {
                    // Parity payloads normally fail to parse; the
                    // degenerate single-member XOR parity *does* parse
                    // but carries a mismatched embedded image id.
                    let img = SealedImage::from_bytes(bytes.clone()).ok()?;
                    if img.image_id() != *image_id {
                        return None;
                    }
                    let mut files = Vec::new();
                    for (path, _meta) in img.scan_files() {
                        if let Ok(data) = img.read(&path) {
                            if keep(&path, &data) {
                                files.push((path, ImageId(*image_id), data.to_vec()));
                            }
                        }
                    }
                    Some(files)
                });
                for files in parsed.into_iter().flatten() {
                    result.images_parsed += 1;
                    result.files.extend(files);
                }
            }
            self.run_for(slowest);
            let unloaded = self.unload_bay(bay, self.now())?;
            self.run_for(unloaded);
        }
        Ok(result)
    }
}

/// The entry of a regenerated version found on disc under `shadow`.
fn shadow_entry(image: ImageId, size: u64, shadow: UdfPath) -> VersionEntry {
    VersionEntry {
        stored: Some(shadow),
        ..VersionEntry::new(LocTag::Disc, size, 0, vec![image], vec![size])
    }
}

#[derive(Default)]
struct ScanResult {
    trays_read: usize,
    discs_read: usize,
    images_parsed: usize,
    /// Every matching file occurrence: the same path may appear in
    /// several images (split subfiles, version shadows).
    files: Vec<(UdfPath, ImageId, Vec<u8>)>,
}
