//! JSON index files — the per-file metadata records in MV (§4.2, §4.6).
//!
//! "Any entry in the global namespace, including file and directory, has
//! its corresponding index file with the same file name in MV. However, MV
//! index files do not have actual file data, but only record the locations
//! of their data files in the form of bucketID, image ID, or disc ID...
//! The index file is organized in the Json standard format... Its typical
//! size is 388 bytes... In order to support file appending-update
//! operations, multiple file version entries for a file can be recorded
//! into the index file. Each entry takes 40 bytes... about 15 historic
//! entries."
//!
//! An image keeps its id through its whole life (bucket → buffered image →
//! disc), so entries reference [`ImageId`]s; the `loc` tag records the
//! stage at write time. The optional *forepart* (§4.8) stores the first
//! bytes of the newest version inline so cold reads can answer instantly.

use crate::ids::ImageId;
use crate::params;
use bytes::Bytes;
use ros_cas::Digest;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Stage of an image at the time an entry was written (B/I/D of §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocTag {
    /// Staged in an open bucket.
    #[serde(rename = "B")]
    Bucket,
    /// A sealed image on the disk buffer.
    #[serde(rename = "I")]
    Image,
    /// Burned onto a disc.
    #[serde(rename = "D")]
    Disc,
}

/// One version entry (~40 bytes serialized, §4.2) — the single record of
/// a version: everything a read needs to find its bytes, and everything
/// an unlink or a ring eviction must give back, lives and dies here.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionEntry {
    /// Monotonic version number, starting at 1; assigned by
    /// [`IndexFile::push_version`].
    pub ver: u32,
    /// Stage at write time.
    pub loc: LocTag,
    /// File size in bytes.
    pub size: u64,
    /// Modification time (nanoseconds on the simulation clock).
    pub mtime: u64,
    /// The image(s) holding the data; more than one when the file was
    /// split across consecutive images (§4.5).
    pub segs: Vec<ImageId>,
    /// Bytes of the file in each segment (parallel to `segs`), so range
    /// reads skip the segments outside the range.
    pub seg_sizes: Vec<u64>,
    /// The path the bytes are stored under inside `segs`, when it is not
    /// the file's own: a regenerated version's shadow name (§4.6), or the
    /// copy of another file a dedup hit shares (§14).
    pub stored: Option<UdfPath>,
    /// The content digest dedup catalogued this version under — its one
    /// reference on that blob.
    pub digest: Option<Digest>,
    /// Set once a later in-place bucket update overwrote these bytes
    /// (§4.6): the entry stays for provenance, the version is gone.
    pub replaced: bool,
}

impl VersionEntry {
    /// A plain entry — stored under the file's own path, not catalogued,
    /// not replaced — whose `ver` the index file assigns when pushed.
    pub fn new(
        loc: LocTag,
        size: u64,
        mtime: u64,
        segs: Vec<ImageId>,
        seg_sizes: Vec<u64>,
    ) -> Self {
        VersionEntry {
            ver: 0,
            loc,
            size,
            mtime,
            segs,
            seg_sizes,
            stored: None,
            digest: None,
            replaced: false,
        }
    }

    /// The path this version's bytes are stored under inside its images,
    /// for the file at namespace path `path`.
    pub fn stored_path<'a>(&'a self, path: &'a UdfPath) -> &'a UdfPath {
        self.stored.as_ref().unwrap_or(path)
    }
}

/// Serde shadow of [`VersionEntry`]: the three resolution fields are
/// omitted at their defaults, so a plain file's index JSON is what it
/// was before they existed (§4.2's 388 bytes); the stored path travels
/// as a path string and the digest as 64 hex characters.
#[derive(Serialize, Deserialize)]
struct VersionJson {
    ver: u32,
    loc: LocTag,
    size: u64,
    mtime: u64,
    segs: Vec<ImageId>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    seg_sizes: Vec<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    stored: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    digest: Option<String>,
    #[serde(skip_serializing_if = "std::ops::Not::not")]
    replaced: bool,
}

impl Serialize for VersionEntry {
    fn serialize_value(&self) -> serde::Value {
        VersionJson {
            ver: self.ver,
            loc: self.loc,
            size: self.size,
            mtime: self.mtime,
            segs: self.segs.clone(),
            seg_sizes: self.seg_sizes.clone(),
            stored: self.stored.as_ref().map(UdfPath::to_string),
            digest: self.digest.as_ref().map(Digest::to_hex),
            replaced: self.replaced,
        }
        .serialize_value()
    }
}

impl Deserialize for VersionEntry {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let j = VersionJson::deserialize_value(v)?;
        // Snapshots come back from media and from other racks: the read
        // path walks `segs` and `seg_sizes` in step and must not meet an
        // entry where they disagree.
        if j.seg_sizes.len() != j.segs.len() {
            return Err(serde::DeError::expected("one size per segment"));
        }
        let stored = j
            .stored
            .map(|s| {
                s.parse()
                    .map_err(|_| serde::DeError::expected("stored path"))
            })
            .transpose()?;
        let digest = j
            .digest
            .map(|s| digest_from_hex(&s).ok_or_else(|| serde::DeError::expected("hex digest")))
            .transpose()?;
        Ok(VersionEntry {
            ver: j.ver,
            loc: j.loc,
            size: j.size,
            mtime: j.mtime,
            segs: j.segs,
            seg_sizes: j.seg_sizes,
            stored,
            digest,
            replaced: j.replaced,
        })
    }
}

/// Inverse of [`Digest::to_hex`].
fn digest_from_hex(s: &str) -> Option<Digest> {
    if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, b) in out.iter_mut().enumerate() {
        *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
    }
    Some(Digest::from_bytes(out))
}

/// The index file of one global-namespace file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexFile {
    /// Version entries, oldest first; a bounded ring of
    /// [`params::MAX_VERSION_ENTRIES`].
    entries: VecDeque<VersionEntry>,
    /// Next version number to assign.
    next_ver: u32,
    /// Forepart of the newest version (§4.8), if enabled.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    forepart: Option<Bytes>,
}

impl Default for IndexFile {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexFile {
    /// Creates an empty index file (no versions yet).
    pub fn new() -> Self {
        IndexFile {
            entries: VecDeque::new(),
            next_ver: 1,
            forepart: None,
        }
    }

    /// Appends `entry` as the next version, overwriting the oldest entry
    /// once the ring is full (§4.6: "When all 15 entries have been used
    /// up, the first entry will be overwritten"). Returns the version
    /// number assigned and the entry evicted, whose references the
    /// caller releases.
    pub fn push_version(&mut self, mut entry: VersionEntry) -> (u32, Option<VersionEntry>) {
        debug_assert_eq!(entry.seg_sizes.len(), entry.segs.len());
        let ver = self.next_ver;
        self.next_ver += 1;
        entry.ver = ver;
        let evicted = if self.entries.len() == params::MAX_VERSION_ENTRIES {
            self.entries.pop_front()
        } else {
            None
        };
        // Most files keep one version: a first push takes one slot, not
        // the four a growing ring would start with.
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.push_back(entry);
        (ver, evicted)
    }

    /// Returns the newest version entry.
    pub fn latest(&self) -> Option<&VersionEntry> {
        self.entries.back()
    }

    /// Mutable access to the newest version entry.
    pub fn latest_mut(&mut self) -> Option<&mut VersionEntry> {
        self.entries.back_mut()
    }

    /// Returns a specific version if still recorded.
    pub fn version(&self, ver: u32) -> Option<&VersionEntry> {
        self.entries.iter().find(|e| e.ver == ver)
    }

    /// All retained versions, oldest first (data provenance, §4.6).
    pub fn versions(&self) -> impl Iterator<Item = &VersionEntry> {
        self.entries.iter()
    }

    /// Number of retained versions.
    pub fn version_count(&self) -> usize {
        self.entries.len()
    }

    /// Promotes the stage tag on every entry that references `image`.
    pub fn promote_image(&mut self, image: ImageId, loc: LocTag) {
        for e in self.entries.iter_mut() {
            if e.segs.contains(&image) {
                e.loc = loc;
            }
        }
    }

    /// Stores the forepart of the newest version.
    pub fn set_forepart(&mut self, data: Option<Bytes>) {
        self.forepart = data;
    }

    /// Returns the stored forepart.
    pub fn forepart(&self) -> Option<&Bytes> {
        self.forepart.as_ref()
    }

    /// Serialises to the on-MV JSON form.
    #[expect(
        clippy::expect_used,
        reason = "serializing an owned tree of strings and integers cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("index files always serialize")
    }

    /// Parses the on-MV JSON form.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Bytes this index file occupies on MV: its JSON body rounded up to
    /// MV blocks, plus an inode (§4.2's accounting).
    pub fn mv_bytes(&self) -> u64 {
        let body = self.to_json().len() as u64;
        let blocks = body.div_ceil(params::MV_BLOCK_BYTES).max(1);
        params::MV_INODE_BYTES + blocks * params::MV_BLOCK_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain entry whose bytes all sit in the first of `segs`.
    fn entry(loc: LocTag, size: u64, mtime: u64, segs: Vec<ImageId>) -> VersionEntry {
        let mut seg_sizes = vec![0; segs.len()];
        if let Some(first) = seg_sizes.first_mut() {
            *first = size;
        }
        VersionEntry::new(loc, size, mtime, segs, seg_sizes)
    }

    #[test]
    fn versions_are_monotonic() {
        let mut f = IndexFile::new();
        assert!(f.latest().is_none());
        let (v1, _) = f.push_version(entry(LocTag::Bucket, 100, 5, vec![ImageId(1)]));
        assert_eq!(f.entries.capacity(), 1, "a one-version ring holds one slot");
        let (v2, _) = f.push_version(entry(LocTag::Bucket, 200, 6, vec![ImageId(2)]));
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(f.latest().unwrap().ver, 2);
        assert_eq!(f.version(1).unwrap().size, 100);
        assert_eq!(f.version_count(), 2);
    }

    #[test]
    fn ring_wraps_at_fifteen() {
        let mut f = IndexFile::new();
        for i in 0..20u32 {
            let (ver, evicted) =
                f.push_version(entry(LocTag::Bucket, i as u64, 0, vec![ImageId(i as u64)]));
            // The entry pushed out is handed back, oldest first.
            assert_eq!(
                evicted.map(|e| e.ver),
                ver.checked_sub(15).filter(|v| *v > 0)
            );
        }
        assert_eq!(f.version_count(), params::MAX_VERSION_ENTRIES);
        // Versions 1-5 were overwritten.
        assert!(f.version(5).is_none());
        assert!(f.version(6).is_some());
        assert_eq!(f.latest().unwrap().ver, 20);
        // Version numbers keep increasing after the wrap.
        f.push_version(entry(LocTag::Bucket, 0, 0, vec![]));
        assert_eq!(f.latest().unwrap().ver, 21);
    }

    #[test]
    fn promotion_follows_image_life() {
        let mut f = IndexFile::new();
        f.push_version(entry(LocTag::Bucket, 10, 0, vec![ImageId(7)]));
        f.push_version(entry(LocTag::Bucket, 20, 1, vec![ImageId(8)]));
        f.promote_image(ImageId(7), LocTag::Disc);
        assert_eq!(f.version(1).unwrap().loc, LocTag::Disc);
        assert_eq!(f.version(2).unwrap().loc, LocTag::Bucket);
    }

    #[test]
    fn json_roundtrip() {
        let mut f = IndexFile::new();
        f.push_version(entry(
            LocTag::Image,
            4096,
            123456789,
            vec![ImageId(3), ImageId(4)],
        ));
        f.set_forepart(Some(Bytes::from_static(b"first bytes")));
        let json = f.to_json();
        let parsed = IndexFile::from_json(&json).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.forepart().unwrap().as_ref(), b"first bytes");
    }

    #[test]
    fn resolution_fields_roundtrip_and_cost_a_plain_file_nothing() {
        // A plain file's JSON is what it was before the entry carried a
        // stored path, a digest and a replaced flag.
        let mut f = IndexFile::new();
        f.push_version(entry(
            LocTag::Disc,
            1 << 20,
            1_234_567_890_123,
            vec![ImageId(42)],
        ));
        assert_eq!(
            f.to_json(),
            r#"{"entries":[{"ver":1,"loc":"D","size":1048576,"mtime":1234567890123,"segs":[42],"seg_sizes":[1048576]}],"next_ver":2}"#
        );
        f.latest_mut().unwrap().replaced = true;
        f.push_version(VersionEntry {
            stored: Some("/dir/.rosv2-name".parse().unwrap()),
            digest: Some(Digest::from_bytes([7; 32])),
            ..entry(LocTag::Bucket, 7, 5, vec![ImageId(43)])
        });
        let json = f.to_json();
        assert!(json.contains(r#""stored":"/dir/.rosv2-name""#), "{json}");
        assert!(json.contains(&format!(r#""digest":"{}""#, Digest::from_bytes([7; 32]))));
        assert_eq!(IndexFile::from_json(&json).unwrap(), f);
        // Hostile snapshots: sizes out of step with segments, a digest
        // that is not 64 hex characters.
        for (from, to) in [
            (r#""seg_sizes":[7]"#, r#""seg_sizes":[7,7]"#),
            (r#""digest":""#, r#""digest":"+"#),
        ] {
            assert!(json.contains(from));
            assert!(IndexFile::from_json(&json.replace(from, to)).is_err());
        }
    }

    #[test]
    fn typical_size_matches_paper() {
        // A single-version index file without forepart must stay in the
        // neighbourhood of the paper's 388 bytes.
        let mut f = IndexFile::new();
        f.push_version(entry(
            LocTag::Disc,
            1 << 20,
            1_234_567_890_123,
            vec![ImageId(42)],
        ));
        let len = f.to_json().len();
        assert!(
            len <= params::TYPICAL_INDEX_BYTES,
            "index JSON is {len} bytes; paper's typical size is 388"
        );
        // And each extra version costs roughly the paper's 40 bytes
        // (ours is JSON-verbose; allow up to 100).
        let before = f.to_json().len();
        f.push_version(entry(
            LocTag::Disc,
            1 << 20,
            1_234_567_890_124,
            vec![ImageId(43)],
        ));
        let per_entry = f.to_json().len() - before;
        assert!(
            (30..=100).contains(&per_entry),
            "per-entry cost = {per_entry} bytes (paper: 40)"
        );
    }

    #[test]
    fn mv_bytes_accounting() {
        let mut f = IndexFile::new();
        f.push_version(entry(LocTag::Bucket, 1, 0, vec![ImageId(1)]));
        // One MV block + inode.
        assert_eq!(
            f.mv_bytes(),
            params::MV_INODE_BYTES + params::MV_BLOCK_BYTES
        );
        // A big forepart spills into more blocks.
        f.set_forepart(Some(Bytes::from(vec![b'x'; 4096])));
        assert!(f.mv_bytes() > params::MV_INODE_BYTES + 4 * params::MV_BLOCK_BYTES);
    }

    #[test]
    fn split_files_record_multiple_segments() {
        let mut f = IndexFile::new();
        f.push_version(entry(
            LocTag::Image,
            1 << 22,
            0,
            vec![ImageId(1), ImageId(2)],
        ));
        assert_eq!(f.latest().unwrap().segs.len(), 2);
    }
}
