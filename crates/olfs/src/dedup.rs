//! Write-path deduplication (DESIGN.md §14).
//!
//! The engine consults this layer before placing file data: a payload
//! whose content digest is already catalogued shares the canonical
//! copy's segments — one bucket residency, one parity charge, one burn —
//! instead of being placed again. The layer is one map, content digest →
//! [`CatalogEntry`]: the canonical placement, the payload's length and
//! the number of version entries that reference it.
//!
//! The map is a view of the MV. Each reference is the `digest` on one
//! [`VersionEntry`], and whoever drops the entry — unlink, ring
//! eviction, an in-place overwrite — releases the digest it carried; an
//! adopted namespace rebuilds the map from its entries alone
//! ([`DedupLayer::adopt`]).
//!
//! Invariant: a version's payload may only be destroyed in place when
//! its digest has exactly one reference — the engine's in-place update
//! guard ([`DedupLayer::shared`]) forces a regenerating update
//! otherwise, so no other version ever points at overwritten bytes.

use crate::ids::ImageId;
use crate::index::VersionEntry;
use ros_cas::Digest;
use ros_udf::UdfPath;
use std::collections::BTreeMap;

/// The canonical placement of a deduplicated payload and its references.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// Segment images holding the canonical copy, in order.
    pub segments: Vec<ImageId>,
    /// Per-segment payload sizes.
    pub seg_sizes: Vec<u64>,
    /// Stored path of the canonical copy inside its image tree(s).
    pub stored: UdfPath,
    /// Payload length in bytes.
    pub len: u64,
    /// Version entries carrying this digest; the entry leaves the map
    /// when the last one is released.
    pub refs: u64,
}

impl CatalogEntry {
    /// The placement of `entry`, a version of the file at `path`, with
    /// no references yet.
    fn of(path: &UdfPath, entry: &VersionEntry) -> Self {
        CatalogEntry {
            segments: entry.segs.clone(),
            seg_sizes: entry.seg_sizes.clone(),
            stored: entry.stored_path(path).clone(),
            len: entry.size,
            refs: 0,
        }
    }
}

/// Dedup accounting snapshot (surfaced through the maintenance
/// interface and `repro cas-smoke`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DedupStats {
    /// Live deduplicated blobs.
    pub blobs: u64,
    /// Total references across blobs (catalogued versions).
    pub links: u64,
    /// Bytes as written by clients.
    pub logical_bytes: u64,
    /// Bytes actually resident/burned once.
    pub unique_bytes: u64,
    /// `logical / unique`; 1.0 when the store is empty.
    pub dedup_ratio: f64,
}

/// The engine-owned dedup state: digest → canonical placement.
#[derive(Debug, Default)]
pub struct DedupLayer {
    catalog: BTreeMap<Digest, CatalogEntry>,
}

impl DedupLayer {
    /// A dedup hit: one more version shares the payload catalogued
    /// under `digest`. Returns its canonical placement, or `None` (and
    /// records nothing) when the digest is not catalogued.
    pub(crate) fn link(&mut self, digest: &Digest) -> Option<&CatalogEntry> {
        let canonical = self.catalog.get_mut(digest)?;
        canonical.refs += 1;
        Some(canonical)
    }

    /// Records the reference of `entry`, a freshly placed or in-place
    /// updated version of `path`, whose bytes become the canonical copy
    /// of its digest (replacing an earlier one). Entries without a
    /// digest are not catalogued.
    pub(crate) fn record_canonical(&mut self, path: &UdfPath, entry: &VersionEntry) {
        if let Some(digest) = entry.digest {
            let mut canonical = CatalogEntry::of(path, entry);
            canonical.refs = self.catalog.get(&digest).map_or(0, |c| c.refs) + 1;
            self.catalog.insert(digest, canonical);
        }
    }

    /// Records the reference of `entry`, a version of `path` in an
    /// adopted namespace walked in path order: the first entry carrying
    /// a digest becomes its canonical copy.
    pub(crate) fn adopt(&mut self, path: &UdfPath, entry: &VersionEntry) {
        if let Some(digest) = entry.digest {
            let canonical = self.catalog.entry(digest);
            let canonical = canonical.or_insert_with(|| CatalogEntry::of(path, entry));
            canonical.refs += 1;
        }
    }

    /// True when more than one version references `digest` — its bytes
    /// must not be updated in place.
    pub(crate) fn shared(&self, digest: &Digest) -> bool {
        self.catalog.get(digest).is_some_and(|c| c.refs > 1)
    }

    /// Gives back the reference a dropped version entry held; the last
    /// one retires the catalog entry, so the digest can be re-ingested
    /// as a fresh canonical copy.
    pub(crate) fn release(&mut self, digest: &Digest) {
        if let Some(c) = self.catalog.get_mut(digest) {
            c.refs -= 1;
            if c.refs == 0 {
                self.catalog.remove(digest);
            }
        }
    }

    /// Dedup accounting snapshot. Saturating: an adopted namespace may
    /// come from hostile media.
    pub(crate) fn stats(&self) -> DedupStats {
        let (mut links, mut logical_bytes, mut unique_bytes) = (0u64, 0u64, 0u64);
        for c in self.catalog.values() {
            links += c.refs;
            logical_bytes = logical_bytes.saturating_add(c.refs.saturating_mul(c.len));
            unique_bytes = unique_bytes.saturating_add(c.len);
        }
        DedupStats {
            blobs: self.catalog.len() as u64,
            links,
            logical_bytes,
            unique_bytes,
            dedup_ratio: if unique_bytes == 0 {
                1.0
            } else {
                logical_bytes as f64 / unique_bytes as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LocTag;

    fn path(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn links_share_and_the_last_release_retires_the_catalog() {
        let mut layer = DedupLayer::default();
        let digest = Digest::from_bytes([9; 32]);
        assert!(layer.link(&digest).is_none(), "nothing stored yet");
        let entry = VersionEntry {
            digest: Some(digest),
            ..VersionEntry::new(LocTag::Bucket, 20, 0, vec![ImageId(1)], vec![20])
        };
        layer.record_canonical(&path("/a"), &entry);
        assert!(!layer.shared(&digest), "one reference is not shared");
        assert_eq!(layer.link(&digest).unwrap().stored, path("/a"));
        assert!(layer.shared(&digest));
        assert!((layer.stats().dedup_ratio - 2.0).abs() < 1e-12);

        // A rebuild from the same two entries agrees, and the first one
        // walked is canonical.
        let mut rebuilt = DedupLayer::default();
        rebuilt.adopt(&path("/a"), &entry);
        rebuilt.adopt(&path("/b"), &entry);
        assert_eq!(rebuilt.stats(), layer.stats());
        assert_eq!(rebuilt.catalog[&digest].stored, path("/a"));

        layer.release(&digest);
        assert!(!layer.shared(&digest));
        assert!(layer.link(&digest).is_some(), "canonical still live");
        layer.release(&digest);
        layer.release(&digest);
        assert!(layer.link(&digest).is_none(), "dead blob leaves catalog");
        assert_eq!(layer.stats().blobs, 0);
    }
}
