//! Write-path deduplication over the `ros-cas` blob store (DESIGN.md
//! §14).
//!
//! The engine consults this layer before placing file data: a payload
//! whose content digest is already catalogued shares the canonical
//! copy's segments — one bucket residency, one parity charge, one burn —
//! instead of being placed again. The layer owns two maps, both keyed
//! by content digest:
//!
//! - a refcounted [`BlobStore`] (the dedup accounting source of truth);
//! - a *catalog* from digest to the canonical placement (`segments`,
//!   `seg_sizes`, and the stored path inside the image tree).
//!
//! Which version holds which reference is not recorded here: a version's
//! digest sits on its MV index entry ([`crate::index::VersionEntry`]),
//! and whoever drops the entry — unlink, ring eviction, an in-place
//! overwrite — releases the digest it carried.
//!
//! Invariant: a version's payload may only be destroyed in place when
//! its digest has exactly one reference — the engine's in-place update
//! guard ([`DedupLayer::shared`]) forces a regenerating update
//! otherwise, so no other version ever points at overwritten bytes.

use crate::ids::ImageId;
use bytes::Bytes;
use ros_cas::{BlobStore, Digest};
use ros_udf::UdfPath;
use std::collections::BTreeMap;

/// The canonical placement of a deduplicated payload.
#[derive(Clone, Debug)]
pub struct CatalogEntry {
    /// Segment images holding the canonical copy, in order.
    pub segments: Vec<ImageId>,
    /// Per-segment payload sizes.
    pub seg_sizes: Vec<u64>,
    /// Stored path of the canonical copy inside its image tree(s).
    pub stored: UdfPath,
}

/// Dedup accounting snapshot (surfaced through the maintenance
/// interface and `repro perf`).
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

/// The engine-owned dedup state.
#[derive(Debug, Default)]
pub struct DedupLayer {
    store: BlobStore,
    catalog: BTreeMap<Digest, CatalogEntry>,
}

impl DedupLayer {
    /// An empty layer.
    pub fn new() -> Self {
        DedupLayer::default()
    }

    /// Canonical placement for a digest, if catalogued.
    pub fn lookup(&self, digest: &Digest) -> Option<&CatalogEntry> {
        self.catalog.get(digest)
    }

    /// Registers a freshly placed copy of a payload as the canonical
    /// one: the blob gains a reference (its first, unless the same bytes
    /// are already stored elsewhere) and `digest` is catalogued at
    /// `entry`.
    pub fn record_canonical(&mut self, digest: Digest, data: &Bytes, entry: CatalogEntry) {
        self.store.put_prehashed(digest, data.clone());
        self.catalog.insert(digest, entry);
    }

    /// Records a dedup hit: one more version shares the catalogued
    /// blob. Returns `false` (and records nothing) if the blob is not
    /// stored.
    pub fn link(&mut self, digest: &Digest) -> bool {
        self.store.link(digest).is_ok()
    }

    /// True when more than one version references `digest` — its bytes
    /// must not be updated in place.
    pub fn shared(&self, digest: &Digest) -> bool {
        self.store.refs(digest).is_some_and(|refs| refs > 1)
    }

    /// Gives back the reference a dropped version entry held; when the
    /// blob dies the catalog entry is retired, so the digest can be
    /// re-ingested as a fresh canonical copy.
    pub fn release(&mut self, digest: &Digest) {
        if let Ok(0) = self.store.unlink(digest) {
            self.catalog.remove(digest);
        }
    }

    /// Dedup accounting snapshot.
    pub fn stats(&self) -> DedupStats {
        let s = self.store.stats();
        DedupStats {
            blobs: s.blobs,
            links: s.links,
            logical_bytes: s.logical_bytes,
            unique_bytes: s.unique_bytes,
            dedup_ratio: s.dedup_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_disk::plane::DataPlane;

    fn path(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn links_share_and_the_last_release_retires_the_catalog() {
        let mut layer = DedupLayer::new();
        let data = Bytes::from_static(b"shared payload bytes");
        let digest = ros_cas::content_digest(&data, &DataPlane::single());
        assert!(!layer.link(&digest), "nothing stored yet");
        layer.record_canonical(
            digest,
            &data,
            CatalogEntry {
                segments: vec![ImageId(1)],
                seg_sizes: vec![data.len() as u64],
                stored: path("/a"),
            },
        );
        assert_eq!(layer.lookup(&digest).unwrap().stored, path("/a"));
        assert!(!layer.shared(&digest), "one reference is not shared");
        assert!(layer.link(&digest));
        assert!(layer.shared(&digest));
        assert!((layer.stats().dedup_ratio - 2.0).abs() < 1e-12);

        layer.release(&digest);
        assert!(!layer.shared(&digest));
        assert!(layer.lookup(&digest).is_some(), "canonical still live");
        layer.release(&digest);
        assert!(layer.lookup(&digest).is_none(), "dead blob leaves catalog");
        assert_eq!(layer.stats().blobs, 0);
    }
}
