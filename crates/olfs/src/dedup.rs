//! Write-path deduplication over the `ros-cas` blob store (DESIGN.md
//! §14).
//!
//! The engine consults this layer before placing file data: a payload
//! whose content digest is already catalogued shares the canonical
//! copy's segments — one bucket residency, one parity charge, one burn —
//! instead of being placed again. The layer owns three maps:
//!
//! - a refcounted [`BlobStore`] keyed by content digest (the dedup
//!   accounting source of truth);
//! - a *catalog* from digest to the canonical placement (`segments`,
//!   `seg_sizes`, and the stored path inside the image tree);
//! - per-version bookkeeping: `(path, version) → digest` for unlink
//!   refcounting and `(path, version) → stored path` aliases so reads
//!   of a deduplicated version resolve to the canonical copy's bytes.
//!
//! Invariant: a version's payload may only be destroyed in place when
//! its digest has exactly one reference — the engine's in-place update
//! guard ([`DedupLayer::version_shared`]) forces a regenerating update
//! otherwise, so no alias ever points at overwritten bytes.

use crate::ids::ImageId;
use bytes::Bytes;
use ros_cas::{BlobStore, Digest};
use ros_disk::plane::DataPlane;
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
    /// `(path, version) → digest` for every catalogued version.
    versions: BTreeMap<(String, u32), Digest>,
    /// `(path, version) → canonical stored path` for dedup-hit versions
    /// whose bytes live under another file's stored path.
    aliases: BTreeMap<(String, u32), UdfPath>,
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

    /// Registers the canonical (first) copy of a payload: the blob is
    /// put into the store with one reference and the placement is
    /// catalogued under `digest`.
    pub fn record_canonical(
        &mut self,
        path: &UdfPath,
        version: u32,
        digest: Digest,
        data: &Bytes,
        entry: CatalogEntry,
    ) {
        self.store.put_prehashed(digest, data.clone());
        self.catalog.insert(digest, entry);
        self.versions.insert((path.to_string(), version), digest);
    }

    /// Records a dedup hit: `version` of `path` shares the canonical
    /// blob. Links one more reference and installs the read alias.
    /// Returns `false` (and records nothing) if the blob vanished — the
    /// caller then falls back to a normal placement.
    pub fn record_duplicate(
        &mut self,
        path: &UdfPath,
        version: u32,
        digest: Digest,
        stored: &UdfPath,
    ) -> bool {
        if self.store.link(&digest).is_err() {
            return false;
        }
        let key = (path.to_string(), version);
        self.versions.insert(key.clone(), digest);
        if stored != path {
            self.aliases.insert(key, stored.clone());
        }
        true
    }

    /// Canonical stored path serving `version` of `path`, when the
    /// version was a dedup hit against another file's bytes.
    pub fn alias(&self, path: &UdfPath, version: u32) -> Option<&UdfPath> {
        self.aliases.get(&(path.to_string(), version))
    }

    /// True when the digest behind `version` of `path` is referenced by
    /// more than one version — its bytes must not be updated in place.
    pub fn version_shared(&self, path: &UdfPath, version: u32) -> bool {
        self.versions
            .get(&(path.to_string(), version))
            .and_then(|d| self.store.refs(d))
            .map(|refs| refs > 1)
            .unwrap_or(false)
    }

    /// Drops `version` of `path` from the dedup accounting: unlinks its
    /// blob reference and, when the blob dies, retires the catalog
    /// entry. Called on in-place overwrites (the engine guarantees the
    /// digest was unshared) and per-version on unlink.
    pub fn invalidate_version(&mut self, path: &UdfPath, version: u32) {
        let key = (path.to_string(), version);
        self.aliases.remove(&key);
        let Some(digest) = self.versions.remove(&key) else {
            return;
        };
        if let Ok(0) = self.store.unlink(&digest) {
            self.catalog.remove(&digest);
        }
    }

    /// Drops every catalogued version of `path` (file unlink).
    pub fn on_unlink(&mut self, path: &UdfPath) {
        let prefix = path.to_string();
        let versions: Vec<u32> = self
            .versions
            .range((prefix.clone(), 0)..=(prefix, u32::MAX))
            .map(|((_, v), _)| *v)
            .collect();
        for v in versions {
            self.invalidate_version(path, v);
        }
    }

    /// Verifies a payload claimed to be `version` of `path` against its
    /// recorded digest, via the single `ros-cas` verify entry point.
    pub fn verify_version(
        &self,
        path: &UdfPath,
        version: u32,
        data: &[u8],
        plane: &DataPlane,
    ) -> Result<(), ros_cas::CasError> {
        match self.versions.get(&(path.to_string(), version)) {
            Some(digest) => ros_cas::verify_payload(digest, data, plane).map(drop),
            None => Ok(()), // Not catalogued: nothing to verify against.
        }
    }

    /// The underlying blob store (read-only).
    pub fn store(&self) -> &BlobStore {
        &self.store
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

    fn plane() -> DataPlane {
        DataPlane::single()
    }

    fn path(s: &str) -> UdfPath {
        // ros-analysis: allow(L2, test fixture paths are static literals)
        s.parse().unwrap()
    }

    #[test]
    fn duplicate_links_and_unlink_retires_catalog() {
        let mut layer = DedupLayer::new();
        let data = Bytes::from_static(b"shared payload bytes");
        let digest = ros_cas::content_digest(&data, &plane());
        let a = path("/a");
        let b = path("/b");
        layer.record_canonical(
            &a,
            1,
            digest,
            &data,
            CatalogEntry {
                segments: vec![ImageId(1)],
                seg_sizes: vec![data.len() as u64],
                stored: a.clone(),
            },
        );
        assert!(layer.lookup(&digest).is_some());
        assert!(layer.record_duplicate(&b, 1, digest, &a));
        assert_eq!(layer.alias(&b, 1), Some(&a));
        assert!(layer.alias(&a, 1).is_none(), "canonical has no alias");
        assert!(layer.version_shared(&a, 1) && layer.version_shared(&b, 1));
        assert!((layer.stats().dedup_ratio - 2.0).abs() < 1e-12);

        layer.on_unlink(&b);
        assert!(!layer.version_shared(&a, 1));
        assert!(layer.lookup(&digest).is_some(), "canonical still live");
        layer.invalidate_version(&a, 1);
        assert!(layer.lookup(&digest).is_none(), "dead blob leaves catalog");
        assert_eq!(layer.stats().blobs, 0);
    }

    #[test]
    fn verify_version_checks_recorded_digest() {
        let mut layer = DedupLayer::new();
        let data = Bytes::from_static(b"payload");
        let digest = ros_cas::content_digest(&data, &plane());
        let a = path("/a");
        layer.record_canonical(
            &a,
            1,
            digest,
            &data,
            CatalogEntry {
                segments: vec![ImageId(7)],
                seg_sizes: vec![7],
                stored: a.clone(),
            },
        );
        assert!(layer.verify_version(&a, 1, &data, &plane()).is_ok());
        assert!(layer.verify_version(&a, 1, b"tampered", &plane()).is_err());
        // Uncatalogued versions are vacuously fine.
        assert!(layer.verify_version(&a, 9, b"anything", &plane()).is_ok());
    }
}
