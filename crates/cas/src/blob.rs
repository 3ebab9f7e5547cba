//! Refcounted blob storage and the dedup-aware object index.
//!
//! A [`BlobStore`] holds each distinct payload exactly once, keyed by
//! its content [`Digest`], with a strict reference count: `put`/`link`
//! raise it, `unlink` lowers it, and the blob is dropped exactly when
//! the count reaches zero. Accounting tracks *logical* bytes (what
//! callers wrote) against *unique* bytes (what is actually stored) so
//! the dedup ratio is a first-class, deterministic quantity.
//!
//! [`Cas`] layers the `(tenant, bucket, path) → Digest` object index on
//! top, keeping the refcounts consistent as bindings change.

use crate::digest::{content_digest, Digest};
use crate::verified::verify_payload;
use bytes::Bytes;
use ros_disk::plane::DataPlane;
use std::collections::BTreeMap;

/// Typed CAS failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CasError {
    /// No blob with this digest is stored.
    UnknownDigest(Digest),
    /// No binding exists for this object key.
    UnknownObject(String),
    /// A payload's recomputed digest disagrees with the expected one.
    DigestMismatch {
        /// The digest the caller expected.
        expected: Digest,
        /// The digest the payload actually has.
        actual: Digest,
    },
}

impl core::fmt::Display for CasError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CasError::UnknownDigest(d) => write!(f, "unknown digest {}", d.short()),
            CasError::UnknownObject(k) => write!(f, "unknown object {k}"),
            CasError::DigestMismatch { expected, actual } => write!(
                f,
                "digest mismatch: expected {}, got {}",
                expected.short(),
                actual.short()
            ),
        }
    }
}

impl std::error::Error for CasError {}

#[derive(Clone, Debug)]
struct BlobEntry {
    bytes: Bytes,
    refs: u64,
}

/// Outcome of a [`BlobStore::put`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PutOutcome {
    /// The payload's content digest.
    pub digest: Digest,
    /// True when the payload was already stored (this put only linked).
    pub deduped: bool,
}

/// Point-in-time accounting snapshot of a [`BlobStore`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoreStats {
    /// Distinct blobs stored.
    pub blobs: u64,
    /// Sum of all live references.
    pub links: u64,
    /// Bytes across all live references (what callers wrote).
    pub logical_bytes: u64,
    /// Bytes actually stored (each distinct payload once).
    pub unique_bytes: u64,
    /// `logical_bytes / unique_bytes` (1.0 when empty).
    pub dedup_ratio: f64,
}

/// A refcounted, digest-addressed blob store.
///
/// Invariants (upheld by every operation, proptested in
/// `tests/proptests.rs`):
/// - a digest is present iff its refcount is ≥ 1;
/// - `logical_bytes` = Σ refs(d) · len(d); `unique_bytes` = Σ len(d);
/// - `Bytes` payloads are shared by handle, so a `put` of data the
///   caller already holds costs no copy.
#[derive(Clone, Debug, Default)]
pub struct BlobStore {
    blobs: BTreeMap<Digest, BlobEntry>,
    logical_bytes: u64,
    unique_bytes: u64,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Stores (or links) a payload, hashing it on `plane`.
    pub fn put(&mut self, data: Bytes, plane: &DataPlane) -> PutOutcome {
        let digest = content_digest(&data, plane);
        self.put_prehashed(digest, data)
    }

    /// Stores (or links) a payload under a digest the caller already
    /// computed with [`content_digest`]. The caller vouches for the
    /// digest; [`BlobStore::verify`] re-checks it on demand.
    pub fn put_prehashed(&mut self, digest: Digest, data: Bytes) -> PutOutcome {
        let len = data.len() as u64;
        let deduped = match self.blobs.get_mut(&digest) {
            Some(entry) => {
                entry.refs += 1;
                true
            }
            None => {
                self.blobs.insert(
                    digest,
                    BlobEntry {
                        bytes: data,
                        refs: 1,
                    },
                );
                self.unique_bytes += len;
                false
            }
        };
        self.logical_bytes += len;
        PutOutcome { digest, deduped }
    }

    /// Adds a reference to an existing blob. Returns the new count.
    pub fn link(&mut self, digest: &Digest) -> Result<u64, CasError> {
        let entry = self
            .blobs
            .get_mut(digest)
            .ok_or(CasError::UnknownDigest(*digest))?;
        entry.refs += 1;
        self.logical_bytes += entry.bytes.len() as u64;
        Ok(entry.refs)
    }

    /// Drops a reference; the blob is removed when the count reaches
    /// zero. Returns the remaining count.
    pub fn unlink(&mut self, digest: &Digest) -> Result<u64, CasError> {
        let entry = self
            .blobs
            .get_mut(digest)
            .ok_or(CasError::UnknownDigest(*digest))?;
        let len = entry.bytes.len() as u64;
        entry.refs -= 1;
        let remaining = entry.refs;
        self.logical_bytes -= len;
        if remaining == 0 {
            self.blobs.remove(digest);
            self.unique_bytes -= len;
        }
        Ok(remaining)
    }

    /// The stored payload for a digest.
    pub fn get(&self, digest: &Digest) -> Result<&Bytes, CasError> {
        self.blobs
            .get(digest)
            .map(|e| &e.bytes)
            .ok_or(CasError::UnknownDigest(*digest))
    }

    /// True when a blob with this digest is stored.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.blobs.contains_key(digest)
    }

    /// Live reference count for a digest, if stored.
    pub fn refs(&self, digest: &Digest) -> Option<u64> {
        self.blobs.get(digest).map(|e| e.refs)
    }

    /// Recomputes a stored blob's digest on `plane` and checks it.
    pub fn verify(&self, digest: &Digest, plane: &DataPlane) -> Result<(), CasError> {
        let bytes = self.get(digest)?;
        verify_payload(digest, bytes, plane).map(drop)
    }

    /// Stored digests in order (deterministic iteration).
    pub fn digests(&self) -> impl Iterator<Item = &Digest> {
        self.blobs.keys()
    }

    /// Number of distinct blobs.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }

    /// Bytes across all live references.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Bytes actually stored.
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }

    /// `logical / unique` — how many times over the stored bytes are
    /// shared (1.0 for an empty store, ≥ 1.0 otherwise).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.unique_bytes as f64
        }
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            blobs: self.blobs.len() as u64,
            links: self.blobs.values().map(|e| e.refs).sum(),
            logical_bytes: self.logical_bytes,
            unique_bytes: self.unique_bytes,
            dedup_ratio: self.dedup_ratio(),
        }
    }
}

/// Identity of one stored object in the dedup index.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Owning tenant.
    pub tenant: String,
    /// Bucket within the tenant.
    pub bucket: String,
    /// Path within the bucket.
    pub path: String,
}

impl ObjectKey {
    /// Builds a key from its three components.
    pub fn new(
        tenant: impl Into<String>,
        bucket: impl Into<String>,
        path: impl Into<String>,
    ) -> Self {
        ObjectKey {
            tenant: tenant.into(),
            bucket: bucket.into(),
            path: path.into(),
        }
    }
}

impl core::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}/{}", self.tenant, self.bucket, self.path)
    }
}

/// Outcome of a [`Cas::ingest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Digest the key now resolves to.
    pub digest: Digest,
    /// True when the payload was already stored.
    pub deduped: bool,
    /// Digest the key previously resolved to, if it was rebound.
    pub replaced: Option<Digest>,
}

/// A content-addressable store with a dedup-aware object index:
/// `(tenant, bucket, path) → Digest` over a refcounted [`BlobStore`].
#[derive(Clone, Debug, Default)]
pub struct Cas {
    store: BlobStore,
    index: BTreeMap<ObjectKey, Digest>,
}

impl Cas {
    /// An empty store.
    pub fn new() -> Self {
        Cas::default()
    }

    /// Stores `data` under `key`, deduplicating against every blob
    /// already stored (any tenant, any bucket). Rebinding a key unlinks
    /// its previous blob.
    pub fn ingest(&mut self, key: ObjectKey, data: Bytes, plane: &DataPlane) -> IngestOutcome {
        let put = self.store.put(data, plane);
        let replaced = self.index.insert(key, put.digest);
        if let Some(old) = replaced {
            // The key held a reference to its old blob; release it.
            // The unlink cannot fail: the index only holds digests the
            // store contains.
            let _ = self.store.unlink(&old);
        }
        IngestOutcome {
            digest: put.digest,
            deduped: put.deduped,
            replaced,
        }
    }

    /// The digest a key resolves to.
    pub fn resolve(&self, key: &ObjectKey) -> Result<Digest, CasError> {
        self.index
            .get(key)
            .copied()
            .ok_or_else(|| CasError::UnknownObject(key.to_string()))
    }

    /// The payload a key resolves to.
    pub fn read(&self, key: &ObjectKey) -> Result<&Bytes, CasError> {
        let digest = self.index.get(key).copied();
        match digest {
            Some(d) => self.store.get(&d),
            None => Err(CasError::UnknownObject(key.to_string())),
        }
    }

    /// Removes a binding, unlinking its blob. Returns the old digest.
    pub fn remove(&mut self, key: &ObjectKey) -> Result<Digest, CasError> {
        let digest = self
            .index
            .remove(key)
            .ok_or_else(|| CasError::UnknownObject(key.to_string()))?;
        let _ = self.store.unlink(&digest);
        Ok(digest)
    }

    /// Number of bound objects.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// The underlying blob store (accounting, verification).
    pub fn store(&self) -> &BlobStore {
        &self.store
    }

    /// Bound keys and digests in key order.
    pub fn objects(&self) -> impl Iterator<Item = (&ObjectKey, &Digest)> {
        self.index.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> DataPlane {
        DataPlane::single()
    }

    #[test]
    fn put_links_and_unlinks_maintain_accounting() {
        let mut s = BlobStore::new();
        let a = s.put(Bytes::from_static(b"payload-a"), &plane());
        assert!(!a.deduped);
        let a2 = s.put(Bytes::from_static(b"payload-a"), &plane());
        assert!(a2.deduped);
        assert_eq!(a.digest, a2.digest);
        assert_eq!(s.refs(&a.digest), Some(2));
        assert_eq!(s.logical_bytes(), 18);
        assert_eq!(s.unique_bytes(), 9);
        assert!((s.dedup_ratio() - 2.0).abs() < 1e-12);

        assert_eq!(s.unlink(&a.digest), Ok(1));
        assert!(s.contains(&a.digest));
        assert_eq!(s.unlink(&a.digest), Ok(0));
        assert!(!s.contains(&a.digest));
        assert_eq!(s.logical_bytes(), 0);
        assert_eq!(s.unique_bytes(), 0);
        assert_eq!(
            s.unlink(&a.digest),
            Err(CasError::UnknownDigest(a.digest)),
            "unlinking a dead digest is a typed error, not a double-free"
        );
    }

    #[test]
    fn link_requires_a_live_blob() {
        let mut s = BlobStore::new();
        let ghost = Digest::of(b"never stored");
        assert_eq!(s.link(&ghost), Err(CasError::UnknownDigest(ghost)));
        let out = s.put(Bytes::from_static(b"x"), &plane());
        assert_eq!(s.link(&out.digest), Ok(2));
    }

    #[test]
    fn verify_catches_mismatches() {
        let mut s = BlobStore::new();
        let out = s.put(Bytes::from_static(b"good bytes"), &plane());
        assert!(s.verify(&out.digest, &plane()).is_ok());
        let wrong = Digest::of(b"other bytes");
        assert!(matches!(
            verify_payload(&wrong, b"good bytes", &plane()),
            Err(CasError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn index_rebind_and_remove_release_references() {
        let mut cas = Cas::new();
        let k1 = ObjectKey::new("t1", "b", "/a");
        let k2 = ObjectKey::new("t2", "b", "/a");
        let first = cas.ingest(k1.clone(), Bytes::from_static(b"shared"), &plane());
        let second = cas.ingest(k2.clone(), Bytes::from_static(b"shared"), &plane());
        assert!(!first.deduped);
        assert!(second.deduped);
        assert_eq!(cas.store().blob_count(), 1);
        assert_eq!(cas.store().refs(&first.digest), Some(2));

        // Rebind k2 to new content: old blob keeps one reference.
        let third = cas.ingest(k2.clone(), Bytes::from_static(b"fresh"), &plane());
        assert_eq!(third.replaced, Some(first.digest));
        assert_eq!(cas.store().refs(&first.digest), Some(1));
        assert_eq!(cas.store().blob_count(), 2);

        assert_eq!(cas.remove(&k1), Ok(first.digest));
        assert!(!cas.store().contains(&first.digest));
        assert!(matches!(cas.remove(&k1), Err(CasError::UnknownObject(_))));
        assert_eq!(cas.read(&k2).map(|b| b.as_ref()), Ok(&b"fresh"[..]));
        assert!(cas.resolve(&k1).is_err());
    }
}
