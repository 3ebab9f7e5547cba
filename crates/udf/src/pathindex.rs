//! Flat `Hash(path) → entry` namespace index.
//!
//! OLFS's *unique file path* mechanism (§4.4) makes the full path the
//! identity of every object, so namespace resolution does not need a
//! per-directory tree walk: a flat hash index over full paths answers
//! lookups in O(1) regardless of depth or namespace size. The design
//! follows the "Full Path = Content = ID" argument. Its user is OLFS's
//! metadata volume, the one namespace that grows without bound and is
//! probed on every operation; it maintains the index incrementally, in
//! the operations that mutate the namespace. A bucket or a sealed image
//! holds one disc's worth of files and resolves through the
//! [`crate::tree::FsTree`] its on-image format is made of.
//!
//! Determinism: the hash is an FxHash-style multiply-rotate digest with
//! an explicit seed — no per-process randomness, so two runs with the
//! same operation sequence produce byte-identical tables. Collisions are
//! resolved by chaining with full-key comparison; lookups never depend
//! on hash injectivity for correctness.

use crate::tree::Path;

/// The FxHash multiplier (golden-ratio derived, as used by rustc).
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// Default seed for namespace indexes ("ROS_PATH" in ASCII).
pub const DEFAULT_SEED: u64 = 0x524f_535f_5041_5448;

/// Hard ceiling on the average chain length before the table doubles.
const MAX_AVG_CHAIN: usize = 4;

#[inline]
fn fx_step(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_K)
}

/// Seeded FxHash-style digest of a path.
///
/// Components are mixed with their length and a separator word, so
/// distinct component lists feed distinct streams ("/ab/c" ≠ "/a/bc").
/// Std-only and byte-deterministic across platforms.
pub fn hash_path(seed: u64, path: &Path) -> u64 {
    let mut h = fx_step(seed, u64::from(b'/'));
    for c in path.components() {
        let bytes = c.as_bytes();
        h = fx_step(h, bytes.len() as u64);
        let mut i = 0;
        while i + 8 <= bytes.len() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i..i + 8]);
            h = fx_step(h, u64::from_le_bytes(word));
            i += 8;
        }
        if i < bytes.len() {
            let mut word = [0u8; 8];
            word[..bytes.len() - i].copy_from_slice(&bytes[i..]);
            h = fx_step(h, u64::from_le_bytes(word));
        }
        h = fx_step(h, u64::from(b'/'));
    }
    h
}

#[derive(Clone, Debug)]
struct Slot<V> {
    hash: u64,
    key: Path,
    value: V,
}

/// A deterministic flat `path → V` hash index with chained buckets.
///
/// Iteration order is unspecified but fully determined by the seed and
/// the operation sequence; callers that expose an ordering must sort
/// (the namespace layers keep sorted child sidecars for that).
#[derive(Clone, Debug)]
pub struct PathIndex<V> {
    seed: u64,
    buckets: Vec<Vec<Slot<V>>>,
    len: usize,
}

impl<V> Default for PathIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PathIndex<V> {
    /// An empty index with the default seed.
    pub fn new() -> Self {
        Self::with_seed_and_buckets(DEFAULT_SEED, 16)
    }

    /// An empty index with an explicit seed and initial bucket count
    /// (rounded up to a power of two). A bucket count of 1 forces every
    /// key into one chain — used by collision tests.
    pub fn with_seed_and_buckets(seed: u64, buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        PathIndex {
            seed,
            buckets: (0..n).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bucket count (test/diagnostic surface).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket a path resolves to under the current table size
    /// (test/diagnostic surface for forced-collision checks).
    pub fn bucket_of(&self, key: &Path) -> usize {
        self.bucket_index(hash_path(self.seed, key))
    }

    fn bucket_index(&self, hash: u64) -> usize {
        let mask = self.buckets.len() as u64 - 1;
        // The masked value is below the bucket count, so it fits usize.
        usize::try_from(hash & mask).unwrap_or(0)
    }

    /// O(1) lookup.
    pub fn get(&self, key: &Path) -> Option<&V> {
        let h = hash_path(self.seed, key);
        self.buckets[self.bucket_index(h)]
            .iter()
            .find(|s| s.hash == h && s.key == *key)
            .map(|s| &s.value)
    }

    /// O(1) mutable lookup.
    pub fn get_mut(&mut self, key: &Path) -> Option<&mut V> {
        let h = hash_path(self.seed, key);
        let b = self.bucket_index(h);
        self.buckets[b]
            .iter_mut()
            .find(|s| s.hash == h && s.key == *key)
            .map(|s| &mut s.value)
    }

    /// True when the key is present.
    pub fn contains(&self, key: &Path) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces, returning the previous value if any.
    pub fn insert(&mut self, key: Path, value: V) -> Option<V> {
        let h = hash_path(self.seed, &key);
        let b = self.bucket_index(h);
        if let Some(s) = self.buckets[b]
            .iter_mut()
            .find(|s| s.hash == h && s.key == key)
        {
            return Some(core::mem::replace(&mut s.value, value));
        }
        if self.len + 1 > self.buckets.len() * MAX_AVG_CHAIN {
            self.grow();
        }
        let b = self.bucket_index(h);
        self.buckets[b].push(Slot {
            hash: h,
            key,
            value,
        });
        self.len += 1;
        None
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &Path) -> Option<V> {
        let h = hash_path(self.seed, key);
        let b = self.bucket_index(h);
        let pos = self.buckets[b]
            .iter()
            .position(|s| s.hash == h && s.key == *key)?;
        self.len -= 1;
        Some(self.buckets[b].remove(pos).value)
    }

    /// Iterates over `(path, value)` pairs in table order (deterministic
    /// for a given seed and operation sequence, but not sorted).
    pub fn iter(&self) -> impl Iterator<Item = (&Path, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|s| (&s.key, &s.value)))
    }

    /// Doubles the table, redistributing chains deterministically.
    fn grow(&mut self) {
        let new_n = self.buckets.len() * 2;
        let old = core::mem::replace(&mut self.buckets, (0..new_n).map(|_| Vec::new()).collect());
        for bucket in old {
            for slot in bucket {
                let b = self.bucket_index(slot.hash);
                self.buckets[b].push(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut idx = PathIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.insert(p("/a/b"), 1u32), None);
        assert_eq!(idx.insert(p("/a/c"), 2), None);
        assert_eq!(idx.insert(p("/a/b"), 3), Some(1), "replace returns old");
        assert_eq!(idx.get(&p("/a/b")), Some(&3));
        assert_eq!(idx.get(&p("/a/c")), Some(&2));
        assert_eq!(idx.get(&p("/a")), None);
        assert_eq!(idx.len(), 2);
        *idx.get_mut(&p("/a/c")).unwrap() = 9;
        assert_eq!(idx.remove(&p("/a/c")), Some(9));
        assert_eq!(idx.get(&p("/a/c")), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(&p("/a/c")), None);
    }

    #[test]
    fn forced_collisions_resolve_by_key() {
        // One bucket: every key chains into the same slot list, so
        // lookups exercise the full-key comparison path.
        let mut idx = PathIndex::with_seed_and_buckets(7, 1);
        for i in 0..4 {
            idx.insert(p(&format!("/collide/{i}")), i);
        }
        assert_eq!(idx.bucket_count(), 1, "growth threshold not yet hit");
        for i in 0..4 {
            let key = p(&format!("/collide/{i}"));
            assert_eq!(idx.bucket_of(&key), 0);
            assert_eq!(idx.get(&key), Some(&i), "chained key resolves exactly");
        }
        // Removal out of the middle of a chain keeps the others intact.
        assert_eq!(idx.remove(&p("/collide/1")), Some(1));
        assert_eq!(idx.get(&p("/collide/0")), Some(&0));
        assert_eq!(idx.get(&p("/collide/2")), Some(&2));
        assert_eq!(idx.get(&p("/collide/3")), Some(&3));
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut idx = PathIndex::with_seed_and_buckets(DEFAULT_SEED, 1);
        for i in 0..500u32 {
            idx.insert(p(&format!("/dir{}/file{i}", i % 17)), i);
        }
        assert_eq!(idx.len(), 500);
        assert!(idx.bucket_count() > 1, "table grew");
        for i in 0..500u32 {
            assert_eq!(idx.get(&p(&format!("/dir{}/file{i}", i % 17))), Some(&i));
        }
        assert_eq!(idx.iter().count(), 500);
    }

    #[test]
    fn hash_is_seeded_and_component_exact() {
        let a = p("/ab/c");
        let b = p("/a/bc");
        assert_ne!(
            hash_path(DEFAULT_SEED, &a),
            hash_path(DEFAULT_SEED, &b),
            "component boundaries are part of the digest"
        );
        assert_ne!(
            hash_path(1, &a),
            hash_path(2, &a),
            "seed perturbs the digest"
        );
        assert_eq!(
            hash_path(DEFAULT_SEED, &a),
            hash_path(DEFAULT_SEED, &p("/ab/c")),
            "digest is deterministic"
        );
        // Long components exercise the 8-byte word loop and the tail.
        let long = p("/a-rather-long-component-name-spanning-words/tail");
        assert_eq!(
            hash_path(DEFAULT_SEED, &long),
            hash_path(DEFAULT_SEED, &long.clone())
        );
    }
}
