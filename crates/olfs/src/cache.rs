//! The Read Cache (RC) — LRU over whole disc images (§4.1).
//!
//! "Considering that recently and frequently read data are likely to be
//! used again according to data life cycles, Read Cache (RC) retains some
//! recently used disc images according to a LRU algorithms... The current
//! design of OLFS only considers a disc image as a cache unit,
//! sufficiently exploiting spatial locality."
//!
//! Unburned images are *pinned*: they are the only copy of their data and
//! must never be evicted before burning completes.
//!
//! The recency list is an intrusive doubly-linked list over a slab of
//! nodes, addressed through a `HashMap<ImageId, usize>` index, so
//! `touch`/`insert`/`remove`/`contains` are O(1) regardless of how many
//! images are resident (a production rack caches hundreds of images and
//! touches the cache on every read). Only eviction walks the list, and
//! only past the pinned prefix of the cold end.

use crate::ids::ImageId;
use std::collections::HashMap;

#[cfg(test)]
thread_local! {
    /// Nodes the eviction walk asked [`ReadCache::pinned`] about on this
    /// thread: the count the tests pin (the pinned cold prefix plus the
    /// victim, never the list).
    static EVICT_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Eviction-policy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the image cached.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Images evicted.
    pub evictions: u64,
}

/// Slab index of "no node": list terminator / unlinked marker.
const NIL: usize = usize::MAX;

/// One entry of the intrusive recency list.
#[derive(Clone, Copy, Debug)]
struct Node {
    id: ImageId,
    /// Slab index of the next-colder entry (`NIL` at the coldest end).
    prev: usize,
    /// Slab index of the next-hotter entry (`NIL` at the hottest end).
    next: usize,
}

/// An LRU cache of disc-image residency (the bytes live in the image
/// store; the cache tracks *which* images stay on the disk tier).
// The two HashMaps below are point-lookup-only (insert/get/remove); the
// LRU order itself lives in the intrusive list, so hash iteration order
// never reaches an observable output. `clippy::iter_over_hash_type`
// guards against any future iteration creeping in.
#[derive(Clone, Debug)]
pub struct ReadCache {
    capacity: usize,
    /// Node slab; freed slots are recycled through `free`.
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Resident image -> slab index.
    index: HashMap<ImageId, usize>,
    /// Coldest entry (eviction candidate end).
    head: usize,
    /// Hottest entry (most recently used end).
    tail: usize,
    /// Pin counts; pinned images are never evicted.
    pins: HashMap<ImageId, u32>,
    stats: CacheStats,
}

impl ReadCache {
    /// Creates a cache holding up to `capacity` images.
    pub fn new(capacity: usize) -> Self {
        ReadCache {
            capacity: capacity.max(1),
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            pins: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Returns the capacity in images.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the number of resident images.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns true when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns true if the image is resident.
    pub fn contains(&self, id: ImageId) -> bool {
        self.index.contains_key(&id)
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Detaches node `n` from the recency list (it stays in the slab).
    fn unlink(&mut self, n: usize) {
        let Node { prev, next, .. } = self.nodes[n];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Appends node `n` at the hot end.
    fn push_hot(&mut self, n: usize) {
        self.nodes[n].prev = self.tail;
        self.nodes[n].next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail].next = n;
        } else {
            self.head = n;
        }
        self.tail = n;
    }

    /// Allocates a slab node for `id`, recycling freed slots.
    fn alloc(&mut self, id: ImageId) -> usize {
        match self.free.pop() {
            Some(n) => {
                self.nodes[n] = Node {
                    id,
                    prev: NIL,
                    next: NIL,
                };
                n
            }
            None => {
                self.nodes.push(Node {
                    id,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        }
    }

    /// Whether node `n`'s image is pinned: the eviction walk's one
    /// question per node it visits.
    fn pinned(&self, n: usize) -> bool {
        #[cfg(test)]
        EVICT_VISITS.with(|v| v.set(v.get() + 1));
        self.pins.contains_key(&self.nodes[n].id)
    }

    /// Records a lookup; on a hit the image becomes most-recently-used.
    pub fn touch(&mut self, id: ImageId) -> bool {
        if let Some(&n) = self.index.get(&id) {
            self.unlink(n);
            self.push_hot(n);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Inserts an image as most-recently-used, returning any images that
    /// must be dropped from the disk tier to make room.
    pub fn insert(&mut self, id: ImageId) -> Vec<ImageId> {
        if let Some(&n) = self.index.get(&id) {
            self.unlink(n);
            self.push_hot(n);
        } else {
            let n = self.alloc(id);
            self.push_hot(n);
            self.index.insert(id, n);
        }
        let mut evicted = Vec::new();
        while self.index.len() > self.capacity {
            // Evict the coldest unpinned image; never the one just
            // inserted (it reached the cold end only if everything
            // colder is pinned, and evicting the incoming image would
            // defeat the insert).
            let mut n = self.head;
            while n != NIL && self.pinned(n) {
                n = self.nodes[n].next;
            }
            if n == NIL || self.nodes[n].id == id {
                // Everything (else) is pinned: tolerate overflow rather
                // than evict a sole copy.
                break;
            }
            let victim = self.nodes[n].id;
            self.unlink(n);
            self.free.push(n);
            self.index.remove(&victim);
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Removes an image (e.g. the disk copy was dropped for space). Any
    /// pin state dies with the residency: a pin protects the resident
    /// copy, and a later re-insert must start unprotected.
    pub fn remove(&mut self, id: ImageId) -> bool {
        if let Some(n) = self.index.remove(&id) {
            self.unlink(n);
            self.free.push(n);
            self.pins.remove(&id);
            true
        } else {
            false
        }
    }

    /// Pins an image against eviction (unburned images).
    pub fn pin(&mut self, id: ImageId) {
        *self.pins.entry(id).or_insert(0) += 1;
    }

    /// Releases one pin.
    pub fn unpin(&mut self, id: ImageId) {
        if let Some(count) = self.pins.get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&id);
            }
        }
    }

    /// Returns the images in LRU order (coldest first).
    pub fn lru_order(&self) -> impl Iterator<Item = ImageId> + '_ {
        let mut cur = self.head;
        core::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let node = &self.nodes[cur];
                cur = node.next;
                Some(node.id)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<ImageId> {
        v.iter().copied().map(ImageId).collect()
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ReadCache::new(3);
        assert!(c.insert(ImageId(1)).is_empty());
        assert!(c.insert(ImageId(2)).is_empty());
        assert!(c.insert(ImageId(3)).is_empty());
        // Touch 1 so 2 becomes coldest.
        assert!(c.touch(ImageId(1)));
        let evicted = c.insert(ImageId(4));
        assert_eq!(evicted, ids(&[2]));
        assert!(c.contains(ImageId(1)));
        assert!(!c.contains(ImageId(2)));
    }

    #[test]
    fn pinned_images_survive() {
        let mut c = ReadCache::new(2);
        c.insert(ImageId(1));
        c.pin(ImageId(1));
        c.insert(ImageId(2));
        let evicted = c.insert(ImageId(3));
        // 1 is pinned; 2 must go instead.
        assert_eq!(evicted, ids(&[2]));
        assert!(c.contains(ImageId(1)));
        // Unpin and it becomes evictable.
        c.unpin(ImageId(1));
        let evicted = c.insert(ImageId(4));
        assert_eq!(evicted, ids(&[1]));
    }

    #[test]
    fn all_pinned_overflows_gracefully() {
        let mut c = ReadCache::new(2);
        for i in 1..=3 {
            c.insert(ImageId(i));
            c.pin(ImageId(i));
        }
        assert_eq!(c.len(), 3, "overflow tolerated when all pinned");
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut c = ReadCache::new(2);
        c.insert(ImageId(1));
        c.insert(ImageId(2));
        c.insert(ImageId(1)); // refresh
        let evicted = c.insert(ImageId(3));
        assert_eq!(evicted, ids(&[2]));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = ReadCache::new(2);
        c.insert(ImageId(1));
        assert!(c.touch(ImageId(1)));
        assert!(!c.touch(ImageId(9)));
        c.insert(ImageId(2));
        c.insert(ImageId(3));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn remove_and_empty() {
        let mut c = ReadCache::new(2);
        assert!(c.is_empty());
        c.insert(ImageId(5));
        assert!(c.remove(ImageId(5)));
        assert!(!c.remove(ImageId(5)));
        assert!(c.is_empty());
        // Double pin requires double unpin.
        c.insert(ImageId(7));
        c.pin(ImageId(7));
        c.pin(ImageId(7));
        c.unpin(ImageId(7));
        c.insert(ImageId(8));
        let evicted = c.insert(ImageId(9));
        assert!(!evicted.contains(&ImageId(7)));
    }

    #[test]
    fn remove_clears_pin_state() {
        // Regression: removing a pinned image used to leave its pin
        // count behind, permanently shielding a later re-insert of the
        // same id from eviction.
        let mut c = ReadCache::new(2);
        c.insert(ImageId(1));
        c.pin(ImageId(1));
        assert!(c.remove(ImageId(1)));
        c.insert(ImageId(1)); // fresh residency, no pins outstanding
        c.insert(ImageId(2));
        let evicted = c.insert(ImageId(3));
        assert_eq!(evicted, ids(&[1]), "re-inserted image must be evictable");
    }

    #[test]
    fn evicting_one_image_visits_at_most_the_pinned_prefix_and_the_victim() {
        let visits = || EVICT_VISITS.with(std::cell::Cell::get);
        let capacity = 640u64;
        for pinned in [0u64, 3, 40] {
            let mut c = ReadCache::new(capacity as usize);
            for i in 0..capacity {
                c.insert(ImageId(i));
            }
            for i in 0..pinned {
                c.pin(ImageId(i));
            }
            for i in 0..100 {
                let before = visits();
                assert_eq!(c.insert(ImageId(capacity + i)).len(), 1);
                let visited = visits() - before;
                assert!(
                    (1..=pinned as usize + 1).contains(&visited),
                    "{visited} nodes visited with {pinned} pinned of {capacity}"
                );
            }
        }
    }

    #[test]
    fn lru_order_walks_cold_to_hot() {
        let mut c = ReadCache::new(4);
        for i in [3u64, 1, 4, 2] {
            c.insert(ImageId(i));
        }
        c.touch(ImageId(4));
        let order: Vec<ImageId> = c.lru_order().collect();
        assert_eq!(order, ids(&[3, 1, 2, 4]));
    }

    #[test]
    fn slab_recycles_after_heavy_churn() {
        // The slab must not grow proportionally to total inserts, only
        // to peak residency.
        let mut c = ReadCache::new(8);
        for i in 0..10_000u64 {
            c.insert(ImageId(i));
            if i % 3 == 0 {
                c.remove(ImageId(i));
            }
        }
        assert!(c.len() <= 8);
        assert!(
            c.nodes.len() <= 16,
            "slab grew to {} nodes for capacity 8",
            c.nodes.len()
        );
    }
}
