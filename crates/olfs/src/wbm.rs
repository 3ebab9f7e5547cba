//! Writing Bucket Management (WBM) — preliminary bucket writing (§4.3).
//!
//! "The actual data of an incoming file is written into an updatable UDF
//! bucket on the disk write buffer... As soon as the file data have been
//! completely written, OLFS immediately acknowledges the completion of the
//! file write."
//!
//! The manager keeps a configurable set of open buckets. Placement is
//! first-come-first-served (§4.5's default policy): a file goes to the
//! first bucket that can admit it whole; when none can, the fullest
//! candidate takes a block-aligned prefix and the bucket is closed,
//! splitting the file across consecutive images with a link file
//! stitching them together.

use crate::ids::ImageId;
use ros_udf::{Bucket, UdfPath};
use serde::{Deserialize, Serialize};

/// Name of the link file stitching a split file back together, placed
/// next to the *second* subfile (§4.5: "OLFS also creates a link file on
/// the second subfile image to point to the first subfile").
pub fn link_file_name(name: &str) -> String {
    format!(".roslink-{name}")
}

/// Returns the original file name if `name` is a link file.
pub fn parse_link_file_name(name: &str) -> Option<&str> {
    name.strip_prefix(".roslink-")
}

/// JSON body of a link file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkFile {
    /// Image holding the previous subfile.
    pub prev_image: u64,
    /// Byte offset of this subfile within the whole file.
    pub offset: u64,
    /// Total size of the whole file.
    pub total_size: u64,
}

impl LinkFile {
    /// Serialises to the on-image JSON form.
    #[expect(
        clippy::expect_used,
        reason = "serializing an owned struct of plain fields cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("link files always serialize")
    }

    /// Parses the on-image JSON form.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// How a write request maps onto buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The whole file fits in one open bucket.
    Whole {
        /// Index of the bucket.
        bucket: usize,
    },
    /// The file must be split: a prefix into `bucket` (which then
    /// closes), the remainder into subsequent buckets.
    Split {
        /// Index of the bucket taking the first part.
        bucket: usize,
        /// Bytes of the file going into that bucket.
        prefix: u64,
    },
    /// No open bucket can take even one block (all essentially full).
    NoRoom,
}

/// The open-bucket pool.
#[derive(Clone, Debug)]
pub struct BucketManager {
    buckets: Vec<Bucket>,
    capacity: u64,
}

impl BucketManager {
    /// Creates `n` open buckets of `capacity` bytes with the given ids.
    pub fn new(ids: Vec<ImageId>, capacity: u64) -> Self {
        BucketManager {
            buckets: ids
                .into_iter()
                .map(|id| Bucket::new(id.0, capacity))
                .collect(),
            capacity,
        }
    }

    /// Number of open buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Per-bucket capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Read access to a bucket.
    pub fn bucket(&self, i: usize) -> Option<&Bucket> {
        self.buckets.get(i)
    }

    /// Write access to a bucket.
    pub fn bucket_mut(&mut self, i: usize) -> Option<&mut Bucket> {
        self.buckets.get_mut(i)
    }

    /// Finds which open bucket stages `image`, if any.
    pub fn locate_image(&self, image: ImageId) -> Option<usize> {
        self.buckets.iter().position(|b| b.image_id() == image.0)
    }

    /// Debug-build accounting invariant: every open bucket's running
    /// block and file totals equal a recount of its tree, no bucket
    /// overruns its capacity, and no two open buckets stage the same
    /// image. Compiled out in release builds.
    #[cfg(debug_assertions)]
    pub fn debug_assert_accounting(&self) {
        for (i, b) in self.buckets.iter().enumerate() {
            b.tree().debug_assert_totals();
            debug_assert!(
                b.used_bytes() <= b.capacity_bytes(),
                "bucket {i} overran its capacity"
            );
            debug_assert_eq!(
                b.capacity_bytes(),
                self.capacity,
                "bucket {i} capacity diverged from the pool capacity"
            );
        }
        let mut ids: Vec<u64> = self.buckets.iter().map(Bucket::image_id).collect();
        ids.sort_unstable();
        ids.dedup();
        debug_assert_eq!(
            ids.len(),
            self.buckets.len(),
            "two open buckets stage the same image"
        );
    }

    /// Release-build no-op twin of [`Self::debug_assert_accounting`].
    #[cfg(not(debug_assertions))]
    pub fn debug_assert_accounting(&self) {}

    /// Plans the placement of a `size`-byte file at `path` (FCFS, §4.5).
    ///
    /// A bucket that already stages `path` cannot take it: the name there
    /// belongs to bytes an unlinked or superseded file left behind, which
    /// stay put until the bucket seals. Such a bucket is passed over, and
    /// when no other has room the caller's [`Placement::NoRoom`] handling
    /// seals buckets until one does.
    pub fn place(&self, path: &UdfPath, size: u64) -> Placement {
        self.debug_assert_accounting();
        let candidates = || {
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.contains(path))
        };
        // First bucket that takes the file whole.
        for (i, b) in candidates() {
            if b.cost_of(path, size) <= b.free_bytes() {
                return Placement::Whole { bucket: i };
            }
        }
        // Otherwise split: pick the bucket able to take the largest
        // prefix (it is closest to full and will close after).
        let best = candidates()
            .filter_map(|(i, b)| b.max_prefix(path, size).map(|p| (i, p)))
            .max_by_key(|&(_, p)| p);
        match best {
            Some((bucket, prefix)) if prefix > 0 => Placement::Split { bucket, prefix },
            _ => Placement::NoRoom,
        }
    }

    /// Replaces bucket `i` with a fresh one staged under `new_id`,
    /// returning the old bucket for sealing.
    pub fn rotate(&mut self, i: usize, new_id: ImageId) -> Bucket {
        let fresh = Bucket::new(new_id.0, self.capacity);
        let old = std::mem::replace(&mut self.buckets[i], fresh);
        self.debug_assert_accounting();
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_udf::BLOCK_SIZE;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn mgr(n: usize, blocks: u64) -> BucketManager {
        let ids = (1..=n as u64).map(ImageId).collect();
        BucketManager::new(ids, blocks * BLOCK_SIZE)
    }

    #[test]
    fn whole_placement_is_first_fit() {
        let m = mgr(3, 64);
        match m.place(&p("/f"), 1000) {
            Placement::Whole { bucket } => assert_eq!(bucket, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn skips_full_buckets() {
        let mut m = mgr(2, 16);
        // Nearly fill bucket 0.
        m.bucket_mut(0)
            .unwrap()
            .write(&p("/fill"), vec![0u8; 10 * BLOCK_SIZE as usize], 0)
            .unwrap();
        match m.place(&p("/f"), 8 * BLOCK_SIZE) {
            Placement::Whole { bucket } => assert_eq!(bucket, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_bucket_already_staging_the_name_is_passed_over() {
        let mut m = mgr(2, 64);
        m.bucket_mut(0)
            .unwrap()
            .write(&p("/f"), vec![1u8; 100], 0)
            .unwrap();
        assert_eq!(m.place(&p("/f"), 100), Placement::Whole { bucket: 1 });
        assert_eq!(m.place(&p("/g"), 100), Placement::Whole { bucket: 0 });
        // Staged everywhere: nothing can take it until a bucket seals.
        m.bucket_mut(1)
            .unwrap()
            .write(&p("/f"), vec![2u8; 100], 0)
            .unwrap();
        assert_eq!(m.place(&p("/f"), 100), Placement::NoRoom);
    }

    #[test]
    fn split_picks_largest_prefix() {
        let mut m = mgr(2, 16);
        m.bucket_mut(0)
            .unwrap()
            .write(&p("/a"), vec![0u8; 8 * BLOCK_SIZE as usize], 0)
            .unwrap();
        m.bucket_mut(1)
            .unwrap()
            .write(&p("/b"), vec![0u8; 4 * BLOCK_SIZE as usize], 0)
            .unwrap();
        // A file too big for either whole: bucket 1 has more room.
        match m.place(&p("/big"), 30 * BLOCK_SIZE) {
            Placement::Split { bucket, prefix } => {
                assert_eq!(bucket, 1);
                assert!(prefix > 0);
                assert_eq!(prefix % BLOCK_SIZE, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_room_when_everything_is_full() {
        let mut m = mgr(1, 8);
        m.bucket_mut(0)
            .unwrap()
            .write(&p("/fill"), vec![0u8; 2 * BLOCK_SIZE as usize], 0)
            .unwrap();
        // Bucket has ~1 free block left after overheads; a new file needs
        // entry + data, so nothing fits and no prefix is possible.
        assert_eq!(m.place(&p("/f"), 10 * BLOCK_SIZE), Placement::NoRoom);
    }

    #[test]
    fn rotate_swaps_in_a_fresh_bucket() {
        let mut m = mgr(2, 64);
        m.bucket_mut(0)
            .unwrap()
            .write(&p("/x"), vec![1u8; 100], 0)
            .unwrap();
        let old = m.rotate(0, ImageId(99));
        assert_eq!(old.image_id(), 1);
        assert!(!old.is_empty());
        assert!(m.bucket(0).unwrap().is_empty());
        assert_eq!(m.bucket(0).unwrap().image_id(), 99);
        assert_eq!(m.locate_image(ImageId(99)), Some(0));
        assert_eq!(m.locate_image(ImageId(1)), None);
    }

    #[test]
    fn link_file_roundtrip() {
        let l = LinkFile {
            prev_image: 7,
            offset: 4096,
            total_size: 10_000,
        };
        let parsed = LinkFile::from_json(&l.to_json()).unwrap();
        assert_eq!(parsed, l);
        assert_eq!(link_file_name("data.bin"), ".roslink-data.bin");
        assert_eq!(parse_link_file_name(".roslink-data.bin"), Some("data.bin"));
        assert_eq!(parse_link_file_name("data.bin"), None);
        assert!(LinkFile::from_json("nonsense").is_err());
    }
}
