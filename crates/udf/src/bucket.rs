//! Updatable write buckets — the staging form of disc images (§4.3).
//!
//! "OLFS initially generates a series of empty buckets, each of which is a
//! Linux loop device formatted as an updatable UDF volume. When an empty
//! bucket begins to receive data, OLFS allocates an image ID to it. After
//! the bucket is filled up, it will transit into a disc image with the
//! same image ID. The bucket can be recycled by clearing all data in it."
//!
//! A bucket enforces the admission rule of §4.5: a file (plus any new
//! ancestor directories) is admitted only if it fits in the remaining
//! capacity; otherwise the caller closes the bucket and retries in a
//! fresh one, possibly splitting the file.

use crate::block::{blocks_for, BLOCK_SIZE};
use crate::format::{self, FormatError};
use crate::image::SealedImage;
use crate::tree::{FileMeta, FsTree, Path, TreeError};
use bytes::Bytes;

/// Errors from bucket operations.
#[derive(Clone, Debug, PartialEq)]
pub enum BucketError {
    /// The file (with its new directories) does not fit; close the bucket
    /// and write to a fresh one.
    WontFit {
        /// On-image bytes the write needs.
        needed: u64,
        /// Bytes still free.
        free: u64,
    },
    /// Tree-level failure.
    Tree(TreeError),
    /// Serialization failure at close.
    Format(FormatError),
}

impl From<TreeError> for BucketError {
    fn from(e: TreeError) -> Self {
        BucketError::Tree(e)
    }
}

impl From<FormatError> for BucketError {
    fn from(e: FormatError) -> Self {
        BucketError::Format(e)
    }
}

impl core::fmt::Display for BucketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BucketError::WontFit { needed, free } => {
                write!(f, "write of {needed} bytes won't fit in {free} free")
            }
            BucketError::Tree(e) => write!(f, "tree: {e}"),
            BucketError::Format(e) => write!(f, "format: {e}"),
        }
    }
}

impl std::error::Error for BucketError {}

/// An open, updatable UDF bucket.
///
/// The staged namespace is the [`FsTree`] the image will be serialised
/// from: reads resolve through it, and its running block total is the
/// §4.5 accounting, so admission costs one walk down the path.
#[derive(Clone, Debug)]
pub struct Bucket {
    image_id: u64,
    capacity_bytes: u64,
    tree: FsTree,
}

impl Bucket {
    /// Creates an empty bucket targeting a disc of `capacity_bytes`.
    pub fn new(image_id: u64, capacity_bytes: u64) -> Self {
        Bucket {
            image_id,
            capacity_bytes,
            tree: FsTree::new(),
        }
    }

    /// Returns the image id this bucket will seal into.
    pub fn image_id(&self) -> u64 {
        self.image_id
    }

    /// Returns the declared capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Returns the on-image bytes already committed.
    pub fn used_bytes(&self) -> u64 {
        self.tree.image_bytes()
    }

    /// Returns the bytes still free.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes())
    }

    /// Returns true if no file was ever written.
    pub fn is_empty(&self) -> bool {
        self.tree.file_count() == 0
    }

    /// Read access to the staged tree (buckets are readable in place;
    /// Table 1's fastest hit class).
    pub fn tree(&self) -> &FsTree {
        &self.tree
    }

    /// Reads a staged file; the returned [`Bytes`] is a refcounted
    /// handle, not a copy.
    pub fn read(&self, path: &Path) -> Result<Bytes, TreeError> {
        self.tree.read(path)
    }

    /// Stats a staged file.
    pub fn stat(&self, path: &Path) -> Result<FileMeta, TreeError> {
        self.tree.stat(path)
    }

    /// Returns true if the bucket stages the file.
    pub fn contains(&self, path: &Path) -> bool {
        self.tree.is_file(path)
    }

    /// The on-image cost a write would incur (data + entry + any new
    /// ancestor directories).
    pub fn cost_of(&self, path: &Path, size: u64) -> u64 {
        self.tree.cost_of_insert(path, size)
    }

    /// The largest data prefix of a `size`-byte file at `path` that still
    /// fits, rounded down to a block boundary; `None` if not even one
    /// block fits. Used by OLFS to split files across buckets (§4.5).
    pub fn max_prefix(&self, path: &Path, size: u64) -> Option<u64> {
        let free = self.free_bytes();
        let overhead = self.cost_of(path, 0);
        if free < overhead + BLOCK_SIZE {
            return None;
        }
        let data_room = free - overhead;
        Some(size.min(data_room / BLOCK_SIZE * BLOCK_SIZE))
    }

    /// Writes a new file, enforcing the §4.5 admission rule.
    pub fn write(
        &mut self,
        path: &Path,
        data: impl Into<Bytes>,
        mtime_nanos: u64,
    ) -> Result<(), BucketError> {
        let free = self.free_bytes();
        self.tree
            .insert_within(path, data.into(), mtime_nanos, free)?
            .map_err(|needed| BucketError::WontFit { needed, free })
    }

    /// Updates an existing file in place (legal only while the bucket is
    /// open; §4.6: "If an updating file is still in an opened bucket with
    /// sufficient free space, the file can be simply updated").
    pub fn update(
        &mut self,
        path: &Path,
        data: impl Into<Bytes>,
        mtime_nanos: u64,
    ) -> Result<(), BucketError> {
        let data = data.into();
        let old_blocks = blocks_for(self.tree.stat(path)?.size);
        let growth = blocks_for(data.len() as u64).saturating_sub(old_blocks) * BLOCK_SIZE;
        let free = self.free_bytes();
        if growth > free {
            return Err(BucketError::WontFit {
                needed: growth,
                free,
            });
        }
        Ok(self.tree.update(path, data, mtime_nanos)?)
    }

    /// Recycles the bucket: clears all data so it can stage a new image
    /// under a new id (§4.3).
    pub fn recycle(&mut self, new_image_id: u64) {
        self.image_id = new_image_id;
        self.tree = FsTree::new();
    }

    /// Seals the bucket into an immutable disc image.
    pub fn close(&self) -> Result<SealedImage, BucketError> {
        let bytes = format::serialize(&self.tree, self.image_id, self.capacity_bytes)?;
        // `serialize` refuses every tree `parse_image` would (pinned by the
        // format and edge-case tests), so this parse does not fail.
        Ok(SealedImage::from_bytes(bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn bucket(blocks: u64) -> Bucket {
        Bucket::new(1, blocks * BLOCK_SIZE)
    }

    #[test]
    fn write_and_read_back() {
        let mut b = bucket(64);
        b.write(&p("/a/file"), &b"content"[..], 5).unwrap();
        assert_eq!(b.tree().read(&p("/a/file")).unwrap().as_ref(), b"content");
        assert!(!b.is_empty());
        assert_eq!(b.image_id(), 1);
    }

    #[test]
    fn admission_rule_rejects_oversize() {
        let mut b = bucket(8);
        // Overhead(2) + root ICB(1) leaves 5 blocks; a 5-block file needs
        // entry + 5 data + root FID data = 7.
        let err = b
            .write(&p("/big"), vec![0u8; 5 * BLOCK_SIZE as usize], 0)
            .unwrap_err();
        assert!(matches!(err, BucketError::WontFit { .. }));
        // A 2-block file fits: entry(1) + data(2) + fid block(1) = 4.
        b.write(&p("/ok"), vec![0u8; 2 * BLOCK_SIZE as usize], 0)
            .unwrap();
    }

    #[test]
    fn used_plus_free_is_capacity() {
        let mut b = bucket(128);
        b.write(&p("/x/y/z"), vec![1u8; 9000], 0).unwrap();
        assert_eq!(b.used_bytes() + b.free_bytes(), b.capacity_bytes());
    }

    #[test]
    fn max_prefix_splits_on_block_boundary() {
        let mut b = bucket(16);
        b.write(&p("/pad"), vec![0u8; 3 * BLOCK_SIZE as usize], 0)
            .unwrap();
        let free = b.free_bytes();
        assert!(free > 0);
        let want = 100 * BLOCK_SIZE;
        let prefix = b.max_prefix(&p("/huge"), want).unwrap();
        assert!(prefix < want);
        assert_eq!(prefix % BLOCK_SIZE, 0);
        // The prefix actually fits.
        b.write(&p("/huge"), vec![0u8; prefix as usize], 0).unwrap();
        // A completely full bucket yields no prefix.
        assert!(b.max_prefix(&p("/more"), want).is_none() || b.free_bytes() >= BLOCK_SIZE);
    }

    #[test]
    fn update_in_place_within_capacity() {
        let mut b = bucket(32);
        b.write(&p("/f"), vec![0u8; 100], 1).unwrap();
        b.update(&p("/f"), vec![1u8; 4000], 2).unwrap();
        assert_eq!(b.tree().stat(&p("/f")).unwrap().size, 4000);
        // Updating a missing file fails.
        assert!(matches!(
            b.update(&p("/nope"), &b""[..], 3).unwrap_err(),
            BucketError::Tree(TreeError::NotFound(_))
        ));
        // Growing beyond capacity fails and leaves the file intact.
        let err = b
            .update(&p("/f"), vec![2u8; 64 * BLOCK_SIZE as usize], 4)
            .unwrap_err();
        assert!(matches!(err, BucketError::WontFit { .. }));
        assert_eq!(b.tree().stat(&p("/f")).unwrap().size, 4000);
    }

    #[test]
    fn recycle_clears_everything() {
        let mut b = bucket(64);
        b.write(&p("/f"), vec![0u8; 100], 0).unwrap();
        let used = b.used_bytes();
        b.recycle(99);
        assert!(b.is_empty());
        assert_eq!(b.image_id(), 99);
        assert!(b.used_bytes() < used);
    }

    #[test]
    fn close_seals_a_parseable_image() {
        let mut b = bucket(64);
        b.write(&p("/data/file1"), &b"one"[..], 1).unwrap();
        b.write(&p("/data/file2"), &b"two"[..], 2).unwrap();
        let img = b.close().unwrap();
        assert_eq!(img.image_id(), 1);
        assert_eq!(img.read(&p("/data/file1")).unwrap().as_ref(), b"one");
        assert_eq!(img.scan_files().len(), 2);
        // Closing doesn't consume the bucket; it can still be recycled.
        b.recycle(2);
        assert!(b.is_empty());
    }

    #[test]
    fn reads_track_write_update_recycle() {
        let mut b = bucket(64);
        b.write(&p("/f"), &b"v1"[..], 1).unwrap();
        assert_eq!(b.read(&p("/f")).unwrap().as_ref(), b"v1");
        b.update(&p("/f"), &b"version-two"[..], 2).unwrap();
        assert_eq!(b.read(&p("/f")).unwrap().as_ref(), b"version-two");
        assert_eq!(b.stat(&p("/f")).unwrap().size, 11);
        b.recycle(7);
        assert!(!b.contains(&p("/f")));
        assert!(matches!(
            b.read(&p("/f")).unwrap_err(),
            TreeError::NotFound(_)
        ));
    }

    #[test]
    fn duplicate_write_is_rejected() {
        let mut b = bucket(64);
        b.write(&p("/f"), &b"x"[..], 0).unwrap();
        assert!(matches!(
            b.write(&p("/f"), &b"y"[..], 1).unwrap_err(),
            BucketError::Tree(TreeError::AlreadyExists(_))
        ));
    }
}
