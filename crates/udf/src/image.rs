//! Sealed (immutable) disc images.
//!
//! "OLFS considers a disc image as a basic container to accommodate files.
//! Each disc image has the same capacity as the disc and has an internal
//! UDF file system. Therefore, disc images as a whole can swap between
//! discs and disks." (§4.1)
//!
//! A [`SealedImage`] is the parsed, read-only view of such an image. Its
//! raw bytes are what gets burned; parsing those bytes back — including
//! from a disc that is the *only* surviving component — recovers the full
//! directory subtree, which is exactly the self-descriptiveness argument
//! of §4.4.

use crate::format::{self, FormatError, ImageHeader};
use crate::tree::{FileMeta, FsTree, Path, TreeError};
use bytes::Bytes;

/// An immutable, parsed disc image.
///
/// The namespace is the [`FsTree`] [`format::parse_image`] produced —
/// the directory subtree the image carries *is* its index, and every
/// file node holds a zero-copy slice of the image buffer.
#[derive(Clone, Debug)]
pub struct SealedImage {
    header: ImageHeader,
    bytes: Bytes,
    tree: FsTree,
}

impl SealedImage {
    /// Parses raw image bytes (e.g. read back from a disc).
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Result<Self, FormatError> {
        let bytes = bytes.into();
        let (tree, header) = format::parse_image(&bytes)?;
        Ok(SealedImage {
            header,
            bytes,
            tree,
        })
    }

    /// Returns the image id.
    pub fn image_id(&self) -> u64 {
        self.header.image_id
    }

    /// Returns the parsed header.
    pub fn header(&self) -> ImageHeader {
        self.header
    }

    /// Returns the raw bytes (the burn payload).
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Returns the size of the used image in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Returns true for an image holding no files.
    pub fn is_empty(&self) -> bool {
        self.tree.file_count() == 0
    }

    /// Reads one file by its (global) path; the returned [`Bytes`] is a
    /// refcounted slice of the image buffer, not a copy.
    pub fn read(&self, path: &Path) -> Result<Bytes, TreeError> {
        self.tree.read(path)
    }

    /// Stats one file.
    pub fn stat(&self, path: &Path) -> Result<FileMeta, TreeError> {
        self.tree.stat(path)
    }

    /// Returns true if the image carries the file.
    pub fn contains(&self, path: &Path) -> bool {
        self.tree.is_file(path)
    }

    /// Enumerates every file in the image — the namespace-scan primitive
    /// behind MV recovery (§4.2) and post-catastrophe reconstruction
    /// (§4.4).
    pub fn scan_files(&self) -> Vec<(Path, FileMeta)> {
        self.tree.walk_files()
    }

    /// Read access to the whole tree.
    pub fn tree(&self) -> &FsTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_SIZE;
    use crate::bucket::Bucket;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn sealed() -> SealedImage {
        let mut b = Bucket::new(42, 128 * BLOCK_SIZE);
        b.write(&p("/proj/src/main.rs"), &b"fn main() {}"[..], 1)
            .unwrap();
        b.write(&p("/proj/Cargo.toml"), &b"[package]"[..], 2)
            .unwrap();
        b.close().unwrap()
    }

    #[test]
    fn image_reads_files() {
        let img = sealed();
        assert_eq!(img.image_id(), 42);
        assert!(img.contains(&p("/proj/Cargo.toml")));
        assert!(!img.contains(&p("/proj")));
        assert_eq!(
            img.read(&p("/proj/src/main.rs")).unwrap().as_ref(),
            b"fn main() {}"
        );
        assert_eq!(img.stat(&p("/proj/Cargo.toml")).unwrap().size, 9);
        assert!(!img.is_empty());
    }

    #[test]
    fn roundtrip_through_raw_bytes() {
        let img = sealed();
        let copy = SealedImage::from_bytes(img.bytes().clone()).unwrap();
        assert_eq!(copy.image_id(), img.image_id());
        assert_eq!(copy.scan_files(), img.scan_files());
    }

    #[test]
    fn scan_lists_global_paths() {
        let img = sealed();
        let files = img.scan_files();
        let paths: Vec<String> = files.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(paths, vec!["/proj/Cargo.toml", "/proj/src/main.rs"]);
    }

    #[test]
    fn read_is_a_zero_copy_slice_of_the_image_buffer() {
        let img = sealed();
        let data = img.read(&p("/proj/src/main.rs")).unwrap();
        let buf = img.bytes().as_ptr() as usize;
        let end = buf + img.bytes().len();
        let d = data.as_ptr() as usize;
        assert!(
            d >= buf && d + data.len() <= end,
            "read() must hand out a slice of the image payload, not a copy"
        );
        // Repeated reads are refcount bumps over the same storage.
        let again = img.read(&p("/proj/src/main.rs")).unwrap();
        assert_eq!(again.as_ptr(), data.as_ptr());
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(SealedImage::from_bytes(vec![0u8; 100]).is_err());
        assert!(SealedImage::from_bytes(Vec::<u8>::new()).is_err());
    }
}
