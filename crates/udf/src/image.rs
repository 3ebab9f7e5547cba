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
use bytes::{Bytes, Parts};
use std::sync::OnceLock;

/// An immutable, parsed disc image.
///
/// The image is its [`Parts`] — owned metadata runs, every file's own
/// bytes and views of one zero block ([`format::serialize`]). The namespace is the [`FsTree`]
/// `format::parse_image` produced from them — the directory subtree
/// the image carries *is* its index, and every file node holds a
/// zero-copy slice of the piece that holds its data.
#[derive(Clone, Debug)]
pub struct SealedImage {
    header: ImageHeader,
    parts: Parts,
    /// The parts flattened, made by the first [`SealedImage::bytes`].
    flat: OnceLock<Bytes>,
    tree: FsTree,
}

impl SealedImage {
    /// Parses raw image bytes, in one piece or many (e.g. read back
    /// from a disc).
    pub fn from_bytes(bytes: impl Into<Parts>) -> Result<Self, FormatError> {
        let parts = bytes.into();
        let (tree, header) = format::parse_image(&parts)?;
        Ok(SealedImage {
            header,
            parts,
            flat: OnceLock::new(),
            tree,
        })
    }

    /// Returns the image id.
    pub fn image_id(&self) -> u64 {
        self.header.image_id
    }

    /// Returns the image's pieces (the burn payload).
    pub fn parts(&self) -> &Parts {
        &self.parts
    }

    /// Returns the raw bytes in one buffer, flattened from the parts on
    /// the first call ([`Parts::to_bytes`]) and kept. For probes and
    /// tests: the engine reads [`SealedImage::parts`].
    pub fn bytes(&self) -> &Bytes {
        self.flat.get_or_init(|| self.parts.to_bytes())
    }

    /// Returns the size of the used image in bytes.
    pub fn len(&self) -> u64 {
        self.parts.len() as u64
    }

    /// Returns true for an image holding no files.
    pub fn is_empty(&self) -> bool {
        self.tree.file_count() == 0
    }

    /// Reads one file by its (global) path; the returned [`Bytes`] is a
    /// refcounted slice of the image's pieces, not a copy.
    pub fn read(&self, path: &Path) -> Result<Bytes, TreeError> {
        self.tree.read(path)
    }

    /// Stats one file.
    pub fn stat(&self, path: &Path) -> Result<FileMeta, TreeError> {
        self.tree.stat(path)
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
        assert_eq!(
            img.read(&p("/proj/src/main.rs")).unwrap().as_ref(),
            b"fn main() {}"
        );
        assert_eq!(img.stat(&p("/proj/Cargo.toml")).unwrap().size, 9);
        assert!(img.stat(&p("/proj")).is_err());
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
        use bytes::Pieces;
        let img = sealed();
        let data = img.read(&p("/proj/src/main.rs")).unwrap();
        let inside = img.parts().pieces().any(|piece| {
            let range = piece.as_ptr_range();
            range.contains(&data.as_ptr()) && data.as_ptr_range().end <= range.end
        });
        assert!(
            inside,
            "read() must hand out a slice of the image's pieces, not a copy"
        );
        // Repeated reads are refcount bumps over the same storage.
        let again = img.read(&p("/proj/src/main.rs")).unwrap();
        assert_eq!(again.as_ptr(), data.as_ptr());
    }

    #[test]
    fn a_long_file_is_read_from_the_bytes_it_was_written_from() {
        use bytes::Pieces;
        let long = Bytes::from(vec![0x3Cu8; 40 * 1024 + 5]);
        let mut b = Bucket::new(7, 128 * BLOCK_SIZE);
        b.write(&p("/a/short"), &b"metadata's neighbour"[..], 1)
            .unwrap();
        b.write(&p("/a/long"), long.clone(), 2).unwrap();
        let img = b.close().unwrap();
        assert_eq!(img.read(&p("/a/long")).unwrap().as_ptr(), long.as_ptr());
        assert!(img
            .parts()
            .pieces()
            .any(|piece| piece.as_ptr() == long.as_ptr() && piece.len() == long.len()));
        assert_eq!(img.bytes().len() as u64, img.len());
        let flat = SealedImage::from_bytes(img.bytes().clone()).unwrap();
        assert_eq!(flat.read(&p("/a/long")).unwrap(), long);
        assert_eq!(flat.parts().piece_count(), 1);
    }

    #[test]
    fn a_100_byte_file_is_read_from_the_bytes_it_was_written_from() {
        let short = Bytes::from(vec![0x5Eu8; 100]);
        let mut b = Bucket::new(8, 128 * BLOCK_SIZE);
        b.write(&p("/s/before"), &b"x"[..], 1).unwrap();
        b.write(&p("/s/short"), short.clone(), 2).unwrap();
        b.write(&p("/s/tail"), vec![7u8; 3000], 3).unwrap();
        let img = b.close().unwrap();
        let read = img.read(&p("/s/short")).unwrap();
        assert_eq!(read.as_ptr(), short.as_ptr(), "the short file was copied");
        assert_eq!(read, short);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(SealedImage::from_bytes(vec![0u8; 100]).is_err());
        assert!(SealedImage::from_bytes(Vec::<u8>::new()).is_err());
    }
}
