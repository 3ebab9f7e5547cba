//! Block-level binary serialization of UDF-profile images.
//!
//! On-image layout (all integers little-endian):
//!
//! ```text
//! block 0  anchor:  magic "ROSUDF01", u32 version, u64 pvd_block (=1)
//! block 1  PVD:     u64 image_id, u64 capacity_blocks, u64 used_blocks,
//!                   u64 root_icb_block (=2)
//! block 2  root directory ICB
//! ...      directory FID data, child ICBs and file data, allocated
//!          depth-first
//! ```
//!
//! Directory ICB: tag `b'D'`, u32 child count, u64 FID-data start block,
//! u32 FID-data block count. FID stream: per child, `u8 kind`
//! (`b'd'`/`b'f'`), `u32 name_len`, name bytes, `u64 child_icb_block`.
//!
//! File ICB: tag `b'F'`, u64 size, u64 mtime_nanos, u64 data start block,
//! u32 data block count (one contiguous extent — ideal for sequential
//! write-once burning, §4.3).

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::block::{blocks_for, BLOCK_SIZE};
use crate::tree::{fid_bytes, FileMeta, FsNode, FsTree};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::Range;

/// Image magic.
pub const MAGIC: [u8; 8] = *b"ROSUDF01";

/// Format version.
pub const VERSION: u32 = 1;

/// Fixed overhead blocks before the root ICB: anchor + PVD.
pub const OVERHEAD_BLOCKS: u64 = 2;

/// Longest FID name an image holds. [`crate::tree::FsTree`] refuses to
/// create a longer one, [`serialize`] to write it, [`parse_image`] to
/// read it.
pub const MAX_NAME_LEN: usize = 4096;

/// Deepest path an image holds, in components (the parser's cycle
/// guard), refused at the same three places.
pub const MAX_DEPTH: usize = 256;

/// Parsed image header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
    /// Image identifier assigned by OLFS.
    pub image_id: u64,
    /// Declared capacity of the target disc, in blocks.
    pub capacity_blocks: u64,
    /// Blocks actually used by this image.
    pub used_blocks: u64,
}

/// Errors from serialization and parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The tree does not fit in the declared capacity.
    CapacityExceeded {
        /// Bytes the tree needs.
        needed: u64,
        /// Declared capacity in bytes.
        capacity: u64,
    },
    /// Input too short or block references out of range.
    Truncated,
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Structural corruption at the given block.
    Corrupt {
        /// Block where the inconsistency was detected.
        block: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A tree value exceeds its fixed-width on-image field; serialising
    /// would silently truncate it and corrupt the round-trip.
    FieldOverflow {
        /// Which on-image field overflowed.
        field: &'static str,
        /// The value that did not fit.
        value: u64,
    },
}

impl core::fmt::Display for FormatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FormatError::CapacityExceeded { needed, capacity } => {
                write!(f, "image needs {needed} bytes, capacity {capacity}")
            }
            FormatError::Truncated => write!(f, "image truncated"),
            FormatError::BadMagic => write!(f, "bad magic"),
            FormatError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FormatError::Corrupt { block, reason } => {
                write!(f, "corrupt image at block {block}: {reason}")
            }
            FormatError::FieldOverflow { field, value } => {
                write!(f, "{field} {value} exceeds its on-image field width")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// The image under construction. It is written front to back, once: the
/// position only moves forward, padding zeros are written as the walk
/// passes them, and nothing is pre-filled.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Zero-pads from the write position up to the start of `block`.
    fn seek(&mut self, block: u64) {
        #[expect(
            clippy::arithmetic_side_effects,
            clippy::cast_possible_truncation,
            reason = "block <= used_blocks, and used_blocks * BLOCK_SIZE sized the buffer as a usize"
        )]
        let start = (block * BLOCK_SIZE) as usize;
        assert!(
            start >= self.buf.len(),
            "image writer moved back to block {block}"
        );
        self.buf.resize(start, 0);
    }

    fn put(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

/// Checked narrowing into a u32 on-image field: a value that does not
/// fit is a [`FormatError::FieldOverflow`], never a silent saturation.
fn fits_u32(value: u64, field: &'static str) -> Result<(), FormatError> {
    match u32::try_from(value) {
        Ok(_) => Ok(()),
        Err(_) => Err(FormatError::FieldOverflow { field, value }),
    }
}

/// The u32 on-image field for a value [`plan`] has passed.
#[expect(
    clippy::cast_possible_truncation,
    reason = "plan refused every value over u32::MAX before the buffer was sized"
)]
fn le_u32(v: u64) -> [u8; 4] {
    debug_assert!(u32::try_from(v).is_ok(), "plan admitted {v}");
    (v as u32).to_le_bytes()
}

/// The one place a tree is checked against the format: refuses, before
/// the image buffer exists, what an on-image field cannot carry or
/// [`parse_image`] would not read back, so [`emit`] cannot fail.
///
/// Returns the subtree's on-image blocks and leaves in `child_blocks`
/// what [`emit`] needs to write a directory's FID stream ahead of its
/// children: each directory, in pre-order, owns one run of the vector
/// holding the block count of each child's subtree, in name order.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the sum is tree.image_bytes() / BLOCK_SIZE, which the tree held as a u64"
)]
fn plan(node: &FsNode, depth: usize, child_blocks: &mut Vec<u64>) -> Result<u64, FormatError> {
    if depth > MAX_DEPTH {
        return Err(FormatError::FieldOverflow {
            field: "directory nesting depth",
            value: depth as u64,
        });
    }
    match node {
        FsNode::File { meta, .. } => {
            let data_blocks = blocks_for(meta.size);
            fits_u32(data_blocks, "file data block count")?;
            Ok(1 + data_blocks)
        }
        FsNode::Dir { children } => {
            let fid_blocks = blocks_for(fid_bytes(children));
            fits_u32(children.len() as u64, "directory child count")?;
            fits_u32(fid_blocks, "FID data block count")?;
            let run = child_blocks.len();
            child_blocks.resize(run + children.len(), 0);
            let mut total = 1 + fid_blocks;
            for (i, (name, child)) in children.iter().enumerate() {
                if name.len() > MAX_NAME_LEN {
                    return Err(FormatError::FieldOverflow {
                        field: "FID name length",
                        value: name.len() as u64,
                    });
                }
                let blocks = plan(child, depth.saturating_add(1), child_blocks)?;
                child_blocks[run + i] = blocks;
                total += blocks;
            }
            Ok(total)
        }
    }
}

/// Appends the planned subtree at `node`, whose ICB is block `icb`, and
/// returns the next free block. Blocks are numbered depth-first in
/// pre-order: a node's ICB, its FID or file data, then each child's
/// subtree in name order — so the FID stream, which points at every
/// child's ICB, is written before the children from [`plan`]'s subtree
/// sizes. `runs` is the unread rest of the plan; the walk takes the runs
/// in the order `plan` made them.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "every block number is at most used_blocks, whose byte count fits a u64"
)]
fn emit(node: &FsNode, icb: u64, runs: &mut &[u64], w: &mut Writer) -> u64 {
    let data_start = icb + 1;
    w.seek(icb);
    match node {
        FsNode::File { meta, data } => {
            let data_blocks = blocks_for(meta.size);
            w.put(b"F");
            w.put(&meta.size.to_le_bytes());
            w.put(&meta.mtime_nanos.to_le_bytes());
            w.put(&data_start.to_le_bytes());
            w.put(&le_u32(data_blocks));
            w.seek(data_start);
            w.put(data);
            data_start + data_blocks
        }
        FsNode::Dir { children } => {
            let data_blocks = blocks_for(fid_bytes(children));
            w.put(b"D");
            w.put(&le_u32(children.len() as u64));
            w.put(&data_start.to_le_bytes());
            w.put(&le_u32(data_blocks));
            w.seek(data_start);
            let (run, rest) = runs.split_at(children.len());
            *runs = rest;
            let first_child = data_start + data_blocks;
            let mut child_icb = first_child;
            for ((name, child), blocks) in children.iter().zip(run) {
                w.put(match child {
                    FsNode::Dir { .. } => b"d",
                    FsNode::File { .. } => b"f",
                });
                w.put(&le_u32(name.len() as u64));
                w.put(name.as_bytes());
                w.put(&child_icb.to_le_bytes());
                child_icb += blocks;
            }
            let end = children
                .values()
                .fold(first_child, |at, child| emit(child, at, runs, w));
            // The pointers just written are where the children went.
            assert_eq!(end, child_icb, "planned subtree sizes are not the walk's");
            end
        }
    }
}

/// [`serialize`] before the buffer is frozen: exactly
/// `tree.image_bytes()` long, allocated once at that size.
fn serialize_vec(
    tree: &FsTree,
    image_id: u64,
    capacity_bytes: u64,
) -> Result<Vec<u8>, FormatError> {
    let needed = tree.image_bytes();
    if needed > capacity_bytes {
        return Err(FormatError::CapacityExceeded {
            needed,
            capacity: capacity_bytes,
        });
    }
    // Oversize trees fail typed *before* the image buffer is allocated,
    // and `Bucket::close` may rely on the result parsing back.
    let mut child_blocks = Vec::new();
    let planned = plan(tree.root_node(), 0, &mut child_blocks)?;
    let used_blocks = needed / BLOCK_SIZE;
    // The buffer and the header are sized from the tree's running total.
    assert_eq!(
        OVERHEAD_BLOCKS.saturating_add(planned),
        used_blocks,
        "running block total is not the image"
    );
    let Ok(len) = usize::try_from(needed) else {
        return Err(FormatError::FieldOverflow {
            field: "image size",
            value: needed,
        });
    };
    let mut w = Writer {
        buf: Vec::with_capacity(len),
    };

    // Anchor (block 0).
    w.put(&MAGIC);
    w.put(&VERSION.to_le_bytes());
    w.put(&1u64.to_le_bytes());
    // PVD (block 1).
    w.seek(1);
    w.put(&image_id.to_le_bytes());
    w.put(&blocks_for(capacity_bytes).to_le_bytes());
    w.put(&used_blocks.to_le_bytes());
    w.put(&OVERHEAD_BLOCKS.to_le_bytes());
    let end = emit(
        tree.root_node(),
        OVERHEAD_BLOCKS,
        &mut child_blocks.as_slice(),
        &mut w,
    );
    assert_eq!(end, used_blocks, "the walk did not end where the plan did");
    // The last file's data stops short of its block's end.
    w.seek(end);
    Ok(w.buf)
}

/// Serialises a tree into image bytes.
///
/// `capacity_bytes` is the target disc capacity recorded in the header;
/// serialization fails if the tree exceeds it. The output length is the
/// *used* portion only (a fresh image is mostly empty; the disc burn
/// charges time for the payload actually written).
pub fn serialize(tree: &FsTree, image_id: u64, capacity_bytes: u64) -> Result<Bytes, FormatError> {
    serialize_vec(tree, image_id, capacity_bytes).map(Bytes::from)
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The byte range of `bytes` bytes from the start of block `start`.
    /// Both come from on-media fields: a range that overflows or runs
    /// past the image is [`FormatError::Truncated`].
    fn span(&self, start: u64, bytes: u64) -> Result<Range<usize>, FormatError> {
        let checked = || {
            let s = usize::try_from(start.checked_mul(BLOCK_SIZE)?).ok()?;
            let e = s.checked_add(usize::try_from(bytes).ok()?)?;
            (e <= self.buf.len()).then_some(s..e)
        };
        checked().ok_or(FormatError::Truncated)
    }

    fn block(&self, n: u64) -> Result<&'a [u8], FormatError> {
        Ok(&self.buf[self.span(n, BLOCK_SIZE)?])
    }
}

/// Splits `n` bytes off the front of `*b`, or fails [`FormatError::Truncated`].
fn take<'a>(b: &mut &'a [u8], n: usize) -> Result<&'a [u8], FormatError> {
    let (head, tail) = b.split_at_checked(n).ok_or(FormatError::Truncated)?;
    *b = tail;
    Ok(head)
}

fn take_u32(b: &mut &[u8]) -> Result<u32, FormatError> {
    let (head, tail) = b.split_first_chunk().ok_or(FormatError::Truncated)?;
    *b = tail;
    Ok(u32::from_le_bytes(*head))
}

fn take_u64(b: &mut &[u8]) -> Result<u64, FormatError> {
    let (head, tail) = b.split_first_chunk().ok_or(FormatError::Truncated)?;
    *b = tail;
    Ok(u64::from_le_bytes(*head))
}

/// Parses image bytes back into a tree and header.
///
/// Copies file data out of the slice; prefer [`parse_image`] when the
/// caller owns refcounted [`Bytes`] — that variant is zero-copy.
pub fn parse(bytes: &[u8]) -> Result<(FsTree, ImageHeader), FormatError> {
    parse_image(&Bytes::copy_from_slice(bytes))
}

/// Parses image bytes back into a tree and header, zero-copy.
///
/// Every file node's data is a refcounted slice of `bytes` — parsing
/// allocates directory structure only, and reads of the resulting tree
/// hand back slices of the one image buffer.
pub fn parse_image(bytes: &Bytes) -> Result<(FsTree, ImageHeader), FormatError> {
    let r = Reader {
        buf: bytes.as_ref(),
    };
    let mut anchor = r.block(0)?;
    if take(&mut anchor, MAGIC.len())? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = take_u32(&mut anchor)?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let mut pvd = r.block(take_u64(&mut anchor)?)?;
    let header = ImageHeader {
        image_id: take_u64(&mut pvd)?,
        capacity_blocks: take_u64(&mut pvd)?,
        used_blocks: take_u64(&mut pvd)?,
    };
    let root_icb = take_u64(&mut pvd)?;

    fn parse_node(
        r: &Reader<'_>,
        src: &Bytes,
        icb: u64,
        depth: usize,
    ) -> Result<FsNode, FormatError> {
        if depth > MAX_DEPTH {
            return Err(FormatError::Corrupt {
                block: icb,
                reason: "directory nesting too deep (cycle?)",
            });
        }
        let mut b = r.block(icb)?;
        match take(&mut b, 1)? {
            b"F" => {
                let size = take_u64(&mut b)?;
                let mtime_nanos = take_u64(&mut b)?;
                let data_start = take_u64(&mut b)?;
                if u64::from(take_u32(&mut b)?) != blocks_for(size) {
                    return Err(FormatError::Corrupt {
                        block: icb,
                        reason: "file extent does not match its size",
                    });
                }
                // Bounds-check through the reader, then hand out a
                // refcounted slice of the source image — no copy.
                Ok(FsNode::File {
                    meta: FileMeta { size, mtime_nanos },
                    data: src.slice(r.span(data_start, size)?),
                })
            }
            b"D" => {
                let count = take_u32(&mut b)?;
                let data_start = take_u64(&mut b)?;
                let data_blocks = u64::from(take_u32(&mut b)?);
                let fid_bytes = data_blocks.saturating_mul(BLOCK_SIZE);
                let mut stream = &r.buf[r.span(data_start, fid_bytes)?];
                let corrupt = |reason| FormatError::Corrupt {
                    block: data_start,
                    reason,
                };
                let mut children = BTreeMap::new();
                for _ in 0..count {
                    let _kind = take(&mut stream, 1);
                    let name_len = take_u32(&mut stream)
                        .map_err(|_| corrupt("FID stream truncated"))?
                        as usize;
                    let out_of_range = corrupt("FID name out of range");
                    if name_len > MAX_NAME_LEN {
                        return Err(out_of_range);
                    }
                    let name = take(&mut stream, name_len).map_err(|_| out_of_range.clone())?;
                    let child_icb = take_u64(&mut stream).map_err(|_| out_of_range)?;
                    let name = core::str::from_utf8(name)
                        .map_err(|_| corrupt("FID name not UTF-8"))?
                        .to_string();
                    let child = parse_node(r, src, child_icb, depth.saturating_add(1))?;
                    children.insert(name, child);
                }
                Ok(FsNode::Dir { children })
            }
            _ => Err(FormatError::Corrupt {
                block: icb,
                reason: "unknown ICB tag",
            }),
        }
    }

    let root = parse_node(&r, bytes, root_icb, 0)?;
    match &root {
        FsNode::Dir { .. } => Ok((FsTree::from_root(root), header)),
        FsNode::File { .. } => Err(FormatError::Corrupt {
            block: root_icb,
            reason: "root must be a directory",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Path;
    use rand::{Rng, SeedableRng};

    fn sample_tree() -> FsTree {
        let mut t = FsTree::new();
        t.insert(
            &"/readme.txt".parse::<Path>().unwrap(),
            &b"hello ROS"[..],
            7,
        )
        .unwrap();
        t.insert(
            &"/data/2026/jan/metrics.csv".parse::<Path>().unwrap(),
            vec![0x42u8; 5000],
            8,
        )
        .unwrap();
        t.insert(
            &"/data/2026/feb/metrics.csv".parse::<Path>().unwrap(),
            vec![0x17u8; 3000],
            9,
        )
        .unwrap();
        t.insert(&"/empty".parse::<Path>().unwrap(), &b""[..], 10)
            .unwrap();
        t.mkdir_p(&"/hollow/dir".parse::<Path>().unwrap()).unwrap();
        t
    }

    /// Three levels, 40 files of 0–9 KB, and an empty directory chain.
    fn forty_file_tree() -> FsTree {
        let mut t = FsTree::new();
        for i in 0..40u32 {
            let path = format!("/vol{}/dir{}/file-{i:02}.dat", i % 3, i % 5);
            let len = (i * 977 % 9000) as usize;
            t.insert(
                &path.parse::<Path>().unwrap(),
                vec![i as u8; len],
                u64::from(i),
            )
            .unwrap();
        }
        t.mkdir_p(&"/vol1/empty/chain/end".parse::<Path>().unwrap())
            .unwrap();
        t
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The seek-and-fill writer `serialize` replaced, kept as the oracle:
    /// it pre-zeroes the whole image, writes each node at its block
    /// offset, and a directory's FID stream after its children.
    mod reference {
        use super::super::*;

        fn at(buf: &mut [u8], block: u64) -> &mut [u8] {
            &mut buf[(block * BLOCK_SIZE) as usize..]
        }

        fn put(dst: &mut &mut [u8], src: &[u8]) {
            let (head, tail) = core::mem::take(dst).split_at_mut(src.len());
            head.copy_from_slice(src);
            *dst = tail;
        }

        fn emit(node: &FsNode, icb: u64, buf: &mut [u8]) -> u64 {
            let data_start = icb + 1;
            match node {
                FsNode::File { meta, data } => {
                    let data_blocks = blocks_for(meta.size);
                    let mut b = at(buf, icb);
                    put(&mut b, b"F");
                    put(&mut b, &meta.size.to_le_bytes());
                    put(&mut b, &meta.mtime_nanos.to_le_bytes());
                    put(&mut b, &data_start.to_le_bytes());
                    put(&mut b, &le_u32(data_blocks));
                    put(&mut at(buf, data_start), data);
                    data_start + data_blocks
                }
                FsNode::Dir { children } => {
                    let data_blocks = blocks_for(fid_bytes(children));
                    let mut b = at(buf, icb);
                    put(&mut b, b"D");
                    put(&mut b, &le_u32(children.len() as u64));
                    put(&mut b, &data_start.to_le_bytes());
                    put(&mut b, &le_u32(data_blocks));
                    let mut next = data_start + data_blocks;
                    let mut stream = Vec::new();
                    for (name, child) in children {
                        stream.push(match child {
                            FsNode::Dir { .. } => b'd',
                            FsNode::File { .. } => b'f',
                        });
                        stream.extend_from_slice(&le_u32(name.len() as u64));
                        stream.extend_from_slice(name.as_bytes());
                        stream.extend_from_slice(&next.to_le_bytes());
                        next = emit(child, next, buf);
                    }
                    put(&mut at(buf, data_start), &stream);
                    next
                }
            }
        }

        pub fn serialize(tree: &FsTree, image_id: u64, capacity_bytes: u64) -> Vec<u8> {
            let needed = tree.image_bytes();
            assert!(needed <= capacity_bytes);
            let mut buf = vec![0u8; needed as usize];
            let mut b = at(&mut buf, 0);
            put(&mut b, &MAGIC);
            put(&mut b, &VERSION.to_le_bytes());
            put(&mut b, &1u64.to_le_bytes());
            let mut b = at(&mut buf, 1);
            put(&mut b, &image_id.to_le_bytes());
            put(&mut b, &blocks_for(capacity_bytes).to_le_bytes());
            put(&mut b, &(needed / BLOCK_SIZE).to_le_bytes());
            put(&mut b, &OVERHEAD_BLOCKS.to_le_bytes());
            let end = emit(tree.root_node(), OVERHEAD_BLOCKS, &mut buf);
            assert_eq!(end, needed / BLOCK_SIZE);
            buf
        }
    }

    /// Every shape the writer has a branch or a boundary for, in one
    /// tree: directories four deep, a FID stream of several blocks (by
    /// child count, and by one name at the limit), empty files, empty
    /// directories, and file sizes around a block boundary. Fill bytes
    /// are non-zero so misplaced padding shows.
    fn every_edge_tree() -> FsTree {
        let mut t = FsTree::new();
        let b = BLOCK_SIZE as usize;
        for (i, size) in [0, 1, b - 1, b, b + 1, 2 * b, 5 * b + 3]
            .into_iter()
            .enumerate()
        {
            let path: Path = format!("/a/b/c/d/size-{i}").parse().unwrap();
            t.insert(&path, vec![0xE0 | i as u8; size], i as u64)
                .unwrap();
        }
        for i in 0..150 {
            let path: Path = format!("/wide/child-file-number-{i:04}").parse().unwrap();
            t.insert(&path, vec![i as u8 | 1; i % 3], 0).unwrap();
        }
        let limit = Path::root().join("a").join(&"n".repeat(MAX_NAME_LEN));
        t.insert(&limit.join("leaf"), &b"x"[..], 1).unwrap();
        t.mkdir_p(&limit.join(&"m".repeat(MAX_NAME_LEN))).unwrap();
        t.mkdir_p(&"/a/b/hollow/chain".parse::<Path>().unwrap())
            .unwrap();
        t.insert(&"/z-last".parse::<Path>().unwrap(), &b""[..], 2)
            .unwrap();
        t
    }

    /// A random tree over few names (so siblings, conflicts and shared
    /// prefixes come up) and the boundary file sizes.
    fn generated_tree(seed: u64) -> FsTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let long = "n".repeat(MAX_NAME_LEN);
        let names = ["a", "b", "c0", "a-directory-with-a-longer-name", &long];
        let b = BLOCK_SIZE as usize;
        let sizes = [0, 1, b - 1, b, b + 1, 3 * b + 7];
        let mut t = FsTree::new();
        for step in 0..rng.gen::<u64>() % 48 {
            let depth = 1 + rng.gen::<usize>() % 6;
            let path = (0..depth).fold(Path::root(), |p, _| {
                p.join(names[rng.gen::<usize>() % names.len()])
            });
            // A file where a directory is wanted is the tree's to refuse.
            if rng.gen::<u32>() % 4 == 0 {
                let _ = t.mkdir_p(&path);
            } else {
                let size = sizes[rng.gen::<usize>() % sizes.len()];
                let _ = t.insert(&path, vec![step as u8 | 0x80; size], step);
            }
        }
        // A FID stream that outgrows its block by child count.
        if rng.gen::<u32>() % 2 == 0 {
            for i in 0..rng.gen::<u32>() % 160 {
                let path: Path = format!("/b/wide/child-number-{i:04}").parse().unwrap();
                let _ = t.insert(&path, vec![0x55; (i % 2) as usize], 0);
            }
        }
        t
    }

    /// The writer's whole contract on one tree.
    fn assert_written_once_and_as_before(t: &FsTree, image_id: u64) {
        let capacity = 1 << 26;
        let image = serialize_vec(t, image_id, capacity).unwrap();
        assert_eq!(image.len() as u64, t.image_bytes());
        assert_eq!(
            image.capacity(),
            image.len(),
            "one allocation, sized exactly"
        );
        assert!(
            image == reference::serialize(t, image_id, capacity),
            "image differs from the seek-and-fill writer's"
        );
        let frozen = serialize(t, image_id, capacity).unwrap();
        assert!(frozen.as_ref() == image.as_slice());
        let (parsed, header) = parse_image(&frozen).unwrap();
        assert_eq!(&parsed, t);
        assert_eq!(header.image_id, image_id);
        assert_eq!(header.used_blocks * BLOCK_SIZE, t.image_bytes());
    }

    #[test]
    fn the_append_only_writer_matches_the_seek_and_fill_writer() {
        assert_written_once_and_as_before(&FsTree::new(), 0);
        assert_written_once_and_as_before(&sample_tree(), 77);
        assert_written_once_and_as_before(&forty_file_tree(), 40);
        assert_written_once_and_as_before(&every_edge_tree(), 5);
    }

    proptest::proptest! {
        #[test]
        fn generated_trees_serialize_as_the_reference_does(seed in 0u64..96) {
            assert_written_once_and_as_before(&generated_tree(seed), seed);
        }
    }

    #[test]
    #[should_panic(expected = "image writer moved back")]
    fn the_writer_cannot_go_back() {
        // No tree reaches this (the oracle tests above would trip it):
        // the position is driven directly.
        let mut w = Writer { buf: Vec::new() };
        w.seek(2);
        w.put(b"x");
        w.seek(2);
    }

    #[test]
    fn the_on_disc_format_is_pinned_by_golden_images() {
        // Emitted by commit d4adf11's serializer, which numbered blocks
        // in one pass and wrote them in a second: pre-order numbering is
        // the format, and discs burned under it must keep parsing.
        let golden: &[u8] = include_bytes!("../tests/fixtures/sample_tree.img");
        let bytes = serialize(&sample_tree(), 77, 1 << 24).unwrap();
        assert!(bytes.as_ref() == golden, "sample_tree image changed");
        let bytes = serialize(&forty_file_tree(), 40, 1 << 24).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (385_024, 0xc81f_d9a5_39a4_d157)
        );
    }

    #[test]
    fn what_the_parser_would_refuse_is_a_typed_error() {
        // Built past `FsTree::insert`, which refuses these at the door:
        // `Bucket::close` expects its own image to parse, so `serialize`
        // must refuse whatever `parse_image` does.
        let nest = |name: String, inner: FsNode| FsNode::Dir {
            children: BTreeMap::from([(name, inner)]),
        };
        let empty = || FsNode::Dir {
            children: BTreeMap::new(),
        };
        let serialize_root = |root| serialize(&FsTree::from_root(root), 1, 1 << 30);

        let at_limit = nest("n".repeat(MAX_NAME_LEN), empty());
        parse(&serialize_root(at_limit).unwrap()).unwrap();
        assert_eq!(
            serialize_root(nest("n".repeat(MAX_NAME_LEN + 1), empty())).unwrap_err(),
            FormatError::FieldOverflow {
                field: "FID name length",
                value: MAX_NAME_LEN as u64 + 1,
            }
        );

        let chain = |depth: usize| (0..depth).fold(empty(), |inner, _| nest("d".into(), inner));
        parse(&serialize_root(chain(MAX_DEPTH)).unwrap()).unwrap();
        assert_eq!(
            serialize_root(chain(MAX_DEPTH + 1)).unwrap_err(),
            FormatError::FieldOverflow {
                field: "directory nesting depth",
                value: MAX_DEPTH as u64 + 1,
            }
        );
    }

    #[test]
    fn roundtrip_preserves_tree() {
        let t = sample_tree();
        let bytes = serialize(&t, 77, 1 << 24).unwrap();
        let (parsed, header) = parse(&bytes).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(header.image_id, 77);
        assert_eq!(header.capacity_blocks, (1 << 24) / BLOCK_SIZE);
        assert_eq!(header.used_blocks * BLOCK_SIZE, bytes.len() as u64);
        assert_eq!(header.used_blocks * BLOCK_SIZE, t.image_bytes());
    }

    #[test]
    fn empty_tree_roundtrips() {
        let t = FsTree::new();
        let bytes = serialize(&t, 1, 1 << 20).unwrap();
        let (parsed, _) = parse(&bytes).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn capacity_is_enforced() {
        let t = sample_tree();
        let err = serialize(&t, 1, 4 * BLOCK_SIZE).unwrap_err();
        assert!(matches!(err, FormatError::CapacityExceeded { .. }));
        // Refused from the running total, before a buffer of that size is
        // asked for: this tree claims a terabyte.
        let claims_a_terabyte = FsTree::from_root(FsNode::Dir {
            children: BTreeMap::from([(
                "sparse".to_string(),
                FsNode::File {
                    meta: FileMeta {
                        size: 1 << 40,
                        mtime_nanos: 0,
                    },
                    data: Bytes::new(),
                },
            )]),
        });
        assert_eq!(
            serialize(&claims_a_terabyte, 1, 1 << 30).unwrap_err(),
            FormatError::CapacityExceeded {
                needed: claims_a_terabyte.image_bytes(),
                capacity: 1 << 30,
            }
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let t = FsTree::new();
        let bytes = serialize(&t, 1, 1 << 20).unwrap();
        let mut v = bytes.to_vec();
        v[0] ^= 0xFF;
        assert_eq!(parse(&v).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let t = FsTree::new();
        let bytes = serialize(&t, 1, 1 << 20).unwrap();
        let mut v = bytes.to_vec();
        v[8] = 0xEE;
        assert!(matches!(parse(&v).unwrap_err(), FormatError::BadVersion(_)));
    }

    #[test]
    fn truncation_detected() {
        let t = sample_tree();
        let bytes = serialize(&t, 1, 1 << 24).unwrap();
        let v = &bytes[..bytes.len() - BLOCK_SIZE as usize];
        assert_eq!(parse(v).unwrap_err(), FormatError::Truncated);
        assert_eq!(parse(&bytes[..100]).unwrap_err(), FormatError::Truncated);
    }

    #[test]
    fn corrupt_icb_tag_detected() {
        let t = sample_tree();
        let bytes = serialize(&t, 1, 1 << 24).unwrap();
        let mut v = bytes.to_vec();
        // Root ICB tag lives at block 2, offset 0.
        v[(OVERHEAD_BLOCKS * BLOCK_SIZE) as usize] = b'X';
        assert!(matches!(
            parse(&v).unwrap_err(),
            FormatError::Corrupt { .. }
        ));
    }

    #[test]
    fn file_root_rejected() {
        // Hand-craft an image whose root ICB is a file.
        let t = FsTree::new();
        let bytes = serialize(&t, 1, 1 << 20).unwrap();
        let mut v = bytes.to_vec();
        let icb = (OVERHEAD_BLOCKS * BLOCK_SIZE) as usize;
        // Rewrite the root ICB as a zero-length file whose data starts at
        // the next block.
        for b in v[icb..icb + BLOCK_SIZE as usize].iter_mut() {
            *b = 0;
        }
        v[icb] = b'F';
        v[icb + 17..icb + 25].copy_from_slice(&(OVERHEAD_BLOCKS + 1).to_le_bytes());
        let err = parse(&v).unwrap_err();
        assert!(matches!(err, FormatError::Corrupt { reason, .. } if reason.contains("root")));
    }

    #[test]
    fn many_children_span_fid_blocks() {
        let mut t = FsTree::new();
        // Enough children that the FID stream exceeds one block.
        for i in 0..200 {
            let p: Path = format!("/directory-with-long-children/child-file-number-{i:04}")
                .parse()
                .unwrap();
            t.insert(&p, vec![i as u8; 10], 0).unwrap();
        }
        let bytes = serialize(&t, 9, 1 << 24).unwrap();
        let (parsed, _) = parse(&bytes).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn oversized_icb_field_is_a_typed_error() {
        // A file whose data-block count exceeds the u32 ICB field: the
        // old code saturated it to u32::MAX (silent round-trip
        // corruption) after attempting a multi-terabyte buffer
        // allocation. Serialisation must instead fail fast with a typed
        // error, before any block buffer is allocated.
        let size = (u64::from(u32::MAX) + 1) * BLOCK_SIZE;
        let mut children = BTreeMap::new();
        children.insert(
            "huge".to_string(),
            FsNode::File {
                meta: FileMeta {
                    size,
                    mtime_nanos: 0,
                },
                data: Bytes::new(),
            },
        );
        let t = FsTree::from_root(FsNode::Dir { children });
        assert_eq!(
            serialize(&t, 1, u64::MAX).unwrap_err(),
            FormatError::FieldOverflow {
                field: "file data block count",
                value: u64::from(u32::MAX) + 1,
            }
        );
    }

    #[test]
    fn data_survives_byte_for_byte() {
        let mut t = FsTree::new();
        let payload: Vec<u8> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2654435761) as u8)
            .collect();
        t.insert(&"/blob".parse::<Path>().unwrap(), payload.clone(), 0)
            .unwrap();
        let bytes = serialize(&t, 3, 1 << 24).unwrap();
        let (parsed, _) = parse(&bytes).unwrap();
        assert_eq!(
            parsed
                .read(&"/blob".parse::<Path>().unwrap())
                .unwrap()
                .as_ref(),
            payload.as_slice()
        );
    }
}
