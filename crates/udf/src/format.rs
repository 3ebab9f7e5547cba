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
//!
//! In memory an image is [`Parts`], not one buffer. It owns only its
//! metadata: the anchor and PVD fields, each ICB's fields, each FID
//! stream and every zero pad under [`SHARED_ZERO_MIN`] bytes, in one
//! exactly sized buffer that ends with one [`BLOCK_SIZE`] zero block.
//! Every file's data, however short, is a zero-copy view of the file's
//! own [`Bytes`], and every longer pad a view of that zero block. A seal
//! copies no payload and writes out no zero fill; the bytes read as if it
//! had. The parser reads each field where it lies, across pieces.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::block::{blocks_for, BLOCK_SIZE};
use crate::tree::{fid_cost, FileMeta, FsNode, FsTree, Path};
use bytes::{Bytes, Parts};
use std::ops::Range;

/// Image magic.
pub(crate) const MAGIC: [u8; 8] = *b"ROSUDF01";

/// Format version.
pub(crate) const VERSION: u32 = 1;

/// Fixed overhead blocks before the root ICB: anchor + PVD.
pub(crate) const OVERHEAD_BLOCKS: u64 = 2;

/// Longest FID name an image holds. [`crate::tree::FsTree`] refuses to
/// create a longer one, [`serialize`] to write it, `parse_image` to
/// read it.
pub const MAX_NAME_LEN: usize = 4096;

/// Deepest path an image holds, in components (the parser's cycle
/// guard), refused at the same three places.
pub const MAX_DEPTH: usize = 256;

/// The shortest zero pad a sealed image holds as a view of its shared
/// zero block; a shorter one is written into the owned buffer, where it
/// costs fewer bytes than the piece that would point at it.
pub(crate) const SHARED_ZERO_MIN: usize = 64;

/// Bytes of the anchor's fields: magic, version, PVD block.
const ANCHOR_BYTES: usize = 20;

/// Bytes of the PVD's fields: image id, capacity, used blocks, root ICB.
const PVD_BYTES: usize = 32;

/// Bytes of a file ICB's fields: tag, size, mtime, data start, data
/// block count.
const FILE_ICB_BYTES: usize = 29;

/// Bytes of a directory ICB's fields: tag, child count, FID-data start,
/// FID-data block count.
const DIR_ICB_BYTES: usize = 17;

/// The bytes of a `gap`-byte zero pad that the owned buffer holds: all of
/// a pad under [`SHARED_ZERO_MIN`], none of a longer one.
fn owned_pad(gap: u64) -> u64 {
    if gap < SHARED_ZERO_MIN as u64 {
        gap
    } else {
        0
    }
}

/// Parsed image header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
    /// Image identifier assigned by OLFS.
    pub(crate) image_id: u64,
    /// Declared capacity of the target disc, in blocks.
    pub(crate) capacity_blocks: u64,
    /// Blocks actually used by this image.
    pub(crate) used_blocks: u64,
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
/// position only moves forward and nothing is pre-filled. Metadata and
/// short pads go to one exactly sized owned buffer, runs back to back; a
/// file's data is borrowed, and a longer pad is a view of the zero block
/// [`Writer::finish`] appends to the owned buffer. Each borrowed or zero
/// piece closes the owned run before it.
struct Writer {
    owned: Vec<u8>,
    /// The image so far, in order.
    pieces: Vec<Piece>,
    /// Where in `owned` the run under way began.
    run_start: usize,
    /// Image bytes written, borrowed or padded so far.
    pos: usize,
}

/// One piece of an image under construction.
enum Piece {
    /// A run of the writer's owned buffer.
    Owned(Range<usize>),
    /// This many zeros (at most a block), a view of the zero block.
    Zeros(usize),
    /// A file's data, borrowed.
    Borrowed(Bytes),
}

/// Bytes of the zero block at the end of every image's owned buffer.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a 2 KB constant fits every usize"
)]
const ZERO_BLOCK: usize = BLOCK_SIZE as usize;

impl Writer {
    /// A writer whose owned buffer will hold `metadata_bytes` bytes
    /// before the zero block.
    fn new(metadata_bytes: usize) -> Self {
        Writer {
            owned: Vec::with_capacity(metadata_bytes.saturating_add(ZERO_BLOCK)),
            pieces: Vec::new(),
            run_start: 0,
            pos: 0,
        }
    }

    /// Zero-pads from the write position up to the start of `block`:
    /// written out under [`SHARED_ZERO_MIN`] bytes, else views of the
    /// zero block.
    fn seek(&mut self, block: u64) {
        #[expect(
            clippy::arithmetic_side_effects,
            clippy::cast_possible_truncation,
            reason = "block <= used_blocks, and used_blocks * BLOCK_SIZE was checked to fit a usize"
        )]
        let start = (block * BLOCK_SIZE) as usize;
        assert!(
            start >= self.pos,
            "image writer moved back to block {block}"
        );
        let mut gap = start.saturating_sub(self.pos);
        if gap < SHARED_ZERO_MIN {
            self.owned.resize(self.owned.len().saturating_add(gap), 0);
        } else {
            self.close_run();
            while gap > 0 {
                let n = gap.min(ZERO_BLOCK);
                self.pieces.push(Piece::Zeros(n));
                gap = gap.saturating_sub(n);
            }
        }
        self.pos = start;
    }

    fn put(&mut self, src: &[u8]) {
        self.owned.extend_from_slice(src);
        self.pos = self.pos.saturating_add(src.len());
    }

    /// A file's data, borrowed.
    fn put_file(&mut self, data: &Bytes) {
        if data.is_empty() {
            return;
        }
        self.close_run();
        self.pieces.push(Piece::Borrowed(data.clone()));
        self.pos = self.pos.saturating_add(data.len());
    }

    fn close_run(&mut self) {
        if self.owned.len() > self.run_start {
            self.pieces
                .push(Piece::Owned(self.run_start..self.owned.len()));
            self.run_start = self.owned.len();
        }
    }

    fn finish(mut self) -> Parts {
        self.close_run();
        let metadata = self.owned.len();
        self.owned.resize(metadata.saturating_add(ZERO_BLOCK), 0);
        debug_assert_eq!(
            self.owned.len(),
            self.owned.capacity(),
            "the owned buffer was not sized exactly"
        );
        let owned = Bytes::from(self.owned);
        let zeros = owned.slice(metadata..);
        self.pieces
            .into_iter()
            .map(|piece| match piece {
                Piece::Owned(range) => owned.slice(range),
                Piece::Zeros(n) => zeros.slice(..n),
                Piece::Borrowed(data) => data,
            })
            .collect()
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

/// One entry of a directory's FID stream: a child's name, kind and ICB.
struct Fid<'a> {
    name: &'a str,
    dir: bool,
    icb: u64,
}

/// The one place a tree is checked against the format: refuses, before
/// the image buffer exists, what an on-image field cannot carry or
/// [`parse_image`] would not read back, so [`emit`] cannot fail.
///
/// Blocks are numbered in the map's order, pre-order depth-first: a
/// node's ICB, its FID or file data, then each child's subtree in name
/// order. So one walk numbers every ICB, and returns the tree's
/// on-image blocks and the FID stream of every directory, each
/// directory's run in that order too, for [`emit`] to write ahead of the
/// children it points at. Adds to `owned` the bytes [`Writer`] will own:
/// ICB fields, FID streams and the pads after them under
/// [`SHARED_ZERO_MIN`] (an ICB's own pad never is).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "the sums are at most tree.image_bytes(), which the tree held as a u64"
)]
fn plan<'a>(tree: &'a FsTree, owned: &mut u64) -> Result<(u64, Vec<Fid<'a>>), FormatError> {
    let mut fids: Vec<Fid<'a>> = Vec::new();
    // The directories above the entry at hand: each one's string and the
    // unfilled slots of its run in `fids`.
    let mut open: Vec<(&str, Range<usize>)> = Vec::new();
    let mut icb = OVERHEAD_BLOCKS;
    let too_few = |block| FormatError::Corrupt {
        block,
        reason: "fewer entries than a directory's child count",
    };
    for (path, node) in tree.nodes() {
        let (dir, name) = path.as_str().rsplit_once('/').unwrap_or_default();
        if !path.is_root() {
            let dir = if dir.is_empty() { "/" } else { dir };
            while let Some((above, run)) = open.last() {
                if *above == dir {
                    break;
                }
                if !run.is_empty() {
                    return Err(too_few(icb));
                }
                open.pop();
            }
            let slot = open.last_mut().and_then(|(_, run)| run.next());
            let Some(fid) = slot.and_then(|at| fids.get_mut(at)) else {
                return Err(FormatError::Corrupt {
                    block: icb,
                    reason: "more entries than the directory's child count",
                });
            };
            *fid = Fid {
                name,
                dir: matches!(node, FsNode::Dir { .. }),
                icb,
            };
            if name.len() > MAX_NAME_LEN {
                return Err(FormatError::FieldOverflow {
                    field: "FID name length",
                    value: name.len() as u64,
                });
            }
        }
        if open.len() > MAX_DEPTH {
            return Err(FormatError::FieldOverflow {
                field: "directory nesting depth",
                value: open.len() as u64,
            });
        }
        match node {
            FsNode::File { meta, data } => {
                let data_blocks = blocks_for(meta.size);
                fits_u32(data_blocks, "file data block count")?;
                let tail = (data_blocks * BLOCK_SIZE).saturating_sub(data.len() as u64);
                *owned += FILE_ICB_BYTES as u64 + owned_pad(tail);
                icb += 1 + data_blocks;
            }
            FsNode::Dir {
                fid_bytes,
                children,
            } => {
                let fid_blocks = blocks_for(*fid_bytes);
                fits_u32(*children as u64, "directory child count")?;
                fits_u32(fid_blocks, "FID data block count")?;
                *owned += DIR_ICB_BYTES as u64
                    + fid_bytes
                    + owned_pad(fid_blocks * BLOCK_SIZE - fid_bytes);
                open.push((path.as_str(), fids.len()..fids.len() + children));
                fids.resize_with(fids.len() + children, || Fid {
                    name: "",
                    dir: false,
                    icb: 0,
                });
                icb += 1 + fid_blocks;
            }
        }
    }
    if open.iter().any(|(_, run)| !run.is_empty()) {
        return Err(too_few(icb));
    }
    Ok((icb - OVERHEAD_BLOCKS, fids))
}

/// Appends every node of the planned tree in map order, the root's ICB
/// at block [`OVERHEAD_BLOCKS`], and returns the next free block. Each
/// directory's FID stream is the next run of `fids`, which points at the
/// ICBs [`plan`] numbered.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "every block number is at most used_blocks, whose byte count fits a u64"
)]
fn emit(tree: &FsTree, fids: &[Fid<'_>], w: &mut Writer) -> u64 {
    let (mut icb, mut runs) = (OVERHEAD_BLOCKS, fids);
    for (_, node) in tree.nodes() {
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
                w.put_file(data);
                icb = data_start + data_blocks;
            }
            FsNode::Dir {
                fid_bytes,
                children,
            } => {
                let data_blocks = blocks_for(*fid_bytes);
                w.put(b"D");
                w.put(&le_u32(*children as u64));
                w.put(&data_start.to_le_bytes());
                w.put(&le_u32(data_blocks));
                w.seek(data_start);
                let (run, rest) = runs.split_at(*children);
                runs = rest;
                for fid in run {
                    w.put(if fid.dir { b"d" } else { b"f" });
                    w.put(&le_u32(fid.name.len() as u64));
                    w.put(fid.name.as_bytes());
                    w.put(&fid.icb.to_le_bytes());
                }
                icb = data_start + data_blocks;
            }
        }
    }
    icb
}

/// Serialises a tree into image bytes: the owned runs, borrowed files and
/// zero views of `Writer`, the owned runs and the zero block in one
/// allocation of exactly their size.
///
/// `capacity_bytes` is the target disc capacity recorded in the header;
/// serialization fails if the tree exceeds it. The output length is the
/// *used* portion only (a fresh image is mostly empty; the disc burn
/// charges time for the payload actually written).
pub fn serialize(tree: &FsTree, image_id: u64, capacity_bytes: u64) -> Result<Parts, FormatError> {
    let needed = tree.image_bytes();
    if needed > capacity_bytes {
        return Err(FormatError::CapacityExceeded {
            needed,
            capacity: capacity_bytes,
        });
    }
    // Oversize trees fail typed *before* the image buffer is allocated,
    // and `Bucket::close` may rely on the result parsing back.
    let mut owned = (ANCHOR_BYTES + PVD_BYTES) as u64;
    let (planned, fids) = plan(tree, &mut owned)?;
    let used_blocks = needed / BLOCK_SIZE;
    // The buffer and the header are sized from the tree's running total.
    assert_eq!(
        OVERHEAD_BLOCKS.saturating_add(planned),
        used_blocks,
        "running block total is not the image"
    );
    let (Ok(_), Ok(owned)) = (usize::try_from(needed), usize::try_from(owned)) else {
        return Err(FormatError::FieldOverflow {
            field: "image size",
            value: needed,
        });
    };
    let mut w = Writer::new(owned);

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
    let end = emit(tree, &fids, &mut w);
    assert_eq!(end, used_blocks, "the walk did not end where the plan did");
    // The last file's data stops short of its block's end.
    w.seek(end);
    Ok(w.finish())
}

struct Reader<'a> {
    buf: &'a Parts,
}

impl Reader<'_> {
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

    /// `bytes` bytes from the start of block `start`: a view of the
    /// piece that holds them (copied only where they straddle pieces,
    /// which no file [`serialize`] wrote does).
    fn read(&self, start: u64, bytes: u64) -> Result<Bytes, FormatError> {
        Ok(self.buf.slice(self.span(start, bytes)?))
    }

    /// The first `N` bytes of block `n`, which must lie whole in the
    /// image: a block's fixed fields, copied from where they lie.
    fn fields<const N: usize>(&self, n: u64) -> Result<[u8; N], FormatError> {
        let span = self.span(n, BLOCK_SIZE)?;
        let mut out = [0; N];
        self.buf.copy_to_slice(span.start, &mut out);
        Ok(out)
    }

    /// Fills `dst` from image offset `*at` and moves `*at` past it, or
    /// fails [`FormatError::Truncated`] where that would pass `end`.
    fn take(&self, end: usize, at: &mut usize, dst: &mut [u8]) -> Result<(), FormatError> {
        if dst.len() > end.saturating_sub(*at) {
            return Err(FormatError::Truncated);
        }
        self.buf.copy_to_slice(*at, dst);
        *at = at.saturating_add(dst.len());
        Ok(())
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
/// Copies the slice once; prefer `parse_image` when the caller owns
/// refcounted bytes — that variant is zero-copy.
pub fn parse(bytes: &[u8]) -> Result<(FsTree, ImageHeader), FormatError> {
    parse_image(&Parts::from(Bytes::copy_from_slice(bytes)))
}

/// Parses image bytes back into a tree and header, zero-copy.
///
/// Every file node's data is a refcounted slice of the piece of `bytes`
/// that holds it — parsing allocates directory structure only, and reads
/// of the resulting tree hand back slices of the image's own pieces. A
/// file whose data straddles two pieces (never one [`serialize`] wrote)
/// is copied out. ICB fields and FID entries are read where they lie,
/// never sliced as whole blocks: in a sealed image a block straddles its
/// owned run and the zero block.
pub(crate) fn parse_image(bytes: &Parts) -> Result<(FsTree, ImageHeader), FormatError> {
    let r = Reader { buf: bytes };
    let anchor: [u8; ANCHOR_BYTES] = r.fields(0)?;
    let mut anchor = &anchor[..];
    if take(&mut anchor, MAGIC.len())? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = take_u32(&mut anchor)?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let pvd: [u8; PVD_BYTES] = r.fields(take_u64(&mut anchor)?)?;
    let mut pvd = &pvd[..];
    let header = ImageHeader {
        image_id: take_u64(&mut pvd)?,
        capacity_blocks: take_u64(&mut pvd)?,
        used_blocks: take_u64(&mut pvd)?,
    };
    let root_icb = take_u64(&mut pvd)?;

    let mut nodes = Vec::new();
    parse_node(&r, root_icb, Path::root(), 0, &mut 0, &mut nodes)?;
    match nodes.first() {
        // Pre-order with each directory's names ascending is the map's
        // order, so the collect sorts nothing and fills every leaf.
        Some((_, FsNode::Dir { .. })) => {
            Ok((FsTree::from_nodes(nodes.into_iter().collect()), header))
        }
        _ => Err(FormatError::Corrupt {
            block: root_icb,
            reason: "root must be a directory",
        }),
    }
}

/// Parses the node whose ICB is block `icb` as `path`, and its subtree,
/// onto `out` in pre-order. A directory's FID stream is read whole
/// before its children, and its names must come as [`serialize`] writes
/// them: each one path component, ascending, none twice.
///
/// [`serialize`] numbers ICBs strictly ascending in pre-order, so each
/// node's ICB must be at least `next`, one past the last one parsed. Two
/// names that point at one ICB, or a child that points back at an
/// ancestor, are refused as the first repeat is reached: every block is
/// parsed at most once, and the parse is linear in the image.
fn parse_node(
    r: &Reader<'_>,
    icb: u64,
    path: Path,
    depth: usize,
    next: &mut u64,
    out: &mut Vec<(Path, FsNode)>,
) -> Result<(), FormatError> {
    if depth > MAX_DEPTH {
        return Err(FormatError::Corrupt {
            block: icb,
            reason: "directory nesting too deep",
        });
    }
    if icb < *next {
        return Err(FormatError::Corrupt {
            block: icb,
            reason: "ICB not after the last one parsed (aliased or cyclic)",
        });
    }
    *next = icb.saturating_add(1);
    // A file ICB's fields are the longer; a directory's read fewer.
    let fields: [u8; FILE_ICB_BYTES] = r.fields(icb)?;
    let mut b = &fields[..];
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
            let data = r.read(data_start, size)?;
            let meta = FileMeta { size, mtime_nanos };
            out.push((path, FsNode::File { meta, data }));
            Ok(())
        }
        b"D" => {
            let count = take_u32(&mut b)?;
            let data_start = take_u64(&mut b)?;
            let data_blocks = u64::from(take_u32(&mut b)?);
            let stream = r.span(data_start, data_blocks.saturating_mul(BLOCK_SIZE))?;
            let mut at = stream.start;
            let corrupt = |reason| FormatError::Corrupt {
                block: data_start,
                reason,
            };
            let mut children: Vec<(String, u64)> = Vec::new();
            let mut fid_bytes = 0u64;
            for _ in 0..count {
                // The kind byte (not needed: the child's ICB says),
                // then the name length.
                let mut head = [0u8; 5];
                r.take(stream.end, &mut at, &mut head)
                    .map_err(|_| corrupt("FID stream truncated"))?;
                let name_len = take_u32(&mut &head[1..])? as usize;
                let out_of_range = corrupt("FID name out of range");
                if name_len > MAX_NAME_LEN {
                    return Err(out_of_range);
                }
                let mut name = vec![0u8; name_len];
                let mut child_icb = [0u8; 8];
                r.take(stream.end, &mut at, &mut name)
                    .and_then(|()| r.take(stream.end, &mut at, &mut child_icb))
                    .map_err(|_| out_of_range)?;
                let name = String::from_utf8(name).map_err(|_| corrupt("FID name not UTF-8"))?;
                if name.is_empty() || name.contains('/') {
                    return Err(corrupt("FID name not one path component"));
                }
                if children.last().is_some_and(|(before, _)| *before >= name) {
                    return Err(corrupt("FID names out of order"));
                }
                fid_bytes = fid_bytes.saturating_add(fid_cost(&name));
                children.push((name, u64::from_le_bytes(child_icb)));
            }
            let node = FsNode::Dir {
                fid_bytes,
                children: children.len(),
            };
            out.push((path.clone(), node));
            for (name, child_icb) in children {
                let child = path.join(&name);
                parse_node(r, child_icb, child, depth.saturating_add(1), next, out)?;
            }
            Ok(())
        }
        _ => Err(FormatError::Corrupt {
            block: icb,
            reason: "unknown ICB tag",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

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

    /// [`super::serialize`] flattened: what the tests that read image
    /// bytes as one slice take.
    fn serialize(t: &FsTree, image_id: u64, capacity: u64) -> Result<Bytes, FormatError> {
        super::serialize(t, image_id, capacity).map(|parts| parts.to_bytes())
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A tree as nested directories, each mapping its children's names
    /// to their nodes: the shape the map replaced, kept for the oracles.
    #[derive(Debug)]
    enum Nested {
        File(FileMeta, Bytes),
        Dir(BTreeMap<String, Nested>),
    }

    impl Nested {
        fn of(tree: &FsTree) -> Nested {
            let mut root = BTreeMap::new();
            for (path, node) in tree.nodes().filter(|(p, _)| !p.is_root()) {
                let names: Vec<&str> = path.components().collect();
                let (name, above) = names.split_last().unwrap();
                let dir = above
                    .iter()
                    .fold(&mut root, |dir, c| match dir.get_mut(*c) {
                        Some(Nested::Dir(children)) => children,
                        _ => panic!("{path}: an ancestor is missing or a file"),
                    });
                let node = match node {
                    FsNode::File { meta, data } => Nested::File(meta.clone(), data.clone()),
                    FsNode::Dir { .. } => Nested::Dir(BTreeMap::new()),
                };
                assert!(dir.insert(name.to_string(), node).is_none());
            }
            Nested::Dir(root)
        }

        /// The nested directory at `path`.
        fn dir(&self, path: &Path) -> &BTreeMap<String, Nested> {
            let found = path.components().try_fold(self, |node, c| match node {
                Nested::Dir(children) => children.get(c),
                Nested::File(..) => None,
            });
            match found {
                Some(Nested::Dir(children)) => children,
                _ => panic!("{path} is no directory"),
            }
        }
    }

    /// The seek-and-fill writer `serialize` replaced, kept as the oracle:
    /// it pre-zeroes the whole image, writes each node of the nested tree
    /// at its block offset, and a directory's FID stream after its
    /// children.
    mod reference {
        use super::super::*;
        use super::Nested;

        fn at(buf: &mut [u8], block: u64) -> &mut [u8] {
            &mut buf[(block * BLOCK_SIZE) as usize..]
        }

        fn put(dst: &mut &mut [u8], src: &[u8]) {
            let (head, tail) = core::mem::take(dst).split_at_mut(src.len());
            head.copy_from_slice(src);
            *dst = tail;
        }

        fn emit(node: &Nested, icb: u64, buf: &mut [u8]) -> u64 {
            let data_start = icb + 1;
            match node {
                Nested::File(meta, data) => {
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
                Nested::Dir(children) => {
                    let fid: u64 = children.keys().map(|n| fid_cost(n)).sum();
                    let data_blocks = blocks_for(fid);
                    let mut b = at(buf, icb);
                    put(&mut b, b"D");
                    put(&mut b, &le_u32(children.len() as u64));
                    put(&mut b, &data_start.to_le_bytes());
                    put(&mut b, &le_u32(data_blocks));
                    let mut next = data_start + data_blocks;
                    let mut stream = Vec::new();
                    for (name, child) in children {
                        stream.push(match child {
                            Nested::Dir(_) => b'd',
                            Nested::File(..) => b'f',
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
            let end = emit(&Nested::of(tree), OVERHEAD_BLOCKS, &mut buf);
            assert_eq!(end, needed / BLOCK_SIZE);
            buf
        }
    }

    /// Every shape the writer has a branch or a boundary for, in one
    /// tree: directories four deep, a FID stream of several blocks (by
    /// child count, and by one name at the limit), empty files, empty
    /// directories, file sizes around a block boundary and either side of
    /// a pad the owned buffer holds ([`SHARED_ZERO_MIN`]), and files of
    /// several blocks back to back. Fill bytes are non-zero so misplaced
    /// padding shows.
    fn every_edge_tree() -> FsTree {
        let mut t = FsTree::new();
        let b = BLOCK_SIZE as usize;
        let short_pad = SHARED_ZERO_MIN;
        for (i, size) in [
            0,
            1,
            b - short_pad - 1,
            b - short_pad,
            b - short_pad + 1,
            b - 1,
            b,
            b + 1,
            2 * b,
            5 * b + 3,
            16 * b - 1,
            16 * b,
            17 * b,
        ]
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
        let sizes = [
            0,
            1,
            b - SHARED_ZERO_MIN,
            b - SHARED_ZERO_MIN + 1,
            b - 1,
            b,
            b + 1,
            3 * b + 7,
            16 * b - 1,
            16 * b,
            19 * b + 7,
        ];
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

    /// The writer's whole contract on one tree: the pieces read as the
    /// seek-and-fill writer's image; every non-empty file is a piece of
    /// its own, the tree's own bytes; every other piece is either a run of
    /// one owned buffer, the runs back to back, or a view of the zero
    /// block that ends that buffer, each at least [`SHARED_ZERO_MIN`]
    /// bytes; and the pieces parse back to the tree without a copy.
    fn assert_written_once_and_as_before(t: &FsTree, image_id: u64) {
        use bytes::Pieces;
        let capacity = 1 << 26;
        let parts = super::serialize(t, image_id, capacity).unwrap();
        assert_eq!(parts.len() as u64, t.image_bytes());
        assert!(
            parts == reference::serialize(t, image_id, capacity),
            "image differs from the seek-and-fill writer's"
        );
        let files: Vec<Bytes> = t
            .walk_files()
            .into_iter()
            .map(|(path, _)| t.read(&path).unwrap())
            .filter(|data| !data.is_empty())
            .collect();
        let is_file = |piece: &[u8]| files.iter().any(|d| d.as_ptr() == piece.as_ptr());
        // The anchor's fields, then the rest of its block as zeros.
        let zero_block = parts.pieces().nth(1).unwrap().as_ptr();
        let (mut owned, mut zero_views, mut file_pieces) = (Vec::new(), 0, 0);
        for piece in parts.pieces() {
            if is_file(piece) {
                file_pieces += 1;
            } else if piece.as_ptr() == zero_block {
                assert!(piece.len() >= SHARED_ZERO_MIN && piece.len() <= ZERO_BLOCK);
                assert!(piece.iter().all(|&b| b == 0));
                zero_views += 1;
            } else {
                owned.push(piece);
            }
        }
        assert_eq!(file_pieces, files.len(), "a file was copied");
        assert!(zero_views >= 2, "the anchor's and the PVD's pads");
        for pair in owned.windows(2) {
            assert_eq!(
                pair[0].as_ptr_range().end,
                pair[1].as_ptr(),
                "owned runs are one buffer, back to back"
            );
        }
        assert_eq!(
            owned.last().unwrap().as_ptr_range().end,
            zero_block,
            "the zero block ends the owned buffer"
        );
        let (parsed, header) = parse_image(&parts).unwrap();
        assert_eq!(&parsed, t);
        assert_eq!(header.image_id, image_id);
        assert_eq!(header.used_blocks * BLOCK_SIZE, t.image_bytes());
        for (path, _) in parsed.walk_files() {
            let data = parsed.read(&path).unwrap();
            let inside = parts.pieces().any(|p| {
                let range = p.as_ptr_range();
                range.contains(&data.as_ptr()) && data.as_ptr_range().end <= range.end
            });
            assert!(
                inside || data.is_empty(),
                "{path} was copied out of the image"
            );
        }
    }

    /// An image of small files owns its metadata and nothing else: the
    /// anchor and PVD fields, the ICB fields, the FID stream, and one
    /// zero block — every file a view of the bytes it was written from,
    /// every pad of 64 B or more a view of that block.
    #[test]
    fn an_image_of_small_files_owns_only_its_metadata() {
        use bytes::Pieces;
        let mut t = FsTree::new();
        let n = 300;
        for i in 0..n {
            let path: Path = format!("/f{i:03}").parse().unwrap();
            t.insert(&path, vec![i as u8 | 1; 100 + i % 1900], 0)
                .unwrap();
        }
        let parts = super::serialize(&t, 3, 1 << 26).unwrap();
        let fid: u64 = (0..n).map(|i| fid_cost(&format!("f{i:03}"))).sum();
        let fid_pad = owned_pad(blocks_for(fid) * BLOCK_SIZE - fid);
        let metadata =
            (ANCHOR_BYTES + PVD_BYTES + DIR_ICB_BYTES + n * FILE_ICB_BYTES) as u64 + fid + fid_pad;
        let first = parts.pieces().next().unwrap().as_ptr();
        let zero_block = parts.pieces().nth(1).unwrap().as_ptr();
        assert_eq!(
            zero_block as usize - first as usize,
            metadata as usize,
            "the owned buffer holds more than the metadata"
        );
        // Nothing the image holds lies past its zero block but the files.
        let owned_end = zero_block as usize + ZERO_BLOCK;
        let owned_pieces = parts.pieces().filter(|p| {
            let at = p.as_ptr() as usize;
            at >= first as usize && at < owned_end
        });
        let owned_piece_bytes: usize = owned_pieces.map(<[u8]>::len).sum();
        let file_bytes: usize = (0..n).map(|i| 100 + i % 1900).sum();
        assert_eq!(owned_piece_bytes + file_bytes, parts.len());
        assert!(parts.piece_count() > 3 * n, "files and pads are pieces");
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

    /// A random tree over names that sort on both sides of `'/'`:
    /// `a`, `a b` and `a-` are siblings, and `a/x` is below `a`, between
    /// `a` and `a b` in path order though after both in byte order.
    fn around_the_slash_tree(seed: u64) -> FsTree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let names = ["a", "a b", "a-", "x", "a.", "a0", "b"];
        let mut t = FsTree::new();
        for step in 0..rng.gen::<u64>() % 64 {
            let depth = 1 + rng.gen::<usize>() % 4;
            let path = (0..depth).fold(Path::root(), |p, _| {
                p.join(names[rng.gen::<usize>() % names.len()])
            });
            if rng.gen::<u32>() % 4 == 0 {
                let _ = t.mkdir_p(&path);
            } else {
                let _ = t.insert(&path, vec![step as u8; (step % 5) as usize * 700], step);
            }
        }
        t.debug_assert_totals();
        t
    }

    proptest::proptest! {
        #[test]
        fn a_tree_round_trips_and_lists_in_nested_order(seed in 0u64..256) {
            let t = around_the_slash_tree(seed);
            let (parsed, _) = parse(&serialize(&t, seed, 1 << 26).unwrap()).unwrap();
            proptest::prop_assert_eq!(&parsed, &t);
            parsed.debug_assert_totals();
            // Each directory listed through the map — the entries one
            // component below it, in map order — is the nested tree's
            // directory in name order.
            let nested = Nested::of(&t);
            for (dir, _) in t.nodes().filter(|(_, n)| matches!(n, FsNode::Dir { .. })) {
                let listed: Vec<(&str, bool)> = t
                    .nodes()
                    .filter(|(p, _)| p.parent().as_ref() == Some(dir))
                    .map(|(p, n)| (p.name().unwrap(), matches!(n, FsNode::Dir { .. })))
                    .collect();
                let expected: Vec<(&str, bool)> = nested
                    .dir(dir)
                    .iter()
                    .map(|(name, n)| (name.as_str(), matches!(n, Nested::Dir(_))))
                    .collect();
                proptest::prop_assert_eq!(listed, expected, "{}", dir);
            }
        }
    }

    #[test]
    fn a_fid_stream_out_of_order_twice_or_across_a_slash_is_corrupt() {
        // Root FIDs of "/ab" and "/ac", each two bytes of name: swapping
        // one byte of a name puts the stream out of order, repeats a
        // name, or makes one name two components.
        let mut t = FsTree::new();
        t.insert(&"/ab".parse::<Path>().unwrap(), &b"1"[..], 0)
            .unwrap();
        t.insert(&"/ac".parse::<Path>().unwrap(), &b"2"[..], 0)
            .unwrap();
        let image = serialize(&t, 1, 1 << 20).unwrap().to_vec();
        // Root ICB at block 2, its FID stream at block 3: kind, length,
        // name, ICB pointer.
        let second_name = (3 * BLOCK_SIZE) as usize + 15 + 5;
        for (byte, reason) in [
            (b'a', "FID names out of order"),
            (b'b', "FID names out of order"),
            (b'/', "FID name not one path component"),
        ] {
            let mut v = image.clone();
            assert_eq!(&v[second_name..second_name + 2], b"ac");
            v[second_name + 1] = byte;
            assert_eq!(
                parse(&v).unwrap_err(),
                FormatError::Corrupt { block: 3, reason },
                "{:?}",
                char::from(byte)
            );
        }
    }

    #[test]
    fn a_directory_icb_named_twice_is_corrupt() {
        // Root FIDs of directories "a" and "b", each one byte of name;
        // "/a" holds a file. Pointing "b" at "a"'s ICB would parse the
        // subtree twice, once per name, and a chain of such aliases
        // twice per level.
        let mut t = FsTree::new();
        t.insert(&"/a/x".parse::<Path>().unwrap(), &b"1"[..], 0)
            .unwrap();
        t.mkdir_p(&"/b".parse::<Path>().unwrap()).unwrap();
        let mut image = serialize(&t, 1, 1 << 20).unwrap().to_vec();
        // Root ICB at block 2, its FID stream at block 3: kind, length,
        // name, ICB pointer.
        let fid = (3 * BLOCK_SIZE) as usize;
        let (a_icb, b_icb) = (fid + 6, fid + 14 + 6);
        assert_eq!((image[fid + 5], image[fid + 14 + 5]), (b'a', b'b'));
        let a_block = u64::from_le_bytes(image[a_icb..a_icb + 8].try_into().unwrap());
        image.copy_within(a_icb..a_icb + 8, b_icb);
        assert_eq!(
            parse(&image).unwrap_err(),
            FormatError::Corrupt {
                block: a_block,
                reason: "ICB not after the last one parsed (aliased or cyclic)",
            }
        );
        // A child that points back at the root.
        let root = OVERHEAD_BLOCKS.to_le_bytes();
        image[b_icb..b_icb + 8].copy_from_slice(&root);
        assert!(matches!(
            parse(&image).unwrap_err(),
            FormatError::Corrupt {
                block: OVERHEAD_BLOCKS,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "image writer moved back")]
    fn the_writer_cannot_go_back() {
        // No tree reaches this (the oracle tests above would trip it):
        // the position is driven directly.
        let mut w = Writer::new(0);
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
        let dir = |path: &Path| (path.clone(), FsNode::EMPTY_DIR);
        let serialize_dirs =
            |dirs: &[Path]| serialize(&FsTree::from_entries(dirs.iter().map(dir)), 1, 1 << 30);
        let named = |n: usize| [Path::root().join(&"n".repeat(n))];

        parse(&serialize_dirs(&named(MAX_NAME_LEN)).unwrap()).unwrap();
        assert_eq!(
            serialize_dirs(&named(MAX_NAME_LEN + 1)).unwrap_err(),
            FormatError::FieldOverflow {
                field: "FID name length",
                value: MAX_NAME_LEN as u64 + 1,
            }
        );

        let chain = |depth: usize| -> Vec<Path> {
            (0..depth)
                .scan(Path::root(), |p, _| {
                    *p = p.join("d");
                    Some(p.clone())
                })
                .collect()
        };
        parse(&serialize_dirs(&chain(MAX_DEPTH)).unwrap()).unwrap();
        assert_eq!(
            serialize_dirs(&chain(MAX_DEPTH + 1)).unwrap_err(),
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
        let claims_a_terabyte = FsTree::from_entries([(
            Path::root().join("sparse"),
            FsNode::File {
                meta: FileMeta {
                    size: 1 << 40,
                    mtime_nanos: 0,
                },
                data: Bytes::new(),
            },
        )]);
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
        let t = FsTree::from_entries([(
            Path::root().join("huge"),
            FsNode::File {
                meta: FileMeta {
                    size,
                    mtime_nanos: 0,
                },
                data: Bytes::new(),
            },
        )]);
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
