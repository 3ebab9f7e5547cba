//! A write-once UDF-profile disc-image format for the ROS optical library.
//!
//! OLFS "strategically partitions all files into Universal Disc Format
//! (UDF) disc images on disks or discs" (§1) and uses *buckets* — updatable
//! UDF volumes on the disk write buffer — as the staging form of those
//! images (§4.3). This crate implements that image format for real:
//!
//! - fixed 2 KB blocks (the UDF basic block size, §4.5),
//! - a block-accurate on-image layout: anchor + volume descriptor, ICB
//!   metadata blocks, file-identifier-descriptor (FID) directory data and
//!   contiguous file extents,
//! - every file costs at least one 2 KB file-entry block in addition to
//!   its data blocks — reproducing §4.5's worst case where sub-2KB files
//!   halve usable capacity,
//! - full binary serialization and parsing, so namespace recovery by
//!   scanning raw disc payloads (§4.4) is real,
//! - [`Bucket`]: the updatable staging volume with close-on-overflow
//!   semantics (§4.5).
//!
//! The format is *UDF-profile*, not byte-compatible UDF 2.50: it keeps the
//! structures that matter for the paper's mechanisms (block maths, entry
//! overheads, self-descriptive directory subtrees) and drops the
//! compatibility baggage (tag checksums, OSTA strings, sparing tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The workspace's domain rules, held by clippy (DESIGN.md §8): no panic
// paths, no lossy casts, no hash-order iteration outside test code.
// `warn` here; CI's `-D warnings` makes them fatal.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::iter_over_hash_type
    )
)]

pub mod block;
pub mod bucket;
pub mod format;
pub mod image;
pub mod pathindex;
pub mod tree;

pub use block::{blocks_for, BLOCK_SIZE};
pub use bucket::{Bucket, BucketError};
pub use image::SealedImage;
pub use pathindex::PathIndex;
pub use tree::{FsTree, Path as UdfPath, TreeError};
