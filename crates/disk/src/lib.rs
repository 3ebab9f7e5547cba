//! Disk-tier models for the ROS optical library.
//!
//! The prototype's disk tier (§3.3, §5.1) is 2 × 240 GB SSDs as a RAID-1
//! metadata volume plus 14 × 4 TB HDDs as two RAID-5 write-buffer /
//! read-cache volumes, all behind PCIe 3.0 HBAs. ext4 on one RAID-5
//! volume measures 1.2 GB/s read and 1.0 GB/s write — the baseline of
//! Figure 6.
//!
//! This crate provides:
//!
//! - `device`: HDD/SSD block-device timing models,
//! - [`gf`]: GF(2^8) kernels behind the parity hot path — Q by
//!   Horner's rule on `u64` lanes, const log/exp tables, a 4-bit split
//!   multiply table for a recovery's scaling pass, word-sliced XOR,
//! - [`parity`]: *real* XOR (P) and GF(2^8) Reed-Solomon (Q) parity
//!   arithmetic with reconstruction of up to two losses — shared by the
//!   RAID arrays here and by OLFS's disc-array redundancy (§4.7),
//! - [`plane`]: a deterministic data plane of parked worker threads for
//!   real-bytes kernels — byte-identical results at any thread count,
//! - `raid`: the RAID-1/5 volume arrays with failure and rebuild modelling,
//! - [`volume`]: the volume manager and the concurrent-stream
//!   interference model that motivates ROS's multiple independent RAID
//!   volumes (§4.7's four-stream discussion).

// `deny`, not `forbid`: the plane's pool lends each call's closure to
// parked workers, which erases a lifetime in one `unsafe` block
// (DESIGN.md §3, principle 5). That block carries the crate's only
// `allow`.
#![deny(unsafe_code)]
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

pub(crate) mod device;
pub mod gf;
pub(crate) mod params;
pub mod parity;
pub mod plane;
pub(crate) mod raid;
pub mod volume;

pub use plane::DataPlane;
pub use raid::{RaidArray, RaidError};
pub use volume::{StreamId, VolumeManager};
