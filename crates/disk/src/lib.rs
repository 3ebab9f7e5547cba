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
//! - [`device`]: HDD/SSD block-device timing models,
//! - [`gf`]: table-driven GF(2^8) kernels (const log/exp and 4-bit
//!   split multiply tables, word-sliced XOR) behind the parity hot path,
//! - [`parity`]: *real* XOR (P) and GF(2^8) Reed-Solomon (Q) parity
//!   arithmetic with reconstruction of up to two losses — shared by the
//!   RAID arrays here and by OLFS's disc-array redundancy (§4.7),
//! - [`plane`]: a deterministic scoped-thread data plane for real-bytes
//!   kernels — byte-identical results at any thread count,
//! - [`raid`]: RAID-0/1/5/6 arrays with failure and rebuild modelling,
//! - [`volume`]: the volume manager and the concurrent-stream
//!   interference model that motivates ROS's multiple independent RAID
//!   volumes (§4.7's four-stream discussion).

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

pub mod device;
pub mod gf;
pub mod params;
pub mod parity;
pub mod plane;
pub mod raid;
pub mod volume;

pub use device::{BlockDevice, DeviceKind};
pub use plane::DataPlane;
pub use raid::{RaidArray, RaidError, RaidLevel};
pub use volume::{StreamId, StreamKind, VolumeId, VolumeManager};
