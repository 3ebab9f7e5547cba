//! OLFS — the Optical Library File System of ROS.
//!
//! OLFS is the paper's core software contribution (§4): a global,
//! POSIX-style file system spanning a metadata volume on SSDs, UDF write
//! buckets and disc images on the HDD write buffer / read cache, and
//! thousands of write-once optical discs behind a robotic mechanical
//! subsystem. It provides *inline accessibility*: external clients read
//! and write ordinary files while OLFS hides bucket packing, disc-image
//! management, parity generation, burning and mechanical fetches.
//!
//! The implementation is organised after the paper's nine modules:
//!
//! | Paper module (§4.1)          | Here                        |
//! |------------------------------|-----------------------------|
//! | POSIX Interface (PI)         | [`posix::PosixFs`] + [`engine::Ros`] |
//! | Writing Bucket Mgmt (WBM)    | [`wbm`]                     |
//! | Disc Image Mgmt (DIM)        | [`dim`]                     |
//! | Burning Task Mgmt (BTM)      | [`engine`] burn tasks       |
//! | Disc Burning (DB)            | `ros-drive`                 |
//! | Mechanical Controller (MC)   | `ros-mech` + [`engine`]     |
//! | Fetching Task Mgmt (FTM)     | [`engine`] fetch logic      |
//! | Read Cache (RC)              | [`cache`]                   |
//! | Maintenance Interface (MI)   | [`maintenance`]             |
//!
//! plus the cross-cutting mechanisms: metadata/data decoupling
//! ([`mv`], [`index`]), preliminary bucket writing ([`wbm`]), unique file
//! paths (`ros-udf`), regenerating updates ([`index`] version rings),
//! delayed parity generation ([`redundancy`]) and namespace recovery
//! ([`recovery`]).

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

pub mod audit;
pub mod cache;
pub mod config;
pub mod dedup;
pub mod dim;
pub mod engine;
pub mod error;
pub mod ids;
pub mod index;
pub mod maintenance;
pub mod mv;
pub mod params;
pub mod posix;
pub mod recovery;
pub mod redundancy;
mod repair;
pub mod supervise;
pub mod trace;
pub mod wbm;

pub use audit::AuditReport;
pub use config::{Redundancy, RosConfig};
pub use engine::{ReadReport, Ros, WriteReport};
pub use error::OlfsError;
pub use ids::{ArrayId, DiscId, ImageId};
pub use posix::{Fd, OpenFlags, PosixFs, Whence};
pub use ros_udf::UdfPath;
