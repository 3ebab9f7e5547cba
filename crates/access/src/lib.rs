//! Access-path stack models: how clients reach OLFS.
//!
//! §4.8/§5.3: the prototype exports OLFS through FUSE, optionally behind
//! Samba in the NAS deployment the paper recommends. Each layer costs
//! throughput (kernel-user switches, SMB round trips) and latency (extra
//! stat operations per request). This crate models the five measured
//! configurations of Figure 6 —
//!
//! | configuration | read (vs ext4) | write (vs ext4) |
//! |---------------|----------------|-----------------|
//! | ext4 (baseline RAID-5) | 1.000 | 1.000 |
//! | ext4+FUSE     | 0.759 | 0.482 |
//! | ext4+OLFS     | 0.540 | 0.433 |
//! | samba         | 0.311 | 0.320 |
//! | samba+FUSE    | ~0.24 | ~0.31 |
//! | samba+OLFS    | 0.196 | 0.323 |
//!
//! — plus the per-operation latency compositions of Figure 7 (OLFS write
//! 16 ms / read 9 ms; samba+OLFS write 53 ms / read 15 ms), the
//! direct-writing bypass mode of §4.8, and the §4.2 interface
//! extensions: a [`KvStore`] and an S3-style [`ObjectStore`], both
//! mapped onto the OLFS namespace.

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

pub(crate) mod gateway;
pub(crate) mod kv;
pub(crate) mod object;
pub mod params;
pub(crate) mod samba;
pub(crate) mod stack;

pub use gateway::NasGateway;
pub use kv::{KvResponse, KvStore};
pub use object::{Object, ObjectMeta, ObjectStore};
pub use stack::{AccessStack, StackThroughput};
