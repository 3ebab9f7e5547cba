//! Workload generators and a replay runner for ROS.
//!
//! §5.2 evaluates OLFS with filebench's `singlestream` read and write
//! workloads (1 MB I/O size). This crate provides those plus the two
//! workload families the paper's introduction motivates: bulk archival
//! ingest (write-dominated, large files) and big-data analytics readback
//! (read-dominated, skewed popularity over historical data).
//!
//! - [`dist`]: deterministic file-size and popularity distributions,
//! - [`spec`]: declarative workload specifications compiled to op lists,
//! - [`runner`]: executes an op list against a [`ros_access::NasGateway`]
//!   and reports latency/throughput statistics.

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

pub mod dist;
pub mod runner;
pub mod spec;
pub mod trace;

pub use runner::{RunStats, Runner};
pub use spec::{FileOp, WorkloadSpec};
pub use trace::{from_jsonl, to_jsonl};
