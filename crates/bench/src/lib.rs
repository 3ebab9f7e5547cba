//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each function in [`experiments`] builds the scenario behind one table
//! or figure of §5 (or a quantitative claim from §2/§4), runs it through
//! the actual system models, and returns structured results. The `repro`
//! binary renders them in the paper's layout, and
//! `tests/paper_calibration.rs` asserts them against the paper's numbers.
//! Host wall time has one home: the `e2e` benchmark, which times whole
//! workloads and each layer's kernels inside them.

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

pub mod campaign;
pub mod cas;
pub mod chaos;
pub mod cluster;
pub mod durability;
pub mod experiments;
pub mod model;
pub mod render;

pub use cluster::*;
pub use experiments::*;
