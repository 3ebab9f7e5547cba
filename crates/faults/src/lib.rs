//! Deterministic cross-layer fault injection for ROS.
//!
//! Long-term preservation systems die from *correlated, repeated* faults
//! — scratched media plus a servo failure plus a rack outage in the same
//! week — not from single clean failures. This crate supplies the
//! machinery to exercise exactly those scenarios reproducibly:
//!
//! - [`plan::FaultPlan`]: a seeded schedule of typed fault events
//!   spanning every layer of the stack — drive read/burn errors and
//!   drive death (`ros-drive`), mechanical load/unload faults
//!   (`ros-mech`), SSD member loss and RAID-degraded mode (`ros-disk`),
//!   media sector corruption, and rack outage / slow-rack
//!   (`ros-cluster`). Plans are generated via `SimRng::fork`, so the
//!   same seed always yields the identical event sequence.
//! - [`plan::FaultSink`]: the small trait each layer implements to
//!   accept events through its *existing* failure hooks (sector
//!   corruption, RAID member failure, rack kill, ...).
//! - [`retry::RetryPolicy`]: bounded retries with exponential backoff,
//!   plus the [`retry::Transience`] classification that separates
//!   retryable faults from hard, typed degraded-mode results.
//! - [`aging::AgingPlan`]: a decade-scale media-aging schedule — per-disc
//!   bathtub hazards (infant mortality + Weibull wear-out), correlated
//!   manufacturing-batch defects, and latent sector rot
//!   ([`plan::FaultKind::MediaRot`]) that flips bytes with no I/O error,
//!   detectable only by an end-to-end digest audit.
//!
//! The crate deliberately depends only on `ros-sim`: every other layer
//! depends on it, implements [`plan::FaultSink`], and keeps its fault
//! hooks private to the mechanism that already modelled them.

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

pub mod aging;
pub mod plan;
pub mod retry;

pub use aging::{AgingEvent, AgingPlan, AgingSpec};
pub use plan::{
    FaultEvent, FaultKind, FaultPlan, FaultSink, FaultSpec, InjectionOutcome, VolumeTarget,
};
pub use retry::{supervise, RetryPolicy, RetryStats, Transience};
