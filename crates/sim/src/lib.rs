//! Deterministic discrete-event simulation engine for the ROS optical library.
//!
//! Every hardware component in the ROS reproduction (roller, robotic arm,
//! optical drives, disk tier) is modelled on a *logical* clock so that an
//! hour-long disc burn completes in microseconds of wall time while still
//! reporting paper-scale latencies. This crate provides the shared
//! foundations:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-resolution logical time,
//! - [`Bandwidth`]: byte-per-second transfer rates with exact
//!   duration-for-size arithmetic,
//! - [`EventQueue`]: a deterministic future-event list with stable FIFO
//!   tie-breaking,
//! - [`SimRng`]: a seedable, reproducible random number generator,
//! - [`stats`]: latency recorders and time-series samplers used by the
//!   benchmark harness to regenerate the paper's figures.
//!
//! The engine is intentionally *passive*: component models compute durations
//! and the owning engine (in `ros-olfs`) schedules completion events. This
//! keeps hardware models pure and unit-testable.

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

pub mod bandwidth;
pub(crate) mod event;
pub(crate) mod rng;
pub mod stats;
pub(crate) mod time;

pub use bandwidth::Bandwidth;
pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// FNV-1a, 64-bit: the workspace's one non-cryptographic fingerprint
/// (KV bucket choice, rendezvous placement, synthetic-payload checksums,
/// the chaos timeline digest). Stable across hosts and releases; pinned
/// by the vectors in this crate's tests.
pub fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 64-bit byte count or index as a `usize`. Lossless on 64-bit hosts;
/// where `usize` is narrower the value saturates, so it is out of range
/// for every buffer it could index and is refused there, never wrapped
/// onto a wrong offset as a bare `as usize` would.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the branch saturates whatever `usize` cannot hold"
)]
pub const fn to_usize(n: u64) -> usize {
    if n > usize::MAX as u64 {
        usize::MAX
    } else {
        n as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
