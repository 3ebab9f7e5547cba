//! Total-cost-of-ownership and power models for long-term storage.
//!
//! §2.1 of the paper summarises a Gupta et al.-style analytical model for
//! a 1 PB / 100-year datacenter: "the TCO of an optical disc based
//! datacenter is 250K$/PB, about 1/3 of an HDD-based datacenter, 1/2 of a
//! tape-based datacenter." [`TcoModel`] reimplements that analysis with the
//! lifetime / migration / environment assumptions the paper states
//! (SSD/HDD ≤ 5 years, tape ≈ 10 years with climate control and biennial
//! rewinding, optical > 50 years with none of that).
//!
//! [`RackPower`] reproduces the prototype's §5.1 rack power budget: 185 W
//! idle, 652 W peak, from its component inventory.

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

mod model;
mod power;

pub use model::{TcoBreakdown, TcoModel};
pub use power::{RackPower, RackState};
