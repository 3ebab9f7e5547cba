//! Mechanical subsystem model of the ROS optical library.
//!
//! ROS houses up to 12,240 optical discs in a 42U rack: one or two rotatable
//! *rollers* (1.67 m tall, 433 mm diameter cylinders) each hold 6,120 discs
//! in 510 trays of 12 discs, organised in 85 layers of 6 lotus-shaped slots
//! (§3.2 of the paper). A vertically-moving *robotic arm* fans a tray out of
//! the roller, fetches its 12-disc array, lifts it above the drive stack and
//! separates the discs one by one into 12 optical drives. A PLC drives all
//! motors under closed-loop sensor feedback with 0.05 mm placement
//! precision (§3.3).
//!
//! This crate reproduces that machinery as a calibrated kinematic model:
//!
//! - [`geometry`]: rack layout, slot/tray addressing and capacity math,
//! - [`roller`]: roller rotation and tray fan-out/fan-in state machine,
//! - [`arm`]: robotic-arm travel, latch and disc separation/collection,
//! - [`sensors`]: range-sensor feedback loop reaching 0.05 mm tolerance,
//! - [`plc`]: the PLC instruction set and its interpreter,
//! - [`ops`]: composite load/unload operations with the parallel-scheduling
//!   overlap optimisation, calibrated to Table 3 of the paper
//!   (load 68.7-73.2 s, unload 81.7-86.5 s),
//! - [`params`]: every timing constant with its paper citation.

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

pub mod arm;
pub mod geometry;
pub mod ops;
pub mod params;
pub mod plc;
pub mod roller;
pub mod sensors;

pub use arm::RoboticArm;
pub use geometry::{DiscSlot, RackLayout, SlotAddress};
pub use ops::{MechOp, MechScheduler, OpKind};
pub use plc::{Plc, PlcError, PlcInstruction};
pub use roller::Roller;
