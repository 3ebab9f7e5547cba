//! Optical disc media and drive models for the ROS optical library.
//!
//! This crate reproduces the optical subsystem of the paper's prototype:
//! Pioneer BDR-S09XLB half-height drives holding 25 GB and 100 GB Blu-ray
//! discs, grouped into sets of 12 that burn and read in parallel behind a
//! shared PCIe HBA (§3.3, §5.4).
//!
//! The models are calibrated to the paper's measurements:
//!
//! - 25 GB burn: CAV ramp from 1.6X to 12.0X, average 8.2X, 675 s per disc
//!   (Figure 8),
//! - 12-drive 25 GB array burn: ≈380 MB/s peak, ≈268 MB/s average, 1146 s
//!   to finish the array (Figure 9),
//! - 100 GB burn: 6.0X nominal with servo fail-safe dips to 4.0X, average
//!   5.9X, 3757 s per disc (Figure 10),
//! - reads: 24.1 MB/s (25 GB) and 18.0 MB/s (100 GB) per drive, aggregating
//!   to 282.5 / 210.2 MB/s across 12 drives (Table 2).
//!
//! Media semantics are real: write-once enforcement, pseudo-overwrite
//! tracks with metadata-zone formatting cost, rewritable discs burning at
//! 2X, and sector-level corruption that the OLFS redundancy layer above
//! actually repairs.

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

pub(crate) mod drive;
pub mod media;
pub mod params;
pub(crate) mod set;
pub mod speed;

pub use drive::{DriveError, OpticalDrive, TimedRead};
pub use media::{Disc, DiscClass, MediaKind, Payload, Track};
pub use set::{ArrayBurnReport, DriveSet};
pub use speed::{BurnPlan, SpeedCurve};
