//! Transfer-rate arithmetic.
//!
//! Storage models throughout ROS express device speed as a [`Bandwidth`]
//! (bytes per second). The paper quotes optical speeds in "X" units where
//! 1X = 4.49 MB/s for Blu-ray ([`Bandwidth::from_bluray_x`]), disk speeds in
//! MB/s, and network links in Gb/s; this module converts between all of them
//! and computes exact transfer durations.

use crate::time::SimDuration;
use core::fmt;
use core::ops::{Add, Div, Mul};
use serde::{Deserialize, Serialize};

/// The Blu-ray base reference speed: 1X = 4.49 MB/s (§2.1 of the paper).
pub const BLURAY_1X_BYTES_PER_SEC: f64 = 4.49 * 1e6;

/// A data-transfer rate in bytes per second.
///
/// Internally stored as an `f64` because optical speed curves are continuous
/// functions of disc radius; durations are rounded to nanoseconds only at
/// the final [`Bandwidth::time_for`] step.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero transfer rate (e.g. a powered-off device).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth of `bps` bytes per second.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        if bps.is_finite() && bps > 0.0 {
            Bandwidth(bps)
        } else {
            Bandwidth(0.0)
        }
    }

    /// Creates a bandwidth of `mbps` *decimal* megabytes per second, the
    /// unit the paper uses for all disk and drive throughput numbers.
    pub fn from_mb_per_sec(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6)
    }

    /// Creates a bandwidth from a network link rate in gigabits per second
    /// (e.g. the 10GbE client network of the prototype).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        Self::from_bytes_per_sec(gbit * 1e9 / 8.0)
    }

    /// Creates a bandwidth from a Blu-ray "X" speed multiple (1X = 4.49 MB/s).
    pub fn from_bluray_x(x: f64) -> Self {
        Self::from_bytes_per_sec(x * BLURAY_1X_BYTES_PER_SEC)
    }

    /// Returns the rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in decimal megabytes per second.
    pub fn mb_per_sec(self) -> f64 {
        self.0 / 1e6
    }

    /// Computes the time needed to transfer `bytes` at this rate.
    ///
    /// A zero bandwidth yields [`SimDuration::ZERO`]; callers model
    /// unavailable devices explicitly rather than via infinite transfers.
    pub fn time_for(self, bytes: u64) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }

    /// Computes how many bytes are transferred in `dur` at this rate.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates: a negative or NaN product is 0 bytes"
    )]
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        (self.0 * dur.as_secs_f64()).floor() as u64
    }

    /// Scales the rate by a dimensionless factor (e.g. an interference or
    /// software-stack degradation factor), clamping at zero.
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 * factor)
    }

    /// Returns the smaller of two rates (e.g. the bottleneck of a pipeline).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rates.
    pub(crate) fn max(self, other: Bandwidth) -> Bandwidth {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        self.scale(rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        if rhs <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bytes_per_sec(self.0 / rhs)
        }
    }
}

impl core::iter::Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MB/s", self.mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bluray_x_reference_speed() {
        let one_x = Bandwidth::from_bluray_x(1.0);
        assert!((one_x.mb_per_sec() - 4.49).abs() < 1e-9);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(Bandwidth::from_mb_per_sec(150.0).bytes_per_sec(), 150e6);
        // 10GbE carries 1.25 GB/s of raw payload.
        assert_eq!(Bandwidth::from_gbit_per_sec(10.0).bytes_per_sec(), 1.25e9);
    }

    #[test]
    fn transfer_time_is_exact() {
        let bw = Bandwidth::from_mb_per_sec(100.0);
        assert_eq!(bw.time_for(100_000_000), SimDuration::from_secs(1));
        assert_eq!(bw.time_for(50_000_000), SimDuration::from_millis(500));
        assert_eq!(bw.time_for(0), SimDuration::ZERO);
    }

    #[test]
    fn bytes_in_inverts_time_for() {
        let bw = Bandwidth::from_mb_per_sec(45.0);
        let dur = bw.time_for(25_000_000_000);
        let bytes = bw.bytes_in(dur);
        // Round-trips to within one byte of rounding error.
        assert!((bytes as i64 - 25_000_000_000i64).abs() <= 1);
    }

    #[test]
    fn zero_bandwidth_is_inert() {
        assert_eq!(Bandwidth::ZERO.time_for(1 << 30), SimDuration::ZERO);
        assert_eq!(Bandwidth::ZERO.bytes_in(SimDuration::from_secs(10)), 0);
        assert_eq!(Bandwidth::from_bytes_per_sec(-5.0), Bandwidth::ZERO);
        assert_eq!(Bandwidth::from_bytes_per_sec(f64::NAN), Bandwidth::ZERO);
    }

    #[test]
    fn aggregation_and_scaling() {
        let one = Bandwidth::from_mb_per_sec(24.1);
        let twelve: Bandwidth = std::iter::repeat_n(one, 12).sum();
        assert!((twelve.mb_per_sec() - 289.2).abs() < 1e-6);
        assert!((one.scale(0.5).mb_per_sec() - 12.05).abs() < 1e-9);
        assert_eq!((one * -1.0), Bandwidth::ZERO);
        assert_eq!((one / 0.0), Bandwidth::ZERO);
        assert!(((one / 2.0).mb_per_sec() - 12.05).abs() < 1e-9);
    }

    #[test]
    fn min_max_bottleneck() {
        let a = Bandwidth::from_mb_per_sec(10.0);
        let b = Bandwidth::from_mb_per_sec(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
