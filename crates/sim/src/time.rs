//! Logical simulation time.
//!
//! [`SimTime`] is an absolute instant on the simulation clock and
//! [`SimDuration`] is a span between instants. Both are nanosecond-resolution
//! unsigned 64-bit counters, giving a simulated horizon of ~584 years —
//! comfortably beyond the 100-year TCO analyses the paper performs.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Number of nanoseconds per second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The far future; useful as an "infinite" deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// Saturates to [`SimDuration::ZERO`] if `earlier` is after `self`, so
    /// latency computations never underflow.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One microsecond.
    pub const MICROSECOND: SimDuration = SimDuration(1_000);

    /// One millisecond.
    pub const MILLISECOND: SimDuration = SimDuration(1_000_000);

    /// One second.
    pub const SECOND: SimDuration = SimDuration(NANOS_PER_SEC);

    /// Creates a span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros.saturating_mul(1_000))
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000_000))
    }

    /// Creates a span of `secs` whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a span of `mins` whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins.saturating_mul(60).saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating on overflow or negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        // The f64 product saturates to +inf, which the float-to-int cast
        // clamps to u64::MAX.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "secs is finite and positive here, and float-to-int `as` saturates"
        )]
        let nanos = (secs * NANOS_PER_SEC as f64).round() as u64;
        SimDuration(nanos)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this span expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns this span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns true if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative float factor, saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        // from_secs_f64 clamps non-finite and negative products.
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition of two spans (same behaviour as `+`, named
    /// so checked-arithmetic call sites can spell the saturation out).
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating multiplication by a scalar (same behaviour as `*`,
    /// named so checked-arithmetic call sites can spell the saturation
    /// out).
    pub const fn saturating_mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "dividing a span by zero is a caller bug and panics as integer division does"
    )]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.fold(0, |nanos, d| nanos.saturating_add(d.0)))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 60.0 {
            write!(f, "{:.1}min", s / 60.0)
        } else if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
    }

    #[test]
    fn fractional_seconds_round_to_nanos() {
        let d = SimDuration::from_secs_f64(0.123_456_789);
        assert_eq!(d.as_nanos(), 123_456_789);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10);
        let later = t + SimDuration::from_secs(5);
        assert_eq!(later, SimTime::from_secs(15));
        assert_eq!(later - t, SimDuration::from_secs(5));
        assert_eq!(t.duration_since(later), SimDuration::ZERO);
        assert_eq!(later.duration_since(t), SimDuration::from_secs(5));
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let small = SimDuration::from_secs(1);
        let big = SimDuration::from_secs(2);
        assert_eq!(small - big, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos(u64::MAX) + big,
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_secs(3);
        assert_eq!(d * 4, SimDuration::from_secs(12));
        assert_eq!(d / 3, SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(1500));
    }

    #[test]
    fn min_max_ordering() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_secs(1);
        let tb = SimTime::from_secs(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(90)), "1.5min");
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(120)), "120ns");
    }
}
