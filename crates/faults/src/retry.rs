//! Bounded retry with exponential backoff, and fault transience.
//!
//! The supervision layers in `ros-olfs` and `ros-cluster` wrap their
//! foreground operations in a retry loop driven by a [`RetryPolicy`]:
//! transient faults (servo glitches, mechanical misfeeds, a rack that is
//! momentarily overloaded) are retried after an exponentially growing
//! simulated backoff; hard faults and exhausted budgets surface as
//! typed degraded-mode errors — never a panic, never a silent success.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Classifies an error as retryable or hard.
///
/// Implemented by each layer's error type; the supervision loops only
/// retry errors whose `is_transient()` is true.
pub trait Transience {
    /// True if a bounded retry with backoff may succeed.
    fn is_transient(&self) -> bool;
}

/// A bounded exponential-backoff retry policy.
///
/// Attempt `n` (1-based) that fails transiently waits
/// `min(base_backoff * 2^(n-1), max_backoff)` of simulated time before
/// attempt `n+1`, up to `max_attempts` total attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed (including the first); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
        }
    }

    /// True if another attempt is allowed after `attempts` tries.
    pub fn should_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts.max(1)
    }

    /// Backoff to charge after failed attempt number `attempt` (1-based).
    ///
    /// Computes `min(base_backoff * 2^(attempt-1), max_backoff)` with
    /// checked/saturating arithmetic, so decade-long schedules with
    /// arbitrarily large attempt counts can never overflow the delay
    /// computation — the product saturates and the cap bounds it.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1);
        // Past 63 doublings the factor no longer fits a u64; saturate it
        // so a zero base still yields zero and any non-zero base pins at
        // the cap.
        let mult = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        self.base_backoff.saturating_mul(mult).min(self.max_backoff)
    }
}

/// What a supervised operation spent on retries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Attempts performed (1 = first try succeeded).
    pub attempts: u32,
    /// Total simulated backoff charged between attempts.
    pub backoff_total: SimDuration,
}

impl RetryStats {
    /// Stats for an operation that has not run yet.
    pub fn new() -> Self {
        RetryStats {
            attempts: 0,
            backoff_total: SimDuration::ZERO,
        }
    }

    /// Records one backoff period before a retry.
    pub fn note_backoff(&mut self, d: SimDuration) {
        self.backoff_total = self.backoff_total.saturating_add(d);
    }
}

/// The supervised retry loop, once: runs `attempt` on `system` until it
/// succeeds, fails hard, or `policy`'s budget runs out. A transient
/// failure with budget left is followed by an exponentially growing
/// backoff, charged to the simulated clock(s) through `charge` (one
/// rack's `run_for`, a federation's `run_all_for`); with the budget spent
/// the last error comes back wrapped by `exhausted(attempts, last)`.
/// Hard errors — a layer's typed partial outcomes among them — are
/// returned as they are, never retried.
pub fn supervise<S, T, E: Transience>(
    system: &mut S,
    policy: &RetryPolicy,
    mut attempt: impl FnMut(&mut S) -> Result<T, E>,
    exhausted: impl FnOnce(u32, E) -> E,
    mut charge: impl FnMut(&mut S, SimDuration),
) -> Result<(T, RetryStats), E> {
    let mut stats = RetryStats::new();
    loop {
        stats.attempts = stats.attempts.saturating_add(1);
        match attempt(system) {
            Ok(v) => return Ok((v, stats)),
            Err(e) if e.is_transient() => {
                if !policy.should_retry(stats.attempts) {
                    return Err(exhausted(stats.attempts, e));
                }
                let backoff = policy.backoff(stats.attempts);
                stats.note_backoff(backoff);
                charge(system, backoff);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Err(true)` is transient, `Err(false)` hard; the "system" is the
    /// backoff charged so far.
    impl Transience for bool {
        fn is_transient(&self) -> bool {
            *self
        }
    }

    #[test]
    fn supervise_retries_transients_charges_backoff_and_stops_on_hard_errors() {
        let policy = RetryPolicy::default();
        let run = |outcomes: &[Result<u8, bool>]| {
            let mut charged = SimDuration::ZERO;
            let mut outcomes = outcomes.iter().copied();
            let out = supervise(
                &mut charged,
                &policy,
                |_| outcomes.next().unwrap_or(Err(true)),
                |attempts, last| {
                    assert_eq!((attempts, last), (policy.max_attempts, true));
                    false
                },
                |charged, d| *charged += d,
            );
            (out, charged)
        };
        let (out, charged) = run(&[Err(true), Err(true), Ok(7)]);
        let (value, stats) = out.unwrap();
        assert_eq!((value, stats.attempts), (7, 3));
        assert_eq!(charged, SimDuration::from_millis(30));
        assert_eq!(stats.backoff_total, charged);
        // A hard error is not retried; a spent budget is wrapped.
        assert_eq!(run(&[Err(false), Ok(1)]), (Err(false), SimDuration::ZERO));
        assert_eq!(run(&[]), (Err(false), SimDuration::from_millis(70)));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(35),
        };
        assert_eq!(p.backoff(1), SimDuration::from_millis(10));
        assert_eq!(p.backoff(2), SimDuration::from_millis(20));
        assert_eq!(p.backoff(3), SimDuration::from_millis(35), "capped");
        assert_eq!(p.backoff(9), SimDuration::from_millis(35));
    }

    #[test]
    fn backoff_honours_the_cap_beyond_sixteen_doublings() {
        // Regression: the old computation clamped the exponent at 16, so
        // with a large cap the backoff silently stalled at base * 65536
        // instead of continuing toward `max_backoff` as documented.
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_secs(3600),
        };
        // 1 ms * 2^19 = ~524 s, well past the old 65.536 s plateau.
        assert_eq!(p.backoff(20), SimDuration::from_millis(1 << 19));
        assert_eq!(p.backoff(64), p.max_backoff);
    }

    #[test]
    fn backoff_never_overflows_at_extreme_attempts() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: SimDuration::from_nanos(u64::MAX),
            max_backoff: SimDuration::from_nanos(u64::MAX),
        };
        // Shift width beyond 63 and a saturating product: both must pin
        // at the cap rather than wrap or panic.
        assert_eq!(p.backoff(2), p.max_backoff);
        assert_eq!(p.backoff(65), p.max_backoff);
        assert_eq!(p.backoff(u32::MAX), p.max_backoff);
        let zero = RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::from_secs(1),
        };
        assert_eq!(zero.backoff(u32::MAX), SimDuration::ZERO);
    }

    #[test]
    fn attempt_budget_is_bounded() {
        let p = RetryPolicy::default();
        assert!(p.should_retry(1));
        assert!(p.should_retry(3));
        assert!(!p.should_retry(4));
        let none = RetryPolicy::none();
        assert!(!none.should_retry(1));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = RetryStats::new();
        s.attempts = 3;
        s.note_backoff(SimDuration::from_millis(10));
        s.note_backoff(SimDuration::from_millis(20));
        assert_eq!(s.backoff_total, SimDuration::from_millis(30));
    }
}
