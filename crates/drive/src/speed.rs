//! Recording-speed curves and burn planning.
//!
//! Optical recording speed is not constant. The paper measures two regimes:
//!
//! - **25 GB BD-R** (Figure 8): a CAV-style ramp from 1.6X on the inner
//!   tracks to 12.0X on the outer tracks, averaging 8.2X over a 675 s burn.
//! - **100 GB BDXL** (Figure 10): nominally constant 6.0X, with *fail-safe*
//!   slowdowns to 4.0X whenever the drive detects a disturbance of the
//!   recording beam's servo signal, averaging 5.9X over a 3757 s burn.
//!
//! [`SpeedCurve`] captures the regime and [`BurnPlan::plan`] integrates it
//! into a timed plan with a sampled throughput series for the figures.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::media::{DiscClass, MediaKind};
use crate::params;
use ros_sim::stats::ThroughputSeries;
use ros_sim::{Bandwidth, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A recording-speed regime, in Blu-ray X units as a function of progress.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SpeedCurve {
    /// CAV ramp: `x(p) = start + (end - start) * p^exp`.
    CavRamp {
        /// Speed at the innermost track (progress 0).
        start_x: f64,
        /// Speed at the outermost track (progress 1).
        end_x: f64,
        /// Ramp shape exponent.
        exp: f64,
    },
    /// Nominal speed with stochastic fail-safe slowdown episodes.
    FailSafe {
        /// Nominal recording speed.
        nominal_x: f64,
        /// Speed during a fail-safe episode.
        failsafe_x: f64,
        /// Long-run fraction of bytes burned at the fail-safe speed.
        byte_share: f64,
    },
    /// Constant speed (e.g. rewritable media at 2X).
    Constant {
        /// The fixed speed.
        x: f64,
    },
}

impl SpeedCurve {
    /// Returns the curve the paper measured for a disc class and medium.
    pub fn for_media(class: DiscClass, kind: MediaKind) -> SpeedCurve {
        if matches!(kind, MediaKind::Rewritable { .. }) {
            return SpeedCurve::Constant {
                x: params::RW_BURN_X,
            };
        }
        match class {
            DiscClass::Bd25 => SpeedCurve::CavRamp {
                start_x: params::BD25_BURN_X_START,
                end_x: params::BD25_BURN_X_END,
                exp: params::BD25_BURN_RAMP_EXP,
            },
            DiscClass::Bd100 => SpeedCurve::FailSafe {
                nominal_x: params::BD100_BURN_X_NOMINAL,
                failsafe_x: params::BD100_BURN_X_FAILSAFE,
                byte_share: params::BD100_FAILSAFE_BYTE_SHARE,
            },
            // Scaled test discs burn like small BD-Rs.
            DiscClass::Custom { .. } => SpeedCurve::CavRamp {
                start_x: params::BD25_BURN_X_START,
                end_x: params::BD25_BURN_X_END,
                exp: params::BD25_BURN_RAMP_EXP,
            },
        }
    }

    /// Returns the *deterministic* speed at byte progress `p` in `[0, 1]`,
    /// ignoring stochastic fail-safe episodes.
    pub fn nominal_x(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match *self {
            SpeedCurve::CavRamp {
                start_x,
                end_x,
                exp,
            } => start_x + (end_x - start_x) * p.powf(exp),
            SpeedCurve::FailSafe { nominal_x, .. } => nominal_x,
            SpeedCurve::Constant { x } => x,
        }
    }
}

/// One sample of a planned burn.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BurnSample {
    /// Byte progress in `[0, 1]` at the sample.
    pub progress: f64,
    /// Elapsed time since burn start.
    pub elapsed: SimDuration,
    /// Instantaneous speed in X units.
    pub x: f64,
}

/// A fully timed burn: total duration plus the sampled speed trajectory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BurnPlan {
    /// Bytes burned.
    pub bytes: u64,
    /// Total burn duration.
    pub total: SimDuration,
    /// Byte-weighted average speed in X units.
    pub average_x: f64,
    /// Speed trajectory samples in progress order.
    pub samples: Vec<BurnSample>,
}

/// Number of integration steps per plan; fine enough that step error is
/// far below the paper's measurement resolution.
const PLAN_STEPS: u32 = 500;

impl BurnPlan {
    /// Integrates `curve` over `bytes` at a drive speed `factor`
    /// (drive/disc matching quality, 1.0 = perfectly matched).
    ///
    /// `check_mode` models the forced write-and-check approach that
    /// "almost halves the actual write throughput" (§4.7). `rng` drives
    /// fail-safe episodes; curves without stochastic behaviour ignore it.
    pub fn plan(
        curve: SpeedCurve,
        bytes: u64,
        factor: f64,
        check_mode: bool,
        rng: &mut SimRng,
    ) -> BurnPlan {
        let factor = factor.clamp(0.05, 1.0) * if check_mode { 0.52 } else { 1.0 };
        if bytes == 0 {
            return BurnPlan {
                bytes,
                total: SimDuration::ZERO,
                average_x: 0.0,
                samples: Vec::new(),
            };
        }
        let step_bytes = (bytes as f64 / PLAN_STEPS as f64).max(1.0);
        // Fail-safe bookkeeping: bytes remaining in the current episode.
        let mut episode_bytes_left = 0.0f64;
        let episode_bytes = match curve {
            SpeedCurve::FailSafe { failsafe_x, .. } => {
                failsafe_x
                    * ros_sim::bandwidth::BLURAY_1X_BYTES_PER_SEC
                    * params::failsafe_episode().as_secs_f64()
            }
            _ => 0.0,
        };
        let mut elapsed = 0.0f64;
        let mut burned = 0.0f64;
        let mut samples = Vec::with_capacity((PLAN_STEPS as usize).saturating_add(1));
        while burned < bytes as f64 {
            let this_step = step_bytes.min(bytes as f64 - burned);
            let p = burned / bytes as f64;
            let x = match curve {
                SpeedCurve::FailSafe {
                    nominal_x,
                    failsafe_x,
                    byte_share,
                } => {
                    if episode_bytes_left <= 0.0 {
                        let p_start = if episode_bytes > 0.0 {
                            byte_share * this_step / episode_bytes
                        } else {
                            0.0
                        };
                        if rng.chance(p_start) {
                            episode_bytes_left = episode_bytes;
                        }
                    }
                    if episode_bytes_left > 0.0 {
                        episode_bytes_left -= this_step;
                        failsafe_x
                    } else {
                        nominal_x
                    }
                }
                _ => curve.nominal_x(p),
            };
            let speed = Bandwidth::from_bluray_x(x * factor);
            samples.push(BurnSample {
                progress: p,
                elapsed: SimDuration::from_secs_f64(elapsed),
                x: x * factor,
            });
            elapsed += this_step / speed.bytes_per_sec();
            burned += this_step;
        }
        let total = SimDuration::from_secs_f64(elapsed);
        let average_x =
            bytes as f64 / ros_sim::bandwidth::BLURAY_1X_BYTES_PER_SEC / elapsed.max(1e-12);
        samples.push(BurnSample {
            progress: 1.0,
            elapsed: total,
            x: 0.0,
        });
        BurnPlan {
            bytes,
            total,
            average_x,
            samples,
        }
    }

    /// Converts the plan into a throughput series anchored at `start`.
    pub fn to_series(&self, label: impl Into<String>, start: SimTime) -> ThroughputSeries {
        let mut s = ThroughputSeries::new(label);
        for sample in &self.samples {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "SimTime + SimDuration is the saturating Add impl"
            )]
            s.push(start + sample.elapsed, Bandwidth::from_bluray_x(sample.x));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1234)
    }

    #[test]
    fn figure8_bd25_burn_takes_675_seconds() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let plan = BurnPlan::plan(curve, params::BD25_BYTES, 1.0, false, &mut rng());
        let secs = plan.total.as_secs_f64();
        assert!(
            (secs - 675.0).abs() < 10.0,
            "25GB burn = {secs:.1}s, paper says 675s"
        );
        assert!(
            (plan.average_x - 8.2).abs() < 0.15,
            "avg = {:.2}X, paper says 8.2X",
            plan.average_x
        );
    }

    #[test]
    fn figure8_speed_ramps_from_inner_to_outer() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        assert!((curve.nominal_x(0.0) - 1.6).abs() < 1e-9);
        assert!((curve.nominal_x(1.0) - 12.0).abs() < 1e-9);
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = curve.nominal_x(i as f64 / 100.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn figure10_bd100_burn_takes_3757_seconds() {
        let curve = SpeedCurve::for_media(DiscClass::Bd100, MediaKind::Worm);
        let plan = BurnPlan::plan(curve, params::BD100_BYTES, 1.0, false, &mut rng());
        let secs = plan.total.as_secs_f64();
        assert!(
            (secs - 3757.0).abs() < 80.0,
            "100GB burn = {secs:.1}s, paper says 3757s"
        );
        assert!(
            (plan.average_x - 5.9).abs() < 0.1,
            "avg = {:.2}X, paper says 5.9X",
            plan.average_x
        );
    }

    #[test]
    fn figure10_failsafe_episodes_dip_to_4x() {
        let curve = SpeedCurve::for_media(DiscClass::Bd100, MediaKind::Worm);
        let plan = BurnPlan::plan(curve, params::BD100_BYTES, 1.0, false, &mut rng());
        let dips = plan
            .samples
            .iter()
            .filter(|s| s.x > 0.0 && (s.x - 4.0).abs() < 1e-9)
            .count();
        let nominal = plan
            .samples
            .iter()
            .filter(|s| (s.x - 6.0).abs() < 1e-9)
            .count();
        assert!(dips > 0, "expected at least one fail-safe dip");
        assert!(nominal > dips * 10, "nominal speed must dominate");
    }

    #[test]
    fn check_mode_almost_halves_throughput() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let normal = BurnPlan::plan(curve, params::BD25_BYTES, 1.0, false, &mut rng());
        let checked = BurnPlan::plan(curve, params::BD25_BYTES, 1.0, true, &mut rng());
        let ratio = checked.total.as_secs_f64() / normal.total.as_secs_f64();
        assert!(
            (1.8..2.1).contains(&ratio),
            "write-and-check slowdown = {ratio:.2}, paper says it almost halves throughput"
        );
    }

    #[test]
    fn rewritable_burns_at_2x() {
        let curve = SpeedCurve::for_media(
            DiscClass::Bd25,
            MediaKind::Rewritable {
                erase_cycles_used: 0,
            },
        );
        assert_eq!(curve, SpeedCurve::Constant { x: 2.0 });
        let plan = BurnPlan::plan(curve, params::BD25_BYTES, 1.0, false, &mut rng());
        let expected = params::BD25_BYTES as f64 / (2.0 * 4.49e6);
        assert!((plan.total.as_secs_f64() - expected).abs() / expected < 0.01);
    }

    #[test]
    fn slower_factor_scales_duration() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let fast = BurnPlan::plan(curve, params::BD25_BYTES, 1.0, false, &mut rng());
        let slow = BurnPlan::plan(curve, params::BD25_BYTES, 0.65, false, &mut rng());
        let ratio = slow.total.as_secs_f64() / fast.total.as_secs_f64();
        assert!((ratio - 1.0 / 0.65).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn zero_bytes_is_instant() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let plan = BurnPlan::plan(curve, 0, 1.0, false, &mut rng());
        assert_eq!(plan.total, SimDuration::ZERO);
        assert!(plan.samples.is_empty());
    }

    #[test]
    fn series_is_time_anchored() {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let plan = BurnPlan::plan(curve, 1 << 24, 1.0, false, &mut rng());
        let start = SimTime::from_secs(100);
        let series = plan.to_series("burn", start);
        assert_eq!(series.points().first().unwrap().at, start);
        assert_eq!(series.points().last().unwrap().at, start + plan.total);
        // Burn ends with a zero sample so aggregation drops finished drives.
        assert!(series.points().last().unwrap().rate.is_zero());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let curve = SpeedCurve::for_media(DiscClass::Bd100, MediaKind::Worm);
        let a = BurnPlan::plan(
            curve,
            params::BD100_BYTES,
            1.0,
            false,
            &mut SimRng::seed_from(7),
        );
        let b = BurnPlan::plan(
            curve,
            params::BD100_BYTES,
            1.0,
            false,
            &mut SimRng::seed_from(7),
        );
        assert_eq!(a.total, b.total);
        assert_eq!(a.samples.len(), b.samples.len());
    }
}
