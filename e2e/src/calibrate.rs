//! Host-speed calibration: what makes a wall clock comparable between
//! two launches on a shared two-core box.
//!
//! On the host this benchmark was sized on, the same binary doing the
//! same work runs up to a quarter slower from one half-second to the
//! next: the byte kernels (SHA-256 above all) are throughput-bound and
//! share a physical core's execution ports with whatever the sibling
//! hyperthread is doing. A latency-bound loop does not notice; the
//! workloads do, and no amount of repetitions inside one run averages
//! it out, because a slow phase outlasts a run. The raw walls of two
//! launches of identical code differed by 13-25 % (README, "Noise").
//!
//! The slowdown is common-mode, so it can be measured. Between the
//! timed calls the benchmark runs short bursts of a fixed integer
//! kernel — about 50 µs per millisecond of timed wall — and a
//! repetition's wall is scaled by how much slower than nominal those
//! bursts ran. The kernel is this file's own code: no change to the
//! system under test can speed it up, so a real gain or regression
//! moves the calibrated wall exactly as it moves the raw one.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of the kernel in one burst (≈ 50 µs).
const ROUNDS: u32 = 6_000;

/// What one burst takes on an undisturbed core of the host the
/// benchmark was sized on, ns. A constant, not a measurement: it only
/// fixes the scale, so calibrated walls read like quiet-host walls.
const NOMINAL_BURST_NS: f64 = 44_000.0;

/// Timed wall that earns one burst, ns.
const WALL_PER_BURST_NS: u64 = 1_000_000;

/// Bursts a single long call can earn; keeps a 100 ms flush from
/// buying 5 ms of calibration in one go.
const MAX_BURSTS_PER_CALL: u64 = 8;

/// Interleaves calibration bursts with timed calls.
pub struct Calibrator {
    lanes: [u64; 8],
    owed_ns: u64,
    burst_ns: u64,
    bursts: u64,
}

impl Calibrator {
    /// Starts a calibration window with one burst, so the window has a
    /// sample even if nothing in it is long enough to earn one.
    pub fn start() -> Calibrator {
        let mut c = Calibrator {
            lanes: [1, 2, 3, 4, 5, 6, 7, 8],
            owed_ns: 0,
            burst_ns: 0,
            bursts: 0,
        };
        c.burst();
        c
    }

    /// Eight independent xorshift-multiply lanes: enough parallel
    /// integer work to contend for execution ports the way the byte
    /// kernels do, no memory traffic, nothing the optimiser can fold.
    fn burst(&mut self) {
        let start = Instant::now();
        let mut lanes = black_box(self.lanes);
        for _ in 0..ROUNDS {
            for lane in &mut lanes {
                let mut x = *lane;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *lane = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(11) ^ 0xA5A5;
            }
        }
        self.lanes = black_box(lanes);
        self.burst_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.bursts += 1;
    }

    /// Accounts a timed call of `wall_ns` and runs the bursts it earned.
    pub fn after_call(&mut self, wall_ns: u64) {
        self.owed_ns += wall_ns;
        let earned = (self.owed_ns / WALL_PER_BURST_NS).min(MAX_BURSTS_PER_CALL);
        if earned > 0 {
            self.owed_ns = 0;
            for _ in 0..earned {
                self.burst();
            }
        }
    }

    /// Ends the window. Returns the factor to multiply its raw walls
    /// by — below 1 when the host ran slower than nominal — and the
    /// wall the bursts themselves took, ns.
    pub fn finish(mut self) -> (f64, u64) {
        self.burst();
        let factor = NOMINAL_BURST_NS * self.bursts as f64 / self.burst_ns as f64;
        (factor, self.burst_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_follow_the_timed_wall_and_the_factor_is_sane() {
        let mut c = Calibrator::start();
        assert_eq!(c.bursts, 1);
        c.after_call(400_000);
        c.after_call(400_000);
        assert_eq!(c.bursts, 1, "0.8 ms has not earned a burst yet");
        c.after_call(400_000);
        assert_eq!(c.bursts, 2);
        c.after_call(100 * WALL_PER_BURST_NS);
        assert_eq!(c.bursts, 2 + MAX_BURSTS_PER_CALL);
        let lanes = c.lanes;
        assert_ne!(
            lanes,
            [1, 2, 3, 4, 5, 6, 7, 8],
            "the kernel must do its work"
        );
        let (factor, spent_ns) = c.finish();
        assert!(factor > 0.01 && factor < 100.0, "factor = {factor}");
        assert!(spent_ns > 0);
    }
}
