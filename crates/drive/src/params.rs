//! Calibrated optical-drive constants, each citing its paper source.

use ros_sim::{Bandwidth, SimDuration};

/// Logical sector size of Blu-ray media, in bytes (BD spec constant;
/// the 2 KB sectors behind §2.1's format discussion).
pub const SECTOR_BYTES: u64 = 2_048;

/// Formatted capacity of a single-layer 25 GB BD-R (media spec; the
/// "25GB" discs of §5.1 and Table 2).
pub const BD25_BYTES: u64 = 25_025_314_816;

/// Formatted capacity of a triple-layer 100 GB BDXL (media spec; the
/// "100GB" discs of §5.1 and Table 2).
pub const BD100_BYTES: u64 = 100_103_356_416;

/// Single-drive sequential read speed for 25 GB discs
/// (Table 2: 24.1 MB/s).
pub fn read_speed_bd25() -> Bandwidth {
    Bandwidth::from_mb_per_sec(24.1)
}

/// Single-drive sequential read speed for 100 GB discs
/// (Table 2: 18.0 MB/s).
pub fn read_speed_bd100() -> Bandwidth {
    Bandwidth::from_mb_per_sec(18.0)
}

/// Efficiency of 12 drives reading behind the shared HBA (Table 2:
/// 282.5 / (12 x 24.1) = 0.977; 210.2 / (12 x 18.0) = 0.973).
pub(crate) const AGGREGATE_READ_EFFICIENCY: f64 = 0.975;

/// 25 GB burn: starting speed of the CAV ramp (Figure 8 / §5.4:
/// "gradually increased from 1.6X in the inner tracks").
pub(crate) const BD25_BURN_X_START: f64 = 1.6;

/// 25 GB burn: final speed of the CAV ramp (Figure 8: "to 12.0X in the
/// outer tracks").
pub(crate) const BD25_BURN_X_END: f64 = 12.0;

/// Exponent of the 25 GB burn ramp `speed(p) = s0 + (s1-s0) p^alpha`,
/// calibrated so a full-disc burn takes 675 s at an average 8.2X
/// (Figure 8).
pub(crate) const BD25_BURN_RAMP_EXP: f64 = 0.4;

/// 100 GB burn: nominal recording speed (§5.4: "a dedicated Pioneer
/// BDR-PR1AME drive to burn 100GB optical disc at 6.0X").
pub(crate) const BD100_BURN_X_NOMINAL: f64 = 6.0;

/// 100 GB burn: fail-safe fallback speed when a servo disturbance is
/// detected (Figure 10: "drive will reduce the speed from 6.0X to 4.0X").
pub(crate) const BD100_BURN_X_FAILSAFE: f64 = 4.0;

/// Fraction of bytes burned at the fail-safe speed, calibrated so the
/// average is 5.9X and a full 100 GB burn takes ≈3757 s (Figure 10).
pub(crate) const BD100_FAILSAFE_BYTE_SHARE: f64 = 0.02;

/// Duration of one fail-safe slowdown episode before the drive restores
/// nominal speed (Figure 10's zoomed segment shows dips of this order).
pub(crate) fn failsafe_episode() -> SimDuration {
    SimDuration::from_secs(15)
}

/// Rewritable-media burn speed (§2.1: "re-writable (RW) discs can re-write
/// with relatively low burning speed (2X)").
pub(crate) const RW_BURN_X: f64 = 2.0;

/// Drive spin-up / disc mount time when the drive wakes from sleep
/// (§5.4: "drive mounting disc with about 2 seconds delay").
pub(crate) fn mount_from_sleep() -> SimDuration {
    SimDuration::from_secs(2)
}

/// Average seek time to a file's extent on a mounted disc (§5.4:
/// "seeking files on discs with about 100ms delay").
pub fn seek_time() -> SimDuration {
    SimDuration::from_millis(100)
}

/// Drive tray open or close time (part of the disc exchange cycle
/// inside §5.4's 51 s disc-to-drive loading; not itemised in the paper).
pub(crate) fn tray_cycle() -> SimDuration {
    SimDuration::from_millis(1_500)
}

/// Idle time after which a drive spins down to sleep (not quoted in
/// the paper; drives idle between §5.4's batched read bursts).
pub fn sleep_after_idle() -> SimDuration {
    SimDuration::from_secs(120)
}

/// Formatting time for a pseudo-overwrite metadata zone (§2.1: "An optical
/// drive first takes tens of seconds to format a predefined metadata
/// area").
pub fn track_format_time() -> SimDuration {
    SimDuration::from_secs(30)
}

/// Capacity consumed by each pseudo-overwrite track's metadata zone
/// (the "capacity loss" of §2.1).
pub(crate) const TRACK_METADATA_BYTES: u64 = 64 * 1024 * 1024;

/// Aggregate HBA bandwidth cap shared by a 12-drive set while burning,
/// calibrated to Figure 9's ≈380 MB/s plateau.
pub(crate) fn hba_write_cap() -> Bandwidth {
    Bandwidth::from_mb_per_sec(380.0)
}

/// Per-drive speed factors of a 12-drive set, modelling drive/disc
/// matching quality (§3.3: only "a pair of well-matched drive and disc"
/// reaches top speed). Linearly spread from 1.0 down to 0.65, calibrated
/// so the slowest drive finishes a 25 GB array burn at ≈1146 s (Figure 9).
pub(crate) fn drive_speed_factors(n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![1.0; n];
    }
    (0..n)
        .map(|i| 1.0 - 0.35 * i as f64 / (n - 1) as f64)
        .collect()
}

/// Stagger between successive drives starting to burn, reflecting the
/// one-by-one disc separation of the robotic arm (Figure 9: "not all
/// drives start to burn data at the same time"). The 61 s separation
/// spreads across the 12 drives.
pub(crate) fn burn_start_stagger() -> SimDuration {
    SimDuration::from_millis(61_000 / 12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_are_sector_aligned() {
        assert_eq!(BD25_BYTES % SECTOR_BYTES, 0);
        assert_eq!(BD100_BYTES % SECTOR_BYTES, 0);
    }

    #[test]
    fn read_speeds_match_table2() {
        assert!((read_speed_bd25().mb_per_sec() - 24.1).abs() < 1e-9);
        assert!((read_speed_bd100().mb_per_sec() - 18.0).abs() < 1e-9);
        let agg25 = read_speed_bd25().mb_per_sec() * 12.0 * AGGREGATE_READ_EFFICIENCY;
        assert!((agg25 - 282.5).abs() < 2.0, "aggregate 25GB read = {agg25}");
        let agg100 = read_speed_bd100().mb_per_sec() * 12.0 * AGGREGATE_READ_EFFICIENCY;
        assert!(
            (agg100 - 210.2).abs() < 1.5,
            "aggregate 100GB read = {agg100}"
        );
    }

    #[test]
    fn speed_factors_are_monotone_and_bounded() {
        let f = drive_speed_factors(12);
        assert_eq!(f.len(), 12);
        assert_eq!(f[0], 1.0);
        assert!((f[11] - 0.65).abs() < 1e-12);
        assert!(f.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(drive_speed_factors(1), vec![1.0]);
        assert!(drive_speed_factors(0).is_empty());
    }
}
