//! Calibrated mechanical timing and geometry constants.
//!
//! Every constant cites the paper section or table it was taken from. The
//! composite operations in [`crate::ops`] combine these so that the system
//! reproduces Table 3 exactly:
//!
//! | Slot location   | Load (s) | Unload (s) |
//! |-----------------|----------|------------|
//! | Uppermost layer | 68.7     | 81.7       |
//! | Lowest layer    | 73.2     | 86.5       |

use ros_sim::SimDuration;

/// Default number of rollers in a rack (§3.2: "1 or 2 rollers").
pub(crate) const DEFAULT_ROLLERS: u32 = 2;

/// Layers per roller (§3.2: "organized in 85 layers").
pub(crate) const LAYERS_PER_ROLLER: u32 = 85;

/// Tray slots per layer (§3.2: "each layer containing 6 concentric slots").
pub(crate) const SLOTS_PER_LAYER: u32 = 6;

/// Discs per tray, i.e. per disc array (§3.2: "510 trays (of 12 discs each)").
pub(crate) const DISCS_PER_TRAY: u32 = 12;

/// Maximum roller rotation time for a worst-case (half-turn) repositioning
/// (§5.5: "The roller rotation time is less than 2 seconds"). The composite
/// calibration uses 1.7 s as the average observed rotation.
pub(crate) fn roller_rotation() -> SimDuration {
    SimDuration::from_millis(1_700)
}

/// Tray fan-out time: hook latched by the arm while the roller rotates the
/// inner connector to swing the tray out (§3.2).
pub(crate) fn tray_fan_out() -> SimDuration {
    SimDuration::from_millis(2_000)
}

/// Tray fan-in time: reverse rotation closing the tray (§3.2).
pub(crate) fn tray_fan_in() -> SimDuration {
    SimDuration::from_millis(2_000)
}

/// Latching and fetching a 12-disc array off a fanned-out tray (part
/// of §3.2's composite load cycle; not itemised in the paper).
pub(crate) fn array_latch() -> SimDuration {
    SimDuration::from_millis(1_000)
}

/// Arm settle/alignment overhead per composite operation, covering the
/// closed-loop sensor calibration described in §3.3.
pub(crate) fn arm_settle() -> SimDuration {
    SimDuration::from_millis(1_000)
}

/// Full-span (uppermost to lowest layer) arm travel time when empty.
///
/// §5.5 quotes "up to 5 seconds to move the robotic arm vertically between
/// bottom and top layer"; Table 3's load delta (73.2 - 68.7 = 4.5 s) pins
/// the effective one-way travel included in a load at 4.5 s because the
/// return leg overlaps with drive-tray preparation (parallel scheduling,
/// §3.2).
pub(crate) fn arm_full_travel_empty() -> SimDuration {
    SimDuration::from_millis(4_500)
}

/// Full-span arm travel time while carrying a 12-disc array.
///
/// Table 3's unload delta (86.5 - 81.7 = 4.8 s): the loaded arm moves
/// slightly slower.
pub(crate) fn arm_full_travel_loaded() -> SimDuration {
    SimDuration::from_millis(4_800)
}

/// Separating 12 discs one by one from the carried array into 12 opened
/// drive trays (§5.5: "separating 12 discs into 12 drives takes almost 61
/// seconds").
pub(crate) fn separate_array() -> SimDuration {
    SimDuration::from_millis(61_000)
}

/// Collecting 12 discs one by one from the ejected drive trays back onto
/// the arm (§5.5: "fetching discs one by one from drives takes 74 seconds").
pub(crate) fn collect_array() -> SimDuration {
    SimDuration::from_millis(74_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roller_disc_count_matches_paper() {
        let per_roller = LAYERS_PER_ROLLER * SLOTS_PER_LAYER * DISCS_PER_TRAY;
        assert_eq!(per_roller, 6_120);
        assert_eq!(per_roller * DEFAULT_ROLLERS, 12_240);
    }

    #[test]
    fn tray_count_matches_paper() {
        assert_eq!(LAYERS_PER_ROLLER * SLOTS_PER_LAYER, 510);
    }

    #[test]
    fn rotation_under_two_seconds() {
        assert!(roller_rotation() < SimDuration::from_secs(2));
    }

    #[test]
    fn travel_times_bracket_five_seconds() {
        assert!(arm_full_travel_empty() <= SimDuration::from_secs(5));
        assert!(arm_full_travel_loaded() <= SimDuration::from_secs(5));
        assert!(arm_full_travel_loaded() > arm_full_travel_empty());
    }
}
