//! Rack power budget (§5.1: "The idle and peak powers of ROS are 185W
//! and 652W respectively").
//!
//! The budget decomposes over the prototype inventory: the two-Xeon
//! system controller, 24 optical drives (8 W peak each), 14 HDDs + 2
//! SSDs, the PLC, and the roller/arm motors (§3.2: roller < 50 W).

use serde::{Deserialize, Serialize};

/// Operating point of the rack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RackState {
    /// Everything quiescent: drives asleep, disks idling, no motion.
    Idle,
    /// Worst case: all drives burning, disks streaming, roller turning,
    /// arm moving.
    Peak,
}

/// Component power inventory of a ROS rack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RackPower {
    /// Number of optical drives.
    pub(crate) drives: u32,
    /// Number of HDDs.
    pub(crate) hdds: u32,
    /// Number of SSDs.
    pub(crate) ssds: u32,
    /// Server (system controller) idle draw, watts.
    pub(crate) server_idle_w: f64,
    /// Server peak draw, watts.
    pub(crate) server_peak_w: f64,
    /// Per-drive sleep draw, watts.
    pub(crate) drive_sleep_w: f64,
    /// Per-drive burning draw, watts (§5.1: 8 W peak).
    pub(crate) drive_peak_w: f64,
    /// Per-HDD idle draw, watts.
    pub(crate) hdd_idle_w: f64,
    /// Per-HDD active draw, watts.
    pub(crate) hdd_active_w: f64,
    /// Per-SSD idle draw, watts.
    pub(crate) ssd_idle_w: f64,
    /// Per-SSD active draw, watts.
    pub(crate) ssd_active_w: f64,
    /// PLC idle draw, watts.
    pub(crate) plc_idle_w: f64,
    /// PLC active draw, watts.
    pub(crate) plc_active_w: f64,
    /// Roller rotation motor, watts (§3.2: < 50 W; zero when still).
    pub(crate) roller_w: f64,
    /// Arm motors, watts (zero when parked).
    pub(crate) arm_w: f64,
}

impl Default for RackPower {
    fn default() -> Self {
        Self::prototype()
    }
}

impl RackPower {
    /// The §5.1 prototype: 24 drives, 14 HDDs, 2 SSDs.
    pub fn prototype() -> Self {
        RackPower {
            drives: 24,
            hdds: 14,
            ssds: 2,
            server_idle_w: 112.0,
            server_peak_w: 250.0,
            drive_sleep_w: 0.2,
            drive_peak_w: 8.0,
            hdd_idle_w: 4.0,
            hdd_active_w: 8.0,
            ssd_idle_w: 1.0,
            ssd_active_w: 3.0,
            plc_idle_w: 10.0,
            plc_active_w: 15.0,
            roller_w: 48.0,
            arm_w: 30.0,
        }
    }

    /// Total draw at an operating point, watts.
    pub fn watts(&self, state: RackState) -> f64 {
        match state {
            RackState::Idle => {
                self.server_idle_w
                    + self.drives as f64 * self.drive_sleep_w
                    + self.hdds as f64 * self.hdd_idle_w
                    + self.ssds as f64 * self.ssd_idle_w
                    + self.plc_idle_w
            }
            RackState::Peak => {
                self.server_peak_w
                    + self.drives as f64 * self.drive_peak_w
                    + self.hdds as f64 * self.hdd_active_w
                    + self.ssds as f64 * self.ssd_active_w
                    + self.plc_active_w
                    + self.roller_w
                    + self.arm_w
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_matches_paper_185w() {
        let w = RackPower::prototype().watts(RackState::Idle);
        assert!((w - 185.0).abs() < 2.0, "idle = {w} W (paper: 185 W)");
    }

    #[test]
    fn peak_matches_paper_652w() {
        let w = RackPower::prototype().watts(RackState::Peak);
        assert!((w - 652.0).abs() < 2.0, "peak = {w} W (paper: 652 W)");
    }

    #[test]
    fn drive_peak_matches_spec() {
        // §5.1: Pioneer BDR-S09XLB "peak power 8W".
        assert_eq!(RackPower::prototype().drive_peak_w, 8.0);
    }
}
