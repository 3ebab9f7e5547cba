//! Robotic-arm kinematics and carry state.
//!
//! The arm moves only vertically (§3.2's key simplification over
//! magazine-based libraries): it parks at a *station* above the drive
//! stack — which coincides with the uppermost layer, §5.5 — descends to a
//! layer to latch a fanned-out tray's disc array, lifts the array to the
//! station, and separates discs one by one into the open drive trays below.

use crate::geometry::RackLayout;
use crate::params;
use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Vertical positions the arm can occupy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ArmPosition {
    /// Parked above the drive stack (the start position, near the
    /// uppermost layer).
    Station,
    /// Aligned with a roller layer.
    Layer(u32),
}

/// What the arm is currently carrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CarryState {
    /// Gripper empty.
    Empty,
    /// Carrying a disc array of `discs` discs.
    Array {
        /// Number of discs currently held.
        discs: u32,
    },
}

/// Error conditions from arm operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArmError {
    /// Tried to latch an array while already carrying one.
    AlreadyCarrying,
    /// Tried to release or separate while carrying nothing.
    NotCarrying,
    /// Layer index outside the roller.
    NoSuchLayer(u32),
}

impl core::fmt::Display for ArmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArmError::AlreadyCarrying => write!(f, "arm is already carrying an array"),
            ArmError::NotCarrying => write!(f, "arm is not carrying an array"),
            ArmError::NoSuchLayer(l) => write!(f, "no such layer {l}"),
        }
    }
}

impl std::error::Error for ArmError {}

/// The robotic arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct RoboticArm {
    layout: RackLayout,
    position: ArmPosition,
    carrying: CarryState,
}

impl RoboticArm {
    /// Creates an arm parked at the station, carrying nothing.
    pub(crate) fn new(layout: RackLayout) -> Self {
        RoboticArm {
            layout,
            position: ArmPosition::Station,
            carrying: CarryState::Empty,
        }
    }

    fn depth_of(&self, pos: ArmPosition) -> f64 {
        match pos {
            ArmPosition::Station => 0.0,
            ArmPosition::Layer(l) => self.layout.layer_depth_fraction(l),
        }
    }

    /// Computes the travel time between two positions without moving.
    pub(crate) fn travel_time(
        &self,
        from: ArmPosition,
        to: ArmPosition,
        loaded: bool,
    ) -> SimDuration {
        let dist = (self.depth_of(from) - self.depth_of(to)).abs();
        let full = if loaded {
            params::arm_full_travel_loaded()
        } else {
            params::arm_full_travel_empty()
        };
        full.mul_f64(dist)
    }

    /// Moves the arm to `to`, returning the travel time.
    pub(crate) fn travel_to(&mut self, to: ArmPosition) -> Result<SimDuration, ArmError> {
        if let ArmPosition::Layer(l) = to {
            if l >= self.layout.layers {
                return Err(ArmError::NoSuchLayer(l));
            }
        }
        let loaded = matches!(self.carrying, CarryState::Array { .. });
        let t = self.travel_time(self.position, to, loaded);
        self.position = to;
        Ok(t)
    }

    /// Latches a full disc array off a fanned-out tray.
    pub(crate) fn latch_array(&mut self) -> Result<SimDuration, ArmError> {
        if self.carrying != CarryState::Empty {
            return Err(ArmError::AlreadyCarrying);
        }
        self.carrying = CarryState::Array {
            discs: self.layout.discs_per_tray,
        };
        Ok(params::array_latch())
    }

    /// Releases the carried array into a tray (the inverse of latch).
    pub(crate) fn release_array(&mut self) -> Result<SimDuration, ArmError> {
        match self.carrying {
            CarryState::Array { .. } => {
                self.carrying = CarryState::Empty;
                Ok(params::array_latch())
            }
            CarryState::Empty => Err(ArmError::NotCarrying),
        }
    }

    /// Separates the carried array into the drive trays, one disc at a
    /// time from the bottom (§3.2), leaving the gripper empty.
    ///
    /// Returns the total separation time (≈61 s for a full array; a partial
    /// array takes proportionally less).
    pub(crate) fn separate_into_drives(&mut self) -> Result<SimDuration, ArmError> {
        match self.carrying {
            CarryState::Array { discs } => {
                self.carrying = CarryState::Empty;
                let full = params::separate_array();
                Ok(full.mul_f64(discs as f64 / self.layout.discs_per_tray as f64))
            }
            CarryState::Empty => Err(ArmError::NotCarrying),
        }
    }

    /// Collects `discs` discs one by one from ejected drive trays onto the
    /// gripper (≈74 s for a full array; §5.5).
    pub(crate) fn collect_from_drives(&mut self, discs: u32) -> Result<SimDuration, ArmError> {
        if self.carrying != CarryState::Empty {
            return Err(ArmError::AlreadyCarrying);
        }
        let discs = discs.min(self.layout.discs_per_tray);
        self.carrying = CarryState::Array { discs };
        let full = params::collect_array();
        Ok(full.mul_f64(discs as f64 / self.layout.discs_per_tray as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::RackLayout;

    fn arm() -> RoboticArm {
        RoboticArm::new(RackLayout::default())
    }

    #[test]
    fn starts_parked_and_empty() {
        let a = arm();
        assert_eq!(a.position, ArmPosition::Station);
        assert_eq!(a.carrying, CarryState::Empty);
    }

    #[test]
    fn travel_to_uppermost_is_free() {
        let mut a = arm();
        let t = a.travel_to(ArmPosition::Layer(0)).unwrap();
        assert_eq!(t, SimDuration::ZERO);
    }

    #[test]
    fn travel_to_lowest_takes_full_span() {
        let mut a = arm();
        let t = a.travel_to(ArmPosition::Layer(84)).unwrap();
        assert_eq!(t, params::arm_full_travel_empty());
    }

    #[test]
    fn loaded_travel_is_slower() {
        let mut a = arm();
        a.latch_array().unwrap();
        let t = a.travel_to(ArmPosition::Layer(84)).unwrap();
        assert_eq!(t, params::arm_full_travel_loaded());
    }

    #[test]
    fn travel_rejects_bad_layer() {
        let mut a = arm();
        assert_eq!(
            a.travel_to(ArmPosition::Layer(85)).unwrap_err(),
            ArmError::NoSuchLayer(85)
        );
    }

    #[test]
    fn latch_and_separate_cycle() {
        let mut a = arm();
        a.latch_array().unwrap();
        assert_eq!(a.carrying, CarryState::Array { discs: 12 });
        assert_eq!(a.latch_array().unwrap_err(), ArmError::AlreadyCarrying);
        let t = a.separate_into_drives().unwrap();
        assert_eq!(t, params::separate_array());
        assert_eq!(a.carrying, CarryState::Empty);
        assert_eq!(a.separate_into_drives().unwrap_err(), ArmError::NotCarrying);
    }

    #[test]
    fn collect_and_release_cycle() {
        let mut a = arm();
        let t = a.collect_from_drives(12).unwrap();
        assert_eq!(t, params::collect_array());
        assert_eq!(
            a.collect_from_drives(12).unwrap_err(),
            ArmError::AlreadyCarrying
        );
        a.release_array().unwrap();
        assert_eq!(a.release_array().unwrap_err(), ArmError::NotCarrying);
    }

    #[test]
    fn partial_array_scales_linearly() {
        let mut a = arm();
        let t = a.collect_from_drives(6).unwrap();
        assert_eq!(t, params::collect_array() / 2);
        let mut b = arm();
        b.carrying = CarryState::Array { discs: 3 };
        let t = b.separate_into_drives().unwrap();
        assert_eq!(t, params::separate_array() / 4);
    }
}
