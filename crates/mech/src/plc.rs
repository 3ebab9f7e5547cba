//! The Programmable Logic Controller and its instruction set.
//!
//! §3.3: "the PLC controller ... defines an instruction set to execute basic
//! mechanical operations, while the [system controller] orchestrates all
//! operations of PLC via an internal TCP/IP network". The [`Plc`] here
//! interprets those basic instructions against the roller and arm state
//! machines, returning the duration of every step so the engine can
//! schedule completion events.

use crate::arm::{ArmError, ArmPosition, RoboticArm};
use crate::geometry::{RackLayout, SlotAddress};
use crate::roller::{Roller, RollerError};
use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One basic mechanical instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum PlcInstruction {
    /// Rotate a roller so the slot's column faces the arm.
    RotateTo(SlotAddress),
    /// Fan the addressed tray out of the roller.
    FanOut(SlotAddress),
    /// Fan the addressed tray back into the roller.
    FanIn(SlotAddress),
    /// Move the roller's arm to a vertical position.
    MoveArm {
        /// Which roller's arm.
        roller: u32,
        /// Target position.
        to: ArmPosition,
    },
    /// Latch the disc array from a fanned-out tray onto the arm.
    LatchArray(SlotAddress),
    /// Release the carried array into a fanned-out empty tray.
    ReleaseArray(SlotAddress),
    /// Separate the carried array disc-by-disc into the drive trays.
    SeparateToDrives {
        /// Which roller's arm.
        roller: u32,
    },
    /// Collect `discs` discs from ejected drive trays onto the arm.
    CollectFromDrives {
        /// Which roller's arm.
        roller: u32,
        /// Number of discs to collect.
        discs: u32,
    },
}

/// Errors surfaced by the PLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlcError {
    /// Roller-level failure.
    Roller(RollerError),
    /// Arm-level failure.
    Arm(ArmError),
    /// Instruction addressed a roller that does not exist.
    NoSuchRoller(u32),
}

impl From<RollerError> for PlcError {
    fn from(e: RollerError) -> Self {
        PlcError::Roller(e)
    }
}

impl From<ArmError> for PlcError {
    fn from(e: ArmError) -> Self {
        PlcError::Arm(e)
    }
}

impl core::fmt::Display for PlcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlcError::Roller(e) => write!(f, "roller: {e}"),
            PlcError::Arm(e) => write!(f, "arm: {e}"),
            PlcError::NoSuchRoller(r) => write!(f, "no such roller {r}"),
        }
    }
}

impl std::error::Error for PlcError {}

/// The PLC: one arm and one roller state machine per physical roller.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Plc {
    layout: RackLayout,
    rollers: Vec<Roller>,
    arms: Vec<RoboticArm>,
}

impl Plc {
    /// Builds a PLC for a fully-populated rack.
    pub fn new_full(layout: RackLayout) -> Self {
        Plc {
            rollers: (0..layout.rollers)
                .map(|i| Roller::new_full(layout, i))
                .collect(),
            arms: (0..layout.rollers)
                .map(|_| RoboticArm::new(layout))
                .collect(),
            layout,
        }
    }

    /// Returns the rack layout.
    pub(crate) fn layout(&self) -> RackLayout {
        self.layout
    }

    fn roller_mut(&mut self, index: u32) -> Result<&mut Roller, PlcError> {
        self.rollers
            .get_mut(index as usize)
            .ok_or(PlcError::NoSuchRoller(index))
    }

    fn arm_mut(&mut self, index: u32) -> Result<&mut RoboticArm, PlcError> {
        self.arms
            .get_mut(index as usize)
            .ok_or(PlcError::NoSuchRoller(index))
    }

    /// Executes one instruction, returning how long it takes.
    ///
    /// State transitions are applied immediately; the caller is responsible
    /// for serialising instructions in time (the mechanical scheduler in
    /// [`crate::ops`] does this).
    pub(crate) fn execute(&mut self, instr: PlcInstruction) -> Result<SimDuration, PlcError> {
        match instr {
            PlcInstruction::RotateTo(addr) => Ok(self.roller_mut(addr.roller)?.rotate_to(addr)?),
            PlcInstruction::FanOut(addr) => Ok(self.roller_mut(addr.roller)?.fan_out(addr)?),
            PlcInstruction::FanIn(addr) => Ok(self.roller_mut(addr.roller)?.fan_in(addr)?),
            PlcInstruction::MoveArm { roller, to } => Ok(self.arm_mut(roller)?.travel_to(to)?),
            PlcInstruction::LatchArray(addr) => {
                // Latch transfers the array from tray to arm atomically.
                let dur = {
                    let arm = self.arm_mut(addr.roller)?;
                    arm.latch_array()?
                };
                if let Err(e) = self.roller_mut(addr.roller)?.take_array(addr) {
                    // Roll the arm back so state stays consistent.
                    let _ = self.arm_mut(addr.roller)?.release_array();
                    return Err(e.into());
                }
                Ok(dur)
            }
            PlcInstruction::ReleaseArray(addr) => {
                let dur = {
                    let arm = self.arm_mut(addr.roller)?;
                    arm.release_array()?
                };
                if let Err(e) = self.roller_mut(addr.roller)?.put_array(addr) {
                    let _ = self.arm_mut(addr.roller)?.latch_array();
                    return Err(e.into());
                }
                Ok(dur)
            }
            PlcInstruction::SeparateToDrives { roller } => {
                Ok(self.arm_mut(roller)?.separate_into_drives()?)
            }
            PlcInstruction::CollectFromDrives { roller, discs } => {
                Ok(self.arm_mut(roller)?.collect_from_drives(discs)?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plc() -> Plc {
        Plc::new_full(RackLayout::tiny())
    }

    /// Separates roller 0's carried array into the drives: it fails with
    /// `NotCarrying` exactly when the arm holds nothing.
    const SEPARATE: PlcInstruction = PlcInstruction::SeparateToDrives { roller: 0 };

    #[test]
    fn executes_full_load_sequence() {
        let mut p = plc();
        let slot = SlotAddress::new(0, 2, 1);
        let seq = [
            PlcInstruction::RotateTo(slot),
            PlcInstruction::MoveArm {
                roller: 0,
                to: ArmPosition::Layer(2),
            },
            PlcInstruction::FanOut(slot),
            PlcInstruction::LatchArray(slot),
            PlcInstruction::MoveArm {
                roller: 0,
                to: ArmPosition::Station,
            },
            PlcInstruction::FanIn(slot),
            PlcInstruction::SeparateToDrives { roller: 0 },
        ];
        let total: SimDuration = seq
            .iter()
            .map(|i| p.execute(*i).expect("sequence must run"))
            .sum();
        assert!(total > SimDuration::from_secs(60));
        // The arm separated its array into the drives and the tray is empty.
        assert_eq!(
            p.execute(SEPARATE).unwrap_err(),
            PlcError::Arm(ArmError::NotCarrying)
        );
        p.execute(PlcInstruction::RotateTo(slot)).unwrap();
        p.execute(PlcInstruction::FanOut(slot)).unwrap();
        assert_eq!(
            p.execute(PlcInstruction::LatchArray(slot)).unwrap_err(),
            PlcError::Roller(RollerError::TrayEmpty(slot))
        );
    }

    #[test]
    fn latch_failure_rolls_back_arm() {
        let mut p = plc();
        let slot = SlotAddress::new(0, 0, 0);
        p.execute(PlcInstruction::RotateTo(slot)).unwrap();
        p.execute(PlcInstruction::FanOut(slot)).unwrap();
        p.execute(PlcInstruction::LatchArray(slot)).unwrap();
        p.execute(PlcInstruction::FanIn(slot)).unwrap();
        // Second latch from the (now empty) tray must fail and leave the
        // arm still carrying the first array.
        p.execute(PlcInstruction::RotateTo(slot)).unwrap();
        p.execute(PlcInstruction::FanOut(slot)).unwrap();
        let err = p.execute(PlcInstruction::LatchArray(slot)).unwrap_err();
        assert_eq!(err, PlcError::Arm(ArmError::AlreadyCarrying));
        // Still carrying: the array separates into the drives.
        p.execute(SEPARATE).unwrap();
    }

    #[test]
    fn release_failure_rolls_back_arm() {
        let mut p = plc();
        let a = SlotAddress::new(0, 0, 0);
        let b = SlotAddress::new(0, 1, 0);
        // Take array from a.
        p.execute(PlcInstruction::RotateTo(a)).unwrap();
        p.execute(PlcInstruction::FanOut(a)).unwrap();
        p.execute(PlcInstruction::LatchArray(a)).unwrap();
        p.execute(PlcInstruction::FanIn(a)).unwrap();
        // Try to release into occupied b: must fail and keep carrying.
        p.execute(PlcInstruction::RotateTo(b)).unwrap();
        p.execute(PlcInstruction::FanOut(b)).unwrap();
        let err = p.execute(PlcInstruction::ReleaseArray(b)).unwrap_err();
        assert_eq!(err, PlcError::Roller(RollerError::TrayOccupied(b)));
        // Still carrying: the array separates into the drives.
        p.execute(SEPARATE).unwrap();
    }

    #[test]
    fn rejects_unknown_roller() {
        let mut p = plc();
        let err = p
            .execute(PlcInstruction::SeparateToDrives { roller: 9 })
            .unwrap_err();
        assert_eq!(err, PlcError::NoSuchRoller(9));
    }

    #[test]
    fn latch_requires_fanned_out_tray() {
        let mut p = plc();
        let slot = SlotAddress::new(0, 0, 0);
        let err = p.execute(PlcInstruction::LatchArray(slot)).unwrap_err();
        assert_eq!(err, PlcError::Roller(RollerError::NotFannedOut(slot)));
        // Arm must have been rolled back to empty.
        assert_eq!(
            p.execute(SEPARATE).unwrap_err(),
            PlcError::Arm(ArmError::NotCarrying)
        );
    }
}
