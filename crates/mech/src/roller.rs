//! Roller rotation and tray state machine.
//!
//! The roller is a rotatable cylinder; to present a slot to the robotic arm
//! it rotates so the slot's angular sector faces the arm column, then the
//! targeted tray *fans out* on its inner-side connector while the arm locks
//! the outer-side hook (§3.2). Only one tray may be fanned out at a time.

use crate::geometry::{RackLayout, SlotAddress};
use crate::params;
use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Occupancy of a tray slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum TrayOccupancy {
    /// The tray holds a full disc array.
    Occupied,
    /// The tray is empty (its array is in the drives, or never loaded).
    Empty,
}

/// Error conditions from roller operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollerError {
    /// The addressed slot does not exist in this roller.
    NoSuchSlot(SlotAddress),
    /// A different tray is currently fanned out.
    TrayBusy(SlotAddress),
    /// The addressed tray is not fanned out.
    NotFannedOut(SlotAddress),
    /// The tray is already fanned out.
    AlreadyFannedOut(SlotAddress),
    /// Attempted to take an array from an empty tray.
    TrayEmpty(SlotAddress),
    /// Attempted to put an array into an occupied tray.
    TrayOccupied(SlotAddress),
}

impl core::fmt::Display for RollerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RollerError::NoSuchSlot(s) => write!(f, "no such slot {s:?}"),
            RollerError::TrayBusy(s) => write!(f, "another tray {s:?} is fanned out"),
            RollerError::NotFannedOut(s) => write!(f, "tray {s:?} is not fanned out"),
            RollerError::AlreadyFannedOut(s) => write!(f, "tray {s:?} already fanned out"),
            RollerError::TrayEmpty(s) => write!(f, "tray {s:?} is empty"),
            RollerError::TrayOccupied(s) => write!(f, "tray {s:?} is occupied"),
        }
    }
}

impl std::error::Error for RollerError {}

/// One roller: rotation position plus per-tray state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Roller {
    layout: RackLayout,
    index: u32,
    /// Angular position expressed as the slot column currently facing the
    /// arm, or `None` when unaligned (initially, and after every fan-in,
    /// whose reverse rotation perturbs the alignment; §3.2).
    facing: Option<u32>,
    /// Currently fanned-out tray, if any.
    fanned_out: Option<SlotAddress>,
    /// Occupancy per slot (dense, indexed by layer * slots + slot).
    occupancy: Vec<TrayOccupancy>,
}

impl Roller {
    /// Creates a roller with every tray occupied (a factory-fresh,
    /// fully-populated library).
    pub(crate) fn new_full(layout: RackLayout, index: u32) -> Self {
        let n = (layout.layers * layout.slots_per_layer) as usize;
        Roller {
            layout,
            index,
            facing: None,
            fanned_out: None,
            occupancy: vec![TrayOccupancy::Occupied; n],
        }
    }

    fn dense(&self, addr: SlotAddress) -> Result<usize, RollerError> {
        if addr.roller != self.index || !self.layout.contains(addr) {
            return Err(RollerError::NoSuchSlot(addr));
        }
        Ok((addr.layer * self.layout.slots_per_layer + addr.slot) as usize)
    }

    /// Rotates the roller so `slot` faces the arm, returning the rotation
    /// time (zero if already facing).
    pub(crate) fn rotate_to(&mut self, addr: SlotAddress) -> Result<SimDuration, RollerError> {
        self.dense(addr)?;
        if let Some(open) = self.fanned_out {
            // Rotating with a fanned-out tray would shear it off.
            return Err(RollerError::TrayBusy(open));
        }
        if self.facing == Some(addr.slot) {
            return Ok(SimDuration::ZERO);
        }
        self.facing = Some(addr.slot);
        Ok(params::roller_rotation())
    }

    /// Fans the addressed tray out toward the arm.
    ///
    /// The slot must already face the arm (call [`Roller::rotate_to`]
    /// first) and no other tray may be open.
    pub(crate) fn fan_out(&mut self, addr: SlotAddress) -> Result<SimDuration, RollerError> {
        self.dense(addr)?;
        if let Some(open) = self.fanned_out {
            return Err(if open == addr {
                RollerError::AlreadyFannedOut(addr)
            } else {
                RollerError::TrayBusy(open)
            });
        }
        if self.facing != Some(addr.slot) {
            // The PLC always rotates first; reaching here is a scheduling bug.
            return Err(RollerError::NotFannedOut(addr));
        }
        self.fanned_out = Some(addr);
        Ok(params::tray_fan_out())
    }

    /// Fans the open tray back into the roller (reverse rotation).
    pub(crate) fn fan_in(&mut self, addr: SlotAddress) -> Result<SimDuration, RollerError> {
        self.dense(addr)?;
        if self.fanned_out != Some(addr) {
            return Err(RollerError::NotFannedOut(addr));
        }
        self.fanned_out = None;
        // The reverse rotation that closes the tray leaves the roller
        // unaligned, so the next rotate_to pays full rotation time.
        self.facing = None;
        Ok(params::tray_fan_in())
    }

    /// Removes the disc array from a fanned-out tray (the arm latched it).
    pub(crate) fn take_array(&mut self, addr: SlotAddress) -> Result<(), RollerError> {
        let i = self.dense(addr)?;
        if self.fanned_out != Some(addr) {
            return Err(RollerError::NotFannedOut(addr));
        }
        if self.occupancy[i] == TrayOccupancy::Empty {
            return Err(RollerError::TrayEmpty(addr));
        }
        self.occupancy[i] = TrayOccupancy::Empty;
        Ok(())
    }

    /// Places a disc array into a fanned-out empty tray.
    pub(crate) fn put_array(&mut self, addr: SlotAddress) -> Result<(), RollerError> {
        let i = self.dense(addr)?;
        if self.fanned_out != Some(addr) {
            return Err(RollerError::NotFannedOut(addr));
        }
        if self.occupancy[i] == TrayOccupancy::Occupied {
            return Err(RollerError::TrayOccupied(addr));
        }
        self.occupancy[i] = TrayOccupancy::Occupied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roller() -> Roller {
        Roller::new_full(RackLayout::tiny(), 0)
    }

    #[test]
    fn rotation_is_idempotent_per_column() {
        let mut r = roller();
        let a = SlotAddress::new(0, 0, 1);
        assert_eq!(r.rotate_to(a).unwrap(), params::roller_rotation());
        assert_eq!(r.rotate_to(a).unwrap(), SimDuration::ZERO);
        // A different layer in the same column needs no rotation either.
        assert_eq!(
            r.rotate_to(SlotAddress::new(0, 3, 1)).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn full_fetch_cycle() {
        let mut r = roller();
        let a = SlotAddress::new(0, 2, 0);
        r.rotate_to(a).unwrap();
        r.fan_out(a).unwrap();
        r.take_array(a).unwrap();
        assert_eq!(r.occupancy[r.dense(a).unwrap()], TrayOccupancy::Empty);
        r.fan_in(a).unwrap();
        // Return the array later.
        r.rotate_to(a).unwrap();
        r.fan_out(a).unwrap();
        r.put_array(a).unwrap();
        r.fan_in(a).unwrap();
        assert_eq!(r.occupancy[r.dense(a).unwrap()], TrayOccupancy::Occupied);
    }

    #[test]
    fn cannot_rotate_with_open_tray() {
        let mut r = roller();
        let a = SlotAddress::new(0, 0, 0);
        r.rotate_to(a).unwrap();
        r.fan_out(a).unwrap();
        let err = r.rotate_to(SlotAddress::new(0, 0, 1)).unwrap_err();
        assert_eq!(err, RollerError::TrayBusy(a));
    }

    #[test]
    fn cannot_fan_out_two_trays() {
        let mut r = roller();
        let a = SlotAddress::new(0, 0, 0);
        r.rotate_to(a).unwrap();
        r.fan_out(a).unwrap();
        assert_eq!(r.fan_out(a).unwrap_err(), RollerError::AlreadyFannedOut(a));
        let b = SlotAddress::new(0, 1, 0);
        assert_eq!(r.fan_out(b).unwrap_err(), RollerError::TrayBusy(a));
    }

    #[test]
    fn fan_out_requires_facing() {
        let mut r = roller();
        // Column 1 is not facing the arm initially (facing starts at 0).
        let a = SlotAddress::new(0, 0, 1);
        assert_eq!(r.fan_out(a).unwrap_err(), RollerError::NotFannedOut(a));
    }

    #[test]
    fn take_from_empty_and_put_to_full_fail() {
        let mut r = roller();
        let a = SlotAddress::new(0, 0, 0);
        r.rotate_to(a).unwrap();
        r.fan_out(a).unwrap();
        assert_eq!(r.put_array(a).unwrap_err(), RollerError::TrayOccupied(a));
        r.take_array(a).unwrap();
        assert_eq!(r.take_array(a).unwrap_err(), RollerError::TrayEmpty(a));
    }

    #[test]
    fn wrong_roller_rejected() {
        let mut r = roller();
        let a = SlotAddress::new(3, 0, 0);
        assert_eq!(r.rotate_to(a).unwrap_err(), RollerError::NoSuchSlot(a));
    }

    #[test]
    fn array_ops_require_fanned_out_tray() {
        let mut r = roller();
        let a = SlotAddress::new(0, 0, 0);
        assert_eq!(r.take_array(a).unwrap_err(), RollerError::NotFannedOut(a));
        assert_eq!(r.fan_in(a).unwrap_err(), RollerError::NotFannedOut(a));
    }
}
