//! Rack layout and slot addressing.
//!
//! A rack holds `rollers` rollers; each roller holds `layers` layers of
//! `slots_per_layer` trays; each tray carries `discs_per_tray` discs (a
//! *disc array*). The prototype layout (§3.2) is 2 × 85 × 6 × 12 = 12,240
//! discs.

use crate::params;
use serde::{Deserialize, Serialize};

/// Static geometry of a ROS rack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackLayout {
    /// Number of rollers (1 or 2 in the prototype).
    pub rollers: u32,
    /// Layers per roller (85 in the prototype).
    pub layers: u32,
    /// Tray slots per layer (6 in the prototype).
    pub slots_per_layer: u32,
    /// Discs per tray / disc array (12 in the prototype).
    pub discs_per_tray: u32,
}

impl Default for RackLayout {
    fn default() -> Self {
        RackLayout {
            rollers: params::DEFAULT_ROLLERS,
            layers: params::LAYERS_PER_ROLLER,
            slots_per_layer: params::SLOTS_PER_LAYER,
            discs_per_tray: params::DISCS_PER_TRAY,
        }
    }
}

impl RackLayout {
    /// A small layout for tests and examples: 1 roller, 4 layers, 2 slots.
    pub fn tiny() -> Self {
        RackLayout {
            rollers: 1,
            layers: 4,
            slots_per_layer: 2,
            discs_per_tray: 12,
        }
    }

    /// Returns the total number of tray slots in the rack.
    pub fn total_slots(&self) -> u32 {
        self.rollers * self.layers * self.slots_per_layer
    }

    /// Returns the total disc capacity of the rack.
    pub fn total_discs(&self) -> u32 {
        self.total_slots() * self.discs_per_tray
    }

    /// Returns the slots of one roller in scan order (layer-major).
    pub fn slots_of_roller(&self, roller: u32) -> impl Iterator<Item = SlotAddress> + '_ {
        let layers = self.layers;
        let slots = self.slots_per_layer;
        (0..layers).flat_map(move |layer| {
            (0..slots).map(move |slot| SlotAddress {
                roller,
                layer,
                slot,
            })
        })
    }

    /// Returns true if `addr` names a slot inside this layout.
    pub fn contains(&self, addr: SlotAddress) -> bool {
        addr.roller < self.rollers && addr.layer < self.layers && addr.slot < self.slots_per_layer
    }

    /// Returns a dense index for `addr` in scan order, for use as a table
    /// key (the DAindex of §4.1 is indexed this way).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the layout.
    pub fn slot_index(&self, addr: SlotAddress) -> u32 {
        assert!(self.contains(addr), "slot {addr:?} outside layout");
        (addr.roller * self.layers + addr.layer) * self.slots_per_layer + addr.slot
    }

    /// Inverse of [`RackLayout::slot_index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_slots()`.
    pub fn slot_at(&self, index: u32) -> SlotAddress {
        assert!(
            index < self.total_slots(),
            "slot index {index} out of range"
        );
        let slot = index % self.slots_per_layer;
        let rest = index / self.slots_per_layer;
        let layer = rest % self.layers;
        let roller = rest / self.layers;
        SlotAddress {
            roller,
            layer,
            slot,
        }
    }

    /// Fraction of full vertical span from the uppermost layer (0.0) to the
    /// lowest (1.0); a single-layer roller is all at the top.
    pub(crate) fn layer_depth_fraction(&self, layer: u32) -> f64 {
        if self.layers <= 1 {
            0.0
        } else {
            layer as f64 / (self.layers - 1) as f64
        }
    }
}

/// Address of one tray slot: which roller, which layer (0 = uppermost),
/// which of the concentric slots in that layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotAddress {
    /// Roller index within the rack.
    pub roller: u32,
    /// Layer index, 0 at the top of the roller.
    pub(crate) layer: u32,
    /// Slot index within the layer.
    pub(crate) slot: u32,
}

impl SlotAddress {
    /// Convenience constructor.
    pub fn new(roller: u32, layer: u32, slot: u32) -> Self {
        SlotAddress {
            roller,
            layer,
            slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_capacity() {
        let l = RackLayout::default();
        assert_eq!(l.total_slots(), 1_020);
        assert_eq!(l.total_discs(), 12_240);
    }

    #[test]
    fn single_roller_capacity() {
        let l = RackLayout {
            rollers: 1,
            ..RackLayout::default()
        };
        assert_eq!(l.total_discs(), 6_120);
    }

    #[test]
    fn slot_index_roundtrip() {
        let l = RackLayout::default();
        for i in 0..l.total_slots() {
            assert_eq!(l.slot_index(l.slot_at(i)), i);
        }
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let l = RackLayout::tiny();
        assert!(l.contains(SlotAddress::new(0, 3, 1)));
        assert!(!l.contains(SlotAddress::new(1, 0, 0)));
        assert!(!l.contains(SlotAddress::new(0, 4, 0)));
        assert!(!l.contains(SlotAddress::new(0, 0, 2)));
    }

    #[test]
    #[should_panic(expected = "outside layout")]
    fn slot_index_panics_out_of_range() {
        RackLayout::tiny().slot_index(SlotAddress::new(5, 0, 0));
    }

    #[test]
    fn depth_fraction_spans_unit_interval() {
        let l = RackLayout::default();
        assert_eq!(l.layer_depth_fraction(0), 0.0);
        assert_eq!(l.layer_depth_fraction(84), 1.0);
        let mid = l.layer_depth_fraction(42);
        assert!(mid > 0.49 && mid < 0.51);
        let single = RackLayout {
            layers: 1,
            ..RackLayout::tiny()
        };
        assert_eq!(single.layer_depth_fraction(0), 0.0);
    }

    #[test]
    fn scan_order_is_layer_major() {
        let l = RackLayout::tiny();
        let first: Vec<SlotAddress> = (0..3).map(|i| l.slot_at(i)).collect();
        assert_eq!(
            first,
            vec![
                SlotAddress::new(0, 0, 0),
                SlotAddress::new(0, 0, 1),
                SlotAddress::new(0, 1, 0),
            ]
        );
    }
}
