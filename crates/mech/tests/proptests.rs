//! Property tests for rack geometry and the mechanical state machines.

use proptest::prelude::*;
use ros_mech::plc::Plc;
use ros_mech::{MechScheduler, RackLayout, SlotAddress};

fn layout_strategy() -> impl Strategy<Value = RackLayout> {
    (1u32..3, 1u32..90, 1u32..8, 1u32..16).prop_map(|(rollers, layers, slots, discs)| RackLayout {
        rollers,
        layers,
        slots_per_layer: slots,
        discs_per_tray: discs,
    })
}

proptest! {
    #[test]
    fn slot_index_roundtrips_for_any_layout(layout in layout_strategy()) {
        for i in 0..layout.total_slots() {
            let addr = layout.slot_at(i);
            prop_assert!(layout.contains(addr));
            prop_assert_eq!(layout.slot_index(addr), i);
        }
    }

    #[test]
    fn load_then_unload_restores_occupancy(
        layout in layout_strategy(),
        seed in 0u32..1000
    ) {
        let mut sched = MechScheduler::new(Plc::new_full(layout), 1);
        let slot = layout.slot_at(seed % layout.total_slots());
        let load = sched.load_array(slot, 0).unwrap();
        prop_assert!(load.duration.as_secs_f64() > 60.0);
        prop_assert_eq!(sched.bay_contents(0).unwrap(), Some(slot));
        let unload = sched.unload_array(0).unwrap();
        prop_assert!(unload.duration > load.duration - ros_sim::SimDuration::from_secs(20));
        prop_assert_eq!(sched.bay_contents(0).unwrap(), None);
        // The tray is occupied again: a second load of the same slot works.
        sched.load_array(slot, 0).unwrap();
    }

    #[test]
    fn deeper_layers_never_load_faster(
        slots in 1u32..7,
        a in 0u32..85,
        b in 0u32..85
    ) {
        let layout = RackLayout { rollers: 1, layers: 85, slots_per_layer: slots, discs_per_tray: 12 };
        let (hi, lo) = if a <= b { (a, b) } else { (b, a) };
        let mut s1 = MechScheduler::new(Plc::new_full(layout), 1);
        let t_hi = s1.load_array(SlotAddress::new(0, hi, 0), 0).unwrap().duration;
        let mut s2 = MechScheduler::new(Plc::new_full(layout), 1);
        let t_lo = s2.load_array(SlotAddress::new(0, lo, 0), 0).unwrap().duration;
        prop_assert!(t_lo >= t_hi, "layer {lo} loaded faster than layer {hi}");
    }
}
