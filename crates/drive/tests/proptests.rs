//! Property tests for the optical media and burn-plan models.

use proptest::prelude::*;
use ros_drive::media::{Disc, DiscClass, MediaKind, Payload};
use ros_drive::speed::{BurnPlan, SpeedCurve};
use ros_sim::SimRng;

proptest! {
    #[test]
    fn burn_duration_scales_inversely_with_factor(
        bytes in 1_000_000u64..200_000_000,
        f1 in 0.3f64..1.0,
        f2 in 0.3f64..1.0
    ) {
        prop_assume!((f1 - f2).abs() > 0.05);
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let mut rng = SimRng::seed_from(1);
        let p1 = BurnPlan::plan(curve, bytes, f1, false, &mut rng);
        let p2 = BurnPlan::plan(curve, bytes, f2, false, &mut rng);
        let ratio = p1.total.as_secs_f64() / p2.total.as_secs_f64();
        let expected = f2 / f1;
        prop_assert!((ratio - expected).abs() / expected < 0.02,
            "ratio {ratio} vs expected {expected}");
    }

    #[test]
    fn burn_plans_are_monotone_in_bytes(
        a in 1_000u64..500_000_000,
        b in 1_000u64..500_000_000
    ) {
        let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = BurnPlan::plan(curve, lo, 1.0, false, &mut SimRng::seed_from(2));
        let p_hi = BurnPlan::plan(curve, hi, 1.0, false, &mut SimRng::seed_from(2));
        prop_assert!(p_lo.total <= p_hi.total);
    }

    #[test]
    fn worm_discs_hold_what_was_burned(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..5_000), 1..6)
    ) {
        // Pseudo-overwrite tracks on a disc big enough for all of them.
        let cap = 6 * 64 * 1024 * 1024u64;
        let mut disc = Disc::blank(1, DiscClass::Custom { capacity: cap }, MediaKind::Worm);
        for (i, data) in payloads.iter().enumerate() {
            disc.burn_track(i as u64, Payload::inline(data.clone())).unwrap();
        }
        for (i, data) in payloads.iter().enumerate() {
            match disc.read_image(i as u64).unwrap() {
                Payload::Inline(b) => prop_assert_eq!(b, data),
                _ => prop_assert!(false, "expected inline payload"),
            }
        }
    }

    #[test]
    fn the_damage_map_names_exactly_the_damaged_tracks(
        n_tracks in 1usize..5,
        victim in 0usize..5
    ) {
        prop_assume!(victim < n_tracks);
        let cap = 5 * 64 * 1024 * 1024u64 + 10_240 * 2048;
        let mut disc = Disc::blank(1, DiscClass::Custom { capacity: cap }, MediaKind::Worm);
        for i in 0..n_tracks {
            disc.burn_track(i as u64, Payload::synthetic(2048 * 16)).unwrap();
        }
        let (start, _) = disc.find_track(victim as u64).unwrap().sector_range();
        disc.corrupt_sector(start + 3);
        for i in 0..n_tracks {
            let (_, bad) = disc.read_image_raw(i as u64).unwrap();
            let expect: Vec<u64> = if i == victim { vec![3] } else { Vec::new() };
            prop_assert_eq!(bad, expect);
        }
    }
}
