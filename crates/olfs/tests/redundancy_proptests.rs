//! Exhaustive erasure round-trip properties for §4.7's delayed parity.
//!
//! For randomly shaped disc arrays (member count and ragged member
//! sizes), every erasure pattern the schema tolerates — including loss
//! of the parity members themselves — must rebuild the exact lost data
//! images and nothing else, and any pattern one past the tolerance must
//! be rejected with the typed error.

use proptest::prelude::*;
use ros_disk::DataPlane;
use ros_olfs::redundancy::{generate_with, reconstruct_with, RedundancyError};
use ros_olfs::Redundancy;
use ros_sim::SimRng;

/// Deterministic ragged member images: `n` members around `base` bytes.
fn images(seed: u64, n: usize, base: usize) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let len = base + rng.index(base.max(1));
            let mut v = vec![0u8; len.max(1)];
            rng.fill_bytes(&mut v);
            v
        })
        .collect()
}

/// Applies an erasure pattern and checks reconstruction returns every
/// lost data image byte-exactly, in index order, and no other.
/// `lost_data` indexes data members; `lose_p`/`lose_q` drop the parity
/// payloads.
fn assert_round_trip(
    schema: Redundancy,
    imgs: &[Vec<u8>],
    lost_data: &[usize],
    lose_p: bool,
    lose_q: bool,
) -> Result<(), TestCaseError> {
    let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
    let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
    let set = generate_with(schema, &refs, &DataPlane::single()).expect("generate");
    let masked: Vec<Option<&[u8]>> = imgs
        .iter()
        .enumerate()
        .map(|(i, d)| (!lost_data.contains(&i)).then_some(d.as_slice()))
        .collect();
    let p = if lose_p { None } else { set.p.as_deref() };
    let q = if lose_q { None } else { set.q.as_deref() };
    let rec =
        reconstruct_with(schema, &masked, &sizes, p, q, &DataPlane::single()).map_err(|e| {
            TestCaseError::fail(format!(
                "{schema:?} lost {lost_data:?} p_lost={lose_p} q_lost={lose_q}: {e}"
            ))
        })?;
    let lost: Vec<Vec<u8>> = imgs
        .iter()
        .enumerate()
        .filter(|(i, _)| lost_data.contains(i))
        .map(|(_, d)| d.clone())
        .collect();
    prop_assert_eq!(rec, lost);
    Ok(())
}

proptest! {
    // RAID-5 tolerates one lost member: enumerate every single-member
    // erasure over data ∪ {P} for each sampled array shape.
    #[test]
    fn raid5_every_single_erasure_round_trips(
        seed in any::<u64>(),
        n in 2usize..9,
        base in 16usize..400,
    ) {
        let imgs = images(seed, n, base);
        for lost in 0..n {
            assert_round_trip(Redundancy::Raid5, &imgs, &[lost], false, false)?;
        }
        // Losing only P leaves the data intact (and P is regenerable).
        assert_round_trip(Redundancy::Raid5, &imgs, &[], true, false)?;
    }

    // RAID-6 tolerates two lost members: enumerate every pair over
    // data ∪ {P, Q}, plus all singles.
    #[test]
    fn raid6_every_double_erasure_round_trips(
        seed in any::<u64>(),
        n in 2usize..8,
        base in 16usize..300,
    ) {
        let imgs = images(seed, n, base);
        // Two data members.
        for x in 0..n {
            for y in (x + 1)..n {
                assert_round_trip(Redundancy::Raid6, &imgs, &[x, y], false, false)?;
            }
        }
        // One data member plus one parity member.
        for x in 0..n {
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], true, false)?;
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], false, true)?;
        }
        // Singles and parity-only losses.
        for x in 0..n {
            assert_round_trip(Redundancy::Raid6, &imgs, &[x], false, false)?;
        }
        assert_round_trip(Redundancy::Raid6, &imgs, &[], true, true)?;
    }

    // One loss past the tolerance is always rejected with the typed
    // error, never a wrong reconstruction.
    #[test]
    fn over_tolerance_is_rejected(
        seed in any::<u64>(),
        n in 3usize..9,
        base in 16usize..200,
    ) {
        let imgs = images(seed, n, base);
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        for (schema, tolerated) in [(Redundancy::None, 0usize), (Redundancy::Raid5, 1), (Redundancy::Raid6, 2)] {
            let refs: Vec<&[u8]> = imgs.iter().map(|v| v.as_slice()).collect();
            let set = generate_with(schema, &refs, &DataPlane::single()).expect("generate");
            let over = tolerated + 1;
            let masked: Vec<Option<&[u8]>> = imgs
                .iter()
                .enumerate()
                .map(|(i, d)| (i >= over).then_some(d.as_slice()))
                .collect();
            let (p, q) = (set.p.as_deref(), set.q.as_deref());
            let err = reconstruct_with(schema, &masked, &sizes, p, q, &DataPlane::single())
                .expect_err("over-tolerance loss must fail");
            prop_assert_eq!(
                err,
                RedundancyError::TooManyLost { lost: over, tolerated }
            );
        }
    }

    // With zero losses nothing is rebuilt, even when parity is absent.
    #[test]
    fn no_loss_rebuilds_nothing(
        seed in any::<u64>(),
        n in 1usize..9,
        base in 1usize..200,
    ) {
        let imgs = images(seed, n, base);
        let sizes: Vec<usize> = imgs.iter().map(Vec::len).collect();
        let masked: Vec<Option<&[u8]>> = imgs.iter().map(|d| Some(d.as_slice())).collect();
        for schema in [Redundancy::None, Redundancy::Raid5, Redundancy::Raid6] {
            let rec = reconstruct_with(schema, &masked, &sizes, None, None, &DataPlane::single())
                .expect("no loss");
            prop_assert!(rec.is_empty());
        }
    }
}
