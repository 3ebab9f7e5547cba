//! Equivalence proptests: the plane-parallel parity kernels, Q by
//! Horner's rule, must agree byte-for-byte with a scalar reference built
//! on the shift-and-add multiply ([`ros_disk::gf::mul_const`]) and the
//! definition `Q = Σ 2^i·D_i`, across stripe counts, stripe lengths
//! (including 0, 1, non-word-aligned and both sides of the 4 KiB tile),
//! ragged members and thread counts 1/2/4/8.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use ros_disk::gf::mul_const;
use ros_disk::parity;
use ros_disk::plane::DataPlane;

/// The stripe length: the longest member (shorter ones are zero-filled).
fn stripe_len(data: &[&[u8]]) -> usize {
    data.iter().map(|d| d.len()).max().unwrap_or(0)
}

/// Scalar reference P parity: byte-at-a-time XOR, no tables, no plane.
fn scalar_parity_p(data: &[&[u8]]) -> Vec<u8> {
    let mut p = vec![0u8; stripe_len(data)];
    for stripe in data {
        for (pi, &b) in p.iter_mut().zip(stripe.iter()) {
            *pi ^= b;
        }
    }
    p
}

/// Scalar reference Q parity using the original repeated-multiply
/// generator walk and scalar multiply.
fn scalar_parity_q(data: &[&[u8]]) -> Vec<u8> {
    let mut q = vec![0u8; stripe_len(data)];
    let mut g: u8 = 1;
    for stripe in data {
        for (qi, &b) in q.iter_mut().zip(stripe.iter()) {
            *qi ^= mul_const(g, b);
        }
        g = mul_const(g, 2);
    }
    q
}

fn gen_stripes(seed: u64, n_stripes: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n_stripes)
        .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
        .collect()
}

fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
    v.iter().map(|s| s.as_slice()).collect()
}

const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    // Lengths deliberately cross 0, 1, word-unaligned tails, and the
    // plane's serial/parallel threshold is exercised by the dedicated
    // large-input test below.
    #[test]
    fn parity_pq_equal_scalar_at_all_thread_counts(
        seed in 0u64..500,
        n_stripes in 1usize..12,
        len in 0usize..300,
        thread_sel in 0usize..4,
    ) {
        let data = gen_stripes(seed, n_stripes, len);
        let r = refs(&data);
        let plane = DataPlane::new(THREADS[thread_sel]);
        let expect_p = scalar_parity_p(&r);
        let expect_q = scalar_parity_q(&r);
        prop_assert_eq!(&parity::parity_p_with(&r, &plane).unwrap(), &expect_p);
        let (p, q) = parity::encode_pq_with(&r, &plane).unwrap();
        prop_assert_eq!(&p, &expect_p);
        prop_assert_eq!(&q, &expect_q);
    }

    #[test]
    fn reconstruct_p_equals_scalar_at_all_thread_counts(
        seed in 0u64..500,
        n_stripes in 1usize..10,
        len in 1usize..300,
        lost_sel in 0usize..10,
        thread_sel in 0usize..4,
    ) {
        let data = gen_stripes(seed, n_stripes, len);
        let r = refs(&data);
        let plane = DataPlane::new(THREADS[thread_sel]);
        let p = scalar_parity_p(&r);
        let lost = lost_sel % n_stripes;
        let masked: Vec<Option<&[u8]>> = r
            .iter()
            .enumerate()
            .map(|(i, s)| (i != lost).then_some(*s))
            .collect();
        let (rec, rp) = parity::reconstruct_p_with(&masked, Some(&p), &plane).unwrap();
        prop_assert_eq!(rec, data);
        prop_assert_eq!(rp, p);
    }

    #[test]
    fn reconstruct_pq_equals_scalar_at_all_thread_counts(
        seed in 0u64..500,
        n_stripes in 2usize..10,
        len in 1usize..300,
        lost_sel in 0usize..45,
        thread_sel in 0usize..4,
    ) {
        let data = gen_stripes(seed, n_stripes, len);
        let r = refs(&data);
        let plane = DataPlane::new(THREADS[thread_sel]);
        let p = scalar_parity_p(&r);
        let q = scalar_parity_q(&r);
        let x = lost_sel % n_stripes;
        let y = (lost_sel / n_stripes) % n_stripes;
        let masked: Vec<Option<&[u8]>> = r
            .iter()
            .enumerate()
            .map(|(i, s)| (i != x && i != y).then_some(*s))
            .collect();
        // Two data losses (or one when x == y) with both parities.
        let (rec, rp, rq) =
            parity::reconstruct_pq_with(&masked, Some(&p), Some(&q), &plane).unwrap();
        prop_assert_eq!(&rec, &data);
        prop_assert_eq!(&rp, &p);
        prop_assert_eq!(&rq, &q);
        // One data loss with P missing forces the Q-path recovery.
        let masked_one: Vec<Option<&[u8]>> = r
            .iter()
            .enumerate()
            .map(|(i, s)| (i != x).then_some(*s))
            .collect();
        let (rec, rp, rq) =
            parity::reconstruct_pq_with(&masked_one, None, Some(&q), &plane).unwrap();
        prop_assert_eq!(&rec, &data);
        prop_assert_eq!(&rp, &p);
        prop_assert_eq!(&rq, &q);
    }

    #[test]
    fn verify_group_equals_scalar_recompute(
        seed in 0u64..500,
        n_stripes in 1usize..8,
        len in 1usize..300,
        corrupt in 0usize..301,
        thread_sel in 0usize..4,
    ) {
        let data = gen_stripes(seed, n_stripes, len);
        let mut r = refs(&data);
        let plane = DataPlane::new(THREADS[thread_sel]);
        let mut p = scalar_parity_p(&r);
        let q = scalar_parity_q(&r);
        prop_assert_eq!(
            parity::verify_group_with(&r, &p, Some(&q), &plane).unwrap(),
            true
        );
        if corrupt < len {
            p[corrupt] ^= 0x01;
            prop_assert_eq!(
                parity::verify_group_with(&r, &p, Some(&q), &plane).unwrap(),
                false
            );
        }
        // Mismatched stripe lengths still error like the scalar path.
        let short: Vec<u8> = vec![0u8; len + 1];
        r.push(&short);
        prop_assert_eq!(
            parity::verify_group_with(&r, &p, Some(&q), &plane).unwrap_err(),
            parity::ParityError::LengthMismatch
        );
    }
}

/// Stripe lengths at the edges Q's Horner step has: none, one byte, a
/// partial word, one past a word, both sides of the 4 KiB tile, and past
/// the plane's 64 KiB serial threshold, where the chunk split begins.
const EDGE_LENS: [usize; 8] = [0, 1, 7, 9, 4_095, 4_097, 65_537, 70_001];

/// `data` with member `at` cut to `cut / 1000` of its length: a member
/// shorter than the stripe, which reads as zero-filled past its end.
fn shorten(mut data: Vec<Vec<u8>>, at: usize, cut: usize) -> Vec<Vec<u8>> {
    let keep = data[at].len() * cut / 1000;
    data[at].truncate(keep);
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The short-member trap: past a short member's end Q must still be
    // doubled (`2·Q ⊕ 0 ≠ Q`). A kernel that skips that step disagrees
    // with the scalar definition whenever a higher member has bytes
    // there, so the member is cut at the first, a middle or the last
    // index, and the stripe runs across tiles and plane chunks. (Too big
    // for Miri, whose `gf parity plane` filter does not select it.)
    #[test]
    fn horner_q_equals_scalar_across_tiles_and_short_members(
        seed in 0u64..500,
        n_stripes in 1usize..11,
        len_sel in 0usize..EDGE_LENS.len(),
        short_sel in 0usize..3,
        cut in 0usize..1000,
        thread_sel in 0usize..4,
    ) {
        let len = EDGE_LENS[len_sel];
        let at = [0, n_stripes / 2, n_stripes - 1][short_sel];
        let data = shorten(gen_stripes(seed, n_stripes, len), at, cut);
        let r = refs(&data);
        let plane = DataPlane::new(THREADS[thread_sel]);
        let expect_q = scalar_parity_q(&r);
        prop_assert_eq!(expect_q.len(), stripe_len(&r));
        let (p, q) = parity::encode_pq_with(&r, &plane).unwrap();
        prop_assert_eq!(&p, &scalar_parity_p(&r));
        prop_assert_eq!(&q, &expect_q);
    }
}

/// Q-path recovery (one data member and P lost) for every missing index,
/// the highest included, on a stripe across two tile seams with a short
/// member on each side of the lost one.
#[test]
#[cfg_attr(miri, ignore)]
fn q_path_recovers_every_missing_index() {
    let len = 2 * 4_096 + 3;
    let mut data = gen_stripes(0xC0DE, 10, len);
    data[1].truncate(4_095);
    data[8].truncate(9);
    let r = refs(&data);
    let expect_p = scalar_parity_p(&r);
    let expect_q = scalar_parity_q(&r);
    for threads in THREADS {
        let plane = DataPlane::new(threads);
        for missing in 0..data.len() {
            let masked: Vec<Option<&[u8]>> = r
                .iter()
                .enumerate()
                .map(|(i, s)| (i != missing).then_some(*s))
                .collect();
            let (rec, rp, rq) =
                parity::reconstruct_pq_with(&masked, None, Some(&expect_q), &plane).unwrap();
            // A rebuilt member comes back at the stripe length.
            let mut want = data.clone();
            want[missing].resize(len, 0);
            assert_eq!(rec, want, "threads={threads} missing={missing}");
            assert_eq!(rp, expect_p, "threads={threads} missing={missing}");
            assert_eq!(rq, expect_q, "threads={threads} missing={missing}");
        }
    }
}

/// Verify recomputes Q tile by tile: one flipped Q byte on either side
/// of a tile seam, or at the stripe's end, is a mismatch.
#[test]
#[cfg_attr(miri, ignore)]
fn verify_rejects_a_flipped_q_byte_at_each_side_of_a_tile_seam() {
    for len in [4_097usize, 3 * 4_096 + 5, 70_001] {
        let data = gen_stripes(len as u64, 6, len);
        let r = refs(&data);
        let p = scalar_parity_p(&r);
        let q = scalar_parity_q(&r);
        for threads in THREADS {
            let plane = DataPlane::new(threads);
            assert!(parity::verify_group_with(&r, &p, Some(&q), &plane).unwrap());
            for at in [4_095, 4_096, len - 1] {
                let mut bad_q = q.clone();
                bad_q[at] ^= 0x01;
                assert!(
                    !parity::verify_group_with(&r, &p, Some(&bad_q), &plane).unwrap(),
                    "len={len} threads={threads} at={at}"
                );
            }
        }
    }
}

/// Inputs big enough to actually cross the plane's parallel threshold:
/// the proptest lengths above stay small for speed, so this pins the
/// multi-threaded split path against the scalar reference and against
/// thread count 1 directly — for both encoders, every recovery path and
/// ragged members (shorter ones read as zero-filled to the stripe).
#[test]
fn large_unaligned_inputs_are_thread_count_invariant() {
    let len = 300_003; // odd tail: exercises word slicing + chunk seams
    let mut data = gen_stripes(0xD15C, 10, len);
    // Ragged members: one ends mid-chunk, one before the first seam and
    // one is empty. Members 2 and 7, the ones lost below, stay full.
    data[3].truncate(len - 70_001);
    data[5].truncate(1_001);
    data[9].clear();
    let r = refs(&data);
    let expect_p = scalar_parity_p(&r);
    let expect_q = scalar_parity_q(&r);
    let padded: Vec<Vec<u8>> = data
        .iter()
        .map(|d| {
            let mut d = d.clone();
            d.resize(len, 0);
            d
        })
        .collect();
    for threads in THREADS {
        let plane = DataPlane::new(threads);
        assert_eq!(
            parity::parity_p_with(&r, &plane).unwrap(),
            expect_p,
            "threads={threads}"
        );
        let (p, q) = parity::encode_pq_with(&r, &plane).unwrap();
        assert_eq!(p, expect_p, "threads={threads}");
        assert_eq!(q, expect_q, "threads={threads}");
        assert!(parity::verify_group_with(&refs(&padded), &p, Some(&q), &plane).unwrap());
        let lose = |lost: &[usize]| -> Vec<Option<&[u8]>> {
            r.iter()
                .enumerate()
                .map(|(i, s)| (!lost.contains(&i)).then_some(*s))
                .collect()
        };
        // P alone: one data loss, then the lost P.
        let (rec, rp) = parity::reconstruct_p_with(&lose(&[2]), Some(&p), &plane).unwrap();
        assert_eq!(rec, data, "threads={threads}");
        assert_eq!(rp, expect_p);
        let (rec, rp) = parity::reconstruct_p_with(&lose(&[]), None, &plane).unwrap();
        assert_eq!(rec, data, "threads={threads}");
        assert_eq!(rp, expect_p);
        // Two data losses through P and Q.
        let (rec, rp, rq) =
            parity::reconstruct_pq_with(&lose(&[2, 7]), Some(&p), Some(&q), &plane).unwrap();
        assert_eq!(rec, data, "threads={threads}");
        assert_eq!(rp, expect_p);
        assert_eq!(rq, expect_q);
        // One data loss with P gone: the Q-only path.
        let (rec, rp, rq) =
            parity::reconstruct_pq_with(&lose(&[7]), None, Some(&q), &plane).unwrap();
        assert_eq!(rec, data, "threads={threads}");
        assert_eq!(rp, expect_p);
        assert_eq!(rq, expect_q);
    }
}

/// `data` as a [`bytes::Parts`] cut at `cuts` (clamped and sorted).
fn parted(data: &[u8], cuts: &[usize]) -> bytes::Parts {
    let whole = bytes::Bytes::copy_from_slice(data);
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
    cuts.sort_unstable();
    let mut at = 0;
    let mut parts: bytes::Parts = cuts
        .into_iter()
        .map(|c| {
            let piece = whole.slice(at..c);
            at = c;
            piece
        })
        .collect();
    parts.push(whole.slice(at..));
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    // Members cut into pieces anywhere (tile seams straddled, ragged
    // lengths, pieces of a few bytes) give the flat members' P, Q and
    // both rebuilds byte for byte, parity members parted too.
    #[test]
    fn parted_members_give_the_flat_results(
        seed in 0u64..500,
        n_stripes in 2usize..7,
        len in 0usize..3 * 4096 + 100,
        cut_seed in 0u64..1_000,
        thread_sel in 0usize..4,
        lost_x in 0usize..7,
        lost_y in 0usize..7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(cut_seed);
        let data = shorten(gen_stripes(seed, n_stripes, len), seed as usize % n_stripes, len / 3);
        let mut cut = |d: &[u8]| {
            let cuts: Vec<usize> = (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..d.len() + 1)).collect();
            parted(d, &cuts)
        };
        let parts: Vec<bytes::Parts> = data.iter().map(|d| cut(d)).collect();
        let flat = refs(&data);
        let pieces: Vec<&bytes::Parts> = parts.iter().collect();
        let plane = DataPlane::new(THREADS[thread_sel]);

        let p = parity::parity_p_with(&flat, &plane).unwrap();
        prop_assert_eq!(&parity::parity_p_with(&pieces, &plane).unwrap(), &p);
        let (p2, q) = parity::encode_pq_with(&flat, &plane).unwrap();
        prop_assert_eq!(&parity::encode_pq_with(&pieces, &plane).unwrap(), &(p2, q.clone()));
        let (p_parts, q_parts) = (cut(&p), cut(&q));

        let (x, y) = (lost_x % n_stripes, lost_y % n_stripes);
        let flat_holed: Vec<Option<&[u8]>> =
            (0..n_stripes).map(|i| (i != x && i != y).then(|| flat[i])).collect();
        let parts_holed: Vec<Option<&bytes::Parts>> =
            (0..n_stripes).map(|i| (i != x && i != y).then(|| &parts[i])).collect();
        if x == y {
            prop_assert_eq!(
                parity::reconstruct_p_with(&parts_holed, Some(&p_parts), &plane).unwrap(),
                parity::reconstruct_p_with(&flat_holed, Some(&p[..]), &plane).unwrap()
            );
        }
        prop_assert_eq!(
            parity::reconstruct_pq_with(&parts_holed, Some(&p_parts), Some(&q_parts), &plane).unwrap(),
            parity::reconstruct_pq_with(&flat_holed, Some(&p[..]), Some(&q[..]), &plane).unwrap()
        );
        prop_assert_eq!(
            parity::reconstruct_pq_with(&parts_holed[..], None, Some(&q_parts), &plane).ok(),
            parity::reconstruct_pq_with(&flat_holed[..], None, Some(&q[..]), &plane).ok()
        );
    }
}
