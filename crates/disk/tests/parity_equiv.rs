//! Equivalence proptests: the table-driven, plane-parallel parity
//! kernels must agree byte-for-byte with a scalar reference built on the
//! original shift-and-add multiply ([`ros_disk::gf::mul_const`]),
//! across stripe counts, stripe lengths (including 0, 1, and
//! non-word-aligned), ragged members and thread counts 1/2/4/8.

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
