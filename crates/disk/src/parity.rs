//! Real parity arithmetic: XOR (P) and GF(2^8) Reed-Solomon (Q).
//!
//! This is the math behind both the disk-tier RAID-5/6 arrays and, more
//! importantly, OLFS's disc-array redundancy (§4.7): 11 data + 1 parity
//! discs in a RAID-5 schema, or 10 data + 2 parity discs in a RAID-6
//! schema. The paper's reliability claims (10^-23 and 10^-40 array error
//! rates) rest on actually being able to reconstruct lost discs — so the
//! reconstruction here is real, byte-for-byte.
//!
//! The Q parity uses the standard RAID-6 construction over GF(2^8) with
//! generator 2 and the 0x11D (AES-like) reduction polynomial:
//! `Q = sum g^i * D_i`.
//!
//! The kernels are table-driven ([`crate::gf`]): per-generator 4-bit
//! split multiply tables for Q, `u64`-word-sliced XOR for P, and a fused
//! P+Q encode that reads each stripe once. Every operation takes a
//! [`DataPlane`] that splits the output into fixed contiguous ranges
//! across scoped threads — byte-identical at any thread count (see
//! `crate::plane` for the determinism argument).
//!
//! **One length rule.** The encoders and the reconstructs take ragged
//! members: the stripe is as long as the longest member, and a shorter
//! member counts as zero-filled to it. That is how OLFS pads disc images
//! (media past the burned region reads as zeros), without a padded copy
//! of any member. Only [`verify_group_with`] wants equal lengths.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::gf;
use crate::plane::DataPlane;
#[expect(
    clippy::disallowed_types,
    reason = "monotonic early-exit flag for plane-driven verify; order-free"
)]
use std::sync::atomic::{AtomicBool, Ordering};

/// Errors from parity reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParityError {
    /// Stripes handed to [`verify_group_with`] have differing lengths.
    LengthMismatch,
    /// More members are missing than the code can recover.
    TooManyLost {
        /// Number of missing members.
        lost: usize,
        /// Number the code tolerates.
        tolerated: usize,
    },
    /// No stripes were supplied.
    Empty,
}

impl core::fmt::Display for ParityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParityError::LengthMismatch => write!(f, "stripe length mismatch"),
            ParityError::TooManyLost { lost, tolerated } => {
                write!(f, "{lost} members lost, only {tolerated} tolerated")
            }
            ParityError::Empty => write!(f, "no stripes supplied"),
        }
    }
}

impl std::error::Error for ParityError {}

/// The stripe length: the longest member.
fn stripe_len<'a>(members: impl IntoIterator<Item = &'a [u8]>) -> Result<usize, ParityError> {
    members
        .into_iter()
        .map(<[u8]>::len)
        .max()
        .ok_or(ParityError::Empty)
}

/// `member`'s bytes from `off` on, empty past its end. The kernels stop
/// at the common prefix, so the missing tail adds nothing: the member
/// reads as zero-filled.
fn bytes_from(member: &[u8], off: usize) -> &[u8] {
    member.get(off..).unwrap_or_default()
}

/// P of `data` over a `len`-byte stripe.
fn p_of(data: &[&[u8]], len: usize, plane: &DataPlane) -> Vec<u8> {
    let mut p = vec![0u8; len];
    plane.for_each_chunk(&mut p, |off, chunk| {
        for stripe in data {
            gf::xor_acc(chunk, bytes_from(stripe, off));
        }
    });
    p
}

/// P and Q of `data` over a `len`-byte stripe, in one pass per stripe.
fn pq_of(data: &[&[u8]], len: usize, plane: &DataPlane) -> (Vec<u8>, Vec<u8>) {
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    plane.for_each_chunk2(&mut p, &mut q, |off, pc, qc| {
        for (i, stripe) in data.iter().enumerate() {
            let s = bytes_from(stripe, off);
            gf::xor_acc(pc, s);
            gf::pow2_table(i).mul_acc(qc, s);
        }
    });
    (p, q)
}

/// `parity` zero-filled to `len`: the accumulator a recovery starts from.
fn widened(parity: &[u8], len: usize) -> Vec<u8> {
    let mut acc = parity.to_vec();
    acc.resize(len, 0);
    acc
}

/// The one lost data member of a group with P: `P ^ Σ survivors`.
fn xor_rebuild(data: &[Option<&[u8]>], p: &[u8], len: usize, plane: &DataPlane) -> Vec<u8> {
    let mut rec = widened(p, len);
    plane.for_each_chunk(&mut rec, |off, chunk| {
        for d in data.iter().flatten() {
            gf::xor_acc(chunk, bytes_from(d, off));
        }
    });
    rec
}

/// `data` with its lost members, in index order, taken from `rebuilt`.
fn fill(data: &[Option<&[u8]>], rebuilt: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut rebuilt = rebuilt.into_iter();
    data.iter()
        .map(|d| match d {
            Some(d) => d.to_vec(),
            None => rebuilt.next().unwrap_or_default(),
        })
        .collect()
}

/// Computes the XOR parity (P) of the data stripes: the output is split
/// into fixed chunks, each filled by word-sliced XOR accumulation.
pub fn parity_p_with(data: &[&[u8]], plane: &DataPlane) -> Result<Vec<u8>, ParityError> {
    Ok(p_of(data, stripe_len(data.iter().copied())?, plane))
}

/// Fused P+Q encode: one pass over each stripe fills both parities, so
/// the data is read from memory once instead of twice. Both outputs are
/// split in lockstep, so each worker reads each stripe range once.
pub fn encode_pq_with(
    data: &[&[u8]],
    plane: &DataPlane,
) -> Result<(Vec<u8>, Vec<u8>), ParityError> {
    Ok(pq_of(data, stripe_len(data.iter().copied())?, plane))
}

/// Reconstructs missing members of a P-only (RAID-5 style) group.
///
/// `data[i] = None` marks a lost data stripe; `p = None` marks a lost
/// parity stripe. At most one member in total may be missing. Survivors
/// come back as given; a rebuilt member is as long as the stripe.
pub fn reconstruct_p_with(
    data: &[Option<&[u8]>],
    p: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, Vec<u8>), ParityError> {
    let lost_data = data.iter().filter(|d| d.is_none()).count();
    let lost = lost_data.saturating_add(usize::from(p.is_none()));
    if lost > 1 {
        return Err(ParityError::TooManyLost { lost, tolerated: 1 });
    }
    let len = stripe_len(data.iter().flatten().copied().chain(p))?;
    match p {
        // XOR of all present data stripes and P recovers the lost stripe.
        Some(p) => {
            let rebuilt = if lost_data == 0 {
                Vec::new()
            } else {
                vec![xor_rebuild(data, p, len, plane)]
            };
            Ok((fill(data, rebuilt), p.to_vec()))
        }
        // P is the lost member, so every data stripe is present.
        None => {
            let refs: Vec<&[u8]> = data.iter().flatten().copied().collect();
            Ok((fill(data, Vec::new()), p_of(&refs, len, plane)))
        }
    }
}

/// Reconstructs missing members of a P+Q (RAID-6 style) group.
///
/// At most two members in total (data, P, Q in any combination) may be
/// missing. Returns the full data set plus both parities, recomputed at
/// the stripe length; survivors come back as given.
#[allow(clippy::type_complexity)]
pub fn reconstruct_pq_with(
    data: &[Option<&[u8]>],
    p: Option<&[u8]>,
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, Vec<u8>, Vec<u8>), ParityError> {
    let lost_data: Vec<usize> = (0..data.len()).filter(|&i| data[i].is_none()).collect();
    let lost = lost_data
        .len()
        .saturating_add(usize::from(p.is_none()))
        .saturating_add(usize::from(q.is_none()));
    if lost > 2 {
        return Err(ParityError::TooManyLost { lost, tolerated: 2 });
    }
    let len = stripe_len(data.iter().flatten().copied().chain(p).chain(q))?;

    let rebuilt = match (lost_data.as_slice(), p, q) {
        // All data present: only parity needs recomputing.
        ([], _, _) => Vec::new(),
        // One data stripe lost, P present: plain XOR recovery.
        ([_], Some(p), _) => vec![xor_rebuild(data, p, len, plane)],
        // One data stripe lost, P lost, Q present: recover via Q.
        ([missing], None, Some(q)) => {
            // Q = sum g^i D_i  =>  D_m = (Q ^ sum_{i!=m} g^i D_i) * g^-m.
            let mut acc = widened(q, len);
            plane.for_each_chunk(&mut acc, |off, chunk| {
                for (i, d) in data.iter().enumerate() {
                    if let Some(d) = d {
                        gf::pow2_table(i).mul_acc(chunk, bytes_from(d, off));
                    }
                }
            });
            let ginv_table = gf::MulTable::new(gf::inv(gf::pow2(*missing)));
            plane.for_each_chunk(&mut acc, |_, chunk| ginv_table.mul_inplace(chunk));
            vec![acc]
        }
        // Two data stripes lost: solve the 2x2 system with P and Q.
        ([x, y], Some(p), Some(q)) => {
            // Pxy = P ^ sum_{i!=x,y} D_i ; Qxy = Q ^ sum_{i!=x,y} g^i D_i.
            let mut pxy = widened(p, len);
            let mut qxy = widened(q, len);
            plane.for_each_chunk2(&mut pxy, &mut qxy, |off, pc, qc| {
                for (i, d) in data.iter().enumerate() {
                    if let Some(d) = d {
                        let s = bytes_from(d, off);
                        gf::xor_acc(pc, s);
                        gf::pow2_table(i).mul_acc(qc, s);
                    }
                }
            });
            // D_x ^ D_y = Pxy and g^x D_x ^ g^y D_y = Qxy
            // => D_x = (Qxy ^ g^y Pxy) / (g^x ^ g^y); D_y = Pxy ^ D_x.
            let gy_table = gf::MulTable::new(gf::pow2(*y));
            let denom_table = gf::MulTable::new(gf::inv(gf::pow2(*x) ^ gf::pow2(*y)));
            let mut dx = vec![0u8; len];
            let mut dy = vec![0u8; len];
            plane.for_each_chunk2(&mut dx, &mut dy, |off, dxc, dyc| {
                let pxy = &pxy[off..][..dxc.len()];
                let qxy = &qxy[off..][..dxc.len()];
                for i in 0..dxc.len() {
                    let num = qxy[i] ^ gy_table.mul(pxy[i]);
                    dxc[i] = denom_table.mul(num);
                    dyc[i] = pxy[i] ^ dxc[i];
                }
            });
            vec![dx, dy]
        }
        // Two losses but a needed parity is also gone: impossible cases
        // were already rejected by the count check above; the remaining
        // combination (1 data + both parities = 3 losses) cannot reach
        // here, and (2 data + missing parity) is >2 losses.
        _ => return Err(ParityError::TooManyLost { lost, tolerated: 2 }),
    };
    let full = fill(data, rebuilt);
    let refs: Vec<&[u8]> = full.iter().map(Vec::as_slice).collect();
    let (p, q) = pq_of(&refs, len, plane);
    Ok((full, p, q))
}

/// Block size for the no-allocation verification path: big enough to
/// amortize the per-block loop, small enough to live on the stack.
const VERIFY_BLOCK: usize = 1024;

/// Verifies that `p` (and, if supplied, `q`) is the parity of `data`.
///
/// This is the data-integrity invariant behind the paper's §4.7 disc-array
/// reliability claims: a parity group is only as good as the parity
/// actually stored. Returns `Ok(true)` when the parity matches,
/// `Ok(false)` on a mismatch, and an error if the stripes are malformed
/// (none, or of differing lengths).
///
/// The check is allocation-free: parity is recomputed into fixed stack
/// blocks and compared as it goes, exiting early on the first mismatch
/// instead of materializing full P/Q vectors. On the plane each worker
/// sweeps its own fixed range; the first mismatch anywhere stops all
/// ranges at their next block boundary.
pub fn verify_group_with(
    data: &[&[u8]],
    p: &[u8],
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<bool, ParityError> {
    let len = stripe_len(data.iter().copied())?;
    if data.iter().any(|s| s.len() != len) {
        return Err(ParityError::LengthMismatch);
    }
    if p.len() != len || q.is_some_and(|q| q.len() != len) {
        return Ok(false);
    }
    #[expect(
        clippy::disallowed_types,
        reason = "true-to-false-only flag; the verify verdict is order-free"
    )]
    let ok = AtomicBool::new(true);
    plane.for_each_range(len, |range| {
        let mut p_block = [0u8; VERIFY_BLOCK];
        let mut q_block = [0u8; VERIFY_BLOCK];
        let mut off = range.start;
        while off < range.end {
            if !ok.load(Ordering::Relaxed) {
                return;
            }
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "off < range.end per the loop guard"
            )]
            let n = VERIFY_BLOCK.min(range.end - off);
            p_block[..n].fill(0);
            for (i, stripe) in data.iter().enumerate() {
                let s = &stripe[off..][..n];
                gf::xor_acc(&mut p_block[..n], s);
                if q.is_some() {
                    gf::pow2_table(i).mul_acc(&mut q_block[..n], s);
                }
            }
            if p_block[..n] != p[off..][..n] {
                ok.store(false, Ordering::Relaxed);
                return;
            }
            if let Some(q) = q {
                if q_block[..n] != q[off..][..n] {
                    ok.store(false, Ordering::Relaxed);
                    return;
                }
                q_block[..n].fill(0);
            }
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "n is at most range.end - off so the sum stays within range.end"
            )]
            {
                off += n;
            }
        }
    });
    Ok(ok.load(Ordering::Relaxed))
}

/// Debug-build hook: asserts the parity group is self-consistent after a
/// stripe write. Compiled out of release builds, so the hot write path
/// pays nothing in production.
#[cfg(debug_assertions)]
pub fn debug_assert_group(data: &[&[u8]], p: &[u8], q: Option<&[u8]>) {
    debug_assert!(
        verify_group_with(data, p, q, &DataPlane::single()).unwrap_or(false),
        "parity group failed XOR/GF self-verification after stripe write \
         ({} data stripes, q = {})",
        data.len(),
        q.is_some(),
    );
}

/// Release builds: the self-check disappears entirely.
#[cfg(not(debug_assertions))]
pub fn debug_assert_group(_data: &[&[u8]], _p: &[u8], _q: Option<&[u8]>) {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stripes() -> Vec<Vec<u8>> {
        (0..5u8)
            .map(|i| (0..64u8).map(|j| i.wrapping_mul(37) ^ j).collect())
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    fn one() -> DataPlane {
        DataPlane::single()
    }

    fn p_of(data: &[&[u8]]) -> Vec<u8> {
        parity_p_with(data, &one()).unwrap()
    }

    /// Q from its definition, through the scalar reference multiply.
    fn q_of(data: &[&[u8]]) -> Vec<u8> {
        let mut q = vec![0u8; data[0].len()];
        for (i, stripe) in data.iter().enumerate() {
            for (dst, &b) in q.iter_mut().zip(stripe.iter()) {
                *dst ^= gf::mul_const(gf::pow2(i), b);
            }
        }
        q
    }

    #[test]
    fn p_parity_xors() {
        let d = stripes();
        let p = p_of(&refs(&d));
        for (i, &pb) in p.iter().enumerate() {
            let expect = d.iter().fold(0u8, |acc, s| acc ^ s[i]);
            assert_eq!(pb, expect);
        }
    }

    #[test]
    fn fused_encode_matches_separate_passes() {
        let d = stripes();
        let (p, q) = encode_pq_with(&refs(&d), &one()).unwrap();
        assert_eq!(p, p_of(&refs(&d)));
        assert_eq!(q, q_of(&refs(&d)));
    }

    #[test]
    fn padded_encode_treats_short_stripes_as_zero_filled() {
        let ragged: Vec<Vec<u8>> = vec![vec![0xAB; 70], vec![0xCD; 3], vec![], vec![0x11; 70]];
        let padded: Vec<Vec<u8>> = ragged
            .iter()
            .map(|s| {
                let mut v = s.clone();
                v.resize(70, 0);
                v
            })
            .collect();
        let (p, q) = encode_pq_with(&refs(&ragged), &one()).unwrap();
        assert_eq!(p, p_of(&refs(&padded)));
        assert_eq!(q, q_of(&refs(&padded)));
        assert_eq!(p_of(&refs(&ragged)), p_of(&refs(&padded)));
        // The reconstructs read survivors by the same rule.
        let masked: Vec<Option<&[u8]>> = vec![Some(&ragged[0]), Some(&ragged[1]), None, None];
        let (rec, rp, rq) = reconstruct_pq_with(&masked, Some(&p), Some(&q), &one()).unwrap();
        assert_eq!((&rec[2], &rec[3]), (&padded[2], &padded[3]));
        assert_eq!((rec[1].as_slice(), rp, rq), (ragged[1].as_slice(), p, q));
    }

    #[test]
    fn parity_rejects_mismatched_lengths() {
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        assert_eq!(
            verify_group_with(&[&a, &b], &b, None, &one()).unwrap_err(),
            ParityError::LengthMismatch
        );
        assert_eq!(parity_p_with(&[], &one()).unwrap_err(), ParityError::Empty);
        assert_eq!(encode_pq_with(&[], &one()).unwrap_err(), ParityError::Empty);
    }

    #[test]
    fn raid5_recovers_any_single_data_loss() {
        let d = stripes();
        let p = p_of(&refs(&d));
        for lost in 0..d.len() {
            let masked: Vec<Option<&[u8]>> = d
                .iter()
                .enumerate()
                .map(|(i, s)| (i != lost).then_some(s.as_slice()))
                .collect();
            let (rec, rp) = reconstruct_p_with(&masked, Some(&p), &one()).unwrap();
            assert_eq!(rec, d);
            assert_eq!(rp, p);
        }
    }

    #[test]
    fn raid5_recovers_lost_parity() {
        let d = stripes();
        let p = p_of(&refs(&d));
        let masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        let (rec, rp) = reconstruct_p_with(&masked, None, &one()).unwrap();
        assert_eq!(rec, d);
        assert_eq!(rp, p);
    }

    #[test]
    fn raid5_rejects_double_loss() {
        let d = stripes();
        let mut masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        let p = p_of(&refs(&d));
        assert!(matches!(
            reconstruct_p_with(&masked, Some(&p), &one()).unwrap_err(),
            ParityError::TooManyLost { lost: 2, .. }
        ));
    }

    #[test]
    fn raid6_recovers_any_two_data_losses() {
        let d = stripes();
        let p = p_of(&refs(&d));
        let q = q_of(&refs(&d));
        for x in 0..d.len() {
            for y in (x + 1)..d.len() {
                let masked: Vec<Option<&[u8]>> = d
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i != x && i != y).then_some(s.as_slice()))
                    .collect();
                let (rec, rp, rq) =
                    reconstruct_pq_with(&masked, Some(&p), Some(&q), &one()).unwrap();
                assert_eq!(rec, d, "losses {x},{y}");
                assert_eq!(rp, p);
                assert_eq!(rq, q);
            }
        }
    }

    #[test]
    fn raid6_recovers_data_plus_p() {
        let d = stripes();
        let q = q_of(&refs(&d));
        for lost in 0..d.len() {
            let masked: Vec<Option<&[u8]>> = d
                .iter()
                .enumerate()
                .map(|(i, s)| (i != lost).then_some(s.as_slice()))
                .collect();
            let (rec, rp, _) = reconstruct_pq_with(&masked, None, Some(&q), &one()).unwrap();
            assert_eq!(rec, d);
            assert_eq!(rp, p_of(&refs(&d)));
        }
    }

    #[test]
    fn raid6_recovers_both_parities() {
        let d = stripes();
        let masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        let (rec, p, q) = reconstruct_pq_with(&masked, None, None, &one()).unwrap();
        assert_eq!(rec, d);
        assert_eq!(p, p_of(&refs(&d)));
        assert_eq!(q, q_of(&refs(&d)));
    }

    #[test]
    fn verify_group_accepts_true_parity_and_rejects_lies() {
        let d = stripes();
        let p = p_of(&refs(&d));
        let q = q_of(&refs(&d));
        let verify = |p: &[u8], q: Option<&[u8]>| verify_group_with(&refs(&d), p, q, &one());
        assert_eq!(verify(&p, Some(&q)), Ok(true));
        assert_eq!(verify(&p, None), Ok(true));
        let mut bad_p = p.clone();
        bad_p[3] ^= 0x40;
        assert_eq!(verify(&bad_p, Some(&q)), Ok(false));
        let mut bad_q = q.clone();
        bad_q[0] ^= 0x01;
        assert_eq!(verify(&p, Some(&bad_q)), Ok(false));
        assert_eq!(
            verify_group_with(&[], &p, None, &one()).unwrap_err(),
            ParityError::Empty
        );
    }

    /// Regression test for the no-allocation verify path: exercise
    /// lengths straddling the stack-block boundary, corruption in the
    /// last byte (the early-exit must still scan to the end), and
    /// mismatched parity lengths (reported as a clean mismatch).
    #[test]
    fn blockwise_verify_handles_block_boundaries_and_lengths() {
        for len in [
            VERIFY_BLOCK - 1,
            VERIFY_BLOCK,
            VERIFY_BLOCK + 1,
            3 * VERIFY_BLOCK + 17,
        ] {
            let d: Vec<Vec<u8>> = (0..4u8)
                .map(|i| {
                    (0..len)
                        .map(|j| (j as u8).wrapping_mul(13) ^ i)
                        .collect::<Vec<u8>>()
                })
                .collect();
            let verify = |p: &[u8], q: Option<&[u8]>| verify_group_with(&refs(&d), p, q, &one());
            let (p, q) = encode_pq_with(&refs(&d), &one()).unwrap();
            assert_eq!(verify(&p, Some(&q)), Ok(true), "len={len}");
            // Corrupt the very last byte of each parity in turn.
            let mut bad_p = p.clone();
            bad_p[len - 1] ^= 0x80;
            assert_eq!(verify(&bad_p, Some(&q)), Ok(false), "len={len}");
            let mut bad_q = q.clone();
            bad_q[len - 1] ^= 0x80;
            assert_eq!(verify(&p, Some(&bad_q)), Ok(false), "len={len}");
            // A wrong-length parity is a mismatch, not a panic.
            assert_eq!(verify(&p[..len - 1], None), Ok(false));
            assert_eq!(verify(&p, Some(&q[..len - 1])), Ok(false));
        }
    }

    proptest! {
        // Property: the self-check accepts any honestly computed parity
        // group and rejects any single-bit corruption of either parity.
        #[test]
        fn self_check_accepts_valid_and_rejects_corrupt(
            seed in 0u64..1_000,
            n_stripes in 2usize..8,
            len in 1usize..64,
            flip_bit in 0u8..8,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<Vec<u8>> = (0..n_stripes)
                .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
            let verify = |p: &[u8], q: &[u8]| verify_group_with(&refs, p, Some(q), &one());
            let p = p_of(&refs);
            let q = q_of(&refs);
            prop_assert_eq!(verify(&p, &q), Ok(true));

            let corrupt_at = rng.gen_range(0..len);
            let mut bad_p = p.clone();
            bad_p[corrupt_at] ^= 1 << flip_bit;
            prop_assert_eq!(verify(&bad_p, &q), Ok(false));
            let mut bad_q = q.clone();
            bad_q[corrupt_at] ^= 1 << flip_bit;
            prop_assert_eq!(verify(&p, &bad_q), Ok(false));
        }
    }

    #[test]
    fn raid6_rejects_triple_loss() {
        let d = stripes();
        let mut masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        assert!(matches!(
            reconstruct_pq_with(&masked, Some(&[0; 64]), None, &one()).unwrap_err(),
            ParityError::TooManyLost { lost: 3, .. }
        ));
    }
}
