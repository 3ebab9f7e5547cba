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
//! P+Q encode that reads each stripe once. Each public operation also has
//! a `*_with` variant taking a [`DataPlane`] that splits the output into
//! fixed contiguous ranges across scoped threads — byte-identical at any
//! thread count (see `crate::plane` for the determinism argument). The
//! original scalar multiply survives as [`gf_mul_scalar`], the reference
//! oracle for the equivalence proptests in `tests/parity_equiv.rs`.

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

/// The GF(2^8) reduction polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
const POLY: u16 = 0x11D;

/// Multiplies two elements of GF(2^8) via the log/exp tables.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    gf::mul(a, b)
}

/// The original bit-by-bit shift-and-add multiply (carry-less, reduced
/// by `POLY`). Kept as the reference oracle the table kernels are proven
/// against; the hot paths all use [`gf_mul`].
pub fn gf_mul_scalar(a: u8, b: u8) -> u8 {
    let mut a = u16::from(a);
    let mut b = u16::from(b);
    let mut acc: u16 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    // acc stays below 0x100: every XORed term is reduced by POLY.
    (acc & 0xFF) as u8
}

/// Raises the RAID-6 generator `2` to the `n`-th power in GF(2^8): a
/// single exp-table lookup (the old repeated-multiply loop was O(n)).
#[inline]
pub fn gf_pow2(n: usize) -> u8 {
    gf::pow2(n)
}

/// Returns the multiplicative inverse of a non-zero element via the
/// log/exp tables: `a^-1 = 2^(255 - log a)`.
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    gf::inv(a)
}

/// The original Fermat-little-theorem inverse (`a^254` by
/// square-and-multiply), kept as the oracle for [`gf_inv`].
#[cfg(test)]
pub fn gf_inv_fermat(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    let mut result: u8 = 1;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul_scalar(result, base);
        }
        base = gf_mul_scalar(base, base);
        exp >>= 1;
    }
    result
}

/// Errors from parity reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParityError {
    /// Input stripes have differing lengths.
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

fn check_lengths<'a, I: IntoIterator<Item = &'a [u8]>>(iter: I) -> Result<usize, ParityError> {
    let mut len = None;
    for s in iter {
        match len {
            None => len = Some(s.len()),
            Some(l) if l != s.len() => return Err(ParityError::LengthMismatch),
            _ => {}
        }
    }
    len.ok_or(ParityError::Empty)
}

/// Computes the XOR parity (P) of equal-length data stripes.
pub fn parity_p(data: &[&[u8]]) -> Result<Vec<u8>, ParityError> {
    parity_p_with(data, &DataPlane::single())
}

/// [`parity_p`] on a data plane: the output is split into fixed chunks,
/// each filled by word-sliced XOR accumulation.
pub fn parity_p_with(data: &[&[u8]], plane: &DataPlane) -> Result<Vec<u8>, ParityError> {
    let len = check_lengths(data.iter().copied())?;
    let mut p = vec![0u8; len];
    plane.for_each_chunk(&mut p, |off, chunk| {
        for stripe in data {
            gf::xor_acc(chunk, &stripe[off..][..chunk.len()]);
        }
    });
    Ok(p)
}

/// Computes the RAID-6 Q parity of equal-length data stripes.
pub fn parity_q(data: &[&[u8]]) -> Result<Vec<u8>, ParityError> {
    parity_q_with(data, &DataPlane::single())
}

/// [`parity_q`] on a data plane: each chunk accumulates every stripe
/// through its const-built `2^i` split table.
pub fn parity_q_with(data: &[&[u8]], plane: &DataPlane) -> Result<Vec<u8>, ParityError> {
    let len = check_lengths(data.iter().copied())?;
    let mut q = vec![0u8; len];
    plane.for_each_chunk(&mut q, |off, chunk| {
        for (i, stripe) in data.iter().enumerate() {
            gf::pow2_table(i).mul_acc(chunk, &stripe[off..][..chunk.len()]);
        }
    });
    Ok(q)
}

/// Fused P+Q encode: one pass over each stripe fills both parities, so
/// the data is read from memory once instead of twice.
pub fn encode_pq(data: &[&[u8]]) -> Result<(Vec<u8>, Vec<u8>), ParityError> {
    encode_pq_with(data, &DataPlane::single())
}

/// [`encode_pq`] on a data plane: both outputs are split in lockstep so
/// each worker reads each stripe range once and fills P and Q together.
pub fn encode_pq_with(
    data: &[&[u8]],
    plane: &DataPlane,
) -> Result<(Vec<u8>, Vec<u8>), ParityError> {
    let len = check_lengths(data.iter().copied())?;
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    plane.for_each_chunk2(&mut p, &mut q, |off, pc, qc| {
        for (i, stripe) in data.iter().enumerate() {
            let s = &stripe[off..][..pc.len()];
            gf::xor_acc(pc, s);
            gf::pow2_table(i).mul_acc(qc, s);
        }
    });
    Ok((p, q))
}

/// [`parity_p_with`] over *ragged* stripes: shorter stripes count as
/// zero-filled to the longest length. This matches how OLFS pads disc
/// images (media past the burned region reads as zeros) without
/// allocating padded copies of every stripe.
pub fn parity_p_padded_with(data: &[&[u8]], plane: &DataPlane) -> Result<Vec<u8>, ParityError> {
    let len = data
        .iter()
        .map(|d| d.len())
        .max()
        .ok_or(ParityError::Empty)?;
    let mut p = vec![0u8; len];
    plane.for_each_chunk(&mut p, |off, chunk| {
        for stripe in data {
            if stripe.len() > off {
                // xor_acc stops at the common prefix; the zero pad
                // contributes nothing.
                gf::xor_acc(chunk, &stripe[off..]);
            }
        }
    });
    Ok(p)
}

/// Fused ragged P+Q encode: [`encode_pq_with`] semantics with shorter
/// stripes treated as zero-filled to the longest length.
pub fn encode_pq_padded_with(
    data: &[&[u8]],
    plane: &DataPlane,
) -> Result<(Vec<u8>, Vec<u8>), ParityError> {
    let len = data
        .iter()
        .map(|d| d.len())
        .max()
        .ok_or(ParityError::Empty)?;
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    plane.for_each_chunk2(&mut p, &mut q, |off, pc, qc| {
        for (i, stripe) in data.iter().enumerate() {
            if stripe.len() > off {
                let s = &stripe[off..];
                gf::xor_acc(pc, s);
                gf::pow2_table(i).mul_acc(qc, s);
            }
        }
    });
    Ok((p, q))
}

/// Reconstructs missing members of a P-only (RAID-5 style) group.
///
/// `data[i] = None` marks a lost data stripe; `p = None` marks a lost
/// parity stripe. At most one member in total may be missing.
pub fn reconstruct_p(
    data: &[Option<&[u8]>],
    p: Option<&[u8]>,
) -> Result<(Vec<Vec<u8>>, Vec<u8>), ParityError> {
    reconstruct_p_with(data, p, &DataPlane::single())
}

/// [`reconstruct_p`] on a data plane.
pub fn reconstruct_p_with(
    data: &[Option<&[u8]>],
    p: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, Vec<u8>), ParityError> {
    let lost_data: Vec<usize> = (0..data.len()).filter(|&i| data[i].is_none()).collect();
    let lost = lost_data.len().saturating_add(usize::from(p.is_none()));
    if lost > 1 {
        return Err(ParityError::TooManyLost { lost, tolerated: 1 });
    }
    check_lengths(data.iter().flatten().copied().chain(p))?;
    if !lost_data.is_empty() {
        // A data stripe is lost, so P must be present (otherwise the count
        // check above would have rejected two losses).
        let Some(p) = p else {
            return Err(ParityError::TooManyLost {
                lost: 2,
                tolerated: 1,
            });
        };
        // XOR of all present data stripes and P recovers the lost stripe.
        let mut rec = p.to_vec();
        plane.for_each_chunk(&mut rec, |off, chunk| {
            for d in data.iter().flatten() {
                gf::xor_acc(chunk, &d[off..][..chunk.len()]);
            }
        });
        let out = data
            .iter()
            .map(|d| match d {
                Some(d) => d.to_vec(),
                None => rec.clone(),
            })
            .collect();
        Ok((out, p.to_vec()))
    } else {
        let out: Vec<Vec<u8>> = data.iter().flatten().map(|d| d.to_vec()).collect();
        let p = match p {
            Some(p) => p.to_vec(),
            None => {
                let refs: Vec<&[u8]> = out.iter().map(|v| v.as_slice()).collect();
                parity_p_with(&refs, plane)?
            }
        };
        Ok((out, p))
    }
}

/// Reconstructs missing members of a P+Q (RAID-6 style) group.
///
/// At most two members in total (data, P, Q in any combination) may be
/// missing. Returns the full data set plus both parities.
#[allow(clippy::type_complexity)]
pub fn reconstruct_pq(
    data: &[Option<&[u8]>],
    p: Option<&[u8]>,
    q: Option<&[u8]>,
) -> Result<(Vec<Vec<u8>>, Vec<u8>, Vec<u8>), ParityError> {
    reconstruct_pq_with(data, p, q, &DataPlane::single())
}

/// [`reconstruct_pq`] on a data plane.
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
    let len = check_lengths(data.iter().flatten().copied().chain(p).chain(q))?;

    let finish = |data: Vec<Vec<u8>>| -> Result<(Vec<Vec<u8>>, Vec<u8>, Vec<u8>), ParityError> {
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let (p, q) = encode_pq_with(&refs, plane)?;
        Ok((data, p, q))
    };

    match (lost_data.len(), p, q) {
        // All data present: recompute whatever parity is missing.
        (0, _, _) => finish(data.iter().flatten().map(|d| d.to_vec()).collect()),
        // One data stripe lost, P present: plain XOR recovery.
        (1, Some(_), _) => {
            let (d, _) = reconstruct_p_with(data, p, plane)?;
            finish(d)
        }
        // One data stripe lost, P lost, Q present: recover via Q.
        (1, None, Some(q)) => {
            let missing = lost_data[0];
            // Q = sum g^i D_i  =>  D_m = (Q ^ sum_{i!=m} g^i D_i) * g^-m.
            let mut acc = q.to_vec();
            plane.for_each_chunk(&mut acc, |off, chunk| {
                for (i, d) in data.iter().enumerate() {
                    if let Some(d) = d {
                        gf::pow2_table(i).mul_acc(chunk, &d[off..][..chunk.len()]);
                    }
                }
            });
            let ginv_table = gf::MulTable::new(gf_inv(gf_pow2(missing)));
            plane.for_each_chunk(&mut acc, |_, chunk| ginv_table.mul_inplace(chunk));
            let full = data
                .iter()
                .map(|d| match d {
                    Some(d) => d.to_vec(),
                    None => acc.clone(),
                })
                .collect();
            finish(full)
        }
        // Two data stripes lost: solve the 2x2 system with P and Q.
        (2, Some(p), Some(q)) => {
            let (x, y) = (lost_data[0], lost_data[1]);
            // Pxy = P ^ sum_{i!=x,y} D_i ; Qxy = Q ^ sum_{i!=x,y} g^i D_i.
            let mut pxy = p.to_vec();
            let mut qxy = q.to_vec();
            plane.for_each_chunk2(&mut pxy, &mut qxy, |off, pc, qc| {
                for (i, d) in data.iter().enumerate() {
                    if let Some(d) = d {
                        let s = &d[off..][..pc.len()];
                        gf::xor_acc(pc, s);
                        gf::pow2_table(i).mul_acc(qc, s);
                    }
                }
            });
            // D_x ^ D_y = Pxy and g^x D_x ^ g^y D_y = Qxy
            // => D_x = (Qxy ^ g^y Pxy) / (g^x ^ g^y); D_y = Pxy ^ D_x.
            let gy_table = gf::MulTable::new(gf_pow2(y));
            let denom_table = gf::MulTable::new(gf_inv(gf_pow2(x) ^ gf_pow2(y)));
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
            let full = data
                .iter()
                .enumerate()
                .map(|(i, d)| match d {
                    Some(d) => d.to_vec(),
                    None if i == x => dx.clone(),
                    None => dy.clone(),
                })
                .collect();
            finish(full)
        }
        // Two losses but a needed parity is also gone: impossible cases
        // were already rejected by the count check above; the remaining
        // combination (1 data + both parities = 3 losses) cannot reach
        // here, and (2 data + missing parity) is >2 losses.
        _ => Err(ParityError::TooManyLost { lost, tolerated: 2 }),
    }
}

/// Block size for the no-allocation verification path: big enough to
/// amortize the per-block loop, small enough to live on the stack.
const VERIFY_BLOCK: usize = 1024;

/// Verifies that `p` (and, if supplied, `q`) is the parity of `data`.
///
/// This is the data-integrity invariant behind the paper's §4.7 disc-array
/// reliability claims: a parity group is only as good as the parity
/// actually stored. Returns `Ok(true)` when the parity matches,
/// `Ok(false)` on a mismatch, and an error if the stripes are malformed.
///
/// The check is allocation-free: parity is recomputed into fixed stack
/// blocks and compared as it goes, exiting early on the first mismatch
/// instead of materializing full P/Q vectors.
pub fn verify_group(data: &[&[u8]], p: &[u8], q: Option<&[u8]>) -> Result<bool, ParityError> {
    verify_group_with(data, p, q, &DataPlane::single())
}

/// [`verify_group`] on a data plane: each worker sweeps its own fixed
/// range in stack blocks; the first mismatch anywhere stops all ranges
/// at their next block boundary.
pub fn verify_group_with(
    data: &[&[u8]],
    p: &[u8],
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<bool, ParityError> {
    let len = check_lengths(data.iter().copied())?;
    if p.len() != len {
        return Ok(false);
    }
    if let Some(q) = q {
        if q.len() != len {
            return Ok(false);
        }
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
        verify_group(data, p, q).unwrap_or(false),
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

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0, 77), 0);
        assert_eq!(gf_mul(1, 77), 77);
        assert_eq!(gf_mul(2, 0x80), 0x1D); // Overflow reduces by POLY.
                                           // Commutativity.
        for a in [3u8, 0x53, 0xFF] {
            for b in [7u8, 0xCA, 0x80] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
            }
        }
    }

    #[test]
    fn gf_mul_table_matches_scalar_oracle() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_scalar(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gf_inverse_is_correct() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            assert_eq!(gf_inv(a), gf_inv_fermat(a), "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn gf_inv_zero_panics() {
        gf_inv(0);
    }

    #[test]
    fn gf_pow2_cycles() {
        assert_eq!(gf_pow2(0), 1);
        assert_eq!(gf_pow2(1), 2);
        assert_eq!(gf_pow2(8), 0x1D);
        assert_eq!(gf_pow2(255), 1); // Generator order is 255.
    }

    #[test]
    fn p_parity_xors() {
        let d = stripes();
        let p = parity_p(&refs(&d)).unwrap();
        for (i, &pb) in p.iter().enumerate() {
            let expect = d.iter().fold(0u8, |acc, s| acc ^ s[i]);
            assert_eq!(pb, expect);
        }
    }

    #[test]
    fn fused_encode_matches_separate_passes() {
        let d = stripes();
        let (p, q) = encode_pq(&refs(&d)).unwrap();
        assert_eq!(p, parity_p(&refs(&d)).unwrap());
        assert_eq!(q, parity_q(&refs(&d)).unwrap());
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
        let plane = DataPlane::single();
        let (p, q) = encode_pq_padded_with(&refs(&ragged), &plane).unwrap();
        assert_eq!(p, parity_p(&refs(&padded)).unwrap());
        assert_eq!(q, parity_q(&refs(&padded)).unwrap());
        assert_eq!(
            parity_p_padded_with(&refs(&ragged), &plane).unwrap(),
            parity_p(&refs(&padded)).unwrap()
        );
    }

    #[test]
    fn parity_rejects_mismatched_lengths() {
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        assert_eq!(
            parity_p(&[&a, &b]).unwrap_err(),
            ParityError::LengthMismatch
        );
        assert_eq!(
            parity_q(&[&a, &b]).unwrap_err(),
            ParityError::LengthMismatch
        );
        assert_eq!(
            encode_pq(&[&a, &b]).unwrap_err(),
            ParityError::LengthMismatch
        );
        assert_eq!(parity_p(&[]).unwrap_err(), ParityError::Empty);
    }

    #[test]
    fn raid5_recovers_any_single_data_loss() {
        let d = stripes();
        let p = parity_p(&refs(&d)).unwrap();
        for lost in 0..d.len() {
            let masked: Vec<Option<&[u8]>> = d
                .iter()
                .enumerate()
                .map(|(i, s)| (i != lost).then_some(s.as_slice()))
                .collect();
            let (rec, rp) = reconstruct_p(&masked, Some(&p)).unwrap();
            assert_eq!(rec, d);
            assert_eq!(rp, p);
        }
    }

    #[test]
    fn raid5_recovers_lost_parity() {
        let d = stripes();
        let p = parity_p(&refs(&d)).unwrap();
        let masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        let (rec, rp) = reconstruct_p(&masked, None).unwrap();
        assert_eq!(rec, d);
        assert_eq!(rp, p);
    }

    #[test]
    fn raid5_rejects_double_loss() {
        let d = stripes();
        let mut masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        let p = parity_p(&refs(&d)).unwrap();
        assert!(matches!(
            reconstruct_p(&masked, Some(&p)).unwrap_err(),
            ParityError::TooManyLost { lost: 2, .. }
        ));
    }

    #[test]
    fn raid6_recovers_any_two_data_losses() {
        let d = stripes();
        let p = parity_p(&refs(&d)).unwrap();
        let q = parity_q(&refs(&d)).unwrap();
        for x in 0..d.len() {
            for y in (x + 1)..d.len() {
                let masked: Vec<Option<&[u8]>> = d
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i != x && i != y).then_some(s.as_slice()))
                    .collect();
                let (rec, rp, rq) = reconstruct_pq(&masked, Some(&p), Some(&q)).unwrap();
                assert_eq!(rec, d, "losses {x},{y}");
                assert_eq!(rp, p);
                assert_eq!(rq, q);
            }
        }
    }

    #[test]
    fn raid6_recovers_data_plus_p() {
        let d = stripes();
        let q = parity_q(&refs(&d)).unwrap();
        for lost in 0..d.len() {
            let masked: Vec<Option<&[u8]>> = d
                .iter()
                .enumerate()
                .map(|(i, s)| (i != lost).then_some(s.as_slice()))
                .collect();
            let (rec, rp, _) = reconstruct_pq(&masked, None, Some(&q)).unwrap();
            assert_eq!(rec, d);
            assert_eq!(rp, parity_p(&refs(&d)).unwrap());
        }
    }

    #[test]
    fn raid6_recovers_both_parities() {
        let d = stripes();
        let masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        let (rec, p, q) = reconstruct_pq(&masked, None, None).unwrap();
        assert_eq!(rec, d);
        assert_eq!(p, parity_p(&refs(&d)).unwrap());
        assert_eq!(q, parity_q(&refs(&d)).unwrap());
    }

    #[test]
    fn verify_group_accepts_true_parity_and_rejects_lies() {
        let d = stripes();
        let p = parity_p(&refs(&d)).unwrap();
        let q = parity_q(&refs(&d)).unwrap();
        assert_eq!(verify_group(&refs(&d), &p, Some(&q)), Ok(true));
        assert_eq!(verify_group(&refs(&d), &p, None), Ok(true));
        let mut bad_p = p.clone();
        bad_p[3] ^= 0x40;
        assert_eq!(verify_group(&refs(&d), &bad_p, Some(&q)), Ok(false));
        let mut bad_q = q.clone();
        bad_q[0] ^= 0x01;
        assert_eq!(verify_group(&refs(&d), &p, Some(&bad_q)), Ok(false));
        assert_eq!(verify_group(&[], &p, None).unwrap_err(), ParityError::Empty);
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
            let (p, q) = encode_pq(&refs(&d)).unwrap();
            assert_eq!(verify_group(&refs(&d), &p, Some(&q)), Ok(true), "len={len}");
            // Corrupt the very last byte of each parity in turn.
            let mut bad_p = p.clone();
            bad_p[len - 1] ^= 0x80;
            assert_eq!(
                verify_group(&refs(&d), &bad_p, Some(&q)),
                Ok(false),
                "len={len}"
            );
            let mut bad_q = q.clone();
            bad_q[len - 1] ^= 0x80;
            assert_eq!(
                verify_group(&refs(&d), &p, Some(&bad_q)),
                Ok(false),
                "len={len}"
            );
            // A wrong-length parity is a mismatch, not a panic.
            assert_eq!(verify_group(&refs(&d), &p[..len - 1], None), Ok(false));
            assert_eq!(verify_group(&refs(&d), &p, Some(&q[..len - 1])), Ok(false));
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
            let p = parity_p(&refs).unwrap();
            let q = parity_q(&refs).unwrap();
            prop_assert_eq!(verify_group(&refs, &p, Some(&q)), Ok(true));

            let corrupt_at = rng.gen_range(0..len);
            let mut bad_p = p.clone();
            bad_p[corrupt_at] ^= 1 << flip_bit;
            prop_assert_eq!(verify_group(&refs, &bad_p, Some(&q)), Ok(false));
            let mut bad_q = q.clone();
            bad_q[corrupt_at] ^= 1 << flip_bit;
            prop_assert_eq!(verify_group(&refs, &p, Some(&bad_q)), Ok(false));
        }
    }

    #[test]
    fn raid6_rejects_triple_loss() {
        let d = stripes();
        let mut masked: Vec<Option<&[u8]>> = d.iter().map(|s| Some(s.as_slice())).collect();
        masked[0] = None;
        masked[1] = None;
        assert!(matches!(
            reconstruct_pq(&masked, Some(&[0; 64]), None).unwrap_err(),
            ParityError::TooManyLost { lost: 3, .. }
        ));
    }
}
