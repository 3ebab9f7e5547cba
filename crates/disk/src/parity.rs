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
//! Q is computed by Horner's rule, `Q ← 2·Q ⊕ D_i` from the highest
//! member down (`gf::horner_step`), so the only multiply on any bulk
//! path is by the generator 2, eight bytes at a time on `u64` lanes;
//! P is `u64`-word-sliced XOR. Every kernel — P, encode, both
//! rebuilds, verify — accumulates 4 KiB tiles of each output range
//! across the members, P and Q together where both are wanted, so each
//! member byte is read from memory once. Only a recovery's
//! one scaling by a constant (`g^-m`, `g^y`, `1/(g^x ⊕ g^y)`) goes
//! through a `gf::MulTable`. Every operation takes a [`DataPlane`]
//! that splits the output into fixed contiguous ranges across its
//! workers — byte-identical at any thread count (see `crate::plane` for
//! the determinism argument).
//!
//! **One length rule.** The encoders and the reconstructs take ragged
//! members: the stripe is as long as the longest member, and a shorter
//! member counts as zero-filled to it. That is how OLFS pads disc images
//! (media past the burned region reads as zeros), without a padded copy
//! of any member. Only [`verify_group_with`] wants equal lengths.
//!
//! **Members in pieces.** A member is any [`Pieces`]: a flat slice, or a
//! sealed image's [`bytes::Parts`], read where its pieces lie. A tile
//! that straddles pieces is read as each piece's sub-range, XORed (and
//! stepped into Q) in place at its offset in the tile; no member byte is
//! copied.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

use crate::gf;
use crate::plane::DataPlane;
use bytes::Pieces;
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

/// One member as the kernels read it: its non-empty pieces, each with
/// the stripe offset of its first byte. A flat member is one piece; a
/// parted one ([`bytes::Parts`]) is read where it lies.
struct Member<'a> {
    pieces: Vec<(usize, &'a [u8])>,
    len: usize,
}

impl<'a> Member<'a> {
    fn new<P: Pieces + ?Sized>(member: &'a P) -> Self {
        let mut len = 0usize;
        let mut pieces = Vec::new();
        for piece in member.pieces().filter(|p| !p.is_empty()) {
            pieces.push((len, piece));
            len = len.saturating_add(piece.len());
        }
        Member { pieces, len }
    }

    /// The member's bytes from stripe offset `at`, at most `n` of them
    /// and fewer past its end, as the sub-range of each piece that holds
    /// some, in order, with its offset from `at`: the kernels stop at the
    /// member's end, so the missing tail adds nothing and the member reads
    /// as zero-filled.
    fn tile(&self, at: usize, n: usize) -> impl Iterator<Item = (usize, &'a [u8])> + '_ {
        let end = self.len.min(at.saturating_add(n));
        let first = self
            .pieces
            .partition_point(|&(s, _)| s <= at)
            .saturating_sub(1);
        self.pieces[first..]
            .iter()
            .take_while(move |&&(start, _)| start < end)
            .filter_map(move |&(start, piece)| {
                let lo = at.saturating_sub(start);
                let hi = piece.len().min(end.saturating_sub(start));
                (lo < hi).then(|| (start.saturating_add(lo).saturating_sub(at), &piece[lo..hi]))
            })
    }

    /// The member copied out whole: a survivor a full-set reconstruct
    /// hands back.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for (_, piece) in &self.pieces {
            out.extend_from_slice(piece);
        }
        out
    }
}

/// Every member of `data`, present.
fn members<'a, P: Pieces + ?Sized>(data: &[&'a P]) -> Vec<Option<Member<'a>>> {
    data.iter().map(|d| Some(Member::new(*d))).collect()
}

/// Every member of `data`, a lost one `None`.
fn survivors<'a, P: Pieces + ?Sized>(data: &[Option<&'a P>]) -> Vec<Option<Member<'a>>> {
    data.iter().map(|d| d.map(Member::new)).collect()
}

/// The stripe length: the longest member.
fn stripe_len<'a, 'm: 'a>(
    members: impl IntoIterator<Item = &'a Member<'m>>,
) -> Result<usize, ParityError> {
    members
        .into_iter()
        .map(|m| m.len)
        .max()
        .ok_or(ParityError::Empty)
}

/// Bytes per tile of a plane chunk: a member's tile plus the P and Q
/// tiles it accumulates into stay in L1, so each member byte is read
/// from memory once.
const TILE: usize = 4096;

/// XORs `sources` at stripe offset `off` into one plane chunk, a tile
/// at a time: `Σ D_i` (P, or the survivors and P of a rebuild).
fn xor_tiles<'a, 'm: 'a>(
    sources: impl Iterator<Item = &'a Member<'m>> + Clone,
    off: usize,
    chunk: &mut [u8],
) {
    for (t, at) in chunk.chunks_mut(TILE).zip((off..).step_by(TILE)) {
        for m in sources.clone() {
            for (o, s) in m.tile(at, t.len()) {
                gf::xor_acc(&mut t[o..], s);
            }
        }
    }
}

/// P of `data` over a `len`-byte stripe.
fn p_of(data: &[Option<Member<'_>>], len: usize, plane: &DataPlane) -> Vec<u8> {
    let mut p = vec![0u8; len];
    plane.for_each_chunk(&mut p, |off, chunk| {
        xor_tiles(data.iter().flatten(), off, chunk)
    });
    p
}

/// Accumulates `members` at stripe offset `off` into one plane chunk,
/// tile by tile: `Σ D_i` into `p` (when given) and `Σ 2^i·D_i` into `q`,
/// which must start zeroed. Q runs by Horner's rule from the highest
/// member down ([`gf::horner_step`]), so a `None` (lost) member adds
/// nothing to either but still doubles Q, as does a short member past
/// its end.
fn horner_pq(members: &[Option<Member<'_>>], off: usize, p: Option<&mut [u8]>, q: &mut [u8]) {
    let mut p_tiles = p.map(|p| p.chunks_mut(TILE));
    for (qt, at) in q.chunks_mut(TILE).zip((off..).step_by(TILE)) {
        let mut pt = p_tiles.as_mut().and_then(Iterator::next);
        for member in members.iter().rev() {
            // Each piece's sub-range steps its stretch of Q; past the
            // member's end (or all of a lost one) Q is only doubled.
            let (mut done, n) = (0usize, qt.len());
            for (o, s) in member.iter().flat_map(|m| m.tile(at, n)) {
                if let Some(pt) = pt.as_deref_mut() {
                    gf::xor_acc(&mut pt[o..], s);
                }
                let end = o.saturating_add(s.len());
                gf::horner_step(&mut qt[o..end], s);
                done = end;
            }
            gf::horner_step(&mut qt[done..], &[]);
        }
    }
}

/// P and Q of `data` over a `len`-byte stripe, in one pass per stripe.
fn pq_of(data: &[Option<Member<'_>>], len: usize, plane: &DataPlane) -> (Vec<u8>, Vec<u8>) {
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    plane.for_each_chunk2(&mut p, &mut q, |off, pc, qc| {
        horner_pq(data, off, Some(pc), qc);
    });
    (p, q)
}

/// `parity` zero-filled to `len`: the accumulator a recovery starts from.
fn widened(parity: &Member<'_>, len: usize) -> Vec<u8> {
    let mut acc = parity.to_vec();
    acc.resize(len, 0);
    acc
}

/// The one lost data member of a group with P: `P ^ Σ survivors`.
fn xor_rebuild(
    data: &[Option<Member<'_>>],
    p: &Member<'_>,
    len: usize,
    plane: &DataPlane,
) -> Vec<u8> {
    let mut rec = widened(p, len);
    plane.for_each_chunk(&mut rec, |off, chunk| {
        xor_tiles(data.iter().flatten(), off, chunk);
    });
    rec
}

/// Computes the XOR parity (P) of the data stripes: the output is split
/// into fixed chunks, each filled by word-sliced XOR accumulation a tile
/// at a time across the members.
pub fn parity_p_with<P: Pieces + ?Sized>(
    data: &[&P],
    plane: &DataPlane,
) -> Result<Vec<u8>, ParityError> {
    let data = members(data);
    Ok(p_of(&data, stripe_len(data.iter().flatten())?, plane))
}

/// Fused P+Q encode: one pass over each stripe fills both parities, so
/// the data is read from memory once instead of twice. Both outputs are
/// split in lockstep, so each worker reads each stripe range once.
pub fn encode_pq_with<P: Pieces + ?Sized>(
    data: &[&P],
    plane: &DataPlane,
) -> Result<(Vec<u8>, Vec<u8>), ParityError> {
    let data = members(data);
    Ok(pq_of(&data, stripe_len(data.iter().flatten())?, plane))
}

/// Rebuilds a group's lost data members and nothing else: the entry a
/// repair calls.
///
/// `data[i] = None` marks a lost data stripe. `parity` holds the group's
/// parity members, P and then Q if it has one, a lost one `None`; the
/// group tolerates as many losses in total as it has parity members (at
/// most two). Returns the lost data members in index order, each as long
/// as the stripe, and none when no data member is lost: no survivor is
/// copied and no parity regenerated.
pub fn rebuild_lost_with<P: Pieces + ?Sized>(
    data: &[Option<&P>],
    parity: &[Option<&P>],
    plane: &DataPlane,
) -> Result<Vec<Vec<u8>>, ParityError> {
    let parity: Vec<Option<Member<'_>>> = parity.iter().map(|m| m.map(Member::new)).collect();
    Ok(rebuild_lost(&survivors(data), &parity, plane)?.0)
}

/// [`rebuild_lost_with`] over members, with the stripe length.
fn rebuild_lost(
    data: &[Option<Member<'_>>],
    parity: &[Option<Member<'_>>],
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, usize), ParityError> {
    let tolerated = parity.len().min(2);
    let lost_data: Vec<usize> = (0..data.len()).filter(|&i| data[i].is_none()).collect();
    let lost = lost_data
        .len()
        .saturating_add(parity.iter().filter(|m| m.is_none()).count());
    if lost > tolerated {
        return Err(ParityError::TooManyLost { lost, tolerated });
    }
    let len = stripe_len(data.iter().chain(parity).flatten())?;
    let present = |k: usize| parity.get(k).and_then(Option::as_ref);
    let rebuilt = match (lost_data.as_slice(), present(0), present(1)) {
        // All data present: nothing to rebuild.
        ([], _, _) => Vec::new(),
        // One data stripe lost, P present: plain XOR recovery.
        ([_], Some(p), _) => vec![xor_rebuild(data, p, len, plane)],
        // One data stripe lost, P lost, Q present: recover via Q.
        ([missing], None, Some(q)) => {
            // Q = sum g^i D_i  =>  D_m = (Q ^ sum_{i!=m} g^i D_i) * g^-m.
            let ginv_table = gf::MulTable::new(gf::inv(gf::pow2(*missing)));
            let mut acc = vec![0u8; len];
            plane.for_each_chunk(&mut acc, |off, chunk| {
                horner_pq(data, off, None, chunk);
                xor_tiles([q].into_iter(), off, chunk);
                ginv_table.mul_inplace(chunk);
            });
            vec![acc]
        }
        // Two data stripes lost: solve the 2x2 system with P and Q.
        ([x, y], Some(p), Some(q)) => {
            // Pxy = P ^ sum_{i!=x,y} D_i ; Qxy = Q ^ sum_{i!=x,y} g^i D_i.
            let mut pxy = widened(p, len);
            let mut qxy = vec![0u8; len];
            plane.for_each_chunk2(&mut pxy, &mut qxy, |off, pc, qc| {
                horner_pq(data, off, Some(pc), qc);
                xor_tiles([q].into_iter(), off, qc);
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
        // Within the count but a needed parity is gone: one data member
        // and P lost from a P-only group cannot pass the count, and two
        // data members with a parity gone are three losses.
        _ => return Err(ParityError::TooManyLost { lost, tolerated }),
    };
    Ok((rebuilt, len))
}

/// Every data member for the full-set entries below: the survivors
/// copied out, the lost ones taken from `rebuilt` in index order.
/// [`rebuild_lost_with`] copies none.
fn whole_set(data: &[Option<Member<'_>>], rebuilt: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut rebuilt = rebuilt.into_iter();
    data.iter()
        .map(|d| match d {
            Some(d) => d.to_vec(),
            None => rebuilt.next().unwrap_or_default(),
        })
        .collect()
}

/// Reconstructs the full set of a P-only (RAID-5 style) group.
///
/// `data[i] = None` marks a lost data stripe; `p = None` marks a lost
/// parity stripe. At most one member in total may be missing. Survivors
/// come back as given; a rebuilt member is as long as the stripe.
pub fn reconstruct_p_with<P: Pieces + ?Sized>(
    data: &[Option<&P>],
    p: Option<&P>,
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, Vec<u8>), ParityError> {
    let data = survivors(data);
    let p = p.map(Member::new);
    let (rebuilt, len) = rebuild_lost(&data, std::slice::from_ref(&p), plane)?;
    let p = match p {
        Some(p) => p.to_vec(),
        // P is the lost member, so every data stripe is present.
        None => p_of(&data, len, plane),
    };
    Ok((whole_set(&data, rebuilt), p))
}

/// Reconstructs the full set of a P+Q (RAID-6 style) group.
///
/// At most two members in total (data, P, Q in any combination) may be
/// missing. Returns the full data set plus both parities, recomputed at
/// the stripe length; survivors come back as given.
#[allow(clippy::type_complexity)]
pub fn reconstruct_pq_with<P: Pieces + ?Sized>(
    data: &[Option<&P>],
    p: Option<&P>,
    q: Option<&P>,
    plane: &DataPlane,
) -> Result<(Vec<Vec<u8>>, Vec<u8>, Vec<u8>), ParityError> {
    let data = survivors(data);
    let parity = [p.map(Member::new), q.map(Member::new)];
    let (rebuilt, len) = rebuild_lost(&data, &parity, plane)?;
    let full = whole_set(&data, rebuilt);
    let refs: Vec<&[u8]> = full.iter().map(Vec::as_slice).collect();
    let (p, q) = pq_of(&members(&refs), len, plane);
    Ok((full, p, q))
}

/// Verifies that `p` (and, if supplied, `q`) is the parity of `data`.
///
/// This is the data-integrity invariant behind the paper's §4.7 disc-array
/// reliability claims: a parity group is only as good as the parity
/// actually stored. Returns `Ok(true)` when the parity matches,
/// `Ok(false)` on a mismatch, and an error if the stripes are malformed
/// (none, or of differing lengths).
///
/// The check is allocation-free: parity is recomputed into stack tiles
/// by the encoder's step and compared as it goes, exiting early on the
/// first mismatch instead of materializing full P/Q vectors. On the
/// plane each worker sweeps its own fixed range; the first mismatch
/// anywhere stops all ranges at their next tile boundary.
pub fn verify_group_with<P: Pieces + ?Sized>(
    data: &[&P],
    p: &[u8],
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> Result<bool, ParityError> {
    let data = members(data);
    let len = stripe_len(data.iter().flatten())?;
    if data.iter().flatten().any(|s| s.len != len) {
        return Err(ParityError::LengthMismatch);
    }
    Ok(p.len() == len && parity_matches(&data, p, q, plane))
}

/// True when `p` (and `q`, if given) is the parity of `data`, the
/// members zero-filled to `p`'s length: [`verify_group_with`] past its
/// length checks.
fn parity_matches(
    data: &[Option<Member<'_>>],
    p: &[u8],
    q: Option<&[u8]>,
    plane: &DataPlane,
) -> bool {
    let len = p.len();
    if q.is_some_and(|q| q.len() != len) || data.iter().flatten().any(|s| s.len > len) {
        return false;
    }
    #[expect(
        clippy::disallowed_types,
        reason = "true-to-false-only flag; the verify verdict is order-free"
    )]
    let ok = AtomicBool::new(true);
    plane.for_each_range(len, |range| {
        let mut p_tile = [0u8; TILE];
        let mut q_tile = [0u8; TILE];
        let mut off = range.start;
        while off < range.end {
            if !ok.load(Ordering::Relaxed) {
                return;
            }
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "off < range.end per the loop guard"
            )]
            let n = TILE.min(range.end - off);
            let (pt, qt) = (&mut p_tile[..n], &mut q_tile[..n]);
            pt.fill(0);
            let matches = match q {
                Some(q) => {
                    qt.fill(0);
                    horner_pq(data, off, Some(&mut *pt), qt);
                    *pt == p[off..][..n] && *qt == q[off..][..n]
                }
                None => {
                    xor_tiles(data.iter().flatten(), off, pt);
                    *pt == p[off..][..n]
                }
            };
            if !matches {
                ok.store(false, Ordering::Relaxed);
                return;
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
    ok.load(Ordering::Relaxed)
}

/// Debug-build hook: asserts that `p` (and `q`) is the parity of `data`
/// read by the encoders' length rule — a member shorter than `p` counts
/// as zero-filled to it. The parity may be in pieces (a proven copy read
/// back from media); the check reads it flattened. Compiled out of
/// release builds, so the hot write path pays nothing in production.
#[cfg(debug_assertions)]
pub fn debug_assert_group<P: Pieces + ?Sized, R: Pieces + ?Sized>(
    data: &[&P],
    p: &R,
    q: Option<&R>,
) {
    let (p, q) = (Member::new(p).to_vec(), q.map(|q| Member::new(q).to_vec()));
    debug_assert!(
        parity_matches(&members(data), &p, q.as_deref(), &DataPlane::single()),
        "parity group failed XOR/GF self-verification after stripe write \
         ({} data stripes, q = {})",
        data.len(),
        q.is_some(),
    );
}

/// Release builds: the self-check disappears entirely.
#[cfg(not(debug_assertions))]
pub fn debug_assert_group<P: Pieces + ?Sized, R: Pieces + ?Sized>(
    _data: &[&P],
    _p: &R,
    _q: Option<&R>,
) {
}

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
        let none: &[&[u8]] = &[];
        assert_eq!(parity_p_with(none, &one()).unwrap_err(), ParityError::Empty);
        assert_eq!(
            encode_pq_with(none, &one()).unwrap_err(),
            ParityError::Empty
        );
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
            verify_group_with::<[u8]>(&[], &p, None, &one()).unwrap_err(),
            ParityError::Empty
        );
    }

    /// Regression test for the no-allocation verify path: exercise
    /// lengths straddling the stack-block boundary, corruption in the
    /// last byte (the early-exit must still scan to the end), and
    /// mismatched parity lengths (reported as a clean mismatch).
    #[test]
    fn blockwise_verify_handles_block_boundaries_and_lengths() {
        for len in [TILE - 1, TILE, TILE + 1, 3 * TILE + 17] {
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

    proptest! {
        // Property: the repair entry hands back exactly what the full-set
        // reconstructs rebuild at the lost indices — ragged members, RAID-5
        // and RAID-6, any mix of data and parity losses up to one past the
        // tolerance, which both refuse alike.
        #[test]
        fn rebuild_lost_is_the_full_set_at_the_lost_indices(
            seed in 0u64..1_000,
            n_stripes in 2usize..8,
            len in 1usize..64,
            raid6 in any::<bool>(),
            losses in 0usize..4,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<Vec<u8>> = (0..n_stripes)
                .map(|_| (0..rng.gen_range(1..len + 1)).map(|_| rng.gen::<u8>()).collect())
                .collect();
            let (p, q) = encode_pq_with(&refs(&data), &one()).unwrap();
            let members = n_stripes + 1 + usize::from(raid6);
            let mut lost = vec![false; members];
            while lost.iter().filter(|&&l| l).count() < losses.min(members) {
                lost[rng.gen_range(0..members)] = true;
            }
            let masked: Vec<Option<&[u8]>> = data
                .iter()
                .zip(&lost)
                .map(|(d, &l)| (!l).then_some(d.as_slice()))
                .collect();
            let p_in = (!lost[n_stripes]).then_some(p.as_slice());
            let q_in = (raid6 && !lost[n_stripes + 1]).then_some(q.as_slice());
            let parity = if raid6 { vec![p_in, q_in] } else { vec![p_in] };
            let full = if raid6 {
                reconstruct_pq_with(&masked, p_in, q_in, &one()).map(|(full, ..)| full)
            } else {
                reconstruct_p_with(&masked, p_in, &one()).map(|(full, _)| full)
            };
            let at_lost = full.map(|full| {
                full.into_iter()
                    .zip(&lost)
                    .filter_map(|(m, &l)| l.then_some(m))
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(rebuild_lost_with(&masked, &parity, &one()), at_lost);
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
