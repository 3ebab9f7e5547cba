//! GF(2^8) kernels behind the parity hot path.
//!
//! Every real byte that flows through RAID-6 Q parity, OLFS disc-array
//! redundancy (§4.7), audit verification and reconstruction is multiplied
//! in GF(2^8). The scalar shift-and-add multiply ([`mul_const`]) pays ~8
//! dependent iterations per byte; the kernels here avoid it:
//!
//! - **Q by Horner's rule** (`horner_step`) — `Q = Σ 2^i·D_i` is
//!   `Q ← 2·Q ⊕ D_i` from the highest member down, so the only multiply
//!   on a bulk path is by the generator 2, done eight bytes at a time on
//!   `u64` lanes (`mul2_lanes`). Encode, recovery and verify all take
//!   this one step.
//! - **log/exp tables** (`GF_EXP`, `GF_LOG`) — a power of 2 is one
//!   exp lookup; inversion is one subtraction.
//! - **4-bit split multiply tables** (`MulTable`) — for a fixed
//!   constant `g`, `g·b` is two 16-entry lookups (low and high nibble)
//!   and one XOR; a recovery builds one per scaling constant at call
//!   time.
//! - **word-sliced XOR** (`xor_acc`) — P parity moves 8 bytes per
//!   XOR through `u64` lanes instead of byte-at-a-time.
//!
//! [`mul_const`] is the one oracle: the exhaustive tests below prove the
//! tables and the lane step against it, and the proptests in
//! `crates/disk/tests/parity_equiv.rs` the parities built on them.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

/// The GF(2^8) reduction polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
pub(crate) const POLY: u16 = 0x11D;

/// The scalar reference multiply: bit-by-bit shift-and-add (carry-less,
/// reduced by `POLY`). It builds the split tables below and is the one
/// oracle every kernel is proven against.
pub const fn mul_const(a: u8, b: u8) -> u8 {
    // `u16::from` is not const-callable, so these two casts widen
    // instead; every u8 value is representable.
    let mut a = a as u16;
    let mut b = b as u16;
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

/// Builds the exp table (`exp[i] = 2^i`) over a doubled 0..510 range and
/// the matching log table. The doubled exp range lets `mul` index
/// `exp[log a + log b]` directly without a `% 255` reduction: logs are
/// at most 254 each, so their sum is at most 508 < 512.
const fn build_log_exp() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0u16;
    while i < 512 {
        // x stays below 0x100: it is reduced by POLY after every doubling.
        exp[i as usize] = (x & 0xFF) as u8;
        if i < 255 {
            log[x as usize] = (i & 0xFF) as u8;
        }
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "i < 512 from the loop bound so the increment cannot overflow"
        )]
        {
            i += 1;
        }
    }
    (exp, log)
}

const LOG_EXP: ([u8; 512], [u8; 256]) = build_log_exp();

/// `GF_EXP[i] = 2^i` for `i` in `0..512` (period 255: the RAID-6
/// generator 2 is primitive, so the doubling walk repeats after 255).
pub(crate) static GF_EXP: [u8; 512] = LOG_EXP.0;

/// `GF_LOG[x] = log_2 x` for non-zero `x`; `GF_LOG[0]` is unused (0).
pub(crate) static GF_LOG: [u8; 256] = LOG_EXP.1;

/// Raises the RAID-6 generator 2 to the `n`-th power: one exp lookup.
#[inline]
pub(crate) fn pow2(n: usize) -> u8 {
    GF_EXP[n % 255]
}

/// Multiplicative inverse of a non-zero element via log/exp:
/// `a^-1 = 2^(255 - log a)`.
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "a log is at most 254, so 255 minus it cannot underflow"
)]
pub(crate) fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    GF_EXP[255 - usize::from(GF_LOG[usize::from(a)])]
}

/// A 4-bit split multiply table for one fixed constant `g`: `g·b` is
/// `lo[b & 0xF] ^ hi[b >> 4]` — two 16-byte L1-resident lookups per
/// byte instead of an 8-iteration shift-and-add loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MulTable {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl MulTable {
    /// Builds the split tables for generator `g` (32 scalar multiplies).
    pub(crate) const fn new(g: u8) -> MulTable {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut x = 0u8;
        while x < 16 {
            lo[x as usize] = mul_const(g, x);
            hi[x as usize] = mul_const(g, x << 4);
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "x < 16 from the loop bound so the increment cannot overflow"
            )]
            {
                x += 1;
            }
        }
        MulTable { lo, hi }
    }

    /// Multiplies one byte by this table's generator.
    #[inline]
    pub(crate) fn mul(&self, b: u8) -> u8 {
        self.lo[usize::from(b & 0x0F)] ^ self.hi[usize::from(b >> 4)]
    }

    /// `buf[i] = g · buf[i]` — the reconstruction scaling kernel.
    #[inline]
    pub(crate) fn mul_inplace(&self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = self.lo[usize::from(*b & 0x0F)] ^ self.hi[usize::from(*b >> 4)];
        }
    }
}

/// The top bit of each byte of a `u64` lane word.
const LANE_HIGH: u64 = 0x8080_8080_8080_8080;

/// [`POLY`] below `x^8`, in each byte of a lane word.
const LANE_POLY: u64 = 0x1D1D_1D1D_1D1D_1D1D;

/// Multiplies each of the eight bytes of `x` by the generator 2 at once:
/// every byte shifts left by one, and a byte whose top bit fell off is
/// reduced by [`POLY`]. `(h << 1) - (h >> 7)` spreads each top bit into
/// an all-ones byte mask without a carry between lanes (H. Peter Anvin,
/// "The mathematics of RAID-6"; Linux `lib/raid6/int.uc`).
#[inline]
pub(crate) fn mul2_lanes(x: u64) -> u64 {
    let h = x & LANE_HIGH;
    ((x & !LANE_HIGH) << 1) ^ ((h << 1).wrapping_sub(h >> 7) & LANE_POLY)
}

/// The first (at most eight) bytes of `b` as a lane word, zero-padded.
#[inline]
fn load(b: &[u8]) -> u64 {
    let n = b.len().min(8);
    let mut w = [0u8; 8];
    w[..n].copy_from_slice(&b[..n]);
    u64::from_ne_bytes(w)
}

/// Stores the first `b.len()` (at most eight) bytes of `w` into `b`.
#[inline]
fn store(b: &mut [u8], w: u64) {
    let n = b.len().min(8);
    b[..n].copy_from_slice(&w.to_ne_bytes()[..n]);
}

/// One step of `Q = Σ 2^i·D_i` by Horner's rule, taken from the highest
/// member down: `q ← 2·q ⊕ d` over all of `q`, eight bytes per
/// [`mul2_lanes`]. `d` reads as zero-filled past its end, and `q` is
/// still doubled there, because `2·q ⊕ 0` is not `q`: a member that is
/// lost or shorter than the stripe must still take its step.
pub(crate) fn horner_step(q: &mut [u8], d: &[u8]) {
    let data = d.len().min(q.len());
    let words = data & !7;
    let (head, rest) = q.split_at_mut(words);
    for (qw, dw) in head.chunks_exact_mut(8).zip(d.chunks_exact(8)) {
        store(qw, mul2_lanes(load(qw)) ^ load(dw));
    }
    // `d`'s last partial word meets `q`'s next word; past it `d` is zero.
    let (first, rest) = rest.split_at_mut(rest.len().min(8));
    store(first, mul2_lanes(load(first)) ^ load(&d[words..data]));
    let mut rest = rest.chunks_exact_mut(8);
    for qw in &mut rest {
        store(qw, mul2_lanes(load(qw)));
    }
    let tail = rest.into_remainder();
    store(tail, mul2_lanes(load(tail)));
}

/// `dst[i] ^= src[i]` over the common prefix, moving 8 bytes per XOR
/// through `u64` lanes — the P-parity accumulation kernel.
pub(crate) fn xor_acc(dst: &mut [u8], src: &[u8]) {
    let n = if dst.len() < src.len() {
        dst.len()
    } else {
        src.len()
    };
    let words = n & !7;
    let (dst_words, dst_tail) = dst.split_at_mut(words);
    let (src_words, src_tail) = src.split_at(words);
    for (dw, sw) in dst_words.chunks_exact_mut(8).zip(src_words.chunks_exact(8)) {
        let mut d = [0u8; 8];
        d.copy_from_slice(dw);
        let mut s = [0u8; 8];
        s.copy_from_slice(sw);
        let x = u64::from_ne_bytes(d) ^ u64::from_ne_bytes(s);
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    // The zip stops at the shorter tail: `n - words` bytes.
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fermat-little-theorem inverse (`a^254` by square-and-multiply
    /// over the scalar multiply): the oracle for [`inv`].
    fn inv_fermat(a: u8) -> u8 {
        assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
        let mut result: u8 = 1;
        let mut base = a;
        let mut exp = 254u32;
        while exp > 0 {
            if exp & 1 == 1 {
                result = mul_const(result, base);
            }
            base = mul_const(base, base);
            exp >>= 1;
        }
        result
    }

    #[test]
    fn gf_inverse_is_correct() {
        for a in 1..=255u8 {
            assert_eq!(mul_const(a, inv(a)), 1, "a = {a}");
            assert_eq!(inv(a), inv_fermat(a), "a = {a}");
        }
    }

    #[test]
    fn exp_log_round_trip() {
        for x in 1..=255u8 {
            assert_eq!(GF_EXP[usize::from(GF_LOG[usize::from(x)])], x);
        }
        // The doubled range continues the 255-period cycle.
        for i in 0..255usize {
            assert_eq!(GF_EXP[i], GF_EXP[i + 255]);
        }
    }

    #[test]
    fn pow2_cycles_and_inverts() {
        assert_eq!(pow2(0), 1);
        assert_eq!(pow2(1), 2);
        assert_eq!(pow2(8), 0x1D);
        assert_eq!(pow2(255), 1); // Generator order is 255.
        for a in 1..=255u8 {
            assert_eq!(mul_const(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    fn runtime_table_matches_const_table() {
        for g in 0..=255u8 {
            let t = MulTable::new(g);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), mul_const(g, b), "g={g} b={b}");
            }
        }
    }

    #[test]
    fn mul2_lanes_doubles_every_byte_in_every_lane() {
        // Each byte value in each lane position, beside neighbours whose
        // bits are all clear and all set, so a carry between lanes shows.
        for b in 0..=255u8 {
            for lane in 0..8 {
                for fill in [0x00u8, 0xFF] {
                    let mut x = [fill; 8];
                    x[lane] = b;
                    let y = mul2_lanes(u64::from_ne_bytes(x)).to_ne_bytes();
                    for (j, &yb) in y.iter().enumerate() {
                        assert_eq!(yb, mul_const(x[j], 2), "b={b} lane={lane} fill={fill}");
                    }
                }
            }
        }
    }

    #[test]
    fn horner_step_doubles_past_a_short_member() {
        for q_len in [0usize, 1, 7, 8, 9, 16, 17, 40] {
            for d_len in [0usize, 1, 7, 8, 9, 16, 17, 41] {
                let d: Vec<u8> = (0..d_len)
                    .map(|i| (i as u8).wrapping_mul(29) ^ 0x5A)
                    .collect();
                let mut fast: Vec<u8> = (0..q_len)
                    .map(|i| (i as u8).wrapping_mul(53) | 0x80)
                    .collect();
                let slow: Vec<u8> = fast
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| mul_const(q, 2) ^ d.get(i).copied().unwrap_or(0))
                    .collect();
                horner_step(&mut fast, &d);
                assert_eq!(fast, slow, "q_len={q_len} d_len={d_len}");
            }
        }
    }

    #[test]
    fn xor_acc_matches_bytewise_at_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1023] {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
            let mut fast: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0xA5).collect();
            let mut slow = fast.clone();
            xor_acc(&mut fast, &src);
            for (d, s) in slow.iter_mut().zip(&src) {
                *d ^= *s;
            }
            assert_eq!(fast, slow, "len={len}");
        }
    }
}
