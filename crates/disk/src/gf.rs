//! Table-driven GF(2^8) kernels behind the parity hot path.
//!
//! Every real byte that flows through RAID-6 Q parity, OLFS disc-array
//! redundancy (§4.7), audit verification and reconstruction is multiplied
//! in GF(2^8). The scalar shift-and-add multiply ([`mul_const`]) pays ~8
//! dependent iterations per byte; the kernels here replace it with
//! constant-time table lookups:
//!
//! - **log/exp tables** ([`GF_EXP`], [`GF_LOG`]) — one multiply is one
//!   add of logs and one exp lookup; inversion is one subtraction.
//! - **4-bit split multiply tables** ([`MulTable`]) — for a fixed
//!   generator `g`, `g·b` is two 16-entry lookups (low and high nibble)
//!   and one XOR. The 255 per-power tables for the RAID-6 generator
//!   (`g = 2^i`) are const-initialized at compile time
//!   ([`POW2_TABLES`]) — no lazy statics, no first-call cost.
//! - **word-sliced XOR** ([`xor_acc`]) — P parity moves 8 bytes per
//!   XOR through `u64` lanes instead of byte-at-a-time.
//!
//! All tables are built by `const fn` from [`mul_const`], the scalar
//! reference multiply, and the equivalence is locked in by the exhaustive
//! tests below and the proptests in `crates/disk/tests/parity_equiv.rs`.

// Numeric-integrity module (DESIGN.md §8): every integer `+ - * / % <<`
// outside test code is checked, saturating, or carries an `#[expect]`
// with the range argument.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

/// The GF(2^8) reduction polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
pub const POLY: u16 = 0x11D;

/// The scalar reference multiply: bit-by-bit shift-and-add (carry-less,
/// reduced by [`POLY`]). It builds the split tables below at compile
/// time and is the one oracle every table kernel is proven against.
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
pub static GF_EXP: [u8; 512] = LOG_EXP.0;

/// `GF_LOG[x] = log_2 x` for non-zero `x`; `GF_LOG[0]` is unused (0).
pub static GF_LOG: [u8; 256] = LOG_EXP.1;

/// Multiplies two field elements via the log/exp tables.
///
/// Bit-identical to [`mul_const`] for every input pair (proven
/// exhaustively in the tests below).
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "each log is at most 254 so the sum is at most 508, inside GF_EXP's doubled 512 range"
)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    GF_EXP[usize::from(GF_LOG[usize::from(a)]) + usize::from(GF_LOG[usize::from(b)])]
}

/// Raises the RAID-6 generator 2 to the `n`-th power: one exp lookup.
#[inline]
pub fn pow2(n: usize) -> u8 {
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
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    GF_EXP[255 - usize::from(GF_LOG[usize::from(a)])]
}

/// A 4-bit split multiply table for one fixed generator `g`: `g·b` is
/// `lo[b & 0xF] ^ hi[b >> 4]` — two 16-byte L1-resident lookups per
/// byte instead of an 8-iteration shift-and-add loop.
#[derive(Clone, Copy, Debug)]
pub struct MulTable {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl MulTable {
    /// Builds the split tables for generator `g` (32 scalar multiplies).
    pub const fn new(g: u8) -> MulTable {
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
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[usize::from(b & 0x0F)] ^ self.hi[usize::from(b >> 4)]
    }

    /// `dst[i] ^= g · src[i]` over the common prefix — the RAID-6 Q
    /// accumulation kernel.
    #[inline]
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d ^= self.lo[usize::from(s & 0x0F)] ^ self.hi[usize::from(s >> 4)];
        }
    }

    /// `buf[i] = g · buf[i]` — the reconstruction scaling kernel.
    #[inline]
    pub fn mul_inplace(&self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = self.lo[usize::from(*b & 0x0F)] ^ self.hi[usize::from(*b >> 4)];
        }
    }
}

/// Const-built split tables for every power of the RAID-6 generator:
/// `POW2_TABLES[i]` multiplies by `2^i` (`i` taken mod 255 by
/// [`pow2_table`]). 255 tables × 32 bytes — 8 KB of read-only data,
/// initialized at compile time.
pub static POW2_TABLES: [MulTable; 255] = build_pow2_tables();

const fn build_pow2_tables() -> [MulTable; 255] {
    let mut out = [MulTable {
        lo: [0; 16],
        hi: [0; 16],
    }; 255];
    let mut i = 0usize;
    while i < 255 {
        out[i] = MulTable::new(GF_EXP_CONST[i]);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "i < 255 from the loop bound so the increment cannot overflow"
        )]
        {
            i += 1;
        }
    }
    out
}

// `static` items cannot be read from `const fn`s; keep a `const` copy of
// the exp table for the compile-time table builder only.
const GF_EXP_CONST: [u8; 512] = LOG_EXP.0;

/// The split table for `2^i` — the per-stripe generator of the RAID-6
/// construction `Q = Σ 2^i · D_i`.
#[inline]
pub fn pow2_table(i: usize) -> &'static MulTable {
    &POW2_TABLES[i % 255]
}

/// `dst[i] ^= src[i]` over the common prefix, moving 8 bytes per XOR
/// through `u64` lanes — the P-parity accumulation kernel.
pub fn xor_acc(dst: &mut [u8], src: &[u8]) {
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
    fn table_mul_matches_scalar_exhaustively() {
        assert_eq!(mul(0, 77), 0);
        assert_eq!(mul(1, 77), 77);
        assert_eq!(mul(2, 0x80), 0x1D); // Overflow reduces by POLY.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_const(a, b), "a={a} b={b}");
                assert_eq!(mul(a, b), mul(b, a), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn gf_inverse_is_correct() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
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
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    fn split_tables_match_mul_for_every_power() {
        for i in 0..255usize {
            let g = pow2(i);
            let t = pow2_table(i);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), mul(g, b), "i={i} b={b}");
            }
        }
    }

    #[test]
    fn runtime_table_matches_const_table() {
        for g in [0u8, 1, 2, 0x1D, 0x8E, 0xFF] {
            let t = MulTable::new(g);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), mul(g, b), "g={g} b={b}");
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
