//! Four SHA-256 computations in lockstep, one per 32-bit lane of an
//! SSE2 register.
//!
//! [`content_digest`](crate::digest::content_digest) hashes a payload
//! as independent 256 KB chunks, so four of them can share every
//! instruction: the eight state words and the sixteen schedule words
//! each become one `__m128i` holding that word of all four messages.
//! SHA-256 is adds, shifts and boolean operations on 32-bit words and
//! nothing crosses lanes, so the vector code is the scalar kernel with
//! every operator replaced by its packed twin (SSE2 has no rotate; it
//! is two shifts and an or).
//!
//! The module exists only on x86-64 with SSE2 — which is every x86-64
//! target, SSE2 being part of the base ABI — so there is nothing to
//! detect at run time and no fallback to choose: other targets compile
//! the scalar kernel alone. Message words are gathered with
//! `u32::from_be_bytes` on bounds-checked slices and `_mm_set_epi32`;
//! no intrinsic here takes a pointer.

use crate::digest::{finish, H0, K};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_and_si128, _mm_cvtsi128_si32, _mm_or_si128, _mm_set1_epi32,
    _mm_set_epi32, _mm_shuffle_epi32, _mm_slli_epi32, _mm_srli_epi32, _mm_xor_si128,
};

/// SHA-256 of four messages at once.
///
/// The whole 64-byte blocks all four messages have are compressed in
/// lockstep; each lane's remainder — the sub-block tail and padding
/// when the lengths are equal, which is the case this is built for — is
/// finished by the scalar code. Equals `msgs.map(sha256)` for any input.
pub(crate) fn sha256_x4(msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    // SAFETY: `lockstep` requires only the `sse2` target feature, and
    // this module is compiled under `cfg(target_feature = "sse2")` (see
    // `lib.rs`), so the feature is statically enabled for the whole
    // crate and the call has no precondition left to uphold.
    unsafe { lockstep(msgs) }
}

/// `x` rotated right by `R` bits in every lane; `L` must be `32 - R`.
#[target_feature(enable = "sse2")]
fn rotr<const R: i32, const L: i32>(x: __m128i) -> __m128i {
    _mm_or_si128(_mm_srli_epi32::<R>(x), _mm_slli_epi32::<L>(x))
}

#[target_feature(enable = "sse2")]
fn xor3(a: __m128i, b: __m128i, c: __m128i) -> __m128i {
    _mm_xor_si128(_mm_xor_si128(a, b), c)
}

#[target_feature(enable = "sse2")]
fn add(a: __m128i, b: __m128i) -> __m128i {
    _mm_add_epi32(a, b)
}

/// The four lanes of `v`, lane 0 first.
#[target_feature(enable = "sse2")]
fn lanes(v: __m128i) -> [u32; 4] {
    [
        _mm_cvtsi128_si32(v).cast_unsigned(),
        _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(v)).cast_unsigned(),
        _mm_cvtsi128_si32(_mm_shuffle_epi32::<2>(v)).cast_unsigned(),
        _mm_cvtsi128_si32(_mm_shuffle_epi32::<3>(v)).cast_unsigned(),
    ]
}

/// One round on four lanes; the argument order carries the role
/// rotation exactly as in the scalar kernel's `round!`.
macro_rules! round_x4 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let big_s1 = xor3(rotr::<6, 26>($e), rotr::<11, 21>($e), rotr::<25, 7>($e));
        let ch = _mm_xor_si128($g, _mm_and_si128($e, _mm_xor_si128($f, $g)));
        let t1 = add(add($h, big_s1), add(ch, $kw));
        $d = add($d, t1);
        let big_s0 = xor3(rotr::<2, 30>($a), rotr::<13, 19>($a), rotr::<22, 10>($a));
        let maj = _mm_or_si128(
            _mm_and_si128($a, $b),
            _mm_and_si128($c, _mm_or_si128($a, $b)),
        );
        $h = add(t1, add(big_s0, maj));
    };
}

#[target_feature(enable = "sse2")]
fn lockstep(msgs: [&[u8]; 4]) -> [[u8; 32]; 4] {
    let blocks = msgs.map(|m| m.as_chunks::<64>().0);
    let common = blocks.iter().map(|b| b.len()).min().unwrap_or(0);
    let mut state = H0.map(|h| _mm_set1_epi32(h.cast_signed()));
    let [b0, b1, b2, b3] = blocks.map(|b| &b[..common]);
    for (((m0, m1), m2), m3) in b0.iter().zip(b1).zip(b2).zip(b3) {
        let words = [m0, m1, m2, m3].map(|m| m.as_chunks::<4>().0);
        let mut w: [__m128i; 16] = core::array::from_fn(|i| {
            let be = |lane: usize| u32::from_be_bytes(words[lane][i]).cast_signed();
            _mm_set_epi32(be(3), be(2), be(1), be(0))
        });
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for t in (0..64).step_by(8) {
            let i = t & 15;
            if t >= 16 {
                for j in i..i + 8 {
                    let w15 = w[(j + 1) & 15];
                    let w2 = w[(j + 14) & 15];
                    let s0 = xor3(
                        rotr::<7, 25>(w15),
                        rotr::<18, 14>(w15),
                        _mm_srli_epi32::<3>(w15),
                    );
                    let s1 = xor3(
                        rotr::<17, 15>(w2),
                        rotr::<19, 13>(w2),
                        _mm_srli_epi32::<10>(w2),
                    );
                    w[j] = add(add(w[j], s0), add(w[(j + 9) & 15], s1));
                }
            }
            let kw = |j: usize| add(_mm_set1_epi32(K[t + j].cast_signed()), w[i + j]);
            round_x4!(a, b, c, d, e, f, g, h, kw(0));
            round_x4!(h, a, b, c, d, e, f, g, kw(1));
            round_x4!(g, h, a, b, c, d, e, f, kw(2));
            round_x4!(f, g, h, a, b, c, d, e, kw(3));
            round_x4!(e, f, g, h, a, b, c, d, kw(4));
            round_x4!(d, e, f, g, h, a, b, c, kw(5));
            round_x4!(c, d, e, f, g, h, a, b, kw(6));
            round_x4!(b, c, d, e, f, g, h, a, kw(7));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = add(*s, v);
        }
    }
    let words = state.map(|v| lanes(v));
    core::array::from_fn(|lane| {
        let m = msgs[lane];
        finish(words.map(|w| w[lane]), &m[common * 64..], m.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{sha256, sha256_reference};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Four different random messages of the given lengths.
    fn quad(seed: u64, lens: [usize; 4]) -> [Vec<u8>; 4] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        lens.map(|len| (0..len).map(|_| rng.gen::<u8>()).collect())
    }

    fn refs(msgs: &[Vec<u8>; 4]) -> [&[u8]; 4] {
        [&msgs[0], &msgs[1], &msgs[2], &msgs[3]]
    }

    #[test]
    fn padding_boundaries_match_the_reference_in_every_lane() {
        // No lockstep block, exactly one, one plus a tail, and both
        // padding shapes after each — small enough for Miri.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
            let msgs = quad(len as u64, [len; 4]);
            let expect = refs(&msgs).map(sha256_reference);
            assert_eq!(sha256_x4(refs(&msgs)), expect, "len {len}");
        }
    }

    #[test]
    fn unequal_lengths_fall_back_per_lane() {
        // Lockstep covers the blocks all four have (one here); each
        // lane's longer remainder is the scalar kernel's.
        let msgs = quad(7, [64, 200, 129, 70]);
        assert_eq!(sha256_x4(refs(&msgs)), refs(&msgs).map(sha256));
    }

    #[test]
    #[cfg_attr(miri, ignore = "four 256 KB messages are too slow interpreted")]
    fn one_whole_chunk_per_lane_matches_scalar() {
        let msgs = quad(11, [crate::CHUNK_BYTES; 4]);
        assert_eq!(sha256_x4(refs(&msgs)), refs(&msgs).map(sha256));
    }

    // Random multi-KB quads are too slow interpreted.
    #[cfg(not(miri))]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn sha256_x4_equals_four_scalar_hashes(seed in 0u64..u64::MAX, len in 0usize..5000) {
            let msgs = quad(seed, [len; 4]);
            prop_assert_eq!(sha256_x4(refs(&msgs)), refs(&msgs).map(sha256));
        }
    }
}
