//! SHA-256 of several messages in lockstep, one per 32-bit lane of a
//! vector register: four in SSE2's `__m128i`, eight in AVX2's `__m256i`.
//!
//! [`content_digests`](crate::digest::content_digests) hashes payloads
//! as independent 256 KB chunks, so several of them can share every
//! instruction: the eight state words and the sixteen schedule words
//! each become one vector holding that word of every message. SHA-256
//! is adds, shifts and boolean operations on 32-bit words and nothing
//! crosses lanes, so the vector code is the scalar kernel with every
//! operator replaced by its packed twin (neither width has a rotate; it
//! is two shifts and an or).
//!
//! The round-and-schedule body is written once, in `lockstep_kernel!`,
//! over the names `V`, `add`, `and`, `or`, `xor`, `shr`, `shl`, `splat`,
//! `gather` and `lanes`; the `x4` and `x8` modules bind those names to one
//! width's intrinsics and instantiate it. Message words are gathered
//! with `u32::from_be_bytes` on bounds-checked slices and `set_epi32`;
//! no intrinsic here takes a pointer.
//!
//! A message no group takes still has independent work to share: a
//! block's message schedule depends on that block's bytes alone, not on
//! the state. [`compress_ahead`] fills the eight lanes with eight
//! consecutive blocks of one message, extends their schedules with the
//! body's own schedule step, and runs each block's rounds in scalar code
//! (the digest module's `round!`) built with BMI2, whose `rorx` rotates
//! without a move.
//!
//! Where the CPU has the SHA extensions, none of that sharing pays: one
//! `sha256rnds2` does two rounds of one message, and [`compress_sha`]
//! runs every block of a message through them, Intel's published
//! instruction sequence on the state split into its ABEF and CDGH
//! halves, with `sha256msg1` / `sha256msg2` extending the schedule four
//! words at a time.
//!
//! The module exists only on x86-64 with SSE2 — which is every x86-64
//! target, SSE2 being part of the base ABI — so the four-lane kernel
//! needs no detection. AVX2, BMI2 and the SHA extensions are not part of
//! that ABI: [`sha256_x8`], [`compress_ahead`] and [`compress_sha`] ask
//! the CPU and enter their kernels only where it answered yes, and
//! [`widest`] and [`sha_extensions`] tell `digest.rs` which kernel to
//! take and how large a lockstep group is worth forming. Other targets
//! compile the scalar kernel alone.

use crate::digest::{finish, round, H0, K};

/// Lanes of the widest kernel this CPU runs: what one lockstep pass can
/// carry. A property of the host the code observes, not a setting.
pub(crate) fn widest() -> usize {
    if is_x86_feature_detected!("avx2") {
        8
    } else {
        4
    }
}

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
    unsafe { x4::lockstep(msgs) }
}

/// SHA-256 of eight messages at once: [`sha256_x4`]'s contract at twice
/// the width where the CPU has AVX2, two four-lane passes where not.
/// Equals `msgs.map(sha256)` for any input on any host.
pub(crate) fn sha256_x8(msgs: [&[u8]; 8]) -> [[u8; 32]; 8] {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `x8::lockstep` requires the `avx2` target feature,
        // which is not statically enabled; the detection macro on the
        // line above has just reported that this CPU implements it.
        return unsafe { x8::lockstep(msgs) };
    }
    let [a, b, c, d, e, f, g, h] = msgs;
    let [lo, hi] = [sha256_x4([a, b, c, d]), sha256_x4([e, f, g, h])];
    core::array::from_fn(|lane| if lane < 4 { lo[lane] } else { hi[lane - 4] })
}

/// Whether this CPU runs [`compress_ahead`]'s kernel: AVX2 for the
/// schedules, BMI2 for the rounds' rotates.
pub(crate) fn schedule_ahead() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("bmi2")
}

/// Compresses the leading runs of eight whole blocks of one message into
/// `state` where the CPU runs the schedule-ahead kernel, and returns the
/// blocks it left for the scalar `compress`: the last 0–7, or all of
/// them on any other CPU. The same state results either way.
pub(crate) fn compress_ahead<'a>(state: &mut [u32; 8], blocks: &'a [[u8; 64]]) -> &'a [[u8; 64]] {
    let (runs, rest) = blocks.as_chunks::<8>();
    if runs.is_empty() || !schedule_ahead() {
        return blocks;
    }
    // SAFETY: `x8::ahead` requires the `avx2` and `bmi2` target
    // features, neither statically enabled; `schedule_ahead` on the line
    // above has just reported that this CPU implements both.
    unsafe { x8::ahead(state, runs) };
    rest
}

/// Whether this CPU runs [`compress_sha`]'s kernel: the SHA extensions
/// for the rounds and the schedule, SSSE3 for the schedule's `palignr`,
/// SSE4.1 for reading the state back out.
pub(crate) fn sha_extensions() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses every block of one message into `state` where the CPU runs
/// the SHA-extensions kernel, and returns the blocks it left for the
/// scalar `compress`: none there, all of them on any other CPU. The same
/// state results either way.
pub(crate) fn compress_sha<'a>(state: &mut [u32; 8], blocks: &'a [[u8; 64]]) -> &'a [[u8; 64]] {
    if blocks.is_empty() || !sha_extensions() {
        return blocks;
    }
    // SAFETY: `sha::compress` requires the `sha`, `ssse3` and `sse4.1`
    // target features, none statically enabled; `sha_extensions` on the
    // line above has just reported that this CPU implements all three.
    unsafe { sha::compress(state, blocks) };
    &[]
}

/// One round on every lane; the argument order carries the role
/// rotation exactly as in the scalar kernel's `round!`.
macro_rules! round_lanes {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let big_s1 = xor3(rotr::<6, 26>($e), rotr::<11, 21>($e), rotr::<25, 7>($e));
        let ch = xor($g, and($e, xor($f, $g)));
        let t1 = add(add($h, big_s1), add(ch, $kw));
        $d = add($d, t1);
        let big_s0 = xor3(rotr::<2, 30>($a), rotr::<13, 19>($a), rotr::<22, 10>($a));
        let maj = or(and($a, $b), and($c, or($a, $b)));
        $h = add(t1, add(big_s0, maj));
    };
}

/// The lockstep compression, once, for whichever width's names are in
/// scope where it is instantiated (see the module docs).
macro_rules! lockstep_kernel {
    ($feature:literal) => {
        /// `x` rotated right by `R` bits in every lane; `L` must be `32 - R`.
        #[target_feature(enable = $feature)]
        fn rotr<const R: i32, const L: i32>(x: V) -> V {
            or(shr::<R>(x), shl::<L>(x))
        }

        #[target_feature(enable = $feature)]
        fn xor3(a: V, b: V, c: V) -> V {
            xor(xor(a, b), c)
        }

        /// The sixteen big-endian message words of one block per lane.
        #[target_feature(enable = $feature)]
        fn message(blocks: [&[u8; 64]; LANES]) -> [V; 16] {
            let mut w = [splat(0); 16];
            for (i, w) in w.iter_mut().enumerate() {
                *w = gather(|lane| {
                    u32::from_be_bytes(blocks[lane].as_chunks::<4>().0[i]).cast_signed()
                });
            }
            w
        }

        /// Extends the rolling 16-word schedule `w` in place by the
        /// eight words that go into slots `i..i + 8` (`i` is 0 or 8).
        #[target_feature(enable = $feature)]
        fn extend_schedule(w: &mut [V; 16], i: usize) {
            for j in i..i + 8 {
                let w15 = w[(j + 1) & 15];
                let w2 = w[(j + 14) & 15];
                let s0 = xor3(rotr::<7, 25>(w15), rotr::<18, 14>(w15), shr::<3>(w15));
                let s1 = xor3(rotr::<17, 15>(w2), rotr::<19, 13>(w2), shr::<10>(w2));
                w[j] = add(add(w[j], s0), add(w[(j + 9) & 15], s1));
            }
        }

        #[target_feature(enable = $feature)]
        pub(super) fn lockstep(msgs: [&[u8]; LANES]) -> [[u8; 32]; LANES] {
            let blocks = msgs.map(|m| m.as_chunks::<64>().0);
            let common = blocks.iter().map(|b| b.len()).min().unwrap_or(0);
            let mut state = H0.map(|h| splat(h.cast_signed()));
            for at in 0..common {
                let mut w = message(blocks.map(|b| &b[at]));
                let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
                for t in (0..64).step_by(8) {
                    let i = t & 15;
                    if t >= 16 {
                        extend_schedule(&mut w, i);
                    }
                    let kw = |j: usize| add(splat(K[t + j].cast_signed()), w[i + j]);
                    round_lanes!(a, b, c, d, e, f, g, h, kw(0));
                    round_lanes!(h, a, b, c, d, e, f, g, kw(1));
                    round_lanes!(g, h, a, b, c, d, e, f, kw(2));
                    round_lanes!(f, g, h, a, b, c, d, e, kw(3));
                    round_lanes!(e, f, g, h, a, b, c, d, kw(4));
                    round_lanes!(d, e, f, g, h, a, b, c, kw(5));
                    round_lanes!(c, d, e, f, g, h, a, b, kw(6));
                    round_lanes!(b, c, d, e, f, g, h, a, kw(7));
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
    };
}

/// Four lanes of an SSE2 register.
mod x4 {
    use super::{finish, H0, K};
    use core::arch::x86_64::{
        __m128i as V, _mm_add_epi32 as add, _mm_and_si128 as and, _mm_cvtsi128_si32,
        _mm_or_si128 as or, _mm_set1_epi32 as splat, _mm_set_epi32, _mm_shuffle_epi32,
        _mm_slli_epi32 as shl, _mm_srli_epi32 as shr, _mm_xor_si128 as xor,
    };

    const LANES: usize = 4;

    /// `word(lane)` of every lane as one vector, lane 0 lowest.
    #[target_feature(enable = "sse2")]
    fn gather(word: impl Fn(usize) -> i32) -> V {
        _mm_set_epi32(word(3), word(2), word(1), word(0))
    }

    /// The lanes of `v`, lane 0 first.
    #[target_feature(enable = "sse2")]
    fn lanes(v: V) -> [u32; LANES] {
        [
            _mm_cvtsi128_si32(v).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(v)).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<2>(v)).cast_unsigned(),
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<3>(v)).cast_unsigned(),
        ]
    }

    lockstep_kernel!("sse2");
}

/// Eight lanes of an AVX2 register, and the single-stream kernel that
/// fills them with eight blocks of one message.
mod x8 {
    use super::{finish, round, H0, K};
    use core::arch::x86_64::{
        __m256i as V, _mm256_add_epi32 as add, _mm256_and_si256 as and, _mm256_extract_epi32,
        _mm256_or_si256 as or, _mm256_set1_epi32 as splat, _mm256_set_epi32,
        _mm256_slli_epi32 as shl, _mm256_srli_epi32 as shr, _mm256_xor_si256 as xor,
    };

    const LANES: usize = 8;

    /// `word(lane)` of every lane as one vector, lane 0 lowest.
    #[target_feature(enable = "avx2")]
    fn gather(word: impl Fn(usize) -> i32) -> V {
        _mm256_set_epi32(
            word(7),
            word(6),
            word(5),
            word(4),
            word(3),
            word(2),
            word(1),
            word(0),
        )
    }

    /// The lanes of `v`, lane 0 first.
    #[target_feature(enable = "avx2")]
    fn lanes(v: V) -> [u32; LANES] {
        [
            _mm256_extract_epi32::<0>(v).cast_unsigned(),
            _mm256_extract_epi32::<1>(v).cast_unsigned(),
            _mm256_extract_epi32::<2>(v).cast_unsigned(),
            _mm256_extract_epi32::<3>(v).cast_unsigned(),
            _mm256_extract_epi32::<4>(v).cast_unsigned(),
            _mm256_extract_epi32::<5>(v).cast_unsigned(),
            _mm256_extract_epi32::<6>(v).cast_unsigned(),
            _mm256_extract_epi32::<7>(v).cast_unsigned(),
        ]
    }

    lockstep_kernel!("avx2");

    /// Compresses each run of eight consecutive blocks of one message
    /// into `state`: one pass computes the eight blocks' W+K schedules,
    /// one block per lane, then each block's 64 rounds run in scalar
    /// code, where BMI2 makes every rotate one `rorx`.
    #[target_feature(enable = "avx2,bmi2")]
    pub(super) fn ahead(state: &mut [u32; 8], runs: &[[[u8; 64]; 8]]) {
        let mut wk = [[0u32; LANES]; 64];
        for run in runs {
            let mut w = message(run.each_ref());
            for t in (0..64).step_by(8) {
                let i = t & 15;
                if t >= 16 {
                    extend_schedule(&mut w, i);
                }
                for j in 0..8 {
                    wk[t + j] = lanes(add(splat(K[t + j].cast_signed()), w[i + j]));
                }
            }
            for lane in 0..LANES {
                let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
                for kw in wk.as_chunks::<8>().0 {
                    round!(a, b, c, d, e, f, g, h, kw[0][lane]);
                    round!(h, a, b, c, d, e, f, g, kw[1][lane]);
                    round!(g, h, a, b, c, d, e, f, kw[2][lane]);
                    round!(f, g, h, a, b, c, d, e, kw[3][lane]);
                    round!(e, f, g, h, a, b, c, d, kw[4][lane]);
                    round!(d, e, f, g, h, a, b, c, kw[5][lane]);
                    round!(c, d, e, f, g, h, a, b, kw[6][lane]);
                    round!(b, c, d, e, f, g, h, a, kw[7][lane]);
                }
                for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                    *s = s.wrapping_add(v);
                }
            }
        }
    }
}

/// The SHA extensions: two rounds per `sha256rnds2`, four schedule words
/// per `sha256msg1` + `palignr` + `sha256msg2`.
mod sha {
    use super::K;
    use core::arch::x86_64::{
        __m128i as V, _mm_add_epi32 as add, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Words `4q..4q + 4` of `words`, word `4q` in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn quad(words: impl Fn(usize) -> u32, q: usize) -> V {
        let [w0, w1, w2, w3] = core::array::from_fn(|i| words(4 * q + i).cast_signed());
        _mm_set_epi32(w3, w2, w1, w0)
    }

    /// Schedule quad `q` from the four before it, oldest first: the
    /// `sha256msg1` half of σ0 over quads `q - 4` and `q - 3`, plus words
    /// `t - 7` (a `palignr` of quads `q - 2` and `q - 1`), finished by
    /// `sha256msg2`'s σ1 over quad `q - 1`.
    #[target_feature(enable = "sha,ssse3")]
    fn extend(w16: V, w12: V, w8: V, w4: V) -> V {
        let w7 = _mm_alignr_epi8::<4>(w4, w8);
        _mm_sha256msg2_epu32(add(_mm_sha256msg1_epu32(w16, w12), w7), w4)
    }

    /// Rounds `4q..4q + 4` on schedule quad `w`. Each `sha256rnds2` does
    /// two rounds with the W+K words in its third operand's low half and
    /// returns the new ABEF, so the halves swap roles call by call.
    #[target_feature(enable = "sha")]
    fn rounds(abef: &mut V, cdgh: &mut V, w: V, q: usize) {
        let kw = add(w, quad(|t| K[t], q));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, kw);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(kw));
    }

    /// Compresses `blocks` into `state`, Intel's published sequence: the
    /// eight working variables live as ABEF and CDGH (A and C in the
    /// highest lanes), the layout `sha256rnds2` takes, and the rolling
    /// schedule is four named quads, each extended just before the four
    /// rounds that consume it.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks {
            let words = block.as_chunks::<4>().0;
            let [mut w0, mut w1, mut w2, mut w3]: [V; 4] =
                core::array::from_fn(|q| quad(|t| u32::from_be_bytes(words[t]), q));
            let (abef_in, cdgh_in) = (abef, cdgh);
            for q in (0..16).step_by(4) {
                if q > 0 {
                    w0 = extend(w0, w1, w2, w3);
                }
                rounds(&mut abef, &mut cdgh, w0, q);
                if q > 0 {
                    w1 = extend(w1, w2, w3, w0);
                }
                rounds(&mut abef, &mut cdgh, w1, q + 1);
                if q > 0 {
                    w2 = extend(w2, w3, w0, w1);
                }
                rounds(&mut abef, &mut cdgh, w2, q + 2);
                if q > 0 {
                    w3 = extend(w3, w0, w1, w2);
                }
                rounds(&mut abef, &mut cdgh, w3, q + 3);
            }
            abef = add(abef, abef_in);
            cdgh = add(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(i32::cast_unsigned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{sha256, sha256_reference};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// `N` different random messages of the given lengths.
    fn group<const N: usize>(seed: u64, lens: [usize; N]) -> [Vec<u8>; N] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        lens.map(|len| (0..len).map(|_| rng.gen::<u8>()).collect())
    }

    fn refs<const N: usize>(msgs: &[Vec<u8>; N]) -> [&[u8]; N] {
        core::array::from_fn(|lane| msgs[lane].as_slice())
    }

    #[test]
    fn the_host_says_which_kernel_ran() {
        // CI runs this with `--nocapture`: a green run on a CPU without
        // AVX2 exercised `sha256_x8`'s fallback, not the wide kernel; one
        // without AVX2 and BMI2 tested `compress` where the
        // schedule-ahead kernel would have run; one without the SHA
        // extensions skipped that kernel's arm.
        let widest = widest();
        let skipped = if widest == 8 { "none" } else { "8" };
        let packer = crate::digest::lockstep_lanes();
        println!("lockstep SHA-256: widest kernel on this host has {widest} lanes; widths skipped: {skipped}; the packer groups {packer}");
        let ahead = if schedule_ahead() { "live" } else { "skipped" };
        println!("single-stream SHA-256: schedule-ahead kernel (avx2 + bmi2) {ahead}");
        let sha = if sha_extensions() { "live" } else { "skipped" };
        println!("single-stream SHA-256: SHA-extensions kernel (sha + ssse3 + sse4.1) {sha}");
        assert!(widest == 4 || widest == 8);
    }

    /// The one suite both widths must pass.
    macro_rules! width_suite {
        ($suite:ident, $kernel:ident, $n:literal) => {
            mod $suite {
                use super::*;

                #[test]
                fn padding_boundaries_match_the_reference_in_every_lane() {
                    // No lockstep block, exactly one, one plus a tail, and
                    // both padding shapes after each — small enough for Miri.
                    for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200] {
                        let msgs = group(len as u64, [len; $n]);
                        let expect = refs(&msgs).map(sha256_reference);
                        assert_eq!($kernel(refs(&msgs)), expect, "len {len}");
                    }
                }

                #[test]
                fn unequal_lengths_fall_back_per_lane() {
                    // Lockstep covers the blocks every lane has (one
                    // here); each lane's longer remainder is the scalar
                    // kernel's.
                    let lens = [64, 200, 129, 70, 300, 65, 1000, 128];
                    let msgs = group(7, core::array::from_fn::<_, $n, _>(|lane| lens[lane]));
                    assert_eq!($kernel(refs(&msgs)), refs(&msgs).map(sha256_reference));
                }

                #[test]
                #[cfg_attr(miri, ignore = "256 KB messages are too slow interpreted")]
                fn one_whole_chunk_per_lane_matches_scalar() {
                    let msgs = group(11, [crate::CHUNK_BYTES; $n]);
                    assert_eq!($kernel(refs(&msgs)), refs(&msgs).map(sha256));
                }

                // Random multi-KB groups are too slow interpreted.
                #[cfg(not(miri))]
                proptest! {
                    #![proptest_config(ProptestConfig::with_cases(48))]
                    #[test]
                    fn equals_one_scalar_hash_per_lane(seed in 0u64..u64::MAX, len in 0usize..5000) {
                        let msgs = group(seed, [len; $n]);
                        prop_assert_eq!($kernel(refs(&msgs)), refs(&msgs).map(sha256));
                    }
                }
            }
        };
    }

    width_suite!(x4, sha256_x4, 4);
    width_suite!(x8, sha256_x8, 8);
}
