//! The x86-64 SHA-256 kernels behind `digest.rs`'s portable `compress`:
//! sixteen messages in lockstep in AVX-512's `__m512i`, eight in AVX2's
//! `__m256i`, and one message through the SHA extensions.
//!
//! [`content_digests`](crate::digest::content_digests) hashes payloads
//! as independent 16 KiB chunks, so sixteen or eight of them can share
//! every instruction: the eight state words and the sixteen schedule
//! words each become one vector holding that word of every message.
//! SHA-256 is adds, shifts and boolean operations on 32-bit words and
//! nothing crosses lanes, so [`sha256_x16`]'s and [`sha256_x8`]'s
//! kernels are the scalar one with every operator replaced by its packed
//! twin. AVX2 has no rotate (it is two shifts and an or) and no
//! three-input boolean; AVX-512F has both, `vprold` and `vpternlogd`.
//! Message words are gathered with `u32::from_be_bytes` on bounds-checked
//! slices and `set_epi32`; no intrinsic here takes a pointer.
//!
//! A leaf may be a run of slices (a parted image's pieces): each lane
//! reads its leaf through a [`Cursor`]. While every lane's current slice
//! holds whole blocks the kernel runs over them in place, as it does over
//! one slice; a step where some lane meets a slice boundary takes one
//! block per lane, and only that lane's block is copied, 64 bytes into
//! its cursor's scratch. A group of fewer leaves than lanes fills its
//! spare lanes with its last leaf's blocks, read from that leaf's own
//! cursor: a spare lane copies nothing and finishes nothing.
//!
//! Where the CPU has the SHA extensions, eight lanes do not pay: one
//! `sha256rnds2` does two rounds of one message, and [`compress_sha`]
//! runs every block of a message through them, Intel's published
//! instruction sequence on the state split into its ABEF and CDGH
//! halves, with `sha256msg1` / `sha256msg2` extending the schedule four
//! words at a time. Sixteen lanes do pay there, once at least ten of
//! them carry a leaf.
//!
//! None of AVX-512F, AVX2 and the SHA extensions is part of the x86-64
//! base ABI: [`sha256_x16`], [`sha256_x8`] and [`compress_sha`] ask the
//! CPU and enter their kernels only where it answered yes, and
//! [`avx512f`], [`avx2`] and [`sha_extensions`] tell `digest.rs` which
//! kernel to take and whether a lockstep group is worth forming. Other
//! targets compile the scalar kernel alone.

use crate::digest::{sha256_leaf, Cursor, Leaf, H0, K};

/// Whether this CPU runs [`sha256_x8`]'s eight-lane kernel. A property
/// of the host the code observes, not a setting.
pub(crate) fn avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// SHA-256 of eight messages at once.
///
/// Where the CPU has AVX2, the whole 64-byte blocks all eight messages
/// have are compressed in lockstep; each lane's remainder — the
/// sub-block tail and padding when the lengths are equal, which is the
/// case this is built for — is finished by the single-stream code.
/// Elsewhere each message is hashed alone.
///
/// `msgs` holds one to eight messages, one per lane from the first; a
/// spare lane past the last steps through the last one's blocks, read
/// from that lane, and hands back no digest. Lane `k`'s digest equals
/// `sha256_leaf(msgs[k])` for any input on any host; a spare lane's is
/// zero.
pub(crate) fn sha256_x8(msgs: &[Leaf<'_>]) -> [[u8; 32]; 8] {
    if !avx2() {
        return alone(msgs);
    }
    // SAFETY: `x8::lockstep` requires the `avx2` target feature, which
    // is not statically enabled; `avx2` on the line above has just
    // reported that this CPU implements it.
    unsafe { x8::lockstep(msgs) }
}

/// Whether this CPU runs [`sha256_x16`]'s sixteen-lane kernel. A
/// property of the host the code observes, not a setting.
pub(crate) fn avx512f() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// SHA-256 of sixteen messages at once, as [`sha256_x8`] hashes eight:
/// the whole blocks all sixteen have in lockstep where the CPU has
/// AVX-512F, each lane's remainder by the single-stream code, and each
/// message alone elsewhere; one to sixteen messages, spare lanes as
/// there.
pub(crate) fn sha256_x16(msgs: &[Leaf<'_>]) -> [[u8; 32]; 16] {
    if !avx512f() {
        return alone(msgs);
    }
    // SAFETY: `x16::lockstep` requires the `avx512f` target feature,
    // which is not statically enabled; `avx512f` on the line above has
    // just reported that this CPU implements it.
    unsafe { x16::lockstep(msgs) }
}

/// Each message of `msgs` hashed alone into its lane, spare lanes zero.
fn alone<const LANES: usize>(msgs: &[Leaf<'_>]) -> [[u8; 32]; LANES] {
    let mut out = [[0; 32]; LANES];
    for (digest, msg) in out.iter_mut().zip(msgs) {
        *digest = sha256_leaf(msg);
    }
    out
}

/// The cursor of each lane: lane `k` reads `msgs[k]`, and a spare lane
/// past the last message gets a copy of the last one's, which the
/// lockstep never moves or reads: it advances the live lanes' cursors
/// alone and hands each spare lane the last live lane's blocks.
fn cursors<'a, const LANES: usize>(msgs: &[Leaf<'a>]) -> [Cursor<'a>; LANES] {
    core::array::from_fn(|k| Cursor::new(msgs.get(k).or(msgs.last()).copied().unwrap_or(&[])))
}

/// The next block of each of the `live` lanes' leaves, for a step where
/// some lane's block straddles two slices; every lane past them reads
/// the last live lane's block instead of copying the same straddle again.
fn next_blocks<'c, const LANES: usize>(live: &'c mut [Cursor<'_>]) -> [&'c [u8; 64]; LANES] {
    let mut blocks = [&[0; 64]; LANES];
    let n = live.len();
    for (block, cursor) in blocks.iter_mut().zip(live) {
        *block = cursor.block();
    }
    if let Some(&last) = n.checked_sub(1).and_then(|i| blocks.get(i)) {
        for block in blocks.iter_mut().skip(n) {
            *block = last;
        }
    }
    blocks
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
/// rotation exactly as in the scalar kernel's `round!`. Each lane module
/// supplies `add` and the four round functions over its vector type.
macro_rules! round_lanes {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = add(add($h, big_sigma1($e)), add(ch($e, $f, $g), $kw));
        $d = add($d, t1);
        $h = add(t1, add(big_sigma0($a), maj($a, $b, $c)));
    };
}

/// Eight lanes of an AVX2 register, one message per lane.
mod x8 {
    use super::{Cursor, Leaf, H0, K};
    use core::arch::x86_64::{
        __m256i as V, _mm256_add_epi32 as add, _mm256_and_si256 as and, _mm256_extract_epi32,
        _mm256_or_si256 as or, _mm256_set1_epi32 as splat, _mm256_set_epi32,
        _mm256_slli_epi32 as shl, _mm256_srli_epi32 as shr, _mm256_xor_si256 as xor,
    };

    const LANES: usize = 8;

    /// `x` rotated right by `R` bits in every lane; `L` must be `32 - R`.
    #[target_feature(enable = "avx2")]
    fn rotr<const R: i32, const L: i32>(x: V) -> V {
        or(shr::<R>(x), shl::<L>(x))
    }

    #[target_feature(enable = "avx2")]
    fn xor3(a: V, b: V, c: V) -> V {
        xor(xor(a, b), c)
    }

    #[target_feature(enable = "avx2")]
    fn big_sigma0(a: V) -> V {
        xor3(rotr::<2, 30>(a), rotr::<13, 19>(a), rotr::<22, 10>(a))
    }

    #[target_feature(enable = "avx2")]
    fn big_sigma1(e: V) -> V {
        xor3(rotr::<6, 26>(e), rotr::<11, 21>(e), rotr::<25, 7>(e))
    }

    #[target_feature(enable = "avx2")]
    fn ch(e: V, f: V, g: V) -> V {
        xor(g, and(e, xor(f, g)))
    }

    #[target_feature(enable = "avx2")]
    fn maj(a: V, b: V, c: V) -> V {
        or(and(a, b), and(c, or(a, b)))
    }

    #[target_feature(enable = "avx2")]
    fn small_sigma0(w: V) -> V {
        xor3(rotr::<7, 25>(w), rotr::<18, 14>(w), shr::<3>(w))
    }

    #[target_feature(enable = "avx2")]
    fn small_sigma1(w: V) -> V {
        xor3(rotr::<17, 15>(w), rotr::<19, 13>(w), shr::<10>(w))
    }

    /// The sixteen big-endian message words of one block per lane, lane
    /// 0 lowest. A loop, not `array::from_fn`: on a 2-vCPU AVX2 host the
    /// closure form made the whole pass a third slower.
    #[target_feature(enable = "avx2")]
    fn message(blocks: [&[u8; 64]; LANES]) -> [V; 16] {
        let mut w = [splat(0); 16];
        for (i, w) in w.iter_mut().enumerate() {
            let word =
                |lane: usize| u32::from_be_bytes(blocks[lane].as_chunks::<4>().0[i]).cast_signed();
            *w = _mm256_set_epi32(
                word(7),
                word(6),
                word(5),
                word(4),
                word(3),
                word(2),
                word(1),
                word(0),
            );
        }
        w
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

    /// The scalar `compress` on every lane, one block each: a rolling
    /// 16-word schedule, extended eight words at a time just ahead of the
    /// eight rounds that consume them.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn compress(state: &mut [V; 8], blocks: [&[u8; 64]; LANES]) {
        let mut w = message(blocks);
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in (0..64).step_by(8) {
            let i = t & 15;
            if t >= 16 {
                for j in i..i + 8 {
                    let s0 = small_sigma0(w[(j + 1) & 15]);
                    let s1 = small_sigma1(w[(j + 14) & 15]);
                    w[j] = add(add(w[j], s0), add(w[(j + 9) & 15], s1));
                }
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

    /// [`compress`] over every whole block all eight leaves have, each
    /// lane's leaf read through its [`Cursor`]; each lane's remainder is
    /// finished by the single-stream code.
    #[target_feature(enable = "avx2")]
    pub(super) fn lockstep(msgs: &[Leaf<'_>]) -> [[u8; 32]; LANES] {
        let mut cursors = super::cursors::<LANES>(msgs);
        let live = msgs.len().clamp(1, LANES);
        let mut common = cursors[..live]
            .iter()
            .map(Cursor::blocks_left)
            .min()
            .unwrap_or(0);
        let mut state = H0.map(|h| splat(h.cast_signed()));
        while common > 0 {
            // The blocks every lane's current slice holds whole.
            let run = cursors[..live]
                .iter()
                .map(|c| c.in_place().len())
                .min()
                .unwrap_or(0);
            let run = run.min(common);
            if run == 0 {
                compress(&mut state, super::next_blocks(&mut cursors[..live]));
                common -= 1;
                continue;
            }
            // A spare lane's cursor has not moved: it reads the last
            // live lane's blocks.
            let blocks: [_; LANES] = core::array::from_fn(|k| cursors[k.min(live - 1)].in_place());
            for at in 0..run {
                compress(&mut state, blocks.map(|b| &b[at]));
            }
            for cursor in &mut cursors[..live] {
                cursor.skip(run);
            }
            common -= run;
        }
        let words = state.map(|v| lanes(v));
        let mut out = [[0; 32]; LANES];
        for (lane, (digest, cursor)) in out.iter_mut().zip(&cursors[..live]).enumerate() {
            *digest = cursor.finish(words.map(|w| w[lane]));
        }
        out
    }
}

/// Sixteen lanes of an AVX-512 register, one message per lane: `x8`'s
/// kernel with a native rotate (`vprold`) and every three-input boolean
/// function — Σ's and σ's `xor3`, `ch`, `maj` — one `vpternlogd`.
mod x16 {
    use super::{Cursor, Leaf, H0, K};
    use core::arch::x86_64::{
        __m128i, __m512i as V, _mm512_add_epi32 as add, _mm512_extracti32x4_epi32,
        _mm512_ror_epi32 as ror, _mm512_set1_epi32 as splat, _mm512_set_epi32,
        _mm512_srli_epi32 as shr, _mm512_ternarylogic_epi32 as ternary, _mm_extract_epi32,
    };

    const LANES: usize = 16;

    /// `a ^ b ^ c`: the truth table `0x96` over (a, b, c).
    #[target_feature(enable = "avx512f")]
    fn xor3(a: V, b: V, c: V) -> V {
        ternary::<0x96>(a, b, c)
    }

    #[target_feature(enable = "avx512f")]
    fn big_sigma0(a: V) -> V {
        xor3(ror::<2>(a), ror::<13>(a), ror::<22>(a))
    }

    #[target_feature(enable = "avx512f")]
    fn big_sigma1(e: V) -> V {
        xor3(ror::<6>(e), ror::<11>(e), ror::<25>(e))
    }

    /// `f` where `e` is set, else `g`: the truth table `0xCA`.
    #[target_feature(enable = "avx512f")]
    fn ch(e: V, f: V, g: V) -> V {
        ternary::<0xCA>(e, f, g)
    }

    /// The majority of the three bits: the truth table `0xE8`.
    #[target_feature(enable = "avx512f")]
    fn maj(a: V, b: V, c: V) -> V {
        ternary::<0xE8>(a, b, c)
    }

    #[target_feature(enable = "avx512f")]
    fn small_sigma0(w: V) -> V {
        xor3(ror::<7>(w), ror::<18>(w), shr::<3>(w))
    }

    #[target_feature(enable = "avx512f")]
    fn small_sigma1(w: V) -> V {
        xor3(ror::<17>(w), ror::<19>(w), shr::<10>(w))
    }

    /// The sixteen big-endian message words of one block per lane, lane
    /// 0 lowest, built as `x8::message` builds them.
    #[target_feature(enable = "avx512f")]
    fn message(blocks: [&[u8; 64]; LANES]) -> [V; 16] {
        let mut w = [splat(0); 16];
        for (i, w) in w.iter_mut().enumerate() {
            let word =
                |lane: usize| u32::from_be_bytes(blocks[lane].as_chunks::<4>().0[i]).cast_signed();
            *w = _mm512_set_epi32(
                word(15),
                word(14),
                word(13),
                word(12),
                word(11),
                word(10),
                word(9),
                word(8),
                word(7),
                word(6),
                word(5),
                word(4),
                word(3),
                word(2),
                word(1),
                word(0),
            );
        }
        w
    }

    /// The four lanes of `q`, lowest first.
    #[target_feature(enable = "avx512f")]
    fn quad(q: __m128i) -> [u32; 4] {
        [
            _mm_extract_epi32::<0>(q),
            _mm_extract_epi32::<1>(q),
            _mm_extract_epi32::<2>(q),
            _mm_extract_epi32::<3>(q),
        ]
        .map(i32::cast_unsigned)
    }

    /// The lanes of `v`, lane 0 first.
    #[target_feature(enable = "avx512f")]
    fn lanes(v: V) -> [u32; LANES] {
        let quads = [
            quad(_mm512_extracti32x4_epi32::<0>(v)),
            quad(_mm512_extracti32x4_epi32::<1>(v)),
            quad(_mm512_extracti32x4_epi32::<2>(v)),
            quad(_mm512_extracti32x4_epi32::<3>(v)),
        ];
        let mut out = [0; LANES];
        out.copy_from_slice(quads.as_flattened());
        out
    }

    /// Rounds `T..T + 8` on every lane, the schedule extended eight words
    /// just ahead of them as in `x8::lockstep`. `T` is a constant, so
    /// every index into `w` is one and the sixteen schedule words can
    /// stay in registers: AVX-512 has 32, where AVX2's 16 could not hold
    /// them beside the state, so `x8` keeps its loop.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn eight_rounds<const T: usize>(state: &mut [V; 8], w: &mut [V; 16]) {
        let i = T & 15;
        if T >= 16 {
            for j in i..i + 8 {
                let s0 = small_sigma0(w[(j + 1) & 15]);
                let s1 = small_sigma1(w[(j + 14) & 15]);
                w[j] = add(add(w[j], s0), add(w[(j + 9) & 15], s1));
            }
        }
        let kw = |j: usize| add(splat(K[T + j].cast_signed()), w[i + j]);
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        round_lanes!(a, b, c, d, e, f, g, h, kw(0));
        round_lanes!(h, a, b, c, d, e, f, g, kw(1));
        round_lanes!(g, h, a, b, c, d, e, f, kw(2));
        round_lanes!(f, g, h, a, b, c, d, e, kw(3));
        round_lanes!(e, f, g, h, a, b, c, d, kw(4));
        round_lanes!(d, e, f, g, h, a, b, c, kw(5));
        round_lanes!(c, d, e, f, g, h, a, b, kw(6));
        round_lanes!(b, c, d, e, f, g, h, a, kw(7));
        *state = [a, b, c, d, e, f, g, h];
    }

    /// The scalar `compress` on every lane, one block each, its 64
    /// rounds unrolled as eight calls of [`eight_rounds`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn compress(state: &mut [V; 8], blocks: [&[u8; 64]; LANES]) {
        let mut w = message(blocks);
        let mut s = *state;
        eight_rounds::<0>(&mut s, &mut w);
        eight_rounds::<8>(&mut s, &mut w);
        eight_rounds::<16>(&mut s, &mut w);
        eight_rounds::<24>(&mut s, &mut w);
        eight_rounds::<32>(&mut s, &mut w);
        eight_rounds::<40>(&mut s, &mut w);
        eight_rounds::<48>(&mut s, &mut w);
        eight_rounds::<56>(&mut s, &mut w);
        for (st, v) in state.iter_mut().zip(s) {
            *st = add(*st, v);
        }
    }

    /// [`compress`] over every whole block all sixteen leaves have, as
    /// `x8::lockstep` walks its eight.
    #[target_feature(enable = "avx512f")]
    pub(super) fn lockstep(msgs: &[Leaf<'_>]) -> [[u8; 32]; LANES] {
        let mut cursors = super::cursors::<LANES>(msgs);
        let live = msgs.len().clamp(1, LANES);
        let mut common = cursors[..live]
            .iter()
            .map(Cursor::blocks_left)
            .min()
            .unwrap_or(0);
        let mut state = H0.map(|h| splat(h.cast_signed()));
        while common > 0 {
            let run = cursors[..live]
                .iter()
                .map(|c| c.in_place().len())
                .min()
                .unwrap_or(0);
            let run = run.min(common);
            if run == 0 {
                compress(&mut state, super::next_blocks(&mut cursors[..live]));
                common -= 1;
                continue;
            }
            // A spare lane's cursor has not moved: it reads the last
            // live lane's blocks.
            let blocks: [_; LANES] = core::array::from_fn(|k| cursors[k.min(live - 1)].in_place());
            for at in 0..run {
                compress(&mut state, blocks.map(|b| &b[at]));
            }
            for cursor in &mut cursors[..live] {
                cursor.skip(run);
            }
            common -= run;
        }
        let words = state.map(|v| lanes(v));
        let mut out = [[0; 32]; LANES];
        for (lane, (digest, cursor)) in out.iter_mut().zip(&cursors[..live]).enumerate() {
            *digest = cursor.finish(words.map(|w| w[lane]));
        }
        out
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
    use crate::digest::sha256_reference;
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

    /// Each message as a leaf of one slice.
    fn leaves<'a, const N: usize>(msgs: &'a [&'a [u8]; N]) -> [Leaf<'a>; N] {
        core::array::from_fn(|lane| core::slice::from_ref(&msgs[lane]))
    }

    /// `msg` cut into slices of 1–`max` bytes.
    fn cut<'a>(msg: &'a [u8], rng: &mut impl Rng, max: usize) -> Vec<&'a [u8]> {
        let mut rest = msg;
        let mut out = Vec::new();
        while !rest.is_empty() {
            let (slice, tail) = rest.split_at((1 + rng.gen::<usize>() % max).min(rest.len()));
            out.push(slice);
            rest = tail;
        }
        out
    }

    #[test]
    fn the_host_says_which_kernel_ran() {
        // CI runs this with `--nocapture`: a green run on a CPU without
        // AVX2 or AVX-512F exercised that entry point's per-message
        // fallback, not its lane kernel; one without the SHA extensions
        // skipped that kernel's arm.
        let live = |yes: bool| if yes { "live" } else { "skipped" };
        let x16 = live(avx512f());
        let x8 = live(avx2());
        let sha = live(sha_extensions());
        let packer = crate::digest::lockstep_lanes();
        println!("lockstep SHA-256: sixteen-lane kernel (avx512f) {x16}");
        println!("lockstep SHA-256: eight-lane kernel (avx2) {x8}; the packer groups {packer}");
        println!("single-stream SHA-256: SHA-extensions kernel (sha + ssse3 + sse4.1) {sha}");
        let expect = if avx512f() {
            16
        } else if avx2() && !sha_extensions() {
            8
        } else {
            1
        };
        assert_eq!(packer, expect);
    }

    /// No lockstep block, exactly one, one plus a tail, and both padding
    /// shapes after each — small enough for Miri.
    const PADDING_LENS: [usize; 11] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 200];

    #[test]
    fn padding_boundaries_match_the_reference_in_every_lane() {
        for len in PADDING_LENS {
            let msgs = group(len as u64, [len; 8]);
            let expect = refs(&msgs).map(sha256_reference);
            assert_eq!(sha256_x8(&leaves(&refs(&msgs))), expect, "len {len}");
        }
    }

    #[test]
    fn x16_padding_boundaries_match_the_reference_in_every_lane() {
        for len in PADDING_LENS {
            let msgs = group(len as u64, [len; 16]);
            let expect = refs(&msgs).map(sha256_reference);
            assert_eq!(sha256_x16(&leaves(&refs(&msgs))), expect, "len {len}");
        }
    }

    #[test]
    fn unequal_lengths_fall_back_per_lane() {
        // Lockstep covers the blocks every lane has (one here); each
        // lane's longer remainder is the single-stream kernel's.
        let msgs = group(7, [64, 200, 129, 70, 300, 65, 1000, 128]);
        assert_eq!(
            sha256_x8(&leaves(&refs(&msgs))),
            refs(&msgs).map(sha256_reference)
        );
    }

    #[test]
    fn x16_unequal_lengths_fall_back_per_lane() {
        let lens = [
            64, 200, 129, 70, 300, 65, 1000, 128, 77, 64, 640, 191, 256, 999, 65, 130,
        ];
        let msgs = group(7, lens);
        assert_eq!(
            sha256_x16(&leaves(&refs(&msgs))),
            refs(&msgs).map(sha256_reference)
        );
    }

    /// Every lane's message in slices of 1–200 B, cut differently per
    /// lane, so steps where one lane straddles a boundary and the others
    /// read in place come up at both widths — small enough for Miri.
    #[test]
    fn parted_lanes_match_the_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for case in 0..4u64 {
            let msgs8 = group(case, core::array::from_fn::<usize, 8, _>(|i| 300 + 37 * i));
            let msgs16 = group(case, core::array::from_fn::<usize, 16, _>(|i| 250 + 29 * i));
            let max = [1, 7, 64, 200][case as usize];
            let runs8: Vec<Vec<&[u8]>> = msgs8.iter().map(|m| cut(m, &mut rng, max)).collect();
            let runs16: Vec<Vec<&[u8]>> = msgs16.iter().map(|m| cut(m, &mut rng, max)).collect();
            let got8 = sha256_x8(&core::array::from_fn::<_, 8, _>(|i| runs8[i].as_slice()));
            assert_eq!(got8, refs(&msgs8).map(sha256_reference), "x8 case {case}");
            let got16 = sha256_x16(&core::array::from_fn::<_, 16, _>(|i| runs16[i].as_slice()));
            assert_eq!(
                got16,
                refs(&msgs16).map(sha256_reference),
                "x16 case {case}"
            );
        }
    }

    /// Three to seven messages in pieces on eight lanes, and ten to
    /// fifteen on sixteen: the live lanes match the reference, the spare
    /// lanes give zeros, and a straddling block of the last message is
    /// copied once, however many spare lanes repeat it.
    #[test]
    fn spare_lanes_read_the_last_lane_and_copy_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let msgs = group(3, [400; 16]);
        let runs: Vec<Vec<&[u8]>> = msgs.iter().map(|m| cut(m, &mut rng, 90)).collect();
        let leaves: Vec<Leaf<'_>> = runs.iter().map(Vec::as_slice).collect();
        let copies_alone = |n: usize| {
            crate::digest::straddle_copies(|| {
                for leaf in &leaves[..n] {
                    crate::digest::sha256_leaf(leaf);
                }
            })
        };
        for live in (3..8).chain(10..16) {
            let expect: Vec<[u8; 32]> = refs(&msgs)[..live]
                .iter()
                .map(|m| sha256_reference(m))
                .collect();
            let mut got = Vec::new();
            let copies = crate::digest::straddle_copies(|| {
                got = if live < 8 {
                    sha256_x8(&leaves[..live]).to_vec()
                } else {
                    sha256_x16(&leaves[..live]).to_vec()
                };
            });
            assert_eq!(got[..live], expect[..], "{live} live lanes");
            assert!(
                got[live..].iter().all(|d| *d == [0; 32]),
                "{live} live lanes"
            );
            assert_eq!(copies, copies_alone(live), "{live} live lanes");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "whole-chunk messages are too slow interpreted")]
    fn one_whole_chunk_per_lane_matches_scalar() {
        let msgs = group(11, [crate::CHUNK_BYTES; 8]);
        assert_eq!(
            sha256_x8(&leaves(&refs(&msgs))),
            refs(&msgs).map(crate::digest::sha256)
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "whole-chunk messages are too slow interpreted")]
    fn x16_one_whole_chunk_per_lane_matches_scalar() {
        let msgs = group(11, [crate::CHUNK_BYTES; 16]);
        assert_eq!(
            sha256_x16(&leaves(&refs(&msgs))),
            refs(&msgs).map(crate::digest::sha256)
        );
    }

    // Random multi-KB groups are too slow interpreted.
    #[cfg(not(miri))]
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn equals_one_scalar_hash_per_lane(seed in 0u64..u64::MAX, len in 0usize..5000) {
            let msgs = group(seed, [len; 8]);
            prop_assert_eq!(sha256_x8(&leaves(&refs(&msgs))), refs(&msgs).map(crate::digest::sha256));
        }

        #[test]
        fn x16_equals_one_scalar_hash_per_lane(seed in 0u64..u64::MAX, len in 0usize..5000) {
            let msgs = group(seed, [len; 16]);
            prop_assert_eq!(sha256_x16(&leaves(&refs(&msgs))), refs(&msgs).map(crate::digest::sha256));
        }
    }
}
