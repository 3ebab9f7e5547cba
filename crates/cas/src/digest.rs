//! The 256-bit content digest: an in-crate SHA-256 (FIPS 180-4) plus a
//! chunked, [`DataPlane`]-parallel content-digest scheme.
//!
//! The workspace has no network access, so the hash is implemented here
//! against the published test vectors rather than pulled from crates.io.
//! Payload digests use a *chunked* construction so large images can be
//! hashed in parallel on the data plane while staying byte-identical at
//! any thread count: the payload is split into fixed [`CHUNK_BYTES`]
//! pieces (a pure function of the length), each chunk — a *leaf* — is
//! SHA-256'd independently, and the final digest is SHA-256 over the
//! big-endian payload length followed by the leaf digests in order. The
//! leaves are the part that fans out: over `plane.map_spans`, and inside
//! each worker over the lanes of a lockstep kernel — sixteen on a CPU
//! with AVX-512F, eight on one with AVX2 and without the SHA extensions —
//! which [`content_digests`] fills with the leaves of many payloads at
//! once.
//!
//! A payload in pieces (a sealed image is thousands) is hashed where its
//! pieces lie: a [`Leaf`] is a run of slices, and a [`Cursor`] reads it a
//! 64-byte block at a time, in place, copying only a block that straddles
//! two slices into its 64-byte scratch.

use bytes::Pieces;
use ros_disk::plane::DataPlane;

/// Fixed chunking granularity of [`content_digest`]. Chunk boundaries
/// depend only on the payload length, never on the thread count, so the
/// digest is stable across plane configurations.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 initial hash state (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 round with the eight working variables named in their
/// current roles, so eight consecutive calls rotate the roles through
/// the argument order instead of shuffling eight registers per round.
/// `ch` and `maj` are in their three-operation forms.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
    };
}

/// One SHA-256 compression over a 64-byte block: a rolling 16-word
/// message schedule, extended eight words at a time just ahead of the
/// eight unrolled rounds that consume them. Checked against the
/// loop-form `sha256_reference` in the tests.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in (0..64).step_by(8) {
        let i = t & 15;
        if t >= 16 {
            for j in i..i + 8 {
                let w15 = w[(j + 1) & 15];
                let w2 = w[(j + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[j] = w[j]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) & 15])
                    .wrapping_add(s1);
            }
        }
        let k = &K[t..t + 8];
        let w = &w[i..i + 8];
        round!(a, b, c, d, e, f, g, h, k[0].wrapping_add(w[0]));
        round!(h, a, b, c, d, e, f, g, k[1].wrapping_add(w[1]));
        round!(g, h, a, b, c, d, e, f, k[2].wrapping_add(w[2]));
        round!(f, g, h, a, b, c, d, e, k[3].wrapping_add(w[3]));
        round!(e, f, g, h, a, b, c, d, k[4].wrapping_add(w[4]));
        round!(d, e, f, g, h, a, b, c, k[5].wrapping_add(w[5]));
        round!(c, d, e, f, g, h, a, b, k[6].wrapping_add(w[6]));
        round!(b, c, d, e, f, g, h, a, k[7].wrapping_add(w[7]));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The block kernels [`finish_at`] can run. Which one production takes
/// is a property of the host ([`host_kernel`]), not a setting; the tests
/// name each in turn so every arm is checked on one host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// The scalar `compress` alone, on every target.
    Compress,
    /// Every block, padding included, through the SHA-extensions kernel
    /// where the CPU has SHA, SSSE3 and SSE4.1; `compress` elsewhere.
    ShaExtensions,
}

/// The kernel [`finish`] runs here: the SHA extensions where the CPU has
/// them, else `compress`.
fn host_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if crate::lanes::sha_extensions() {
        return Kernel::ShaExtensions;
    }
    Kernel::Compress
}

/// Compresses `blocks` into `state` with `kernel`, where the CPU runs
/// it, and with `compress` whatever the kernel leaves.
fn absorb(kernel: Kernel, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    let blocks = match kernel {
        Kernel::Compress => blocks,
        Kernel::ShaExtensions => crate::lanes::compress_sha(state, blocks),
    };
    for block in blocks {
        compress(state, block);
    }
}

/// Finishes a SHA-256 whose first `total_len - rest.len()` bytes are
/// already absorbed into `state` with `kernel`: absorbs the whole blocks
/// of `rest`, then the padding (0x80, zeros, the bit length of the whole
/// message as a big-endian u64) in one or two final blocks. Every kernel
/// pads through here, so all pad identically. `kernel` is a parameter
/// so the tests can pin every arm on one host, not a setting.
fn finish_at(kernel: Kernel, mut state: [u32; 8], rest: &[u8], total_len: usize) -> [u8; 32] {
    let (blocks, rest) = rest.as_chunks::<64>();
    absorb(kernel, &mut state, blocks);
    let mut tail = [[0u8; 64]; 2];
    let flat = tail.as_flattened_mut();
    flat[..rest.len()].copy_from_slice(rest);
    flat[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (total_len as u64).wrapping_mul(8);
    flat[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    absorb(kernel, &mut state, &tail[..tail_len / 64]);
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 in the shape FIPS 180-4 §6.2.2 prints it — 64-word schedule,
/// one round per loop turn, `Ch` and `Maj` as written there, the padded
/// message built whole — kept as the oracle for every production kernel.
#[cfg(test)]
pub(crate) fn sha256_reference(data: &[u8]) -> [u8; 32] {
    let mut msg = data.to_vec();
    msg.push(0x80);
    msg.resize(msg.len().next_multiple_of(64), 0);
    if msg.len() - data.len() < 9 {
        msg.resize(msg.len() + 64, 0);
    }
    let at = msg.len() - 8;
    msg[at..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (t, word) in w.iter_mut().take(16).enumerate() {
            let i = t * 4;
            *word = u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of a byte slice (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    finish_at(host_kernel(), H0, data, data.len())
}

/// A leaf as [`cut_leaves`] found it: its bytes as a run of slices, in
/// order, each where it lies — one slice for a leaf inside one piece.
pub(crate) type Leaf<'a> = &'a [&'a [u8]];

/// The bytes of `leaf`.
fn leaf_len(leaf: Leaf<'_>) -> usize {
    leaf.iter().map(|slice| slice.len()).sum()
}

/// SHA-256 of a leaf's bytes, read where they lie.
pub(crate) fn sha256_leaf(leaf: Leaf<'_>) -> [u8; 32] {
    Cursor::new(leaf).finish(H0)
}

#[cfg(test)]
thread_local! {
    /// Leaf bytes this thread's cursors have copied into scratch, for a
    /// block that straddles two slices.
    static STRADDLE_COPIES: core::cell::Cell<usize> = const { core::cell::Cell::new(0) };
}

/// Runs `f` and returns the leaf bytes cursors on this thread copied
/// into scratch meanwhile.
#[cfg(test)]
pub(crate) fn straddle_copies(f: impl FnOnce()) -> usize {
    let before = STRADDLE_COPIES.with(core::cell::Cell::get);
    f();
    STRADDLE_COPIES.with(core::cell::Cell::get) - before
}

/// A read position in a [`Leaf`], a 64-byte block at a time: every block
/// that lies inside one slice is read in place, and only a block that
/// straddles two or more slices is copied, into the cursor's scratch.
#[derive(Clone, Copy)]
pub(crate) struct Cursor<'a> {
    /// The unread rest of the current slice; empty only at the end.
    head: &'a [u8],
    /// The slices after it.
    tail: &'a [&'a [u8]],
    /// Unread bytes, `head` and `tail` together.
    left: usize,
    /// The leaf's bytes.
    len: usize,
    scratch: [u8; 64],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(leaf: Leaf<'a>) -> Self {
        let len = leaf_len(leaf);
        let mut cursor = Cursor {
            head: &[],
            tail: leaf,
            left: len,
            len,
            scratch: [0; 64],
        };
        cursor.settle();
        cursor
    }

    /// Steps past exhausted slices, so `head` is empty only at the end.
    fn settle(&mut self) {
        while self.head.is_empty() {
            let Some((next, rest)) = self.tail.split_first() else {
                return;
            };
            (self.head, self.tail) = (next, rest);
        }
    }

    /// Whole blocks left to read.
    pub(crate) fn blocks_left(&self) -> usize {
        self.left / 64
    }

    /// The whole blocks next in the current slice, in place.
    pub(crate) fn in_place(&self) -> &'a [[u8; 64]] {
        self.head.as_chunks::<64>().0
    }

    /// Steps past the first `n` blocks of [`Cursor::in_place`].
    pub(crate) fn skip(&mut self, n: usize) {
        let bytes = n.saturating_mul(64).min(self.head.len());
        self.head = &self.head[bytes..];
        self.left -= bytes;
        self.settle();
    }

    /// Copies up to 64 of the next bytes into the scratch block, zeros
    /// after them, and returns how many it copied.
    fn gather(&mut self) -> usize {
        let mut filled = 0;
        while filled < 64 && !self.head.is_empty() {
            let n = self.head.len().min(64 - filled);
            self.scratch[filled..filled + n].copy_from_slice(&self.head[..n]);
            self.head = &self.head[n..];
            filled += n;
            self.settle();
        }
        self.scratch[filled..].fill(0);
        self.left -= filled;
        filled
    }

    /// The next block: in place where the current slice holds it whole,
    /// else copied into the scratch block from the slices it straddles.
    /// Called only while [`Cursor::blocks_left`] is non-zero.
    pub(crate) fn block(&mut self) -> &[u8; 64] {
        if let Some((block, rest)) = self.head.split_first_chunk::<64>() {
            self.head = rest;
            self.left -= 64;
            self.settle();
            return block;
        }
        let _copied = self.gather();
        #[cfg(test)]
        STRADDLE_COPIES.with(|n| n.set(n.get() + _copied));
        &self.scratch
    }

    /// Finishes the SHA-256 of the leaf whose bytes before the cursor are
    /// absorbed into `state`: the whole blocks of each slice where they
    /// lie, a straddling block from the scratch, then the padding.
    pub(crate) fn finish(mut self, mut state: [u32; 8]) -> [u8; 32] {
        let kernel = host_kernel();
        while self.blocks_left() > 0 {
            let blocks = self.in_place();
            if blocks.is_empty() {
                absorb(kernel, &mut state, core::slice::from_ref(self.block()));
            } else {
                absorb(kernel, &mut state, blocks);
                self.skip(blocks.len());
            }
        }
        let rest = self.gather();
        finish_at(kernel, state, &self.scratch[..rest], self.len)
    }
}

/// An interned 256-bit content digest.
///
/// `Copy`, totally ordered and hashable, so it can key `BTreeMap`s and
/// travel by value through the engine without allocation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Wraps raw digest bytes (e.g. from a test vector).
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Serial content digest of a payload (single-threaded plane), for
    /// tests.
    #[cfg(test)]
    pub(crate) fn of(data: &[u8]) -> Self {
        content_digest(data, &DataPlane::single())
    }

    /// Lowercase hex rendering of the full digest.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for &b in &self.0 {
            s.push(char::from(HEX[usize::from(b >> 4)]));
            s.push(char::from(HEX[usize::from(b & 0x0f)]));
        }
        s
    }

    /// First 8 hex characters — a human-scale fingerprint for logs.
    pub(crate) fn short(&self) -> String {
        let mut s = self.to_hex();
        s.truncate(8);
        s
    }
}

impl core::fmt::Display for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl core::fmt::Debug for Digest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

/// How many leaves the packer puts in one lockstep group on this host:
/// 16 where the CPU reports AVX-512F, whether or not `sha256` runs the SHA
/// extensions; 8 where it reports AVX2 and `sha256` does not run them,
/// whose single stream outruns an eight-lane pass; else 1 (leaf by leaf).
/// Observed, not configured; no digest depends on it.
pub(crate) fn lockstep_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::lanes::avx512f() {
            return 16;
        }
        if crate::lanes::avx2() && host_kernel() != Kernel::ShaExtensions {
            return 8;
        }
    }
    1
}

/// The fewest leaves a group needs to take the sixteen-lane pass: 10
/// where `sha256` runs the SHA extensions, else 3. On 16 KiB leaves (a
/// 2-vCPU x86-64 host with `sha_ni` and `avx512f`) a sixteen-lane pass
/// takes 99–103 µs in most runs of best-of-300 and up to 124 µs in the
/// host's slow runs, and one SHA-extensions leaf 11.2–12.0 µs: the pass
/// breaks even at 8.8–9.1 of its 16 lanes, 10–11 in the slow runs.
/// Against `compress` it costs less than an eight-lane pass, so three
/// leaves win as they do there.
#[cfg(target_arch = "x86_64")]
fn x16_floor() -> usize {
    if host_kernel() == Kernel::ShaExtensions {
        10
    } else {
        3
    }
}

/// SHA-256 of every leaf chunk in one worker's span, in order, in
/// lockstep groups of at most `width` lanes (1 is leaf by leaf through
/// `sha256_leaf`).
///
/// Span first, lanes second: the plane has already split the leaves
/// across its threads, and each worker packs only its own span — forming
/// groups before the split would hand a two-leaf image to one thread and
/// leave the other idle. Leaves are taken longest first, so neighbours
/// in a group are as near equal as the span allows (full leaves from any
/// payload together, then the tails in falling order). A group closes at
/// `width` lanes or at the first leaf under half its longest, which
/// would cut the lockstep prefix short for every other lane and starts
/// the next group instead.
fn sha256_span_at(width: usize, span: &[Leaf<'_>]) -> Vec<[u8; 32]> {
    if width < 3 || span.len() < 3 {
        return span.iter().map(|leaf| sha256_leaf(leaf)).collect();
    }
    let lens: Vec<usize> = span.iter().map(|leaf| leaf_len(leaf)).collect();
    let mut order: Vec<usize> = (0..span.len()).collect();
    order.sort_by_key(|&i| core::cmp::Reverse(lens[i]));
    let mut out = vec![[0u8; 32]; span.len()];
    let mut rest = order.as_slice();
    while let Some(&longest) = rest.first() {
        let floor = lens[longest] / 2;
        let fits = |&&i: &&usize| lens[i] >= floor;
        let lanes = rest.iter().take(width.min(16)).take_while(fits).count();
        let (group, later) = rest.split_at(lanes);
        rest = later;
        sha256_group(width, group, span, &mut out);
    }
    out
}

#[cfg(all(test, target_arch = "x86_64"))]
thread_local! {
    /// Sixteen-lane passes this thread's packer has run.
    static X16_PASSES: core::cell::Cell<usize> = const { core::cell::Cell::new(0) };
}

/// Hashes leaves `group` of `span` (longest first, at most `width`) into
/// their slots of `out`. The spare lanes of a pass repeat the shortest
/// leaf, whose remainder after the common prefix is under a block, and
/// read its blocks from its own lane, so a block of it that straddles
/// pieces is copied once, not once per lane:
/// - past width 8, one sixteen-lane pass if the group has at least
///   [`x16_floor`] leaves;
/// - at widths 3–8, one eight-lane pass if it has more than two. Timed
///   on 256 KiB leaves (a 2-vCPU x86-64 host with AVX2), that pass costs
///   1.8–2.1 scalar `compress` hashes, a per-block ratio that holds on
///   16 KiB leaves: three leaves win, two do not.
///   Where `sha256` runs the SHA extensions it costs about 12.5 of their
///   hashes, so no group wins and the packer is never handed width 8
///   there ([`lockstep_lanes`]).
///
/// Smaller groups go one leaf at a time through `sha256_leaf`.
fn sha256_group(width: usize, group: &[usize], span: &[Leaf<'_>], out: &mut [[u8; 32]]) {
    #[cfg(target_arch = "x86_64")]
    {
        let mut lanes: [Leaf<'_>; 16] = [&[]; 16];
        for (lane, &i) in lanes.iter_mut().zip(group) {
            *lane = span[i];
        }
        let leaves = &lanes[..group.len().min(16)];
        let mut put = |digests: &[[u8; 32]]| {
            for (&i, digest) in group.iter().zip(digests) {
                out[i] = *digest;
            }
        };
        if width > 8 && group.len() >= x16_floor() {
            #[cfg(test)]
            X16_PASSES.with(|n| n.set(n.get() + 1));
            return put(&crate::lanes::sha256_x16(leaves));
        }
        if width <= 8 && group.len() > 2 {
            return put(&crate::lanes::sha256_x8(leaves));
        }
    }
    for &i in group {
        out[i] = sha256_leaf(span[i]);
    }
}

/// Content digests of many payloads at once, leaf-hashed on the data
/// plane: `payloads.map(|p| content_digest(p, plane))`, faster.
///
/// The leaf chunks of *all* payloads form one ordered list, the plane's
/// workers take contiguous spans of it, and each worker packs its span
/// into lockstep groups — so eight two-leaf images fill lanes that each
/// of them alone would leave to the scalar kernel. Byte-identical at any
/// plane thread count, any lane width and any cut of a payload into
/// [`Pieces`]: the leaf layout is a pure function of the payload
/// lengths, `plane.map_spans` preserves item order, a leaf's digest is
/// the same from every kernel, and each root hash binds its payload's
/// length so `content_digest` of a payload never collides with `sha256`
/// of its concatenated leaf digests.
pub fn content_digests<P: Pieces + ?Sized>(payloads: &[&P], plane: &DataPlane) -> Vec<Digest> {
    content_digests_at(lockstep_lanes(), payloads, plane)
}

/// Cuts `payload` into its [`CHUNK_BYTES`] leaves, in order: each
/// leaf's slices onto `slices`, and where the leaf's run ends in
/// `slices` onto `ends`. Nothing is copied; a leaf inside one piece is
/// one slice, and a plain slice payload is one slice per leaf.
fn cut_leaves<'a, P: Pieces + ?Sized>(
    payload: &'a P,
    slices: &mut Vec<&'a [u8]>,
    ends: &mut Vec<usize>,
) {
    // Bytes the leaf under way still wants.
    let mut want = CHUNK_BYTES;
    for mut piece in payload.pieces() {
        while !piece.is_empty() {
            let (slice, rest) = piece.split_at(want.min(piece.len()));
            slices.push(slice);
            want -= slice.len();
            piece = rest;
            if want == 0 {
                ends.push(slices.len());
                want = CHUNK_BYTES;
            }
        }
    }
    if want < CHUNK_BYTES {
        ends.push(slices.len());
    }
}

/// [`content_digests`] with lockstep groups of at most `width` lanes. A
/// parameter so the tests can pin every width on one host, not a
/// setting: production passes what the CPU reports.
fn content_digests_at<P: Pieces + ?Sized>(
    width: usize,
    payloads: &[&P],
    plane: &DataPlane,
) -> Vec<Digest> {
    let (mut slices, mut ends) = (Vec::new(), Vec::new());
    for payload in payloads {
        cut_leaves(*payload, &mut slices, &mut ends);
    }
    let mut start = 0;
    let leaves: Vec<Leaf<'_>> = ends
        .iter()
        .map(|&end| {
            let leaf = &slices[start..end];
            start = end;
            leaf
        })
        .collect();
    let leaf_digests = plane.map_spans(&leaves, |span| sha256_span_at(width, span));
    let mut unclaimed = leaf_digests.as_slice();
    let mut root = Vec::new();
    payloads
        .iter()
        .map(|p| {
            let len = p.total_len();
            let (mine, later) = unclaimed.split_at(len.div_ceil(CHUNK_BYTES));
            unclaimed = later;
            root.clear();
            root.extend_from_slice(&(len as u64).to_be_bytes());
            root.extend_from_slice(mine.as_flattened());
            Digest(sha256(&root))
        })
        .collect()
}

/// Content digest of one payload: [`content_digests`] of a one-element
/// list, so there is one path and one value.
pub fn content_digest<P: Pieces + ?Sized>(data: &P, plane: &DataPlane) -> Digest {
    content_digests(&[data], plane)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8; 32]) -> String {
        Digest::from_bytes(*bytes).to_hex()
    }

    /// Each slice as a leaf of one slice.
    fn one_slice_leaves<'a>(slices: &'a [&'a [u8]]) -> Vec<Leaf<'a>> {
        slices.iter().map(core::slice::from_ref).collect()
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes()[7])
            .collect()
    }

    /// `pattern` repeats every 256 bytes, so all of its chunks are the
    /// same bytes and eight lanes would carry one message; this takes
    /// the high byte of the same product, so every chunk differs and a
    /// lane swap cannot hide.
    fn wide_pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes()[0])
            .collect()
    }

    #[test]
    fn fips_180_4_test_vectors() {
        // NIST FIPS 180-4 / CAVP vectors: empty, 24-bit, 448-bit and
        // 896-bit (the one-million-'a' long message has its own test).
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn fips_180_4_million_a_vector() {
        let million = vec![b'a'; 1_000_000];
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(hex(&sha256(&million)), expect);
        assert_eq!(hex(&sha256_reference(&million)), expect);
    }

    #[test]
    fn padding_boundaries_are_exact() {
        // 55/56/63/64 bytes straddle the one-vs-two final block split.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let d = sha256(&data);
            let again = sha256(&data);
            assert_eq!(d, again, "len {len}");
            let mut tweaked = data.clone();
            tweaked[len - 1] ^= 1;
            assert_ne!(d, sha256(&tweaked), "len {len} must discriminate");
        }
    }

    /// What is recorded on disc must not drift: neither the single-chunk
    /// path nor a block kernel may change these. Values computed
    /// independently with Python's `hashlib` from the construction in the
    /// module docs, `d` being the payload:
    /// `sha256(len(d).to_bytes(8,'big') + b''.join(sha256(d[i:i+16384]).digest() for i in range(0, len(d), 16384)))`.
    /// Re-pinned twice: when `CHUNK_BYTES` went from 256 KiB to 64 KiB,
    /// and again from 64 KiB to 16 KiB.
    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn content_digest_golden_values_are_pinned() {
        let golden = [
            (
                0,
                "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            ),
            (
                1,
                "f116abd57c3e0560fd70ec4abc84e1a1385d3aaa1a936cdda4bfefbcf099a26c",
            ),
            (
                CHUNK_BYTES - 1,
                "3a63c28590b3ef77d850fa22485d016a938c56700707645799abb98b86a7c9c4",
            ),
            (
                CHUNK_BYTES,
                "99f0acf6b3fc267324fe380312a83b90bff0cc45093aca91a2f9dc0afd775005",
            ),
            (
                CHUNK_BYTES + 1,
                "1b345872dee1f5b482bd23042f1bce5663cef23c0514c98f2ceb20e17a145f4e",
            ),
            (
                2 * CHUNK_BYTES + 12_345,
                "72b548de66492a2a5ccb20a33a9044d1a5722a30f0d0087c91aa9cf60953e3b5",
            ),
        ];
        let data = pattern(2 * CHUNK_BYTES + 12_345);
        for (len, expect) in golden {
            for threads in [1, 2, 4, 8] {
                let got = content_digest(&data[..len], &DataPlane::new(threads));
                assert_eq!(got.to_hex(), expect, "len {len} threads {threads}");
            }
        }
    }

    /// Long enough to form lane groups in a worker's span at every plane
    /// width: 4 chunks (one padded eight-lane group at 1 thread, none at
    /// 2), 4 + a 1-byte chunk, 8 less one byte (the group is ragged), 16
    /// (one full sixteen-lane group at 1 thread), and 17 + a 777-byte
    /// chunk. Values from Python's `hashlib` over `wide_pattern`, by the
    /// expression on `content_digest_golden_values_are_pinned`.
    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn lockstep_length_golden_values_are_pinned() {
        let golden = [
            (
                4 * CHUNK_BYTES,
                "c0da0e92be21255e55fa177aebfb071dee8bb7f559c8c4485039929191deb790",
            ),
            (
                4 * CHUNK_BYTES + 1,
                "9ec42cb7bf4009a5eebb412e4901e5df5e79e28dbed9703532d278c4eb271b2b",
            ),
            (
                8 * CHUNK_BYTES - 1,
                "496bfd2aad374f8b880c20bece42cc06677ee36546ccfc869ab5e65b840b0d33",
            ),
            (
                16 * CHUNK_BYTES,
                "5f2f8b9bcb1376d8ad77eb3832e776c4f8994057cfcadd9f96d0a5075d5bee30",
            ),
            (
                17 * CHUNK_BYTES + 777,
                "ee8a781b249c93e36223c266dd832d26653440f67b33a2c56448ad2a382cfc87",
            ),
        ];
        let data = wide_pattern(17 * CHUNK_BYTES + 777);
        for (len, expect) in golden {
            for threads in [1, 2, 3, 4] {
                let got = content_digest(&data[..len], &DataPlane::new(threads));
                assert_eq!(got.to_hex(), expect, "len {len} threads {threads}");
            }
        }
    }

    /// One leaf count per packing case on a 1–4 thread plane: 7 (a padded
    /// eight-lane group; 4 + 3 on two threads), 9 (a full eight-lane group
    /// and a scalar leftover; one under the sixteen-lane floor), 10 (the
    /// floor on one thread), 14 (7 + 7), 15 (8 + 7; one padded sixteen-lane
    /// group), 20 (10 + 10: at the floor on each of two threads), 24 + a
    /// 777-byte tail (full groups, then the tail alone under the
    /// half-length floor), 32 and 64 (full groups at both lane widths on
    /// one and two threads). Values
    /// from Python's `hashlib` over `wide_pattern`, by the expression on
    /// `content_digest_golden_values_are_pinned` — at the detected width
    /// through the public entry point, and at one forced width of
    /// {1, 8, 16} per plane, rotating so every length meets all three
    /// (hashing each case at every width would triple a slow debug-build
    /// test). On a host without AVX2 or AVX-512F a forced width hashes
    /// each lane alone, so the packing is covered there too.
    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn packing_golden_values_are_pinned_at_every_width() {
        let golden = [
            (
                7 * CHUNK_BYTES,
                "c9447a0f6a5571890be39ae72d2f89b6424101d33b05dac4ff1caa6796d943c4",
            ),
            (
                9 * CHUNK_BYTES,
                "54b409a56a466a1753924b1ce08f974cf90bcad3a0dbdd641d58def296070e15",
            ),
            (
                10 * CHUNK_BYTES,
                "066a0b30fd119420524c1563320b511df53c62d6808af6907b371430df8262e1",
            ),
            (
                14 * CHUNK_BYTES,
                "6258b346916a5da6f2a0c09738bff10b89211b6527dcee92a73631f1a4873466",
            ),
            (
                15 * CHUNK_BYTES,
                "275bd1dd8df400ae18bae4991faaa9c0fcbd7860f0d4568155cc691823ad9394",
            ),
            (
                20 * CHUNK_BYTES,
                "1242f90afd4585715e8d48a977f2fb6b803e123e597e40867f3f0e972453f697",
            ),
            (
                24 * CHUNK_BYTES + 777,
                "d2d988b7050ca2ac2ae1c41e0601aaf857a5a88b674e0082f6e24f06917c35a7",
            ),
            (
                32 * CHUNK_BYTES,
                "0988cc7015a7661f5c8ed090b68f770f0566af03220b50984d9c8976752b6783",
            ),
            (
                64 * CHUNK_BYTES,
                "f7384f3b023d693e01c22591ada022b55cb0f7ab3b1e4ab1b2d816f36a5c95ff",
            ),
        ];
        let data = wide_pattern(64 * CHUNK_BYTES);
        for (case, (len, expect)) in golden.into_iter().enumerate() {
            for threads in [1, 2, 3, 4] {
                let plane = DataPlane::new(threads);
                let got = content_digest(&data[..len], &plane);
                assert_eq!(got.to_hex(), expect, "len {len} threads {threads}");
                let width = [1, 8, 16][(case + threads) % 3];
                let got = content_digests_at(width, &[&data[..len]], &plane)[0];
                assert_eq!(
                    got.to_hex(),
                    expect,
                    "len {len} threads {threads} width {width}"
                );
            }
        }
    }

    #[test]
    fn every_width_packs_a_ragged_span_to_the_scalar_digests() {
        // Leaves need not be whole chunks for the packer: full-length
        // ones, a run of tails, one tiny leaf in the middle of what would
        // be a group, and a one-byte straggler; fourteen leaves reach half
        // the longest, enough for a sixteen-lane pass — small enough for
        // Miri.
        let data = wide_pattern(1024);
        let lens = [
            200usize, 200, 3, 200, 198, 200, 140, 99, 200, 200, 64, 1, 200, 196, 200, 200, 120, 200,
        ];
        let slices: Vec<&[u8]> = lens.iter().map(|&len| &data[len..2 * len]).collect();
        let span = one_slice_leaves(&slices);
        let expect: Vec<[u8; 32]> = slices.iter().map(|leaf| sha256_reference(leaf)).collect();
        for width in 1..=16 {
            for take in 0..=span.len() {
                assert_eq!(
                    sha256_span_at(width, &span[..take]),
                    expect[..take],
                    "width {width}, first {take} leaves"
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn no_group_under_the_floor_enters_the_sixteen_lane_pass() {
        // Equal leaves, so the span is one group of `n` at width 16: it
        // takes the pass from the floor up, and hashes the same either
        // way. Where `sha256` runs the SHA extensions the floor is 10.
        if host_kernel() == Kernel::ShaExtensions {
            assert_eq!(x16_floor(), 10);
        }
        let data = wide_pattern(16 * 130);
        let slices: Vec<&[u8]> = data.chunks(130).collect();
        let span = one_slice_leaves(&slices);
        for n in 1..=16 {
            X16_PASSES.with(|p| p.set(0));
            let got = sha256_span_at(16, &span[..n]);
            let passes = X16_PASSES.with(core::cell::Cell::get);
            assert_eq!(passes, usize::from(n >= x16_floor()), "{n} leaves");
            let expect: Vec<[u8; 32]> = slices[..n].iter().map(|l| sha256_reference(l)).collect();
            assert_eq!(got, expect, "{n} leaves");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[cfg_attr(miri, ignore = "hashes half a megabyte; too slow interpreted")]
    fn a_sealed_image_takes_one_sixteen_lane_pass_per_plane_thread() {
        // A ~470 KB image of a 512 KiB-disc rack is 29 leaves, which a
        // 2-thread plane splits 15 + 14: both spans reach the floor, so
        // each is one sixteen-lane pass and no leaf runs alone.
        let data = wide_pattern(28 * CHUNK_BYTES + 11_000);
        let slices: Vec<&[u8]> = data.chunks(CHUNK_BYTES).collect();
        let leaves = one_slice_leaves(&slices);
        let spans = DataPlane::new(2).map_spans(&leaves, |span| {
            X16_PASSES.with(|p| p.set(0));
            let got = sha256_span_at(16, span);
            let expect: Vec<[u8; 32]> = span.iter().map(|leaf| sha256(leaf[0])).collect();
            assert_eq!(got, expect);
            vec![(span.len(), X16_PASSES.with(core::cell::Cell::get))]
        });
        assert_eq!(spans, [(15, 1), (14, 1)]);
    }

    /// `sha256` through `kernel` where the CPU runs it (`compress` where
    /// it does not), so every dispatch arm is tested on one host.
    fn sha256_at(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        finish_at(kernel, H0, data, data.len())
    }

    /// The arms of `finish_at` worth testing here: `compress` and, where
    /// the CPU has them, the SHA extensions. Elsewhere that arm would
    /// test `compress` a second time, so it is skipped with a printed
    /// line instead.
    fn arms() -> Vec<Kernel> {
        let mut arms = vec![Kernel::Compress];
        if host_kernel() == Kernel::ShaExtensions {
            arms.push(Kernel::ShaExtensions);
        } else {
            println!("SHA-extensions arm skipped: this CPU lacks sha, ssse3 or sse4.1");
        }
        arms
    }

    #[test]
    fn both_dispatch_arms_match_the_fips_shaped_reference() {
        // Every padding shape (one or two final blocks, with and
        // without whole blocks before them); one block, eight, eight with
        // 1–7 blocks or a sub-block tail after them, and many; then some
        // of them from misaligned starts — for every arm.
        let data = wide_pattern(4160 + 64);
        let lens = [
            0usize, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 511, 512, 513, 575, 1000, 1023,
            1024, 1025, 2600, 4096, 4160,
        ];
        for kernel in arms() {
            for len in lens {
                let msg = &data[..len];
                let expect = sha256_reference(msg);
                assert_eq!(sha256_at(kernel, msg), expect, "{kernel:?} len {len}");
            }
            for offset in 1..8 {
                for len in [513usize, 1024, 2600] {
                    let msg = &data[offset * 9..offset * 9 + len];
                    let expect = sha256_reference(msg);
                    assert_eq!(
                        sha256_at(kernel, msg),
                        expect,
                        "{kernel:?} offset {} len {len}",
                        offset * 9
                    );
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "whole-chunk messages are too slow interpreted")]
    fn both_dispatch_arms_match_the_reference_on_a_whole_leaf() {
        let data = wide_pattern(CHUNK_BYTES + 8);
        for kernel in arms() {
            for (offset, len) in [(0, CHUNK_BYTES), (0, CHUNK_BYTES + 1), (7, CHUNK_BYTES)] {
                let msg = &data[offset..offset + len];
                let expect = sha256_reference(msg);
                assert_eq!(sha256_at(kernel, msg), expect, "{kernel:?} len {len}");
            }
        }
    }

    // Random multi-KB messages are too slow interpreted.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn both_dispatch_arms_equal_the_reference(len in 0usize..20_000, offset in 0usize..64) {
            let data = wide_pattern(offset + len);
            let msg = &data[offset..];
            let expect = sha256_reference(msg);
            for kernel in arms() {
                proptest::prop_assert_eq!(sha256_at(kernel, msg), expect, "{:?}", kernel);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn content_digest_is_thread_count_invariant() {
        // Straddle several chunk boundaries.
        let data = pattern(2 * CHUNK_BYTES + 12_345);
        let expect = content_digest(&data, &DataPlane::single());
        for threads in [2, 4, 8] {
            let got = content_digest(&data, &DataPlane::new(threads));
            assert_eq!(got, expect, "threads={threads}");
        }
        assert_eq!(Digest::of(&data), expect);
    }

    /// `data` as a [`bytes::Parts`] cut at `cuts` (any order, duplicates
    /// and out-of-range cuts allowed).
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

    #[test]
    #[cfg_attr(miri, ignore = "hashes half a megabyte; too slow interpreted")]
    fn no_leaf_byte_is_copied_but_a_block_that_straddles_pieces() {
        let data = wide_pattern(4 * CHUNK_BYTES + 100);
        let plane = DataPlane::single();
        let flat = content_digest(&data[..], &plane);
        // Cuts on block boundaries: every block lies in one piece.
        let aligned = parted(
            &data,
            &[CHUNK_BYTES, CHUNK_BYTES + 64, 3 * CHUNK_BYTES + 640],
        );
        // Leaf 1 starts with a 10-byte piece and leaf 3 with a 50-byte
        // one: one block of each straddles two pieces. Leaf 3 is the
        // last of the four-leaf lockstep group, which the spare lanes
        // repeat; they read its straddling block from its lane, so it
        // is copied once at every width.
        let ragged = parted(
            &data,
            &[CHUNK_BYTES, CHUNK_BYTES + 10, 3 * CHUNK_BYTES + 50],
        );
        for width in [1, 8, 16] {
            let digest = |p: &bytes::Parts| content_digests_at(width, &[p], &plane)[0];
            let copies = straddle_copies(|| assert_eq!(digest(&aligned), flat));
            assert_eq!(
                copies, 0,
                "width {width}: a block inside a piece was copied"
            );
            let copies = straddle_copies(|| assert_eq!(digest(&ragged), flat));
            assert_eq!(
                copies,
                2 * 64,
                "width {width}: only the two straddling blocks"
            );
            let copies = straddle_copies(|| {
                assert_eq!(content_digests_at(width, &[&data[..]], &plane)[0], flat);
            });
            assert_eq!(copies, 0, "width {width}: a plain slice is never copied");
        }
        let (mut slices, mut ends) = (Vec::new(), Vec::new());
        cut_leaves(&ragged, &mut slices, &mut ends);
        // Leaves 1 and 3 are two slices each, the others one.
        assert_eq!(ends, [1, 3, 4, 6, 7]);
    }

    /// A shared 2 KB zero block, and `len` bytes of `wide_pattern`
    /// (zeroed where a run of zero views goes) cut the way a sealed
    /// image is: data pieces of 1–200 B, cuts at and 1 B either side of
    /// 64 B block and leaf boundaries, and runs of views of the zero
    /// block. Returns the flat bytes and the pieces.
    fn image_shaped(seed: u64, len: usize) -> (Vec<u8>, bytes::Parts) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let zero = bytes::Bytes::from(vec![0u8; 2048]);
        let mut flat = wide_pattern(len);
        let whole = bytes::Bytes::copy_from_slice(&flat);
        let mut parts = bytes::Parts::new();
        let mut at = 0;
        while at < len {
            let left = len - at;
            let end = match rng.gen::<u32>() % 5 {
                0 => {
                    // A run of zero views, as an image's pads.
                    for _ in 0..1 + rng.gen::<usize>() % 8 {
                        let n = (64 + rng.gen::<usize>() % 1985).min(len - at);
                        parts.push(zero.slice(..n));
                        flat[at..at + n].fill(0);
                        at += n;
                        if at == len {
                            break;
                        }
                    }
                    continue;
                }
                1 => (at / 64 + 1) * 64 + rng.gen::<usize>() % 3 - 1,
                2 => (at / CHUNK_BYTES + 1) * CHUNK_BYTES + rng.gen::<usize>() % 3 - 1,
                _ => at + 1 + rng.gen::<usize>() % 200,
            };
            let end = end.clamp(at + 1, at + left);
            parts.push(whole.slice(at..end));
            at = end;
        }
        (flat, parts)
    }

    /// The pinned vectors of `content_digest_golden_values_are_pinned`
    /// and the longest two of `lockstep_length_golden_values_are_pinned`,
    /// each payload cut at, and 1 B either side of, every 64 B block and
    /// 16 KiB leaf boundary — every block straddles a cut — at every lane
    /// width on one and two plane threads.
    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn a_payload_cut_at_every_boundary_digests_to_the_pinned_vectors() {
        let cuts = |len: usize| -> Vec<usize> {
            (64..len)
                .step_by(64)
                .flat_map(|b| [b - 1, b, b + 1])
                .chain(
                    (CHUNK_BYTES..len)
                        .step_by(CHUNK_BYTES)
                        .flat_map(|b| [b - 1, b + 1]),
                )
                .collect()
        };
        let pattern_data = pattern(2 * CHUNK_BYTES + 12_345);
        let wide_data = wide_pattern(17 * CHUNK_BYTES + 777);
        let golden = [
            (
                &pattern_data,
                0,
                "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
            ),
            (
                &pattern_data,
                1,
                "f116abd57c3e0560fd70ec4abc84e1a1385d3aaa1a936cdda4bfefbcf099a26c",
            ),
            (
                &pattern_data,
                CHUNK_BYTES - 1,
                "3a63c28590b3ef77d850fa22485d016a938c56700707645799abb98b86a7c9c4",
            ),
            (
                &pattern_data,
                CHUNK_BYTES + 1,
                "1b345872dee1f5b482bd23042f1bce5663cef23c0514c98f2ceb20e17a145f4e",
            ),
            (
                &pattern_data,
                2 * CHUNK_BYTES + 12_345,
                "72b548de66492a2a5ccb20a33a9044d1a5722a30f0d0087c91aa9cf60953e3b5",
            ),
            (
                &wide_data,
                16 * CHUNK_BYTES,
                "5f2f8b9bcb1376d8ad77eb3832e776c4f8994057cfcadd9f96d0a5075d5bee30",
            ),
            (
                &wide_data,
                17 * CHUNK_BYTES + 777,
                "ee8a781b249c93e36223c266dd832d26653440f67b33a2c56448ad2a382cfc87",
            ),
        ];
        for (data, len, expect) in golden {
            let parts = parted(&data[..len], &cuts(len));
            for threads in [1, 2] {
                let plane = DataPlane::new(threads);
                for width in [1, 8, 16] {
                    let got = content_digests_at(width, &[&parts], &plane)[0];
                    assert_eq!(
                        got.to_hex(),
                        expect,
                        "len {len} threads {threads} width {width}"
                    );
                }
            }
        }
    }

    // Leaves of a few hundred bytes: sized for Miri.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 64 }
        ))]
        #[test]
        fn leaves_in_slices_hash_as_their_bytes(
            seed in 0u64..u64::MAX,
            lens in proptest::collection::vec(0usize..400, 1..18),
        ) {
            let shaped: Vec<(Vec<u8>, bytes::Parts)> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| image_shaped(seed ^ i as u64, len))
                .collect();
            let runs: Vec<Vec<&[u8]>> = shaped
                .iter()
                .map(|(_, parts)| bytes::Pieces::pieces(parts).collect())
                .collect();
            let span: Vec<Leaf<'_>> = runs.iter().map(Vec::as_slice).collect();
            let expect: Vec<[u8; 32]> = shaped.iter().map(|(flat, _)| sha256_reference(flat)).collect();
            for width in [1, 8, 16] {
                proptest::prop_assert_eq!(&sha256_span_at(width, &span), &expect, "width {}", width);
            }
        }
    }

    // Multi-leaf payloads are too slow interpreted.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn an_image_shaped_payload_digests_as_its_flat_bytes(
            seed in 0u64..u64::MAX,
            len in 0usize..3 * CHUNK_BYTES + 500,
        ) {
            let (flat, parts) = image_shaped(seed, len);
            let (other_flat, other) = image_shaped(seed.wrapping_add(1), len / 3);
            let expect = [
                content_digest(&flat[..], &DataPlane::single()),
                content_digest(&other_flat[..], &DataPlane::single()),
            ];
            for threads in [1, 2] {
                let plane = DataPlane::new(threads);
                for width in [1, 8, 16] {
                    let got = content_digests_at(width, &[&parts, &other], &plane);
                    proptest::prop_assert_eq!(&got[..], &expect[..], "threads {} width {}", threads, width);
                }
            }
        }
    }

    // Random multi-leaf payloads are too slow interpreted.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn a_parted_payload_digests_as_its_flat_bytes(
            len in 0usize..5 * CHUNK_BYTES,
            cuts in proptest::collection::vec(0usize..5 * CHUNK_BYTES, 0..12),
            pick in 0usize..3,
        ) {
            let width = [1, 8, 16][pick];
            let data = wide_pattern(len);
            let parts = parted(&data, &cuts);
            for threads in 1..=4 {
                let plane = DataPlane::new(threads);
                let flat = content_digest(&data[..], &plane);
                proptest::prop_assert_eq!(content_digest(&parts, &plane), flat);
                let batch = content_digests_at(width, &[&parts, &parted(&data, &[len / 2])], &plane);
                proptest::prop_assert_eq!(batch, vec![flat, flat]);
            }
        }
    }

    #[test]
    fn content_digest_binds_length_and_content() {
        assert_ne!(Digest::of(b""), Digest::of(b"\0"));
        assert_ne!(Digest::of(b"ros"), Digest::of(b"ros\0"));
        assert_eq!(Digest::of(b"ros"), Digest::of(b"ros"));
    }

    #[test]
    fn display_and_short_render_hex() {
        let d = Digest::of(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short(), d.to_hex()[..8].to_string());
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
