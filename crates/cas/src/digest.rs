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
//! each worker, on a CPU with AVX2 and without the SHA extensions, over
//! the eight lanes of the lockstep kernel, which [`content_digests`]
//! fills with the leaves of many payloads at once.

use ros_disk::plane::DataPlane;

/// Fixed chunking granularity of [`content_digest`]. Chunk boundaries
/// depend only on the payload length, never on the thread count, so the
/// digest is stable across plane configurations.
pub const CHUNK_BYTES: usize = 256 * 1024;

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
/// already absorbed into `state`: absorbs the whole blocks of `rest`,
/// then the padding (0x80, zeros, the bit length of the whole message
/// as a big-endian u64) in one or two final blocks. Shared by the
/// scalar and the lockstep kernel, so both pad identically, and run by
/// the host's single-stream kernel ([`host_kernel`]).
pub(crate) fn finish(state: [u32; 8], rest: &[u8], total_len: usize) -> [u8; 32] {
    finish_at(host_kernel(), state, rest, total_len)
}

/// [`finish`] with `kernel` in place of the host's. A parameter so the
/// tests can pin every arm on one host, not a setting.
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
    finish(H0, data, data.len())
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

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Serial content digest of a payload (single-threaded plane).
    pub fn of(data: &[u8]) -> Self {
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
    pub fn short(&self) -> String {
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

/// How many leaves the packer puts in one lockstep group on this host: 8
/// where the CPU reports AVX2 and `finish` does not run the SHA
/// extensions, whose single stream outruns an eight-lane pass; else 1
/// (leaf by leaf). Observed, not configured; no digest depends on it.
pub(crate) fn lockstep_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::lanes::avx2() && host_kernel() != Kernel::ShaExtensions {
        return 8;
    }
    1
}

/// SHA-256 of every leaf chunk in one worker's span, in order, in
/// lockstep groups of at most `width` lanes (1 is leaf by leaf through
/// `sha256`).
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
fn sha256_span_at(width: usize, span: &[&[u8]]) -> Vec<[u8; 32]> {
    if width < 3 || span.len() < 3 {
        return span.iter().map(|leaf| sha256(leaf)).collect();
    }
    let mut order: Vec<usize> = (0..span.len()).collect();
    order.sort_by_key(|&i| core::cmp::Reverse(span[i].len()));
    let mut out = vec![[0u8; 32]; span.len()];
    let mut rest = order.as_slice();
    while let Some(&longest) = rest.first() {
        let floor = span[longest].len() / 2;
        let fits = |&&i: &&usize| span[i].len() >= floor;
        let lanes = rest.iter().take(width.min(8)).take_while(fits).count();
        let (group, later) = rest.split_at(lanes);
        rest = later;
        sha256_group(group, span, &mut out);
    }
    out
}

/// Hashes leaves `group` of `span` (longest first, at most eight) into
/// their slots of `out`: one eight-lane lockstep pass if there are more
/// than two, with the spare lanes repeating the shortest leaf, whose
/// remainder after the common prefix is under a block. Smaller groups
/// go one leaf at a time through `sha256`. On 256 KB leaves (a 2-vCPU
/// x86-64 host with AVX2) an eight-lane pass costs 1.8–2.1 scalar
/// `compress` hashes: three leaves win, two do not. Where `sha256` runs
/// the SHA extensions a full pass costs about 12.5 of its hashes, so no
/// group wins and the packer is never handed more than one lane there
/// ([`lockstep_lanes`]).
fn sha256_group(group: &[usize], span: &[&[u8]], out: &mut [[u8; 32]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(&shortest) = group.last().filter(|_| group.len() > 2) {
        let lane = |k: usize| span[group.get(k).copied().unwrap_or(shortest)];
        let digests = crate::lanes::sha256_x8(core::array::from_fn(lane));
        for (&i, digest) in group.iter().zip(&digests) {
            out[i] = *digest;
        }
        return;
    }
    for &i in group {
        out[i] = sha256(span[i]);
    }
}

/// Content digests of many payloads at once, leaf-hashed on the data
/// plane: `payloads.map(|p| content_digest(p, plane))`, faster.
///
/// The leaf chunks of *all* payloads form one ordered list, the plane's
/// workers take contiguous spans of it, and each worker packs its span
/// into lockstep groups — so eight two-leaf images fill lanes that each
/// of them alone would leave to the scalar kernel. Byte-identical at any
/// plane thread count and any lane width: the leaf layout is a pure
/// function of the payload lengths, `plane.map_spans` preserves item
/// order, a leaf's digest is the same from every kernel, and each root
/// hash binds its payload's length so `content_digest` of a payload
/// never collides with `sha256` of its concatenated leaf digests.
pub fn content_digests(payloads: &[&[u8]], plane: &DataPlane) -> Vec<Digest> {
    content_digests_at(lockstep_lanes(), payloads, plane)
}

/// [`content_digests`] with lockstep groups of at most `width` lanes. A
/// parameter so the tests can pin every width on one host, not a
/// setting: production passes what the CPU reports.
fn content_digests_at(width: usize, payloads: &[&[u8]], plane: &DataPlane) -> Vec<Digest> {
    let leaves: Vec<&[u8]> = payloads
        .iter()
        .flat_map(|p| p.chunks(CHUNK_BYTES))
        .collect();
    let leaf_digests = plane.map_spans(&leaves, |span| sha256_span_at(width, span));
    let mut unclaimed = leaf_digests.as_slice();
    let mut root = Vec::new();
    payloads
        .iter()
        .map(|p| {
            let (mine, later) = unclaimed.split_at(p.len().div_ceil(CHUNK_BYTES));
            unclaimed = later;
            root.clear();
            root.extend_from_slice(&(p.len() as u64).to_be_bytes());
            root.extend_from_slice(mine.as_flattened());
            Digest(sha256(&root))
        })
        .collect()
}

/// Content digest of one payload: [`content_digests`] of a one-element
/// list, so there is one path and one value.
pub fn content_digest(data: &[u8], plane: &DataPlane) -> Digest {
    content_digests(&[data], plane)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8; 32]) -> String {
        Digest::from_bytes(*bytes).to_hex()
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

    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn content_digest_golden_values_are_pinned() {
        // What is recorded on disc must never drift: neither the
        // single-chunk path nor a block kernel may change these. Values
        // computed independently (Python hashlib) from the construction
        // in the module docs.
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
                "6387d15e9716510dcd5511a532c048733a6d524f2885605dde43d9786b473072",
            ),
            (
                CHUNK_BYTES,
                "ac970b2027de5e996eb80a5701dfd408b2abbbfcba21ee53be50fbabdfb96b98",
            ),
            (
                CHUNK_BYTES + 1,
                "fa2b008d541553ed451d0b9a3f314056bb7b19c06d29d4d0e2e46de113f115ce",
            ),
            (
                2 * CHUNK_BYTES + 12_345,
                "62e9c02665801d6304059489c3bcb4a33199cedcb60734db1c1fe9a7af161fcf",
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

    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn lockstep_length_golden_values_are_pinned() {
        // Long enough to form lane groups in a worker's span at every
        // plane width: 4 chunks (one padded group at 1 thread, none at
        // 2), 4 + a 1-byte chunk, 8 less one byte (the group is ragged),
        // 16, and 17 + a 777-byte chunk. Values from Python hashlib,
        // as above, over `wide_pattern`.
        let golden = [
            (
                4 * CHUNK_BYTES,
                "ca0742ead4ba1c4eb689db7471343b74bc93965771bb175e0c1ba95a274f041d",
            ),
            (
                4 * CHUNK_BYTES + 1,
                "402aec77c9b4d7be357f95aa2d78403f7bf95e19c539ebbcc70a9dfd7c166cf9",
            ),
            (
                8 * CHUNK_BYTES - 1,
                "1738b568fc24cd8c128b3699d91db2016bb9cb3e565967a3a89c016666ee9fea",
            ),
            (
                16 * CHUNK_BYTES,
                "023aa558d00088cec276bf0b0fe8282e400eb985d64e65e657479f43df56fb45",
            ),
            (
                17 * CHUNK_BYTES + 777,
                "b97eae9c85e105dce96e120c83211addadf475d295a95370bbf5ab05a78ec928",
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

    #[test]
    #[cfg_attr(miri, ignore = "hashes megabytes; too slow interpreted")]
    fn packing_golden_values_are_pinned_at_every_width() {
        // One leaf count per packing case on a 1–4 thread plane: 7 (a
        // padded eight-lane group; 4 + 3 on two threads), 9 (a full
        // group and a scalar leftover), 14 (7 + 7), 15 (8 + 7), 24 + a
        // 777-byte tail (full groups, then the tail alone under the
        // half-length floor) and 32 (full groups on every plane). Values
        // from Python hashlib over `wide_pattern`, as above — at the
        // detected width through the public entry point, and at one
        // forced width per plane, alternating so every length meets both
        // widths (hashing each case at both would double a slow
        // debug-build test). On a host without AVX2 width 8 hashes each
        // lane alone, so the packing is covered there too.
        let golden = [
            (
                7 * CHUNK_BYTES,
                "c27ba8638022925b153e1db31f3d00d5608883e6d7ff5250aff1fc60c2efc26b",
            ),
            (
                9 * CHUNK_BYTES,
                "db97edbdf39791f3c26d18fc942b4e65a650e3474da370ca2b8cc2bdfad315bb",
            ),
            (
                14 * CHUNK_BYTES,
                "0d0c03e8f623ff726c5ee4a356896234dc7778fab8051ab70205445245e322e2",
            ),
            (
                15 * CHUNK_BYTES,
                "9b92c66b581202410587a34dee24be928024f642d5950085ae17a381097b59cb",
            ),
            (
                24 * CHUNK_BYTES + 777,
                "de18c58784d172f48b26d80fe694e427efc343666312d3823f9ab68bce3bb371",
            ),
            (
                32 * CHUNK_BYTES,
                "c2e8b5cbdca12739e9d460111b9f3de716e003c953370de30a98d1e29c2e50a4",
            ),
        ];
        let data = wide_pattern(32 * CHUNK_BYTES);
        for (case, (len, expect)) in golden.into_iter().enumerate() {
            for threads in [1, 2, 3, 4] {
                let plane = DataPlane::new(threads);
                let got = content_digest(&data[..len], &plane);
                assert_eq!(got.to_hex(), expect, "len {len} threads {threads}");
                let width = [1, 8][(case + threads) % 2];
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
        // Leaves need not be 256 KB for the packer: full-length ones, a
        // run of tails, one tiny leaf in the middle of what would be a
        // group, and a one-byte straggler — small enough for Miri.
        let data = wide_pattern(4096);
        let lens = [
            1000usize, 1000, 3, 1000, 990, 1000, 700, 499, 1000, 1000, 64, 1,
        ];
        let span: Vec<&[u8]> = lens.iter().map(|&len| &data[len..2 * len]).collect();
        let expect: Vec<[u8; 32]> = span.iter().map(|leaf| sha256_reference(leaf)).collect();
        for width in 1..=8 {
            for take in 0..=span.len() {
                assert_eq!(
                    sha256_span_at(width, &span[..take]),
                    expect[..take],
                    "width {width}, first {take} leaves"
                );
            }
        }
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
    #[cfg_attr(miri, ignore = "256 KB messages are too slow interpreted")]
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
