//! The 256-bit content digest: an in-crate SHA-256 (FIPS 180-4) plus a
//! chunked, [`DataPlane`]-parallel content-digest scheme.
//!
//! The workspace has no network access, so the hash is implemented here
//! against the published test vectors rather than pulled from crates.io.
//! Payload digests use a *chunked* construction so large images can be
//! hashed in parallel on the data plane while staying byte-identical at
//! any thread count: the payload is split into fixed [`CHUNK_BYTES`]
//! pieces (a pure function of the length), each chunk is SHA-256'd
//! independently — this is the part that fans out over `plane.map` — and
//! the final digest is SHA-256 over the big-endian payload length
//! followed by the chunk digests in order.

use ros_disk::plane::DataPlane;

/// Fixed chunking granularity of [`content_digest`]. Chunk boundaries
/// depend only on the payload length, never on the thread count, so the
/// digest is stable across plane configurations.
pub const CHUNK_BYTES: usize = 256 * 1024;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
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
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 compression over a 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8]) {
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
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of a byte slice (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let mut i = 0;
    while i + 64 <= data.len() {
        compress(&mut state, &data[i..i + 64]);
        i += 64;
    }
    // Padding: 0x80, zeros, then the bit length as a big-endian u64,
    // in one or two final blocks.
    let rem = data.len() - i;
    let mut tail = [0u8; 128];
    tail[..rem].copy_from_slice(&data[i..]);
    tail[rem] = 0x80;
    let tail_len = if rem < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..64]);
    if tail_len == 128 {
        compress(&mut state, &tail[64..128]);
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
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

/// Content digest of a payload, chunk-hashed on the data plane.
///
/// Byte-identical at any plane thread count: the chunk layout is a pure
/// function of `data.len()`, `plane.map` preserves item order, and the
/// root hash binds the payload length so `content_digest` of a payload
/// never collides with `sha256` of its concatenated chunk digests.
pub fn content_digest(data: &[u8], plane: &DataPlane) -> Digest {
    let len_prefix = (data.len() as u64).to_be_bytes();
    if data.len() <= CHUNK_BYTES {
        // Zero or one chunk — every dedup-sized write. Same root bytes
        // as the general path, built on the stack.
        let mut root = [0u8; 8 + 32];
        root[..8].copy_from_slice(&len_prefix);
        if data.is_empty() {
            return Digest(sha256(&root[..8]));
        }
        root[8..].copy_from_slice(&sha256(data));
        return Digest(sha256(&root));
    }
    let chunks: Vec<&[u8]> = data.chunks(CHUNK_BYTES).collect();
    let chunk_digests: Vec<[u8; 32]> = plane.map(&chunks, |c| sha256(c));
    let mut root = Vec::with_capacity(8 + 32 * chunk_digests.len());
    root.extend_from_slice(&len_prefix);
    for d in &chunk_digests {
        root.extend_from_slice(d);
    }
    Digest(sha256(&root))
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

    #[test]
    fn fips_180_4_test_vectors() {
        // NIST FIPS 180-4 / CAVP vectors: empty, 24-bit, 448-bit,
        // 896-bit and the one-million-'a' long message.
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
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
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
            for threads in [1, 2, 4] {
                let got = content_digest(&data[..len], &DataPlane::new(threads));
                assert_eq!(got.to_hex(), expect, "len {len} threads {threads}");
            }
        }
    }

    #[test]
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
