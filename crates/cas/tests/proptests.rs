//! Property tests for the content digest:
//!
//! - `content_digest` equals its definition (length prefix, per-chunk
//!   SHA-256, root hash) rebuilt from plain `sha256` at any length,
//!   alignment and plane width — one-leaf payloads included;
//! - `content_digests` of a list equals `content_digest` of each element,
//!   whatever mix of empty, tiny, exact-leaf and leaf-plus-tail payloads
//!   the list pools into shared lockstep groups.
//!
//! Dedup's reference counts are checked where they live, against the
//! version model in `tests/version_model.rs`.

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use ros_cas::{content_digest, content_digests, sha256, Digest, CHUNK_BYTES};
use ros_disk::plane::DataPlane;

proptest! {
    // Each case hashes up to 5 MiB four times in a debug build — long
    // enough that every plane width below forms lockstep quads — so 10
    // cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn content_digest_matches_its_definition(
        seed in 0u64..u64::MAX,
        len in 0usize..(20 * CHUNK_BYTES),
        offset in 0usize..16,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut buf = vec![0u8; offset + len];
        rng.fill_bytes(&mut buf);
        let data = &buf[offset..];
        let mut root = (data.len() as u64).to_be_bytes().to_vec();
        for chunk in data.chunks(CHUNK_BYTES) {
            root.extend_from_slice(&sha256(chunk));
        }
        let expect = Digest::from_bytes(sha256(&root));
        for threads in [1, 2, 4] {
            prop_assert_eq!(content_digest(data, &DataPlane::new(threads)), expect);
        }
    }

    #[test]
    fn content_digests_equals_content_digest_of_each(
        seed in 0u64..u64::MAX,
        // Per payload: a length class and how many whole leaves it has.
        shapes in proptest::collection::vec((0usize..5, 1usize..3), 0..=12),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut lens: Vec<usize> = shapes
            .iter()
            .map(|&(class, leaves)| match class {
                0 => 0,
                1 => 1,
                2 => 1 + rng.gen::<usize>() % (CHUNK_BYTES - 1),
                3 => leaves * CHUNK_BYTES,
                _ => leaves * CHUNK_BYTES + 1 + rng.gen::<usize>() % (CHUNK_BYTES - 1),
            })
            .collect();
        // One tiny tail in the middle of what would be a group.
        if lens.len() > 4 {
            lens[2] = CHUNK_BYTES + 5;
        }
        let mut corpus = vec![0u8; lens.iter().sum()];
        rng.fill_bytes(&mut corpus);
        let mut rest = corpus.as_slice();
        let payloads: Vec<&[u8]> = lens
            .iter()
            .map(|&len| {
                let (payload, later) = rest.split_at(len);
                rest = later;
                payload
            })
            .collect();
        let single = DataPlane::single();
        let expect: Vec<Digest> = payloads.iter().map(|p| content_digest(p, &single)).collect();
        for threads in [1, 2, 3, 4, 8] {
            prop_assert_eq!(
                &content_digests(&payloads, &DataPlane::new(threads)),
                &expect,
                "threads {}",
                threads
            );
        }
    }
}
