//! Property tests for the CAS refcount invariants and dedup determinism:
//!
//! - link/unlink never orphans a live blob, never double-frees a dead
//!   one, and the byte accounting identity `logical = Σ refs·len`,
//!   `unique = Σ len` holds after every operation;
//! - ingesting the same multi-tenant object set in any order yields an
//!   identical blob set (digests, refcounts and accounting);
//! - `content_digest` equals its definition (length prefix, per-chunk
//!   SHA-256, root hash) rebuilt from plain `sha256` at any length,
//!   alignment and plane width — one-leaf payloads included;
//! - `content_digests` of a list equals `content_digest` of each element,
//!   whatever mix of empty, tiny, exact-leaf and leaf-plus-tail payloads
//!   the list pools into shared lockstep groups.

use bytes::Bytes;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use ros_cas::{
    content_digest, content_digests, sha256, BlobStore, Cas, CasError, Digest, ObjectKey,
    CHUNK_BYTES,
};
use ros_disk::plane::DataPlane;

/// A model-checked shadow of the store: digest → (len, refs).
fn check_accounting(store: &BlobStore, model: &std::collections::BTreeMap<Digest, (u64, u64)>) {
    let logical: u64 = model.values().map(|(len, refs)| len * refs).sum();
    let unique: u64 = model.values().map(|(len, _)| *len).sum();
    assert_eq!(store.logical_bytes(), logical);
    assert_eq!(store.unique_bytes(), unique);
    assert_eq!(store.blob_count(), model.len());
    for (d, (_, refs)) in model {
        assert_eq!(store.refs(d), Some(*refs), "digest {d}");
    }
}

proptest! {
    #[test]
    fn refcounts_never_orphan_or_double_free(seed in 0u64..1_000) {
        let plane = DataPlane::single();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut store = BlobStore::new();
        let mut model: std::collections::BTreeMap<Digest, (u64, u64)> =
            std::collections::BTreeMap::new();
        // A small payload pool so operations collide on purpose.
        let pool: Vec<Bytes> = (0..6)
            .map(|i| {
                let n = 16 + 32 * i;
                Bytes::from((0..n).map(|j| (i * 37 + j) as u8).collect::<Vec<u8>>())
            })
            .collect();
        for _ in 0..200 {
            let which = rng.gen::<usize>() % pool.len();
            let payload = pool[which].clone();
            let digest = Digest::of(&payload);
            match rng.gen::<usize>() % 3 {
                0 => {
                    let out = store.put(payload.clone(), &plane);
                    prop_assert_eq!(out.digest, digest);
                    prop_assert_eq!(out.deduped, model.contains_key(&digest));
                    let e = model.entry(digest).or_insert((payload.len() as u64, 0));
                    e.1 += 1;
                }
                1 => {
                    let res = store.link(&digest);
                    match model.get_mut(&digest) {
                        Some(e) => {
                            e.1 += 1;
                            prop_assert_eq!(res, Ok(e.1));
                        }
                        None => {
                            prop_assert_eq!(res, Err(CasError::UnknownDigest(digest)));
                        }
                    }
                }
                _ => {
                    let res = store.unlink(&digest);
                    match model.get_mut(&digest) {
                        Some(e) => {
                            e.1 -= 1;
                            prop_assert_eq!(res, Ok(e.1));
                            if e.1 == 0 {
                                model.remove(&digest);
                                // The blob is gone; a second unlink must
                                // be a typed error, not a double-free.
                                prop_assert_eq!(
                                    store.unlink(&digest),
                                    Err(CasError::UnknownDigest(digest))
                                );
                            }
                        }
                        None => {
                            prop_assert_eq!(res, Err(CasError::UnknownDigest(digest)));
                        }
                    }
                }
            }
            check_accounting(&store, &model);
            // Live blobs always verify by digest.
            for d in model.keys() {
                prop_assert!(store.verify(d, &plane).is_ok());
            }
        }
    }

    #[test]
    fn shuffled_multi_tenant_ingest_yields_identical_blob_sets(seed in 0u64..1_000) {
        let plane = DataPlane::single();
        // 3 tenants × 8 objects drawing from 5 distinct payloads: heavy
        // cross-tenant duplication by construction.
        let mut objects: Vec<(ObjectKey, Bytes)> = Vec::new();
        for t in 0..3 {
            for i in 0..8 {
                let key = ObjectKey::new(format!("t{t}"), "b0", format!("/f{i}"));
                let which = (t * 3 + i * 5) % 5;
                let payload: Vec<u8> = (0..64 + which * 17)
                    .map(|j| (which * 31 + j) as u8)
                    .collect();
                objects.push((key, Bytes::from(payload)));
            }
        }
        let ingest_in = |order: &[usize]| {
            let mut cas = Cas::new();
            for &i in order {
                let (key, data) = &objects[i];
                cas.ingest(key.clone(), data.clone(), &plane);
            }
            cas
        };
        let sorted: Vec<usize> = (0..objects.len()).collect();
        let reference = ingest_in(&sorted);

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut shuffled = sorted.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen::<usize>() % (i + 1);
            shuffled.swap(i, j);
        }
        let cas = ingest_in(&shuffled);

        let blob_set: Vec<(Digest, Option<u64>)> = cas
            .store()
            .digests()
            .map(|d| (*d, cas.store().refs(d)))
            .collect();
        let reference_set: Vec<(Digest, Option<u64>)> = reference
            .store()
            .digests()
            .map(|d| (*d, reference.store().refs(d)))
            .collect();
        prop_assert_eq!(blob_set, reference_set);
        prop_assert_eq!(cas.store().stats(), reference.store().stats());
        prop_assert_eq!(cas.object_count(), reference.object_count());
        // Every key resolves to the same digest in both stores.
        for (key, digest) in reference.objects() {
            prop_assert_eq!(cas.resolve(key), Ok(*digest));
        }
    }
}

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
