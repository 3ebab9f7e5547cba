//! Verify-by-digest, once: [`verify_payload`] and the [`Verified`] proof.
//!
//! Integrity in ROS is one primitive — recompute the content digest and
//! compare. Hashing is also the most expensive thing the data plane
//! does per byte, so the result of a check must be *carried*, not
//! repeated: a `Verified<B>` pairs a byte container with the digest its
//! bytes were shown to hash to, and its fields are private to this
//! module, so the only ways to obtain one are to hash the bytes here
//! ([`verify_payload`], [`Verified::hash`]). Downstream code (the DIM's
//! `restore_disk_copy`, the repair path's `rebuild`) takes the proof
//! and compares 32 bytes instead of re-digesting the payload.
//!
//! `B` is meant to be an immutable byte container (`Bytes`, `Parts`,
//! `&[u8]`, `Vec<u8>`); the proof only ever hands out shared access to it.

use crate::digest::{content_digest, content_digests, Digest};
use bytes::Pieces;
use ros_disk::plane::DataPlane;

/// Typed CAS failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CasError {
    /// A payload's recomputed digest disagrees with the expected one.
    DigestMismatch {
        /// The digest the caller expected.
        expected: Digest,
        /// The digest the payload actually has.
        actual: Digest,
    },
}

impl core::fmt::Display for CasError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CasError::DigestMismatch { expected, actual } => write!(
                f,
                "digest mismatch: expected {}, got {}",
                expected.short(),
                actual.short()
            ),
        }
    }
}

impl std::error::Error for CasError {}

/// Bytes together with the [`content_digest`] they hash to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified<B> {
    bytes: B,
    digest: Digest,
}

impl<B: Pieces> Verified<B> {
    /// Hashes `bytes` on `plane` and records whatever they hash to. Use
    /// when there is no expectation to check yet (freshly reconstructed
    /// bytes, say): the holder of the expectation compares digests.
    pub fn hash(bytes: B, plane: &DataPlane) -> Self {
        let digest = content_digest(&bytes, plane);
        Verified { bytes, digest }
    }

    /// [`Verified::hash`] of every payload, in order, hashed as one
    /// [`content_digests`] batch so their leaves share lockstep passes.
    pub fn hash_all(payloads: Vec<B>, plane: &DataPlane) -> Vec<Self> {
        let refs: Vec<&B> = payloads.iter().collect();
        let digests = content_digests(&refs, plane);
        let proof = |(bytes, digest)| Verified { bytes, digest };
        payloads.into_iter().zip(digests).map(proof).collect()
    }

    /// The digest the bytes were shown to hash to.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The verified byte container.
    pub fn payload(&self) -> &B {
        &self.bytes
    }

    /// Gives up the proof and returns the byte container.
    pub fn into_bytes(self) -> B {
        self.bytes
    }

    /// The proof, if what the bytes hash to is `expected`.
    fn expecting(self, expected: &Digest) -> Result<Self, CasError> {
        if self.digest == *expected {
            Ok(self)
        } else {
            Err(CasError::DigestMismatch {
                expected: *expected,
                actual: self.digest,
            })
        }
    }
}

/// Verifies a payload against an expected digest, hashing on `plane`,
/// and returns the proof.
///
/// The single verify-by-digest entry point: the fetch path, the audit
/// ladder, the cluster drill and the chaos sweep all route
/// integrity checks through here or through its batched form,
/// [`verify_payloads`].
pub fn verify_payload<B: Pieces>(
    expected: &Digest,
    data: B,
    plane: &DataPlane,
) -> Result<Verified<B>, CasError> {
    Verified::hash(data, plane).expecting(expected)
}

/// [`verify_payload`] of every `(expected, data)` pair, one result per
/// pair in order, hashed as one [`content_digests`] batch so the pairs'
/// leaves share lockstep passes.
pub fn verify_payloads<B: Pieces>(
    pairs: Vec<(Digest, B)>,
    plane: &DataPlane,
) -> Vec<Result<Verified<B>, CasError>> {
    let payloads: Vec<&B> = pairs.iter().map(|(_, data)| data).collect();
    let digests = content_digests(&payloads, plane);
    pairs
        .into_iter()
        .zip(digests)
        .map(|((expected, bytes), digest)| Verified { bytes, digest }.expecting(&expected))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proof_carries_bytes_and_digest() {
        let plane = DataPlane::single();
        let expected = Digest::of(b"good bytes");
        let proof = verify_payload(&expected, b"good bytes".to_vec(), &plane).unwrap();
        assert_eq!(proof.digest(), expected);
        assert_eq!(proof.payload(), b"good bytes");
        assert_eq!(proof.into_bytes(), b"good bytes".to_vec());
    }

    #[test]
    fn mismatch_names_both_digests() {
        let plane = DataPlane::single();
        let wrong = Digest::of(b"other bytes");
        assert_eq!(
            verify_payload(&wrong, &b"good bytes"[..], &plane),
            Err(CasError::DigestMismatch {
                expected: wrong,
                actual: Digest::of(b"good bytes"),
            })
        );
    }

    #[test]
    fn a_batch_fails_at_the_index_of_the_flipped_byte() {
        // Seven payloads whose leaves pool into shared lockstep groups;
        // one byte of the fourth flips between recording and checking.
        let plane = DataPlane::new(2);
        let mut payloads: Vec<Vec<u8>> = (0..7usize)
            .map(|i| (0..3000 + 500 * i).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let expected: Vec<Digest> = payloads.iter().map(|p| Digest::of(p)).collect();
        payloads[3][1234] ^= 0x40;
        let pairs = expected.iter().copied().zip(&payloads).collect();
        let results = verify_payloads(pairs, &plane);
        assert_eq!(results.len(), 7);
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(proof) => {
                    assert_ne!(i, 3, "the flipped payload must not verify");
                    assert_eq!(proof.digest(), expected[i]);
                    assert_eq!(*proof.payload(), &payloads[i]);
                }
                Err(e) => {
                    let actual = Digest::of(&payloads[3]);
                    let expected = expected[3];
                    assert_eq!((i, e), (3, &CasError::DigestMismatch { expected, actual }));
                }
            }
        }
        assert!(results[3].is_err());
        assert!(verify_payloads(Vec::<(Digest, &[u8])>::new(), &plane).is_empty());
    }

    #[test]
    fn hash_records_what_the_bytes_hash_to() {
        let plane = DataPlane::single();
        let proof = Verified::hash(&b"rotted"[..], &plane);
        assert_eq!(proof.digest(), Digest::of(b"rotted"));
        let all = Verified::hash_all(vec![&b"p"[..], &b"q"[..]], &plane);
        assert_eq!(
            all,
            [
                Verified::hash(&b"p"[..], &plane),
                Verified::hash(&b"q"[..], &plane)
            ]
        );
    }
}
