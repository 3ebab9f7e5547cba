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
//! `B` is meant to be an immutable byte container (`Bytes`, `&[u8]`,
//! `Vec<u8>`); the proof only ever hands out shared access to it.

use crate::blob::CasError;
use crate::digest::{content_digest, Digest};
use ros_disk::plane::DataPlane;

/// Bytes together with the [`content_digest`] they hash to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified<B> {
    bytes: B,
    digest: Digest,
}

impl<B: AsRef<[u8]>> Verified<B> {
    /// Hashes `bytes` on `plane` and records whatever they hash to. Use
    /// when there is no expectation to check yet (freshly reconstructed
    /// bytes, say): the holder of the expectation compares digests.
    pub fn hash(bytes: B, plane: &DataPlane) -> Self {
        let digest = content_digest(bytes.as_ref(), plane);
        Verified { bytes, digest }
    }

    /// The digest the bytes were shown to hash to.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The verified bytes.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    /// Gives up the proof and returns the byte container.
    pub fn into_bytes(self) -> B {
        self.bytes
    }
}

/// Verifies a payload against an expected digest, hashing on `plane`,
/// and returns the proof.
///
/// The single verify-by-digest entry point: the fetch path, scrub, the
/// audit ladder, the cluster drill and the chaos sweep all route
/// integrity checks through here.
pub fn verify_payload<B: AsRef<[u8]>>(
    expected: &Digest,
    data: B,
    plane: &DataPlane,
) -> Result<Verified<B>, CasError> {
    let proof = Verified::hash(data, plane);
    if proof.digest == *expected {
        Ok(proof)
    } else {
        Err(CasError::DigestMismatch {
            expected: *expected,
            actual: proof.digest,
        })
    }
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
        assert_eq!(proof.bytes(), b"good bytes");
        assert_eq!(proof.into_bytes(), b"good bytes".to_vec());
    }

    #[test]
    fn mismatch_names_both_digests() {
        let plane = DataPlane::single();
        let wrong = Digest::of(b"other bytes");
        assert_eq!(
            verify_payload(&wrong, b"good bytes", &plane),
            Err(CasError::DigestMismatch {
                expected: wrong,
                actual: Digest::of(b"good bytes"),
            })
        );
    }

    #[test]
    fn hash_records_what_the_bytes_hash_to() {
        let plane = DataPlane::single();
        let proof = Verified::hash(&b"rotted"[..], &plane);
        assert_eq!(proof.digest(), Digest::of(b"rotted"));
    }
}
