//! `ros-cas` — the content-addressable dedup store under OLFS.
//!
//! The paper's TCO argument (§2.1) prices optical media per *logical*
//! byte; at fleet scale the cheapest byte is the one never burned twice.
//! This crate provides the digest-addressed blob layer that makes that
//! concrete and deterministic:
//!
//! - [`digest`]: an in-crate, std-only SHA-256 (FIPS 180-4 test
//!   vectors) and the chunked [`content_digests`] scheme — one payload
//!   or many — that fans out over the [`ros_disk::plane::DataPlane`]
//!   and, on x86-64, over the four (SSE2) or eight (AVX2, where the CPU
//!   reports it) lanes of a vector register inside each worker, while
//!   staying byte-identical at any thread count and lane width;
//! - [`verified`]: the [`verify_payload`] / [`verify_payloads`] entry
//!   point every integrity check routes through, and the [`Verified`]
//!   proof it returns — bytes plus the digest they were shown to hash
//!   to — so a payload checked once is never hashed again downstream;
//! - [`blob`]: the refcounted [`BlobStore`] (put/get/link/unlink with
//!   strict refcount invariants and typed [`CasError`]s) and the
//!   `(tenant, bucket, path) → Digest` index [`Cas`].
//!
//! The OLFS engine consumes this crate for write-path dedup (duplicate
//! payloads share one blob, one bucket residency and one burn), image
//! payload integrity (DIM digests), the cluster re-replication drill's
//! survivor verification, and the chaos soak's acked-write sweep.

// `deny`, not `forbid`: the lockstep kernels are `#[target_feature]`
// functions, and rustc asks for `unsafe` to enter one — even for SSE2,
// which is statically on; for AVX2 the block follows the run-time
// detection. That module carries the crate's only `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// The workspace's domain rules, held by clippy (DESIGN.md §8): no panic
// paths, no lossy casts, no hash-order iteration outside test code.
// `warn` here; CI's `-D warnings` makes them fatal.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::iter_over_hash_type
    )
)]

pub mod blob;
pub mod digest;
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[allow(unsafe_code)]
mod lanes;
pub mod verified;

pub use blob::{BlobStore, Cas, CasError, IngestOutcome, ObjectKey, PutOutcome, StoreStats};
pub use digest::{content_digest, content_digests, lockstep_lanes, sha256, Digest, CHUNK_BYTES};
pub use verified::{verify_payload, verify_payloads, Verified};
