//! `ros-cas` — content addressing for OLFS: digests and verify-by-digest.
//!
//! The paper's TCO argument (§2.1) prices optical media per *logical*
//! byte; at fleet scale the cheapest byte is the one never burned twice.
//! This crate gives every payload the stable name that makes that
//! concrete and deterministic:
//!
//! - [`digest`]: an in-crate, std-only SHA-256 (FIPS 180-4 test
//!   vectors) and the chunked [`content_digests`] scheme — one payload
//!   or many — that fans out over the [`ros_disk::plane::DataPlane`]
//!   while staying byte-identical at any thread count and lane width.
//!   Three kernels hash the blocks: the portable scalar `compress`;
//!   on x86-64 where the CPU reports AVX2, eight leaves in the lanes of
//!   one vector register inside each worker; and where the CPU has the
//!   SHA extensions, every block of every message through them, leaf by
//!   leaf, with no lane group formed;
//! - [`verified`]: the [`verify_payload`] / [`verify_payloads`] entry
//!   point every integrity check routes through, and the [`Verified`]
//!   proof it returns — bytes plus the digest they were shown to hash
//!   to — so a payload checked once is never hashed again downstream —
//!   and the typed [`CasError`] a failed check returns.
//!
//! The OLFS engine consumes this crate for write-path dedup (its
//! digest-keyed catalog, `olfs::dedup`, shares one bucket residency and
//! one burn between duplicate payloads), image payload integrity (DIM
//! digests), the cluster re-replication drill's survivor verification,
//! and the chaos soak's acked-write sweep.

// `deny`, not `forbid`: the AVX2 and SHA-extensions kernels are
// `#[target_feature]` functions, and rustc asks for `unsafe` to enter
// one; each of the two blocks follows the run-time detection of its
// features. That module carries the crate's only `allow`.
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

pub mod digest;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod lanes;
pub mod verified;

pub use digest::{content_digest, content_digests, sha256, Digest, CHUNK_BYTES};
pub use verified::{verify_payload, verify_payloads, CasError, Verified};
