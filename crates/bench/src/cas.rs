//! CAS dedup scenario (`repro cas-smoke`): a Zipf-skewed multi-tenant
//! ingest whose payloads come from a small duplicated pool runs through
//! two identically-configured OLFS engines — dedup off and dedup on —
//! and the dedup invariants are enforced end to end:
//!
//! 1. **Strictly fewer burns** — the dedup engine seals and burns fewer
//!    images and stages fewer buffer bytes than the plain engine for
//!    the same logical workload.
//! 2. **Bit-exact aliases** — every written path reads back payload
//!    bytes identical to what was ingested, verified against the 256-bit
//!    CAS content digest recorded at write time.
//! 3. **Clean digest sweep** — a full audit reports no image, on the
//!    buffer or on disc, whose bytes drifted from its recorded digest.

use crate::experiments::BenchError;
use ros_cas::{verify_payload, Digest};
use ros_disk::DataPlane;
use ros_olfs::{Ros, RosConfig};
use ros_sim::SimRng;
use ros_udf::UdfPath;
use ros_workload::dist::Zipf;

/// Shape of one dedup comparison run.
#[derive(Clone, Debug)]
pub struct CasConfig {
    /// Tenants sharing the namespace (Zipf-skewed activity).
    pub tenants: usize,
    /// Distinct payloads in the duplicated pool (Zipf-skewed too, so a
    /// few hot payloads account for most writes — the dedup case).
    pub distinct_payloads: usize,
    /// Files written in total.
    pub writes: usize,
    /// Bytes per payload.
    pub payload_bytes: usize,
    /// Zipf skew for both the tenant and the payload pick.
    pub skew: f64,
    /// Seed for the whole scenario.
    pub seed: u64,
}

impl CasConfig {
    /// The CI smoke configuration: small, seconds-scale, deterministic.
    pub fn smoke() -> Self {
        CasConfig {
            tenants: 8,
            distinct_payloads: 12,
            writes: 96,
            payload_bytes: 256 * 1024,
            skew: 0.8,
            seed: 42,
        }
    }
}

/// Everything one dedup comparison observed.
#[derive(Clone, Debug)]
pub struct CasReport {
    /// Files written to each engine.
    pub writes: usize,
    /// Logical bytes ingested (writes x payload size).
    pub logical_bytes: u64,
    /// Write-path dedup hits on the dedup engine.
    pub dedup_hits: u64,
    /// Bucket bytes the dedup engine never staged.
    pub dedup_bytes_saved: u64,
    /// Logical over unique bytes in the dedup engine's blob store.
    pub dedup_ratio: f64,
    /// Images registered by the plain engine after its final flush.
    pub plain_images: usize,
    /// Images registered by the dedup engine after its final flush.
    pub dedup_images: usize,
    /// Buffer bytes the plain engine staged.
    pub plain_buffer_bytes: u64,
    /// Buffer bytes the dedup engine staged.
    pub dedup_buffer_bytes: u64,
    /// `dedup_images / plain_images` — the burn cost of the dedup run
    /// relative to plain (cost-style: lower is better, must stay < 1).
    pub burn_cost_ratio: f64,
    /// Paths that read back digest-exact from the dedup engine.
    pub verified: usize,
    /// Paths that read back wrong or not at all (must be empty).
    pub lost: Vec<String>,
    /// Images failing the full audit's digest sweep (must be 0).
    pub sweep_mismatches: usize,
}

/// Deterministic payload `index` of the pool: every byte is a pure
/// function of (index, offset), so re-runs and both engines agree.
fn pool_payload(index: usize, bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|j| {
            let x = (index as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(j as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x.to_be_bytes()[0]
        })
        .collect()
}

/// Compiles the scenario's write list: `(path, pool index)` pairs with
/// Zipf-skewed tenants and payload picks, all driven by the seed.
fn compile_writes(cfg: &CasConfig) -> Result<Vec<(UdfPath, usize)>, BenchError> {
    let err = |detail: String| BenchError {
        context: "cas",
        detail,
    };
    let mut rng = SimRng::seed_from(cfg.seed);
    let tenant_pick = Zipf::new(cfg.tenants.max(1), cfg.skew);
    let payload_pick = Zipf::new(cfg.distinct_payloads.max(1), cfg.skew);
    (0..cfg.writes)
        .map(|n| {
            let tenant = tenant_pick.sample(&mut rng);
            let payload = payload_pick.sample(&mut rng);
            let path: UdfPath = format!("/t{tenant}/o{n}.dat")
                .parse()
                .map_err(|_| err(format!("generated path invalid: /t{tenant}/o{n}.dat")))?;
            Ok((path, payload))
        })
        .collect()
}

/// Runs the same compiled workload through one engine, returning its
/// counters and post-flush status.
fn ingest(dedup: bool, writes: &[(UdfPath, usize)], pool: &[Vec<u8>]) -> Result<Ros, BenchError> {
    let err = |detail: String| BenchError {
        context: "cas",
        detail,
    };
    let mut cfg = RosConfig::tiny();
    cfg.dedup = dedup;
    let mut ros = Ros::new(cfg);
    for (path, payload) in writes {
        ros.write_file(path, pool[*payload].clone())
            .map_err(|e| err(format!("ingest {path}: {e}")))?;
    }
    ros.flush().map_err(|e| err(format!("final flush: {e}")))?;
    Ok(ros)
}

/// Runs the comparison: plain engine, dedup engine, digest read-back
/// sweep on the dedup engine.
pub fn run_cas(cfg: &CasConfig) -> Result<CasReport, BenchError> {
    let writes = compile_writes(cfg)?;
    let pool: Vec<Vec<u8>> = (0..cfg.distinct_payloads.max(1))
        .map(|i| pool_payload(i, cfg.payload_bytes))
        .collect();
    let pool_digests: Vec<Digest> = pool.iter().map(|p| Digest::of(p)).collect();

    let plain = ingest(false, &writes, &pool)?;
    let mut deduped = ingest(true, &writes, &pool)?;

    let plain_status = plain.status();
    let dedup_status = deduped.status();
    let stats = deduped.dedup_stats();
    let counters = deduped.counters();

    // Digest-exact read-back of every alias through the normal read
    // path, against the pool digest recorded before ingest.
    let plane = DataPlane::single();
    let mut verified = 0;
    let mut lost = Vec::new();
    for (path, payload) in &writes {
        match deduped.read_file(path) {
            Ok(r) if verify_payload(&pool_digests[*payload], &r.data, &plane).is_ok() => {
                verified += 1;
            }
            Ok(_) => lost.push(format!("{path}: payload digest mismatch")),
            Err(e) => lost.push(format!("{path}: {e}")),
        }
    }
    let sweep = deduped.audit_sample(usize::MAX);

    let burn_cost_ratio = if plain_status.images > 0 {
        dedup_status.images as f64 / plain_status.images as f64
    } else {
        f64::INFINITY
    };
    Ok(CasReport {
        writes: writes.len(),
        logical_bytes: (writes.len() * cfg.payload_bytes) as u64,
        dedup_hits: counters.dedup_hits,
        dedup_bytes_saved: counters.dedup_bytes_saved,
        dedup_ratio: stats.dedup_ratio,
        plain_images: plain_status.images,
        dedup_images: dedup_status.images,
        plain_buffer_bytes: plain_status.buffer_usage.0,
        dedup_buffer_bytes: dedup_status.buffer_usage.0,
        burn_cost_ratio,
        verified,
        lost,
        sweep_mismatches: sweep.rotted.len(),
    })
}

/// Runs the comparison and enforces the dedup invariants, failing typed
/// when any is violated.
pub fn run_cas_checked(cfg: &CasConfig) -> Result<CasReport, BenchError> {
    let err = |detail: String| BenchError {
        context: "cas",
        detail,
    };
    let r = run_cas(cfg)?;
    if r.dedup_hits == 0 {
        return Err(err("workload produced no dedup hits".into()));
    }
    if r.dedup_images >= r.plain_images {
        return Err(err(format!(
            "dedup must burn strictly fewer images ({} vs {})",
            r.dedup_images, r.plain_images
        )));
    }
    if r.dedup_buffer_bytes >= r.plain_buffer_bytes {
        return Err(err(format!(
            "dedup must stage strictly fewer buffer bytes ({} vs {})",
            r.dedup_buffer_bytes, r.plain_buffer_bytes
        )));
    }
    if !r.lost.is_empty() {
        return Err(err(format!(
            "{} alias(es) failed digest read-back: {}",
            r.lost.len(),
            r.lost.join("; ")
        )));
    }
    if r.sweep_mismatches > 0 {
        return Err(err(format!(
            "{} image(s) failed the digest sweep",
            r.sweep_mismatches
        )));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_holds_all_invariants() {
        let r = run_cas_checked(&CasConfig::smoke()).unwrap();
        assert_eq!(r.verified, r.writes);
        assert!(r.dedup_ratio > 1.0, "pool duplication must show up");
        assert!(r.burn_cost_ratio < 1.0);
    }

    #[test]
    fn compiled_workload_is_a_pure_function_of_the_seed() {
        let cfg = CasConfig::smoke();
        let a = compile_writes(&cfg).unwrap();
        let b = compile_writes(&cfg).unwrap();
        assert_eq!(a, b);
        let mut other = cfg.clone();
        other.seed = 43;
        assert_ne!(a, compile_writes(&other).unwrap());
    }
}
