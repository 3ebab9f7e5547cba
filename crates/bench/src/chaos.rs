//! Chaos soak: a mixed multi-tenant workload driven under a seeded
//! cross-layer fault schedule, asserting the robustness invariants the
//! retry/supervision stack promises:
//!
//! 1. **Zero acked-write loss** — every write the cluster acknowledged
//!    (including typed degraded outcomes) reads back bit-exact after the
//!    faults, heals and the rack-failure drill.
//! 2. **Bounded retry amplification** — supervised attempts divided by
//!    workload operations stays under a configured ceiling; backoff
//!    cannot silently turn one glitch into an attempt storm.
//! 3. **Reproducible fault timeline** — the injected-event log (and its
//!    digest) is a pure function of the seed; two runs from the same
//!    seed produce identical timelines.
//! 4. **No panics** — every fault surfaces as a typed degraded result.

use crate::experiments::BenchError;
use ros_cas::{verify_payload, Digest};
use ros_cluster::{Cluster, ClusterConfig, ClusterError};
use ros_faults::{FaultKind, FaultPlan, FaultSink, FaultSpec, InjectionOutcome, RetryPolicy};
use ros_sim::SimDuration;
use ros_workload::dist::SizeDist;
use ros_workload::spec::synth_data;
use ros_workload::{FileOp, WorkloadSpec};
use std::collections::BTreeMap;

/// Shape of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Member racks (>= 2 so one outage cannot strand replication).
    pub racks: usize,
    /// Workload operations (also the fault-plan horizon).
    pub ops: usize,
    /// Seed for both the workload and the fault plan.
    pub seed: u64,
    /// Use the heavier soak fault mix instead of the CI smoke mix.
    pub heavy: bool,
    /// Ceiling on supervised attempts per workload operation.
    pub max_amplification: f64,
}

impl ChaosConfig {
    /// The CI smoke configuration: small, seconds-scale, deterministic.
    pub fn smoke() -> Self {
        ChaosConfig {
            racks: 2,
            ops: 240,
            seed: 42,
            heavy: false,
            max_amplification: 2.0,
        }
    }

    /// The full soak: more racks, more operations, the heavy fault mix.
    pub fn soak() -> Self {
        ChaosConfig {
            racks: 3,
            ops: 900,
            seed: 42,
            heavy: true,
            max_amplification: 2.0,
        }
    }
}

/// Everything one chaos run observed.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The configuration the run used.
    pub racks: usize,
    /// Workload operations executed.
    pub ops: usize,
    /// The seed the run used.
    pub seed: u64,
    /// One line per injected fault (and drill), in schedule order.
    pub timeline: Vec<String>,
    /// FNV-1a digest of the timeline — the reproducibility fingerprint.
    /// Deliberately still 64-bit FNV so historical fingerprints stay
    /// comparable; payload integrity uses 256-bit CAS digests instead.
    pub timeline_digest: u64,
    /// Fault events that landed.
    pub injected: usize,
    /// Fault events skipped (target unavailable right now).
    pub skipped: usize,
    /// Writes acknowledged at full replication.
    pub acked_writes: usize,
    /// Writes acknowledged through a typed degraded outcome
    /// (partial replication, then restored by re-issue).
    pub degraded_writes: usize,
    /// Writes that failed typed (retries exhausted or hard error).
    pub failed_writes: usize,
    /// Reads served first-attempt from the primary.
    pub clean_reads: usize,
    /// Reads that needed a retry or a replica fallback.
    pub degraded_reads: usize,
    /// Reads that failed typed after retries.
    pub failed_reads: usize,
    /// Supervised attempts across all reads and writes.
    pub attempts: u64,
    /// `attempts / (reads + writes)` — the retry amplification.
    pub amplification: f64,
    /// RAID members healed during maintenance windows.
    pub members_healed: usize,
    /// Drive bays returned to rotation by field service.
    pub bays_serviced: usize,
    /// Files the rack-failure drill reported unrecoverable.
    pub drill_files_lost: usize,
    /// Acked files that read back bit-exact in the final sweep.
    pub verified: usize,
    /// Acked files lost or corrupted (must be empty).
    pub lost: Vec<String>,
}

/// The same multi-tenant mixed op mix the cluster scale-out scenario
/// replays (70% reads, Zipf-skewed tenants), sized for the chaos run.
fn chaos_spec(ops: usize) -> WorkloadSpec {
    WorkloadSpec::MultiTenantMixed {
        tenants: 24,
        tenant_skew: 0.5,
        ops,
        read_ratio: 0.7,
        sizes: SizeDist::Fixed { bytes: 16 * 1024 },
        fanout: 2,
    }
}

fn outcome_text(o: &InjectionOutcome) -> String {
    match o {
        InjectionOutcome::Injected => "injected".to_string(),
        InjectionOutcome::NotApplicable => "n/a".to_string(),
        InjectionOutcome::Skipped(why) => format!("skipped ({why})"),
    }
}

/// Archive pass with operator-style recovery: service quarantined bays
/// and heal volumes first (a flush cannot burn without bays), then
/// flush/drain/evict, retrying with backoff when armed transients abort
/// the pass mid-burn.
fn archive_with_retry(
    cluster: &mut Cluster,
    policy: &RetryPolicy,
    at: &str,
    report: &mut ChaosReport,
) {
    let mut pass = 0;
    loop {
        pass += 1;
        let (healed, serviced) = cluster.maintain_all();
        report.members_healed += healed;
        report.bays_serviced += serviced;
        match cluster.archive_all(SimDuration::from_secs(86_400)) {
            Ok(evicted) => {
                report.timeline.push(format!(
                    "{at}  archive pass: {evicted} buffer copies evicted (attempt {pass})"
                ));
                break;
            }
            Err(_) if policy.should_retry(pass) => {
                cluster.run_all_for(policy.backoff(pass));
            }
            Err(e) => {
                report
                    .timeline
                    .push(format!("{at}  archive pass degraded: {e}"));
                break;
            }
        }
    }
}

/// Runs one chaos soak. Typed degraded outcomes are expected and
/// counted; a panic, an acked-write loss, or mid-run payload corruption
/// is a failure.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, BenchError> {
    let err = |detail: String| BenchError {
        context: "chaos",
        detail,
    };
    let mut ccfg = ClusterConfig::tiny(cfg.racks);
    // Quarantine + re-burn need a spare bay to route around a dead
    // drive; the tiny template has only one.
    ccfg.rack.drive_bays = 2;
    // Shrink the media so the 16 KB op mix actually reaches the optical
    // path: 512 KB discs seal a bucket every ~32 writes and 4-disc
    // RAID-5 arrays (3 data + 1 parity) complete mid-run, so the second
    // half reads burned discs — where the drive/mech/media faults live —
    // instead of being absorbed by the SSD buffer.
    ccfg.rack.disc_class = ros_drive::media::DiscClass::Custom {
        capacity: 512 * 1024,
    };
    ccfg.rack.layout.discs_per_tray = 4;
    ccfg.rack.drives_per_bay = 4;
    // Extra tray slots: a survivor absorbs the failed rack's relocated
    // groups during the drill and must still have blanks for its own
    // final flush.
    ccfg.rack.layout.layers = 8;
    let mut cluster = Cluster::new(ccfg.clone()).map_err(|e| err(e.to_string()))?;
    let ops = chaos_spec(cfg.ops).compile(cfg.seed);

    let rack_count = u32::try_from(cfg.racks).unwrap_or(u32::MAX);
    let mut spec = if cfg.heavy {
        FaultSpec::soak(rack_count, ops.len() as u64)
    } else {
        FaultSpec::smoke(rack_count, ops.len() as u64)
    };
    spec.bays = u32::try_from(ccfg.rack.drive_bays).unwrap_or(u32::MAX);
    spec.drives_per_bay = u32::try_from(ccfg.rack.drives_per_bay).unwrap_or(u32::MAX);
    let mut plan = FaultPlan::generate(cfg.seed, &spec);

    let policy = RetryPolicy::default();
    let mut report = ChaosReport {
        racks: cfg.racks,
        ops: ops.len(),
        seed: cfg.seed,
        timeline: Vec::new(),
        timeline_digest: 0,
        injected: 0,
        skipped: 0,
        acked_writes: 0,
        degraded_writes: 0,
        failed_writes: 0,
        clean_reads: 0,
        degraded_reads: 0,
        failed_reads: 0,
        attempts: 0,
        amplification: 0.0,
        members_healed: 0,
        bays_serviced: 0,
        drill_files_lost: 0,
        verified: 0,
        lost: Vec::new(),
    };
    // Latest acknowledged payload digest per path (256-bit CAS content
    // digest, not the 64-bit FNV fingerprint the timeline uses — see
    // EXPERIMENTS.md on collision exposure); the zero-loss sweep reads
    // every entry back after the storm and verifies by digest.
    let mut acked: BTreeMap<String, Digest> = BTreeMap::new();
    let verify_plane = ros_disk::DataPlane::single();
    let mut supervised_ops: u64 = 0;

    for (i, op) in ops.iter().enumerate() {
        for event in plan.due(i as u64) {
            let outcome = cluster.inject_fault(&event);
            match &outcome {
                InjectionOutcome::Injected => report.injected += 1,
                InjectionOutcome::Skipped(_) => report.skipped += 1,
                InjectionOutcome::NotApplicable => {}
            }
            report.timeline.push(format!(
                "op {:>4}  {:<32} {}",
                event.at_op,
                event.kind.label(),
                outcome_text(&outcome)
            ));
            // A landed outage triggers the operational runbook: run the
            // re-replication drill so later reads and the final sweep
            // see a recovered federation.
            if let (FaultKind::RackOutage { rack }, InjectionOutcome::Injected) =
                (&event.kind, &outcome)
            {
                let victim = u32::try_from(*rack as usize % cfg.racks).unwrap_or(u32::MAX);
                let drill = cluster
                    .rereplicate_after_failure(victim)
                    .map_err(|e| err(format!("drill after rack {victim} outage: {e}")))?;
                report.drill_files_lost += drill.files_lost;
                report.timeline.push(format!(
                    "op {:>4}  drill r{victim}: {} groups relocated, {} degraded, \
                     {} files recovered, {} lost",
                    event.at_op,
                    drill.groups_relocated,
                    drill.groups_degraded,
                    drill.files_recovered,
                    drill.files_lost
                ));
            }
        }
        if i % 32 == 31 {
            let (healed, serviced) = cluster.maintain_all();
            report.members_healed += healed;
            report.bays_serviced += serviced;
        }
        // Halfway through, archive what has been written: flush, drain
        // the burns and evict the buffer copies, so the second half's
        // reads traverse the optical path the drive/mech faults target.
        if i == ops.len() / 2 {
            let at = format!("op {i:>4}");
            archive_with_retry(&mut cluster, &policy, &at, &mut report);
        }
        match op {
            FileOp::Write { path, size } => {
                supervised_ops += 1;
                let data = synth_data(path, *size);
                let digest = Digest::of(&data);
                match cluster.write_file_supervised(path, data.clone(), &policy) {
                    Ok((_, stats)) => {
                        report.attempts += u64::from(stats.attempts);
                        acked.insert(path.to_string(), digest);
                        report.acked_writes += 1;
                    }
                    Err(ClusterError::PartialWrite { .. }) => {
                        // Durable on the completed replicas, recorded by
                        // the router. The payload is deterministic, so
                        // re-issuing restores full replication without
                        // changing contents; either way the write is
                        // acknowledged (degraded) to the client.
                        report.attempts += 1;
                        if let Ok((_, stats)) = cluster.write_file_supervised(path, data, &policy) {
                            report.attempts += u64::from(stats.attempts);
                        }
                        acked.insert(path.to_string(), digest);
                        report.degraded_writes += 1;
                    }
                    Err(ClusterError::RetriesExhausted { attempts, .. }) => {
                        report.attempts += u64::from(attempts);
                        report.failed_writes += 1;
                    }
                    Err(_) => {
                        report.attempts += 1;
                        report.failed_writes += 1;
                    }
                }
            }
            FileOp::Read { path } => {
                supervised_ops += 1;
                match cluster.read_file_supervised(path, &policy) {
                    Ok((r, stats)) => {
                        report.attempts += u64::from(stats.attempts);
                        if stats.attempts > 1 || r.fallbacks > 0 {
                            report.degraded_reads += 1;
                        } else {
                            report.clean_reads += 1;
                        }
                        if let Some(digest) = acked.get(&path.to_string()) {
                            if verify_payload(digest, &r.data, &verify_plane).is_err() {
                                return Err(err(format!("mid-run payload mismatch on {path}")));
                            }
                        }
                    }
                    Err(ClusterError::NotFound(_)) => {
                        // The mix can schedule a read before the path's
                        // first write; nothing was acked, nothing is owed.
                        report.attempts += 1;
                        report.clean_reads += 1;
                    }
                    Err(ClusterError::RetriesExhausted { attempts, .. }) => {
                        report.attempts += u64::from(attempts);
                        report.failed_reads += 1;
                    }
                    Err(_) => {
                        report.attempts += 1;
                        report.failed_reads += 1;
                    }
                }
            }
            FileOp::Stat { path } => {
                // Stats ride the same failover path; errors here are
                // covered by the read/sweep invariants.
                let _ = cluster.stat(path);
            }
        }
    }

    // Let the storm settle: a final archive (service bays, flush, drain
    // the burns, evict buffer copies), then verify every acknowledged
    // byte — off the discs, not the buffer, where possible.
    archive_with_retry(&mut cluster, &policy, "final  ", &mut report);
    cluster.run_until_quiescent_all(SimDuration::from_secs(86_400));

    let sweep_policy = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };
    // Read every acked path back in path order and verify it against
    // the digest recorded at ack time. The content digest is
    // thread-count invariant, so the sweep result is identical at any
    // plane width.
    let entries: Vec<(String, ros_udf::UdfPath, Digest)> = acked
        .iter()
        .map(|(path_str, digest)| {
            let path: ros_udf::UdfPath = path_str
                .parse()
                .map_err(|_| err(format!("tracked path invalid: {path_str}")))?;
            Ok((path_str.clone(), path, *digest))
        })
        .collect::<Result<_, BenchError>>()?;
    for (path_str, path, digest) in &entries {
        match cluster.read_file_supervised(path, &sweep_policy) {
            Ok((r, _)) if verify_payload(digest, &r.data, &verify_plane).is_ok() => {
                report.verified += 1;
            }
            Ok(_) => report.lost.push(format!("{path_str}: payload corrupted")),
            Err(e) => report.lost.push(format!("{path_str}: {e}")),
        }
    }

    report.amplification = if supervised_ops > 0 {
        report.attempts as f64 / supervised_ops as f64
    } else {
        1.0
    };
    report.timeline_digest = ros_sim::fnv1a(report.timeline.join("\n").as_bytes());
    Ok(report)
}

/// Runs the chaos soak twice from the same seed, checks the two
/// timelines agree, and enforces the loss/amplification invariants.
/// Returns the verified report (from the first run).
pub fn run_chaos_checked(cfg: &ChaosConfig) -> Result<ChaosReport, BenchError> {
    let err = |detail: String| BenchError {
        context: "chaos",
        detail,
    };
    let report = run_chaos(cfg)?;
    let replay = run_chaos(cfg)?;
    if replay.timeline_digest != report.timeline_digest {
        return Err(err(format!(
            "fault timeline diverged across identically-seeded runs \
             ({:#018x} vs {:#018x})",
            report.timeline_digest, replay.timeline_digest
        )));
    }
    if !report.lost.is_empty() {
        return Err(err(format!(
            "{} acked write(s) lost: {}",
            report.lost.len(),
            report.lost.join("; ")
        )));
    }
    if report.drill_files_lost > 0 {
        return Err(err(format!(
            "rack drill reported {} unrecoverable file(s) at replication 2",
            report.drill_files_lost
        )));
    }
    if report.amplification > cfg.max_amplification {
        return Err(err(format!(
            "retry amplification {:.2} exceeds the {:.2} ceiling",
            report.amplification, cfg.max_amplification
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_holds_all_invariants() {
        let report = run_chaos_checked(&ChaosConfig::smoke()).unwrap();
        assert!(report.injected > 0, "the plan must land faults");
        assert!(report.verified > 0, "sweep must cover acked paths");
        assert!(report.lost.is_empty());
        assert!(report.amplification >= 1.0);
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_seed() {
        let a = run_chaos(&ChaosConfig::smoke()).unwrap();
        let mut cfg = ChaosConfig::smoke();
        cfg.seed = 43;
        let b = run_chaos(&cfg).unwrap();
        assert_ne!(
            a.timeline_digest, b.timeline_digest,
            "different seeds must diverge the schedule"
        );
    }
}
