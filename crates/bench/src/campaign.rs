//! One campaign driver: a seeded schedule of [`Step`]s run against the
//! shrunk federation of [`Rig`], every read judged by the one
//! [`Model`].
//!
//! The chaos soak ([`crate::chaos`]) and the durability sweep
//! ([`crate::durability`]) are two schedules of this loop — workload,
//! inject, heal, read back, gate — and their reports are views of its
//! [`Outcome`]. The loop has no branch on which harness built the
//! schedule: a landed `RackOutage` runs the re-replication drill
//! whoever injected it, and the only settings, the rig's read and
//! sweep retry policies, take different values in the two schedules.
//! Every campaign ends with [`ros_olfs::Ros::verify_consistency`] on
//! every alive rack, and [`Outcome::gate`] holds the gates both share.

use crate::experiments::BenchError;
use crate::model::{Model, Read, Sweep, Verdict};
use bytes::Bytes;
use ros_cluster::{Cluster, ClusterConfig, ClusterError};
use ros_drive::media::DiscClass;
use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome, RetryPolicy, RetryStats};
use ros_olfs::Redundancy;
use ros_sim::SimDuration;
use ros_udf::UdfPath;

/// The limit on an archive pass's drain and on a quiesce.
const DAY: SimDuration = SimDuration::from_secs(86_400);

fn err(detail: String) -> BenchError {
    BenchError {
        context: "campaign",
        detail,
    }
}

/// One step of a campaign schedule.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Write under the default retry policy. A typed `PartialWrite` is
    /// re-issued (same bytes) and counts as a degraded ack.
    Write(UdfPath, Bytes),
    /// Read under the rig's read policy; the model judges the answer.
    Read(UdfPath),
    /// Stat through the same failover path; its answer is not judged.
    Stat(UdfPath),
    /// Inject a fault; a landed `RackOutage` runs the re-replication
    /// drill.
    Inject(FaultEvent),
    /// Heal failed SSD members and service quarantined bays.
    Maintain,
    /// Maintain, then flush, drain the burns and evict the buffer
    /// copies, retrying with backoff when armed transients abort the
    /// pass. The label heads the pass's timeline line.
    Archive(String),
    /// Send every tray back to the roller.
    ColdStore,
    /// Let simulated time pass on every alive rack.
    Idle(SimDuration),
    /// Run every rack until its background work is done.
    Quiesce,
    /// Audit up to this many images per rack, repairing what rotted.
    Audit(usize),
    /// Read every acked path back under the rig's sweep policy.
    Sweep,
}

/// The shrunk federation a campaign runs on, and its two read policies.
pub(crate) struct Rig {
    /// The federation.
    pub(crate) cluster: Cluster,
    reads: RetryPolicy,
    sweep: RetryPolicy,
}

impl Rig {
    /// Builds the federation: tiny racks with two drive bays, so
    /// quarantine and re-burn can route around a dead drive, and
    /// 512 KB discs in 4-disc arrays, so a 16 KB-file workload seals a
    /// bucket every ~32 writes and reaches the optical path where the
    /// drive, mech and media faults live. Eight tray layers leave a
    /// survivor blanks for its own flush after it absorbs a failed
    /// rack's groups.
    pub(crate) fn new(
        racks: usize,
        replication: usize,
        redundancy: Redundancy,
        reads: RetryPolicy,
        sweep: RetryPolicy,
    ) -> Result<Rig, BenchError> {
        let mut cfg = ClusterConfig::tiny(racks);
        cfg.replication = replication.min(racks);
        cfg.rack.redundancy = redundancy;
        cfg.rack.drive_bays = 2;
        cfg.rack.disc_class = DiscClass::Custom {
            capacity: 512 * 1024,
        };
        cfg.rack.layout.discs_per_tray = 4;
        cfg.rack.drives_per_bay = 4;
        cfg.rack.layout.layers = 8;
        let cluster = Cluster::new(cfg).map_err(|e| err(e.to_string()))?;
        Ok(Rig {
            cluster,
            reads,
            sweep,
        })
    }
}

/// Everything one campaign observed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outcome {
    /// One line per fault, drill and archive pass, in schedule order.
    pub(crate) timeline: Vec<String>,
    /// Fault events that landed.
    pub(crate) injected: usize,
    /// Fault events that did not (target unavailable, or not applicable).
    pub(crate) skipped: usize,
    /// Writes acked at full replication.
    pub(crate) acked_writes: usize,
    /// Writes acked through a typed degraded outcome.
    pub(crate) degraded_writes: usize,
    /// Writes that failed typed; the model did not record them.
    pub(crate) failed_writes: usize,
    /// Reads served first attempt by the primary, and typed answers
    /// where nothing was acked.
    pub(crate) clean_reads: usize,
    /// Reads that needed a retry or a replica fallback.
    pub(crate) degraded_reads: usize,
    /// Reads that failed typed where bytes were owed.
    pub(crate) failed_reads: usize,
    /// Reads that returned bytes the model does not owe.
    pub(crate) silent_reads: usize,
    /// Schedule index of the first failed or silent read.
    pub(crate) first_bad_read: Option<usize>,
    /// Supervised attempts across all reads and writes.
    pub(crate) attempts: u64,
    /// SSD members healed by maintenance.
    pub(crate) members_healed: usize,
    /// Drive bays returned to rotation by maintenance.
    pub(crate) bays_serviced: usize,
    /// Files the rack-failure drills reported unrecoverable.
    pub(crate) drill_files_lost: usize,
    /// Files the drills copied onto a fresh rack that did not read back
    /// there byte for byte (`files_recovered − files_verified`).
    pub(crate) drill_files_unverified: usize,
    /// Images the audits digest-verified.
    pub(crate) audited: usize,
    /// Latent-rot (or unreadable-track) detections by the audits.
    pub(crate) rot_detected: usize,
    /// Detections healed from local disc-array parity.
    pub(crate) repaired_parity: usize,
    /// Detections healed by re-fetching from a replica rack.
    pub(crate) repaired_replica: usize,
    /// The final read-back.
    pub(crate) sweep: Sweep,
    /// `"rack {id}: {issue}"` for each alive rack inconsistent at the end.
    pub(crate) inconsistent: Vec<String>,
}

impl Outcome {
    /// Supervised attempts per read or write: the retry amplification.
    pub(crate) fn amplification(&self) -> f64 {
        let writes = self.acked_writes + self.degraded_writes + self.failed_writes;
        let ops = writes + self.clean_reads + self.degraded_reads + self.failed_reads;
        match ops {
            0 => 1.0,
            ops => self.attempts as f64 / ops as f64,
        }
    }

    /// FNV-1a of the timeline: the reproducibility fingerprint (64-bit
    /// FNV, so historical fingerprints stay comparable).
    pub(crate) fn timeline_digest(&self) -> u64 {
        ros_sim::fnv1a(self.timeline.join("\n").as_bytes())
    }

    /// The gates every campaign holds: no read returned bytes the model
    /// does not owe, and every alive rack ended consistent, so a repair
    /// left half done cannot pass as a quiet loss.
    pub(crate) fn gate(&self) -> Result<(), BenchError> {
        if self.silent_reads > 0 {
            return Err(err(format!("{} silent read(s)", self.silent_reads)));
        }
        match self.inconsistent.first() {
            Some(issue) => Err(err(format!("inconsistent at the end: {issue}"))),
            None => Ok(()),
        }
    }
}

fn attempts<T>(r: &Result<(T, RetryStats), ClusterError>) -> u64 {
    match r {
        Ok((_, stats)) => u64::from(stats.attempts),
        Err(ClusterError::RetriesExhausted { attempts, .. }) => u64::from(*attempts),
        Err(_) => 1,
    }
}

fn maintain(cluster: &mut Cluster, o: &mut Outcome) {
    let (healed, serviced) = cluster.maintain_all();
    o.members_healed += healed;
    o.bays_serviced += serviced;
}

/// Runs `steps` on `rig`. Typed degraded outcomes are counted; only a
/// failed drill or audit ends the campaign early.
pub(crate) fn run(rig: Rig, steps: impl IntoIterator<Item = Step>) -> Result<Outcome, BenchError> {
    let Rig {
        mut cluster,
        reads,
        sweep,
    } = rig;
    let policy = RetryPolicy::default();
    let mut model = Model::new(false);
    let mut o = Outcome::default();
    for (i, step) in steps.into_iter().enumerate() {
        match step {
            Step::Write(path, data) => {
                let write = |c: &mut Cluster| c.write_file_supervised(&path, data.clone(), &policy);
                let first = write(&mut cluster);
                o.attempts += attempts(&first);
                match first {
                    Ok(_) => o.acked_writes += 1,
                    // Durable on the replicas it reached; re-issuing the
                    // same bytes restores full replication.
                    Err(ClusterError::PartialWrite { .. }) => {
                        o.attempts += write(&mut cluster).map_or(0, |(_, s)| u64::from(s.attempts));
                        o.degraded_writes += 1;
                    }
                    Err(_) => {
                        o.failed_writes += 1;
                        continue;
                    }
                }
                model.write(&path, data, false);
            }
            Step::Read(path) => {
                let got = cluster.read_file_supervised(&path, &reads);
                o.attempts += attempts(&got);
                let verdict = model.judge(&path, Read::Latest, &got.as_ref().map(|(r, _)| &r.data));
                match (&got, verdict) {
                    (Ok((r, stats)), _) if stats.attempts > 1 || r.fallbacks > 0 => {
                        o.degraded_reads += 1;
                    }
                    // Nothing acked yet: a typed answer is a clean one.
                    (Ok(_), _) | (Err(_), Verdict::Unowed) => o.clean_reads += 1,
                    (Err(_), _) => o.failed_reads += 1,
                }
                o.silent_reads += usize::from(verdict == Verdict::Wrong);
                if matches!(verdict, Verdict::Wrong | Verdict::Failed) {
                    o.first_bad_read.get_or_insert(i);
                }
            }
            Step::Stat(path) => _ = cluster.stat(&path),
            Step::Inject(event) => {
                let landed = cluster.inject_fault(&event);
                let text = match &landed {
                    InjectionOutcome::Injected => "injected".to_string(),
                    InjectionOutcome::NotApplicable => "n/a".to_string(),
                    InjectionOutcome::Skipped(why) => format!("skipped ({why})"),
                };
                let injected = landed == InjectionOutcome::Injected;
                o.injected += usize::from(injected);
                o.skipped += usize::from(!injected);
                let at = event.at_op;
                let label = event.kind.label();
                o.timeline.push(format!("op {at:>4}  {label:<32} {text}"));
                if let (FaultKind::RackOutage { rack }, true) = (&event.kind, injected) {
                    let victim =
                        u32::try_from(*rack as usize % cluster.racks().len()).unwrap_or(u32::MAX);
                    let drill = cluster
                        .rereplicate_after_failure(victim)
                        .map_err(|e| err(format!("drill after rack {victim} outage: {e}")))?;
                    o.drill_files_lost += drill.files_lost;
                    o.drill_files_unverified +=
                        drill.files_recovered.saturating_sub(drill.files_verified);
                    o.timeline.push(format!(
                        "op {at:>4}  drill r{victim}: {} groups relocated, {} degraded, \
                         {} files recovered, {} lost",
                        drill.groups_relocated,
                        drill.groups_degraded,
                        drill.files_recovered,
                        drill.files_lost
                    ));
                }
            }
            Step::Maintain => maintain(&mut cluster, &mut o),
            Step::Archive(at) => {
                for pass in 1.. {
                    maintain(&mut cluster, &mut o);
                    let line = match cluster.archive_all(DAY) {
                        Ok(n) => format!(
                            "{at}  archive pass: {n} buffer copies evicted (attempt {pass})"
                        ),
                        Err(_) if policy.should_retry(pass) => {
                            cluster.run_all_for(policy.backoff(pass));
                            continue;
                        }
                        Err(e) => format!("{at}  archive pass degraded: {e}"),
                    };
                    o.timeline.push(line);
                    break;
                }
            }
            Step::ColdStore => _ = cluster.cold_store_all(),
            Step::Idle(d) => cluster.run_all_for(d),
            Step::Quiesce => _ = cluster.run_until_quiescent_all(DAY),
            Step::Audit(sample) => {
                let audit = cluster
                    .audit_all(sample)
                    .map_err(|e| err(format!("audit at step {i}: {e}")))?;
                o.audited += audit.sampled;
                o.rot_detected += audit.rotted;
                o.repaired_parity += audit.repaired_parity;
                o.repaired_replica += audit.repaired_replica;
            }
            Step::Sweep => {
                o.sweep =
                    model.sweep(|p| cluster.read_file_supervised(p, &sweep).map(|(r, _)| r.data));
            }
        }
    }
    for rack in cluster.racks().iter().filter(|r| r.is_alive()) {
        if let Some(issue) = rack.ros().verify_consistency().first() {
            o.inconsistent
                .push(format!("rack {}: {}", rack.id().0, issue.what));
        }
    }
    Ok(o)
}
