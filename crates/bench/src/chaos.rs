//! Chaos soak: a mixed multi-tenant workload driven under a seeded
//! cross-layer fault schedule — one schedule of [`crate::campaign`],
//! whose model judges every read — asserting the robustness invariants
//! the retry/supervision stack promises:
//!
//! 1. **Zero acked-write loss** — every write the cluster acknowledged
//!    (including typed degraded outcomes) reads back bit-exact after the
//!    faults, heals and the rack-failure drill; no read returns bytes
//!    the model does not owe, and every alive rack ends consistent.
//! 2. **Bounded retry amplification** — supervised attempts divided by
//!    workload operations stays under a configured ceiling; backoff
//!    cannot silently turn one glitch into an attempt storm.
//! 3. **Reproducible fault timeline** — the injected-event log (and its
//!    digest) is a pure function of the seed; two runs from the same
//!    seed produce identical timelines.
//! 4. **No panics** — every fault surfaces as a typed degraded result.

use crate::campaign::{self, Outcome, Rig, Step};
use crate::experiments::BenchError;
use ros_faults::{FaultPlan, FaultSpec, RetryPolicy};
use ros_olfs::Redundancy;
use ros_workload::dist::SizeDist;
use ros_workload::spec::synth_data;
use ros_workload::{FileOp, WorkloadSpec};

fn err(detail: String) -> BenchError {
    BenchError {
        context: "chaos",
        detail,
    }
}

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

/// Runs one chaos soak: the mix with `plan.due(i)` injected before op
/// `i`, maintenance every 32 ops, an archive pass halfway and at the
/// end, then a quiesce and the sweep. Typed degraded outcomes are
/// counted, not failures.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<Outcome, BenchError> {
    let policy = RetryPolicy::default();
    let sweep = RetryPolicy {
        max_attempts: 6,
        ..policy
    };
    let rig = Rig::new(cfg.racks, 2, Redundancy::Raid5, policy, sweep)?;
    let ops = chaos_spec(cfg.ops).compile(cfg.seed);
    let rack_count = u32::try_from(cfg.racks).unwrap_or(u32::MAX);
    let mut spec = if cfg.heavy {
        FaultSpec::soak(rack_count, ops.len() as u64)
    } else {
        FaultSpec::smoke(rack_count, ops.len() as u64)
    };
    let rack = &rig.cluster.config().rack;
    spec.bays = u32::try_from(rack.drive_bays).unwrap_or(u32::MAX);
    spec.drives_per_bay = u32::try_from(rack.drives_per_bay).unwrap_or(u32::MAX);
    let mut plan = FaultPlan::generate(cfg.seed, &spec);

    let mut steps = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        steps.extend(plan.due(i as u64).into_iter().map(Step::Inject));
        if i % 32 == 31 {
            steps.push(Step::Maintain);
        }
        // Halfway through, archive what has been written, so the second
        // half's reads traverse the optical path the drive/mech faults
        // target.
        if i == ops.len() / 2 {
            steps.push(Step::Archive(format!("op {i:>4}")));
        }
        steps.push(match op {
            FileOp::Write { path, size } => {
                Step::Write(path.clone(), synth_data(path, *size).into())
            }
            FileOp::Read { path } => Step::Read(path.clone()),
            FileOp::Stat { path } => Step::Stat(path.clone()),
        });
    }
    // Let the storm settle, then verify every acked byte — off the
    // discs, not the buffer, where possible.
    steps.extend([Step::Archive("final  ".into()), Step::Quiesce, Step::Sweep]);
    campaign::run(rig, steps)
}

/// The chaos gates: the campaign's own (zero silent reads, consistent
/// racks), zero acked loss, a clean drill, amplification under the
/// ceiling.
fn gate(cfg: &ChaosConfig, o: &Outcome) -> Result<(), BenchError> {
    let fail = |detail: String| Err(err(detail));
    o.gate()?;
    if !o.sweep.lost.is_empty() {
        return fail(format!(
            "{} acked write(s) lost: {}",
            o.sweep.lost.len(),
            o.sweep.lost.join("; ")
        ));
    }
    if o.drill_files_lost > 0 {
        return fail(format!(
            "rack drill reported {} unrecoverable file(s) at replication 2",
            o.drill_files_lost
        ));
    }
    if o.amplification() > cfg.max_amplification {
        return fail(format!(
            "retry amplification {:.2} exceeds the {:.2} ceiling",
            o.amplification(),
            cfg.max_amplification
        ));
    }
    Ok(())
}

/// Runs the chaos soak twice from the same seed, checks the two
/// timelines agree, and enforces the gates. Returns the first run.
pub fn run_chaos_checked(cfg: &ChaosConfig) -> Result<Outcome, BenchError> {
    let outcome = run_chaos(cfg)?;
    let (a, b) = (outcome.timeline_digest(), run_chaos(cfg)?.timeline_digest());
    if a != b {
        return Err(err(format!(
            "fault timeline diverged across identically-seeded runs ({a:#018x} vs {b:#018x})"
        )));
    }
    gate(cfg, &outcome)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_holds_all_invariants() {
        let o = run_chaos_checked(&ChaosConfig::smoke()).unwrap();
        assert!(o.injected > 0, "the plan must land faults");
        assert!(o.sweep.verified > 0, "sweep must cover acked paths");
        assert!(o.sweep.lost.is_empty() && o.inconsistent.is_empty());
        assert!(o.amplification() >= 1.0);
    }

    #[test]
    fn one_silent_read_fails_the_gate() {
        let o = Outcome {
            silent_reads: 1,
            ..Outcome::default()
        };
        let e = gate(&ChaosConfig::smoke(), &o).unwrap_err();
        assert!(e.detail.contains("silent"), "{e}");
        assert!(gate(&ChaosConfig::smoke(), &Outcome::default()).is_ok());
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_seed() {
        let a = run_chaos(&ChaosConfig::smoke()).unwrap();
        let mut cfg = ChaosConfig::smoke();
        cfg.seed = 43;
        let b = run_chaos(&cfg).unwrap();
        assert_ne!(
            a.timeline_digest(),
            b.timeline_digest(),
            "different seeds must diverge the schedule"
        );
    }
}
