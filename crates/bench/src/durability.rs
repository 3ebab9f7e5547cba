//! Monte Carlo durability harness (`repro durability`): simulated
//! decades of media aging against the audit-based repair stack.
//!
//! Every cell of the sweep ingests the same dataset into a shrunk
//! optical federation, archives it cold (burned, buffer copies
//! dropped, trays back on the roller), then replays the *same* seeded
//! [`ros_faults::AgingPlan`] — bathtub hazards, correlated batch
//! defects, latent rot and detected sector corruption — epoch by
//! epoch. Cells differ only in the defence configuration:
//!
//! - **scrub/audit cadence** — how often the LOCKSS-style sampled
//!   audit ([`ros_cluster::Cluster::audit_all`]) runs (0 = never);
//! - **replication** — racks per archive group;
//! - **EC width** — RAID-5 (one parity) vs RAID-6 (two) per disc array.
//!
//! Because the aging schedule is identical across cells, differences
//! in outcome are pure treatment effect — a paired comparison, not
//! noise. Each cell is one schedule of [`crate::campaign`]. Each epoch
//! a rotating window of files is also read back through the normal
//! client path and judged by the campaign's model: bytes it does not
//! owe are a *silent corruption read*, the one outcome a preservation
//! system must never produce (the read path's inline digest check turns
//! rot into repair-or-typed-error, so this gate should hold even in
//! undefended cells). The final sweep reads everything and reports
//! bytes lost, the first-loss epoch and the achieved durability nines.
//!
//! The whole harness is deterministic: same seed, byte-identical JSON.

use crate::campaign::{self, Outcome, Rig, Step};
use crate::experiments::BenchError;
use ros_faults::{AgingPlan, AgingSpec, FaultEvent, FaultKind, RetryPolicy};
use ros_olfs::Redundancy;
use ros_sim::SimDuration;
use ros_udf::UdfPath;
use ros_workload::spec::synth_data;
use serde::{Deserialize, Serialize, Value};

fn err(detail: String) -> BenchError {
    BenchError {
        context: "durability",
        detail,
    }
}

/// One defence configuration of the sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// Run the sampled audit every N epochs; 0 disables auditing.
    pub audit_every_epochs: u32,
    /// Racks per archive group.
    pub replication: usize,
    /// Disc-array parity schema.
    pub redundancy: Redundancy,
}

impl CellSpec {
    /// Stable cell name used as the JSON key: `scrub{N}_r{R}_raid{K}`.
    pub fn name(&self) -> String {
        let raid = match self.redundancy {
            Redundancy::None => "raid0",
            Redundancy::Raid5 => "raid5",
            Redundancy::Raid6 => "raid6",
        };
        format!(
            "scrub{}_r{}_{raid}",
            self.audit_every_epochs, self.replication
        )
    }
}

/// Shape of one durability campaign.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Member racks in the federation.
    pub racks: usize,
    /// Simulated epochs (one epoch = one simulated month here; the
    /// aging acceleration knob compresses decades into the horizon).
    pub epochs: u32,
    /// Files ingested before the campaign starts.
    pub files: usize,
    /// Bytes per file.
    pub file_bytes: usize,
    /// Images the audit samples per pass, per rack.
    pub audit_sample: usize,
    /// Seed for the cluster, the workload payloads and the aging plan.
    pub seed: u64,
    /// The defence configurations to sweep.
    pub cells: Vec<CellSpec>,
}

impl DurabilityConfig {
    /// CI smoke: two well-defended cells, few epochs, seconds-scale.
    pub fn smoke() -> Self {
        DurabilityConfig {
            racks: 2,
            epochs: 6,
            files: 24,
            file_bytes: 16 * 1024,
            audit_sample: 64,
            seed: 42,
            cells: vec![
                CellSpec {
                    audit_every_epochs: 1,
                    replication: 2,
                    redundancy: Redundancy::Raid5,
                },
                CellSpec {
                    audit_every_epochs: 1,
                    replication: 2,
                    redundancy: Redundancy::Raid6,
                },
            ],
        }
    }

    /// The full sweep: scrub cadence × replication × EC width.
    pub fn full() -> Self {
        let mut cells = Vec::new();
        for audit_every_epochs in [1u32, 4, 0] {
            for replication in [1usize, 2] {
                for redundancy in [Redundancy::Raid5, Redundancy::Raid6] {
                    cells.push(CellSpec {
                        audit_every_epochs,
                        replication,
                        redundancy,
                    });
                }
            }
        }
        DurabilityConfig {
            racks: 3,
            epochs: 24,
            files: 48,
            file_bytes: 16 * 1024,
            audit_sample: 64,
            seed: 42,
            cells,
        }
    }

    /// The operating point the campaign recommends (most defended:
    /// audit every epoch, replication 2, RAID-6); the gates require
    /// zero loss here.
    pub fn recommended(&self) -> CellSpec {
        CellSpec {
            audit_every_epochs: 1,
            replication: 2.min(self.racks),
            redundancy: Redundancy::Raid6,
        }
    }
}

/// Outcome of one cell of the sweep: a view of its campaign.
#[derive(Clone, Debug, Default)]
pub struct CellReport {
    /// What the campaign observed. Its failed reads are the cell's
    /// mid-campaign read errors: data beyond local redundancy with no
    /// replica surfaces as an error, never as bad data.
    pub outcome: Outcome,
    /// First epoch at which a final-sweep-lost file's read first
    /// failed, if any loss occurred.
    pub first_loss_epoch: Option<u32>,
    /// Durability nines achieved: `-log10(bytes_lost / bytes_total)`,
    /// capped at 12.0 when nothing was lost.
    pub nines: f64,
}

/// A cell's JSON row: flat and in this field order, so the sweep's JSON
/// stays byte-stable.
impl Serialize for CellReport {
    fn serialize_value(&self) -> Value {
        let o = &self.outcome;
        let row = [
            ("injected", o.injected.serialize_value()),
            ("skipped", o.skipped.serialize_value()),
            ("audited", o.audited.serialize_value()),
            ("rot_detected", o.rot_detected.serialize_value()),
            ("repaired_parity", o.repaired_parity.serialize_value()),
            ("repaired_replica", o.repaired_replica.serialize_value()),
            ("silent_corruption_reads", o.silent_reads.serialize_value()),
            ("read_errors", o.failed_reads.serialize_value()),
            ("files_lost", o.sweep.lost.len().serialize_value()),
            ("bytes_lost", o.sweep.bytes_lost.serialize_value()),
            ("first_loss_epoch", self.first_loss_epoch.serialize_value()),
            ("nines", self.nines.serialize_value()),
        ];
        Value::Object(row.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// The whole campaign: one report per cell, keyed by cell name.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DurabilityReport {
    /// Racks per federation.
    pub racks: usize,
    /// Epochs simulated.
    pub epochs: u32,
    /// Files ingested per cell.
    pub files: usize,
    /// Total payload bytes per cell.
    pub bytes_total: u64,
    /// Seed driving the whole campaign.
    pub seed: u64,
    /// Aging events in the shared plan.
    pub aging_events: usize,
    /// Per-cell outcomes in sweep order: `(cell name, report)`.
    pub cells: Vec<(String, CellReport)>,
}

impl DurabilityReport {
    /// Deterministic JSON rendering (struct order, sweep-ordered cells).
    pub fn to_json(&self) -> Result<String, BenchError> {
        serde_json::to_string_pretty(self).map_err(|e| err(e.to_string()))
    }
}

/// One simulated epoch of wall-clock: a month.
const EPOCH: SimDuration = SimDuration::from_secs(30 * 86_400);

/// The shared aging schedule: every cell replays exactly this plan.
fn aging_plan(cfg: &DurabilityConfig) -> AgingPlan {
    // More virtual discs than any cell actually burns; selectors are
    // folded onto the burned population at injection time.
    let spec = AgingSpec::accelerated(32, cfg.epochs);
    AgingPlan::generate(cfg.seed, &spec)
}

/// One cell: ingest, archive and cold-store the dataset, then for each
/// epoch the shared plan's strikes (wrapped `AtRack`, the struck rack
/// being the event's disc selector folded over the federation, so the
/// pattern is cell-invariant), a month idle, the audit and a cold-store
/// when due, and a rotating window of client reads; the sweep last.
fn run_cell(
    cfg: &DurabilityConfig,
    cell: &CellSpec,
    plan: &mut AgingPlan,
) -> Result<CellReport, BenchError> {
    plan.reset();
    let once = RetryPolicy::none();
    let rig = Rig::new(cfg.racks, cell.replication, cell.redundancy, once, once)?;
    let paths = (0..cfg.files)
        .map(|i| format!("/dur/g{}/f{i}", i % 8).parse())
        .collect::<Result<Vec<UdfPath>, _>>()
        .map_err(|e| err(format!("bad file path: {e}")))?;
    let mut steps: Vec<Step> = paths
        .iter()
        .map(|p| Step::Write(p.clone(), synth_data(p, cfg.file_bytes as u64).into()))
        .collect();
    // Archive cold: burn, drop every buffer copy (parity included) and
    // send the trays back to the roller — the discs are the only copy.
    steps.extend([Step::Archive("ingest".into()), Step::ColdStore]);
    let racks = u32::try_from(cfg.racks).unwrap_or(u32::MAX).max(1);
    let window = (cfg.files / 4).max(1);
    let mut epoch_starts = Vec::new();
    for epoch in 0..cfg.epochs {
        epoch_starts.push(steps.len());
        for (i, event) in plan.due_epoch(epoch).into_iter().enumerate() {
            steps.push(Step::Inject(FaultEvent {
                seq: u64::from(epoch) << 32 | i as u64,
                at_op: u64::from(epoch),
                kind: FaultKind::AtRack {
                    rack: event.disc % racks,
                    fault: Box::new(event.kind),
                },
            }));
        }
        steps.push(Step::Idle(EPOCH));
        // The defence under test; repairs re-burn arrays, so return to
        // cold storage and let later strikes hit media.
        if cell.audit_every_epochs > 0 && epoch % cell.audit_every_epochs == 0 {
            steps.extend([Step::Audit(cfg.audit_sample), Step::ColdStore]);
        }
        let first = epoch as usize * window;
        steps.extend((first..first + window).map(|k| Step::Read(paths[k % paths.len()].clone())));
    }
    steps.push(Step::Sweep);
    let outcome = campaign::run(rig, steps)?;
    if outcome.failed_writes > 0 {
        return Err(err(format!(
            "{} ingest write(s) failed",
            outcome.failed_writes
        )));
    }
    // The epoch of the first failed or silent window read; the sweep's
    // own epoch when only the sweep lost files.
    let first_loss_epoch = (!outcome.sweep.lost.is_empty()).then(|| {
        let first_bad = outcome.first_bad_read;
        let epoch = first_bad.and_then(|s| epoch_starts.iter().rposition(|&e| e <= s));
        epoch.map_or(cfg.epochs, |e| u32::try_from(e).unwrap_or(cfg.epochs))
    });
    let lost = outcome.sweep.bytes_lost as f64 / (cfg.files * cfg.file_bytes) as f64;
    let nines = if lost > 0.0 {
        (-lost.log10()).clamp(0.0, 12.0)
    } else {
        12.0
    };
    Ok(CellReport {
        outcome,
        first_loss_epoch,
        nines,
    })
}

/// Runs the whole sweep once.
pub fn run_durability(cfg: &DurabilityConfig) -> Result<DurabilityReport, BenchError> {
    let mut plan = aging_plan(cfg);
    let mut cells = Vec::with_capacity(cfg.cells.len());
    for cell in &cfg.cells {
        let report = run_cell(cfg, cell, &mut plan)?;
        cells.push((cell.name(), report));
    }
    Ok(DurabilityReport {
        racks: cfg.racks,
        epochs: cfg.epochs,
        files: cfg.files,
        bytes_total: cfg.files as u64 * cfg.file_bytes as u64,
        seed: cfg.seed,
        aging_events: plan.len(),
        cells,
    })
}

/// The durability gates, per cell the campaign's own (zero silent
/// reads — the read path must repair or fail typed, never return rotted
/// bytes — and every alive rack consistent after the last epoch, so a
/// half-finished repair cannot pass as a quiet loss), then across the
/// sweep: latent rot detected *and* repaired by the sampled audit
/// somewhere, and zero bytes lost at the recommended operating point.
fn gate(cfg: &DurabilityConfig, report: &DurabilityReport) -> Result<(), BenchError> {
    let (mut rot_detected, mut rot_repaired) = (0, 0);
    for (name, cell) in &report.cells {
        let o = &cell.outcome;
        o.gate()
            .map_err(|e| err(format!("cell {name}: {}", e.detail)))?;
        rot_detected += o.rot_detected;
        rot_repaired += o.repaired_parity + o.repaired_replica;
    }
    if rot_detected == 0 {
        return Err(err(
            "no latent rot detected anywhere: the campaign exercised nothing".into(),
        ));
    }
    if rot_repaired == 0 {
        return Err(err(
            "rot was detected but never repaired: the audit ladder is broken".into(),
        ));
    }
    let recommended = cfg.recommended().name();
    if let Some((_, cell)) = report.cells.iter().find(|(n, _)| *n == recommended) {
        if cell.outcome.sweep.bytes_lost > 0 {
            return Err(err(format!(
                "recommended operating point {recommended} lost {} bytes",
                cell.outcome.sweep.bytes_lost
            )));
        }
    }
    Ok(())
}

/// Runs the sweep twice from the same seed, checks the two JSON
/// renderings are byte-identical, and enforces the gates.
pub fn run_durability_checked(cfg: &DurabilityConfig) -> Result<DurabilityReport, BenchError> {
    let report = run_durability(cfg)?;
    if report.to_json()? != run_durability(cfg)?.to_json()? {
        return Err(err(
            "durability sweep diverged across identically-seeded runs".into(),
        ));
    }
    gate(cfg, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_holds_all_gates() {
        let report = run_durability_checked(&DurabilityConfig::smoke()).unwrap();
        assert_eq!(report.cells.len(), 2);
        for (name, cell) in &report.cells {
            assert_eq!(cell.outcome.silent_reads, 0, "{name}");
            assert_eq!(cell.outcome.sweep.bytes_lost, 0, "{name} must lose nothing");
            assert_eq!(cell.nines, 12.0, "{name}");
        }
        let rot: usize = report
            .cells
            .iter()
            .map(|(_, c)| c.outcome.rot_detected)
            .sum();
        assert!(rot >= 1, "the aging plan must land rot");
    }

    #[test]
    fn one_silent_read_fails_the_gate() {
        let cfg = DurabilityConfig::smoke();
        let cell = |silent_reads| CellReport {
            outcome: Outcome {
                silent_reads,
                rot_detected: 1,
                repaired_parity: 1,
                ..Outcome::default()
            },
            ..CellReport::default()
        };
        let report = |silent_reads| DurabilityReport {
            cells: vec![(cfg.recommended().name(), cell(silent_reads))],
            ..DurabilityReport::default()
        };
        let e = gate(&cfg, &report(1)).unwrap_err();
        assert!(e.detail.contains("silent"), "{e}");
        assert!(gate(&cfg, &report(0)).is_ok());
    }

    #[test]
    fn smoke_json_is_byte_stable() {
        let a = run_durability(&DurabilityConfig::smoke())
            .unwrap()
            .to_json()
            .unwrap();
        let b = run_durability(&DurabilityConfig::smoke())
            .unwrap()
            .to_json()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cell_names_are_stable_keys() {
        let cfg = DurabilityConfig::full();
        let names: Vec<String> = cfg.cells.iter().map(CellSpec::name).collect();
        assert_eq!(names.len(), 12);
        assert!(names.contains(&"scrub1_r2_raid6".to_string()));
        assert!(names.contains(&"scrub0_r1_raid5".to_string()));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
