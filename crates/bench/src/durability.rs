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
//! noise. Each epoch a rotating window of files is also read back
//! through the normal client path and digest-verified: a mismatch is a
//! *silent corruption read*, the one outcome a preservation system
//! must never produce (the read path's inline digest check turns rot
//! into repair-or-typed-error, so this gate should hold even in
//! undefended cells). The final sweep reads everything and reports
//! bytes lost, the first-loss epoch and the achieved durability nines.
//!
//! The whole harness is deterministic: same seed, byte-identical JSON.

use crate::experiments::BenchError;
use ros_cas::{verify_payload, Digest};
use ros_cluster::{Cluster, ClusterConfig};
use ros_faults::{AgingPlan, AgingSpec, FaultEvent, FaultKind, FaultSink, InjectionOutcome};
use ros_olfs::Redundancy;
use ros_sim::SimDuration;
use ros_workload::spec::synth_data;
use serde::{Deserialize, Serialize};

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

/// Outcome of one cell of the sweep.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Aging events that landed (rot or corruption on a burned disc).
    pub injected: usize,
    /// Aging events that found no target (disc not burned yet, rack
    /// busy, ...).
    pub skipped: usize,
    /// Images the audits digest-verified across the campaign.
    pub audited: usize,
    /// Latent-rot (or unreadable-track) detections by the audits.
    pub rot_detected: usize,
    /// Detections healed from local disc-array parity.
    pub repaired_parity: usize,
    /// Detections healed by re-fetching from a replica rack.
    pub repaired_replica: usize,
    /// Mid-campaign client reads that returned wrong bytes — must be
    /// zero everywhere: rot either repairs inline or errors typed.
    pub silent_corruption_reads: usize,
    /// Mid-campaign client reads that failed typed (data beyond local
    /// redundancy with no replica; surfaces as an error, not bad data).
    pub read_errors: usize,
    /// Files unreadable or digest-mismatched at the final sweep.
    pub files_lost: usize,
    /// Bytes of payload lost at the final sweep.
    pub bytes_lost: u64,
    /// First epoch at which a final-sweep-lost file's read first
    /// failed, if any loss occurred.
    pub first_loss_epoch: Option<u32>,
    /// Durability nines achieved: `-log10(bytes_lost / bytes_total)`,
    /// capped at 12.0 when nothing was lost.
    pub nines: f64,
}

/// The whole campaign: one report per cell, keyed by cell name.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
        serde_json::to_string_pretty(self).map_err(|e| BenchError {
            context: "durability",
            detail: e.to_string(),
        })
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

fn run_cell(
    cfg: &DurabilityConfig,
    cell: &CellSpec,
    plan: &mut AgingPlan,
) -> Result<CellReport, BenchError> {
    let err = |detail: String| BenchError {
        context: "durability",
        detail,
    };
    plan.reset();
    let mut ccfg = ClusterConfig::tiny(cfg.racks);
    ccfg.replication = cell.replication.min(cfg.racks);
    // The chaos-harness shrink: tiny discs and 4-disc arrays so a
    // 16 KB-file ingest actually reaches the optical path.
    ccfg.rack.drive_bays = 2;
    ccfg.rack.disc_class = ros_drive::media::DiscClass::Custom {
        capacity: 512 * 1024,
    };
    ccfg.rack.layout.discs_per_tray = 4;
    ccfg.rack.drives_per_bay = 4;
    ccfg.rack.layout.layers = 8;
    ccfg.rack.redundancy = cell.redundancy;
    let mut cluster = Cluster::new(ccfg).map_err(|e| err(e.to_string()))?;

    // Ingest the dataset and record the acked digests.
    let verify_plane = ros_disk::DataPlane::single();
    let mut files: Vec<(ros_udf::UdfPath, u64, Digest)> = Vec::with_capacity(cfg.files);
    for i in 0..cfg.files {
        let path: ros_udf::UdfPath = format!("/dur/g{}/f{i}", i % 8)
            .parse()
            .map_err(|_| err(format!("bad path for file {i}")))?;
        let data = synth_data(&path, cfg.file_bytes as u64);
        let digest = Digest::of(&data);
        cluster
            .write_file(&path, data.to_vec())
            .map_err(|e| err(format!("ingest {path}: {e}")))?;
        files.push((path, data.len() as u64, digest));
    }
    // Archive cold: burn, drop every buffer copy (parity included) and
    // send the trays back to the roller — the discs are the only copy.
    cluster
        .archive_all(SimDuration::from_secs(86_400))
        .map_err(|e| err(format!("archive: {e}")))?;
    cluster.cold_store_all();

    let mut report = CellReport::default();
    let racks = u32::try_from(cfg.racks).unwrap_or(u32::MAX);
    let mut first_failed_read: Option<u32> = None;
    for epoch in 0..cfg.epochs {
        // Deliver this epoch's share of the shared aging schedule; the
        // struck rack is the event's disc selector folded over the
        // federation, so the pattern is cell-invariant.
        for (i, event) in plan.due_epoch(epoch).into_iter().enumerate() {
            let kind = FaultKind::AtRack {
                rack: event.disc % racks.max(1),
                fault: Box::new(event.kind.clone()),
            };
            let outcome = cluster.inject_fault(&FaultEvent {
                seq: u64::from(epoch) << 32 | i as u64,
                at_op: u64::from(epoch),
                kind,
            });
            match outcome {
                InjectionOutcome::Injected => report.injected += 1,
                _ => report.skipped += 1,
            }
        }
        cluster.run_all_for(EPOCH);

        // The defence under test: the scheduled audit sweep.
        if cell.audit_every_epochs > 0 && epoch % cell.audit_every_epochs == 0 {
            let audit = cluster
                .audit_all(cfg.audit_sample)
                .map_err(|e| err(format!("audit at epoch {epoch}: {e}")))?;
            report.audited += audit.sampled;
            report.rot_detected += audit.rotted;
            report.repaired_parity += audit.repaired_parity;
            report.repaired_replica += audit.repaired_replica;
            // Repairs re-burn arrays; return to cold storage so later
            // aging strikes hit media, not lingering buffer copies.
            cluster.cold_store_all();
        }

        // Client reads: a rotating window of the dataset, digest
        // verified. Silent corruption here is the unforgivable outcome.
        let window = (cfg.files / 4).max(1);
        for k in 0..window {
            let (path, _, digest) = &files[(epoch as usize * window + k) % files.len()];
            match cluster.read_file(path) {
                Ok(r) => {
                    if verify_payload(digest, &r.data, &verify_plane).is_err() {
                        report.silent_corruption_reads += 1;
                        first_failed_read.get_or_insert(epoch);
                    }
                }
                Err(_) => {
                    report.read_errors += 1;
                    first_failed_read.get_or_insert(epoch);
                }
            }
        }
    }

    // Final sweep: every byte, through the normal read path.
    for (path, len, digest) in &files {
        let lost = match cluster.read_file(path) {
            Ok(r) => verify_payload(digest, &r.data, &verify_plane).is_err(),
            Err(_) => true,
        };
        if lost {
            report.files_lost += 1;
            report.bytes_lost += len;
        }
    }
    if report.files_lost > 0 {
        report.first_loss_epoch = first_failed_read.or(Some(cfg.epochs));
    }
    // Whatever the cell lost, it must have lost it cleanly: a repair or
    // rewrite left half-done shows up as an index that disagrees with
    // another.
    for rack in cluster.racks().iter().filter(|r| r.is_alive()) {
        if let Some(issue) = rack.ros().verify_consistency().first() {
            return Err(err(format!(
                "cell {}: rack {} inconsistent after the last epoch: {}",
                cell.name(),
                rack.id().0,
                issue.what
            )));
        }
    }
    let total: u64 = files.iter().map(|(_, len, _)| *len).sum();
    report.nines = if report.bytes_lost == 0 || total == 0 {
        12.0
    } else {
        (-(report.bytes_lost as f64 / total as f64).log10()).clamp(0.0, 12.0)
    };
    Ok(report)
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

/// Runs the sweep twice from the same seed, checks the two JSON
/// renderings are byte-identical, and enforces the campaign gates:
///
/// 1. zero silent-corruption reads in *every* cell (the read path must
///    repair or fail typed, never return rotted bytes);
/// 2. at least one latent-rot event detected *and* repaired by the
///    sampled audit somewhere in the sweep;
/// 3. zero bytes lost at the recommended operating point.
///
/// [`run_durability`] itself fails a cell that leaves any alive rack
/// with a [`ros_olfs::Ros::verify_consistency`] issue after its last
/// epoch, so a half-finished repair cannot pass as a quiet loss.
pub fn run_durability_checked(cfg: &DurabilityConfig) -> Result<DurabilityReport, BenchError> {
    let err = |detail: String| BenchError {
        context: "durability",
        detail,
    };
    let report = run_durability(cfg)?;
    let replay = run_durability(cfg)?;
    let (a, b) = (report.to_json()?, replay.to_json()?);
    if a != b {
        return Err(err(
            "durability sweep diverged across identically-seeded runs".into(),
        ));
    }
    let mut rot_repaired = 0usize;
    let mut rot_detected = 0usize;
    for (name, cell) in &report.cells {
        if cell.silent_corruption_reads > 0 {
            return Err(err(format!(
                "cell {name}: {} silent-corruption read(s) — a client saw rotted bytes",
                cell.silent_corruption_reads
            )));
        }
        rot_detected += cell.rot_detected;
        rot_repaired += cell.repaired_parity + cell.repaired_replica;
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
        if cell.bytes_lost > 0 {
            return Err(err(format!(
                "recommended operating point {recommended} lost {} bytes",
                cell.bytes_lost
            )));
        }
    }
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
            assert_eq!(cell.silent_corruption_reads, 0, "{name}");
            assert_eq!(cell.bytes_lost, 0, "{name} must lose nothing");
            assert_eq!(cell.nines, 12.0, "{name}");
        }
        let rot: usize = report.cells.iter().map(|(_, c)| c.rot_detected).sum();
        assert!(rot >= 1, "the aging plan must land rot");
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
