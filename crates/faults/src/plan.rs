//! Seeded fault schedules and the sink trait layers implement.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s ordered by the workload
//! operation index at which they strike. Scheduling by *op index* rather
//! than simulated time keeps plans independent of the latency model: the
//! same seed produces the same fault at the same point of the workload
//! regardless of how long each operation takes.

use ros_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Which SSD/HDD volume of a rack an SSD-tier fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum VolumeTarget {
    /// The metadata volume (RAID1 SSD mirror, §4.2).
    Metadata,
    /// The HDD write buffer / read cache volume (RAID5, §4.1).
    Buffer,
    /// The auxiliary volume.
    Aux,
}

impl VolumeTarget {
    fn label(self) -> &'static str {
        match self {
            VolumeTarget::Metadata => "mv",
            VolumeTarget::Buffer => "buffer",
            VolumeTarget::Aux => "aux",
        }
    }
}

/// A typed fault, targeting one layer's existing failure hook.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The next `count` reads on drive `(bay, drive)` fail with a
    /// transient servo/focus error (retryable).
    DriveTransientReads {
        /// Target drive bay (taken modulo the bay count).
        bay: u32,
        /// Target drive within the bay (modulo drives per bay).
        drive: u32,
        /// Reads to fail.
        count: u32,
    },
    /// The next `count` burn completions on drive `(bay, drive)` spoil
    /// the disc (persistent: the tray must be retired and re-burned).
    DriveBurnFaults {
        /// Target drive bay (taken modulo the bay count).
        bay: u32,
        /// Target drive within the bay (modulo drives per bay).
        drive: u32,
        /// Burns to fail.
        count: u32,
    },
    /// Drive `(bay, drive)` dies permanently (§3: servo failures). The
    /// library quarantines the whole bay.
    DriveDeath {
        /// Target drive bay (taken modulo the bay count).
        bay: u32,
        /// Target drive within the bay (modulo drives per bay).
        drive: u32,
    },
    /// Sector corruption on a burned disc (scratches / ageing, §4.7).
    /// `disc` selects the victim among burned discs (modulo their count).
    MediaCorruption {
        /// Victim selector over the burned-disc population.
        disc: u64,
        /// Number of leading sectors to corrupt.
        sectors: u32,
    },
    /// Latent sector rot on a burned disc: `bytes` payload bytes flip
    /// silently, with *no* I/O error — reads succeed and return wrong
    /// bytes until an end-to-end digest audit catches them ("A Fresh
    /// Look at the Reliability of Long-term Digital Storage"). `disc`
    /// selects the victim among burned discs (modulo their count).
    MediaRot {
        /// Victim selector over the burned-disc population.
        disc: u64,
        /// Number of payload bytes to flip.
        bytes: u32,
    },
    /// The next `count` mechanical load/unload operations fail
    /// transiently (arm/latch/tray misfeeds, retryable).
    MechTransient {
        /// Operations to fail.
        count: u32,
    },
    /// One member device of a RAID volume fails (SSD/HDD loss; the array
    /// runs degraded, or refuses service once redundancy is exhausted).
    SsdLoss {
        /// The volume whose array loses a member.
        volume: VolumeTarget,
        /// Member index (taken modulo the member count).
        member: u32,
    },
    /// A failed member is replaced and rebuilt (the paired recovery
    /// action a fault plan schedules after an [`FaultKind::SsdLoss`]).
    SsdRepair {
        /// The volume whose array regains the member.
        volume: VolumeTarget,
        /// Member index (taken modulo the member count).
        member: u32,
    },
    /// A whole rack goes dark (power/network loss, §6's unit of growth
    /// is also the unit of failure).
    RackOutage {
        /// Victim rack (taken modulo the rack count).
        rack: u32,
    },
    /// A rack keeps serving but slower, scaling its request latencies by
    /// `factor_pct` percent (100 = nominal, 300 = 3x slower).
    RackSlow {
        /// Target rack (taken modulo the rack count).
        rack: u32,
        /// Latency scale factor in percent.
        factor_pct: u32,
    },
    /// Delivers an intra-rack fault to one member of a cluster. The
    /// cluster-level sink unwraps this and routes `fault` to the rack's
    /// engine; single-rack sinks report it as not applicable.
    AtRack {
        /// The member rack (taken modulo the rack count).
        rack: u32,
        /// The fault to apply inside that rack.
        fault: Box<FaultKind>,
    },
}

impl FaultKind {
    /// Compact human-readable label for fault timelines.
    pub fn label(&self) -> String {
        match self {
            FaultKind::DriveTransientReads { bay, drive, count } => {
                format!("drive-transient-read b{bay}d{drive}x{count}")
            }
            FaultKind::DriveBurnFaults { bay, drive, count } => {
                format!("drive-burn-fault b{bay}d{drive}x{count}")
            }
            FaultKind::DriveDeath { bay, drive } => format!("drive-death b{bay}d{drive}"),
            FaultKind::MediaCorruption { disc, sectors } => {
                format!("media-corruption d{disc}s{sectors}")
            }
            FaultKind::MediaRot { disc, bytes } => format!("media-rot d{disc}b{bytes}"),
            FaultKind::MechTransient { count } => format!("mech-transient x{count}"),
            FaultKind::SsdLoss { volume, member } => {
                format!("ssd-loss {}#{member}", volume.label())
            }
            FaultKind::SsdRepair { volume, member } => {
                format!("ssd-repair {}#{member}", volume.label())
            }
            FaultKind::RackOutage { rack } => format!("rack-outage r{rack}"),
            FaultKind::RackSlow { rack, factor_pct } => {
                format!("rack-slow r{rack}@{factor_pct}%")
            }
            FaultKind::AtRack { rack, fault } => format!("r{rack}:{}", fault.label()),
        }
    }
}

/// One scheduled fault: strikes just before workload operation `at_op`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Position in the plan (0-based, unique, ordered).
    pub seq: u64,
    /// Workload operation index the fault fires before.
    pub at_op: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

/// Outcome of delivering one fault event to a sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectionOutcome {
    /// The fault was applied through the layer's hook.
    Injected,
    /// The sink does not model this fault's target layer.
    NotApplicable,
    /// The target exists but the fault could not land right now (e.g.
    /// no burned disc yet, or the rack is already down).
    Skipped(String),
}

/// A layer that can accept fault events through its existing hooks.
///
/// Implementations route by [`FaultKind`]: a drive handles drive kinds,
/// a RAID array handles SSD kinds, the rack engine routes to its
/// subsystems, and the cluster unwraps [`FaultKind::AtRack`]. Unknown
/// kinds return [`InjectionOutcome::NotApplicable`] — never panic.
pub trait FaultSink {
    /// Applies one fault event, reporting what happened.
    fn inject_fault(&mut self, event: &FaultEvent) -> InjectionOutcome;
}

/// Shape of a fault plan: how many events of each category to schedule
/// over a workload horizon, and the topology they may target.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Workload operations the plan spans; events fire in `[0, horizon)`.
    pub(crate) horizon_ops: u64,
    /// Cluster width. Zero means a single-rack plan: intra-rack faults
    /// are emitted bare (no [`FaultKind::AtRack`] wrapper) and
    /// rack-level categories are skipped.
    pub(crate) racks: u32,
    /// Drive bays per rack.
    pub bays: u32,
    /// Drives per bay.
    pub drives_per_bay: u32,
    /// RAID members per SSD volume (for member selection).
    pub(crate) volume_members: u32,
    /// Transient drive-read fault events.
    pub(crate) drive_transient_reads: u32,
    /// Spoiled-burn events.
    pub(crate) drive_burn_faults: u32,
    /// Permanent drive deaths.
    pub(crate) drive_deaths: u32,
    /// Burned-disc sector-corruption events.
    pub(crate) media_corruptions: u32,
    /// Latent byte-rot events (silent corruption; absent in older
    /// serialized specs).
    #[serde(default)]
    pub(crate) media_rot_events: u32,
    /// Transient mechanical fault events.
    pub(crate) mech_transients: u32,
    /// SSD member losses (each schedules a paired repair later).
    pub(crate) ssd_losses: u32,
    /// Whole-rack outages (clamped to at most one: the zero-loss
    /// invariant only holds while replication can still be satisfied).
    pub(crate) rack_outages: u32,
    /// Slow-rack events.
    pub(crate) rack_slowdowns: u32,
}

impl FaultSpec {
    /// Small deterministic mix for CI smoke runs.
    pub fn smoke(racks: u32, horizon_ops: u64) -> Self {
        FaultSpec {
            horizon_ops: horizon_ops.max(1),
            racks,
            bays: 4,
            drives_per_bay: 12,
            volume_members: 7,
            drive_transient_reads: 3,
            drive_burn_faults: 1,
            drive_deaths: 1,
            media_corruptions: 2,
            media_rot_events: 0,
            mech_transients: 2,
            ssd_losses: 2,
            rack_outages: 1,
            rack_slowdowns: 1,
        }
    }

    /// Heavier mix for the full chaos soak.
    pub fn soak(racks: u32, horizon_ops: u64) -> Self {
        FaultSpec {
            horizon_ops: horizon_ops.max(1),
            racks,
            bays: 4,
            drives_per_bay: 12,
            volume_members: 7,
            drive_transient_reads: 8,
            drive_burn_faults: 2,
            drive_deaths: 1,
            media_corruptions: 6,
            media_rot_events: 0,
            mech_transients: 5,
            ssd_losses: 4,
            rack_outages: 1,
            rack_slowdowns: 2,
        }
    }
}

/// A deterministic, seeded schedule of fault events.
///
/// Two plans generated from the same `(seed, spec)` are identical; any
/// change to either diverges the sequence. [`FaultPlan::due`] hands each
/// event out once.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

/// Draws `rng.index` below a `u32` bound and returns it as `u32`: the
/// result is strictly below the bound, so the narrowing is lossless and
/// the saturation fallback is unreachable.
fn index_u32(rng: &mut SimRng, bound: u32) -> u32 {
    u32::try_from(rng.index(bound.max(1) as usize)).unwrap_or(u32::MAX)
}

impl FaultPlan {
    /// Generates the plan for `spec` from `seed`.
    ///
    /// Each fault category forks its own child generator with a fixed
    /// salt, so adding events to one category never perturbs another —
    /// the property the chaos harness relies on to compare runs.
    pub fn generate(seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut root = SimRng::seed_from(seed);
        let mut staged: Vec<(u64, FaultKind)> = Vec::new();
        let horizon = spec.horizon_ops.max(1);
        let clustered = spec.racks > 0;
        let wrap = |rng: &mut SimRng, kind: FaultKind| -> FaultKind {
            if clustered {
                FaultKind::AtRack {
                    rack: index_u32(rng, spec.racks),
                    fault: Box::new(kind),
                }
            } else {
                kind
            }
        };

        let mut rng = root.fork(0x01);
        for _ in 0..spec.drive_transient_reads {
            let at = rng.range_u64(0, horizon);
            let kind = FaultKind::DriveTransientReads {
                bay: index_u32(&mut rng, spec.bays),
                drive: index_u32(&mut rng, spec.drives_per_bay),
                count: 1 + index_u32(&mut rng, 3),
            };
            staged.push((at, wrap(&mut rng, kind)));
        }

        let mut rng = root.fork(0x02);
        for _ in 0..spec.drive_burn_faults {
            let at = rng.range_u64(0, horizon);
            let kind = FaultKind::DriveBurnFaults {
                bay: index_u32(&mut rng, spec.bays),
                drive: index_u32(&mut rng, spec.drives_per_bay),
                count: 1 + index_u32(&mut rng, 2),
            };
            staged.push((at, wrap(&mut rng, kind)));
        }

        let mut rng = root.fork(0x03);
        for _ in 0..spec.drive_deaths {
            let at = rng.range_u64(0, horizon);
            let kind = FaultKind::DriveDeath {
                bay: index_u32(&mut rng, spec.bays),
                drive: index_u32(&mut rng, spec.drives_per_bay),
            };
            staged.push((at, wrap(&mut rng, kind)));
        }

        let mut rng = root.fork(0x04);
        for _ in 0..spec.media_corruptions {
            // Strike in the later half so some discs are burned by then.
            let at = horizon / 2 + rng.range_u64(0, horizon.div_ceil(2));
            let kind = FaultKind::MediaCorruption {
                disc: rng.next_u64(),
                sectors: 1 + index_u32(&mut rng, 4),
            };
            staged.push((at.min(horizon - 1), wrap(&mut rng, kind)));
        }

        let mut rng = root.fork(0x05);
        for _ in 0..spec.mech_transients {
            let at = rng.range_u64(0, horizon);
            let kind = FaultKind::MechTransient {
                count: 1 + index_u32(&mut rng, 2),
            };
            staged.push((at, wrap(&mut rng, kind)));
        }

        let mut rng = root.fork(0x06);
        for _ in 0..spec.ssd_losses {
            let at = rng.range_u64(0, horizon);
            let volume = match rng.index(4) {
                0 => VolumeTarget::Metadata,
                3 => VolumeTarget::Aux,
                _ => VolumeTarget::Buffer,
            };
            let member = index_u32(&mut rng, spec.volume_members);
            let rack = if clustered {
                index_u32(&mut rng, spec.racks)
            } else {
                0
            };
            let heal_gap = 1 + rng.range_u64(0, 16);
            let loss = FaultKind::SsdLoss { volume, member };
            let repair = FaultKind::SsdRepair { volume, member };
            let (loss, repair) = if clustered {
                (
                    FaultKind::AtRack {
                        rack,
                        fault: Box::new(loss),
                    },
                    FaultKind::AtRack {
                        rack,
                        fault: Box::new(repair),
                    },
                )
            } else {
                (loss, repair)
            };
            staged.push((at, loss));
            staged.push(((at + heal_gap).min(horizon - 1), repair));
        }

        if clustered {
            let mut rng = root.fork(0x07);
            for _ in 0..spec.rack_outages.min(1) {
                // Late in the horizon: there is data to re-replicate.
                let at = horizon / 2 + rng.range_u64(0, horizon.div_ceil(2));
                staged.push((
                    at.min(horizon - 1),
                    FaultKind::RackOutage {
                        rack: index_u32(&mut rng, spec.racks),
                    },
                ));
            }

            let mut rng = root.fork(0x08);
            for _ in 0..spec.rack_slowdowns {
                let at = rng.range_u64(0, horizon);
                staged.push((
                    at,
                    FaultKind::RackSlow {
                        rack: index_u32(&mut rng, spec.racks),
                        factor_pct: 150 + u32::try_from(rng.range_u64(0, 250)).unwrap_or(u32::MAX),
                    },
                ));
            }
        }

        // Forked after every pre-existing category so older plans are
        // byte-identical whenever `media_rot_events` is zero.
        let mut rng = root.fork(0x09);
        for _ in 0..spec.media_rot_events {
            // Strike in the later half so some discs are burned by then.
            let at = horizon / 2 + rng.range_u64(0, horizon.div_ceil(2));
            let kind = FaultKind::MediaRot {
                disc: rng.next_u64(),
                bytes: 1 + index_u32(&mut rng, 8),
            };
            staged.push((at.min(horizon - 1), wrap(&mut rng, kind)));
        }

        // Stable sort: ties keep category order, which is fixed above,
        // so the sequence is fully determined by (seed, spec).
        staged.sort_by_key(|(at, _)| *at);
        let events = staged
            .into_iter()
            .enumerate()
            .map(|(i, (at_op, kind))| FaultEvent {
                seq: i as u64,
                at_op,
                kind,
            })
            .collect();
        FaultPlan { events, cursor: 0 }
    }

    /// The full schedule, ordered by `at_op` then `seq`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Pops every not-yet-delivered event due at or before `op`
    /// (in schedule order). Call once per workload operation.
    pub fn due(&mut self, op: u64) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at_op <= op {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total events `spec` schedules (repairs counted).
    fn event_count(spec: &FaultSpec) -> u64 {
        let rack_level = if spec.racks == 0 {
            0
        } else {
            u64::from(spec.rack_outages.min(1)) + u64::from(spec.rack_slowdowns)
        };
        u64::from(spec.drive_transient_reads)
            + u64::from(spec.drive_burn_faults)
            + u64::from(spec.drive_deaths)
            + u64::from(spec.media_corruptions)
            + u64::from(spec.media_rot_events)
            + u64::from(spec.mech_transients)
            + 2 * u64::from(spec.ssd_losses)
            + rack_level
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec::soak(4, 500);
        let a = FaultPlan::generate(7, &spec);
        let b = FaultPlan::generate(7, &spec);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len() as u64, event_count(&spec));
    }

    #[test]
    fn events_are_ordered_and_within_horizon() {
        let spec = FaultSpec::soak(3, 200);
        let plan = FaultPlan::generate(99, &spec);
        let mut last = 0;
        for e in plan.events() {
            assert!(e.at_op >= last, "events must be sorted");
            assert!(e.at_op < spec.horizon_ops);
            last = e.at_op;
        }
    }

    #[test]
    fn due_hands_out_each_event_once() {
        let spec = FaultSpec::smoke(2, 50);
        let mut plan = FaultPlan::generate(3, &spec);
        let total = plan.events().len();
        let mut seen = 0;
        for op in 0..50 {
            seen += plan.due(op).len();
        }
        assert_eq!(seen, total);
        assert!(plan.due(u64::MAX).is_empty());
    }

    #[test]
    fn single_rack_plans_have_no_rack_level_events() {
        let spec = FaultSpec {
            racks: 0,
            ..FaultSpec::soak(0, 100)
        };
        let plan = FaultPlan::generate(11, &spec);
        for e in plan.events() {
            assert!(
                !matches!(
                    e.kind,
                    FaultKind::RackOutage { .. }
                        | FaultKind::RackSlow { .. }
                        | FaultKind::AtRack { .. }
                ),
                "single-rack plan emitted {:?}",
                e.kind
            );
        }
    }

    #[test]
    fn at_most_one_rack_outage() {
        let mut spec = FaultSpec::soak(4, 300);
        spec.rack_outages = 7;
        let plan = FaultPlan::generate(5, &spec);
        let outages = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::RackOutage { .. }))
            .count();
        assert_eq!(outages, 1);
    }

    #[test]
    fn labels_are_compact_and_total() {
        let spec = FaultSpec::soak(2, 100);
        for e in FaultPlan::generate(1, &spec).events() {
            assert!(!e.kind.label().is_empty());
        }
    }
}
