//! Fault routing and retry supervision over the engine.
//!
//! Two halves:
//!
//! - [`Ros`] implements [`FaultSink`], routing each typed
//!   [`FaultEvent`] to the subsystem it targets (a drive, the mechanical
//!   scheduler, a RAID volume, a burned disc's media) through that
//!   layer's own sink or failure hook.
//! - Supervised foreground operations ([`Ros::read_file_supervised`],
//!   [`Ros::write_file_supervised`]) wrap the plain calls in a bounded
//!   retry loop: transient faults back off exponentially in *simulated*
//!   time and retry; hard faults and exhausted budgets surface as typed
//!   errors, never a panic and never a silent partial success.

use crate::engine::{ReadReport, Ros, WriteReport};
use crate::error::OlfsError;
use crate::ids::DiscId;
use bytes::Bytes;
use ros_drive::media::Disc;
use ros_faults::{
    FaultEvent, FaultKind, FaultSink, InjectionOutcome, RetryPolicy, RetryStats, VolumeTarget,
};
use ros_udf::UdfPath;

impl Ros {
    /// Reads a file under `policy`: transient faults retry with backoff
    /// charged to the simulated clock; the stats report what the
    /// supervision spent.
    pub fn read_file_supervised(
        &mut self,
        path: &UdfPath,
        policy: &RetryPolicy,
    ) -> Result<(ReadReport, RetryStats), OlfsError> {
        self.supervised("read", policy, |ros| ros.read_file(path))
    }

    /// Writes a file under `policy` (see [`Ros::read_file_supervised`]).
    pub fn write_file_supervised(
        &mut self,
        path: &UdfPath,
        data: Bytes,
        policy: &RetryPolicy,
    ) -> Result<(WriteReport, RetryStats), OlfsError> {
        self.supervised("write", policy, |ros| ros.write_file(path, data.clone()))
    }

    /// [`ros_faults::supervise`] over this rack: backoff runs its clock,
    /// a spent budget is a typed [`OlfsError::RetriesExhausted`].
    pub(crate) fn supervised<T>(
        &mut self,
        op: &str,
        policy: &RetryPolicy,
        attempt: impl FnMut(&mut Ros) -> Result<T, OlfsError>,
    ) -> Result<(T, RetryStats), OlfsError> {
        let exhausted = |attempts, last| OlfsError::RetriesExhausted {
            op: op.to_string(),
            attempts,
            last: Box::new(last),
        };
        ros_faults::supervise(self, policy, attempt, exhausted, Ros::run_for)
    }

    /// Replaces every failed member across the three RAID volumes
    /// (maintenance window: spare devices swap in and rebuild). Returns
    /// the number of members replaced.
    pub fn heal_volumes(&mut self) -> Result<usize, OlfsError> {
        let mut replaced = 0;
        for vol in [self.vol_mv, self.vol_buffer, self.vol_aux] {
            let array = self.vm.array_mut(vol)?;
            let failed = array.failed_members();
            if failed == 0 {
                continue;
            }
            for i in 0..array.members() {
                let _ = array.replace_member(i);
            }
            replaced += failed;
        }
        Ok(replaced)
    }

    /// Picks the victim of a media fault: the `disc`-th burned disc
    /// (wrapping) among those resting in their trays — a disc loaded in
    /// a drive is out of the arm's reach.
    fn media_victim(&mut self, disc: u64) -> Result<(DiscId, &mut Disc), InjectionOutcome> {
        let burned: Vec<DiscId> = (0..self.registry.len() as u64)
            .map(DiscId)
            .filter(|id| self.registry.disc(*id).is_some_and(|d| !d.is_blank()))
            .collect();
        if burned.is_empty() {
            return Err(InjectionOutcome::Skipped("no burned discs in trays".into()));
        }
        let victim = burned[ros_sim::to_usize(disc % burned.len() as u64)];
        let media = self
            .registry
            .disc_mut(victim)
            .ok_or_else(|| InjectionOutcome::Skipped(format!("disc {victim} not in a tray")))?;
        Ok((victim, media))
    }
}

/// Routes each fault kind to the subsystem implementing its hook. The
/// modulo-wrapping of targeting coordinates happens here, so generated
/// plans always land on real hardware.
impl FaultSink for Ros {
    fn inject_fault(&mut self, event: &FaultEvent) -> InjectionOutcome {
        match &event.kind {
            FaultKind::DriveTransientReads { bay, drive, .. }
            | FaultKind::DriveBurnFaults { bay, drive, .. }
            | FaultKind::DriveDeath { bay, drive } => {
                let b = *bay as usize % self.bays.len();
                let d = *drive as usize % self.cfg.drives_per_bay;
                match self.bays[b].drive_mut(d) {
                    Some(unit) => unit.inject_fault(event),
                    None => InjectionOutcome::Skipped(format!("no drive {d} in bay {b}")),
                }
            }
            FaultKind::MediaCorruption { disc, sectors } => {
                let (victim, media) = match self.media_victim(*disc) {
                    Ok(v) => v,
                    Err(skipped) => return skipped,
                };
                let Some((start, end)) = media.tracks().first().map(ros_drive::Track::sector_range)
                else {
                    return InjectionOutcome::Skipped(format!("disc {victim} has no tracks"));
                };
                let span = (end - start).max(1);
                for k in 0..u64::from(*sectors) {
                    media.corrupt_sector(start + k % span);
                }
                InjectionOutcome::Injected
            }
            FaultKind::MediaRot { disc, bytes } => {
                // Same victim population as MediaCorruption, but the
                // damage is *silent*: bytes flip with no sector error, so
                // only a digest audit (or a read-path digest check) can
                // see it.
                let (victim, media) = match self.media_victim(*disc) {
                    Ok(v) => v,
                    Err(skipped) => return skipped,
                };
                if media.rot_bytes(*disc, *bytes) == 0 {
                    return InjectionOutcome::Skipped(format!("disc {victim} has no payload"));
                }
                InjectionOutcome::Injected
            }
            FaultKind::MechTransient { .. } => self.mech.inject_fault(event),
            FaultKind::SsdLoss { volume, .. } | FaultKind::SsdRepair { volume, .. } => {
                let vol = match volume {
                    VolumeTarget::Metadata => self.vol_mv,
                    VolumeTarget::Buffer => self.vol_buffer,
                    VolumeTarget::Aux => self.vol_aux,
                };
                match self.vm.array_mut(vol) {
                    Ok(array) => array.inject_fault(event),
                    Err(e) => InjectionOutcome::Skipped(format!("volume missing: {e}")),
                }
            }
            FaultKind::RackOutage { .. }
            | FaultKind::RackSlow { .. }
            | FaultKind::AtRack { .. } => InjectionOutcome::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn ev(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        }
    }

    #[test]
    fn transient_mech_fault_is_retried_and_charged() {
        let mut r = Ros::new(RosConfig::tiny());
        let data = vec![5u8; 200_000];
        r.write_file(&p("/sup/a"), data.clone()).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        // Arm one misfeed: the fetch's load_array fails once, then the
        // retry succeeds.
        assert_eq!(
            r.inject_fault(&ev(FaultKind::MechTransient { count: 1 })),
            InjectionOutcome::Injected
        );
        let policy = RetryPolicy::default();
        let (report, stats) = r.read_file_supervised(&p("/sup/a"), &policy).unwrap();
        assert_eq!(report.data.as_ref(), data.as_slice());
        assert_eq!(stats.attempts, 2);
        assert!(stats.backoff_total > ros_sim::SimDuration::ZERO);
    }

    #[test]
    fn exhausted_retries_surface_typed() {
        let mut r = Ros::new(RosConfig::tiny());
        let data = vec![6u8; 200_000];
        r.write_file(&p("/sup/b"), data).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        r.inject_fault(&ev(FaultKind::MechTransient { count: 10 }));
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let err = r.read_file_supervised(&p("/sup/b"), &policy).unwrap_err();
        match err {
            OlfsError::RetriesExhausted { op, attempts, last } => {
                assert_eq!(op, "read");
                assert_eq!(attempts, 3);
                assert!(matches!(*last, OlfsError::Transient(_)));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn hard_errors_do_not_burn_retry_budget() {
        let mut r = Ros::new(RosConfig::tiny());
        let policy = RetryPolicy::default();
        let err = r.read_file_supervised(&p("/missing"), &policy).unwrap_err();
        assert!(matches!(err, OlfsError::NotFound(_)));
    }

    #[test]
    fn dead_drive_quarantines_bay_and_read_reroutes() {
        let mut cfg = RosConfig::tiny();
        cfg.drive_bays = 2;
        let mut r = Ros::new(cfg);
        let data = vec![7u8; 200_000];
        r.write_file(&p("/sup/c"), data.clone()).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        // Kill every drive in bay 0: the first fetch lands there, fails,
        // quarantines the bay, and the retry reroutes through bay 1.
        for d in 0..r.config().drives_per_bay as u32 {
            r.inject_fault(&ev(FaultKind::DriveDeath { bay: 0, drive: d }));
        }
        let (report, stats) = r
            .read_file_supervised(&p("/sup/c"), &RetryPolicy::default())
            .unwrap();
        assert_eq!(report.data.as_ref(), data.as_slice());
        assert!(stats.attempts >= 2, "attempts = {}", stats.attempts);
        assert_eq!(r.quarantined_bays(), vec![0]);
        // Field service returns the bay to rotation.
        assert_eq!(r.service_quarantined_bays(), 1);
        assert!(r.quarantined_bays().is_empty());
    }

    #[test]
    fn spoiled_burn_reburns_onto_spare_tray() {
        let mut r = Ros::new(RosConfig::tiny());
        // Spoil the first burn completion of drive 0.
        r.inject_fault(&ev(FaultKind::DriveBurnFaults {
            bay: 0,
            drive: 0,
            count: 1,
        }));
        let data = vec![8u8; 300_000];
        r.write_file(&p("/sup/d"), data.clone()).unwrap();
        r.flush().unwrap();
        assert!(
            r.counters().reburns >= 1,
            "burn failure must trigger a re-burn"
        );
        assert!(r.counters().burns >= 1, "the re-burn must complete");
        // The data survives the spoiled tray: evict and fetch from disc.
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        let report = r.read_file(&p("/sup/d")).unwrap();
        assert_eq!(report.data.as_ref(), data.as_slice());
    }

    #[test]
    fn ssd_loss_degrades_and_heal_restores() {
        let mut r = Ros::new(RosConfig::tiny());
        assert_eq!(
            r.inject_fault(&ev(FaultKind::SsdLoss {
                volume: VolumeTarget::Buffer,
                member: 3,
            })),
            InjectionOutcome::Injected
        );
        // Degraded, not failed: writes still work.
        r.write_file(&p("/sup/e"), vec![9u8; 10_000]).unwrap();
        assert_eq!(r.heal_volumes().unwrap(), 1);
        assert_eq!(r.heal_volumes().unwrap(), 0);
    }

    #[test]
    fn media_corruption_repairs_through_parity() {
        let mut r = Ros::new(RosConfig::tiny());
        let data = vec![3u8; 400_000];
        r.write_file(&p("/sup/f"), data.clone()).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        let out = r.inject_fault(&ev(FaultKind::MediaCorruption {
            disc: 0,
            sectors: 4,
        }));
        assert_eq!(out, InjectionOutcome::Injected);
        let (report, _) = r
            .read_file_supervised(&p("/sup/f"), &RetryPolicy::default())
            .unwrap();
        assert_eq!(report.data.as_ref(), data.as_slice());
        assert!(r.counters().repairs >= 1, "parity repair must have run");
    }
}
