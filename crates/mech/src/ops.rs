//! Composite mechanical operations and the parallel-movement scheduler.
//!
//! The system controller never issues raw PLC instructions; it requests
//! *composite* operations — "load the disc array from slot S into drive bay
//! B" — which the [`MechScheduler`] expands into a PLC instruction sequence
//! and times with the overlap rules of §3.2 ("Precisely scheduling
//! movements of the roller and robotic arm in parallel can further reduce
//! the delay of conveying discs, which can save up to almost 10 seconds").
//!
//! With parallel scheduling enabled (the default, matching the prototype),
//! the composed latencies reproduce Table 3:
//!
//! - load: 68.7 s (uppermost layer) to 73.2 s (lowest layer),
//! - unload: 81.7 s to 86.5 s.

use crate::arm::ArmPosition;
use crate::geometry::SlotAddress;
use crate::params;
use crate::plc::{Plc, PlcError, PlcInstruction};
use ros_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The kind of a composite mechanical operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Convey a disc array from its tray into the drives of a bay.
    LoadArray,
    /// Convey a disc array from a bay's drives back to its tray.
    UnloadArray,
}

/// A completed (timed) composite operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MechOp {
    /// What was performed.
    pub(crate) kind: OpKind,
    /// The tray involved.
    pub(crate) slot: SlotAddress,
    /// The drive bay involved.
    pub(crate) bay: usize,
    /// Total wall-clock (simulated) duration including overlaps.
    pub duration: SimDuration,
    /// Labelled breakdown of the serial (non-overlapped) steps.
    pub(crate) steps: Vec<(String, SimDuration)>,
}

/// Errors from composite scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MechError {
    /// Underlying PLC failure.
    Plc(PlcError),
    /// The requested drive bay does not exist.
    NoSuchBay(usize),
    /// Load requested into a bay that already holds an array.
    BayOccupied(usize),
    /// Unload requested from an empty bay.
    BayEmpty(usize),
    /// A transient mechanical misfeed (latch slip, sensor glitch); the
    /// same operation is expected to succeed on retry.
    Transient(OpKind),
}

impl From<PlcError> for MechError {
    fn from(e: PlcError) -> Self {
        MechError::Plc(e)
    }
}

impl core::fmt::Display for MechError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MechError::Plc(e) => write!(f, "plc: {e}"),
            MechError::NoSuchBay(b) => write!(f, "no such drive bay {b}"),
            MechError::BayOccupied(b) => write!(f, "drive bay {b} is occupied"),
            MechError::BayEmpty(b) => write!(f, "drive bay {b} is empty"),
            MechError::Transient(k) => write!(f, "transient mechanical misfeed during {k:?}"),
        }
    }
}

impl std::error::Error for MechError {}

/// Composes PLC instructions into timed load/unload operations and tracks
/// which disc array occupies which drive bay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MechScheduler {
    plc: Plc,
    /// Which tray's array currently sits in each drive bay.
    bays: Vec<Option<SlotAddress>>,
    /// Overlap roller/arm movements (§3.2). Disable for the ablation bench.
    pub parallel_scheduling: bool,
    /// Armed transient misfeeds: each pending fault spoils the next
    /// composite operation with [`MechError::Transient`].
    pending_faults: u32,
}

impl MechScheduler {
    /// Creates a scheduler over a fully-populated PLC with `bays` drive
    /// bays (each bay is a set of 12 drives).
    pub fn new(plc: Plc, bays: usize) -> Self {
        MechScheduler {
            plc,
            bays: vec![None; bays],
            parallel_scheduling: true,
            pending_faults: 0,
        }
    }

    /// Arms `n` transient misfeeds: each spoils one upcoming composite
    /// operation, which leaves the machine idle and retryable.
    pub(crate) fn inject_transient_faults(&mut self, n: u32) {
        self.pending_faults = self.pending_faults.saturating_add(n);
    }

    /// Consumes one armed misfeed, if any, failing the operation `kind`.
    fn take_transient_fault(&mut self, kind: OpKind) -> Result<(), MechError> {
        if self.pending_faults > 0 {
            self.pending_faults -= 1;
            return Err(MechError::Transient(kind));
        }
        Ok(())
    }

    /// Returns the tray whose array occupies `bay`, if any.
    pub fn bay_contents(&self, bay: usize) -> Result<Option<SlotAddress>, MechError> {
        self.bays.get(bay).copied().ok_or(MechError::NoSuchBay(bay))
    }

    /// Loads the disc array in `slot` into drive bay `bay`.
    ///
    /// Sequence (§3.2): rotate the roller, fan the tray out, descend, latch
    /// the array, lift it above the drives (overlapped with the tray
    /// fanning back in when parallel scheduling is on), then separate the
    /// 12 discs one by one into the drives.
    pub fn load_array(&mut self, slot: SlotAddress, bay: usize) -> Result<MechOp, MechError> {
        match self.bays.get(bay) {
            None => return Err(MechError::NoSuchBay(bay)),
            Some(Some(_)) => return Err(MechError::BayOccupied(bay)),
            Some(None) => {}
        }
        self.take_transient_fault(OpKind::LoadArray)?;
        let roller = slot.roller;
        let mut steps: Vec<(String, SimDuration)> = Vec::new();

        let settle = params::arm_settle();
        steps.push(("sensor settle".into(), settle));

        let d = self.plc.execute(PlcInstruction::RotateTo(slot))?;
        steps.push(("rotate roller".into(), d));
        let d = self.plc.execute(PlcInstruction::FanOut(slot))?;
        steps.push(("fan out tray".into(), d));
        let d = self.plc.execute(PlcInstruction::MoveArm {
            roller,
            to: ArmPosition::Layer(slot.layer),
        })?;
        steps.push(("descend to layer".into(), d));
        let d = match self.plc.execute(PlcInstruction::LatchArray(slot)) {
            Ok(d) => d,
            Err(e) => {
                // Recover: park the arm and close the tray so the machine
                // is left in a consistent idle state.
                let _ = self.plc.execute(PlcInstruction::MoveArm {
                    roller,
                    to: ArmPosition::Station,
                });
                let _ = self.plc.execute(PlcInstruction::FanIn(slot));
                return Err(e.into());
            }
        };
        steps.push(("latch array".into(), d));
        // Lift back to the station. With parallel scheduling the lift
        // overlaps the tray fan-in and the drives opening their trays, so
        // it does not appear on the critical path.
        let lift = self.plc.execute(PlcInstruction::MoveArm {
            roller,
            to: ArmPosition::Station,
        })?;
        if !self.parallel_scheduling {
            steps.push(("lift array".into(), lift));
        }
        let d = self.plc.execute(PlcInstruction::FanIn(slot))?;
        steps.push(("fan in tray".into(), d));
        let d = self
            .plc
            .execute(PlcInstruction::SeparateToDrives { roller })?;
        steps.push(("separate discs into drives".into(), d));

        self.bays[bay] = Some(slot);
        Ok(Self::finish(OpKind::LoadArray, slot, bay, steps))
    }

    /// Unloads the disc array in drive bay `bay` back to its home tray.
    ///
    /// Sequence (§3.2): collect the 12 discs one by one from the ejected
    /// drive trays, rotate/fan out the home tray, descend with the array,
    /// release it, fan in; the empty return leg overlaps with the fan-in
    /// when parallel scheduling is on.
    pub fn unload_array(&mut self, bay: usize) -> Result<MechOp, MechError> {
        let slot = match self.bays.get(bay) {
            None => return Err(MechError::NoSuchBay(bay)),
            Some(None) => return Err(MechError::BayEmpty(bay)),
            Some(Some(s)) => *s,
        };
        self.take_transient_fault(OpKind::UnloadArray)?;
        let roller = slot.roller;
        let discs = self.plc.layout().discs_per_tray;
        let mut steps: Vec<(String, SimDuration)> = Vec::new();

        let d = self
            .plc
            .execute(PlcInstruction::CollectFromDrives { roller, discs })?;
        steps.push(("collect discs from drives".into(), d));

        let settle = params::arm_settle();
        steps.push(("sensor settle".into(), settle));

        let d = self.plc.execute(PlcInstruction::RotateTo(slot))?;
        steps.push(("rotate roller".into(), d));
        let d = self.plc.execute(PlcInstruction::FanOut(slot))?;
        steps.push(("fan out tray".into(), d));
        let d = self.plc.execute(PlcInstruction::MoveArm {
            roller,
            to: ArmPosition::Layer(slot.layer),
        })?;
        steps.push(("descend with array".into(), d));
        let d = self.plc.execute(PlcInstruction::ReleaseArray(slot))?;
        steps.push(("release array".into(), d));
        let ret = self.plc.execute(PlcInstruction::MoveArm {
            roller,
            to: ArmPosition::Station,
        })?;
        if !self.parallel_scheduling {
            steps.push(("return to station".into(), ret));
        }
        let d = self.plc.execute(PlcInstruction::FanIn(slot))?;
        steps.push(("fan in tray".into(), d));

        self.bays[bay] = None;
        Ok(Self::finish(OpKind::UnloadArray, slot, bay, steps))
    }

    fn finish(
        kind: OpKind,
        slot: SlotAddress,
        bay: usize,
        steps: Vec<(String, SimDuration)>,
    ) -> MechOp {
        MechOp {
            kind,
            slot,
            bay,
            duration: steps.iter().map(|(_, d)| *d).sum(),
            steps,
        }
    }
}

/// The scheduler accepts mechanical fault kinds; everything else is for
/// another layer.
impl ros_faults::FaultSink for MechScheduler {
    fn inject_fault(&mut self, event: &ros_faults::FaultEvent) -> ros_faults::InjectionOutcome {
        use ros_faults::{FaultKind, InjectionOutcome};
        match &event.kind {
            FaultKind::MechTransient { count } => {
                self.inject_transient_faults(*count);
                InjectionOutcome::Injected
            }
            _ => InjectionOutcome::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::RackLayout;

    fn sched() -> MechScheduler {
        MechScheduler::new(Plc::new_full(RackLayout::default()), 2)
    }

    fn secs(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }

    #[test]
    fn table3_load_uppermost_layer() {
        let mut s = sched();
        let op = s.load_array(SlotAddress::new(0, 0, 0), 0).unwrap();
        assert!(
            (secs(op.duration) - 68.7).abs() < 0.05,
            "load uppermost = {:.3}s, paper says 68.7s",
            secs(op.duration)
        );
    }

    #[test]
    fn table3_load_lowest_layer() {
        let mut s = sched();
        let op = s.load_array(SlotAddress::new(0, 84, 0), 0).unwrap();
        assert!(
            (secs(op.duration) - 73.2).abs() < 0.05,
            "load lowest = {:.3}s, paper says 73.2s",
            secs(op.duration)
        );
    }

    #[test]
    fn table3_unload_uppermost_layer() {
        let mut s = sched();
        s.load_array(SlotAddress::new(0, 0, 0), 0).unwrap();
        let op = s.unload_array(0).unwrap();
        assert!(
            (secs(op.duration) - 81.7).abs() < 0.05,
            "unload uppermost = {:.3}s, paper says 81.7s",
            secs(op.duration)
        );
    }

    #[test]
    fn table3_unload_lowest_layer() {
        let mut s = sched();
        s.load_array(SlotAddress::new(0, 84, 0), 0).unwrap();
        let op = s.unload_array(0).unwrap();
        assert!(
            (secs(op.duration) - 86.5).abs() < 0.05,
            "unload lowest = {:.3}s, paper says 86.5s",
            secs(op.duration)
        );
    }

    #[test]
    fn parallel_scheduling_saves_almost_ten_seconds_per_cycle() {
        let slot = SlotAddress::new(0, 84, 0);
        let mut fast = sched();
        let f = secs(fast.load_array(slot, 0).unwrap().duration)
            + secs(fast.unload_array(0).unwrap().duration);
        let mut slow = sched();
        slow.parallel_scheduling = false;
        let s = secs(slow.load_array(slot, 0).unwrap().duration)
            + secs(slow.unload_array(0).unwrap().duration);
        // §3.2: overlapping roller and arm movements "can save up to
        // almost 10 seconds".
        let saving = s - f;
        assert!(
            saving > 7.0 && saving <= 10.0,
            "saving = {saving:.2}s, paper says up to almost 10 s"
        );
    }

    #[test]
    fn bay_tracking_round_trip() {
        let mut s = sched();
        let slot = SlotAddress::new(1, 10, 3);
        assert_eq!(s.bay_contents(0).unwrap(), None);
        s.load_array(slot, 0).unwrap();
        assert_eq!(s.bay_contents(0).unwrap(), Some(slot));
        assert_eq!(s.bay_contents(1).unwrap(), None);
        let op = s.unload_array(0).unwrap();
        assert_eq!(op.slot, slot);
        assert_eq!(s.bay_contents(0).unwrap(), None);
    }

    #[test]
    fn cannot_load_into_occupied_bay() {
        let mut s = sched();
        s.load_array(SlotAddress::new(0, 0, 0), 0).unwrap();
        let err = s.load_array(SlotAddress::new(0, 1, 0), 0).unwrap_err();
        assert_eq!(err, MechError::BayOccupied(0));
    }

    #[test]
    fn cannot_unload_empty_bay() {
        let mut s = sched();
        assert_eq!(s.unload_array(1).unwrap_err(), MechError::BayEmpty(1));
        assert_eq!(s.unload_array(7).unwrap_err(), MechError::NoSuchBay(7));
    }

    #[test]
    fn load_reports_step_breakdown() {
        let mut s = sched();
        let op = s.load_array(SlotAddress::new(0, 40, 2), 0).unwrap();
        let names: Vec<&str> = op.steps.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"separate discs into drives"));
        assert!(names.contains(&"fan out tray"));
        let sum: SimDuration = op.steps.iter().map(|(_, d)| *d).sum();
        assert_eq!(sum, op.duration);
    }

    #[test]
    fn transient_fault_spoils_one_op_then_clears() {
        let mut s = sched();
        let slot = SlotAddress::new(0, 0, 0);
        s.inject_transient_faults(1);
        assert_eq!(
            s.load_array(slot, 0).unwrap_err(),
            MechError::Transient(OpKind::LoadArray)
        );
        // The misfeed left the machine idle: the bay is still free and the
        // very same request succeeds on retry.
        assert_eq!(s.bay_contents(0).unwrap(), None);
        s.load_array(slot, 0).unwrap();
        s.inject_transient_faults(1);
        assert_eq!(
            s.unload_array(0).unwrap_err(),
            MechError::Transient(OpKind::UnloadArray)
        );
        assert_eq!(s.bay_contents(0).unwrap(), Some(slot));
        s.unload_array(0).unwrap();
    }

    #[test]
    fn fault_sink_arms_mech_transients_only() {
        use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};
        let mut s = sched();
        let armed = s.inject_fault(&FaultEvent {
            seq: 0,
            at_op: 0,
            kind: FaultKind::MechTransient { count: 2 },
        });
        assert_eq!(armed, InjectionOutcome::Injected);
        let other = s.inject_fault(&FaultEvent {
            seq: 1,
            at_op: 0,
            kind: FaultKind::DriveDeath { bay: 0, drive: 0 },
        });
        assert_eq!(other, InjectionOutcome::NotApplicable);
        assert!(s.load_array(SlotAddress::new(0, 0, 0), 0).is_err());
        assert!(s.load_array(SlotAddress::new(0, 0, 0), 0).is_err());
        assert!(s.load_array(SlotAddress::new(0, 0, 0), 0).is_ok());
    }

    #[test]
    fn loading_empty_tray_fails_cleanly() {
        let mut s = sched();
        let slot = SlotAddress::new(0, 0, 0);
        s.load_array(slot, 0).unwrap();
        s.unload_array(0).unwrap();
        s.load_array(slot, 0).unwrap();
        // Tray is now empty; a second load of the same slot must fail.
        let err = s.load_array(slot, 1).unwrap_err();
        assert!(matches!(err, MechError::Plc(_)));
        // And the bay must remain free.
        assert_eq!(s.bay_contents(1).unwrap(), None);
    }
}
