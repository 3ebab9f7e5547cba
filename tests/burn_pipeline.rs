//! The burn pipeline under interleavings (ROADMAP item 5(a)).
//!
//! A two-bay tiny rack with §4.8's interrupting read policy is driven
//! through generated sequences of writes, seal-and-close, idle time,
//! cold reads, crash restarts, burn faults and drive deaths. After every
//! step the indices must agree (`verify_consistency`, which also checks
//! that each burning group's tray sits in the bay the group names and
//! that no bay burns two groups), and the two views of the pipeline must
//! match: the group census and `pending_work`. At the end the bays are
//! serviced and the rack flushed: every group is burned, and every
//! acknowledged file reads back bit-exact from its discs.
//!
//! The rack's discs hold 128 MiB, room for an appended track's 64 MiB
//! metadata zone, so an interrupted burn can resume; it has 16 trays,
//! and each fault kind has a step budget, so a sequence cannot run out
//! of trays.

use proptest::collection::vec;
use proptest::prelude::*;
use ros::prelude::*;
use ros::ros_drive::DiscClass;
use ros::ros_mech::RackLayout;
use ros::ros_olfs::config::BusyReadPolicy;
use ros_faults::{FaultEvent, FaultKind, FaultSink, RetryPolicy};

/// Steps a sequence may take of each limited kind: seal-and-close,
/// crash, burn fault, drive death. The rest are skipped.
const BUDGET: [usize; 4] = [5, 2, 2, 1];

#[derive(Clone, Copy, Debug)]
enum Step {
    Write { files: usize, kb: usize },
    SealClose,
    Run { secs: u64 },
    ColdRead(usize),
    Crash,
    BurnFault { bay: u32, drive: u32 },
    DeathThenService { bay: u32, drive: u32 },
}

impl Step {
    /// The budget this step draws on, if any.
    fn budget(self) -> Option<usize> {
        match self {
            Step::SealClose => Some(0),
            Step::Crash => Some(1),
            Step::BurnFault { .. } => Some(2),
            Step::DeathThenService { .. } => Some(3),
            _ => None,
        }
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Idle time is mostly shorter than a tray load (≈ 70 s), so reads
    // and crashes land while burns are booked or in flight.
    (0u8..16, 1usize..5, 0u64..300, 0u32..2, 0u32..12).prop_map(|(kind, n, x, bay, drive)| {
        match kind {
            0..=2 => Step::Write {
                files: n,
                kb: 8 + ros::ros_sim::to_usize(x % 64),
            },
            3..=5 => Step::SealClose,
            6..=8 => Step::Run { secs: 1 + x % 90 },
            9..=12 => Step::ColdRead(ros::ros_sim::to_usize(x)),
            13 => Step::Crash,
            14 => Step::BurnFault { bay, drive },
            _ => Step::DeathThenService { bay, drive },
        }
    })
}

fn rack() -> Ros {
    let mut cfg = RosConfig::tiny();
    cfg.drive_bays = 2;
    cfg.busy_read_policy = BusyReadPolicy::InterruptBurn;
    cfg.disc_class = DiscClass::Custom {
        capacity: 128 << 20,
    };
    cfg.layout = RackLayout {
        layers: 8,
        ..RackLayout::tiny()
    };
    Ros::new(cfg)
}

fn fault(kind: FaultKind) -> FaultEvent {
    FaultEvent {
        seq: 0,
        at_op: 0,
        kind,
    }
}

/// The indices agree, and so do the census and `pending_work`.
fn agree(ros: &Ros) -> Result<(), String> {
    let issues = ros.verify_consistency();
    if !issues.is_empty() {
        return Err(format!("inconsistent: {issues:?}"));
    }
    let census = ros.group_census();
    let (_, parity, ready, burning, _) = census;
    let pending = ros.pending_work();
    if pending != (burning, ready, parity, ready) {
        return Err(format!("census {census:?} but pending_work {pending:?}"));
    }
    Ok(())
}

/// Runs `steps` against a fresh rack; `Err` describes the first failure.
fn check(steps: &[Step]) -> Result<(), String> {
    let mut ros = rack();
    let policy = RetryPolicy::default();
    let mut files: Vec<(UdfPath, Vec<u8>)> = Vec::new();
    let mut spent = [0usize; 4];
    for (i, &step) in steps.iter().enumerate() {
        let fail = |what: String| format!("step {i} {step:?}: {what}");
        if let Some(k) = step.budget() {
            spent[k] += 1;
            if spent[k] > BUDGET[k] {
                continue;
            }
        }
        match step {
            Step::Write { files: n, kb } => {
                for _ in 0..n {
                    let tag = files.len();
                    let path: UdfPath = format!("/b/{tag}")
                        .parse()
                        .map_err(|_| fail("path".into()))?;
                    let data: Vec<u8> = (0..kb * 1024).map(|j| ((j * 7) ^ tag) as u8).collect();
                    ros.write_file(&path, data.clone())
                        .map_err(|e| fail(e.to_string()))?;
                    files.push((path, data));
                }
            }
            Step::SealClose => {
                ros.seal_open_buckets().map_err(|e| fail(e.to_string()))?;
                ros.force_close_collecting_group();
            }
            Step::Run { secs } => ros.run_for(SimDuration::from_secs(secs)),
            Step::ColdRead(k) => {
                if let Some((path, want)) = files.get(k % files.len().max(1)) {
                    ros.evict_burned_copies();
                    // A typed error is allowed mid-sequence (both bays
                    // out of rotation, say); wrong bytes never are.
                    if let Ok((read, _)) = ros.read_file_supervised(path, &policy) {
                        if read.data.as_ref() != want.as_slice() {
                            return Err(fail(format!("{path} read back wrong bytes")));
                        }
                    }
                }
            }
            Step::Crash => {
                ros.simulate_crash_and_restart()
                    .map_err(|e| fail(e.to_string()))?;
            }
            Step::BurnFault { bay, drive } => {
                ros.inject_fault(&fault(FaultKind::DriveBurnFaults {
                    bay,
                    drive,
                    count: 1,
                }));
            }
            Step::DeathThenService { bay, drive } => {
                ros.inject_fault(&fault(FaultKind::DriveDeath { bay, drive }));
                ros.service_quarantined_bays();
            }
        }
        agree(&ros).map_err(fail)?;
    }

    // A dead drive or an armed burn fault can take a bay out of rotation
    // during the flush too; field service puts it back.
    let drained = (0..3).any(|_| {
        ros.service_quarantined_bays();
        ros.flush().is_ok()
    });
    if !drained {
        return Err(format!(
            "the final flush did not drain: {:?}",
            ros.pending_work()
        ));
    }
    agree(&ros).map_err(|e| format!("after the flush: {e}"))?;
    let census = ros.group_census();
    if (census.0, census.1, census.2, census.3) != (0, 0, 0, 0) {
        return Err(format!("a group is not burned: census {census:?}"));
    }
    ros.evict_all_burned_copies();
    ros.unload_all_bays()
        .map_err(|e| format!("final unload: {e}"))?;
    for (path, want) in &files {
        let (read, _) = ros
            .read_file_supervised(path, &policy)
            .map_err(|e| format!("final read of {path}: {e}"))?;
        if read.data.as_ref() != want.as_slice() {
            return Err(format!("{path} read back wrong bytes from its discs"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_burn_pipeline_stays_one_record(steps in vec(step_strategy(), 1..40)) {
        if let Err(what) = check(&steps) {
            prop_assert!(false, "{what}\nsteps: {steps:?}");
        }
    }
}
