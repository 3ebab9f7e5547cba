//! Scenario builders for every table and figure of the paper.

use ros_access::AccessStack;
use ros_drive::media::MediaKind;
use ros_drive::{params as drive_params, BurnPlan, DiscClass, DriveSet, SpeedCurve};
use ros_mech::plc::Plc;
use ros_mech::{MechScheduler, RackLayout, SlotAddress};
use ros_olfs::config::BusyReadPolicy;
use ros_olfs::trace::OpTrace;
use ros_olfs::{Redundancy, Ros, RosConfig, UdfPath};
use ros_sim::{Bandwidth, SimDuration, SimRng, SimTime};
use ros_tco::{RackPower, RackState, TcoModel};

/// An experiment scenario failed to build or run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchError {
    /// The failing experiment step.
    pub context: &'static str,
    /// Underlying error text.
    pub detail: String,
}

impl BenchError {
    /// Adapter for `map_err`: tags an underlying error with the step.
    fn wrap<E: core::fmt::Display>(context: &'static str) -> impl Fn(E) -> BenchError + Copy {
        move |e| BenchError {
            context,
            detail: e.to_string(),
        }
    }

    /// A scenario invariant failed (no underlying error object).
    fn state(context: &'static str, detail: impl Into<String>) -> BenchError {
        BenchError {
            context,
            detail: detail.into(),
        }
    }
}

impl core::fmt::Display for BenchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.context, self.detail)
    }
}

impl std::error::Error for BenchError {}

/// Extracts the pure data-access latency from an operation trace — the
/// quantity Table 1 reports (device time and mechanical time, without
/// the per-op FUSE overheads of Figure 7).
pub fn data_access_latency(trace: &OpTrace) -> SimDuration {
    let op_overhead = ros_olfs::params::internal_op_overhead();
    let steps: SimDuration = trace
        .steps
        .iter()
        .map(|s| s.duration.saturating_sub(op_overhead))
        .sum();
    let extra: SimDuration = trace
        .extra
        .iter()
        .filter(|e| e.name != "smb")
        .map(|e| e.duration)
        .sum();
    steps + extra
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// File location label (the paper's wording).
    pub location: &'static str,
    /// The paper's measured latency, seconds (None for the "minutes" row).
    pub paper_secs: Option<f64>,
    /// Our measured latency, seconds.
    pub measured_secs: f64,
}

fn table1_config() -> RosConfig {
    RosConfig {
        layout: RackLayout::default(),
        disc_class: DiscClass::Custom {
            capacity: 4 * 1024 * 1024,
        },
        drive_bays: 1,
        drives_per_bay: 12,
        redundancy: Redundancy::Raid5,
        open_buckets: 2,
        read_cache_images: 512,
        forepart_bytes: 4096,
        busy_read_policy: BusyReadPolicy::Wait,
        prefetch_array: false,
        write_and_check: false,
        scrub_interval: None,
        seed: 7,
        rack_id: 0,
        data_plane_threads: 0,
        dedup: false,
    }
}

#[expect(
    clippy::expect_used,
    reason = "every caller passes a well-formed path literal"
)]
fn p(s: &str) -> UdfPath {
    s.parse().expect("static path")
}

/// Checks that a Table 1 row was served from the location it models.
fn expect_source(
    row: &'static str,
    got: ros_olfs::engine::ReadSource,
    want: ros_olfs::engine::ReadSource,
) -> Result<(), BenchError> {
    if got == want {
        Ok(())
    } else {
        Err(BenchError::state(
            row,
            format!("read served from {got:?}, scenario expects {want:?}"),
        ))
    }
}

/// Regenerates Table 1: read latency from each of the six file
/// locations. The mechanical rows use the full 85-layer rack model; data
/// rows use scaled discs (timing is size-independent at 1 KB files).
pub fn table1() -> Result<Vec<Table1Row>, BenchError> {
    use ros_olfs::engine::ReadSource;
    let mut rows = Vec::new();
    let e = BenchError::wrap("table1");

    // Row 1: file still in a disk bucket.
    let mut ros = Ros::new(table1_config());
    ros.write_file(&p("/t1/bucket"), vec![1u8; 1024])
        .map_err(e)?;
    let r = ros.read_file(&p("/t1/bucket")).map_err(e)?;
    rows.push(Table1Row {
        location: "Disk bucket",
        paper_secs: Some(0.001),
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    // Row 2: sealed disc image on the disk buffer.
    ros.write_file(&p("/t1/image"), vec![2u8; 1024])
        .map_err(e)?;
    ros.seal_open_buckets().map_err(e)?;
    let r = ros.read_file(&p("/t1/image")).map_err(e)?;
    rows.push(Table1Row {
        location: "Disc image",
        paper_secs: Some(0.002),
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    // Rows 3-5 share a burned dataset: bulk files to fill buckets plus a
    // 1 KB probe file (the paper measures small-file read latency).
    let mut ros = Ros::new(table1_config());
    for i in 0..12 {
        ros.write_file(&p(&format!("/t1/set-a/{i}")), vec![3u8; 900_000])
            .map_err(e)?;
    }
    ros.write_file(&p("/t1/set-a/probe"), vec![9u8; 1024])
        .map_err(e)?;
    ros.flush().map_err(e)?;
    ros.evict_burned_copies();

    // Row 3: the freshly burned array is still in the drives.
    let r = ros.read_file(&p("/t1/set-a/probe")).map_err(e)?;
    expect_source("table1 row 3", r.source, ReadSource::DiscInDrive)?;
    rows.push(Table1Row {
        location: "Disc in optical drive",
        paper_secs: Some(0.223),
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    // Row 4: array back in the roller, drives free.
    ros.unload_all_bays().map_err(e)?;
    ros.evict_burned_copies();
    let r = ros.read_file(&p("/t1/set-a/probe")).map_err(e)?;
    expect_source("table1 row 4", r.source, ReadSource::RollerFreeDrives)?;
    rows.push(Table1Row {
        location: "Disc array in the roller with free drives",
        paper_secs: Some(70.553),
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    // Row 5: drives hold another (idle) array that must be unloaded.
    // Burn a second set so the bay is occupied by set B, then read set A.
    for i in 0..12 {
        ros.write_file(&p(&format!("/t1/set-b/{i}")), vec![4u8; 900_000])
            .map_err(e)?;
    }
    ros.flush().map_err(e)?;
    ros.evict_burned_copies();
    let r = ros.read_file(&p("/t1/set-a/probe")).map_err(e)?;
    expect_source("table1 row 5", r.source, ReadSource::RollerUnloadFirst)?;
    rows.push(Table1Row {
        location: "Disc array in the roller and drives are not working",
        paper_secs: Some(155.037),
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    // Row 6: all drives busy burning; the Wait policy rides out the
    // burn. At 4 MiB scale the wait is seconds; on 25/100 GB media the
    // same wait is the residual burn time — minutes to over an hour.
    let mut ros = Ros::new(table1_config());
    for i in 0..12 {
        ros.write_file(&p(&format!("/t1/cold/{i}")), vec![5u8; 900_000])
            .map_err(e)?;
    }
    ros.flush().map_err(e)?;
    ros.unload_all_bays().map_err(e)?;
    ros.evict_burned_copies();
    // Kick off a new burn and read a cold file while it runs.
    for i in 0..12 {
        ros.write_file(&p(&format!("/t1/hot/{i}")), vec![6u8; 900_000])
            .map_err(e)?;
    }
    ros.seal_open_buckets().map_err(e)?;
    ros.force_close_collecting_group();
    ros.run_for(SimDuration::from_millis(4_000)); // Parity done, the arm loads the tray.
    ros.run_until(ros.arm_free_at()); // Loaded: the burn starts.
    let r = ros.read_file(&p("/t1/cold/3")).map_err(e)?;
    expect_source("table1 row 6", r.source, ReadSource::RollerDrivesBusy)?;
    rows.push(Table1Row {
        location: "Disc array in the roller and all drives are busy",
        paper_secs: None, // "minutes"
        measured_secs: data_access_latency(&r.trace).as_secs_f64(),
    });

    Ok(rows)
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Disc capacity label.
    pub capacity_gb: u32,
    /// Paper single-drive read speed, MB/s.
    pub paper_single: f64,
    /// Our single-drive read speed, MB/s.
    pub single: f64,
    /// Paper 12-drive aggregate, MB/s.
    pub paper_aggregate: f64,
    /// Our 12-drive aggregate, MB/s.
    pub aggregate: f64,
}

/// Regenerates Table 2: optical drive read speeds.
pub fn table2() -> Vec<Table2Row> {
    let set = DriveSet::new(12);
    vec![
        Table2Row {
            capacity_gb: 25,
            paper_single: 24.1,
            single: drive_params::read_speed_bd25().mb_per_sec(),
            paper_aggregate: 282.5,
            aggregate: set.aggregate_read_speed(DiscClass::Bd25).mb_per_sec(),
        },
        Table2Row {
            capacity_gb: 100,
            paper_single: 18.0,
            single: drive_params::read_speed_bd100().mb_per_sec(),
            paper_aggregate: 210.2,
            aggregate: set.aggregate_read_speed(DiscClass::Bd100).mb_per_sec(),
        },
    ]
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Slot location label.
    pub location: &'static str,
    /// Paper load time, seconds.
    pub paper_load: f64,
    /// Our load time, seconds.
    pub load: f64,
    /// Paper unload time, seconds.
    pub paper_unload: f64,
    /// Our unload time, seconds.
    pub unload: f64,
}

/// Regenerates Table 3: disc-array load/unload latency.
pub fn table3() -> Result<Vec<Table3Row>, BenchError> {
    let layout = RackLayout::default();
    let run = |layer: u32| -> Result<(f64, f64), BenchError> {
        let e = BenchError::wrap("table3");
        let mut sched = MechScheduler::new(Plc::new_full(layout), 1);
        let slot = SlotAddress::new(0, layer, 0);
        let load = sched.load_array(slot, 0).map_err(e)?.duration;
        let unload = sched.unload_array(0).map_err(e)?.duration;
        Ok((load.as_secs_f64(), unload.as_secs_f64()))
    };
    let (l0, u0) = run(0)?;
    let (l84, u84) = run(layout.layers - 1)?;
    Ok(vec![
        Table3Row {
            location: "Uppermost layer",
            paper_load: 68.7,
            load: l0,
            paper_unload: 81.7,
            unload: u0,
        },
        Table3Row {
            location: "Lowest layer",
            paper_load: 73.2,
            load: l84,
            paper_unload: 86.5,
            unload: u84,
        },
    ])
}

/// One bar pair of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Bar {
    /// Stack name.
    pub stack: &'static str,
    /// Read throughput normalized to ext4.
    pub read_norm: f64,
    /// Write throughput normalized to ext4.
    pub write_norm: f64,
    /// Absolute read throughput, MB/s.
    pub read_mbps: f64,
    /// Absolute write throughput, MB/s.
    pub write_mbps: f64,
}

/// Regenerates Figure 6: singlestream throughput under the five stacks,
/// normalized to ext4 on the RAID-5 volume (1.2 GB/s R / 1.0 GB/s W).
pub fn fig6() -> Vec<Fig6Bar> {
    let base_r = Bandwidth::from_mb_per_sec(1204.0);
    let base_w = Bandwidth::from_mb_per_sec(1002.0);
    AccessStack::all()
        .into_iter()
        .map(|s| {
            let t = s.throughput(base_r, base_w);
            Fig6Bar {
                stack: s.name(),
                read_norm: t.read.bytes_per_sec() / base_r.bytes_per_sec(),
                write_norm: t.write.bytes_per_sec() / base_w.bytes_per_sec(),
                read_mbps: t.read.mb_per_sec(),
                write_mbps: t.write.mb_per_sec(),
            }
        })
        .collect()
}

/// One operation of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Op {
    /// Operation label (e.g. "samba+OLFS write").
    pub label: &'static str,
    /// Paper total latency, ms.
    pub paper_ms: f64,
    /// Our total latency, ms.
    pub measured_ms: f64,
    /// Internal step sequence with per-step ms.
    pub steps: Vec<(String, f64)>,
}

/// Regenerates Figure 7: the internal operation breakdown of 1 KB file
/// writes and reads under ext4+OLFS and samba+OLFS.
pub fn fig7() -> Result<Vec<Fig7Op>, BenchError> {
    let e = BenchError::wrap("fig7");
    let mut out = Vec::new();
    for (stack, wl, rl, wp, rp) in [
        (AccessStack::Ext4Olfs, "OLFS write", "OLFS read", 16.0, 9.0),
        (
            AccessStack::SambaOlfs,
            "samba+OLFS write",
            "samba+OLFS read",
            53.0,
            15.0,
        ),
    ] {
        let mut g = ros_access::NasGateway::new(Ros::new(table1_config()), stack);
        let w = g.write_file(&p("/f7/file"), vec![0u8; 1024]).map_err(e)?;
        out.push(Fig7Op {
            label: wl,
            paper_ms: wp,
            measured_ms: w.latency.as_millis_f64(),
            steps: w
                .trace
                .steps
                .iter()
                .map(|s| (s.name.clone(), s.duration.as_millis_f64()))
                .collect(),
        });
        let r = g.read_file(&p("/f7/file")).map_err(e)?;
        out.push(Fig7Op {
            label: rl,
            paper_ms: rp,
            measured_ms: r.latency.as_millis_f64(),
            steps: r
                .trace
                .steps
                .iter()
                .map(|s| (s.name.clone(), s.duration.as_millis_f64()))
                .collect(),
        });
    }
    Ok(out)
}

/// Figure 8 result: the single-drive 25 GB recording curve.
pub fn fig8() -> BurnPlan {
    let curve = SpeedCurve::for_media(DiscClass::Bd25, MediaKind::Worm);
    BurnPlan::plan(
        curve,
        drive_params::BD25_BYTES,
        1.0,
        false,
        &mut SimRng::seed_from(8),
    )
}

/// Figure 9 result: the 12-drive aggregate 25 GB array burn.
pub fn fig9() -> ros_drive::ArrayBurnReport {
    let set = DriveSet::new(12);
    let sizes = vec![drive_params::BD25_BYTES; 12];
    set.simulate_array_burn(&sizes, DiscClass::Bd25, SimTime::ZERO)
}

/// Figure 10 result: the single-drive 100 GB recording curve with
/// fail-safe dips.
pub fn fig10() -> BurnPlan {
    let curve = SpeedCurve::for_media(DiscClass::Bd100, MediaKind::Worm);
    BurnPlan::plan(
        curve,
        drive_params::BD100_BYTES,
        1.0,
        false,
        &mut SimRng::seed_from(10),
    )
}

/// TCO comparison (§2.1's cited analysis).
pub fn tco() -> Vec<ros_tco::TcoBreakdown> {
    TcoModel::default().compare_all()
}

/// Rack power at the two §5.1 operating points: `(idle, peak)` watts.
pub fn power() -> (f64, f64) {
    let p = RackPower::prototype();
    (p.watts(RackState::Idle), p.watts(RackState::Peak))
}

/// The §4.2 MV-recovery experiment: time to recover the metadata volume
/// from `discs` partially-filled 100 GB MV snapshot discs using the
/// prototype's 24 drives (paper: "ROS took half an hour to recover MV
/// from 120 discs").
pub fn mv_recovery_model(discs: u32, bytes_per_disc: u64) -> Result<SimDuration, BenchError> {
    let e = BenchError::wrap("mv_recovery");
    let layout = RackLayout::default();
    let bays = 2usize;
    let per_tray = layout.discs_per_tray;
    let trays = discs.div_ceil(per_tray);
    // Both bays work in parallel; each round handles `bays` trays.
    let rounds = (trays as usize).div_ceil(bays);
    let mut total = SimDuration::ZERO;
    let mut sched = MechScheduler::new(Plc::new_full(layout), bays);
    let read_per_disc = drive_params::read_speed_bd100().time_for(bytes_per_disc);
    for round in 0..rounds {
        let slot = layout.slot_at(u32::try_from(round * bays).unwrap_or(u32::MAX));
        // Discs in a tray are read in parallel; the tray occupies the
        // bay for load + slowest read + unload.
        let load = sched.load_array(slot, 0).map_err(e)?.duration;
        let unload = sched.unload_array(0).map_err(e)?.duration;
        total += load + read_per_disc + unload;
    }
    Ok(total)
}

/// Default parameters for the MV-recovery experiment: 120 discs holding
/// ≈3.7 GB of MV snapshot data each (≈450 GB total — a billion-file MV
/// compresses to this order).
pub fn mv_recovery_default() -> Result<SimDuration, BenchError> {
    mv_recovery_model(120, 3_700_000_000)
}

/// Ablation: the four §4.7 I/O streams crammed onto one RAID volume vs
/// spread across two independent volumes. Returns the total useful
/// bandwidth `(spread_mbps, crammed_mbps)` — the measurable benefit of
/// "configure disks into multiple volumes of independent RAIDs".
pub fn ablation_volumes() -> Result<(f64, f64), BenchError> {
    use ros_disk::volume::StreamKind;
    use ros_disk::{RaidArray, VolumeManager};
    let e = BenchError::wrap("ablation_volumes");
    // Crammed: all four streams share one volume.
    let mut vm = VolumeManager::new();
    let a = vm.add_volume("only", RaidArray::prototype_data());
    for kind in [
        StreamKind::UserWrite,
        StreamKind::ParityRead,
        StreamKind::ParityWrite,
        StreamKind::BurnRead,
    ] {
        vm.open_stream(a, kind).map_err(e)?;
    }
    let crammed = 2.0 * vm.effective_write_bandwidth(a).map_err(e)?.mb_per_sec()
        + 2.0 * vm.effective_read_bandwidth(a).map_err(e)?.mb_per_sec();
    // Spread: writes on volume A, reads on volume B (2 streams each).
    let mut vm = VolumeManager::new();
    let a = vm.add_volume("writes", RaidArray::prototype_data());
    let b = vm.add_volume("reads", RaidArray::prototype_data());
    vm.open_stream(a, StreamKind::UserWrite).map_err(e)?;
    vm.open_stream(a, StreamKind::ParityWrite).map_err(e)?;
    vm.open_stream(b, StreamKind::ParityRead).map_err(e)?;
    vm.open_stream(b, StreamKind::BurnRead).map_err(e)?;
    let spread = 2.0 * vm.effective_write_bandwidth(a).map_err(e)?.mb_per_sec()
        + 2.0 * vm.effective_read_bandwidth(b).map_err(e)?.mb_per_sec();
    Ok((spread, crammed))
}

/// Ablation: the mechanical parallel-scheduling optimisation (§3.2).
/// Returns `(parallel_cycle_secs, serial_cycle_secs)` for a lowest-layer
/// load+unload cycle.
pub fn ablation_parallel_scheduling() -> Result<(f64, f64), BenchError> {
    let layout = RackLayout::default();
    let slot = SlotAddress::new(0, layout.layers - 1, 0);
    let run = |parallel: bool| -> Result<f64, BenchError> {
        let e = BenchError::wrap("ablation_parallel_scheduling");
        let mut sched = MechScheduler::new(Plc::new_full(layout), 1);
        sched.parallel_scheduling = parallel;
        let l = sched.load_array(slot, 0).map_err(e)?.duration;
        let u = sched.unload_array(0).map_err(e)?.duration;
        Ok((l + u).as_secs_f64())
    };
    Ok((run(true)?, run(false)?))
}

/// Ablation: forepart-data-stored mechanism (§4.8). Returns
/// `(first_byte_with_ms, first_byte_without_secs)` for a cold read.
pub fn ablation_forepart() -> Result<(f64, f64), BenchError> {
    let run = |forepart: u64| -> Result<f64, BenchError> {
        let e = BenchError::wrap("ablation_forepart");
        let mut cfg = table1_config();
        cfg.forepart_bytes = forepart;
        let mut ros = Ros::new(cfg);
        for i in 0..12 {
            ros.write_file(&p(&format!("/fp/{i}")), vec![1u8; 900_000])
                .map_err(e)?;
        }
        ros.flush().map_err(e)?;
        ros.unload_all_bays().map_err(e)?;
        ros.evict_burned_copies();
        let r = ros.read_file(&p("/fp/0")).map_err(e)?;
        Ok(r.first_byte_latency.as_secs_f64())
    };
    Ok((run(4096)? * 1e3, run(0)?))
}

/// Capacity-planning analysis derived from the models: how much ingest
/// the prototype can sustain, and for how long it can burst above that.
///
/// The write path is bounded by three stages (§3.3): the client network,
/// the access stack, and the drain rate at which burns move data from
/// the disk buffer to discs. Ingest above the drain rate eats buffer
/// space until the buffer fills.
#[derive(Clone, Debug)]
pub struct CapacityReport {
    /// 10GbE payload bandwidth, MB/s.
    pub network_mbps: f64,
    /// samba+OLFS client write throughput, MB/s (Figure 6).
    pub samba_write_mbps: f64,
    /// Direct-mode client write throughput, MB/s (§4.8 bypass).
    pub direct_write_mbps: f64,
    /// Sustained drain with 100 GB media (prototype), MB/s of user data.
    pub drain_bd100_mbps: f64,
    /// Sustained drain with 25 GB media, MB/s of user data.
    pub drain_bd25_mbps: f64,
    /// Disk-buffer capacity, TB.
    pub buffer_tb: f64,
    /// Hours the prototype can absorb direct-mode ingest above the
    /// BD100 drain rate before the buffer fills.
    pub burst_hours: f64,
}

/// Computes the capacity report for the prototype (2 bays, 100 GB
/// discs, 11+1 RAID-5 arrays).
pub fn capacity() -> Result<CapacityReport, BenchError> {
    let bays = 2.0;
    let data_fraction = 11.0 / 12.0;
    let network = ros_access::params::network_10gbe().mb_per_sec();
    let stacks = fig6();
    let samba_write = stacks
        .iter()
        .find(|b| b.stack == "samba+OLFS")
        .ok_or_else(|| BenchError::state("capacity", "fig6 has no samba+OLFS bar"))?
        .write_mbps;

    let set = DriveSet::new(12);
    let drain = |class: DiscClass| -> f64 {
        let sizes = vec![class.capacity(); 12];
        let report = set.simulate_array_burn(&sizes, class, SimTime::ZERO);
        // Average aggregate burn rate over the array, user data only,
        // per bay, across the bays. Loading/unloading overlaps with the
        // other bay's burn at steady state.
        report.average.mb_per_sec() * data_fraction * bays
    };
    let drain_bd100 = drain(DiscClass::Bd100);
    let drain_bd25 = drain(DiscClass::Bd25);

    // Buffer: two 7-HDD RAID-5 volumes of 4 TB members (§5.1).
    let buffer_tb = 2.0 * 6.0 * 4.0;
    let surplus = network - drain_bd100; // MB/s eating the buffer.
    let burst_hours = if surplus > 0.0 {
        buffer_tb * 1e6 / surplus / 3600.0
    } else {
        f64::INFINITY
    };
    Ok(CapacityReport {
        network_mbps: network,
        samba_write_mbps: samba_write,
        direct_write_mbps: network,
        drain_bd100_mbps: drain_bd100,
        drain_bd25_mbps: drain_bd25,
        buffer_tb,
        burst_hours,
    })
}
