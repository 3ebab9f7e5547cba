//! Policy-level integration tests: the §4.8 read policies, direct mode,
//! forepart, cache behaviour and workload runs over the gateway.

use ros::prelude::*;
use ros::ros_mech::{MechScheduler, Plc};
use ros::ros_olfs::config::BusyReadPolicy;
use ros::ros_olfs::engine::ReadSource;
use ros::ros_workload::dist::SizeDist;
use ros::ros_workload::FileOp;
use ros_faults::{FaultEvent, FaultKind, FaultSink};

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag ^ (i as u64 * 3)) as u8).collect()
}

/// Builds a system with a cold burned dataset and a burn in flight.
fn busy_system(policy: BusyReadPolicy) -> (Ros, Vec<(UdfPath, Vec<u8>)>) {
    let mut cfg = RosConfig::tiny();
    cfg.busy_read_policy = policy;
    let mut ros = Ros::new(cfg);
    let files: Vec<(UdfPath, Vec<u8>)> = (0..12)
        .map(|i| (p(&format!("/cold/{i}")), content(i, 800_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.flush().unwrap();
    ros.unload_all_bays().unwrap();
    ros.evict_burned_copies();
    // Start another burn so every bay is busy.
    for i in 0..12 {
        ros.write_file(&p(&format!("/hot/{i}")), content(100 + i, 800_000))
            .unwrap();
    }
    ros.seal_open_buckets().unwrap();
    ros.force_close_collecting_group();
    // Parity done, the arm loads the tray — and then the burn starts.
    ros.run_for(SimDuration::from_millis(4_000));
    ros.run_until(ros.arm_free_at());
    (ros, files)
}

#[test]
fn wait_policy_rides_out_the_burn() {
    let (mut ros, files) = busy_system(BusyReadPolicy::Wait);
    let r = ros.read_file(&files[0].0).unwrap();
    assert_eq!(r.source, ReadSource::RollerDrivesBusy);
    assert_eq!(r.data.as_ref(), files[0].1.as_slice());
    // The in-flight burn completed before the read was served.
    assert_eq!(ros.counters().burn_interrupts, 0);
    assert!(ros.counters().burns >= 2);
    // The wait dominated the latency: longer than a plain fetch.
    assert!(
        r.latency > SimDuration::from_secs(150),
        "latency = {}",
        r.latency
    );
}

#[test]
fn interrupt_policy_preempts_the_burn_and_resumes_it() {
    let (mut ros, files) = busy_system(BusyReadPolicy::InterruptBurn);
    let r = ros.read_file(&files[0].0).unwrap();
    assert_eq!(r.source, ReadSource::RollerDrivesBusy);
    assert_eq!(r.data.as_ref(), files[0].1.as_slice());
    assert_eq!(ros.counters().burn_interrupts, 1);
    // Interrupting beats waiting for the whole burn.
    assert!(
        r.latency < SimDuration::from_secs(180),
        "latency = {}",
        r.latency
    );
    // The interrupted burn resumes (appending re-burn) and finishes.
    assert!(ros.run_until_quiescent(SimDuration::from_secs(7200)));
    for i in 0..12 {
        let r = ros.read_file(&p(&format!("/hot/{i}"))).unwrap();
        assert_eq!(
            r.data.as_ref(),
            content(100 + i, 800_000).as_slice(),
            "interrupted-then-resumed burn must preserve data"
        );
    }
}

/// Seals `groups` more groups behind the burn in flight, `tag`ged, and
/// returns their files.
fn seal_groups(ros: &mut Ros, groups: u64, tag: &str) -> Vec<(UdfPath, Vec<u8>)> {
    let files: Vec<(UdfPath, Vec<u8>)> = (0..12 * groups)
        .map(|i| (p(&format!("/{tag}/{i}")), content(200 + i, 800_000)))
        .collect();
    for group in files.chunks(12) {
        for (path, data) in group {
            ros.write_file(path, data.clone()).unwrap();
        }
        ros.seal_open_buckets().unwrap();
        ros.force_close_collecting_group();
    }
    files
}

/// §4.8's aggressive policy frees a bay for the fetch that asked for
/// it: parity completing for yet another group while the drives stop
/// (500 ms) must not hand that bay back to the burn starter.
#[test]
fn interrupting_fetch_keeps_the_bay_it_freed() {
    fetch_keeps_the_bay_it_freed(BusyReadPolicy::InterruptBurn);
}

/// A waiting fetch keeps the bay its burn freed: the group whose parity
/// completes during the wait burns after the read, not in its place.
#[test]
fn a_waiting_fetch_keeps_the_bay_its_burn_freed() {
    fetch_keeps_the_bay_it_freed(BusyReadPolicy::Wait);
}

fn fetch_keeps_the_bay_it_freed(policy: BusyReadPolicy) {
    let (mut ros, files) = busy_system(policy);
    // A third group whose parity is done some 40 ms from now.
    seal_groups(&mut ros, 1, "third");
    assert_eq!(
        ros.pending_work(),
        (1, 0, 1, 0),
        "one burning, one in parity"
    );
    let burns = ros.counters().burns;
    let r = ros.read_file(&files[0].0).unwrap();
    assert_eq!(r.source, ReadSource::RollerDrivesBusy);
    assert_eq!(r.data.as_ref(), files[0].1.as_slice());
    let interrupted = policy == BusyReadPolicy::InterruptBurn;
    assert_eq!(ros.counters().burn_interrupts, u64::from(interrupted));
    assert_eq!(ros.counters().burns - burns, u64::from(!interrupted));
    // Both groups still reach their discs.
    assert!(ros.run_until_quiescent(SimDuration::from_secs(7200)));
    assert_eq!(ros.counters().burns, 3);
}

/// A read that waits for a burn (§4.8) waits for one: the bay that burn
/// frees is the read's, however many groups queue behind it, and they
/// burn once the read is done.
#[test]
fn a_waiting_read_completes_one_burn_however_many_groups_queue() {
    let read = |queued: u64| {
        let (mut ros, files) = busy_system(BusyReadPolicy::Wait);
        let start = ros.now() + SimDuration::from_secs(10);
        let sealed = seal_groups(&mut ros, queued, "queued");
        // Their parity is done; every one waits for the one bay.
        ros.run_until(start);
        let (burning, waiting, ..) = ros.pending_work();
        assert_eq!((burning, waiting), (1, queued as usize));
        let burns = ros.counters().burns;
        let r = ros.read_file(&files[0].0).unwrap();
        assert_eq!(r.source, ReadSource::RollerDrivesBusy);
        assert_eq!(r.data.as_ref(), files[0].1.as_slice());
        assert_eq!(ros.counters().burns - burns, 1, "{queued} queued");
        assert_eq!(r.latency, r.trace.total());
        assert_eq!(ros.now().duration_since(start), r.latency);
        // The backlog resumed when the read returned.
        let (burning, waiting, ..) = ros.pending_work();
        assert_eq!(burning + waiting, queued as usize);
        assert!(ros.run_until_quiescent(SimDuration::from_secs(24 * 3600)));
        assert_eq!(ros.counters().burns - burns, 1 + queued);
        for (path, data) in &sealed {
            assert_eq!(ros.read_file(path).unwrap().data.as_ref(), data.as_slice());
        }
        r.latency
    };
    assert_eq!(read(2), read(0));
}

/// One arm (§3.2): a fetch that finds it loading a burn's tray waits for
/// it, and says so.
#[test]
fn a_fetch_waits_for_the_arm_and_reports_the_wait() {
    // Two bays; a cold array on the roller; a second group's parity
    // done, so the arm is loading its tray into bay 0.
    let arm_loading = || {
        let mut cfg = RosConfig::tiny();
        cfg.drive_bays = 2;
        let mut ros = Ros::new(cfg);
        for i in 0..12 {
            ros.write_file(&p(&format!("/cold/{i}")), content(i, 800_000))
                .unwrap();
        }
        ros.flush().unwrap();
        ros.unload_all_bays().unwrap();
        ros.evict_burned_copies();
        for i in 0..12 {
            ros.write_file(&p(&format!("/hot/{i}")), content(100 + i, 800_000))
                .unwrap();
        }
        ros.seal_open_buckets().unwrap();
        ros.force_close_collecting_group();
        ros.run_for(SimDuration::from_millis(4_000));
        assert!(
            ros.arm_free_at() > ros.now(),
            "the burn's load is in flight"
        );
        ros
    };
    let fetch_extra = |r: &ros::ros_olfs::ReadReport| r.trace.extra[0].duration;

    // The control lets the arm finish first.
    let mut idle = arm_loading();
    idle.run_until(idle.arm_free_at());
    let wanted = idle.now();
    let unhindered = idle.read_file(&p("/cold/0")).unwrap();
    assert_eq!(unhindered.source, ReadSource::RollerFreeDrives);
    let load = idle
        .arm_free_at()
        .duration_since(wanted + unhindered.trace.steps[0].duration);

    let mut busy = arm_loading();
    let arm_busy_until = busy.arm_free_at();
    let fetch_at = busy.now() + unhindered.trace.steps[0].duration;
    let wait = arm_busy_until.duration_since(fetch_at);
    assert!(wait > SimDuration::from_secs(60), "wait = {wait}");
    let started = busy.now();
    let r = busy.read_file(&p("/cold/0")).unwrap();
    assert_eq!(r.source, ReadSource::RollerFreeDrives, "bay 1 was free");
    assert_eq!(r.data.as_ref(), content(0, 800_000).as_slice());
    // The wait is in the trace, in the latency and on the clock...
    assert_eq!(fetch_extra(&r), fetch_extra(&unhindered) + wait);
    assert_eq!(r.latency, unhindered.latency + wait);
    assert_eq!(busy.now().duration_since(started), r.latency);
    // ...and the fetch's load began the instant the burn's ended.
    assert_eq!(busy.arm_free_at(), arm_busy_until + load);
}

#[test]
fn forepart_answers_first_byte_instantly_on_cold_reads() {
    let mut cfg = RosConfig::tiny();
    cfg.forepart_bytes = 8 * 1024;
    let mut ros = Ros::new(cfg);
    for i in 0..12 {
        ros.write_file(&p(&format!("/fp/{i}")), content(i, 700_000))
            .unwrap();
    }
    ros.flush().unwrap();
    ros.unload_all_bays().unwrap();
    ros.evict_burned_copies();
    let r = ros.read_file(&p("/fp/0")).unwrap();
    assert!(r.latency > SimDuration::from_secs(60));
    assert_eq!(r.first_byte_latency, SimDuration::from_millis(2));
    // Without forepart, the first byte waits for the mechanics.
    let mut cfg = RosConfig::tiny();
    cfg.forepart_bytes = 0;
    let mut ros = Ros::new(cfg);
    for i in 0..12 {
        ros.write_file(&p(&format!("/fp/{i}")), content(i, 700_000))
            .unwrap();
    }
    ros.flush().unwrap();
    ros.unload_all_bays().unwrap();
    ros.evict_burned_copies();
    let r = ros.read_file(&p("/fp/0")).unwrap();
    assert_eq!(r.first_byte_latency, r.latency);
}

#[test]
fn direct_mode_defers_olfs_ingestion() {
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::SambaOlfs);
    let data = content(1, 2_500_000); // 2 ms on 10GbE.
    let lat = g.write_direct(&p("/direct/big"), data.clone()).unwrap();
    assert!(
        lat < SimDuration::from_millis(5),
        "direct write = {lat} (network speed)"
    );
    // Compare: the same write through the Samba path costs ≥50 ms.
    let slow = g.write_file(&p("/samba/big"), data.clone()).unwrap();
    assert!(slow.latency > SimDuration::from_millis(50));
    assert_eq!(g.drain_direct().unwrap(), 1);
    let r = g.read_file(&p("/direct/big")).unwrap();
    assert_eq!(r.data.as_ref(), data.as_slice());
}

#[test]
fn read_cache_lru_keeps_the_hot_image() {
    let mut ros = Ros::new(RosConfig::tiny());
    for i in 0..24 {
        ros.write_file(&p(&format!("/lru/{i}")), content(i, 800_000))
            .unwrap();
    }
    ros.flush().unwrap();
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    // First read: mechanical fetch.
    let r1 = ros.read_file(&p("/lru/0")).unwrap();
    assert!(r1.latency > SimDuration::from_secs(60));
    // Second read of the same file: image cached.
    let r2 = ros.read_file(&p("/lru/0")).unwrap();
    assert!(
        r2.latency < SimDuration::from_millis(50),
        "cached read = {}",
        r2.latency
    );
    assert_eq!(r2.source, ReadSource::DiskImage);
}

#[test]
fn singlestream_workloads_over_every_stack() {
    for stack in [AccessStack::Ext4Olfs, AccessStack::SambaOlfs] {
        let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), stack);
        let ops = WorkloadSpec::SinglestreamRead {
            files: 8,
            file_size: 128 * 1024,
        }
        .compile(99);
        let stats = Runner::new().run(&mut g, &ops).unwrap();
        assert_eq!(stats.corrupt_reads, 0, "{}", stack.name());
        assert_eq!(stats.read_latency.count(), 8);
        // Samba costs more per op than the local stack.
        if stack == AccessStack::SambaOlfs {
            assert!(stats.read_latency.mean() > SimDuration::from_millis(12));
        } else {
            assert!(stats.read_latency.mean() < SimDuration::from_millis(12));
        }
    }
}

#[test]
fn analytics_workload_mixes_tiers_correctly() {
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::Ext4Olfs);
    let spec = WorkloadSpec::AnalyticsReadback {
        dataset: 25,
        sizes: SizeDist::Uniform {
            lo: 10_000,
            hi: 400_000,
        },
        reads: 60,
        skew: 1.1,
    };
    let ops = spec.compile(5);
    let stats = Runner::new().run(&mut g, &ops).unwrap();
    assert_eq!(stats.corrupt_reads, 0);
    assert_eq!(stats.read_latency.count(), 60);
}

#[test]
fn explicit_op_lists_run_in_order() {
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::Ext4Olfs);
    let ops = vec![
        FileOp::Write {
            path: p("/o/one"),
            size: 1000,
        },
        FileOp::Stat { path: p("/o/one") },
        FileOp::Read { path: p("/o/one") },
    ];
    let stats = Runner::new().run(&mut g, &ops).unwrap();
    assert_eq!(stats.write_latency.count(), 1);
    assert_eq!(stats.stat_latency.count(), 1);
    assert_eq!(stats.read_latency.count(), 1);
    assert_eq!(stats.bytes_read, 1000);
}

#[test]
fn crash_during_burn_recovers_to_a_consistent_state() {
    let mut ros = Ros::new(RosConfig::tiny());
    let files: Vec<(UdfPath, Vec<u8>)> = (0..12)
        .map(|i| (p(&format!("/crash/{i}")), content(i, 800_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.seal_open_buckets().unwrap();
    ros.force_close_collecting_group();
    // Let the burn start, then pull the plug mid-burn.
    ros.run_for(SimDuration::from_millis(4_000));
    let (aborted, _parities) = ros.simulate_crash_and_restart().unwrap();
    assert!(aborted >= 1, "a burn must have been in flight");
    // The ruined tray is retired; the group re-burns onto a fresh one.
    assert!(ros.run_until_quiescent(SimDuration::from_secs(7200)));
    let (_, used, failed) = ros.status().da_counts;
    assert!(failed >= 1, "crashed tray must be Failed");
    assert!(used >= 1, "re-burn must land on a fresh tray");
    // Every byte survived: buckets were on disk, the re-burn completed.
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
    assert!(ros.verify_consistency().is_empty());
}

/// A restart costs what its doc says, the arm sending the ruined array
/// home plus 90 s, and the idle audit keeps ticking after it.
#[test]
fn a_crash_restart_costs_the_unload_and_keeps_the_idle_tick() {
    let interval = SimDuration::from_secs(3600);
    let mut cfg = RosConfig::tiny();
    cfg.scrub_interval = Some(interval);
    let layout = cfg.layout;
    let mut ros = Ros::new(cfg);
    for i in 0..12 {
        ros.write_file(&p(&format!("/crash/{i}")), content(i, 800_000))
            .unwrap();
    }
    ros.seal_open_buckets().unwrap();
    ros.force_close_collecting_group();
    ros.run_for(SimDuration::from_millis(4_000));
    ros.run_until(ros.arm_free_at());
    // The burn is in flight on the first tray, and the arm is idle.
    let tray = layout.slot_at(0);
    let mut mech = MechScheduler::new(Plc::new_full(layout), 1);
    mech.load_array(tray, 0).unwrap();
    let unload = mech.unload_array(0).unwrap().duration;
    let crashed = ros.now();
    let (aborted, _) = ros.simulate_crash_and_restart().unwrap();
    assert_eq!(aborted, 1);
    assert_eq!(
        ros.now().duration_since(crashed),
        unload + SimDuration::from_secs(90)
    );
    ros.run_for(interval);
    assert!(ros.last_audit_report().is_some(), "the idle tick audited");
}

/// A burn whose drive refuses to start leaves its group ready to burn,
/// not `Burning` while it waits, and the two group views agree.
#[test]
fn a_failed_burn_start_leaves_the_group_ready() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.inject_fault(&FaultEvent {
        seq: 0,
        at_op: 0,
        kind: FaultKind::DriveDeath { bay: 0, drive: 0 },
    });
    for i in 0..11 {
        ros.write_file(&p(&format!("/dead/{i}")), content(i, 300_000))
            .unwrap();
    }
    ros.seal_open_buckets().unwrap();
    ros.force_close_collecting_group();
    ros.run_for(SimDuration::from_secs(4));
    assert_eq!(ros.status().da_counts.2, 1, "the start ruined its tray");
    let (_, parity, ready, burning, _) = ros.group_census();
    assert_eq!((ready, burning), (1, 0));
    assert_eq!(ros.pending_work(), (burning, ready, parity, ready));
}

#[test]
fn crash_while_idle_is_a_no_op() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/idle"), content(1, 1000)).unwrap();
    ros.flush().unwrap();
    let (aborted, parities) = ros.simulate_crash_and_restart().unwrap();
    assert_eq!((aborted, parities), (0, 0));
    let r = ros.read_file(&p("/idle")).unwrap();
    assert_eq!(r.data.as_ref(), content(1, 1000).as_slice());
}

#[test]
fn read_histogram_separates_disk_hits_from_mechanical_fetches() {
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::Ext4Olfs);
    // Warm dataset + one cold file.
    for i in 0..12 {
        g.write_file(&p(&format!("/h/{i}")), content(i, 700_000))
            .unwrap();
    }
    g.ros_mut().flush().unwrap();
    g.ros_mut().unload_all_bays().unwrap();
    g.ros_mut().evict_burned_copies();
    // One mechanical read, then several cached reads.
    let mut ops = vec![FileOp::Read { path: p("/h/0") }];
    for _ in 0..5 {
        ops.push(FileOp::Read { path: p("/h/0") });
    }
    let stats = Runner::new().run(&mut g, &ops).unwrap();
    let hist = &stats.read_histogram;
    assert_eq!(hist.total(), 6);
    // The bimodal split: fast bucket(s) hold 5, a slow bucket holds 1.
    let slow: u64 = hist
        .buckets()
        .filter(|(edge, _)| edge.map(|e| e > SimDuration::from_secs(10)).unwrap_or(true))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(slow, 1, "exactly one mechanical fetch");
    assert!(hist.quantile_upper_bound(0.8).unwrap() <= SimDuration::from_millis(100));
}

#[test]
fn faster_links_speed_up_direct_mode() {
    use ros::ros_access::params::NetworkLink;
    let mut ten = NasGateway::with_link(
        Ros::new(RosConfig::tiny()),
        AccessStack::SambaOlfs,
        NetworkLink::TenGbE,
    );
    let mut ib = NasGateway::with_link(
        Ros::new(RosConfig::tiny()),
        AccessStack::SambaOlfs,
        NetworkLink::InfinibandQdr,
    );
    let data = content(3, 8_000_000);
    let slow = ten.write_direct(&p("/d"), data.clone()).unwrap();
    let fast = ib.write_direct(&p("/d"), data).unwrap();
    assert!(fast < slow, "InfiniBand must beat 10GbE: {fast} vs {slow}");
    let ratio = slow.as_secs_f64() / fast.as_secs_f64();
    assert!((2.0..3.2).contains(&ratio), "ratio = {ratio:.2}");
}
