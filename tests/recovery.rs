//! Recovery integration tests: media damage repair (§4.7), MV snapshot
//! burn + restore, and full namespace reconstruction from discs (§4.2,
//! §4.4).

use ros::prelude::*;
use ros::ros_olfs::AuditReport;
use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tag.wrapping_mul(131).wrapping_add(i as u64 * 7) % 249) as u8)
        .collect()
}

fn burned_dataset(n: u64, size: usize) -> (Ros, Vec<(UdfPath, Vec<u8>)>) {
    let mut ros = Ros::new(RosConfig::tiny());
    let files: Vec<(UdfPath, Vec<u8>)> = (0..n)
        .map(|i| (p(&format!("/ds/dir-{}/f{i}", i % 3)), content(i, size)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.flush().unwrap();
    (ros, files)
}

#[test]
fn single_disc_corruption_repairs_through_raid5() {
    let (mut ros, files) = burned_dataset(10, 400_000);
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    // Corrupt one data disc in its tray.
    let seg = ros.image_segments(&files[0].0).unwrap()[0];
    assert!(ros.locate_image(seg).is_some(), "dataset must be on disc");
    let failures = ros.age_media(0.02);
    assert!(failures > 0, "ageing must inject damage");
    // Reads repair transparently.
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
    assert!(ros.counters().repairs > 0);
}

#[test]
fn scrub_finds_damage_and_rewrite_retires_trays() {
    let (mut ros, files) = burned_dataset(12, 500_000);
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    ros.age_media(0.02);
    let before = ros.status().da_counts;
    let report = ros.audit_sample(usize::MAX);
    assert!(!report.rotted.is_empty(), "the audit must find the damage");
    assert_eq!(report.repaired, report.rotted, "{report:?}");
    let after = ros.status().da_counts;
    assert!(after.2 > before.2, "old trays must be retired as Failed");
    // Everything still reads correctly from the fresh discs.
    assert_reads_back_cold(&mut ros, &files);
}

#[test]
fn mv_snapshot_burn_and_recovery_from_discs() {
    let (mut ros, files) = burned_dataset(8, 300_000);
    // Burn an MV snapshot into the library.
    let (seq, parts) = ros.burn_mv_snapshot().unwrap();
    assert_eq!(seq, 1);
    assert!(parts >= 1);
    // Simulate MV loss: recover from discs alone.
    let (restored, elapsed) = ros.recover_mv_from_discs().unwrap();
    assert!(elapsed > SimDuration::from_secs(60), "scan is mechanical");
    // The restored MV knows every file.
    ros.adopt_namespace(restored);
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
}

#[test]
fn namespace_rebuild_without_any_mv() {
    let (mut ros, files) = burned_dataset(9, 350_000);
    let report = ros.rebuild_namespace_from_discs().unwrap();
    assert_eq!(report.files_recovered, files.len());
    assert!(report.images_parsed >= 1);
    assert!(report.elapsed > SimDuration::from_secs(60));
    ros.adopt_namespace(report.mv);
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
}

#[test]
fn namespace_rebuild_recovers_split_files() {
    let mut ros = Ros::new(RosConfig::tiny());
    let big = content(7, 9 * 1024 * 1024);
    let w = ros.write_file(&p("/deep/huge.bin"), big.clone()).unwrap();
    assert!(w.segments.len() >= 2);
    ros.write_file(&p("/deep/small"), content(8, 1000)).unwrap();
    ros.flush().unwrap();
    let report = ros.rebuild_namespace_from_discs().unwrap();
    ros.adopt_namespace(report.mv);
    let r = ros.read_file(&p("/deep/huge.bin")).unwrap();
    assert_eq!(r.data.len(), big.len());
    assert_eq!(
        r.data.as_ref(),
        big.as_slice(),
        "split file must reassemble"
    );
    let r = ros.read_file(&p("/deep/small")).unwrap();
    assert_eq!(r.data.as_ref(), content(8, 1000).as_slice());
}

#[test]
fn rebuild_maps_version_shadows_to_original_paths() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/v/file"), content(1, 50_000)).unwrap();
    ros.seal_open_buckets().unwrap(); // Forces the update to regenerate.
    let v2 = content(2, 60_000);
    ros.write_file(&p("/v/file"), v2.clone()).unwrap();
    ros.flush().unwrap();
    let report = ros.rebuild_namespace_from_discs().unwrap();
    ros.adopt_namespace(report.mv);
    // The rebuilt namespace serves the newest version under the original
    // path, with no ".rosv" shadow names leaking.
    let r = ros.read_file(&p("/v/file")).unwrap();
    assert_eq!(r.data.as_ref(), v2.as_slice());
    let ls = ros.readdir(&p("/v")).unwrap();
    assert!(
        ls.iter().all(|(name, _)| !name.starts_with(".rosv")),
        "shadow names must not leak: {ls:?}"
    );
}

#[test]
fn checkpoint_state_survives_in_mv_snapshot() {
    let (mut ros, _) = burned_dataset(6, 200_000);
    ros.checkpoint();
    ros.burn_mv_snapshot().unwrap();
    let (restored, _) = ros.recover_mv_from_discs().unwrap();
    assert!(
        restored.get_state("dim").is_some(),
        "DAindex/DILindex checkpoint must ride along in the snapshot"
    );
    assert!(restored.get_state("checkpoint_nanos").is_some());
}

#[test]
fn raid6_survives_two_damaged_discs_in_one_array() {
    let mut cfg = RosConfig::tiny();
    cfg.redundancy = Redundancy::Raid6;
    let mut ros = Ros::new(cfg);
    let files: Vec<(UdfPath, Vec<u8>)> = (0..12)
        .map(|i| (p(&format!("/r6/f{i}")), content(i, 600_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.flush().unwrap();
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    // Heavier damage than RAID-5 tolerates: many sectors on two discs.
    let failures = ros.age_media(0.05);
    assert!(failures > 20, "need substantial damage, got {failures}");
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
    assert!(ros.counters().repairs > 0);
}

#[test]
fn raid5_tolerance_is_sector_granular_across_discs() {
    // Multiple damaged discs in one RAID-5 array are fine as long as no
    // 2 KB stripe loses two members at once (§4.7's tolerance degree).
    let (mut ros, files) = burned_dataset(12, 500_000);
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    // Spread light damage over the whole library: distinct stripes with
    // overwhelming probability.
    let failures = ros.age_media(0.004);
    assert!(failures > 0);
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
}

/// An aged, cold library of 12 files, after `prepare` has had its way
/// with file 0 and the result was flushed, and the audit that walked it.
fn aged_library<T>(
    prepare: impl FnOnce(&mut Ros, &mut Vec<(UdfPath, Vec<u8>)>) -> T,
) -> (Ros, Vec<(UdfPath, Vec<u8>)>, AuditReport, T) {
    let (mut ros, mut files) = burned_dataset(12, 500_000);
    let prepared = prepare(&mut ros, &mut files);
    ros.flush().unwrap();
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    ros.age_media(0.02);
    let report = ros.audit_sample(usize::MAX);
    assert!(!report.rotted.is_empty(), "the audit must find the damage");
    assert!(report.unrepairable.is_empty(), "{report:?}");
    assert!(ros.status().da_counts.2 >= 1, "a damaged tray is retired");
    (ros, files, report, prepared)
}

/// Every file reads back exact from the discs, and no read needs a
/// repair: whatever was damaged now lives on fresh media.
fn assert_reads_back_cold(ros: &mut Ros, files: &[(UdfPath, Vec<u8>)]) {
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    let before = ros.counters();
    for (path, data) in files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
    let after = ros.counters();
    assert_eq!(
        (after.repairs, after.latent_repairs),
        (before.repairs, before.latent_repairs),
        "cold reads repaired something the audit left behind"
    );
    let issues = ros.verify_consistency();
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn repair_follows_the_image_when_its_first_path_moved_to_a_newer_image() {
    // File 0 is overwritten, so the first path recorded for its old
    // image now resolves to v2 in a later image: the repair must still
    // heal the *old* image, by id.
    let v1 = content(0, 500_000);
    let (mut ros, files, report, old_image) = aged_library(|ros, files| {
        let old_image = ros.image_segments(&files[0].0).unwrap()[0];
        files[0].1 = content(100, 500_000);
        ros.write_file(&files[0].0, files[0].1.clone()).unwrap();
        old_image
    });
    // An image listed as repaired is on the buffer: reading out of it
    // fetches nothing.
    assert!(
        report.repaired.contains(&old_image),
        "{old_image} not in {:?}",
        report.repaired
    );
    let fetches = ros.counters().fetches;
    let old = ros.read_version(&files[0].0, 1).unwrap();
    assert_eq!(old.data.as_ref(), v1.as_slice());
    assert_eq!(ros.counters().fetches, fetches);

    assert_reads_back_cold(&mut ros, &files);
    let old = ros.read_version(&files[0].0, 1).unwrap();
    assert_eq!(old.data.as_ref(), v1.as_slice());
}

#[test]
fn repair_does_not_need_the_namespace() {
    // File 0 is unlinked: its image's first recorded path is gone, and
    // repair must not care.
    let (mut ros, files, report, ()) = aged_library(|ros, files| {
        ros.unlink(&files[0].0).unwrap();
        files.remove(0);
    });
    assert_eq!(report.repaired, report.rotted, "{report:?}");
    assert_reads_back_cold(&mut ros, &files);
}

#[test]
fn the_idle_tick_heals_rot_the_scrub_could_not_see() {
    // Latent rot raises no sector error, so a scan of the drive's damage
    // map passes it by; the idle tick's audit re-hashes every image.
    let mut cfg = RosConfig::tiny();
    cfg.scrub_interval = Some(SimDuration::from_secs(3600));
    let mut ros = Ros::new(cfg);
    let files: Vec<(UdfPath, Vec<u8>)> = (0..10)
        .map(|i| (p(&format!("/tick/f{i}")), content(i, 400_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.flush().unwrap();
    ros.evict_all_burned_copies();
    ros.unload_all_bays().unwrap();
    let strike = FaultEvent {
        seq: 0,
        at_op: 0,
        kind: FaultKind::MediaRot { disc: 0, bytes: 8 },
    };
    assert_eq!(ros.inject_fault(&strike), InjectionOutcome::Injected);
    // The first tick finds and heals the rot; the next walks a healthy
    // library.
    ros.run_for(SimDuration::from_secs(3600 + 60));
    let report = ros.last_audit_report().expect("the idle tick audited");
    assert_eq!(report.rotted.len(), 1, "{report:?}");
    assert_eq!(report.repaired, report.rotted);
    assert_eq!(ros.status().da_counts.2, 1, "the rotted tray is retired");
    ros.run_for(SimDuration::from_secs(3600));
    assert!(ros.last_audit_report().unwrap().rotted.is_empty());
    assert_reads_back_cold(&mut ros, &files);
}
