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
    let report = ros.recover(MvSource::DiscSnapshot).unwrap();
    assert!(
        report.elapsed > SimDuration::from_secs(60),
        "scan is mechanical"
    );
    // The restored MV knows every file.
    assert_eq!(report.files_recovered, files.len());
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
}

/// An MV snapshot WBM splits across images recovers whole: 600 files of
/// 4 KiB make a ~8.8 MB snapshot of 17 parts over at least three
/// images, and each split part is stitched from its subfiles as any
/// split file is, its link file never taken for data.
#[test]
fn a_snapshot_split_across_images_recovers() {
    let (mut ros, files) = burned_dataset(600, 4096);
    let splits = ros.counters().splits;
    let (seq, parts) = ros.burn_mv_snapshot().unwrap();
    ros.flush().unwrap();
    assert!(ros.counters().splits > splits, "no snapshot part was split");
    let images: std::collections::BTreeSet<_> = (0..parts)
        .flat_map(|i| {
            let part = p(&format!("/.mv-snapshots/{seq:06}/part-{i:06}"));
            ros.image_segments(&part).unwrap()
        })
        .collect();
    assert!(images.len() >= 3, "{parts} parts on {images:?}");
    let report = ros.recover(MvSource::DiscSnapshot).unwrap();
    assert_eq!(report.files_recovered, files.len());
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
}

/// A disc recovery moves the snapshot sequence past every sequence on
/// the discs, whichever disc source it read: the next burn writes a new
/// sequence directory, and the snapshot recovered after it is the new
/// namespace, not the old one nor a mix of both.
#[test]
fn a_disc_recovery_never_reuses_a_snapshot_sequence() {
    for from in [MvSource::DiscSnapshot, MvSource::DiscScan] {
        let (mut ros, files) = burned_dataset(1000, 512);
        let (seq, parts) = ros.burn_mv_snapshot().unwrap();
        assert_eq!(seq, 1);
        assert!(parts > 1, "{parts} parts");
        ros.recover(from.clone()).unwrap();
        let (kept, gone) = files.split_at(10);
        for (path, _) in gone {
            ros.unlink(path).unwrap();
        }
        let new = content(1000, 700);
        ros.write_file(&p("/c/new"), new.clone()).unwrap();
        let (seq, _) = ros.burn_mv_snapshot().unwrap();
        assert_eq!(seq, 2, "{from:?}");
        ros.recover(MvSource::DiscSnapshot)
            .unwrap_or_else(|e| panic!("{from:?}: {e}"));
        assert_eq!(ros.read_file(&p("/c/new")).unwrap().data.as_ref(), new);
        for (path, data) in kept {
            let r = ros.read_file(path).unwrap();
            assert_eq!(r.data.as_ref(), data.as_slice(), "{from:?}: {path}");
        }
        for (path, _) in gone {
            let got = ros.read_file(path);
            assert!(
                matches!(got, Err(OlfsError::NotFound(_))),
                "{from:?}: {path}"
            );
        }
    }
}

#[test]
fn namespace_rebuild_without_any_mv() {
    let (mut ros, files) = burned_dataset(9, 350_000);
    let report = ros.recover(MvSource::DiscScan).unwrap();
    assert_eq!(report.files_recovered, files.len());
    assert!(report.images_parsed >= 1);
    assert!(report.elapsed > SimDuration::from_secs(60));
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
    ros.recover(MvSource::DiscScan).unwrap();
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

/// A split file whose first subfile is lost past its array's tolerance
/// is left out of a disc-scan rebuild: the surviving subfiles' link
/// files place them after bytes no disc holds, so the file is
/// `NotFound`, never its tail.
#[test]
fn a_split_file_missing_its_first_subfile_is_not_served_short() {
    let mut ros = Ros::new(RosConfig::tiny());
    let w = ros
        .write_file(&p("/deep/huge.bin"), content(7, 9 << 20))
        .unwrap();
    ros.write_file(&p("/deep/small"), content(8, 1000)).unwrap();
    ros.flush().unwrap();
    assert!(w.segments.len() >= 2);
    let first = ros.locate_image(w.segments[0]).unwrap();
    assert_eq!(
        first.position, 0,
        "the first subfile is on the tray's first disc"
    );
    ros.evict_all_burned_copies();
    ros.unload_all_bays().unwrap();
    // The first disc and the parity disc lose the same sectors: past
    // RAID-5's tolerance.
    for disc in [0, 3] {
        let kind = FaultKind::MediaCorruption { disc, sectors: 2 };
        let strike = FaultEvent {
            seq: disc,
            at_op: 0,
            kind,
        };
        assert_eq!(ros.inject_fault(&strike), InjectionOutcome::Injected);
    }
    ros.recover(MvSource::DiscScan).unwrap();
    assert!(matches!(
        ros.read_file(&p("/deep/huge.bin")),
        Err(OlfsError::NotFound(_))
    ));
}

#[test]
fn rebuild_maps_version_shadows_to_original_paths() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/v/file"), content(1, 50_000)).unwrap();
    ros.seal_open_buckets().unwrap(); // Forces the update to regenerate.
    let v2 = content(2, 60_000);
    ros.write_file(&p("/v/file"), v2.clone()).unwrap();
    ros.flush().unwrap();
    ros.recover(MvSource::DiscScan).unwrap();
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

/// Ten ~900 KB files and an MV snapshot burned as one 3 + 1 RAID-5
/// array, no buffer copies, and `kind` struck on one burned disc.
fn one_damaged_disc(kind: FaultKind) -> (Ros, Vec<(UdfPath, Vec<u8>)>) {
    let mut ros = Ros::new(RosConfig::tiny());
    let files: Vec<(UdfPath, Vec<u8>)> = (0..10)
        .map(|i| (p(&format!("/ds/dir-{}/f{i}", i % 3)), content(i, 900_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    ros.burn_mv_snapshot().unwrap();
    assert_eq!(ros.group_census().4, 1, "one burned array");
    ros.evict_all_burned_copies();
    ros.unload_all_bays().unwrap();
    let strike = FaultEvent {
        seq: 0,
        at_op: 0,
        kind,
    };
    assert_eq!(ros.inject_fault(&strike), InjectionOutcome::Injected);
    (ros, files)
}

/// Recovery tolerates what a read tolerates: one damaged disc in a
/// RAID-5 array once cost the snapshot scan its snapshot and the disc
/// scan up to 4 of the 10 files, while live reads returned all 10. Both
/// scans only read the media, so one library serves both.
#[test]
fn disc_recoveries_read_through_one_damaged_disc() {
    for disc in 0..4 {
        for kind in [
            FaultKind::MediaCorruption { disc, sectors: 2 },
            FaultKind::MediaRot { disc, bytes: 8 },
        ] {
            let case = format!("{kind:?}");
            let (mut ros, files) = one_damaged_disc(kind);
            for from in [MvSource::DiscSnapshot, MvSource::DiscScan] {
                let report = ros.recover(from).expect(&case);
                assert_eq!(report.files_recovered, files.len(), "{case}");
                assert_eq!(report.images_parsed, 3, "{case}");
            }
            for (path, data) in &files {
                let r = ros.read_file(path).expect(&case);
                assert_eq!(r.data.as_ref(), data.as_slice(), "{case}: {path}");
            }
        }
    }
}

/// Both disc recoveries are total under seeded media damage: each of 32
/// seeds burns a dataset and an MV snapshot, strikes one to three
/// seeded `MediaRot` or `MediaCorruption` events, and recovers from the
/// snapshot and by the scan. Seeds 15 and 31 add 400 files of 4 KiB, a
/// ~5.9 MB snapshot, so WBM splits one of its parts across two images.
/// Each recovery returns `Ok` or a typed error, never panics, and after
/// an `Ok` no acked path reads back bytes the model does not owe.
#[test]
fn disc_recoveries_are_total_under_seeded_media_damage() {
    use rand::{Rng, SeedableRng};
    use ros_bench::model::{Model, Read, Verdict};
    let (mut exact, mut failed, mut refused, mut split) = (0, 0, 0, 0);
    for seed in 0..32u64 {
        for from in [MvSource::DiscSnapshot, MvSource::DiscScan] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ros = Ros::new(RosConfig::tiny());
            let mut model = Model::new(false);
            for i in 0..3 + rng.gen::<u64>() % 5 {
                let path = p(&format!("/s/d{}/f{i}", i % 3));
                let data = content(seed * 31 + i, 1 + rng.gen::<usize>() % 500_000);
                ros.write_file(&path, data.clone()).unwrap();
                model.write(&path, data.into(), false);
            }
            let small = if seed % 16 == 15 { 400 } else { 0 };
            for i in 0..small {
                let path = p(&format!("/s/small/f{i}"));
                let data = content(seed * 1009 + i, 4096);
                ros.write_file(&path, data.clone()).unwrap();
                model.write(&path, data.into(), false);
            }
            let splits = ros.counters().splits;
            ros.burn_mv_snapshot().unwrap();
            if ros.counters().splits > splits {
                split += 1;
            }
            ros.evict_all_burned_copies();
            ros.unload_all_bays().unwrap();
            for seq in 0..1 + rng.gen::<u64>() % 3 {
                let disc = rng.gen::<u64>();
                let kind = if rng.gen::<bool>() {
                    FaultKind::MediaRot {
                        disc,
                        bytes: 1 + rng.gen::<u32>() % 64,
                    }
                } else {
                    FaultKind::MediaCorruption {
                        disc,
                        sectors: 1 + rng.gen::<u32>() % 8,
                    }
                };
                ros.inject_fault(&FaultEvent {
                    seq,
                    at_op: 0,
                    kind,
                });
            }
            if ros.recover(from.clone()).is_err() {
                refused += 1;
                continue;
            }
            for path in model.paths() {
                let got = ros.read_file(path).map(|r| r.data);
                match model.judge(path, Read::Latest, &got) {
                    Verdict::Wrong => panic!("seed {seed}, {from:?}: {path} read back wrong bytes"),
                    Verdict::Exact => exact += 1,
                    _ => failed += 1,
                }
            }
        }
    }
    assert!(
        exact > failed,
        "{exact} exact, {failed} failed, {refused} refused"
    );
    assert!(split > 0, "no seed split a snapshot part");
}

/// The MV parsers are total: seeded byte flips, truncations and
/// JSON-punctuation inserts on a real snapshot (dedup digests, a shadow
/// name, a split file) and on one of its index files give `Ok` or a
/// typed error, never a panic, and every mutated snapshot that parses
/// is recovered from without one.
#[test]
fn mv_parsers_are_total_on_mutated_snapshots() {
    use rand::{Rng, SeedableRng};
    use ros::ros_olfs::{index::IndexFile, mv::MetadataVolume};
    let mut cfg = RosConfig::tiny();
    cfg.dedup = true;
    cfg.forepart_bytes = 16; // Keeps mutations off the bulk of forepart bytes.
    let mut ros = Ros::new(cfg);
    for i in 0..24u64 {
        let path = p(&format!("/m/d{}/f{i}", i % 4));
        ros.write_file(&path, content(i % 5, 20_000)).unwrap();
    }
    ros.seal_open_buckets().unwrap(); // Forces the update to regenerate.
    ros.write_file(&p("/m/d0/f0"), content(9, 30_000)).unwrap();
    let split = ros.write_file(&p("/m/split"), content(5, 5 << 20)).unwrap();
    assert!(split.segments.len() > 1);
    let snapshot = ros.export_namespace();
    for needle in ["\"digest\"", ".rosv2-f0", "/m/split"] {
        assert!(snapshot.contains(needle), "{needle}");
    }
    let index = MetadataVolume::restore(&snapshot).unwrap();
    let index = index.get(&p("/m/d0/f0")).unwrap().to_json();

    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let (mut parsed, mut refused) = (0, 0);
    for i in 0..3_000 {
        let mut bytes = if i % 4 == 0 { &index } else { &snapshot }
            .clone()
            .into_bytes();
        let at = rng.gen::<usize>() % bytes.len();
        match rng.gen::<usize>() % 3 {
            0 => bytes[at] ^= 1 << (rng.gen::<usize>() % 7),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, b"{}[]:,\"\\-.0e"[rng.gen::<usize>() % 12]),
        }
        let text = String::from_utf8_lossy(&bytes);
        let ok = if i % 4 == 0 {
            IndexFile::from_json(&text).is_ok()
        } else if let Ok(mv) = MetadataVolume::restore(&text) {
            ros.recover(MvSource::Volume(mv)).unwrap();
            ros.dedup_stats();
            true
        } else {
            false
        };
        if ok {
            parsed += 1;
        } else {
            refused += 1;
        }
    }
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
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
    // The first tick, an hour in, finds and heals the rot, and moves no
    // clock: a run to a second past it takes exactly what it was asked
    // to, and the re-burn runs on in the background.
    let before = ros.now();
    let window = SimTime::from_secs(3600 + 1).duration_since(before);
    ros.run_for(window);
    assert_eq!(ros.now().duration_since(before), window);
    assert_eq!(ros.pending_work().0, 1, "the re-burn is in flight");
    let report = ros.last_audit_report().expect("the idle tick audited");
    assert_eq!(report.rotted.len(), 1, "{report:?}");
    assert_eq!(report.repaired, report.rotted);
    assert_eq!(ros.status().da_counts.2, 1, "the rotted tray is retired");
    assert!(ros.run_until_quiescent(SimDuration::from_secs(3600)));
    for (path, data) in &files {
        assert_eq!(ros.read_file(path).unwrap().data.as_ref(), data.as_slice());
    }
    // The next tick walks a healthy library.
    ros.run_for(SimDuration::from_secs(3600));
    assert!(ros.last_audit_report().unwrap().rotted.is_empty());
    assert_reads_back_cold(&mut ros, &files);
}
