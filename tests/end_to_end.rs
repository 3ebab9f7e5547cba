//! Cross-crate integration: the full life of data in ROS — buckets,
//! images, parity, burning, eviction, mechanical fetch — with
//! byte-for-byte verification at every stage.

use ros::prelude::*;
use ros::ros_olfs::engine::ReadSource;

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

/// Deterministic content distinguishable per file.
fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tag.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

#[test]
fn data_survives_every_tier_transition() {
    let mut ros = Ros::new(RosConfig::tiny());
    let files: Vec<(UdfPath, Vec<u8>)> = (0..20)
        .map(|i| (p(&format!("/tiers/f{i}")), content(i, 350_000)))
        .collect();
    for (path, data) in &files {
        ros.write_file(path, data.clone()).unwrap();
    }
    // Stage 1: buckets.
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice());
        assert!(matches!(
            r.source,
            ReadSource::DiskBucket | ReadSource::DiskImage
        ));
    }
    // Stage 2: sealed images.
    ros.seal_open_buckets().unwrap();
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice());
        assert_eq!(r.source, ReadSource::DiskImage);
    }
    // Stage 3: burned, still cached.
    ros.flush().unwrap();
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice());
    }
    // Stage 4: cold — only the discs hold the data.
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    for (path, data) in &files {
        let r = ros.read_file(path).unwrap();
        assert_eq!(r.data.as_ref(), data.as_slice(), "{path}");
    }
    assert!(ros.counters().fetches > 0);
}

#[test]
fn split_files_reassemble_across_images() {
    let mut ros = Ros::new(RosConfig::tiny());
    // 4 MiB discs: a 10 MiB file must span at least 3 images.
    let big = content(99, 10 * 1024 * 1024);
    let w = ros.write_file(&p("/span/huge.bin"), big.clone()).unwrap();
    assert!(w.segments.len() >= 3, "segments = {:?}", w.segments);
    let r = ros.read_file(&p("/span/huge.bin")).unwrap();
    assert_eq!(r.data.len(), big.len());
    assert_eq!(r.data.as_ref(), big.as_slice());
    // And after burning + eviction.
    ros.flush().unwrap();
    ros.evict_burned_copies();
    let r = ros.read_file(&p("/span/huge.bin")).unwrap();
    assert_eq!(r.data.as_ref(), big.as_slice());
}

#[test]
fn foreground_writes_stay_fast_during_background_burns() {
    let mut ros = Ros::new(RosConfig::tiny());
    for i in 0..40 {
        ros.write_file(&p(&format!("/load/{i}")), content(i, 700_000))
            .unwrap();
    }
    // Burns are running in the background now; foreground latency must
    // remain at the Figure-7 level, not the mechanical level.
    let w = ros
        .write_file(&p("/load/probe"), content(1000, 2048))
        .unwrap();
    assert!(
        w.latency < SimDuration::from_millis(60),
        "foreground write = {}",
        w.latency
    );
    let r = ros.read_file(&p("/load/probe")).unwrap();
    assert!(
        r.latency < SimDuration::from_millis(60),
        "foreground read = {}",
        r.latency
    );
}

#[test]
fn full_pipeline_counters_are_consistent() {
    let mut ros = Ros::new(RosConfig::tiny());
    for i in 0..24 {
        ros.write_file(&p(&format!("/c/{i}")), content(i, 800_000))
            .unwrap();
    }
    ros.flush().unwrap();
    let c = ros.counters();
    assert_eq!(c.writes, 24);
    assert!(c.buckets_sealed >= 5, "sealed = {}", c.buckets_sealed);
    assert!(c.parity_runs >= 1);
    assert!(c.burns >= 1);
    // Every burned group corresponds to a Used tray.
    let (_, used, failed) = ros.status().da_counts;
    assert_eq!(failed, 0);
    assert_eq!(used as u64, c.burns);
    // The DILindex locates every burned image.
    let census = ros.group_census();
    assert_eq!(census.4 as u64, c.burns);
}

#[test]
fn gateway_roundtrip_over_samba() {
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::SambaOlfs);
    let data = content(5, 123_456);
    g.write_file(&p("/smb/file"), data.clone()).unwrap();
    let r = g.read_file(&p("/smb/file")).unwrap();
    assert_eq!(r.data.as_ref(), data.as_slice());
    // Samba latencies observed by the client.
    assert!(r.latency >= SimDuration::from_millis(10));
    let t = g.throughput();
    assert!(t.read.mb_per_sec() > 200.0 && t.read.mb_per_sec() < 260.0);
}

#[test]
fn updates_and_unlink_compose_with_burning() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/doc"), content(1, 100_000)).unwrap();
    ros.flush().unwrap();
    // Update a burned file: a new version in a fresh bucket.
    let v2 = content(2, 120_000);
    let w = ros.write_file(&p("/doc"), v2.clone()).unwrap();
    assert_eq!(w.version, 2);
    let r = ros.read_file(&p("/doc")).unwrap();
    assert_eq!(r.data.as_ref(), v2.as_slice());
    // Version 1 still readable from disc (provenance).
    let r1 = ros.read_version(&p("/doc"), 1).unwrap();
    assert_eq!(r1.data.as_ref(), content(1, 100_000).as_slice());
    // Unlink removes the global view but not the media.
    ros.unlink(&p("/doc")).unwrap();
    assert!(ros.read_file(&p("/doc")).is_err());
}

#[test]
fn mkdir_readdir_namespace_consistency() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.mkdir(&p("/a/b/c")).unwrap();
    ros.write_file(&p("/a/b/file"), content(1, 10)).unwrap();
    ros.write_file(&p("/a/other"), content(2, 10)).unwrap();
    let mut ls = ros.readdir(&p("/a")).unwrap();
    ls.sort();
    assert_eq!(ls, vec![("b".into(), true), ("other".into(), false)]);
    let ls = ros.readdir(&p("/a/b")).unwrap();
    assert_eq!(ls, vec![("c".into(), true), ("file".into(), false)]);
    assert!(ros.readdir(&p("/zzz")).is_err());
}

#[test]
fn clock_advances_monotonically_through_everything() {
    let mut ros = Ros::new(RosConfig::tiny());
    let mut last = ros.now();
    for i in 0..10 {
        ros.write_file(&p(&format!("/t/{i}")), content(i, 500_000))
            .unwrap();
        assert!(ros.now() >= last);
        last = ros.now();
    }
    ros.flush().unwrap();
    assert!(ros.now() > last);
}

#[test]
fn library_reports_out_of_discs_when_every_tray_is_used() {
    use ros::ros_mech::RackLayout;
    let mut cfg = RosConfig::tiny();
    cfg.layout = RackLayout {
        rollers: 1,
        layers: 1,
        slots_per_layer: 2,
        discs_per_tray: 12,
    };
    cfg.disc_class = ros::ros_drive::DiscClass::Custom {
        capacity: 2 * 1024 * 1024,
    };
    let mut ros = Ros::new(cfg);
    // Each array takes 11 data images of ~2 MiB; two trays = ~44 MiB.
    // Write enough for three arrays so the third has nowhere to go.
    for i in 0..80 {
        ros.write_file(&p(&format!("/fill/{i}")), content(i, 800_000))
            .unwrap();
    }
    let flushed = ros.flush();
    assert!(flushed.is_err(), "flush must report the stall");
    let (empty, used, _) = ros.status().da_counts;
    assert_eq!(empty, 0, "every tray consumed");
    assert_eq!(used, 2);
    assert!(ros.status().burn_backlog > 0, "backlog visible to MI");
    // The data is still safe on the disk buffer and fully readable.
    for i in 0..80 {
        let r = ros.read_file(&p(&format!("/fill/{i}"))).unwrap();
        assert_eq!(r.data.as_ref(), content(i, 800_000).as_slice());
    }
}

#[test]
fn two_bay_prototype_configuration_burns_in_parallel() {
    let mut cfg = RosConfig::tiny();
    cfg.drive_bays = 2;
    let mut ros = Ros::new(cfg);
    for i in 0..88 {
        ros.write_file(&p(&format!("/par/{i}")), content(i, 900_000))
            .unwrap();
    }
    ros.flush().unwrap();
    assert!(ros.counters().burns >= 2);
    // Reads from both arrays work cold.
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    for i in [0u64, 87] {
        let r = ros.read_file(&p(&format!("/par/{i}"))).unwrap();
        assert_eq!(r.data.as_ref(), content(i, 900_000).as_slice());
    }
}

#[test]
fn prototype_scale_configuration_instantiates_and_serves() {
    // The full §5.1 prototype: 12,240 x 100 GB discs, 24 drives — the
    // registry and indices handle the scale; data stays test-sized.
    let mut ros = Ros::new(RosConfig::prototype());
    assert_eq!(ros.config().layout.total_discs(), 12_240);
    assert!(ros.config().raw_capacity() > 1_200_000_000_000_000);
    let data = content(1, 256 * 1024);
    ros.write_file(&p("/pb/file"), data.clone()).unwrap();
    let r = ros.read_file(&p("/pb/file")).unwrap();
    assert_eq!(r.data.as_ref(), data.as_slice());
    // Status sees the whole rack.
    let (empty, used, failed) = ros.status().da_counts;
    assert_eq!(empty, 1020);
    assert_eq!((used, failed), (0, 0));
    assert!(ros.verify_consistency().is_empty());
}

#[test]
fn forepart_matches_file_prefix_exactly() {
    let mut cfg = RosConfig::tiny();
    cfg.forepart_bytes = 1024;
    let mut ros = Ros::new(cfg);
    let data = content(9, 50_000);
    ros.write_file(&p("/fp"), data.clone()).unwrap();
    // Range-read the first KB: must equal the forepart region.
    let r = ros.read_range(&p("/fp"), 0, 1024).unwrap();
    assert_eq!(r.data.as_ref(), &data[..1024]);
    // And a mid-file range.
    let r = ros.read_range(&p("/fp"), 40_000, 5_000).unwrap();
    assert_eq!(r.data.as_ref(), &data[40_000..45_000]);
    // Degenerate ranges.
    let r = ros.read_range(&p("/fp"), 49_999, 100).unwrap();
    assert_eq!(r.data.as_ref(), &data[49_999..]);
    let r = ros.read_range(&p("/fp"), 99_999, 10).unwrap();
    assert!(r.data.is_empty());
}

#[test]
fn both_rollers_serve_burns_and_fetches() {
    use ros::ros_mech::RackLayout;
    // One tray per roller: the second array must land on roller 1.
    let mut cfg = RosConfig::tiny();
    cfg.layout = RackLayout {
        rollers: 2,
        layers: 1,
        slots_per_layer: 1,
        discs_per_tray: 12,
    };
    let mut ros = Ros::new(cfg);
    for i in 0..88 {
        ros.write_file(&p(&format!("/rollers/{i}")), content(i, 900_000))
            .unwrap();
    }
    ros.flush().unwrap();
    assert_eq!(ros.counters().burns, 2);
    // One tray used on each roller.
    assert_eq!(ros.da_state(0), Some(ros::ros_olfs::dim::DaState::Used));
    assert_eq!(ros.da_state(1), Some(ros::ros_olfs::dim::DaState::Used));
    // Find one single-segment file on each roller (seal order is not
    // image-id order: split placement picks the roomiest donor bucket).
    let mut per_roller: [Option<u64>; 2] = [None, None];
    for i in 0..88u64 {
        let segs = ros.image_segments(&p(&format!("/rollers/{i}"))).unwrap();
        if segs.len() != 1 {
            continue;
        }
        let roller = ros.locate_image(segs[0]).unwrap().slot.roller as usize;
        per_roller[roller].get_or_insert(i);
    }
    let (a, b) = (
        per_roller[0].expect("a file on roller 0"),
        per_roller[1].expect("a file on roller 1"),
    );
    // Cold fetches work from either roller.
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    for i in [a, b] {
        let r = ros.read_file(&p(&format!("/rollers/{i}"))).unwrap();
        assert_eq!(r.data.as_ref(), content(i, 900_000).as_slice());
    }
}

#[test]
fn four_bay_full_rack_configuration_works() {
    // §3.2: "ROS is able to deploy 1-4 sets of optical drives".
    let mut cfg = RosConfig::tiny();
    cfg.drive_bays = 4;
    let mut ros = Ros::new(cfg);
    for i in 0..50 {
        ros.write_file(&p(&format!("/four/{i}")), content(i, 700_000))
            .unwrap();
    }
    ros.flush().unwrap();
    assert!(ros.counters().burns >= 1);
    assert!(ros.verify_consistency().is_empty());
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    let r = ros.read_file(&p("/four/0")).unwrap();
    assert_eq!(r.data.as_ref(), content(0, 700_000).as_slice());
}

#[test]
fn redundancy_none_burns_without_parity() {
    let mut cfg = RosConfig::tiny();
    cfg.redundancy = Redundancy::None;
    let mut ros = Ros::new(cfg);
    for i in 0..13 {
        ros.write_file(&p(&format!("/nored/{i}")), content(i, 800_000))
            .unwrap();
    }
    ros.flush().unwrap();
    assert!(ros.counters().burns >= 1);
    // 12 data images per array, no parity discs.
    let census = ros.group_census();
    assert!(census.4 >= 1);
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    let r = ros.read_file(&p("/nored/0")).unwrap();
    assert_eq!(r.data.as_ref(), content(0, 800_000).as_slice());
}

#[test]
fn a_name_no_image_can_hold_is_refused_at_the_write() {
    use ros::ros_olfs::mv::{MetadataVolume, NAME_MAX};
    // Was: the write was acknowledged and the next seal panicked inside
    // `Bucket::close` ("own serialization must parse").
    let mut ros = Ros::new(RosConfig::tiny());
    // Parsed or joined, the namespace refuses it and keeps no trace.
    for unholdable in [
        p(&format!("/d/{}", "x".repeat(5000))),
        p("/d").join(&"x".repeat(NAME_MAX + 1)),
        p(&"/e".repeat(301)),
    ] {
        assert!(matches!(
            ros.write_file(&unholdable, content(1, 100)).unwrap_err(),
            OlfsError::Invalid(_)
        ));
        assert!(ros.mkdir(&unholdable).is_err());
        assert!(ros.read_file(&unholdable).is_err());
    }
    assert!(ros.readdir(&p("/")).unwrap().is_empty());
    // The longest legal name survives an update under its `.rosv2-`
    // shadow — a longer name than the namespace admits — and a burn.
    let legal = p(&format!("/d/{}", "y".repeat(NAME_MAX)));
    ros.write_file(&legal, content(2, 100)).unwrap();
    ros.seal_open_buckets().unwrap();
    ros.write_file(&legal, content(3, 100)).unwrap();
    ros.flush().unwrap();
    // The shadow path is part of the MV snapshot: what guardian racks
    // and the snapshot burned to disc restore from must read it back.
    let restored = MetadataVolume::restore(&ros.export_namespace()).unwrap();
    let latest = restored.get(&legal).unwrap().latest().unwrap();
    assert_eq!(
        latest.stored.as_ref().unwrap().name().unwrap(),
        format!(".rosv2-{}", "y".repeat(NAME_MAX))
    );
    ros.burn_mv_snapshot().unwrap();
    ros.recover(MvSource::DiscSnapshot).unwrap();
    assert_eq!(
        ros.read_file(&legal).unwrap().data.as_ref(),
        content(3, 100)
    );
}

/// A name the in-image formats reserve is refused at the write: a disc
/// scan reads `.roslink-f` as `f`'s continuation and `.rosv2-g` as
/// version 2 of `g`. Both were once acked; after a §4.4 rebuild both
/// were gone, and a never-written `/d/g` held `.rosv2-g`'s bytes.
#[test]
fn a_name_a_disc_scan_would_misread_is_refused_at_the_write() {
    let mut ros = Ros::new(RosConfig::tiny());
    let reserved = ["/d/.roslink-f", "/d/.rosv2-g", "/.rosv15-x/y"];
    for path in reserved {
        assert!(
            matches!(
                ros.write_file(&p(path), content(1, 100)),
                Err(OlfsError::Invalid(_))
            ),
            "{path}"
        );
        assert!(ros.mkdir(&p(path)).is_err(), "{path}");
    }
    // Near misses are ordinary names, and come back as themselves.
    let plain = [
        "/d/.roslink-",
        "/d/.rosv-g",
        "/d/.rosv2g",
        "/d/.rosv2-",
        "/d/rosv2-g",
    ];
    for (i, path) in plain.iter().enumerate() {
        ros.write_file(&p(path), content(i as u64, 100)).unwrap();
    }
    ros.flush().unwrap();
    ros.recover(MvSource::DiscScan).unwrap();
    for path in reserved.iter().chain(&["/d/f", "/d/g"]) {
        assert!(
            matches!(ros.read_file(&p(path)), Err(OlfsError::NotFound(_))),
            "{path}"
        );
    }
    for (i, path) in plain.iter().enumerate() {
        let r = ros.read_file(&p(path)).unwrap();
        assert_eq!(r.data.as_ref(), content(i as u64, 100).as_slice(), "{path}");
    }
}

#[test]
fn an_unlinked_file_name_can_become_a_directory_at_once() {
    // The open bucket still stages the dead `/m`; the new file must land
    // in a bucket whose tree can take `/m/f`, not fail `not a directory`.
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/m"), content(1, 1_000)).unwrap();
    ros.unlink(&p("/m")).unwrap();
    let data = content(2, 5_000);
    ros.write_file(&p("/m/f"), data.clone()).unwrap();
    ros.flush().unwrap();
    ros.evict_all_burned_copies();
    ros.unload_all_bays().unwrap();
    let r = ros.read_file(&p("/m/f")).unwrap();
    assert_eq!(r.data.as_ref(), data.as_slice());
    assert!(r.source >= ReadSource::DiscInDrive, "{:?}", r.source);
    assert!(ros.verify_consistency().is_empty());
}
