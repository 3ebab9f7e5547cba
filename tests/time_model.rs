//! The time model (DESIGN.md "Time model"): a foreground operation moves
//! the simulated clock by exactly the latency it reports, which is
//! exactly its trace's total — success or failure.

use ros::prelude::*;
use ros::ros_disk::volume::VolumeManager;
use ros::ros_disk::RaidArray;
use ros::ros_olfs::engine::{ReadReport, ReadSource, WriteReport};
use ros::ros_olfs::params;

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

fn content(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag ^ (i as u64 * 7)) as u8).collect()
}

/// A 2-bay rack of 4-disc arrays on 512 KB discs, so three arrays (more
/// than there are bays) cost nine small files.
fn two_bay() -> RosConfig {
    let mut cfg = RosConfig::tiny();
    cfg.drive_bays = 2;
    cfg.disc_class = ros::ros_drive::DiscClass::Custom {
        capacity: 512 * 1024,
    };
    cfg.layout.discs_per_tray = 4;
    cfg.drives_per_bay = 4;
    cfg
}

/// One MV metadata step reading `bytes`: the only step of a namespace
/// op, and the `stat`/`mknod` of a read or write.
fn mv_step(bytes: u64) -> SimDuration {
    let mut vm = VolumeManager::new();
    let mv = vm.add_volume("mv", RaidArray::prototype_metadata());
    params::internal_op_overhead() + vm.random_read_time(mv, bytes).unwrap()
}

/// Runs `op` and returns its result with how far it moved the clock.
fn timed<T>(ros: &mut Ros, op: impl FnOnce(&mut Ros) -> T) -> (T, SimDuration) {
    let before = ros.now();
    let out = op(ros);
    (out, ros.now().duration_since(before))
}

fn checked_write(ros: &mut Ros, what: &str, path: &UdfPath, data: Vec<u8>) -> WriteReport {
    let (w, moved) = timed(ros, |r| r.write_file(path, data).unwrap());
    assert_eq!(w.latency, w.trace.total(), "{what}: latency vs trace");
    assert_eq!(moved, w.latency, "{what}: clock vs latency");
    w
}

fn checked_read(
    ros: &mut Ros,
    what: &str,
    read: impl FnOnce(&mut Ros) -> Result<ReadReport, OlfsError>,
) -> ReadReport {
    let (r, moved) = timed(ros, |r| read(r).unwrap());
    assert_eq!(r.latency, r.trace.total(), "{what}: latency vs trace");
    assert_eq!(moved, r.latency, "{what}: clock vs latency");
    r
}

#[test]
fn every_kind_of_write_moves_the_clock_by_its_latency() {
    let mut cfg = two_bay();
    cfg.dedup = true;
    let mut ros = Ros::new(cfg);
    let w = checked_write(&mut ros, "new write", &p("/w/a"), content(1, 1024));
    assert_eq!(
        w.trace.step_names(),
        ["stat", "mknod", "stat", "write", "close"]
    );
    let w = checked_write(&mut ros, "in-place update", &p("/w/a"), content(2, 1024));
    assert_eq!((w.version, ros.counters().updates), (2, 1));
    ros.seal_open_buckets().unwrap();
    let before = w.segments;
    let w = checked_write(&mut ros, "regenerated update", &p("/w/a"), content(3, 1024));
    assert_ne!(w.segments, before, "the sealed image keeps the old bytes");
    checked_write(&mut ros, "dedup hit", &p("/w/alias"), content(3, 1024));
    assert_eq!(ros.counters().dedup_hits, 1);
    let w = checked_write(&mut ros, "split write", &p("/w/big"), content(4, 700_000));
    assert!(w.segments.len() >= 2, "700 KB splits across 512 KB images");
}

#[test]
fn every_kind_of_read_moves_the_clock_by_its_latency() {
    let mut ros = Ros::new(two_bay());
    // Three arrays of three data images, one file per image.
    let files: Vec<(UdfPath, Vec<u8>)> = (0..9)
        .map(|i| (p(&format!("/r/f{i}")), content(i, 300_000)))
        .collect();
    for (path, data) in &files[..8] {
        ros.write_file(path, data.clone()).unwrap();
        ros.seal_open_buckets().unwrap();
    }
    let (last, last_data) = &files[8];
    ros.write_file(last, last_data.clone()).unwrap();
    let r = checked_read(&mut ros, "bucket", |r| r.read_file(last));
    assert_eq!(r.source, ReadSource::DiskBucket);
    let r = checked_read(&mut ros, "read_range", |r| r.read_range(last, 1000, 5000));
    assert_eq!(r.data.as_ref(), &last_data[1000..6000]);
    ros.seal_open_buckets().unwrap();
    let r = checked_read(&mut ros, "buffer image", |r| r.read_file(last));
    assert_eq!(r.source, ReadSource::DiskImage);

    // Three arrays through two bays: two stay loaded, one went home.
    ros.flush().unwrap();
    let mut seen = Vec::new();
    for i in [0, 3, 6, 1, 4, 7] {
        ros.evict_all_burned_copies();
        let (path, data) = &files[i];
        let r = checked_read(&mut ros, "cold", |r| r.read_file(path));
        assert_eq!(r.data.as_ref(), data.as_slice());
        seen.push(r.source);
    }
    assert!(seen.contains(&ReadSource::DiscInDrive), "{seen:?}");
    assert!(seen.contains(&ReadSource::RollerUnloadFirst), "{seen:?}");

    ros.evict_all_burned_copies();
    ros.unload_all_bays().unwrap();
    let r = checked_read(&mut ros, "roller, free drives", |r| {
        r.read_file(&files[0].0)
    });
    assert_eq!(r.source, ReadSource::RollerFreeDrives);
    ros.evict_all_burned_copies();
    let r = checked_read(&mut ros, "cold read_range", |r| {
        r.read_range(&files[4].0, 10, 100)
    });
    assert_eq!(r.data.as_ref(), &files[4].1[10..110]);
}

#[test]
fn namespace_ops_move_the_clock_by_their_one_step() {
    let mut ros = Ros::new(two_bay());
    ros.write_file(&p("/n/a"), content(1, 100)).unwrap();
    let step = mv_step(1024);
    let ((), moved) = timed(&mut ros, |r| {
        r.stat(&p("/n/a")).unwrap();
    });
    assert_eq!(moved, step, "stat");
    let ((), moved) = timed(&mut ros, |r| {
        r.versions(&p("/n/a")).unwrap();
    });
    assert_eq!(moved, step, "versions");
    let ((), moved) = timed(&mut ros, |r| r.mkdir(&p("/n/sub")).unwrap());
    assert_eq!(moved, step, "mkdir");
    let ((), moved) = timed(&mut ros, |r| {
        r.readdir(&p("/n")).unwrap();
    });
    assert_eq!(moved, mv_step(4096), "readdir");
    let ((), moved) = timed(&mut ros, |r| r.unlink(&p("/n/a")).unwrap());
    assert_eq!(moved, step, "unlink");
}

/// The failure rule: a failed op charges the steps it recorded before
/// it failed, and nothing else.
#[test]
fn a_failed_op_charges_the_steps_it_recorded() {
    let mut ros = Ros::new(two_bay());
    let step = mv_step(1024);
    // A read of a missing file has looked the index file up.
    let (err, moved) = timed(&mut ros, |r| r.read_file(&p("/nope")).unwrap_err());
    assert!(matches!(err, OlfsError::NotFound(_)));
    assert_eq!(moved, step, "NotFound read: its stat");
    let (err, moved) = timed(&mut ros, |r| r.stat(&p("/nope")).unwrap_err());
    assert!(matches!(err, OlfsError::NotFound(_)));
    assert_eq!(moved, step, "NotFound stat: its one step");
    // A write the namespace refuses has spent stat and mknod, and the
    // kernel-user switch between them.
    let unholdable = p(&format!("/d/{}", "x".repeat(5000)));
    let (err, moved) = timed(&mut ros, |r| {
        r.write_file(&unholdable, content(1, 100)).unwrap_err()
    });
    assert!(matches!(err, OlfsError::Invalid(_)));
    assert_eq!(
        moved,
        step + step + params::kernel_user_switch(),
        "refused write: stat + mknod"
    );
    // A write refused before any step costs nothing.
    let (_, moved) = timed(&mut ros, |r| r.write_file(&p("/"), vec![]).unwrap_err());
    assert_eq!(moved, SimDuration::ZERO, "write to /");
}

#[test]
fn the_gateway_moves_the_clock_by_the_wrapped_trace() {
    let mut g = NasGateway::new(Ros::new(two_bay()), AccessStack::SambaOlfs);
    let before = g.ros().now();
    let w = g.write_file(&p("/g/f"), content(1, 1024)).unwrap();
    assert_eq!(w.latency, w.trace.total());
    assert_eq!(g.ros().now().duration_since(before), w.latency, "write");
    let before = g.ros().now();
    let r = g.read_file(&p("/g/f")).unwrap();
    assert_eq!(r.latency, r.trace.total());
    assert_eq!(g.ros().now().duration_since(before), r.latency, "read");
}
