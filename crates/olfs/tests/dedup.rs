//! End-to-end write-path dedup (DESIGN.md §14): with `cfg.dedup` on,
//! duplicate payloads share one blob, one bucket residency and one
//! burn; reads of every alias return the right bytes through all three
//! tiers; shared bytes are never overwritten in place; and the engine
//! burns strictly less than a non-dedup run of the same workload.

use ros_olfs::{Ros, RosConfig};
use ros_udf::UdfPath;

fn dedup_cfg() -> RosConfig {
    let mut cfg = RosConfig::tiny();
    cfg.dedup = true;
    cfg
}

fn path(s: &str) -> UdfPath {
    UdfPath::parse(s).expect("valid path")
}

/// `copies` paths per payload over `distinct` distinct payloads of
/// `size` bytes each.
fn duplicated_workload(distinct: usize, copies: usize, size: usize) -> Vec<(UdfPath, Vec<u8>)> {
    let mut files = Vec::new();
    for c in 0..copies {
        for d in 0..distinct {
            let payload: Vec<u8> = (0..size).map(|j| ((d * 131 + j * 7) % 251) as u8).collect();
            files.push((path(&format!("/t{c}/f{d}.dat")), payload));
        }
    }
    files
}

#[test]
fn duplicate_writes_share_segments_and_bytes() {
    let mut ros = Ros::new(dedup_cfg());
    let data = vec![0xabu8; 64 * 1024];
    let a = ros.write_file(&path("/a"), data.clone()).expect("write /a");
    let b = ros.write_file(&path("/b"), data.clone()).expect("write /b");
    assert_eq!(a.segments, b.segments, "duplicate shares the segments");
    assert!(b.latency < a.latency, "dedup hit skips the bucket write");

    let c = ros.counters();
    assert_eq!(c.writes, 2);
    assert_eq!(c.dedup_hits, 1);
    assert_eq!(c.dedup_bytes_saved, 64 * 1024);
    let stats = ros.dedup_stats();
    assert_eq!(stats.blobs, 1);
    assert_eq!(stats.links, 2);
    assert!((stats.dedup_ratio - 2.0).abs() < 1e-12);

    // Both aliases read back the same bytes from the open bucket.
    for p in ["/a", "/b"] {
        let r = ros.read_file(&path(p)).expect("read");
        assert_eq!(r.data.as_ref(), data.as_slice(), "{p}");
    }
}

#[test]
fn dedup_aliases_read_back_after_seal_and_burn() {
    let mut ros = Ros::new(dedup_cfg());
    let files = duplicated_workload(6, 3, 96 * 1024);
    for (p, data) in &files {
        ros.write_file(p, data.clone()).expect("write");
    }
    ros.flush().expect("flush");
    let evicted = ros.evict_burned_copies();
    assert!(evicted > 0, "flush burned at least one image");
    // Every alias — including those whose canonical copy now lives only
    // on disc — still reads back byte-identical through the fetch path.
    for (p, data) in &files {
        let r = ros.read_file(p).expect("read after burn");
        assert_eq!(r.data.as_ref(), data.as_slice(), "{p}");
    }
    // A full audit agrees with the fetched payloads.
    let report = ros.audit_sample(usize::MAX);
    assert!(report.rotted.is_empty());
    assert!(report.verified > 0);
}

#[test]
fn shared_bytes_are_never_updated_in_place() {
    let mut ros = Ros::new(dedup_cfg());
    let original = vec![0x11u8; 32 * 1024];
    ros.write_file(&path("/a"), original.clone())
        .expect("write /a");
    ros.write_file(&path("/b"), original.clone())
        .expect("write /b");

    // Updating the alias must regenerate, not overwrite shared bytes.
    let replacement = vec![0x22u8; 32 * 1024];
    let up = ros
        .write_file(&path("/b"), replacement.clone())
        .expect("update /b");
    assert_eq!(up.version, 2);
    let a = ros.read_file(&path("/a")).expect("read /a");
    assert_eq!(a.data.as_ref(), original.as_slice(), "canonical intact");
    let b = ros.read_file(&path("/b")).expect("read /b");
    assert_eq!(b.data.as_ref(), replacement.as_slice());

    // Same protection updating the canonical holder while still shared.
    ros.write_file(&path("/c"), original.clone())
        .expect("write /c");
    let up = ros
        .write_file(&path("/a"), replacement.clone())
        .expect("update /a");
    assert_eq!(up.version, 2);
    let c = ros.read_file(&path("/c")).expect("read /c");
    assert_eq!(c.data.as_ref(), original.as_slice(), "alias intact");
}

#[test]
fn unlink_releases_references_and_dead_blobs_leave_the_catalog() {
    let mut ros = Ros::new(dedup_cfg());
    let data = vec![0x77u8; 16 * 1024];
    ros.write_file(&path("/a"), data.clone()).expect("write /a");
    ros.write_file(&path("/b"), data.clone()).expect("write /b");
    assert_eq!(ros.dedup_stats().links, 2);

    ros.unlink(&path("/a")).expect("unlink /a");
    assert_eq!(ros.dedup_stats().links, 1);
    let b = ros.read_file(&path("/b")).expect("read survivor");
    assert_eq!(b.data.as_ref(), data.as_slice());

    ros.unlink(&path("/b")).expect("unlink /b");
    assert_eq!(ros.dedup_stats().blobs, 0, "dead blob fully released");

    // Re-ingesting the same content is a fresh canonical, not a hit on
    // a retired catalog entry.
    let before = ros.counters().dedup_hits;
    ros.write_file(&path("/c"), data.clone()).expect("rewrite");
    assert_eq!(ros.counters().dedup_hits, before);
    let c = ros.read_file(&path("/c")).expect("read /c");
    assert_eq!(c.data.as_ref(), data.as_slice());
}

#[test]
fn dedup_burns_strictly_less_than_a_plain_run() {
    // 20 MB logical over 4 MB unique: the plain run must overflow the
    // 4 MB tiny discs several times over, the dedup run barely once.
    let files = duplicated_workload(8, 5, 512 * 1024);
    let run = |dedup: bool| {
        let mut cfg = RosConfig::tiny();
        cfg.dedup = dedup;
        let mut ros = Ros::new(cfg);
        for (p, data) in &files {
            ros.write_file(p, data.clone()).expect("write");
        }
        ros.flush().expect("flush");
        let status = ros.status();
        (ros.counters(), status.images, status.buffer_usage.0)
    };
    let (plain, plain_images, plain_bytes) = run(false);
    let (deduped, dedup_images, dedup_bytes) = run(true);
    assert_eq!(plain.dedup_hits, 0);
    assert_eq!(deduped.dedup_hits, 8 * 4, "every copy after the first hits");
    assert!(
        dedup_images < plain_images,
        "dedup must burn fewer images ({dedup_images} vs {plain_images})"
    );
    assert!(
        dedup_bytes < plain_bytes,
        "dedup must stage fewer bytes ({dedup_bytes} vs {plain_bytes})"
    );
    assert!(deduped.buckets_sealed <= plain.buckets_sealed);
}
