//! Namespace listings must not depend on ingest order: two fresh
//! engines fed the same tree in different orders must return identical
//! `readdir` output — same names, same order, same flags. A stray
//! `HashMap` iteration on the MV/namespace path would break this only
//! intermittently (hash order is random per instance), so the gate
//! lives here as a deterministic regression test alongside `clippy::iter_over_hash_type`.

use ros_olfs::{Ros, RosConfig};
use ros_udf::UdfPath;

/// The shared tree: 4 directories x 6 files.
fn file_set() -> Vec<UdfPath> {
    let mut files = Vec::new();
    for d in 0..4u32 {
        for f in 0..6u32 {
            files.push(
                UdfPath::parse(&format!("/archive/d{d:02}/f{f:02}.dat")).expect("valid path"),
            );
        }
    }
    files
}

/// Deterministic shuffle: stride coprime to the length gives a fixed,
/// thoroughly out-of-order permutation.
fn strided(items: &[UdfPath], stride: usize) -> Vec<UdfPath> {
    (0..items.len())
        .map(|i| items[(i * stride) % items.len()].clone())
        .collect()
}

fn ingest(order: &[UdfPath]) -> Ros {
    let mut ros = Ros::new(RosConfig::tiny());
    for (i, path) in order.iter().enumerate() {
        let payload = vec![0x5a ^ (i % 251) as u8; 1024];
        ros.write_file(path, payload).expect("write succeeds");
    }
    ros
}

fn listing(ros: &mut Ros) -> Vec<(String, Vec<(String, bool)>)> {
    let mut out = Vec::new();
    for dir in [
        "/",
        "/archive",
        "/archive/d00",
        "/archive/d01",
        "/archive/d02",
        "/archive/d03",
    ] {
        let path = UdfPath::parse(dir).expect("valid dir");
        out.push((
            dir.to_string(),
            ros.readdir(&path).expect("readdir succeeds"),
        ));
    }
    out
}

#[test]
fn namespace_listing_is_identical_across_ingest_orders() {
    let files = file_set();
    let mut forward = ingest(&files);
    let mut shuffled = ingest(&strided(&files, 11));
    assert_eq!(
        listing(&mut forward),
        listing(&mut shuffled),
        "readdir output must not depend on ingest order"
    );
}

#[test]
fn namespace_listing_is_identical_across_fresh_runs() {
    let files = file_set();
    let mut a = ingest(&files);
    let mut b = ingest(&files);
    assert_eq!(listing(&mut a), listing(&mut b));
}
