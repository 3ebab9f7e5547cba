//! Placement must not depend on ingest order: two fresh clusters fed
//! the same file set in different orders must agree on every group's
//! target racks. This is the observable `clippy::iter_over_hash_type` protects — a stray
//! `HashMap` iteration anywhere on the placement path would break it
//! only intermittently (hash order is random per process), so the gate
//! lives here as a deterministic regression test.

use ros_cluster::{Cluster, ClusterConfig};
use ros_udf::UdfPath;
use ros_workload::spec::synth_data;

/// The shared file set: 20 groups x 4 siblings.
fn file_set() -> Vec<(UdfPath, u64)> {
    let mut files = Vec::new();
    for g in 0..20u32 {
        for f in 0..4u32 {
            let path = UdfPath::parse(&format!("/tenants/t{:03}/d{:03}/f{f}.dat", g % 5, g))
                .expect("valid path");
            files.push((path, 4096 + u64::from(g) * 512 + u64::from(f)));
        }
    }
    files
}

/// Deterministic shuffle: walk the list with a stride coprime to its
/// length, so the permutation is fixed but thoroughly out of order.
fn strided<T: Clone>(items: &[T], stride: usize) -> Vec<T> {
    assert_eq!(
        gcd(items.len(), stride),
        1,
        "stride must be coprime to len for a full permutation"
    );
    (0..items.len())
        .map(|i| items[(i * stride) % items.len()].clone())
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn ingest(order: &[(UdfPath, u64)]) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::tiny(4)).expect("cluster boots");
    for (path, size) in order {
        cluster
            .write_file(path, synth_data(path, *size))
            .expect("write succeeds");
    }
    cluster
}

#[test]
fn placement_is_identical_across_ingest_orders() {
    let files = file_set();
    let forward = ingest(&files);
    let shuffled = ingest(&strided(&files, 37));

    assert_eq!(forward.group_count(), shuffled.group_count());
    assert_eq!(forward.file_count(), shuffled.file_count());
    for (path, _) in &files {
        let a = forward.targets_of(path);
        let b = shuffled.targets_of(path);
        assert!(a.is_some(), "{path} must be placed");
        assert_eq!(a, b, "targets of {path} must not depend on ingest order");
    }
}

#[test]
fn placement_is_identical_across_fresh_runs() {
    // Same order, two independent processes' worth of state: any
    // per-instance hash randomness on the placement path would differ.
    let files = file_set();
    let a = ingest(&files);
    let b = ingest(&files);
    for (path, _) in &files {
        assert_eq!(a.targets_of(path), b.targets_of(path));
    }
}
