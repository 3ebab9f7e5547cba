//! Property-based tests over the core invariants:
//!
//! - UDF images round-trip arbitrary file trees byte-for-byte,
//! - RAID-5/6 parity reconstructs any tolerated loss pattern exactly,
//! - OLFS serves back exactly what was written, for arbitrary file sets,
//!   at every tier,
//! - bucket packing never exceeds the disc capacity,
//! - version rings behave like a bounded append-only log.
//!
//! Where a property reads files back, the one reference model,
//! [`ros_bench::model::Model`], says what each read owes.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use ros::prelude::*;
use ros::ros_disk::{parity, DataPlane};
use ros::ros_udf::{Bucket, SealedImage, BLOCK_SIZE};
use ros_bench::model::{Model, Read, Verdict};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}".prop_map(|s| s)
}

fn path_strategy() -> impl Strategy<Value = UdfPath> {
    vec(name_strategy(), 1..4)
        .prop_map(|parts| format!("/{}", parts.join("/")).parse().expect("valid path"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn udf_image_roundtrips_arbitrary_trees(
        files in vec((path_strategy(), vec(any::<u8>(), 0..5_000)), 1..20)
    ) {
        let mut bucket = Bucket::new(1, 16 * 1024 * 1024);
        let mut model = Model::new(false);
        for (path, data) in files {
            // Skip paths that collide with an existing file/dir.
            let data = Bytes::from(data);
            if bucket.write(&path, data.clone(), 0).is_ok() {
                model.write(&path, data, false);
            }
        }
        prop_assume!(model.paths().next().is_some());
        let image = bucket.close().expect("close");
        // Serialize → parse → every file identical.
        let reparsed = SealedImage::from_bytes(image.bytes().clone()).expect("parse");
        let sweep = model.sweep(|path| reparsed.read(path));
        prop_assert!(sweep.lost.is_empty(), "{:?}", sweep.lost);
        // And the scan enumerates exactly the model's namespace.
        let mut scanned: Vec<UdfPath> = reparsed.scan_files().into_iter().map(|(p, _)| p).collect();
        scanned.sort_unstable();
        prop_assert_eq!(scanned, model.paths().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn raid5_recovers_any_single_loss(
        stripes in vec(vec(any::<u8>(), 1..200), 2..12),
        lost_seed in any::<u64>()
    ) {
        // Pad stripes to equal length.
        let len = stripes.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = stripes
            .into_iter()
            .map(|mut s| { s.resize(len, 0); s })
            .collect();
        let refs: Vec<&[u8]> = stripes.iter().map(|s| s.as_slice()).collect();
        let plane = DataPlane::single();
        let p = parity::parity_p_with(&refs, &plane).expect("parity");
        let lost = (lost_seed as usize) % stripes.len();
        let masked: Vec<Option<&[u8]>> = refs
            .iter()
            .enumerate()
            .map(|(i, s)| (i != lost).then_some(*s))
            .collect();
        let (rec, _) = parity::reconstruct_p_with(&masked, Some(&p), &plane).expect("reconstruct");
        prop_assert_eq!(rec, stripes);
    }

    #[test]
    fn raid6_recovers_any_double_loss(
        stripes in vec(vec(any::<u8>(), 1..100), 3..10),
        seed in any::<u64>()
    ) {
        let len = stripes.iter().map(Vec::len).max().unwrap();
        let stripes: Vec<Vec<u8>> = stripes
            .into_iter()
            .map(|mut s| { s.resize(len, 0); s })
            .collect();
        let refs: Vec<&[u8]> = stripes.iter().map(|s| s.as_slice()).collect();
        let plane = DataPlane::single();
        let (p, q) = parity::encode_pq_with(&refs, &plane).expect("p and q");
        let x = (seed as usize) % stripes.len();
        let y = (seed as usize / 7919) % stripes.len();
        prop_assume!(x != y);
        let masked: Vec<Option<&[u8]>> = refs
            .iter()
            .enumerate()
            .map(|(i, s)| (i != x && i != y).then_some(*s))
            .collect();
        let (rec, _, _) =
            parity::reconstruct_pq_with(&masked, Some(&p), Some(&q), &plane).expect("reconstruct");
        prop_assert_eq!(rec, stripes);
    }

    #[test]
    fn bucket_never_exceeds_capacity(
        writes in vec((path_strategy(), 0u64..20_000), 1..40)
    ) {
        let capacity = 64 * BLOCK_SIZE;
        let mut bucket = Bucket::new(1, capacity);
        for (path, size) in writes {
            let _ = bucket.write(&path, vec![0u8; size as usize], 0);
            prop_assert!(bucket.used_bytes() <= capacity,
                "used {} > capacity {}", bucket.used_bytes(), capacity);
        }
        // A non-empty bucket always seals into a parseable image.
        if !bucket.is_empty() {
            let img = bucket.close().expect("close");
            prop_assert!(img.len() <= capacity);
        }
    }

    #[test]
    fn version_ring_is_a_bounded_log(sizes in vec(1usize..3_000, 1..25)) {
        let mut ros = Ros::new(RosConfig::tiny());
        let path: UdfPath = "/ring".parse().unwrap();
        let mut history: Vec<Vec<u8>> = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let data = vec![(i % 251) as u8; *size];
            ros.write_file(&path, data.clone()).unwrap();
            history.push(data);
        }
        let versions = ros.versions(&path).unwrap();
        prop_assert!(versions.len() <= 15);
        prop_assert_eq!(versions.last().unwrap().0 as usize, history.len());
        // The newest version always reads back exactly.
        let r = ros.read_file(&path).unwrap();
        prop_assert_eq!(r.data.as_ref(), history.last().unwrap().as_slice());
        prop_assert_eq!(r.version as usize, history.len());
    }
}

proptest! {
    // The end-to-end engine property is expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn olfs_serves_exactly_what_was_written(
        files in vec((path_strategy(), vec(any::<u8>(), 0..60_000)), 1..15)
    ) {
        let mut ros = Ros::new(RosConfig::tiny());
        let mut model = Model::new(false);
        for (path, data) in files {
            // Path conflicts (file vs dir) may reject; duplicates update.
            let data = Bytes::from(data);
            if ros.write_file(&path, data.clone()).is_ok() {
                model.write(&path, data, false);
            }
        }
        prop_assume!(model.paths().next().is_some());
        // Hot reads.
        let hot = model.sweep(|path| ros.read_file(path).map(|r| r.data));
        prop_assert!(hot.lost.is_empty(), "hot: {:?}", hot.lost);
        // Cold reads after burning + eviction.
        ros.flush().unwrap();
        ros.evict_burned_copies();
        ros.unload_all_bays().unwrap();
        let cold = model.sweep(|path| ros.read_file(path).map(|r| r.data));
        prop_assert!(cold.lost.is_empty(), "cold: {:?}", cold.lost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn read_range_equals_full_read_slice(
        size in 0usize..200_000,
        a in 0u64..250_000,
        b in 0u64..250_000
    ) {
        let (mut ros, mut model) = (Ros::new(RosConfig::tiny()), Model::new(false));
        let path: UdfPath = "/range".parse().unwrap();
        let data: Bytes = (0..size).map(|i| (i % 241) as u8).collect();
        ros.write_file(&path, data.clone()).unwrap();
        model.write(&path, data, false);
        let (offset, len) = if a <= b { (a, b - a) } else { (b, a - b) };
        let got = ros.read_range(&path, offset, len).map(|r| r.data);
        prop_assert_eq!(model.judge(&path, Read::Range(offset, len), &got), Verdict::Exact);
    }

    #[test]
    fn read_range_equals_full_read_slice_on_split_files(
        seed in 0u64..1000
    ) {
        // A file spanning several 4 MiB images, with per-segment sizes
        // recorded; ranges crossing segment boundaries must reassemble.
        let (mut ros, mut model) = (Ros::new(RosConfig::tiny()), Model::new(false));
        let path: UdfPath = "/span".parse().unwrap();
        let size = 9 * 1024 * 1024;
        let data: Bytes = (0..size).map(|i| ((i as u64 ^ seed) % 251) as u8).collect();
        let w = ros.write_file(&path, data.clone()).unwrap();
        model.write(&path, data, false);
        prop_assume!(w.segments.len() >= 2);
        // A range straddling the first boundary, chosen from the seed.
        let (offset, len) = (3 * 1024 * 1024 + (seed % 1024) * 1024, 2 * 1024 * 1024);
        let got = ros.read_range(&path, offset, len).map(|r| r.data);
        prop_assert_eq!(model.judge(&path, Read::Range(offset, len), &got), Verdict::Exact);
    }
}
