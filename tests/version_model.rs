//! A model-checked version log.
//!
//! `Ros` is driven with generated sequences of write / rewrite / unlink /
//! re-create / seal / flush-and-evict / read / readdir over three paths in
//! two directories and four payloads (two of them equal, so dedup has
//! something to share), in lockstep with the one reference model,
//! [`ros_bench::model::Model`]: path → bounded ring of acked versions
//! and their bytes, plus the directories made so far. Every read must
//! return the model's bytes or the model's typed error (`NotFound`,
//! `VersionGone`) — never another version's bytes, never another error —
//! with dedup off and on. Every listing must name the model's live files
//! and directories in name order, or say `NotFound` for a directory never
//! made. With dedup on, after every op the reference count is the model's
//! live versions and the blob count their distinct payloads; `Adopt`
//! recovers from the system's own exported namespace and `Crash` pulls
//! the plug and restarts (the model changes for neither), so every later
//! read and count also checks the views rebuilt from the MV against the
//! ones kept up write by write.
//!
//! The model applies §4.6's update rule itself (in place — the previous
//! version's bytes are replaced — iff the newest version sits in an open
//! bucket and nothing else shares its bytes) but does not simulate
//! bucket packing: where the newest version sits it asks the system
//! ([`Ros::provenance`] locations), the one physical fact the rule needs.
//!
//! Beside the property, three sequences that used to go wrong are pinned
//! as plain tests.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use ros::prelude::*;
use ros::ros_olfs::maintenance::ProvenanceLocation;
use ros::ros_olfs::mv::MetadataVolume;
use ros_bench::model::{Model, Read};

/// Retained versions per file (§4.6).
const RING: usize = ros::ros_olfs::params::MAX_VERSION_ENTRIES;
/// Flushes a sequence may issue: each burns an array onto one of the tiny
/// layout's eight trays.
const MAX_FLUSHES: usize = 6;
/// Crashes a sequence may issue: one that cuts a burn retires its tray.
const MAX_CRASHES: usize = 1;

const PATHS: [&str; 3] = ["/m/f", "/m/g", "/n/h"];
/// The directories a `Readdir` lists: the root and both parents.
const DIRS: [&str; 3] = ["/", "/m", "/n"];

fn path(i: usize) -> UdfPath {
    PATHS[i].parse().expect("valid path")
}

/// Four payloads of three sizes; 0 and 1 are equal.
fn payload(i: usize) -> Bytes {
    let (tag, len) = [(0xA1, 3_000), (0xA1, 3_000), (0xB2, 700), (0xC3, 5_000)][i];
    (0..len).map(|j| (j % 251) as u8 ^ tag).collect()
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Write(usize, usize),
    Unlink(usize),
    Seal,
    FlushEvict,
    ReadFile(usize),
    ReadVersion(usize, u32),
    ReadRange(usize, u64, u64),
    Readdir(usize),
    Adopt,
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..19, 0usize..3, 0usize..4, 0u64..6_000, 0u64..6_000).prop_map(|(kind, p, x, a, b)| {
        match kind {
            0..=6 => Op::Write(p, x),
            7 => Op::Unlink(p),
            8 | 9 => Op::Seal,
            10 => Op::FlushEvict,
            11 | 12 => Op::ReadFile(p),
            13 | 14 => Op::ReadVersion(p, (a % 18) as u32 + 1),
            15 => Op::ReadRange(p, a, b),
            16 => Op::Readdir(p),
            17 => Op::Adopt,
            _ => Op::Crash,
        }
    })
}

fn not_found<T: std::fmt::Debug>(r: Result<T, OlfsError>) -> bool {
    matches!(r, Err(OlfsError::NotFound(_)))
}

/// With dedup on, the map's counts must be the model's.
fn counts_agree(ros: &Ros, model: &Model, dedup: bool) -> Result<(), String> {
    let (stats, want) = (ros.dedup_stats(), model.dedup_counts());
    if dedup && (stats.blobs, stats.links) != want {
        return Err(format!("want (blobs, links) {want:?}, got {stats:?}"));
    }
    Ok(())
}

/// Runs `ops` against a fresh rack and the model; `Err` describes the
/// first divergence.
fn check(dedup: bool, ops: &[Op]) -> Result<Ros, String> {
    let mut cfg = RosConfig::tiny();
    cfg.dedup = dedup;
    let mut ros = Ros::new(cfg);
    let mut model = Model::new(dedup);
    let (mut flushes, mut crashes) = (0, 0);
    for (i, op) in ops.iter().enumerate() {
        counts_agree(&ros, &model, dedup).map_err(|e| format!("before op {i} {op:?}: {e}"))?;
        let fail = |what: String| Err(format!("op {i} {op:?}: {what}"));
        match *op {
            Op::Write(p, x) => {
                let latest_open = ros.provenance(&path(p)).is_ok_and(|trail| {
                    trail.last().is_some_and(|rec| {
                        matches!(rec.locations[..], [ProvenanceLocation::OpenBucket { .. }])
                    })
                });
                let want = model.write(&path(p), payload(x), latest_open);
                match ros.write_file(&path(p), payload(x)) {
                    Ok(w) if w.version == want => {}
                    other => return fail(format!("want version {want}, got {other:?}")),
                }
            }
            Op::Unlink(p) => {
                let r = ros.unlink(&path(p));
                if model.unlink(&path(p)) != r.is_ok() {
                    return fail(format!("unlink gave {r:?}"));
                }
                if r.is_err() && !not_found(r) {
                    return fail("unlink of a missing file must say NotFound".into());
                }
            }
            Op::Seal => {
                ros.seal_open_buckets()
                    .map_err(|e| format!("op {i} seal: {e}"))?;
            }
            Op::FlushEvict if flushes < MAX_FLUSHES => {
                flushes += 1;
                ros.flush().map_err(|e| format!("op {i} flush: {e}"))?;
                ros.evict_all_burned_copies();
            }
            Op::FlushEvict => {}
            Op::Adopt => {
                let mv = MetadataVolume::restore(&ros.export_namespace())
                    .map_err(|e| format!("op {i} restore: {e}"))?;
                ros.recover(MvSource::Volume(mv))
                    .map_err(|e| format!("op {i} recover: {e}"))?;
            }
            Op::Crash if crashes < MAX_CRASHES => {
                crashes += 1;
                ros.simulate_crash_and_restart()
                    .map_err(|e| format!("op {i} crash: {e}"))?;
            }
            Op::Crash => {}
            Op::Readdir(d) => {
                let dir: UdfPath = DIRS[d].parse().expect("valid path");
                match (model.listing(&dir), ros.readdir(&dir)) {
                    (Some(want), Ok(got)) if got == want => {}
                    (None, Err(OlfsError::NotFound(_))) => {}
                    (want, got) => return fail(format!("want {want:?}, got {got:?}")),
                }
            }
            Op::ReadFile(p) | Op::ReadRange(p, ..) | Op::ReadVersion(p, _) => {
                let (read, got) = match *op {
                    Op::ReadRange(_, offset, len) => (
                        Read::Range(offset, len),
                        ros.read_range(&path(p), offset, len),
                    ),
                    Op::ReadVersion(_, ver) => {
                        (Read::Version(ver), ros.read_version(&path(p), ver))
                    }
                    _ => (Read::Latest, ros.read_file(&path(p))),
                };
                match (model.owed(&path(p), read), got) {
                    (Ok((ver, data)), Ok(r)) if r.version == ver && r.data.as_ref() == data => {}
                    (Err(want), Err(got)) if want == got => {}
                    (want, got) => {
                        // Versions and lengths, not kilobytes of payload.
                        let want = want.map(|(ver, data)| (ver, data.len()));
                        let got = got.map(|r| (r.version, r.data.len()));
                        return fail(format!("want {want:?}, got {got:?}"));
                    }
                }
            }
        }
    }
    counts_agree(&ros, &model, dedup).map_err(|e| format!("at the end: {e}"))?;
    match ros.verify_consistency() {
        issues if issues.is_empty() => Ok(ros),
        issues => Err(format!("inconsistent at the end: {issues:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn version_log_matches_the_model(ops in vec(op_strategy(), 1..48)) {
        for dedup in [false, true] {
            if let Err(what) = check(dedup, &ops) {
                prop_assert!(false, "dedup {dedup}: {what}\nops: {ops:?}");
            }
        }
    }
}

/// A dead file's bookkeeping must not resolve a live file's reads: the
/// re-created `/f` once read version 2 with version 1's bytes, and
/// answered `VersionGone` for its live version 1.
#[test]
fn recreated_file_reads_its_own_versions() {
    use Op::*;
    // The second write is in place; after the re-create, `/g` shares
    // `/f` v1's bytes (a dedup hit), so `/f`'s rewrite regenerates.
    let ops = [
        Write(0, 2),
        Write(0, 3),
        Seal,
        Unlink(0),
        Write(0, 0),
        Write(1, 1),
    ];
    let reads = [
        Write(0, 2),
        ReadFile(0),
        ReadVersion(0, 2),
        ReadVersion(0, 1),
    ];
    let ros = check(true, &[&ops[..], &reads].concat()).unwrap();
    assert_eq!(ros.counters().dedup_hits, 1);
    assert!(ros
        .provenance(&path(0))
        .unwrap()
        .iter()
        .all(|rec| rec.readable));
}

/// Re-creating an unlinked path while its old bytes still sit in an
/// open bucket once failed with `already exists` and left a version-less
/// index file behind. The third life finds both open buckets staging the
/// name and seals one.
#[test]
fn recreating_an_unlinked_path_places_beside_its_old_bytes() {
    use Op::*;
    let lives = [
        Write(0, 2),
        Write(0, 3),
        Unlink(0),
        Write(0, 0),
        ReadFile(0),
    ];
    let more = [Unlink(0), Write(0, 2), Unlink(0), Write(0, 3), ReadFile(0)];
    check(false, &[&lives[..], &more].concat()).unwrap();
}

/// A create whose placement fails leaves nothing behind: here the path
/// is deeper than an empty image on a 512 KiB disc has room for (each
/// new directory costs an ICB block and its FID data), so no bucket can
/// take it. (An open bucket that stages an unlinked *file* where the path
/// needs a directory does not fail a create: placement passes it over,
/// `end_to_end::an_unlinked_file_name_can_become_a_directory_at_once`.)
#[test]
fn a_failed_create_leaves_no_index_file_behind() {
    let mut cfg = RosConfig::tiny();
    cfg.disc_class = ros::ros_drive::DiscClass::Custom {
        capacity: 512 * 1024,
    };
    let dir: UdfPath = "/d".repeat(200).parse().unwrap();
    let f = dir.join("f");
    let mut ros = Ros::new(cfg);
    ros.write_file(&path(0), payload(0)).unwrap();
    assert!(matches!(
        ros.write_file(&f, payload(0)),
        Err(OlfsError::Invalid(_))
    ));
    assert!(not_found(ros.read_file(&f)));
    assert_eq!(ros.readdir(&dir).unwrap(), vec![]);
    // The retry is a create again, not an update of a version-less file.
    assert!(matches!(
        ros.write_file(&f, payload(0)),
        Err(OlfsError::Invalid(_))
    ));
    assert!(ros.read_file(&path(0)).unwrap().data == payload(0));
}

/// A version the 15-entry ring evicts gives its dedup reference back and
/// leaves its images' reverse map: 20 sealed rewrites once left `blobs:
/// 20, links: 20` behind 15 versions, and the evicted versions' images
/// still named the file.
#[test]
fn ring_eviction_releases_dedup_references() {
    let f = path(0);
    let mut cfg = RosConfig::tiny();
    cfg.dedup = true;
    let mut ros = Ros::new(cfg);
    let mut segments = Vec::new();
    for i in 0..20u8 {
        segments.push(ros.write_file(&f, vec![i; 2_000]).unwrap().segments);
        ros.seal_open_buckets().unwrap();
    }
    assert_eq!(ros.versions(&f).unwrap().len(), RING);
    let stats = ros.dedup_stats();
    assert_eq!((stats.blobs, stats.links), (RING as u64, RING as u64));
    let (evicted, kept) = segments.split_at(20 - RING);
    for image in evicted.iter().flatten() {
        assert!(ros.paths_of_image(*image).is_empty(), "{image:?}");
    }
    for image in kept.iter().flatten() {
        assert_eq!(
            ros.paths_of_image(*image),
            std::slice::from_ref(&f),
            "{image:?}"
        );
    }
    ros.unlink(&f).unwrap();
    assert_eq!(ros.dedup_stats().blobs, 0);
}
