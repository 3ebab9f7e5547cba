//! A model-checked version log (first slice of ROADMAP item 5).
//!
//! `Ros` is driven with generated sequences of write / rewrite / unlink /
//! re-create / seal / flush-and-evict / read / readdir over three paths in
//! two directories and four payloads (two of them equal, so dedup has
//! something to share), in lockstep with a reference model: path →
//! bounded ring of `(version, payload, replaced)`, plus the directories
//! made so far. Every read must return the model's bytes or the model's
//! typed error (`NotFound`, `VersionGone`) — never another version's
//! bytes, never another error — with dedup off and on. Every listing must
//! name the model's live files and directories in name order, or say
//! `NotFound` for a directory never made. With dedup on, after every op
//! the reference count is the model's live versions and the blob count
//! their distinct payloads; `Adopt` swaps in the system's own exported
//! namespace (the model does not change), so every later read and count
//! also checks the dedup map rebuilt from the MV against the one kept up
//! write by write.
//!
//! The model applies §4.6's update rule itself (in place — the previous
//! version's bytes are replaced — iff the newest version sits in an open
//! bucket and nothing else shares its bytes) but does not simulate
//! bucket packing: where the newest version sits it asks the system
//! ([`Ros::provenance`] locations), the one physical fact the rule needs.
//!
//! Beside the property, three sequences that used to go wrong are pinned
//! as plain tests.

use proptest::collection::vec;
use proptest::prelude::*;
use ros::prelude::*;
use ros::ros_olfs::maintenance::ProvenanceLocation;
use ros::ros_olfs::mv::MetadataVolume;
use std::collections::{BTreeMap, BTreeSet};

/// Retained versions per file (§4.6).
const RING: usize = 15;
/// Flushes a sequence may issue: each burns an array onto one of the tiny
/// layout's eight trays.
const MAX_FLUSHES: usize = 6;

const PATHS: [&str; 3] = ["/m/f", "/m/g", "/n/h"];
/// The directories a `Readdir` lists: the root and both parents.
const DIRS: [&str; 3] = ["/", "/m", "/n"];

fn path(i: usize) -> UdfPath {
    PATHS[i].parse().expect("valid path")
}

/// `PATHS[i]` as `(parent directory, file name)`.
fn split(i: usize) -> (&'static str, &'static str) {
    PATHS[i].rsplit_once('/').expect("absolute path")
}

/// Four payloads of three sizes; 0 and 1 are equal.
fn payload(i: usize) -> Vec<u8> {
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
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..18, 0usize..3, 0usize..4, 0u64..6_000, 0u64..6_000).prop_map(|(kind, p, x, a, b)| {
        match kind {
            0..=6 => Op::Write(p, x),
            7 => Op::Unlink(p),
            8 | 9 => Op::Seal,
            10 => Op::FlushEvict,
            11 | 12 => Op::ReadFile(p),
            13 | 14 => Op::ReadVersion(p, (a % 18) as u32 + 1),
            15 => Op::ReadRange(p, a, b),
            16 => Op::Readdir(p),
            _ => Op::Adopt,
        }
    })
}

struct Version {
    ver: u32,
    payload: usize,
    replaced: bool,
}

#[derive(Default)]
struct Model {
    dedup: bool,
    files: BTreeMap<usize, Vec<Version>>,
    /// Directories made by a write beneath them; they outlive their files.
    dirs: BTreeSet<&'static str>,
}

impl Model {
    /// Live versions holding `payload`'s bytes — the dedup reference
    /// count when dedup is on (payloads 0 and 1 are the same bytes).
    fn refs(&self, payload: usize) -> usize {
        self.files
            .values()
            .flatten()
            .filter(|v| !v.replaced && v.payload.max(1) == payload.max(1))
            .count()
    }

    /// `(blobs, links)` dedup must report: the live versions' distinct
    /// payloads, and the live versions.
    fn dedup_counts(&self) -> (u64, u64) {
        let live = || self.files.values().flatten().filter(|v| !v.replaced);
        let distinct: BTreeSet<usize> = live().map(|v| v.payload.max(1)).collect();
        (distinct.len() as u64, live().count() as u64)
    }

    /// What `readdir(DIRS[d])` lists, in name order; `None` for a
    /// directory never made.
    fn listing(&self, d: usize) -> Option<Vec<(String, bool)>> {
        match DIRS[d] {
            "/" => Some(
                self.dirs
                    .iter()
                    .map(|dir| (dir[1..].to_string(), true))
                    .collect(),
            ),
            dir if self.dirs.contains(dir) => Some(
                self.files
                    .keys()
                    .map(|&p| split(p))
                    .filter(|(parent, _)| *parent == dir)
                    .map(|(_, name)| (name.to_string(), false))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// §4.6 and §14: `latest_open` says whether the newest version of
    /// `p` sits in an open bucket.
    fn write(&mut self, p: usize, payload: usize, latest_open: bool) {
        self.dirs.insert(split(p).0);
        let shared = self.dedup
            && self
                .files
                .get(&p)
                .and_then(|log| log.last())
                .is_some_and(|l| self.refs(l.payload) > 1);
        let log = self.files.entry(p).or_default();
        let mut ver = 1;
        if let Some(latest) = log.last_mut() {
            latest.replaced = latest_open && !shared;
            ver = latest.ver + 1;
        }
        if log.len() == RING {
            log.remove(0);
        }
        log.push(Version {
            ver,
            payload,
            replaced: false,
        });
    }
}

fn not_found<T: std::fmt::Debug>(r: Result<T, OlfsError>) -> bool {
    matches!(r, Err(OlfsError::NotFound(_)))
}

/// With dedup on, the map's counts must be the model's.
fn counts_agree(ros: &Ros, model: &Model) -> Result<(), String> {
    let (stats, want) = (ros.dedup_stats(), model.dedup_counts());
    if model.dedup && (stats.blobs, stats.links) != want {
        return Err(format!("want (blobs, links) {want:?}, got {stats:?}"));
    }
    Ok(())
}

/// Runs `ops` against a fresh rack and the model; `Err` describes the
/// first divergence.
fn check(dedup: bool, ops: &[Op]) -> Result<(), String> {
    let mut cfg = RosConfig::tiny();
    cfg.dedup = dedup;
    let mut ros = Ros::new(cfg);
    let mut model = Model {
        dedup,
        ..Model::default()
    };
    let mut flushes = 0;
    for (i, op) in ops.iter().enumerate() {
        counts_agree(&ros, &model).map_err(|e| format!("before op {i} {op:?}: {e}"))?;
        let fail = |what: String| Err(format!("op {i} {op:?}: {what}"));
        match *op {
            Op::Write(p, x) => {
                let latest_open = ros.provenance(&path(p)).is_ok_and(|trail| {
                    trail.last().is_some_and(|rec| {
                        matches!(rec.locations[..], [ProvenanceLocation::OpenBucket { .. }])
                    })
                });
                model.write(p, x, latest_open);
                let want = model.files[&p].last().expect("just pushed").ver;
                match ros.write_file(&path(p), payload(x)) {
                    Ok(w) if w.version == want => {}
                    other => return fail(format!("want version {want}, got {other:?}")),
                }
            }
            Op::Unlink(p) => {
                let r = ros.unlink(&path(p));
                if model.files.remove(&p).is_some() != r.is_ok() {
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
                ros.adopt_namespace(mv);
            }
            Op::Readdir(d) => {
                let got = ros.readdir(&DIRS[d].parse().expect("valid path"));
                match (model.listing(d), got) {
                    (Some(want), Ok(got)) if got == want => {}
                    (None, Err(OlfsError::NotFound(_))) => {}
                    (want, got) => return fail(format!("want {want:?}, got {got:?}")),
                }
            }
            Op::ReadFile(p) | Op::ReadRange(p, ..) | Op::ReadVersion(p, _) => {
                let got = match *op {
                    Op::ReadFile(_) => ros.read_file(&path(p)),
                    Op::ReadRange(_, offset, len) => ros.read_range(&path(p), offset, len),
                    Op::ReadVersion(_, ver) => ros.read_version(&path(p), ver),
                    _ => unreachable!(),
                };
                let Some(log) = model.files.get(&p) else {
                    if !not_found(got) {
                        return fail("a missing file must say NotFound".into());
                    }
                    continue;
                };
                let want = match *op {
                    Op::ReadVersion(_, ver) => log.iter().find(|v| v.ver == ver && !v.replaced),
                    _ => log.last(),
                };
                let Some(want) = want else {
                    if !matches!(got, Err(OlfsError::VersionGone { .. })) {
                        return fail(format!("want VersionGone, got {got:?}"));
                    }
                    continue;
                };
                let mut bytes = payload(want.payload);
                if let Op::ReadRange(_, offset, len) = *op {
                    let lo = (offset as usize).min(bytes.len());
                    let hi = (offset.saturating_add(len) as usize).min(bytes.len());
                    bytes = bytes[lo..hi].to_vec();
                }
                match got {
                    Ok(r) if r.version == want.ver && r.data.as_ref() == bytes.as_slice() => {}
                    Ok(r) => {
                        return fail(format!(
                            "want v{} ({} bytes of payload {}), got v{} ({} bytes)",
                            want.ver,
                            bytes.len(),
                            want.payload,
                            r.version,
                            r.data.len()
                        ))
                    }
                    Err(e) => return fail(format!("want v{}, got {e:?}", want.ver)),
                }
            }
        }
    }
    counts_agree(&ros, &model).map_err(|e| format!("at the end: {e}"))?;
    match ros.verify_consistency() {
        issues if issues.is_empty() => Ok(()),
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

fn dedup_rack() -> Ros {
    let mut cfg = RosConfig::tiny();
    cfg.dedup = true;
    Ros::new(cfg)
}

/// Asserts a read returned payload `x` (without dumping kilobytes).
fn assert_payload(got: Result<ros::ros_olfs::ReadReport, OlfsError>, x: usize) {
    let got = got.expect("read");
    assert!(
        got.data.as_ref() == payload(x).as_slice(),
        "v{} is not payload {x}: {} bytes starting {:?}",
        got.version,
        got.data.len(),
        &got.data[..got.data.len().min(4)]
    );
}

/// A dead file's bookkeeping must not resolve a live file's reads: the
/// re-created `/f` once read version 2 with version 1's bytes, and
/// answered `VersionGone` for its live version 1.
#[test]
fn recreated_file_reads_its_own_versions() {
    let (f, g) = (path(0), path(1));
    let mut ros = dedup_rack();
    ros.write_file(&f, payload(2)).unwrap();
    ros.write_file(&f, payload(3)).unwrap(); // In place.
    ros.seal_open_buckets().unwrap();
    ros.unlink(&f).unwrap();
    ros.write_file(&f, payload(0)).unwrap();
    ros.write_file(&g, payload(1)).unwrap(); // Dedup hit: /f v1 is shared.
    assert_eq!(ros.counters().dedup_hits, 1);
    let w = ros.write_file(&f, payload(2)).unwrap(); // So this regenerates.
    assert_eq!(w.version, 2);

    assert_payload(ros.read_file(&f), 2);
    assert_payload(ros.read_version(&f, 2), 2);
    assert_payload(ros.read_version(&f, 1), 0);
    assert!(ros.provenance(&f).unwrap().iter().all(|rec| rec.readable));
    assert!(ros.verify_consistency().is_empty());
}

/// Re-creating an unlinked path while its old bytes still sit in an
/// open bucket once failed with `already exists` and left a version-less
/// index file behind.
#[test]
fn recreating_an_unlinked_path_places_beside_its_old_bytes() {
    let f = path(0);
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&f, payload(2)).unwrap();
    ros.write_file(&f, payload(3)).unwrap();
    ros.unlink(&f).unwrap();
    let w = ros.write_file(&f, payload(0)).unwrap();
    assert_eq!(w.version, 1);
    assert_payload(ros.read_file(&f), 0);
    // Both open buckets now stage the name; the third life seals one.
    ros.unlink(&f).unwrap();
    ros.write_file(&f, payload(2)).unwrap();
    ros.unlink(&f).unwrap();
    ros.write_file(&f, payload(3)).unwrap();
    assert_payload(ros.read_file(&f), 3);
    assert!(ros.verify_consistency().is_empty());
}

/// A create whose placement fails leaves nothing behind: here the open
/// bucket still stages the unlinked *file* `/m` where `/m/f` needs a
/// directory, until a seal retires it.
#[test]
fn a_failed_create_leaves_no_index_file_behind() {
    let (dir, f) = ("/m".parse::<UdfPath>().unwrap(), path(0));
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&dir, payload(2)).unwrap();
    ros.unlink(&dir).unwrap();
    assert!(ros.write_file(&f, payload(0)).is_err());
    assert!(not_found(ros.read_file(&f)));
    assert_eq!(ros.readdir(&dir).unwrap(), vec![]);
    // The retry is a create again, not an update of a version-less file.
    assert!(!not_found(ros.write_file(&f, payload(0))));
    ros.seal_open_buckets().unwrap();
    assert_eq!(ros.write_file(&f, payload(0)).unwrap().version, 1);
    assert_payload(ros.read_file(&f), 0);
}

/// A version the 15-entry ring evicts gives its dedup reference back and
/// leaves its images' reverse map: 20 sealed rewrites once left `blobs:
/// 20, links: 20` behind 15 versions, and the evicted versions' images
/// still named the file.
#[test]
fn ring_eviction_releases_dedup_references() {
    let f = path(0);
    let mut ros = dedup_rack();
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
