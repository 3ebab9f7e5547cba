//! The one reference model every harness checks reads against.
//!
//! ROS promises that acknowledged bytes read back bit-exact, or fail
//! with a typed error (paper §4.4, §4.7). [`Model`] says what was
//! acknowledged: per path, a ring of the last
//! [`MAX_VERSION_ENTRIES`] acked versions and their bytes (§4.6), plus
//! the directories made so far. A harness records every ack with
//! [`Model::write`] — a write that failed typed records nothing, a typed
//! degraded ack (`ClusterError::PartialWrite`) is an ack — judges every
//! read with [`Model::judge`] (or compares with [`Model::owed`] where
//! the kind of typed error matters), and ends with [`Model::sweep`].
//! Whether [`Verdict::Failed`] is allowed mid-run is the caller's call;
//! in a final sweep it never is.

use bytes::Bytes;
use ros_olfs::params::MAX_VERSION_ENTRIES;
use ros_olfs::OlfsError;
use ros_udf::UdfPath;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// One acknowledged version of a file.
#[derive(Clone, Debug)]
struct Version {
    ver: u32,
    /// The acked bytes: a refcount on the caller's buffer, not a copy.
    data: Bytes,
    /// Overwritten in place by its successor (§4.6), so gone.
    replaced: bool,
}

/// What a read asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// The newest version.
    Latest,
    /// One retained version by number.
    Version(u32),
    /// `(offset, len)` of the newest version, clipped to its end.
    Range(u64, u64),
}

/// How a read compares with what the model owes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The owed bytes — or, where `VersionGone` is owed, a typed error.
    Exact,
    /// Bytes the model does not owe: another version's, another path's.
    Wrong,
    /// A typed error where bytes are owed.
    Failed,
    /// Nothing was acked for the path, so any answer is allowed.
    Unowed,
}

/// What a read-back of every acked path found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sweep {
    /// Paths whose newest version read back exact.
    pub(crate) verified: usize,
    /// `"{path}: {why}"` for every other path, in path order.
    pub lost: Vec<String>,
    /// Acked bytes of the lost paths' newest versions.
    pub(crate) bytes_lost: u64,
}

/// Path → ring of acked versions, plus the directories made so far.
#[derive(Clone, Debug, Default)]
pub struct Model {
    dedup: bool,
    files: BTreeMap<UdfPath, Vec<Version>>,
    dirs: BTreeSet<UdfPath>,
}

impl Model {
    /// An empty model of a rack with dedup on or off.
    pub fn new(dedup: bool) -> Self {
        Model {
            dedup,
            ..Model::default()
        }
    }

    /// Records an acked write and returns the version number it must
    /// carry. `latest_open` says whether the newest version sits in an
    /// open bucket: then §4.6 replaces it in place, unless dedup shares
    /// its bytes. Only version reads and dedup counts see the
    /// difference, so a harness that checks neither passes `false`.
    pub fn write(&mut self, path: &UdfPath, data: Bytes, latest_open: bool) -> u32 {
        let mut dir = path.parent();
        while let Some(d) = dir.filter(|d| !d.is_root()) {
            dir = d.parent();
            self.dirs.insert(d);
        }
        let latest = self.files.get(path).and_then(|log| log.last());
        let shared = self.dedup && latest.is_some_and(|l| self.refs(&l.data) > 1);
        let log = self.files.entry(path.clone()).or_default();
        let ver = log.last_mut().map_or(1, |latest| {
            latest.replaced = latest_open && !shared;
            latest.ver + 1
        });
        if log.len() == MAX_VERSION_ENTRIES {
            log.remove(0);
        }
        log.push(Version {
            ver,
            data,
            replaced: false,
        });
        ver
    }

    /// Forgets `path`'s versions; false if none were acked.
    pub fn unlink(&mut self, path: &UdfPath) -> bool {
        self.files.remove(path).is_some()
    }

    /// Every path with acked versions, in path order.
    pub fn paths(&self) -> impl Iterator<Item = &UdfPath> {
        self.files.keys()
    }

    fn live(&self) -> impl Iterator<Item = &Version> {
        self.files.values().flatten().filter(|v| !v.replaced)
    }

    fn refs(&self, data: &[u8]) -> usize {
        self.live().filter(|v| v.data.as_ref() == data).count()
    }

    /// `(blobs, links)` a dedup map must report: the live versions'
    /// distinct byte strings, and the live versions.
    pub fn dedup_counts(&self) -> (u64, u64) {
        let blobs: BTreeSet<&[u8]> = self.live().map(|v| v.data.as_ref()).collect();
        (blobs.len() as u64, self.live().count() as u64)
    }

    /// What `readdir(dir)` lists, `(name, is_dir)` in name order; `None`
    /// for a directory never made. Directories outlive their files.
    pub fn listing(&self, dir: &UdfPath) -> Option<Vec<(String, bool)>> {
        if !dir.is_root() && !self.dirs.contains(dir) {
            return None;
        }
        let child = |p: &UdfPath| p.parent().as_ref() == Some(dir);
        let dirs = self.dirs.iter().filter(|d| child(d)).map(|d| (d, true));
        let files = self.files.keys().filter(|f| child(f)).map(|f| (f, false));
        let mut out: Vec<(String, bool)> = dirs
            .chain(files)
            .filter_map(|(p, is_dir)| Some((p.name()?.to_string(), is_dir)))
            .collect();
        out.sort();
        Some(out)
    }

    /// What a read of `path` owes: a version number and its bytes, or the
    /// typed error the rack must answer.
    pub fn owed(&self, path: &UdfPath, read: Read) -> Result<(u32, &[u8]), OlfsError> {
        let not_found = || OlfsError::NotFound(path.to_string());
        let log = self.files.get(path).ok_or_else(not_found)?;
        let v = match read {
            Read::Version(version) => {
                let live = log.iter().find(|v| v.ver == version && !v.replaced);
                let path = path.to_string();
                live.ok_or(OlfsError::VersionGone { path, version })?
            }
            Read::Latest | Read::Range(..) => log.last().ok_or_else(not_found)?,
        };
        let end = v.data.len();
        let clip = |at: u64| usize::try_from(at).map_or(end, |at| at.min(end));
        let data = match read {
            Read::Range(offset, len) => &v.data[clip(offset)..clip(offset.saturating_add(len))],
            Read::Latest | Read::Version(_) => &v.data[..],
        };
        Ok((v.ver, data))
    }

    /// Judges a read's answer. Which typed error came back is not
    /// looked at; a caller that cares compares it with [`Model::owed`].
    pub fn judge<T: AsRef<[u8]>, E>(
        &self,
        path: &UdfPath,
        read: Read,
        got: &Result<T, E>,
    ) -> Verdict {
        match (self.owed(path, read), got) {
            (Err(OlfsError::NotFound(_)), _) => Verdict::Unowed,
            (Ok((_, data)), Ok(bytes)) if bytes.as_ref() == data => Verdict::Exact,
            (Err(_), Err(_)) => Verdict::Exact,
            (_, Ok(_)) => Verdict::Wrong,
            (Ok(_), Err(_)) => Verdict::Failed,
        }
    }

    /// Reads every acked path's newest version back through `read`, in
    /// path order.
    pub fn sweep<T: AsRef<[u8]>, E: Display>(
        &self,
        mut read: impl FnMut(&UdfPath) -> Result<T, E>,
    ) -> Sweep {
        let mut sweep = Sweep::default();
        for path in self.paths() {
            let got = read(path);
            let why = match (self.judge(path, Read::Latest, &got), got) {
                (Verdict::Exact, _) => {
                    sweep.verified += 1;
                    continue;
                }
                (_, Err(e)) => e.to_string(),
                (_, Ok(_)) => "wrong bytes".to_string(),
            };
            sweep.lost.push(format!("{path}: {why}"));
            if let Ok((_, data)) = self.owed(path, Read::Latest) {
                sweep.bytes_lost += data.len() as u64;
            }
        }
        sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn b(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    /// A typed error.
    const FAILED: Result<&[u8], ()> = Err(());

    #[test]
    fn reads_are_judged_against_the_acked_bytes() {
        let (f, mut m) = (p("/d/f"), Model::new(false));
        assert_eq!(m.write(&f, b("one"), false), 1);
        assert_eq!(m.write(&f, b("two"), false), 2);
        m.write(&p("/d/g"), b("gee"), false);
        let judge = |read, got: &str| m.judge(&f, read, &Ok::<_, ()>(got));
        assert_eq!(judge(Read::Latest, "two"), Verdict::Exact);
        assert_eq!(
            judge(Read::Latest, "one"),
            Verdict::Wrong,
            "a stale version"
        );
        assert_eq!(judge(Read::Latest, "gee"), Verdict::Wrong, "another path's");
        assert_eq!(judge(Read::Version(1), "one"), Verdict::Exact);
        assert_eq!(m.judge(&f, Read::Latest, &FAILED), Verdict::Failed);
        assert_eq!(m.judge(&p("/d/h"), Read::Latest, &FAILED), Verdict::Unowed);
        let sweep = m.sweep(|path| match path.name() {
            Some("g") => Ok(b("two")),
            _ => Err("gone"),
        });
        assert_eq!(sweep.verified, 0);
        assert_eq!(sweep.lost, ["/d/f: gone", "/d/g: wrong bytes"]);
        assert_eq!(sweep.bytes_lost, 6);
        assert_eq!(m.listing(&p("/")), Some(vec![("d".into(), true)]));
        assert_eq!(m.listing(&p("/e")), None);
    }

    #[test]
    fn evicted_and_replaced_versions_are_gone() {
        let (f, mut m) = (p("/f"), Model::new(false));
        for i in 0..=MAX_VERSION_ENTRIES {
            m.write(&f, Bytes::from(i.to_string()), false);
        }
        let gone = |version| {
            Err(OlfsError::VersionGone {
                path: "/f".into(),
                version,
            })
        };
        assert_eq!(m.owed(&f, Read::Version(1)), gone(1), "evicted");
        assert_eq!(m.judge(&f, Read::Version(1), &FAILED), Verdict::Exact);
        let replaced = m.write(&f, b("in place"), true) - 1;
        assert_eq!(
            m.owed(&f, Read::Version(replaced)),
            gone(replaced),
            "replaced"
        );
    }

    #[test]
    fn a_range_past_the_end_is_clipped() {
        let (f, mut m) = (p("/f"), Model::new(false));
        m.write(&f, b("abcdef"), false);
        let range = |offset, len| m.owed(&f, Read::Range(offset, len));
        assert_eq!(range(2, 3), Ok((1, &b"cde"[..])));
        assert_eq!(range(4, u64::MAX), Ok((1, &b"ef"[..])));
        assert_eq!(range(9, 1), Ok((1, &b""[..])));
    }

    #[test]
    fn equal_payloads_share_one_dedup_blob() {
        let (f, g, mut m) = (p("/f"), p("/g"), Model::new(true));
        m.write(&f, b("same"), false);
        m.write(&g, b("same"), false);
        assert_eq!(m.dedup_counts(), (1, 2));
        // The newest version is shared, so an open bucket keeps it.
        m.write(&f, b("new"), true);
        assert_eq!(m.dedup_counts(), (2, 3));
        assert!(m.unlink(&g) && !m.unlink(&g));
        assert_eq!(m.dedup_counts(), (2, 2));
    }
}
