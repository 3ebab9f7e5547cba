//! The Metadata Volume (MV) — the global namespace store (§4.2).
//!
//! "OLFS stores all files' mapping information in a small and fast volume,
//! referred to as Metadata Volume (MV)... MV is built on a small RAID-1
//! formatted as ext4... Besides index files, all system running states and
//! maintenance information are also stored in MV in the Json format."
//!
//! `MetadataVolume` is the pure data structure: the namespace as two std
//! maps plus a JSON state store. `tree` is an ordered map over every
//! directory and file path (the value says "is a directory"): `readdir`
//! walks it in name order with range lookups that skip each child's
//! subtree, and every whole-namespace walk goes through it. `files` maps a
//! path to its index file and serves the one lookup every operation makes;
//! nothing iterates it, so hash order never reaches an output
//! (`clippy::iter_over_hash_type`). The snapshot format is the historical
//! sorted-map JSON: serde goes through a shadow struct.
//! All *timing* (SSD RAID-1 random I/O, direct-I/O sync costs) is charged
//! by the engine, keeping this module unit-testable.

use crate::error::OlfsError;
use crate::index::IndexFile;
use crate::wbm::{parse_link_file_name, parse_shadow_file_name};
use ros_udf::format::{MAX_DEPTH, MAX_NAME_LEN};
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;

/// Longest name the global namespace admits: POSIX `NAME_MAX`, also
/// UDF's. Inside images OLFS stores files under prefixed names
/// (`.rosv{n}-` shadows, `.roslink-` continuations), so the namespace
/// stops this far short of what an image holds and every name OLFS
/// derives from an admitted one is a name a bucket admits.
pub const NAME_MAX: usize = 255;
const _: () = assert!(NAME_MAX + ".rosv4294967295-".len() <= MAX_NAME_LEN);

/// The metadata volume contents.
#[derive(Clone, Debug)]
pub struct MetadataVolume {
    /// Every directory and file, in path order; the value is "is a
    /// directory". Every ancestor of an entry is a directory entry.
    tree: BTreeMap<UdfPath, bool>,
    /// The index file of each file entry of `tree` — looked up, never
    /// iterated.
    files: HashMap<UdfPath, IndexFile>,
    /// System running state, JSON-valued (§4.2's checkpoint store).
    state: BTreeMap<String, serde_json::Value>,
}

impl Default for MetadataVolume {
    fn default() -> Self {
        Self::new()
    }
}

/// Serde shadow of [`MetadataVolume`]: the historical sorted-map layout,
/// so MV snapshots keep their format and old snapshots restore cleanly.
#[derive(Serialize, Deserialize)]
struct MvSnapshot {
    files: BTreeMap<String, IndexFile>,
    dirs: BTreeSet<String>,
    state: BTreeMap<String, serde_json::Value>,
}

impl Serialize for MetadataVolume {
    fn serialize_value(&self) -> serde::Value {
        let files: BTreeMap<String, IndexFile> = self
            .iter_files()
            .map(|(p, i)| (p.to_string(), i.clone()))
            .collect();
        let dirs: BTreeSet<String> = self
            .tree
            .iter()
            .filter(|(_, is_dir)| **is_dir)
            .map(|(p, _)| p.to_string())
            .collect();
        MvSnapshot {
            files,
            dirs,
            state: self.state.clone(),
        }
        .serialize_value()
    }
}

impl Deserialize for MetadataVolume {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let snap = MvSnapshot::deserialize_value(v)?;
        let mut mv = MetadataVolume::new();
        mv.state = snap.state;
        // mkdir_p builds missing ancestors; root already exists.
        for d in &snap.dirs {
            if d == "/" {
                continue;
            }
            let path: UdfPath = d
                .parse()
                .map_err(|_| serde::DeError::custom(format!("bad dir path {d}")))?;
            mv.mkdir_p(&path)
                .map_err(|e| serde::DeError::custom(format!("snapshot dir {d}: {e}")))?;
        }
        for (k, idx) in snap.files {
            let path: UdfPath = k
                .parse()
                .map_err(|_| serde::DeError::custom(format!("bad file path {k}")))?;
            *mv.create(&path)
                .map_err(|e| serde::DeError::custom(format!("snapshot file {k}: {e}")))? = idx;
        }
        Ok(mv)
    }
}

impl MetadataVolume {
    /// Creates an empty MV with just the root directory.
    pub fn new() -> Self {
        MetadataVolume {
            tree: BTreeMap::from([(UdfPath::root(), true)]),
            files: HashMap::new(),
            state: BTreeMap::new(),
        }
    }

    /// Looks up a file's index — one hash probe.
    pub fn get(&self, path: &UdfPath) -> Option<&IndexFile> {
        self.files.get(path)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, path: &UdfPath) -> Option<&mut IndexFile> {
        self.files.get_mut(path)
    }

    /// Returns true if a file exists at the path.
    pub fn is_file(&self, path: &UdfPath) -> bool {
        self.files.contains_key(path)
    }

    /// Returns true if a directory exists at the path.
    pub fn is_dir(&self, path: &UdfPath) -> bool {
        self.tree.get(path) == Some(&true)
    }

    /// Ensures `dir` and every missing ancestor exist as directories.
    /// Errors *before* mutating if any ancestor on the missing stretch is
    /// a file. Stops climbing at the first existing directory: a directory
    /// can only have been created with directory ancestors, so the rest of
    /// the chain is already in place.
    fn ensure_dir_chain(&mut self, dir: Option<UdfPath>) -> Result<(), OlfsError> {
        let mut missing: Vec<UdfPath> = Vec::new();
        let mut cur = dir;
        while let Some(d) = cur {
            match self.tree.get(&d) {
                Some(true) => break,
                Some(false) => return Err(OlfsError::Invalid(format!("{d} is a file"))),
                None => {}
            }
            cur = d.parent();
            missing.push(d);
        }
        for d in missing {
            self.tree.insert(d, true);
        }
        Ok(())
    }

    /// The door of the namespace: refuses a name over [`NAME_MAX`] bytes,
    /// a path deeper than an image holds, and a name OLFS reserves for
    /// its in-image version shadows and link files (a disc scan would
    /// read it as one), whether the path was parsed or joined, before
    /// anything is created or acknowledged.
    fn admit(path: &UdfPath) -> Result<(), OlfsError> {
        if path.components().count() > MAX_DEPTH || path.components().any(|c| c.len() > NAME_MAX) {
            return Err(OlfsError::Invalid(format!(
                "{path}: a name over {NAME_MAX} bytes or more than {MAX_DEPTH} levels"
            )));
        }
        if path
            .components()
            .any(|c| parse_shadow_file_name(c).is_some() || parse_link_file_name(c).is_some())
        {
            return Err(OlfsError::Invalid(format!(
                "{path}: a name reserved for version shadows and link files"
            )));
        }
        Ok(())
    }

    /// Creates an index file (and its ancestor directories).
    pub fn create(&mut self, path: &UdfPath) -> Result<&mut IndexFile, OlfsError> {
        Self::admit(path)?;
        match self.tree.get(path) {
            Some(false) => return Err(OlfsError::AlreadyExists(path.to_string())),
            Some(true) => return Err(OlfsError::Invalid(format!("{path} is a directory"))),
            None => {}
        }
        self.ensure_dir_chain(path.parent())?;
        self.tree.insert(path.clone(), false);
        Ok(self.files.entry(path.clone()).or_default())
    }

    /// Creates a directory path explicitly.
    pub fn mkdir_p(&mut self, path: &UdfPath) -> Result<(), OlfsError> {
        Self::admit(path)?;
        self.ensure_dir_chain(Some(path.clone()))
    }

    /// Removes a file from the global view (a tombstone in spirit: disc
    /// data remains, §4.6's provenance survives in old MV snapshots).
    pub fn unlink(&mut self, path: &UdfPath) -> Result<IndexFile, OlfsError> {
        let idx = self
            .files
            .remove(path)
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
        self.tree.remove(path);
        Ok(idx)
    }

    /// Lists the immediate children of a directory: `(name, is_dir)`,
    /// sorted by name. One range lookup per child: the first entry after
    /// a point is the next child itself (its ancestors precede its
    /// subtree). A file has no subtree, so the next lookup starts after
    /// it; after a directory it starts after `dir/name\0` — a name no
    /// parsed path holds — which sorts after every `dir/name/…` and
    /// before the next sibling.
    pub fn list(&self, dir: &UdfPath) -> Result<Vec<(String, bool)>, OlfsError> {
        if !self.is_dir(dir) {
            return Err(OlfsError::NotFound(dir.to_string()));
        }
        let mut children = Vec::new();
        let mut from = Bound::Excluded(dir.clone());
        while let Some((child, &is_dir)) = self.tree.range((from, Bound::Unbounded)).next() {
            let Some(name) = child.name().filter(|_| child.starts_with(dir)) else {
                break;
            };
            children.push((name.to_string(), is_dir));
            from = Bound::Excluded(if is_dir {
                dir.join(&format!("{name}\0"))
            } else {
                child.clone()
            });
        }
        Ok(children)
    }

    /// Iterates over every `(path, index)` pair in path order (component
    /// by component).
    pub fn iter_files(&self) -> impl Iterator<Item = (&UdfPath, &IndexFile)> {
        self.tree
            .iter()
            .filter(|(_, is_dir)| !**is_dir)
            .filter_map(|(p, _)| self.files.get(p).map(|i| (p, i)))
    }

    /// Number of index files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of directories (including the root).
    pub fn dir_count(&self) -> usize {
        self.tree.len() - self.files.len()
    }

    /// Total MV bytes consumed: index files plus a block+inode per
    /// directory (§4.2's 2.3 TB-per-2-billion-entries accounting).
    pub fn usage_bytes(&self) -> u64 {
        let files: u64 = self.iter_files().map(|(_, i)| i.mv_bytes()).sum();
        let dirs = self.dir_count() as u64
            * (crate::params::MV_INODE_BYTES + crate::params::MV_BLOCK_BYTES);
        files + dirs
    }

    /// Stores a JSON state record (DAindex, DILindex, checkpoints...).
    pub fn put_state(&mut self, key: impl Into<String>, value: serde_json::Value) {
        self.state.insert(key.into(), value);
    }

    /// Reads a JSON state record.
    pub fn get_state(&self, key: &str) -> Option<&serde_json::Value> {
        self.state.get(key)
    }

    /// Serialises the whole MV (for periodic burning to discs, §4.2).
    #[expect(
        clippy::expect_used,
        reason = "serializing an owned tree of strings and integers cannot fail"
    )]
    pub fn snapshot(&self) -> String {
        serde_json::to_string(self).expect("MV always serializes")
    }

    /// Restores an MV from a snapshot (§4.2: "Once MV fails, the entire
    /// global namespace can be recovered from discs").
    pub fn restore(snapshot: &str) -> Result<Self, OlfsError> {
        serde_json::from_str(snapshot)
            .map_err(|e| OlfsError::BadState(format!("corrupt MV snapshot: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ImageId;
    use crate::index::{LocTag, VersionEntry};

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn create_builds_namespace() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/a/b/file")).unwrap();
        assert!(mv.is_file(&p("/a/b/file")));
        assert!(mv.is_dir(&p("/a")));
        assert!(mv.is_dir(&p("/a/b")));
        assert!(mv.is_dir(&p("/")));
        assert_eq!(mv.file_count(), 1);
        assert_eq!(mv.dir_count(), 3);
    }

    #[test]
    fn create_conflicts() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/f")).unwrap();
        assert!(matches!(
            mv.create(&p("/f")).unwrap_err(),
            OlfsError::AlreadyExists(_)
        ));
        // A file cannot be a directory on the path of another file.
        assert!(matches!(
            mv.create(&p("/f/inner")).unwrap_err(),
            OlfsError::Invalid(_)
        ));
        mv.mkdir_p(&p("/d")).unwrap();
        assert!(matches!(
            mv.create(&p("/d")).unwrap_err(),
            OlfsError::Invalid(_)
        ));
        assert!(matches!(
            mv.mkdir_p(&p("/f")).unwrap_err(),
            OlfsError::Invalid(_)
        ));
    }

    #[test]
    fn the_namespace_refuses_names_it_cannot_decorate() {
        let mut mv = MetadataVolume::new();
        let named = |n: usize| p("/new/dir").join(&"n".repeat(n));
        mv.create(&named(NAME_MAX)).unwrap();
        mv.mkdir_p(&p(&"/e".repeat(MAX_DEPTH))).unwrap();
        let (files, dirs) = (mv.file_count(), mv.dir_count());
        for path in [
            named(NAME_MAX + 1),
            named(NAME_MAX + 1).join("below"),
            p(&"/g".repeat(MAX_DEPTH + 1)),
        ] {
            assert!(matches!(
                mv.create(&path).unwrap_err(),
                OlfsError::Invalid(_)
            ));
            assert!(matches!(
                mv.mkdir_p(&path).unwrap_err(),
                OlfsError::Invalid(_)
            ));
        }
        // Refused before the first directory of the chain exists.
        assert_eq!((mv.file_count(), mv.dir_count()), (files, dirs));
        assert!(!mv.is_dir(&p("/g")));
    }

    #[test]
    fn listing_separates_dirs_and_files() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/root/one.txt")).unwrap();
        mv.create(&p("/root/sub/two.txt")).unwrap();
        mv.mkdir_p(&p("/root/empty")).unwrap();
        let mut ls = mv.list(&p("/root")).unwrap();
        ls.sort();
        assert_eq!(
            ls,
            vec![
                ("empty".to_string(), true),
                ("one.txt".to_string(), false),
                ("sub".to_string(), true),
            ]
        );
        let top = mv.list(&p("/")).unwrap();
        assert_eq!(top, vec![("root".to_string(), true)]);
        assert!(mv.list(&p("/missing")).is_err());
    }

    #[test]
    fn listing_does_not_leak_siblings() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/ab/x")).unwrap();
        mv.create(&p("/abc/y")).unwrap();
        let ls = mv.list(&p("/ab")).unwrap();
        assert_eq!(ls, vec![("x".to_string(), false)]);
        // Each child's subtree is skipped whole, and '-' and '.', which
        // sort below '/', do not split "/d/a" from "/d/a/x".
        for f in ["/d/a0", "/d/a.c", "/d/a/x/deep", "/d/a/y", "/d/a-b", "/e"] {
            mv.create(&p(f)).unwrap();
        }
        let names: Vec<(String, bool)> =
            [("a", true), ("a-b", false), ("a.c", false), ("a0", false)]
                .map(|(n, d)| (n.to_string(), d))
                .into();
        assert_eq!(mv.list(&p("/d")).unwrap(), names);
        assert_eq!(
            mv.list(&p("/d/a")).unwrap(),
            [("x".to_string(), true), ("y".to_string(), false)]
        );
        mv.unlink(&p("/d/a.c")).unwrap();
        assert_eq!(mv.list(&p("/d")).unwrap().len(), 3);
        assert!(mv.list(&p("/e")).is_err(), "a file is not a directory");
    }

    #[test]
    fn readdir_lists_by_component_not_by_flat_string() {
        // As flat strings "/d/a b", "/d/a-c" and "/d/a.d" sort before
        // "/d/a/x" (space, '-' and '.' are below '/'); by component the
        // whole subtree of `a` comes first.
        let mut mv = MetadataVolume::new();
        for f in [
            "/d/a0",
            "/d/a.d",
            "/d/a/x/deep",
            "/d/a-c",
            "/d/a b",
            "/d/a/y",
        ] {
            mv.create(&p(f)).unwrap();
        }
        let names: Vec<(String, bool)> = [
            ("a", true),
            ("a b", false),
            ("a-c", false),
            ("a.d", false),
            ("a0", false),
        ]
        .map(|(n, d)| (n.to_string(), d))
        .into();
        assert_eq!(mv.list(&p("/d")).unwrap(), names);
        let order: Vec<String> = mv.iter_files().map(|(f, _)| f.to_string()).collect();
        assert_eq!(
            order,
            [
                "/d/a/x/deep",
                "/d/a/y",
                "/d/a b",
                "/d/a-c",
                "/d/a.d",
                "/d/a0"
            ]
        );
    }

    #[test]
    fn unlink_removes_from_view() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/f")).unwrap();
        let idx = mv.unlink(&p("/f")).unwrap();
        assert_eq!(idx.version_count(), 0);
        assert!(!mv.is_file(&p("/f")));
        assert!(matches!(
            mv.unlink(&p("/f")).unwrap_err(),
            OlfsError::NotFound(_)
        ));
    }

    #[test]
    fn state_store_roundtrip() {
        let mut mv = MetadataVolume::new();
        mv.put_state("da_index", serde_json::json!({"0": "Used"}));
        assert_eq!(
            mv.get_state("da_index").unwrap()["0"],
            serde_json::json!("Used")
        );
        assert!(mv.get_state("missing").is_none());
    }

    #[test]
    fn snapshot_restores_everything() {
        let mut mv = MetadataVolume::new();
        mv.create(&p("/x/data"))
            .unwrap()
            .push_version(VersionEntry::new(
                LocTag::Bucket,
                7,
                1,
                vec![ImageId(3)],
                vec![7],
            ));
        mv.put_state("k", serde_json::json!(42));
        mv.mkdir_p(&p("/y/empty")).unwrap();
        let snap = mv.snapshot();
        let back = MetadataVolume::restore(&snap).unwrap();
        assert_eq!(back.snapshot(), snap);
        assert!(back.is_dir(&p("/y/empty")));
        assert!(back.is_file(&p("/x/data")));
        assert_eq!(back.get(&p("/x/data")).unwrap().latest().unwrap().size, 7);
        assert_eq!(back.get_state("k").unwrap(), &serde_json::json!(42));
        assert!(MetadataVolume::restore("garbage").is_err());
    }

    #[test]
    fn usage_grows_with_entries() {
        let mut mv = MetadataVolume::new();
        let base = mv.usage_bytes();
        mv.create(&p("/a/file"))
            .unwrap()
            .push_version(VersionEntry::new(
                LocTag::Bucket,
                10,
                0,
                vec![ImageId(1)],
                vec![10],
            ));
        let after = mv.usage_bytes();
        // One file (inode + block) and one new directory (/a).
        assert_eq!(after - base, 2 * (128 + 1024));
    }
}
