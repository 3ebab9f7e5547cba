//! The Metadata Volume (MV) — the global namespace store (§4.2).
//!
//! "OLFS stores all files' mapping information in a small and fast volume,
//! referred to as Metadata Volume (MV)... MV is built on a small RAID-1
//! formatted as ext4... Besides index files, all system running states and
//! maintenance information are also stored in MV in the Json format."
//!
//! `MetadataVolume` is the pure data structure: a flat `Hash(path) → entry`
//! namespace (the §4.4 unique-file-path identity, so every lookup is O(1)
//! regardless of depth) plus a JSON state store. Directory listings come
//! from a *sorted child sidecar* kept per directory, so `readdir` order is
//! name order by construction — never hash-table order
//! (`clippy::iter_over_hash_type`). The snapshot format is unchanged:
//! serde goes through a shadow struct that re-emits the historical
//! sorted-map JSON byte-for-byte.
//! All *timing* (SSD RAID-1 random I/O, direct-I/O sync costs) is charged
//! by the engine, keeping this module unit-testable.

use crate::error::OlfsError;
use crate::index::IndexFile;
use ros_udf::format::{MAX_DEPTH, MAX_NAME_LEN};
use ros_udf::{PathIndex, UdfPath};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Longest name the global namespace admits: POSIX `NAME_MAX`, also
/// UDF's. Inside images OLFS stores files under prefixed names
/// (`.rosv{n}-` shadows, `.roslink-` continuations), so the namespace
/// stops this far short of what an image holds and every name OLFS
/// derives from an admitted one is a name a bucket admits.
pub const NAME_MAX: usize = 255;
const _: () = assert!(NAME_MAX + ".rosv4294967295-".len() <= MAX_NAME_LEN);

/// A directory's sorted child sidecar: `(name, is_dir)` in name order,
/// maintained by the same operations that mutate the namespace, so
/// `list` is a clone — deterministic without a sort at read time.
#[derive(Clone, Debug, Default)]
struct DirNode {
    children: Vec<(String, bool)>,
}

impl DirNode {
    fn link(&mut self, name: &str, is_dir: bool) {
        match self
            .children
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.children[i].1 = is_dir,
            Err(i) => self.children.insert(i, (name.to_string(), is_dir)),
        }
    }

    fn unlink(&mut self, name: &str) {
        if let Ok(i) = self
            .children
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            self.children.remove(i);
        }
    }
}

/// The metadata volume contents.
#[derive(Clone, Debug)]
pub struct MetadataVolume {
    /// Index files in a flat path-hash index.
    files: PathIndex<IndexFile>,
    /// All directories ever created (the namespace skeleton), each with
    /// its sorted child sidecar.
    dirs: PathIndex<DirNode>,
    /// System running state, JSON-valued (§4.2's checkpoint store).
    state: BTreeMap<String, serde_json::Value>,
}

impl Default for MetadataVolume {
    fn default() -> Self {
        Self::new()
    }
}

/// Serde shadow of [`MetadataVolume`]: the historical sorted-map layout,
/// so MV snapshots are byte-identical to the pre-index format and old
/// snapshots restore cleanly.
#[derive(Serialize, Deserialize)]
struct MvSnapshot {
    files: BTreeMap<String, IndexFile>,
    dirs: BTreeSet<String>,
    state: BTreeMap<String, serde_json::Value>,
}

impl Serialize for MetadataVolume {
    fn serialize_value(&self) -> serde::Value {
        let files: BTreeMap<String, IndexFile> = self
            .files
            .iter()
            .map(|(p, i)| (p.to_string(), i.clone()))
            .collect();
        let dirs: BTreeSet<String> = self.dirs.iter().map(|(p, _)| p.to_string()).collect();
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
        // BTreeSet order is parent-before-child ("/a" < "/a/b"), but
        // mkdir_p builds missing ancestors anyway; root already exists.
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
        let mut dirs = PathIndex::new();
        dirs.insert(UdfPath::root(), DirNode::default());
        MetadataVolume {
            files: PathIndex::new(),
            dirs,
            state: BTreeMap::new(),
        }
    }

    /// Looks up a file's index — one flat-index probe.
    pub fn get(&self, path: &UdfPath) -> Option<&IndexFile> {
        self.files.get(path)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, path: &UdfPath) -> Option<&mut IndexFile> {
        self.files.get_mut(path)
    }

    /// Returns true if a file exists at the path.
    pub fn is_file(&self, path: &UdfPath) -> bool {
        self.files.contains(path)
    }

    /// Returns true if a directory exists at the path.
    pub fn is_dir(&self, path: &UdfPath) -> bool {
        self.dirs.contains(path)
    }

    /// Links `path` into its parent's child sidecar (root has no parent).
    fn link_child(&mut self, path: &UdfPath, is_dir: bool) {
        let (Some(parent), Some(name)) = (path.parent(), path.name()) else {
            return;
        };
        let name = name.to_string();
        if let Some(node) = self.dirs.get_mut(&parent) {
            node.link(&name, is_dir);
        }
    }

    /// Ensures `dir` and every missing ancestor exist as directories,
    /// linking each new one into its parent. Errors *before* mutating if
    /// any ancestor on the missing stretch is a file. Stops climbing at
    /// the first existing directory: a directory can only have been
    /// created with directory ancestors, so the rest of the chain is
    /// already in place.
    fn ensure_dir_chain(&mut self, dir: Option<UdfPath>) -> Result<(), OlfsError> {
        let mut missing: Vec<UdfPath> = Vec::new();
        let mut cur = dir;
        while let Some(d) = cur {
            if self.files.contains(&d) {
                return Err(OlfsError::Invalid(format!("{d} is a file")));
            }
            if self.dirs.contains(&d) {
                break;
            }
            cur = d.parent();
            missing.push(d);
        }
        for d in missing.into_iter().rev() {
            self.link_child(&d, true);
            self.dirs.insert(d, DirNode::default());
        }
        Ok(())
    }

    /// The door of the namespace: refuses a name over [`NAME_MAX`] bytes
    /// or a path deeper than an image holds, whether the path was parsed
    /// or joined, before anything is created or acknowledged.
    fn admit(path: &UdfPath) -> Result<(), OlfsError> {
        let comps = path.components();
        if comps.len() > MAX_DEPTH || comps.iter().any(|c| c.len() > NAME_MAX) {
            return Err(OlfsError::Invalid(format!(
                "{path}: a name over {NAME_MAX} bytes or more than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Creates an index file (and its ancestor directories).
    pub fn create(&mut self, path: &UdfPath) -> Result<&mut IndexFile, OlfsError> {
        Self::admit(path)?;
        if self.files.contains(path) {
            return Err(OlfsError::AlreadyExists(path.to_string()));
        }
        if self.dirs.contains(path) {
            return Err(OlfsError::Invalid(format!("{path} is a directory")));
        }
        self.ensure_dir_chain(path.parent())?;
        self.link_child(path, false);
        self.files.insert(path.clone(), IndexFile::default());
        self.files
            .get_mut(path)
            .ok_or_else(|| OlfsError::BadState(format!("{path} vanished after insert")))
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
        if let Some(name) = path.name() {
            let name = name.to_string();
            if let Some(parent) = path.parent() {
                if let Some(node) = self.dirs.get_mut(&parent) {
                    node.unlink(&name);
                }
            }
        }
        Ok(idx)
    }

    /// Lists the immediate children of a directory: `(name, is_dir)`,
    /// sorted by name. O(children) — a clone of the maintained sidecar,
    /// cross-checked in debug builds against a full namespace sweep.
    pub fn list(&self, dir: &UdfPath) -> Result<Vec<(String, bool)>, OlfsError> {
        match self.dirs.get(dir) {
            Some(node) => {
                debug_assert_eq!(
                    node.children,
                    self.sweep_children(dir),
                    "sidecar and namespace-sweep oracle disagree on list({dir})"
                );
                Ok(node.children.clone())
            }
            None => Err(OlfsError::NotFound(dir.to_string())),
        }
    }

    /// Debug oracle for [`MetadataVolume::list`]: recomputes a directory's
    /// children by sweeping the whole namespace, the way the old sorted-map
    /// MV derived listings.
    fn sweep_children(&self, dir: &UdfPath) -> Vec<(String, bool)> {
        let depth = dir.components().len();
        let mut out: BTreeMap<String, bool> = BTreeMap::new();
        for (p, _) in self.dirs.iter() {
            if p.components().len() > depth && p.starts_with(dir) {
                out.insert(p.components()[depth].clone(), true);
            }
        }
        for (p, _) in self.files.iter() {
            if p.components().len() > depth && p.starts_with(dir) {
                let is_dir = p.components().len() > depth + 1;
                out.entry(p.components()[depth].clone()).or_insert(is_dir);
            }
        }
        out.into_iter().collect()
    }

    /// Iterates over every `(path, index)` pair in path-string order —
    /// the same order the old sorted-map MV yielded, so maintenance
    /// sweeps visit files identically.
    pub fn iter_files(&self) -> impl Iterator<Item = (&UdfPath, &IndexFile)> {
        let mut v: Vec<(&UdfPath, &IndexFile)> = self.files.iter().collect();
        v.sort_by_cached_key(|(p, _)| p.to_string());
        v.into_iter()
    }

    /// Number of index files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of directories (including the root).
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Total MV bytes consumed: index files plus a block+inode per
    /// directory (§4.2's 2.3 TB-per-2-billion-entries accounting).
    pub fn usage_bytes(&self) -> u64 {
        let files: u64 = self.files.iter().map(|(_, i)| i.mv_bytes()).sum();
        let dirs = self.dirs.len() as u64
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
        let snap = mv.snapshot();
        let back = MetadataVolume::restore(&snap).unwrap();
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
