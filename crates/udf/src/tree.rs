//! The in-memory file tree of a UDF image, with block-accurate accounting.
//!
//! Every node knows its on-image cost: a file is one ICB block plus its
//! data blocks; a directory is one ICB block plus the blocks holding its
//! children's file identifier descriptors (FIDs). OLFS's *unique file
//! path* mechanism (§4.4) stores each file under its full global path, so
//! the tree of every image is a subtree of the global namespace and the
//! image is self-descriptive.

use crate::block::{blocks_for, BLOCK_SIZE};
use crate::format::{MAX_DEPTH, MAX_NAME_LEN, OVERHEAD_BLOCKS};
use bytes::Bytes;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A normalised absolute path ("/a/b/c"; "/" is the root).
///
/// One shared string: a clone is a reference-count bump, and `Eq` and
/// `Hash` work on the string. `Ord` is the component-wise order — the
/// bytes compared with `'/'` ranked below every other byte — so a parent
/// sorts before its children and `/a/z` before `/a b`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// `"/"` for the root, else `"/a/b"`: no empty component and no
    /// trailing `'/'`.
    repr: Arc<str>,
}

impl Path {
    /// The root path "/".
    pub fn root() -> Self {
        Path { repr: "/".into() }
    }

    /// Parses and normalises an absolute path.
    ///
    /// Rejects relative paths, empty components, `.` and `..`.
    pub fn parse(s: &str) -> Result<Self, TreeError> {
        if s == "/" {
            return Ok(Path::root());
        }
        let invalid = || TreeError::InvalidPath(s.to_string());
        let Some(body) = s.strip_prefix('/') else {
            return Err(invalid());
        };
        // Allow a single trailing slash ("/a/b/" == "/a/b") but reject
        // interior empties: "/a//b" must not alias "/a/b" (the path
        // string is the file's identity, §4.4).
        let body = body.strip_suffix('/').unwrap_or(body);
        for c in body.split('/') {
            if c.is_empty() || c == "." || c == ".." || c.contains('\0') {
                return Err(invalid());
            }
        }
        let end = body.len() + 1;
        Ok(Path {
            repr: s.get(..end).unwrap_or(s).into(),
        })
    }

    /// The normalised path string (what `Display` prints).
    pub fn as_str(&self) -> &str {
        &self.repr
    }

    /// The path components, root to leaf; none for the root.
    pub fn components(&self) -> std::str::SplitTerminator<'_, char> {
        self.repr
            .strip_prefix('/')
            .unwrap_or(&self.repr)
            .split_terminator('/')
    }

    /// Returns the final component (file name), or `None` for the root.
    pub fn name(&self) -> Option<&str> {
        self.repr
            .rsplit_once('/')
            .map(|(_, name)| name)
            .filter(|n| !n.is_empty())
    }

    /// Returns the parent path, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        match self.repr.rsplit_once('/')? {
            (_, "") => None,
            ("", _) => Some(Path::root()),
            (head, _) => Some(Path { repr: head.into() }),
        }
    }

    /// Returns this path extended with one more component.
    ///
    /// `name` must be non-empty and hold no `'/'`: the path is one
    /// string, so `"b/c"` would silently become two components. Every
    /// caller joins a single name; gateway keys are percent-escaped
    /// before they reach a path.
    pub fn join(&self, name: &str) -> Path {
        debug_assert!(
            !name.is_empty() && !name.contains('/'),
            "Path::join takes one component, got {name:?}"
        );
        let dir = if self.is_root() { "" } else { &self.repr };
        Path {
            repr: concat(&[dir, "/", name]),
        }
    }

    /// True for the root path.
    pub fn is_root(&self) -> bool {
        self.repr.len() == 1
    }

    /// True if `self` is `other` or a descendant of it (component-wise:
    /// `/ab` does not start with `/a`).
    pub fn starts_with(&self, other: &Path) -> bool {
        other.is_root()
            || self
                .repr
                .strip_prefix(&*other.repr)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    }
}

/// The strings of `parts` joined into one shared string. A short result
/// is assembled on the stack, so the `Arc` is its only allocation.
fn concat(parts: &[&str]) -> Arc<str> {
    const STACK: usize = 256;
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut buf = [0u8; STACK];
    if let Some(out) = buf.get_mut(..len) {
        let mut rest = &mut out[..];
        for p in parts {
            let (head, tail) = rest.split_at_mut(p.len());
            head.copy_from_slice(p.as_bytes());
            rest = tail;
        }
        if let Ok(s) = core::str::from_utf8(out) {
            return s.into();
        }
    }
    parts.concat().into()
}

/// A path byte's rank in the component-wise order: `'/'` first, then
/// every other byte in byte order.
fn rank(b: u8) -> u16 {
    if b == b'/' {
        0
    } else {
        u16::from(b) + 1
    }
}

/// Where `a` and `b` first differ, if either is not a prefix of the
/// other: eight bytes compared at a time, then the tail byte by byte.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    let (words_a, _) = a.as_chunks::<8>();
    let (words_b, _) = b.as_chunks::<8>();
    let mut at = 0;
    for (x, y) in words_a.iter().zip(words_b) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            // Little-endian: the lowest set bit lies in the first
            // differing byte.
            return Some(at + (diff.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    let (a, b) = (a.get(at..)?, b.get(at..)?);
    a.iter().zip(b).position(|(x, y)| x != y).map(|i| at + i)
}

/// The component-wise order of two path strings: the bytes compared with
/// `'/'` ranked below every other byte.
fn path_order(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    match first_difference(a, b) {
        Some(i) => rank(a[i]).cmp(&rank(b[i])),
        None => a.len().cmp(&b.len()),
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Self) -> Ordering {
        path_order(&self.repr, &other.repr)
    }
}

/// A path string, borrowed, ordered as [`Path`] is: a tree looks up an
/// ancestor of a path it was given as a prefix of that path's string,
/// without building a `Path` for it.
pub(crate) trait PathKey {
    /// The path string.
    fn key(&self) -> &str;
}

impl PathKey for Path {
    fn key(&self) -> &str {
        &self.repr
    }
}

impl PathKey for &str {
    fn key(&self) -> &str {
        self
    }
}

impl<'a> Borrow<dyn PathKey + 'a> for Path {
    fn borrow(&self) -> &(dyn PathKey + 'a) {
        self
    }
}

impl PartialEq for dyn PathKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn PathKey + '_ {}

impl PartialOrd for dyn PathKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn PathKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        path_order(self.key(), other.key())
    }
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Display for Path {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.repr)
    }
}

impl core::fmt::Debug for Path {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self}")
    }
}

impl std::str::FromStr for Path {
    type Err = TreeError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Path::parse(s)
    }
}

/// Metadata of a file node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File size in bytes.
    pub size: u64,
    /// Modification time, nanoseconds on the simulation clock.
    pub mtime_nanos: u64,
}

/// One node of the tree, under its full path.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FsNode {
    /// A regular file with real contents.
    File {
        /// Metadata.
        meta: FileMeta,
        /// The file data.
        data: Bytes,
    },
    /// A directory. Its children are the entries one component below
    /// it; it carries their running totals.
    Dir {
        /// Bytes of the FID stream that names its children.
        fid_bytes: u64,
        /// Number of children.
        children: usize,
    },
}

impl FsNode {
    pub(crate) const EMPTY_DIR: FsNode = FsNode::Dir {
        fid_bytes: 0,
        children: 0,
    };

    /// The node's on-image blocks, its children's aside: a file's ICB
    /// block and data blocks, a directory's ICB block and FID blocks.
    fn blocks(&self) -> u64 {
        match self {
            FsNode::File { meta, .. } => 1 + blocks_for(meta.size),
            FsNode::Dir { fid_bytes, .. } => 1 + blocks_for(*fid_bytes),
        }
    }
}

/// Errors from tree operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// Path failed to parse, or names something the image format cannot
    /// hold (a component or nesting depth over [`crate::format`]'s limits).
    InvalidPath(String),
    /// Component exists but is a file where a directory is needed (or
    /// vice versa).
    NotADirectory(String),
    /// A directory was found where a file was expected.
    IsADirectory(String),
    /// The path does not exist.
    NotFound(String),
    /// A file already exists at the path.
    AlreadyExists(String),
}

impl core::fmt::Display for TreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TreeError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            TreeError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            TreeError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            TreeError::NotFound(p) => write!(f, "not found: {p}"),
            TreeError::AlreadyExists(p) => write!(f, "already exists: {p}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Size in bytes of one serialised FID for a child named `name`.
///
/// Mirrors the on-image encoding of [`crate::format`]: kind (1) +
/// name length (4) + name + ICB pointer (8).
pub(crate) fn fid_cost(name: &str) -> u64 {
    1 + 4 + name.len() as u64 + 8
}

/// The string of the directory that `path`'s first `end` bytes name:
/// the root for none.
fn dir_prefix(path: &str, end: usize) -> &str {
    match path.get(..end) {
        Some("") | None => "/",
        Some(dir) => dir,
    }
}

/// A whole image's file tree — the one namespace structure of a bucket
/// and of a sealed image: one ordered map from full path to node, the
/// root included. [`Path`]'s order is pre-order depth-first with
/// siblings by name, so walking the map in order is walking the tree,
/// and every ancestor of an entry is a directory entry before it.
///
/// `blocks` and `files` are running totals of the nodes' on-image blocks
/// and of the file nodes, and each directory carries its children's FID
/// bytes and count: every mutation adds exactly what it grows the image
/// by, so `FsTree::image_bytes` and `FsTree::file_count` are field
/// reads, and a call that fails changes neither the tree nor them.
#[derive(Clone, Debug, PartialEq)]
pub struct FsTree {
    nodes: BTreeMap<Path, FsNode>,
    blocks: u64,
    files: usize,
}

impl Default for FsTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FsTree {
    /// Creates an empty tree (just the root directory).
    pub fn new() -> Self {
        Self::from_nodes(BTreeMap::from([(Path::root(), FsNode::EMPTY_DIR)]))
    }

    /// Every node in path order, the root first (what the on-image
    /// serializer walks).
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (&Path, &FsNode)> {
        self.nodes.iter()
    }

    /// A tree of parsed nodes, whose directories carry their totals,
    /// counted once.
    pub(crate) fn from_nodes(nodes: BTreeMap<Path, FsNode>) -> Self {
        let blocks = nodes.values().map(FsNode::blocks).sum();
        let files = nodes
            .values()
            .filter(|n| matches!(n, FsNode::File { .. }))
            .count();
        FsTree {
            nodes,
            blocks,
            files,
        }
    }

    /// The node at the path `key` spells, looked up by the borrowed
    /// string.
    fn node_at(&self, key: &str) -> Option<&FsNode> {
        self.nodes.get(&key as &dyn PathKey)
    }

    /// Returns true if the path names an existing directory.
    pub fn is_dir(&self, path: &Path) -> bool {
        matches!(self.nodes.get(path), Some(FsNode::Dir { .. }))
    }

    fn file(&self, path: &Path) -> Result<(&FileMeta, &Bytes), TreeError> {
        match self.nodes.get(path) {
            Some(FsNode::File { meta, data }) => Ok((meta, data)),
            Some(FsNode::Dir { .. }) => Err(TreeError::IsADirectory(path.to_string())),
            None => Err(TreeError::NotFound(path.to_string())),
        }
    }

    /// Returns a file's metadata.
    pub(crate) fn stat(&self, path: &Path) -> Result<FileMeta, TreeError> {
        self.file(path).map(|(meta, _)| meta.clone())
    }

    /// Returns a file's contents (a refcounted handle, not a copy).
    pub(crate) fn read(&self, path: &Path) -> Result<Bytes, TreeError> {
        self.file(path).map(|(_, data)| data.clone())
    }

    /// Blocks the image grows by when a node of `node_blocks` is created
    /// at `path` together with its missing ancestors, and the length of
    /// the prefix of `path`'s string that names its deepest existing
    /// directory (0 for the root) — or the error that creation fails
    /// with. Touches nothing: [`FsTree::create`] runs it before its first
    /// mutation, and §4.5's admission check reads the same number through
    /// [`FsTree::cost_of_insert`]. Ancestors are looked up by borrowed
    /// prefix, deepest first, so no `Path` is built for one.
    fn growth(&self, path: &Path, node_blocks: u64) -> Result<(u64, usize), TreeError> {
        let invalid = || TreeError::InvalidPath(path.to_string());
        if path.is_root() {
            return Err(invalid());
        }
        match self.nodes.get(path) {
            Some(FsNode::File { .. }) => return Err(TreeError::AlreadyExists(path.to_string())),
            Some(FsNode::Dir { .. }) => return Err(TreeError::IsADirectory(path.to_string())),
            None => {}
        }
        // Climb to the deepest entry that exists. Every ancestor of an
        // entry exists, so a file there is the one file on the way.
        let repr = path.as_str();
        let mut end = repr.len();
        let (dir_end, fids) = loop {
            end = repr
                .get(..end)
                .and_then(|s| s.rfind('/'))
                .ok_or_else(invalid)?;
            let dir = dir_prefix(repr, end);
            match self.node_at(dir) {
                None => {}
                Some(FsNode::Dir { fid_bytes, .. }) => break (end, *fid_bytes),
                Some(FsNode::File { .. }) => return Err(TreeError::NotADirectory(dir.into())),
            }
        };
        // The names after it are created. What the image format cannot
        // hold is refused here, at the write, and not when the bucket
        // seals.
        let mut created = repr.get(dir_end + 1..).unwrap_or("").split('/');
        if path.components().count() > MAX_DEPTH || created.clone().any(|c| c.len() > MAX_NAME_LEN)
        {
            return Err(invalid());
        }
        // The deepest existing directory gains one FID; every new
        // directory is an ICB block plus the FID data of its one child.
        let first_new = created.next().unwrap_or("");
        let grown = blocks_for(fids + fid_cost(first_new)) - blocks_for(fids);
        let new_dirs: u64 = created.map(|child| 1 + blocks_for(fid_cost(child))).sum();
        Ok((node_blocks + grown + new_dirs, dir_end))
    }

    /// Creates `node` at `path` with its missing ancestors (mkdir -p on
    /// the parent) and adds what that grew the image by to the total —
    /// unless that is more than `room` bytes: `Ok(Err(needed))` is §4.5's
    /// refusal, charged as [`FsTree::cost_of_insert`] charges.
    fn create(
        &mut self,
        path: &Path,
        node: FsNode,
        node_blocks: u64,
        room: u64,
    ) -> Result<Result<(), u64>, TreeError> {
        let grown = self.growth(path, node_blocks);
        let needed = grown.as_ref().map_or(node_blocks, |(blocks, _)| *blocks) * BLOCK_SIZE;
        if needed > room {
            return Ok(Err(needed));
        }
        let (grown, mut dir_end) = grown?;
        // `growth` found the directory `dir_end` bytes name, and every
        // deeper ancestor absent. Each directory from there down gains
        // the next name as a child: the existing one adds it to its
        // totals, each created one holds it alone. The node goes in
        // under the caller's own path.
        let repr = path.as_str();
        for name in repr[dir_end + 1..].split('/') {
            let dir = dir_prefix(repr, dir_end);
            match self.nodes.get_mut(&dir as &dyn PathKey) {
                Some(FsNode::Dir {
                    fid_bytes,
                    children,
                }) => {
                    *fid_bytes += fid_cost(name);
                    *children += 1;
                }
                _ => {
                    let holds_one = FsNode::Dir {
                        fid_bytes: fid_cost(name),
                        children: 1,
                    };
                    self.nodes.insert(Path { repr: dir.into() }, holds_one);
                }
            }
            dir_end += 1 + name.len();
        }
        self.nodes.insert(path.clone(), node);
        self.blocks += grown;
        Ok(Ok(()))
    }

    /// [`FsTree::insert`] under §4.5's admission rule: the file goes in
    /// only if the image grows by at most `room` bytes, and the bytes it
    /// needs come back as `Ok(Err(needed))` otherwise.
    pub(crate) fn insert_within(
        &mut self,
        path: &Path,
        data: Bytes,
        mtime_nanos: u64,
        room: u64,
    ) -> Result<Result<(), u64>, TreeError> {
        let meta = FileMeta {
            size: data.len() as u64,
            mtime_nanos,
        };
        let node = FsNode::File { meta, data };
        let blocks = node.blocks();
        let fit = self.create(path, node, blocks, room)?;
        if fit.is_ok() {
            self.files += 1;
        }
        Ok(fit)
    }

    /// Inserts a file, creating ancestor directories (the unique-file-path
    /// write of §4.4). Fails if the exact path already holds a file.
    pub fn insert(
        &mut self,
        path: &Path,
        data: impl Into<Bytes>,
        mtime_nanos: u64,
    ) -> Result<(), TreeError> {
        // Nothing needs more than unbounded room.
        self.insert_within(path, data.into(), mtime_nanos, u64::MAX)
            .map(|_fits| ())
    }

    /// Overwrites an existing file's contents in place (only legal while
    /// the image is an updatable bucket; §4.6). Creates nothing.
    pub(crate) fn update(
        &mut self,
        path: &Path,
        data: impl Into<Bytes>,
        mtime_nanos: u64,
    ) -> Result<(), TreeError> {
        match self.nodes.get_mut(path) {
            Some(FsNode::File { meta, data: d }) => {
                *d = data.into();
                self.blocks = self.blocks - blocks_for(meta.size) + blocks_for(d.len() as u64);
                meta.size = d.len() as u64;
                meta.mtime_nanos = mtime_nanos;
                Ok(())
            }
            Some(FsNode::Dir { .. }) => Err(TreeError::IsADirectory(path.to_string())),
            None => Err(TreeError::NotFound(path.to_string())),
        }
    }

    /// Creates a directory path (mkdir -p).
    pub fn mkdir_p(&mut self, path: &Path) -> Result<(), TreeError> {
        match self.nodes.get(path) {
            Some(FsNode::Dir { .. }) => Ok(()),
            Some(FsNode::File { .. }) => Err(TreeError::NotADirectory(path.to_string())),
            None => self
                .create(path, FsNode::EMPTY_DIR, 1, u64::MAX)
                .map(|_fits| ()),
        }
    }

    /// Every file in path order, as `(path, meta)`.
    pub(crate) fn walk_files(&self) -> Vec<(Path, FileMeta)> {
        let file = |(path, node): (&Path, &FsNode)| match node {
            FsNode::File { meta, .. } => Some((path.clone(), meta.clone())),
            FsNode::Dir { .. } => None,
        };
        self.nodes.iter().filter_map(file).collect()
    }

    /// Counts files in the tree.
    pub(crate) fn file_count(&self) -> usize {
        self.files
    }

    /// Total on-image bytes: every node's ICB block, every directory's
    /// FID data blocks, every file's data blocks, plus the fixed volume
    /// descriptor overhead of [`crate::format`].
    pub(crate) fn image_bytes(&self) -> u64 {
        (OVERHEAD_BLOCKS + self.blocks) * BLOCK_SIZE
    }

    /// Checks the running totals, the tree's and each directory's,
    /// against a recount of the whole map, and that every entry's parent
    /// is a directory entry.
    #[cfg(any(test, debug_assertions))]
    pub fn debug_assert_totals(&self) {
        assert_eq!(
            (self.blocks, self.files),
            (
                self.nodes.values().map(FsNode::blocks).sum(),
                self.nodes
                    .values()
                    .filter(|n| matches!(n, FsNode::File { .. }))
                    .count()
            ),
            "running block/file totals drifted from the tree"
        );
        let dirs = recount_dirs(self.nodes.keys());
        for dir in dirs.keys() {
            assert!(
                matches!(self.node_at(dir), Some(FsNode::Dir { .. })),
                "{dir} holds entries but is no directory"
            );
        }
        for (path, node) in &self.nodes {
            if let FsNode::Dir {
                fid_bytes,
                children,
            } = node
            {
                let recounted = dirs.get(path.as_str()).copied().unwrap_or_default();
                assert_eq!(
                    (*fid_bytes, *children),
                    recounted,
                    "{path}: running FID totals drifted from its children"
                );
            }
        }
    }

    /// The on-image cost of adding a `size`-byte file at `path`, exactly:
    /// its entry and data blocks, the FID-data growth of the deepest
    /// existing directory and every ancestor directory that would be
    /// created (§4.5's admission check); `None` for a path
    /// [`FsTree::insert`] would refuse (the insert reports why).
    pub(crate) fn cost_of_insert(&self, path: &Path, size: u64) -> Option<u64> {
        let file = 1 + blocks_for(size);
        let (blocks, _) = self.growth(path, file).ok()?;
        Some(blocks * BLOCK_SIZE)
    }

    /// A tree of `nodes` as given, each directory's totals recounted from
    /// the entries below it: how a test builds what `insert` refuses.
    #[cfg(test)]
    pub(crate) fn from_entries(nodes: impl IntoIterator<Item = (Path, FsNode)>) -> Self {
        let mut nodes: BTreeMap<Path, FsNode> = nodes.into_iter().collect();
        nodes.entry(Path::root()).or_insert(FsNode::EMPTY_DIR);
        let dirs: BTreeMap<String, (u64, usize)> = recount_dirs(nodes.keys())
            .into_iter()
            .map(|(dir, totals)| (dir.to_owned(), totals))
            .collect();
        for (path, node) in &mut nodes {
            if let FsNode::Dir {
                fid_bytes,
                children,
            } = node
            {
                (*fid_bytes, *children) = dirs.get(path.as_str()).copied().unwrap_or_default();
            }
        }
        Self::from_nodes(nodes)
    }
}

/// Each directory's FID bytes and child count, recounted from the paths
/// one component below it, keyed by the directory's string.
#[cfg(any(test, debug_assertions))]
fn recount_dirs<'a>(paths: impl Iterator<Item = &'a Path>) -> BTreeMap<&'a str, (u64, usize)> {
    let mut dirs: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for path in paths {
        let Some((dir, name)) = path.as_str().rsplit_once('/').filter(|_| !path.is_root()) else {
            continue;
        };
        let totals = dirs.entry(dir_prefix(dir, dir.len())).or_default();
        totals.0 += fid_cost(name);
        totals.1 += 1;
    }
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn path_parsing() {
        let comps = |s: &str| p(s).components().collect::<Vec<_>>().join(",");
        assert_eq!(comps("/"), "");
        assert_eq!(comps("/a/b/c"), "a,b,c");
        assert_eq!(comps("/a/b/"), "a,b");
        assert!(Path::parse("relative").is_err());
        assert!(Path::parse("/a/../b").is_err());
        assert!(Path::parse("/a/./b").is_err());
        assert_eq!(p("/a/b").to_string(), "/a/b");
        assert_eq!(p("/").to_string(), "/");
        assert_eq!(p("/a/b").parent().unwrap(), p("/a"));
        assert!(p("/").parent().is_none());
        assert_eq!(p("/a").join("b"), p("/a/b"));
        assert!(p("/a/b").starts_with(&p("/a")));
        assert!(!p("/ab").starts_with(&p("/a")));
    }

    // The word-at-a-time compare against its definition: the first
    // differing byte ranked, `'/'` lowest, or else the shorter first.
    // Strings over bytes on both sides of `'/'`, long enough to differ
    // in, before and after every eight-byte word.
    proptest::proptest! {
        #[test]
        fn cmp_is_the_byte_rank_order(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..40,
        ) {
            use rand::{Rng, SeedableRng};
            let definition = |a: &str, b: &str| {
                let (a, b) = (a.as_bytes(), b.as_bytes());
                match a.iter().zip(b).find(|(x, y)| x != y) {
                    Some((&x, &y)) => rank(x).cmp(&rank(y)),
                    None => a.len().cmp(&b.len()),
                }
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let alphabet = b"/ -.0a\x01\x7f";
            let base: String = (0..len)
                .map(|_| char::from(alphabet[rng.gen::<usize>() % alphabet.len()]))
                .collect();
            // The other string shares a prefix of any length, then
            // differs or stops.
            let keep = rng.gen::<usize>() % (len + 1);
            let tail: String = (0..rng.gen::<usize>() % 12)
                .map(|_| char::from(alphabet[rng.gen::<usize>() % alphabet.len()]))
                .collect();
            let other = format!("{}{tail}", &base[..keep]);
            let path = |s: &str| Path { repr: s.into() };
            let (a, b) = (path(&base), path(&other));
            proptest::prop_assert_eq!(a.cmp(&b), definition(&base, &other));
            proptest::prop_assert_eq!(b.cmp(&a), definition(&other, &base));
            proptest::prop_assert_eq!(a.cmp(&a), Ordering::Equal);
            let (ka, kb): (&dyn PathKey, &dyn PathKey) = (&base.as_str(), &other.as_str());
            proptest::prop_assert_eq!(ka.cmp(kb), a.cmp(&b));
        }
    }

    #[test]
    fn join_takes_one_component() {
        assert_eq!(p("/").join("a"), p("/a"));
        assert_eq!(p("/a").join("b c").components().count(), 2);
        // A join may build names no parse admits (the readdir sentinel's
        // NUL): the one string still holds exactly one more component.
        let sentinel = p("/a").join("b\0");
        assert_eq!(sentinel.name(), Some("b\0"));
        assert_eq!(sentinel.parent(), Some(p("/a")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Path::join takes one component")]
    fn join_refuses_a_slash() {
        // Under one string "/a" + "b/c" would be "/a/b/c", a path of
        // three components that no caller asked for.
        let _ = p("/a").join("b/c");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Path::join takes one component")]
    fn join_refuses_an_empty_name() {
        let _ = p("/a").join("");
    }

    #[test]
    fn interior_empty_components_are_rejected() {
        // "/a//b" must NOT alias "/a/b": under the unique-file-path
        // mechanism (§4.4) the path string is the identity of the file,
        // so two spellings resolving to the same components is namespace
        // aliasing. Only a single trailing slash is normalised.
        assert!(Path::parse("/a//b").is_err(), "interior empty aliases /a/b");
        assert!(Path::parse("//a").is_err(), "leading double slash");
        assert!(Path::parse("/a//").is_err(), "empty before trailing slash");
        assert!(Path::parse("//").is_err(), "root with interior empty");
        // The documented normalisations still hold.
        assert_eq!(p("/a/b/"), p("/a/b"));
        assert_eq!(p("/").components().count(), 0);
    }

    #[test]
    fn insert_creates_ancestors() {
        let mut t = FsTree::new();
        t.insert(&p("/data/2026/log.txt"), &b"hello"[..], 1)
            .unwrap();
        assert!(t.is_dir(&p("/data")));
        assert!(t.is_dir(&p("/data/2026")));
        let refused = [
            "/data/2026/log.txt",
            "/data/2026/log.txt/under-a-file",
            "/data",
        ];
        for path in refused {
            assert_eq!(t.cost_of_insert(&p(path), 0), None, "{path}");
        }
        assert!(t.cost_of_insert(&p("/data/2026/other.txt"), 0).is_some());
        assert_eq!(t.read(&p("/data/2026/log.txt")).unwrap().as_ref(), b"hello");
        assert_eq!(t.stat(&p("/data/2026/log.txt")).unwrap().size, 5);
    }

    #[test]
    fn insert_conflicts() {
        let mut t = FsTree::new();
        t.insert(&p("/a/f"), &b"x"[..], 0).unwrap();
        assert_eq!(
            t.insert(&p("/a/f"), &b"y"[..], 0).unwrap_err(),
            TreeError::AlreadyExists("/a/f".into())
        );
        assert_eq!(
            t.insert(&p("/a"), &b"y"[..], 0).unwrap_err(),
            TreeError::IsADirectory("/a".into())
        );
        // A file cannot become a directory.
        assert!(matches!(
            t.insert(&p("/a/f/deeper"), &b"y"[..], 0).unwrap_err(),
            TreeError::NotADirectory(_)
        ));
        assert!(t.insert(&p("/"), &b"y"[..], 0).is_err());
    }

    #[test]
    fn update_overwrites_in_place() {
        let mut t = FsTree::new();
        t.insert(&p("/f"), &b"v1"[..], 1).unwrap();
        t.update(&p("/f"), &b"version2"[..], 2).unwrap();
        let m = t.stat(&p("/f")).unwrap();
        assert_eq!(m.size, 8);
        assert_eq!(m.mtime_nanos, 2);
        assert_eq!(
            t.update(&p("/missing"), &b""[..], 3).unwrap_err(),
            TreeError::NotFound("/missing".into())
        );
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut t = FsTree::new();
        t.mkdir_p(&p("/x/y/z")).unwrap();
        t.mkdir_p(&p("/x/y/z")).unwrap();
        t.mkdir_p(&p("/")).unwrap();
        assert!(t.is_dir(&p("/x/y/z")));
        t.insert(&p("/x/f"), &b""[..], 0).unwrap();
        assert!(matches!(
            t.mkdir_p(&p("/x/f")).unwrap_err(),
            TreeError::NotADirectory(_)
        ));
    }

    #[test]
    fn walk_enumerates_everything() {
        let mut t = FsTree::new();
        t.insert(&p("/a/1"), &b"x"[..], 0).unwrap();
        t.insert(&p("/a/2"), &b"xy"[..], 0).unwrap();
        t.insert(&p("/b/c/3"), &b"xyz"[..], 0).unwrap();
        let files = t.walk_files();
        assert_eq!(files.len(), 3);
        assert_eq!(files[0].0, p("/a/1"));
        assert_eq!(files[2].0, p("/b/c/3"));
        assert_eq!(t.file_count(), 3);
    }

    #[test]
    fn image_bytes_accounts_entries_and_data() {
        let mut t = FsTree::new();
        let empty = t.image_bytes();
        // Empty image: overhead + root ICB.
        assert_eq!(empty, (crate::format::OVERHEAD_BLOCKS + 1) * BLOCK_SIZE);
        t.insert(&p("/f"), vec![0u8; 100], 0).unwrap();
        // + file ICB + 1 data block + root FID data block.
        assert_eq!(t.image_bytes(), empty + 3 * BLOCK_SIZE);
        t.insert(&p("/g"), vec![0u8; 5000], 0).unwrap();
        // + file ICB + 3 data blocks (FIDs still fit one block).
        assert_eq!(t.image_bytes(), empty + 3 * BLOCK_SIZE + 4 * BLOCK_SIZE);
    }

    #[test]
    fn cost_of_insert_is_the_growth_of_the_image() {
        let long = "n".repeat(3000);
        let mut t = FsTree::new();
        t.insert(&p("/seed/x"), vec![0u8; 10], 0).unwrap();
        for (case, (path, size)) in [
            (p("/seed/y"), 100u64),
            (p("/new/dir/chain/file"), 5_000),
            (p("/seed/big"), 1 << 20),
            // A new directory whose one child's FID outgrows a block
            // costs more than the flat two blocks once charged for it
            // (the estimate said 16 384, the image grew 18 432).
            (Path::root().join(&long).join(&long).join("f"), 1),
        ]
        .into_iter()
        .enumerate()
        {
            let before = t.image_bytes();
            let cost = t.cost_of_insert(&path, size).unwrap();
            t.insert(&path, vec![0u8; size as usize], 0).unwrap();
            assert_eq!(cost, t.image_bytes() - before, "case {case}");
            t.debug_assert_totals();
        }
        // 50 more children push /seed's FID stream over a block boundary.
        for i in 0..50 {
            let path = p(&format!(
                "/seed/a-sibling-with-a-forty-byte-long-name-{i:02}"
            ));
            let before = t.image_bytes();
            let cost = t.cost_of_insert(&path, 1).unwrap();
            t.insert(&path, vec![0u8; 1], 0).unwrap();
            assert_eq!(cost, t.image_bytes() - before, "{path}");
        }
        t.debug_assert_totals();
    }

    #[test]
    fn a_failed_call_mutates_nothing() {
        let mut t = FsTree::new();
        t.insert(&p("/a/f"), &b"x"[..], 0).unwrap();
        let before = (t.image_bytes(), t.file_count(), t.walk_files());
        let unchanged = |t: &FsTree| {
            assert_eq!((t.image_bytes(), t.file_count(), t.walk_files()), before);
            t.debug_assert_totals();
        };
        // `update` used to reach its parent with mkdir -p: a miss left
        // /ghost/dir behind (6 144 -> 14 336 image bytes on an empty tree).
        assert_eq!(
            t.update(&p("/ghost/dir/f"), &b"y"[..], 1).unwrap_err(),
            TreeError::NotFound("/ghost/dir/f".into())
        );
        assert!(t.update(&p("/a"), &b"y"[..], 1).is_err());
        assert!(!t.is_dir(&p("/ghost")));
        unchanged(&t);
        assert!(t.insert(&p("/a/f"), &b"y"[..], 1).is_err());
        assert!(t.insert(&p("/a"), &b"y"[..], 1).is_err());
        assert_eq!(
            t.insert(&p("/a/f/new/dirs/g"), &b"y"[..], 1).unwrap_err(),
            TreeError::NotADirectory("/a/f".into())
        );
        assert!(t.mkdir_p(&p("/a/f")).is_err());
        assert!(t.mkdir_p(&p("/a/f/new/dirs")).is_err());
        unchanged(&t);
        // The tree refuses what the image format cannot hold before it
        // creates `/new`.
        let unholdable = p("/new").join(&"n".repeat(MAX_NAME_LEN + 1));
        assert!(t.insert(&unholdable.join("g"), &b"y"[..], 1).is_err());
        assert!(t.mkdir_p(&unholdable).is_err());
        assert!(!t.is_dir(&p("/new")));
        unchanged(&t);
    }

    #[test]
    fn the_tree_not_the_parser_refuses_what_an_image_cannot_hold() {
        let mut t = FsTree::new();
        let name = |n: usize| format!("/d/{}", "x".repeat(n));
        t.insert(&p(&name(MAX_NAME_LEN)), &b""[..], 0).unwrap();
        let too_long = p(&name(MAX_NAME_LEN + 1));
        assert_eq!(
            t.insert(&too_long, &b""[..], 0).unwrap_err(),
            TreeError::InvalidPath(too_long.to_string())
        );
        t.mkdir_p(&p(&"/e".repeat(MAX_DEPTH))).unwrap();
        assert!(t.mkdir_p(&p(&"/e".repeat(MAX_DEPTH + 1))).is_err());
        t.debug_assert_totals();
        // A `Path` is syntax: whatever `join` builds, its string parses
        // back to it, so a stored path survives a snapshot whatever a
        // tree would say about it.
        let joined = p("/d").join(&format!(".rosv2-{}", "x".repeat(MAX_NAME_LEN)));
        assert_eq!(p(&joined.to_string()), joined);
    }
}
