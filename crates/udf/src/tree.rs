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
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A normalised absolute path ("/a/b/c"; "/" is the root).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Path {
    components: Vec<String>,
}

impl Path {
    /// The root path "/".
    pub fn root() -> Self {
        Path {
            components: Vec::new(),
        }
    }

    /// Parses and normalises an absolute path.
    ///
    /// Rejects relative paths, empty components, `.` and `..`.
    pub fn parse(s: &str) -> Result<Self, TreeError> {
        if !s.starts_with('/') {
            return Err(TreeError::InvalidPath(s.to_string()));
        }
        let mut components = Vec::new();
        let mut parts = s.split('/').skip(1).peekable();
        while let Some(c) = parts.next() {
            if c.is_empty() {
                // Allow a single trailing slash ("/a/b/" == "/a/b") but
                // reject interior empties: "/a//b" must not alias "/a/b"
                // (the path string is the file's identity, §4.4).
                if parts.peek().is_none() {
                    continue;
                }
                return Err(TreeError::InvalidPath(s.to_string()));
            }
            if c == "." || c == ".." || c.contains('\0') {
                return Err(TreeError::InvalidPath(s.to_string()));
            }
            components.push(c.to_string());
        }
        Ok(Path { components })
    }

    /// Returns the path components.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Returns the final component (file name), or `None` for the root.
    pub fn name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// Returns the parent path, or `None` for the root.
    pub fn parent(&self) -> Option<Path> {
        if self.components.is_empty() {
            None
        } else {
            Some(Path {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Returns this path extended with one more component.
    pub fn join(&self, name: &str) -> Path {
        let mut components = self.components.clone();
        components.push(name.to_string());
        Path { components }
    }

    /// True for the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// True if `self` is `other` or a descendant of it.
    pub fn starts_with(&self, other: &Path) -> bool {
        self.components.len() >= other.components.len()
            && self.components[..other.components.len()] == other.components[..]
    }
}

impl core::fmt::Display for Path {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.components.is_empty() {
            write!(f, "/")
        } else {
            for c in &self.components {
                write!(f, "/{c}")?;
            }
            Ok(())
        }
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

/// One node in the tree.
#[derive(Clone, Debug, PartialEq)]
pub enum FsNode {
    /// A regular file with real contents.
    File {
        /// Metadata.
        meta: FileMeta,
        /// The file data.
        data: Bytes,
    },
    /// A directory mapping child names to nodes.
    Dir {
        /// Children in name order.
        children: BTreeMap<String, FsNode>,
    },
}

impl FsNode {
    fn empty_dir() -> FsNode {
        FsNode::Dir {
            children: BTreeMap::new(),
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
pub fn fid_cost(name: &str) -> u64 {
    1 + 4 + name.len() as u64 + 8
}

/// Bytes of a directory's whole FID stream.
pub(crate) fn fid_bytes(children: &BTreeMap<String, FsNode>) -> u64 {
    children.keys().map(|n| fid_cost(n)).sum()
}

/// On-image blocks and file count of the subtree at `node`: a file is its
/// ICB block plus data blocks, a directory its ICB block plus the blocks
/// of its FID stream plus its children.
fn count(node: &FsNode) -> (u64, usize) {
    match node {
        FsNode::File { meta, .. } => (1 + blocks_for(meta.size), 1),
        FsNode::Dir { children } => children.values().map(count).fold(
            (1 + blocks_for(fid_bytes(children)), 0),
            |(b, f), (cb, cf)| (b + cb, f + cf),
        ),
    }
}

fn find<'a>(root: &'a FsNode, path: &Path) -> Option<&'a FsNode> {
    path.components().iter().try_fold(root, |cur, c| match cur {
        FsNode::Dir { children } => children.get(c),
        FsNode::File { .. } => None,
    })
}

fn find_mut<'a>(root: &'a mut FsNode, path: &Path) -> Option<&'a mut FsNode> {
    path.components().iter().try_fold(root, |cur, c| match cur {
        FsNode::Dir { children } => children.get_mut(c),
        FsNode::File { .. } => None,
    })
}

/// A whole image's file tree — the one namespace structure of a bucket
/// and of a sealed image.
///
/// `blocks` and `files` are running totals of the nodes' on-image blocks
/// and of the file nodes: every mutation adds exactly what it grows the
/// image by, so [`FsTree::image_bytes`] and [`FsTree::file_count`] are
/// field reads, and a call that fails changes neither the tree nor them.
#[derive(Clone, Debug, PartialEq)]
pub struct FsTree {
    root: FsNode,
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
        Self::from_root(FsNode::empty_dir())
    }

    /// Returns the root node (used by the on-image serializer).
    pub(crate) fn root_node(&self) -> &FsNode {
        &self.root
    }

    /// Rebuilds a tree around a parsed root node, counting it once.
    pub(crate) fn from_root(root: FsNode) -> Self {
        let (blocks, files) = count(&root);
        FsTree {
            root,
            blocks,
            files,
        }
    }

    /// Returns true if the path names an existing file.
    pub fn is_file(&self, path: &Path) -> bool {
        matches!(find(&self.root, path), Some(FsNode::File { .. }))
    }

    /// Returns true if the path names an existing directory.
    pub fn is_dir(&self, path: &Path) -> bool {
        matches!(find(&self.root, path), Some(FsNode::Dir { .. }))
    }

    fn file(&self, path: &Path) -> Result<(&FileMeta, &Bytes), TreeError> {
        match find(&self.root, path) {
            Some(FsNode::File { meta, data }) => Ok((meta, data)),
            Some(FsNode::Dir { .. }) => Err(TreeError::IsADirectory(path.to_string())),
            None => Err(TreeError::NotFound(path.to_string())),
        }
    }

    /// Returns a file's metadata.
    pub fn stat(&self, path: &Path) -> Result<FileMeta, TreeError> {
        self.file(path).map(|(meta, _)| meta.clone())
    }

    /// Returns a file's contents (a refcounted handle, not a copy).
    pub fn read(&self, path: &Path) -> Result<Bytes, TreeError> {
        self.file(path).map(|(_, data)| data.clone())
    }

    /// Blocks the image grows by when a node of `node_blocks` is created
    /// at `path` together with its missing ancestors — or the error that
    /// creation fails with. Touches nothing: [`FsTree::create`] runs it
    /// before its first mutation, and §4.5's admission check reads the
    /// same number through [`FsTree::cost_of_insert`].
    fn growth(&self, path: &Path, node_blocks: u64) -> Result<u64, TreeError> {
        let invalid = || TreeError::InvalidPath(path.to_string());
        let comps = path.components();
        if comps.is_empty() {
            return Err(invalid());
        }
        // Walk down the directories that exist.
        let FsNode::Dir { children } = &self.root else {
            return Err(TreeError::NotADirectory("/".into()));
        };
        let (mut children, mut depth) = (children, 0);
        loop {
            let last = depth + 1 == comps.len();
            match children.get(&comps[depth]) {
                None => break,
                Some(FsNode::Dir { children: below }) if !last => {
                    (children, depth) = (below, depth + 1);
                }
                Some(FsNode::File { .. }) if !last => {
                    let file = Path {
                        components: comps[..=depth].to_vec(),
                    };
                    return Err(TreeError::NotADirectory(file.to_string()));
                }
                Some(FsNode::File { .. }) => {
                    return Err(TreeError::AlreadyExists(path.to_string()))
                }
                Some(FsNode::Dir { .. }) => return Err(TreeError::IsADirectory(path.to_string())),
            }
        }
        // `comps[depth..]` are created. What the image format cannot hold
        // is refused here, at the write, and not when the bucket seals.
        if comps.len() > MAX_DEPTH || comps[depth..].iter().any(|c| c.len() > MAX_NAME_LEN) {
            return Err(invalid());
        }
        // The deepest existing directory gains one FID; every new
        // directory is an ICB block plus the FID data of its one child.
        let fids = fid_bytes(children);
        let grown = blocks_for(fids + fid_cost(&comps[depth])) - blocks_for(fids);
        let new_dirs: u64 = comps[depth + 1..]
            .iter()
            .map(|child| 1 + blocks_for(fid_cost(child)))
            .sum();
        Ok(node_blocks + grown + new_dirs)
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
        let needed = *grown.as_ref().unwrap_or(&node_blocks) * BLOCK_SIZE;
        if needed > room {
            return Ok(Err(needed));
        }
        let grown = grown?;
        // `growth` found the leaf absent: the last step opens its slot.
        let mut cur = &mut self.root;
        for c in path.components() {
            let FsNode::Dir { children } = cur else {
                return Err(TreeError::NotADirectory(path.to_string()));
            };
            cur = children.entry(c.clone()).or_insert_with(FsNode::empty_dir);
        }
        *cur = node;
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
        let blocks = 1 + blocks_for(meta.size);
        let fit = self.create(path, FsNode::File { meta, data }, blocks, room)?;
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
    pub fn update(
        &mut self,
        path: &Path,
        data: impl Into<Bytes>,
        mtime_nanos: u64,
    ) -> Result<(), TreeError> {
        match find_mut(&mut self.root, path) {
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
        match find(&self.root, path) {
            Some(FsNode::Dir { .. }) => Ok(()),
            Some(FsNode::File { .. }) => Err(TreeError::NotADirectory(path.to_string())),
            None => self
                .create(path, FsNode::empty_dir(), 1, u64::MAX)
                .map(|_fits| ()),
        }
    }

    /// Visits every file in path order, yielding `(path, meta)`.
    pub fn walk_files(&self) -> Vec<(Path, FileMeta)> {
        let mut out = Vec::new();
        fn rec(node: &FsNode, path: &Path, out: &mut Vec<(Path, FileMeta)>) {
            match node {
                FsNode::File { meta, .. } => out.push((path.clone(), meta.clone())),
                FsNode::Dir { children } => {
                    for (name, child) in children {
                        rec(child, &path.join(name), out);
                    }
                }
            }
        }
        rec(&self.root, &Path::root(), &mut out);
        out
    }

    /// Counts files in the tree.
    pub fn file_count(&self) -> usize {
        self.files
    }

    /// Total on-image bytes: every node's ICB block, every directory's
    /// FID data blocks, every file's data blocks, plus the fixed volume
    /// descriptor overhead of [`crate::format`].
    pub fn image_bytes(&self) -> u64 {
        (OVERHEAD_BLOCKS + self.blocks) * BLOCK_SIZE
    }

    /// Checks the running totals against a recount of the whole tree.
    #[cfg(any(test, debug_assertions))]
    pub fn debug_assert_totals(&self) {
        assert_eq!(
            (self.blocks, self.files),
            count(&self.root),
            "running block/file totals drifted from the tree"
        );
    }

    /// The on-image cost of adding a `size`-byte file at `path`, exactly:
    /// its entry and data blocks, the FID-data growth of the deepest
    /// existing directory and every ancestor directory that would be
    /// created (§4.5's admission check). A path [`FsTree::insert`] would
    /// refuse is charged the file alone; the insert reports why.
    pub fn cost_of_insert(&self, path: &Path, size: u64) -> u64 {
        let file = 1 + blocks_for(size);
        self.growth(path, file).unwrap_or(file) * BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn path_parsing() {
        assert_eq!(p("/").components().len(), 0);
        assert_eq!(p("/a/b/c").components(), &["a", "b", "c"]);
        assert_eq!(p("/a/b/").components(), &["a", "b"]);
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
        assert_eq!(p("/a/b/").components(), &["a", "b"]);
        assert_eq!(p("/").components().len(), 0);
    }

    #[test]
    fn insert_creates_ancestors() {
        let mut t = FsTree::new();
        t.insert(&p("/data/2026/log.txt"), &b"hello"[..], 1)
            .unwrap();
        assert!(t.is_dir(&p("/data")));
        assert!(t.is_dir(&p("/data/2026")));
        assert!(t.is_file(&p("/data/2026/log.txt")));
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
            let cost = t.cost_of_insert(&path, size);
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
            let cost = t.cost_of_insert(&path, 1);
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
