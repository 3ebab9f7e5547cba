//! Property tests for the namespace layer:
//!
//! - `Path` parse∘Display round-trips exactly, a single trailing slash
//!   is the only tolerated decoration, and interior empty components
//!   are always rejected (the aliasing bug class this layer fixes);
//! - distinct parsed paths never alias a `PathIndex` slot: inserting n
//!   distinct paths yields n live entries, each resolving to its own
//!   value, even when every key is forced through one collision chain;
//! - a `Bucket` — one `FsTree` with running block and file totals —
//!   behaves as a flat map from path to contents under random writes,
//!   updates and recycles, refuses what the map says it must, accounts
//!   every admitted byte exactly, and seals into the image the map
//!   describes.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use ros_udf::block::file_cost;
use ros_udf::{
    blocks_for, Bucket, BucketError, PathIndex, SealedImage, TreeError, UdfPath, BLOCK_SIZE,
};
use std::collections::BTreeMap;

const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";

/// A random well-formed absolute path, 1–5 components deep.
fn random_path(rng: &mut impl Rng) -> String {
    let depth = 1 + rng.gen::<usize>() % 5;
    let mut s = String::new();
    for _ in 0..depth {
        s.push('/');
        loop {
            let len = 1 + rng.gen::<usize>() % 12;
            let c: String = (0..len)
                .map(|_| CHARS[rng.gen::<usize>() % CHARS.len()] as char)
                .collect();
            // `.` and `..` are reserved and rejected by the parser.
            if c != "." && c != ".." {
                s.push_str(&c);
                break;
            }
        }
    }
    s
}

/// The executable model of a bucket: path → (contents, mtime). Its
/// directories are the proper prefixes of its keys — a bucket never
/// removes one file, so none outlives its files.
type Model = BTreeMap<String, (Vec<u8>, u64)>;

/// A path over so few names that duplicates, files used as directories
/// and directories used as files all come up. Every name byte sorts
/// above `/`, so the model's string order is the tree's path order.
fn colliding_path(rng: &mut impl Rng) -> String {
    let depth = 1 + rng.gen::<usize>() % 3;
    (0..depth)
        .map(|_| ["/a", "/b", "/c0", "/d"][rng.gen::<usize>() % 4])
        .collect()
}

fn is_dir_in(model: &Model, path: &str) -> bool {
    let below = format!("{path}/");
    model.keys().any(|k| k.starts_with(&below))
}

/// What the tree must answer to a write at `path`, if it refuses.
fn write_conflict(model: &Model, path: &str) -> Option<TreeError> {
    if model.contains_key(path) {
        return Some(TreeError::AlreadyExists(path.into()));
    }
    if is_dir_in(model, path) {
        return Some(TreeError::IsADirectory(path.into()));
    }
    // A file among the ancestors is named by its own path.
    path.match_indices('/')
        .skip(1)
        .find(|(i, _)| model.contains_key(&path[..*i]))
        .map(|(i, _)| TreeError::NotADirectory(path[..i].into()))
}

/// `read`/`stat`/`contains` of `ns` (a bucket's or an image's) agree with
/// the model on every key, on its parent directory and on an absent
/// sibling.
macro_rules! assert_resolves_like {
    ($ns:expr, $model:expr) => {
        for (key, (data, mtime)) in $model {
            let path: UdfPath = key.parse().unwrap();
            let read = $ns.read(&path).unwrap();
            prop_assert_eq!(read.as_ref(), data.as_slice());
            let meta = $ns.stat(&path).unwrap();
            prop_assert_eq!((meta.size, meta.mtime_nanos), (data.len() as u64, *mtime));
            prop_assert!($ns.contains(&path));
            let parent = path.parent().unwrap();
            if !parent.is_root() {
                let is_a_directory = TreeError::IsADirectory(parent.to_string());
                prop_assert_eq!($ns.read(&parent).unwrap_err(), is_a_directory.clone());
                prop_assert_eq!($ns.stat(&parent).unwrap_err(), is_a_directory);
                prop_assert!(!$ns.contains(&parent));
            }
            let absent = parent.join("absent");
            let not_found = TreeError::NotFound(absent.to_string());
            prop_assert_eq!($ns.read(&absent).unwrap_err(), not_found.clone());
            prop_assert_eq!($ns.stat(&absent).unwrap_err(), not_found);
            prop_assert!(!$ns.contains(&absent));
        }
    };
}

proptest! {
    #[test]
    fn bucket_matches_a_flat_map_model(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Small enough that a run of writes fills it.
        let capacity = (24 + rng.gen::<u64>() % 40) * BLOCK_SIZE;
        let mut bucket = Bucket::new(seed, capacity);
        let empty_bytes = bucket.used_bytes();
        let mut model = Model::new();
        for step in 1..=80u64 {
            let key = colliding_path(&mut rng);
            let path: UdfPath = key.parse().unwrap();
            let data = vec![step as u8; rng.gen::<usize>() % (3 * BLOCK_SIZE as usize)];
            let size = data.len() as u64;
            let (used, free) = (bucket.used_bytes(), bucket.free_bytes());
            match rng.gen::<u32>() % 10 {
                0 => {
                    bucket.recycle(seed + step);
                    model.clear();
                    prop_assert_eq!(bucket.image_id(), seed + step);
                    prop_assert_eq!(bucket.used_bytes(), empty_bytes);
                }
                1..=3 => {
                    let got = bucket.update(&path, data.clone(), step);
                    let data_bytes = |len: usize| blocks_for(len as u64) * BLOCK_SIZE;
                    let new = data_bytes(data.len());
                    match model.get(&key).map(|(old, _)| data_bytes(old.len())) {
                        Some(old) if new > old + free => {
                            let needed = new - old;
                            prop_assert_eq!(got, Err(BucketError::WontFit { needed, free }));
                        }
                        Some(old) => {
                            prop_assert_eq!(got, Ok(()));
                            model.insert(key, (data, step));
                            prop_assert_eq!(bucket.used_bytes() + old, used + new);
                        }
                        None => {
                            let miss = if is_dir_in(&model, &key) {
                                TreeError::IsADirectory(key)
                            } else {
                                TreeError::NotFound(key)
                            };
                            prop_assert_eq!(got, Err(BucketError::Tree(miss)));
                        }
                    }
                }
                _ => {
                    let cost = bucket.cost_of(&path, size);
                    let got = bucket.write(&path, data.clone(), step);
                    match write_conflict(&model, &key) {
                        // A refused path is charged the file alone.
                        Some(_) if file_cost(size) > free => {
                            prop_assert_eq!(got, Err(BucketError::WontFit { needed: file_cost(size), free }));
                        }
                        Some(conflict) => prop_assert_eq!(got, Err(BucketError::Tree(conflict))),
                        None if cost > free => {
                            prop_assert_eq!(got, Err(BucketError::WontFit { needed: cost, free }));
                        }
                        None => {
                            prop_assert_eq!(got, Ok(()));
                            model.insert(key, (data, step));
                            // §4.5: the admission charge is the growth.
                            prop_assert_eq!(bucket.used_bytes(), used + cost);
                        }
                    }
                }
            }
            // A refusal changed nothing; every byte is accounted for.
            if model.is_empty() {
                prop_assert_eq!(bucket.used_bytes(), empty_bytes);
            }
            prop_assert_eq!(bucket.is_empty(), model.is_empty());
            prop_assert_eq!(bucket.used_bytes() + bucket.free_bytes(), capacity);
            assert_resolves_like!(bucket, &model);
        }

        // The seal is the external recount: the image is as long as the
        // running total said, and holds what the model holds, in order.
        let image = bucket.close().unwrap();
        prop_assert_eq!(image.len(), bucket.used_bytes());
        let reparsed = SealedImage::from_bytes(image.bytes().clone()).unwrap();
        for image in [&image, &reparsed] {
            prop_assert_eq!(image.is_empty(), model.is_empty());
            let scanned: Vec<(String, u64, u64)> = image
                .scan_files()
                .into_iter()
                .map(|(p, m)| (p.to_string(), m.size, m.mtime_nanos))
                .collect();
            let expected: Vec<(String, u64, u64)> = model
                .iter()
                .map(|(k, (d, t))| (k.clone(), d.len() as u64, *t))
                .collect();
            prop_assert_eq!(scanned, expected);
            assert_resolves_like!(image, &model);
            let buf = image.bytes().as_ptr_range();
            for key in model.keys() {
                let data = image.read(&key.parse().unwrap()).unwrap();
                let slice = data.as_ptr_range();
                prop_assert!(
                    data.is_empty() || (buf.start <= slice.start && slice.end <= buf.end),
                    "read() must be a slice of the image buffer"
                );
            }
        }
    }

    #[test]
    fn parse_display_roundtrip(seed in 0u64..400) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let s = random_path(&mut rng);
            let p: UdfPath = s.parse().unwrap();
            // Display is the exact inverse of parse.
            prop_assert_eq!(p.to_string(), s.clone());
            let again: UdfPath = p.to_string().parse().unwrap();
            prop_assert_eq!(&again, &p);
            // A single trailing slash normalizes to the same path...
            let trailing: UdfPath = format!("{s}/").parse().unwrap();
            prop_assert_eq!(&trailing, &p);
            // ...but interior or doubled empties must be rejected, not
            // collapsed into an aliasing sibling of `p`.
            let double_trailing = format!("{s}//");
            prop_assert!(double_trailing.parse::<UdfPath>().is_err());
            let double_leading = format!("/{s}");
            prop_assert!(double_leading.parse::<UdfPath>().is_err());
            let doubled = s.replacen('/', "//", 1);
            prop_assert!(doubled.parse::<UdfPath>().is_err());
        }
    }

    #[test]
    fn distinct_paths_never_share_a_slot(seed in 0u64..300) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // One initial bucket: every key starts in the same chain, so
        // aliasing would be caught even across forced collisions; the
        // table still grows (and redistributes) past the chain ceiling.
        let mut index: PathIndex<u32> = PathIndex::with_seed_and_buckets(seed, 1);
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        for i in 0..120u32 {
            let s = random_path(&mut rng);
            let p: UdfPath = s.parse().unwrap();
            let in_model = model.insert(s, i);
            let in_index = index.insert(p, i);
            // Replacement happens exactly when the string key repeats:
            // two distinct paths never land in one slot.
            prop_assert_eq!(in_index, in_model);
        }
        prop_assert_eq!(index.len(), model.len());
        for (s, v) in &model {
            let p: UdfPath = s.parse().unwrap();
            prop_assert_eq!(index.get(&p), Some(v));
        }
        // Removing half the keys leaves the other half untouched.
        let keys: Vec<String> = model.keys().cloned().collect();
        for s in keys.iter().step_by(2) {
            let p: UdfPath = s.parse().unwrap();
            prop_assert_eq!(index.remove(&p), model.remove(s).as_ref().copied());
        }
        prop_assert_eq!(index.len(), model.len());
        for (s, v) in &model {
            let p: UdfPath = s.parse().unwrap();
            prop_assert_eq!(index.get(&p), Some(v));
        }
    }
}
