//! Edge cases of the UDF-profile image format: deep trees, long and
//! unicode names, tight capacities, degenerate shapes.

use ros_udf::format::{MAX_DEPTH, MAX_NAME_LEN};
use ros_udf::{Bucket, BucketError, FsTree, SealedImage, TreeError, UdfPath, BLOCK_SIZE};

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

#[test]
fn very_deep_directory_chains_roundtrip() {
    let mut t = FsTree::new();
    let deep: String = (0..60).map(|i| format!("/d{i}")).collect();
    t.insert(&p(&format!("{deep}/leaf")), vec![1u8; 100], 0)
        .unwrap();
    let bytes = ros_udf::format::serialize(&t, 1, 64 * 1024 * 1024).unwrap();
    let img = SealedImage::from_bytes(bytes).unwrap();
    assert_eq!(
        img.read(&p(&format!("{deep}/leaf"))).unwrap().as_ref(),
        &[1u8; 100][..]
    );
}

#[test]
fn unicode_and_long_names_survive() {
    let mut b = Bucket::new(1, 1024 * BLOCK_SIZE);
    let long = "x".repeat(200);
    let names = [
        "файл.txt".to_string(),
        "数据-2026.log".to_string(),
        "emoji-📀.bin".to_string(),
        long,
    ];
    for (i, name) in names.iter().enumerate() {
        b.write(&p(&format!("/dir/{name}")), vec![i as u8; 50], 0)
            .unwrap();
    }
    let img = b.close().unwrap();
    let reparsed = SealedImage::from_bytes(img.bytes().clone()).unwrap();
    for (i, name) in names.iter().enumerate() {
        assert_eq!(
            reparsed.read(&p(&format!("/dir/{name}"))).unwrap().as_ref(),
            vec![i as u8; 50].as_slice(),
            "{name}"
        );
    }
}

#[test]
fn what_no_image_can_hold_is_refused_at_the_write_not_at_seal() {
    // Both were admitted and then panicked in `close()`: "own
    // serialization must parse: Corrupt { .. "FID name out of range" }"
    // for the name, the parser's nesting guard for the path.
    let long = "x".repeat(5000);
    let deep = 301;
    // The limits themselves are admitted, sealed and read back.
    let mut b = Bucket::new(1, 2048 * BLOCK_SIZE);
    let at_limits = [
        p(&format!("/d/{}", "x".repeat(MAX_NAME_LEN))),
        p(&"/d".repeat(MAX_DEPTH)),
    ];
    for path in &at_limits {
        b.write(path, vec![7u8; 10], 0).unwrap();
    }
    // A path is syntax; it is the bucket that refuses what its image
    // cannot hold, however the path was built, and changes nothing.
    let used = b.used_bytes();
    for path in [
        p(&format!("/d/{long}")),
        p("/d").join(&long),
        p(&"/e".repeat(deep)),
    ] {
        assert!(matches!(
            b.write(&path, vec![1u8; 10], 0).unwrap_err(),
            BucketError::Tree(TreeError::InvalidPath(_))
        ));
    }
    assert_eq!(b.used_bytes(), used);
    let img = b.close().unwrap();
    assert_eq!(img.len(), used);
    for path in &at_limits {
        assert_eq!(img.read(path).unwrap().as_ref(), &[7u8; 10][..]);
    }
}

#[test]
fn a_directory_of_one_long_name_is_charged_what_it_costs() {
    // Every new directory was charged a flat two blocks; one whose
    // child's FID outgrows a block costs three, so a nearly full bucket
    // admitted a file it could not seal (16 384 estimated, 18 432 used).
    let long = "n".repeat(3000);
    let path = UdfPath::root().join(&long).join(&long).join("f");
    let empty = Bucket::new(1, 64 * BLOCK_SIZE);
    let cost = empty.cost_of(&path, 1);
    assert_eq!(cost, 9 * BLOCK_SIZE);
    // One block short of that: refused, where the estimate let it in.
    let mut tight = Bucket::new(1, empty.used_bytes() + cost - BLOCK_SIZE);
    assert!(matches!(
        tight.write(&path, vec![1u8], 0).unwrap_err(),
        BucketError::WontFit { .. }
    ));
    let mut exact = Bucket::new(1, empty.used_bytes() + cost);
    exact.write(&path, vec![1u8], 0).unwrap();
    assert_eq!(exact.free_bytes(), 0);
    assert_eq!(exact.close().unwrap().len(), exact.capacity_bytes());
}

#[test]
fn exactly_full_bucket_still_seals() {
    let mut b = Bucket::new(1, 32 * BLOCK_SIZE);
    // Fill with block-sized files until nothing fits.
    let mut i = 0;
    loop {
        let path = p(&format!("/f{i}"));
        if b.write(&path, vec![0u8; BLOCK_SIZE as usize], 0).is_err() {
            break;
        }
        i += 1;
    }
    assert!(i > 0);
    assert!(b.free_bytes() < 4 * BLOCK_SIZE);
    let img = b.close().unwrap();
    assert!(img.len() <= 32 * BLOCK_SIZE);
    assert_eq!(img.scan_files().len(), i);
}

#[test]
fn zero_byte_files_and_empty_dirs_coexist() {
    let mut t = FsTree::new();
    t.insert(&p("/empty-file"), Vec::<u8>::new(), 0).unwrap();
    t.mkdir_p(&p("/empty/dir/chain")).unwrap();
    let bytes = ros_udf::format::serialize(&t, 2, 1 << 22).unwrap();
    let img = SealedImage::from_bytes(bytes).unwrap();
    assert_eq!(img.read(&p("/empty-file")).unwrap().len(), 0);
    assert!(img.tree().is_dir(&p("/empty/dir/chain")));
    assert_eq!(img.scan_files().len(), 1);
}

#[test]
fn sibling_name_prefixes_do_not_collide() {
    let mut t = FsTree::new();
    for name in ["a", "aa", "aaa", "a.a", "a-a"] {
        t.insert(&p(&format!("/{name}")), name.as_bytes().to_vec(), 0)
            .unwrap();
    }
    let bytes = ros_udf::format::serialize(&t, 3, 1 << 22).unwrap();
    let img = SealedImage::from_bytes(bytes).unwrap();
    for name in ["a", "aa", "aaa", "a.a", "a-a"] {
        assert_eq!(
            img.read(&p(&format!("/{name}"))).unwrap().as_ref(),
            name.as_bytes()
        );
    }
}

#[test]
fn image_ids_are_preserved_through_recycling() {
    let mut b = Bucket::new(10, 64 * BLOCK_SIZE);
    b.write(&p("/x"), vec![1], 0).unwrap();
    let img1 = b.close().unwrap();
    assert_eq!(img1.image_id(), 10);
    b.recycle(11);
    b.write(&p("/y"), vec![2], 0).unwrap();
    let img2 = b.close().unwrap();
    assert_eq!(img2.image_id(), 11);
    assert!(
        img2.read(&p("/x")).is_err(),
        "recycled bucket must be clean"
    );
}

#[test]
fn sub_2kb_files_halve_usable_capacity() {
    // §4.5's worst case: "all files are less than 2KB plus extra
    // corresponding 2KB file entry, the actual space to store data is
    // only half of the bucket."
    let capacity = 512 * BLOCK_SIZE;
    let mut b = Bucket::new(1, capacity);
    let mut payload = 0u64;
    let mut i = 0;
    loop {
        let path = p(&format!("/tiny/f{i:04}"));
        let data = vec![0u8; 2000]; // Just under one block.
        if b.write(&path, data, 0).is_err() {
            break;
        }
        payload += 2000;
        i += 1;
    }
    let efficiency = payload as f64 / capacity as f64;
    assert!(
        efficiency < 0.5,
        "worst-case efficiency = {efficiency:.2}, paper says at most half"
    );
    assert!(efficiency > 0.4, "but not absurdly below half");
}

#[test]
fn large_files_approach_full_capacity() {
    // The flip side: block-multiple files waste only entry blocks.
    let capacity = 512 * BLOCK_SIZE;
    let mut b = Bucket::new(1, capacity);
    let mut payload = 0u64;
    let mut i = 0;
    loop {
        let path = p(&format!("/big/f{i}"));
        let size = 64 * BLOCK_SIZE;
        if b.write(&path, vec![0u8; size as usize], 0).is_err() {
            break;
        }
        payload += size;
        i += 1;
    }
    let efficiency = payload as f64 / capacity as f64;
    assert!(efficiency > 0.85, "bulk efficiency = {efficiency:.2}");
}

/// Offset and width of every length and block-number field the parser
/// follows in a well-formed image: the anchor's PVD block, the PVD's
/// root ICB, each ICB's size / count / data start / data blocks, each
/// FID's name length and child ICB.
fn extent_fields(img: &[u8]) -> Vec<(usize, usize)> {
    fn u(img: &[u8], at: usize, width: usize) -> usize {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&img[at..at + width]);
        u64::from_le_bytes(le) as usize
    }
    fn icb(img: &[u8], block: usize, out: &mut Vec<(usize, usize)>) {
        let b = block * BLOCK_SIZE as usize;
        if img[b] == b'F' {
            out.extend([(b + 1, 8), (b + 17, 8), (b + 25, 4)]);
            return;
        }
        out.extend([(b + 1, 4), (b + 5, 8), (b + 13, 4)]);
        let mut fid = u(img, b + 5, 8) * BLOCK_SIZE as usize;
        for _ in 0..u(img, b + 1, 4) {
            let child = fid + 5 + u(img, fid + 1, 4);
            out.extend([(fid + 1, 4), (child, 8)]);
            icb(img, u(img, child, 8), out);
            fid = child + 8;
        }
    }
    let pvd = u(img, 12, 8) * BLOCK_SIZE as usize;
    let mut out = vec![(12, 8), (pvd + 24, 8)];
    icb(img, u(img, pvd + 24, 8), &mut out);
    out
}

#[test]
fn a_lying_length_or_block_number_is_a_typed_error_never_a_panic() {
    // `u64::MAX - 5` as a file size made `s + size` wrap below `s` and
    // panicked the slice in release builds; `1 << 53` blocks is a byte
    // offset of exactly 2^64, which wraps to the anchor.
    let golden: &[u8] = include_bytes!("fixtures/sample_tree.img");
    SealedImage::from_bytes(golden.to_vec()).unwrap();
    let fields = extent_fields(golden);
    assert_eq!(fields.len(), 2 + 4 * 3 + 7 * 3 + 10 * 2, "4 files, 7 dirs");
    let len = golden.len() as u64;
    for (at, width) in fields {
        let lies = match width {
            8 => [u64::MAX, u64::MAX - 5, 1 << 53, len + 1],
            _ => [
                u64::from(u32::MAX),
                u64::from(u32::MAX) - 5,
                1 << 21,
                len + 1,
            ],
        };
        for lie in lies {
            let mut img = golden.to_vec();
            img[at..at + width].copy_from_slice(&lie.to_le_bytes()[..width]);
            let what = format!("{lie:#x} in the {width}-byte field at {at}");
            assert!(ros_udf::format::parse(&img).is_err(), "{what}");
            assert!(SealedImage::from_bytes(img).is_err(), "{what}");
        }
    }
}
