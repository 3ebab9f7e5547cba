//! Resident bytes per file (ROADMAP 14(a)): what the engine itself keeps
//! on the heap for each small file once it is burned, its payload aside.
//!
//! This binary holds one test and a counting global allocator, so the
//! count is the test's own and no other test's. The payloads are made
//! before the count starts and handed to the engine as shared `Bytes`:
//! the engine adopts them without a copy, so what the count sees is its
//! own state — the MV's index files, the dedup catalog, every sealed
//! image's metadata, piece list and tree, the buckets, the event queue
//! and the parity. On failure the test prints the live bytes by
//! allocation size, the census that finds the owner that grew.

use bytes::Bytes;
use ros::prelude::*;
use ros_sim::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Files written: enough that the per-rack fixed costs are a small share.
const FILES: usize = 4_000;

/// Directories they are spread over.
const DIRS: usize = 200;

/// Live heap bytes per file the engine may keep: about 10 % above the
/// 1 849 B a file costs here, of which 1 049 B is the one array's 4 MB
/// parity member shared out. A file cost 2 615 B when each holder of an
/// image copied its piece list, a sealed image kept a B-tree leaf per
/// directory and a name per file, and a one-version file's ring had four
/// slots.
const BUDGET_PER_FILE: usize = 2_040;

/// Allocation sizes counted one by one; larger ones share a bin per
/// power of two.
const EXACT: usize = 4096;

/// The system allocator, counting the bytes live in each size class.
struct Counting;

static LIVE: [AtomicUsize; EXACT + 64] = [const { AtomicUsize::new(0) }; EXACT + 64];

fn class(size: usize) -> usize {
    if size < EXACT {
        size
    } else {
        EXACT + size.ilog2() as usize
    }
}

fn note(size: usize, grew: bool) {
    let live = &LIVE[class(size)];
    if grew {
        live.fetch_add(size, Ordering::Relaxed);
    } else {
        live.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counters are atomics that
// allocate nothing, and only count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as it came.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size(), true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size(), true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(layout.size(), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(layout.size(), false);
            note(new_size, true);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn census() -> Vec<usize> {
    LIVE.iter().map(|n| n.load(Ordering::Relaxed)).collect()
}

/// The size classes whose live bytes grew most between two censuses.
fn largest_growth(before: &[usize], after: &[usize]) -> String {
    let mut grown: Vec<(usize, isize)> = before
        .iter()
        .zip(after)
        .enumerate()
        .map(|(c, (b, a))| (c, *a as isize - *b as isize))
        .filter(|(_, d)| *d != 0)
        .collect();
    grown.sort_by_key(|(c, d)| (-d.abs(), *c));
    let name = |c: usize| match c.checked_sub(EXACT) {
        None => format!("{c} B"),
        Some(log) => format!("{}-{} KiB", (1usize << log) >> 10, (2usize << log) >> 10),
    };
    grown
        .iter()
        .take(16)
        .map(|(c, d)| format!("  {:>12}: {d:+} B\n", name(*c)))
        .collect()
}

#[test]
fn a_small_file_costs_the_engine_under_its_budget() {
    let mut cfg = RosConfig::tiny();
    cfg.layout.layers = 8;
    cfg.dedup = true;
    cfg.data_plane_threads = 1;
    // Seeded 1-4 KB payloads, every fourth a repeat for the dedup
    // catalog, made before the count starts.
    let mut rng = SimRng::seed_from(0x5e5);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(FILES);
    for i in 0..FILES {
        let payload = if i % 4 == 3 {
            payloads[rng.index(i)].clone()
        } else {
            let mut payload = vec![0u8; 1024 + rng.index(3 * 1024 + 1)];
            rng.fill_bytes(&mut payload);
            Bytes::from(payload)
        };
        payloads.push(payload);
    }
    let paths: Vec<UdfPath> = (0..FILES)
        .map(|i| format!("/r/d{}/f{i}", rng.index(DIRS)).parse().unwrap())
        .collect();

    let before = census();
    let mut ros = Ros::try_new(cfg).unwrap();
    for (path, payload) in paths.iter().zip(&payloads) {
        ros.write_file(path, payload.clone()).unwrap();
    }
    ros.flush().unwrap();
    let after = census();

    let live = after.iter().sum::<usize>() - before.iter().sum::<usize>();
    let per_file = live / FILES;
    assert!(
        per_file <= BUDGET_PER_FILE,
        "the engine keeps {per_file} B per file ({live} B for {FILES} files), over the \
         {BUDGET_PER_FILE} B budget; live bytes grown, by allocation size:\n{}",
        largest_growth(&before, &after)
    );
    drop(ros);
}
