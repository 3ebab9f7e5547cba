//! A small deterministic data-plane pool for real-bytes work.
//!
//! The workspace keeps two planes strictly apart (TALICS³'s split, see
//! DESIGN.md §12): the *simulation* plane advances a deterministic
//! virtual clock, while the *data* plane moves and checks real bytes
//! (parity encode, audit verification, reconstruction, the chaos
//! harness's corpus audit). Only the data plane is parallelized here —
//! wall-clock elapsed on these threads never feeds back into simulated
//! time, so `N` threads change latency, not results.
//!
//! Determinism argument: every parallel primitive splits its work into
//! **fixed contiguous ranges** derived only from the input length and
//! the configured thread count, and every output byte (or mapped item)
//! is a pure function of the inputs in its own range. No thread ever
//! writes outside its range and no reduction order is exposed, so the
//! output is byte-identical at any thread count — including 1 — and
//! neither the small-input serial fallback nor a call that runs its
//! parts inline (see below) can change results either.
//!
//! Execution: a plane of `t` threads owns `t − 1` parked worker
//! threads, started by its first parallel call and joined when its last
//! handle drops. A call runs its first range on the caller and posts
//! the others to the workers, one `Mutex` + `Condvar` slot each, then
//! waits on a completion latch and re-raises any range's panic. A call
//! that finds the workers busy — a second thread on the same plane, or a
//! range that calls back into its own plane — runs all of its ranges
//! inline instead. No work-stealing, no channels, no external crates.
//!
//! This is the workspace's second audited `unsafe` module (DESIGN.md §3,
//! principle 5): handing a borrowed closure to a persistent worker
//! erases its lifetime in one block, `DataPlane::fan_out`'s, on the
//! argument scoped threads rest on — the call neither returns nor
//! unwinds until every posted range has finished.

// The one sanctioned home for threads, locks and atomics (DESIGN.md §8,
// crates/clippy.toml): the names banned everywhere else are legal here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// Outputs shorter than this run serially. A fan-out to parked workers
/// costs ~5–20 µs (a thread spawn cost ~60 µs), so where the 1- and
/// 2-thread runs of a kernel break even depends on its work per byte.
/// On a 2-vCPU x86-64 host (median of ≥ 51 calls, threshold set to 0):
/// a 10-member `encode_pq_with`, whose Q runs the one-step Horner
/// kernel at ~8 GB/s of data on one thread, breaks even near a 32 KiB
/// stripe (0.9–1.3× the serial time) and runs at 0.5–1.2× at 64 KiB and
/// 0.6–0.9× at 128 KiB; `verify_group_with` wins from 32 KiB (0.6–0.9×);
/// `content_digests` breaks even near 40 KiB in total, though it fans
/// out over its 16 KiB leaves through `map_spans`, which this threshold
/// does not gate; a 3-member XOR `parity_p_with` (memory-bound) still
/// loses at 256 KiB (1.4×).
/// 64 KiB sits at the parity kernels' break-even, and `e2e`'s parity
/// calls (4–16 KiB stripes in `cluster_preserve`) run serially on either
/// side of it, so it stays. The threshold is results-invisible (see
/// module docs), so it only needs to be roughly right.
const MIN_PAR_BYTES: usize = 64 * 1024;

/// A fixed-width pool of worker threads for data-plane kernels.
///
/// `DataPlane` is a cheap [`Clone`] handle: clones share one pool, and
/// dropping the last of them joins its workers. A plane of 1 thread
/// owns no pool and runs every primitive inline on the caller.
#[derive(Clone)]
pub struct DataPlane {
    threads: usize,
    pool: Option<Arc<Pool>>,
}

/// The parked workers of a plane of `t` threads and the latch its
/// caller waits on.
#[derive(Default)]
struct Pool {
    /// The `t − 1` workers, started by the first parallel call. Holding
    /// the lock is holding the pool: a call that cannot take it runs
    /// inline.
    workers: Mutex<Vec<Worker>>,
    latch: Arc<Latch>,
}

struct Worker {
    slot: Arc<Slot>,
    handle: JoinHandle<()>,
}

/// One worker's mailbox: the caller posts, the worker takes.
#[derive(Default)]
struct Slot {
    post: Mutex<Post>,
    ready: Condvar,
}

#[derive(Default)]
enum Post {
    #[default]
    Idle,
    Run(Job),
    Exit,
}

/// Range `part` of a fan-out. `run` borrows the caller's stack; the
/// lifetime is erased in `DataPlane::fan_out`, which outlives the job.
struct Job {
    part: usize,
    run: &'static (dyn Fn(usize) + Sync),
}

/// Counts a fan-out's posted ranges down to zero and keeps the panic of
/// the lowest-numbered range that panicked.
#[derive(Default)]
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

#[derive(Default)]
struct LatchState {
    pending: usize,
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

#[cfg(test)]
thread_local! {
    /// Workers started by fan-outs on this thread: the count the tests
    /// pin (a plane of `t` threads starts `t − 1`, once).
    static WORKERS_STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Locks `m`. Nothing panics while holding one of this module's locks,
/// and a poisoned one holds no broken invariant, so poison is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Slot {
    fn post(&self, post: Post) {
        *lock(&self.post) = post;
        self.ready.notify_one();
    }

    /// The worker loop: run each posted job, report it to the latch,
    /// park until the next; return on `Exit`.
    fn serve(&self, latch: &Latch) {
        loop {
            let job = {
                let mut post = lock(&self.post);
                loop {
                    match std::mem::take(&mut *post) {
                        Post::Idle => {
                            post = self
                                .ready
                                .wait(post)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                        Post::Run(job) => break job,
                        Post::Exit => return,
                    }
                }
            };
            let part = job.part;
            let outcome = panic::catch_unwind(AssertUnwindSafe(move || (job.run)(job.part)));
            latch.finish(part, outcome.err());
        }
    }
}

impl Latch {
    fn arm(&self, pending: usize) {
        *lock(&self.state) = LatchState {
            pending,
            panic: None,
        };
    }

    fn finish(&self, part: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock(&self.state);
        if let Some(payload) = panic {
            if state.panic.as_ref().is_none_or(|(first, _)| part < *first) {
                state.panic = Some((part, payload));
            }
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_one();
        }
    }

    /// Blocks until every armed range has finished; returns the first
    /// range's panic, if any. Never panics itself.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = lock(&self.state);
        while state.pending > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take().map(|(_, payload)| payload)
    }
}

impl Pool {
    /// Starts workers until there are `n`; false if the OS refuses one.
    fn ensure_workers(&self, workers: &mut Vec<Worker>, n: usize) -> bool {
        while workers.len() < n {
            let slot = Arc::new(Slot::default());
            let (mine, latch) = (Arc::clone(&slot), Arc::clone(&self.latch));
            let spawned = std::thread::Builder::new()
                .name(format!("data-plane-{}", workers.len() + 1))
                .spawn(move || mine.serve(&latch));
            let Ok(handle) = spawned else {
                return false;
            };
            #[cfg(test)]
            WORKERS_STARTED.with(|c| c.set(c.get() + 1));
            workers.push(Worker { slot, handle });
        }
        true
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let workers = std::mem::take(
            self.workers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for w in &workers {
            w.slot.post(Post::Exit);
        }
        for w in workers {
            // A worker catches every job's panic, so it returns normally.
            let _ = w.handle.join();
        }
    }
}

impl DataPlane {
    /// A single-threaded plane: every primitive runs inline.
    pub fn single() -> DataPlane {
        DataPlane::new(1)
    }

    /// A plane with exactly `threads` workers (clamped to at least 1).
    /// Its `threads − 1` pool threads start with its first parallel call.
    pub fn new(threads: usize) -> DataPlane {
        let threads = threads.max(1);
        DataPlane {
            threads,
            pool: (threads > 1).then(Arc::default),
        }
    }

    /// `threads == 0` auto-detects available parallelism (capped at 8 —
    /// parity kernels saturate memory bandwidth long before that);
    /// otherwise behaves like [`DataPlane::new`].
    pub fn with_threads(threads: usize) -> DataPlane {
        if threads == 0 {
            DataPlane::detect()
        } else {
            DataPlane::new(threads)
        }
    }

    /// Auto-detected plane: `available_parallelism` capped at 8.
    pub(crate) fn detect() -> DataPlane {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        DataPlane::new(n.min(8))
    }

    /// Splits `0..len` into at most `parts` contiguous ranges of
    /// near-equal size, in order. Depends only on `len` and `parts`.
    fn spans(len: usize, parts: usize) -> Vec<Range<usize>> {
        let parts = parts.clamp(1, len.max(1));
        let chunk = len.div_ceil(parts);
        let mut out = Vec::with_capacity(parts);
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + chunk).min(len);
            out.push(lo..hi);
            lo = hi;
        }
        if out.is_empty() {
            out.push(0..0);
        }
        out
    }

    /// Runs `run(0..parts)`, each part exactly once: part 0 on the
    /// caller and the rest on the pool's workers, or all of them inline
    /// when there is no pool, it is busy (a contended or nested call) or
    /// it cannot start its workers. Returns once every part has
    /// finished; if any panicked, re-raises the caller's panic, else the
    /// lowest-numbered worker part's.
    fn fan_out(&self, parts: usize, run: &(dyn Fn(usize) + Sync)) {
        let inline = || (0..parts).for_each(run);
        let Some(pool) = self.pool.as_ref().filter(|_| parts > 1) else {
            return inline();
        };
        let mut workers = match pool.workers.try_lock() {
            Ok(workers) => workers,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return inline(),
        };
        // One part per thread, so every part past the first has a worker.
        if parts > self.threads || !pool.ensure_workers(&mut workers, self.threads - 1) {
            return inline();
        }
        // SAFETY: the only change is the lifetime. Every job posted
        // below is counted by the latch before it is posted, a worker
        // drops its job before it counts it finished, and this call
        // waits for the count to reach zero — on every path, since
        // nothing between here and `wait` returning can panic (the
        // caller's part runs under `catch_unwind`) — so no worker uses
        // `run` after this call returns or unwinds.
        #[allow(unsafe_code)]
        let shared = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        pool.latch.arm(parts - 1);
        for (part, w) in (1..parts).zip(workers.iter()) {
            w.slot.post(Post::Run(Job { part, run: shared }));
        }
        let mine = panic::catch_unwind(AssertUnwindSafe(|| run(0)));
        let theirs = pool.latch.wait();
        drop(workers);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }

    /// `f` over `parts` on the pool, results in order.
    fn run_parts<P: Send, R: Send>(&self, parts: Vec<P>, f: impl Fn(P) -> R + Sync) -> Vec<R> {
        let n = parts.len();
        let inputs: Vec<Mutex<Option<P>>> =
            parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.fan_out(n, &|i| {
            let input = lock(&inputs[i]).take();
            if let Some(p) = input {
                let r = f(p);
                *lock(&outputs[i]) = Some(r);
            }
        });
        outputs
            .into_iter()
            .filter_map(|r| r.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// `out` cut at [`spans`](DataPlane::spans), each chunk with its
    /// offset.
    fn chunks<'a>(&self, out: &'a mut [u8]) -> Vec<(usize, &'a mut [u8])> {
        let mut rest = out;
        DataPlane::spans(rest.len(), self.threads)
            .into_iter()
            .map(|r| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                (r.start, head)
            })
            .collect()
    }

    /// Runs `f(offset, chunk)` over contiguous disjoint chunks of
    /// `out`, one per worker. `offset` is the chunk's byte offset into
    /// `out`, so `f` can index the corresponding source range.
    pub(crate) fn for_each_chunk(&self, out: &mut [u8], f: impl Fn(usize, &mut [u8]) + Sync) {
        if self.threads == 1 || out.len() < MIN_PAR_BYTES {
            f(0, out);
            return;
        }
        self.run_parts(self.chunks(out), |(off, chunk)| f(off, chunk));
    }

    /// Like [`for_each_chunk`](DataPlane::for_each_chunk) but over two
    /// equal-length outputs split in lockstep — the fused P+Q encode
    /// shape, where each worker fills the same range of both.
    pub(crate) fn for_each_chunk2(
        &self,
        a: &mut [u8],
        b: &mut [u8],
        f: impl Fn(usize, &mut [u8], &mut [u8]) + Sync,
    ) {
        debug_assert_eq!(a.len(), b.len(), "chunk2 outputs must be equal length");
        if self.threads == 1 || a.len() < MIN_PAR_BYTES {
            f(0, a, b);
            return;
        }
        let parts: Vec<_> = self
            .chunks(a)
            .into_iter()
            .zip(self.chunks(b))
            .map(|((off, a), (_, b))| (off, a, b))
            .collect();
        self.run_parts(parts, |(off, a, b)| f(off, a, b));
    }

    /// Runs `f(range)` over fixed contiguous sub-ranges of `0..len`,
    /// one per worker. For read-only sweeps (verification) where `f`
    /// reports through shared state of its own.
    pub(crate) fn for_each_range(&self, len: usize, f: impl Fn(Range<usize>) + Sync) {
        if self.threads == 1 || len < MIN_PAR_BYTES {
            f(0..len);
            return;
        }
        self.run_parts(DataPlane::spans(len, self.threads), f);
    }

    /// Maps `f` over `items` in parallel, returning results **in input
    /// order**: identical to `items.iter().map(f).collect()` at any
    /// thread count (see [`map_spans`](DataPlane::map_spans)).
    pub fn map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        self.map_spans(items, |span| span.iter().map(&f).collect())
    }

    /// Like [`map`](DataPlane::map), but hands each worker its whole
    /// contiguous span of `items` at once, for kernels that do better
    /// on several neighbouring items together than one at a time. `f`
    /// returns one result per item of its span, in order; the spans'
    /// results are concatenated in order. Spans are never empty unless
    /// `items` is. The result is thread-count invariant whenever
    /// `f(span)` equals the concatenation of `f` over any split of
    /// `span` — the same pure-function-of-its-own-range rule the other
    /// primitives rest on.
    pub fn map_spans<T: Sync, U: Send>(
        &self,
        items: &[T],
        f: impl Fn(&[T]) -> Vec<U> + Sync,
    ) -> Vec<U> {
        if self.threads == 1 || items.len() < 2 {
            return f(items);
        }
        let parts = self.run_parts(
            DataPlane::spans(items.len(), self.threads),
            |r| f(&items[r]),
        );
        let mut out = Vec::with_capacity(items.len());
        for part in parts {
            out.extend(part);
        }
        out
    }
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for DataPlane {
    /// Defaults to the auto-detected plane.
    fn default() -> DataPlane {
        DataPlane::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    /// `0..len` in ranges, each tagged with the thread that ran it.
    fn ranges_by_thread(plane: &DataPlane, len: usize) -> Vec<(Range<usize>, ThreadId)> {
        let seen = Mutex::new(Vec::new());
        plane.for_each_range(len, |r| lock(&seen).push((r, std::thread::current().id())));
        let mut seen = seen.into_inner().expect("no panic under lock");
        seen.sort_by_key(|(r, _)| r.start);
        seen
    }

    fn fill_by_offset(plane: &DataPlane, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        plane.for_each_chunk(&mut out, |off, chunk| {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = u8::try_from((off + i) % 251).expect("x % 251 < 256");
            }
        });
        out
    }

    /// Yields this many times: long enough for a thread that is not
    /// waited for to be seen still running, and no clock is read.
    const PATIENCE: usize = if cfg!(miri) { 10 } else { 10_000 };

    fn yield_times(n: usize) {
        for _ in 0..n {
            std::thread::yield_now();
        }
    }

    /// The next message on `rx`, or `None` after `tries` empty polls,
    /// so a deadlocked pool fails the test instead of hanging it.
    fn recv_within<T>(rx: &std::sync::mpsc::Receiver<T>, tries: usize) -> Option<T> {
        for _ in 0..tries {
            if let Ok(v) = rx.try_recv() {
                return Some(v);
            }
            std::thread::yield_now();
        }
        None
    }

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }

    #[test]
    fn spans_cover_in_order_without_overlap() {
        for len in [0usize, 1, 7, 100, 1024, 65536, 65537] {
            for parts in 1..=9 {
                let spans = DataPlane::spans(len, parts);
                let mut next = 0usize;
                for s in &spans {
                    assert_eq!(s.start, next, "len={len} parts={parts}");
                    assert!(s.end >= s.start);
                    next = s.end;
                }
                assert_eq!(next, len, "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn for_each_chunk_is_thread_count_invariant() {
        // Fill each byte from its absolute offset; any mis-split or
        // overlap would corrupt the pattern.
        let len = 3 * MIN_PAR_BYTES + 17;
        let expect = fill_by_offset(&DataPlane::single(), len);
        for threads in [2, 3, 4, 8] {
            let got = fill_by_offset(&DataPlane::new(threads), len);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| u64::from(*x) * 3).collect();
        for threads in [1, 2, 4, 7, 8] {
            let got = DataPlane::new(threads).map(&items, |x| u64::from(*x) * 3);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_spans_covers_in_order_with_no_empty_span() {
        // `f` sees whole spans: record each span's bounds, return a
        // per-item result that depends on the item alone.
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| u64::from(*x) * 3).collect();
        for threads in [1, 2, 4, 7, 8] {
            let seen = std::sync::Mutex::new(Vec::new());
            let got = DataPlane::new(threads).map_spans(&items, |span| {
                let bounds = (span.first().copied(), span.len());
                seen.lock().expect("no panic under lock").push(bounds);
                span.iter().map(|x| u64::from(*x) * 3).collect()
            });
            assert_eq!(got, expect, "threads={threads}");
            let mut seen = seen.into_inner().expect("no panic under lock");
            seen.sort();
            assert!(seen.len() <= threads, "threads={threads}");
            let mut next = 0u32;
            for (first, len) in seen {
                assert_eq!(first, Some(next), "threads={threads}");
                next += u32::try_from(len).expect("span fits u32");
            }
            assert_eq!(next, 1000, "threads={threads}");
        }
        let none: Vec<u64> = DataPlane::new(4).map_spans(&[] as &[u32], |span| {
            span.iter().map(|x| u64::from(*x)).collect()
        });
        assert!(none.is_empty());
    }

    #[test]
    fn zero_requests_autodetect() {
        assert!(DataPlane::with_threads(0).threads >= 1);
        assert!(DataPlane::with_threads(0).threads <= 8);
        assert_eq!(DataPlane::with_threads(3).threads, 3);
        assert_eq!(DataPlane::new(0).threads, 1);
    }

    #[test]
    fn the_caller_runs_the_first_range_and_the_workers_the_rest() {
        let me = std::thread::current().id();
        for threads in [2, 4] {
            let seen = ranges_by_thread(&DataPlane::new(threads), MIN_PAR_BYTES);
            assert_eq!(seen.len(), threads);
            assert_eq!(seen[0].1, me, "threads={threads}");
            let mut others: Vec<ThreadId> = seen[1..].iter().map(|(_, t)| *t).collect();
            others.sort_by_key(|t| format!("{t:?}"));
            others.dedup();
            assert_eq!(others.len(), threads - 1, "threads={threads}");
            assert!(!others.contains(&me), "threads={threads}");
        }
    }

    #[test]
    fn a_workers_panic_reaches_the_caller_and_the_plane_recovers() {
        let plane = DataPlane::new(3);
        let me = std::thread::current().id();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            plane.for_each_range(MIN_PAR_BYTES, |r| {
                if r.start > 0 && std::thread::current().id() != me {
                    panic!("range {} failed", r.start);
                }
            });
        }));
        let payload = caught.expect_err("a worker's panic must reach the caller");
        // Both worker ranges panic; the lowest-numbered one is re-raised.
        let second = DataPlane::spans(MIN_PAR_BYTES, 3)[1].start;
        assert_eq!(panic_message(&*payload), format!("range {second} failed"));
        // The same workers serve the next calls, still byte-exact.
        let len = 2 * MIN_PAR_BYTES + 5;
        assert_eq!(
            fill_by_offset(&plane, len),
            fill_by_offset(&DataPlane::single(), len)
        );
        let seen = ranges_by_thread(&plane, MIN_PAR_BYTES);
        assert!(seen[1..].iter().all(|(_, t)| *t != me));
    }

    #[test]
    fn a_callers_panic_waits_for_the_workers_before_unwinding() {
        let me = std::thread::current().id();
        let finished = AtomicUsize::new(0);
        // The worker's range cannot end before the caller's range has
        // unwound (it waits for the sender that unwinding drops), and
        // then yields a while: a pool that unwinds without waiting for
        // its workers returns while the range still runs.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = (Mutex::new(Some(tx)), Mutex::new(rx));
        let plane = DataPlane::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            plane.for_each_range(MIN_PAR_BYTES, |_| {
                if std::thread::current().id() == me {
                    let _dropped_by_the_unwind = lock(&tx).take();
                    panic!("the caller's range failed");
                }
                let _disconnected = lock(&rx).recv();
                yield_times(PATIENCE);
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        if finished.load(Ordering::SeqCst) != 1 {
            // The call left its worker inside a range whose frames are
            // gone; joining it could hang, so the plane is leaked.
            std::mem::forget(plane);
            panic!("the caller unwound before its worker's range finished");
        }
        let payload = caught.expect_err("the caller's panic is re-raised");
        assert_eq!(panic_message(&*payload), "the caller's range failed");
    }

    #[test]
    fn nested_and_contended_calls_run_inline_and_match_single() {
        let items: Vec<usize> = (0..4).collect();
        let single: Vec<Vec<u8>> = items
            .iter()
            .map(|&i| fill_by_offset(&DataPlane::single(), MIN_PAR_BYTES + i))
            .collect();

        let plane = DataPlane::new(2);

        // Contended: while one thread holds the pool, a second thread's
        // call runs all its ranges on that second thread.
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<bool>();
        let (held_tx, done_rx) = (Mutex::new(held_tx), Mutex::new(done_rx));
        let contender = {
            let plane = plane.clone();
            let items = items.clone();
            std::thread::spawn(move || {
                held_rx.recv().expect("the holder signals");
                let me = std::thread::current().id();
                let seen = ranges_by_thread(&plane, MIN_PAR_BYTES);
                let inline = seen.len() == 2 && seen.iter().all(|(_, t)| *t == me);
                let same =
                    plane.map(&items, |x| x * 3) == DataPlane::single().map(&items, |x| x * 3);
                done_tx.send(inline && same).expect("the holder listens");
            })
        };
        let me = std::thread::current().id();
        let verdict = Mutex::new(None);
        plane.for_each_range(MIN_PAR_BYTES, |_| {
            if std::thread::current().id() == me {
                lock(&held_tx).send(()).expect("the contender listens");
                *lock(&verdict) = recv_within(&lock(&done_rx), 1_000 * PATIENCE);
            }
        });
        contender.join().expect("the contender finishes");
        assert_eq!(
            verdict.into_inner().expect("no panic under lock"),
            Some(true),
            "the contended call ran inline and matched"
        );

        // Nested: a range that calls back into its own plane runs the
        // inner call's ranges all on its own thread.
        let nested = plane.map_spans(&items, |span| {
            let me = std::thread::current().id();
            span.iter()
                .map(|&i| {
                    let inner = ranges_by_thread(&plane, MIN_PAR_BYTES);
                    assert_eq!(inner.len(), 2);
                    assert!(
                        inner.iter().all(|(_, t)| *t == me),
                        "nested call ran inline"
                    );
                    fill_by_offset(&plane, MIN_PAR_BYTES + i)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(nested, single);

        // Many threads at once on one plane: every result still exact.
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let plane = plane.clone();
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..64).collect();
                    for _ in 0..50 {
                        let got = plane.map(&items, |x| x * 3);
                        assert!(got.iter().zip(&items).all(|(g, x)| *g == x * 3));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("every contender matches");
        }
    }

    /// Counts the worker threads that have exited: each worker range
    /// leaves one of these in its thread's locals, dropped at thread
    /// exit. The drop is slow, so only a join waits for the count.
    struct ExitWatch(Arc<AtomicUsize>);

    impl Drop for ExitWatch {
        fn drop(&mut self) {
            yield_times(PATIENCE);
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static WATCH: std::cell::RefCell<Option<ExitWatch>> = const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn dropping_the_last_handle_joins_every_worker() {
        let exited = Arc::new(AtomicUsize::new(0));
        let plane = DataPlane::new(4);
        let me = std::thread::current().id();
        plane.for_each_range(MIN_PAR_BYTES, |_| {
            if std::thread::current().id() != me {
                WATCH.with(|w| *w.borrow_mut() = Some(ExitWatch(Arc::clone(&exited))));
            }
        });
        let clone = plane.clone();
        drop(plane);
        assert_eq!(exited.load(Ordering::SeqCst), 0, "a clone keeps the pool");
        assert_eq!(
            fill_by_offset(&clone, MIN_PAR_BYTES),
            fill_by_offset(&DataPlane::single(), MIN_PAR_BYTES)
        );
        drop(clone);
        assert_eq!(exited.load(Ordering::SeqCst), 3, "every worker joined");
    }

    #[test]
    fn a_thousand_fan_outs_start_one_set_of_workers() {
        let calls = if cfg!(miri) { 20 } else { 1_000 };
        let items: Vec<u32> = (0..16).collect();
        for threads in [2, 3, 4, 8] {
            WORKERS_STARTED.with(|c| c.set(0));
            let plane = DataPlane::new(threads);
            for _ in 0..calls {
                let got = plane.map(&items, |x| x + 1);
                assert_eq!(got.len(), items.len());
            }
            let started = WORKERS_STARTED.with(std::cell::Cell::get);
            assert_eq!(started, threads - 1, "threads={threads}");
        }
        WORKERS_STARTED.with(|c| c.set(0));
        let one = DataPlane::single();
        for _ in 0..calls {
            one.map(&items, |x| x + 1);
        }
        assert_eq!(WORKERS_STARTED.with(std::cell::Cell::get), 0);
    }
}
