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
//! output is byte-identical at any thread count — including 1 — and the
//! small-input serial fallback cannot change results either.
//!
//! Built on `std::thread::scope` only; no work-stealing, no channels,
//! no external crates.

// The one sanctioned home for threads, locks and atomics (DESIGN.md §8,
// crates/clippy.toml): the names banned everywhere else are legal here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::ops::Range;

/// Inputs smaller than this run serially: below ~64 KiB the spawn cost
/// of even a scoped thread outweighs the kernel work. The threshold is
/// results-invisible (see module docs), so it only needs to be roughly
/// right.
const MIN_PAR_BYTES: usize = 64 * 1024;

/// A fixed-width pool of scoped worker threads for data-plane kernels.
///
/// `DataPlane` is `Copy` and carries no OS resources — threads are
/// scoped to each call, so a plane can be stored in configs and cloned
/// freely. Thread count 1 means "run inline on the caller".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataPlane {
    threads: usize,
}

impl DataPlane {
    /// A single-threaded plane: every primitive runs inline.
    pub fn single() -> DataPlane {
        DataPlane { threads: 1 }
    }

    /// A plane with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> DataPlane {
        DataPlane {
            threads: threads.max(1),
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
    pub fn detect() -> DataPlane {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        DataPlane { threads: n.min(8) }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Runs `f(offset, chunk)` over contiguous disjoint chunks of
    /// `out`, one per worker. `offset` is the chunk's byte offset into
    /// `out`, so `f` can index the corresponding source range.
    pub fn for_each_chunk(&self, out: &mut [u8], f: impl Fn(usize, &mut [u8]) + Sync) {
        if self.threads == 1 || out.len() < MIN_PAR_BYTES {
            f(0, out);
            return;
        }
        let chunk = out.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = out;
            let mut off = 0usize;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                scope.spawn(move || f(off, head));
                off += take;
                rest = tail;
            }
        });
    }

    /// Like [`for_each_chunk`](DataPlane::for_each_chunk) but over two
    /// equal-length outputs split in lockstep — the fused P+Q encode
    /// shape, where each worker fills the same range of both.
    pub fn for_each_chunk2(
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
        let chunk = a.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest_a = a;
            let mut rest_b = b;
            let mut off = 0usize;
            while !rest_a.is_empty() {
                let take = chunk.min(rest_a.len());
                let (head_a, tail_a) = rest_a.split_at_mut(take);
                let (head_b, tail_b) = rest_b.split_at_mut(take);
                scope.spawn(move || f(off, head_a, head_b));
                off += take;
                rest_a = tail_a;
                rest_b = tail_b;
            }
        });
    }

    /// Runs `f(range)` over fixed contiguous sub-ranges of `0..len`,
    /// one per worker. For read-only sweeps (verification) where `f`
    /// reports through shared state of its own.
    pub fn for_each_range(&self, len: usize, f: impl Fn(Range<usize>) + Sync) {
        if self.threads == 1 || len < MIN_PAR_BYTES {
            f(0..len);
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for r in DataPlane::spans(len, self.threads) {
                scope.spawn(move || f(r));
            }
        });
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
        let spans = DataPlane::spans(items.len(), self.threads);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = spans
                .into_iter()
                .map(|r| {
                    let span = &items[r];
                    scope.spawn(move || f(span))
                })
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for h in handles {
                match h.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
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
        let mut expect = vec![0u8; len];
        DataPlane::single().for_each_chunk(&mut expect, |off, chunk| {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = u8::try_from((off + i) % 251).expect("x % 251 < 256");
            }
        });
        for threads in [2, 3, 4, 8] {
            let mut got = vec![0u8; len];
            DataPlane::new(threads).for_each_chunk(&mut got, |off, chunk| {
                for (i, b) in chunk.iter_mut().enumerate() {
                    *b = u8::try_from((off + i) % 251).expect("x % 251 < 256");
                }
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u32> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| u64::from(*x) * 3).collect();
        for threads in [1, 2, 4, 7] {
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
        for threads in [1, 2, 4, 7] {
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
        assert!(DataPlane::with_threads(0).threads() >= 1);
        assert!(DataPlane::with_threads(0).threads() <= 8);
        assert_eq!(DataPlane::with_threads(3).threads(), 3);
        assert_eq!(DataPlane::new(0).threads(), 1);
    }
}
