//! Hot-path perf-regression harness (`repro perf`).
//!
//! Measures the library's algorithmic hot paths — Read Cache churn,
//! throughput-series aggregation, latency order-statistics — at two
//! sizes a decade apart, and reports both absolute per-op costs and the
//! 10×-size **scaling ratios**. The ratios are the *tracked* metrics:
//! they are close to machine-independent (an O(1)/O(log n) path holds a
//! ratio near 1–2 on any host, while an O(n) regression pushes it
//! toward 10), so CI can gate on them without calibrating per runner.
//! Absolute ns/op values ride along as informational context.
//!
//! A second section covers the GF(256) parity kernels: table-kernel
//! throughput at 1 and N threads (untracked MB/s), the table-vs-scalar
//! **cost ratios** (tracked — same machine-independence argument), and
//! the 1-vs-4-thread output mismatch byte count, tracked at 0 so any
//! determinism break in the data plane fails the gate.
//!
//! A third section covers the CAS subsystem: content-digest throughput
//! at 1 and N threads (untracked MB/s), the 1-vs-4-thread digest
//! mismatch byte count (tracked at 0 — the chunked digest must be
//! thread-count invariant), the lockstep kernels (four or eight lanes)
//! against the scalar one (cost ratio tracked where they exist, digest
//! mismatch tracked at 0 everywhere), the measured dedup ratio of the smoke
//! workload (untracked) and its **burn cost ratio** — dedup images over
//! plain images for the same ingest — tracked so dedup regressing to
//! "burns as much as plain" fails the gate.
//!
//! A fourth section watches the write path's buffer passes (DESIGN.md
//! §15, "a byte is written once"): the speed of sealing a full bucket
//! and the cost of freezing a 4 MB `Vec` into `Bytes`. Both are
//! untracked — absolute speeds — and there so that a reintroduced copy
//! (≈ 400 µs where ≈ 1 µs stood) is plain to the next reader.
//!
//! `repro perf --json` emits the report in the committed
//! `BENCH_hotpaths.json` format; `repro perf --check <baseline>` fails
//! (non-zero exit) when any tracked metric regresses more than
//! [`MAX_REGRESSION_PCT`] versus the baseline.

use crate::experiments::BenchError;
use ros_disk::parity::{self, gf_mul_scalar, gf_pow2};
use ros_disk::DataPlane;
use ros_olfs::cache::ReadCache;
use ros_olfs::mv::MetadataVolume;
use ros_olfs::{ImageId, Ros, RosConfig};
use ros_sim::stats::{LatencyRecorder, ThroughputSeries};
use ros_sim::{Bandwidth, SimDuration, SimTime};
use ros_udf::Bucket;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
#[expect(
    clippy::disallowed_types,
    reason = "perf harness measures real wall-clock kernel throughput by design"
)]
use std::time::Instant;

/// Tracked metrics may grow at most this much versus the baseline.
pub const MAX_REGRESSION_PCT: f64 = 25.0;

/// One measured metric of the hot-path report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfMetric {
    /// Stable metric name (the baseline is joined on it).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit ("ns/op" or "ratio").
    pub unit: String,
    /// Whether the CI gate compares this metric against the baseline.
    pub tracked: bool,
    /// Human-readable description.
    pub desc: String,
}

/// The whole report, in the `BENCH_hotpaths.json` layout.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Format tag.
    pub schema: String,
    /// Gate threshold the baseline was committed under.
    pub max_regression_pct: f64,
    /// All measured metrics.
    pub metrics: Vec<PerfMetric>,
}

/// Times `op()` per element over `n` elements, `reps` times, returning
/// the median ns/element (medians resist scheduler noise far better
/// than means on shared CI runners).
fn median_ns_per<F: FnMut() -> usize>(reps: usize, mut op: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            #[expect(
                clippy::disallowed_types,
                reason = "perf harness measures real wall-clock kernel throughput by design"
            )]
            let start = Instant::now();
            let elements = op().max(1);
            start.elapsed().as_nanos() as f64 / elements as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A ratio of two small measurements, taken as the median of five
/// independently measured batches: one noisy sample on either side of
/// a ~6 ns or sub-0.1 quotient otherwise moves it past the gate on
/// unchanged code.
fn median_ratio_of_5(mut batch: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..5).map(|_| batch()).collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[2]
}

/// Kernel time over reference time, from the two throughputs.
fn cost_ratio(reference_mb_s: f64, kernel_mb_s: f64) -> f64 {
    if kernel_mb_s > 0.0 {
        reference_mb_s / kernel_mb_s
    } else {
        f64::INFINITY
    }
}

/// Splitmix-style deterministic id stream (no rand dependency).
fn next_id(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Read-cache churn: per-op cost of a mixed touch/insert/remove stream
/// against a cache holding `capacity` images.
fn cache_churn_ns(capacity: usize, reps: usize) -> f64 {
    let ops = 60_000usize;
    median_ns_per(reps, || {
        let mut cache = ReadCache::new(capacity);
        let mut state = capacity as u64;
        for i in 0..capacity as u64 * 2 {
            cache.insert(ImageId(i));
        }
        for _ in 0..ops {
            let id = ImageId(next_id(&mut state) % (capacity as u64 * 2));
            match next_id(&mut state) % 4 {
                0 => {
                    black_box(cache.insert(id));
                }
                1 | 2 => {
                    black_box(cache.touch(id));
                }
                _ => {
                    black_box(cache.remove(id));
                }
            }
        }
        ops
    })
}

/// Builds `k` interleaved throughput curves with `points` samples each.
fn synth_series(k: usize, points: usize) -> Vec<ThroughputSeries> {
    (0..k)
        .map(|s| {
            let mut series = ThroughputSeries::new(format!("drive{s}"));
            for i in 0..points {
                // Stagger series so their instants interleave without
                // all coinciding (the worst case for grid resampling).
                let t = SimTime::from_nanos((i * k + s) as u64 * 1_000_000);
                let rate = Bandwidth::from_mb_per_sec(((i * 7 + s * 3) % 48) as f64);
                series.push(t, rate);
            }
            series
        })
        .collect()
}

/// Aggregation: per-input-point cost of the k-way merge at `k` series.
fn aggregate_ns_per_point(k: usize, points: usize, reps: usize) -> f64 {
    let series = synth_series(k, points);
    let refs: Vec<&ThroughputSeries> = series.iter().collect();
    median_ns_per(reps, || {
        let out = ThroughputSeries::aggregate("agg", refs.iter().copied());
        black_box(out.len());
        k * points
    })
}

/// Percentile queries: per-query cost of p50/p95/p99 sweeps over a
/// recorder holding `n` samples (one sort amortized across queries).
fn percentile_query_ns(n: usize, reps: usize) -> f64 {
    let queries = 30_000usize;
    let mut state = n as u64;
    let mut rec = LatencyRecorder::new("perf");
    for _ in 0..n {
        rec.record(SimDuration::from_nanos(next_id(&mut state) % 1_000_000));
    }
    median_ns_per(reps, || {
        for i in 0..queries / 3 {
            black_box(rec.percentile(0.5));
            black_box(rec.percentile(0.95));
            black_box(rec.percentile(if i % 2 == 0 { 0.99 } else { 0.999 }));
        }
        queries
    })
}

/// Zero-order-hold lookups: per-query cost of `rate_at` on `n` points.
fn rate_at_query_ns(n: usize, reps: usize) -> f64 {
    let series = &synth_series(1, n)[0];
    let queries = 30_000usize;
    let mut state = n as u64;
    median_ns_per(reps, || {
        for _ in 0..queries {
            let t = SimTime::from_nanos(next_id(&mut state) % (n as u64 * 1_000_000));
            black_box(series.rate_at(t));
        }
        queries
    })
}

/// Parity corpus shape: a RAID-6-wide group of deterministic stripes,
/// big enough that the data plane actually fans out (well past its
/// serial threshold) yet seconds-scale even for the scalar baselines.
const PARITY_STRIPES: usize = 10;
const PARITY_STRIPE_LEN: usize = 1 << 20;

/// Builds the deterministic parity corpus from the splitmix stream.
fn parity_corpus() -> Vec<Vec<u8>> {
    let mut state = 0xC0FF_EE00_5EED_u64;
    (0..PARITY_STRIPES)
        .map(|_| {
            let mut stripe = vec![0u8; PARITY_STRIPE_LEN];
            for chunk in stripe.chunks_mut(8) {
                let word = next_id(&mut state).to_le_bytes();
                for (dst, src) in chunk.iter_mut().zip(word.iter()) {
                    *dst = *src;
                }
            }
            stripe
        })
        .collect()
}

/// Times `op()` over `total_bytes` of input, `reps` times, returning the
/// median MB/s (same noise rationale as [`median_ns_per`]).
fn median_mb_per_sec(total_bytes: usize, reps: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            #[expect(
                clippy::disallowed_types,
                reason = "perf harness measures real wall-clock kernel throughput by design"
            )]
            let start = Instant::now();
            op();
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            total_bytes as f64 / (1024.0 * 1024.0) / secs
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The pre-table P parity: plain byte-loop XOR fold.
fn scalar_parity_p(data: &[&[u8]]) -> Vec<u8> {
    let mut p = vec![0u8; data[0].len()];
    for stripe in data {
        for (dst, src) in p.iter_mut().zip(stripe.iter()) {
            *dst ^= src;
        }
    }
    p
}

/// The pre-table Q parity: per-byte shift-and-add generator multiply,
/// exactly what every Q byte cost before the split tables.
fn scalar_parity_q(data: &[&[u8]]) -> Vec<u8> {
    let mut q = vec![0u8; data[0].len()];
    for (i, stripe) in data.iter().enumerate() {
        let g = gf_pow2(i);
        for (dst, src) in q.iter_mut().zip(stripe.iter()) {
            *dst ^= gf_mul_scalar(g, *src);
        }
    }
    q
}

/// Byte positions where `a` and `b` differ (length mismatch counts every
/// position of the longer buffer).
fn diff_bytes(a: &[u8], b: &[u8]) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
}

/// Encodes and reconstructs the corpus at 1 thread and 4 threads and
/// counts every differing output byte — the data plane's determinism
/// contract says this is exactly zero.
fn parity_thread_mismatch(refs: &[&[u8]], corpus: &[Vec<u8>]) -> f64 {
    let single = DataPlane::new(1);
    let quad = DataPlane::new(4);
    let enc1 = parity::encode_pq_with(refs, &single).ok();
    let enc4 = parity::encode_pq_with(refs, &quad).ok();
    let (Some((p1, q1)), Some((p4, q4))) = (enc1, enc4) else {
        return f64::INFINITY;
    };
    let mut mismatch = diff_bytes(&p1, &p4) + diff_bytes(&q1, &q4);
    let mut lossy: Vec<Option<&[u8]>> = refs.iter().map(|s| Some(*s)).collect();
    lossy[2] = None;
    lossy[PARITY_STRIPES - 3] = None;
    let rec1 = parity::reconstruct_pq_with(&lossy, Some(&p1), Some(&q1), &single).ok();
    let rec4 = parity::reconstruct_pq_with(&lossy, Some(&p1), Some(&q1), &quad).ok();
    let (Some((d1, _, _)), Some((d4, _, _))) = (rec1, rec4) else {
        return f64::INFINITY;
    };
    for (a, b) in d1.iter().zip(d4.iter()) {
        mismatch += diff_bytes(a, b);
    }
    // The reconstructions must also equal the original stripes, not
    // merely agree with each other.
    for (rec, orig) in d1.iter().zip(corpus.iter()) {
        mismatch += diff_bytes(rec, orig);
    }
    mismatch as f64
}

/// Measures the GF(256) parity kernels: table vs scalar throughput at 1
/// thread, data-plane scaling at N threads, and the 1-vs-4-thread
/// output-byte mismatch (must be 0).
fn parity_metrics(reps: usize) -> Vec<PerfMetric> {
    let corpus = parity_corpus();
    let refs: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let total = PARITY_STRIPES * PARITY_STRIPE_LEN;
    let single = DataPlane::new(1);
    let multi = DataPlane::detect();

    let scalar_p = median_mb_per_sec(total, reps, || {
        black_box(scalar_parity_p(&refs));
    });
    let measure_scalar_q = || {
        median_mb_per_sec(total, reps, || {
            black_box(scalar_parity_q(&refs));
        })
    };
    let measure_q_1t = || {
        median_mb_per_sec(total, reps, || {
            black_box(parity::parity_q_with(&refs, &single).ok());
        })
    };
    let scalar_q = measure_scalar_q();
    let p_1t = median_mb_per_sec(total, reps, || {
        black_box(parity::parity_p_with(&refs, &single).ok());
    });
    let p_mt = median_mb_per_sec(total, reps, || {
        black_box(parity::parity_p_with(&refs, &multi).ok());
    });
    let q_1t = measure_q_1t();
    let q_mt = median_mb_per_sec(total, reps, || {
        black_box(parity::parity_q_with(&refs, &multi).ok());
    });
    let enc_1t = median_mb_per_sec(total, reps, || {
        black_box(parity::encode_pq_with(&refs, &single).ok());
    });
    let enc_mt = median_mb_per_sec(total, reps, || {
        black_box(parity::encode_pq_with(&refs, &multi).ok());
    });

    let encoded = parity::encode_pq_with(&refs, &single).ok();
    let (rec_mt, ver_mt) = if let Some((p, q)) = &encoded {
        let mut lossy: Vec<Option<&[u8]>> = refs.iter().map(|s| Some(*s)).collect();
        lossy[2] = None;
        lossy[PARITY_STRIPES - 3] = None;
        let rec = median_mb_per_sec(total, reps, || {
            black_box(parity::reconstruct_pq_with(&lossy, Some(p), Some(q), &multi).ok());
        });
        let ver = median_mb_per_sec(total, reps, || {
            black_box(parity::verify_group_with(&refs, p, Some(q), &multi).ok());
        });
        (rec, ver)
    } else {
        (0.0, 0.0)
    };
    let mismatch = parity_thread_mismatch(&refs, &corpus);

    // Cost ratios: time(table kernel) / time(scalar reference), i.e. the
    // inverse throughput ratio. Machine-independent like the scaling
    // ratios above, so they are the gated metrics; absolute MB/s and the
    // thread-scaling figures depend on the host and ride untracked.
    let q_cost = median_ratio_of_5(|| cost_ratio(measure_scalar_q(), measure_q_1t()));
    let enc_cost = if enc_1t > 0.0 && scalar_p > 0.0 && scalar_q > 0.0 {
        (1.0 / enc_1t) / (1.0 / scalar_p + 1.0 / scalar_q)
    } else {
        f64::INFINITY
    };
    let speedup = if scalar_q > 0.0 { q_1t / scalar_q } else { 0.0 };

    vec![
        metric(
            "parity_q_scalar_mb_s",
            scalar_q,
            "MB/s",
            false,
            "Q parity via per-byte shift-and-add multiply (pre-table reference)",
        ),
        metric(
            "parity_p_mb_s_1t",
            p_1t,
            "MB/s",
            false,
            "P parity, word-sliced XOR kernel, 1 thread",
        ),
        metric(
            "parity_p_mb_s_mt",
            p_mt,
            "MB/s",
            false,
            "P parity, word-sliced XOR kernel, detected threads",
        ),
        metric(
            "parity_q_mb_s_1t",
            q_1t,
            "MB/s",
            false,
            "Q parity, split-table kernel, 1 thread",
        ),
        metric(
            "parity_q_mb_s_mt",
            q_mt,
            "MB/s",
            false,
            "Q parity, split-table kernel, detected threads",
        ),
        metric(
            "encode_pq_mb_s_1t",
            enc_1t,
            "MB/s",
            false,
            "fused P+Q encode, 1 thread",
        ),
        metric(
            "encode_pq_mb_s_mt",
            enc_mt,
            "MB/s",
            false,
            "fused P+Q encode, detected threads",
        ),
        metric(
            "reconstruct2_mb_s_mt",
            rec_mt,
            "MB/s",
            false,
            "two-stripe GF reconstruction, detected threads",
        ),
        metric(
            "verify_group_mb_s_mt",
            ver_mt,
            "MB/s",
            false,
            "no-allocation P+Q verify sweep, detected threads",
        ),
        metric(
            "data_plane_threads",
            multi.threads() as f64,
            "threads",
            false,
            "detected data-plane worker count on this host",
        ),
        metric(
            "parity_q_speedup_vs_scalar",
            speedup,
            "ratio",
            false,
            "Q table-kernel throughput over the scalar reference, 1 thread",
        ),
        metric(
            "parity_q_cost_vs_scalar",
            q_cost,
            "ratio",
            true,
            "Q table-kernel time over scalar time (near-machine-independent)",
        ),
        metric(
            "encode_pq_cost_vs_scalar",
            enc_cost,
            "ratio",
            true,
            "fused encode time over scalar P-then-Q time",
        ),
        metric(
            "parity_mt_mismatch_bytes",
            mismatch,
            "bytes",
            true,
            "output bytes differing between 1-thread and 4-thread encode/reconstruct",
        ),
    ]
}

/// Corpus for the digest throughput measurements: large enough that the
/// chunked digest actually fans out (32 x 256 KiB chunks).
const DIGEST_CORPUS_BYTES: usize = 8 << 20;

/// `content_digest` rebuilt from its definition with the public scalar
/// `sha256` alone — one chunk at a time, then the root over the length
/// and the chunk digests: the lockstep kernel's baseline and oracle.
fn chunkwise_scalar_digest(data: &[u8]) -> [u8; 32] {
    let mut root = (data.len() as u64).to_be_bytes().to_vec();
    for chunk in data.chunks(ros_cas::CHUNK_BYTES) {
        root.extend_from_slice(&ros_cas::sha256(chunk));
    }
    ros_cas::sha256(&root)
}

/// Measures the CAS subsystem: content-digest throughput at 1 and N
/// threads, the thread-count digest invariance (must be 0 differing
/// bytes), and the dedup smoke comparison's ratio metrics.
fn cas_metrics(reps: usize) -> Vec<PerfMetric> {
    let mut state = 0x000C_A5D1_6E57_u64;
    let mut corpus = vec![0u8; DIGEST_CORPUS_BYTES];
    for chunk in corpus.chunks_mut(8) {
        let word = next_id(&mut state).to_le_bytes();
        for (dst, src) in chunk.iter_mut().zip(word.iter()) {
            *dst = *src;
        }
    }
    let single = DataPlane::new(1);
    let quad = DataPlane::new(4);
    let multi = DataPlane::detect();

    let measure_digest_1t = || {
        median_mb_per_sec(DIGEST_CORPUS_BYTES, reps, || {
            black_box(ros_cas::content_digest(&corpus, &single));
        })
    };
    let measure_scalar_1t = || {
        median_mb_per_sec(DIGEST_CORPUS_BYTES, reps, || {
            black_box(chunkwise_scalar_digest(&corpus));
        })
    };
    let digest_1t = measure_digest_1t();
    let digest_mt = median_mb_per_sec(DIGEST_CORPUS_BYTES, reps, || {
        black_box(ros_cas::content_digest(&corpus, &multi));
    });
    let scalar_1t = measure_scalar_1t();
    let d1 = ros_cas::content_digest(&corpus, &single);
    let d4 = ros_cas::content_digest(&corpus, &quad);
    let mismatch = diff_bytes(d1.as_bytes(), d4.as_bytes());
    let lockstep_mismatch = diff_bytes(d1.as_bytes(), &chunkwise_scalar_digest(&corpus));
    let lockstep_cost = median_ratio_of_5(|| cost_ratio(measure_scalar_1t(), measure_digest_1t()));

    // The dedup comparison: ratios are workload properties, not host
    // speeds, so the burn cost ratio gates like the other cost ratios.
    let (dedup_ratio, burn_cost) = match crate::cas::run_cas(&crate::cas::CasConfig::smoke()) {
        Ok(r) => (r.dedup_ratio, r.burn_cost_ratio),
        Err(_) => (0.0, f64::INFINITY),
    };

    vec![
        metric(
            "cas_digest_mb_s_1t",
            digest_1t,
            "MB/s",
            false,
            "chunked SHA-256 content digest, 1 thread",
        ),
        metric(
            "cas_digest_mb_s_scalar_1t",
            scalar_1t,
            "MB/s",
            false,
            "the same digest with chunks hashed one at a time by the scalar kernel",
        ),
        metric(
            "cas_digest_mb_s_mt",
            digest_mt,
            "MB/s",
            false,
            "chunked SHA-256 content digest, detected threads",
        ),
        metric(
            "cas_lockstep_cost_vs_scalar",
            lockstep_cost,
            "ratio",
            // Only x86-64 has lockstep kernels; elsewhere both sides are
            // the scalar kernel and the ratio is ~1. The baseline is the
            // four-lane value and the gate only fails upward, so it
            // holds with AVX2 (eight lanes, about half of it) and
            // without.
            cfg!(all(target_arch = "x86_64", target_feature = "sse2")),
            "content_digest time over chunk-at-a-time scalar time, 1 thread (x86-64: ~0.25 at 8 lanes, ~0.49 at 4)",
        ),
        metric(
            "cas_lockstep_lanes",
            ros_cas::lockstep_lanes() as f64,
            "lanes",
            false,
            "leaves per lockstep SHA-256 pass on this host (8 with AVX2, 4 on other x86-64, 1 elsewhere)",
        ),
        metric(
            "cas_lockstep_mismatch_bytes",
            lockstep_mismatch as f64,
            "bytes",
            true,
            "digest bytes differing between content_digest and its scalar definition",
        ),
        metric(
            "cas_digest_mt_mismatch_bytes",
            mismatch as f64,
            "bytes",
            true,
            "digest bytes differing between 1-thread and 4-thread runs",
        ),
        metric(
            "cas_dedup_ratio_smoke",
            dedup_ratio,
            "ratio",
            false,
            "logical/unique bytes on the duplicated Zipf smoke ingest",
        ),
        metric(
            "dedup_burn_cost_ratio",
            burn_cost,
            "ratio",
            true,
            "dedup-engine images over plain-engine images, same ingest (< 1)",
        ),
    ]
}

/// Builds an MV with `n` files spread over a two-level directory fan,
/// plus the lookup key set, for the namespace resolution benchmarks.
fn namespace_fixture(n: usize) -> Option<(MetadataVolume, Vec<ros_olfs::UdfPath>)> {
    let mut mv = MetadataVolume::new();
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let path: ros_olfs::UdfPath = format!("/dir{}/sub{}/file{i}.dat", i % 61, i % 17)
            .parse()
            .ok()?;
        mv.create(&path).ok()?;
        keys.push(path);
    }
    Some((mv, keys))
}

/// Flat-namespace resolution: per-lookup cost of `MetadataVolume::get`
/// over `n` entries (hash-indexed, so this should not grow with `n`).
///
/// Queries cycle through a fixed 256-key subset regardless of `n`, so
/// the measured cost is the resolution algorithm, not the cache-miss
/// cost of streaming `n` scattered key objects through the benchmark
/// loop itself.
fn namespace_lookup_ns(n: usize, reps: usize) -> f64 {
    let Some((mv, keys)) = namespace_fixture(n) else {
        return f64::INFINITY;
    };
    let stride = (n / 256).max(1);
    let hot: Vec<&ros_olfs::UdfPath> = keys.iter().step_by(stride).take(256).collect();
    let queries = 30_000usize;
    let mut state = n as u64;
    median_ns_per(reps, || {
        for _ in 0..queries {
            let k = hot[ros_sim::to_usize(next_id(&mut state) % hot.len() as u64)];
            black_box(mv.get(k));
        }
        queries
    })
}

/// Bytes memcpy'd per read on an engine serving unsplit files — the
/// zero-copy contract says exactly 0 (reads are refcounted slices).
fn read_copy_bytes_per_read() -> f64 {
    let mut ros = Ros::new(RosConfig::tiny());
    let files = 24usize;
    for i in 0..files {
        let path: Result<ros_olfs::UdfPath, _> = format!("/perf/f{i}.bin").parse();
        let Ok(path) = path else {
            return f64::INFINITY;
        };
        let fill = u8::try_from(i & 0xff).unwrap_or(0);
        if ros.write_file(&path, vec![fill; 16 * 1024]).is_err() {
            return f64::INFINITY;
        }
    }
    for round in 0..3 {
        for i in 0..files {
            let Ok(path) = format!("/perf/f{i}.bin").parse() else {
                return f64::INFINITY;
            };
            if round % 2 == 0 {
                if ros.read_file(&path).is_err() {
                    return f64::INFINITY;
                }
            } else if ros.read_range(&path, 1024, 4096).is_err() {
                return f64::INFINITY;
            }
        }
    }
    let c = ros.counters();
    c.read_copy_bytes as f64 / c.reads.max(1) as f64
}

/// Measures the flat-namespace layer: O(1) path resolution at sizes a
/// decade apart (the 10x scaling ratio is the gated metric) and the
/// read path's zero-copy guarantee.
fn namespace_metrics(reps: usize) -> Vec<PerfMetric> {
    let lookup_1k = namespace_lookup_ns(1_000, reps);
    let lookup_10k = namespace_lookup_ns(10_000, reps);
    let lookup_100k = namespace_lookup_ns(100_000, reps);
    let scale = if lookup_1k > 0.0 {
        lookup_10k / lookup_1k
    } else {
        f64::INFINITY
    };
    let copy_per_read = read_copy_bytes_per_read();
    vec![
        metric(
            "namespace_lookup_ns_1k",
            lookup_1k,
            "ns/op",
            false,
            "MV flat-index path resolution, 1k entries",
        ),
        metric(
            "namespace_lookup_ns_10k",
            lookup_10k,
            "ns/op",
            false,
            "MV flat-index path resolution, 10k entries",
        ),
        metric(
            "namespace_lookup_ns_100k",
            lookup_100k,
            "ns/op",
            false,
            "MV flat-index path resolution, 100k entries",
        ),
        metric(
            "lookup_cost_scale_10x",
            scale,
            "ratio",
            true,
            "per-lookup cost growth for 10x more entries (hash index => ~1)",
        ),
        metric(
            "read_copy_bytes_per_read",
            copy_per_read,
            "bytes",
            true,
            "bytes memcpy'd per unsplit-file read (zero-copy contract => 0)",
        ),
    ]
}

/// Size of the buckets and buffers the write-path rows work on: one
/// `e2e` image.
const IMAGE_BYTES: usize = 4 << 20;

/// `Bucket::close` (serialise + parse back) of a 4 MB bucket filled
/// with `file_bytes`-sized files over 16 directories, in image MB/s.
fn seal_mb_per_sec(file_bytes: usize, reps: usize) -> f64 {
    let mut bucket = Bucket::new(1, IMAGE_BYTES as u64);
    for i in 0..IMAGE_BYTES / file_bytes.max(1) {
        let Ok(path) = format!("/perf/d{:02}/f{i:05}.bin", i % 16).parse() else {
            return 0.0;
        };
        let fill = u8::try_from(i & 0x7f).unwrap_or(0) | 0x80;
        if bucket.write(&path, vec![fill; file_bytes], 0).is_err() {
            break;
        }
    }
    let image_bytes = usize::try_from(bucket.used_bytes()).unwrap_or(IMAGE_BYTES);
    median_mb_per_sec(image_bytes, reps.saturating_mul(4), || {
        black_box(bucket.close().is_ok());
    })
}

/// Wall time of `Bytes::from(Vec<u8>)` alone on a touched 4 MB vector:
/// about a microsecond when the vector is adopted (one small, cache-cold
/// `Arc` allocation), some 400 µs when it is copied.
fn bytes_from_vec_ns(reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1).saturating_mul(4))
        .map(|i| {
            let v = vec![u8::try_from(i & 0xff).unwrap_or(0); IMAGE_BYTES];
            #[expect(
                clippy::disallowed_types,
                reason = "perf harness measures real wall-clock kernel throughput by design"
            )]
            let start = Instant::now();
            let frozen = black_box(bytes::Bytes::from(black_box(v)));
            let ns = start.elapsed().as_nanos() as f64;
            drop(frozen);
            ns
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The write path's buffer passes; all untracked (see the module doc).
fn buffer_metrics(reps: usize) -> Vec<PerfMetric> {
    vec![
        metric(
            "udf_seal_mb_s_200k",
            seal_mb_per_sec(200 * 1024, reps),
            "MB/s",
            false,
            "Bucket::close of a full 4 MB bucket of 200 KB files",
        ),
        metric(
            "udf_seal_mb_s_2k",
            seal_mb_per_sec(2 * 1024, reps),
            "MB/s",
            false,
            "Bucket::close of a full 4 MB bucket of 2 KB files",
        ),
        metric(
            "bytes_from_vec_ns_4mb",
            bytes_from_vec_ns(reps),
            "ns/op",
            false,
            "Bytes::from(Vec<u8>) of 4 MB (adopted => ~1 us, copied => ~400 us)",
        ),
    ]
}

fn metric(name: &str, value: f64, unit: &str, tracked: bool, desc: &str) -> PerfMetric {
    PerfMetric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        tracked,
        desc: desc.to_string(),
    }
}

/// Runs every hot-path measurement and assembles the report.
///
/// `reps` repetitions feed each median; 5 is the CI setting, tests use
/// fewer to stay fast.
pub fn measure(reps: usize) -> PerfReport {
    let cache_small = cache_churn_ns(64, reps);
    let cache_big = cache_churn_ns(640, reps);
    let agg_small = aggregate_ns_per_point(12, 240, reps);
    let agg_big = aggregate_ns_per_point(120, 240, reps);
    let pct_small = percentile_query_ns(4_000, reps);
    let pct_big = percentile_query_ns(40_000, reps);
    let rate_small = rate_at_query_ns(1_000, reps);
    let rate_big = rate_at_query_ns(10_000, reps);

    let mut metrics = vec![
        metric(
            "cache_churn_ns_64",
            cache_small,
            "ns/op",
            false,
            "ReadCache mixed insert/touch/remove, 64-image capacity",
        ),
        metric(
            "cache_churn_ns_640",
            cache_big,
            "ns/op",
            false,
            "ReadCache mixed insert/touch/remove, 640-image capacity",
        ),
        metric(
            "cache_churn_scale_10x",
            cache_big / cache_small,
            "ratio",
            true,
            "per-op cost growth for 10x more cached images (O(1) => ~1)",
        ),
        metric(
            "aggregate_ns_per_point_12",
            agg_small,
            "ns/op",
            false,
            "ThroughputSeries::aggregate per input point, 12 series",
        ),
        metric(
            "aggregate_ns_per_point_120",
            agg_big,
            "ns/op",
            false,
            "ThroughputSeries::aggregate per input point, 120 series",
        ),
        metric(
            "aggregate_scale_10x",
            agg_big / agg_small,
            "ratio",
            true,
            "per-point cost growth for 10x more series (O(log k) => ~2)",
        ),
        metric(
            "percentile_query_ns_4k",
            pct_small,
            "ns/op",
            false,
            "LatencyRecorder percentile query, 4k samples",
        ),
        metric(
            "percentile_query_ns_40k",
            pct_big,
            "ns/op",
            false,
            "LatencyRecorder percentile query, 40k samples",
        ),
        metric(
            "percentile_scale_10x",
            median_ratio_of_5(|| {
                percentile_query_ns(40_000, reps) / percentile_query_ns(4_000, reps)
            }),
            "ratio",
            true,
            "per-query cost growth for 10x more samples (cached sort => ~1)",
        ),
        metric(
            "rate_at_query_ns_1k",
            rate_small,
            "ns/op",
            false,
            "ThroughputSeries::rate_at lookup, 1k points",
        ),
        metric(
            "rate_at_query_ns_10k",
            rate_big,
            "ns/op",
            false,
            "ThroughputSeries::rate_at lookup, 10k points",
        ),
        metric(
            "rate_at_scale_10x",
            rate_big / rate_small,
            "ratio",
            true,
            "per-lookup cost growth for 10x more points (O(log n) => ~1)",
        ),
    ];
    metrics.extend(namespace_metrics(reps));
    metrics.extend(parity_metrics(reps));
    metrics.extend(cas_metrics(reps));
    metrics.extend(buffer_metrics(reps));
    PerfReport {
        schema: "BENCH_hotpaths/v1".to_string(),
        max_regression_pct: MAX_REGRESSION_PCT,
        metrics,
    }
}

impl PerfReport {
    /// Renders the report as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "Hot-path perf report (tracked = gated scaling ratios; 10x size must stay ~flat)\n",
        );
        out += &format!(
            "{:<28} {:>12} {:>8}  {}\n",
            "metric", "value", "gated", "description"
        );
        for m in &self.metrics {
            let unit = match m.unit.as_str() {
                "ratio" => "x",
                "ns/op" => "ns",
                other => other,
            };
            out += &format!(
                "{:<28} {:>9.2} {:<7} {:>5}  {}\n",
                m.name,
                m.value,
                unit,
                if m.tracked { "yes" } else { "-" },
                m.desc
            );
        }
        out
    }

    /// Serializes to the committed `BENCH_hotpaths.json` layout.
    pub fn to_json(&self) -> Result<String, BenchError> {
        serde_json::to_string_pretty(self).map_err(|e| BenchError {
            context: "perf_json",
            detail: e.to_string(),
        })
    }

    /// Parses a committed baseline.
    pub fn from_json(text: &str) -> Result<PerfReport, BenchError> {
        serde_json::from_str(text).map_err(|e| BenchError {
            context: "perf_baseline",
            detail: format!("bad baseline JSON: {e}"),
        })
    }

    /// Compares this (fresh) report against `baseline`, returning every
    /// tracked metric that regressed more than `max_regression_pct`
    /// (baseline's threshold) as `(name, baseline, current)` rows.
    pub fn regressions_vs(&self, baseline: &PerfReport) -> Vec<(String, f64, f64)> {
        let limit = 1.0 + baseline.max_regression_pct / 100.0;
        let mut out = Vec::new();
        for base in baseline.metrics.iter().filter(|m| m.tracked) {
            match self.metrics.iter().find(|m| m.name == base.name) {
                Some(cur) if cur.value > base.value * limit => {
                    out.push((base.name.clone(), base.value, cur.value));
                }
                Some(_) => {}
                None => out.push((base.name.clone(), base.value, f64::NAN)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(values: &[(&str, f64, bool)]) -> PerfReport {
        PerfReport {
            schema: "BENCH_hotpaths/v1".into(),
            max_regression_pct: MAX_REGRESSION_PCT,
            metrics: values
                .iter()
                .map(|(n, v, t)| metric(n, *v, "ratio", *t, "test"))
                .collect(),
        }
    }

    #[test]
    fn gate_flags_only_tracked_regressions() {
        let baseline = report_with(&[("a", 1.0, true), ("b", 2.0, true), ("c", 100.0, false)]);
        let current = report_with(&[("a", 1.2, true), ("b", 2.6, true), ("c", 900.0, false)]);
        let bad = current.regressions_vs(&baseline);
        // a grew 20% (allowed), b grew 30% (flagged), c is untracked.
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "b");
    }

    #[test]
    fn gate_flags_missing_tracked_metrics() {
        let baseline = report_with(&[("gone", 1.0, true)]);
        let current = report_with(&[("other", 1.0, true)]);
        let bad = current.regressions_vs(&baseline);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].2.is_nan());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = report_with(&[("x", 1.5, true)]);
        let back = PerfReport::from_json(&report.to_json().unwrap()).unwrap();
        assert_eq!(back.metrics.len(), 1);
        assert_eq!(back.metrics[0].name, "x");
        assert!(back.metrics[0].tracked);
        assert!((back.metrics[0].value - 1.5).abs() < 1e-12);
        assert!((back.max_regression_pct - MAX_REGRESSION_PCT).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing assertion; meaningful only in optimized builds (CI release test pass)"
    )]
    fn measured_scaling_ratios_are_flat() {
        // One cheap reps pass: the rebuilt hot paths must not cost 10x
        // per op at 10x size (the old implementations sat near 10).
        let report = measure(1);
        for name in [
            "cache_churn_scale_10x",
            "percentile_scale_10x",
            "rate_at_scale_10x",
        ] {
            let m = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("tracked metric present");
            assert!(
                m.value < 6.0,
                "{name} = {:.2}, hot path no longer flat",
                m.value
            );
        }
        let agg = report
            .metrics
            .iter()
            .find(|m| m.name == "aggregate_scale_10x")
            .expect("aggregate ratio present");
        assert!(
            agg.value < 6.0,
            "aggregate_scale_10x = {:.2}, merge no longer ~O(log k)",
            agg.value
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing assertion; meaningful only in optimized builds (CI release test pass)"
    )]
    fn parity_tables_beat_scalar_and_stay_deterministic() {
        let metrics = parity_metrics(1);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .expect("parity metric present")
                .value
        };
        let speedup = get("parity_q_speedup_vs_scalar");
        assert!(
            speedup >= 10.0,
            "Q table kernel only {speedup:.1}x the scalar reference (need >= 10x)"
        );
        let mismatch = get("parity_mt_mismatch_bytes");
        assert!(
            mismatch == 0.0,
            "{mismatch} output bytes differ between 1-thread and 4-thread runs"
        );
    }
}
