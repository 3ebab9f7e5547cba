//! Seeded inputs: the four workloads' payloads, paths and op scripts.
//!
//! Everything a repetition replays is generated here, once, from
//! `--seed`, before anything is timed. The system under test receives
//! only the generated ops and bytes. Each op carries the payload it
//! must read back, so verification needs no model at run time.
//!
//! Two things are pinned rather than drawn, so that a run at one seed
//! does the same *amount* of work as a run at another and their wall
//! clocks are comparable: the count of every op type, and the total
//! payload volume of the exponential-size datasets (sizes are drawn,
//! then rescaled onto the target total).

use bytes::Bytes;
use ros_faults::{AgingPlan, AgingSpec, FaultEvent, FaultKind};
use ros_sim::SimRng;
use ros_udf::UdfPath;
use ros_workload::dist::{SizeDist, Zipf};

/// The four workloads, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Gateway ingest of a 160 MB dataset, then burn.
    IngestBurn,
    /// Zipf reads against a fully cold copy of the same dataset.
    ColdRead,
    /// Metadata-bound small-file mix on the direct API with dedup on.
    SmallOps,
    /// Aging, audit and repair on a three-rack federation.
    ClusterPreserve,
}

impl Workload {
    /// All workloads in report order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestBurn,
        Workload::ColdRead,
        Workload::SmallOps,
        Workload::ClusterPreserve,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBurn => "ingest_burn",
            Workload::ColdRead => "cold_read",
            Workload::SmallOps => "small_ops",
            Workload::ClusterPreserve => "cluster_preserve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which layers do the work, and which are bypassed — the reason
    /// the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestBurn => {
                "write path: udf serialise, cas digest at seal, disk parity and drive burn do the \
                 work; mech fetch, image parse and the read cache are idle (reads fit the buffer)"
            }
            Workload::ColdRead => {
                "read path: image parse, digest-verify-on-fetch, read cache and mech+drive fetch \
                 models dominate; serialise, parity and burn are nearly idle"
            }
            Workload::SmallOps => {
                "metadata-bound: olfs namespace, version and dedup maps and the sim queue dominate, \
                 byte kernels are minor; the only workload with dedup on"
            }
            Workload::ClusterPreserve => {
                "preservation: cluster routing and replication, fault injection, the audit/repair \
                 ladder and disk reconstruct; the only workload with background work and many racks"
            }
        }
    }
}

/// How large a script to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's fixed sizes.
    Full,
    /// A CI-sized script for `selfcheck` and the unit tests: same code
    /// paths (seal, parity, burn, fetch, audit), a fraction of the ops.
    Check,
}

/// One call into the system under test. Indices point into
/// [`Inputs::paths`], [`Inputs::payloads`] and [`Inputs::dirs`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Create `path`, or write a new version of it if it exists.
    Write { path: u32, payload: u32 },
    /// Read the whole file; it must equal `payload`.
    Read { path: u32, payload: u32 },
    /// Read `len` bytes at `offset`; must equal that slice of `payload`.
    ReadRange {
        path: u32,
        payload: u32,
        offset: u32,
        len: u32,
    },
    /// Stat; the size must be `payload`'s length.
    Stat { path: u32, payload: u32 },
    /// List a directory; it must hold `entries` children.
    Readdir { dir: u32, entries: u32 },
    /// Remove a file from the namespace.
    Unlink { path: u32 },
    /// Seal, generate parity and burn everything buffered.
    Flush,
    /// Single rack: drop every burned buffer copy and unload the bays.
    GoCold,
    /// Sampled digest audit of `sample` images (per rack on a cluster).
    Audit { sample: u32 },
    /// Cluster: flush, drain burns and evict buffer copies everywhere.
    Archive,
    /// Cluster: evict burned copies and unload bays on every rack.
    ColdStore,
    /// Cluster: deliver epoch `epoch`'s share of the aging plan.
    Inject { epoch: u32 },
    /// Cluster: advance every rack's clock by one epoch.
    RunEpoch,
}

/// Everything one workload replays.
pub struct Inputs {
    /// The workload generated.
    pub workload: Workload,
    /// The seed it was generated from.
    pub seed: u64,
    /// Every path an op may name.
    pub paths: Vec<UdfPath>,
    /// Every directory a `Readdir` may name.
    pub dirs: Vec<UdfPath>,
    /// Payload pool (refcounted: handing one to the system is no copy).
    pub payloads: Vec<Bytes>,
    /// Untimed ops run after construction, before the script.
    pub preload: Vec<Op>,
    /// The timed op script.
    pub script: Vec<Op>,
    /// Aging strikes by epoch, already wrapped for cluster delivery.
    pub faults: Vec<Vec<FaultEvent>>,
    /// Wall time `AgingPlan::generate` took, in ms (0 without a plan).
    pub plan_generate_ms: f64,
}

impl Inputs {
    /// Bytes `ops` ask the system to acknowledge.
    pub fn write_bytes_of(&self, ops: &[Op]) -> u64 {
        ops.iter()
            .map(|op| match op {
                Op::Write { payload, .. } => self.payloads[*payload as usize].len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Bytes the preload and the script ask the system to acknowledge.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes_of(&self.preload) + self.write_bytes_of(&self.script)
    }
}

/// Simulated length of one aging epoch: a month.
pub const EPOCH_SECS: u64 = 30 * 86_400;

fn path(s: String) -> UdfPath {
    s.parse().expect("generated path is valid")
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("input tables stay far below u32::MAX")
}

fn random_payload(rng: &mut SimRng, len: u64) -> Bytes {
    let mut buf = vec![0u8; usize::try_from(len).expect("payload fits memory")];
    rng.fill_bytes(&mut buf);
    Bytes::from(buf)
}

/// Draws `n` sizes from `dist` (whose samples lie in `[lo, hi]`) and
/// rescales them so they sum to exactly `total`: the seed shapes the
/// dataset, the volume is the workload's.
pub fn pinned_sizes(
    rng: &mut SimRng,
    dist: SizeDist,
    n: usize,
    total: u64,
    lo: u64,
    hi: u64,
) -> Vec<u64> {
    let mut sizes: Vec<u64> = (0..n).map(|_| dist.sample(rng)).collect();
    let drawn: u64 = sizes.iter().sum();
    for s in &mut sizes {
        *s = ((*s as f64 * total as f64 / drawn as f64) as u64).clamp(lo, hi);
    }
    // Rounding and clamping leave a small residue: spread it over the
    // files that still have room, in order.
    let mut sum: u64 = sizes.iter().sum();
    for s in &mut sizes {
        if sum < total {
            let add = (total - sum).min(hi - *s);
            *s += add;
            sum += add;
        } else if sum > total {
            let cut = (sum - total).min(*s - lo);
            *s -= cut;
            sum -= cut;
        }
    }
    sizes
}

/// Archive-file sizes: exponential with the mean that fills `total`,
/// between 1 KB and 2 MB.
fn archive_sizes(rng: &mut SimRng, n: usize, total: u64) -> Vec<u64> {
    let (lo, hi) = (1024, 2 << 20);
    let dist = SizeDist::Exponential {
        mean: total / n as u64,
        lo,
        hi,
    };
    pinned_sizes(rng, dist, n, total, lo, hi)
}

/// Popularity rank -> file. Which file is hot must not decide how many
/// bytes a run returns, or `payload_mb_per_wall_s` would swing by a
/// fifth from seed to seed on the size of the one hottest file. So
/// rank `r` takes the file at size quantile `frac(1/2 + r/phi)`: the
/// golden-ratio sequence spreads every prefix of the ranking evenly
/// over the size distribution, starting at the median. Sizes were
/// dealt to file indices at random, so the hot files still scatter
/// over the burned images in a seed-dependent way.
fn files_by_rank(payloads: &[Bytes]) -> Vec<usize> {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let n = payloads.len();
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| (payloads[i].len(), i));
    let mut taken = vec![false; n];
    (0..n)
        .map(|r| {
            let q = (0.5 + r as f64 * INV_PHI).fract();
            // Nearest free slot at or after the quantile, wrapping.
            let mut slot = ((q * n as f64) as usize).min(n - 1);
            while taken[slot] {
                slot = (slot + 1) % n;
            }
            taken[slot] = true;
            by_size[slot]
        })
        .collect()
}

/// The archive dataset `ingest_burn` writes and `cold_read` preloads.
struct Dataset {
    files: usize,
    total_bytes: u64,
}

impl Dataset {
    /// 160 MB in 800 files: 40 images of 4 MB, i.e. three full
    /// 11-data-disc arrays and seven images of a fourth — far enough
    /// from an array boundary that no seed tips the tray count.
    fn of(scale: Scale) -> Dataset {
        match scale {
            Scale::Full => Dataset {
                files: 800,
                total_bytes: 160_000_000,
            },
            Scale::Check => Dataset {
                files: 40,
                total_bytes: 8_000_000,
            },
        }
    }

    fn generate(&self, rng: &mut SimRng, inputs: &mut Inputs) {
        let sizes = archive_sizes(&mut rng.fork(0x51), self.files, self.total_bytes);
        let mut bytes = rng.fork(0xDA);
        for (i, size) in sizes.into_iter().enumerate() {
            inputs.paths.push(path(format!("/ing/d{}/f{i}", i % 16)));
            inputs.payloads.push(random_payload(&mut bytes, size));
        }
    }
}

fn empty(workload: Workload, seed: u64) -> Inputs {
    Inputs {
        workload,
        seed,
        paths: Vec::new(),
        dirs: Vec::new(),
        payloads: Vec::new(),
        preload: Vec::new(),
        script: Vec::new(),
        faults: Vec::new(),
        plan_generate_ms: 0.0,
    }
}

/// Generates a workload's inputs. Pure in `(workload, seed, scale)`.
pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let mut inputs = empty(workload, seed);
    // One root stream per (workload, seed); every purpose forks its own
    // so adding draws to one never shifts another.
    let mut rng = SimRng::seed_from(seed).fork(workload as u64 + 1);
    match workload {
        Workload::IngestBurn => ingest_burn(&mut rng, scale, &mut inputs),
        Workload::ColdRead => cold_read(&mut rng, scale, &mut inputs),
        Workload::SmallOps => small_ops(&mut rng, scale, &mut inputs),
        Workload::ClusterPreserve => cluster_preserve(&mut rng, scale, &mut inputs),
    }
    inputs
}

fn ingest_burn(rng: &mut SimRng, scale: Scale, inputs: &mut Inputs) {
    Dataset::of(scale).generate(rng, inputs);
    // Every write is followed by a hot read-back of the file written
    // LAG writes earlier, still in a bucket or a buffered image. Each
    // file is read once, so how many *split* files a run reads back
    // (the only reads that copy) does not depend on the seed's luck:
    // one random read per five writes made `read_wall_us_mean`, a mean
    // of 160 ten-microsecond calls, move by a quarter between seeds.
    const LAG: usize = 8;
    for i in 0..inputs.paths.len() {
        let file = index(i);
        inputs.script.push(Op::Write {
            path: file,
            payload: file,
        });
        if i >= LAG {
            let earlier = index(i - LAG);
            inputs.script.push(Op::Read {
                path: earlier,
                payload: earlier,
            });
        }
    }
    inputs.script.push(Op::Flush);
}

fn cold_read(rng: &mut SimRng, scale: Scale, inputs: &mut Inputs) {
    let dataset = Dataset::of(scale);
    dataset.generate(rng, inputs);
    let (reads, new_files, new_bytes, audit) = match scale {
        Scale::Full => (1500, 150, 30_000_000, 8),
        Scale::Check => (80, 8, 1_600_000, 2),
    };
    for i in 0..dataset.files {
        inputs.preload.push(Op::Write {
            path: index(i),
            payload: index(i),
        });
    }
    inputs.preload.push(Op::Flush);
    inputs.preload.push(Op::GoCold);

    let sizes = archive_sizes(&mut rng.fork(0x52), new_files, new_bytes);
    let mut bytes = rng.fork(0xDB);
    for (k, size) in sizes.into_iter().enumerate() {
        inputs.paths.push(path(format!("/new/d{}/f{k}", k % 4)));
        inputs.payloads.push(random_payload(&mut bytes, size));
    }

    let by_rank = files_by_rank(&inputs.payloads[..dataset.files]);
    let zipf = Zipf::new(dataset.files, 1.0);
    let mut pick = rng.fork(0x0E);
    let reads_per_write = reads / new_files;
    let mut written = 0;
    for r in 0..reads {
        let file = by_rank[zipf.sample(&mut pick)];
        let size = inputs.payloads[file].len() as u64;
        if r % 3 == 2 {
            let offset = pick.range_u64(0, size);
            let len = pick.range_u64(1, (size - offset).min(64 * 1024) + 1);
            inputs.script.push(Op::ReadRange {
                path: index(file),
                payload: index(file),
                offset: u32::try_from(offset).expect("files are at most 2 MB"),
                len: u32::try_from(len).expect("ranges are at most 64 KB"),
            });
        } else {
            inputs.script.push(Op::Read {
                path: index(file),
                payload: index(file),
            });
        }
        if r % reads_per_write == reads_per_write - 1 && written < new_files {
            let file = index(dataset.files + written);
            inputs.script.push(Op::Write {
                path: file,
                payload: file,
            });
            written += 1;
        }
    }
    inputs.script.push(Op::Flush);
    // The pipeline's last stage: a sampled digest audit of the rack.
    inputs.script.push(Op::Audit { sample: audit });
}

fn small_ops(rng: &mut SimRng, scale: Scale, inputs: &mut Inputs) {
    let (creates, dirs) = match scale {
        Scale::Full => (12_000usize, 800usize),
        Scale::Check => (600, 40),
    };
    for d in 0..dirs {
        inputs.dirs.push(path(format!("/s/d{d}")));
    }
    let mut sizes = rng.fork(0x53);
    let mut bytes = rng.fork(0xDC);
    let mut pick = rng.fork(0x0F);
    let mut fresh_payload = |inputs: &mut Inputs| {
        let len = sizes.range_u64(1024, 4096 + 1);
        inputs.payloads.push(random_payload(&mut bytes, len));
        index(inputs.payloads.len() - 1)
    };

    // The generator's own model of the namespace: which files exist,
    // what each holds, how many children each directory has.
    let mut live: Vec<u32> = Vec::new();
    let mut content: Vec<u32> = Vec::with_capacity(creates);
    let mut children = vec![0u32; dirs];
    let mut dir_of: Vec<usize> = Vec::with_capacity(creates);

    for i in 0..creates {
        let dir = pick.index(dirs);
        inputs.paths.push(path(format!("/s/d{dir}/f{i}")));
        dir_of.push(dir);
        // Every fourth create repeats an earlier payload (25 % of the
        // ingest is duplicate content for the dedup catalog).
        let payload = if i % 4 == 3 {
            content[pick.index(i)]
        } else {
            fresh_payload(inputs)
        };
        content.push(payload);
        children[dir] += 1;
        live.push(index(i));
        inputs.script.push(Op::Write {
            path: index(i),
            payload,
        });

        if i % 2 == 1 {
            let f = live[pick.index(live.len())];
            inputs.script.push(Op::Read {
                path: f,
                payload: content[f as usize],
            });
        }
        if i % 4 == 3 {
            let f = live[pick.index(live.len())];
            inputs.script.push(Op::Stat {
                path: f,
                payload: content[f as usize],
            });
        }
        if i % 20 == 19 {
            let f = live[pick.index(live.len())];
            let dir = dir_of[f as usize];
            inputs.script.push(Op::Readdir {
                dir: index(dir),
                entries: children[dir],
            });
        }
        if i % 12 == 5 {
            // A regenerating update: new bytes under an existing path.
            let f = live[pick.index(live.len())];
            let payload = fresh_payload(inputs);
            content[f as usize] = payload;
            inputs.script.push(Op::Write { path: f, payload });
        }
        if i % 12 == 11 {
            let victim = pick.index(live.len());
            let f = live.swap_remove(victim);
            children[dir_of[f as usize]] -= 1;
            inputs.script.push(Op::Unlink { path: f });
        }
    }
    inputs.script.push(Op::Flush);
}

fn cluster_preserve(rng: &mut SimRng, scale: Scale, inputs: &mut Inputs) {
    const GROUPS: usize = 8;
    const RACKS: u32 = 3;
    let (files, epochs, new_per_epoch, sample) = match scale {
        Scale::Full => (96usize, 24u32, 4usize, 64u32),
        Scale::Check => (24, 4, 2, 64),
    };
    // Files of 12-20 KB, 16 KB on average: the preload and the new
    // writes each sum to the same volume under every seed.
    let (lo, hi) = (12 * 1024, 20 * 1024);
    let file_sizes = |rng: &mut SimRng, n: usize| {
        pinned_sizes(
            rng,
            SizeDist::Uniform { lo, hi },
            n,
            n as u64 * 16 * 1024,
            lo,
            hi,
        )
        .into_iter()
    };
    let mut old_sizes = file_sizes(&mut rng.fork(0x54), files);
    let mut new_sizes = file_sizes(&mut rng.fork(0x55), new_per_epoch * epochs as usize);
    let mut bytes = rng.fork(0xDD);
    for i in 0..files {
        inputs
            .paths
            .push(path(format!("/dur/g{}/f{i}", i % GROUPS)));
        let size = old_sizes.next().expect("one size per file");
        inputs.payloads.push(random_payload(&mut bytes, size));
        inputs.preload.push(Op::Write {
            path: index(i),
            payload: index(i),
        });
    }
    inputs.preload.push(Op::Archive);
    inputs.preload.push(Op::ColdStore);

    // The aging schedule is part of the workload, like the op cadence:
    // one bathtub-hazard plan, the same for every `--seed`, which
    // draws the files' sizes and bytes. Strikes land on whatever the
    // seed's packing put on the struck disc, so the simulated numbers
    // still move a little with the seed — but the *amount* of rot, and
    // with it the repair work, does not: with a plan per seed one run
    // did half again the repair work of the next. No correlated batch
    // defects, for the same reason. The disc selector is folded onto
    // racks here and onto burned media at injection.
    const AGING_SEED: u64 = 0x0A61_2017;
    let t = std::time::Instant::now();
    let spec = AgingSpec {
        defective_batch_chance: 0.0,
        ..AgingSpec::accelerated(32, epochs)
    };
    let mut plan = AgingPlan::generate(AGING_SEED, &spec);
    inputs.plan_generate_ms = t.elapsed().as_secs_f64() * 1e3;
    for epoch in 0..epochs {
        let due = plan.due_epoch(epoch);
        inputs.faults.push(
            due.into_iter()
                .enumerate()
                .map(|(i, event)| FaultEvent {
                    seq: u64::from(epoch) << 32 | i as u64,
                    at_op: u64::from(epoch),
                    kind: FaultKind::AtRack {
                        rack: event.disc % RACKS,
                        fault: Box::new(event.kind),
                    },
                })
                .collect(),
        );
    }

    let window = (files / 4).max(1);
    for epoch in 0..epochs {
        inputs.script.push(Op::Inject { epoch });
        inputs.script.push(Op::RunEpoch);
        inputs.script.push(Op::Audit { sample });
        // Repairs re-burn arrays; back to cold so the next strikes hit
        // media, not lingering buffer copies.
        inputs.script.push(Op::ColdStore);
        for k in 0..window {
            let f = index((epoch as usize * window + k) % files);
            inputs.script.push(Op::Read {
                path: f,
                payload: f,
            });
        }
        for k in 0..new_per_epoch {
            inputs
                .paths
                .push(path(format!("/dur/g{}/n{epoch}_{k}", k % GROUPS)));
            let size = new_sizes.next().expect("one size per new file");
            inputs.payloads.push(random_payload(&mut bytes, size));
            let f = index(inputs.paths.len() - 1);
            inputs.script.push(Op::Write {
                path: f,
                payload: f,
            });
        }
    }
    inputs.script.push(Op::Flush);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_and_bytes() {
        for w in Workload::ALL {
            let a = generate(w, 12, Scale::Check);
            let b = generate(w, 12, Scale::Check);
            assert_eq!(a.script, b.script, "{}", w.name());
            assert_eq!(a.preload, b.preload);
            assert_eq!(a.payloads, b.payloads);
            assert_eq!(a.paths, b.paths);
            assert_eq!(a.faults, b.faults);
            let c = generate(w, 13, Scale::Check);
            assert_ne!(a.payloads, c.payloads, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn op_counts_and_volume_do_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, 1, Scale::Check);
            let b = generate(w, 2, Scale::Check);
            assert_eq!(a.script.len(), b.script.len(), "{}", w.name());
            assert_eq!(a.preload.len(), b.preload.len());
            // small_ops draws 1-4 KB sizes unpinned: over 13 000 files
            // the total moves by under half a percent.
            if w != Workload::SmallOps {
                assert_eq!(a.write_bytes(), b.write_bytes(), "{}", w.name());
            }
        }
    }

    #[test]
    fn pinned_sizes_hit_the_total_inside_the_clamp() {
        let mut rng = SimRng::seed_from(7);
        let sizes = archive_sizes(&mut rng, 750, 150_000_000);
        assert_eq!(sizes.iter().sum::<u64>(), 150_000_000);
        assert!(sizes.iter().all(|s| (1024..=2 << 20).contains(s)));
    }

    #[test]
    fn zipf_reads_stay_inside_the_preloaded_set_and_their_files() {
        let inputs = generate(Workload::ColdRead, 12, Scale::Check);
        let preloaded = Dataset::of(Scale::Check).files as u32;
        let mut reads = 0;
        for op in &inputs.script {
            match *op {
                Op::Read { path, payload } => {
                    assert!(path < preloaded && payload == path);
                    reads += 1;
                }
                Op::ReadRange {
                    path, offset, len, ..
                } => {
                    assert!(path < preloaded);
                    let size = inputs.payloads[path as usize].len() as u64;
                    assert!(len >= 1 && u64::from(offset) + u64::from(len) <= size);
                    reads += 1;
                }
                _ => {}
            }
        }
        assert_eq!(reads, 80);
    }

    #[test]
    fn every_index_an_op_names_exists() {
        for w in Workload::ALL {
            let inputs = generate(w, 12, Scale::Check);
            for op in inputs.preload.iter().chain(&inputs.script) {
                match *op {
                    Op::Write { path, payload }
                    | Op::Read { path, payload }
                    | Op::Stat { path, payload }
                    | Op::ReadRange { path, payload, .. } => {
                        assert!((path as usize) < inputs.paths.len());
                        assert!((payload as usize) < inputs.payloads.len());
                    }
                    Op::Unlink { path } => assert!((path as usize) < inputs.paths.len()),
                    Op::Readdir { dir, .. } => assert!((dir as usize) < inputs.dirs.len()),
                    Op::Inject { epoch } => assert!((epoch as usize) < inputs.faults.len()),
                    _ => {}
                }
            }
        }
    }
}
