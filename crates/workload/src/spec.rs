//! Declarative workload specifications.

use crate::dist::{SizeDist, Zipf};
use ros_sim::SimRng;
use ros_udf::UdfPath;
use serde::{Deserialize, Serialize};

/// One operation to replay.
#[derive(Clone, Debug, PartialEq)]
pub enum FileOp {
    /// Write a file of the given size (contents synthesized from the
    /// seed so reads can verify integrity).
    Write {
        /// Target path.
        path: UdfPath,
        /// File size in bytes.
        size: u64,
    },
    /// Read a file written earlier in the op list.
    Read {
        /// Target path.
        path: UdfPath,
    },
    /// Stat a file.
    Stat {
        /// Target path.
        path: UdfPath,
    },
}

/// A workload family.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// filebench `singlestreamwrite`: one stream of sequential 1 MB-sized
    /// file writes (§5.2's configuration).
    SinglestreamWrite {
        /// Number of files.
        files: usize,
        /// Per-file size (the paper uses 1 MB I/O).
        file_size: u64,
    },
    /// filebench `singlestreamread`: write a dataset once, then stream
    /// reads over it.
    SinglestreamRead {
        /// Number of files.
        files: usize,
        /// Per-file size.
        file_size: u64,
    },
    /// Archival ingest: write-only, heavy-tailed sizes, deep directories
    /// (the long-term preservation workload of §1).
    ArchivalIngest {
        /// Number of files.
        files: usize,
        /// Size distribution.
        sizes: SizeDist,
        /// Directory fan-out (files per directory).
        fanout: usize,
    },
    /// Mixed operations: interleaved writes, reads of earlier files and
    /// stats, at the given read ratio — a general-purpose NAS pattern.
    Mixed {
        /// Total operations.
        ops: usize,
        /// Fraction of operations that are reads (0.0-1.0); a tenth of
        /// the remainder are stats.
        read_ratio: f64,
        /// Size distribution for writes.
        sizes: SizeDist,
    },
    /// Multi-tenant mixed traffic: each operation first picks a tenant
    /// with Zipf popularity (tenant count + skew are the arrival knobs),
    /// then behaves like [`WorkloadSpec::Mixed`] inside that tenant's
    /// directory tree. Models a shared archive serving many users of
    /// very different activity levels — the traffic shape a multi-rack
    /// cluster front end must balance.
    MultiTenantMixed {
        /// Number of tenants.
        tenants: usize,
        /// Zipf skew exponent over tenant popularity (0.0 = uniform).
        tenant_skew: f64,
        /// Total operations across all tenants.
        ops: usize,
        /// Fraction of operations that are reads (0.0-1.0); a tenth of
        /// the remainder are stats.
        read_ratio: f64,
        /// Size distribution for writes.
        sizes: SizeDist,
        /// Directory fan-out (files per directory within a tenant).
        fanout: usize,
    },
    /// Analytics readback: a dataset is ingested, then read with Zipf
    /// popularity — the "mining historical data" pattern of §1.
    AnalyticsReadback {
        /// Dataset size in files.
        dataset: usize,
        /// Per-file size distribution.
        sizes: SizeDist,
        /// Number of read operations.
        reads: usize,
        /// Zipf skew exponent.
        skew: f64,
    },
}

impl WorkloadSpec {
    /// Compiles the spec to a deterministic op list.
    pub fn compile(&self, seed: u64) -> Vec<FileOp> {
        let mut rng = SimRng::seed_from(seed);
        match self {
            WorkloadSpec::SinglestreamWrite { files, file_size } => (0..*files)
                .map(|i| FileOp::Write {
                    path: stream_path(i),
                    size: *file_size,
                })
                .collect(),
            WorkloadSpec::SinglestreamRead { files, file_size } => {
                let mut ops: Vec<FileOp> = (0..*files)
                    .map(|i| FileOp::Write {
                        path: stream_path(i),
                        size: *file_size,
                    })
                    .collect();
                ops.extend((0..*files).map(|i| FileOp::Read {
                    path: stream_path(i),
                }));
                ops
            }
            WorkloadSpec::ArchivalIngest {
                files,
                sizes,
                fanout,
            } => (0..*files)
                .map(|i| {
                    let dir = i / fanout.max(&1);
                    FileOp::Write {
                        path: generated(format!("/archive/batch-{dir:04}/object-{i:08}")),
                        size: sizes.sample(&mut rng),
                    }
                })
                .collect(),
            WorkloadSpec::Mixed {
                ops,
                read_ratio,
                sizes,
            } => {
                let mut out = Vec::with_capacity(*ops);
                let mut written = 0usize;
                for _ in 0..*ops {
                    let roll = rng.unit_f64();
                    if written == 0 || roll >= *read_ratio {
                        // A tenth of non-reads are stats once files exist.
                        if written > 0 && rng.chance(0.1) {
                            out.push(FileOp::Stat {
                                path: mixed_path(rng.index(written)),
                            });
                        } else {
                            out.push(FileOp::Write {
                                path: mixed_path(written),
                                size: sizes.sample(&mut rng),
                            });
                            written += 1;
                        }
                    } else {
                        out.push(FileOp::Read {
                            path: mixed_path(rng.index(written)),
                        });
                    }
                }
                out
            }
            WorkloadSpec::MultiTenantMixed {
                tenants,
                tenant_skew,
                ops,
                read_ratio,
                sizes,
                fanout,
            } => {
                let zipf = Zipf::new((*tenants).max(1), *tenant_skew);
                let mut written = vec![0usize; (*tenants).max(1)];
                let mut out = Vec::with_capacity(*ops);
                for _ in 0..*ops {
                    let t = zipf.sample(&mut rng);
                    let roll = rng.unit_f64();
                    if written[t] == 0 || roll >= *read_ratio {
                        if written[t] > 0 && rng.chance(0.1) {
                            out.push(FileOp::Stat {
                                path: tenant_path(t, rng.index(written[t]), *fanout),
                            });
                        } else {
                            out.push(FileOp::Write {
                                path: tenant_path(t, written[t], *fanout),
                                size: sizes.sample(&mut rng),
                            });
                            written[t] += 1;
                        }
                    } else {
                        out.push(FileOp::Read {
                            path: tenant_path(t, rng.index(written[t]), *fanout),
                        });
                    }
                }
                out
            }
            WorkloadSpec::AnalyticsReadback {
                dataset,
                sizes,
                reads,
                skew,
            } => {
                let mut ops: Vec<FileOp> = (0..*dataset)
                    .map(|i| FileOp::Write {
                        path: dataset_path(i),
                        size: sizes.sample(&mut rng),
                    })
                    .collect();
                let zipf = Zipf::new((*dataset).max(1), *skew);
                ops.extend((0..*reads).map(|_| FileOp::Read {
                    path: dataset_path(zipf.sample(&mut rng)),
                }));
                ops
            }
        }
    }

    /// Total bytes written by the compiled workload (deterministic for a
    /// given seed).
    pub fn bytes_written(&self, seed: u64) -> u64 {
        self.compile(seed)
            .iter()
            .map(|op| match op {
                FileOp::Write { size, .. } => *size,
                _ => 0,
            })
            .sum()
    }
}

/// Parses a path a generator built from literals and zero-padded integers.
#[expect(clippy::expect_used, reason = "the generated literal is a valid path")]
fn generated(path: String) -> UdfPath {
    path.parse().expect("static path parses")
}

fn stream_path(i: usize) -> UdfPath {
    generated(format!("/stream/file-{i:08}"))
}

fn mixed_path(i: usize) -> UdfPath {
    generated(format!("/mixed/g{:02}/file-{i:06}", i % 16))
}

fn tenant_path(t: usize, i: usize, fanout: usize) -> UdfPath {
    generated(format!(
        "/tenants/t{t:03}/d{:03}/file-{i:06}",
        i / fanout.max(1)
    ))
}

fn dataset_path(i: usize) -> UdfPath {
    generated(format!("/dataset/part-{:04}/record-{i:08}", i % 64))
}

/// Synthesizes deterministic file contents for a path and size, so the
/// runner can verify integrity on read.
pub fn synth_data(path: &UdfPath, size: u64) -> Vec<u8> {
    let tag = ros_drive_free_hash(path.to_string().as_bytes());
    (0..size)
        .map(|i| {
            tag.wrapping_add(i)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .to_be_bytes()[0]
        })
        .collect()
}

fn ros_drive_free_hash(b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singlestream_write_is_sequential() {
        let ops = WorkloadSpec::SinglestreamWrite {
            files: 3,
            file_size: 1 << 20,
        }
        .compile(1);
        assert_eq!(ops.len(), 3);
        assert!(matches!(&ops[0], FileOp::Write { size, .. } if *size == 1 << 20));
    }

    #[test]
    fn singlestream_read_writes_then_reads() {
        let ops = WorkloadSpec::SinglestreamRead {
            files: 2,
            file_size: 4096,
        }
        .compile(1);
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], FileOp::Write { .. }));
        assert!(matches!(ops[3], FileOp::Read { .. }));
    }

    #[test]
    fn archival_ingest_uses_fanout_directories() {
        let ops = WorkloadSpec::ArchivalIngest {
            files: 10,
            sizes: SizeDist::Fixed { bytes: 100 },
            fanout: 4,
        }
        .compile(7);
        assert_eq!(ops.len(), 10);
        let paths: Vec<String> = ops
            .iter()
            .map(|o| match o {
                FileOp::Write { path, .. } => path.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert!(paths[0].starts_with("/archive/batch-0000/"));
        assert!(paths[9].starts_with("/archive/batch-0002/"));
    }

    #[test]
    fn analytics_reads_concentrate_on_hot_files() {
        let spec = WorkloadSpec::AnalyticsReadback {
            dataset: 50,
            sizes: SizeDist::Fixed { bytes: 1000 },
            reads: 5000,
            skew: 1.2,
        };
        let ops = spec.compile(3);
        assert_eq!(ops.len(), 5050);
        let hot = dataset_path(0).to_string();
        let hot_reads = ops
            .iter()
            .filter(|o| matches!(o, FileOp::Read { path } if path.to_string() == hot))
            .count();
        assert!(hot_reads > 500, "hot file got {hot_reads} of 5000 reads");
    }

    #[test]
    fn mixed_workload_reads_only_existing_files() {
        let spec = WorkloadSpec::Mixed {
            ops: 500,
            read_ratio: 0.6,
            sizes: SizeDist::Fixed { bytes: 100 },
        };
        let ops = spec.compile(11);
        assert_eq!(ops.len(), 500);
        let mut written = std::collections::HashSet::new();
        let mut reads = 0;
        for op in &ops {
            match op {
                FileOp::Write { path, .. } => {
                    written.insert(path.to_string());
                }
                FileOp::Read { path } | FileOp::Stat { path } => {
                    assert!(
                        written.contains(&path.to_string()),
                        "access before write: {path}"
                    );
                    if matches!(op, FileOp::Read { .. }) {
                        reads += 1;
                    }
                }
            }
        }
        // Roughly the requested mix.
        assert!((200..400).contains(&reads), "reads = {reads}");
    }

    #[test]
    fn multi_tenant_accesses_stay_within_written_files() {
        let spec = WorkloadSpec::MultiTenantMixed {
            tenants: 8,
            tenant_skew: 0.8,
            ops: 600,
            read_ratio: 0.5,
            sizes: SizeDist::Fixed { bytes: 1024 },
            fanout: 4,
        };
        let ops = spec.compile(13);
        assert_eq!(ops.len(), 600);
        let mut written = std::collections::HashSet::new();
        for op in &ops {
            match op {
                FileOp::Write { path, .. } => {
                    written.insert(path.to_string());
                }
                FileOp::Read { path } | FileOp::Stat { path } => {
                    assert!(
                        written.contains(&path.to_string()),
                        "access before write: {path}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_tenant_skew_concentrates_on_hot_tenants() {
        let count_for = |skew: f64| -> usize {
            let ops = WorkloadSpec::MultiTenantMixed {
                tenants: 16,
                tenant_skew: skew,
                ops: 4000,
                read_ratio: 0.5,
                sizes: SizeDist::Fixed { bytes: 1024 },
                fanout: 4,
            }
            .compile(21);
            ops.iter()
                .filter(|op| {
                    let path = match op {
                        FileOp::Write { path, .. }
                        | FileOp::Read { path }
                        | FileOp::Stat { path } => path,
                    };
                    path.to_string().starts_with("/tenants/t000/")
                })
                .count()
        };
        let skewed = count_for(1.2);
        let uniform = count_for(0.0);
        // At skew 1.2 over 16 tenants, rank 0 draws ~1/H ≈ 30% of ops;
        // uniform gives ~6%.
        assert!(
            skewed > 2 * uniform,
            "hot tenant: skewed = {skewed}, uniform = {uniform}"
        );
        assert!((150..500).contains(&uniform), "uniform share = {uniform}");
    }

    #[test]
    fn multi_tenant_paths_use_tenant_and_fanout_directories() {
        let ops = WorkloadSpec::MultiTenantMixed {
            tenants: 3,
            tenant_skew: 0.0,
            ops: 200,
            read_ratio: 0.0,
            sizes: SizeDist::Fixed { bytes: 64 },
            fanout: 5,
        }
        .compile(31);
        let mut dirs = std::collections::HashSet::new();
        for op in &ops {
            let FileOp::Write { path, .. } = op else {
                continue;
            };
            let s = path.to_string();
            assert!(s.starts_with("/tenants/t0"), "path = {s}");
            let comps: Vec<&str> = path.components().collect();
            assert_eq!(comps.len(), 4, "tenant/dir/file nesting: {s}");
            dirs.insert(format!("{}/{}", comps[1], comps[2]));
        }
        // ~200 writes over 3 tenants at fanout 5 spreads across many
        // directories — the placement groups a cluster balances over.
        assert!(dirs.len() > 10, "only {} directories", dirs.len());
    }

    #[test]
    fn multi_tenant_compilation_is_deterministic() {
        let spec = WorkloadSpec::MultiTenantMixed {
            tenants: 5,
            tenant_skew: 0.9,
            ops: 300,
            read_ratio: 0.4,
            sizes: SizeDist::Uniform { lo: 100, hi: 2000 },
            fanout: 8,
        };
        assert_eq!(spec.compile(17), spec.compile(17));
        assert_ne!(spec.compile(17), spec.compile(18));
    }

    #[test]
    fn compilation_is_deterministic() {
        let spec = WorkloadSpec::ArchivalIngest {
            files: 20,
            sizes: SizeDist::Uniform { lo: 10, hi: 10_000 },
            fanout: 5,
        };
        assert_eq!(spec.compile(9), spec.compile(9));
        assert_ne!(spec.compile(9), spec.compile(10));
        assert_eq!(spec.bytes_written(9), spec.bytes_written(9));
    }

    #[test]
    fn synth_data_is_path_dependent_and_stable() {
        let a: UdfPath = "/a".parse().unwrap();
        let b: UdfPath = "/b".parse().unwrap();
        assert_eq!(synth_data(&a, 64), synth_data(&a, 64));
        assert_ne!(synth_data(&a, 64), synth_data(&b, 64));
        assert_eq!(synth_data(&a, 0).len(), 0);
    }
}
