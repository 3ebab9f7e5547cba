//! The system under test: one of three public front ends, built fresh
//! for every repetition, and the single place the benchmark calls it.

use crate::inputs::{Inputs, Op, Workload, EPOCH_SECS};
use bytes::Bytes;
use ros_access::{AccessStack, NasGateway};
use ros_cluster::{Cluster, ClusterConfig};
use ros_faults::{FaultSink, InjectionOutcome};
use ros_olfs::cache::CacheStats;
use ros_olfs::engine::{Counters, ReadSource};
use ros_olfs::trace::OpTrace;
use ros_olfs::{Redundancy, Ros, RosConfig};
use ros_sim::{SimDuration, SimTime};

/// Worker threads of the real-bytes data plane, on every rack.
pub const PLANE_THREADS: usize = 2;

/// The kinds of call the benchmark makes, for per-kind accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `write_file`, as a create or as a regenerating update.
    Write,
    /// `read_file` or `read_range`.
    Read,
    /// `stat`.
    Stat,
    /// `readdir`.
    Readdir,
    /// `unlink`.
    Unlink,
    /// `flush` / `flush_all`.
    Flush,
    /// `evict_all_burned_copies` + `unload_all_bays` on one rack.
    GoCold,
    /// `audit_sample` / `audit_all`.
    Audit,
    /// `archive_all`.
    Archive,
    /// `cold_store_all`.
    ColdStore,
    /// `inject_fault` for one epoch's strikes.
    Inject,
    /// `run_all_for(EPOCH)`.
    RunEpoch,
}

impl Call {
    /// Number of kinds (the length of per-kind tables).
    pub const COUNT: usize = 12;

    /// The kind of call an op turns into.
    pub fn of(op: &Op) -> Call {
        match op {
            Op::Write { .. } => Call::Write,
            Op::Read { .. } | Op::ReadRange { .. } => Call::Read,
            Op::Stat { .. } => Call::Stat,
            Op::Readdir { .. } => Call::Readdir,
            Op::Unlink { .. } => Call::Unlink,
            Op::Flush => Call::Flush,
            Op::GoCold => Call::GoCold,
            Op::Audit { .. } => Call::Audit,
            Op::Archive => Call::Archive,
            Op::ColdStore => Call::ColdStore,
            Op::Inject { .. } => Call::Inject,
            Op::RunEpoch => Call::RunEpoch,
        }
    }
}

/// What a successful call handed back, as far as the benchmark checks
/// or measures it.
pub enum Reply {
    /// An acknowledged write.
    Write {
        /// Client-observed simulated latency.
        latency: SimDuration,
        /// The op trace, where the front end exposes one.
        trace: Option<OpTrace>,
        /// Racks that took a copy (1 off-cluster).
        replicas: usize,
    },
    /// A completed read.
    Read {
        /// The bytes returned.
        data: Bytes,
        /// Simulated latency to the last byte.
        latency: SimDuration,
        /// Simulated latency to the first byte.
        first_byte: SimDuration,
        /// The op trace, where the front end exposes one.
        trace: Option<OpTrace>,
        /// Which tier served it, where the front end says.
        source: Option<ReadSource>,
    },
    /// A stat: the file size.
    Stat(u64),
    /// A directory listing: the number of children.
    Readdir(usize),
    /// One audit pass.
    Audit(AuditTotals),
    /// One epoch's strikes delivered.
    Inject {
        /// Strikes that landed.
        injected: u64,
        /// Strikes that found no target.
        skipped: u64,
    },
    /// Nothing to check beyond success.
    Done,
}

/// What the audits of one repetition found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditTotals {
    /// Images digest-verified.
    pub sampled: u64,
    /// Images found rotted or unreadable.
    pub rotted: u64,
    /// Healed from local array parity.
    pub repaired_parity: u64,
    /// Healed from a replica rack.
    pub repaired_replica: u64,
    /// Beyond every copy's redundancy.
    pub lost: u64,
}

impl AuditTotals {
    /// Adds another pass.
    pub fn add(&mut self, other: AuditTotals) {
        self.sampled += other.sampled;
        self.rotted += other.rotted;
        self.repaired_parity += other.repaired_parity;
        self.repaired_replica += other.repaired_replica;
        self.lost += other.lost;
    }
}

/// The front end a workload drives.
pub enum Sut {
    /// `NasGateway` over Samba+OLFS, the paper's recommended deployment.
    Nas(Box<NasGateway>),
    /// The engine's direct API.
    Rack(Box<Ros>),
    /// A three-rack federation.
    Cluster(Box<Cluster>),
}

/// The crate a workload's client calls enter.
pub fn front_layer(workload: Workload) -> &'static str {
    match workload {
        Workload::IngestBurn | Workload::ColdRead => "access",
        Workload::SmallOps => "olfs",
        Workload::ClusterPreserve => "cluster",
    }
}

/// The rack configuration a workload runs on (every rack of the
/// federation, for the cluster workload).
pub fn rack_config(workload: Workload) -> RosConfig {
    let mut cfg = RosConfig::tiny();
    cfg.data_plane_threads = PLANE_THREADS;
    match workload {
        // 4 MB discs in 12-disc RAID-5 arrays; 16 trays, of which the
        // dataset burns at most five.
        Workload::IngestBurn | Workload::ColdRead => cfg.layout.layers = 8,
        Workload::SmallOps => {
            cfg.layout.layers = 8;
            cfg.dedup = true;
        }
        // The durability harness's shrunk rack — tiny discs and 4-disc
        // arrays, so a 16 KB-file ingest reaches the optical path — at
        // its recommended RAID-6 point: with one parity disc, one seed
        // in three lands two strikes in an array between audits and
        // turns into a replica-repair storm with several times the
        // work, which is a different workload, not a noisier one.
        Workload::ClusterPreserve => {
            cfg.drive_bays = 2;
            cfg.disc_class = ros_drive::DiscClass::Custom {
                capacity: 512 * 1024,
            };
            cfg.layout.discs_per_tray = 4;
            cfg.drives_per_bay = 4;
            // Repairs retire the struck tray and re-burn onto a fresh
            // one: 32 trays a rack is twice what any seed has spent.
            cfg.layout.layers = 16;
            cfg.redundancy = Redundancy::Raid6;
        }
    }
    cfg
}

impl Sut {
    /// Builds the fresh system a repetition of `workload` runs on.
    pub fn build(workload: Workload) -> Result<Sut, String> {
        let rack = rack_config(workload);
        Ok(match workload {
            Workload::IngestBurn | Workload::ColdRead => {
                let ros = Ros::try_new(rack).map_err(text)?;
                Sut::Nas(Box::new(NasGateway::new(ros, AccessStack::SambaOlfs)))
            }
            Workload::SmallOps => Sut::Rack(Box::new(Ros::try_new(rack).map_err(text)?)),
            Workload::ClusterPreserve => {
                let mut cfg = ClusterConfig::tiny(3);
                cfg.replication = 2;
                cfg.rack = rack;
                Sut::Cluster(Box::new(Cluster::new(cfg).map_err(text)?))
            }
        })
    }

    /// The crate whose public function `op` enters: the layer a span
    /// around the call is attributed to.
    pub fn layer_of(&self, op: &Op) -> &'static str {
        match self {
            // The gateway wraps whole-file reads and writes only;
            // everything else goes to the engine it owns.
            Sut::Nas(_) => match op {
                Op::Write { .. } | Op::Read { .. } => "access",
                _ => "olfs",
            },
            Sut::Rack(_) => "olfs",
            Sut::Cluster(_) => "cluster",
        }
    }

    /// The function `op` calls, for span records.
    pub fn fn_of(&self, op: &Op) -> &'static str {
        let cluster = matches!(self, Sut::Cluster(_));
        match op {
            Op::Write { .. } => "write_file",
            Op::Read { .. } => "read_file",
            Op::ReadRange { .. } => "read_range",
            Op::Stat { .. } => "stat",
            Op::Readdir { .. } => "readdir",
            Op::Unlink { .. } => "unlink",
            Op::Flush if cluster => "flush_all",
            Op::Flush => "flush",
            Op::GoCold => "evict_all_burned_copies+unload_all_bays",
            Op::Audit { .. } if cluster => "audit_all",
            Op::Audit { .. } => "audit_sample",
            Op::Archive => "archive_all",
            Op::ColdStore => "cold_store_all",
            Op::Inject { .. } => "inject_fault",
            Op::RunEpoch => "run_all_for",
        }
    }

    /// Every rack engine behind the front end.
    pub fn racks(&self) -> Vec<&Ros> {
        match self {
            Sut::Nas(g) => vec![g.ros()],
            Sut::Rack(r) => vec![r],
            Sut::Cluster(c) => c.racks().iter().map(|r| r.ros()).collect(),
        }
    }

    /// Current simulated time (the latest rack clock on a cluster).
    pub fn now(&self) -> SimTime {
        match self {
            Sut::Nas(g) => g.ros().now(),
            Sut::Rack(r) => r.now(),
            Sut::Cluster(c) => c.now(),
        }
    }

    /// Engine counters, summed over racks.
    pub fn counters(&self) -> Counters {
        self.racks().iter().fold(Counters::default(), |sum, ros| {
            zip_counters(sum, ros.counters(), |a, b| a + b)
        })
    }

    /// Read-cache statistics, summed over racks.
    pub fn cache_stats(&self) -> CacheStats {
        self.racks().iter().fold(CacheStats::default(), |sum, ros| {
            zip_cache_stats(sum, ros.cache_stats(), |a, b| a + b)
        })
    }

    fn ros_mut(&mut self) -> Option<&mut Ros> {
        match self {
            Sut::Nas(g) => Some(g.ros_mut()),
            Sut::Rack(r) => Some(r),
            Sut::Cluster(_) => None,
        }
    }

    /// Performs one op. This is the call the benchmark times: nothing
    /// in here but argument lookup, the call, and moving the result.
    pub fn call(&mut self, op: &Op, inputs: &Inputs) -> Result<Reply, String> {
        let unsupported = || Err(format!("{op:?} is not an op of this front end"));
        match *op {
            Op::Write { path, payload } => {
                let path = &inputs.paths[path as usize];
                let data = inputs.payloads[payload as usize].clone();
                match self {
                    Sut::Nas(g) => g.write_file(path, data).map(write_reply).map_err(text),
                    Sut::Rack(r) => r.write_file(path, data).map(write_reply).map_err(text),
                    Sut::Cluster(c) => c
                        .write_file(path, data)
                        .map(|w| Reply::Write {
                            latency: w.latency,
                            trace: None,
                            replicas: w.racks.len(),
                        })
                        .map_err(text),
                }
            }
            Op::Read { path, .. } => {
                let path = &inputs.paths[path as usize];
                match self {
                    Sut::Nas(g) => g.read_file(path).map(read_reply).map_err(text),
                    Sut::Rack(r) => r.read_file(path).map(read_reply).map_err(text),
                    Sut::Cluster(c) => c
                        .read_file(path)
                        .map(|r| Reply::Read {
                            data: r.data,
                            latency: r.latency,
                            first_byte: r.latency,
                            trace: None,
                            source: None,
                        })
                        .map_err(text),
                }
            }
            Op::ReadRange {
                path, offset, len, ..
            } => {
                let path = &inputs.paths[path as usize];
                match self.ros_mut() {
                    Some(ros) => ros
                        .read_range(path, u64::from(offset), u64::from(len))
                        .map(read_reply)
                        .map_err(text),
                    None => unsupported(),
                }
            }
            Op::Stat { path, .. } => {
                let path = &inputs.paths[path as usize];
                match self {
                    Sut::Cluster(c) => c.stat(path).map_err(text),
                    Sut::Nas(g) => g.ros_mut().stat(path).map_err(text),
                    Sut::Rack(r) => r.stat(path).map_err(text),
                }
                .map(|(size, _, _)| Reply::Stat(size))
            }
            Op::Readdir { dir, .. } => match self.ros_mut() {
                Some(ros) => ros
                    .readdir(&inputs.dirs[dir as usize])
                    .map(|entries| Reply::Readdir(entries.len()))
                    .map_err(text),
                None => unsupported(),
            },
            Op::Unlink { path } => match self.ros_mut() {
                Some(ros) => ros
                    .unlink(&inputs.paths[path as usize])
                    .map(|()| Reply::Done)
                    .map_err(text),
                None => unsupported(),
            },
            Op::Flush => match self {
                Sut::Cluster(c) => c.flush_all().map_err(text),
                Sut::Nas(g) => g.ros_mut().flush().map_err(text),
                Sut::Rack(r) => r.flush().map_err(text),
            }
            .map(|()| Reply::Done),
            Op::GoCold => match self.ros_mut() {
                Some(ros) => {
                    ros.evict_all_burned_copies();
                    ros.unload_all_bays().map(|_| Reply::Done).map_err(text)
                }
                None => unsupported(),
            },
            Op::Audit { sample } => match self {
                Sut::Cluster(c) => c
                    .audit_all(sample as usize)
                    .map(|a| {
                        Reply::Audit(AuditTotals {
                            sampled: a.sampled as u64,
                            rotted: a.rotted as u64,
                            repaired_parity: a.repaired_parity as u64,
                            repaired_replica: a.repaired_replica as u64,
                            lost: a.lost.len() as u64,
                        })
                    })
                    .map_err(text),
                Sut::Nas(_) | Sut::Rack(_) => {
                    let ros = self.ros_mut().expect("single-rack front end");
                    let a = ros.audit_sample(sample as usize);
                    Ok(Reply::Audit(AuditTotals {
                        sampled: a.sampled as u64,
                        rotted: a.rotted.len() as u64,
                        repaired_parity: a.repaired.len() as u64,
                        repaired_replica: 0,
                        lost: a.unrepairable.len() as u64,
                    }))
                }
            },
            Op::Archive => match self {
                Sut::Cluster(c) => c
                    .archive_all(SimDuration::from_secs(86_400))
                    .map(|_| Reply::Done)
                    .map_err(text),
                _ => unsupported(),
            },
            Op::ColdStore => match self {
                Sut::Cluster(c) => {
                    c.cold_store_all();
                    Ok(Reply::Done)
                }
                _ => unsupported(),
            },
            Op::Inject { epoch } => match self {
                Sut::Cluster(c) => {
                    let (mut injected, mut skipped) = (0, 0);
                    for event in &inputs.faults[epoch as usize] {
                        match c.inject_fault(event) {
                            InjectionOutcome::Injected => injected += 1,
                            _ => skipped += 1,
                        }
                    }
                    Ok(Reply::Inject { injected, skipped })
                }
                _ => unsupported(),
            },
            Op::RunEpoch => match self {
                Sut::Cluster(c) => {
                    c.run_all_for(SimDuration::from_secs(EPOCH_SECS));
                    Ok(Reply::Done)
                }
                _ => unsupported(),
            },
        }
    }
}

/// Combines two counter sets field by field: the sum over racks, or
/// the difference a script made.
pub fn zip_counters(a: Counters, b: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
    Counters {
        writes: f(a.writes, b.writes),
        reads: f(a.reads, b.reads),
        updates: f(a.updates, b.updates),
        buckets_sealed: f(a.buckets_sealed, b.buckets_sealed),
        splits: f(a.splits, b.splits),
        parity_runs: f(a.parity_runs, b.parity_runs),
        burns: f(a.burns, b.burns),
        fetches: f(a.fetches, b.fetches),
        burn_interrupts: f(a.burn_interrupts, b.burn_interrupts),
        repairs: f(a.repairs, b.repairs),
        reburns: f(a.reburns, b.reburns),
        dedup_hits: f(a.dedup_hits, b.dedup_hits),
        dedup_bytes_saved: f(a.dedup_bytes_saved, b.dedup_bytes_saved),
        read_copy_bytes: f(a.read_copy_bytes, b.read_copy_bytes),
        latent_repairs: f(a.latent_repairs, b.latent_repairs),
    }
}

/// The same for read-cache statistics.
pub fn zip_cache_stats(a: CacheStats, b: CacheStats, f: impl Fn(u64, u64) -> u64) -> CacheStats {
    CacheStats {
        hits: f(a.hits, b.hits),
        misses: f(a.misses, b.misses),
        evictions: f(a.evictions, b.evictions),
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn write_reply(w: ros_olfs::WriteReport) -> Reply {
    Reply::Write {
        latency: w.latency,
        trace: Some(w.trace),
        replicas: 1,
    }
}

fn read_reply(r: ros_olfs::ReadReport) -> Reply {
    Reply::Read {
        data: r.data,
        latency: r.latency,
        first_byte: r.first_byte_latency,
        trace: Some(r.trace),
        source: Some(r.source),
    }
}
