//! One repetition: a fresh system, the untimed preload, then the timed
//! op script, with every reply checked against the generated inputs.
//!
//! A repetition's wall is the sum of the `Instant` pairs around the
//! calls into the system. Cloning handles, comparing read-backs,
//! bookkeeping and the calibration bursts happen between those
//! intervals and are not counted.

use crate::calibrate::Calibrator;
use crate::inputs::{Inputs, Op};
use crate::spans::SpanLog;
use crate::system::{zip_cache_stats, zip_counters, AuditTotals, Call, Reply, Sut};
use ros_olfs::cache::CacheStats;
use ros_olfs::dim::DaState;
use ros_olfs::engine::{Counters, ReadSource};
use ros_olfs::trace::OpTrace;
use ros_sim::SimDuration;
use std::time::Instant;

/// Where reads were served from, as the engine classifies them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadSources {
    /// Still in an open bucket.
    pub bucket: u64,
    /// A sealed image on the disk buffer / read cache.
    pub image: u64,
    /// A disc already in a drive.
    pub in_drive: u64,
    /// Fetched from the roller (free bay, unload first, or drives busy).
    pub roller: u64,
}

/// Sums over the public `OpTrace`s of one repetition, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSums {
    /// Writes that carried a trace.
    pub writes: u64,
    /// Reads that carried a trace.
    pub reads: u64,
    /// Write time in steps and kernel-user switches.
    pub write_steps_ns: u64,
    /// Read time in steps and kernel-user switches.
    pub read_steps_ns: u64,
    /// Read time in `fetch` extras (mechanics + disc transfer).
    pub read_fetch_ns: u64,
    /// Σ |trace.total() − latency|: non-zero means a report's
    /// breakdown does not add up to the latency it states.
    pub residual_ns: u64,
}

/// State read off the system after the script, summed over racks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EndState {
    /// Engine counters: what the script added to them.
    pub counters: Counters,
    /// Read-cache statistics: what the script added to them.
    pub cache: CacheStats,
    /// Trays holding burned or retired (failed) arrays.
    pub trays_spent: u64,
    /// Bytes of media those trays hold.
    pub media_bytes: u64,
}

/// Everything measured in one repetition.
#[derive(Clone, Debug, Default)]
pub struct RepRecord {
    /// Raw wall of construction plus preload, ns.
    pub setup_ns: u64,
    /// Host-speed factor of the setup window (see `calibrate`).
    pub setup_factor: f64,
    /// Σ timed intervals of the script, ns (raw).
    pub wall_ns: u64,
    /// Host-speed factor of the script window.
    pub factor: f64,
    /// Wall of each script call by kind, ns.
    pub walls: [Vec<u64>; Call::COUNT],
    /// Wall of each preload call by kind, ns.
    pub preload_walls: [Vec<u64>; Call::COUNT],
    /// Ops attempted, preload included.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Ops in the script.
    pub script_ops: u64,
    /// Script payload: bytes acknowledged plus bytes returned.
    pub payload_bytes: u64,
    /// Bytes acknowledged, preload included.
    pub acked_bytes: u64,
    /// Rack copies made by the script's writes.
    pub replica_writes: u64,
    /// Simulated latency of each script write, ns.
    pub write_sim_ns: Vec<u64>,
    /// Simulated last-byte latency of each script read, ns.
    pub read_sim_ns: Vec<u64>,
    /// Simulated first-byte latency of each script read, ns.
    pub first_byte_ns: Vec<u64>,
    /// Sums over the op traces.
    pub trace: TraceSums,
    /// Read-source census.
    pub sources: ReadSources,
    /// Simulated time the script took, ns.
    pub makespan_ns: u64,
    /// Audit outcomes of the script.
    pub audit: AuditTotals,
    /// Aging strikes that landed.
    pub injected: u64,
    /// Aging strikes that found no target.
    pub skipped: u64,
    /// State after the script.
    pub end: EndState,
}

impl RepRecord {
    /// Everything that must repeat exactly under one seed: simulated
    /// latencies, makespan, counts and end state.
    pub fn simulated(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            (&self.write_sim_ns, &self.read_sim_ns, &self.first_byte_ns),
            (self.makespan_ns, self.trace, self.sources, self.audit),
            (self.injected, self.skipped, self.replica_writes),
            (self.attempted, self.failed, self.acked_bytes, self.end),
        )
    }

    /// The script's wall scaled to the nominal host, s.
    pub fn calibrated_wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9 * self.factor
    }

    /// Calls of `kind` in the script and their total wall in ns.
    pub fn call_wall_ns(&self, kind: Call) -> (usize, u64) {
        let walls = &self.walls[kind as usize];
        (walls.len(), walls.iter().sum())
    }
}

fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Splits a trace into (steps + switches, fetch extras), in ns.
fn trace_split(trace: &OpTrace) -> (u64, u64) {
    let extra: SimDuration = trace.extra.iter().map(|s| s.duration).sum();
    let fetch: SimDuration = trace
        .extra
        .iter()
        .filter(|s| s.name == "fetch")
        .map(|s| s.duration)
        .sum();
    (
        trace.total().saturating_sub(extra).as_nanos(),
        fetch.as_nanos(),
    )
}

/// Checks a reply against what the generator said the op must yield.
/// `Err` is a wrong answer — a hard failure, unlike a typed error.
fn verify(op: &Op, reply: &Reply, inputs: &Inputs) -> Result<(), String> {
    let size_of = |payload: &u32| inputs.payloads[*payload as usize].len() as u64;
    let wrong = match (op, reply) {
        (Op::Read { payload, .. }, Reply::Read { data, .. })
            if *data != inputs.payloads[*payload as usize] =>
        {
            "read returned wrong bytes".to_string()
        }
        (
            Op::ReadRange {
                payload,
                offset,
                len,
                ..
            },
            Reply::Read { data, .. },
        ) if data[..]
            != inputs.payloads[*payload as usize][*offset as usize..(*offset + *len) as usize] =>
        {
            "read_range returned wrong bytes".to_string()
        }
        (Op::Stat { payload, .. }, Reply::Stat(size)) if *size != size_of(payload) => {
            format!("stat says {size} bytes, wrote {}", size_of(payload))
        }
        (Op::Readdir { entries, .. }, Reply::Readdir(n)) if *n != *entries as usize => {
            format!("readdir lists {n} entries, expected {entries}")
        }
        _ => return Ok(()),
    };
    Err(format!("{op:?}: {wrong}"))
}

/// Runs one repetition. `Err` means the system gave a wrong answer or
/// ended inconsistent; typed op errors are counted in the record.
pub fn run_rep(
    inputs: &Inputs,
    rep: u32,
    mut log: Option<&mut SpanLog>,
) -> Result<RepRecord, String> {
    let mut rec = RepRecord::default();
    for kind in [Call::Write, Call::Read] {
        rec.walls[kind as usize].reserve(inputs.script.len());
    }
    rec.write_sim_ns.reserve(inputs.script.len());
    rec.read_sim_ns.reserve(inputs.script.len());
    rec.first_byte_ns.reserve(inputs.script.len());

    let rep_start = Instant::now();
    let mut cal = Calibrator::start();
    let rep_span = log
        .as_deref_mut()
        .map(|l| l.open(rep, ("bench", "rep"), rep_start, None));
    let setup_span = log
        .as_deref_mut()
        .map(|l| l.open(rep, ("bench", "setup"), rep_start, rep_span));
    let mut sut = Sut::build(inputs.workload)?;

    let mut op_id = 0u32;
    let mut script_span = None;
    let mut before = (Counters::default(), CacheStats::default());
    for (timed, ops) in [(false, &inputs.preload), (true, &inputs.script)] {
        if timed {
            before = (sut.counters(), sut.cache_stats());
            let (factor, bursts_ns) = std::mem::replace(&mut cal, Calibrator::start()).finish();
            let now = Instant::now();
            rec.setup_factor = factor;
            rec.setup_ns = ns_between(rep_start, now).saturating_sub(bursts_ns);
            if let (Some(l), Some(s)) = (log.as_deref_mut(), setup_span) {
                l.close(s, now);
                script_span = Some(l.open(rep, ("bench", "script"), now, rep_span));
            }
        }
        let sim_start = sut.now();
        for op in ops {
            let kind = Call::of(op);
            let start = Instant::now();
            let reply = sut.call(op, inputs);
            let end = Instant::now();
            let wall = ns_between(start, end);
            cal.after_call(wall);

            if let Some(l) = log.as_deref_mut() {
                let parent = if timed { script_span } else { setup_span };
                let names = (sut.layer_of(op), sut.fn_of(op));
                l.record(rep, Some(op_id), names, (start, end), parent);
            }
            op_id += 1;
            rec.attempted += 1;
            if timed {
                rec.wall_ns += wall;
                rec.script_ops += 1;
                rec.walls[kind as usize].push(wall);
            } else {
                rec.preload_walls[kind as usize].push(wall);
            }
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    if rec.failed < 3 {
                        eprintln!("e2e: rep {rep} op {} {op:?} failed: {e}", op_id - 1);
                    }
                    rec.failed += 1;
                    continue;
                }
            };
            verify(op, &reply, inputs)?;
            match reply {
                Reply::Write {
                    latency,
                    trace,
                    replicas,
                } => {
                    let Op::Write { payload, .. } = op else {
                        continue;
                    };
                    let bytes = inputs.payloads[*payload as usize].len() as u64;
                    rec.acked_bytes += bytes;
                    if !timed {
                        continue;
                    }
                    rec.payload_bytes += bytes;
                    rec.replica_writes += replicas as u64;
                    rec.write_sim_ns.push(latency.as_nanos());
                    if let Some(trace) = trace {
                        let (steps, _) = trace_split(&trace);
                        rec.trace.writes += 1;
                        rec.trace.write_steps_ns += steps;
                        rec.trace.residual_ns +=
                            trace.total().as_nanos().abs_diff(latency.as_nanos());
                    }
                }
                Reply::Read {
                    data,
                    latency,
                    first_byte,
                    trace,
                    source,
                } if timed => {
                    rec.payload_bytes += data.len() as u64;
                    rec.read_sim_ns.push(latency.as_nanos());
                    rec.first_byte_ns.push(first_byte.as_nanos());
                    if let Some(trace) = trace {
                        let (steps, fetch) = trace_split(&trace);
                        rec.trace.reads += 1;
                        rec.trace.read_steps_ns += steps;
                        rec.trace.read_fetch_ns += fetch;
                        rec.trace.residual_ns +=
                            trace.total().as_nanos().abs_diff(latency.as_nanos());
                    }
                    match source {
                        Some(ReadSource::DiskBucket) => rec.sources.bucket += 1,
                        Some(ReadSource::DiskImage) => rec.sources.image += 1,
                        Some(ReadSource::DiscInDrive) => rec.sources.in_drive += 1,
                        Some(_) => rec.sources.roller += 1,
                        None => {}
                    }
                }
                Reply::Audit(a) if timed => rec.audit.add(a),
                Reply::Inject { injected, skipped } => {
                    rec.injected += injected;
                    rec.skipped += skipped;
                }
                _ => {}
            }
        }
        if timed {
            rec.makespan_ns = sut.now().duration_since(sim_start).as_nanos();
        }
    }
    (rec.factor, _) = cal.finish();
    let end = Instant::now();
    if let Some(l) = log {
        for span in [script_span, rep_span].into_iter().flatten() {
            l.close(span, end);
        }
    }

    rec.end = end_state(&sut, before)?;
    Ok(rec)
}

/// Reads the end state off every rack and checks the system is
/// consistent and drained.
fn end_state(sut: &Sut, before: (Counters, CacheStats)) -> Result<EndState, String> {
    let mut end = EndState {
        counters: zip_counters(sut.counters(), before.0, |now, then| now - then),
        cache: zip_cache_stats(sut.cache_stats(), before.1, |now, then| now - then),
        ..EndState::default()
    };
    for ros in sut.racks() {
        if let Some(issue) = ros.verify_consistency().first() {
            return Err(format!("inconsistent after the script: {}", issue.what));
        }
        let pending = ros.pending_work();
        if pending != (0, 0, 0, 0) {
            return Err(format!(
                "burn backlog after the final flush: (burning, queued, parity pending, ready) = {pending:?}"
            ));
        }
        // The DAindex tray by tray: `status()` would say the same, but
        // it also sizes the whole metadata volume, a second per call on
        // the small-file workload.
        let cfg = ros.config();
        let trays = (0..cfg.layout.total_slots())
            .filter(|slot| matches!(ros.da_state(*slot), Some(DaState::Used | DaState::Failed)))
            .count() as u64;
        end.trays_spent += trays;
        end.media_bytes += trays * u64::from(cfg.array_size()) * cfg.disc_class.capacity();
    }
    Ok(end)
}
