//! Per-layer unit costs and the wall-share estimate built from them.
//!
//! The benchmark cannot see inside a call, so a traced run *replays
//! the workload's own bytes* against each lower layer's public
//! functions, times them, and multiplies the unit costs by the public
//! counters of a repetition. The result is an estimate of where a
//! repetition's wall went, labelled `_est` everywhere it is printed.
//! Its limits are spelled out in the README.

use crate::inputs::{Inputs, Op, Workload};
use crate::rep::RepRecord;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::system::{Call, Reply, Sut, PLANE_THREADS};
use bytes::Bytes;
use ros_cas::{content_digest, verify_payload};
use ros_disk::parity::{encode_pq_with, parity_p_with, reconstruct_p_with, verify_group_with};
use ros_disk::DataPlane;
use ros_drive::{Disc, DriveSet, MediaKind, OpticalDrive, Payload};
use ros_mech::{MechScheduler, Plc};
use ros_olfs::{Redundancy, RosConfig};
use ros_sim::stats::LatencyRecorder;
use ros_sim::{EventQueue, SimDuration, SimTime};
use ros_udf::{Bucket, SealedImage, UdfPath};
use std::hint::black_box;
use std::time::Instant;

/// Images the replay packs: one full array's worth of data discs at
/// most, which bounds replay time and memory.
const MAX_IMAGES: usize = 11;

/// Times a kernel is repeated; the median is kept.
const KERNEL_REPS: usize = 3;

/// Unit costs of the lower layers, measured on the workload's bytes.
#[derive(Clone, Debug, Default)]
pub struct UnitCosts {
    /// `Bucket::close` (serialise + self-parse), MB of image per s.
    pub seal_mb_per_s: f64,
    /// `SealedImage::from_bytes`, MB of image per s.
    pub parse_mb_per_s: f64,
    /// Mean wall of one `Bucket::write`, ns.
    pub bucket_write_ns: f64,
    /// Mean wall of one `SealedImage::read`, ns.
    pub image_lookup_ns: f64,
    /// File bytes over disc capacity of the packed images.
    pub image_fill_ratio: f64,
    /// Mean size of a sealed image, bytes.
    pub image_bytes: f64,
    /// `content_digest` over whole images, MB/s.
    pub digest_image_mb_per_s: f64,
    /// `content_digest` over the workload's payloads one by one, MB/s.
    pub digest_payload_mb_per_s: f64,
    /// `verify_payload` over whole images, MB/s.
    pub verify_mb_per_s: f64,
    /// `parity_p_with` over one array of images, MB of data per s.
    pub encode_p_mb_per_s: f64,
    /// `encode_pq_with`, MB of data per s.
    pub encode_pq_mb_per_s: f64,
    /// `reconstruct_p_with` with one member lost, MB of data per s.
    pub reconstruct_mb_per_s: f64,
    /// `verify_group_with`, MB of data per s.
    pub verify_group_mb_per_s: f64,
    /// Simulated burn of one array of those images, s.
    pub burn_sim_s_per_array: f64,
    /// Simulated drive read of one image (mount + seek + transfer), ms.
    pub read_sim_ms_per_image: f64,
    /// Wall of one `simulate_array_burn` model call, ns.
    pub drive_model_call_ns: f64,
    /// Median simulated `load_array`, s.
    pub load_sim_s_p50: f64,
    /// Median simulated `unload_array`, s.
    pub unload_sim_s_p50: f64,
    /// Mean wall of one load or unload model call, ns.
    pub mech_model_call_ns: f64,
    /// Wall of one `schedule_in` + `pop` on a busy queue, ns.
    pub event_cycle_ns: f64,
    /// Wall of one percentile query after a record, ns.
    pub recorder_percentile_ns: f64,
    /// Mean wall of one `Cluster::targets_of`, ns (cluster only).
    pub targets_of_ns: f64,
    /// Gateway minus direct simulated write latency, ms (gateway only).
    pub stack_sim_ms_per_write: f64,
    /// Gateway minus direct simulated read latency, ms (gateway only).
    pub stack_sim_ms_per_read: f64,
    /// Wall of one `Instant::now()` pair, ns.
    pub timer_overhead_ns: f64,
}

/// Spans of the replay hang under one root per kernel group.
struct Replay<'a> {
    log: &'a mut SpanLog,
    rep: u32,
    root: u32,
    next_op: u32,
}

impl Replay<'_> {
    /// Times `f`, records a span for it, and returns its wall in s.
    fn time<T>(
        &mut self,
        layer: &'static str,
        func: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.log.record(
            self.rep,
            Some(self.next_op),
            (layer, func),
            (start, end),
            Some(self.root),
        );
        self.next_op += 1;
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Median wall in s of `KERNEL_REPS` runs of `f`.
    fn median_s<T>(
        &mut self,
        layer: &'static str,
        func: &'static str,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let walls: Vec<f64> = (0..KERNEL_REPS)
            .map(|_| self.time(layer, func, &mut f).1)
            .collect();
        median(&walls)
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// The files the workload writes, in write order, once each.
fn written_files(inputs: &Inputs) -> Vec<(&UdfPath, &Bytes)> {
    let mut seen = vec![false; inputs.paths.len()];
    let mut files = Vec::new();
    for op in inputs.preload.iter().chain(&inputs.script) {
        if let Op::Write { path, payload } = *op {
            if !std::mem::replace(&mut seen[path as usize], true) {
                files.push((
                    &inputs.paths[path as usize],
                    &inputs.payloads[payload as usize],
                ));
            }
        }
    }
    files
}

/// Replays the workload's bytes against the lower layers. `rep` is the
/// repetition number the replay's spans are filed under.
pub fn replay(
    inputs: &Inputs,
    cfg: &RosConfig,
    log: &mut SpanLog,
    rep: u32,
) -> Result<UnitCosts, String> {
    let start = Instant::now();
    let root = log.open(rep, ("bench", "replay"), start, None);
    let mut r = Replay {
        log,
        rep,
        root,
        next_op: 0,
    };
    let mut costs = UnitCosts::default();
    let plane = DataPlane::with_threads(PLANE_THREADS);
    let capacity = cfg.disc_class.capacity();

    // udf: pack the workload's files into buckets the size of a disc,
    // sealing each as it fills (whole files only; the engine also
    // splits files across buckets, which this replay does not).
    let files = written_files(inputs);
    let mut images: Vec<SealedImage> = Vec::new();
    let mut members: Vec<Vec<(&UdfPath, &Bytes)>> = vec![Vec::new()];
    let mut bucket = Bucket::new(0, capacity);
    let (mut write_s, mut writes, mut seal_s) = (0.0, 0usize, 0.0);
    for (path, data) in files {
        if bucket.cost_of(path, data.len() as u64) > bucket.free_bytes() {
            let (sealed, s) = r.time("udf", "Bucket::close", || bucket.close());
            seal_s += s;
            images.push(sealed.map_err(|e| e.to_string())?);
            if images.len() == MAX_IMAGES {
                break;
            }
            bucket = Bucket::new(images.len() as u64, capacity);
            members.push(Vec::new());
        }
        let (res, s) = r.time("udf", "Bucket::write", || {
            bucket.write(path, data.clone(), 0)
        });
        res.map_err(|e| e.to_string())?;
        write_s += s;
        writes += 1;
        members
            .last_mut()
            .expect("one list per bucket")
            .push((path, data));
    }
    if images.len() < MAX_IMAGES && !bucket.is_empty() {
        let (sealed, s) = r.time("udf", "Bucket::close", || bucket.close());
        seal_s += s;
        images.push(sealed.map_err(|e| e.to_string())?);
    }
    if images.is_empty() {
        return Err("the workload writes nothing to replay".into());
    }
    let image_bytes: usize = images.iter().map(|i| i.bytes().len()).sum();
    // Files of a bucket that was still open when packing stopped are
    // in no image; count only what was sealed.
    let sealed_file_bytes: usize = members
        .iter()
        .take(images.len())
        .flatten()
        .map(|(_, d)| d.len())
        .sum();
    costs.seal_mb_per_s = mb(image_bytes) / seal_s;
    costs.bucket_write_ns = write_s * 1e9 / writes as f64;
    costs.image_bytes = image_bytes as f64 / images.len() as f64;
    costs.image_fill_ratio = sealed_file_bytes as f64 / (images.len() as u64 * capacity) as f64;

    let parse_s = r.median_s("udf", "SealedImage::from_bytes", || {
        for image in &images {
            black_box(
                SealedImage::from_bytes(image.bytes().clone())
                    .map(|i| i.len())
                    .ok(),
            );
        }
    });
    costs.parse_mb_per_s = mb(image_bytes) / parse_s;
    let lookups: usize = members.iter().take(images.len()).map(Vec::len).sum();
    let lookup_s = r.median_s("udf", "SealedImage::read", || {
        for (image, files) in images.iter().zip(&members) {
            for (path, _) in files {
                black_box(image.read(path).map(|b| b.len()).ok());
            }
        }
    });
    costs.image_lookup_ns = lookup_s * 1e9 / lookups.max(1) as f64;

    // cas: the digest the engine takes of every sealed image, the
    // per-payload digest of the dedup write path, and verify-on-fetch.
    let digest_s = r.median_s("cas", "content_digest", || {
        for image in &images {
            black_box(content_digest(image.bytes(), &plane));
        }
    });
    costs.digest_image_mb_per_s = mb(image_bytes) / digest_s;
    let payloads: Vec<&Bytes> = members.iter().flatten().map(|(_, d)| *d).collect();
    let payload_bytes: usize = payloads.iter().map(|d| d.len()).sum();
    let payload_s = r.median_s("cas", "content_digest", || {
        for data in &payloads {
            black_box(content_digest(data, &plane));
        }
    });
    costs.digest_payload_mb_per_s = mb(payload_bytes) / payload_s;
    let digests: Vec<_> = images
        .iter()
        .map(|i| content_digest(i.bytes(), &plane))
        .collect();
    let verify_s = r.median_s("cas", "verify_payload", || {
        for (image, digest) in images.iter().zip(&digests) {
            black_box(verify_payload(digest, image.bytes(), &plane).is_ok());
        }
    });
    costs.verify_mb_per_s = mb(image_bytes) / verify_s;

    // disk: one array of those images as equal-length stripes.
    let stripe = images.iter().map(|i| i.bytes().len()).min().unwrap_or(0);
    let data: Vec<&[u8]> = images
        .iter()
        .take(cfg.data_discs_per_array() as usize)
        .map(|i| &i.bytes()[..stripe])
        .collect();
    let data_mb = mb(stripe * data.len());
    let err = |e: ros_disk::parity::ParityError| e.to_string();
    let p = parity_p_with(&data, &plane).map_err(err)?;
    let (_, q) = encode_pq_with(&data, &plane).map_err(err)?;
    costs.encode_p_mb_per_s = data_mb
        / r.median_s("disk", "parity_p_with", || {
            parity_p_with(&data, &plane).map(|p| p.len()).ok()
        });
    costs.encode_pq_mb_per_s = data_mb
        / r.median_s("disk", "encode_pq_with", || {
            encode_pq_with(&data, &plane).map(|(p, _)| p.len()).ok()
        });
    let mut holed: Vec<Option<&[u8]>> = data.iter().map(|d| Some(*d)).collect();
    holed[0] = None;
    costs.reconstruct_mb_per_s = data_mb
        / r.median_s("disk", "reconstruct_p_with", || {
            reconstruct_p_with(&holed, Some(&p), &plane)
                .map(|(d, _)| d.len())
                .ok()
        });
    costs.verify_group_mb_per_s = data_mb
        / r.median_s("disk", "verify_group_with", || {
            verify_group_with(&data, &p, Some(&q), &plane).ok()
        });

    // drive: burn one array of those images, read one back.
    let mut sizes: Vec<u64> = images.iter().map(|i| i.len()).collect();
    sizes.resize(cfg.drives_per_bay, costs.image_bytes as u64);
    let set = DriveSet::new(cfg.drives_per_bay);
    let (burn, s) = r.time("drive", "DriveSet::simulate_array_burn", || {
        set.simulate_array_burn(&sizes, cfg.disc_class, SimTime::ZERO)
    });
    costs.burn_sim_s_per_array = burn.total.as_secs_f64();
    costs.drive_model_call_ns = s * 1e9;
    let mut disc = Disc::blank(1, cfg.disc_class, MediaKind::Worm);
    disc.burn_all_once(1, Payload::inline(images[0].bytes().clone()))
        .map_err(|e| e.to_string())?;
    let mut drive = OpticalDrive::new(0, 1.0);
    drive.insert(disc).map_err(|e| e.to_string())?;
    let (read, _) = r.time("drive", "OpticalDrive::read_image", || drive.read_image(1));
    costs.read_sim_ms_per_image = read.map_err(|e| e.to_string())?.duration.as_millis_f64();

    // mech: load and unload every tray of the layout once.
    let mut mech = MechScheduler::new(Plc::new_full(cfg.layout), 1);
    let (mut loads, mut unloads, mut mech_s) = (Vec::new(), Vec::new(), 0.0);
    for roller in 0..cfg.layout.rollers {
        for slot in cfg.layout.slots_of_roller(roller) {
            let (op, s) = r.time("mech", "MechScheduler::load_array", || {
                mech.load_array(slot, 0)
            });
            loads.push(op.map_err(|e| e.to_string())?.duration.as_secs_f64());
            mech_s += s;
            let (op, s) = r.time("mech", "MechScheduler::unload_array", || {
                mech.unload_array(0)
            });
            unloads.push(op.map_err(|e| e.to_string())?.duration.as_secs_f64());
            mech_s += s;
        }
    }
    costs.load_sim_s_p50 = median(&loads);
    costs.unload_sim_s_p50 = median(&unloads);
    costs.mech_model_call_ns = mech_s * 1e9 / (loads.len() + unloads.len()) as f64;

    // sim: the event queue with a realistic backlog, and the latency
    // recorder's query-after-record (its cache-invalidation case).
    const CYCLES: u64 = 100_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..64 {
        queue.schedule_in(SimDuration::from_secs(3600 + i), i);
    }
    let cycle_s = r.median_s("sim", "EventQueue::schedule_in+pop", || {
        for i in 0..CYCLES {
            queue.schedule_in(SimDuration::from_nanos(1 + i % 7), i);
            black_box(queue.pop());
        }
    });
    costs.event_cycle_ns = cycle_s * 1e9 / CYCLES as f64;
    const QUERIES: u64 = 200;
    let mut recorder = LatencyRecorder::new("replay");
    for i in 0..2_000u64 {
        recorder.record(SimDuration::from_micros(50_000 + i * 37 % 9_000));
    }
    let query_s = r.median_s("sim", "LatencyRecorder::record+percentile", || {
        for i in 0..QUERIES {
            recorder.record(SimDuration::from_micros(50_000 + i));
            black_box(recorder.percentile(0.99));
        }
    });
    costs.recorder_percentile_ns = query_s * 1e9 / QUERIES as f64;

    // The front end's own contribution, where it has a measurable one.
    match inputs.workload {
        Workload::ClusterPreserve => costs.targets_of_ns = targets_of_ns(inputs, &mut r)?,
        Workload::IngestBurn | Workload::ColdRead => {
            (costs.stack_sim_ms_per_write, costs.stack_sim_ms_per_read) = stack_sim_ms(inputs)?;
        }
        Workload::SmallOps => {}
    }

    const PAIRS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..PAIRS {
        black_box(Instant::now().duration_since(black_box(Instant::now())));
    }
    costs.timer_overhead_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS);

    let end = Instant::now();
    r.log.close(root, end);
    Ok(costs)
}

/// Mean wall of `Cluster::targets_of` on a federation holding the
/// workload's preload.
fn targets_of_ns(inputs: &Inputs, r: &mut Replay) -> Result<f64, String> {
    let mut sut = Sut::build(inputs.workload)?;
    let mut paths = Vec::new();
    for op in &inputs.preload {
        if let Op::Write { path, .. } = op {
            sut.call(op, inputs)?;
            paths.push(&inputs.paths[*path as usize]);
        }
    }
    let Sut::Cluster(cluster) = &sut else {
        return Err("targets_of is a cluster function".into());
    };
    const ROUNDS: usize = 100;
    let s = r.median_s("cluster", "Cluster::targets_of", || {
        for _ in 0..ROUNDS {
            for path in &paths {
                black_box(cluster.targets_of(path).map(|t| t.len()));
            }
        }
    });
    Ok(s * 1e9 / (ROUNDS * paths.len().max(1)) as f64)
}

/// What the Samba stack adds to a simulated write and read: the same
/// first files through the gateway and through the engine directly.
fn stack_sim_ms(inputs: &Inputs) -> Result<(f64, f64), String> {
    const FILES: usize = 32;
    let writes: Vec<&Op> = inputs
        .preload
        .iter()
        .chain(&inputs.script)
        .filter(|op| matches!(op, Op::Write { .. }))
        .take(FILES)
        .collect();
    let mean_ms = |sut: &mut Sut| -> Result<(f64, f64), String> {
        let (mut w, mut r) = (0.0, 0.0);
        for op in &writes {
            if let Reply::Write { latency, .. } = sut.call(op, inputs)? {
                w += latency.as_millis_f64();
            }
        }
        for op in &writes {
            let Op::Write { path, payload } = **op else {
                continue;
            };
            let read = Op::Read { path, payload };
            if let Reply::Read { latency, .. } = sut.call(&read, inputs)? {
                r += latency.as_millis_f64();
            }
        }
        let n = writes.len().max(1) as f64;
        Ok((w / n, r / n))
    };
    let mut gateway = Sut::build(inputs.workload)?;
    let Sut::Nas(g) = &gateway else {
        return Err("the stack cost is a gateway measurement".into());
    };
    let mut direct = Sut::Rack(Box::new(
        ros_olfs::Ros::try_new(g.ros().config().clone()).map_err(|e| e.to_string())?,
    ));
    let (gw, gr) = mean_ms(&mut gateway)?;
    let (dw, dr) = mean_ms(&mut direct)?;
    Ok((gw - dw, gr - dr))
}

/// Estimated share of a repetition's wall spent in each layer below
/// the front end. The shares, with the front end's own, sum to 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shares {
    /// `ros-udf`: serialise at seal, parse at fetch, bucket writes,
    /// image lookups.
    pub udf: f64,
    /// `ros-cas`: digests at seal, at fetch, at audit, on dedup writes.
    pub cas: f64,
    /// `ros-disk`: parity encode and reconstruct.
    pub disk: f64,
    /// `ros-cluster` routing (cluster workload only).
    pub cluster: f64,
    /// Everything else: `ros-olfs` itself with the models it drives
    /// (`sim`, `mech`, `drive`) and the access wrapper.
    pub olfs_self: f64,
    /// Digest calls the estimate assumed.
    pub digest_calls: f64,
}

impl Shares {
    /// Turns per-layer wall estimates (s) into shares of `wall_s`. If
    /// the estimates overshoot the wall they are scaled onto it, so
    /// the shares always sum to 1 and `olfs_self` is never negative.
    pub fn from_estimates(
        wall_s: f64,
        udf_s: f64,
        cas_s: f64,
        disk_s: f64,
        cluster_s: f64,
        digest_calls: f64,
    ) -> Shares {
        let lower = udf_s + cas_s + disk_s + cluster_s;
        let scale = if lower > wall_s { wall_s / lower } else { 1.0 };
        let share = |s: f64| {
            if wall_s > 0.0 {
                s * scale / wall_s
            } else {
                0.0
            }
        };
        let (udf, cas, disk, cluster) =
            (share(udf_s), share(cas_s), share(disk_s), share(cluster_s));
        Shares {
            udf,
            cas,
            disk,
            cluster,
            olfs_self: 1.0 - (udf + cas + disk + cluster),
            digest_calls,
        }
    }

    /// The sum of all shares (1 by construction).
    pub fn total(&self) -> f64 {
        self.udf + self.cas + self.disk + self.cluster + self.olfs_self
    }
}

/// Multiplies the unit costs by what one repetition's script did.
///
/// Where the engine digests, per the code at the commit that defined
/// this benchmark: once per sealed image and per parity image, twice
/// per fetched image (before and inside the restore), once per
/// audited image, and once per written payload with dedup on.
pub fn estimate(
    rec: &RepRecord,
    costs: &UnitCosts,
    cfg: &RosConfig,
    script_write_bytes: u64,
) -> Shares {
    let c = rec.end.counters;
    let image_mb = costs.image_bytes / 1e6;
    let per_mb = |rate: f64| if rate > 0.0 { 1.0 / rate } else { 0.0 };
    let (writes, _) = rec.call_wall_ns(Call::Write);
    let (reads, _) = rec.call_wall_ns(Call::Read);
    let fetched = (c.fetches + c.repairs + c.latent_repairs) as f64;

    let udf_s = c.buckets_sealed as f64 * image_mb * per_mb(costs.seal_mb_per_s)
        + fetched * image_mb * per_mb(costs.parse_mb_per_s)
        + writes as f64 * costs.bucket_write_ns / 1e9
        + reads as f64 * costs.image_lookup_ns / 1e9;

    let parity_images = c.parity_runs as f64 * f64::from(cfg.redundancy.parity_discs());
    let image_digests =
        c.buckets_sealed as f64 + parity_images + 2.0 * fetched + rec.audit.sampled as f64;
    let payload_digests = if cfg.dedup { writes as f64 } else { 0.0 };
    let cas_s = image_digests * image_mb * per_mb(costs.digest_image_mb_per_s)
        + if cfg.dedup {
            script_write_bytes as f64 / 1e6 * per_mb(costs.digest_payload_mb_per_s)
        } else {
            0.0
        };

    let array_mb = f64::from(cfg.data_discs_per_array()) * image_mb;
    let encode = match cfg.redundancy {
        Redundancy::Raid6 => costs.encode_pq_mb_per_s,
        _ => costs.encode_p_mb_per_s,
    };
    let rebuilt = (c.repairs + c.latent_repairs) as f64 + rec.audit.repaired_parity as f64;
    let disk_s = c.parity_runs as f64 * array_mb * per_mb(encode)
        + rebuilt * array_mb * per_mb(costs.reconstruct_mb_per_s);

    let cluster_s = rec.script_ops as f64 * costs.targets_of_ns / 1e9;
    Shares::from_estimates(
        rec.wall_ns as f64 / 1e9,
        udf_s,
        cas_s,
        disk_s,
        cluster_s,
        image_digests + payload_digests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_self_is_the_remainder() {
        let s = Shares::from_estimates(2.0, 0.2, 0.5, 0.1, 0.0, 40.0);
        assert!((s.total() - 1.0).abs() < 1e-12);
        assert!((s.udf - 0.1).abs() < 1e-12);
        assert!((s.cas - 0.25).abs() < 1e-12);
        assert!((s.olfs_self - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overshooting_estimates_are_scaled_onto_the_wall() {
        let s = Shares::from_estimates(1.0, 1.0, 2.0, 1.0, 0.0, 0.0);
        assert!((s.total() - 1.0).abs() < 1e-12);
        assert!(s.olfs_self.abs() < 1e-12);
        assert!((s.cas - 0.5).abs() < 1e-12);
        let zero = Shares::from_estimates(0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        assert_eq!(zero.total(), 1.0);
    }
}
