//! The OLFS engine: POSIX-style facade, tiered data path, task scheduling.
//!
//! `Ros` owns every subsystem — metadata volume, buckets, image store,
//! disk volumes, drive bays, the mechanical scheduler and the physical
//! disc registry — and drives them on a single discrete-event clock.
//!
//! Foreground calls ([`Ros::write_file`], [`Ros::read_file`], ...) walk
//! the paper's internal-operation sequences (Figure 7) against an
//! [`OpTrace`], recording simulated time for every device touched, and
//! the clock is charged the trace's total once, when the call returns —
//! which is when background events (parity completion, burn completion)
//! that fell due meanwhile are delivered (DESIGN.md "Time model").
//! Background work — delayed parity generation (§4.7), burn
//! task management (§4.1), read-cache eviction — runs entirely off the
//! event queue, so writes return in milliseconds while hour-long burns
//! proceed "asynchronously" exactly as the paper describes.

use crate::cache::ReadCache;
use crate::config::{BusyReadPolicy, Redundancy, RosConfig};
use crate::dim::{DaState, DiscLocation, DiscRegistry, GroupState, ImageStore};
use crate::error::OlfsError;
use crate::ids::{ArrayId, DiscId, ImageId};
use crate::index::{LocTag, VersionEntry};
use crate::mv::MetadataVolume;
use crate::params;
use crate::redundancy;
use crate::trace::OpTrace;
use crate::wbm::{link_file_name, BucketManager, LinkFile, Placement};
use bytes::Bytes;
use ros_cas::verify_payloads;
use ros_disk::volume::{VolumeId, VolumeManager};
use ros_disk::RaidArray;
use ros_drive::media::Payload;
use ros_drive::DriveSet;
use ros_mech::plc::Plc;
use ros_mech::{MechScheduler, SlotAddress};
use ros_sim::{Bandwidth, EventQueue, SimDuration, SimRng, SimTime};
use ros_udf::UdfPath;
use std::collections::{BTreeMap, BTreeSet};

/// Background events on the engine clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Delayed parity generation finished for a group.
    ParityDone {
        /// The completed group.
        group: ArrayId,
    },
    /// An array burn finished in a bay.
    BurnDone {
        /// The burned group.
        group: ArrayId,
        /// The bay that held it.
        bay: usize,
    },
    /// Periodic idle-time scan of the whole library (§4.7), run by
    /// [`Ros::audit_sample`].
    ScrubTick,
    /// Background array prefetch finished (spatial-locality refinement
    /// of the read cache, §4.1).
    PrefetchDone {
        /// The bay whose loaded array was being prefetched.
        bay: usize,
        /// Images to pull into the cache.
        images: Vec<ImageId>,
    },
}

/// Where a read was ultimately served from (Table 1's six rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadSource {
    /// Data still staged in an open bucket on the disk buffer.
    DiskBucket,
    /// A sealed disc image resident on the disk buffer / read cache.
    DiskImage,
    /// A disc already sitting in a drive.
    DiscInDrive,
    /// Fetched from the roller into a free drive bay.
    RollerFreeDrives,
    /// Fetched after first unloading a resident (idle) array.
    RollerUnloadFirst,
    /// Fetched after waiting for (or interrupting) a burn.
    RollerDrivesBusy,
}

/// Result of a file write.
#[derive(Clone, Debug)]
pub struct WriteReport {
    /// Version number assigned.
    pub version: u32,
    /// Images the data went to (more than one if split).
    pub segments: Vec<ImageId>,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Internal-operation trace (Figure 7).
    pub trace: OpTrace,
}

/// Result of a file read.
#[derive(Clone, Debug)]
pub struct ReadReport {
    /// The file contents.
    pub data: Bytes,
    /// Version served.
    pub version: u32,
    /// End-to-end latency to the last byte.
    pub latency: SimDuration,
    /// Latency to the first byte (≈2 ms when the forepart answered,
    /// §4.8).
    pub first_byte_latency: SimDuration,
    /// Where the data came from.
    pub source: ReadSource,
    /// Internal-operation trace.
    pub trace: OpTrace,
}

/// Engine activity counters (maintenance interface telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Files written.
    pub writes: u64,
    /// Files read.
    pub reads: u64,
    /// Files updated (regenerating updates, §4.6).
    pub updates: u64,
    /// Buckets sealed into images.
    pub buckets_sealed: u64,
    /// Files split across images.
    pub splits: u64,
    /// Parity generations completed.
    pub parity_runs: u64,
    /// Array burns completed.
    pub burns: u64,
    /// Mechanical fetches performed for reads.
    pub fetches: u64,
    /// Burns interrupted to serve reads (§4.8).
    pub burn_interrupts: u64,
    /// Damaged images repaired via array redundancy (§4.7).
    pub repairs: u64,
    /// Spoiled burns retried onto a spare tray (the ruined write-once
    /// tray is retired as Failed).
    pub reburns: u64,
    /// Writes served by the dedup catalog without placing data (§14).
    pub dedup_hits: u64,
    /// Client bytes that never hit the write buffer thanks to dedup.
    pub dedup_bytes_saved: u64,
    /// Bytes memcpy'd on the read path. Single-segment reads hand back
    /// refcounted slices (zero-copy), so only multi-segment joins count.
    pub read_copy_bytes: u64,
    /// Latent-rot repairs: fetches whose payload read back *cleanly* but
    /// failed the CAS digest check and were reconstructed from array
    /// redundancy before any client saw the corrupt bytes (§16).
    pub latent_repairs: u64,
}

/// A foreground operation in progress: when it started and what it has
/// spent so far. The clock stands still while the op's body runs, so
/// the body reads time from here.
struct Op {
    start: SimTime,
    trace: OpTrace,
}

impl Op {
    /// The op's own present: its start plus what it has been charged.
    fn now(&self) -> SimTime {
        self.start + self.trace.total()
    }
}

/// The ROS system.
pub struct Ros {
    pub(crate) cfg: RosConfig,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) rng: SimRng,
    pub(crate) mech: MechScheduler,
    pub(crate) bays: Vec<DriveSet>,
    pub(crate) vm: VolumeManager,
    pub(crate) vol_mv: VolumeId,
    pub(crate) vol_buffer: VolumeId,
    pub(crate) vol_aux: VolumeId,
    pub(crate) mv: MetadataVolume,
    pub(crate) store: ImageStore,
    pub(crate) registry: DiscRegistry,
    pub(crate) wbm: BucketManager,
    pub(crate) cache: ReadCache,
    pub(crate) counters: Counters,
    /// When the one robotic arm finishes the moves booked so far; a move
    /// wanted earlier starts then ([`Ros::arm_move`]).
    arm_free_at: SimTime,
    /// The namespace paths with a version in each image (LocTag
    /// promotion, audit escalation); the stored name is on the entry.
    /// A reverse view of the MV's `VersionEntry::segs`, rebuilt from
    /// them when a namespace is adopted.
    pub(crate) image_paths: BTreeMap<ImageId, BTreeSet<UdfPath>>,
    /// Per-(bay, drive) VFS-mount state (§5.4's 220 ms charge).
    vfs_mounted: BTreeMap<(usize, usize), bool>,
    /// Result of the most recent idle-tick audit (§4.7, §16).
    pub(crate) last_audit: Option<crate::audit::AuditReport>,
    /// Last access instant per (bay, drive); drives spin down after
    /// `ros_drive::params::sleep_after_idle()` (§5.4).
    drive_last_used: BTreeMap<(usize, usize), SimTime>,
    /// Bays taken out of rotation after persistent drive failures; the
    /// burn starter and fetch paths route around them until serviced.
    quarantined_bays: BTreeSet<usize>,
    /// Consecutive spoiled burns per bay; two in a row quarantines.
    bay_burn_failures: BTreeMap<usize, u32>,
    /// Content-addressable dedup bookkeeping (§14); consulted only when
    /// `cfg.dedup` is set. A view of the MV's `VersionEntry::digest`s,
    /// rebuilt with `image_paths` when a namespace is adopted.
    pub(crate) dedup: crate::dedup::DedupLayer,
}

impl Ros {
    /// Builds a ROS system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RosConfig::validate`]; use
    /// [`Ros::try_new`] to handle an invalid configuration as a value.
    #[expect(
        clippy::expect_used,
        reason = "documented constructor contract: see the # Panics section"
    )]
    pub fn new(cfg: RosConfig) -> Self {
        Self::try_new(cfg).expect("invalid RosConfig")
    }

    /// Builds a ROS system, surfacing configuration errors as values.
    pub fn try_new(cfg: RosConfig) -> Result<Self, OlfsError> {
        cfg.validate()?;
        let mut vm = VolumeManager::new();
        let vol_mv = vm.add_volume("mv", RaidArray::prototype_metadata());
        let vol_buffer = vm.add_volume("buffer", RaidArray::prototype_data());
        let vol_aux = vm.add_volume("aux", RaidArray::prototype_data());
        let mech = MechScheduler::new(Plc::new_full(cfg.layout), cfg.drive_bays);
        let bays = (0..cfg.drive_bays)
            .map(|_| {
                let mut set = DriveSet::new(cfg.drives_per_bay);
                if cfg.write_and_check {
                    for d in set.iter_mut() {
                        d.check_mode = true;
                    }
                }
                set
            })
            .collect();
        let mut store = ImageStore::new(&cfg.layout);
        let bucket_ids = (0..cfg.open_buckets)
            .map(|_| store.allocate_image_id())
            .collect();
        let wbm = BucketManager::new(bucket_ids, cfg.disc_class.capacity());
        let registry = DiscRegistry::new(&cfg.layout, cfg.disc_class);
        let cache = ReadCache::new(cfg.read_cache_images);
        let rng = SimRng::seed_from(cfg.seed);
        let mut queue = EventQueue::new();
        if let Some(interval) = cfg.scrub_interval {
            queue.schedule_in(interval, Event::ScrubTick);
        }
        Ok(Ros {
            queue,
            rng,
            mech,
            bays,
            vm,
            vol_mv,
            vol_buffer,
            vol_aux,
            mv: MetadataVolume::new(),
            store,
            registry,
            wbm,
            cache,
            counters: Counters::default(),
            arm_free_at: SimTime::ZERO,
            image_paths: BTreeMap::new(),
            vfs_mounted: BTreeMap::new(),
            last_audit: None,
            drive_last_used: BTreeMap::new(),
            quarantined_bays: BTreeSet::new(),
            bay_burn_failures: BTreeMap::new(),
            dedup: crate::dedup::DedupLayer::default(),
            cfg,
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> &RosConfig {
        &self.cfg
    }

    /// The real-bytes data plane sized by `cfg.data_plane_threads`
    /// (0 = auto-detect). Parity encode, audit verification, and
    /// recovery reconstruction run their kernels here; the plane is
    /// deterministic, so the thread count never changes behaviour.
    pub fn data_plane(&self) -> ros_disk::DataPlane {
        ros_disk::DataPlane::with_threads(self.cfg.data_plane_threads)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// When the robotic arm finishes the moves booked so far; in the
    /// past when it is idle.
    pub fn arm_free_at(&self) -> SimTime {
        self.arm_free_at
    }

    /// Activity counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Read-cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Advances simulated time, delivering due background events.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.queue.now() + d;
        self.run_until(deadline);
    }

    /// Advances simulated time to an absolute instant.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(ev) = self.queue.pop_until(deadline) {
            self.handle(ev.payload);
        }
    }

    /// Runs until no background *work* remains (burns, parity, queued
    /// groups) or `limit` elapses. Periodic scrub ticks do not count as
    /// work. Returns true if fully quiescent.
    pub fn run_until_quiescent(&mut self, limit: SimDuration) -> bool {
        let deadline = self.queue.now() + limit;
        loop {
            self.try_start_burns(self.now());
            if !self.has_pending_work() {
                break;
            }
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    let Some(ev) = self.queue.pop() else { break };
                    self.handle(ev.payload);
                }
                _ => break,
            }
        }
        !self.has_pending_work()
    }

    /// Outstanding background work, for operator diagnostics when a
    /// flush will not quiesce: `(burns_in_flight, burns_queued,
    /// parity_pending_groups, ready_to_burn_groups)`, counted off the
    /// group states. The backlog is the ready groups, so `burns_queued`
    /// and `ready_to_burn_groups` are one count.
    pub fn pending_work(&self) -> (usize, usize, usize, usize) {
        let ready = self.store.count_in_state(GroupState::ReadyToBurn);
        (
            self.store.count_in_state(GroupState::Burning),
            ready,
            self.store.count_in_state(GroupState::ParityPending),
            ready,
        )
    }

    /// True while a group waits for parity, waits to burn or burns.
    fn has_pending_work(&self) -> bool {
        self.store.groups().any(|g| {
            matches!(
                g.state,
                GroupState::ParityPending | GroupState::ReadyToBurn | GroupState::Burning
            )
        })
    }

    /// Moves the clock to `start + charged`, delivering the background
    /// events due on the way. Only [`Ros::foreground`] calls this.
    fn advance(&mut self, start: SimTime, charged: SimDuration) {
        self.run_until(start + charged);
    }

    /// Runs a foreground op: `body` records what it spends on the op's
    /// trace, computing with time ([`Op::now`]) without moving it, so no
    /// background event is delivered between its steps; the clock is
    /// charged the trace's total once, on return. A failed op has spent
    /// the steps it recorded before failing, nothing else.
    fn foreground<T>(
        &mut self,
        body: impl FnOnce(&mut Self, &mut Op) -> Result<T, OlfsError>,
    ) -> Result<(T, OpTrace), OlfsError> {
        let mut op = Op {
            start: self.now(),
            trace: OpTrace::new(),
        };
        let out = body(self, &mut op);
        self.advance(op.start, op.trace.total());
        out.map(|v| (v, op.trace))
    }

    /// Books the arm for a move of `d` wanted at `at`: the move starts
    /// once the arm has finished what it was booked for. Returns how
    /// long after `at` it is done — the wait, if any, plus the move.
    fn arm_move(&mut self, at: SimTime, d: SimDuration) -> SimDuration {
        self.arm_free_at = at.max(self.arm_free_at) + d;
        self.arm_free_at.duration_since(at)
    }

    // ------------------------------------------------------------------
    // Write path (PBW, §4.3-4.6)
    // ------------------------------------------------------------------

    /// Writes a new file, or a new *version* if the path already exists
    /// (the regenerating update of §4.6).
    pub fn write_file(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
    ) -> Result<WriteReport, OlfsError> {
        let data = data.into();
        let ((version, segments), trace) =
            self.foreground(|ros, op| ros.write_steps(path, data, op))?;
        Ok(WriteReport {
            version,
            segments,
            latency: trace.total(),
            trace,
        })
    }

    /// The internal operations of a write (Figure 7). Returns the
    /// version assigned and the images the data went to.
    fn write_steps(
        &mut self,
        path: &UdfPath,
        data: Bytes,
        op: &mut Op,
    ) -> Result<(u32, Vec<ImageId>), OlfsError> {
        if path.is_root() {
            return Err(OlfsError::Invalid("cannot write to /".into()));
        }
        // stat: look up the index file (MV random read, direct I/O).
        let mv_io = self.vm.random_read_time(self.vol_mv, 1024)?;
        op.trace.step("stat", mv_io);
        if self.mv.is_file(path) {
            return self.update_file(path, data, op);
        }

        // mknod: create the index file and the bucket file entry.
        op.trace.step("mknod", mv_io);
        self.mv.create(path)?;

        // stat again (the VFS re-validates after create, §5.3).
        op.trace.step("stat", mv_io);

        let written = self.write_version(path, None, data, op, false);
        if written.is_err() {
            // No version was recorded: take the index file back, or the
            // path would list but never read, and a retry would find a
            // file with nothing to update.
            let _ = self.mv.unlink(path);
        }
        written
    }

    /// An update of an existing file (§4.6): in place while the newest
    /// version still sits alone in an open bucket with room, a
    /// regenerated copy under a versioned shadow name otherwise (the old
    /// image keeps the old bytes).
    fn update_file(
        &mut self,
        path: &UdfPath,
        data: Bytes,
        op: &mut Op,
    ) -> Result<(u32, Vec<ImageId>), OlfsError> {
        let latest = self
            .mv
            .get(path)
            .and_then(|i| i.latest().cloned())
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
        // §14: bytes another version shares must never be overwritten
        // in place — regenerate instead.
        let shared = latest.digest.is_some_and(|d| self.dedup.shared(&d));
        let growth = ros_udf::blocks_for(data.len() as u64)
            .saturating_sub(ros_udf::blocks_for(latest.size))
            * ros_udf::BLOCK_SIZE;
        let bucket = match latest.segs[..] {
            [image] if !shared => self.wbm.locate_image(image),
            _ => None,
        }
        .filter(|&bi| {
            self.wbm
                .bucket(bi)
                .is_some_and(|b| growth <= b.free_bytes())
        });
        match bucket {
            Some(bi) => self.update_in_place(path, bi, latest, data, op),
            None => {
                let shadow = Self::shadow_path(path, latest.ver + 1);
                self.write_version(path, Some(shadow), data, op, true)
            }
        }
    }

    /// The simple update of §4.6: overwrites the bytes of `latest` where
    /// they sit in open bucket `bi`. The new version takes over the
    /// stored path and `latest` is marked replaced — its bytes are gone.
    fn update_in_place(
        &mut self,
        path: &UdfPath,
        bi: usize,
        latest: VersionEntry,
        data: Bytes,
        op: &mut Op,
    ) -> Result<(u32, Vec<ImageId>), OlfsError> {
        let mv_write = self.vm.random_read_time(self.vol_mv, 1024)?;
        let size = data.len() as u64;
        let io = params::bucket_write_device() + self.vm.write_time(self.vol_buffer, size)?;
        op.trace.step("write", io);
        let now = op.now().as_nanos();
        self.wbm
            .bucket_mut(bi)
            .ok_or_else(|| OlfsError::BadState(format!("bucket {bi} vanished")))?
            .update(latest.stored_path(path), data.clone(), now)?;
        op.trace.step("close", mv_write);

        // The old bytes are gone (the caller's guard guaranteed nothing
        // else shared them): the entry that pointed at them gives its
        // dedup reference back, and the stored location is catalogued
        // under the new content's digest.
        if let Some(prev) = self.mv.get_mut(path).and_then(|i| i.latest_mut()) {
            prev.replaced = true;
            if let Some(old) = prev.digest.take() {
                self.dedup.release(&old);
            }
        }
        let digest = self
            .cfg
            .dedup
            .then(|| ros_cas::content_digest(&data, &self.data_plane()));
        let entry = VersionEntry {
            stored: latest.stored,
            digest,
            ..VersionEntry::new(LocTag::Bucket, size, now, latest.segs.clone(), vec![size])
        };
        self.dedup.record_canonical(path, &entry);
        let version = self.commit_version(path, &data, entry)?;
        self.counters.updates += 1;
        Ok((version, latest.segs))
    }

    /// The shadow path regenerated version `ver` of `path` is stored
    /// under inside images.
    fn shadow_path(path: &UdfPath, ver: u32) -> UdfPath {
        // Callers only pass file paths; a root path has no shadow.
        match (path.parent(), path.name()) {
            (Some(parent), Some(name)) => parent.join(&format!(".rosv{ver}-{name}")),
            _ => path.clone(),
        }
    }

    /// Writes `data` as the next version of `path`. A payload whose
    /// content digest dedup already catalogued (§14) shares the canonical
    /// copy's placement — no second bucket residency, parity charge or
    /// burn, only the index close is charged; any other payload is placed
    /// into buckets, under `shadow` when the file's own name is taken by
    /// an older version.
    fn write_version(
        &mut self,
        path: &UdfPath,
        shadow: Option<UdfPath>,
        data: Bytes,
        op: &mut Op,
        is_update: bool,
    ) -> Result<(u32, Vec<ImageId>), OlfsError> {
        let mv_write = self.vm.random_read_time(self.vol_mv, 1024)?;
        let digest = self
            .cfg
            .dedup
            .then(|| ros_cas::content_digest(&data, &self.data_plane()));
        let hit = digest.and_then(|d| self.dedup.link(&d).cloned());
        let placed = hit.is_none();
        let (segments, seg_sizes, stored) = match hit {
            Some(canonical) => (
                canonical.segments,
                canonical.seg_sizes,
                Some(canonical.stored).filter(|s| s != path),
            ),
            None => {
                let (segments, seg_sizes, write_time) =
                    self.place_data(shadow.as_ref().unwrap_or(path), &data, op.now())?;
                op.trace.step("write", write_time);
                (segments, seg_sizes, shadow)
            }
        };

        // close/release: update the index file.
        op.trace.step("close", mv_write);
        let now = op.now().as_nanos();
        // A canonical copy may already have left the write buffer; the
        // entry sharing it is tagged with the stage it reached.
        let loc = if placed {
            LocTag::Bucket
        } else {
            segments
                .iter()
                .rev()
                .map(|seg| self.stage_of(*seg))
                .find(|stage| *stage != LocTag::Bucket)
                .unwrap_or(LocTag::Bucket)
        };
        let entry = VersionEntry {
            stored,
            digest,
            ..VersionEntry::new(loc, data.len() as u64, now, segments.clone(), seg_sizes)
        };
        if placed {
            self.dedup.record_canonical(path, &entry);
        }
        let version = self.commit_version(path, &data, entry)?;
        for seg in &segments {
            self.image_paths
                .entry(*seg)
                .or_default()
                .insert(path.clone());
        }
        if is_update {
            self.counters.updates += 1;
        } else {
            self.counters.writes += 1;
        }
        if placed {
            if !is_update && segments.len() > 1 {
                self.counters.splits += 1;
            }
            self.try_start_burns(op.now());
        } else {
            self.counters.dedup_hits += 1;
            self.counters.dedup_bytes_saved += data.len() as u64;
        }
        Ok((version, segments))
    }

    /// The stage `image` is in now (B/I/D of §4.2).
    fn stage_of(&self, image: ImageId) -> LocTag {
        if self.wbm.locate_image(image).is_some() {
            LocTag::Bucket
        } else if self.store.get(image).and_then(|i| i.burned).is_some() {
            LocTag::Disc
        } else {
            LocTag::Image
        }
    }

    /// Closes a write on the MV: appends `entry` to `path`'s index file
    /// with the forepart of `data`. The entry the version ring evicted to
    /// make room releases its dedup reference, and its images no longer
    /// hold a version of the path unless a kept entry uses them too.
    /// Returns the version number assigned.
    fn commit_version(
        &mut self,
        path: &UdfPath,
        data: &Bytes,
        entry: VersionEntry,
    ) -> Result<u32, OlfsError> {
        let forepart = self.make_forepart(data);
        let idx = self
            .mv
            .get_mut(path)
            .ok_or_else(|| OlfsError::BadState(format!("index file of {path} vanished")))?;
        let (version, evicted) = idx.push_version(entry);
        idx.set_forepart(forepart);
        if let Some(evicted) = evicted {
            let left: Vec<ImageId> = evicted
                .segs
                .iter()
                .filter(|seg| !idx.versions().any(|e| e.segs.contains(seg)))
                .copied()
                .collect();
            self.untrack(path, &left);
            if let Some(digest) = evicted.digest {
                self.dedup.release(&digest);
            }
        }
        Ok(version)
    }

    /// Drops `path` from the reverse map of each of `images`, and the
    /// sets that become empty.
    fn untrack<'a>(&mut self, path: &UdfPath, images: impl IntoIterator<Item = &'a ImageId>) {
        for image in images {
            if let Some(paths) = self.image_paths.get_mut(image) {
                paths.remove(path);
                if paths.is_empty() {
                    self.image_paths.remove(image);
                }
            }
        }
    }

    /// Dedup accounting snapshot (§14); all-zero while no version entry
    /// carries a digest.
    pub fn dedup_stats(&self) -> crate::dedup::DedupStats {
        self.dedup.stats()
    }

    fn make_forepart(&self, data: &Bytes) -> Option<Bytes> {
        if self.cfg.forepart_bytes == 0 {
            return None;
        }
        let n = ros_sim::to_usize(self.cfg.forepart_bytes).min(data.len());
        Some(data.slice(..n))
    }

    /// Places file data into buckets at `at`, splitting and sealing as
    /// needed. Returns `(segments, per-segment sizes, device time)`.
    fn place_data(
        &mut self,
        path: &UdfPath,
        data: &Bytes,
        at: SimTime,
    ) -> Result<(Vec<ImageId>, Vec<u64>, SimDuration), OlfsError> {
        let mut segments = Vec::new();
        let mut seg_sizes: Vec<u64> = Vec::new();
        let mut offset = 0u64;
        let total = data.len() as u64;
        let mut io = SimDuration::ZERO;
        let mut guard = 0u32;
        loop {
            if !(offset < total || (total == 0 && segments.is_empty())) {
                break;
            }
            guard += 1;
            if guard > 10_000 {
                return Err(OlfsError::BadState(
                    "file placement failed to converge".into(),
                ));
            }
            let remaining = total - offset;
            match self.wbm.place(path, remaining) {
                Placement::Whole { bucket } => {
                    let chunk = data.slice(ros_sim::to_usize(offset)..);
                    io += params::bucket_write_device()
                        + self.vm.write_time(self.vol_buffer, chunk.len() as u64)?;
                    let b = self.wbm.bucket_mut(bucket).ok_or_else(|| {
                        OlfsError::BadState(format!("placement chose missing bucket {bucket}"))
                    })?;
                    let image = ImageId(b.image_id());
                    b.write(path, chunk, at.as_nanos())?;
                    if offset > 0 {
                        self.write_link_file(bucket, path, &segments, offset, total, at);
                    }
                    segments.push(image);
                    seg_sizes.push(total - offset);
                    break;
                }
                Placement::Split { bucket, prefix } => {
                    let chunk =
                        data.slice(ros_sim::to_usize(offset)..ros_sim::to_usize(offset + prefix));
                    io += params::bucket_write_device()
                        + self.vm.write_time(self.vol_buffer, prefix)?;
                    let b = self.wbm.bucket_mut(bucket).ok_or_else(|| {
                        OlfsError::BadState(format!("placement chose missing bucket {bucket}"))
                    })?;
                    let image = ImageId(b.image_id());
                    b.write(path, chunk, at.as_nanos())?;
                    if offset > 0 {
                        self.write_link_file(bucket, path, &segments, offset, total, at);
                    }
                    segments.push(image);
                    seg_sizes.push(prefix);
                    offset += prefix;
                    io += self.seal_bucket(bucket, at)?;
                }
                Placement::NoRoom => {
                    let fullest = (0..self.wbm.len())
                        .max_by_key(|&i| self.wbm.bucket(i).map(|b| b.used_bytes()).unwrap_or(0))
                        .ok_or_else(|| OlfsError::BadState("no open buckets".into()))?;
                    if self.wbm.bucket(fullest).is_none_or(|b| b.is_empty()) {
                        return Err(OlfsError::Invalid(format!(
                            "file unplaceable: {remaining} bytes left"
                        )));
                    }
                    io += self.seal_bucket(fullest, at)?;
                }
            }
        }
        Ok((segments, seg_sizes, io))
    }

    /// Writes the link file stitching subfile `offset` of `path` to the
    /// previous segment (§4.5).
    fn write_link_file(
        &mut self,
        bucket: usize,
        path: &UdfPath,
        segments: &[ImageId],
        offset: u64,
        total: u64,
        at: SimTime,
    ) {
        let Some(&prev) = segments.last() else {
            return;
        };
        let link = LinkFile {
            prev_image: prev.0,
            offset,
            total_size: total,
        };
        // Best effort (see below): root paths carry no link file.
        let (Some(parent), Some(name)) = (path.parent(), path.name()) else {
            return;
        };
        let link_path = parent.join(&link_file_name(name));
        // Best effort: if the link file doesn't fit, MV still stitches
        // the segments; only MV-less recovery loses the continuation.
        if let Some(b) = self.wbm.bucket_mut(bucket) {
            let _ = b.write(&link_path, link.to_json().into_bytes(), at.as_nanos());
        }
    }

    /// Seals bucket `i` into an image at `at`. Returns device time
    /// consumed.
    pub(crate) fn seal_bucket(&mut self, i: usize, at: SimTime) -> Result<SimDuration, OlfsError> {
        let new_id = self.store.allocate_image_id();
        let old = self.wbm.rotate(i, new_id);
        if old.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let sealed = old.close()?;
        let image = ImageId(sealed.image_id());
        let bytes = sealed.len();
        self.vm.allocate(self.vol_buffer, bytes)?;
        let plane = self.data_plane();
        let completed = self
            .store
            .register_sealed(sealed, self.cfg.data_discs_per_array(), &plane);
        self.cache.insert(image);
        self.cache.pin(image);
        self.promote_paths(image, LocTag::Image);
        self.counters.buckets_sealed += 1;
        if let Some(gid) = completed {
            self.schedule_parity(gid, at);
        }
        Ok(SimDuration::from_micros(500))
    }

    fn promote_paths(&mut self, image: ImageId, loc: LocTag) {
        for p in self.image_paths.get(&image).into_iter().flatten() {
            if let Some(idx) = self.mv.get_mut(p) {
                idx.promote_image(image, loc);
            }
        }
    }

    /// Schedules delayed parity generation (§4.7) for a group completed
    /// at `at`. The member images stream off the buffer volume while the
    /// parity streams onto its own, so the two overlap.
    pub(crate) fn schedule_parity(&mut self, gid: ArrayId, at: SimTime) {
        let Some(group) = self.store.group(gid) else {
            return;
        };
        let sizes = || {
            group
                .data
                .iter()
                .filter_map(|id| self.store.get(*id))
                .map(|i| i.size)
        };
        let parity_bytes = sizes().max().unwrap_or(0) * self.cfg.redundancy.parity_discs() as u64;
        let read = self
            .vm
            .read_time(self.vol_buffer, sizes().sum())
            .unwrap_or(SimDuration::ZERO);
        let write = self
            .vm
            .write_time(self.vol_aux, parity_bytes)
            .unwrap_or(SimDuration::ZERO);
        self.queue
            .schedule_at(at + read.max(write), Event::ParityDone { group: gid });
    }

    // ------------------------------------------------------------------
    // Background events
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::ParityDone { group } => self.finish_parity(group),
            Event::BurnDone { group, bay } => self.finish_burn(group, bay),
            Event::ScrubTick => self.scheduled_scrub(),
            Event::PrefetchDone { bay, images } => self.finish_prefetch(bay, images),
        }
    }

    /// Completes a background array prefetch: every sibling image still
    /// sitting in the bay's drives whose bytes match the DIM's digest
    /// gets its payload restored to the disk tier and becomes a cache
    /// resident. The siblings are verified as one batch before any
    /// buffer space is allocated, so a rotted one is skipped uncharged.
    fn finish_prefetch(&mut self, bay: usize, images: Vec<ImageId>) {
        let mut read = Vec::new();
        for image in images {
            let Some(info) = self.store.get(image).filter(|i| !i.on_disk()) else {
                continue;
            };
            let digest = info.digest;
            let Some(loc) = self.store.location_of(image) else {
                continue;
            };
            // The array may have been unloaded since; skip silently.
            if self.mech.bay_contents(bay).ok().flatten() != Some(loc.slot) {
                continue;
            }
            let pos = loc.position as usize;
            let Some(drive) = self.bays[bay].drive_mut(pos) else {
                continue;
            };
            let Ok(timed) = drive.read_image(image.0) else {
                continue;
            };
            if let Payload::Inline(bytes) = timed.payload {
                read.push((image, (digest, bytes)));
            }
        }
        let (images, pairs): (Vec<ImageId>, Vec<_>) = read.into_iter().unzip();
        for (image, proof) in images
            .into_iter()
            .zip(verify_payloads(pairs, &self.data_plane()))
        {
            let Ok(proof) = proof else {
                continue;
            };
            if self
                .vm
                .allocate(self.vol_buffer, proof.bytes().len() as u64)
                .is_ok()
                && self.store.restore_disk_copy(image, proof).is_ok()
            {
                self.cache.insert(image);
                self.apply_cache_pressure();
            }
        }
    }

    /// Audits the whole library if it is idle, then reschedules: §4.7's
    /// periodic scan of "all the burned disc arrays", which finds sector
    /// errors and latent rot alike and repairs what it finds (§16).
    /// Busy ticks (burns queued or in flight) skip the pass — §4.7
    /// schedules the checking "at idle times".
    fn scheduled_scrub(&mut self) {
        let Some(interval) = self.cfg.scrub_interval else {
            return;
        };
        let (burning, queued, ..) = self.pending_work();
        if burning + queued == 0 {
            self.last_audit = Some(self.audit_sample(usize::MAX));
        }
        self.queue.schedule_in(interval, Event::ScrubTick);
    }

    fn finish_parity(&mut self, gid: ArrayId) {
        let group = match self.store.group(gid) {
            Some(g) if g.state == GroupState::ParityPending => g.clone(),
            _ => return,
        };
        if self.cfg.redundancy != Redundancy::None {
            let payloads: Vec<Bytes> = group
                .data
                .iter()
                .filter_map(|id| self.store.get(*id))
                .filter_map(|i| i.payload.clone())
                .collect();
            if payloads.len() != group.data.len() {
                return; // A member vanished; leave for maintenance.
            }
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_ref()).collect();
            match redundancy::generate_with(self.cfg.redundancy, &refs, &self.data_plane()) {
                Ok(set) => {
                    let mut parity = Vec::new();
                    if let Some(p) = set.p {
                        parity.push(p);
                    }
                    if let Some(q) = set.q {
                        parity.push(q);
                    }
                    let bytes: u64 = parity.iter().map(|p| p.len() as u64).sum();
                    let _ = self.vm.allocate(self.vol_buffer, bytes);
                    let plane = self.data_plane();
                    if self.store.register_parity(gid, parity, &plane).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        } else {
            let plane = self.data_plane();
            if self.store.register_parity(gid, Vec::new(), &plane).is_err() {
                return;
            }
        }
        self.counters.parity_runs += 1;
        self.try_start_burns(self.now());
    }

    /// Starts burns at `at`, backlog head first, while a target tray and
    /// a bay are available. A start that fails leaves its group at the
    /// head of the backlog.
    pub(crate) fn try_start_burns(&mut self, at: SimTime) {
        while let Some(head) = self.store.backlog_head() {
            let (gid, append) = (head.id, head.append);
            let slot = if append {
                head.slot
            } else {
                self.store.first_empty_slot(&self.cfg.layout)
            };
            let Some(slot) = slot else {
                return; // Out of empty trays.
            };
            let Some((bay, freed)) = self.take_bay(at) else {
                return; // All bays busy.
            };
            if let Err(e) = self.start_burn(gid, bay, slot, append, at + freed) {
                // A transient mechanical misfeed happens before the tray
                // is touched and leaves it for the next attempt; anything
                // else ruins the write-once tray, and repeated ruin in
                // the same bay means the hardware (not the media) is at
                // fault.
                if !matches!(e, OlfsError::Transient(_)) {
                    let idx = self.cfg.layout.slot_index(slot);
                    self.store.set_da_state(idx, DaState::Failed);
                    let failures = self.bay_burn_failures.entry(bay).or_insert(0);
                    *failures += 1;
                    if *failures >= 2 {
                        self.quarantine_bay(bay);
                    }
                }
                return;
            }
        }
    }

    /// Takes a bay to load into at `at`: a free one, else an idle one
    /// whose resident array is first sent home. Burning and quarantined
    /// bays are never taken. Returns the bay and how long after `at` it
    /// is empty.
    pub(crate) fn take_bay(&mut self, at: SimTime) -> Option<(usize, SimDuration)> {
        let burning: Vec<usize> = self.store.burns().map(|(_, bay, _)| bay).collect();
        let idle = |ros: &Self, bay: usize| {
            !burning.contains(&bay) && !ros.quarantined_bays.contains(&bay)
        };
        let bays = self.bays.len();
        let empty = |ros: &Self, bay: usize| matches!(ros.mech.bay_contents(bay), Ok(None));
        if let Some(bay) = (0..bays).find(|&bay| idle(self, bay) && empty(self, bay)) {
            return Some((bay, SimDuration::ZERO));
        }
        (0..bays).find_map(|bay| {
            if !idle(self, bay) {
                return None;
            }
            Some((bay, self.unload_bay(bay, at).ok()?))
        })
    }

    /// Unloads a bay's disc array back to its tray, the arm wanted at
    /// `at`. Returns how long after `at` the move is done.
    pub(crate) fn unload_bay(&mut self, bay: usize, at: SimTime) -> Result<SimDuration, OlfsError> {
        for i in 0..self.cfg.drives_per_bay {
            let Some(drive) = self.bays[bay].drive_mut(i) else {
                return Err(OlfsError::BadState(format!("no drive {i} in bay {bay}")));
            };
            if drive.disc().is_some() {
                let (disc, _) = drive.eject()?;
                self.registry.put_back(disc)?;
            }
            self.vfs_mounted.insert((bay, i), false);
        }
        let op = self.mech.unload_array(bay)?;
        Ok(self.arm_move(at, op.duration))
    }

    /// Loads a tray's disc array into a bay's drives, the arm wanted at
    /// `at`. Returns how long after `at` the move is done.
    pub(crate) fn load_bay(
        &mut self,
        slot: SlotAddress,
        bay: usize,
        at: SimTime,
    ) -> Result<SimDuration, OlfsError> {
        let op = self.mech.load_array(slot, bay)?;
        let idx = self.cfg.layout.slot_index(slot);
        let tray: Vec<DiscId> = self
            .registry
            .tray(idx)
            .ok_or_else(|| OlfsError::BadState(format!("no tray {idx}")))?
            .to_vec();
        for (i, disc_id) in tray.iter().enumerate() {
            let disc = self.registry.take(*disc_id)?;
            let Some(drive) = self.bays[bay].drive_mut(i) else {
                self.registry.put_back(disc)?;
                return Err(OlfsError::BadState(format!("no drive {i} in bay {bay}")));
            };
            drive.insert(disc)?;
            // Drives spin up while the arm finishes its cycle; the
            // residual is charged as post_load_spin_up by the fetch path.
            let _ = drive.mount();
            self.vfs_mounted.insert((bay, i), false);
        }
        Ok(self.arm_move(at, op.duration))
    }

    /// The drives a group's burn uses: `(drive, image, bytes)` for each
    /// member with bytes to burn, data then parity, in tray order.
    fn burn_members(&self, gid: ArrayId) -> Vec<(usize, ImageId, u64)> {
        let Some(group) = self.store.group(gid) else {
            return Vec::new();
        };
        group
            .data
            .iter()
            .chain(&group.parity)
            .take(self.cfg.drives_per_bay)
            .enumerate()
            .filter_map(|(i, img)| {
                let size = self.store.get(*img).map_or(0, |x| x.size);
                (size > 0).then_some((i, *img, size))
            })
            .collect()
    }

    /// Stops the drives in `bay` that burn `members`, leaving their
    /// discs open (§4.8); a drive that is not burning stays as it is.
    /// The one way a burn's drives are stopped short of completion.
    fn stop_drives(&mut self, bay: usize, members: &[(usize, ImageId, u64)]) {
        for &(i, image, _) in members {
            if let Some(drive) = self.bays[bay].drive_mut(i) {
                let _ = drive.interrupt_burn(image.0, 0);
            }
        }
    }

    /// Loads `slot` into `bay` at `at` and starts burning group `gid`
    /// onto it; the completion is scheduled for when the arm and then
    /// the drives are done. The group becomes `Burning` only once every
    /// drive has begun.
    fn start_burn(
        &mut self,
        gid: ArrayId,
        bay: usize,
        slot: SlotAddress,
        append: bool,
        at: SimTime,
    ) -> Result<(), OlfsError> {
        let loaded = at + self.load_bay(slot, bay, at)?;
        let idx = self.cfg.layout.slot_index(slot);
        self.store.set_da_state(idx, DaState::Used);
        let members = self.burn_members(gid);
        let mut sizes = vec![0u64; self.cfg.drives_per_bay];
        for (k, &(i, _, size)) in members.iter().enumerate() {
            let begun = self.bays[bay]
                .drive_mut(i)
                .ok_or_else(|| OlfsError::BadState(format!("no drive {i} in bay {bay}")))?
                .begin_burn();
            if let Err(e) = begun {
                // Release the drives already burning so the array stays
                // evacuable.
                self.stop_drives(bay, &members[..k]);
                return Err(e.into());
            }
            sizes[i] = size;
        }
        // Appending re-burn pays the metadata-zone formatting (§2.1:
        // "takes tens of seconds to format").
        let start = if append && !members.is_empty() {
            loaded + ros_drive::params::track_format_time()
        } else {
            loaded
        };
        let report = self.bays[bay].simulate_array_burn(&sizes, self.cfg.disc_class, start);
        let until = start + report.total;
        let g = self
            .store
            .group_mut(gid)
            .ok_or(OlfsError::BadState(format!("no group {gid}")))?;
        g.state = GroupState::Burning;
        g.slot = Some(slot);
        g.burn = Some((bay, until));
        self.queue
            .schedule_at(until, Event::BurnDone { group: gid, bay });
        Ok(())
    }

    fn finish_burn(&mut self, gid: ArrayId, bay: usize) {
        // A completion is current only while its group burns in that bay
        // and ends now: an interrupted burn's completion stays queued,
        // and can fall due while the group re-burns in the same bay.
        let current = self
            .store
            .group(gid)
            .filter(|g| g.state == GroupState::Burning && g.burn == Some((bay, self.now())));
        let Some((Some(slot), append)) = current.map(|g| (g.slot, g.append)) else {
            return;
        };
        let slot_index = self.cfg.layout.slot_index(slot);
        let tray: Vec<DiscId> = self
            .registry
            .tray(slot_index)
            .map(<[DiscId]>::to_vec)
            .unwrap_or_default();
        let members = self.burn_members(gid);
        // First pass: complete every member's burn, collecting failures
        // instead of silently marking a partial array as done.
        let mut spoiled = false;
        for &(i, img, _) in &members {
            let payload = self
                .store
                .get(img)
                .and_then(|x| x.payload.clone())
                .map(Payload::inline)
                .unwrap_or_else(|| Payload::synthetic(0));
            let done = self.bays[bay].drive_mut(i).is_some_and(|drive| {
                if append {
                    drive.finish_burn_track(img.0, payload).is_ok()
                } else {
                    drive.finish_burn(img.0, payload).is_ok()
                }
            });
            spoiled |= !done;
        }
        if spoiled {
            // A media-level failure leaves its drive burning; release it
            // so the array can be evacuated.
            self.stop_drives(bay, &members);
            self.reburn_group_on_spare(gid, bay);
            return;
        }
        // Second pass (all members verified): record the burn locations.
        for &(i, img, _) in &members {
            let disc = tray.get(i).copied().unwrap_or(DiscId(u64::MAX));
            let _ = self.store.mark_burned(
                img,
                DiscLocation {
                    disc,
                    slot,
                    // Group member index; bounded by the tray size.
                    position: u32::try_from(i).unwrap_or(u32::MAX),
                },
            );
            self.cache.unpin(img);
            self.promote_paths(img, LocTag::Disc);
        }
        if let Some(g) = self.store.group_mut(gid) {
            g.state = GroupState::Burned;
        }
        self.bay_burn_failures.remove(&bay);
        self.counters.burns += 1;
        self.apply_cache_pressure();
        self.try_start_burns(self.now());
    }

    /// A burn came back with spoiled members: the write-once tray is
    /// ruined. Retire it, evacuate the bay, and re-run the group's
    /// parity-and-burn pipeline onto a spare tray
    /// ([`Ros::rewrite_array`]). Two consecutive spoiled burns in the
    /// same bay quarantine it (the fault is the hardware, not the media).
    fn reburn_group_on_spare(&mut self, gid: ArrayId, bay: usize) {
        // A rewrite starts from the Burned state; the group is
        // mid-Burning here, so settle it first.
        if let Some(g) = self.store.group_mut(gid) {
            g.state = GroupState::Burned;
        }
        let _ = self.rewrite_array(gid);
        self.counters.reburns += 1;
        let failures = self.bay_burn_failures.entry(bay).or_insert(0);
        *failures += 1;
        if *failures >= 2 {
            self.quarantine_bay(bay);
        }
    }

    /// Takes `bay` out of rotation: the burn starter and fetch paths
    /// route around it until [`Ros::service_quarantined_bays`] runs.
    pub fn quarantine_bay(&mut self, bay: usize) {
        if bay < self.bays.len() {
            self.quarantined_bays.insert(bay);
        }
    }

    /// Bays currently out of rotation, sorted.
    pub fn quarantined_bays(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.quarantined_bays.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Services every quarantined bay: evacuates any held array, swaps
    /// dead or fault-armed drives for fresh units, and returns the bay to
    /// rotation. Returns the number of bays serviced.
    pub fn service_quarantined_bays(&mut self) -> usize {
        // Sorted order: bay-service side effects (ejects, burn restarts)
        // must replay identically run-to-run.
        let bays = self.quarantined_bays();
        let mut serviced = 0;
        for bay in bays {
            // Swap the drives first: a wedged (mid-burn) unit would block
            // the eject the evacuation below needs.
            for i in 0..self.cfg.drives_per_bay {
                if let Some(d) = self.bays[bay].drive_mut(i) {
                    d.service();
                }
            }
            if self.mech.bay_contents(bay).ok().flatten().is_some()
                && self.unload_bay(bay, self.now()).is_err()
            {
                continue; // Still wedged; try again next service window.
            }
            self.bay_burn_failures.remove(&bay);
            self.quarantined_bays.remove(&bay);
            serviced += 1;
        }
        if serviced > 0 {
            self.try_start_burns(self.now());
        }
        serviced
    }

    /// Evicts cache overflow: drops disk copies of burned images.
    fn apply_cache_pressure(&mut self) {
        let over = self.cache.len().saturating_sub(self.cache.capacity());
        if over == 0 {
            return;
        }
        let victims: Vec<ImageId> = self
            .cache
            .lru_order()
            .filter(|id| {
                self.store
                    .get(*id)
                    .map(|i| i.burned.is_some() && i.on_disk())
                    .unwrap_or(false)
            })
            .take(over)
            .collect();
        for v in victims {
            if let Ok(freed) = self.store.evict_disk_copy(v) {
                let _ = self.vm.release(self.vol_buffer, freed);
                self.cache.remove(v);
            }
        }
    }

    // ------------------------------------------------------------------
    // Read path (§4.1, §4.8, Table 1)
    // ------------------------------------------------------------------

    /// Reads the newest version of a file.
    pub fn read_file(&mut self, path: &UdfPath) -> Result<ReadReport, OlfsError> {
        self.read(path, None, None)
    }

    /// Reads a specific retained version (data provenance, §4.6).
    pub fn read_version(&mut self, path: &UdfPath, ver: u32) -> Result<ReadReport, OlfsError> {
        self.read(path, Some(ver), None)
    }

    /// Reads a byte range of a file's newest version (the `pread`
    /// behind the POSIX layer). Segments entirely outside the range are
    /// skipped — including their mechanical fetches.
    pub fn read_range(
        &mut self,
        path: &UdfPath,
        offset: u64,
        len: u64,
    ) -> Result<ReadReport, OlfsError> {
        self.read(path, None, Some((offset, len)))
    }

    /// The one read: version `ver` of `path` (the newest when `None`),
    /// whole or the `(offset, len)` byte `span` of it.
    fn read(
        &mut self,
        path: &UdfPath,
        ver: Option<u32>,
        span: Option<(u64, u64)>,
    ) -> Result<ReadReport, OlfsError> {
        let ((data, version, source, forepart_answered), trace) =
            self.foreground(|ros, op| ros.read_steps(path, ver, span, op))?;
        let latency = trace.total();
        Ok(ReadReport {
            data,
            version,
            latency,
            first_byte_latency: if forepart_answered {
                params::forepart_first_byte()
            } else {
                latency
            },
            source,
            trace,
        })
    }

    /// The internal operations of a read (Figure 7). Returns the bytes,
    /// the version served, where from, and whether the forepart answered
    /// the first byte while a fetch was under way (§4.8).
    fn read_steps(
        &mut self,
        path: &UdfPath,
        ver: Option<u32>,
        span: Option<(u64, u64)>,
        op: &mut Op,
    ) -> Result<(Bytes, u32, ReadSource, bool), OlfsError> {
        let mv_read = self.vm.random_read_time(self.vol_mv, 1024)?;
        op.trace.step("stat", mv_read);

        let idx = self
            .mv
            .get(path)
            .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
        // An entry whose bytes a later in-place bucket update replaced
        // (§4.6) is as gone as one the ring dropped.
        let entry = match ver {
            Some(v) => {
                idx.version(v)
                    .filter(|e| !e.replaced)
                    .ok_or_else(|| OlfsError::VersionGone {
                        path: path.to_string(),
                        version: v,
                    })
            }
            None => idx
                .latest()
                .ok_or_else(|| OlfsError::NotFound(path.to_string())),
        }?
        .clone();
        // The forepart (§4.8) answers the first byte of the newest
        // version when the read starts inside it.
        let forepart_hit = ver.is_none()
            && idx
                .forepart()
                .is_some_and(|f| span.is_none_or(|(offset, _)| offset < f.len() as u64));
        let stored = entry.stored_path(path);
        let (start, end) = match span {
            Some((offset, len)) => (
                offset.min(entry.size),
                offset.saturating_add(len).min(entry.size),
            ),
            None => (0, entry.size),
        };

        let mut pieces: Vec<Bytes> = Vec::with_capacity(entry.segs.len());
        let mut io = SimDuration::ZERO;
        let mut source = ReadSource::DiskBucket;
        let mut fetch_extra = SimDuration::ZERO;
        let mut cursor = 0u64; // Byte position at the current segment start.
        for (seg, seg_len) in entry.segs.iter().zip(&entry.seg_sizes) {
            let seg_end = cursor.saturating_add(*seg_len);
            // A whole-file read visits every segment, an empty file's
            // one empty segment included; a span only those it overlaps.
            if span.is_none() || (seg_end > start && cursor < end) {
                let (bytes, seg_io, seg_source, seg_fetch) =
                    self.read_segment(*seg, stored, entry.size, op.now() + fetch_extra)?;
                io += seg_io;
                fetch_extra += seg_fetch;
                source = worst_source(source, seg_source);
                let lo = start.saturating_sub(cursor).min(bytes.len() as u64);
                let hi = end.saturating_sub(cursor).min(bytes.len() as u64);
                // Sub-slicing a refcounted buffer, not copying.
                pieces.push(bytes.slice(ros_sim::to_usize(lo)..ros_sim::to_usize(hi)));
            }
            cursor = seg_end;
            if cursor >= end {
                break;
            }
        }
        let data = Self::join_segments(&mut self.counters, pieces);
        if fetch_extra > SimDuration::ZERO {
            op.trace.extra("fetch", fetch_extra);
        }
        op.trace.step("read", io);
        op.trace.step("close", SimDuration::ZERO);
        self.counters.reads += 1;
        let forepart_answered = fetch_extra > SimDuration::ZERO && forepart_hit;
        Ok((data, entry.ver, source, forepart_answered))
    }

    /// Joins segment slices into a reply payload. A single slice — the
    /// common unsplit-file case — is handed back zero-copy (a refcount
    /// bump over the owning buffer); joining `n > 1` slices is the only
    /// memcpy on the read path, and its volume is counted in
    /// [`Counters::read_copy_bytes`].
    fn join_segments(counters: &mut Counters, mut pieces: Vec<Bytes>) -> Bytes {
        if pieces.len() == 1 {
            return pieces.remove(0);
        }
        let total: usize = pieces.iter().map(Bytes::len).sum();
        let mut buf = Vec::with_capacity(total);
        for b in &pieces {
            buf.extend_from_slice(b);
        }
        counters.read_copy_bytes += buf.len() as u64;
        Bytes::from(buf)
    }

    /// Reads the file stored under `stored` in one segment image,
    /// fetching the image from disc at `at` if needed. Returns
    /// `(bytes, device_io, source, mechanical_extra)`.
    fn read_segment(
        &mut self,
        image: ImageId,
        stored: &UdfPath,
        size_hint: u64,
        at: SimTime,
    ) -> Result<(Bytes, SimDuration, ReadSource, SimDuration), OlfsError> {
        // 1. Still in an open bucket?
        if let Some(bi) = self.wbm.locate_image(image) {
            let bytes = self
                .wbm
                .bucket(bi)
                .and_then(|b| b.read(stored).ok())
                .ok_or(OlfsError::ImageLost(image))?;
            let io = params::bucket_read_device()
                + self.vm.read_time(self.vol_buffer, bytes.len() as u64)?;
            return Ok((bytes, io, ReadSource::DiskBucket, SimDuration::ZERO));
        }
        // 2. A sealed image: resident on the buffer / read cache, or on
        //    disc and fetched (a read-cache miss by definition).
        let resident = self
            .store
            .get(image)
            .ok_or(OlfsError::ImageLost(image))?
            .sealed
            .is_some();
        let (source, fetch_time) = if resident {
            (ReadSource::DiskImage, SimDuration::ZERO)
        } else {
            self.cache.touch(image);
            let (fetch_time, source) = self.fetch_image(image, size_hint, at)?;
            self.counters.fetches += 1;
            (source, fetch_time)
        };
        let bytes = self
            .store
            .get(image)
            .and_then(|i| i.sealed.as_ref())
            .and_then(|sealed| sealed.read(stored).ok())
            .ok_or(OlfsError::ImageLost(image))?;
        let io =
            params::image_read_device() + self.vm.read_time(self.vol_buffer, bytes.len() as u64)?;
        if resident {
            self.cache.touch(image);
        } else {
            self.cache.insert(image);
        }
        Ok((bytes, io, source, fetch_time))
    }

    /// Brings a burned image's bytes back to the disk tier, performing
    /// whatever mechanical work is required, starting at `at`. Returns
    /// how long after `at` the requested file is on the buffer — arm and
    /// bay waits included — and where it came from; the caller charges
    /// it.
    ///
    /// The foreground read transfers only the requested file
    /// (`file_bytes`) off the mounted disc (§5.4); the rest of the image
    /// streams into the read cache in the background, overlapped with
    /// the remaining mechanical/settling window.
    pub(crate) fn fetch_image(
        &mut self,
        image: ImageId,
        file_bytes: u64,
        at: SimTime,
    ) -> Result<(SimDuration, ReadSource), OlfsError> {
        let loc = self
            .store
            .location_of(image)
            .ok_or(OlfsError::ImageLost(image))?;
        let burning: Vec<usize> = self.store.burns().map(|(_, bay, _)| bay).collect();
        let holder = |ros: &Self, quarantined: bool| {
            (0..ros.bays.len()).find(|b| {
                !burning.contains(b)
                    && ros.quarantined_bays.contains(b) == quarantined
                    && ros.mech.bay_contents(*b).ok().flatten() == Some(loc.slot)
            })
        };
        let mut extra = SimDuration::ZERO;
        // A quarantined bay may hold the needed array hostage: evacuate
        // it (ejects work even on dead drives) so the array can be loaded
        // into a healthy bay below.
        if let Some(hostage) = holder(self, true) {
            extra += self.unload_bay(hostage, at)?;
        }
        let (bay, source) = match holder(self, false) {
            Some(bay) => (bay, ReadSource::DiscInDrive),
            None => {
                let (bay, source) = self.acquire_bay_for_fetch(at, &mut extra)?;
                extra += self.load_bay(loc.slot, bay, at + extra)?;
                extra += params::post_load_spin_up();
                (bay, source)
            }
        };
        self.read_disc_payload(image, bay, loc, file_bytes, at, &mut extra)?;
        if self.cfg.prefetch_array {
            self.schedule_array_prefetch(bay, loc.slot, image, at + extra);
        }
        Ok((extra, source))
    }

    /// Schedules a background prefetch of every other image burned on
    /// the array now sitting in `bay` (§4.1's spatial-locality
    /// refinement). The transfer starts at `at`, off the critical path,
    /// while the discs remain loaded.
    fn schedule_array_prefetch(
        &mut self,
        bay: usize,
        slot: SlotAddress,
        just_read: ImageId,
        at: SimTime,
    ) {
        let Some(gid) = self.store.get(just_read).and_then(|i| i.array) else {
            return;
        };
        let Some(group) = self.store.group(gid) else {
            return;
        };
        if group.slot != Some(slot) {
            return;
        }
        let siblings: Vec<ImageId> = group
            .data
            .iter()
            .copied()
            .filter(|&img| {
                img != just_read
                    && self
                        .store
                        .get(img)
                        .map(|i| i.burned.is_some() && !i.on_disk())
                        .unwrap_or(false)
            })
            .collect();
        if siblings.is_empty() {
            return;
        }
        // All sibling drives stream in parallel: the prefetch lands
        // after the slowest full-image read.
        let speed = self.bays[bay].aggregate_read_speed(self.cfg.disc_class)
            / self.cfg.drives_per_bay as f64;
        let slowest = siblings
            .iter()
            .filter_map(|img| self.store.get(*img).map(|i| i.size))
            .max()
            .unwrap_or(0);
        let dur = speed.time_for(slowest) + ros_drive::params::seek_time();
        self.queue.schedule_at(
            at + dur,
            Event::PrefetchDone {
                bay,
                images: siblings,
            },
        );
    }

    fn read_disc_payload(
        &mut self,
        image: ImageId,
        bay: usize,
        loc: DiscLocation,
        file_bytes: u64,
        at: SimTime,
        extra: &mut SimDuration,
    ) -> Result<(), OlfsError> {
        let pos = loc.position as usize;
        let now = at + *extra;
        // Idle drives spin down; the next access pays the ≈2 s mount
        // delay (§5.4: "occurs only when the drive is in the sleep
        // state").
        let idle_since = self.drive_last_used.get(&(bay, pos)).copied();
        if let Some(t) = idle_since {
            if now.duration_since(t) > ros_drive::params::sleep_after_idle() {
                if let Some(d) = self.bays[bay].drive_mut(pos) {
                    d.sleep();
                }
            }
        }
        self.drive_last_used.insert((bay, pos), now);
        let mounted = *self.vfs_mounted.get(&(bay, pos)).unwrap_or(&false);
        if !mounted {
            // The 220 ms VFS mount (§5.4) subsumes the first file seek,
            // which the drive charges separately below.
            *extra += params::vfs_mount() - ros_drive::params::seek_time();
            self.vfs_mounted.insert((bay, pos), true);
        }
        let read = self.bays[bay]
            .drive_mut(pos)
            .ok_or_else(|| OlfsError::BadState(format!("no drive {pos} in bay {bay}")))?
            .read_image(image.0);
        let speed = self.bays[bay]
            .drive(pos)
            .and_then(|d| d.read_speed().ok())
            .unwrap_or_else(ros_drive::params::read_speed_bd25);
        match read {
            Ok(timed) => {
                // Foreground: mount + seek + the requested file's bytes.
                // The remainder of the image streams into the cache in
                // the background (§4.1: the cache unit is a whole image).
                let file_transfer = speed.time_for(file_bytes.min(timed.payload.len()));
                let full_transfer = speed.time_for(timed.payload.len());
                let overhead = timed.duration.saturating_sub(full_transfer);
                *extra += overhead + file_transfer;
                let Payload::Inline(payload) = timed.payload else {
                    return Err(OlfsError::BadState(format!(
                        "image {image} has no inline payload"
                    )));
                };
                // End-to-end digest check *before* the restore: latent
                // rot flips bytes without any sector error, so the drive
                // read succeeds and only the CAS digest can tell. A
                // mismatch is repaired from array redundancy in-line —
                // the client never observes corrupt bytes. This is the
                // one digest a fetched image costs: the restore takes
                // the proof.
                let digest = self
                    .store
                    .get(image)
                    .map(|i| i.digest)
                    .ok_or(OlfsError::ImageLost(image))?;
                let Ok(proof) = ros_cas::verify_payload(&digest, payload, &self.data_plane())
                else {
                    *extra += self.repair_fetched(image, speed)?;
                    self.counters.latent_repairs += 1;
                    return Ok(());
                };
                self.vm
                    .allocate(self.vol_buffer, proof.bytes().len() as u64)?;
                self.store.restore_disk_copy(image, proof)?;
                Ok(())
            }
            Err(ros_drive::DriveError::Media(ros_drive::media::MediaError::SectorErrors {
                ..
            })) => {
                *extra += self.repair_fetched(image, speed)?;
                self.counters.repairs += 1;
                Ok(())
            }
            Err(e @ ros_drive::DriveError::TransientRead) => {
                // A servo recalibration: the retry loop re-reads in place.
                Err(OlfsError::Transient(e.to_string()))
            }
            Err(ros_drive::DriveError::Failed) => {
                // The drive is gone for good: route around the bay. A
                // retry re-fetches through a healthy bay (the quarantined
                // one is evacuated by `fetch_image` first).
                self.quarantine_bay(bay);
                Err(OlfsError::Transient(format!(
                    "drive {pos} in bay {bay} failed; bay quarantined"
                )))
            }
            Err(e) => Err(OlfsError::Drive(e.to_string())),
        }
    }

    /// The repair ladder's first rung on the read path: rebuilds the
    /// fetched image's array ([`Ros::rebuild`]) and restores the
    /// requested image only — rewriting the array onto fresh media is the
    /// background audit's job (§16): a read pays for the bytes it asked
    /// for, not for a re-burn. The loaded drives read in parallel, so
    /// the charge is the slowest member read from media at single-drive
    /// `speed`, plus the buffer write.
    fn repair_fetched(
        &mut self,
        image: ImageId,
        speed: Bandwidth,
    ) -> Result<SimDuration, OlfsError> {
        let gid = self
            .store
            .get(image)
            .ok_or(OlfsError::ImageLost(image))?
            .array
            .ok_or(OlfsError::Unrecoverable { image, array: None })?;
        let rebuilt = self.rebuild(gid)?;
        let member = rebuilt.data.into_iter().find(|m| m.image == image).ok_or(
            OlfsError::Unrecoverable {
                image,
                array: Some(gid),
            },
        )?;
        let slowest = rebuilt.media_reads.iter().copied().max().unwrap_or(0);
        Ok(speed.time_for(slowest) + self.restore(image, member.proof)?)
    }

    /// Takes a bay for a fetch that began at `at` and has spent `extra`,
    /// per the busy-read policy; what freeing the bay costs is added to
    /// `extra`. Returns the bay and the read's classification.
    fn acquire_bay_for_fetch(
        &mut self,
        at: SimTime,
        extra: &mut SimDuration,
    ) -> Result<(usize, ReadSource), OlfsError> {
        let mut source = ReadSource::RollerFreeDrives;
        for _round in 0..64 {
            if let Some((bay, freed)) = self.take_bay(at + *extra) {
                if !freed.is_zero() {
                    source = worst_source(source, ReadSource::RollerUnloadFirst);
                }
                *extra += freed;
                return Ok((bay, source));
            }
            // Everything is burning (§4.8).
            source = ReadSource::RollerDrivesBusy;
            match self.cfg.busy_read_policy {
                BusyReadPolicy::Wait => {
                    // Waiting is the policy: the clock runs to the next
                    // burn's end, whose completion frees its bay.
                    let next = self
                        .store
                        .burns()
                        .map(|(_, _, until)| until)
                        .min()
                        .ok_or(OlfsError::NoDriveAvailable)?;
                    self.run_until(next);
                    *extra = (*extra).max(next.duration_since(at));
                }
                BusyReadPolicy::InterruptBurn => {
                    let bay = self
                        .store
                        .burns()
                        .map(|(_, bay, _)| bay)
                        .min()
                        .ok_or(OlfsError::NoDriveAvailable)?;
                    *extra += self.interrupt_burn(bay)?;
                }
            }
        }
        Err(OlfsError::NoDriveAvailable)
    }

    /// Interrupts the burn in `bay`, returning its group to the backlog
    /// for an appending re-burn (§4.8's aggressive policy). Returns the
    /// time the drives take to stop.
    fn interrupt_burn(&mut self, bay: usize) -> Result<SimDuration, OlfsError> {
        let (gid, ..) = self
            .store
            .burns()
            .find(|&(_, b, _)| b == bay)
            .ok_or(OlfsError::BadState(format!("bay {bay} not burning")))?;
        let members = self.burn_members(gid);
        self.stop_drives(bay, &members);
        // The slot stays reserved for the group's appending re-burn, and
        // its backlog number puts it first again.
        if let Some(g) = self.store.group_mut(gid) {
            g.state = GroupState::ReadyToBurn;
            g.append = true;
        }
        self.counters.burn_interrupts += 1;
        Ok(SimDuration::from_millis(500))
    }

    // ------------------------------------------------------------------
    // Namespace queries
    // ------------------------------------------------------------------

    /// A namespace op: one MV metadata access of `mv_bytes`, then `body`.
    fn namespace_op<T>(
        &mut self,
        name: &str,
        mv_bytes: u64,
        body: impl FnOnce(&mut Self) -> Result<T, OlfsError>,
    ) -> Result<T, OlfsError> {
        let (out, _) = self.foreground(|ros, op| {
            let mv_io = ros.vm.random_read_time(ros.vol_mv, mv_bytes)?;
            op.trace.step(name, mv_io);
            body(ros)
        })?;
        Ok(out)
    }

    /// Stats a file: `(size, version, mtime_nanos)`.
    pub fn stat(&mut self, path: &UdfPath) -> Result<(u64, u32, u64), OlfsError> {
        self.namespace_op("stat", 1024, |ros| {
            let e = ros
                .mv
                .get(path)
                .and_then(|idx| idx.latest())
                .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
            Ok((e.size, e.ver, e.mtime))
        })
    }

    /// Lists a directory's children: `(name, is_dir)`.
    pub fn readdir(&mut self, path: &UdfPath) -> Result<Vec<(String, bool)>, OlfsError> {
        self.namespace_op("readdir", 4096, |ros| ros.mv.list(path))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &UdfPath) -> Result<(), OlfsError> {
        self.namespace_op("mkdir", 1024, |ros| ros.mv.mkdir_p(path))
    }

    /// Removes a file from the global view (the disc data remains; §4.6's
    /// provenance survives in old MV snapshots).
    pub fn unlink(&mut self, path: &UdfPath) -> Result<(), OlfsError> {
        self.namespace_op("unlink", 1024, |ros| {
            let idx = ros.mv.unlink(path)?;
            // The entries die with their index file, and give back the
            // dedup references they held (§14); dead blobs leave the
            // catalog so their digests can be re-ingested.
            for digest in idx.versions().filter_map(|e| e.digest) {
                ros.dedup.release(&digest);
            }
            // Their images no longer hold a version of the path.
            ros.untrack(path, idx.versions().flat_map(|e| &e.segs));
            Ok(())
        })
    }

    /// Lists the retained versions of a file: `(version, size, mtime)`.
    pub fn versions(&mut self, path: &UdfPath) -> Result<Vec<(u32, u64, u64)>, OlfsError> {
        self.namespace_op("versions", 1024, |ros| {
            let idx = ros
                .mv
                .get(path)
                .ok_or_else(|| OlfsError::NotFound(path.to_string()))?;
            Ok(idx.versions().map(|e| (e.ver, e.size, e.mtime)).collect())
        })
    }

    // ------------------------------------------------------------------
    // Flush / power
    // ------------------------------------------------------------------

    /// Seals every non-empty bucket, force-closes the partial array
    /// group, and runs the system until all queued burns complete.
    pub fn flush(&mut self) -> Result<(), OlfsError> {
        self.foreground(|ros, op| {
            let mut io = SimDuration::ZERO;
            for i in 0..ros.wbm.len() {
                if ros.wbm.bucket(i).is_some_and(|b| !b.is_empty()) {
                    io += ros.seal_bucket(i, op.now())?;
                }
            }
            op.trace.extra("seal", io);
            Ok(())
        })?;
        if let Some(gid) = self.store.force_close_collecting() {
            self.schedule_parity(gid, self.now());
        }
        let ok = self.run_until_quiescent(SimDuration::from_secs(3600 * 24 * 30));
        if ok {
            Ok(())
        } else {
            Err(OlfsError::BadState(
                "flush did not quiesce (out of discs or bays?)".into(),
            ))
        }
    }

    /// Total instantaneous power of the optical drives (rack aggregation
    /// lives in `ros-tco`).
    pub fn drive_power_watts(&self) -> f64 {
        self.bays
            .iter()
            .flat_map(|b| b.iter())
            .map(ros_drive::OpticalDrive::power_watts)
            .sum()
    }

    pub(crate) fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Simulates a power loss followed by a restart (§4.2: "Once ROS
    /// crashes, OLFS can recover from its previous checkpoint state with
    /// all state information stored in MV").
    ///
    /// What survives: the MV (SSD RAID-1), the disk write buffer — open
    /// buckets are loop devices on disk — the image store and all burned
    /// discs. What is lost: in-flight events. Burns that were cut mid-
    /// write ruin their write-once discs; their trays are retired as
    /// Failed and the groups go to the back of the burn backlog, for
    /// fresh trays. Pending parity generations are simply rescheduled,
    /// and the idle-audit tick starts a new interval. The restart costs
    /// the arm sending the ruined arrays home, then 90 s.
    ///
    /// Returns `(aborted_burns, rescheduled_parities)`.
    pub fn simulate_crash_and_restart(&mut self) -> Result<(usize, usize), OlfsError> {
        // 1. Power loss: every scheduled event vanishes; the clock stays.
        let now = self.now();
        self.queue = EventQueue::new();
        self.queue.advance_to(now);

        // 2. In-flight burns are ruined: free the drives, retire the
        //    tray, requeue the group for a fresh tray, in bay order.
        let mut cut: Vec<(usize, ArrayId)> =
            self.store.burns().map(|(gid, bay, _)| (bay, gid)).collect();
        cut.sort_unstable();
        for &(bay, gid) in &cut {
            let members = self.burn_members(gid);
            self.stop_drives(bay, &members);
            if let Some(slot) = self.store.requeue_cut_burn(gid) {
                let idx = self.cfg.layout.slot_index(slot);
                self.store.set_da_state(idx, DaState::Failed);
            }
            self.unload_bay(bay, now)?;
        }

        // 3. The arm sends the ruined arrays home, then the reboot takes
        //    a moment.
        self.queue
            .advance_to(now.max(self.arm_free_at) + SimDuration::from_secs(90));

        // 4. Reschedule lost parity generations and the idle tick, and
        //    start the backlog.
        let mut parities = 0;
        for gid in self.store.groups_in_state(GroupState::ParityPending) {
            self.schedule_parity(gid, self.now());
            parities += 1;
        }
        if let Some(interval) = self.cfg.scrub_interval {
            self.queue.schedule_in(interval, Event::ScrubTick);
        }
        self.try_start_burns(self.now());
        Ok((cut.len(), parities))
    }
}

fn worst_source(a: ReadSource, b: ReadSource) -> ReadSource {
    use ReadSource::*;
    let rank = |s: ReadSource| match s {
        DiskBucket => 0,
        DiskImage => 1,
        DiscInDrive => 2,
        RollerFreeDrives => 3,
        RollerUnloadFirst => 4,
        RollerDrivesBusy => 5,
    };
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn ros() -> Ros {
        Ros::new(RosConfig::tiny())
    }

    #[test]
    fn write_then_read_from_bucket() {
        let mut r = ros();
        let data = vec![0xAB; 10_000];
        let w = r.write_file(&p("/docs/a.txt"), data.clone()).unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.segments.len(), 1);
        let rd = r.read_file(&p("/docs/a.txt")).unwrap();
        assert_eq!(rd.data.as_ref(), data.as_slice());
        assert_eq!(rd.source, ReadSource::DiskBucket);
        assert_eq!(rd.version, 1);
    }

    #[test]
    fn figure7_write_trace_shape_and_latency() {
        let mut r = ros();
        let w = r.write_file(&p("/f"), vec![1u8; 1024]).unwrap();
        assert_eq!(
            w.trace.step_names(),
            vec!["stat", "mknod", "stat", "write", "close"]
        );
        let ms = w.latency.as_millis_f64();
        assert!(
            (ms - 16.0).abs() < 2.0,
            "write latency = {ms} ms (paper: 16)"
        );
    }

    #[test]
    fn figure7_read_trace_shape_and_latency() {
        let mut r = ros();
        r.write_file(&p("/f"), vec![1u8; 1024]).unwrap();
        let rd = r.read_file(&p("/f")).unwrap();
        assert_eq!(rd.trace.step_names(), vec!["stat", "read", "close"]);
        let ms = rd.latency.as_millis_f64();
        assert!((ms - 9.0).abs() < 2.0, "read latency = {ms} ms (paper: 9)");
    }

    #[test]
    fn missing_file_errors() {
        let mut r = ros();
        assert!(matches!(
            r.read_file(&p("/nope")).unwrap_err(),
            OlfsError::NotFound(_)
        ));
        assert!(matches!(
            r.stat(&p("/nope")).unwrap_err(),
            OlfsError::NotFound(_)
        ));
        assert!(r.write_file(&p("/"), vec![]).is_err());
    }

    #[test]
    fn group_counts_equal_the_listed_groups_in_every_state() {
        const STATES: [GroupState; 5] = [
            GroupState::Collecting,
            GroupState::ParityPending,
            GroupState::ReadyToBurn,
            GroupState::Burning,
            GroupState::Burned,
        ];
        // Checks every state and returns the counts.
        let census = |r: &Ros| {
            STATES.map(|state| {
                let count = r.store.count_in_state(state);
                assert_eq!(count, r.store.groups_in_state(state).len(), "{state:?}");
                count
            })
        };
        let mut r = ros();
        assert_eq!(census(&r), [0; 5]);
        r.write_file(&p("/census/f"), vec![9u8; 200_000]).unwrap();
        for b in 0..r.wbm.len() {
            r.seal_bucket(b, r.now()).unwrap();
        }
        assert_eq!(
            census(&r),
            [1, 0, 0, 0, 0],
            "sealed into a collecting group"
        );
        let gid = r.store.force_close_collecting().unwrap();
        assert_eq!(census(&r), [0, 1, 0, 0, 0], "closed, parity outstanding");
        assert!(r.has_pending_work());
        r.schedule_parity(gid, r.now());
        r.quarantine_bay(0);
        assert!(!r.run_until_quiescent(SimDuration::from_secs(3600)));
        assert_eq!(census(&r), [0, 0, 1, 0, 0], "parked behind the quarantine");
        assert_eq!(r.service_quarantined_bays(), 1);
        r.flush().unwrap();
        assert_eq!(census(&r), [0, 0, 0, 0, 1], "burned");
        assert!(!r.has_pending_work());
        // A second array while the first stays burned.
        r.write_file(&p("/census/g"), vec![8u8; 200_000]).unwrap();
        for b in 0..r.wbm.len() {
            r.seal_bucket(b, r.now()).unwrap();
        }
        assert_eq!(census(&r), [1, 0, 0, 0, 1]);
    }

    #[test]
    fn regenerated_update_keeps_both_versions_readable() {
        let mut r = ros();
        r.write_file(&p("/v"), b"one".to_vec()).unwrap();
        // Seal the bucket so the update cannot happen in place and the
        // regenerating path of §4.6 is taken.
        for b in 0..r.wbm.len() {
            r.seal_bucket(b, r.now()).unwrap();
        }
        let w2 = r.write_file(&p("/v"), b"two-longer".to_vec()).unwrap();
        assert_eq!(w2.version, 2);
        let latest = r.read_file(&p("/v")).unwrap();
        assert_eq!(latest.data.as_ref(), b"two-longer");
        let old = r.read_version(&p("/v"), 1).unwrap();
        assert_eq!(old.data.as_ref(), b"one");
        let versions = r.versions(&p("/v")).unwrap();
        assert_eq!(versions.len(), 2);
        assert_eq!(r.counters().updates, 1);
    }

    #[test]
    fn in_place_update_physically_replaces_old_bytes() {
        let mut r = ros();
        r.write_file(&p("/v"), b"one".to_vec()).unwrap();
        let w2 = r.write_file(&p("/v"), b"two".to_vec()).unwrap();
        assert_eq!(w2.version, 2);
        // Same segments: the bucket file was updated in place.
        let latest = r.read_file(&p("/v")).unwrap();
        assert_eq!(latest.data.as_ref(), b"two");
        // The old bytes are gone; the version entry remains but reading
        // it reports the loss honestly.
        assert!(matches!(
            r.read_version(&p("/v"), 1).unwrap_err(),
            OlfsError::VersionGone { version: 1, .. }
        ));
        assert_eq!(r.versions(&p("/v")).unwrap().len(), 2);
    }

    #[test]
    fn mv_snapshot_carries_everything_a_read_resolves_with() {
        let mut cfg = RosConfig::tiny();
        cfg.dedup = true;
        let mut r = Ros::new(cfg);
        r.write_file(&p("/plain"), b"aaaa".to_vec()).unwrap();
        r.write_file(&p("/alias"), b"aaaa".to_vec()).unwrap(); // Dedup hit.
        r.write_file(&p("/d/u"), b"one".to_vec()).unwrap();
        r.seal_open_buckets().unwrap();
        r.write_file(&p("/d/u"), b"two".to_vec()).unwrap(); // Regenerated.
        r.write_file(&p("/d/u"), b"three".to_vec()).unwrap(); // In place over it.

        let alias = r.mv.get(&p("/alias")).unwrap().latest().unwrap();
        assert_eq!(alias.stored, Some(p("/plain")));
        assert_eq!(alias.digest, Some(ros_cas::Digest::of(b"aaaa")));
        let u = r.mv.get(&p("/d/u")).unwrap();
        assert_eq!(u.version(1).unwrap().stored, None);
        assert!(u.version(2).unwrap().replaced && !u.version(3).unwrap().replaced);
        assert_eq!(u.version(3).unwrap().stored, Some(p("/d/.rosv2-u")));
        assert_eq!(u.version(3).unwrap().seg_sizes, vec![5]);

        // A namespace restored from the snapshot alone — shipped to a
        // guardian rack, or read back from discs — resolves every
        // version as this one does.
        let back = MetadataVolume::restore(&r.mv.snapshot()).unwrap();
        for (path, idx) in r.mv.iter_files() {
            assert_eq!(back.get(path), Some(idx), "{path}");
        }
        r.adopt_namespace(back);
        assert_eq!(r.read_file(&p("/alias")).unwrap().data.as_ref(), b"aaaa");
        assert_eq!(r.read_file(&p("/d/u")).unwrap().data.as_ref(), b"three");
        assert_eq!(r.read_version(&p("/d/u"), 1).unwrap().data.as_ref(), b"one");
        assert!(matches!(
            r.read_version(&p("/d/u"), 2).unwrap_err(),
            OlfsError::VersionGone { version: 2, .. }
        ));
    }

    #[test]
    fn large_file_splits_across_images() {
        let mut r = ros();
        // Disc capacity is 4 MiB; a 6 MiB file must split.
        let data: Vec<u8> = (0..6 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        let w = r.write_file(&p("/big.bin"), data.clone()).unwrap();
        assert!(w.segments.len() >= 2, "segments = {:?}", w.segments);
        assert_eq!(r.counters().splits, 1);
        let rd = r.read_file(&p("/big.bin")).unwrap();
        assert_eq!(rd.data.len(), data.len());
        assert_eq!(rd.data.as_ref(), data.as_slice());
    }

    #[test]
    fn single_segment_reads_are_zero_copy() {
        let mut r = ros();
        let data = vec![0x5A; 50_000];
        r.write_file(&p("/zc/file"), data.clone()).unwrap();
        let rd = r.read_file(&p("/zc/file")).unwrap();
        assert_eq!(rd.data.as_ref(), data.as_slice());
        assert_eq!(
            r.counters().read_copy_bytes,
            0,
            "unsplit files must be served as refcounted slices"
        );
        let rr = r.read_range(&p("/zc/file"), 1_000, 2_000).unwrap();
        assert_eq!(rr.data.as_ref(), &data[1_000..3_000]);
        assert_eq!(
            r.counters().read_copy_bytes,
            0,
            "range reads of unsplit files are sub-slices, not copies"
        );
    }

    #[test]
    fn multi_segment_reads_count_their_join_copy() {
        let mut r = ros();
        let data: Vec<u8> = (0..6 * 1024 * 1024u32).map(|i| (i % 241) as u8).collect();
        let w = r.write_file(&p("/big.bin"), data.clone()).unwrap();
        assert!(w.segments.len() >= 2);
        let rd = r.read_file(&p("/big.bin")).unwrap();
        assert_eq!(rd.data.as_ref(), data.as_slice());
        assert_eq!(
            r.counters().read_copy_bytes,
            data.len() as u64,
            "a split file is joined with exactly one memcpy of its size"
        );
    }

    #[test]
    fn flush_burns_everything_and_reads_survive_eviction() {
        let mut r = ros();
        let mut originals = Vec::new();
        for i in 0..5 {
            let data = vec![i as u8 + 1; 500_000];
            r.write_file(&p(&format!("/archive/f{i}")), data.clone())
                .unwrap();
            originals.push(data);
        }
        r.flush().unwrap();
        assert!(r.counters().burns >= 1);
        let (_, used, _) = r.store.da_counts();
        assert!(used >= 1);
        // Evict every burned image's disk copy to force disc reads.
        let burned: Vec<ImageId> = (1..=r.store.len() as u64)
            .map(ImageId)
            .filter(|id| {
                r.store
                    .get(*id)
                    .map(|i| i.burned.is_some() && i.on_disk())
                    .unwrap_or(false)
            })
            .collect();
        for id in burned {
            r.store.evict_disk_copy(id).unwrap();
            r.cache.remove(id);
        }
        for (i, data) in originals.iter().enumerate() {
            let rd = r.read_file(&p(&format!("/archive/f{i}"))).unwrap();
            assert_eq!(rd.data.as_ref(), data.as_slice(), "file {i}");
        }
        assert!(r.counters().fetches >= 1);
    }

    #[test]
    fn table1_cold_read_latency_with_free_drives() {
        let mut r = ros();
        let data = vec![7u8; 100_000];
        r.write_file(&p("/cold"), data.clone()).unwrap();
        r.flush().unwrap();
        // Make the read cold: evict the image and unload all bays.
        let seg = r.mv.get(&p("/cold")).unwrap().latest().unwrap().segs[0];
        if r.store.get(seg).map(|i| i.on_disk()).unwrap_or(false) {
            r.store.evict_disk_copy(seg).unwrap();
            r.cache.remove(seg);
        }
        r.unload_all_bays().unwrap();
        let rd = r.read_file(&p("/cold")).unwrap();
        assert_eq!(rd.source, ReadSource::RollerFreeDrives);
        let secs = rd.latency.as_secs_f64();
        // Table 1: 70.553 s for a roller fetch with free drives.
        assert!(
            (secs - 70.55).abs() < 1.5,
            "cold read = {secs:.2}s (paper: 70.553s)"
        );
        // Forepart answered long before the fetch finished (§4.8).
        assert!(rd.first_byte_latency <= SimDuration::from_millis(2));
        assert_eq!(rd.data.as_ref(), data.as_slice());
    }

    #[test]
    fn warm_disc_in_drive_read_is_sub_second() {
        let mut r = ros();
        let data = vec![9u8; 50_000];
        r.write_file(&p("/warm"), data.clone()).unwrap();
        r.flush().unwrap();
        let seg = r.mv.get(&p("/warm")).unwrap().latest().unwrap().segs[0];
        if r.store.get(seg).map(|i| i.on_disk()).unwrap_or(false) {
            r.store.evict_disk_copy(seg).unwrap();
            r.cache.remove(seg);
        }
        // The array is still in the drives after its burn.
        let rd = r.read_file(&p("/warm")).unwrap();
        assert_eq!(rd.source, ReadSource::DiscInDrive);
        let secs = rd.latency.as_secs_f64();
        // Table 1: 0.223 s for a disc already in a drive (plus transfer).
        assert!(secs < 0.5, "warm disc read = {secs:.3}s (paper: 0.223s)");
        assert_eq!(rd.data.as_ref(), data.as_slice());
    }

    #[test]
    fn damaged_disc_repairs_through_parity() {
        let mut r = ros();
        let mut originals = Vec::new();
        for i in 0..5 {
            let data = vec![0x30 + i as u8; 400_000];
            r.write_file(&p(&format!("/raid/f{i}")), data.clone())
                .unwrap();
            originals.push(data);
        }
        r.flush().unwrap();
        // Corrupt one burned disc's data area heavily.
        let seg = r.mv.get(&p("/raid/f0")).unwrap().latest().unwrap().segs[0];
        let loc = r.store.location_of(seg).expect("burned");
        if r.store.get(seg).map(|i| i.on_disk()).unwrap_or(false) {
            r.store.evict_disk_copy(seg).unwrap();
            r.cache.remove(seg);
        }
        // The disc may still be in a drive (post-burn).
        let disc = r.disc_at_mut(loc).expect("burned disc must be reachable");
        for s in 0..50 {
            disc.corrupt_sector(s);
        }
        let rd = r.read_file(&p("/raid/f0")).unwrap();
        assert_eq!(rd.data.as_ref(), originals[0].as_slice());
        assert_eq!(r.counters().repairs, 1);
        // A fetch-time repair restores the image and leaves the array be.
        assert_eq!(r.store.da_counts().2, 0);
        assert!(r.verify_consistency().is_empty());
    }

    #[test]
    fn readdir_and_mkdir_and_unlink() {
        let mut r = ros();
        r.write_file(&p("/dir/a"), vec![1]).unwrap();
        r.write_file(&p("/dir/b"), vec![2]).unwrap();
        r.mkdir(&p("/dir/sub")).unwrap();
        let mut ls = r.readdir(&p("/dir")).unwrap();
        ls.sort();
        assert_eq!(
            ls,
            vec![
                ("a".to_string(), false),
                ("b".to_string(), false),
                ("sub".to_string(), true)
            ]
        );
        r.unlink(&p("/dir/a")).unwrap();
        assert!(matches!(
            r.read_file(&p("/dir/a")).unwrap_err(),
            OlfsError::NotFound(_)
        ));
    }

    #[test]
    fn stat_reports_latest_version() {
        let mut r = ros();
        r.write_file(&p("/s"), vec![0u8; 123]).unwrap();
        let (size, ver, _) = r.stat(&p("/s")).unwrap();
        assert_eq!((size, ver), (123, 1));
        r.write_file(&p("/s"), vec![0u8; 456]).unwrap();
        let (size, ver, _) = r.stat(&p("/s")).unwrap();
        assert_eq!((size, ver), (456, 2));
    }

    #[test]
    fn background_burn_progresses_without_foreground_calls() {
        let mut r = ros();
        // Write enough to complete an array group (11 data images of
        // ~4 MiB each at tiny scale would be huge; instead shrink by
        // writing files that fill buckets quickly).
        for i in 0..30 {
            r.write_file(&p(&format!("/bulk/f{i}")), vec![i as u8; 900_000])
                .unwrap();
        }
        // Some buckets sealed; force the rest and let time pass without
        // foreground I/O.
        for b in 0..r.wbm.len() {
            if !r.wbm.bucket(b).unwrap().is_empty() {
                r.seal_bucket(b, r.now()).unwrap();
            }
        }
        if let Some(g) = r.store.force_close_collecting() {
            r.schedule_parity(g, r.now());
        }
        r.run_for(SimDuration::from_secs(3600));
        assert!(r.counters().burns >= 1, "burn must complete in background");
    }

    #[test]
    fn write_latency_is_independent_of_burning() {
        let mut r = ros();
        for i in 0..20 {
            r.write_file(&p(&format!("/w/{i}")), vec![1u8; 800_000])
                .unwrap();
        }
        r.seal_open_buckets().unwrap();
        r.force_close_collecting_group();
        r.run_for(SimDuration::from_secs(4));
        // A burn is now in flight; a foreground write stays fast, and
        // moves the clock by its own latency only.
        assert_eq!(r.pending_work().0, 1);
        let before = r.now();
        let w = r.write_file(&p("/quick"), vec![2u8; 1024]).unwrap();
        assert!(
            w.latency < SimDuration::from_millis(60),
            "write under burn = {}",
            w.latency
        );
        assert_eq!(r.now().duration_since(before), w.latency);
    }

    #[test]
    fn a_stale_completion_cannot_finish_the_resumed_burn() {
        // Discs with room for an appended track's 64 MiB metadata zone.
        let mut cfg = RosConfig::tiny();
        cfg.disc_class = ros_drive::DiscClass::Custom {
            capacity: 128 << 20,
        };
        let mut r = Ros::new(cfg);
        for i in 0..11 {
            r.write_file(&p(&format!("/s/{i}")), vec![i as u8; 800_000])
                .unwrap();
        }
        r.seal_open_buckets().unwrap();
        // Park the group ready to burn, then make its members 8 GiB so
        // the burn lasts minutes, longer than a fetch's mechanics.
        r.quarantine_bay(0);
        r.force_close_collecting_group();
        assert!(!r.run_until_quiescent(SimDuration::from_secs(3600)));
        let gid = r.store.backlog_head().unwrap().id;
        let group = r.store.group(gid).unwrap().clone();
        for img in group.data.iter().chain(&group.parity) {
            r.store.get_mut(*img).unwrap().size = 8 << 30;
        }
        assert_eq!(r.service_quarantined_bays(), 1);
        r.run_until(r.arm_free_at());
        let (_, bay, first_end) = r.store.burns().next().unwrap();
        // A read interrupts the burn (§4.8); the group resumes, appending,
        // in the same bay.
        r.interrupt_burn(bay).unwrap();
        r.try_start_burns(r.now());
        let (_, again, resumed_end) = r.store.burns().next().unwrap();
        assert_eq!(again, bay);
        assert!(resumed_end > first_end);
        // The first burn's completion falls due mid-burn and is ignored.
        r.run_until(first_end);
        assert_eq!(r.counters().reburns, 0);
        assert_eq!(r.store.da_counts().2, 0, "no tray retired");
        assert_eq!(r.store.group(gid).unwrap().state, GroupState::Burning);
        r.run_until(resumed_end);
        assert_eq!(r.store.group(gid).unwrap().state, GroupState::Burned);
        assert_eq!((r.counters().burns, r.counters().reburns), (1, 0));
    }

    #[test]
    fn version_ring_drops_old_versions() {
        let mut r = ros();
        for v in 0..20u32 {
            r.write_file(&p("/ring"), vec![v as u8; 64]).unwrap();
        }
        let versions = r.versions(&p("/ring")).unwrap();
        assert_eq!(versions.len(), params::MAX_VERSION_ENTRIES);
        assert!(matches!(
            r.read_version(&p("/ring"), 1).unwrap_err(),
            OlfsError::VersionGone { .. }
        ));
        let rd = r.read_version(&p("/ring"), 20).unwrap();
        assert_eq!(rd.data.as_ref(), &[19u8; 64][..]);
    }

    #[test]
    fn empty_file_roundtrip() {
        let mut r = ros();
        r.write_file(&p("/empty"), Vec::<u8>::new()).unwrap();
        let rd = r.read_file(&p("/empty")).unwrap();
        assert!(rd.data.is_empty());
    }

    #[test]
    fn drive_power_tracks_burning() {
        let mut r = ros();
        let idle = r.drive_power_watts();
        for i in 0..30 {
            r.write_file(&p(&format!("/pw/{i}")), vec![1u8; 900_000])
                .unwrap();
        }
        // If a burn is active now, power is at peak for those drives.
        let during = r.drive_power_watts();
        assert!(during >= idle);
    }
}

#[cfg(test)]
mod sleep_tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn idle_drives_spin_down_and_pay_the_mount_penalty() {
        let mut r = Ros::new(RosConfig::tiny());
        for i in 0..12 {
            r.write_file(&p(&format!("/z/{i}")), vec![i as u8; 800_000])
                .unwrap();
        }
        r.flush().unwrap();
        r.evict_burned_copies();
        // Back-to-back reads of two files on the same loaded array: the
        // second drive is freshly used, no sleep penalty.
        let warm = r.read_file(&p("/z/0")).unwrap();
        assert_eq!(warm.source, ReadSource::DiscInDrive);
        r.evict_burned_copies();
        // Leave the library idle past the spin-down timeout.
        r.run_for(ros_drive::params::sleep_after_idle() * 3);
        let slept = r.read_file(&p("/z/0")).unwrap();
        assert_eq!(slept.source, ReadSource::DiscInDrive);
        let delta = slept.latency.as_secs_f64() - warm.latency.as_secs_f64();
        // The sleeping drive pays ~2 s to spin up (minus the VFS mount
        // charge the first read paid).
        assert!(
            (1.5..2.5).contains(&(delta + 0.12)),
            "sleep penalty = {delta:.3}s"
        );
    }
}

#[cfg(test)]
mod scrub_scheduler_tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn scheduled_scrub_finds_damage_without_a_manual_call() {
        let mut cfg = RosConfig::tiny();
        cfg.scrub_interval = Some(SimDuration::from_secs(3600));
        let mut r = Ros::new(cfg);
        for i in 0..12 {
            r.write_file(&p(&format!("/sc/{i}")), vec![i as u8; 700_000])
                .unwrap();
        }
        r.flush().unwrap();
        r.unload_all_bays().unwrap();
        // Cold: the discs hold the only copies.
        r.evict_all_burned_copies();
        r.age_media(0.004);
        // Two intervals pass; the library is idle, so the tick audits.
        r.run_for(SimDuration::from_secs(2 * 3600 + 60));
        let report = r.last_audit_report().expect("scheduled scan ran");
        assert!(report.sampled >= 3);
        // The first tick found and healed the damage — the counter and
        // the retired tray say so; the second saw a healthy library.
        assert!(r.counters().latent_repairs > 0);
        assert!(r.status().da_counts.2 >= 1);
        assert!(report.rotted.is_empty(), "{report:?}");
    }

    #[test]
    fn busy_ticks_skip_the_scrub_but_keep_rescheduling() {
        let mut cfg = RosConfig::tiny();
        cfg.scrub_interval = Some(SimDuration::from_secs(30));
        let mut r = Ros::new(cfg);
        // Queue a burn, then let ticks fire while it runs.
        for i in 0..12 {
            r.write_file(&p(&format!("/busy/{i}")), vec![i as u8; 800_000])
                .unwrap();
        }
        r.seal_open_buckets().unwrap();
        r.force_close_collecting_group();
        // Ticks firing during the burn must skip gracefully and keep
        // rescheduling; afterwards an idle tick audits the new discs.
        r.run_until_quiescent(SimDuration::from_secs(7200));
        assert!(
            r.now() > SimTime::from_secs(60),
            "two ticks fell in the burn"
        );
        assert!(r.last_audit_report().is_none(), "busy ticks skip");
        r.unload_all_bays().unwrap();
        r.run_for(SimDuration::from_secs(30));
        let report = r.last_audit_report().expect("idle tick audited");
        assert!(report.sampled > 0);
        assert_eq!(report.verified, report.sampled, "fresh burns are clean");
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn burned(prefetch: bool) -> Ros {
        let mut cfg = RosConfig::tiny();
        cfg.prefetch_array = prefetch;
        cfg.read_cache_images = 64;
        let mut r = Ros::new(cfg);
        for i in 0..12 {
            r.write_file(&p(&format!("/pf/{i}")), vec![i as u8; 800_000])
                .unwrap();
        }
        r.flush().unwrap();
        r.unload_all_bays().unwrap();
        r.evict_burned_copies();
        r
    }

    #[test]
    fn prefetch_caches_sibling_images_across_unloads() {
        let mut r = burned(true);
        // One cold read triggers the fetch and schedules the prefetch.
        r.read_file(&p("/pf/0")).unwrap();
        // Let the background streaming finish, then send the array home.
        r.run_for(SimDuration::from_secs(10));
        r.unload_all_bays().unwrap();
        // A sibling file in a DIFFERENT image now serves from cache.
        let r2 = r.read_file(&p("/pf/11")).unwrap();
        assert_eq!(r2.source, ReadSource::DiskImage, "prefetched sibling");
        assert!(r2.latency < SimDuration::from_millis(50));
        assert_eq!(r2.data.as_ref(), &[11u8; 800_000][..]);
    }

    #[test]
    fn a_rotted_sibling_is_neither_prefetched_nor_charged() {
        let mut r = burned(true);
        let read = r.image_segments(&p("/pf/0")).unwrap()[0];
        let gid = r.store.get(read).unwrap().array.unwrap();
        let siblings: Vec<ImageId> = r.store.group(gid).unwrap().data.clone();
        let siblings: Vec<ImageId> = siblings.into_iter().filter(|&i| i != read).collect();
        assert!(siblings.len() >= 2, "{siblings:?}");
        let rotted = siblings[0];
        let loc = r.store.location_of(rotted).unwrap();
        assert!(
            r.registry
                .disc_mut(loc.disc)
                .unwrap()
                .rot_bytes(rotted.0, 4)
                > 0
        );
        let before = r.status().buffer_usage.0;
        r.read_file(&p("/pf/0")).unwrap();
        r.run_for(SimDuration::from_secs(10));
        let on_disk = |r: &Ros, id: ImageId| r.store.get(id).unwrap().on_disk();
        assert!(!on_disk(&r, rotted));
        let healthy = std::iter::once(read).chain(siblings[1..].iter().copied());
        let mut bytes = 0;
        for id in healthy {
            assert!(on_disk(&r, id), "{id} prefetched");
            bytes += r.store.get(id).unwrap().size;
        }
        assert_eq!(r.status().buffer_usage.0 - before, bytes);
    }

    #[test]
    fn without_prefetch_the_sibling_needs_the_arm_again() {
        let mut r = burned(false);
        r.read_file(&p("/pf/0")).unwrap();
        r.run_for(SimDuration::from_secs(10));
        r.unload_all_bays().unwrap();
        // Drop the single image the read itself cached.
        r.evict_burned_copies();
        let r2 = r.read_file(&p("/pf/11")).unwrap();
        assert_eq!(r2.source, ReadSource::RollerFreeDrives);
        assert!(r2.latency > SimDuration::from_secs(60));
    }

    #[test]
    fn write_and_check_mode_roughly_doubles_burn_time() {
        // At tiny disc scale the burn is milliseconds and vanishes under
        // the ~70 s mechanical time, so assert on the burn model of the
        // engine's own (check-mode) drives at paper scale.
        let mut cfg = RosConfig::tiny();
        cfg.write_and_check = true;
        let checked_ros = Ros::new(cfg);
        assert!(checked_ros.bays[0].iter().all(|d| d.check_mode));
        let normal_ros = Ros::new(RosConfig::tiny());
        assert!(normal_ros.bays[0].iter().all(|d| !d.check_mode));
        let sizes = vec![ros_drive::params::BD25_BYTES; 12];
        let checked = checked_ros.bays[0]
            .simulate_array_burn(&sizes, ros_drive::DiscClass::Bd25, SimTime::ZERO)
            .total
            .as_secs_f64();
        let normal = normal_ros.bays[0]
            .simulate_array_burn(&sizes, ros_drive::DiscClass::Bd25, SimTime::ZERO)
            .total
            .as_secs_f64();
        let ratio = checked / normal;
        // §4.7: "almost halves the actual write throughput".
        assert!((1.6..2.2).contains(&ratio), "ratio = {ratio:.2}");
    }
}
