//! The cluster front end: replicated writes, primary reads with replica
//! fallback, and per-rack request accounting.
//!
//! Racks are modelled as running in parallel: routing an operation to a
//! rack advances only that rack's event clock, and cluster time is the
//! maximum over members. A balanced workload across N racks therefore
//! completes in ~1/N the makespan of a single rack — the scale-out
//! behaviour the paper's §6 TCO analysis assumes when it prices growth
//! in whole racks.

use crate::config::ClusterConfig;
use crate::error::ClusterError;
use crate::placement::{self, RackId};
use crate::rack::RackNode;
use bytes::Bytes;
use ros_olfs::{OlfsError, Ros};
use ros_sim::{SimDuration, SimTime};
use ros_udf::UdfPath;
use std::collections::BTreeMap;

/// Placement record of one archive group (one directory of files).
#[derive(Clone, Debug)]
pub(crate) struct Group {
    /// Racks holding the group, rendezvous-preferred first (reads try
    /// them in order). Empty after an unrecoverable loss.
    pub(crate) targets: Vec<RackId>,
    /// Member files and their latest payload sizes.
    pub(crate) files: BTreeMap<UdfPath, u64>,
}

/// Result of a replicated cluster write.
#[derive(Clone, Debug)]
pub struct ClusterWriteReport {
    /// Racks the payload was written to, placement order.
    pub racks: Vec<u32>,
    /// Completion latency: replicas are written in parallel, so this is
    /// the slowest replica's write latency.
    pub latency: SimDuration,
}

/// Result of a cluster read.
#[derive(Clone, Debug)]
pub struct ClusterReadReport {
    /// The file contents.
    pub data: Bytes,
    /// The serving rack's read latency.
    pub latency: SimDuration,
    /// Replicas that failed before one answered (0 = primary served).
    pub fallbacks: usize,
}

/// A federation of independent rack instances behind one router.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) racks: Vec<RackNode>,
    pub(crate) groups: BTreeMap<UdfPath, Group>,
    pub(crate) epoch_start: SimTime,
    pub(crate) mv_seq: u64,
    /// Latest guardian copy of each rack's MV snapshot:
    /// owner rack id -> (guardian, path on the guardian).
    pub(crate) mv_guardian_paths: BTreeMap<u32, Vec<(RackId, UdfPath)>>,
}

impl Cluster {
    /// Builds a cluster of `cfg.racks` independent rack instances.
    pub fn new(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        cfg.validate()?;
        let racks = (0..u32::try_from(cfg.racks).unwrap_or(u32::MAX))
            .map(|id| RackNode::try_new(&cfg, RackId(id)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Cluster {
            cfg,
            racks,
            groups: BTreeMap::new(),
            epoch_start: SimTime::ZERO,
            mv_seq: 0,
            mv_guardian_paths: BTreeMap::new(),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Cluster-wide simulated time: the furthest member clock (racks run
    /// in parallel, so the slowest member defines the makespan). Failed
    /// racks' frozen clocks are excluded.
    pub fn now(&self) -> SimTime {
        self.racks
            .iter()
            .filter(|r| r.is_alive())
            .map(RackNode::now)
            .max()
            .unwrap_or_else(|| {
                self.racks
                    .iter()
                    .map(RackNode::now)
                    .max()
                    .unwrap_or(SimTime::ZERO)
            })
    }

    /// Elapsed cluster time since `start` (zero if no alive clock has
    /// passed it — e.g. after the furthest rack failed).
    pub(crate) fn elapsed_since(&self, start: SimTime) -> SimDuration {
        let now = self.now();
        if now <= start {
            SimDuration::ZERO
        } else {
            now.duration_since(start)
        }
    }

    /// Member racks.
    pub fn racks(&self) -> &[RackNode] {
        &self.racks
    }

    /// Alive member count.
    pub(crate) fn alive_racks(&self) -> usize {
        self.racks.iter().filter(|r| r.is_alive()).count()
    }

    pub(crate) fn rack_index(&self, id: u32) -> Result<usize, ClusterError> {
        if (id as usize) < self.racks.len() {
            Ok(id as usize)
        } else {
            Err(ClusterError::UnknownRack(id))
        }
    }

    /// The placement group key of a path: its parent directory, so
    /// sibling files co-locate on the same racks (they pack into the
    /// same buckets and disc arrays inside the rack, §4.3).
    pub(crate) fn group_key(path: &UdfPath) -> UdfPath {
        path.parent().unwrap_or_else(UdfPath::root)
    }

    /// The racks currently holding `path`'s group, placement order.
    pub fn targets_of(&self, path: &UdfPath) -> Option<Vec<u32>> {
        self.groups
            .get(&Self::group_key(path))
            .map(|g| g.targets.iter().map(|r| r.0).collect())
    }

    /// Writes a file, replicated onto the group's target racks.
    ///
    /// A new group is placed by rendezvous hashing over alive racks with
    /// enough remaining capacity; an existing group sticks to its racks
    /// (only a failure drill re-homes groups). Replicas are written in
    /// parallel, so the reported latency is the slowest replica's.
    pub fn write_file(
        &mut self,
        path: &UdfPath,
        data: impl Into<Bytes>,
    ) -> Result<ClusterWriteReport, ClusterError> {
        let data: Bytes = data.into();
        let size = data.len() as u64;
        let key = Self::group_key(path);
        let targets: Vec<RackId> = match self.groups.get(&key) {
            Some(g) => {
                let alive: Vec<RackId> = g
                    .targets
                    .iter()
                    .copied()
                    .filter(|r| self.racks[r.0 as usize].is_alive())
                    .collect();
                if alive.is_empty() {
                    // Every holder died and no drill re-homed the group:
                    // place the new version afresh among the living.
                    self.place_new_group(&key, size)?
                } else {
                    alive
                }
            }
            None => self.place_new_group(&key, size)?,
        };

        // Attempt every replica even if one fails: bytes that landed on
        // a rack are durable, and the group map must learn about them
        // or subsequent reads would miss data the cluster is holding.
        let mut latency = SimDuration::ZERO;
        let mut completed: Vec<RackId> = Vec::new();
        let mut failure: Option<(u32, OlfsError)> = None;
        for rid in &targets {
            let idx = self.rack_index(rid.0)?;
            let rack = &mut self.racks[idx];
            match rack.ros_mut().write_file(path, data.clone()) {
                Ok(report) => {
                    let lat = rack.scaled(report.latency);
                    rack.write_latency.record(lat);
                    rack.bytes_written = rack.bytes_written.saturating_add(size);
                    rack.note_stored(size);
                    latency = latency.max(lat);
                    completed.push(*rid);
                }
                Err(source) => {
                    failure.get_or_insert((rid.0, source));
                }
            }
        }

        if !completed.is_empty() {
            // Record the replicas that hold the new version. The target
            // set only ever GROWS here: racks already in the group keep
            // holding every older member file, so evicting one (as a
            // partial write used to) would make data the cluster still
            // holds unreachable once another replica failed. Reads skip
            // dead or file-less members and fall through to the next
            // target; only a failure drill re-homes a group.
            let group = self.groups.entry(key).or_insert_with(|| Group {
                targets: completed.clone(),
                files: BTreeMap::new(),
            });
            for rid in &completed {
                if !group.targets.contains(rid) {
                    group.targets.push(*rid);
                }
            }
            group.files.insert(path.clone(), size);
        }
        match failure {
            None => Ok(ClusterWriteReport {
                racks: completed.into_iter().map(|r| r.0).collect(),
                latency,
            }),
            Some((failed, source)) if completed.is_empty() => Err(ClusterError::Rack {
                rack: failed,
                source,
            }),
            Some((failed, source)) => Err(ClusterError::PartialWrite {
                path: path.to_string(),
                completed: completed.into_iter().map(|r| r.0).collect(),
                failed,
                source,
            }),
        }
    }

    fn place_new_group(&self, key: &UdfPath, size: u64) -> Result<Vec<RackId>, ClusterError> {
        let candidates: Vec<(RackId, u64)> = self
            .racks
            .iter()
            .filter(|r| r.is_alive())
            .map(|r| (r.id(), r.free_bytes()))
            .collect();
        let targets =
            placement::select_targets(key.as_str(), &candidates, size, self.cfg.replication);
        if targets.is_empty() {
            return Err(ClusterError::NoCapacity {
                size,
                replication: self.cfg.replication,
            });
        }
        Ok(targets)
    }

    /// Runs `op` on the racks of `path`'s group in placement order,
    /// skipping dead racks; the first rack that answers wins. Returns that
    /// rack's index, its answer and the racks tried before it.
    fn first_replica<T>(
        &mut self,
        path: &UdfPath,
        mut op: impl FnMut(&mut Ros) -> Result<T, OlfsError>,
    ) -> Result<(usize, T, Vec<u32>), ClusterError> {
        let key = Self::group_key(path);
        let targets = self
            .groups
            .get(&key)
            .filter(|g| g.files.contains_key(path))
            .map(|g| g.targets.clone())
            .ok_or_else(|| ClusterError::NotFound(path.to_string()))?;
        let mut tried = Vec::new();
        for rid in &targets {
            let idx = self.rack_index(rid.0)?;
            if !self.racks[idx].is_alive() {
                tried.push(rid.0);
                continue;
            }
            match op(self.racks[idx].ros_mut()) {
                Ok(answer) => return Ok((idx, answer, tried)),
                Err(_) => tried.push(rid.0),
            }
        }
        Err(ClusterError::AllReplicasFailed {
            path: path.to_string(),
            tried,
        })
    }

    /// Reads a file from its group's primary rack, falling back to the
    /// replicas in placement order.
    pub fn read_file(&mut self, path: &UdfPath) -> Result<ClusterReadReport, ClusterError> {
        let (idx, report, tried) = self.first_replica(path, |ros| ros.read_file(path))?;
        let rack = &mut self.racks[idx];
        let lat = rack.scaled(report.latency);
        rack.read_latency.record(lat);
        rack.bytes_read = rack.bytes_read.saturating_add(report.data.len() as u64);
        Ok(ClusterReadReport {
            data: report.data,
            latency: lat,
            fallbacks: tried.len(),
        })
    }

    /// Stats a file on the first alive rack of its group:
    /// `(size, version, mtime_nanos)`.
    pub fn stat(&mut self, path: &UdfPath) -> Result<(u64, u32, u64), ClusterError> {
        let (_, meta, _) = self.first_replica(path, |ros| ros.stat(path))?;
        Ok(meta)
    }

    /// Flushes every alive rack (seal open buckets and burn, §4.3).
    pub fn flush_all(&mut self) -> Result<(), ClusterError> {
        for rack in self.racks.iter_mut().filter(|r| r.is_alive()) {
            let id = rack.id().0;
            rack.ros_mut().flush().map_err(ClusterError::on(id))?;
        }
        Ok(())
    }

    /// Runs every alive rack until its event queue drains (or `limit`
    /// expires); returns true if all drained.
    pub fn run_until_quiescent_all(&mut self, limit: SimDuration) -> bool {
        self.racks
            .iter_mut()
            .filter(|r| r.is_alive())
            .all(|r| r.ros_mut().run_until_quiescent(limit))
    }

    /// Advances every alive rack to the current cluster time, aligning
    /// member clocks (e.g. between workload phases).
    pub(crate) fn sync_clocks(&mut self) {
        let deadline = self.now();
        for rack in self.racks.iter_mut().filter(|r| r.is_alive()) {
            rack.ros_mut().run_until(deadline);
        }
    }

    /// Starts a measurement epoch: clears per-rack latency samples and
    /// byte counters and marks the epoch start time. Placement state is
    /// untouched.
    pub fn begin_epoch(&mut self) {
        self.sync_clocks();
        self.epoch_start = self.now();
        for rack in &mut self.racks {
            rack.reset_stats();
        }
    }

    /// Number of placement groups tracked by the router.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total files tracked across all groups.
    pub fn file_count(&self) -> usize {
        self.groups.values().map(|g| g.files.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    #[test]
    fn writes_replicate_and_reads_verify() {
        let mut c = Cluster::new(ClusterConfig::tiny(3)).unwrap();
        let w = c.write_file(&p("/a/f1"), vec![7u8; 2048]).unwrap();
        assert_eq!(w.racks.len(), 2, "replication factor 2");
        let r = c.read_file(&p("/a/f1")).unwrap();
        assert_eq!(r.data.as_ref(), &[7u8; 2048][..]);
        assert_eq!(r.fallbacks, 0, "primary serves");
    }

    #[test]
    fn sibling_files_share_a_group() {
        let mut c = Cluster::new(ClusterConfig::tiny(4)).unwrap();
        c.write_file(&p("/d/one"), vec![1u8; 100]).unwrap();
        c.write_file(&p("/d/two"), vec![2u8; 100]).unwrap();
        c.write_file(&p("/e/one"), vec![3u8; 100]).unwrap();
        assert_eq!(c.group_count(), 2);
        assert_eq!(
            c.targets_of(&p("/d/one")).unwrap(),
            c.targets_of(&p("/d/two")).unwrap()
        );
    }

    #[test]
    fn unknown_paths_are_not_found() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        assert!(matches!(
            c.read_file(&p("/nope")).unwrap_err(),
            ClusterError::NotFound(_)
        ));
        c.write_file(&p("/d/known"), vec![0u8; 10]).unwrap();
        assert!(matches!(
            c.read_file(&p("/d/other")).unwrap_err(),
            ClusterError::NotFound(_)
        ));
    }

    #[test]
    fn single_rack_cluster_routes_everything_to_it() {
        let mut c = Cluster::new(ClusterConfig::tiny(1)).unwrap();
        for i in 0..10 {
            let w = c
                .write_file(&p(&format!("/g{}/f", i)), vec![0u8; 64])
                .unwrap();
            assert_eq!(w.racks, vec![0]);
        }
    }

    #[test]
    fn stat_reports_size_and_version() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/s/f"), vec![0u8; 321]).unwrap();
        let (size, ver, _mtime) = c.stat(&p("/s/f")).unwrap();
        assert_eq!(size, 321);
        assert_eq!(ver, 1);
    }

    #[test]
    fn capacity_filter_rejects_oversized_groups() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        let huge = c.racks()[0].free_bytes() * 2;
        assert!(matches!(
            c.write_file(&p("/big/f"), vec![0u8; 16]).and_then(|_| {
                // Exhaust the accounting rather than allocating `huge`
                // bytes: mark the racks full, then place a fresh group.
                for r in &mut c.racks {
                    r.note_stored(huge);
                }
                c.write_file(&p("/big2/f"), vec![0u8; 16])
            }),
            Err(ClusterError::NoCapacity { .. })
        ));
    }

    #[test]
    fn partial_write_records_completed_replicas() {
        // Regression: a replica failure used to abort write_file before
        // the group map learned the file exists, so reads failed even
        // though a full copy was durable on the surviving replica.
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/d/first"), vec![1u8; 512]).unwrap();
        let targets = c.targets_of(&p("/d/first")).unwrap();
        assert_eq!(targets.len(), 2);
        let secondary = targets[1];

        // Shadow the path with a directory on the secondary only (behind
        // the router's back), so that rack's replica write fails with a
        // typed OLFS error while the primary's succeeds.
        c.racks[secondary as usize]
            .ros_mut()
            .write_file(&p("/d/second/shadow"), vec![0u8; 16])
            .unwrap();

        let err = c.write_file(&p("/d/second"), vec![2u8; 512]).unwrap_err();
        match err {
            ClusterError::PartialWrite {
                completed, failed, ..
            } => {
                assert_eq!(completed, vec![targets[0]]);
                assert_eq!(failed, secondary);
            }
            other => panic!("expected PartialWrite, got {other:?}"),
        }
        // The durable replica must be readable despite the failure.
        let r = c.read_file(&p("/d/second")).unwrap();
        assert_eq!(r.data.as_ref(), &[2u8; 512][..]);
        assert_eq!(r.fallbacks, 0, "the primary serves");
        // And the earlier group file is still served.
        assert!(c.read_file(&p("/d/first")).is_ok());
    }

    #[test]
    fn partial_write_must_not_evict_replicas_of_earlier_files() {
        // Regression: a partial write used to REPLACE the group's target
        // set with only the racks the new file reached. /d/first below
        // was written at replication 2, but after /d/second partially
        // failed on the secondary, the group forgot the secondary held
        // /d/first — and a primary outage then lost a file the cluster
        // still had a full copy of.
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/d/first"), vec![1u8; 512]).unwrap();
        let targets = c.targets_of(&p("/d/first")).unwrap();
        assert_eq!(targets.len(), 2);
        let (primary, secondary) = (targets[0], targets[1]);

        // Shadow the path with a directory on the secondary only, so its
        // replica write fails typed while the primary's succeeds.
        c.racks[secondary as usize]
            .ros_mut()
            .write_file(&p("/d/second/shadow"), vec![0u8; 16])
            .unwrap();
        let err = c.write_file(&p("/d/second"), vec![2u8; 512]).unwrap_err();
        assert!(matches!(err, ClusterError::PartialWrite { .. }));

        // The secondary must still be a target: it holds /d/first.
        assert_eq!(c.targets_of(&p("/d/first")).unwrap().len(), 2);

        // Primary outage: /d/first must keep serving from the secondary.
        c.fail_rack(primary).unwrap();
        let r = c.read_file(&p("/d/first")).unwrap();
        assert_eq!(r.data.as_ref(), &[1u8; 512][..]);
        assert_eq!(r.fallbacks, 1, "the secondary serves");
        // /d/second only ever reached the primary; its loss is reported
        // typed, not silently absorbed.
        assert!(matches!(
            c.read_file(&p("/d/second")).unwrap_err(),
            ClusterError::AllReplicasFailed { .. }
        ));
    }

    #[test]
    fn epoch_reset_clears_measurements() {
        let mut c = Cluster::new(ClusterConfig::tiny(2)).unwrap();
        c.write_file(&p("/m/f"), vec![0u8; 100]).unwrap();
        c.begin_epoch();
        let report = crate::stats::ClusterReport::collect(&c);
        assert_eq!(report.bytes_written, 0);
        assert_eq!(report.write_latency.count(), 0);
    }

    #[test]
    fn status_is_attributable_per_rack() {
        let c = Cluster::new(ClusterConfig::tiny(3)).unwrap();
        let ids: Vec<u32> = c.racks.iter().map(|r| r.ros().status().rack_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
