//! The media walker: LOCKSS-style audit of the library (§4.7, DESIGN.md
//! §16).
//!
//! Long-horizon preservation fails silently: latent rot flips bytes on
//! burned media without raising any I/O error, so neither the drive's
//! damage map nor a plain read (which returns the rotted bytes happily)
//! notices. The only defence is an *end-to-end* check — re-hash the
//! stored bytes and compare against the `ros-cas` content digest
//! recorded at seal time. `Ros::inspect_many` does that and reads the
//! damage map too, so one walk finds sector errors and rot alike.
//!
//! The population is every buffer resident plus every burned image
//! whose disc sits in a tray; a pass digest-verifies up to `n` of them,
//! chosen without replacement from a seeded stream so runs are
//! reproducible. The idle-time tick ([`crate::config::RosConfig::scrub_interval`])
//! passes `usize::MAX` — §4.7's scan of "all the burned disc arrays";
//! a PB-scale caller that cannot afford that samples a few per pass,
//! LOCKSS's playbook, and over simulated decades the sample sweeps the
//! library many times.
//!
//! What the walk finds is repaired through the redundancy ladder:
//!
//! 1. **Array redundancy** — the damaged image's disc array goes through
//!    the one repair path in [`crate::repair`]: every member gathered,
//!    what cannot be trusted masked, the rest reconstructed through the
//!    GF(256) P/Q parity kernels. The healed array is then rewritten
//!    onto fresh media, retiring the damaged tray.
//! 2. **Replica escalation** — if more members are damaged than the
//!    parity schema tolerates, the image is reported
//!    [`AuditReport::unrepairable`] and a cluster front end re-fetches
//!    the bytes from a healthy replica rack
//!    (`ros-cluster`'s audit module).
//!
//! Both the scan and any repairs are charged to the simulated clock, so
//! audit bandwidth competes with foreground traffic.

use crate::dim::GroupState;
use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::{ArrayId, ImageId};
use ros_sim::SimDuration;
use std::collections::BTreeMap;

/// Result of one sampled-audit pass ([`Ros::audit_sample`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Images digest-verified this pass.
    pub sampled: usize,
    /// Sampled images whose bytes still match their recorded digest.
    pub verified: usize,
    /// Sampled images whose bytes no longer match (latent rot) or whose
    /// tracks could not be read back cleanly.
    pub rotted: Vec<ImageId>,
    /// Rotted images healed from array redundancy this pass.
    pub repaired: Vec<ImageId>,
    /// Rotted images the local redundancy could not recover — the
    /// cluster layer escalates these to a replica rack.
    pub unrepairable: Vec<ImageId>,
    /// Simulated time the scan and repairs consumed.
    pub elapsed: SimDuration,
}

impl Ros {
    /// The namespace path of every file with a version (partly) in
    /// `image` — never the shadow name a regenerated version is stored
    /// under, which no namespace knows. The escalation hook: a cluster
    /// front end uses these paths to re-fetch an
    /// [`AuditReport::unrepairable`] image's content from a replica rack.
    pub fn paths_of_image(&self, image: ImageId) -> Vec<ros_udf::UdfPath> {
        let paths = self.image_paths.get(&image);
        paths.into_iter().flatten().cloned().collect()
    }

    /// The most recent idle-time tick's audit result; a manual
    /// [`Ros::audit_sample`] hands its report back instead.
    pub fn last_audit_report(&self) -> Option<&AuditReport> {
        self.last_audit.as_ref()
    }

    /// Runs one audit pass: inspect up to `n` images chosen uniformly
    /// without replacement from the auditable population (buffer
    /// residents plus burned images whose disc sits in a tray), then
    /// repair what failed — sector errors or rot — through array
    /// redundancy. Any `n` at least the population size (`usize::MAX`)
    /// audits everything.
    ///
    /// The candidate list is assembled in image-id order and the sample
    /// is drawn from a forked seeded stream, so a given system history
    /// audits the same images every run. Scan time is charged at the
    /// bay's aggregate read rate; repairs additionally charge
    /// reconstruction reads and buffer writes.
    pub fn audit_sample(&mut self, n: usize) -> AuditReport {
        let mut report = AuditReport::default();
        if n == 0 {
            return report;
        }

        // Auditable population, in image-id order for determinism.
        let mut candidates: Vec<ImageId> = Vec::new();
        for info in self.store.images() {
            let in_tray = info
                .burned
                .map(|loc| self.registry.disc(loc.disc).is_some())
                .unwrap_or(false);
            if info.payload.is_some() || in_tray {
                candidates.push(info.id);
            }
        }
        // Partial Fisher-Yates: the first `n` slots become the sample.
        let mut rng = self.rng_mut().fork(0xAD17);
        let take = n.min(candidates.len());
        for i in 0..take {
            let j = i + rng.index(candidates.len() - i);
            candidates.swap(i, j);
        }
        candidates.truncate(take);

        // Verify each sampled image end to end. A resident copy is
        // scanned whether or not it settles the question.
        let mut total_bytes = 0u64;
        let inspections = self.inspect_many(&candidates);
        for (id, seen) in candidates.into_iter().zip(inspections) {
            let Some(info) = self.store.get(id) else {
                continue;
            };
            report.sampled += 1;
            total_bytes += info.payload.as_ref().map_or(0, |p| p.len() as u64);
            total_bytes += seen.track.len() as u64;
            if seen.proof.is_some() {
                report.verified += 1;
            } else {
                report.rotted.push(id);
            }
        }
        let agg = self.bays[0].aggregate_read_speed(self.cfg.disc_class);
        report.elapsed = agg.time_for(total_bytes);
        self.run_for(report.elapsed);

        // Repair, one array at a time.
        let mut by_array: BTreeMap<Option<ArrayId>, Vec<ImageId>> = BTreeMap::new();
        for id in &report.rotted {
            let gid = self.store.get(*id).and_then(|i| i.array);
            by_array.entry(gid).or_default().push(*id);
        }
        let mut rewrote = false;
        for (gid, images) in by_array {
            let Some(gid) = gid else {
                // No array yet: the buffer copy was the only copy.
                report.unrepairable.extend(images);
                continue;
            };
            match self.heal_array(gid) {
                Ok(time) => {
                    report.elapsed += time;
                    report.repaired.extend(images);
                    rewrote = true;
                }
                Err(_) => report.unrepairable.extend(images),
            }
        }
        if rewrote {
            // Let the fresh-media re-burns complete.
            self.run_until_quiescent(SimDuration::from_secs(3600 * 24));
        }
        self.counters.latent_repairs += report.repaired.len() as u64;
        report
    }

    /// Heals one rotted disc array ([`Ros::rebuild`]), gives every data
    /// member lacking a healthy buffer copy one, and rewrites a burned
    /// array onto fresh media ([`Ros::rewrite_array`]). The gather is a
    /// scan like the one above, charged at the bay-aggregate rate.
    /// Errors if the damage exceeds the schema's tolerance — the caller
    /// escalates to a replica.
    fn heal_array(&mut self, gid: ArrayId) -> Result<SimDuration, OlfsError> {
        let rebuilt = self.rebuild(gid)?;
        let mut time = self.bays[0]
            .aggregate_read_speed(self.cfg.disc_class)
            .time_for(rebuilt.media_reads.iter().sum());
        for member in rebuilt.data.into_iter().filter(|m| !m.resident) {
            time += self.restore(member.image, member.proof)?;
        }
        self.run_for(time);
        if self
            .store
            .group(gid)
            .is_some_and(|g| g.state == GroupState::Burned)
        {
            self.rewrite_array(gid)?;
        }
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RosConfig;
    use ros_faults::{FaultEvent, FaultKind, FaultSink, InjectionOutcome};

    fn p(s: &str) -> ros_udf::UdfPath {
        s.parse().unwrap()
    }

    fn ev(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            seq: 0,
            at_op: 0,
            kind,
        }
    }

    /// Burns `data` to disc and cold-stores it: buffer copies evicted,
    /// bays unloaded, everything back on the roller.
    fn burned_system(data: &[u8]) -> Ros {
        burned_system_on(data, 0)
    }

    /// [`burned_system`] on a data plane of `threads` workers.
    fn burned_system_on(data: &[u8], threads: usize) -> Ros {
        let mut cfg = RosConfig::tiny();
        cfg.data_plane_threads = threads;
        let mut r = Ros::new(cfg);
        r.write_file(&p("/audit/f"), data.to_vec()).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        r
    }

    #[test]
    fn an_image_names_each_of_its_paths_once() {
        // A rewrite that dedup resolves to the copy the path already
        // has in the image used to list the path a second time.
        let mut cfg = RosConfig::tiny();
        cfg.dedup = true;
        let mut r = Ros::new(cfg);
        r.write_file(&p("/audit/f"), vec![1u8; 100]).unwrap();
        r.seal_open_buckets().unwrap();
        r.write_file(&p("/audit/f"), vec![1u8; 100]).unwrap();
        let image = r.image_segments(&p("/audit/f")).unwrap()[0];
        assert_eq!(r.paths_of_image(image), [p("/audit/f")]);
    }

    #[test]
    fn read_path_heals_latent_rot_inline() {
        for threads in [1, 2, 4] {
            heals_latent_rot_inline(threads);
        }
    }

    fn heals_latent_rot_inline(threads: usize) {
        let data = vec![3u8; 400_000];
        let mut r = burned_system_on(&data, threads);
        // Rot flips bytes with no sector error: the damage map is clean.
        assert_eq!(
            r.inject_fault(&ev(FaultKind::MediaRot { disc: 0, bytes: 5 })),
            InjectionOutcome::Injected
        );
        let mapped: usize = (0..r.registry.len() as u64)
            .filter_map(|id| r.registry.disc(crate::ids::DiscId(id)))
            .map(ros_drive::media::Disc::corrupted_sectors)
            .sum();
        assert_eq!(mapped, 0, "rot must leave no damage map");
        // The read still returns the *original* bytes: the fetch's
        // digest check catches the mismatch and repairs through parity
        // before the client sees anything.
        let report = r.read_file(&p("/audit/f")).unwrap();
        assert_eq!(report.data.as_ref(), data.as_slice());
        assert!(
            r.counters().latent_repairs >= 1,
            "the inline latent repair must have run"
        );
        // What the repair restored to the buffer came in as a proof for
        // the DIM's recorded digest — a fresh audit agrees, and finds
        // the other member images' tracks healthy too.
        let audit = r.audit_sample(usize::MAX);
        assert!(audit.verified >= 1 && audit.rotted.is_empty(), "{audit:?}");
    }

    #[test]
    fn sampled_audit_detects_and_repairs_rot() {
        let reports: Vec<AuditReport> = [1, 2, 4]
            .into_iter()
            .map(audit_detects_and_repairs_rot)
            .collect();
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:?}");
        // Field for field what one inspection per image reported before
        // the candidates were inspected as a batch.
        let expect = AuditReport {
            sampled: 2,
            verified: 1,
            rotted: vec![ImageId(1)],
            repaired: vec![ImageId(1)],
            unrepairable: vec![],
            elapsed: SimDuration::from_nanos(4_838_193),
        };
        assert_eq!(reports[0], expect);
    }

    fn audit_detects_and_repairs_rot(threads: usize) -> AuditReport {
        let data = vec![4u8; 400_000];
        let mut r = burned_system_on(&data, threads);
        assert_eq!(
            r.inject_fault(&ev(FaultKind::MediaRot { disc: 0, bytes: 3 })),
            InjectionOutcome::Injected
        );
        // Sample generously: the tiny library fits entirely.
        let report = r.audit_sample(64);
        assert!(report.sampled >= 1);
        assert!(!report.rotted.is_empty(), "audit must detect the rot");
        for id in &report.rotted {
            assert!(report.repaired.contains(id), "{id} must be repaired");
        }
        assert!(report.unrepairable.is_empty());
        assert!(report.elapsed > SimDuration::ZERO, "audit charges time");
        // The heal is durable: the rotted tray was retired and the
        // array re-burned, so a later cold read needs no repair at all.
        let before = r.counters().latent_repairs;
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        let read = r.read_file(&p("/audit/f")).unwrap();
        assert_eq!(read.data.as_ref(), data.as_slice());
        assert_eq!(
            r.counters().latent_repairs,
            before,
            "no inline repair needed after the audit healed the array"
        );
        report
    }

    #[test]
    fn audit_beyond_parity_tolerance_reports_unrepairable() {
        let data = vec![5u8; 400_000];
        let mut r = burned_system(&data);
        // Rot *every* member disc of the burned array — data and
        // parity. RAID-5 tolerates one loss; this exceeds it. Buffer
        // copies (parity keeps one after the burn) are dropped first so
        // only the rotted media remains.
        let gid = r.store.groups_in_state(GroupState::Burned)[0];
        let group = r.store.group(gid).unwrap().clone();
        for member in group.data.iter().chain(group.parity.iter()) {
            if r.store.get(*member).unwrap().on_disk() {
                let freed = r.store.evict_disk_copy(*member).unwrap();
                let _ = r.vm.release(r.vol_buffer, freed);
            }
            let loc = r.store.get(*member).unwrap().burned.unwrap();
            let media = r.registry.disc_mut(loc.disc).unwrap();
            assert!(media.rot_bytes(member.0, 4) > 0);
        }
        let report = r.audit_sample(64);
        assert!(!report.rotted.is_empty());
        assert!(
            !report.unrepairable.is_empty(),
            "rot beyond parity tolerance must escalate, not vanish"
        );
        assert!(report.repaired.is_empty());
        let expect = AuditReport {
            sampled: 2,
            verified: 0,
            rotted: vec![ImageId(4), ImageId(1)],
            repaired: vec![],
            unrepairable: vec![ImageId(4), ImageId(1)],
            elapsed: SimDuration::from_nanos(2_948_853),
        };
        assert_eq!(report, expect, "as one inspection per image reported");
    }

    #[test]
    fn audit_sampling_is_deterministic() {
        let build = || {
            let data = vec![6u8; 300_000];
            let mut r = burned_system(&data);
            r.inject_fault(&ev(FaultKind::MediaRot { disc: 0, bytes: 2 }));
            r.audit_sample(8)
        };
        assert_eq!(build(), build(), "same history, same audit");
    }

    #[test]
    fn scheduled_scrub_runs_the_audit() {
        let mut cfg = RosConfig::tiny();
        cfg.scrub_interval = Some(SimDuration::from_secs(3600));
        let mut r = Ros::new(cfg);
        let data = vec![7u8; 400_000];
        r.write_file(&p("/audit/g"), data.to_vec()).unwrap();
        r.flush().unwrap();
        r.evict_burned_copies();
        r.unload_all_bays().unwrap();
        assert_eq!(
            r.inject_fault(&ev(FaultKind::MediaRot { disc: 0, bytes: 4 })),
            InjectionOutcome::Injected
        );
        r.run_for(SimDuration::from_secs(2 * 3600));
        // The window covers two ticks: the first audit repairs the rot,
        // the second verifies a healthy library — so check the
        // cumulative repair counter, not the last report.
        assert!(r.last_audit_report().is_some(), "audit rode the scrub tick");
        assert!(
            r.counters().latent_repairs >= 1,
            "scheduled audit healed the rot"
        );
        let read = r.read_file(&p("/audit/g")).unwrap();
        assert_eq!(read.data.as_ref(), data.as_slice());
    }

    #[test]
    fn audit_on_healthy_library_verifies_everything() {
        let mut r = burned_system(&[8u8; 200_000]);
        let report = r.audit_sample(64);
        assert_eq!(report.sampled, report.verified);
        assert!(report.rotted.is_empty());
        assert!(report.repaired.is_empty());
        assert!(r.verify_consistency().is_empty());
    }
}
