//! The Read Cache (RC) — the disk buffer's copies of disc images (§4.1).
//!
//! "Considering that recently and frequently read data are likely to be
//! used again according to data life cycles, Read Cache (RC) retains some
//! recently used disc images according to a LRU algorithms... The current
//! design of OLFS only considers a disc image as a cache unit,
//! sufficiently exploiting spatial locality."
//!
//! The RC keeps no record of its own. An image is resident while the
//! image store holds its payload ([`crate::dim::ImageInfo::on_disk`]); it is pinned
//! while it is unburned, because its buffer copy is then the only copy;
//! and its recency is [`crate::dim::ImageInfo::used_at`], stamped at seal, at restore
//! and on each read hit. The buffer volume's bytes are the one budget:
//! every allocation on it goes through [`Ros::reserve_buffer`], which
//! makes room by dropping burned copies least recently used first.

use crate::engine::Ros;
use crate::error::OlfsError;
use crate::ids::ImageId;

/// Read-cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served by an image resident on the disk buffer.
    pub hits: u64,
    /// Reads that fetched their image from disc.
    pub misses: u64,
    /// Burned copies dropped to make room for an allocation.
    pub evictions: u64,
}

impl Ros {
    /// Reserves `bytes` on the disk buffer: the one allocation on the
    /// buffer volume (seal, parity, restore). When the volume cannot hold
    /// them, burned copies — data and parity — are dropped least recently
    /// used first, ties broken by id, until it can. When dropping every
    /// burned copy would still not make room, nothing is dropped and the
    /// reservation fails with [`OlfsError::BufferFull`].
    pub(crate) fn reserve_buffer(&mut self, bytes: u64) -> Result<(), OlfsError> {
        let (used, capacity) = self.vm.usage(self.vol_buffer)?;
        let mut free = capacity.saturating_sub(used);
        if bytes > free {
            let mut burned: Vec<_> = self
                .store
                .images()
                .filter(|i| i.burned.is_some())
                .filter_map(|i| Some((i.used_at, i.id, i.payload.as_ref()?.len() as u64)))
                .collect();
            if free + burned.iter().map(|&(.., len)| len).sum::<u64>() < bytes {
                return Err(OlfsError::BufferFull);
            }
            burned.sort_unstable();
            for (_, id, len) in burned {
                if free >= bytes {
                    break;
                }
                self.drop_buffer_copy(id)?;
                self.cache.evictions += 1;
                free += len;
            }
        }
        self.vm.allocate(self.vol_buffer, bytes)?;
        Ok(())
    }

    /// Drops a burned image's buffer copy and releases its bytes; an
    /// unburned image is refused ([`crate::dim::ImageStore::evict_disk_copy`]).
    pub(crate) fn drop_buffer_copy(&mut self, id: ImageId) -> Result<(), OlfsError> {
        let freed = self.store.evict_disk_copy(id)?;
        self.vm.release(self.vol_buffer, freed)?;
        Ok(())
    }

    /// Bytes of every image copy on the disk buffer: what the buffer
    /// volume's use must equal (consistency check 8).
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.store
            .images()
            .filter_map(|i| i.payload.as_ref())
            .map(|p| p.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::RosConfig;
    use crate::dim::{GroupState, ImageKind};
    use crate::engine::Ros;
    use crate::error::OlfsError;
    use crate::ids::ImageId;
    use ros_udf::UdfPath;

    /// A file this size, sealed on its own, is most of a tiny rack's
    /// image.
    const IMAGE_FILE: usize = 3_000_000;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    /// A tiny rack with `files` files burned, one image each, and its
    /// array back on the roller; the buffer still holds every burned data
    /// and parity copy.
    fn burned(files: u8) -> Ros {
        let mut r = Ros::new(RosConfig::tiny());
        for i in 0..files {
            r.write_file(&p(&format!("/c/{i}")), vec![i; IMAGE_FILE])
                .unwrap();
            r.seal_open_buckets().unwrap();
        }
        r.flush().unwrap();
        r.unload_all_bays().unwrap();
        r
    }

    fn image_of(r: &Ros, path: &str) -> ImageId {
        r.image_segments(&p(path)).unwrap()[0]
    }

    fn resident(r: &Ros, id: ImageId) -> bool {
        r.store.get(id).unwrap().on_disk()
    }

    /// Fills the buffer volume until exactly `left` bytes are free.
    fn fill_leaving(r: &mut Ros, left: u64) {
        let (used, capacity) = r.status().buffer_usage;
        r.vm.allocate(r.vol_buffer, capacity - used - left).unwrap();
    }

    fn burned_copies(r: &Ros) -> Vec<ImageId> {
        r.store
            .images()
            .filter(|i| i.burned.is_some() && i.on_disk())
            .map(|i| i.id)
            .collect()
    }

    #[test]
    fn every_resident_data_image_is_cached_and_its_bytes_charged() {
        let mut r = Ros::new(RosConfig::tiny());
        for i in 0..40u8 {
            r.write_file(&p(&format!("/p1/{i}")), vec![i; 700_000])
                .unwrap();
        }
        r.flush().unwrap();
        r.evict_all_burned_copies();
        r.unload_all_bays().unwrap();
        for i in 0..40u8 {
            let read = r.read_file(&p(&format!("/p1/{i}"))).unwrap();
            assert_eq!(read.data.as_ref(), &[i; 700_000][..]);
        }
        let resident: Vec<(ImageKind, u64)> = r
            .store
            .images()
            .filter_map(|i| Some((i.kind, i.payload.as_ref()?.len() as u64)))
            .collect();
        assert!(resident.len() > 4, "{resident:?}");
        assert!(resident.iter().all(|&(kind, _)| kind == ImageKind::Data));
        let status = r.status();
        assert_eq!(status.cached_images, resident.len());
        assert_eq!(
            status.buffer_usage.0,
            resident.iter().map(|&(_, len)| len).sum::<u64>()
        );
        assert!(r.verify_consistency().is_empty());
    }

    #[test]
    fn pressure_drops_the_least_recently_read_burned_copy_first() {
        let mut r = burned(3);
        r.evict_all_burned_copies();
        // Fetch all three back, then read the first again: the second is
        // now the least recently used.
        for i in [0, 1, 2, 0] {
            r.read_file(&p(&format!("/c/{i}"))).unwrap();
        }
        let [first, second, third] = [0, 1, 2].map(|i| image_of(&r, &format!("/c/{i}")));
        let need = r.store.get(second).unwrap().size;
        fill_leaving(&mut r, need - 1);
        r.reserve_buffer(need).unwrap();
        assert!(!resident(&r, second), "the least recently read copy goes");
        assert!(resident(&r, first) && resident(&r, third));
        assert_eq!(r.cache_stats().evictions, 1);
    }

    #[test]
    fn pressure_never_drops_an_unburned_image() {
        let mut r = burned(2);
        r.write_file(&p("/u/late"), vec![9; IMAGE_FILE]).unwrap();
        r.seal_open_buckets().unwrap();
        let late = image_of(&r, "/u/late");
        assert!(r.store.get(late).unwrap().burned.is_none());
        let burned = burned_copies(&r);
        let burned_bytes: u64 = burned.iter().map(|&id| r.store.get(id).unwrap().size).sum();
        fill_leaving(&mut r, 0);
        // More than every burned copy frees: refused, nothing dropped.
        assert_eq!(
            r.reserve_buffer(burned_bytes + 1),
            Err(OlfsError::BufferFull)
        );
        assert_eq!(burned_copies(&r), burned);
        // Exactly what they free: every burned copy goes, the unburned
        // image stays.
        r.reserve_buffer(burned_bytes).unwrap();
        assert!(burned_copies(&r).is_empty());
        assert!(resident(&r, late));
    }

    #[test]
    fn a_buffer_of_unburned_images_only_is_full() {
        let mut r = Ros::new(RosConfig::tiny());
        r.write_file(&p("/u/a"), vec![1; IMAGE_FILE]).unwrap();
        r.write_file(&p("/u/b"), vec![2; IMAGE_FILE]).unwrap();
        r.seal_open_buckets().unwrap();
        let unburned: Vec<ImageId> = r
            .store
            .images()
            .filter(|i| i.kind == ImageKind::Data)
            .map(|i| i.id)
            .collect();
        assert_eq!(unburned.len(), 2);
        assert!(r.store.images().all(|i| i.burned.is_none()));
        fill_leaving(&mut r, 0);
        let used = r.status().buffer_usage.0;
        assert_eq!(r.reserve_buffer(1), Err(OlfsError::BufferFull));
        assert!(unburned.iter().all(|&id| resident(&r, id)));
        assert_eq!(r.status().buffer_usage.0, used);
    }

    #[test]
    fn a_seal_the_buffer_cannot_hold_keeps_its_files_in_the_open_bucket() {
        let mut r = Ros::new(RosConfig::tiny());
        r.write_file(&p("/s/a"), vec![1; 700_000]).unwrap();
        fill_leaving(&mut r, 0);
        assert_eq!(r.seal_open_buckets(), Err(OlfsError::BufferFull));
        let read = r.read_file(&p("/s/a")).unwrap();
        assert_eq!(read.data.as_ref(), &[1; 700_000][..]);
        assert_eq!(read.source, crate::engine::ReadSource::DiskBucket);
    }

    /// A split write whose seal the buffer cannot hold takes its prefix
    /// back out of the bucket. Left staged, the prefix was sealed later
    /// under the file's name, and a disc scan read it over the file's
    /// rewrite.
    #[test]
    fn a_write_whose_seal_fails_leaves_the_buckets_as_it_found_them() {
        let mut r = Ros::new(RosConfig::tiny());
        let file = |tag: u8| vec![tag; IMAGE_FILE];
        r.write_file(&p("/w/a"), file(1)).unwrap();
        r.write_file(&p("/w/b"), file(2)).unwrap();
        let staged = |r: &Ros| -> Vec<u64> {
            (0..r.wbm.len())
                .map(|i| r.wbm.bucket(i).unwrap().used_bytes())
                .collect()
        };
        let found = staged(&r);
        let (used, _) = r.status().buffer_usage;
        fill_leaving(&mut r, 0);
        let filled = r.status().buffer_usage.0 - used;
        assert_eq!(
            r.write_file(&p("/w/c"), file(3)).unwrap_err(),
            OlfsError::BufferFull
        );
        assert_eq!(staged(&r), found);
        r.vm.release(r.vol_buffer, filled).unwrap();
        r.write_file(&p("/w/c"), file(3)).unwrap();
        r.flush().unwrap();
        r.recover(crate::recovery::MvSource::DiscScan).unwrap();
        for (path, tag) in [("/w/a", 1), ("/w/b", 2), ("/w/c", 3)] {
            let read = r.read_file(&p(path)).unwrap();
            assert_eq!(read.data.as_ref(), file(tag).as_slice(), "{path}");
        }
    }

    /// A parity the buffer cannot hold is not registered uncharged: its
    /// group waits, counted as parity pending, until a burn makes burned
    /// copies evictable, and then burns with its parity charged.
    #[test]
    fn a_parity_the_buffer_cannot_hold_waits_for_a_burn() {
        let mut r = Ros::new(RosConfig::tiny());
        for i in 0..11u8 {
            r.write_file(&p(&format!("/q/{i}")), vec![i; IMAGE_FILE])
                .unwrap();
            r.seal_open_buckets().unwrap();
        }
        let (used, _) = r.status().buffer_usage;
        fill_leaving(&mut r, 0);
        let filled = r.status().buffer_usage.0 - used;
        r.run_for(ros_sim::SimDuration::from_secs(3600));
        r.vm.release(r.vol_buffer, filled).unwrap();
        assert_eq!(r.verify_consistency(), []);
        assert_eq!(r.group_census(), (0, 1, 0, 0, 0));
        assert_eq!(r.pending_work(), (0, 0, 1, 0));
        assert_eq!(r.counters().parity_runs, 0);
        // With the filler gone but no burn to wait on, a flush does not
        // quiesce.
        assert!(matches!(r.flush(), Err(OlfsError::BadState(_))));
        assert_eq!(r.verify_consistency(), []);
        // A second group's burn completes; the waiting group follows.
        r.write_file(&p("/q/late"), vec![11; IMAGE_FILE]).unwrap();
        r.flush().unwrap();
        assert_eq!(r.verify_consistency(), []);
        assert_eq!(r.group_census(), (0, 0, 0, 0, 2));
        let first = r.store.get(image_of(&r, "/q/0")).unwrap().array.unwrap();
        let parity = r.store.group(first).unwrap().parity.clone();
        assert_eq!(parity.len(), 1);
        assert!(resident(&r, parity[0]), "the parity copy is charged");
        for i in 0..11u8 {
            let read = r.read_file(&p(&format!("/q/{i}"))).unwrap();
            assert_eq!(read.data.as_ref(), vec![i; IMAGE_FILE].as_slice());
        }
    }

    /// A rewrite releases its old parity's buffer bytes, and a parity
    /// waiting for room gets its try there and then: it leaves
    /// `AwaitingBuffer` before any burn completes.
    #[test]
    fn a_waiting_parity_takes_the_room_a_rewrite_releases() {
        let mut r = Ros::new(RosConfig::tiny());
        // A burned array of one small image, whose copies (data and
        // parity) free far less than a 3 MB parity needs.
        r.write_file(&p("/r/small"), vec![7; 10_000]).unwrap();
        r.flush().unwrap();
        let rewritten = r
            .store
            .get(image_of(&r, "/r/small"))
            .unwrap()
            .array
            .unwrap();
        let old_parity: u64 = r
            .store
            .group(rewritten)
            .unwrap()
            .parity
            .iter()
            .map(|&id| r.store.get(id).unwrap().payload.as_ref().unwrap().len() as u64)
            .sum();
        assert!(old_parity > 0);
        for i in 0..11u8 {
            r.write_file(&p(&format!("/q/{i}")), vec![i; IMAGE_FILE])
                .unwrap();
            r.seal_open_buckets().unwrap();
        }
        let (used, _) = r.status().buffer_usage;
        fill_leaving(&mut r, 0);
        let filled = r.status().buffer_usage.0 - used;
        r.run_for(ros_sim::SimDuration::from_secs(3600));
        let waiting = r.store.get(image_of(&r, "/q/0")).unwrap().array.unwrap();
        let state = |r: &Ros| r.store.group(waiting).unwrap().state;
        assert_eq!(state(&r), GroupState::AwaitingBuffer);
        let need = r
            .store
            .group(waiting)
            .unwrap()
            .data
            .iter()
            .map(|&id| r.store.get(id).unwrap().payload.as_ref().unwrap().len() as u64)
            .max()
            .unwrap();
        // All the room but what the rewrite will release; a release
        // outside the engine wakes nothing.
        r.vm.release(r.vol_buffer, need - old_parity).unwrap();
        let burns = r.counters().burns;
        r.rewrite_array(rewritten, r.now(), None).unwrap();
        assert_eq!(
            state(&r),
            GroupState::ParityPending,
            "the wait outlived the release"
        );
        assert_eq!(r.counters().burns, burns, "no burn completed");
        r.vm.release(r.vol_buffer, filled - (need - old_parity))
            .unwrap();
        r.flush().unwrap();
        assert_eq!(r.verify_consistency(), []);
        assert_eq!(state(&r), GroupState::Burned);
        for i in 0..11u8 {
            let read = r.read_file(&p(&format!("/q/{i}"))).unwrap();
            assert_eq!(read.data.as_ref(), vec![i; IMAGE_FILE].as_slice());
        }
    }

    #[test]
    fn evictions_count_each_copy_pressure_drops() {
        let mut r = burned(4);
        let copies = burned_copies(&r).len() as u64;
        assert!(copies >= 5, "four data copies and a parity copy: {copies}");
        fill_leaving(&mut r, 0);
        let all = r.resident_bytes();
        r.reserve_buffer(all).unwrap();
        assert_eq!(r.cache_stats().evictions, copies);
        // The maintenance sweep drops copies too, but not for pressure.
        let mut r = burned(4);
        assert_eq!(r.evict_all_burned_copies() as u64, copies);
        assert_eq!(r.cache_stats().evictions, 0);
    }
}
