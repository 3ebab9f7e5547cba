//! Optical media: discs, tracks and payloads.
//!
//! A burned disc carries a sequence of *tracks*, each holding one disc
//! image (§2.1: "the drive can write multiple data tracks into a disc,
//! with each track representing an independent disc image"). The preferred
//! write-all-once mode burns a single track spanning the whole disc;
//! pseudo-overwrite appends further tracks at the cost of a metadata zone
//! each.
//!
//! Payloads can be *inline* (real bytes — used by OLFS at test scale so
//! data integrity is verified end to end) or *synthetic* (a size only —
//! used by the PB-scale benchmarks where holding 25 GB of real bytes per
//! disc is pointless).

use crate::params;
use bytes::{Bytes, Parts};
use ros_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Disc capacity class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscClass {
    /// Single-layer 25 GB BD-R.
    Bd25,
    /// Triple-layer 100 GB BDXL.
    Bd100,
    /// Scaled-down disc for tests and examples.
    Custom {
        /// Capacity in bytes (must be sector-aligned).
        capacity: u64,
    },
}

impl DiscClass {
    /// Returns the formatted capacity in bytes.
    pub fn capacity(self) -> u64 {
        match self {
            DiscClass::Bd25 => params::BD25_BYTES,
            DiscClass::Bd100 => params::BD100_BYTES,
            DiscClass::Custom { capacity } => capacity,
        }
    }

    /// Returns the number of logical sectors.
    pub(crate) fn sectors(self) -> u64 {
        self.capacity() / params::SECTOR_BYTES
    }
}

/// Write-once vs rewritable media (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MediaKind {
    /// Write-once-read-multiple; burned areas can never be rewritten.
    Worm,
    /// Rewritable (§2.1: burns at 2X).
    Rewritable,
}

/// The content of one track: an image id plus its payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Track {
    /// Identifier of the disc image this track carries (assigned by OLFS).
    pub(crate) image_id: u64,
    /// The image payload.
    pub(crate) payload: Payload,
    /// First sector of the track's data area on the disc.
    pub start_sector: u64,
}

impl Track {
    /// The payload: the image's bytes, or only its size.
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Returns the payload size in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.payload.len()
    }

    /// Returns the sector range `[start, end)` occupied by the data area.
    pub fn sector_range(&self) -> (u64, u64) {
        let sectors = self.len().div_ceil(params::SECTOR_BYTES);
        (self.start_sector, self.start_sector + sectors)
    }
}

/// Image payload: real bytes or a synthetic size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Real bytes, checked end to end against their CAS digest: the
    /// image's pieces as it was sealed, burned as they are.
    Inline(Parts),
    /// Size only, for PB-scale benchmarks.
    Synthetic {
        /// Payload size in bytes.
        size: u64,
    },
}

impl Payload {
    /// Wraps real bytes, in one piece or many.
    pub fn inline(data: impl Into<Parts>) -> Self {
        Payload::Inline(data.into())
    }

    /// Creates a synthetic payload of `size` bytes.
    pub fn synthetic(size: u64) -> Self {
        Payload::Synthetic { size }
    }

    /// Returns the payload size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.len() as u64,
            Payload::Synthetic { size } => *size,
        }
    }

    /// Returns true for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Errors from media operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MediaError {
    /// The payload (plus metadata zone) exceeds the remaining capacity.
    CapacityExceeded {
        /// Bytes requested.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// Write-all-once burn attempted on a non-blank disc.
    NotBlank,
    /// The disc is finalized; no further tracks may be appended.
    Finalized,
    /// The requested image is not on this disc.
    NoSuchImage(u64),
    /// Sectors within the requested track are unreadable.
    SectorErrors {
        /// Image whose track is damaged.
        image_id: u64,
        /// Corrupted sector indices within the track's range.
        bad_sectors: Vec<u64>,
    },
}

impl core::fmt::Display for MediaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MediaError::CapacityExceeded {
                requested,
                available,
            } => write!(f, "capacity exceeded: need {requested}, have {available}"),
            MediaError::NotBlank => write!(f, "write-all-once requires a blank disc"),
            MediaError::Finalized => write!(f, "disc is finalized"),
            MediaError::NoSuchImage(id) => write!(f, "image {id} not on disc"),
            MediaError::SectorErrors {
                image_id,
                bad_sectors,
            } => write!(
                f,
                "image {image_id} has {} unreadable sectors",
                bad_sectors.len()
            ),
        }
    }
}

impl std::error::Error for MediaError {}

/// One optical disc.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Disc {
    /// Stable identifier assigned by the library.
    pub id: u64,
    class: DiscClass,
    kind: MediaKind,
    tracks: Vec<Track>,
    /// Sectors consumed so far (data + metadata zones).
    burned_sectors: u64,
    finalized: bool,
    /// Corrupted (unreadable) absolute sector indices.
    corrupted: BTreeSet<u64>,
    /// Bytes silently flipped by latent media decay (see
    /// [`Disc::rot_bytes`]); absent in older serialized discs.
    #[serde(default)]
    rotted_bytes: u64,
}

impl Disc {
    /// Creates a blank disc.
    pub fn blank(id: u64, class: DiscClass, kind: MediaKind) -> Self {
        Disc {
            id,
            class,
            kind,
            tracks: Vec::new(),
            burned_sectors: 0,
            finalized: false,
            corrupted: BTreeSet::new(),
            rotted_bytes: 0,
        }
    }

    /// Returns the capacity class.
    pub(crate) fn class(&self) -> DiscClass {
        self.class
    }

    /// Returns true if nothing has been burned.
    pub fn is_blank(&self) -> bool {
        self.tracks.is_empty() && self.burned_sectors == 0
    }

    /// Returns the burned tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Returns the remaining unburned capacity in bytes.
    pub(crate) fn free_bytes(&self) -> u64 {
        (self.class.sectors() - self.burned_sectors) * params::SECTOR_BYTES
    }

    /// Burns a whole image as the disc's single track and finalizes it —
    /// the preferred write-all-once mode (§2.1).
    pub fn burn_all_once(&mut self, image_id: u64, payload: Payload) -> Result<(), MediaError> {
        if !self.is_blank() {
            return Err(MediaError::NotBlank);
        }
        let need = payload.len();
        if need > self.free_bytes() {
            return Err(MediaError::CapacityExceeded {
                requested: need,
                available: self.free_bytes(),
            });
        }
        let sectors = need.div_ceil(params::SECTOR_BYTES);
        self.tracks.push(Track {
            image_id,
            payload,
            start_sector: 0,
        });
        self.burned_sectors = sectors;
        self.finalized = true;
        Ok(())
    }

    /// Appends an image as a new track in pseudo-overwrite mode, paying a
    /// metadata-zone overhead (§2.1). The disc stays open for more tracks.
    pub fn burn_track(&mut self, image_id: u64, payload: Payload) -> Result<(), MediaError> {
        if self.finalized {
            return Err(MediaError::Finalized);
        }
        let meta_sectors = params::TRACK_METADATA_BYTES / params::SECTOR_BYTES;
        let data_sectors = payload.len().div_ceil(params::SECTOR_BYTES);
        let need = (meta_sectors + data_sectors) * params::SECTOR_BYTES;
        if need > self.free_bytes() {
            return Err(MediaError::CapacityExceeded {
                requested: need,
                available: self.free_bytes(),
            });
        }
        let start_sector = self.burned_sectors + meta_sectors;
        self.tracks.push(Track {
            image_id,
            payload,
            start_sector,
        });
        self.burned_sectors += meta_sectors + data_sectors;
        Ok(())
    }

    /// Lets go of every track's bytes, keeping the track table: each
    /// track's image id, start sector and length (as a
    /// [`Payload::Synthetic`] of its size), the damage map and the rot
    /// count. What the disc occupies, where a fault lands and what a rot
    /// strike counts stay as they were; only reads of real bytes end.
    /// For a retired disc that nothing reads again.
    pub fn forget_bytes(&mut self) {
        for track in &mut self.tracks {
            track.payload = Payload::synthetic(track.len());
        }
    }

    /// Looks up the track carrying `image_id`.
    pub fn find_track(&self, image_id: u64) -> Option<&Track> {
        self.tracks.iter().find(|t| t.image_id == image_id)
    }

    /// Reads the payload of `image_id`, failing if any of its sectors are
    /// corrupted.
    pub fn read_image(&self, image_id: u64) -> Result<&Payload, MediaError> {
        let track = self
            .find_track(image_id)
            .ok_or(MediaError::NoSuchImage(image_id))?;
        let (start, end) = track.sector_range();
        let bad: Vec<u64> = self.corrupted.range(start..end).copied().collect();
        if bad.is_empty() {
            Ok(&track.payload)
        } else {
            Err(MediaError::SectorErrors {
                image_id,
                bad_sectors: bad,
            })
        }
    }

    /// Reads the payload of `image_id` tolerating damage: returns the
    /// raw payload plus the *track-relative* indices of unreadable
    /// sectors. The bytes at damaged sectors must be treated as garbage;
    /// OLFS reconstructs them through array parity (§4.7).
    pub fn read_image_raw(&self, image_id: u64) -> Result<(&Payload, Vec<u64>), MediaError> {
        let track = self
            .find_track(image_id)
            .ok_or(MediaError::NoSuchImage(image_id))?;
        let (start, end) = track.sector_range();
        let bad: Vec<u64> = self
            .corrupted
            .range(start..end)
            .map(|s| s - start)
            .collect();
        Ok((&track.payload, bad))
    }

    /// Marks a sector unreadable (fault injection / media ageing).
    pub fn corrupt_sector(&mut self, sector: u64) {
        self.corrupted.insert(sector);
    }

    /// Silently flips up to `count` payload bytes of one burned track —
    /// *latent* sector rot. Unlike [`Disc::corrupt_sector`], no sector
    /// is marked unreadable: reads still succeed and hand back wrong
    /// bytes, the damage map stays clean, and only an end-to-end content
    /// digest (the CAS audit) can detect the damage. `selector` picks
    /// the victim track and byte offsets deterministically. Returns the
    /// number of bytes actually flipped (0 on a blank disc).
    pub fn rot_bytes(&mut self, selector: u64, count: u32) -> usize {
        if self.tracks.is_empty() || count == 0 {
            return 0;
        }
        let tidx = usize::try_from(selector % self.tracks.len() as u64).unwrap_or(0);
        // Mix the cumulative rot count into the strike so repeated
        // strikes with the same selector damage *new* positions instead
        // of XOR-restoring the old ones — aging accumulates.
        let salt = self.rotted_bytes;
        let track = &mut self.tracks[tidx];
        let flipped = match &mut track.payload {
            Payload::Inline(bytes) => {
                if bytes.is_empty() {
                    return 0;
                }
                let len = bytes.len();
                let start = selector
                    .wrapping_add(salt)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    % len as u64;
                let start = usize::try_from(start).unwrap_or(0);
                let n = usize::try_from(count).unwrap_or(usize::MAX).min(len);
                // The strike flips `start..start + n`, wrapping past the
                // end at most once; only the flipped bytes are copied,
                // and the rest of the track stays a view of its pieces.
                let wrapped = (start + n).saturating_sub(len);
                let flip = |at: usize, n: usize| {
                    let mut run = vec![0u8; n];
                    bytes.copy_to_slice(at, &mut run);
                    run.iter_mut().for_each(|b| *b ^= 0xA5);
                    (at, Bytes::from(run))
                };
                let patches = [flip(0, wrapped), flip(start, n - wrapped)];
                *bytes = bytes.patched(patches);
                n
            }
            // No real bytes to flip; the strike is only counted.
            Payload::Synthetic { size } => {
                if *size == 0 {
                    return 0;
                }
                usize::try_from(u64::from(count).min(*size)).unwrap_or(usize::MAX)
            }
        };
        self.rotted_bytes += flipped as u64;
        flipped
    }

    /// Returns the number of corrupted sectors.
    pub fn corrupted_sectors(&self) -> usize {
        self.corrupted.len()
    }

    /// Ages the disc: each burned sector independently fails with
    /// probability `rate`. Returns how many new failures appeared.
    ///
    /// The nominal archival rate is about 10^-16 (§4.7); tests
    /// use elevated rates to exercise the recovery path.
    pub fn age(&mut self, rate: f64, rng: &mut SimRng) -> usize {
        if rate <= 0.0 || self.burned_sectors == 0 {
            return 0;
        }
        // Sample the number of failures from the binomial's Poisson
        // approximation to avoid iterating 10^7 sectors.
        let expected = rate * self.burned_sectors as f64;
        let mut failures = 0usize;
        let mut acc = rng.exponential(1.0);
        while acc < expected {
            failures += 1;
            acc += rng.exponential(1.0);
        }
        for _ in 0..failures {
            let s = rng.range_u64(0, self.burned_sectors);
            self.corrupted.insert(s);
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Pieces;
    use ros_sim::fnv1a;

    fn small() -> DiscClass {
        DiscClass::Custom {
            capacity: 256 * params::SECTOR_BYTES,
        }
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b"ros"), fnv1a(b"ros"));
    }

    #[test]
    fn class_capacities() {
        assert_eq!(DiscClass::Bd25.capacity(), params::BD25_BYTES);
        assert_eq!(DiscClass::Bd100.capacity(), params::BD100_BYTES);
        assert_eq!(small().capacity(), 256 * 2048);
        assert_eq!(small().sectors(), 256);
    }

    #[test]
    fn write_all_once_roundtrip() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        let data = Bytes::from(vec![7u8; 4096]);
        d.burn_all_once(42, Payload::inline(data.clone())).unwrap();
        assert!(d.finalized);
        assert!(!d.is_blank());
        match d.read_image(42).unwrap() {
            Payload::Inline(b) => assert_eq!(b, &data),
            _ => panic!("expected inline payload"),
        }
        assert_eq!(d.read_image(9).unwrap_err(), MediaError::NoSuchImage(9));
    }

    #[test]
    fn write_all_once_requires_blank() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        d.burn_all_once(1, Payload::synthetic(2048)).unwrap();
        assert_eq!(
            d.burn_all_once(2, Payload::synthetic(2048)).unwrap_err(),
            MediaError::NotBlank
        );
    }

    #[test]
    fn write_all_once_rejects_oversize() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        let err = d
            .burn_all_once(1, Payload::synthetic(small().capacity() + 1))
            .unwrap_err();
        assert!(matches!(err, MediaError::CapacityExceeded { .. }));
        assert!(d.is_blank());
    }

    #[test]
    fn pseudo_overwrite_appends_tracks_with_metadata_cost() {
        // Use a disc big enough for two metadata zones plus data.
        let cap = 2 * params::TRACK_METADATA_BYTES + 64 * params::SECTOR_BYTES;
        let mut d = Disc::blank(1, DiscClass::Custom { capacity: cap }, MediaKind::Worm);
        d.burn_track(1, Payload::synthetic(2048 * 4)).unwrap();
        d.burn_track(2, Payload::synthetic(2048 * 4)).unwrap();
        assert_eq!(d.tracks().len(), 2);
        // Each track consumed its metadata zone.
        let consumed = cap - d.free_bytes();
        assert_eq!(consumed, 2 * (params::TRACK_METADATA_BYTES + 2048 * 4));
        // Third track no longer fits because of metadata overhead.
        let err = d.burn_track(3, Payload::synthetic(2048)).unwrap_err();
        assert!(matches!(err, MediaError::CapacityExceeded { .. }));
        d.finalized = true;
        assert_eq!(
            d.burn_track(4, Payload::synthetic(2048)).unwrap_err(),
            MediaError::Finalized
        );
    }

    #[test]
    fn sector_corruption_is_detected_and_scoped() {
        let cap = 2 * params::TRACK_METADATA_BYTES + 1024 * params::SECTOR_BYTES;
        let mut d = Disc::blank(1, DiscClass::Custom { capacity: cap }, MediaKind::Worm);
        d.burn_track(1, Payload::synthetic(2048 * 8)).unwrap();
        d.burn_track(2, Payload::synthetic(2048 * 8)).unwrap();
        // Corrupt a sector inside track 2 only.
        let t2 = d.find_track(2).unwrap();
        let (s2, _) = t2.sector_range();
        d.corrupt_sector(s2 + 1);
        assert!(d.read_image(1).is_ok());
        match d.read_image(2).unwrap_err() {
            MediaError::SectorErrors {
                image_id,
                bad_sectors,
            } => {
                assert_eq!(image_id, 2);
                assert_eq!(bad_sectors, vec![s2 + 1]);
            }
            e => panic!("unexpected error {e:?}"),
        }
        // The tolerant read reports the same damage, track-relative.
        assert!(d.read_image_raw(1).unwrap().1.is_empty());
        assert_eq!(d.read_image_raw(2).unwrap().1, vec![1]);
    }

    #[test]
    fn latent_rot_is_silent_to_reads_and_the_damage_map() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        let data = Bytes::from(vec![0x11u8; 4096]);
        d.burn_all_once(7, Payload::inline(data.clone())).unwrap();
        let flipped = d.rot_bytes(0xDEAD_BEEF, 3);
        assert_eq!(flipped, 3);
        assert_eq!(d.rotted_bytes, 3);
        // The read still succeeds — no sector-level error — but the
        // bytes are wrong and only a content digest could tell.
        match d.read_image(7).unwrap() {
            Payload::Inline(b) => {
                assert_ne!(b, &data, "rot must change the payload");
                let b = b.to_bytes();
                let diffs = b.iter().zip(data.iter()).filter(|(a, b)| a != b).count();
                assert_eq!(diffs, 3);
            }
            _ => panic!("expected inline payload"),
        }
        assert_eq!(d.corrupted_sectors(), 0);
        assert!(
            d.read_image_raw(7).unwrap().1.is_empty(),
            "the damage map cannot see latent rot"
        );
        // Deterministic: the same selector flips the same offsets.
        let mut e = Disc::blank(2, small(), MediaKind::Worm);
        e.burn_all_once(7, Payload::inline(data)).unwrap();
        e.rot_bytes(0xDEAD_BEEF, 3);
        assert_eq!(d.read_image(7).unwrap(), e.read_image(7).unwrap());
    }

    #[test]
    fn repeated_rot_strikes_accumulate_instead_of_cancelling() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        let data = Bytes::from(vec![0x22u8; 4096]);
        d.burn_all_once(3, Payload::inline(data.clone())).unwrap();
        // Same selector twice: XOR strikes at the same offsets would
        // silently restore the payload; the salt must prevent that.
        d.rot_bytes(0xFEED, 4);
        d.rot_bytes(0xFEED, 4);
        assert_eq!(d.rotted_bytes, 8);
        match d.read_image(3).unwrap() {
            Payload::Inline(b) => {
                let b = b.to_bytes();
                let diffs = b.iter().zip(data.iter()).filter(|(a, b)| a != b).count();
                assert!(diffs > 0, "double strike must not heal the disc");
            }
            _ => panic!("expected inline payload"),
        }
    }

    #[test]
    fn rot_flips_what_a_flat_copy_would_and_copies_only_those_bytes() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(7) >> 1) as u8)
            .collect();
        let original = Bytes::from(data.clone());
        let inside = |p: &[u8]| original.as_ptr_range().contains(&p.as_ptr());
        let mut wraps = 0;
        // One strike; strikes that repeat on one track; the whole track;
        // more than the whole track, then one byte more.
        for (selector, counts) in [
            (1u64, &[3u32][..]),
            (0xDEAD, &[40, 40, 4000]),
            (7, &[5000]),
            (0xFEED, &[6000, 1]),
        ] {
            let mut d = Disc::blank(1, small(), MediaKind::Worm);
            d.burn_all_once(9, Payload::inline(original.clone()))
                .unwrap();
            // The oracle: a flat copy of the track, flipped byte by byte.
            let mut oracle = data.clone();
            let mut struck = 0;
            for &count in counts {
                let start = selector
                    .wrapping_add(d.rotted_bytes)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    % data.len() as u64;
                let (start, n) = (start as usize, (count as usize).min(data.len()));
                wraps += usize::from(start + n > data.len());
                for k in 0..n {
                    oracle[(start + k) % data.len()] ^= 0xA5;
                }
                assert_eq!(d.rot_bytes(selector, count), n);
                struck += n;
                let Payload::Inline(rotted) = d.read_image(9).unwrap() else {
                    panic!("expected inline payload");
                };
                assert_eq!(rotted, &oracle, "selector {selector:#x}, count {count}");
            }
            let Payload::Inline(rotted) = d.read_image(9).unwrap() else {
                panic!("expected inline payload");
            };
            let copied: usize = rotted
                .pieces()
                .filter(|p| !inside(p))
                .map(<[u8]>::len)
                .sum();
            assert!(
                copied <= struck,
                "{copied} bytes copied for {struck} flipped"
            );
            if counts.len() == 1 {
                assert_eq!(copied, struck, "every other byte is a view");
            }
        }
        assert!(wraps >= 2, "some strikes wrap past the end");
    }

    #[test]
    fn latent_rot_on_a_synthetic_track_is_counted() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        d.burn_all_once(1, Payload::synthetic(2048)).unwrap();
        // No bytes to flip, but the strike counts as it would on real
        // bytes, so fault outcomes do not depend on the payload kind.
        assert_eq!(d.rot_bytes(5, 2), 2);
        assert_eq!(d.rot_bytes(5, 4096), 2048, "capped at the payload size");
        assert_eq!(d.rotted_bytes, 2050);
        assert!(d.read_image_raw(1).unwrap().1.is_empty());
        // Blank discs have nothing to rot.
        let mut blank = Disc::blank(2, small(), MediaKind::Worm);
        assert_eq!(blank.rot_bytes(5, 2), 0);
    }

    #[test]
    fn a_disc_that_forgets_its_bytes_keeps_its_track_table() {
        let cap = 2 * params::TRACK_METADATA_BYTES + 64 * params::SECTOR_BYTES;
        let mut d = Disc::blank(1, DiscClass::Custom { capacity: cap }, MediaKind::Worm);
        d.burn_track(1, Payload::inline(vec![3u8; 5000])).unwrap();
        d.burn_track(2, Payload::inline(vec![4u8; 2048])).unwrap();
        let (start, _) = d.find_track(2).unwrap().sector_range();
        d.corrupt_sector(start);
        assert_eq!(d.rot_bytes(0, 3), 3);
        let before = d.clone();
        d.forget_bytes();
        for (kept, was) in d.tracks().iter().zip(before.tracks()) {
            assert_eq!(kept.payload, Payload::synthetic(was.len()));
            assert_eq!(
                (kept.image_id, kept.sector_range()),
                (was.image_id, was.sector_range())
            );
        }
        assert_eq!(d.free_bytes(), before.free_bytes());
        assert_eq!(d.read_image_raw(2).unwrap().1, [0]);
        assert_eq!((d.rotted_bytes, d.corrupted_sectors()), (3, 1));
        // A later strike counts as it would have on the bytes.
        let mut kept_bytes = before;
        assert_eq!(d.rot_bytes(1, 9), kept_bytes.rot_bytes(1, 9));
    }

    #[test]
    fn ageing_at_nominal_rate_is_harmless() {
        let mut d = Disc::blank(1, DiscClass::Bd25, MediaKind::Worm);
        d.burn_all_once(1, Payload::synthetic(params::BD25_BYTES))
            .unwrap();
        let mut rng = SimRng::seed_from(1);
        // 10^-16 per sector: even a thousand years of scans find nothing.
        let failures = d.age(1e-16, &mut rng);
        assert_eq!(failures, 0);
    }

    #[test]
    fn ageing_at_elevated_rate_corrupts() {
        let mut d = Disc::blank(1, small(), MediaKind::Worm);
        d.burn_all_once(1, Payload::synthetic(small().capacity()))
            .unwrap();
        let mut rng = SimRng::seed_from(2);
        let failures = d.age(0.05, &mut rng);
        assert!(failures > 0);
        assert!(!d.read_image_raw(1).unwrap().1.is_empty());
    }

    #[test]
    fn payload_lengths() {
        let p = Payload::inline(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        let s = Payload::synthetic(100);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        assert!(Payload::inline(Vec::new()).is_empty());
    }
}
