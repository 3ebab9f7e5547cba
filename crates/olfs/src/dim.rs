//! Disc Image Management (DIM): the image store, DAindex and DILindex.
//!
//! §4.1: "OLFS defines a disc array index DAindex to maintain the state of
//! each disc array in one of the three states, 'Empty', 'Used', 'Failed'...
//! OLFS also uses a disc image location index DILindex to record each disc
//! image identifier and its own physical location."
//!
//! The store tracks every image through its life: sealed on the disk
//! buffer → grouped into a disc array → parity generated → burned → (disk
//! copy evicted or retained by the read cache). The physical discs
//! themselves live in the [`DiscRegistry`].

use crate::error::OlfsError;
use crate::ids::{ArrayId, DiscId, ImageId};
use bytes::Bytes;
use ros_cas::{content_digest, Digest, Verified};
use ros_disk::plane::DataPlane;
use ros_drive::media::{Disc, DiscClass, MediaKind};
use ros_mech::{RackLayout, SlotAddress};
use ros_udf::SealedImage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Disc-array state in the DAindex (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DaState {
    /// The tray holds blank discs.
    Empty,
    /// The tray's discs carry burned data.
    Used,
    /// A burn to this tray failed; its discs are suspect.
    Failed,
}

/// A burned image's physical location (a DILindex entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscLocation {
    /// The disc carrying the image.
    pub disc: DiscId,
    /// The tray the disc belongs to.
    pub slot: SlotAddress,
    /// Position within the tray (0 = bottom).
    pub position: u32,
}

/// Data vs parity image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImageKind {
    /// A UDF image holding files.
    Data,
    /// A parity payload (not a UDF volume, §4.7).
    Parity,
}

/// Lifecycle of a disc-array group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupState {
    /// Accumulating data images.
    Collecting,
    /// All data images present; parity generation scheduled/underway.
    ParityPending,
    /// Parity done; waiting for drives and an empty tray.
    ReadyToBurn,
    /// Burn in progress.
    Burning,
    /// On disc.
    Burned,
}

/// One disc-array group: the images burned together onto one tray.
#[derive(Clone, Debug)]
pub struct ArrayGroup {
    /// Group id.
    pub id: ArrayId,
    /// Data image ids in tray order.
    pub data: Vec<ImageId>,
    /// Parity image ids (0-2).
    pub parity: Vec<ImageId>,
    /// Lifecycle state.
    pub state: GroupState,
    /// Tray assigned at burn time.
    pub slot: Option<SlotAddress>,
}

/// One image's bookkeeping record.
#[derive(Clone, Debug)]
pub struct ImageInfo {
    /// The image id.
    pub id: ImageId,
    /// Data or parity.
    pub kind: ImageKind,
    /// Payload size in bytes.
    pub size: u64,
    /// 256-bit `ros-cas` content digest of the payload; every restore
    /// from disc re-verifies against it.
    pub digest: Digest,
    /// Parsed image while a disk copy exists (data images only),
    /// refcounted so readers share one parse instead of deep-cloning.
    pub sealed: Option<Arc<SealedImage>>,
    /// Raw payload while a disk copy exists.
    pub payload: Option<Bytes>,
    /// Physical location once burned.
    pub burned: Option<DiscLocation>,
    /// Owning array group.
    pub array: Option<ArrayId>,
}

impl ImageInfo {
    /// Returns true while a copy exists on the disk tier.
    pub fn on_disk(&self) -> bool {
        self.payload.is_some()
    }
}

/// The image store plus DAindex/DILindex.
#[derive(Debug, Default)]
pub struct ImageStore {
    images: BTreeMap<ImageId, ImageInfo>,
    groups: BTreeMap<ArrayId, ArrayGroup>,
    next_image: u64,
    next_group: u64,
    /// DAindex keyed by dense slot index.
    da_index: BTreeMap<u32, DaState>,
    /// Open group accumulating data images.
    collecting: Option<ArrayId>,
}

impl ImageStore {
    /// Creates an empty store with every tray Empty in the DAindex.
    pub fn new(layout: &RackLayout) -> Self {
        let mut da_index = BTreeMap::new();
        for i in 0..layout.total_slots() {
            da_index.insert(i, DaState::Empty);
        }
        ImageStore {
            images: BTreeMap::new(),
            groups: BTreeMap::new(),
            next_image: 1,
            next_group: 1,
            da_index,
            collecting: None,
        }
    }

    /// Allocates a fresh image id (for a new bucket).
    pub fn allocate_image_id(&mut self) -> ImageId {
        let id = ImageId(self.next_image);
        self.next_image += 1;
        id
    }

    /// Looks up an image.
    pub fn get(&self, id: ImageId) -> Option<&ImageInfo> {
        self.images.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: ImageId) -> Option<&mut ImageInfo> {
        self.images.get_mut(&id)
    }

    /// All registered images in id order.
    pub fn images(&self) -> impl Iterator<Item = &ImageInfo> {
        self.images.values()
    }

    /// Number of registered images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when no image is registered.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Registers a sealed data image (a bucket just closed, §4.3) and
    /// adds it to the collecting array group.
    ///
    /// Returns the group that became *complete* (reached `data_per_array`
    /// data images), if any — the trigger for delayed parity generation.
    pub fn register_sealed(
        &mut self,
        sealed: SealedImage,
        data_per_array: u32,
        plane: &DataPlane,
    ) -> Option<ArrayId> {
        let gid = match self.collecting {
            Some(g) => g,
            None => {
                let g = ArrayId(self.next_group);
                self.next_group += 1;
                self.collecting = Some(g);
                g
            }
        };
        let id = ImageId(sealed.image_id());
        let payload = sealed.bytes().clone();
        let info = ImageInfo {
            id,
            kind: ImageKind::Data,
            size: payload.len() as u64,
            digest: content_digest(&payload, plane),
            sealed: Some(Arc::new(sealed)),
            payload: Some(payload),
            burned: None,
            array: Some(gid),
        };
        self.images.insert(id, info);
        let group = self.groups.entry(gid).or_insert_with(|| ArrayGroup {
            id: gid,
            data: Vec::new(),
            parity: Vec::new(),
            state: GroupState::Collecting,
            slot: None,
        });
        group.data.push(id);
        if group.data.len() >= data_per_array as usize {
            group.state = GroupState::ParityPending;
            self.collecting = None;
            Some(gid)
        } else {
            None
        }
    }

    /// Registers the parity payload(s) of a group and marks it ready.
    pub fn register_parity(
        &mut self,
        gid: ArrayId,
        payloads: Vec<Bytes>,
        plane: &DataPlane,
    ) -> Result<(), OlfsError> {
        let ids: Vec<ImageId> = payloads
            .iter()
            .map(|_| {
                let id = ImageId(self.next_image);
                self.next_image += 1;
                id
            })
            .collect();
        let group = self
            .groups
            .get_mut(&gid)
            .ok_or(OlfsError::BadState(format!("no group {gid}")))?;
        if group.state != GroupState::ParityPending {
            return Err(OlfsError::BadState(format!(
                "group {gid} is {:?}, expected ParityPending",
                group.state
            )));
        }
        for (id, payload) in ids.iter().zip(payloads) {
            group.parity.push(*id);
            self.images.insert(
                *id,
                ImageInfo {
                    id: *id,
                    kind: ImageKind::Parity,
                    size: payload.len() as u64,
                    digest: content_digest(&payload, plane),
                    sealed: None,
                    payload: Some(payload),
                    burned: None,
                    array: Some(gid),
                },
            );
        }
        self.groups
            .get_mut(&gid)
            .ok_or(OlfsError::BadState(format!("no group {gid}")))?
            .state = GroupState::ReadyToBurn;
        Ok(())
    }

    /// Forces an under-filled collecting group to ParityPending (flush).
    ///
    /// Returns the group id if there was one collecting.
    pub fn force_close_collecting(&mut self) -> Option<ArrayId> {
        let gid = self.collecting.take()?;
        let g = self.groups.get_mut(&gid)?;
        g.state = GroupState::ParityPending;
        Some(gid)
    }

    /// Looks up a group.
    pub fn group(&self, id: ArrayId) -> Option<&ArrayGroup> {
        self.groups.get(&id)
    }

    /// Mutable group lookup.
    pub fn group_mut(&mut self, id: ArrayId) -> Option<&mut ArrayGroup> {
        self.groups.get_mut(&id)
    }

    /// Groups in a given state, in id order.
    pub fn groups_in_state(&self, state: GroupState) -> Vec<ArrayId> {
        let mut v: Vec<ArrayId> = self
            .groups
            .values()
            .filter(|g| g.state == state)
            .map(|g| g.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// How many groups are in a given state: `groups_in_state(..).len()`
    /// without building the list.
    pub fn count_in_state(&self, state: GroupState) -> usize {
        self.groups.values().filter(|g| g.state == state).count()
    }

    /// DAindex read.
    pub fn da_state(&self, slot_index: u32) -> Option<DaState> {
        self.da_index.get(&slot_index).copied()
    }

    /// DAindex write.
    pub fn set_da_state(&mut self, slot_index: u32, state: DaState) {
        self.da_index.insert(slot_index, state);
    }

    /// Finds the first Empty tray, preferring low indices (uppermost
    /// layers first — the cheapest mechanical trips).
    pub fn first_empty_slot(&self, layout: &RackLayout) -> Option<SlotAddress> {
        self.da_index
            .range(..layout.total_slots())
            .find(|(_, state)| **state == DaState::Empty)
            .map(|(&i, _)| layout.slot_at(i))
    }

    /// Counts trays per DAindex state.
    pub fn da_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in self.da_index.values() {
            match s {
                DaState::Empty => counts.0 += 1,
                DaState::Used => counts.1 += 1,
                DaState::Failed => counts.2 += 1,
            }
        }
        counts
    }

    /// Marks an image burned at a location (a DILindex insert).
    pub fn mark_burned(&mut self, id: ImageId, loc: DiscLocation) -> Result<(), OlfsError> {
        let info = self.images.get_mut(&id).ok_or(OlfsError::ImageLost(id))?;
        info.burned = Some(loc);
        Ok(())
    }

    /// DILindex lookup: where is this image on disc?
    pub fn location_of(&self, id: ImageId) -> Option<DiscLocation> {
        self.images.get(&id).and_then(|i| i.burned)
    }

    /// Drops the disk-tier copy of a burned image (read-cache eviction).
    pub fn evict_disk_copy(&mut self, id: ImageId) -> Result<u64, OlfsError> {
        let info = self.images.get_mut(&id).ok_or(OlfsError::ImageLost(id))?;
        if info.burned.is_none() {
            return Err(OlfsError::BadState(format!(
                "image {id} is not burned; its disk copy is the only copy"
            )));
        }
        let freed = info.payload.as_ref().map(|p| p.len() as u64).unwrap_or(0);
        info.payload = None;
        info.sealed = None;
        Ok(freed)
    }

    /// Restores a disk-tier copy after a fetch from disc or a
    /// reconstruction. The payload arrives as a [`Verified`] proof, so
    /// nothing reaches the buffer unhashed and nothing is hashed twice:
    /// the only check left here is that the proof is for the digest the
    /// DIM records for this image.
    pub fn restore_disk_copy(
        &mut self,
        id: ImageId,
        payload: Verified<Bytes>,
    ) -> Result<(), OlfsError> {
        let info = self.images.get_mut(&id).ok_or(OlfsError::ImageLost(id))?;
        if payload.digest() != info.digest {
            return Err(OlfsError::DigestMismatch { image: id });
        }
        let payload = payload.into_bytes();
        if info.kind == ImageKind::Data {
            info.sealed = Some(Arc::new(
                SealedImage::from_bytes(payload.clone())
                    .map_err(|e| OlfsError::Udf(e.to_string()))?,
            ));
        }
        info.payload = Some(payload);
        Ok(())
    }

    /// Resets a burned group for a rewrite to a fresh array (§4.7: "The
    /// recovered data can be written to new buckets and finally burned
    /// into free disc arrays"): drops its old parity images, clears the
    /// slot assignment and burn locations, and returns the old slot so
    /// the caller can retire it.
    ///
    /// The burn location is the only other reference to a data member's
    /// bytes, so the reset refuses ([`OlfsError::SoleCopy`]), mutating
    /// nothing, unless every data member has a buffer copy.
    pub fn reset_group_for_rewrite(
        &mut self,
        gid: ArrayId,
    ) -> Result<Option<SlotAddress>, OlfsError> {
        let group = self
            .groups
            .get_mut(&gid)
            .ok_or(OlfsError::BadState(format!("no group {gid}")))?;
        if group.state != GroupState::Burned {
            return Err(OlfsError::BadState(format!(
                "group {gid} is {:?}, only burned groups can be rewritten",
                group.state
            )));
        }
        if let Some(&image) = group
            .data
            .iter()
            .find(|id| !self.images.get(id).is_some_and(ImageInfo::on_disk))
        {
            return Err(OlfsError::SoleCopy { image });
        }
        let old_slot = group.slot.take();
        let old_parity = std::mem::take(&mut group.parity);
        group.state = GroupState::ParityPending;
        let data = group.data.clone();
        for pid in old_parity {
            self.images.remove(&pid);
        }
        for id in data {
            if let Some(info) = self.images.get_mut(&id) {
                info.burned = None;
            }
        }
        Ok(old_slot)
    }

    /// Serialises DAindex + DILindex for the MV state store.
    pub fn state_json(&self) -> serde_json::Value {
        let da: BTreeMap<String, DaState> = self
            .da_index
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        let dil: BTreeMap<String, DiscLocation> = self
            .images
            .values()
            .filter_map(|i| i.burned.map(|b| (i.id.0.to_string(), b)))
            .collect();
        serde_json::json!({ "da_index": da, "dil_index": dil })
    }
}

/// The physical discs of the rack: blank media in trays, moving to drives
/// and back.
#[derive(Debug)]
pub struct DiscRegistry {
    /// Disc objects; `None` while the disc sits in a drive.
    discs: BTreeMap<DiscId, Option<Disc>>,
    /// Disc ids per dense slot index, bottom-first.
    slots: BTreeMap<u32, Vec<DiscId>>,
}

impl DiscRegistry {
    /// Populates every tray with blank WORM discs of `class`.
    pub fn new(layout: &RackLayout, class: DiscClass) -> Self {
        let mut discs = BTreeMap::new();
        let mut slots = BTreeMap::new();
        let mut next = 0u64;
        for i in 0..layout.total_slots() {
            let mut tray = Vec::with_capacity(layout.discs_per_tray as usize);
            for _ in 0..layout.discs_per_tray {
                let id = DiscId(next);
                next += 1;
                discs.insert(id, Some(Disc::blank(id.0, class, MediaKind::Worm)));
                tray.push(id);
            }
            slots.insert(i, tray);
        }
        DiscRegistry { discs, slots }
    }

    /// Disc ids in a tray, bottom-first.
    pub fn tray(&self, slot_index: u32) -> Option<&[DiscId]> {
        self.slots.get(&slot_index).map(Vec::as_slice)
    }

    /// Takes a disc out of the registry (into a drive).
    pub fn take(&mut self, id: DiscId) -> Result<Disc, OlfsError> {
        self.discs
            .get_mut(&id)
            .ok_or(OlfsError::BadState(format!("unknown disc {id}")))?
            .take()
            .ok_or(OlfsError::BadState(format!("disc {id} already in a drive")))
    }

    /// Returns a disc to the registry (back in its tray).
    pub fn put_back(&mut self, disc: Disc) -> Result<(), OlfsError> {
        let id = DiscId(disc.id);
        let slot = self
            .discs
            .get_mut(&id)
            .ok_or(OlfsError::BadState(format!("unknown disc {id}")))?;
        if slot.is_some() {
            return Err(OlfsError::BadState(format!("disc {id} is not out")));
        }
        *slot = Some(disc);
        Ok(())
    }

    /// Immutable access to a disc in its tray.
    pub fn disc(&self, id: DiscId) -> Option<&Disc> {
        self.discs.get(&id).and_then(Option::as_ref)
    }

    /// Mutable access (fault injection in tests).
    pub fn disc_mut(&mut self, id: DiscId) -> Option<&mut Disc> {
        self.discs.get_mut(&id).and_then(Option::as_mut)
    }

    /// Total number of discs.
    pub fn len(&self) -> usize {
        self.discs.len()
    }

    /// True when no discs exist.
    pub fn is_empty(&self) -> bool {
        self.discs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_udf::Bucket;

    fn layout() -> RackLayout {
        RackLayout::tiny()
    }

    fn p() -> DataPlane {
        DataPlane::single()
    }

    fn sealed(store: &mut ImageStore, tag: u8) -> SealedImage {
        let id = store.allocate_image_id();
        let mut b = Bucket::new(id.0, 64 * 2048);
        b.write(&format!("/f{tag}").parse().unwrap(), vec![tag; 1000], 0)
            .unwrap();
        b.close().unwrap()
    }

    #[test]
    fn groups_complete_at_data_count() {
        let mut store = ImageStore::new(&layout());
        let mut completed = None;
        for i in 0..3 {
            let img = sealed(&mut store, i);
            completed = store.register_sealed(img, 3, &p());
        }
        let gid = completed.expect("third image completes the group");
        let g = store.group(gid).unwrap();
        assert_eq!(g.state, GroupState::ParityPending);
        assert_eq!(g.data.len(), 3);
        // Next image starts a fresh group.
        let img = sealed(&mut store, 9);
        assert!(store.register_sealed(img, 3, &p()).is_none());
        assert_eq!(store.groups_in_state(GroupState::Collecting).len(), 1);
    }

    #[test]
    fn parity_registration_advances_state() {
        let mut store = ImageStore::new(&layout());
        let mut gid = None;
        for i in 0..2 {
            let img = sealed(&mut store, i);
            gid = store.register_sealed(img, 2, &p());
        }
        let gid = gid.unwrap();
        store
            .register_parity(gid, vec![Bytes::from(vec![0u8; 100])], &p())
            .unwrap();
        let g = store.group(gid).unwrap();
        assert_eq!(g.state, GroupState::ReadyToBurn);
        assert_eq!(g.parity.len(), 1);
        let parity = store.get(g.parity[0]).unwrap();
        assert_eq!(parity.kind, ImageKind::Parity);
        assert!(parity.on_disk());
        // Double registration rejected.
        assert!(store
            .register_parity(gid, vec![Bytes::new()], &p())
            .is_err());
    }

    #[test]
    fn da_index_lifecycle() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        assert_eq!(store.da_counts(), (8, 0, 0));
        let slot = store.first_empty_slot(&l).unwrap();
        assert_eq!(slot, SlotAddress::new(0, 0, 0));
        store.set_da_state(l.slot_index(slot), DaState::Used);
        assert_eq!(
            store.first_empty_slot(&l).unwrap(),
            SlotAddress::new(0, 0, 1)
        );
        store.set_da_state(1, DaState::Failed);
        assert_eq!(store.da_counts(), (6, 1, 1));
        assert_eq!(store.da_state(1), Some(DaState::Failed));
    }

    #[test]
    fn first_empty_slot_is_the_lowest_empty_index_of_the_layout() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        // What a probe of every index of the layout, in order, answers.
        let probed = |store: &ImageStore| {
            (0..l.total_slots())
                .find(|&i| store.da_state(i) == Some(DaState::Empty))
                .map(|i| l.slot_at(i))
        };
        use DaState::{Empty, Failed, Used};
        let interleaved = [Used, Failed, Used, Empty, Failed, Empty, Used, Empty];
        for (i, state) in (0u32..).zip(interleaved) {
            store.set_da_state(i, state);
        }
        // An Empty entry past the layout is not a tray.
        store.set_da_state(l.total_slots(), Empty);
        assert_eq!(store.first_empty_slot(&l), Some(l.slot_at(3)));
        for fill in [Used, Failed, Used] {
            assert_eq!(store.first_empty_slot(&l), probed(&store));
            let next = store.first_empty_slot(&l).unwrap();
            store.set_da_state(l.slot_index(next), fill);
        }
        assert_eq!(store.first_empty_slot(&l), None);
        assert_eq!(probed(&store), None);
        // A tray handed back is found again, below the ones after it.
        store.set_da_state(6, Empty);
        store.set_da_state(2, Empty);
        assert_eq!(store.first_empty_slot(&l), Some(l.slot_at(2)));
    }

    #[test]
    fn burn_and_evict_lifecycle() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        let img = sealed(&mut store, 1);
        let id = ImageId(img.image_id());
        store.register_sealed(img, 2, &p());
        // Cannot evict before burning.
        assert!(store.evict_disk_copy(id).is_err());
        let loc = DiscLocation {
            disc: DiscId(5),
            slot: SlotAddress::new(0, 0, 0),
            position: 3,
        };
        store.mark_burned(id, loc).unwrap();
        assert_eq!(store.location_of(id), Some(loc));
        let freed = store.evict_disk_copy(id).unwrap();
        assert!(freed > 0);
        assert!(!store.get(id).unwrap().on_disk());
        // A proof for other bytes is not a proof for this image.
        let junk = Verified::hash(Bytes::from_static(b"junk"), &p());
        assert_eq!(
            store.restore_disk_copy(id, junk),
            Err(OlfsError::DigestMismatch { image: id })
        );
    }

    #[test]
    fn restore_validates_and_reparses() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        let img = sealed(&mut store, 2);
        let id = ImageId(img.image_id());
        let bytes = img.bytes().clone();
        store.register_sealed(img, 2, &p());
        store
            .mark_burned(
                id,
                DiscLocation {
                    disc: DiscId(0),
                    slot: SlotAddress::new(0, 0, 0),
                    position: 0,
                },
            )
            .unwrap();
        store.evict_disk_copy(id).unwrap();
        let digest = store.get(id).unwrap().digest;
        let proof = ros_cas::verify_payload(&digest, bytes, &p()).unwrap();
        store.restore_disk_copy(id, proof).unwrap();
        let info = store.get(id).unwrap();
        assert!(info.on_disk());
        assert!(info.sealed.is_some());
    }

    #[test]
    fn force_close_flushes_partial_group() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        let img = sealed(&mut store, 1);
        assert!(store.register_sealed(img, 5, &p()).is_none());
        let gid = store.force_close_collecting().unwrap();
        assert_eq!(store.group(gid).unwrap().state, GroupState::ParityPending);
        assert!(store.force_close_collecting().is_none());
    }

    #[test]
    fn disc_registry_take_and_return() {
        let l = layout();
        let mut reg = DiscRegistry::new(&l, DiscClass::Custom { capacity: 1 << 20 });
        assert_eq!(reg.len(), 8 * 12);
        let tray = reg.tray(0).unwrap().to_vec();
        assert_eq!(tray.len(), 12);
        let d = reg.take(tray[0]).unwrap();
        assert!(reg.take(tray[0]).is_err(), "double take must fail");
        assert!(reg.disc(tray[0]).is_none());
        reg.put_back(d).unwrap();
        assert!(reg.disc(tray[0]).is_some());
        let d2 = reg.take(tray[1]).unwrap();
        assert!(reg.put_back(d2.clone()).is_ok());
        assert!(reg.put_back(d2).is_err(), "double return must fail");
    }

    #[test]
    fn state_json_reflects_indices() {
        let l = layout();
        let mut store = ImageStore::new(&l);
        let img = sealed(&mut store, 1);
        let id = ImageId(img.image_id());
        store.register_sealed(img, 2, &p());
        store
            .mark_burned(
                id,
                DiscLocation {
                    disc: DiscId(3),
                    slot: SlotAddress::new(0, 1, 0),
                    position: 2,
                },
            )
            .unwrap();
        store.set_da_state(2, DaState::Used);
        let json = store.state_json();
        assert_eq!(json["da_index"]["2"], serde_json::json!("Used"));
        assert!(json["dil_index"][id.0.to_string()].is_object());
    }
}

#[cfg(test)]
mod rewrite_tests {
    use super::*;
    use ros_udf::Bucket;

    #[test]
    fn reset_group_for_rewrite_requires_burned_state() {
        let l = RackLayout::tiny();
        let mut store = ImageStore::new(&l);
        let id = store.allocate_image_id();
        let mut b = Bucket::new(id.0, 64 * 2048);
        b.write(&"/f".parse().unwrap(), vec![1u8; 100], 0).unwrap();
        let gid = store
            .register_sealed(b.close().unwrap(), 1, &DataPlane::single())
            .unwrap();
        // ParityPending, not Burned: reset must refuse.
        assert!(store.reset_group_for_rewrite(gid).is_err());
        store
            .register_parity(
                gid,
                vec![bytes::Bytes::from(vec![0u8; 100])],
                &DataPlane::single(),
            )
            .unwrap();
        assert!(store.reset_group_for_rewrite(gid).is_err());
        // Mark burned with a slot, then reset succeeds and clears it.
        let slot = SlotAddress::new(0, 0, 0);
        {
            let g = store.group_mut(gid).unwrap();
            g.state = GroupState::Burned;
            g.slot = Some(slot);
        }
        let parity_id = store.group(gid).unwrap().parity[0];
        store
            .mark_burned(
                id,
                DiscLocation {
                    disc: DiscId(0),
                    slot,
                    position: 0,
                },
            )
            .unwrap();
        let old = store.reset_group_for_rewrite(gid).unwrap();
        assert_eq!(old, Some(slot));
        let g = store.group(gid).unwrap();
        assert_eq!(g.state, GroupState::ParityPending);
        assert!(g.parity.is_empty());
        assert!(g.slot.is_none());
        // The data image's burn location is cleared; the old parity
        // image record is dropped entirely.
        assert!(store.location_of(id).is_none());
        assert!(store.get(parity_id).is_none());
    }

    #[test]
    fn reset_group_for_rewrite_refuses_to_forget_a_sole_copy() {
        let l = RackLayout::tiny();
        let mut store = ImageStore::new(&l);
        let plane = DataPlane::single();
        let mut ids = Vec::new();
        let mut gid = None;
        for tag in 0..2u8 {
            let id = store.allocate_image_id();
            let mut b = Bucket::new(id.0, 64 * 2048);
            b.write(&"/f".parse().unwrap(), vec![tag; 100], 0).unwrap();
            gid = store.register_sealed(b.close().unwrap(), 2, &plane);
            ids.push(id);
        }
        let gid = gid.unwrap();
        store
            .register_parity(gid, vec![bytes::Bytes::from(vec![0u8; 100])], &plane)
            .unwrap();
        let slot = SlotAddress::new(0, 0, 0);
        for (position, id) in ids
            .iter()
            .chain(&store.group(gid).unwrap().parity.clone())
            .enumerate()
        {
            let loc = DiscLocation {
                disc: DiscId(position as u64),
                slot,
                position: position as u32,
            };
            store.mark_burned(*id, loc).unwrap();
        }
        {
            let g = store.group_mut(gid).unwrap();
            g.state = GroupState::Burned;
            g.slot = Some(slot);
        }
        // The second data member's buffer copy is evicted: its disc is
        // now the only place those bytes exist.
        let evicted = store.get(ids[1]).unwrap().payload.clone().unwrap();
        store.evict_disk_copy(ids[1]).unwrap();
        assert_eq!(
            store.reset_group_for_rewrite(gid),
            Err(OlfsError::SoleCopy { image: ids[1] })
        );
        // Nothing moved: still Burned, still located, parity still known.
        let g = store.group(gid).unwrap();
        assert_eq!(g.state, GroupState::Burned);
        assert_eq!(g.slot, Some(slot));
        assert_eq!(g.parity.len(), 1);
        assert!(ids.iter().all(|id| store.location_of(*id).is_some()));
        // With the copy back, the reset goes through.
        store
            .restore_disk_copy(ids[1], Verified::hash(evicted, &plane))
            .unwrap();
        assert_eq!(store.reset_group_for_rewrite(gid), Ok(Some(slot)));
    }

    #[test]
    fn store_and_registry_emptiness() {
        let l = RackLayout::tiny();
        let store = ImageStore::new(&l);
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        let reg = DiscRegistry::new(&l, DiscClass::Custom { capacity: 2048 });
        assert!(!reg.is_empty());
    }
}
