//! Block-level (iSCSI-style) interface over OLFS.
//!
//! §4.2: "OLFS can also provide a block-level interface via the iSCSI
//! protocol." A [`BlockLun`] exposes a fixed-size logical unit of
//! 512-byte blocks, chunked onto OLFS files (one file per 256 KiB
//! extent under `/.luns/<name>/`). Writes rewrite whole extents —
//! OLFS's regenerating update gives every extent a version history, so
//! even a block device gets provenance for free.

use bytes::Bytes;
use ros_olfs::{OlfsError, Ros, UdfPath};
use ros_sim::to_usize;

/// Logical block size exposed to the initiator.
pub const BLOCK_BYTES: u64 = 512;

/// Bytes per backing extent file.
pub const EXTENT_BYTES: u64 = 256 * 1024;

/// Root of the LUN subtree in the global namespace.
pub const LUN_ROOT: &str = "/.luns";

/// A fixed-size logical unit backed by OLFS files.
pub struct BlockLun {
    ros: Ros,
    /// `/.luns/<name>`, parsed once at creation.
    dir: UdfPath,
    blocks: u64,
}

impl BlockLun {
    /// Creates (or reopens) a LUN of `blocks` 512-byte blocks.
    pub fn new(ros: Ros, name: &str, blocks: u64) -> Result<Self, OlfsError> {
        if name.is_empty() || name.contains('/') {
            return Err(OlfsError::Invalid(format!("bad LUN name {name:?}")));
        }
        let mut lun = BlockLun {
            ros,
            dir: format!("{LUN_ROOT}/{name}").parse()?,
            blocks,
        };
        lun.ros.mkdir(&lun.dir)?;
        Ok(lun)
    }

    fn extent_path(&self, extent: u64) -> UdfPath {
        self.dir.join(&format!("extent-{extent:08}"))
    }

    /// Capacity in blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks * BLOCK_BYTES
    }

    /// Access to the underlying engine.
    pub fn ros_mut(&mut self) -> &mut Ros {
        &mut self.ros
    }

    /// Unwraps the engine.
    pub fn into_ros(self) -> Ros {
        self.ros
    }

    fn check_range(&self, lba: u64, count: u64) -> Result<(), OlfsError> {
        if lba.saturating_add(count) > self.blocks {
            return Err(OlfsError::Invalid(format!(
                "LBA range {lba}+{count} beyond {} blocks",
                self.blocks
            )));
        }
        Ok(())
    }

    /// Reads `count` blocks starting at `lba` (SCSI READ).
    pub fn read_blocks(&mut self, lba: u64, count: u64) -> Result<Bytes, OlfsError> {
        self.check_range(lba, count)?;
        let start = lba * BLOCK_BYTES;
        let end = (lba + count) * BLOCK_BYTES;
        let mut out = Vec::with_capacity(to_usize(end - start));
        let mut pos = start;
        while pos < end {
            let extent = pos / EXTENT_BYTES;
            let within = pos % EXTENT_BYTES;
            let take = (EXTENT_BYTES - within).min(end - pos);
            match self.ros.read_range(&self.extent_path(extent), within, take) {
                Ok(r) => {
                    out.extend_from_slice(&r.data);
                    // Unwritten tail of a short extent reads as zeros.
                    out.resize(out.len() + (to_usize(take) - r.data.len()), 0);
                }
                Err(OlfsError::NotFound(_)) => {
                    // Never-written extent: zeros (thin provisioning).
                    out.resize(out.len() + to_usize(take), 0);
                }
                Err(e) => return Err(e),
            }
            pos += take;
        }
        Ok(Bytes::from(out))
    }

    /// Writes `data` starting at `lba` (SCSI WRITE). `data` must be a
    /// whole number of blocks.
    pub fn write_blocks(&mut self, lba: u64, data: &[u8]) -> Result<(), OlfsError> {
        if !(data.len() as u64).is_multiple_of(BLOCK_BYTES) {
            return Err(OlfsError::Invalid(format!(
                "write of {} bytes is not block-aligned",
                data.len()
            )));
        }
        let count = data.len() as u64 / BLOCK_BYTES;
        self.check_range(lba, count)?;
        let start = lba * BLOCK_BYTES;
        let end = start + data.len() as u64;
        let mut pos = start;
        while pos < end {
            let extent = pos / EXTENT_BYTES;
            let within = pos % EXTENT_BYTES;
            let take = (EXTENT_BYTES - within).min(end - pos);
            let path = self.extent_path(extent);
            // Read-modify-write the extent (whole-extent regenerating
            // update keeps WORM semantics downstream).
            let mut buf = match self.ros.read_file(&path) {
                Ok(r) => r.data.to_vec(),
                Err(OlfsError::NotFound(_)) => Vec::new(),
                Err(e) => return Err(e),
            };
            let needed = to_usize(within + take);
            if buf.len() < needed {
                buf.resize(needed, 0);
            }
            let src = to_usize(pos - start);
            buf[to_usize(within)..needed].copy_from_slice(&data[src..src + to_usize(take)]);
            self.ros.write_file(&path, buf)?;
            pos += take;
        }
        Ok(())
    }

    /// SCSI READ CAPACITY: `(last LBA, block size)`.
    pub fn read_capacity(&self) -> (u64, u64) {
        (self.blocks.saturating_sub(1), BLOCK_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_olfs::RosConfig;

    fn lun(blocks: u64) -> BlockLun {
        BlockLun::new(Ros::new(RosConfig::tiny()), "lun0", blocks).unwrap()
    }

    #[test]
    fn thin_provisioned_reads_are_zero() {
        let mut l = lun(1024);
        let data = l.read_blocks(10, 4).unwrap();
        assert_eq!(data.len(), 2048);
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip_within_one_extent() {
        let mut l = lun(1024);
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        l.write_blocks(5, &payload).unwrap();
        let back = l.read_blocks(5, 2).unwrap();
        assert_eq!(back.as_ref(), payload.as_slice());
        // Neighbouring blocks untouched.
        assert!(l.read_blocks(7, 1).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn writes_spanning_extents() {
        let mut l = lun(4096);
        // Extent boundary at block 512 (256 KiB / 512 B).
        let lba = 510;
        let payload: Vec<u8> = (0..4 * 512u32).map(|i| (i / 7 % 256) as u8).collect();
        l.write_blocks(lba, &payload).unwrap();
        let back = l.read_blocks(lba, 4).unwrap();
        assert_eq!(back.as_ref(), payload.as_slice());
    }

    #[test]
    fn overwrite_updates_in_place_logically() {
        let mut l = lun(1024);
        l.write_blocks(0, &[0xAAu8; 512]).unwrap();
        l.write_blocks(0, &[0xBBu8; 512]).unwrap();
        let back = l.read_blocks(0, 1).unwrap();
        assert!(back.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn bounds_and_alignment_are_enforced() {
        let mut l = lun(100);
        assert!(l.read_blocks(99, 2).is_err());
        assert!(l.write_blocks(0, &[0u8; 100]).is_err(), "unaligned");
        assert!(l.write_blocks(99, &[0u8; 1024]).is_err(), "past end");
        assert_eq!(l.read_capacity(), (99, 512));
        assert_eq!(l.capacity_bytes(), 100 * 512);
        assert!(BlockLun::new(Ros::new(RosConfig::tiny()), "a/b", 10).is_err());
    }

    #[test]
    fn lun_data_survives_burning() {
        let mut l = lun(2048);
        let payload: Vec<u8> = (0..8 * 512u32).map(|i| (i % 253) as u8).collect();
        l.write_blocks(100, &payload).unwrap();
        l.ros_mut().flush().unwrap();
        l.ros_mut().evict_burned_copies();
        l.ros_mut().unload_all_bays().unwrap();
        let back = l.read_blocks(100, 8).unwrap();
        assert_eq!(back.as_ref(), payload.as_slice());
    }
}
