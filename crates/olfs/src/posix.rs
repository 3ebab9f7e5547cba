//! The POSIX Interface (PI): file descriptors over the OLFS engine.
//!
//! §4.1: "OLFS provides a POSIX Interface module (PI) as a uniform
//! file/directory external view for users". [`PosixFs`] supplies the
//! descriptor-level calls a FUSE daemon forwards — `open`, `read`,
//! `pread`, `write`, `lseek`, `fstat`, `close` — on top of the engine's
//! whole-file and range operations.
//!
//! Write semantics follow the preliminary-bucket-writing design: bytes
//! written through a descriptor accumulate in the handle and commit as
//! one file version on `close` (OLFS acknowledges a write once its data
//! is in the buckets; a half-written descriptor is not yet a version).
//! Opening an existing file with `OpenFlags::append` seeds the handle
//! with the current contents, so closing produces the appended version —
//! the "appending-update" of §4.2/§4.6.

use crate::engine::Ros;
use crate::error::OlfsError;
use bytes::Bytes;
use ros_faults::RetryPolicy;
use ros_udf::UdfPath;
use std::collections::BTreeMap;

/// Open flags (the subset that matters without a kernel).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Create the file if it does not exist.
    pub create: bool,
    /// Fail if `create` and the file already exists.
    pub exclusive: bool,
    /// Open for writing (a new version commits on close).
    pub write: bool,
    /// Seed the write buffer with the current contents and position the
    /// cursor at the end.
    pub append: bool,
    /// Start the write buffer empty even if the file had contents.
    pub truncate: bool,
}

impl OpenFlags {
    /// Read-only open.
    pub fn read_only() -> Self {
        OpenFlags::default()
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    pub fn create_truncate() -> Self {
        OpenFlags {
            create: true,
            write: true,
            truncate: true,
            ..OpenFlags::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_APPEND`.
    pub fn append() -> Self {
        OpenFlags {
            create: true,
            write: true,
            append: true,
            ..OpenFlags::default()
        }
    }
}

/// A file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(u64);

/// `lseek` whence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// From the start of the file.
    Set,
    /// From the current position.
    Cur,
    /// From the end of the file.
    End,
}

/// Stat record returned by [`PosixFs::fstat`] / [`PosixFs::stat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    /// File size in bytes.
    pub size: u64,
    /// Newest version number.
    pub version: u32,
    /// Modification time (simulation nanoseconds).
    pub mtime_nanos: u64,
}

struct Handle {
    path: UdfPath,
    cursor: u64,
    writable: bool,
    /// Pending contents for writable handles.
    buffer: Option<Vec<u8>>,
    dirty: bool,
    /// Clock at the last buffer mutation (open seed or `write`), so
    /// `fstat` of an untouched buffer reports a stable mtime.
    buffer_mtime_nanos: u64,
}

/// The descriptor table over an engine.
pub struct PosixFs {
    ros: Ros,
    next_fd: u64,
    handles: BTreeMap<Fd, Handle>,
    /// Retry policy applied to the whole-file transfers behind `open`
    /// (append/read seeding) and `close` (version commit). Defaults to
    /// no retries: transient faults surface immediately.
    retry_policy: RetryPolicy,
}

impl PosixFs {
    /// Wraps an engine.
    pub fn new(ros: Ros) -> Self {
        PosixFs {
            ros,
            next_fd: 3, // 0-2 are traditionally taken.
            handles: BTreeMap::new(),
            retry_policy: RetryPolicy::none(),
        }
    }

    /// Sets the retry policy for descriptor-level commits and seeds.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// Access to the engine.
    pub fn ros(&self) -> &Ros {
        &self.ros
    }

    /// Mutable access to the engine.
    pub fn ros_mut(&mut self) -> &mut Ros {
        &mut self.ros
    }

    /// Unwraps the engine. Open writable handles are discarded
    /// (uncommitted data is dropped, as a crashed FUSE daemon would).
    pub fn into_ros(self) -> Ros {
        self.ros
    }

    /// Opens a file.
    pub fn open(&mut self, path: &UdfPath, flags: OpenFlags) -> Result<Fd, OlfsError> {
        let exists = self.ros.stat(path).is_ok();
        if !exists && !flags.create {
            return Err(OlfsError::NotFound(path.to_string()));
        }
        if exists && flags.create && flags.exclusive {
            return Err(OlfsError::AlreadyExists(path.to_string()));
        }
        let mut buffer = None;
        let mut cursor = 0;
        if flags.write {
            let seed: Vec<u8> = if exists && !flags.truncate {
                let (report, _) = self.ros.read_file_supervised(path, &self.retry_policy)?;
                report.data.to_vec()
            } else {
                Vec::new()
            };
            if flags.append {
                cursor = seed.len() as u64;
            }
            buffer = Some(seed);
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        let buffer_mtime_nanos = self.ros.now().as_nanos();
        self.handles.insert(
            fd,
            Handle {
                path: path.clone(),
                cursor,
                writable: flags.write,
                buffer,
                dirty: false,
                buffer_mtime_nanos,
            },
        );
        Ok(fd)
    }

    fn handle(&self, fd: Fd) -> Result<&Handle, OlfsError> {
        self.handles
            .get(&fd)
            .ok_or(OlfsError::BadState(format!("bad fd {fd:?}")))
    }

    fn handle_mut(&mut self, fd: Fd) -> Result<&mut Handle, OlfsError> {
        self.handles
            .get_mut(&fd)
            .ok_or(OlfsError::BadState(format!("bad fd {fd:?}")))
    }

    /// Reads up to `len` bytes at the cursor, advancing it. An empty
    /// result means end of file.
    pub fn read(&mut self, fd: Fd, len: u64) -> Result<Bytes, OlfsError> {
        let cursor = self.handle(fd)?.cursor;
        let data = self.pread(fd, cursor, len)?;
        self.handle_mut(fd)?.cursor = cursor + data.len() as u64;
        Ok(data)
    }

    /// Reads up to `len` bytes at `offset` without moving the cursor.
    pub fn pread(&mut self, fd: Fd, offset: u64, len: u64) -> Result<Bytes, OlfsError> {
        let h = self.handle(fd)?;
        if h.writable {
            if let Some(buf) = h.buffer.as_ref() {
                // Writable handles read their own uncommitted view; only
                // the requested range is copied out of the mutable
                // buffer, never the whole file.
                let lo = ros_sim::to_usize(offset).min(buf.len());
                let hi = ros_sim::to_usize(offset.saturating_add(len)).min(buf.len());
                return Ok(Bytes::copy_from_slice(&buf[lo..hi]));
            }
        }
        let path = h.path.clone();
        Ok(self.ros.read_range(&path, offset, len)?.data)
    }

    /// Writes at the cursor, advancing it. Data commits on close.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<u64, OlfsError> {
        let now_nanos = self.ros.now().as_nanos();
        let h = self.handle_mut(fd)?;
        if !h.writable {
            return Err(OlfsError::BadState("fd not opened for writing".into()));
        }
        let Some(buf) = h.buffer.as_mut() else {
            return Err(OlfsError::BadState(
                "writable handle lost its buffer".into(),
            ));
        };
        let pos = ros_sim::to_usize(h.cursor);
        if buf.len() < pos {
            buf.resize(pos, 0);
        }
        let overlap = (buf.len() - pos).min(data.len());
        buf[pos..pos + overlap].copy_from_slice(&data[..overlap]);
        buf.extend_from_slice(&data[overlap..]);
        h.cursor += data.len() as u64;
        h.dirty = true;
        h.buffer_mtime_nanos = now_nanos;
        Ok(data.len() as u64)
    }

    /// Moves the cursor.
    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, OlfsError> {
        let size = self.fstat(fd)?.size;
        let h = self.handle_mut(fd)?;
        let base = match whence {
            Whence::Set => 0i128,
            Whence::Cur => h.cursor as i128,
            Whence::End => size as i128,
        };
        let target = base + offset as i128;
        h.cursor =
            u64::try_from(target).map_err(|_| OlfsError::Invalid("seek before start".into()))?;
        Ok(h.cursor)
    }

    /// Stats an open descriptor (uncommitted writes included).
    pub fn fstat(&mut self, fd: Fd) -> Result<Stat, OlfsError> {
        let h = self.handle(fd)?;
        if let (true, Some(buf)) = (h.writable, h.buffer.as_ref()) {
            return Ok(Stat {
                size: buf.len() as u64,
                version: 0, // Uncommitted.
                mtime_nanos: h.buffer_mtime_nanos,
            });
        }
        let path = h.path.clone();
        self.stat(&path)
    }

    /// Stats a path.
    pub fn stat(&mut self, path: &UdfPath) -> Result<Stat, OlfsError> {
        let (size, version, mtime_nanos) = self.ros.stat(path)?;
        Ok(Stat {
            size,
            version,
            mtime_nanos,
        })
    }

    /// Closes a descriptor, committing buffered writes as one version.
    /// Returns the committed version for writable handles.
    pub fn close(&mut self, fd: Fd) -> Result<Option<u32>, OlfsError> {
        let h = self
            .handles
            .remove(&fd)
            .ok_or(OlfsError::BadState(format!("bad fd {fd:?}")))?;
        if h.writable && h.dirty {
            let Some(buffer) = h.buffer else {
                return Err(OlfsError::BadState(
                    "writable handle lost its buffer".into(),
                ));
            };
            let (report, _) =
                self.ros
                    .write_file_supervised(&h.path, buffer.into(), &self.retry_policy)?;
            return Ok(Some(report.version));
        }
        Ok(None)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, path: &UdfPath) -> Result<Vec<(String, bool)>, OlfsError> {
        self.ros.readdir(path)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &UdfPath) -> Result<(), OlfsError> {
        self.ros.mkdir(path)
    }

    /// Removes a file from the namespace.
    pub fn unlink(&mut self, path: &UdfPath) -> Result<(), OlfsError> {
        self.ros.unlink(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RosConfig;

    fn p(s: &str) -> UdfPath {
        s.parse().unwrap()
    }

    fn fs() -> PosixFs {
        PosixFs::new(Ros::new(RosConfig::tiny()))
    }

    #[test]
    fn create_write_close_read_cycle() {
        let mut fs = fs();
        let fd = fs
            .open(&p("/posix/file"), OpenFlags::create_truncate())
            .unwrap();
        fs.write(fd, b"hello ").unwrap();
        fs.write(fd, b"world").unwrap();
        let v = fs.close(fd).unwrap();
        assert_eq!(v, Some(1));
        let fd = fs.open(&p("/posix/file"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 5).unwrap().as_ref(), b"hello");
        assert_eq!(fs.read(fd, 100).unwrap().as_ref(), b" world");
        assert!(fs.read(fd, 10).unwrap().is_empty(), "EOF");
        fs.close(fd).unwrap();
    }

    #[test]
    fn open_flag_semantics() {
        let mut fs = fs();
        assert!(matches!(
            fs.open(&p("/missing"), OpenFlags::read_only()).unwrap_err(),
            OlfsError::NotFound(_)
        ));
        let fd = fs.open(&p("/x"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"v1").unwrap();
        fs.close(fd).unwrap();
        let mut excl = OpenFlags::create_truncate();
        excl.exclusive = true;
        assert!(matches!(
            fs.open(&p("/x"), excl).unwrap_err(),
            OlfsError::AlreadyExists(_)
        ));
    }

    #[test]
    fn append_builds_a_new_version_with_old_data() {
        let mut fs = fs();
        let fd = fs.open(&p("/log"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"line1\n").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/log"), OpenFlags::append()).unwrap();
        assert_eq!(fs.fstat(fd).unwrap().size, 6);
        fs.write(fd, b"line2\n").unwrap();
        let v = fs.close(fd).unwrap();
        assert_eq!(v, Some(2));
        let fd = fs.open(&p("/log"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 100).unwrap().as_ref(), b"line1\nline2\n");
        fs.close(fd).unwrap();
    }

    #[test]
    fn pread_does_not_move_the_cursor() {
        let mut fs = fs();
        let fd = fs.open(&p("/f"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"0123456789").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/f"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.pread(fd, 4, 3).unwrap().as_ref(), b"456");
        assert_eq!(fs.read(fd, 2).unwrap().as_ref(), b"01");
        // Range past EOF clamps.
        assert_eq!(fs.pread(fd, 8, 100).unwrap().as_ref(), b"89");
        assert!(fs.pread(fd, 100, 10).unwrap().is_empty());
    }

    #[test]
    fn lseek_all_whences() {
        let mut fs = fs();
        let fd = fs.open(&p("/s"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"abcdefgh").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/s"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.lseek(fd, 2, Whence::Set).unwrap(), 2);
        assert_eq!(fs.read(fd, 2).unwrap().as_ref(), b"cd");
        assert_eq!(fs.lseek(fd, 1, Whence::Cur).unwrap(), 5);
        assert_eq!(fs.read(fd, 1).unwrap().as_ref(), b"f");
        assert_eq!(fs.lseek(fd, -2, Whence::End).unwrap(), 6);
        assert_eq!(fs.read(fd, 10).unwrap().as_ref(), b"gh");
        assert!(fs.lseek(fd, -99, Whence::Set).is_err());
    }

    #[test]
    fn sparse_write_after_seek_zero_fills() {
        let mut fs = fs();
        let fd = fs
            .open(&p("/sparse"), OpenFlags::create_truncate())
            .unwrap();
        fs.write(fd, b"ab").unwrap();
        fs.lseek(fd, 5, Whence::Set).unwrap();
        fs.write(fd, b"z").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/sparse"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 10).unwrap().as_ref(), b"ab\0\0\0z");
    }

    #[test]
    fn overwrite_mid_buffer() {
        let mut fs = fs();
        let fd = fs.open(&p("/ow"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"XXXXXX").unwrap();
        fs.lseek(fd, 2, Whence::Set).unwrap();
        fs.write(fd, b"yy").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/ow"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 10).unwrap().as_ref(), b"XXyyXX");
    }

    #[test]
    fn writable_handle_reads_its_own_view() {
        let mut fs = fs();
        let fd = fs.open(&p("/rw"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"pending").unwrap();
        assert_eq!(fs.pread(fd, 0, 7).unwrap().as_ref(), b"pending");
        assert_eq!(fs.fstat(fd).unwrap().size, 7);
        // Not yet visible through a fresh read-only descriptor path.
        assert!(fs.stat(&p("/rw")).is_err());
        fs.close(fd).unwrap();
        assert_eq!(fs.stat(&p("/rw")).unwrap().size, 7);
    }

    #[test]
    fn fstat_mtime_is_stable_on_untouched_dirty_buffer() {
        use ros_sim::SimDuration;
        let mut fs = fs();
        let fd = fs.open(&p("/mt"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"payload").unwrap();
        let first = fs.fstat(fd).unwrap().mtime_nanos;
        // Wall time moves on, but the buffer was not touched: a second
        // fstat must report the same modification time.
        fs.ros_mut().run_for(SimDuration::from_secs(5));
        let second = fs.fstat(fd).unwrap().mtime_nanos;
        assert_eq!(
            first, second,
            "fstat of an untouched dirty buffer must not drift with the clock"
        );
        // A new write advances it (to the clock at write time).
        fs.ros_mut().run_for(SimDuration::from_secs(1));
        fs.write(fd, b"!").unwrap();
        let third = fs.fstat(fd).unwrap().mtime_nanos;
        assert!(third > second, "a write must refresh the buffer mtime");
        assert_eq!(third, fs.ros().now().as_nanos());
        fs.close(fd).unwrap();
    }

    #[test]
    fn read_only_close_commits_nothing() {
        let mut fs = fs();
        let fd = fs.open(&p("/noop"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"x").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/noop"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.close(fd).unwrap(), None);
        assert_eq!(fs.stat(&p("/noop")).unwrap().version, 1);
        // Writable but untouched handle also commits nothing.
        let fd = fs.open(&p("/noop"), OpenFlags::append()).unwrap();
        assert_eq!(fs.close(fd).unwrap(), None);
        assert_eq!(fs.stat(&p("/noop")).unwrap().version, 1);
    }

    #[test]
    fn range_reads_skip_unneeded_segments_of_split_files() {
        let mut fs = fs();
        // A 10 MiB file split over 4 MiB discs.
        let big: Vec<u8> = (0..10 * 1024 * 1024u32).map(|i| (i % 253) as u8).collect();
        let fd = fs.open(&p("/big"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, &big).unwrap();
        fs.close(fd).unwrap();
        fs.ros_mut().flush().unwrap();
        fs.ros_mut().evict_burned_copies();
        fs.ros_mut().unload_all_bays().unwrap();
        // A small range in the FIRST segment: one fetch, not three.
        let fd = fs.open(&p("/big"), OpenFlags::read_only()).unwrap();
        let got = fs.pread(fd, 1000, 5000).unwrap();
        assert_eq!(got.as_ref(), &big[1000..6000]);
        assert_eq!(
            fs.ros().counters().fetches,
            1,
            "only the overlapping segment may be fetched"
        );
    }

    #[test]
    fn retry_policy_rides_out_transient_faults_on_reopen() {
        use ros_faults::{FaultEvent, FaultKind, FaultSink};
        let mut fs = fs();
        fs.set_retry_policy(RetryPolicy::default());
        let fd = fs.open(&p("/rp"), OpenFlags::create_truncate()).unwrap();
        fs.write(fd, b"survivor").unwrap();
        fs.close(fd).unwrap();
        fs.ros_mut().flush().unwrap();
        fs.ros_mut().evict_burned_copies();
        fs.ros_mut().unload_all_bays().unwrap();
        // The append-seed fetch hits a one-shot mechanical misfeed; the
        // descriptor-level retry policy absorbs it.
        fs.ros_mut().inject_fault(&FaultEvent {
            seq: 0,
            at_op: 0,
            kind: FaultKind::MechTransient { count: 1 },
        });
        let fd = fs.open(&p("/rp"), OpenFlags::append()).unwrap();
        fs.write(fd, b"!").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open(&p("/rp"), OpenFlags::read_only()).unwrap();
        assert_eq!(fs.read(fd, 100).unwrap().as_ref(), b"survivor!");
    }

    #[test]
    fn bad_fds_are_rejected() {
        let mut fs = fs();
        let fd = Fd(99);
        assert!(fs.read(fd, 1).is_err());
        assert!(fs.write(fd, b"x").is_err());
        assert!(fs.close(fd).is_err());
        assert!(fs.lseek(fd, 0, Whence::Set).is_err());
    }
}
