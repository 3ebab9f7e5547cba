//! Samba/CIFS request model.
//!
//! The NAS deployment of §3.3 exports OLFS over Samba. SMB adds two
//! costs: per-request protocol round trips (compounded CREATE / GETINFO
//! / SETINFO exchanges plus smbd processing), and extra `stat` operations
//! that the server issues against the exported file system (§5.3: a
//! file-creating write gains 7 extra stats, pushing latency from 16 ms to
//! 53 ms; reads go from 9 ms to 15 ms).

use crate::params;
use ros_olfs::trace::OpTrace;
use ros_sim::SimDuration;

/// Wraps an OLFS *write* trace with Samba's extra stats and protocol
/// overhead, returning the client-observed trace.
pub(crate) fn wrap_write_trace(olfs: &OpTrace) -> OpTrace {
    let mut t = OpTrace::new();
    // Samba stats the target before opening it.
    for _ in 0..params::SAMBA_EXTRA_WRITE_STATS_BEFORE {
        t.step("stat", SimDuration::ZERO);
    }
    let mut injected_after = false;
    for step in &olfs.steps {
        // Replay the OLFS internal sequence 1:1 (durations included).
        t.steps.push(step.clone());
        // After the create (mknod), smbd issues a burst of re-validating
        // stats (Figure 7's stat*6 block).
        if step.name == "mknod" && !injected_after {
            injected_after = true;
            for _ in 0..params::SAMBA_EXTRA_WRITE_STATS_AFTER {
                t.step("stat", SimDuration::ZERO);
            }
        }
    }
    for e in &olfs.extra {
        t.extra(&e.name, e.duration);
    }
    t.extra("smb", params::smb_write_overhead());
    t
}

/// Wraps an OLFS *read* trace with Samba's extra stats and protocol
/// overhead.
pub(crate) fn wrap_read_trace(olfs: &OpTrace) -> OpTrace {
    let mut t = OpTrace::new();
    for _ in 0..params::SAMBA_EXTRA_READ_STATS {
        t.step("stat", SimDuration::ZERO);
    }
    for step in &olfs.steps {
        t.steps.push(step.clone());
    }
    for e in &olfs.extra {
        t.extra(&e.name, e.duration);
    }
    t.extra("smb", params::smb_read_overhead());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn olfs_write_trace() -> OpTrace {
        let mut t = OpTrace::new();
        for name in ["stat", "mknod", "stat", "write", "close"] {
            let device = if name == "write" {
                ros_olfs::params::bucket_write_device()
            } else {
                SimDuration::ZERO
            };
            t.step(name, device);
        }
        t
    }

    fn olfs_read_trace() -> OpTrace {
        let mut t = OpTrace::new();
        for name in ["stat", "read", "close"] {
            let device = if name == "read" {
                ros_olfs::params::bucket_read_device()
            } else {
                SimDuration::ZERO
            };
            t.step(name, device);
        }
        t
    }

    #[test]
    fn figure7_samba_write_is_53ms() {
        let wrapped = wrap_write_trace(&olfs_write_trace());
        let ms = wrapped.total().as_millis_f64();
        assert!(
            (ms - 53.0).abs() < 1.5,
            "samba+OLFS write = {ms} ms (paper: 53)"
        );
    }

    #[test]
    fn figure7_samba_read_is_15ms() {
        let wrapped = wrap_read_trace(&olfs_read_trace());
        let ms = wrapped.total().as_millis_f64();
        assert!(
            (ms - 15.0).abs() < 1.0,
            "samba+OLFS read = {ms} ms (paper: 15)"
        );
    }

    #[test]
    fn extra_stats_appear_in_the_sequence() {
        let wrapped = wrap_write_trace(&olfs_write_trace());
        // Original 2 stats + 1 before + 5 after the mknod.
        assert_eq!(wrapped.count("stat"), 8);
        assert_eq!(wrapped.count("mknod"), 1);
        assert_eq!(wrapped.count("write"), 1);
        // The stat burst follows the mknod.
        let names = wrapped.step_names();
        let mknod_at = names.iter().position(|n| *n == "mknod").unwrap();
        assert_eq!(names[mknod_at + 1], "stat");
    }

    #[test]
    fn wrapping_preserves_olfs_extra_time() {
        let mut olfs = olfs_read_trace();
        olfs.extra("fetch", SimDuration::from_secs(70));
        let wrapped = wrap_read_trace(&olfs);
        assert!(wrapped.total() > SimDuration::from_secs(70));
    }
}
