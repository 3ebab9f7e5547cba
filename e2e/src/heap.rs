//! Keeps the process's heap resident between repetitions.
//!
//! Every repetition builds and drops a whole system: hundreds of
//! megabytes of images, parity and disc payloads. With glibc's default
//! thresholds each of those buffers is its own `mmap`, returned to the
//! kernel on drop and faulted in again — page by page, zeroed — by the
//! next repetition: 45 000 minor faults, 15 % of an `ingest_burn`
//! repetition's wall. In a VM whose host reclaims free guest pages that
//! cost is also the least steady part of the wall: the same faults took
//! 4-6x longer in some repetitions, and for a minute at a time every
//! image seal in `cold_read` took twice as long (README, "Noise").
//!
//! So the benchmark tells the allocator to serve large requests from
//! the heap and never to trim it. After the warm-up repetition the
//! timed ones reuse pages that are already resident. What this leaves
//! out of the wall is the first-touch cost of fresh memory, a property
//! of the kernel and the hypervisor; what a change to the system's
//! allocation volume still moves is the copying and the cache misses.

/// Applies the settings; call once, before anything large is allocated.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_resident() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // <malloc.h>
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_TOP_PAD: c_int = -2;
    const M_MMAP_THRESHOLD: c_int = -3;
    // 32 MB is the largest mmap threshold glibc accepts; every buffer
    // the system allocates (images are 4 MB) is far below it.
    let settings = [
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, c_int::MAX),
        (M_TOP_PAD, 64 << 20),
    ];
    for (param, value) in settings {
        // SAFETY: `mallopt` is glibc's own tuning entry point; it takes
        // two plain integers, touches only allocator parameters, and is
        // called here on the main thread before any other thread exists.
        // A rejected value returns 0 and leaves the default in place.
        let accepted = unsafe { mallopt(param, value) };
        if accepted == 0 {
            eprintln!(
                "e2e: mallopt({param}, {value}) was refused; walls will include page-fault noise"
            );
        }
    }
}

/// Other C libraries keep their defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_resident() {}
