//! Analytics readback: big-data mining over long-term preserved data
//! (§1's motivating use case). A dataset is archived to discs; an
//! analytics job then reads it back with skewed popularity. Every
//! fetched image stays on the disk buffer (the read cache) until buffer
//! pressure drops it, so the hot set is read from disk after its first
//! fetch; the robotic arm serves the cold tail — and the application
//! sees only a POSIX file system.
//!
//! Run with: `cargo run --example analytics_readback`

use ros::prelude::*;

fn main() -> Result<(), OlfsError> {
    let mut system = Ros::new(RosConfig::tiny());

    // Archive a dataset and push it to disc.
    println!("archiving dataset...");
    for i in 0..30 {
        let path: UdfPath = format!("/warehouse/day-{i:02}/events.log").parse().unwrap();
        system.write_file(&path, vec![(i * 7) as u8; 700_000])?;
    }
    system.flush()?;
    system.evict_burned_copies();
    system.unload_all_bays()?;
    println!(
        "dataset on disc: {} images across {} used trays",
        system.status().images,
        system.status().da_counts.1
    );

    // The "analytics job": skewed reads — recent days are hot.
    let mut hot_time = SimDuration::ZERO;
    let mut cold_time = SimDuration::ZERO;
    let mut fetches = 0u32;
    for round in 0..40usize {
        let day = if round % 4 == 0 {
            (round * 11) % 30
        } else {
            round % 3
        };
        let path: UdfPath = format!("/warehouse/day-{day:02}/events.log")
            .parse()
            .unwrap();
        let r = system.read_file(&path)?;
        match r.source {
            ros::ros_olfs::engine::ReadSource::DiskBucket
            | ros::ros_olfs::engine::ReadSource::DiskImage => hot_time += r.latency,
            _ => {
                cold_time += r.latency;
                fetches += 1;
                println!(
                    "  day-{day:02}: mechanical fetch ({}), first byte in {}",
                    r.latency, r.first_byte_latency
                );
            }
        }
    }
    let stats = system.cache_stats();
    println!(
        "\ncache: {} hits, {} misses, {} evictions",
        stats.hits, stats.misses, stats.evictions
    );
    println!("mechanical fetches: {fetches} (cold tail)");
    println!("cumulative: hot reads {hot_time}, cold reads {cold_time}");
    println!(
        "the forepart mechanism (§4.8) answered first bytes in ≤{} during fetches",
        ros::ros_olfs::params::forepart_first_byte()
    );
    Ok(())
}
