//! Disaster drills: the long-term preservation guarantees of §4.
//!
//! 1. Discs develop sector errors → the read path reconstructs the data
//!    through the array's RAID-5 parity disc (§4.7).
//! 2. The metadata volume is lost entirely → the namespace is rebuilt by
//!    scanning the self-descriptive discs (§4.4), then verified file by
//!    file.
//!
//! Run with: `cargo run --example disaster_recovery`

use ros::prelude::*;

fn main() -> Result<(), OlfsError> {
    let mut system = Ros::new(RosConfig::tiny());

    // Archive a dataset with known contents.
    let mut originals = Vec::new();
    for i in 0..10 {
        let path: UdfPath = format!("/vault/record-{i:02}").parse().unwrap();
        let data = vec![0xA0 + i as u8; 500_000];
        system.write_file(&path, data.clone())?;
        originals.push((path, data));
    }
    system.flush()?;
    println!(
        "dataset burned: {} arrays used",
        system.status().da_counts.1
    );

    // --- Drill 1: media damage -----------------------------------------
    system.evict_burned_copies();
    system.unload_all_bays()?; // Discs age in their trays.
    println!("\ndrill 1: ageing the media at an accelerated error rate");
    let damaged = system.age_media(0.01);
    println!("aged media: {damaged} sector failures injected across the library");
    // Reads still return correct bytes — parity repairs on the fly.
    for (path, data) in &originals {
        let r = system.read_file(path)?;
        assert_eq!(r.data.as_ref(), data.as_slice(), "repair must be exact");
    }
    println!(
        "all {} records verified byte-for-byte ({} parity repairs)",
        originals.len(),
        system.counters().repairs
    );
    // The audit walks every image on disc, rewrites the damaged arrays
    // onto fresh discs and retires the old trays (§4.7's full recovery
    // story).
    system.evict_burned_copies();
    system.unload_all_bays()?;
    let audit = system.audit_sample(usize::MAX);
    println!(
        "audit: {} images checked in {}, {} damaged, {} repaired; DAindex = {:?}",
        audit.sampled,
        audit.elapsed,
        audit.rotted.len(),
        audit.repaired.len(),
        system.status().da_counts
    );

    // --- Drill 2: metadata volume loss ----------------------------------
    println!("\ndrill 2: discarding the metadata volume and rescanning discs");
    let report = system.rebuild_namespace_from_discs()?;
    println!(
        "rebuilt {} files from {} discs / {} images in {} (simulated)",
        report.files_recovered, report.discs_read, report.images_parsed, report.elapsed
    );
    system.adopt_namespace(report.mv);
    for (path, data) in &originals {
        let r = system.read_file(path)?;
        assert_eq!(
            r.data.as_ref(),
            data.as_slice(),
            "{path} must survive MV loss"
        );
    }
    println!("all records readable through the rebuilt namespace");
    Ok(())
}
