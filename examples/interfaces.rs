//! The §4.2 interface extensions in action: the same long-term-preserved
//! bytes served through three front ends — POSIX file descriptors,
//! a key-value store and an S3-style object store — all mapped onto one
//! OLFS namespace and one optical library.
//!
//! Run with: `cargo run --example interfaces`

use ros::prelude::*;
use ros::ros_access::{KvStore, ObjectStore};
use ros::ros_olfs::{OpenFlags, PosixFs, Whence};
use std::collections::BTreeMap;

fn main() -> Result<(), OlfsError> {
    // --- POSIX file descriptors (the PI module) --------------------------
    let mut fs = PosixFs::new(Ros::new(RosConfig::tiny()));
    let log: UdfPath = "/var/log/app.log".parse().unwrap();
    let fd = fs.open(&log, OpenFlags::create_truncate())?;
    for i in 0..5 {
        fs.write(fd, format!("event {i}\n").as_bytes())?;
    }
    fs.close(fd)?; // One version commits to the buckets.
    let fd = fs.open(&log, OpenFlags::append())?;
    fs.write(fd, b"appended later\n")?;
    fs.close(fd)?; // Appending-update: version 2.
    let fd = fs.open(&log, OpenFlags::read_only())?;
    fs.lseek(fd, -15, Whence::End)?;
    let tail = fs.read(fd, 64)?;
    println!(
        "POSIX: {} (version {})",
        String::from_utf8_lossy(&tail).trim_end(),
        fs.stat(&log)?.version
    );
    fs.close(fd)?;

    // --- Key-value (the §4.2 extension) ----------------------------------
    let mut kv = KvStore::new(fs.into_ros());
    kv.put("metrics/cpu/2026-07-06T12:00", b"0.73".to_vec())?;
    kv.put("metrics/cpu/2026-07-06T12:01", b"0.81".to_vec())?;
    let got = kv.get("metrics/cpu/2026-07-06T12:01")?;
    println!(
        "KV: fetched {} bytes in {} ({} keys stored)",
        got.value.len(),
        got.latency,
        kv.keys()?.len()
    );

    // --- Object store -----------------------------------------------------
    let mut os = ObjectStore::new(kv.into_ros());
    os.create_bucket("genomics")?;
    let mut meta = BTreeMap::new();
    meta.insert("sample".to_string(), "GRCh38-0042".to_string());
    os.put_object(
        "genomics",
        "reads/lane1.fastq",
        vec![b'A'; 500_000],
        Some("application/fastq"),
        meta,
    )?;
    let head = os.head_object("genomics", "reads/lane1.fastq")?;
    println!(
        "Object store: {} bytes, content-type {:?}, sample {}",
        head.size,
        head.content_type.as_deref().unwrap_or("-"),
        head.user["sample"]
    );

    // --- One library underneath ------------------------------------------
    // Push everything — the log file, the KV pairs, the object and its
    // metadata sidecar — onto optical discs, then prove a disc scan
    // recovers all three namespaces.
    os.ros_mut().flush()?;
    let report = os.ros_mut().recover(MvSource::DiscScan)?;
    println!(
        "disc scan found {} files across the three interfaces",
        report.files_recovered
    );
    let obj = os.get_object("genomics", "reads/lane1.fastq")?;
    assert_eq!(obj.data.len(), 500_000);
    println!("object readable after full metadata loss — inline accessibility, three ways");
    Ok(())
}
