//! Long-run soak: a simulated week of mixed activity on a small library,
//! with consistency invariants checked throughout and every read judged
//! by the one reference model, [`ros_bench::model::Model`], down to the
//! final sweep of every byte.

use bytes::Bytes;
use ros::prelude::*;
use ros::ros_olfs::index::{LocTag, VersionEntry};
use ros::ros_olfs::mv::MetadataVolume;
use ros::ros_olfs::ImageId;
use ros::ros_sim::SimRng;
use ros_bench::model::{Model, Read, Verdict};

fn p(s: &str) -> UdfPath {
    s.parse().unwrap()
}

fn content(tag: u64, len: usize) -> Bytes {
    (0..len)
        .map(|i| (tag.wrapping_mul(2654435761).wrapping_add(i as u64 * 11) % 255) as u8)
        .collect()
}

#[test]
fn a_simulated_week_of_mixed_activity_stays_consistent() {
    let mut cfg = RosConfig::tiny();
    cfg.read_cache_images = 6;
    cfg.scrub_interval = Some(SimDuration::from_secs(24 * 3600));
    let mut ros = Ros::new(cfg);
    let mut rng = SimRng::seed_from(0x50AF);
    // The model keeps paths in order, so the paths the updates and reads
    // pick by index are the same every run: hash order changed them per
    // process, and about 1 order in 130 put two rotted sectors in one
    // stripe of the P-only array below, past what any repair can rebuild.
    let mut model = Model::new(false);
    let mut next_file = 0u64;
    let pick = |model: &Model, rng: &mut SimRng| {
        let victim = rng.index(model.paths().count());
        model.paths().nth(victim).cloned().unwrap()
    };

    for day in 0..7 {
        // Morning: ingest a batch.
        let batch = 6 + (day % 3) as usize;
        for _ in 0..batch {
            let path = p(&format!("/soak/day{day}/f{next_file}"));
            let data = content(next_file, 100_000 + rng.index(500_000));
            ros.write_file(&path, data.clone()).unwrap();
            model.write(&path, data, false);
            next_file += 1;
        }
        // Midday: some updates (new versions with fresh tags).
        if next_file > 4 {
            for _ in 0..2 {
                let path = pick(&model, &mut rng);
                let data = content(10_000 + next_file, 50_000 + rng.index(200_000));
                ros.write_file(&path, data.clone()).unwrap();
                model.write(&path, data, false);
                next_file += 1;
            }
        }
        // Afternoon: reads, judged by the model.
        for _ in 0..8 {
            let path = pick(&model, &mut rng);
            let got = ros.read_file(&path).map(|r| r.data);
            assert_eq!(
                model.judge(&path, Read::Latest, &got),
                Verdict::Exact,
                "{path}"
            );
        }
        // Night: time passes; burns, parity and scheduled scrubs run.
        ros.run_for(SimDuration::from_secs(24 * 3600));
        let issues = ros.verify_consistency();
        assert!(issues.is_empty(), "day {day}: {issues:?}");
    }

    // Weekend maintenance: flush, age the media a little, audit and
    // repair. The buffer copies go first: a healthy copy settles an
    // image's health, and the drill is about the discs.
    ros.flush().unwrap();
    ros.unload_all_bays().unwrap();
    ros.evict_all_burned_copies();
    ros.age_media(0.001);
    let report = ros.audit_sample(usize::MAX);
    assert!(report.unrepairable.is_empty(), "{report:?}");
    let issues = ros.verify_consistency();
    assert!(issues.is_empty(), "post-maintenance: {issues:?}");

    // Final audit: every file still byte-exact, cold.
    ros.evict_burned_copies();
    ros.unload_all_bays().unwrap();
    let sweep = model.sweep(|path| ros.read_file(path).map(|r| r.data));
    assert!(sweep.lost.is_empty(), "{:?}", sweep.lost);
    // And the library did real work along the way.
    let c = ros.counters();
    assert!(c.burns >= 2, "burns = {}", c.burns);
    assert!(c.updates >= 10, "updates = {}", c.updates);
    assert!(ros.last_audit_report().is_some(), "scheduled scans ran");
    assert!(ros.now() > SimTime::from_secs(7 * 24 * 3600));
}

#[test]
fn consistency_checker_catches_injected_damage() {
    let mut ros = Ros::new(RosConfig::tiny());
    ros.write_file(&p("/ok"), content(1, 1000)).unwrap();
    ros.flush().unwrap();
    assert!(ros.verify_consistency().is_empty());
    // Adopt a namespace whose one version names an image the rack never
    // made: check 4 must say so.
    let mut mv = MetadataVolume::new();
    let entry = VersionEntry::new(LocTag::Disc, 1000, 0, vec![ImageId(9999)], vec![1000]);
    mv.create(&p("/ghost")).unwrap().push_version(entry);
    ros.adopt_namespace(mv);
    let issues = ros.verify_consistency();
    assert!(
        issues
            .iter()
            .any(|i| i.what.contains("references unknown image")),
        "{issues:?}"
    );
}

#[test]
fn mixed_gateway_workload_with_trace_roundtrip() {
    use ros::ros_workload::dist::SizeDist;
    use ros::ros_workload::{from_jsonl, to_jsonl};
    let spec = WorkloadSpec::Mixed {
        ops: 300,
        read_ratio: 0.5,
        sizes: SizeDist::Exponential {
            mean: 60_000,
            lo: 100,
            hi: 400_000,
        },
    };
    let ops = spec.compile(777);
    // The trace survives serialization and replays identically.
    let replayed = from_jsonl(&to_jsonl(&ops)).unwrap();
    assert_eq!(replayed, ops);
    let mut g = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::SambaOlfs);
    let stats = Runner::new().run(&mut g, &replayed).unwrap();
    assert_eq!(stats.corrupt_reads, 0);
    assert!(stats.write_latency.count() > 100);
    assert!(stats.read_latency.count() > 100);
    // Samba-level latencies for buffered ops.
    assert!(stats.read_latency.percentile(0.5) < SimDuration::from_millis(30));
    assert!(g.ros().verify_consistency().is_empty());
    // Replaying the same trace on a second system yields identical
    // byte counts (determinism across instances).
    let mut g2 = NasGateway::new(Ros::new(RosConfig::tiny()), AccessStack::SambaOlfs);
    let stats2 = Runner::new().run(&mut g2, &replayed).unwrap();
    assert_eq!(stats2.bytes_written, stats.bytes_written);
    assert_eq!(stats2.bytes_read, stats.bytes_read);
}
