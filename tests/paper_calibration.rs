//! End-to-end calibration against the paper's published numbers: every
//! table and figure within tolerance, plus the shape each one must have
//! (row order, bar order, step counts). `repro` renders the same
//! scenarios and this test asserts them, so `cargo test` alone is
//! sufficient to check the reproduction.

#[test]
fn table1_read_latency_matrix() {
    let rows = ros_bench::table1().expect("table1 scenario");
    assert_eq!(rows.len(), 6);
    // Each location is strictly slower than the one before it. This is
    // the only check on the last, "minutes" row: at 4 MiB scale its wait
    // is shorter than the paper's, but it must still dominate the rest.
    for pair in rows.windows(2) {
        assert!(
            pair[1].measured_secs > pair[0].measured_secs,
            "{} is not slower than {}",
            pair[1].location,
            pair[0].location
        );
    }
    for row in &rows {
        if let Some(paper) = row.paper_secs {
            let tol = (paper * 0.05f64).max(0.0003);
            assert!(
                (row.measured_secs - paper).abs() < tol,
                "{}: measured {:.4}s vs paper {:.3}s",
                row.location,
                row.measured_secs,
                paper
            );
        }
    }
}

#[test]
fn table2_drive_read_speeds() {
    for row in ros_bench::table2() {
        assert!(
            (row.single - row.paper_single).abs() / row.paper_single < 0.02,
            "{}GB single",
            row.capacity_gb
        );
        assert!(
            (row.aggregate - row.paper_aggregate).abs() / row.paper_aggregate < 0.02,
            "{}GB aggregate",
            row.capacity_gb
        );
    }
}

#[test]
fn table3_mechanical_latency() {
    for row in ros_bench::table3().expect("table3 scenario") {
        assert!((row.load - row.paper_load).abs() < 0.1, "{}", row.location);
        assert!(
            (row.unload - row.paper_unload).abs() < 0.1,
            "{}",
            row.location
        );
    }
}

#[test]
fn fig6_stack_throughput() {
    let bars = ros_bench::fig6();
    let get = |n: &str| bars.iter().find(|b| b.stack == n).expect("bar");
    // §5.3's quoted factors.
    assert!((get("ext4+FUSE").read_norm - 0.759).abs() < 0.01);
    assert!((get("ext4+FUSE").write_norm - 0.482).abs() < 0.01);
    assert!((get("ext4+OLFS").read_norm - 0.540).abs() < 0.01);
    assert!((get("ext4+OLFS").write_norm - 0.433).abs() < 0.01);
    assert!((get("samba").read_norm - 0.311).abs() < 0.01);
    assert!((get("samba").write_norm - 0.320).abs() < 0.01);
    // The headline absolute numbers.
    assert!((get("samba+OLFS").read_mbps - 236.1).abs() < 8.0);
    assert!((get("samba+OLFS").write_mbps - 323.6).abs() < 8.0);
    // Reads strictly descend across the stacks.
    for pair in bars.windows(2) {
        assert!(
            pair[0].read_norm > pair[1].read_norm,
            "{} does not read slower than {}",
            pair[1].stack,
            pair[0].stack
        );
    }
}

#[test]
fn fig7_op_latencies() {
    let ops = ros_bench::fig7().expect("fig7 scenario");
    for op in &ops {
        let rel = (op.measured_ms - op.paper_ms).abs() / op.paper_ms;
        assert!(
            rel < 0.08,
            "{}: {:.1} vs {:.0} ms",
            op.label,
            op.measured_ms,
            op.paper_ms
        );
    }
    // The live samba write carries the paper's extra stat burst.
    let samba_write = ops
        .iter()
        .find(|o| o.label == "samba+OLFS write")
        .expect("samba+OLFS write");
    let stats = samba_write
        .steps
        .iter()
        .filter(|(name, _)| name == "stat")
        .count();
    assert_eq!(stats, 8, "2 OLFS stats + 6 Samba stats");
}

#[test]
fn fig8_single_25gb_burn() {
    let plan = ros_bench::fig8();
    assert!((plan.total.as_secs_f64() - 675.0).abs() < 10.0);
    assert!((plan.average_x - 8.2).abs() < 0.15);
    // The ramp: 1.6X inner, ~12X outer, monotone.
    let active: Vec<f64> = plan
        .samples
        .iter()
        .filter(|s| s.x > 0.0)
        .map(|s| s.x)
        .collect();
    assert!((active[0] - 1.6).abs() < 0.05);
    assert!(active.last().unwrap() > &11.8);
    assert!(active.windows(2).all(|w| w[1] >= w[0] - 1e-9));
}

#[test]
fn fig9_array_burn() {
    let report = ros_bench::fig9();
    assert!((report.total.as_secs_f64() - 1146.0).abs() / 1146.0 < 0.03);
    assert!((report.peak.mb_per_sec() - 380.0).abs() < 5.0);
    assert!((report.average.mb_per_sec() - 268.0).abs() / 268.0 < 0.04);
}

#[test]
fn fig10_single_100gb_burn() {
    let plan = ros_bench::fig10();
    assert!((plan.total.as_secs_f64() - 3757.0).abs() < 80.0);
    assert!((plan.average_x - 5.9).abs() < 0.1);
    let dips = plan
        .samples
        .iter()
        .filter(|s| s.x > 0.0 && (s.x - 4.0).abs() < 1e-9)
        .count();
    let nominal = plan
        .samples
        .iter()
        .filter(|s| (s.x - 6.0).abs() < 1e-9)
        .count();
    assert!(dips > 0 && nominal > dips * 10);
}

#[test]
fn tco_and_power_claims() {
    let rows = ros_bench::tco();
    let get = |n: &str| rows.iter().find(|b| b.name == n).expect("media").total();
    let optical = get("optical");
    assert!((optical - 250_000.0).abs() / 250_000.0 < 0.15);
    assert!((optical / get("hdd") - 1.0 / 3.0).abs() < 0.07);
    assert!((optical / get("tape") - 0.5).abs() < 0.08);
    let (idle, peak) = ros_bench::power();
    assert!((idle - 185.0).abs() < 2.0);
    assert!((peak - 652.0).abs() < 2.0);
}

#[test]
fn mv_recovery_half_hour() {
    let mins = ros_bench::mv_recovery_default()
        .expect("mv recovery")
        .as_secs_f64()
        / 60.0;
    assert!((27.0..33.0).contains(&mins), "recovery = {mins:.1} min");
}

#[test]
fn ablations_show_the_design_choices_pay() {
    let (spread, crammed) = ros_bench::ablation_volumes().expect("volumes ablation");
    assert!(spread > crammed * 1.5);
    let (par, ser) = ros_bench::ablation_parallel_scheduling().expect("scheduling ablation");
    assert!((7.0..10.0).contains(&(ser - par)));
    let (fp_ms, no_fp_s) = ros_bench::ablation_forepart().expect("forepart ablation");
    assert!(fp_ms <= 2.1);
    assert!(no_fp_s > 60.0);
}

#[test]
fn capacity_analysis_is_internally_consistent() {
    let c = ros_bench::capacity().expect("capacity report");
    // The drain is the bottleneck for sustained ingest; the 10GbE
    // network and the disk tier comfortably outrun the burners.
    assert!(c.network_mbps > c.drain_bd25_mbps);
    assert!(c.drain_bd25_mbps > c.drain_bd100_mbps);
    // 2 bays of the Figure-9 average (264 MB/s) at 11/12 data fraction.
    assert!((c.drain_bd25_mbps - 2.0 * 264.0 * 11.0 / 12.0).abs() < 15.0);
    // The §3.3 "more than 50TB" buffer (48 TB usable here) absorbs a
    // double-digit-hours burst at full direct-mode ingest.
    assert!((10.0..30.0).contains(&c.burst_hours), "{}", c.burst_hours);
}
