//! `repro` — regenerate the paper's tables and figures from the models.
//!
//! Usage: `repro [table1|table2|table3|fig6|fig7|fig8|fig9|fig10|tco|power|mvrec|ablations|cluster|cluster-smoke|cas-smoke|all]`
//!
//! Perf harness: `repro perf` (text), `repro perf --json` (baseline
//! format), `repro perf --check BENCH_hotpaths.json` (CI gate — exits
//! non-zero when a tracked metric regresses past the threshold).
//!
//! Chaos harness: `repro chaos` (full soak), `repro chaos --smoke`
//! (CI-sized run). Exits non-zero on acked-write loss, timeline
//! divergence across the seeded re-run, or retry amplification past
//! the ceiling.
//!
//! CAS harness: `repro cas-smoke` runs the dedup comparison (same
//! duplicated Zipf ingest through dedup-off and dedup-on engines) and
//! exits non-zero unless dedup burns strictly less and every alias
//! reads back digest-exact.
//!
//! Durability harness: `repro durability` (full sweep), `repro
//! durability --smoke` (CI-sized), `--json` for the raw deterministic
//! report. Exits non-zero on silent-corruption reads, non-determinism
//! across the seeded re-run, a campaign that never exercised rot, or
//! data loss at the recommended operating point.

// The workspace's domain rules, held by clippy (DESIGN.md §8): no panic
// paths, no lossy casts, no hash-order iteration outside test code.
// `warn` here; CI's `-D warnings` makes them fatal.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::iter_over_hash_type
    )
)]

use ros_bench::{perf, render};

/// `repro perf [--json | --check <baseline>]`.
fn run_perf(mode: Option<&str>, baseline_path: Option<&str>) -> Result<String, String> {
    let report = perf::measure(5);
    match mode {
        None => Ok(report.to_text()),
        Some("--json") => Ok(report.to_json().map_err(|e| e.to_string())? + "\n"),
        Some("--check") => {
            let path = baseline_path.ok_or("usage: repro perf --check <baseline.json>")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let baseline = perf::PerfReport::from_json(&text).map_err(|e| e.to_string())?;
            let regressions = report.regressions_vs(&baseline);
            if regressions.is_empty() {
                let mut out = report.to_text();
                out += &format!(
                    "\nperf gate: OK — all tracked metrics within {}% of {path}\n",
                    baseline.max_regression_pct
                );
                return Ok(out);
            }
            let mut msg = format!(
                "perf gate: {} tracked metric(s) regressed >{}% vs {path}:\n",
                regressions.len(),
                baseline.max_regression_pct
            );
            for (name, base, cur) in regressions {
                if cur.is_nan() {
                    msg += &format!("  {name}: missing from current report (baseline {base:.2})\n");
                } else {
                    msg += &format!(
                        "  {name}: {base:.2} -> {cur:.2} ({:+.1}%)\n",
                        (cur / base - 1.0) * 100.0
                    );
                }
            }
            Err(msg)
        }
        Some(other) => Err(format!(
            "unknown perf flag '{other}'; expected --json or --check"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    if arg == "perf" {
        match run_perf(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if arg == "chaos" {
        let smoke = match args.get(1).map(String::as_str) {
            None => false,
            Some("--smoke") => true,
            Some(other) => {
                eprintln!("unknown chaos flag '{other}'; expected --smoke");
                std::process::exit(2);
            }
        };
        match render::render_chaos(smoke) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("chaos soak failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if arg == "durability" {
        let mut smoke = false;
        let mut json = false;
        for flag in args.iter().skip(1) {
            match flag.as_str() {
                "--smoke" => smoke = true,
                "--json" => json = true,
                other => {
                    eprintln!("unknown durability flag '{other}'; expected --smoke or --json");
                    std::process::exit(2);
                }
            }
        }
        match render::render_durability(smoke, json) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("durability campaign failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let out = match arg.as_str() {
        "table1" => render::render_table1(),
        "table2" => Ok(render::render_table2()),
        "table3" => render::render_table3(),
        "fig6" => Ok(render::render_fig6()),
        "fig7" => render::render_fig7(),
        "fig8" => Ok(render::render_fig8()),
        "fig9" => Ok(render::render_fig9()),
        "fig10" => Ok(render::render_fig10()),
        "tco" => render::render_tco(),
        "power" => Ok(render::render_power()),
        "mvrec" => render::render_mvrec(),
        "capacity" => render::render_capacity(),
        "ablations" => render::render_ablations(),
        "cluster" => render::render_cluster(),
        "cluster-smoke" => render::render_cluster_smoke(),
        "cas-smoke" => render::render_cas_smoke(),
        "all" => render::render_all(),
        "--json" | "json" => render::render_json(),
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: table1 table2 table3 \
                 fig6 fig7 fig8 fig9 fig10 tco power mvrec capacity ablations \
                 cluster cluster-smoke cas-smoke all json perf chaos durability"
            );
            std::process::exit(2);
        }
    };
    match out {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    }
}
