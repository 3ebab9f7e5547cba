//! `repro` — regenerate the paper's tables and figures from the models.
//!
//! Usage: `repro [table1|table2|table3|fig6|fig7|fig8|fig9|fig10|tco|power|mvrec|ablations|cluster|cluster-smoke|cas-smoke|all]`
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

use ros_bench::render;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
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
                 cluster cluster-smoke cas-smoke all json chaos durability"
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
