//! `e2e` — the end-to-end, layer-attributed benchmark of the ROS
//! reproduction.
//!
//! ```text
//! e2e run <workload>   [--seed N] [--seconds S]   end-to-end metrics
//! e2e trace <workload> [--seed N] [--seconds S]   per-layer metrics + span file
//! e2e all [--json]     [--seed N] [--seconds S]   the four workloads in sequence
//! e2e selfcheck                                   determinism gate, no wall clock
//! e2e --workload W --seed N --seconds S --trace 0|1     the form BENCHMARK.json runs
//! ```
//!
//! Each workload drives a whole ingest → seal → parity → burn → evict
//! → cold-read → audit pipeline through the public APIs of
//! `ros-access`, `ros-olfs` and `ros-cluster`, verifies every byte
//! read back, and reports medians over a fixed number of repetitions.
//! See README.md beside this package for the metric glossary.

mod calibrate;
mod heap;
mod inputs;
mod layers;
mod metrics;
mod rep;
mod report;
mod run;
mod spans;
mod stats;
mod system;

use inputs::{generate, Scale, Workload};
use run::{reps_for, Run, DEFAULT_SECONDS};
use std::process::ExitCode;

/// `--seed` when the command line does not say.
const DEFAULT_SEED: u64 = 12;

const USAGE: &str = "usage: e2e run|trace <workload> [--seed N] [--seconds S]
       e2e all [--json] [--seed N] [--seconds S]
       e2e selfcheck
       e2e --workload <workload> --seed N --seconds S --trace 0|1
workloads: ingest_burn cold_read small_ops cluster_preserve";

enum Command {
    Run(Workload),
    Trace(Workload),
    All { json: bool },
    Selfcheck,
}

struct Args {
    command: Command,
    seed: u64,
    seconds: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut positional: Vec<&str> = Vec::new();
    let (mut seed, mut seconds, mut json) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let (mut workload_flag, mut trace_flag) = (None, None);
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} {v}: not a whole number"))
        };
        match arg {
            "--seed" => seed = number("--seed", value("--seed")?)?,
            "--seconds" => seconds = number("--seconds", value("--seconds")?)?,
            "--workload" => workload_flag = Some(value("--workload")?),
            "--trace" => {
                trace_flag = Some(match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--json" => json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => positional.push(word),
        }
    }
    let workload = |name: &str| Workload::parse(name).ok_or(format!("unknown workload {name}"));
    let command = match (positional.as_slice(), workload_flag) {
        ([], Some(name)) if trace_flag == Some(true) => Command::Trace(workload(name)?),
        ([], Some(name)) => Command::Run(workload(name)?),
        (["run", name], None) => Command::Run(workload(name)?),
        (["trace", name], None) => Command::Trace(workload(name)?),
        (["all"], None) => Command::All { json },
        (["selfcheck"], None) => Command::Selfcheck,
        _ => return Err("unrecognised command line".into()),
    };
    Ok(Args {
        command,
        seed,
        seconds,
    })
}

fn main() -> ExitCode {
    heap::keep_resident();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command {
        Command::Run(w) => {
            end_to_end(w, args.seed, args.seconds).map(|(_, _, line)| println!("{line}"))
        }
        Command::Trace(w) => trace(w, args.seed, args.seconds),
        Command::All { json } => all(args.seed, args.seconds, json),
        Command::Selfcheck => selfcheck(args.seed),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced run: prints the report, returns the run, its metrics
/// and the machine-readable line.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: u64,
) -> Result<(Run, Vec<metrics::Measured>, String), String> {
    let run = run::run(
        workload,
        seed,
        Scale::Full,
        reps_for(workload, seconds),
        false,
    )?;
    let measured = metrics::end_to_end(&run);
    report::print_run(&run);
    report::print_end_to_end(&measured);
    let gated: Vec<(&str, &str, f64)> = measured
        .iter()
        .filter(|m| m.def.gated)
        .map(|m| (m.def.name, m.def.unit, m.value))
        .collect();
    let line = report::contract_line(true, run.attempted, run.failed, &gated);
    Ok((run, measured, line))
}

/// The traced run: half the repetitions untraced, half traced,
/// interleaved; then the replay of the workload's bytes against the
/// lower layers, the share estimate, and the span file.
fn trace(workload: Workload, seed: u64, seconds: u64) -> Result<(), String> {
    let pairs = (reps_for(workload, seconds) / 2).max(5);
    let mut run = run::run(workload, seed, Scale::Full, pairs, true)?;
    let cfg = system::rack_config(workload);
    let mut log = run.log.take().expect("a traced run keeps a span log");
    let replay_rep = u32::try_from(pairs + 1).expect("repetition count fits u32");
    let costs = layers::replay(&run.inputs, &cfg, &mut log, replay_rep)?;
    log.check()?;

    // The share estimate describes the repetition with the median wall.
    let mut by_wall: Vec<&rep::RepRecord> = run.reps.iter().collect();
    by_wall.sort_by_key(|r| r.wall_ns);
    let script_write_bytes = run.inputs.write_bytes_of(&run.inputs.script);
    let shares = layers::estimate(by_wall[by_wall.len() / 2], &costs, &cfg, script_write_bytes);
    let values = metrics::per_layer(&run, &costs, &shares);

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), std::path::PathBuf::from);
    let file = dir
        .join("e2e")
        .join(format!("{}.spans.jsonl", workload.name()));
    log.write_file(workload.name(), &file)
        .map_err(|e| format!("writing {}: {e}", file.display()))?;

    report::print_run(&run);
    report::print_per_layer(&values);
    println!(
        "   layer shares sum to {:.6}; {} spans in {}",
        shares.total(),
        log.spans().len(),
        file.display()
    );
    if values
        .get("olfs.sim_trace_residual_ms")
        .is_some_and(|r| r != 0.0)
    {
        return Err("an op trace does not add up to its reported latency".into());
    }
    let line: Vec<(&str, &str, f64)> = metrics::PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, values.get(name).unwrap_or(0.0)))
        .collect();
    println!(
        "{}",
        report::contract_line(true, run.attempted, run.failed, &line)
    );
    Ok(())
}

fn all(seed: u64, seconds: u64, json: bool) -> Result<(), String> {
    let mut objects = Vec::new();
    for workload in Workload::ALL {
        let (run, measured, _) = end_to_end(workload, seed, seconds)?;
        if run.failed > 0 {
            return Err(format!(
                "{}: {} op(s) returned an error",
                workload.name(),
                run.failed
            ));
        }
        objects.push(report::workload_json(workload, &run, &measured));
    }
    if json {
        for object in objects {
            println!("{object}");
        }
    }
    Ok(())
}

/// The determinism and correctness gate: each workload's CI-sized
/// script twice from scratch. Every simulated metric and every count
/// must agree between the passes, every op trace must add up to its
/// latency, and no op may fail. No wall-clock number is looked at.
fn selfcheck(seed: u64) -> Result<(), String> {
    for workload in Workload::ALL {
        let pass = || rep::run_rep(&generate(workload, seed, Scale::Check), 0, None);
        let (a, b) = (pass()?, pass()?);
        let name = workload.name();
        if a.simulated() != b.simulated() {
            return Err(format!(
                "{name}: two passes disagree on a simulated metric or count"
            ));
        }
        if a.trace.residual_ns != 0 {
            return Err(format!(
                "{name}: op traces miss their latencies by {} ns in total",
                a.trace.residual_ns
            ));
        }
        if a.failed != 0 {
            return Err(format!(
                "{name}: {} of {} ops failed",
                a.failed, a.attempted
            ));
        }
        println!(
            "selfcheck {name}: ok ({} ops, {} sealed, {} burns, {} fetches, makespan {:.1} s)",
            a.attempted,
            a.end.counters.buckets_sealed,
            a.end.counters.burns,
            a.end.counters.fetches,
            a.makespan_ns as f64 / 1e9
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_command_forms_parse_to_the_same_run() {
        let a = parse(&words(
            "--workload cold_read --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        let b = parse(&words("trace cold_read --seconds 3 --seed 7")).unwrap();
        for args in [a, b] {
            assert!(matches!(args.command, Command::Trace(Workload::ColdRead)));
            assert_eq!((args.seed, args.seconds), (7, 3));
        }
        let run = parse(&words(
            "--workload small_ops --seed 1 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert!(matches!(run.command, Command::Run(Workload::SmallOps)));
        let defaults = parse(&words("all --json")).unwrap();
        assert!(matches!(defaults.command, Command::All { json: true }));
        assert_eq!(
            (defaults.seed, defaults.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "run",
            "run nope",
            "--workload",
            "--trace 2 --workload cold_read",
            "all --fast",
            "--seed x all",
        ] {
            assert!(parse(&words(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn check_scale_scripts_run_clean_and_repeat_exactly() {
        assert_eq!(selfcheck(12), Ok(()));
    }
}
