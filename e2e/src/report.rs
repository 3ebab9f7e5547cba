//! What a run prints: a report for people, and JSON for machines.

use crate::inputs::Workload;
use crate::metrics::{LayerValues, Measured, PER_LAYER};
use crate::run::{Run, NOISY_IQR_SHARE};
use crate::system::PLANE_THREADS;
use std::fmt::Write;

/// A JSON number: the shortest text that reads back as the same f64,
/// so no measured digit is lost. JSON has no NaN or infinity; a value
/// that is not finite is a bug upstream and reads as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Escapes a string for JSON. Notes carry only printable ASCII, but a
/// quote or backslash must never break the last line of the output.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the run's shape and its noise report; flags a noisy run on
/// stderr. The run is never extended: the flag tells the reader that
/// a neighbour, not the code, may have moved a number.
pub fn print_run(run: &Run) {
    let w = run.inputs.workload;
    println!("== {}  seed {}", w.name(), run.inputs.seed);
    println!("   why: {}", w.why());
    println!(
        "   shape: closed loop, 1 client, 1 process, {PLANE_THREADS} data-plane threads; fresh system per repetition"
    );
    println!(
        "   inputs: {} paths, {:.1} MB written, {} preload + {} script ops per repetition",
        run.inputs.paths.len(),
        run.inputs.write_bytes() as f64 / 1e6,
        run.inputs.preload.len(),
        run.inputs.script.len()
    );
    let list = |walls: Vec<f64>| {
        let walls: Vec<String> = walls.iter().map(|s| format!("{s:.3}")).collect();
        walls.join(" ")
    };
    println!(
        "   repetitions: 1 warm-up (discarded) + {} timed",
        run.reps.len()
    );
    println!("   raw script wall s:        {}", list(run.raw_walls_s()));
    println!("   calibrated script wall s: {}", list(run.rep_walls_s()));
    let share = run.rep_wall_iqr_share();
    println!(
        "   bench.rep_wall_iqr_share {share:.4} (raw {:.4}); bench.calibration_factor {:.4}",
        run.raw_wall_iqr_share(),
        run.calibration_factor()
    );
    if share > NOISY_IQR_SHARE {
        eprintln!(
            "e2e: noisy: {} calibrated repetition walls spread {:.1} % (IQR/median) > {:.0} %; \
             wall-clock numbers of this run are suspect",
            w.name(),
            share * 100.0,
            NOISY_IQR_SHARE * 100.0
        );
    }
}

/// Prints the end-to-end metrics by name and unit.
pub fn print_end_to_end(measured: &[Measured]) {
    println!("   end-to-end:");
    for m in measured {
        println!(
            "     {:<30} {:>16.6} {:<6} {:<6} bound {:<5} n={:<6} {}",
            m.def.name,
            m.value,
            m.def.unit,
            m.def.better.word(),
            m.def.bound,
            m.samples,
            m.note
        );
    }
}

/// Prints the per-layer metrics; `n/a` where one does not apply.
pub fn print_per_layer(values: &LayerValues) {
    println!("   per-layer (traced run; *_est are estimates):");
    for (name, unit, better) in PER_LAYER {
        match values.get(name) {
            Some(v) => println!("     {name:<36} {v:>16.6} {unit:<6} {}", better.word()),
            None => println!("     {name:<36} {:>16} {unit:<6} {}", "n/a", better.word()),
        }
    }
}

/// The machine-readable last line of `run` and `trace`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(*value),
            string(unit)
        );
    }
    out.push_str("}}");
    out
}

/// One workload's object of `all --json`: every end-to-end metric
/// with name, unit, direction, bound, value and sample count.
pub fn workload_json(workload: Workload, run: &Run, measured: &[Measured]) -> String {
    let walls: Vec<String> = run.rep_walls_s().into_iter().map(number).collect();
    let share = run.rep_wall_iqr_share();
    let mut out = format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"loop\": \"closed, 1 client\", \
         \"plane_threads\": {PLANE_THREADS}, \"script_ops\": {}, \"write_mb\": {}, \"timed_reps\": {}, \
         \"rep_walls_s\": [{}], \"rep_wall_iqr_share\": {}, \"raw_wall_iqr_share\": {}, \
         \"calibration_factor\": {}, \"noisy\": {}, \"correct\": true, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": [",
        string(workload.name()),
        string(workload.why()),
        run.inputs.seed,
        run.inputs.script.len(),
        number(run.inputs.write_bytes() as f64 / 1e6),
        run.reps.len(),
        walls.join(", "),
        number(share),
        number(run.raw_wall_iqr_share()),
        number(run.calibration_factor()),
        share > NOISY_IQR_SHARE,
        run.attempted,
        run.failed,
    );
    for (i, m) in measured.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"value\": {}, \
             \"samples\": {}, \"note\": {}}}",
            string(m.def.name),
            string(m.def.unit),
            string(m.def.better.word()),
            number(m.def.bound),
            number(m.value),
            m.samples,
            string(&m.note)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_is_one_json_object_with_every_digit() {
        let line = contract_line(
            true,
            1000,
            0,
            &[("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.1 + 0.2)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_values_and_quotes_cannot_break_the_json() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c d\"");
    }
}
