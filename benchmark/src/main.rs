//! `kron-benchmark` — runs one workload in this process and reports it.
//!
//! ```text
//! kron-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                [--out DIR] [--dir DIR]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the layer
//! metrics of a traced pass). Writes `DIR/<workload>.json` — and, traced,
//! the Chrome trace `DIR/<workload>.trace.json` — under `--out`
//! (default `bench-out` beside the executable, in the cargo target
//! directory). Scratch files live under `--dir` (default `bench-scratch`
//! beside the executable) and are removed before exit. Exits 1 when any
//! check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use kron_benchmark::{run, RunConfig, Shape, Workload};

/// `name` beside the executable, inside the cargo target directory, so
/// the default report and scratch directories are never committed.
fn beside_exe(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("kron-benchmark: {msg}");
    eprintln!(
        "usage: kron-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--dir DIR]"
    );
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = beside_exe("bench-out");
    let mut dir = beside_exe("bench-scratch");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out" => out = PathBuf::from(value),
            "--dir" => dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };

    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        shape: Shape::FULL,
        scratch_root: dir,
        out_dir: out,
        inject_fault: false,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kron-benchmark: {}: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    for (spec, value) in &outcome.metrics {
        println!("{:<34} {:>20.6} {}", spec.name, value, spec.unit);
    }
    println!(
        "{:<34} {:>20.6} failed/attempted ({} of {})",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
