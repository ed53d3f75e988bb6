//! Every workload at factor scale 4, untraced and traced: each metric
//! `BENCHMARK.json` names is emitted with its unit, every check passes,
//! the traced breakdown leaves at most 5% of the timed wall time
//! unattributed, and an injected wrong expectation is reported as a
//! failure.

use std::path::PathBuf;
use std::sync::Mutex;

use kron_benchmark::{run, Outcome, RunConfig, Shape, Workload, END_TO_END, PER_LAYER};

/// Runs share process-global observability switches and the flight
/// recorder, so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_small(workload: Workload, trace: bool, inject_fault: bool) -> Outcome {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        shape: Shape::SMALL,
        scratch_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scratch"),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out"),
        inject_fault,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section (an
/// array of flat objects), or the names of its workloads.
fn section(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, name: &str| -> String {
        let Some(at) = obj.find(&format!("\"{name}\"")) else {
            return String::new();
        };
        let rest = &obj[at + name.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closed string") + open;
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|(s, _)| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_names_the_crates_workloads_and_metrics() {
    let workloads: Vec<String> = section("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let catalog = |specs: &[kron_benchmark::MetricSpec]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), catalog(END_TO_END));
    assert_eq!(section("per_layer"), catalog(PER_LAYER));
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let name = workload.name();

        let plain = run_small(workload, false, false);
        assert!(plain.correct(), "{name}: {plain:?}");
        assert_eq!(plain.error_rate(), 0.0, "{name}");
        assert_eq!(reported(&plain), section("end_to_end"), "{name}");
        for (spec, value) in &plain.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: {} = {value}",
                spec.name
            );
        }
        let line = plain.result_line();
        kron_obs::json_lint::validate(&line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));

        let traced = run_small(workload, true, false);
        assert!(traced.correct(), "{name}: {traced:?}");
        assert_eq!(traced.error_rate(), 0.0, "{name}");
        assert_eq!(reported(&traced), section("per_layer"), "{name}");
        let unattributed = traced.value("trace.unattributed_share").expect("reported");
        assert!(
            unattributed <= 0.05,
            "{name}: {unattributed} of the timed wall time unattributed"
        );
        let trace_file =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("out/{name}.trace.json"));
        let trace = std::fs::read_to_string(&trace_file).expect("traced run writes a Chrome trace");
        kron_obs::json_lint::validate(&trace).expect("the trace is valid JSON");
    }
}

#[test]
fn an_injected_wrong_expectation_is_a_failure() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for workload in Workload::ALL {
        let outcome = run_small(workload, false, true);
        assert!(
            outcome.error_rate() > 0.0,
            "{}: {outcome:?}",
            workload.name()
        );
        assert!(!outcome.correct());
    }
}
