//! Structure-exploiting kernel smoke benchmark (PR 5, extends PR 4).
//!
//! Runs generation + CSR build through **direct synthesis**, the
//! compact-forward direct triangle kernel, and the class-collapsed
//! closeness batch, at a fixed small scale for 1 thread and the
//! machine's full parallelism. Each phase's outputs are verified
//! identical across thread counts. Per phase the report now carries:
//!
//! - wall time at 1 thread **stripped** (observability disabled — the
//!   number comparable to earlier baselines) and **instrumented**
//!   (spans + metrics enabled), so the probe overhead is itself measured;
//! - wall time at machine parallelism and the resulting speedup;
//! - the PR 4 **analytic** peak-intermediate-allocation estimate,
//!   side by side with the **measured** allocation profile from the
//!   `measure-alloc` counting allocator (peak/net bytes, allocation
//!   count) so the estimates can be audited against reality.
//!
//! Timing methodology (PR 6): the stripped, instrumented, and
//! max-threads configurations are **interleaved** — one repetition of
//! each per round, five rounds — and the **median** per configuration is
//! reported. The earlier sequential best-of-3 compared a cold stripped
//! run against a warm instrumented one, which produced impossible
//! negative probe overheads (−30% in `BENCH_PR5.json`); interleaving
//! gives every configuration the same warm-state distribution and the
//! median rejects the remaining outliers.
//!
//! The report embeds the full [`kron_obs::report::ObsReport`] (span tree
//! + metrics snapshot), is stamped with
//! [`kron_obs::report::SCHEMA_VERSION`], is written to `BENCH_PR6.json`,
//! and is re-read and linted through `kron_obs::json_lint` before the
//! process exits. When a baseline file is present (default
//! `BENCH_PR5.json`), a per-phase comparison is embedded and printed;
//! a missing, newer-schema, or unrecognizable baseline degrades to a
//! "no baseline" note instead of an error.
//!
//! **Regression gate**: with `--gate-pct P`, any phase whose stripped
//! time regresses more than `P`% against the baseline fails the run —
//! the report is still written (with the gate verdict embedded) but the
//! process exits nonzero. `--compare CURRENT` skips the benchmark
//! entirely and evaluates the gate between two existing report files
//! (the self-test mode `scripts/bench.sh` uses to prove the gate trips).
//!
//! Usage: `bench_smoke [--scale S] [--out PATH] [--baseline PATH]
//!                     [--gate-pct P] [--compare REPORT]`

use std::time::Instant;

use kron_analytics::triangles::vertex_triangles_threads;
use kron_core::closeness::closeness_batch_threads;
use kron_core::distance::DistanceOracle;
use kron_core::generate::materialize_threads;
use kron_core::KroneckerPair;
use kron_graph::generators::{rmat, RmatConfig};
use kron_graph::parallel;
use kron_obs::alloc::Measure;
use kron_obs::report::{ObsReport, SCHEMA_VERSION};
use serde::Serialize;

#[derive(Serialize)]
struct Phase {
    name: String,
    /// 1-thread wall time with observability disabled — the number to
    /// compare against earlier baselines.
    secs_threads_1: f64,
    /// 1-thread wall time with spans + metrics enabled.
    secs_threads_1_instrumented: f64,
    /// Instrumented / stripped − 1, in percent (probe overhead).
    obs_overhead_pct: f64,
    secs_threads_max: f64,
    speedup: f64,
    /// Analytic estimate of the peak transient allocation the phase makes
    /// beyond its returned output (bytes, single-threaded shape).
    peak_intermediate_bytes: u64,
    /// Measured allocation profile of the 1-thread instrumented run
    /// (`measured == false` when built without `measure-alloc`).
    measured_alloc: Measure,
}

#[derive(Serialize)]
struct BaselineDelta {
    name: String,
    baseline_secs_threads_1: f64,
    secs_threads_1: f64,
    /// baseline / current — >1 means this PR is faster.
    speedup_vs_baseline: f64,
    /// current / baseline − 1, in percent — >0 means this PR is slower.
    regression_pct: f64,
}

/// Verdict of the stripped-time regression gate, embedded in the report.
#[derive(Serialize)]
struct GateResult {
    /// Maximum tolerated `regression_pct` per phase.
    threshold_pct: f64,
    /// Phases whose regression exceeded the threshold.
    failures: Vec<String>,
    passed: bool,
}

/// Evaluates the gate: every phase present in both reports must not have
/// regressed its stripped time by more than `threshold_pct` percent.
fn evaluate_gate(deltas: &[BaselineDelta], threshold_pct: f64) -> GateResult {
    let failures: Vec<String> = deltas
        .iter()
        .filter(|d| d.regression_pct > threshold_pct)
        .map(|d| {
            format!(
                "{}: {:.4}s -> {:.4}s ({:+.2}% > {:+.2}%)",
                d.name,
                d.baseline_secs_threads_1,
                d.secs_threads_1,
                d.regression_pct,
                threshold_pct
            )
        })
        .collect();
    GateResult { threshold_pct, passed: failures.is_empty(), failures }
}

/// Builds per-phase deltas from parsed `(name, secs_threads_1)` lists.
fn deltas_between(baseline: &[(String, f64)], current: &[(String, f64)]) -> Vec<BaselineDelta> {
    baseline
        .iter()
        .filter_map(|(name, base_secs)| {
            let (_, now) = current.iter().find(|(n, _)| n == name)?;
            Some(BaselineDelta {
                name: name.clone(),
                baseline_secs_threads_1: *base_secs,
                secs_threads_1: *now,
                speedup_vs_baseline: base_secs / now.max(1e-12),
                regression_pct: (now / base_secs.max(1e-12) - 1.0) * 100.0,
            })
        })
        .collect()
}

#[derive(Serialize)]
struct SmokeReport {
    /// Stamped first so line-oriented baseline parsers see it before the
    /// embedded [`ObsReport`]'s own copy.
    schema_version: u32,
    factor_scale: u32,
    n_c: u64,
    product_arcs: u64,
    threads_max: usize,
    alloc_measured: bool,
    phases: Vec<Phase>,
    baseline_file: Option<String>,
    baseline_note: Option<String>,
    vs_baseline: Vec<BaselineDelta>,
    /// Regression-gate verdict (`None` when run without `--gate-pct` or
    /// when no baseline was usable).
    gate: Option<GateResult>,
    obs: ObsReport,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Interleaved repetition rounds per phase; the median is reported.
const REPS: usize = 5;

/// Median of a small timing sample (odd `REPS` → the true middle).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs one phase three ways — 1 thread stripped (obs off), 1 thread
/// instrumented + allocation-measured, `tmax` threads instrumented —
/// **interleaved** over [`REPS`] rounds (stripped, instrumented, parallel,
/// repeat), reporting the per-configuration median. Interleaving gives
/// all three configurations the same warm-state distribution, so the
/// overhead ratio compares like with like; sequential best-of-N timed a
/// cold stripped run against a warm instrumented one and reported
/// negative probe overhead. Every round's outputs are asserted identical
/// before any timing is trusted.
fn phase<T: PartialEq>(
    name: &str,
    tmax: usize,
    intermediate_bytes: u64,
    run: impl Fn(usize) -> T,
) -> (Phase, T) {
    let mut stripped = [0f64; REPS];
    let mut instrumented = [0f64; REPS];
    let mut parallel = [0f64; REPS];
    let mut measured_alloc = Measure::default();
    let mut seq: Option<T> = None;
    for rep in 0..REPS {
        // Each run's output is compared and dropped *before* the next
        // configuration is timed, so every run starts from the same
        // allocator state: the retained reference output alive, plus the
        // hole just freed by the previous run. Letting outputs pile up to
        // the end of the round hands some configurations a warm
        // just-freed block and forces others to fault in fresh pages —
        // a 2× asymmetry on the multi-MB phases of this box.
        kron_obs::set_enabled(false);
        let (out, secs) = time(|| run(1));
        stripped[rep] = secs;
        match &seq {
            None => seq = Some(out),
            Some(reference) => {
                assert!(out == *reference, "{name}: stripped output changed across reps");
                drop(out);
            }
        }
        let reference = seq.as_ref().expect("set in round 0");

        kron_obs::set_enabled(true);
        let (out, secs) = time(|| kron_obs::alloc::measure(|| run(1)));
        instrumented[rep] = secs;
        assert!(out.0 == *reference, "{name}: instrumented output differs from stripped");
        // The warmest (last) round's profile is reported — the first
        // instrumented round also pays one-time name-interning allocations.
        measured_alloc = out.1;
        drop(out);

        let (out, secs) = time(|| run(tmax));
        parallel[rep] = secs;
        assert!(out == *reference, "{name}: parallel output differs from sequential");
        drop(out);
    }
    if std::env::var_os("BENCH_SMOKE_DEBUG_REPS").is_some() {
        eprintln!("bench_smoke: {name}: raw reps stripped={stripped:?}");
        eprintln!("bench_smoke: {name}: raw reps instrumented={instrumented:?}");
        eprintln!("bench_smoke: {name}: raw reps parallel={parallel:?}");
    }
    let secs_stripped = median(&mut stripped);
    let secs_instr = median(&mut instrumented);
    let secs_max = median(&mut parallel);
    let phase = Phase {
        name: name.to_string(),
        secs_threads_1: secs_stripped,
        secs_threads_1_instrumented: secs_instr,
        obs_overhead_pct: (secs_instr / secs_stripped.max(1e-12) - 1.0) * 100.0,
        secs_threads_max: secs_max,
        speedup: secs_stripped / secs_max.max(1e-12),
        peak_intermediate_bytes: intermediate_bytes,
        measured_alloc,
    };
    (phase, seq.expect("REPS > 0"))
}

/// Extracts `(name, secs_threads_1)` pairs from a previous report without
/// a JSON deserializer (the vendored serde_json is serialize-only): scans
/// for `"name"` / `"secs_threads_1"` string and number fields in order.
/// Returns `Err(reason)` when the baseline should be skipped: its first
/// `schema_version` stamp is newer than ours, or no phase timings were
/// recognized. A baseline with no stamp at all is legacy (pre-PR 5) and
/// is accepted.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut version: Option<u32> = None;
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"schema_version\":") {
            if version.is_none() {
                version = rest.trim().parse::<u32>().ok();
            }
        } else if let Some(rest) = line.strip_prefix("\"name\":") {
            current = Some(rest.trim().trim_matches('"').to_string());
        } else if let Some(rest) = line.strip_prefix("\"secs_threads_1\":") {
            if let (Some(name), Ok(secs)) = (current.take(), rest.trim().parse::<f64>()) {
                // Keep only the first occurrence per phase: a report's own
                // `vs_baseline` section repeats names with older timings.
                if !out.iter().any(|(n, _): &(String, f64)| *n == name) {
                    out.push((name, secs));
                }
            }
        }
    }
    if let Some(v) = version {
        if v > SCHEMA_VERSION {
            return Err(format!(
                "baseline schema_version {v} is newer than this binary's {SCHEMA_VERSION}"
            ));
        }
    }
    if out.is_empty() {
        return Err("unrecognized schema (no phase timings found)".to_string());
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let scale: u32 = get("--scale").map_or(7, |s| s.parse().expect("numeric --scale"));
    let out_path = get("--out").unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let baseline_path = get("--baseline").unwrap_or_else(|| "BENCH_PR5.json".to_string());
    let gate_pct: Option<f64> =
        get("--gate-pct").map(|s| s.parse().expect("numeric --gate-pct"));

    // Compare-only mode: no benchmark, just gate one existing report
    // against the baseline (the bench.sh gate self-test).
    if let Some(current_path) = get("--compare") {
        let threshold = gate_pct.unwrap_or(15.0);
        let load = |path: &str| -> Vec<(String, f64)> {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("bench_smoke --compare: {path}: {e}"));
            parse_baseline(&text)
                .unwrap_or_else(|r| panic!("bench_smoke --compare: {path}: {r}"))
        };
        let deltas = deltas_between(&load(&baseline_path), &load(&current_path));
        assert!(
            !deltas.is_empty(),
            "bench_smoke --compare: no common phases between {baseline_path} and {current_path}"
        );
        let gate = evaluate_gate(&deltas, threshold);
        for d in &deltas {
            eprintln!(
                "bench_smoke: {}: {:.4}s -> {:.4}s ({:+.2}%)",
                d.name, d.baseline_secs_threads_1, d.secs_threads_1, d.regression_pct
            );
        }
        if gate.passed {
            eprintln!("bench_smoke: gate PASS (threshold {threshold}%)");
        } else {
            for f in &gate.failures {
                eprintln!("bench_smoke: gate FAIL: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    let tmax = parallel::num_threads(None);
    kron_obs::reset();

    let a = rmat(&RmatConfig::graph500(scale, 12));
    let b = rmat(&RmatConfig::graph500(scale, 13));
    // FullBoth keeps the product connected-ish and satisfies the distance
    // oracle's full-self-loop precondition (Thm. 3).
    let pair = KroneckerPair::with_full_self_loops(a, b).expect("loop-free R-MAT factors");
    let n_c = pair.n_c();
    let m_c = pair.nnz_c() as u64;
    eprintln!(
        "bench_smoke: scale {scale} factors, n_C = {n_c}, {m_c} product arcs, \
         max threads = {tmax}, alloc measurement {}",
        if kron_obs::alloc::measuring() { "on" } else { "off" }
    );

    let mut phases = Vec::new();

    // Direct synthesis: the only transients beyond the output CSR are the
    // B-degree table and the per-A-row block prefix used for splitting.
    let synth_intermediate = 8 * (pair.b().n() + pair.a().n() + 1);
    let (p, c) = phase("generate_and_csr_build", tmax, synth_intermediate, |t| {
        materialize_threads(&pair, Some(t))
    });
    phases.push(p);

    // Degree-ordered marking kernel: rank order + inverse + rank-space
    // counts (8 + 4 + 8 bytes per vertex), forward half-adjacency
    // (usize offsets + u32 targets for ~m/2 oriented arcs), and the
    // one-bit-per-vertex anchor bitmap.
    let forward_intermediate = 20 * n_c + 8 * (n_c + 1) + 4 * (m_c / 2) + n_c / 8;
    let (p, _) = phase("triangle_vector_direct", tmax, forward_intermediate, |t| {
        vertex_triangles_threads(&c, Some(t))
    });
    phases.push(p);

    let oracle = DistanceOracle::new(&pair).expect("distance oracle");
    let vertices: Vec<u64> = (0..n_c).collect();
    // Class-collapsed closeness: per-factor cumulative hop tables (≤ n_A +
    // n_B of them, each ≤ eccentricity+2 u64s — bounded by the factor BFS
    // matrices) plus the class-id slots.
    let ecc_bound = 8 * (pair.a().n() + pair.b().n()) * 16 + 4 * (pair.a().n() + pair.b().n());
    let (p, _) = phase("closeness_batch", tmax, ecc_bound, |t| {
        closeness_batch_threads(&oracle, &vertices, Some(t)).expect("in range")
    });
    phases.push(p);

    for p in &phases {
        eprintln!(
            "bench_smoke: {}: {:.4}s stripped, {:.4}s instrumented ({:+.2}% obs overhead), \
             measured peak {} B vs analytic {} B",
            p.name,
            p.secs_threads_1,
            p.secs_threads_1_instrumented,
            p.obs_overhead_pct,
            p.measured_alloc.peak_bytes,
            p.peak_intermediate_bytes,
        );
    }

    // Compare against the previous PR's report when present; any problem
    // with the file downgrades to a note, never an error.
    let mut vs_baseline = Vec::new();
    let mut baseline_file = None;
    let mut baseline_note = None;
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(pairs) => {
                baseline_file = Some(baseline_path.clone());
                let current: Vec<(String, f64)> =
                    phases.iter().map(|p| (p.name.clone(), p.secs_threads_1)).collect();
                vs_baseline = deltas_between(&pairs, &current);
            }
            Err(reason) => {
                let note = format!("no baseline: {baseline_path}: {reason}");
                eprintln!("bench_smoke: {note}");
                baseline_note = Some(note);
            }
        },
        Err(e) => {
            let note = format!("no baseline: {baseline_path}: {e}");
            eprintln!("bench_smoke: {note}");
            baseline_note = Some(note);
        }
    }
    for d in &vs_baseline {
        eprintln!(
            "bench_smoke: {}: {:.4}s -> {:.4}s ({:.2}x vs baseline, {:+.2}%)",
            d.name,
            d.baseline_secs_threads_1,
            d.secs_threads_1,
            d.speedup_vs_baseline,
            d.regression_pct
        );
    }
    // Gate verdict: embedded in the report either way; a failing gate
    // still writes the report, then exits nonzero.
    let gate = match gate_pct {
        Some(threshold) if !vs_baseline.is_empty() => {
            Some(evaluate_gate(&vs_baseline, threshold))
        }
        _ => None,
    };

    let obs = ObsReport::capture();
    eprint!("{}", obs.summary());
    let report = SmokeReport {
        schema_version: SCHEMA_VERSION,
        factor_scale: scale,
        n_c,
        product_arcs: m_c,
        threads_max: tmax,
        alloc_measured: kron_obs::alloc::measuring(),
        phases,
        baseline_file,
        baseline_note,
        vs_baseline,
        gate,
        obs,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report");
    // The emitted file must parse: re-read it and lint before exiting.
    let written = std::fs::read_to_string(&out_path).expect("read back report");
    kron_obs::json_lint::validate(&written).expect("emitted report is valid JSON");
    println!("{json}");
    eprintln!("bench_smoke: wrote {out_path} (schema_version {SCHEMA_VERSION}, lint-clean)");

    // Chrome trace_event sidecar: the flight-recorder window (phase
    // spans + any recorded queries) rendered for chrome://tracing /
    // Perfetto (DESIGN.md §14).
    let trace_path = format!("{out_path}.trace.json");
    let mut tb = kron_obs::trace_export::TraceBuilder::new();
    tb.add_flight(&kron_obs::ring::snapshot());
    tb.write_to(std::path::Path::new(&trace_path)).expect("write trace");
    let trace = std::fs::read_to_string(&trace_path).expect("read back trace");
    kron_obs::json_lint::validate(&trace).expect("trace is valid JSON");
    eprintln!("bench_smoke: wrote {trace_path} (chrome trace_event, lint-clean)");
    if let Some(gate) = &report.gate {
        if gate.passed {
            eprintln!("bench_smoke: gate PASS (threshold {}%)", gate.threshold_pct);
        } else {
            for f in &gate.failures {
                eprintln!("bench_smoke: gate FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
