//! `obs_bench` — micro-benchmark of the observability plane itself
//! (PR 10), written to `BENCH_PR10.json`.
//!
//! Four phases, each reported as a `{name, secs_threads_1}` pair in the
//! same line shape every other report uses, so `bench_smoke --compare`
//! can gate this file too:
//!
//! - `flight_record_on` — a synthetic request loop (a fixed splitmix64
//!   workload standing in for oracle evaluation) with the flight
//!   recorder **enabled**, one `ring::record_query` per request;
//! - `flight_record_off` — the identical loop, recorder disabled (the
//!   record call early-returns). The on/off delta is the true marginal
//!   cost of always-on flight recording;
//! - `flight_drain` — snapshotting and merging full rings, the admin
//!   `FlightDump` / `Stats` read path;
//! - `quantiles_derive` — folding a million samples into log2 buckets
//!   and deriving p50/p90/p99 through the one shared implementation.
//!
//! **Overhead gate**: with `--gate-pct P` (bench.sh passes 15), the run
//! fails if `flight_record_on` exceeds `flight_record_off` by more than
//! `P`% — the "flight recorder stays within the bench gate" acceptance
//! line, enforced on a deliberately *cheap* request (~1 µs of work, the
//! floor of what a serve request costs once protocol decode, oracle
//! evaluation, and frame write are counted; anything realistic is
//! larger, making its relative recorder overhead smaller still).
//!
//! Methodology matches `bench_smoke`: the on/off configurations are
//! interleaved over five rounds and the per-configuration median is
//! reported, so both see the same warm-state distribution.
//!
//! Usage: `obs_bench [--out PATH] [--gate-pct P] [--requests N]`

use std::time::Instant;

use kron_graph::hash::mix64;
use kron_obs::metrics::quantiles_from_buckets;
use kron_obs::report::SCHEMA_VERSION;
use kron_obs::ring::{self, StageNs};
use serde::Serialize;

#[derive(Serialize)]
struct Phase {
    name: String,
    /// Wall time for the phase's fixed workload (single-threaded; the
    /// key every baseline parser and gate looks for).
    secs_threads_1: f64,
    /// Operations the workload performed (requests, events, samples).
    ops: u64,
    /// Nanoseconds per operation, derived.
    ns_per_op: f64,
}

#[derive(Serialize)]
struct OverheadGate {
    threshold_pct: f64,
    /// flight_record_on / flight_record_off − 1, in percent.
    record_overhead_pct: f64,
    passed: bool,
}

#[derive(Serialize)]
struct ObsBenchReport {
    schema_version: u32,
    requests: u64,
    phases: Vec<Phase>,
    gate: Option<OverheadGate>,
}

/// Interleaved repetition rounds; the median is reported.
const REPS: usize = 5;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One synthetic request: a fixed amount of integer mixing (standing in
/// for oracle work) followed by one flight-recorder write. Returns a
/// checksum so the optimizer cannot delete the work.
#[inline(never)]
fn one_request(id: u64) -> u64 {
    let mut acc = id;
    for _ in 0..256 {
        acc = mix64(acc);
    }
    ring::record_query(
        id,
        (id % 6) as u8,
        0,
        1,
        StageNs {
            read_ns: acc & 0xFFFF,
            queue_ns: 0,
            engine_ns: (acc >> 16) & 0xFFFF,
            cache_ns: 0,
            write_ns: (acc >> 32) & 0xFFFF,
        },
    );
    acc
}

fn time(f: impl FnOnce() -> u64) -> (u64, f64) {
    let start = Instant::now();
    let sink = f();
    (sink, start.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = get("--out").unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let gate_pct: Option<f64> = get("--gate-pct").map(|s| s.parse().expect("numeric --gate-pct"));
    let requests: u64 = get("--requests").map_or(200_000, |s| s.parse().expect("numeric --requests"));

    kron_obs::set_enabled(true);
    ring::reset();

    // Interleave the recorder-on and recorder-off request loops so both
    // medians come from the same warm-state distribution.
    let mut on = [0f64; REPS];
    let mut off = [0f64; REPS];
    let mut want: Option<u64> = None;
    for rep in 0..REPS {
        ring::set_enabled(true);
        let (sink, secs) = time(|| (0..requests).map(one_request).fold(0u64, u64::wrapping_add));
        on[rep] = secs;
        match want {
            None => want = Some(sink),
            Some(w) => assert_eq!(sink, w, "workload checksum changed across reps"),
        }

        ring::set_enabled(false);
        let (sink, secs) = time(|| (0..requests).map(one_request).fold(0u64, u64::wrapping_add));
        off[rep] = secs;
        assert_eq!(sink, want.expect("set above"), "recorder toggle changed the workload");
    }
    ring::set_enabled(true);

    // Drain path: rings are full from the on-rounds above; time the
    // snapshot + merge the admin opcodes pay per Stats/FlightDump.
    let mut drain = [0f64; REPS];
    let mut drained_events = 0u64;
    for rep in 0..REPS {
        let (n, secs) = time(|| {
            let snap = ring::snapshot();
            snap.total_events() as u64
        });
        drain[rep] = secs;
        drained_events = n;
    }
    assert!(drained_events > 0, "drain must see the recorded events");

    // Quantile derivation: fold samples into log2 buckets, derive
    // p50/p90/p99 via the single shared implementation.
    const SAMPLES: u64 = 1_000_000;
    let mut quant = [0f64; REPS];
    for rep in 0..REPS {
        let (sink, secs) = time(|| {
            let mut buckets = [0u64; 65];
            let mut x = 0x0B5B_E4C4 ^ rep as u64;
            for _ in 0..SAMPLES {
                x = mix64(x);
                let v = x >> 34; // ~30-bit latencies
                let b = if v == 0 { 0 } else { 64 - v.leading_zeros() };
                buckets[b as usize] += 1;
            }
            let sparse: Vec<(u32, u64)> = buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c))
                .collect();
            let q = quantiles_from_buckets(&sparse);
            q.p50 ^ q.p90 ^ q.p99 ^ q.count
        });
        quant[rep] = secs;
        assert!(sink > 0, "quantile derivation produced nothing");
    }

    let secs_on = median(&mut on);
    let secs_off = median(&mut off);
    let secs_drain = median(&mut drain);
    let secs_quant = median(&mut quant);
    let phase = |name: &str, secs: f64, ops: u64| Phase {
        name: name.to_string(),
        secs_threads_1: secs,
        ops,
        ns_per_op: secs * 1e9 / ops.max(1) as f64,
    };
    let phases = vec![
        phase("flight_record_on", secs_on, requests),
        phase("flight_record_off", secs_off, requests),
        phase("flight_drain", secs_drain, drained_events),
        phase("quantiles_derive", secs_quant, SAMPLES),
    ];
    for p in &phases {
        eprintln!(
            "obs_bench: {}: {:.4}s ({} ops, {:.1} ns/op)",
            p.name, p.secs_threads_1, p.ops, p.ns_per_op
        );
    }

    let record_overhead_pct = (secs_on / secs_off.max(1e-12) - 1.0) * 100.0;
    eprintln!(
        "obs_bench: flight recorder marginal cost {record_overhead_pct:+.2}% \
         on a {:.0} ns synthetic request",
        secs_off * 1e9 / requests.max(1) as f64
    );
    let gate = gate_pct.map(|threshold_pct| OverheadGate {
        threshold_pct,
        record_overhead_pct,
        passed: record_overhead_pct <= threshold_pct,
    });

    let report = ObsBenchReport { schema_version: SCHEMA_VERSION, requests, phases, gate };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report");
    let written = std::fs::read_to_string(&out_path).expect("read back report");
    kron_obs::json_lint::validate(&written).expect("emitted report is valid JSON");
    println!("{json}");
    eprintln!("obs_bench: wrote {out_path} (schema_version {SCHEMA_VERSION}, lint-clean)");
    if let Some(gate) = &report.gate {
        if gate.passed {
            eprintln!("obs_bench: gate PASS ({:+.2}% <= {}%)", gate.record_overhead_pct, gate.threshold_pct);
        } else {
            eprintln!(
                "obs_bench: gate FAIL: flight recorder adds {:+.2}% > {}% to the request loop",
                gate.record_overhead_pct, gate.threshold_pct
            );
            std::process::exit(1);
        }
    }
}
