//! Out-of-core shard tier benchmark (PR 8, rebuilt for the PR 9 fast
//! tier).
//!
//! Times the phases the spill pipeline adds on top of in-memory
//! generation, at a fixed small scale with interleaving-free medians
//! (each phase is independent; reps are consecutive):
//!
//! - `shard_generate_2d` — distributed generation under the real 2D
//!   rank-grid scheme (Rem. 1), in-memory stores, perfect transport;
//! - `shard_spill_throughput` — direct per-rank synthesis straight into
//!   sorted `KRSH` v2 shard runs on disk (no exchange, no resident
//!   edges);
//! - `shard_merge_v2` — the loser-tree k-way merge alone over v2 runs
//!   (compare + emit, no CSR build), the raw decode+merge ceiling;
//! - `shard_external_onepass` — the footer-driven single-pass external
//!   CSR build (`KRSC` file) over those runs;
//! - `shard_external_twopass` — the PR 8 two-pass reference build, kept
//!   timed so the one-pass win stays measured, not asserted.
//!
//! The report also carries `shard_disk_bytes`: the v2 spill against the
//! exact size the retired fixed-width v1 layout took for the same runs
//! (a 24-byte header + 16 bytes per arc, per run), with the compression
//! ratio — the PR 9 acceptance gate (`v2 <= v1/4`) is asserted here, not
//! eyeballed.
//!
//! Every phase's output is verified bit-identical to the sequentially
//! materialized product before any timing is trusted. The report goes to
//! `BENCH_PR9.json` (schema-stamped, lint-checked, `"name"` /
//! `"secs_threads_1"` lines parseable by `bench_smoke --compare`, which
//! `scripts/bench.sh` uses to gate these phases at >15% regression).
//!
//! `--smoke` runs one tiny verified pass of the whole
//! generate → spill → merge → external-build → verify pipeline and exits
//! — the mode `scripts/shard.sh` wires into CI.
//!
//! Usage: `shard_bench [--scale S] [--ranks R] [--out PATH] [--dir DIR]
//!                     [--smoke]`

use std::path::PathBuf;
use std::time::Instant;

use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_dist::{generate_distributed, spill_shards_direct, DistConfig, PartitionScheme, SpillConfig};
use kron_graph::generators::{rmat, RmatConfig};
use kron_graph::shard::{
    build_external_csr, build_external_csr_two_pass, merge_shards, ExternalCsr, ShardReader,
};
use kron_graph::CsrGraph;
use kron_obs::report::{ObsReport, SCHEMA_VERSION};
use serde::Serialize;

#[derive(Serialize)]
struct ShardPhase {
    name: String,
    /// Median wall time (this box runs single-threaded; the field name
    /// keeps the report parseable by the shared comparator).
    secs_threads_1: f64,
    arcs: u64,
    arcs_per_sec: f64,
}

/// On-disk footprint of the spilled runs, against the fixed-width v1
/// layout of the same runs.
#[derive(Serialize)]
struct ShardDiskBytes {
    /// What v1 took for these runs: `24 + 16 * arcs` bytes per run.
    v1: u64,
    v2: u64,
    /// `v1 / v2` — ≥ 4 is the PR 9 acceptance bar, asserted at run time.
    ratio: f64,
}

#[derive(Serialize)]
struct ShardReport {
    schema_version: u32,
    factor_scale: u32,
    ranks: usize,
    grid: (usize, usize),
    n_c: u64,
    product_arcs: u64,
    run_arcs: usize,
    spilled_runs: usize,
    external_csr_bytes: u64,
    shard_disk_bytes: ShardDiskBytes,
    phases: Vec<ShardPhase>,
    obs: ObsReport,
}

const REPS: usize = 5;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn phase(name: &str, arcs: u64, reps: usize, mut run: impl FnMut()) -> ShardPhase {
    let mut samples = vec![0f64; reps];
    for s in samples.iter_mut() {
        let ((), secs) = time(&mut run);
        *s = secs;
    }
    let secs = median(&mut samples);
    eprintln!("shard_bench: {name}: {secs:.4}s median-of-{reps}, {:.2e} arcs/s", arcs as f64 / secs);
    ShardPhase {
        name: name.to_string(),
        secs_threads_1: secs,
        arcs,
        arcs_per_sec: arcs as f64 / secs.max(1e-12),
    }
}

/// Spills the product and returns the run paths, their total on-disk
/// bytes, and the bytes the fixed-width v1 layout took for the same runs.
fn spill_runs(pair: &KroneckerPair, ranks: usize, dir: &PathBuf) -> (Vec<PathBuf>, u64, u64) {
    let direct = spill_shards_direct(pair, ranks, &SpillConfig::new(dir.clone())).expect("spill");
    assert_eq!(direct.stats.total_spilled_arcs() as u128, pair.nnz_c(), "spill accounting");
    let paths: Vec<PathBuf> = direct.runs.into_iter().flatten().collect();
    let bytes = paths.iter().map(|p| std::fs::metadata(p).expect("run file").len()).sum();
    let v1_bytes = paths
        .iter()
        .map(|p| 24 + 16 * ShardReader::open(p).expect("open run").arcs_total())
        .sum();
    (paths, bytes, v1_bytes)
}

/// One fully verified pass of the pipeline: 2D exchange generation,
/// direct spill, `from_shards`, and single-pass vs two-pass external CSR
/// files compared whole — all bit-identical to the sequential
/// materialization. Returns (runs, external bytes, v1 disk bytes, v2
/// disk bytes).
fn verified_pass(pair: &KroneckerPair, ranks: usize, dir: &PathBuf) -> (usize, u64, u64, u64) {
    let reference = materialize(pair);
    let mut seq_list = reference.to_edge_list();
    seq_list.sort_dedup();

    // 2D exchange generation, in-memory stores.
    let mut cfg = DistConfig::new(ranks);
    cfg.scheme = PartitionScheme::TwoD;
    let result = generate_distributed(pair, &cfg);
    assert_eq!(
        result.union(pair.n_c()),
        seq_list,
        "2D generation differs from sequential materialization"
    );

    // Direct spill rebuilds the same CSR.
    let (paths, v2_bytes, v1_bytes) = spill_runs(pair, ranks, &dir.join("runs"));
    let rebuilt = CsrGraph::from_shards(&paths, 64 * 1024).expect("from_shards");
    assert_eq!(rebuilt.offsets(), reference.offsets(), "from_shards offsets differ");
    assert_eq!(rebuilt.targets(), reference.targets(), "from_shards targets differ");

    // Fully external build over the runs: one-pass output must be
    // byte-identical to the two-pass reference, and load back equal.
    let out = dir.join("product.krsc");
    let out2 = dir.join("product_twopass.krsc");
    let stats = build_external_csr(&paths, &out, 64 * 1024).expect("external build");
    assert_eq!(stats.merge_passes, 1, "footer-driven build must be single-pass");
    build_external_csr_two_pass(&paths, &out2, 64 * 1024).expect("two-pass build");
    assert_eq!(
        std::fs::read(&out).expect("read one-pass KRSC"),
        std::fs::read(&out2).expect("read two-pass KRSC"),
        "single-pass external CSR bytes differ from two-pass"
    );
    let loaded = ExternalCsr::open(&out).expect("open").load().expect("load");
    assert_eq!(loaded, reference, "external CSR file differs from in-memory build");
    eprintln!(
        "shard_bench: verified pass OK — {} arcs, {} runs, {} external bytes, \
         shard bytes v1 {} / v2 {} ({:.2}x)",
        stats.arcs,
        paths.len(),
        stats.bytes,
        v1_bytes,
        v2_bytes,
        v1_bytes as f64 / v2_bytes.max(1) as f64
    );
    (paths.len(), stats.bytes, v1_bytes, v2_bytes)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale: u32 = get("--scale")
        .map_or(if smoke { 4 } else { 6 }, |s| s.parse().expect("numeric --scale"));
    let ranks: usize = get("--ranks").map_or(4, |s| s.parse().expect("numeric --ranks"));
    let out_path = get("--out").unwrap_or_else(|| "BENCH_PR9.json".to_string());
    let dir: PathBuf = get("--dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("kron_shard_bench_{}", std::process::id()))
    });

    let a = rmat(&RmatConfig::graph500(scale, 22));
    let b = rmat(&RmatConfig::graph500(scale, 23));
    let pair = KroneckerPair::with_full_self_loops(a, b).expect("loop-free R-MAT factors");
    let m_c = pair.nnz_c() as u64;
    let grid = kron_dist::grid_dims(ranks);
    eprintln!(
        "shard_bench: scale {scale} factors, n_C = {}, {m_c} product arcs, \
         {ranks} ranks on a {}x{} grid",
        pair.n_c(),
        grid.0,
        grid.1
    );

    if smoke {
        let smoke_dir = dir.join("smoke");
        verified_pass(&pair, ranks, &smoke_dir);
        std::fs::remove_dir_all(&smoke_dir).expect("clean smoke dir");
        eprintln!("shard_bench: smoke OK");
        return;
    }

    kron_obs::reset();
    kron_obs::set_enabled(true);

    // Correctness first: one fully verified pass of every path under
    // timing, so the medians below time known-good code.
    let verify_dir = dir.join("verify");
    let (spilled_runs, external_csr_bytes, v1_bytes, v2_bytes) =
        verified_pass(&pair, ranks, &verify_dir);
    std::fs::remove_dir_all(&verify_dir).expect("clean verify dir");
    assert!(
        v2_bytes * 4 <= v1_bytes,
        "v2 shards ({v2_bytes} B) must be <= 1/4 of v1 ({v1_bytes} B)"
    );

    let mut phases = Vec::new();

    // Phase 1: 2D rank-grid generation through the reliable exchange.
    let mut cfg = DistConfig::new(ranks);
    cfg.scheme = PartitionScheme::TwoD;
    phases.push(phase("shard_generate_2d", m_c, REPS, || {
        let result = generate_distributed(&pair, &cfg);
        assert_eq!(result.stats.total_stored(), m_c);
    }));

    // Phase 2: direct synthesis straight into sorted v2 shard runs.
    let spill = SpillConfig::new(dir.join("spill"));
    phases.push(phase("shard_spill_throughput", m_c, REPS, || {
        let direct = spill_shards_direct(&pair, ranks, &spill).expect("spill");
        assert_eq!(direct.runs.len(), ranks);
        std::fs::remove_dir_all(&spill.dir).expect("clean spill dir");
    }));

    // A fixed set of v2 runs for the merge and build phases.
    let merge_dir = dir.join("merge");
    let (paths, _, _) = spill_runs(&pair, ranks, &merge_dir);

    // Phase 3: the loser-tree k-way merge alone — block decode, compare,
    // emit — without any CSR work downstream.
    phases.push(phase("shard_merge_v2", m_c, REPS, || {
        let readers: Vec<ShardReader> = paths
            .iter()
            .map(|p| ShardReader::with_buffer(p, 64 * 1024).expect("open run"))
            .collect();
        let mut merged = 0u64;
        let stats = merge_shards(readers, |_, _| merged += 1).expect("merge");
        assert_eq!(merged, m_c);
        assert_eq!(stats.arcs_out, m_c);
    }));

    // Phase 4: footer-driven single-pass external CSR build.
    let krsc = merge_dir.join("product.krsc");
    phases.push(phase("shard_external_onepass", m_c, REPS, || {
        let stats = build_external_csr(&paths, &krsc, 64 * 1024).expect("external build");
        assert_eq!(stats.arcs, m_c);
        assert_eq!(stats.merge_passes, 1);
    }));

    // Phase 5: the PR 8 two-pass build, for the measured comparison.
    let krsc2 = merge_dir.join("product_twopass.krsc");
    phases.push(phase("shard_external_twopass", m_c, REPS, || {
        let stats = build_external_csr_two_pass(&paths, &krsc2, 64 * 1024).expect("two-pass build");
        assert_eq!(stats.arcs, m_c);
    }));
    std::fs::remove_dir_all(&merge_dir).expect("clean merge dir");
    std::fs::remove_dir_all(&dir).ok(); // parent, if it is now empty

    let report = ShardReport {
        schema_version: SCHEMA_VERSION,
        factor_scale: scale,
        ranks,
        grid,
        n_c: pair.n_c(),
        product_arcs: m_c,
        run_arcs: SpillConfig::new(PathBuf::new()).run_arcs,
        spilled_runs,
        external_csr_bytes,
        shard_disk_bytes: ShardDiskBytes {
            v1: v1_bytes,
            v2: v2_bytes,
            ratio: v1_bytes as f64 / v2_bytes.max(1) as f64,
        },
        phases,
        obs: ObsReport::capture(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report");
    let written = std::fs::read_to_string(&out_path).expect("read back report");
    kron_obs::json_lint::validate(&written).expect("emitted report is valid JSON");
    println!("{json}");
    eprintln!("shard_bench: wrote {out_path} (schema_version {SCHEMA_VERSION}, lint-clean)");

    // Chrome trace_event sidecar of the recorded spans (DESIGN.md §14).
    let trace_path = format!("{out_path}.trace.json");
    let mut tb = kron_obs::trace_export::TraceBuilder::new();
    tb.add_flight(&kron_obs::ring::snapshot());
    tb.write_to(std::path::Path::new(&trace_path)).expect("write trace");
    let trace = std::fs::read_to_string(&trace_path).expect("read back trace");
    kron_obs::json_lint::validate(&trace).expect("trace is valid JSON");
    eprintln!("shard_bench: wrote {trace_path} (chrome trace_event, lint-clean)");
}
