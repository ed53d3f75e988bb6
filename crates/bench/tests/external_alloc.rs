//! Proves the out-of-core claim with the counting allocator: spilling a
//! product to sorted shard runs and building its CSR *externally* keeps
//! peak live heap under a budget of O(merge buffers + degree table) —
//! while the in-memory pipeline over the same product measurably needs
//! more than 10× that, because it must hold every arc at once. It also
//! pins the in-memory footprint itself: `materialize` peaks at its 4-byte
//! targets, its offsets and one factor-degree table, nothing more.
//!
//! Runs only with `--features measure-alloc` (a kron-bench default
//! feature). This file is its own test binary with a single `#[test]`, so
//! no sibling test can allocate inside the measured window.
#![cfg(feature = "measure-alloc")]

use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_dist::{spill_shards_direct, SpillConfig};
use kron_graph::generators::erdos_renyi;
use kron_graph::shard::{build_external_csr, ExternalCsr};

#[test]
fn external_build_peak_memory_stays_under_budget() {
    // Two ER(48) factors: ~1,100 arcs each, so C carries ~1.2M arcs — at
    // 4 bytes per CSR target the in-memory build must hold several MB live.
    let pair = KroneckerPair::as_is(erdos_renyi(48, 0.5, 71), erdos_renyi(48, 0.5, 72)).unwrap();
    let nnz_c = pair.nnz_c() as u64;
    assert!(nnz_c > 400_000, "product too small to make the comparison meaningful: {nnz_c}");

    let dir = std::env::temp_dir().join(format!("kron_external_alloc_{}", std::process::id()));
    let buf_bytes = 4 * 1024;
    let ranks = 4usize;
    let mut spill = SpillConfig::new(dir.clone());
    spill.io_buf_bytes = buf_bytes;

    // The whole out-of-core pipeline — synthesize + spill, single-pass
    // external build, then a streaming degree scan of the result — inside
    // one measured window.
    let out = dir.join("product.krsc");
    let ((runs_total, stats, degree_sum), external) = kron_obs::alloc::measure(|| {
        let runs = spill_shards_direct(&pair, ranks, &spill).expect("spill").runs;
        let paths: Vec<_> = runs.iter().flatten().collect();
        let stats = build_external_csr(&paths, &out, buf_bytes).expect("external build");
        let mut ext = ExternalCsr::open(&out).expect("open external CSR");
        let mut degree_sum = 0u64;
        ext.for_each_degree(|_, d| degree_sum += d).expect("degree stream");
        (paths.len(), stats, degree_sum)
    });
    assert!(external.measured, "measure-alloc allocator must be active");
    assert_eq!(stats.arcs, nnz_c, "external build lost arcs");
    assert_eq!(degree_sum, nnz_c, "degree stream disagrees with arc count");

    // Budget: every run's merge read buffer (all runs are open at once
    // during a merge pass), the O(n) degree table of the external build,
    // the spill row/IO buffers, and fixed slack for paths and the heap.
    // Deliberately *not* a function of the arc count.
    let degree_table = (pair.n_c() + 1) * 8;
    let budget = (runs_total as u64) * (buf_bytes as u64)
        + degree_table
        + 4 * buf_bytes as u64   // spill-side writer buffer + row buffer
        + 64 * 1024;             // paths, heap, BufWriter of the KRSC file
    assert!(
        external.peak_bytes <= budget,
        "external build peak {} bytes exceeds its {}-byte budget ({} runs)",
        external.peak_bytes,
        budget,
        runs_total
    );

    // The in-memory pipeline over the same pair: materialize holds the
    // full product at once, so its peak is Ω(4 bytes per arc). Exactly:
    // the u32 target array, the n_C + 1 offsets, a factor-degree table
    // (at most n_A + n_B words), and a few KiB of slack.
    let (in_memory_nnz, in_memory) = kron_obs::alloc::measure(|| materialize(&pair).nnz());
    assert_eq!(in_memory_nnz as u64, nnz_c);
    let (n_a, n_b) = (pair.a().n(), pair.b().n());
    let footprint = 4 * nnz_c + 8 * (pair.n_c() + 1) + 8 * (n_a + n_b) + 4 * 1024;
    assert!(
        in_memory.peak_bytes <= footprint,
        "materialize peak {} bytes exceeds its {}-byte footprint ({} arcs)",
        in_memory.peak_bytes,
        footprint,
        nnz_c
    );
    assert!(
        in_memory.peak_bytes > 10 * budget,
        "scale too small: in-memory peak {} bytes is not >10× the {}-byte external budget",
        in_memory.peak_bytes,
        budget
    );

    std::fs::remove_dir_all(&dir).ok();
}
