//! Pins the triangle kernel's footprint with the counting allocator:
//! each forward row is stored once, either as a `u32` list or as a
//! packed `u64` window, so `vertex_triangles` holds 4 bytes per listed
//! arc and 8 bytes per window word on top of O(n) tables — not a full
//! forward list beside the packed rows, and not the returned counts
//! beside the rows.
//!
//! Runs only with `--features measure-alloc` (a kron-bench default
//! feature). This file is its own test binary with a single `#[test]`, so
//! no sibling test can allocate inside the measured window.
#![cfg(feature = "measure-alloc")]

use kron_analytics::triangles::vertex_triangles;
use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_graph::generators::{rmat, RmatConfig};

#[test]
fn vertex_triangles_peak_is_one_store_per_row() {
    let a = rmat(&RmatConfig::graph500(6, 22));
    let b = rmat(&RmatConfig::graph500(6, 23));
    let pair = KroneckerPair::with_full_self_loops(a, b).expect("R-MAT factors are loop-free");
    let c = materialize(&pair);
    let n = c.n();
    assert_eq!(n, 4096);

    // The cached rank permutation is the graph's, not the kernel's: warm
    // it outside the measured window.
    let order = c.degree_rank_order();

    // L (listed arcs) and W (window words) by the documented `Auto` rule:
    // orient each non-loop edge to the higher `(degree, id)` rank, and
    // pack a forward row `F` when `|F| ≥ 16` and its word window
    // `[min / 64, max / 64]` is shorter than `|F|`.
    let mut rank = vec![0u64; order.len()];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u64;
    }
    let (mut arcs, mut packed_rows, mut packed_arcs, mut max_forward) = (0u64, 0u64, 0u64, 0u64);
    let (mut listed, mut window_words) = (0u64, 0u64);
    for (r, &v) in order.iter().enumerate() {
        let fwd: Vec<u64> = c
            .neighbors(v)
            .iter()
            .map(|&w| rank[w as usize])
            .filter(|&rw| rw > r as u64)
            .collect();
        let len = fwd.len() as u64;
        arcs += len;
        max_forward = max_forward.max(len);
        let (Some(lo), Some(hi)) = (fwd.iter().min(), fwd.iter().max()) else {
            continue;
        };
        let words = (hi >> 6) - (lo >> 6) + 1;
        if len >= 16 && words < len {
            packed_rows += 1;
            packed_arcs += len;
            window_words += words;
        } else {
            listed += len;
        }
    }
    assert_eq!(arcs, 342_240, "forward arcs of the input");
    assert_eq!(packed_rows, 2_730, "packed rows of the input");
    assert!(10 * packed_arcs > 9 * arcs, "packed rows must hold most arcs for the bound to bite");
    drop(rank);

    let (counts, kernel) = kron_obs::alloc::measure(|| vertex_triangles(&c));
    assert!(kernel.measured, "measure-alloc allocator must be active");
    assert_eq!(counts.per_vertex.len() as u64, n);

    // Besides the two row stores the kernel holds the list offsets (8 B
    // per vertex, plus one), a packed-row slot and the rank-space counts
    // (4 + 8 B per vertex), packed-row meta (12 B per packed row, doubled
    // for growth slack), the anchor bitmap (one bit per vertex), and the
    // touched-word list and match buffer (4 + 4 B per element of the
    // longest forward list); plus a few KiB for the arena pool and
    // counter registration. The returned vertex-space counts (8 B per
    // vertex) are written into the list offsets' array once the other row
    // stores are freed, so they add nothing to the peak.
    let stores = 4 * listed + 8 * window_words;
    let tables = 8 * (n + 1) + 12 * n + 24 * packed_rows + n / 8 + 8 * max_forward;
    let bound = stores + tables + 4 * 1024;
    println!(
        "vertex_triangles peak {} B; bound {bound} B \
         (4L + 8W = {stores} B, L = {listed}, W = {window_words}; tables {tables} B)",
        kernel.peak_bytes
    );
    assert!(
        kernel.peak_bytes <= bound,
        "vertex_triangles peak {} bytes exceeds {bound} bytes: 4·{listed} listed arcs + \
         8·{window_words} window words + {tables} B of tables + 4 KiB",
        kernel.peak_bytes
    );
}
