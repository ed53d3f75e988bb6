//! Pins the triangle kernel's footprint with the counting allocator:
//! a forward row is stored only when it cannot be read cheaply from the
//! graph's own CSR, and then only once, either as a packed `u64` window
//! or as a `u32` list, so `vertex_triangles` holds 8 bytes per window
//! word and 4 bytes per listed arc on top of O(n) tables — not a copy
//! of the rows it reads from the CSR, not a full forward list beside the
//! packed rows, and not the returned counts beside the rows.
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

    // W (window words) and L (listed arcs) by the documented `Auto` rule:
    // orient each non-loop edge to the higher `(degree, id)` rank; a
    // non-empty forward row `F` of vertex `v` is packed when its word
    // window `[min / 64, max / 64]` has at most `|F|` words, else read
    // from the CSR when `v` has at most `2·|F|` neighbors, else listed.
    let mut rank = vec![0u64; order.len()];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u64;
    }
    let (mut arcs, mut max_forward) = (0u64, 0u64);
    let (mut packed_rows, mut csr_rows, mut listed_rows) = (0u64, 0u64, 0u64);
    let (mut window_words, mut listed, mut csr_arcs) = (0u64, 0u64, 0u64);
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
        if words <= len {
            packed_rows += 1;
            window_words += words;
        } else if c.degree(v) <= 2 * len {
            csr_rows += 1;
            csr_arcs += len;
        } else {
            listed_rows += 1;
            listed += len;
        }
    }
    assert_eq!(arcs, 342_240, "forward arcs of the input");
    assert_eq!(
        (packed_rows, csr_rows, listed_rows),
        (2_801, 1_229, 54),
        "packed, CSR-read and listed rows of the input"
    );
    assert!(csr_arcs > n, "CSR-read arcs must outweigh the rank table for the bound to bite");
    drop(rank);

    let (counts, kernel) = kron_obs::alloc::measure(|| vertex_triangles(&c));
    assert!(kernel.measured, "measure-alloc allocator must be active");
    assert_eq!(counts.per_vertex.len() as u64, n);

    // Besides the two row stores the kernel holds the list offsets (8 B
    // per vertex, plus one), a per-row slot, the rank table that maps
    // CSR-read rows and the rank-space counts (4 + 4 + 8 B per vertex),
    // packed-row meta (12 B per packed row, doubled for growth slack),
    // the anchor bitmap (one bit per vertex), the touched-word list
    // (4 B per element of the longest forward list) and the match buffer
    // (4 B per element, plus one); plus a few KiB for the arena pool and
    // counter registration. The returned vertex-space counts (8 B per
    // vertex) are written into the list offsets' array once the other row
    // stores are freed, so they add nothing to the peak.
    let stores = 8 * window_words + 4 * listed;
    let tables =
        8 * (n + 1) + 16 * n + 24 * packed_rows + n / 8 + 4 * max_forward + 4 * (max_forward + 1);
    let bound = stores + tables + 4 * 1024;
    println!(
        "vertex_triangles peak {} B; bound {bound} B (8W + 4L = {stores} B, W = {window_words}, \
         L = {listed}; {csr_arcs} arcs read from the CSR; tables {tables} B)",
        kernel.peak_bytes
    );
    assert!(
        kernel.peak_bytes <= bound,
        "vertex_triangles peak {} bytes exceeds {bound} bytes: 8·{window_words} window words + \
         4·{listed} listed arcs + {tables} B of tables + 4 KiB",
        kernel.peak_bytes
    );
}
