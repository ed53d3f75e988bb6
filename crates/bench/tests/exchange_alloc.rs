//! Proves the distributed exchange's memory bound with the counting
//! allocator: a spilling `generate_distributed` run keeps peak live heap
//! under a budget built from the rank count, the factor slices, the IO
//! buffers, the credit window and the batch size — never from `|E_C|` —
//! while holding the product's arcs would take at least 5× that budget.
//!
//! Runs only with `--features measure-alloc` (a kron-bench default
//! feature). This file is its own test binary with a single `#[test]`, so
//! no sibling test can allocate inside the measured window.
#![cfg(feature = "measure-alloc")]

use kron_core::KroneckerPair;
use kron_dist::{generate_distributed, DistConfig, PartitionScheme, SpillConfig, CREDIT_WINDOW};
use kron_graph::generators::erdos_renyi;

/// Bytes of one product arc.
const ARC: u64 = 16;
/// Per-payload bookkeeping beside the batch itself: its channel slot,
/// its ack packet, its entry in the sender's unacked map and in the
/// receiver's delivery queue.
const PAYLOAD_OVERHEAD: u64 = 128;
/// Thread handles, the transport mesh, run paths and allocator slack.
const FIXED_SLACK: u64 = 64 * 1024;

#[test]
fn exchange_peak_memory_is_bounded_by_the_credit_window() {
    // Two ER(40) factors: C carries 601,852 arcs, ~9.6 MB as 16-byte
    // arcs — which the exchange used to hold (twice) before draining.
    let pair = KroneckerPair::as_is(erdos_renyi(40, 0.5, 71), erdos_renyi(40, 0.5, 72)).unwrap();
    let nnz_c = pair.nnz_c() as u64;
    assert_eq!(nnz_c, 601_852);
    let batch_size = 16usize;
    let io_buf_bytes = 4 * 1024usize;

    for ranks in [2usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "kron_exchange_alloc_{}_{ranks}",
            std::process::id()
        ));
        let mut spill = SpillConfig::new(dir.clone());
        spill.io_buf_bytes = io_buf_bytes;
        let mut cfg = DistConfig::new(ranks);
        cfg.scheme = PartitionScheme::TwoD;
        cfg.batch_size = batch_size;
        cfg.spill = Some(spill);

        let (result, measured) = kron_obs::alloc::measure(|| generate_distributed(&pair, &cfg));
        assert!(measured.measured, "measure-alloc allocator must be active");
        assert_eq!(
            result.stats.total_spilled_arcs(),
            nnz_c,
            "ranks={ranks}: lost arcs"
        );

        // Per rank: one open run per source rank, each an IO buffer, the
        // factor slices, one open outbox plus one recycled buffer per
        // peer, and the taken batch being stored.
        let r = ranks as u64;
        let batch_bytes = batch_size.next_power_of_two() as u64 * ARC;
        let factor_bytes = ARC * (pair.a().nnz() + pair.b().nnz()) as u64
            + ARC * (pair.a().n() + pair.b().n() + 2);
        let per_rank = r * io_buf_bytes as u64 + factor_bytes + (2 * r + 1) * batch_bytes;
        // Per directed link: at most CREDIT_WINDOW unacked batches, each
        // held as a retained copy plus its copy on the wire or in the
        // receiver's delivery queue.
        let per_link = CREDIT_WINDOW as u64 * (2 * batch_bytes + PAYLOAD_OVERHEAD);
        let budget = r * per_rank + r * (r - 1) * per_link + FIXED_SLACK;
        assert!(
            ARC * nnz_c >= 5 * budget,
            "ranks={ranks}: the {budget}-byte budget is within 5× of holding the product \
             ({} bytes), so the test would pass vacuously",
            ARC * nnz_c
        );
        println!("ranks={ranks}: exchange peak {} bytes, budget {budget}", measured.peak_bytes);
        assert!(
            measured.peak_bytes <= budget,
            "ranks={ranks}: exchange peak {} bytes exceeds its {budget}-byte budget",
            measured.peak_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
