//! Equivalence suite for the class-collapsed, bitset-BFS distance oracle
//! (PR 6 closeness half of the bitmap kernel tier).
//!
//! The oracle now stores one Def. 9 hop row per adjacency class (twins
//! collapse only on undirected factors — the twin argument needs
//! symmetry) and sweeps 64 class representatives per bitset-BFS pass;
//! `closeness_batch` reads the oracle's deduplicated cumulative tables
//! through an arena-backed memo grid. None of that may change a single
//! bit: every oracle hop row must equal the scalar per-vertex BFS row,
//! and every batched closeness value must equal the per-vertex
//! `closeness_fast` `f64` by `to_bits`, across random factor pairs,
//! both self-loop regimes, and directed factors.

use proptest::prelude::*;

use kron_analytics::distance::bfs_hops;
use kron_core::closeness::{closeness_batch, closeness_fast};
use kron_core::distance::DistanceOracle;
use kron_core::{KroneckerPair, SelfLoopMode};
use kron_graph::generators::{barabasi_albert, cycle, erdos_renyi, star};
use kron_graph::{CsrGraph, EdgeList, VertexId};

/// Builds an undirected loop-free factor from a raw arc bag.
fn factor(n: u64, raw: Vec<(u64, u64)>) -> CsrGraph {
    let mut list = EdgeList::from_arcs(n, raw).expect("arcs in range by strategy");
    list.symmetrize();
    list.remove_self_loops();
    CsrGraph::from_edge_list(&list)
}

fn raw_arcs(n: u64, max_arcs: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_arcs)
}

/// Oracle hop rows (the collapsed storage) must equal the scalar BFS
/// rows of the *effective* factors, vertex by vertex; closeness values
/// from the batched grid must equal `closeness_fast` bit for bit.
fn assert_oracle_collapse_exact(pair: &KroneckerPair) {
    let oracle = DistanceOracle::new(pair).expect("FullBoth pair");
    for i in 0..pair.a().n() {
        assert_eq!(oracle.hops_a_row(i), bfs_hops(pair.a(), i).as_slice(), "A row {i}");
    }
    for k in 0..pair.b().n() {
        assert_eq!(oracle.hops_b_row(k), bfs_hops(pair.b(), k).as_slice(), "B row {k}");
    }
    // Every product vertex, plus duplicates to exercise the memo grid.
    let mut vertices: Vec<VertexId> = (0..pair.n_c()).collect();
    vertices.extend([0, pair.n_c() / 2, pair.n_c() - 1]);
    let reference: Vec<u64> = vertices
        .iter()
        .map(|&p| closeness_fast(&oracle, p).expect("in range").to_bits())
        .collect();
    let batch = closeness_batch(&oracle, &vertices).expect("in range");
    let batch_bits: Vec<u64> = batch.iter().map(|c| c.to_bits()).collect();
    assert_eq!(batch_bits, reference, "batch");
}

#[test]
fn oracle_collapse_exact_on_zoo() {
    // Symmetric factors (cycle, star) maximize twin collapse; skewed and
    // random factors exercise the mixed-class path.
    let pairs = [
        (cycle(7), star(5)),
        (star(6), cycle(6)),
        (barabasi_albert(12, 2, 5), cycle(5)),
        (erdos_renyi(10, 0.4, 3), erdos_renyi(8, 0.3, 4)),
        (CsrGraph::from_arcs(3, vec![]).unwrap(), cycle(4)), // isolated vertices
    ];
    for (a, b) in pairs {
        let pair = KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap();
        assert_oracle_collapse_exact(&pair);
    }
}

#[test]
fn directed_factors_get_singleton_classes() {
    // Adjacency twins may NOT collapse on directed factors: with
    // N⁺(u) = N⁺(v) = {a} and N⁺(a) = {u}, u reaches itself in 2 hops
    // but v needs 3, so the out-twin rows differ — the twin argument
    // needs symmetry. The oracle must fall back to one class per vertex
    // and still match the scalar rows exactly.
    let twins = CsrGraph::from_arcs(3, vec![(0, 2), (1, 2), (2, 0)])
        .unwrap()
        .with_full_self_loops();
    let dir_cycle = CsrGraph::from_arcs(4, (0..4).map(|v| (v, (v + 1) % 4)).collect::<Vec<_>>())
        .unwrap()
        .with_full_self_loops();
    let pair = KroneckerPair::new(twins, dir_cycle, SelfLoopMode::AsIs).unwrap();
    assert_oracle_collapse_exact(&pair);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random undirected factor pairs under FullBoth.
    #[test]
    fn oracle_collapse_exact_on_random(
        raw_a in raw_arcs(8, 28),
        raw_b in raw_arcs(7, 22),
    ) {
        let pair = KroneckerPair::new(
            factor(8, raw_a),
            factor(7, raw_b),
            SelfLoopMode::FullBoth,
        ).unwrap();
        assert_oracle_collapse_exact(&pair);
    }

    /// Random *directed* factor pairs (loops added manually so Thm. 3's
    /// precondition holds while the factors stay asymmetric).
    #[test]
    fn oracle_collapse_exact_on_random_directed(
        raw_a in raw_arcs(7, 20),
        raw_b in raw_arcs(6, 16),
    ) {
        let a = CsrGraph::from_arcs(7, raw_a).unwrap().with_full_self_loops();
        let b = CsrGraph::from_arcs(6, raw_b).unwrap().with_full_self_loops();
        let pair = KroneckerPair::new(a, b, SelfLoopMode::AsIs).unwrap();
        assert_oracle_collapse_exact(&pair);
    }
}
