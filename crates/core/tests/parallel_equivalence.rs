//! Property tests: every parallel entry point is bit-identical to its
//! sequential counterpart across random factor pairs and thread counts
//! {1, 2, 3, 8} (oversubscribing the host is deliberate — determinism
//! must not depend on the scheduler).

use proptest::prelude::*;

use kron_core::closeness::{closeness_batch, closeness_batch_threads};
use kron_core::distance::DistanceOracle;
use kron_core::generate::{arcs, materialize, materialize_threads};
use kron_core::triangles::TriangleOracle;
use kron_core::{KroneckerPair, SelfLoopMode};
use kron_graph::{CsrGraph, EdgeList};

const THREADS: [usize; 4] = [1, 2, 3, 8];

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel materialization equals the sequential CSR and the
    /// arc-stream oracle (`arcs` → `EdgeList` → `from_edge_list`) exactly,
    /// in both self-loop modes.
    #[test]
    fn generation_equivalence(
        raw_a in raw_arcs(6, 24),
        raw_b in raw_arcs(5, 18),
    ) {
        let a = factor(6, raw_a);
        let b = factor(5, raw_b);
        for mode in [SelfLoopMode::AsIs, SelfLoopMode::FullBoth] {
            let pair = KroneckerPair::new(a.clone(), b.clone(), mode).unwrap();
            let list = EdgeList::from_arcs(pair.n_c(), arcs(&pair).collect()).unwrap();
            let oracle = CsrGraph::from_edge_list(&list);
            let seq_csr = materialize(&pair);
            prop_assert_eq!(&seq_csr, &oracle, "sequential CSR vs arc-stream oracle");
            for t in THREADS {
                prop_assert_eq!(&materialize_threads(&pair, Some(t)), &seq_csr,
                    "materialized CSR, threads={}", t);
            }
        }
    }

    /// Parallel CSR construction equals the sequential build on arbitrary
    /// arc bags (duplicates, self loops, isolated vertices included).
    #[test]
    fn csr_build_equivalence(raw in raw_arcs(17, 120)) {
        let list = EdgeList::from_arcs(17, raw).unwrap();
        let seq = CsrGraph::from_edge_list(&list);
        for t in THREADS {
            prop_assert_eq!(&CsrGraph::from_edge_list_threads(&list, Some(t)), &seq,
                "threads={}", t);
        }
    }

    /// Parallel triangle vector and closeness batch equal the sequential
    /// results bit-for-bit (closeness sums are evaluated per vertex in a
    /// fixed order, so even the f64s are identical).
    #[test]
    fn analytics_equivalence(
        raw_a in raw_arcs(6, 20),
        raw_b in raw_arcs(5, 14),
    ) {
        let a = factor(6, raw_a);
        let b = factor(5, raw_b);
        let pair = KroneckerPair::with_full_self_loops(a, b).unwrap();

        let tri = TriangleOracle::new(&pair).unwrap();
        let seq_tri = tri.vertex_triangle_vector();
        for t in THREADS {
            prop_assert_eq!(&tri.vertex_triangle_vector_threads(Some(t)), &seq_tri,
                "triangle vector, threads={}", t);
        }

        let dist = DistanceOracle::new(&pair).unwrap();
        let vertices: Vec<u64> = (0..pair.n_c()).collect();
        let seq_close = closeness_batch(&dist, &vertices).unwrap();
        for t in THREADS {
            let got = closeness_batch_threads(&dist, &vertices, Some(t)).unwrap();
            prop_assert_eq!(&got, &seq_close, "closeness batch, threads={}", t);
        }
    }
}
