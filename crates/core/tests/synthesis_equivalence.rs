//! Property tests for the structure-exploiting kernels: direct CSR
//! synthesis must be field-identical to the arc-stream oracle (`arcs` →
//! `EdgeList` → `CsrGraph::from_edge_list`, which shares no code with
//! synthesis), and every class-collapsed oracle must reproduce its per-vertex
//! (per-edge) reference element for element — bit-for-bit in the f64
//! case — across random factor pairs and both self-loop modes.

use proptest::prelude::*;

use kron_analytics::Histogram;
use kron_core::closeness::{closeness_batch, closeness_fast};
use kron_core::distance::DistanceOracle;
use kron_core::generate::{arcs, for_each_synthesized_row, materialize};
use kron_core::triangles::TriangleOracle;
use kron_core::{KroneckerPair, SelfLoopMode};
use kron_graph::{CsrGraph, EdgeList};

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

/// The arc-stream oracle: every product arc, counting-sorted into CSR.
fn arc_oracle(pair: &KroneckerPair) -> CsrGraph {
    let list = EdgeList::from_arcs(pair.n_c(), arcs(pair).collect()).expect("arcs in range");
    CsrGraph::from_edge_list(&list)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direct synthesis (whole and streamed by rows) equals the arc-stream
    /// oracle exactly, in both self-loop modes.
    #[test]
    fn synthesis_matches_arc_path(
        raw_a in raw_arcs(6, 24),
        raw_b in raw_arcs(5, 18),
        cut_num in 0u64..=8,
    ) {
        let a = factor(6, raw_a);
        let b = factor(5, raw_b);
        for mode in [SelfLoopMode::AsIs, SelfLoopMode::FullBoth] {
            let pair = KroneckerPair::new(a.clone(), b.clone(), mode).unwrap();
            let reference = arc_oracle(&pair);
            prop_assert_eq!(&materialize(&pair), &reference, "direct synthesis");
            // A random two-way row split, streamed row by row, reassembles
            // into the full CSR.
            let n_c = pair.n_c();
            let cut = cut_num * n_c / 8;
            let (mut off, mut tgt) = (vec![0usize], Vec::new());
            for range in [0..cut, cut..n_c] {
                for_each_synthesized_row(&pair, range, |_, row| {
                    tgt.extend_from_slice(row);
                    off.push(tgt.len());
                });
            }
            prop_assert_eq!(off.as_slice(), reference.offsets(), "streamed offsets, cut={}", cut);
            let reference_targets: Vec<u64> =
                reference.targets().iter().map(|&v| u64::from(v)).collect();
            prop_assert_eq!(tgt, reference_targets, "streamed targets, cut={}", cut);
        }
    }

    /// The class-collapsed triangle vector and the class-collapsed
    /// histograms equal their per-vertex / per-edge references exactly.
    #[test]
    fn collapsed_triangles_match_per_element(
        raw_a in raw_arcs(6, 20),
        raw_b in raw_arcs(5, 14),
    ) {
        let a = factor(6, raw_a);
        let b = factor(5, raw_b);
        for mode in [SelfLoopMode::AsIs, SelfLoopMode::FullBoth] {
            let pair = KroneckerPair::new(a.clone(), b.clone(), mode).unwrap();
            let tri = TriangleOracle::new(&pair).unwrap();
            let reference = tri.vertex_triangle_vector_per_vertex();
            prop_assert_eq!(&tri.vertex_triangle_vector(), &reference, "collapsed vector");
            prop_assert_eq!(
                tri.vertex_triangle_histogram(),
                Histogram::from_values(reference.iter().copied()),
                "vertex histogram"
            );
            // Edge reference: every canonical (p < q) edge of the
            // materialized product, queried through the per-edge oracle.
            let c = materialize(&pair);
            let edge_values = c
                .arcs()
                .filter(|&(p, q)| p < q)
                .map(|(p, q)| tri.edge_triangles_of(p, q).unwrap());
            prop_assert_eq!(
                tri.edge_triangle_histogram(),
                Histogram::from_values(edge_values),
                "edge histogram"
            );
        }
    }

    /// The class-collapsed closeness batch is bit-identical to the
    /// per-vertex fast path.
    #[test]
    fn collapsed_closeness_is_bit_identical(
        raw_a in raw_arcs(6, 20),
        raw_b in raw_arcs(5, 14),
    ) {
        let a = factor(6, raw_a);
        let b = factor(5, raw_b);
        let pair = KroneckerPair::with_full_self_loops(a, b).unwrap();
        let dist = DistanceOracle::new(&pair).unwrap();
        // Duplicates included: memoized classes must return the same bits
        // no matter how often a class pair is hit.
        let mut vertices: Vec<u64> = (0..pair.n_c()).collect();
        vertices.extend(0..pair.n_c().min(7));
        let reference: Vec<f64> = vertices
            .iter()
            .map(|&p| closeness_fast(&dist, p).unwrap())
            .collect();
        let batch = closeness_batch(&dist, &vertices).unwrap();
        prop_assert_eq!(batch.len(), reference.len());
        for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "vertex index {}", i);
        }
    }
}
