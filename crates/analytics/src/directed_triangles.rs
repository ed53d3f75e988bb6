//! Directed triangle participation by role.
//!
//! The paper's contribution (b) extends its authors' prior work [11],
//! which derives triangle formulas for "the many types of directed
//! graphs". A directed triangle on `{u, v, w}` is either
//!
//! * a **cycle** `u → v → w → u`, or
//! * a **transitive** triangle `s → m`, `m → t`, `s → t`, with the three
//!   distinct roles *source* `s`, *middle* `m`, *target* `t`.
//!
//! Per-vertex role counts have clean matrix forms on a loop-free
//! adjacency `A` (used verbatim as the test oracle):
//!
//! ```text
//! cycle(v)  = (A³)_vv                (ordered closed 3-walks = cycles ×1 per orientation)
//! middle(m) = [(Aᵗ ∘ (A Aᵗ)) 1]_m
//! source(s) = [(A  ∘ (A A )) 1]_s
//! target(t) = [(Aᵗ ∘ (Aᵗ Aᵗ)) 1]_t
//! ```
//!
//! Every right-hand side is a Hadamard/product combination that
//! distributes over `⊗` (Prop. 1(d) + Prop. 2(e)), which is what gives
//! the product laws in `kron-core::directed`.

use kron_graph::{CsrGraph, VertexId};

/// Per-vertex directed triangle role counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectedTriangleCounts {
    /// `cycle[v]` = directed 3-cycles through `v` (each orientation of a
    /// cyclic triple counted once).
    pub cycle: Vec<u64>,
    /// `source[v]` = transitive triangles with `v` as the source.
    pub source: Vec<u64>,
    /// `middle[v]` = transitive triangles with `v` as the middle.
    pub middle: Vec<u64>,
    /// `target[v]` = transitive triangles with `v` as the target.
    pub target: Vec<u64>,
}

impl DirectedTriangleCounts {
    /// Total directed 3-cycles (`Σ cycle / 3`).
    pub fn total_cycles(&self) -> u64 {
        let sum: u64 = self.cycle.iter().sum();
        debug_assert_eq!(sum % 3, 0);
        sum / 3
    }

    /// Total transitive triangles (each has exactly one source).
    pub fn total_transitive(&self) -> u64 {
        self.source.iter().sum()
    }
}

/// Counts every directed triangle role for all vertices.
///
/// Self loops are ignored (a loop cannot participate in a triangle on
/// three distinct... a triangle here means three distinct vertices).
/// `O(Σ_v d⁺(v) · d(v))` via per-wedge adjacency checks — fine at
/// factor/validation scale, and simple enough to trust as a reference.
pub fn directed_triangles(g: &CsrGraph) -> DirectedTriangleCounts {
    let n = g.n() as usize;
    let mut counts = DirectedTriangleCounts {
        cycle: vec![0; n],
        source: vec![0; n],
        middle: vec![0; n],
        target: vec![0; n],
    };
    // Walk all directed wedges u → v → w (u, v, w distinct) once.
    for v in 0..g.n() {
        for &u in in_neighbors_of(g, v).iter() {
            if u == v {
                continue;
            }
            for &w in g.neighbors(v) {
                let w = u64::from(w);
                if w == v || w == u {
                    continue;
                }
                // wedge u → v → w
                if g.has_arc(w, u) {
                    // cycle u → v → w → u: counted once per starting
                    // vertex when we credit only vertex v here.
                    counts.cycle[v as usize] += 1;
                }
                if g.has_arc(u, w) {
                    // transitive triangle: u source, v middle, w target.
                    counts.source[u as usize] += 1;
                    counts.middle[v as usize] += 1;
                    counts.target[w as usize] += 1;
                }
            }
        }
    }
    counts
}

/// In-neighbors of `v` (O(nnz) scan; cached by callers that need it hot).
fn in_neighbors_of(g: &CsrGraph, v: VertexId) -> Vec<VertexId> {
    (0..g.n()).filter(|&u| g.has_arc(u, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::generators::clique;
    use kron_graph::CsrGraph;

    fn directed_cycle3() -> CsrGraph {
        CsrGraph::from_arcs(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    fn transitive3() -> CsrGraph {
        CsrGraph::from_arcs(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn single_cycle_triangle() {
        let c = directed_triangles(&directed_cycle3());
        assert_eq!(c.cycle, vec![1, 1, 1]);
        assert_eq!(c.total_cycles(), 1);
        assert_eq!(c.total_transitive(), 0);
        assert_eq!(c.source, vec![0, 0, 0]);
    }

    #[test]
    fn single_transitive_triangle() {
        let c = directed_triangles(&transitive3());
        assert_eq!(c.cycle, vec![0, 0, 0]);
        assert_eq!(c.source, vec![1, 0, 0]);
        assert_eq!(c.middle, vec![0, 1, 0]);
        assert_eq!(c.target, vec![0, 0, 1]);
        assert_eq!(c.total_transitive(), 1);
    }

    #[test]
    fn undirected_triangle_decomposes() {
        // K3 with both arcs everywhere: each unordered triangle yields 2
        // cycles (both orientations) and 6 transitive triangles (3 choices
        // of the reciprocated pair... enumerate: ordered (s,m,t) distinct
        // with all three arcs present = 6 permutations).
        let c = directed_triangles(&clique(3));
        assert_eq!(c.total_cycles(), 2);
        assert_eq!(c.total_transitive(), 6);
        assert_eq!(c.cycle, vec![2, 2, 2]);
        assert_eq!(c.source, vec![2, 2, 2]);
        assert_eq!(c.middle, vec![2, 2, 2]);
        assert_eq!(c.target, vec![2, 2, 2]);
    }

    #[test]
    fn self_loops_ignored() {
        let plain = directed_cycle3();
        let looped = plain.with_full_self_loops();
        assert_eq!(directed_triangles(&plain), directed_triangles(&looped));
    }

    #[test]
    fn matches_matrix_oracle() {
        // The doc formulas, evaluated with the dense oracle on a random
        // directed graph.
        use kron_linalg::DenseMatrix;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 10u64;
        let mut rng = StdRng::seed_from_u64(77);
        let mut arcs = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && rng.gen::<f64>() < 0.3 {
                    arcs.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_arcs(n, arcs).unwrap();
        let counts = directed_triangles(&g);

        let mut a = DenseMatrix::zeros(n as usize, n as usize);
        for (u, v) in g.arcs() {
            a.set(u as usize, v as usize, 1);
        }
        let at = a.transpose();
        // cycle(v) = (A³)_vv
        let cubed = a.pow(3);
        let cycle: Vec<u64> = cubed.diag_vector().iter().map(|&x| x as u64).collect();
        assert_eq!(counts.cycle, cycle);
        // middle(m) = [(Aᵗ ∘ (A Aᵗ)) 1]_m
        let middle: Vec<u64> = at
            .hadamard(&(&a * &at))
            .row_sums()
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(counts.middle, middle);
        // source(s) = [(A ∘ (A A)) 1]_s
        let source: Vec<u64> = a
            .hadamard(&(&a * &a))
            .row_sums()
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(counts.source, source);
        // target(t) = [(Aᵗ ∘ (Aᵗ Aᵗ)) 1]_t
        let target: Vec<u64> = at
            .hadamard(&(&at * &at))
            .row_sums()
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(counts.target, target);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_arcs(4, vec![]).unwrap();
        let c = directed_triangles(&g);
        assert_eq!(c.total_cycles(), 0);
        assert_eq!(c.total_transitive(), 0);
    }
}
