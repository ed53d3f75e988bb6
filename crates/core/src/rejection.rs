//! Probabilistic edge rejection (§IV-C, Def. 8).
//!
//! A deterministic hash `hash: E_C → [0,1)` defines the subgraph family
//! `G_{C,ν} = { (p,q) ∈ G_C : hash(p,q) ≤ ν }`. Generating with several
//! thresholds jointly costs one pass; a triangle `(p₁,p₂,p₃)` of `G_C`
//! survives in `G_{C,ν}` iff the max of its three edge hashes is `≤ ν`, so
//! one triangle enumeration of `G_C` counts triangles of every `G_{C,ν}`
//! simultaneously. Expected local statistics: `E[t_p] = ν³ t_p` and
//! `E[Δ_pq] = ν² Δ_pq`.
//!
//! The hash is symmetric (`hash(p,q) = hash(q,p)`) so both arcs of an
//! undirected edge live or die together, and seeded for reproducibility.

use kron_analytics::triangles::enumerate_triangles;
use kron_graph::hash::mix64;
use kron_graph::{CsrGraph, EdgeList, VertexId};

use crate::generate;
use crate::pair::KroneckerPair;

/// Deterministic symmetric edge hash into `[0, 1)`.
///
/// ```
/// use kron_core::rejection::EdgeHash;
///
/// let h = EdgeHash::new(2019);
/// assert_eq!(h.hash01(3, 9), h.hash01(9, 3)); // symmetric
/// assert!((0.0..1.0).contains(&h.hash01(3, 9)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeHash {
    seed: u64,
}

impl EdgeHash {
    /// Creates a hash with the given seed.
    pub fn new(seed: u64) -> Self {
        EdgeHash { seed }
    }

    /// Raw 64-bit hash of the unordered pair `{p, q}`.
    #[inline]
    pub fn hash_u64(&self, p: VertexId, q: VertexId) -> u64 {
        let (lo, hi) = (p.min(q), p.max(q));
        mix64(mix64(lo ^ self.seed) ^ hi.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Hash mapped into `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn hash01(&self, p: VertexId, q: VertexId) -> f64 {
        (self.hash_u64(p, q) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True when edge `{p, q}` survives at threshold `ν`.
    #[inline]
    pub fn keeps(&self, p: VertexId, q: VertexId, nu: f64) -> bool {
        self.hash01(p, q) <= nu
    }
}

/// The subgraph family `{ G_{C,ν} }` for a fixed pair and hash.
pub struct RejectionFamily<'a> {
    pair: &'a KroneckerPair,
    hash: EdgeHash,
}

impl<'a> RejectionFamily<'a> {
    /// Creates the family over `pair` with hash `seed`.
    pub fn new(pair: &'a KroneckerPair, seed: u64) -> Self {
        RejectionFamily { pair, hash: EdgeHash::new(seed) }
    }

    /// The underlying hash.
    pub fn hash(&self) -> EdgeHash {
        self.hash
    }

    /// Streams the arcs of `G_{C,ν}` (one generation pass, Def. 8 filter).
    pub fn for_each_arc<F: FnMut(VertexId, VertexId)>(&self, nu: f64, mut visit: F) {
        generate::for_each_synthesized_row(self.pair, 0..self.pair.n_c(), |p, row| {
            for &q in row {
                if self.hash.keeps(p, q, nu) {
                    visit(p, q);
                }
            }
        });
    }

    /// Materializes `G_{C,ν}` (validation scale only).
    pub fn materialize(&self, nu: f64) -> CsrGraph {
        let mut list = EdgeList::new(self.pair.n_c());
        self.for_each_arc(nu, |p, q| list.add_arc(p, q).expect("in range"));
        CsrGraph::from_edge_list(&list)
    }

    /// Counts surviving arcs at each threshold in **one** generation pass
    /// (the paper's joint-generation trick, applied to edges).
    pub fn arc_counts(&self, thresholds: &[f64]) -> Vec<u64> {
        let mut counts = vec![0u64; thresholds.len()];
        generate::for_each_synthesized_row(self.pair, 0..self.pair.n_c(), |p, row| {
            for &q in row {
                let h = self.hash.hash01(p, q);
                for (idx, &nu) in thresholds.iter().enumerate() {
                    counts[idx] += u64::from(h <= nu);
                }
            }
        });
        counts
    }

    /// Expected vertex triangle count in `G_{C,ν}`: `ν³ t_p`.
    pub fn expected_vertex_triangles(&self, t_p: u64, nu: f64) -> f64 {
        nu.powi(3) * t_p as f64
    }

    /// Expected edge triangle count in `G_{C,ν}`: `ν² Δ_pq`.
    pub fn expected_edge_triangles(&self, delta_pq: u64, nu: f64) -> f64 {
        nu.powi(2) * delta_pq as f64
    }

    /// Expected arc count in `G_{C,ν}`: `ν · nnz_C`.
    pub fn expected_arcs(&self, nu: f64) -> f64 {
        nu * self.pair.nnz_c() as f64
    }
}

/// Joint triangle counting over a materialized `G_C`: one enumeration pass
/// returns the global triangle count of `G_{C,ν}` for every threshold.
pub fn joint_global_triangles(c: &CsrGraph, hash: EdgeHash, thresholds: &[f64]) -> Vec<u64> {
    let mut counts = vec![0u64; thresholds.len()];
    enumerate_triangles(c, |u, v, w| {
        let h = hash
            .hash01(u, v)
            .max(hash.hash01(u, w))
            .max(hash.hash01(v, w));
        for (idx, &nu) in thresholds.iter().enumerate() {
            counts[idx] += u64::from(h <= nu);
        }
    });
    counts
}

/// Joint per-vertex triangle counting: `out[t][v]` = triangles at `v` in
/// `G_{C,ν_t}`.
pub fn joint_vertex_triangles(
    c: &CsrGraph,
    hash: EdgeHash,
    thresholds: &[f64],
) -> Vec<Vec<u64>> {
    let mut counts = vec![vec![0u64; c.n() as usize]; thresholds.len()];
    enumerate_triangles(c, |u, v, w| {
        let h = hash
            .hash01(u, v)
            .max(hash.hash01(u, w))
            .max(hash.hash01(v, w));
        for (idx, &nu) in thresholds.iter().enumerate() {
            if h <= nu {
                counts[idx][u as usize] += 1;
                counts[idx][v as usize] += 1;
                counts[idx][w as usize] += 1;
            }
        }
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::KroneckerPair;
    use kron_analytics::triangles as direct;
    use kron_graph::generators::{clique, erdos_renyi};

    fn family_pair() -> KroneckerPair {
        KroneckerPair::with_full_self_loops(erdos_renyi(8, 0.5, 1), erdos_renyi(7, 0.5, 2))
            .unwrap()
    }

    #[test]
    fn hash_is_symmetric_and_deterministic() {
        let h = EdgeHash::new(42);
        for p in 0..50u64 {
            for q in 0..50u64 {
                assert_eq!(h.hash01(p, q), h.hash01(q, p));
            }
        }
        assert_eq!(EdgeHash::new(7).hash_u64(3, 9), EdgeHash::new(7).hash_u64(3, 9));
        assert_ne!(EdgeHash::new(7).hash_u64(3, 9), EdgeHash::new(8).hash_u64(3, 9));
    }

    #[test]
    fn hash_is_uniformish() {
        let h = EdgeHash::new(0);
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| h.hash01(i, i + 1)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let below: usize = (0..n).filter(|&i| h.hash01(i, i + 1) < 0.25).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn nu_one_keeps_everything() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 3);
        let full = fam.materialize(1.0);
        assert_eq!(full.nnz() as u128, pair.nnz_c());
        assert_eq!(fam.arc_counts(&[1.0])[0] as u128, pair.nnz_c());
    }

    #[test]
    fn nu_zero_keeps_nothing() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 3);
        // hash01 can be exactly 0.0 with probability 2^-53; ν = 0 keeps
        // essentially nothing.
        assert!(fam.arc_counts(&[0.0])[0] <= 1);
    }

    #[test]
    fn family_is_nested() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 9);
        let g90 = fam.materialize(0.90);
        let g99 = fam.materialize(0.99);
        for (p, q) in g90.arcs() {
            assert!(g99.has_arc(p, q), "({p},{q}) in G_0.90 but not G_0.99");
        }
    }

    #[test]
    fn arc_counts_near_expectation() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 11);
        let thresholds = [0.99, 0.95, 0.90, 0.5];
        let counts = fam.arc_counts(&thresholds);
        for (idx, &nu) in thresholds.iter().enumerate() {
            let expected = fam.expected_arcs(nu);
            let got = counts[idx] as f64;
            // Binomial with n = nnz_C ≈ 2k; allow 5 sigma.
            let sigma = (pair.nnz_c() as f64 * nu * (1.0 - nu)).sqrt().max(1.0);
            assert!(
                (got - expected).abs() < 5.0 * sigma + 1.0,
                "nu={nu}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn subgraph_arcs_remain_symmetric() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 5);
        let g = fam.materialize(0.7);
        assert!(g.is_undirected(), "symmetric hash must keep both arcs");
    }

    #[test]
    fn joint_counts_match_per_subgraph_counts() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 13);
        let c = crate::generate::materialize(&pair);
        let thresholds = [1.0, 0.95, 0.8];
        let joint = joint_global_triangles(&c, fam.hash(), &thresholds);
        for (idx, &nu) in thresholds.iter().enumerate() {
            let sub = fam.materialize(nu);
            assert_eq!(joint[idx], direct::global_triangles(&sub), "nu={nu}");
        }
    }

    #[test]
    fn joint_vertex_counts_match_per_subgraph() {
        let pair = KroneckerPair::with_full_self_loops(clique(3), clique(3)).unwrap();
        let fam = RejectionFamily::new(&pair, 17);
        let c = crate::generate::materialize(&pair);
        let thresholds = [1.0, 0.9];
        let joint = joint_vertex_triangles(&c, fam.hash(), &thresholds);
        for (idx, &nu) in thresholds.iter().enumerate() {
            let sub = fam.materialize(nu);
            assert_eq!(joint[idx], direct::vertex_triangles(&sub).per_vertex, "nu={nu}");
        }
    }

    #[test]
    fn expectations_formulas() {
        let pair = family_pair();
        let fam = RejectionFamily::new(&pair, 1);
        assert_eq!(fam.expected_vertex_triangles(100, 0.5), 12.5);
        assert_eq!(fam.expected_edge_triangles(100, 0.5), 25.0);
    }
}
