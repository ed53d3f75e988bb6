//! Community edge counts and densities (§VI, Def. 13).
//!
//! For a vertex set `S`: the internal edge count `m_in(S) = ½ 1ᵗ_S A 1_S`
//! and external edge count `m_out(S) = 1ᵗ_S A (1 − 1_S)`, with densities
//!
//! ```text
//! ρ_in(S)  = 2 m_in(S) / (|S| (|S| − 1))
//! ρ_out(S) =   m_out(S) / (|S| (n − |S|))
//! ```
//!
//! Following Thm. 6's `[C − I_C]` convention, the diagonal is excluded:
//! self loops contribute to neither count.

use kron_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};

/// Edge counts and densities of one vertex set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommunityProfile {
    /// `|S|`.
    pub size: u64,
    /// Internal (within-set) undirected edge count, self loops excluded.
    pub m_in: u64,
    /// External (set-to-complement) edge count.
    pub m_out: u64,
    /// Internal edge density `ρ_in`.
    pub rho_in: f64,
    /// External edge density `ρ_out`.
    pub rho_out: f64,
}

/// Computes the profile of the vertex set `members` within `g`.
///
/// `members` need not be sorted; duplicates are ignored. Expects an
/// undirected graph.
pub fn community_profile(g: &CsrGraph, members: &[VertexId]) -> CommunityProfile {
    let mut in_set = vec![false; g.n() as usize];
    let mut size = 0u64;
    for &v in members {
        if !in_set[v as usize] {
            in_set[v as usize] = true;
            size += 1;
        }
    }
    let (m_in, m_out) = edge_counts_from_mask(g, &in_set);
    profile_from_counts(g.n(), size, m_in, m_out)
}

fn edge_counts_from_mask(g: &CsrGraph, in_set: &[bool]) -> (u64, u64) {
    let mut internal_arcs = 0u64;
    let mut m_out = 0u64;
    for u in 0..g.n() {
        if !in_set[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            if u64::from(v) == u {
                continue; // diagonal excluded per [C − I_C]
            }
            if in_set[v as usize] {
                internal_arcs += 1;
            } else {
                m_out += 1;
            }
        }
    }
    (internal_arcs / 2, m_out)
}

fn profile_from_counts(n: u64, size: u64, m_in: u64, m_out: u64) -> CommunityProfile {
    let rho_in = if size >= 2 {
        2.0 * m_in as f64 / (size as f64 * (size - 1) as f64)
    } else {
        0.0
    };
    let rho_out = if size >= 1 && size < n {
        m_out as f64 / (size as f64 * (n - size) as f64)
    } else {
        0.0
    };
    CommunityProfile { size, m_in, m_out, rho_in, rho_out }
}

/// Profiles every part of a non-overlapping partition given per-vertex
/// labels in `0..num_parts` (Def. 15). Single pass over the arcs.
pub fn partition_profiles(g: &CsrGraph, labels: &[u32], num_parts: usize) -> Vec<CommunityProfile> {
    assert_eq!(labels.len(), g.n() as usize, "one label per vertex");
    let mut sizes = vec![0u64; num_parts];
    for &l in labels {
        assert!((l as usize) < num_parts, "label {l} out of range");
        sizes[l as usize] += 1;
    }
    let mut internal_arcs = vec![0u64; num_parts];
    let mut m_out = vec![0u64; num_parts];
    for u in 0..g.n() {
        let lu = labels[u as usize] as usize;
        for &v in g.neighbors(u) {
            if u64::from(v) == u {
                continue;
            }
            let lv = labels[v as usize] as usize;
            if lu == lv {
                internal_arcs[lu] += 1;
            } else {
                m_out[lu] += 1;
            }
        }
    }
    (0..num_parts)
        .map(|p| profile_from_counts(g.n(), sizes[p], internal_arcs[p] / 2, m_out[p]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::generators::{clique, complete_bipartite, disjoint_cliques};

    #[test]
    fn clique_subset() {
        let g = clique(6);
        let p = community_profile(&g, &[0, 1, 2]);
        assert_eq!(p.size, 3);
        assert_eq!(p.m_in, 3);
        assert_eq!(p.m_out, 3 * 3);
        assert!((p.rho_in - 1.0).abs() < 1e-12);
        assert!((p.rho_out - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_cliques_perfect_communities() {
        let g = disjoint_cliques(3, 4);
        let labels: Vec<u32> = (0..12).map(|v| v / 4).collect();
        let profiles = partition_profiles(&g, &labels, 3);
        for p in &profiles {
            assert_eq!(p.size, 4);
            assert_eq!(p.m_in, 6);
            assert_eq!(p.m_out, 0);
            assert!((p.rho_in - 1.0).abs() < 1e-12);
            assert_eq!(p.rho_out, 0.0);
        }
    }

    #[test]
    fn bipartite_side_has_no_internal_edges() {
        let g = complete_bipartite(3, 4);
        let p = community_profile(&g, &[0, 1, 2]);
        assert_eq!(p.m_in, 0);
        assert_eq!(p.m_out, 12);
        assert_eq!(p.rho_in, 0.0);
        assert!((p.rho_out - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_and_order_ignored() {
        let g = clique(5);
        let a = community_profile(&g, &[0, 1, 2]);
        let b = community_profile(&g, &[2, 0, 1, 1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn self_loops_excluded() {
        let g = clique(4).with_full_self_loops();
        let p = community_profile(&g, &[0, 1]);
        assert_eq!(p.m_in, 1);
        assert_eq!(p.m_out, 4);
    }

    #[test]
    fn degenerate_sets() {
        let g = clique(4);
        let single = community_profile(&g, &[0]);
        assert_eq!(single.m_in, 0);
        assert_eq!(single.rho_in, 0.0);
        assert_eq!(single.m_out, 3);
        let all = community_profile(&g, &[0, 1, 2, 3]);
        assert_eq!(all.m_out, 0);
        assert_eq!(all.rho_out, 0.0);
        assert!((all.rho_in - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_matches_per_set_computation() {
        use kron_graph::generators::erdos_renyi;
        let g = erdos_renyi(30, 0.2, 3);
        let labels: Vec<u32> = (0..30).map(|v| (v % 3) as u32).collect();
        let profiles = partition_profiles(&g, &labels, 3);
        for part in 0..3u32 {
            let members: Vec<u64> = (0..30u64)
                .filter(|&v| labels[v as usize] == part)
                .collect();
            assert_eq!(profiles[part as usize], community_profile(&g, &members));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_bad_labels() {
        let g = clique(3);
        partition_profiles(&g, &[0, 1, 5], 2);
    }

    #[test]
    fn matches_quadratic_form_oracle() {
        // Def. 13 verbatim: m_in = ½ 1ᵗ_S (A − A∘I) 1_S,
        // m_out = 1ᵗ_S (A − A∘I) (1 − 1_S).
        use kron_graph::generators::erdos_renyi;
        use kron_linalg::DenseMatrix;
        let g = erdos_renyi(20, 0.3, 8).with_full_self_loops();
        let n = g.n() as usize;
        let mut a = DenseMatrix::zeros(n, n);
        for (u, v) in g.arcs() {
            a.set(u as usize, v as usize, 1);
        }
        let core = &a - &a.hadamard(&DenseMatrix::identity(n));
        let members: Vec<u64> = vec![0, 3, 4, 7, 11];
        let ind: Vec<i64> = (0..n as u64)
            .map(|v| i64::from(members.contains(&v)))
            .collect();
        let ones = vec![1i64; n];
        let comp: Vec<i64> = ind.iter().map(|&x| 1 - x).collect();
        let p = community_profile(&g, &members);
        assert_eq!(p.m_in as i64, core.bilinear(&ind, &ind) / 2);
        assert_eq!(p.m_out as i64, core.bilinear(&ind, &comp));
        let _ = ones;
    }
}
