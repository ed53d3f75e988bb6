//! Property tests for the reference analytics, cross-checked against
//! independent brute-force oracles implemented inside this test file.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use kron_analytics::{clustering, distance, triangles};
use kron_graph::{CsrGraph, EdgeList};

/// Strategy: random undirected loop-free graph on `n` vertices.
fn graph(n: u64) -> impl Strategy<Value = CsrGraph> {
    let pairs: Vec<(u64, u64)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    proptest::collection::vec(proptest::bool::ANY, pairs.len()).prop_map(move |mask| {
        let mut list = EdgeList::new(n);
        for (keep, &(u, v)) in mask.iter().zip(&pairs) {
            if *keep {
                list.add_undirected(u, v).expect("in range");
            }
        }
        CsrGraph::from_edge_list(&list)
    })
}

/// Brute force: O(n³) triple scan for triangles.
fn brute_force_triangles(g: &CsrGraph) -> (Vec<u64>, u64) {
    let n = g.n();
    let mut per_vertex = vec![0u64; n as usize];
    let mut total = 0u64;
    for u in 0..n {
        for v in (u + 1)..n {
            for w in (v + 1)..n {
                if g.has_arc(u, v) && g.has_arc(v, w) && g.has_arc(u, w) {
                    per_vertex[u as usize] += 1;
                    per_vertex[v as usize] += 1;
                    per_vertex[w as usize] += 1;
                    total += 1;
                }
            }
        }
    }
    (per_vertex, total)
}

/// Brute force: Floyd–Warshall all-pairs shortest paths.
fn floyd_warshall(g: &CsrGraph) -> Vec<Vec<u32>> {
    const INF: u32 = u32::MAX / 4;
    let n = g.n() as usize;
    let mut d = vec![vec![INF; n]; n];
    for i in 0..n {
        d[i][i] = 0;
    }
    for (u, v) in g.arcs() {
        if u != v {
            d[u as usize][v as usize] = 1;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let through = d[i][k].saturating_add(d[k][j]);
                if through < d[i][j] {
                    d[i][j] = through;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast triangle counting equals the O(n³) scan.
    #[test]
    fn triangles_match_brute_force(g in graph(9)) {
        let fast = triangles::vertex_triangles(&g);
        let (per_vertex, total) = brute_force_triangles(&g);
        prop_assert_eq!(fast.per_vertex, per_vertex);
        prop_assert_eq!(fast.global, total);
        prop_assert_eq!(triangles::global_triangles(&g), total);
    }

    /// Edge triangle counts: Δ_uv = common neighbors, brute force.
    #[test]
    fn edge_triangles_match_brute_force(g in graph(9)) {
        let et = triangles::edge_triangles(&g);
        for ((u, v), count) in et.iter() {
            let brute = (0..9u64)
                .filter(|&w| w != u && w != v && g.has_arc(u, w) && g.has_arc(v, w))
                .count() as u64;
            prop_assert_eq!(count, brute, "edge ({},{})", u, v);
        }
    }

    /// BFS distances equal Floyd–Warshall distances.
    #[test]
    fn bfs_matches_floyd_warshall(g in graph(10)) {
        let fw = floyd_warshall(&g);
        for s in 0..10u64 {
            let bfs = distance::bfs_distances(&g, s);
            for t in 0..10usize {
                let expected = fw[s as usize][t];
                if expected >= u32::MAX / 4 {
                    prop_assert_eq!(bfs[t], distance::UNREACHABLE);
                } else {
                    prop_assert_eq!(bfs[t], expected, "({}, {})", s, t);
                }
            }
        }
    }

    /// Takes–Kosters eccentricities equal naive all-BFS on connected
    /// graphs.
    #[test]
    fn bounded_eccentricity_exact(g in graph(10)) {
        prop_assume!(kron_graph::connectivity::is_connected(&g) && g.n() > 0 && g.nnz() > 0);
        prop_assert_eq!(
            distance::all_eccentricities(&g),
            distance::all_eccentricities_naive(&g)
        );
    }

    /// Clustering coefficients stay in [0, 1] and hit 0/1 where expected.
    #[test]
    fn clustering_range(g in graph(9)) {
        for (v, &eta) in clustering::vertex_clustering(&g).iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&eta), "vertex {}: {}", v, eta);
        }
        for ((u, v), xi) in clustering::edge_clustering(&g) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&xi), "edge ({u},{v}): {xi}");
        }
    }

    /// Community profile quadratic-form identity.
    #[test]
    fn community_counts_consistent(
        g in graph(10),
        mask in proptest::collection::vec(proptest::bool::ANY, 10),
    ) {
        use kron_analytics::community::community_profile;
        let members: Vec<u64> = (0..10u64).filter(|&v| mask[v as usize]).collect();
        let p = community_profile(&g, &members);
        // m_in + m_out + edges-outside = total edges.
        let outside: Vec<u64> = (0..10u64).filter(|&v| !mask[v as usize]).collect();
        let p_out = community_profile(&g, &outside);
        prop_assert_eq!(
            p.m_in + p.m_out + p_out.m_in,
            g.undirected_edge_count()
        );
        // Complement symmetry: m_out(S) = m_out(V∖S).
        prop_assert_eq!(p.m_out, p_out.m_out);
    }
}
