//! Betweenness centrality (Brandes' algorithm, the paper's ref. [24]).
//!
//! §V motivates the distance-based centrality family as "eccentricity,
//! closeness centrality, and betweenness centrality". The paper derives
//! Kronecker formulas for the first two only — betweenness depends on
//! shortest-path *counts*, which do not factor across `⊗` (shortest paths
//! in `C` synchronize steps in both factors, so path multiplicities mix).
//! This module provides the exact `O(nm)` reference implementation so
//! that (a) the library covers the full centrality family the paper
//! motivates and (b) the non-factorization is demonstrated by test rather
//! than asserted.

use std::collections::VecDeque;

use kron_graph::{CsrGraph, VertexId};

/// Exact betweenness centrality of every vertex of an unweighted graph
/// (Brandes 2001). Each unordered pair is counted once (the undirected
/// convention: accumulated dependencies are halved).
pub fn betweenness(g: &CsrGraph) -> Vec<f64> {
    let n = g.n() as usize;
    let mut centrality = vec![0.0f64; n];
    // Reused per-source state.
    let mut stack: Vec<VertexId> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![-1i64; n];
    let mut delta = vec![0.0f64; n];
    let mut queue = VecDeque::new();

    for s in 0..n as u64 {
        stack.clear();
        for p in preds.iter_mut() {
            p.clear();
        }
        sigma.fill(0.0);
        dist.fill(-1);
        delta.fill(0.0);

        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                let w = u64::from(w);
                if w == v {
                    continue; // self loops carry no shortest paths
                }
                if dist[w as usize] < 0 {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        while let Some(w) = stack.pop() {
            let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
            let parents = std::mem::take(&mut preds[w as usize]);
            for &v in &parents {
                delta[v as usize] += sigma[v as usize] * coeff;
            }
            preds[w as usize] = parents;
            if w != s {
                centrality[w as usize] += delta[w as usize];
            }
        }
    }
    // Undirected: each pair (s, t) was visited from both endpoints.
    for c in centrality.iter_mut() {
        *c /= 2.0;
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::generators::{clique, cycle, path, star};
    use kron_graph::EdgeList;

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (idx, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {idx}: {x} vs {y}");
        }
    }

    #[test]
    fn path_graph_known_values() {
        // P5 (0-1-2-3-4): interior vertex v at position i carries
        // i·(n−1−i) pairs.
        let bc = betweenness(&path(5));
        close(&bc, &[0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_carries_all_pairs() {
        // S_n: center on all C(n−1, 2) leaf pairs; leaves on none.
        let bc = betweenness(&star(6));
        close(&bc, &[10.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn clique_has_no_intermediaries() {
        let bc = betweenness(&clique(5));
        close(&bc, &[0.0; 5]);
    }

    #[test]
    fn cycle_symmetric() {
        // C6: every vertex lies on the unique shortest paths between the
        // two vertex pairs that straddle it plus half of the diametral
        // pairs; symmetry means all values equal.
        let bc = betweenness(&cycle(6));
        assert!(bc.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        // Per vertex: 1 from its unique distance-2 pair plus ½ + ½ from
        // the two diametral pairs whose split shortest paths cross it.
        close(&bc, &[2.0; 6]);
    }

    #[test]
    fn multiple_shortest_paths_split_credit() {
        // C4 (0-1-2-3-0): pairs at distance 2 have two shortest paths;
        // each intermediate gets ½ per such pair → 0.5 each.
        let bc = betweenness(&cycle(4));
        close(&bc, &[0.5; 4]);
    }

    #[test]
    fn self_loops_ignored() {
        let g = path(4);
        let looped = g.with_full_self_loops();
        close(&betweenness(&g), &betweenness(&looped));
    }

    #[test]
    fn disconnected_components_independent() {
        // Two disjoint paths: values as in each path alone.
        let mut list = EdgeList::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            list.add_undirected(u, v).unwrap();
        }
        let g = kron_graph::CsrGraph::from_edge_list(&list);
        let bc = betweenness(&g);
        close(&bc, &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]);
    }

    /// The negative result the paper implies by omission: betweenness of
    /// the Kronecker product is NOT a simple product/max of factor
    /// betweennesses, because shortest-path counts do not factor.
    #[test]
    fn betweenness_does_not_factor_across_kronecker() {
        let a = path(3).with_full_self_loops();
        let b = path(3).with_full_self_loops();
        // Materialize C = A ⊗ B by hand (both factors 3 vertices).
        let mut list = EdgeList::new(9);
        for u in 0..3u64 {
            for v in 0..3u64 {
                for x in 0..3u64 {
                    for y in 0..3u64 {
                        if a.has_arc(u, v) && b.has_arc(x, y) {
                            list.add_arc(u * 3 + x, v * 3 + y).unwrap();
                        }
                    }
                }
            }
        }
        let c = kron_graph::CsrGraph::from_edge_list(&list);
        let bc_c = betweenness(&c);
        let bc_a = betweenness(&a);
        let bc_b = betweenness(&b);
        // Candidate "laws": product, max — both must fail somewhere.
        let mut product_fails = false;
        let mut max_fails = false;
        for i in 0..3usize {
            for k in 0..3usize {
                let actual = bc_c[i * 3 + k];
                if (actual - bc_a[i] * bc_b[k]).abs() > 1e-9 {
                    product_fails = true;
                }
                if (actual - bc_a[i].max(bc_b[k])).abs() > 1e-9 {
                    max_fails = true;
                }
            }
        }
        assert!(product_fails, "a product law unexpectedly held");
        assert!(max_fails, "a max law unexpectedly held");
    }
}
