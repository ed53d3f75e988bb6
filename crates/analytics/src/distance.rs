//! Hop counts, eccentricity, diameter, and closeness centrality (§V).
//!
//! The paper's Def. 9 measures distance as
//! `hops(i, j) = min { h ≥ 1 : (A^h)_ij > 0 }` — note the minimum walk
//! length starts at 1, so the "distance" from a vertex to itself is 1 when
//! it has a self loop (and 2 via any neighbor otherwise). For `i ≠ j` this
//! coincides with the ordinary BFS shortest-path distance. All routines
//! here follow Def. 9 exactly so they can be compared verbatim against the
//! Kronecker formulas (Thm. 3–5, Cor. 3–5, Thm. 4).

use std::collections::VecDeque;

use kron_graph::{Arena, CsrGraph, VertexId};
use serde::{Deserialize, Serialize};

/// Sentinel for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Standard BFS distances from `source` (`dist[source] = 0`,
/// [`UNREACHABLE`] for unreached vertices).
///
/// ```
/// use kron_analytics::distance::bfs_distances;
/// use kron_graph::generators::path;
///
/// assert_eq!(bfs_distances(&path(4), 0), vec![0, 1, 2, 3]);
/// ```
pub fn bfs_distances(g: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = g.n() as usize;
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    // In range (indexed above), so below n ≤ 2^32: the queue holds the
    // CSR's own u32 ids.
    queue.push_back(source as u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u64::from(u)) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Def. 9 hop counts from `source`: BFS distance off the diagonal; at the
/// diagonal, 1 with a self loop, else 2 via any neighbor, else unreachable.
pub fn bfs_hops(g: &CsrGraph, source: VertexId) -> Vec<u32> {
    let mut hops = bfs_distances(g, source);
    hops[source as usize] = if g.has_self_loop(source) {
        1
    } else if g.degree(source) > 0 {
        2
    } else {
        UNREACHABLE
    };
    hops
}

/// Batched multi-source BFS distances over `u64` frontier bitsets: row
/// `i` equals `bfs_distances(g, sources[i])` bit-for-bit, but up to 64
/// sources advance per sweep.
///
/// The state is one word per vertex and per 64-source group — bit `s` of
/// `frontier[v]` means "source `s` reached `v` this level". Each level
/// pushes every active vertex's word into its out-neighbors
/// (`next[w] |= frontier[v]`), masks off vertices each source has already
/// visited, and stamps the level into the distance rows of the newly set
/// bits. Levels are synchronous, so the distances are the canonical BFS
/// distances regardless of push order; the word-parallel sweep touches
/// each adjacency list once per *level*, not once per *source* — the win
/// that makes factor-wide oracle construction cheap. Frontier/visited
/// words are recycled through the process [`Arena`].
pub fn multi_source_bfs_distances(g: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<u32>> {
    let _span = kron_obs::span::enter("analytics/multi_source_bfs");
    let n = g.n() as usize;
    let mut rows: Vec<Vec<u32>> = sources.iter().map(|_| vec![UNREACHABLE; n]).collect();
    let arena = Arena::global();
    let mut sweeps = 0u64;
    let mut word_pushes = 0u64;
    for (chunk_at, chunk) in sources.chunks(64).enumerate() {
        let rows = &mut rows[chunk_at * 64..];
        let mut visited = arena.take_words(n);
        let mut frontier = arena.take_words(n);
        let mut next = arena.take_words(n);
        for (s, &src) in chunk.iter().enumerate() {
            frontier[src as usize] |= 1u64 << s;
            visited[src as usize] |= 1u64 << s;
            rows[s][src as usize] = 0;
        }
        let mut depth = 0u32;
        let mut active = true;
        while active {
            sweeps += 1;
            depth += 1;
            active = false;
            for v in 0..n {
                let f = frontier[v];
                if f == 0 {
                    continue;
                }
                word_pushes += g.neighbors(v as VertexId).len() as u64;
                for &w in g.neighbors(v as VertexId) {
                    next[w as usize] |= f;
                }
            }
            for v in 0..n {
                let fresh = next[v] & !visited[v];
                next[v] = 0;
                frontier[v] = fresh;
                if fresh != 0 {
                    active = true;
                    visited[v] |= fresh;
                    let mut y = fresh;
                    while y != 0 {
                        rows[y.trailing_zeros() as usize][v] = depth;
                        y &= y - 1;
                    }
                }
            }
        }
    }
    kron_obs::counter!("bfs.bitset_sweeps").add(sweeps);
    kron_obs::counter!("bfs.bitset_word_pushes").add(word_pushes);
    rows
}

/// Batched Def. 9 hop rows: row `i` equals `bfs_hops(g, sources[i])`
/// bit-for-bit (the diagonal conventions applied on top of
/// [`multi_source_bfs_distances`]).
pub fn multi_source_bfs_hops(g: &CsrGraph, sources: &[VertexId]) -> Vec<Vec<u32>> {
    let mut rows = multi_source_bfs_distances(g, sources);
    for (row, &src) in rows.iter_mut().zip(sources) {
        row[src as usize] = if g.has_self_loop(src) {
            1
        } else if g.degree(src) > 0 {
            2
        } else {
            UNREACHABLE
        };
    }
    rows
}

/// Eccentricity of one vertex (Def. 11): `max_j hops(i, j)`;
/// [`UNREACHABLE`] when some vertex cannot be reached.
pub fn eccentricity(g: &CsrGraph, v: VertexId) -> u32 {
    bfs_hops(g, v).into_iter().max().unwrap_or(UNREACHABLE)
}

/// Eccentricities of every vertex by running a BFS from each (`O(n·m)`).
pub fn all_eccentricities_naive(g: &CsrGraph) -> Vec<u32> {
    (0..g.n()).map(|v| eccentricity(g, v)).collect()
}

/// Exact eccentricities of every vertex of a **connected undirected** graph
/// using the bounds-refinement algorithm of Takes & Kosters (the approach
/// behind the paper's reference [3] for massive-scale exact eccentricity).
///
/// Maintains per-vertex lower/upper eccentricity bounds; each pivot BFS
/// tightens `lower(u) ≥ max(d(u), ecc(pivot) − d(u))` and
/// `upper(u) ≤ ecc(pivot) + d(u)`, resolving most vertices of small-world
/// graphs within a handful of sweeps. Falls back to per-vertex BFS for any
/// stragglers, so the result is always exact.
///
/// Panics if the graph is disconnected (bounds would never close) — extract
/// the largest connected component first, as the paper does.
pub fn all_eccentricities(g: &CsrGraph) -> Vec<u32> {
    let n = g.n() as usize;
    if n == 0 {
        return vec![];
    }
    let mut lower = vec![0u32; n];
    let mut upper = vec![u32::MAX; n];
    let mut resolved = vec![false; n];
    let mut remaining = n;
    let mut pick_max_upper = true;

    while remaining > 0 {
        // Pivot selection: alternate the vertex with the largest upper bound
        // and the one with the smallest lower bound among unresolved
        // vertices (the classic interchanging strategy).
        let pivot = if pick_max_upper {
            (0..n)
                .filter(|&v| !resolved[v])
                .max_by_key(|&v| (upper[v], g.degree(v as u64)))
                .expect("remaining > 0")
        } else {
            (0..n)
                .filter(|&v| !resolved[v])
                .min_by_key(|&v| (lower[v], std::cmp::Reverse(g.degree(v as u64))))
                .expect("remaining > 0")
        };
        pick_max_upper = !pick_max_upper;

        let hops = bfs_hops(g, pivot as u64);
        let ecc_pivot = hops.iter().copied().max().unwrap_or(UNREACHABLE);
        assert!(
            ecc_pivot != UNREACHABLE,
            "all_eccentricities requires a connected graph"
        );
        for u in 0..n {
            if resolved[u] {
                continue;
            }
            let d = hops[u];
            let lo = d.max(ecc_pivot.saturating_sub(d));
            let hi = ecc_pivot.saturating_add(d);
            if lo > lower[u] {
                lower[u] = lo;
            }
            if hi < upper[u] {
                upper[u] = hi;
            }
            if lower[u] == upper[u] {
                resolved[u] = true;
                remaining -= 1;
            }
        }
        // Resolve the pivot itself exactly.
        if !resolved[pivot] {
            lower[pivot] = ecc_pivot;
            upper[pivot] = ecc_pivot;
            resolved[pivot] = true;
            remaining -= 1;
        }
    }
    lower
}

/// Graph diameter (Def. 10): the maximum hop count over all vertex pairs;
/// [`UNREACHABLE`] when disconnected, 0 when empty.
pub fn diameter(g: &CsrGraph) -> u32 {
    if g.n() == 0 {
        return 0;
    }
    // diameter = max eccentricity; two-phase: naive for tiny graphs,
    // bounds-based otherwise would need connectivity — keep naive max here
    // since diameter() is used on factor-scale graphs.
    all_eccentricities_naive(g).into_iter().max().unwrap_or(0)
}

/// Closeness centrality of one vertex (Def. 12):
/// `ζ(i) = Σ_j 1 / hops(i, j)`, summing only reachable `j`.
pub fn closeness(g: &CsrGraph, v: VertexId) -> f64 {
    bfs_hops(g, v)
        .into_iter()
        .filter(|&h| h != UNREACHABLE)
        .map(|h| 1.0 / h as f64)
        .sum()
}

/// Summary of a graph's distance structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceSummary {
    /// Per-vertex eccentricity.
    pub eccentricities: Vec<u32>,
    /// Graph diameter (max eccentricity).
    pub diameter: u32,
    /// Graph radius (min eccentricity).
    pub radius: u32,
}

/// Computes the distance summary of a connected graph exactly.
pub fn distance_summary(g: &CsrGraph) -> DistanceSummary {
    let eccentricities = all_eccentricities(g);
    let diameter = eccentricities.iter().copied().max().unwrap_or(0);
    let radius = eccentricities.iter().copied().min().unwrap_or(0);
    DistanceSummary { eccentricities, diameter, radius }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::generators::{clique, cycle, path, star};
    use kron_graph::CsrGraph;

    #[test]
    fn bfs_distances_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = CsrGraph::from_arcs(3, vec![(0, 1), (1, 0)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn hops_diagonal_conventions() {
        // No self loop, has neighbors → hops(i,i) = 2.
        let g = path(3);
        assert_eq!(bfs_hops(&g, 1)[1], 2);
        // Self loop → 1.
        let with_loop = g.with_full_self_loops();
        assert_eq!(bfs_hops(&with_loop, 1)[1], 1);
        // Isolated vertex → unreachable.
        let iso = CsrGraph::from_arcs(2, vec![]).unwrap();
        assert_eq!(bfs_hops(&iso, 0)[0], UNREACHABLE);
    }

    #[test]
    fn hops_off_diagonal_matches_bfs() {
        let g = cycle(6).with_full_self_loops();
        let hops = bfs_hops(&g, 0);
        assert_eq!(hops[3], 3);
        assert_eq!(hops[5], 1);
        assert_eq!(hops[0], 1);
    }

    #[test]
    fn eccentricity_known_families() {
        let g = path(5).with_full_self_loops();
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
        let k = clique(4).with_full_self_loops();
        assert_eq!(eccentricity(&k, 0), 1);
        // Clique without loops: hops(i,i)=2 dominates the 1-hop neighbors.
        let k_plain = clique(4);
        assert_eq!(eccentricity(&k_plain, 0), 2);
    }

    #[test]
    fn diameter_known_families() {
        assert_eq!(diameter(&path(6).with_full_self_loops()), 5);
        assert_eq!(diameter(&cycle(8).with_full_self_loops()), 4);
        assert_eq!(diameter(&clique(5).with_full_self_loops()), 1);
        assert_eq!(diameter(&star(5).with_full_self_loops()), 2);
    }

    #[test]
    fn bounded_matches_naive_on_families() {
        for g in [
            path(9).with_full_self_loops(),
            cycle(10).with_full_self_loops(),
            star(12).with_full_self_loops(),
            clique(6).with_full_self_loops(),
            path(9),
            cycle(10),
            star(12),
        ] {
            assert_eq!(all_eccentricities(&g), all_eccentricities_naive(&g));
        }
    }

    #[test]
    fn bounded_matches_naive_on_random() {
        use kron_graph::generators::barabasi_albert;
        let g = barabasi_albert(200, 2, 9).with_full_self_loops();
        assert_eq!(all_eccentricities(&g), all_eccentricities_naive(&g));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn bounded_rejects_disconnected() {
        let g = CsrGraph::from_arcs(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        all_eccentricities(&g);
    }

    #[test]
    fn closeness_star_center_vs_leaf() {
        let g = star(5).with_full_self_loops();
        // Center: self 1 + four leaves at 1 → 5.
        assert!((closeness(&g, 0) - 5.0).abs() < 1e-12);
        // Leaf: self 1 + center 1 + three leaves at 2 → 3.5.
        assert!((closeness(&g, 1) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn closeness_skips_unreachable() {
        let g = CsrGraph::from_arcs(3, vec![(0, 1), (1, 0), (0, 0), (1, 1), (2, 2)]).unwrap();
        assert!((closeness(&g, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_consistency() {
        let g = cycle(7).with_full_self_loops();
        let s = distance_summary(&g);
        assert_eq!(s.diameter, 3);
        assert_eq!(s.radius, 3);
        assert_eq!(s.eccentricities.len(), 7);
    }

    #[test]
    fn multi_source_matches_scalar_bfs() {
        use kron_graph::generators::{barabasi_albert, erdos_renyi};
        for g in [
            path(7),
            cycle(9).with_full_self_loops(),
            star(6),
            clique(5).with_full_self_loops(),
            erdos_renyi(40, 0.1, 3),
            barabasi_albert(70, 2, 4),
            CsrGraph::from_arcs(3, vec![(0, 1), (1, 0)]).unwrap(),
            CsrGraph::from_arcs(5, vec![(0, 1), (1, 2), (3, 4)]).unwrap(), // directed
        ] {
            let sources: Vec<VertexId> = (0..g.n()).collect();
            let dist_rows = multi_source_bfs_distances(&g, &sources);
            let hop_rows = multi_source_bfs_hops(&g, &sources);
            for (i, &src) in sources.iter().enumerate() {
                assert_eq!(dist_rows[i], bfs_distances(&g, src), "distances from {src}");
                assert_eq!(hop_rows[i], bfs_hops(&g, src), "hops from {src}");
            }
        }
    }

    #[test]
    fn multi_source_crosses_word_boundaries() {
        // > 64 sources forces multiple word groups; duplicates are legal.
        let g = cycle(70).with_full_self_loops();
        let sources: Vec<VertexId> = (0..70).chain([0, 0, 13]).collect();
        let rows = multi_source_bfs_hops(&g, &sources);
        assert_eq!(rows.len(), 73);
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(rows[i], bfs_hops(&g, src));
        }
    }

    #[test]
    fn multi_source_empty_and_single() {
        let g = path(4);
        assert!(multi_source_bfs_distances(&g, &[]).is_empty());
        assert_eq!(multi_source_bfs_distances(&g, &[2]), vec![bfs_distances(&g, 2)]);
    }
}
