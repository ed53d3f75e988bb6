//! Compressed sparse row (CSR) graph representation.
//!
//! [`CsrGraph`] is the immutable, query-oriented representation used by all
//! analytics: O(1) degree lookup, sorted neighbor slices, and
//! binary-search `has_arc`.
//!
//! Neighbor ids are stored as `u32`, 4 bytes per arc. An in-memory CSR
//! over more than 2^32 vertices would need an offset array of at least
//! 32 GiB before its first arc, so [`CsrGraph::MAX_VERTICES`] rules out
//! no practical in-memory graph, while the narrow ids halve the bytes
//! synthesis writes and the triangle and BFS kernels stream. Vertex ids
//! everywhere else ([`VertexId`], [`Arc`], degrees) stay `u64`, as does
//! the out-of-core path (`shard`), which has no such limit.

use std::sync::OnceLock;

use crate::edge_list::EdgeList;
use crate::{Arc, GraphError, Result, VertexId};

/// An immutable graph in CSR form with sorted, deduplicated neighbor lists.
///
/// ```
/// use kron_graph::CsrGraph;
///
/// let g = CsrGraph::from_arcs(3, vec![(0, 2), (0, 1), (1, 0), (2, 0)]).unwrap();
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(0), 2);
/// assert!(g.has_arc(2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: u64,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    cache: CsrCache,
}

/// Lazily computed per-graph derived data. The graph is immutable, so the
/// cache is fill-once (`OnceLock`); it is deliberately invisible to
/// equality, cloning, and debug output — two graphs with the same
/// adjacency are the same graph whether or not their caches are warm.
#[derive(Default)]
struct CsrCache {
    /// Vertices sorted ascending by `(degree, id)` — the degree-rank
    /// permutation the triangle kernels orient edges by.
    degree_rank: OnceLock<Vec<VertexId>>,
    max_degree: OnceLock<u64>,
}

impl Clone for CsrCache {
    fn clone(&self) -> Self {
        // A clone starts cold; recomputing is cheaper than deep-copying
        // and keeps `clone` allocation-proportional to the adjacency.
        CsrCache::default()
    }
}

impl PartialEq for CsrCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for CsrCache {}

impl std::fmt::Debug for CsrCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CsrCache")
    }
}

impl CsrGraph {
    /// Largest vertex count a `CsrGraph` holds: every neighbor id must fit
    /// the `u32` target array.
    pub const MAX_VERTICES: u64 = 1 << 32;

    /// `Ok` when a graph of `n` vertices fits in memory as a `CsrGraph`,
    /// else [`GraphError::TooManyVertices`]. Loaders call this on a
    /// declared `n` before they allocate anything sized by it.
    pub fn check_vertex_count(n: u64) -> Result<()> {
        if n > Self::MAX_VERTICES {
            return Err(GraphError::TooManyVertices { n });
        }
        Ok(())
    }

    /// Builds a CSR graph from an edge list (sorting and deduplicating arcs).
    ///
    /// Panics when the list has more than [`CsrGraph::MAX_VERTICES`]
    /// vertices.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        let _span = kron_obs::span::enter("graph/csr_from_edge_list");
        Self::check_vertex_count(list.n()).unwrap_or_else(|e| panic!("{e}"));
        kron_obs::counter!("graph.csr_input_arcs").add(list.nnz() as u64);
        let n = list.n() as usize;
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in list.arcs() {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        // Every arc is in range (`EdgeList` checks) and n ≤ 2^32, so each
        // target fits a u32.
        let mut targets = vec![0u32; list.nnz()];
        let mut cursor = counts.clone();
        for &(u, v) in list.arcs() {
            targets[cursor[u as usize]] = v as u32;
            cursor[u as usize] += 1;
        }
        // Sort + dedup each row in place.
        let mut offsets = vec![0usize; n + 1];
        let mut write = 0usize;
        for u in 0..n {
            let (start, end) = (counts[u], counts[u + 1]);
            let row = &mut targets[start..end];
            row.sort_unstable();
            let mut prev: Option<u32> = None;
            let mut kept = 0usize;
            for idx in 0..row.len() {
                let t = row[idx];
                if prev != Some(t) {
                    row[kept] = t;
                    kept += 1;
                    prev = Some(t);
                }
            }
            // Compact kept entries toward the global write cursor.
            for idx in 0..kept {
                targets[write + idx] = targets[start + idx];
            }
            write += kept;
            offsets[u + 1] = write;
        }
        targets.truncate(write);
        CsrGraph { n: n as u64, offsets, targets, cache: CsrCache::default() }
    }

    /// Builds directly from raw arcs.
    pub fn from_arcs(n: u64, arcs: Vec<Arc>) -> Result<Self> {
        Ok(Self::from_edge_list(&EdgeList::from_arcs(n, arcs)?))
    }

    /// Builds from prebuilt canonical CSR parts: `offsets` must have
    /// `n + 1` entries starting at 0 and ending at `targets.len()`, and
    /// every row of `targets` must be strictly increasing with entries
    /// `< n`.
    ///
    /// This is the constructor for kernels that *synthesize* rows already
    /// in canonical order (direct Kronecker CSR synthesis emits each
    /// product row sorted and duplicate-free by construction), skipping
    /// the counting sort and per-row sort/dedup of [`from_edge_list`].
    /// The row invariants are checked in debug builds; a release caller is
    /// trusted. `n` above [`CsrGraph::MAX_VERTICES`] panics in every build.
    ///
    /// [`from_edge_list`]: CsrGraph::from_edge_list
    pub fn from_sorted_parts(n: u64, offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        Self::check_vertex_count(n).unwrap_or_else(|e| panic!("{e}"));
        kron_obs::counter!("graph.csr_sorted_part_arcs").add(targets.len() as u64);
        debug_assert_eq!(offsets.len(), n as usize + 1, "offsets must have n + 1 entries");
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&targets.len()));
        #[cfg(debug_assertions)]
        for v in 0..n as usize {
            debug_assert!(offsets[v] <= offsets[v + 1], "offsets not monotone at row {v}");
            let row = &targets[offsets[v]..offsets[v + 1]];
            for w in row.windows(2) {
                debug_assert!(w[0] < w[1], "row {v} not strictly increasing");
            }
            if let Some(&last) = row.last() {
                debug_assert!(u64::from(last) < n, "row {v} has out-of-range target {last}");
            }
        }
        CsrGraph { n, offsets, targets, cache: CsrCache::default() }
    }

    /// Row offsets (`n + 1` entries); `offsets[v]..offsets[v + 1]` indexes
    /// `v`'s neighbor slice within the target array.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated sorted neighbor rows (one entry per stored arc).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Number of vertices.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of stored arcs (adjacency nonzeros).
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbor slice of `v`; ids are `u32` (see
    /// [`CsrGraph::MAX_VERTICES`]).
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Out-degree (row sum) of `v`; includes a self loop once.
    pub fn degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u64
    }

    /// Degree vector for all vertices.
    pub fn degrees(&self) -> Vec<u64> {
        (0..self.n).map(|v| self.degree(v)).collect()
    }

    /// True when arc `(u, v)` is present (binary search).
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        u32::try_from(v).is_ok_and(|v| self.neighbors(u).binary_search(&v).is_ok())
    }

    /// True when `v` has a self loop.
    pub fn has_self_loop(&self, v: VertexId) -> bool {
        self.has_arc(v, v)
    }

    /// Scans row `v` for its diagonal entry without binary search; rows
    /// are sorted, so the scan stops at the first entry `≥ v`. One pass
    /// over the target array in total across all rows — cache-linear,
    /// unlike a per-vertex binary search.
    #[inline]
    fn row_has_loop(&self, v: usize) -> bool {
        let diag = v as u32;
        for &t in &self.targets[self.offsets[v]..self.offsets[v + 1]] {
            if t >= diag {
                return t == diag;
            }
        }
        false
    }

    /// Number of self loops in the graph.
    pub fn self_loop_count(&self) -> u64 {
        (0..self.n as usize).filter(|&v| self.row_has_loop(v)).count() as u64
    }

    /// True when every vertex has a self loop (`A ∘ I_A = I_A`).
    pub fn has_full_self_loops(&self) -> bool {
        (0..self.n as usize).all(|v| self.row_has_loop(v))
    }

    /// True when no self loop is present (`A ∘ I_A = O_A`).
    pub fn is_loop_free(&self) -> bool {
        (0..self.n as usize).all(|v| !self.row_has_loop(v))
    }

    /// Number of unordered edges; a self loop counts as one edge.
    pub fn undirected_edge_count(&self) -> u64 {
        let loops = self.self_loop_count();
        loops + (self.nnz() as u64 - loops) / 2
    }

    /// Checks symmetry; returns the first arc lacking a reverse on failure.
    pub fn check_undirected(&self) -> Result<()> {
        for u in 0..self.n {
            for &v in self.neighbors(u) {
                let v = u64::from(v);
                if !self.has_arc(v, u) {
                    return Err(GraphError::NotUndirected { missing_reverse: (u, v) });
                }
            }
        }
        Ok(())
    }

    /// True when the adjacency is symmetric.
    pub fn is_undirected(&self) -> bool {
        self.check_undirected().is_ok()
    }

    /// Iterates over all arcs in row-major order.
    pub fn arcs(&self) -> impl Iterator<Item = Arc> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, u64::from(v))))
    }

    /// Iterates over canonical unordered edges (`u <= v`).
    pub fn undirected_edges(&self) -> impl Iterator<Item = Arc> + '_ {
        self.arcs().filter(|&(u, v)| u <= v)
    }

    /// Converts back to an edge list.
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList::from_arcs(self.n, self.arcs().collect())
            .expect("CSR arcs are in range by construction")
    }

    /// Returns a copy with a self loop on every vertex (the paper's `A + I`).
    pub fn with_full_self_loops(&self) -> CsrGraph {
        let mut list = self.to_edge_list();
        list.add_full_self_loops();
        CsrGraph::from_edge_list(&list)
    }

    /// Returns a copy with all self loops removed.
    pub fn without_self_loops(&self) -> CsrGraph {
        let mut list = self.to_edge_list();
        list.remove_self_loops();
        CsrGraph::from_edge_list(&list)
    }

    /// Maximum degree, or 0 for an empty graph. Computed once and cached;
    /// the graph is immutable, so the value can never go stale.
    pub fn max_degree(&self) -> u64 {
        *self
            .cache
            .max_degree
            .get_or_init(|| (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0))
    }

    /// The degree-rank permutation: vertices sorted ascending by
    /// `(degree, id)`, so `order[r]` is the vertex holding rank `r`.
    ///
    /// This is the ordering the Chiba–Nishizeki triangle kernels orient
    /// edges by and the bitmap tier packs neighbor bitmaps in. Computed
    /// once per graph and cached — repeated kernel invocations (and the
    /// path-selection heuristic) stop paying the `O(n log n)` sort per
    /// call.
    pub fn degree_rank_order(&self) -> &[VertexId] {
        self.cache.degree_rank.get_or_init(|| {
            let mut order: Vec<VertexId> = (0..self.n).collect();
            order.sort_unstable_by_key(|&v| (self.degree(v), v));
            order
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_arcs(3, vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.nnz(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn dedup_on_build() {
        let g = CsrGraph::from_arcs(2, vec![(0, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn rows_sorted() {
        let g = CsrGraph::from_arcs(4, vec![(0, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn has_arc_queries() {
        let g = triangle();
        assert!(g.has_arc(0, 1));
        assert!(g.has_arc(2, 0));
        assert!(!g.has_arc(0, 0));
    }

    #[test]
    fn undirected_checks() {
        assert!(triangle().is_undirected());
        let d = CsrGraph::from_arcs(2, vec![(0, 1)]).unwrap();
        assert!(!d.is_undirected());
        assert!(matches!(
            d.check_undirected(),
            Err(GraphError::NotUndirected { missing_reverse: (0, 1) })
        ));
    }

    #[test]
    fn self_loop_accounting() {
        let g = CsrGraph::from_arcs(3, vec![(0, 0), (1, 1), (0, 1), (1, 0)]).unwrap();
        assert_eq!(g.self_loop_count(), 2);
        assert!(g.has_self_loop(0));
        assert!(!g.has_self_loop(2));
        assert!(!g.has_full_self_loops());
        assert!(!g.is_loop_free());
        assert_eq!(g.undirected_edge_count(), 3);
    }

    #[test]
    fn full_self_loops_roundtrip() {
        let g = triangle();
        let h = g.with_full_self_loops();
        assert!(h.has_full_self_loops());
        assert_eq!(h.nnz(), g.nnz() + 3);
        let back = h.without_self_loops();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = triangle();
        let list = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&list);
        assert_eq!(g, g2);
    }

    #[test]
    fn undirected_edges_canonical() {
        let g = triangle();
        let edges: Vec<Arc> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.undirected_edge_count(), 3);
    }

    #[test]
    fn from_sorted_parts_matches_edge_list_build() {
        let g = triangle();
        let rebuilt = CsrGraph::from_sorted_parts(
            g.n(),
            g.offsets().to_vec(),
            g.arcs().map(|(_, v)| v as u32).collect(),
        );
        assert_eq!(rebuilt, g);
        // Empty rows and an arc-free graph round-trip too.
        let sparse = CsrGraph::from_arcs(4, vec![(2, 0), (2, 3)]).unwrap();
        let rebuilt =
            CsrGraph::from_sorted_parts(4, sparse.offsets().to_vec(), vec![0, 3]);
        assert_eq!(rebuilt, sparse);
        let empty = CsrGraph::from_sorted_parts(0, vec![0], vec![]);
        assert_eq!(empty, CsrGraph::from_arcs(0, vec![]).unwrap());
    }

    #[test]
    fn loop_scans_match_binary_search() {
        // Mixed rows: loop first, loop mid-row, loop last, no loop.
        let arcs = vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1)];
        let g = CsrGraph::from_arcs(4, arcs).unwrap();
        for v in 0..4 {
            assert_eq!(g.row_has_loop(v as usize), g.has_self_loop(v), "vertex {v}");
        }
        assert_eq!(g.self_loop_count(), 3);
        assert!(!g.has_full_self_loops());
        assert!(!g.is_loop_free());
        assert!(g.with_full_self_loops().has_full_self_loops());
        assert!(g.without_self_loops().is_loop_free());
    }

    #[test]
    fn degree_rank_order_is_cached_and_stable() {
        let g = CsrGraph::from_arcs(
            4,
            vec![(0, 1), (1, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)],
        )
        .unwrap();
        // Degrees: [1, 3, 2, 2]; ties break by id.
        assert_eq!(g.degree_rank_order(), &[0, 2, 3, 1]);
        // Second call returns the same cached slice.
        let first = g.degree_rank_order().as_ptr();
        assert_eq!(g.degree_rank_order().as_ptr(), first);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.max_degree(), 3);
        // Clones compare equal regardless of cache warmth.
        let cold = g.clone();
        assert_eq!(cold, g);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_arcs(3, vec![]).unwrap();
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.degree(1), 0);
        assert!(g.is_undirected());
        assert!(g.is_loop_free());
        assert_eq!(g.max_degree(), 0);
    }
}
