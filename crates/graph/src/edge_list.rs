//! Mutable arc-list graph representation.
//!
//! [`EdgeList`] is the construction-time representation: an unsorted bag of
//! directed arcs plus a vertex count. It is what the distributed generator
//! produces and what the file readers parse; analytics convert it to
//! [`crate::CsrGraph`].

use crate::{Arc, GraphError, Result, VertexId};

/// A graph stored as a vertex count and a list of directed arcs.
///
/// Undirected graphs store both arcs of every edge. The list may transiently
/// contain duplicates; [`EdgeList::sort_dedup`] canonicalizes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeList {
    n: u64,
    arcs: Vec<Arc>,
}

impl EdgeList {
    /// Creates an empty graph with `n` vertices.
    pub fn new(n: u64) -> Self {
        EdgeList { n, arcs: Vec::new() }
    }

    /// Creates a graph from a prebuilt arc vector, validating vertex ranges.
    pub fn from_arcs(n: u64, arcs: Vec<Arc>) -> Result<Self> {
        for &(u, v) in &arcs {
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
        }
        Ok(EdgeList { n, arcs })
    }

    /// Number of vertices.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of stored arcs (adjacency-matrix nonzeros).
    pub fn nnz(&self) -> usize {
        self.arcs.len()
    }

    /// True when no arcs are stored.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Borrow the raw arc slice.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Consumes the list and returns the raw arcs.
    pub fn into_arcs(self) -> Vec<Arc> {
        self.arcs
    }

    /// Adds a single directed arc.
    pub fn add_arc(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n: self.n });
        }
        self.arcs.push((u, v));
        Ok(())
    }

    /// Adds an undirected edge: both arcs when `u != v`, one arc when `u == v`.
    pub fn add_undirected(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        self.add_arc(u, v)?;
        if u != v {
            self.add_arc(v, u)?;
        }
        Ok(())
    }

    /// Number of self-loop arcs.
    pub fn self_loop_count(&self) -> usize {
        self.arcs.iter().filter(|&&(u, v)| u == v).count()
    }

    /// Number of unordered edges; a self loop counts as one edge.
    ///
    /// Assumes the list is symmetric and deduplicated (use
    /// [`EdgeList::sort_dedup`] first when in doubt).
    pub fn undirected_edge_count(&self) -> u64 {
        let loops = self.self_loop_count() as u64;
        loops + (self.nnz() as u64 - loops) / 2
    }

    /// Sorts arcs lexicographically and removes duplicates.
    pub fn sort_dedup(&mut self) {
        self.arcs.sort_unstable();
        self.arcs.dedup();
    }

    /// Adds the reverse of every arc so the graph becomes symmetric, then
    /// deduplicates.
    pub fn symmetrize(&mut self) {
        let rev: Vec<Arc> = self
            .arcs
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (v, u))
            .collect();
        self.arcs.extend(rev);
        self.sort_dedup();
    }

    /// True when every arc `(u,v)` has its reverse `(v,u)` present.
    pub fn is_symmetric(&self) -> bool {
        let mut sorted = self.arcs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted
            .iter()
            .all(|&(u, v)| u == v || sorted.binary_search(&(v, u)).is_ok())
    }

    /// Removes all self-loop arcs.
    pub fn remove_self_loops(&mut self) {
        self.arcs.retain(|&(u, v)| u != v);
    }

    /// Adds a self loop on **every** vertex (the paper's `A + I_A`), then
    /// deduplicates so pre-existing loops are not doubled.
    pub fn add_full_self_loops(&mut self) {
        self.arcs.extend((0..self.n).map(|v| (v, v)));
        self.sort_dedup();
    }

    /// Returns an error if any self loop is present.
    pub fn require_loop_free(&self) -> Result<()> {
        match self.arcs.iter().find(|&&(u, v)| u == v) {
            Some(&(u, _)) => Err(GraphError::HasSelfLoop { vertex: u }),
            None => Ok(()),
        }
    }

    /// Iterates over canonical unordered edges: each `{u,v}` once with
    /// `u <= v`. Requires a symmetric, deduplicated list.
    pub fn undirected_edges(&self) -> impl Iterator<Item = Arc> + '_ {
        self.arcs.iter().copied().filter(|&(u, v)| u <= v)
    }

    /// Relabels vertices through `map` (`map[old] = Some(new)`); arcs with an
    /// unmapped endpoint are dropped. `new_n` is the new vertex count.
    pub fn relabel(&self, map: &[Option<VertexId>], new_n: u64) -> Result<Self> {
        let mut out = EdgeList::new(new_n);
        for &(u, v) in &self.arcs {
            if let (Some(nu), Some(nv)) = (map[u as usize], map[v as usize]) {
                out.add_arc(nu, nv)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let g = EdgeList::new(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.nnz(), 0);
        assert!(g.is_empty());
        assert_eq!(g.undirected_edge_count(), 0);
    }

    #[test]
    fn add_undirected_stores_both_arcs() {
        let mut g = EdgeList::new(3);
        g.add_undirected(0, 1).unwrap();
        assert_eq!(g.nnz(), 2);
        assert!(g.arcs().contains(&(0, 1)));
        assert!(g.arcs().contains(&(1, 0)));
    }

    #[test]
    fn add_undirected_self_loop_single_arc() {
        let mut g = EdgeList::new(3);
        g.add_undirected(2, 2).unwrap();
        assert_eq!(g.nnz(), 1);
        assert_eq!(g.self_loop_count(), 1);
        assert_eq!(g.undirected_edge_count(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = EdgeList::new(2);
        assert!(matches!(
            g.add_arc(0, 2),
            Err(GraphError::VertexOutOfRange { vertex: 2, n: 2 })
        ));
        assert!(matches!(
            g.add_arc(5, 0),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 2 })
        ));
    }

    #[test]
    fn from_arcs_validates() {
        assert!(EdgeList::from_arcs(2, vec![(0, 1), (1, 0)]).is_ok());
        assert!(EdgeList::from_arcs(2, vec![(0, 3)]).is_err());
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let mut g = EdgeList::from_arcs(3, vec![(1, 0), (0, 1), (1, 0), (2, 2)]).unwrap();
        g.sort_dedup();
        assert_eq!(g.arcs(), &[(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn symmetrize_adds_reverses() {
        let mut g = EdgeList::from_arcs(3, vec![(0, 1), (1, 2), (2, 2)]).unwrap();
        assert!(!g.is_symmetric());
        g.symmetrize();
        assert!(g.is_symmetric());
        assert_eq!(g.arcs(), &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn undirected_edge_count_with_loops() {
        let mut g = EdgeList::new(4);
        g.add_undirected(0, 1).unwrap();
        g.add_undirected(1, 2).unwrap();
        g.add_undirected(3, 3).unwrap();
        g.sort_dedup();
        assert_eq!(g.undirected_edge_count(), 3);
        assert_eq!(g.nnz(), 5);
    }

    #[test]
    fn add_full_self_loops_idempotent() {
        let mut g = EdgeList::from_arcs(3, vec![(0, 0), (0, 1), (1, 0)]).unwrap();
        g.add_full_self_loops();
        assert_eq!(g.self_loop_count(), 3);
        let before = g.clone();
        g.add_full_self_loops();
        assert_eq!(g, before);
    }

    #[test]
    fn remove_self_loops_then_loop_free() {
        let mut g = EdgeList::from_arcs(3, vec![(0, 0), (0, 1), (1, 0), (2, 2)]).unwrap();
        assert!(g.require_loop_free().is_err());
        g.remove_self_loops();
        assert!(g.require_loop_free().is_ok());
        assert_eq!(g.nnz(), 2);
    }

    #[test]
    fn undirected_edges_canonical() {
        let g = EdgeList::from_arcs(3, vec![(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]).unwrap();
        let edges: Vec<Arc> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 1), (1, 2)]);
    }

    #[test]
    fn relabel_drops_unmapped() {
        let g = EdgeList::from_arcs(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let map = vec![Some(0), Some(1), None, None];
        let h = g.relabel(&map, 2).unwrap();
        assert_eq!(h.n(), 2);
        assert_eq!(h.arcs(), &[(0, 1), (1, 0)]);
    }
}
