//! Structural graph operations: induced subgraphs, largest connected
//! component extraction (with relabeling), disjoint copies.

use crate::connectivity::connected_components;
use crate::edge_list::EdgeList;
use crate::{CsrGraph, Result, VertexId};

/// The result of extracting a vertex-induced subgraph: the subgraph plus the
/// mapping from new ids back to original ids.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The relabeled subgraph (vertices `0..keep.len()`).
    pub graph: CsrGraph,
    /// `original_of[new_id] = old_id`.
    pub original_of: Vec<VertexId>,
}

/// Extracts the subgraph induced by `keep` (need not be sorted; duplicates
/// ignored), relabeling vertices to `0..k` in ascending original-id order.
pub fn induced_subgraph(g: &CsrGraph, keep: &[VertexId]) -> Result<InducedSubgraph> {
    let mut sorted: Vec<VertexId> = keep.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut map: Vec<Option<VertexId>> = vec![None; g.n() as usize];
    for (new_id, &old) in sorted.iter().enumerate() {
        map[old as usize] = Some(new_id as VertexId);
    }
    let list = g.to_edge_list().relabel(&map, sorted.len() as u64)?;
    Ok(InducedSubgraph { graph: CsrGraph::from_edge_list(&list), original_of: sorted })
}

/// Extracts the largest connected component as a relabeled graph.
pub fn largest_connected_component(g: &CsrGraph) -> Result<InducedSubgraph> {
    let comps = connected_components(g);
    match comps.largest() {
        Some(c) => induced_subgraph(g, &comps.members(c)),
        None => Ok(InducedSubgraph {
            graph: CsrGraph::from_arcs(0, vec![])?,
            original_of: vec![],
        }),
    }
}

/// Disjoint union of `k` copies of `g`.
pub fn disjoint_copies(g: &CsrGraph, k: u64) -> CsrGraph {
    let n = g.n();
    let mut list = EdgeList::new(n * k);
    for copy in 0..k {
        let shift = copy * n;
        for (u, v) in g.arcs() {
            list.add_arc(u + shift, v + shift).expect("arcs in range");
        }
    }
    CsrGraph::from_edge_list(&list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::clique;

    #[test]
    fn induced_subgraph_relabels() {
        // Path 0-1-2-3; keep {1,3} → no edges; keep {1,2} → one edge.
        let g = CsrGraph::from_arcs(
            4,
            vec![(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
        )
        .unwrap();
        let sub = induced_subgraph(&g, &[3, 1]).unwrap();
        assert_eq!(sub.graph.n(), 2);
        assert_eq!(sub.graph.nnz(), 0);
        assert_eq!(sub.original_of, vec![1, 3]);

        let sub2 = induced_subgraph(&g, &[1, 2, 2]).unwrap();
        assert_eq!(sub2.graph.nnz(), 2);
        assert!(sub2.graph.has_arc(0, 1));
    }

    #[test]
    fn lcc_extracts_biggest() {
        // K3 plus an isolated edge.
        let mut arcs = clique(3).to_edge_list().into_arcs();
        arcs.extend([(3, 4), (4, 3)]);
        let g = CsrGraph::from_arcs(5, arcs).unwrap();
        let lcc = largest_connected_component(&g).unwrap();
        assert_eq!(lcc.graph.n(), 3);
        assert_eq!(lcc.graph.undirected_edge_count(), 3);
        assert_eq!(lcc.original_of, vec![0, 1, 2]);
    }

    #[test]
    fn lcc_of_empty_graph() {
        let g = CsrGraph::from_arcs(0, vec![]).unwrap();
        let lcc = largest_connected_component(&g).unwrap();
        assert_eq!(lcc.graph.n(), 0);
    }

    #[test]
    fn disjoint_copies_counts() {
        let g = clique(3);
        let u = disjoint_copies(&g, 4);
        assert_eq!(u.n(), 12);
        assert_eq!(u.undirected_edge_count(), 12);
        use crate::connectivity::connected_components;
        assert_eq!(connected_components(&u).count, 4);
    }
}
