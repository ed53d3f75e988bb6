//! Connected components via breadth-first search.

use std::collections::VecDeque;

use crate::{CsrGraph, VertexId};

/// Component labeling: `labels[v]` is the 0-based component id of `v`,
/// assigned in order of discovery; `count` is the number of components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Per-vertex component id.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub count: u32,
}

impl Components {
    /// Sizes of each component, indexed by component id.
    pub fn sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.count as usize];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Id of the largest component (ties broken by lowest id).
    pub fn largest(&self) -> Option<u32> {
        let sizes = self.sizes();
        (0..self.count).max_by_key(|&c| (sizes[c as usize], std::cmp::Reverse(c)))
    }

    /// Vertices belonging to component `c`.
    pub fn members(&self, c: u32) -> Vec<VertexId> {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == c)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// Labels the connected components of an undirected graph.
///
/// Treats arcs as undirected (follows out-neighbors only, which is complete
/// for symmetric graphs; callers with directed input should symmetrize
/// first).
pub fn connected_components(g: &CsrGraph) -> Components {
    const UNSEEN: u32 = u32::MAX;
    let n = g.n() as usize;
    let mut labels = vec![UNSEEN; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != UNSEEN {
            continue;
        }
        let comp = count;
        count += 1;
        labels[start] = comp;
        queue.push_back(start as u32);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u64::from(u)) {
                if labels[v as usize] == UNSEEN {
                    labels[v as usize] = comp;
                    queue.push_back(v);
                }
            }
        }
    }
    Components { labels, count }
}

/// True when the graph has at most one connected component.
pub fn is_connected(g: &CsrGraph) -> bool {
    g.n() <= 1 || connected_components(g).count == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component() {
        let g = CsrGraph::from_arcs(3, vec![(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert_eq!(c.labels, vec![0, 0, 0]);
        assert!(is_connected(&g));
    }

    #[test]
    fn two_components_and_isolated() {
        let g = CsrGraph::from_arcs(5, vec![(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.sizes(), vec![2, 2, 1]);
        assert_eq!(c.members(2), vec![4]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn largest_prefers_big_then_low_id() {
        let g = CsrGraph::from_arcs(
            6,
            vec![(0, 1), (1, 0), (2, 3), (3, 2), (3, 4), (4, 3)],
        )
        .unwrap();
        let c = connected_components(&g);
        assert_eq!(c.largest(), Some(1)); // {2,3,4}
        let g2 = CsrGraph::from_arcs(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]).unwrap();
        assert_eq!(connected_components(&g2).largest(), Some(0)); // tie → low id
    }

    #[test]
    fn empty_and_singleton() {
        let empty = CsrGraph::from_arcs(0, vec![]).unwrap();
        assert_eq!(connected_components(&empty).count, 0);
        assert!(is_connected(&empty));
        let single = CsrGraph::from_arcs(1, vec![(0, 0)]).unwrap();
        let c = connected_components(&single);
        assert_eq!(c.count, 1);
        assert!(is_connected(&single));
    }
}
