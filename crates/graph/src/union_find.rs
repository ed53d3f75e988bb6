//! Disjoint-set forest (union–find) and an alternative connected-
//! components implementation.
//!
//! The BFS labeling in [`crate::connectivity`] is the primary path; this
//! union–find version exists as an independently-implemented cross-check
//! (the two are compared in tests and in the property suite).

use crate::CsrGraph;

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
    sets: usize,
}

impl DisjointSets {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        DisjointSets {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true when they were
    /// previously disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Dense component labels in `0..set_count()`, assigned in order of
    /// first appearance (matching the BFS labeling convention).
    pub fn labels(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut map = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut labels = Vec::with_capacity(n);
        for x in 0..n as u32 {
            let root = self.find(x) as usize;
            if map[root] == u32::MAX {
                map[root] = next;
                next += 1;
            }
            labels.push(map[root]);
        }
        labels
    }
}

/// Connected components via union–find; label semantics identical to
/// [`crate::connectivity::connected_components`].
pub fn connected_components_uf(g: &CsrGraph) -> crate::connectivity::Components {
    let mut sets = DisjointSets::new(g.n() as usize);
    for (u, v) in g.arcs() {
        sets.union(u as u32, v as u32);
    }
    let labels = sets.labels();
    crate::connectivity::Components { labels, count: sets.set_count() as u32 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::connected_components;
    use crate::generators::{barabasi_albert, clique, disjoint_cliques, erdos_renyi};

    #[test]
    fn singleton_sets() {
        let mut s = DisjointSets::new(4);
        assert_eq!(s.set_count(), 4);
        assert_ne!(s.find(0), s.find(1));
        assert_eq!(s.labels(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut s = DisjointSets::new(5);
        assert!(s.union(0, 1));
        assert!(s.union(1, 2));
        assert!(!s.union(0, 2), "already merged");
        assert_eq!(s.set_count(), 3);
        assert_eq!(s.find(0), s.find(2));
        assert_ne!(s.find(0), s.find(3));
    }

    #[test]
    fn labels_first_appearance_order() {
        let mut s = DisjointSets::new(5);
        s.union(3, 4);
        s.union(1, 2);
        // Components by first appearance: {0}, {1,2}, {3,4}.
        assert_eq!(s.labels(), vec![0, 1, 1, 2, 2]);
    }

    #[test]
    fn matches_bfs_on_structured_graphs() {
        for g in [
            disjoint_cliques(4, 3),
            clique(7),
            barabasi_albert(60, 2, 3),
            CsrGraph::from_arcs(5, vec![]).unwrap(),
        ] {
            assert_eq!(connected_components_uf(&g), connected_components(&g), "{g:?}");
        }
    }

    #[test]
    fn matches_bfs_on_random_graphs() {
        for seed in 0..10 {
            let g = erdos_renyi(40, 0.03, seed);
            let bfs = connected_components(&g);
            let uf = connected_components_uf(&g);
            assert_eq!(uf, bfs, "seed {seed}");
        }
    }

    use crate::CsrGraph;

    #[test]
    fn empty_structure() {
        let s = DisjointSets::new(0);
        assert!(s.is_empty());
        assert_eq!(s.set_count(), 0);
    }
}
