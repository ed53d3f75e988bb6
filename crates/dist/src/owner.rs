//! Edge storage ownership (§III: "the processor responsible for its
//! storage as determined by some mapping scheme").
//!
//! The generator is deliberately independent of the storage mapping —
//! §III calls this modularity out — so ownership is a trait with two
//! implementations: contiguous vertex blocks (the classic distributed-CSR
//! layout) and a hash of the source vertex (HavoqGT-style, robust to skew).

use kron_graph::hash::mix64;
use kron_graph::VertexId;

/// Maps a generated arc to the rank that must store it.
pub trait EdgeOwner: Sync {
    /// Owner rank of arc `(p, q)`.
    fn owner(&self, p: VertexId, q: VertexId) -> usize;

    /// Number of ranks.
    fn ranks(&self) -> usize;

    /// True when every arc of a source vertex lands on one rank —
    /// the precondition of the row-push analytics (distributed BFS and
    /// triangle counting). Delegate ownership splits hub rows and
    /// returns false.
    fn source_complete(&self) -> bool {
        true
    }
}

/// Contiguous vertex-block ownership: vertex `p` lives on rank
/// `⌊p · R / n⌋`; an arc is stored by its source's owner.
#[derive(Debug, Clone)]
pub struct VertexBlockOwner {
    n: u64,
    ranks: usize,
}

impl VertexBlockOwner {
    /// Creates block ownership over `n` vertices and `ranks` ranks.
    pub fn new(n: u64, ranks: usize) -> Self {
        assert!(ranks > 0 && n > 0);
        VertexBlockOwner { n, ranks }
    }

    /// Owner of a single vertex.
    pub fn vertex_owner(&self, p: VertexId) -> usize {
        ((p as u128 * self.ranks as u128) / self.n as u128) as usize
    }

    /// The contiguous vertex (product-row) range owned by `rank`:
    /// `⌈r·n/R⌉ .. ⌈(r+1)·n/R⌉`, the inverse image of
    /// [`VertexBlockOwner::vertex_owner`]. Row-contiguity is what lets a
    /// rank's stored shard be synthesized directly from the factors.
    pub fn row_range(&self, rank: usize) -> std::ops::Range<u64> {
        assert!(rank < self.ranks, "rank out of range");
        let start = (rank as u128 * self.n as u128).div_ceil(self.ranks as u128) as u64;
        let end = ((rank as u128 + 1) * self.n as u128).div_ceil(self.ranks as u128) as u64;
        start..end
    }
}

impl EdgeOwner for VertexBlockOwner {
    fn owner(&self, p: VertexId, _q: VertexId) -> usize {
        self.vertex_owner(p)
    }

    fn ranks(&self) -> usize {
        self.ranks
    }
}

/// Hash ownership: rank `mix64(p) mod R` of the source vertex — spreads
/// high-degree vertices' rows... of *distinct sources* uniformly, at the
/// cost of losing locality.
///
/// **Balance bound:** with at least 500 distinct sources per rank, the
/// most loaded rank holds at most **1.25×** the mean source count, for
/// any seed and any `R ≤ 16` (enforced by `tests/owner_props.rs`; the
/// binomial tail at ≥500/rank is ~4σ below that line, so the bound is
/// conservative rather than tight).
#[derive(Debug, Clone)]
pub struct HashOwner {
    ranks: usize,
    seed: u64,
}

impl HashOwner {
    /// Creates hash ownership with a seed (affects placement only).
    pub fn new(ranks: usize, seed: u64) -> Self {
        assert!(ranks > 0);
        HashOwner { ranks, seed }
    }
}

impl EdgeOwner for HashOwner {
    fn owner(&self, p: VertexId, _q: VertexId) -> usize {
        (mix64(p ^ self.seed) % self.ranks as u64) as usize
    }

    fn ranks(&self) -> usize {
        self.ranks
    }
}

/// HavoqGT-style **delegate** ownership: low-degree vertices are owned
/// normally (hashed source), but the rows of high-degree *hub* vertices —
/// which a scale-free Kronecker product has plenty of — are spread across
/// all ranks by hashing the full edge, bounding per-rank storage for any
/// single hub by `d(hub)/R`.
///
/// Degrees come from the Kronecker ground truth itself
/// (`d_C(p) = d_A(i)·d_B(k)`), so the map needs only factor-sized state.
#[derive(Debug, Clone)]
pub struct DelegateOwner {
    d_a: Vec<u64>,
    d_b: Vec<u64>,
    n_b: u64,
    threshold: u64,
    ranks: usize,
    seed: u64,
}

impl DelegateOwner {
    /// Builds from factor degree vectors; vertices with
    /// `d_C(p) ≥ threshold` are delegated.
    pub fn new(d_a: Vec<u64>, d_b: Vec<u64>, threshold: u64, ranks: usize, seed: u64) -> Self {
        assert!(ranks > 0 && !d_b.is_empty());
        let n_b = d_b.len() as u64;
        DelegateOwner { d_a, d_b, n_b, threshold, ranks, seed }
    }

    /// True when `p`'s row is spread across ranks.
    pub fn is_delegated(&self, p: VertexId) -> bool {
        let d = self.d_a[(p / self.n_b) as usize] * self.d_b[(p % self.n_b) as usize];
        d >= self.threshold
    }
}

impl EdgeOwner for DelegateOwner {
    fn source_complete(&self) -> bool {
        false
    }

    fn owner(&self, p: VertexId, q: VertexId) -> usize {
        if self.is_delegated(p) {
            // Spread the hub's row: hash the full edge.
            (mix64(mix64(p ^ self.seed) ^ q) % self.ranks as u64) as usize
        } else {
            (mix64(p ^ self.seed) % self.ranks as u64) as usize
        }
    }

    fn ranks(&self) -> usize {
        self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_owner_is_monotone_and_in_range() {
        let o = VertexBlockOwner::new(100, 7);
        let mut prev = 0;
        for p in 0..100 {
            let r = o.vertex_owner(p);
            assert!(r < 7);
            assert!(r >= prev);
            prev = r;
        }
        assert_eq!(o.vertex_owner(0), 0);
        assert_eq!(o.vertex_owner(99), 6);
    }

    #[test]
    fn block_owner_balanced() {
        let o = VertexBlockOwner::new(1000, 8);
        let mut counts = [0usize; 8];
        for p in 0..1000 {
            counts[o.vertex_owner(p)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 125));
    }

    #[test]
    fn row_ranges_partition_and_invert_owner() {
        for (n, ranks) in [(100u64, 7usize), (1000, 8), (5, 9), (1, 1), (64, 64)] {
            let o = VertexBlockOwner::new(n, ranks);
            let mut covered = 0u64;
            for r in 0..ranks {
                let range = o.row_range(r);
                assert_eq!(range.start, covered, "n={n} ranks={ranks} rank={r}");
                for p in range.clone() {
                    assert_eq!(o.vertex_owner(p), r, "n={n} ranks={ranks} p={p}");
                }
                covered = range.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn block_owner_ignores_target() {
        let o = VertexBlockOwner::new(10, 2);
        assert_eq!(o.owner(3, 0), o.owner(3, 9));
    }

    #[test]
    fn hash_owner_in_range_and_roughly_uniform() {
        let o = HashOwner::new(4, 9);
        let mut counts = vec![0usize; 4];
        for p in 0..10_000u64 {
            let r = o.owner(p, 0);
            assert!(r < 4);
            counts[r] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 2500).unsigned_abs() < 300, "skewed: {counts:?}");
        }
    }

    #[test]
    fn hash_owner_deterministic_per_seed() {
        let a = HashOwner::new(5, 1);
        let b = HashOwner::new(5, 1);
        for p in 0..100 {
            assert_eq!(a.owner(p, 0), b.owner(p, 0));
        }
    }

    #[test]
    fn delegate_spreads_hub_rows() {
        // One hub of degree 100 (delegated), everything else degree 2.
        let d_a = vec![100, 2, 2, 2];
        let d_b = vec![1];
        let o = DelegateOwner::new(d_a, d_b, 50, 4, 7);
        assert!(o.is_delegated(0));
        assert!(!o.is_delegated(1));
        // Hub arcs land on many ranks; non-hub arcs all on one.
        let hub_ranks: std::collections::BTreeSet<usize> =
            (0..100u64).map(|q| o.owner(0, q)).collect();
        assert!(hub_ranks.len() >= 3, "hub spread over {hub_ranks:?}");
        let normal_ranks: std::collections::BTreeSet<usize> =
            (0..100u64).map(|q| o.owner(1, q)).collect();
        assert_eq!(normal_ranks.len(), 1);
    }

    #[test]
    fn delegate_uses_kronecker_degree_product() {
        // d_C(p) = d_a[i]·d_b[k]: vertex (1, 0) has 3·20 = 60 ≥ 50.
        let o = DelegateOwner::new(vec![2, 3], vec![20, 1], 50, 2, 0);
        assert!(o.is_delegated(2)); // (1,0): 3·20
        assert!(!o.is_delegated(3)); // (1,1): 3·1
        assert!(!o.is_delegated(0)); // (0,0): 2·20 = 40 < 50
    }

    #[test]
    fn single_rank_owns_everything() {
        let o = HashOwner::new(1, 0);
        assert_eq!(o.owner(123, 456), 0);
        let b = VertexBlockOwner::new(50, 1);
        assert_eq!(b.owner(49, 0), 0);
    }
}
