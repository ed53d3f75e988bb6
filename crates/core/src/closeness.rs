//! Ground-truth closeness centrality (Thm. 4).
//!
//! ```text
//! ζ_C(p) = Σ_{j ∈ V_A} Σ_{l ∈ V_B} 1 / max( hops_A(i,j), hops_B(k,l) )
//! ```
//!
//! [`closeness_naive`] evaluates the double sum in `O(n_A · n_B)` per
//! vertex. [`closeness_fast`] is the paper's factored evaluation: group
//! the two hop rows by hop value, then
//!
//! ```text
//! ζ_C(p) = Σ_{h=1}^{h*} |{ q : hops_C(p,q) = h }| / h
//!        = Σ_{h=1}^{h*} [ cumA(h)·cumB(h) − cumA(h−1)·cumB(h−1) ] / h
//! ```
//!
//! which costs `O(n_A + n_B + h*)` per vertex after the BFS preprocessing —
//! the paper reports `O(r n_A log n_A + r² h*)` for `r` vertices using a
//! sort; bucketing by hop value removes the log factor.

use kron_analytics::distance::UNREACHABLE;
use kron_graph::{Arena, VertexId};

use crate::distance::DistanceOracle;

/// Naive `O(n_A · n_B)` evaluation of Thm. 4.
pub fn closeness_naive(oracle: &DistanceOracle<'_>, p: VertexId) -> crate::Result<f64> {
    oracle.pair().check_vertex(p)?;
    let (i, k) = oracle.pair().split(p);
    let row_a = oracle.hops_a_row(i);
    let row_b = oracle.hops_b_row(k);
    let mut sum = 0.0;
    for &ha in row_a {
        if ha == UNREACHABLE {
            continue;
        }
        for &hb in row_b {
            if hb == UNREACHABLE {
                continue;
            }
            sum += 1.0 / ha.max(hb) as f64;
        }
    }
    Ok(sum)
}

/// Histogram-factored evaluation: `O(n_A + n_B + h*)` per vertex.
pub fn closeness_fast(oracle: &DistanceOracle<'_>, p: VertexId) -> crate::Result<f64> {
    oracle.pair().check_vertex(p)?;
    let (i, k) = oracle.pair().split(p);
    let cum_a = cumulative_hop_counts(oracle.hops_a_row(i));
    let cum_b = cumulative_hop_counts(oracle.hops_b_row(k));
    Ok(closeness_from_cumulative(&cum_a, &cum_b))
}

/// Bucket a hop row into cumulative counts: `out[h]` = number of vertices
/// at hop distance `≤ h` (unreachable entries dropped). `out[0]` is always 0
/// under Def. 9 (hop counts start at 1).
pub fn cumulative_hop_counts(row: &[u32]) -> Vec<u64> {
    let max_h = row
        .iter()
        .copied()
        .filter(|&h| h != UNREACHABLE)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0u64; max_h as usize + 1];
    for &h in row {
        if h != UNREACHABLE {
            counts[h as usize] += 1;
        }
    }
    for h in 1..counts.len() {
        counts[h] += counts[h - 1];
    }
    counts
}

/// Combines two cumulative hop-count tables into `ζ_C(p)`.
pub fn closeness_from_cumulative(cum_a: &[u64], cum_b: &[u64]) -> f64 {
    let h_star = cum_a.len().max(cum_b.len()) - 1;
    let at = |cum: &[u64], h: usize| -> u64 {
        if cum.is_empty() {
            0
        } else {
            cum[h.min(cum.len() - 1)]
        }
    };
    let mut sum = 0.0;
    let mut prev = 0u64;
    for h in 1..=h_star {
        let cur = at(cum_a, h) * at(cum_b, h);
        sum += (cur - prev) as f64 / h as f64;
        prev = cur;
    }
    sum
}

/// Above this many distinct table-class pairs the batch memo falls back
/// from the dense arena grid (8 bytes per cell) to a sparse map.
const GRID_CAP: usize = 1 << 20;

/// Closeness for a batch of `r` sample vertices, fast path.
///
/// Class-collapsed: the oracle already deduplicated every factor hop row
/// into a cumulative table class ([`DistanceOracle::table_class_a`]), so
/// each sample vertex is two table lookups, and
/// [`closeness_from_cumulative`] runs **once per distinct class pair** in
/// the batch. Every other vertex of the pair receives the same computed
/// `f64`, which makes the collapsed batch bit-identical to mapping
/// [`closeness_fast`] over the batch — the deduplicated tables are
/// value-equal to the per-vertex ones, and the combining arithmetic is
/// the same pure function. Cost drops from `O(r (n_A + n_B + h*))` to
/// `O(pairs · h* + r)`; the pair memo is a dense `f64`-bits grid drawn
/// from the process [`Arena`] (with a seen-bitmap, so a computed 0.0 is
/// distinguishable from an empty cell), falling back to a sparse map
/// only past [`GRID_CAP`] cells.
pub fn closeness_batch(
    oracle: &DistanceOracle<'_>,
    vertices: &[VertexId],
) -> crate::Result<Vec<f64>> {
    let _span = kron_obs::span::enter("core/closeness_batch");
    kron_obs::counter!("core.closeness_sources").add(vertices.len() as u64);
    let pair = oracle.pair();
    let tables_a = oracle.closeness_tables_a();
    let tables_b = oracle.closeness_tables_b();
    let cells = tables_a.len() * tables_b.len();
    let mut out = Vec::with_capacity(vertices.len());
    if cells <= GRID_CAP {
        let arena = Arena::global();
        let mut grid = arena.take_words(cells);
        let mut seen = arena.take_words(cells.div_ceil(64));
        let mut combined = 0u64;
        for &p in vertices {
            pair.check_vertex(p)?;
            let (i, k) = pair.split(p);
            let xa = oracle.table_class_a(i) as usize;
            let xb = oracle.table_class_b(k) as usize;
            let cell = xa * tables_b.len() + xb;
            if seen[cell >> 6] & (1 << (cell & 63)) == 0 {
                seen[cell >> 6] |= 1 << (cell & 63);
                combined += 1;
                grid[cell] =
                    closeness_from_cumulative(&tables_a[xa], &tables_b[xb]).to_bits();
            }
            out.push(f64::from_bits(grid[cell]));
        }
        kron_obs::counter!("core.closeness_pairs_combined").add(combined);
    } else {
        let mut memo: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        for &p in vertices {
            pair.check_vertex(p)?;
            let (i, k) = pair.split(p);
            let (xa, xb) = (oracle.table_class_a(i), oracle.table_class_b(k));
            let value = *memo.entry((xa, xb)).or_insert_with(|| {
                closeness_from_cumulative(&tables_a[xa as usize], &tables_b[xb as usize])
            });
            out.push(value);
        }
        kron_obs::counter!("core.closeness_pairs_combined").add(memo.len() as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::materialize;
    use crate::pair::{KroneckerPair, SelfLoopMode};
    use kron_analytics::distance as direct;
    use kron_graph::generators::{barabasi_albert, clique, cycle, path, star};
    use kron_graph::CsrGraph;

    fn full_pair(a: CsrGraph, b: CsrGraph) -> KroneckerPair {
        KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap()
    }

    #[test]
    fn naive_matches_direct_bfs() {
        let pair = full_pair(path(4), cycle(5));
        let oracle = DistanceOracle::new(&pair).unwrap();
        let c = materialize(&pair);
        for p in 0..pair.n_c() {
            let want = direct::closeness(&c, p);
            let got = closeness_naive(&oracle, p).unwrap();
            assert!((got - want).abs() < 1e-9, "p={p}: {got} vs {want}");
        }
    }

    #[test]
    fn fast_matches_naive() {
        let pair = full_pair(barabasi_albert(15, 2, 3), star(6));
        let oracle = DistanceOracle::new(&pair).unwrap();
        for p in 0..pair.n_c() {
            let naive = closeness_naive(&oracle, p).unwrap();
            let fast = closeness_fast(&oracle, p).unwrap();
            assert!((naive - fast).abs() < 1e-9, "p={p}: {naive} vs {fast}");
        }
    }

    #[test]
    fn clique_product_closeness() {
        // (K3+I) ⊗ (K3+I): every vertex reaches all 9 at hop 1 → ζ = 9.
        let pair = full_pair(clique(3), clique(3));
        let oracle = DistanceOracle::new(&pair).unwrap();
        for p in 0..9 {
            assert!((closeness_fast(&oracle, p).unwrap() - 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unreachable_pairs_excluded() {
        let disconnected = CsrGraph::from_arcs(3, vec![(0, 1), (1, 0)]).unwrap();
        let pair = full_pair(disconnected, clique(2));
        let oracle = DistanceOracle::new(&pair).unwrap();
        let p = pair.join(0, 0);
        let naive = closeness_naive(&oracle, p).unwrap();
        let fast = closeness_fast(&oracle, p).unwrap();
        assert!((naive - fast).abs() < 1e-12);
        // Reachable product vertices: (j,l) with j ∈ {0,1} → 4 vertices at
        // hop ≤ 2: self (1), (0,1) hop 1, (1,0) hop 1, (1,1) hop 1 → ζ = 4.
        assert!((naive - 4.0).abs() < 1e-12, "got {naive}");
    }

    #[test]
    fn cumulative_hop_counts_shape() {
        let cum = cumulative_hop_counts(&[1, 1, 2, 3, UNREACHABLE]);
        assert_eq!(cum, vec![0, 2, 3, 4]);
        assert_eq!(cumulative_hop_counts(&[UNREACHABLE]), vec![0]);
        assert_eq!(cumulative_hop_counts(&[]), vec![0]);
    }

    #[test]
    fn batch_matches_single() {
        let pair = full_pair(cycle(5), path(4));
        let oracle = DistanceOracle::new(&pair).unwrap();
        let vertices: Vec<u64> = vec![0, 3, 7, 19];
        let batch = closeness_batch(&oracle, &vertices).unwrap();
        for (idx, &p) in vertices.iter().enumerate() {
            assert_eq!(batch[idx], closeness_fast(&oracle, p).unwrap());
        }
    }

    #[test]
    fn collapsed_batch_bit_identical_to_per_vertex() {
        // Mixed symmetric (cycle: one hop profile) and skewed factors,
        // with duplicate sample vertices to exercise the pair memo.
        let pair = full_pair(barabasi_albert(14, 2, 5), cycle(7));
        let oracle = DistanceOracle::new(&pair).unwrap();
        let mut vertices: Vec<u64> = (0..pair.n_c()).collect();
        vertices.extend([0, 0, 13, pair.n_c() - 1]);
        let batch = closeness_batch(&oracle, &vertices).unwrap();
        for (idx, &p) in vertices.iter().enumerate() {
            let single = closeness_fast(&oracle, p).unwrap();
            assert!(
                batch[idx].to_bits() == single.to_bits(),
                "p={p}: {} vs {}",
                batch[idx],
                single
            );
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let pair = full_pair(path(2), path(2));
        let oracle = DistanceOracle::new(&pair).unwrap();
        assert!(closeness_fast(&oracle, 99).is_err());
        assert!(closeness_naive(&oracle, 99).is_err());
        assert!(closeness_batch(&oracle, &[0, 99]).is_err());
    }
}
