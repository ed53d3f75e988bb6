//! Generation of the product graph's edges.
//!
//! The edge set of `C = A ⊗ B` is exactly the cross product of the factor
//! arc sets: for arcs `(i, j) ∈ A` and `(k, l) ∈ B`,
//! `(γ(i,k), γ(j,l)) ∈ C` (Def. 1 on 0/1 adjacencies). [`ArcIter`] streams
//! these pairs lazily off the factor CSR structures without allocating;
//! [`materialize`] builds an explicit [`CsrGraph`] for validation at small
//! scale via **direct CSR synthesis**: the product row `p = (i, k)` has
//! exactly `d_A(i)·d_B(k)` targets, so the offset array is the analytic
//! prefix sum of `d_A ⊗ d_B`, and emitting targets `j·n_B + l` with `j`
//! outer / `l` inner writes each row already sorted — no intermediate arc
//! `Vec` and no counting sort. The arc stream ([`arcs`] → [`EdgeList`] →
//! [`CsrGraph::from_edge_list`]) shares no code with synthesis, which
//! makes it the reference the equivalence suites check bit-identity
//! against. The distributed version of this loop lives in `kron-dist`.
//!
//! [`EdgeList`]: kron_graph::EdgeList

use kron_graph::{Arc, CsrGraph};

use crate::pair::KroneckerPair;

/// A lazy cursor over the arcs of a CSR graph in row-major order:
/// `(row, index-within-row)`, skipping empty rows.
#[derive(Clone, Copy)]
struct CsrCursor {
    row: u64,
    idx: usize,
}

impl CsrCursor {
    /// Positions at the first arc (or `row == g.n()` when arc-free).
    fn start(g: &CsrGraph) -> Self {
        let mut row = 0u64;
        while row < g.n() && g.degree(row) == 0 {
            row += 1;
        }
        CsrCursor { row, idx: 0 }
    }

    /// The arc under the cursor; callers guarantee one remains.
    #[inline]
    fn current(&self, g: &CsrGraph) -> Arc {
        (self.row, u64::from(g.neighbors(self.row)[self.idx]))
    }

    /// Moves to the next arc; returns `false` when the graph is exhausted.
    #[inline]
    fn advance(&mut self, g: &CsrGraph) -> bool {
        self.idx += 1;
        if self.idx < g.neighbors(self.row).len() {
            return true;
        }
        self.idx = 0;
        self.row += 1;
        while self.row < g.n() && g.degree(self.row) == 0 {
            self.row += 1;
        }
        self.row < g.n()
    }
}

/// Streaming iterator over the arcs of `C` in factor-major order.
///
/// Walks the factor CSR structures directly — `O(1)` state, no per-factor
/// arc vectors — and its [`Iterator::size_hint`] is computed in `u128` so
/// the `nnz_A · nnz_B` product cannot overflow `usize` silently.
pub struct ArcIter<'a> {
    pair: &'a KroneckerPair,
    a: CsrCursor,
    b: CsrCursor,
    remaining: u128,
}

impl<'a> ArcIter<'a> {
    fn new(pair: &'a KroneckerPair) -> Self {
        ArcIter {
            pair,
            a: CsrCursor::start(pair.a()),
            b: CsrCursor::start(pair.b()),
            remaining: pair.nnz_c(),
        }
    }
}

impl Iterator for ArcIter<'_> {
    type Item = Arc;

    fn next(&mut self) -> Option<Arc> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (i, j) = self.a.current(self.pair.a());
        let (k, l) = self.b.current(self.pair.b());
        if !self.b.advance(self.pair.b()) {
            // Inner factor exhausted: rewind it and step the outer factor.
            self.b = CsrCursor::start(self.pair.b());
            self.a.advance(self.pair.a());
        }
        Some((self.pair.join(i, k), self.pair.join(j, l)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Exact while the count fits a usize; a product larger than that
        // cannot be collected anyway, so the upper bound becomes unknown
        // rather than silently wrapped.
        if self.remaining <= usize::MAX as u128 {
            (self.remaining as usize, Some(self.remaining as usize))
        } else {
            (usize::MAX, None)
        }
    }
}

impl ExactSizeIterator for ArcIter<'_> {}

/// Streams every arc of `C`.
pub fn arcs(pair: &KroneckerPair) -> ArcIter<'_> {
    ArcIter::new(pair)
}

/// Calls `visit(p, q)` for every arc of `C` without collecting factor arcs
/// (the zero-allocation inner loop used by throughput benchmarks).
pub fn for_each_arc<F: FnMut(u64, u64)>(pair: &KroneckerPair, mut visit: F) {
    let a = pair.a();
    let b = pair.b();
    let nb = b.n();
    for i in 0..a.n() {
        for &j in a.neighbors(i) {
            // `KroneckerPair::new` checked n_A·n_B ≤ u64::MAX, so these
            // cannot wrap; checked_mul keeps that contract explicit.
            let row_base = i.checked_mul(nb).expect("product index fits u64");
            let col_base = u64::from(j).checked_mul(nb).expect("product index fits u64");
            for k in 0..b.n() {
                for &l in b.neighbors(k) {
                    visit(row_base + k, col_base + u64::from(l));
                }
            }
        }
    }
}

/// Analytic product row offsets: `offsets[p + 1] − offsets[p] = d_A(i)·d_B(k)`
/// for `p = (i, k)`, i.e. the prefix sum of `d_A ⊗ d_B`. No arc is touched.
fn product_offsets(pair: &KroneckerPair) -> Vec<usize> {
    let a = pair.a();
    let b = pair.b();
    let d_b: Vec<usize> = (0..b.n()).map(|k| b.degree(k) as usize).collect();
    let mut offsets = vec![0usize; pair.n_c() as usize + 1];
    let mut cursor = 0usize;
    let mut p = 0usize;
    for i in 0..a.n() {
        let da = a.degree(i) as usize;
        for &db in &d_b {
            cursor += da * db;
            p += 1;
            offsets[p] = cursor;
        }
    }
    offsets
}

/// Fills the target array of every product row `p = (i, k)` at its
/// analytic offset.
///
/// For a fixed row, targets `j·n_B + l` are emitted with `j` outer
/// (ascending over `A`'s sorted row) and `l` inner (ascending over `B`'s
/// sorted row). Since `l < n_B`, consecutive targets are strictly
/// increasing across the whole row — each row lands already sorted and
/// duplicate-free, which is what lets [`CsrGraph::from_sorted_parts`]
/// skip the counting sort entirely. Every target is below `n_C`, which
/// [`materialize`] checked is at most 2^32, so the `u32` store is exact.
fn fill_product_rows(pair: &KroneckerPair, offsets: &[usize], out: &mut [u32]) {
    let a = pair.a();
    let b = pair.b();
    let nb = b.n();
    for i in 0..a.n() {
        let row_a = a.neighbors(i);
        for k in 0..nb {
            let p = (i * nb + k) as usize;
            let mut w = offsets[p];
            let row_b = b.neighbors(k);
            for &j in row_a {
                let col_base = u64::from(j) * nb;
                for &l in row_b {
                    out[w] = (col_base + u64::from(l)) as u32;
                    w += 1;
                }
            }
        }
    }
}

/// Materializes `C` as an explicit CSR graph, built **directly from the
/// factor CSRs** — no intermediate arc `Vec`, no counting sort.
///
/// Offsets come from the analytic prefix sum of `d_A ⊗ d_B`; each row is
/// emitted already sorted (see [`fill_product_rows`]' ordering argument),
/// so the result is field-for-field identical to
/// `CsrGraph::from_edge_list` over the product arc stream while doing
/// `O(nnz_C)` writes straight into the output.
///
/// Memory is `4·nnz_C + 8·(n_C + 1)` bytes, after a transient
/// `n_B`-entry degree table — intended for validation-scale products
/// only; panics, before allocating, when `n_C` exceeds
/// [`CsrGraph::MAX_VERTICES`] (2^32) or the arc count exceeds `usize`.
pub fn materialize(pair: &KroneckerPair) -> CsrGraph {
    let _span = kron_obs::span::enter("core/materialize");
    CsrGraph::check_vertex_count(pair.n_c()).unwrap_or_else(|e| panic!("cannot materialize: {e}"));
    let total = pair.nnz_c();
    assert!(total <= usize::MAX as u128, "product too large to materialize");
    kron_obs::counter!("core.synthesized_arcs").add(total as u64);
    let offsets = product_offsets(pair);
    let mut targets = vec![0u32; total as usize];
    fill_product_rows(pair, &offsets, &mut targets);
    CsrGraph::from_sorted_parts(pair.n_c(), offsets, targets)
}

/// Synthesizes the CSR rows of `C` for the contiguous product-row range
/// `rows` only: returns `(offsets, targets)` with offsets local to the
/// block (`offsets[0] == 0`, `rows.len() + 1` entries) and global column
/// ids. The block boundary may cut inside an `A`-row's span, so rows are
/// addressed as `p = (i, k)` individually.
///
/// This is what lets a row-contiguous storage owner (`VertexBlockOwner`)
/// materialize each rank's shard straight from the factors — no
/// generation loop, no exchange.
pub fn synthesize_row_block(
    pair: &KroneckerPair,
    rows: std::ops::Range<u64>,
) -> (Vec<usize>, Vec<u64>) {
    assert!(rows.end <= pair.n_c(), "row range exceeds n_C");
    let a = pair.a();
    let b = pair.b();
    let nb = b.n();
    let mut offsets = Vec::with_capacity((rows.end - rows.start) as usize + 1);
    offsets.push(0usize);
    let mut cursor = 0usize;
    for p in rows.clone() {
        let (i, k) = pair.split(p);
        cursor += (a.degree(i) * b.degree(k)) as usize;
        offsets.push(cursor);
    }
    let mut targets = vec![0u64; cursor];
    for (idx, p) in rows.enumerate() {
        let (i, k) = pair.split(p);
        let mut w = offsets[idx];
        let row_b = b.neighbors(k);
        for &j in a.neighbors(i) {
            let col_base = u64::from(j) * nb;
            for &l in row_b {
                targets[w] = col_base + u64::from(l);
                w += 1;
            }
        }
    }
    (offsets, targets)
}

/// Streams the sorted target row of every product row `p ∈ rows` to
/// `visit(p, &targets)`, reusing **one** row buffer across calls — the
/// out-of-core synthesis primitive: resident memory is the largest single
/// product row (`max d_A(i) · max d_B(k)` targets), never the block.
///
/// Row ordering and content are identical to [`synthesize_row_block`]
/// over the same range; the shard spill path streams these rows straight
/// to disk so a `C` that cannot fit in RAM never has to.
pub fn for_each_synthesized_row<F: FnMut(u64, &[u64])>(
    pair: &KroneckerPair,
    rows: std::ops::Range<u64>,
    mut visit: F,
) {
    assert!(rows.end <= pair.n_c(), "row range exceeds n_C");
    let a = pair.a();
    let b = pair.b();
    let nb = b.n();
    let mut row_buf: Vec<u64> = Vec::new();
    for p in rows {
        let (i, k) = pair.split(p);
        row_buf.clear();
        let row_b = b.neighbors(k);
        for &j in a.neighbors(i) {
            let col_base = u64::from(j) * nb;
            for &l in row_b {
                row_buf.push(col_base + u64::from(l));
            }
        }
        visit(p, &row_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::SelfLoopMode;
    use kron_graph::generators::{clique, cycle, path, star};
    use kron_graph::EdgeList;
    use kron_linalg::kronecker::kron_dense;
    use kron_linalg::DenseMatrix;

    fn dense_of(g: &CsrGraph) -> DenseMatrix {
        let n = g.n() as usize;
        let mut m = DenseMatrix::zeros(n, n);
        for (u, v) in g.arcs() {
            m.set(u as usize, v as usize, 1);
        }
        m
    }

    fn check_against_oracle(a: CsrGraph, b: CsrGraph, mode: SelfLoopMode) {
        let pair = KroneckerPair::new(a, b, mode).unwrap();
        let c = materialize(&pair);
        let oracle = kron_dense(&dense_of(pair.a()), &dense_of(pair.b()));
        assert_eq!(c.n() as usize, oracle.rows());
        for p in 0..c.n() {
            for q in 0..c.n() {
                assert_eq!(
                    c.has_arc(p, q),
                    oracle.get(p as usize, q as usize) == 1,
                    "mismatch at ({p},{q})"
                );
            }
        }
    }

    #[test]
    fn matches_dense_oracle_as_is() {
        check_against_oracle(path(3), cycle(4), SelfLoopMode::AsIs);
        check_against_oracle(clique(3), star(4), SelfLoopMode::AsIs);
    }

    #[test]
    fn matches_dense_oracle_full_both() {
        check_against_oracle(path(3), cycle(4), SelfLoopMode::FullBoth);
        check_against_oracle(clique(3), clique(3), SelfLoopMode::FullBoth);
    }

    #[test]
    fn arc_count_matches() {
        let pair = KroneckerPair::as_is(clique(4), cycle(5)).unwrap();
        let collected: Vec<_> = arcs(&pair).collect();
        assert_eq!(collected.len() as u128, pair.nnz_c());
        let c = materialize(&pair);
        assert_eq!(c.nnz() as u128, pair.nnz_c());
    }

    #[test]
    fn iterator_and_closure_agree() {
        let pair = KroneckerPair::with_full_self_loops(path(3), clique(3)).unwrap();
        let mut via_iter: Vec<_> = arcs(&pair).collect();
        let mut via_closure = Vec::new();
        for_each_arc(&pair, |p, q| via_closure.push((p, q)));
        via_iter.sort_unstable();
        via_closure.sort_unstable();
        assert_eq!(via_iter, via_closure);
    }

    #[test]
    fn exact_size_iterator() {
        let pair = KroneckerPair::as_is(path(3), path(3)).unwrap();
        let mut it = arcs(&pair);
        let total = it.len();
        assert_eq!(total as u128, pair.nnz_c());
        it.next();
        assert_eq!(it.len(), total - 1);
    }

    #[test]
    fn lazy_iterator_handles_isolated_vertices() {
        // star(4) leaves leaf rows non-empty but a graph with isolated
        // vertices exercises the cursor's empty-row skipping.
        let a = CsrGraph::from_arcs(4, vec![(1, 3), (3, 1)]).unwrap();
        let b = CsrGraph::from_arcs(3, vec![(0, 2), (2, 0)]).unwrap();
        let pair = KroneckerPair::as_is(a, b).unwrap();
        let got: Vec<_> = arcs(&pair).collect();
        assert_eq!(got.len() as u128, pair.nnz_c());
        let c = materialize(&pair);
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn arcless_factor_yields_no_arcs() {
        let a = CsrGraph::from_arcs(3, vec![]).unwrap();
        let b = clique(3);
        let pair = KroneckerPair::as_is(a, b).unwrap();
        assert_eq!(arcs(&pair).count(), 0);
        assert_eq!(arcs(&pair).len(), 0);
    }

    /// The arc-stream oracle: every product arc, counting-sorted into CSR
    /// by the generic builder — no code shared with synthesis.
    fn arc_oracle(pair: &KroneckerPair) -> CsrGraph {
        let list = EdgeList::from_arcs(pair.n_c(), arcs(pair).collect()).unwrap();
        CsrGraph::from_edge_list(&list)
    }

    #[test]
    fn synthesis_matches_arc_path_small_families() {
        for mode in [SelfLoopMode::AsIs, SelfLoopMode::FullBoth] {
            for (a, b) in [
                (clique(4), cycle(5)),
                (star(5), path(4)),
                (path(1), clique(3)),
            ] {
                let pair = KroneckerPair::new(a, b, mode).unwrap();
                assert_eq!(materialize(&pair), arc_oracle(&pair), "mode={mode:?}");
            }
        }
    }

    #[test]
    fn synthesis_handles_isolated_vertices() {
        // Empty factor rows make empty product row blocks.
        let a = CsrGraph::from_arcs(4, vec![(1, 3), (3, 1)]).unwrap();
        let b = CsrGraph::from_arcs(3, vec![(0, 2), (2, 0)]).unwrap();
        let pair = KroneckerPair::as_is(a, b).unwrap();
        let reference = arc_oracle(&pair);
        assert_eq!(materialize(&pair), reference);
        // Arc-free product.
        let arcless = KroneckerPair::as_is(CsrGraph::from_arcs(3, vec![]).unwrap(), clique(3))
            .unwrap();
        assert_eq!(materialize(&arcless).nnz(), 0);
    }

    #[test]
    fn row_block_synthesis_covers_the_whole_product() {
        let pair = KroneckerPair::with_full_self_loops(star(4), cycle(5)).unwrap();
        let c = materialize(&pair);
        // Any split of the row space reassembles to the full CSR.
        for cut in [0u64, 1, 7, pair.n_c() / 2, pair.n_c()] {
            let (off_lo, tgt_lo) = synthesize_row_block(&pair, 0..cut);
            let (off_hi, tgt_hi) = synthesize_row_block(&pair, cut..pair.n_c());
            assert_eq!(off_lo.len() as u64 + off_hi.len() as u64, pair.n_c() + 2);
            let mut offsets = off_lo.clone();
            offsets.pop();
            offsets.extend(off_hi.iter().map(|&o| o + tgt_lo.len()));
            let targets = tgt_lo.iter().chain(&tgt_hi).map(|&v| v as u32).collect();
            let rebuilt = CsrGraph::from_sorted_parts(pair.n_c(), offsets, targets);
            assert_eq!(rebuilt, c, "cut={cut}");
        }
    }

    #[test]
    fn streamed_rows_match_block_synthesis() {
        let pair = KroneckerPair::with_full_self_loops(star(4), cycle(5)).unwrap();
        for range in [0..pair.n_c(), 3..11, 0..0, pair.n_c() - 1..pair.n_c()] {
            let (offsets, targets) = synthesize_row_block(&pair, range.clone());
            let mut streamed_offsets = vec![0usize];
            let mut streamed_targets = Vec::new();
            let mut expected_p = range.start;
            for_each_synthesized_row(&pair, range.clone(), |p, row| {
                assert_eq!(p, expected_p, "rows must stream in order");
                expected_p += 1;
                streamed_targets.extend_from_slice(row);
                streamed_offsets.push(streamed_targets.len());
            });
            assert_eq!(expected_p, range.end);
            assert_eq!(streamed_offsets, offsets, "range={range:?}");
            assert_eq!(streamed_targets, targets, "range={range:?}");
        }
    }

    #[test]
    fn k2_kron_k2_is_two_disjoint_edges() {
        let pair = KroneckerPair::as_is(clique(2), clique(2)).unwrap();
        let c = materialize(&pair);
        assert_eq!(c.undirected_edge_count(), 2);
        assert!(c.has_arc(0, 3));
        assert!(c.has_arc(1, 2));
        assert!(!c.has_arc(0, 1));
        use kron_graph::connectivity::connected_components;
        assert_eq!(connected_components(&c).count, 2);
    }

    #[test]
    fn full_both_is_connected_when_factors_are() {
        // With full self loops the product of connected factors stays
        // connected (the classic fix for Kronecker disconnection).
        let pair = KroneckerPair::with_full_self_loops(clique(2), clique(2)).unwrap();
        let c = materialize(&pair);
        use kron_graph::connectivity::is_connected;
        assert!(is_connected(&c));
    }

    #[test]
    #[should_panic(expected = "cannot materialize: 17179869184 vertices exceed the 2^32")]
    fn materialize_refuses_more_than_2_pow_32_vertices() {
        // n_C = 2^34 with no arcs: the offset array alone would be 128 GiB,
        // so the limit must trip before anything is allocated.
        let arcless = || CsrGraph::from_arcs(1 << 17, vec![]).unwrap();
        let pair = KroneckerPair::as_is(arcless(), arcless()).unwrap();
        assert_eq!(pair.nnz_c(), 0);
        materialize(&pair);
    }

    #[test]
    fn product_of_undirected_is_undirected() {
        let pair = KroneckerPair::as_is(cycle(4), path(3)).unwrap();
        assert!(materialize(&pair).is_undirected());
    }
}
