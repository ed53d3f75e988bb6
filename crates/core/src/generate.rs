//! Generation of the product graph's edges.
//!
//! The edge set of `C = A ⊗ B` is exactly the cross product of the factor
//! arc sets: for arcs `(i, j) ∈ A` and `(k, l) ∈ B`,
//! `(γ(i,k), γ(j,l)) ∈ C` (Def. 1 on 0/1 adjacencies). So row
//! `p = (i, k)` of `C` is `j·n_B + l` over `j ∈ N_A(i)`, `l ∈ N_B(k)`:
//! sorted and duplicate-free with `j` outer and `l` inner, as `l < n_B`.
//!
//! Only two entry points over a pair of factor rows form a product
//! target: [`fill_product_row`] writes a row into a slice (for
//! [`materialize`], [`for_each_synthesized_row`] and `kron-serve`'s
//! Neighbors reply) and [`for_each_product_target`] visits each target
//! (for `kron-dist`'s rank loop). [`arcs`] ([`ArcIter`]) streams the
//! same arcs factor-major through [`KroneckerPair::join`], sharing no
//! code with them: it is the reference the equivalence suites check
//! against (`arcs` → [`EdgeList`] → [`CsrGraph::from_edge_list`]).
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

/// Writes row `p = (i, k)` of `C`, from the factor rows `row_a = N_A(i)`
/// and `row_b = N_B(k)`, into `out`, which must hold exactly
/// `|row_a|·|row_b|` cells: cell `x·|row_b| + y` gets
/// `put(cell, row_a[x]·n_B + row_b[y])`, so the row lands sorted. `put`
/// picks the encoding (a `u32` or `u64` id, little-endian bytes).
#[inline]
pub fn fill_product_row<T, F: FnMut(&mut T, u64)>(
    row_a: &[u32],
    row_b: &[u32],
    n_b: u64,
    out: &mut [T],
    mut put: F,
) {
    assert_eq!(out.len(), row_a.len() * row_b.len(), "row span must fit the product row");
    if row_b.is_empty() {
        return;
    }
    for (cells, &j) in out.chunks_exact_mut(row_b.len()).zip(row_a) {
        let base = u64::from(j) * n_b;
        for (cell, &l) in cells.iter_mut().zip(row_b) {
            put(cell, base + u64::from(l));
        }
    }
}

/// Calls `visit(q)` for every target of the product row over `row_a`
/// and `row_b`, in [`fill_product_row`]'s increasing order, storing
/// nothing: a caller that routes each arc as it is made holds no row.
/// Always inlined, so the `kron-dist` rank loop's per-arc `emit` is
/// compiled into one loop body with it (plain `#[inline]` ran slower).
#[inline(always)]
pub fn for_each_product_target<F: FnMut(u64)>(
    row_a: &[u32],
    row_b: &[u32],
    n_b: u64,
    mut visit: F,
) {
    for &j in row_a {
        let base = u64::from(j) * n_b;
        for &l in row_b {
            visit(base + u64::from(l));
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

/// Materializes `C` as an explicit CSR graph, built **directly from the
/// factor CSRs** — no intermediate arc `Vec`, no counting sort.
///
/// Offsets come from the analytic prefix sum of `d_A ⊗ d_B`, and
/// [`fill_product_row`] writes each row's span of the target array in
/// place, already sorted. So the result is field-for-field identical to
/// `CsrGraph::from_edge_list` over the product arc stream, from
/// `O(nnz_C)` writes straight into the output. Every target is below
/// `n_C`, checked here to be at most 2^32, so the `u32` store is exact.
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
    let (a, b) = (pair.a(), pair.b());
    let n_b = b.n();
    // Rows are consecutive spans of `targets` in `p` order, so each row
    // splits its span off the front of what is left.
    let mut rest = targets.as_mut_slice();
    for i in 0..a.n() {
        let row_a = a.neighbors(i);
        for k in 0..n_b {
            let row_b = b.neighbors(k);
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(row_a.len() * row_b.len());
            fill_product_row(row_a, row_b, n_b, row, |cell, q| *cell = q as u32);
            rest = tail;
        }
    }
    CsrGraph::from_sorted_parts(pair.n_c(), offsets, targets)
}

/// Streams the sorted target row of every product row `p ∈ rows` to
/// `visit(p, &targets)`, reusing **one** row buffer across calls — the
/// out-of-core synthesis primitive: resident memory is the largest single
/// product row (`max d_A(i) · max d_B(k)` targets), never the block.
///
/// Rows are those of [`materialize`], with `u64` ids; the shard spill
/// path streams them straight to disk so a `C` that cannot fit in RAM
/// never has to.
pub fn for_each_synthesized_row<F: FnMut(u64, &[u64])>(
    pair: &KroneckerPair,
    rows: std::ops::Range<u64>,
    mut visit: F,
) {
    assert!(rows.end <= pair.n_c(), "row range exceeds n_C");
    let (a, b) = (pair.a(), pair.b());
    let n_b = b.n();
    let mut row_buf: Vec<u64> = Vec::new();
    for p in rows {
        let (i, k) = pair.split(p);
        let (row_a, row_b) = (a.neighbors(i), b.neighbors(k));
        row_buf.resize(row_a.len() * row_b.len(), 0);
        fill_product_row(row_a, row_b, n_b, &mut row_buf, |cell, q| *cell = q);
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
    fn entry_points_agree_on_every_row() {
        for mode in [SelfLoopMode::AsIs, SelfLoopMode::FullBoth] {
            for (a, b) in [(star(5), cycle(4)), (clique(3), path(4))] {
                let pair = KroneckerPair::new(a, b, mode).unwrap();
                let c = materialize(&pair);
                let n_b = pair.b().n();
                for p in 0..pair.n_c() {
                    let (i, k) = pair.split(p);
                    let (row_a, row_b) = (pair.a().neighbors(i), pair.b().neighbors(k));
                    let mut filled = vec![0u64; row_a.len() * row_b.len()];
                    fill_product_row(row_a, row_b, n_b, &mut filled, |cell, q| *cell = q);
                    let mut visited = Vec::new();
                    for_each_product_target(row_a, row_b, n_b, |q| visited.push(q));
                    assert_eq!(filled, visited, "mode={mode:?} row {p}");
                    let stored: Vec<u64> = c.neighbors(p).iter().map(|&q| q.into()).collect();
                    assert_eq!(filled, stored, "mode={mode:?} row {p}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row span must fit the product row")]
    fn fill_product_row_rejects_a_short_span() {
        let mut out = [0u64; 3];
        fill_product_row(&[0, 1], &[0, 2], 3, &mut out, |cell, q| *cell = q);
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
    fn streamed_rows_match_materialize() {
        let pair = KroneckerPair::with_full_self_loops(star(4), cycle(5)).unwrap();
        let c = materialize(&pair);
        let n_c = pair.n_c();
        // Whole, inner, empty and last-row ranges, and both halves of
        // every split of the row space, stream exactly C's rows in order.
        let mut ranges = vec![0..n_c, 3..11, 0..0, n_c - 1..n_c];
        for cut in [0u64, 1, 7, n_c / 2, n_c] {
            ranges.extend([0..cut, cut..n_c]);
        }
        for range in ranges {
            let mut expected_p = range.start;
            for_each_synthesized_row(&pair, range.clone(), |p, row| {
                assert_eq!(p, expected_p, "rows must stream in order");
                expected_p += 1;
                let stored: Vec<u64> = c.neighbors(p).iter().map(|&q| q.into()).collect();
                assert_eq!(row, stored.as_slice(), "range={range:?} row {p}");
            });
            assert_eq!(expected_p, range.end, "range={range:?}");
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
