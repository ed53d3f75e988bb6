//! Factor partitioning schemes (§III and Rem. 1).
//!
//! **1D**: the arcs of `A` are distributed evenly over the `R` ranks and
//! `B` is replicated; rank `r` generates `C_r = A_r ⊗ B`. Per-rank storage
//! is `O(|E_A|/R + |E_B|)`, and at most `|E_A|` ranks can do useful work —
//! the scalability ceiling Rem. 1 points out.
//!
//! **2D**: both factors are partitioned: `A` into `R_a = ⌈√R⌉` parts and
//! `B` into `R_b = ⌈R/R_a⌉` parts, forming an `R_a × R_b` grid of work
//! cells `A_x ⊗ B_y`. The paper assigns cell `(r mod R_a, ⌊r/R_a⌋)` to
//! rank `r`, which covers the grid only when `R = R_a·R_b`; we generalize
//! by dealing all `R_a·R_b` cells round-robin over the `R` ranks so no
//! cell — and hence no edge of `C` — is ever dropped. Per-rank storage is
//! `O(|E_A|/R_a + |E_B|/R_b)`, enabling weak scaling to `O(|E_C|)` ranks.
//!
//! Arcs are dealt round-robin by index, which keeps sorted input balanced.
//!
//! [`FactorPartition`] is Table 3's *analytic* model: arc lists dealt to
//! work cells, swept to rank counts no run spawns. [`GridPartition`] is
//! what the generator executes, for both schemes: 1D is its `R × 1` case.

use std::ops::Range;

use kron_graph::{Arc, CsrGraph};
use serde::{Deserialize, Serialize};

/// Which of the two §III schemes to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionScheme {
    /// Distribute `E_A`; replicate `B` (§III main scheme).
    OneD,
    /// Distribute both factors over a `⌈√R⌉ × ⌈R/⌈√R⌉⌉` grid (Rem. 1).
    TwoD,
}

/// A work cell: the factor-arc subsets one rank multiplies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCell {
    /// Arcs of `A` assigned to this cell.
    pub a_arcs: Vec<Arc>,
    /// Arcs of `B` assigned to this cell.
    pub b_arcs: Vec<Arc>,
}

/// The full partition: one list of work cells per rank.
#[derive(Debug, Clone)]
pub struct FactorPartition {
    scheme: PartitionScheme,
    ranks: usize,
    /// `cells[r]` = work cells assigned to rank `r`.
    cells: Vec<Vec<WorkCell>>,
    grid: (usize, usize),
}

/// Deals `items` round-robin into `parts` buckets.
fn deal<T: Clone>(items: &[T], parts: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::with_capacity(items.len() / parts + 1); parts];
    for (idx, item) in items.iter().enumerate() {
        out[idx % parts].push(item.clone());
    }
    out
}

impl FactorPartition {
    /// Builds the partition of the factor arc lists for `ranks` ranks.
    pub fn new(
        scheme: PartitionScheme,
        ranks: usize,
        a_arcs: &[Arc],
        b_arcs: &[Arc],
    ) -> Self {
        assert!(ranks > 0, "need at least one rank");
        match scheme {
            PartitionScheme::OneD => {
                let a_parts = deal(a_arcs, ranks);
                let cells = a_parts
                    .into_iter()
                    .map(|a_part| vec![WorkCell { a_arcs: a_part, b_arcs: b_arcs.to_vec() }])
                    .collect();
                FactorPartition { scheme, ranks, cells, grid: (ranks, 1) }
            }
            PartitionScheme::TwoD => {
                let r_a = (ranks as f64).sqrt().ceil() as usize;
                let r_b = ranks.div_ceil(r_a);
                let a_parts = deal(a_arcs, r_a);
                let b_parts = deal(b_arcs, r_b);
                let mut cells: Vec<Vec<WorkCell>> = vec![Vec::new(); ranks];
                for (x, a_part) in a_parts.iter().enumerate() {
                    for (y, b_part) in b_parts.iter().enumerate() {
                        let cell_idx = y * r_a + x;
                        cells[cell_idx % ranks].push(WorkCell {
                            a_arcs: a_part.clone(),
                            b_arcs: b_part.clone(),
                        });
                    }
                }
                FactorPartition { scheme, ranks, cells, grid: (r_a, r_b) }
            }
        }
    }

    /// The scheme used.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Grid dimensions `(R_a, R_b)`; `(R, 1)` for 1D.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Work cells of rank `r`.
    pub fn cells_of(&self, r: usize) -> &[WorkCell] {
        &self.cells[r]
    }

    /// Number of product arcs rank `r` will generate.
    pub fn workload_of(&self, r: usize) -> u128 {
        self.cells[r]
            .iter()
            .map(|c| c.a_arcs.len() as u128 * c.b_arcs.len() as u128)
            .sum()
    }

    /// Factor arcs rank `r` must hold (its generation storage footprint).
    pub fn factor_storage_of(&self, r: usize) -> usize {
        self.cells[r]
            .iter()
            .map(|c| c.a_arcs.len() + c.b_arcs.len())
            .sum()
    }

    /// Max over ranks of [`FactorPartition::workload_of`] divided by the
    /// mean — 1.0 is perfect balance.
    pub fn workload_imbalance(&self) -> f64 {
        let loads: Vec<u128> = (0..self.ranks).map(|r| self.workload_of(r)).collect();
        let total: u128 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.ranks as f64;
        let max = *loads.iter().max().expect("ranks > 0") as f64;
        max / mean
    }
}

/// The `R_a × R_b` grid for `ranks` ranks: `R_a` is the **largest divisor
/// of `ranks` with `R_a² ≤ ranks`**, `R_b = ranks / R_a` — so `R_a · R_b`
/// is exactly `ranks` (one cell per rank, no cell dealt twice, no rank
/// idle) and the grid is as close to square as the divisor structure
/// allows: 4 → 2×2, 8 → 2×4, 12 → 3×4. A prime `ranks` degenerates to
/// `1 × ranks`, the 1D layout with the factors' roles swapped — the
/// price of exact cover.
pub fn grid_dims(ranks: usize) -> (usize, usize) {
    assert!(ranks > 0, "need at least one rank");
    let mut r_a = 1;
    let mut d = 1;
    while d * d <= ranks {
        if ranks % d == 0 {
            r_a = d;
        }
        d += 1;
    }
    (r_a, ranks / r_a)
}

/// A CSR slice of one factor: rows `rows` (whole rows of a range, or a
/// 1D rank's dealt share of every row), offsets rebased to the slice
/// (`offsets[0] == 0`), `u32` neighbor ids. It is *all* a rank holds of
/// that factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorSlice {
    rows: Range<u64>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl FactorSlice {
    /// Extracts the slice covering `rows` of `g`.
    pub fn of(g: &CsrGraph, rows: Range<u64>) -> Self {
        let start = rows.start as usize;
        let end = rows.end as usize;
        let base = g.offsets()[start];
        let offsets: Vec<usize> =
            g.offsets()[start..=end].iter().map(|&o| o - base).collect();
        let targets = g.targets()[base..g.offsets()[end]].to_vec();
        FactorSlice { rows, offsets, targets }
    }

    /// The arcs of `g` whose CSR index is `part` mod `parts`: what
    /// [`FactorPartition`]'s 1D scheme deals rank `part`, rows still sorted.
    fn dealt(g: &CsrGraph, part: usize, parts: usize) -> Self {
        let mut offsets = Vec::with_capacity(g.n() as usize + 1);
        let mut targets = Vec::with_capacity(g.nnz() / parts + 1);
        offsets.push(0);
        for span in g.offsets().windows(2) {
            let dealt = (span[0]..span[1]).filter(|idx| idx % parts == part);
            targets.extend(dealt.map(|idx| g.targets()[idx]));
            offsets.push(targets.len());
        }
        FactorSlice { rows: 0..g.n(), offsets, targets }
    }

    /// The factor rows this slice covers.
    pub fn rows(&self) -> Range<u64> {
        self.rows.clone()
    }

    /// Arcs stored in the slice.
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbor row of factor vertex `v` (must lie in `rows`).
    pub fn neighbors(&self, v: u64) -> &[u32] {
        let local = (v - self.rows.start) as usize;
        &self.targets[self.offsets[local]..self.offsets[local + 1]]
    }
}

/// Splits `g`'s rows into `parts` contiguous ranges balanced by **arc
/// count** (boundary `t` is the first row whose offset reaches `t/parts`
/// of the arcs), so slice workloads track `nnz`, not row counts.
fn split_rows_by_arcs(g: &CsrGraph, parts: usize) -> Vec<Range<u64>> {
    let offsets = g.offsets();
    let n = g.n();
    let total = g.nnz();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0u64);
    for t in 1..parts {
        let want = (total as u128 * t as u128 / parts as u128) as usize;
        let row = (offsets.partition_point(|&o| o < want) as u64).min(n);
        bounds.push(row.max(*bounds.last().expect("nonempty")));
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The partition the generator executes: an `R_a × R_b = R` grid where
/// rank `r` at `(x, y) = (r mod R_a, ⌊r / R_a⌋)` holds **only** the
/// slices `A_x` and `B_y` and generates the tile `A_x ⊗ B_y`. The tiles
/// cover `C` exactly once because each factor's slices partition its arcs.
/// 2D (Rem. 1) is a [`grid_dims`] grid of arc-balanced row ranges, so a
/// rank holds `|E_A|/R_a + |E_B|/R_b` factor arcs, never a full factor.
/// 1D (§III) is the `R × 1` grid: rank `r`'s `A` slice is
/// [`FactorPartition`]'s deal (CSR index ≡ `r` mod `R`), and its `B`
/// slice is `B` whole, one slice every rank shares.
#[derive(Debug, Clone)]
pub struct GridPartition {
    ranks: usize,
    r_a: usize,
    r_b: usize,
    a_slices: Vec<FactorSlice>,
    b_slices: Vec<FactorSlice>,
}

impl GridPartition {
    /// Builds the `scheme` partition of `a` and `b` over `ranks` ranks.
    pub fn new(scheme: PartitionScheme, a: &CsrGraph, b: &CsrGraph, ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let (r_a, r_b, a_slices, b_slices) = match scheme {
            PartitionScheme::OneD => (
                ranks,
                1,
                (0..ranks).map(|r| FactorSlice::dealt(a, r, ranks)).collect(),
                vec![FactorSlice::of(b, 0..b.n())],
            ),
            PartitionScheme::TwoD => {
                let (r_a, r_b) = grid_dims(ranks);
                let a_slices =
                    split_rows_by_arcs(a, r_a).into_iter().map(|r| FactorSlice::of(a, r)).collect();
                let b_slices =
                    split_rows_by_arcs(b, r_b).into_iter().map(|r| FactorSlice::of(b, r)).collect();
                (r_a, r_b, a_slices, b_slices)
            }
        };
        GridPartition { ranks, r_a, r_b, a_slices, b_slices }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Grid dimensions `(R_a, R_b)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.r_a, self.r_b)
    }

    /// Grid coordinate of rank `r`.
    pub fn coords(&self, r: usize) -> (usize, usize) {
        (r % self.r_a, r / self.r_a)
    }

    /// The `A` slice rank `r` holds.
    pub fn a_slice_of(&self, r: usize) -> &FactorSlice {
        &self.a_slices[r % self.r_a]
    }

    /// The `B` slice rank `r` holds.
    pub fn b_slice_of(&self, r: usize) -> &FactorSlice {
        &self.b_slices[r / self.r_a]
    }

    /// Product arcs rank `r` generates: `nnz(A_x) · nnz(B_y)`.
    pub fn workload_of(&self, r: usize) -> u128 {
        self.a_slice_of(r).nnz() as u128 * self.b_slice_of(r).nnz() as u128
    }

    /// Factor arcs rank `r` holds: `nnz(A_x) + nnz(B_y)` — Rem. 1's
    /// storage bound term.
    pub fn factor_storage_of(&self, r: usize) -> usize {
        self.a_slice_of(r).nnz() + self.b_slice_of(r).nnz()
    }

    /// Max over ranks of [`GridPartition::workload_of`] divided by the
    /// mean — 1.0 is perfect balance.
    pub fn workload_imbalance(&self) -> f64 {
        let loads: Vec<u128> = (0..self.ranks).map(|r| self.workload_of(r)).collect();
        let total: u128 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.ranks as f64;
        *loads.iter().max().expect("ranks > 0") as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs(n: u64) -> Vec<Arc> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn one_d_replicates_b() {
        let a = arcs(10);
        let b = arcs(4);
        let p = FactorPartition::new(PartitionScheme::OneD, 3, &a, &b);
        assert_eq!(p.grid(), (3, 1));
        let mut a_total = 0;
        for r in 0..3 {
            let cells = p.cells_of(r);
            assert_eq!(cells.len(), 1);
            assert_eq!(cells[0].b_arcs, b, "B replicated on rank {r}");
            a_total += cells[0].a_arcs.len();
        }
        assert_eq!(a_total, 10);
        // Round-robin balance: sizes within 1.
        let sizes: Vec<usize> = (0..3).map(|r| p.cells_of(r)[0].a_arcs.len()).collect();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn one_d_covers_all_pairs() {
        let a = arcs(7);
        let b = arcs(3);
        let p = FactorPartition::new(PartitionScheme::OneD, 4, &a, &b);
        let total: u128 = (0..4).map(|r| p.workload_of(r)).sum();
        assert_eq!(total, 7 * 3);
    }

    #[test]
    fn two_d_covers_all_pairs_even_when_grid_exceeds_ranks() {
        // R = 3 → grid 2×2 = 4 cells > 3 ranks; the paper's r%R_a mapping
        // would drop a cell — ours must not.
        let a = arcs(8);
        let b = arcs(6);
        let p = FactorPartition::new(PartitionScheme::TwoD, 3, &a, &b);
        assert_eq!(p.grid(), (2, 2));
        let total: u128 = (0..3).map(|r| p.workload_of(r)).sum();
        assert_eq!(total, 8 * 6, "every (A-part, B-part) cell must be assigned");
    }

    #[test]
    fn two_d_perfect_square() {
        let a = arcs(8);
        let b = arcs(8);
        let p = FactorPartition::new(PartitionScheme::TwoD, 4, &a, &b);
        assert_eq!(p.grid(), (2, 2));
        for r in 0..4 {
            assert_eq!(p.cells_of(r).len(), 1);
            assert_eq!(p.workload_of(r), 4 * 4);
        }
        assert!((p.workload_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_d_reduces_factor_storage() {
        // Rem. 1's point: per-rank factor storage is |E_A|/R_a + |E_B|/R_b
        // instead of |E_A|/R + |E_B|.
        let a = arcs(100);
        let b = arcs(100);
        let one_d = FactorPartition::new(PartitionScheme::OneD, 16, &a, &b);
        let two_d = FactorPartition::new(PartitionScheme::TwoD, 16, &a, &b);
        let max_1d = (0..16).map(|r| one_d.factor_storage_of(r)).max().unwrap();
        let max_2d = (0..16).map(|r| two_d.factor_storage_of(r)).max().unwrap();
        assert_eq!(max_1d, 100 / 16 + 1 + 100); // ceil(100/16) + replicated B
        assert_eq!(max_2d, 25 + 25); // 100/4 + 100/4
        assert!(max_2d < max_1d);
    }

    #[test]
    fn more_ranks_than_a_arcs_idles_ranks_in_1d() {
        // Rem. 1's ceiling: only |E_A| ranks can work in 1D.
        let a = arcs(2);
        let b = arcs(10);
        let p = FactorPartition::new(PartitionScheme::OneD, 5, &a, &b);
        let busy = (0..5).filter(|&r| p.workload_of(r) > 0).count();
        assert_eq!(busy, 2);
        // 2D keeps more ranks busy.
        let p2 = FactorPartition::new(PartitionScheme::TwoD, 5, &a, &b);
        let busy2 = (0..5).filter(|&r| p2.workload_of(r) > 0).count();
        assert!(busy2 > busy, "2D busy={busy2} vs 1D busy={busy}");
    }

    #[test]
    fn single_rank_degenerate() {
        let a = arcs(5);
        let b = arcs(5);
        for scheme in [PartitionScheme::OneD, PartitionScheme::TwoD] {
            let p = FactorPartition::new(scheme, 1, &a, &b);
            assert_eq!(p.workload_of(0), 25);
            assert!((p.workload_imbalance() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        FactorPartition::new(PartitionScheme::OneD, 0, &arcs(2), &arcs(2));
    }

    #[test]
    fn empty_factors() {
        let p = FactorPartition::new(PartitionScheme::TwoD, 4, &[], &[]);
        assert_eq!((0..4).map(|r| p.workload_of(r)).sum::<u128>(), 0);
        assert_eq!(p.workload_imbalance(), 1.0);
    }

    #[test]
    fn grid_dims_are_exact_divisor_grids() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(2), (1, 2));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(8), (2, 4)); // the non-square case the chaos matrix pins
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7)); // prime → degenerate 1D layout
        for r in 1..=64usize {
            let (ra, rb) = grid_dims(r);
            assert_eq!(ra * rb, r, "grid must cover exactly once");
            assert!(ra <= rb, "R_a is the small side");
        }
    }

    fn graph(n: u64) -> CsrGraph {
        CsrGraph::from_arcs(n, arcs(n)).unwrap()
    }

    #[test]
    fn factor_slice_matches_csr_rows() {
        let g = graph(10);
        let slice = FactorSlice::of(&g, 3..7);
        assert_eq!(slice.rows(), 3..7);
        assert_eq!(slice.nnz(), 4);
        for v in 3..7 {
            assert_eq!(slice.neighbors(v), g.neighbors(v), "row {v}");
        }
    }

    #[test]
    fn grid_partition_covers_and_bounds_storage() {
        let a = graph(100);
        let b = graph(100);
        for ranks in [1usize, 2, 3, 4, 8, 16] {
            let p = GridPartition::new(PartitionScheme::TwoD, &a, &b, ranks);
            let (ra, rb) = p.grid();
            assert_eq!((ra, rb), grid_dims(ranks));
            // Every rank's tile is distinct and the tiles cover A × B.
            let total: u128 = (0..ranks).map(|r| p.workload_of(r)).sum();
            assert_eq!(total, 100 * 100, "ranks={ranks}");
            // Rem. 1's bound: |E_A|/R_a + |E_B|/R_b per rank (±1 per split).
            let bound = (100usize.div_ceil(ra) + 1) + (100usize.div_ceil(rb) + 1);
            for r in 0..ranks {
                assert!(
                    p.factor_storage_of(r) <= bound,
                    "ranks={ranks} rank={r}: {} > {bound}",
                    p.factor_storage_of(r)
                );
            }
        }
    }

    #[test]
    fn grid_partition_storage_beats_one_d_replication() {
        let a = graph(100);
        let b = graph(100);
        let grid = GridPartition::new(PartitionScheme::TwoD, &a, &b, 16);
        // 1D replicates all of B: ≥ 100 factor arcs per rank. The 4×4
        // grid holds 25 + 25.
        let max_2d = (0..16).map(|r| grid.factor_storage_of(r)).max().unwrap();
        assert_eq!(max_2d, 50);
    }

    #[test]
    fn grid_partition_balances_skewed_factors() {
        use kron_graph::generators::star;
        // star(64): the hub row holds half the arcs; arc-balanced row
        // splitting must not put all remaining rows in one slice.
        let a = star(64);
        let b = graph(32);
        let p = GridPartition::new(PartitionScheme::TwoD, &a, &b, 8);
        assert_eq!(p.grid(), (2, 4));
        let total: u128 = (0..8).map(|r| p.workload_of(r)).sum();
        assert_eq!(total, a.nnz() as u128 * b.nnz() as u128);
        assert!(
            p.workload_imbalance() < 2.0,
            "arc-balanced slices should keep imbalance near 1, got {}",
            p.workload_imbalance()
        );
    }

    #[test]
    fn one_d_grid_executes_the_analytic_deal() {
        use kron_graph::generators::{erdos_renyi, star};
        // The executed R × 1 grid holds exactly what Table 3's model deals
        // each rank: A's arcs at CSR index ≡ r mod R, and B whole.
        for (a, b) in [(erdos_renyi(12, 0.4, 5), star(6)), (star(9), erdos_renyi(7, 0.5, 8))] {
            let a_arcs: Vec<Arc> = a.arcs().collect();
            let b_arcs: Vec<Arc> = b.arcs().collect();
            for ranks in 1..=7usize {
                let grid = GridPartition::new(PartitionScheme::OneD, &a, &b, ranks);
                let model = FactorPartition::new(PartitionScheme::OneD, ranks, &a_arcs, &b_arcs);
                assert_eq!(grid.grid(), (ranks, 1));
                for r in 0..ranks {
                    let slice = grid.a_slice_of(r);
                    let held: Vec<Arc> = slice
                        .rows()
                        .flat_map(|i| slice.neighbors(i).iter().map(move |&j| (i, j.into())))
                        .collect();
                    assert_eq!(held, model.cells_of(r)[0].a_arcs, "ranks={ranks} rank={r}");
                    assert_eq!(*grid.b_slice_of(r), FactorSlice::of(&b, 0..b.n()));
                    assert_eq!(grid.workload_of(r), model.workload_of(r));
                    assert_eq!(grid.factor_storage_of(r), model.factor_storage_of(r));
                }
            }
        }
    }

    #[test]
    fn grid_partition_handles_empty_factors() {
        let a = CsrGraph::from_arcs(4, vec![]).unwrap();
        let b = graph(4);
        let p = GridPartition::new(PartitionScheme::TwoD, &a, &b, 4);
        assert_eq!((0..4).map(|r| p.workload_of(r)).sum::<u128>(), 0);
        assert_eq!(p.workload_imbalance(), 1.0);
    }
}
