//! Ground-truth triangle participation (§IV).
//!
//! For loop-free factors (`C = A ⊗ B`):
//!
//! ```text
//! t_C = 2 · (t_A ⊗ t_B)          Δ_C = Δ_A ⊗ Δ_B          τ_C = 6 τ_A τ_B
//! ```
//!
//! For the full-self-loop construction `C = (A+I) ⊗ (B+I)` (Cor. 1/2):
//!
//! ```text
//! t_p  = 2 t_i t_k + 3(t_i d_k + d_i d_k + d_i t_k) + t_i + t_k
//! Δ_pq = Δ_ij Δ_kl + 2(Δ_ij B_kl + A_ij Δ_kl + A_ij B_kl)
//!        + Δ_ij (d_k + 1) δ(k,l) + Δ_kl (d_i + 1) δ(i,j)
//!        + 2 (A_ij d_k δ(k,l) + B_kl d_i δ(i,j))
//! ```
//!
//! where `t`, `d`, `Δ` are triangle counts and degrees of the **loop-free
//! base factors**. All quantities are computed from `O(|E_A| + |E_B|)`
//! precomputed state — the paper's "local statistics in linear time from
//! sublinear memory" claim.
//!
//! **Erratum.** The paper's printed Cor. 2 omits the `A_ij`/`B_kl`
//! indicator factors, writing `… + 2(Δ_ij + Δ_kl) + … + 2(d_i δ(i,j) +
//! d_k δ(k,l) + 1)`. That form is only correct for edges where both
//! factor pairs are edges (`A_ij = B_kl = 1`, so all δ terms vanish); on
//! the `i = j` or `k = l` edge types it overcounts — e.g. for
//! `C = (K₃+I) ⊗ (K₃+I)` and the edge `((0,0),(0,1))` it yields 11 where
//! the true count (any direct enumeration) is 7. Re-expanding
//! `(C−I) ∘ (C−I)²` with Prop. 2(e) yields the indicator-carrying form
//! above, which this module implements and which the test suite verifies
//! against direct enumeration on materialized products.

use kron_analytics::triangles::{edge_triangles, vertex_triangles, EdgeTriangles};
use kron_analytics::Histogram;
use kron_graph::VertexId;

use crate::classes::{pair_table, ClassMap};
use crate::pair::{KronError, KroneckerPair, SelfLoopMode};

/// The Cor. 1 per-vertex triangle value as a function of the stat-class
/// key `(t, d)` of each factor vertex — the single place the formula
/// lives, shared by the per-vertex query, the class-collapsed vector, and
/// the histogram.
fn triangle_value(mode: SelfLoopMode, ti: u64, di: u64, tk: u64, dk: u64) -> u64 {
    match mode {
        SelfLoopMode::AsIs => 2 * ti * tk,
        SelfLoopMode::FullBoth => 2 * ti * tk + 3 * (ti * dk + di * dk + di * tk) + ti + tk,
    }
}

/// Precomputed factor triangle/degree data for O(1) per-query ground truth.
pub struct TriangleOracle<'a> {
    pair: &'a KroneckerPair,
    t_a: Vec<u64>,
    t_b: Vec<u64>,
    d_a: Vec<u64>,
    d_b: Vec<u64>,
    delta_a: EdgeTriangles,
    delta_b: EdgeTriangles,
}

impl<'a> TriangleOracle<'a> {
    /// Builds the oracle. Requires loop-free base factors (both modes'
    /// formulas are stated in terms of loop-free factor statistics).
    pub fn new(pair: &'a KroneckerPair) -> crate::Result<Self> {
        pair.require_base_loop_free("triangle ground truth")?;
        let a = pair.base_a();
        let b = pair.base_b();
        Ok(TriangleOracle {
            pair,
            t_a: vertex_triangles(a).per_vertex,
            t_b: vertex_triangles(b).per_vertex,
            d_a: a.degrees(),
            d_b: b.degrees(),
            delta_a: edge_triangles(a),
            delta_b: edge_triangles(b),
        })
    }

    /// The pair this oracle answers for.
    pub fn pair(&self) -> &KroneckerPair {
        self.pair
    }

    /// Triangles at product vertex `p` (Def. 5 ground truth).
    pub fn vertex_triangles_of(&self, p: VertexId) -> crate::Result<u64> {
        self.pair.check_vertex(p)?;
        let (i, k) = self.pair.split(p);
        let (ti, tk) = (self.t_a[i as usize], self.t_b[k as usize]);
        let (di, dk) = (self.d_a[i as usize], self.d_b[k as usize]);
        Ok(triangle_value(self.pair.mode(), ti, di, tk, dk))
    }

    /// Class maps of both factors (vertices grouped by `(t, d)` key) plus
    /// the dense value table over distinct class pairs — the shared
    /// precomputation of the collapsed vector and the histogram. At most
    /// `#classes_A · #classes_B` formula evaluations regardless of `n_C`.
    fn vertex_class_table(
        &self,
    ) -> (ClassMap<(u64, u64)>, ClassMap<(u64, u64)>, Vec<u64>) {
        let ca = ClassMap::build(self.t_a.iter().copied().zip(self.d_a.iter().copied()));
        let cb = ClassMap::build(self.t_b.iter().copied().zip(self.d_b.iter().copied()));
        let mode = self.pair.mode();
        let table =
            pair_table(&ca, &cb, |&(ti, di), &(tk, dk)| triangle_value(mode, ti, di, tk, dk));
        (ca, cb, table)
    }

    /// Full vertex-triangle vector of `C` (allocates `n_C` entries).
    ///
    /// Class-collapsed: the formula runs once per distinct
    /// `(t_A, d_A) × (t_B, d_B)` class pair and the per-vertex loop is a
    /// table lookup — `O(#classes² + n_C)` instead of `O(n_C)` formula
    /// evaluations, with output identical to the per-vertex sweep
    /// ([`TriangleOracle::vertex_triangle_vector_per_vertex`]).
    pub fn vertex_triangle_vector(&self) -> Vec<u64> {
        let (ca, cb, table) = self.vertex_class_table();
        let lb = cb.len();
        let mut out = Vec::with_capacity(self.pair.n_c() as usize);
        for &xa in &ca.class_of {
            let base = xa as usize * lb;
            for &xb in &cb.class_of {
                out.push(table[base + xb as usize]);
            }
        }
        out
    }

    /// Reference per-vertex sweep: evaluates the Cor. 1 formula at every
    /// product vertex independently. Kept as the uncollapsed baseline the
    /// equivalence suite compares [`TriangleOracle::vertex_triangle_vector`]
    /// against element-for-element.
    pub fn vertex_triangle_vector_per_vertex(&self) -> Vec<u64> {
        (0..self.pair.n_c())
            .map(|p| self.vertex_triangles_of(p).expect("p < n_C"))
            .collect()
    }

    /// Vertex-triangle histogram of `C`, computed in
    /// `O(classes_A · classes_B)` where a class is a distinct `(t, d)`
    /// pair — never touching `C`.
    pub fn vertex_triangle_histogram(&self) -> Histogram {
        let (ca, cb, table) = self.vertex_class_table();
        let mut out = Histogram::new();
        for (x, &na) in ca.counts.iter().enumerate() {
            for (y, &nb) in cb.counts.iter().enumerate() {
                out.add_count(table[x * cb.len() + y], na * nb);
            }
        }
        out
    }

    /// Edge-triangle histogram over the canonical (`p < q`, loop-free)
    /// edges of `C`, computed entirely from factor **arc classes** —
    /// `O(#arc_classes_A · #arc_classes_B)` formula evaluations, never
    /// touching `C`.
    ///
    /// The Def. 6 value at product arc `((i,j),(k,l))` depends only on
    /// `(Δ_ij, A_ij, δ(i,j), d_i) × (Δ_kl, B_kl, δ(k,l), d_k)`. On an
    /// effective factor that tuple collapses to two class kinds: a base
    /// arc is `(Δ, 1, 0, ·)` — keyed by `Δ` alone — and a FullBoth
    /// diagonal arc is `(0, 0, 1, d)` — keyed by `d`. Class pairs where
    /// both sides are diagonal are exactly the product self loops and are
    /// skipped. Every admissible class-pair bucket contains each
    /// unordered product edge via both of its directed arcs (the
    /// arc-reversal involution maps the bucket to itself with no fixed
    /// points), so halving the `count_A · count_B` arc-pair count yields
    /// the edge histogram exactly.
    pub fn edge_triangle_histogram(&self) -> Histogram {
        let with_loops = self.pair.mode() == SelfLoopMode::FullBoth;
        let ca = arc_classes(&self.delta_a, &self.d_a, with_loops);
        let cb = arc_classes(&self.delta_b, &self.d_b, with_loops);
        let mut out = Histogram::new();
        for (&(la, xa), &na) in &ca {
            for (&(lb, xb), &nb) in &cb {
                if la && lb {
                    continue; // both diagonal ⇒ product self loop, not an edge
                }
                let value = match self.pair.mode() {
                    SelfLoopMode::AsIs => xa * xb,
                    SelfLoopMode::FullBoth => {
                        // The corrected Cor. 2 with the class kinds
                        // substituted: loop arcs carry (Δ=0, A=0, δ=1, d=x),
                        // base arcs carry (Δ=x, A=1, δ=0).
                        let (dij, a_ij, di) = if la { (0, 0, xa) } else { (xa, 1, 0) };
                        let (dkl, b_kl, dk) = if lb { (0, 0, xb) } else { (xb, 1, 0) };
                        dij * dkl
                            + 2 * (dij * b_kl + a_ij * dkl + a_ij * b_kl)
                            + dij * (dk + 1) * u64::from(lb)
                            + dkl * (di + 1) * u64::from(la)
                            + 2 * (a_ij * dk * u64::from(lb) + b_kl * di * u64::from(la))
                    }
                };
                debug_assert_eq!((na * nb) % 2, 0, "arc-pair bucket must pair up");
                out.add_count(value, na * nb / 2);
            }
        }
        out
    }

    /// Global triangle count `τ_C`, sublinear in `|E_C|`.
    pub fn global_triangles(&self) -> u128 {
        let sum_t = |t: &[u64]| -> u128 { t.iter().map(|&x| x as u128).sum() };
        let sum_d = |d: &[u64]| -> u128 { d.iter().map(|&x| x as u128).sum() };
        match self.pair.mode() {
            SelfLoopMode::AsIs => {
                // τ = Σ t_p / 3 = 2 (Σt_A)(Σt_B) / 3 = 2·(3τ_A)(3τ_B)/3 = 6 τ_A τ_B.
                2 * sum_t(&self.t_a) * sum_t(&self.t_b) / 3
            }
            SelfLoopMode::FullBoth => {
                let (ta, tb) = (sum_t(&self.t_a), sum_t(&self.t_b));
                let (da, db) = (sum_d(&self.d_a), sum_d(&self.d_b));
                let (na, nb) = (self.pair.a().n() as u128, self.pair.b().n() as u128);
                let triple_sum =
                    2 * ta * tb + 3 * (ta * db + da * db + da * tb) + ta * nb + na * tb;
                debug_assert_eq!(triple_sum % 3, 0, "Σ t_p must be divisible by 3");
                triple_sum / 3
            }
        }
    }

    /// Triangle count at factor edge, treating the diagonal as 0
    /// (`Δ_A` of Def. 6 vanishes on the diagonal).
    fn delta_a_of(&self, i: VertexId, j: VertexId) -> u64 {
        if i == j {
            0
        } else {
            self.delta_a.get(i, j).unwrap_or(0)
        }
    }

    fn delta_b_of(&self, k: VertexId, l: VertexId) -> u64 {
        if k == l {
            0
        } else {
            self.delta_b.get(k, l).unwrap_or(0)
        }
    }

    /// Triangles at product edge `(p, q)` (Def. 6 ground truth).
    ///
    /// Errors when `(p, q)` is not a (non-loop) edge of `C`.
    pub fn edge_triangles_of(&self, p: VertexId, q: VertexId) -> crate::Result<u64> {
        self.pair.check_vertex(p)?;
        self.pair.check_vertex(q)?;
        if p == q || !self.pair.has_arc(p, q) {
            return Err(KronError::NotAnEdge { p, q });
        }
        let (i, k) = self.pair.split(p);
        let (j, l) = self.pair.split(q);
        let dij = self.delta_a_of(i, j);
        let dkl = self.delta_b_of(k, l);
        Ok(match self.pair.mode() {
            SelfLoopMode::AsIs => dij * dkl,
            SelfLoopMode::FullBoth => {
                // Corrected Cor. 2 (see module erratum): keep the A_ij/B_kl
                // indicators the paper's printed formula drops.
                let delta = |a: VertexId, b: VertexId| u64::from(a == b);
                let a_ij = u64::from(self.pair.base_a().has_arc(i, j));
                let b_kl = u64::from(self.pair.base_b().has_arc(k, l));
                let (di, dk) = (self.d_a[i as usize], self.d_b[k as usize]);
                dij * dkl
                    + 2 * (dij * b_kl + a_ij * dkl + a_ij * b_kl)
                    + dij * (dk + 1) * delta(k, l)
                    + dkl * (di + 1) * delta(i, j)
                    + 2 * (a_ij * dk * delta(k, l) + b_kl * di * delta(i, j))
            }
        })
    }
}

/// Arc classes of one effective factor, keyed `(is_loop, x)` → directed
/// arc count: every canonical base edge contributes **two** arcs keyed by
/// its triangle count `Δ`, and (with `with_loops`) the diagonal
/// contributes one arc per vertex keyed by its base degree. Base edges'
/// arc counts are therefore always even — the parity the histogram
/// halving argument relies on.
fn arc_classes(
    delta: &EdgeTriangles,
    d: &[u64],
    with_loops: bool,
) -> std::collections::BTreeMap<(bool, u64), u64> {
    let mut classes = std::collections::BTreeMap::new();
    for (_, dv) in delta.iter() {
        *classes.entry((false, dv)).or_insert(0u64) += 2;
    }
    if with_loops {
        for &dv in d {
            *classes.entry((true, dv)).or_insert(0u64) += 1;
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::materialize;
    use kron_analytics::triangles as direct;
    use kron_graph::generators::{barabasi_albert, clique, cycle, erdos_renyi, path, star};
    use kron_graph::CsrGraph;

    fn check_all(a: CsrGraph, b: CsrGraph, mode: SelfLoopMode) {
        let pair = KroneckerPair::new(a, b, mode).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        let c = materialize(&pair);

        // Vertex counts: collapsed path, and collapsed == per-vertex sweep.
        let expected = direct::vertex_triangles(&c);
        assert_eq!(oracle.vertex_triangle_vector(), expected.per_vertex, "vertex triangles");
        assert_eq!(
            oracle.vertex_triangle_vector(),
            oracle.vertex_triangle_vector_per_vertex(),
            "class collapse changed the vertex vector"
        );

        // Global count.
        assert_eq!(oracle.global_triangles(), expected.global as u128, "global triangles");

        // Edge counts on every non-loop edge of C.
        let et = direct::edge_triangles(&c);
        for ((p, q), want) in et.iter() {
            assert_eq!(
                oracle.edge_triangles_of(p, q).unwrap(),
                want,
                "edge ({p},{q}) in mode {mode:?}"
            );
        }

        // Histograms: vertex and edge, both from classes only.
        let want_hist = Histogram::from_values(expected.per_vertex.iter().copied());
        assert_eq!(oracle.vertex_triangle_histogram(), want_hist, "histogram");
        let want_edge_hist = Histogram::from_values(et.iter().map(|(_, c)| c));
        assert_eq!(oracle.edge_triangle_histogram(), want_edge_hist, "edge histogram");
    }

    #[test]
    fn as_is_against_direct_small_families() {
        check_all(clique(3), clique(3), SelfLoopMode::AsIs);
        check_all(clique(4), cycle(5), SelfLoopMode::AsIs);
        check_all(star(4), clique(4), SelfLoopMode::AsIs);
        check_all(path(4), path(4), SelfLoopMode::AsIs);
    }

    #[test]
    fn full_both_against_direct_small_families() {
        check_all(clique(3), clique(3), SelfLoopMode::FullBoth);
        check_all(clique(4), cycle(5), SelfLoopMode::FullBoth);
        check_all(star(4), clique(4), SelfLoopMode::FullBoth);
        check_all(path(4), path(4), SelfLoopMode::FullBoth);
    }

    #[test]
    fn as_is_against_direct_random() {
        check_all(erdos_renyi(10, 0.5, 3), erdos_renyi(9, 0.4, 4), SelfLoopMode::AsIs);
        check_all(barabasi_albert(12, 3, 5), erdos_renyi(8, 0.5, 6), SelfLoopMode::AsIs);
    }

    #[test]
    fn full_both_against_direct_random() {
        check_all(erdos_renyi(10, 0.5, 3), erdos_renyi(9, 0.4, 4), SelfLoopMode::FullBoth);
        check_all(barabasi_albert(12, 3, 5), erdos_renyi(8, 0.5, 6), SelfLoopMode::FullBoth);
    }

    #[test]
    fn global_scaling_law() {
        // τ_C = 6 τ_A τ_B for loop-free factors.
        let a = erdos_renyi(14, 0.5, 1);
        let b = erdos_renyi(13, 0.5, 2);
        let (ta, tb) = (direct::global_triangles(&a), direct::global_triangles(&b));
        let pair = KroneckerPair::as_is(a, b).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        assert_eq!(oracle.global_triangles(), 6 * ta as u128 * tb as u128);
    }

    #[test]
    fn rejects_loopy_base() {
        let looped = clique(3).with_full_self_loops();
        let pair = KroneckerPair::as_is(looped, clique(3)).unwrap();
        assert!(matches!(
            TriangleOracle::new(&pair),
            Err(KronError::RequiresLoopFree { .. })
        ));
    }

    #[test]
    fn edge_query_errors() {
        let pair = KroneckerPair::with_full_self_loops(clique(3), clique(3)).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        // Self loop of C is not a countable edge.
        assert!(matches!(
            oracle.edge_triangles_of(0, 0),
            Err(KronError::NotAnEdge { .. })
        ));
        // Out of range.
        assert!(oracle.edge_triangles_of(0, 99).is_err());
    }

    #[test]
    fn triangle_free_factor_kills_plain_triangles() {
        // AsIs mode: τ_C = 6 τ_A τ_B = 0 when B is triangle-free.
        let pair = KroneckerPair::as_is(clique(4), cycle(6)).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        assert_eq!(oracle.global_triangles(), 0);
        // But FullBoth mode creates triangles anyway (self-loop cross terms).
        let pair2 = KroneckerPair::with_full_self_loops(clique(4), cycle(6)).unwrap();
        let oracle2 = TriangleOracle::new(&pair2).unwrap();
        assert!(oracle2.global_triangles() > 0);
    }
}
