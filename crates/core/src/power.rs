//! N-ary Kronecker products `C = A₁ ⊗ A₂ ⊗ … ⊗ A_K` and Kronecker powers
//! `A^{⊗K}`.
//!
//! The paper presents two-factor formulas; every one of them composes
//! associatively, which is how Kronecker-graph benchmarks are actually
//! built (Graph500-style generators apply `⊗` recursively). For loop-free
//! factors:
//!
//! ```text
//! n_C  = Π n_i                 d_C(p) = Π d_i(v_i)
//! t_C  = 2^{K−1} Π t_i         Δ_C   = ⊗ Δ_i        τ relation via Σt/3
//! ```
//!
//! and with full self loops in every factor (`C = ⊗ (A_i + I)`):
//!
//! ```text
//! hops_C(p,q) = max_i hops_i(v_i, w_i)
//! ε_C(p)      = max_i ε_i(v_i)          diam C = max_i diam A_i
//! ```
//!
//! Vertex indices use the mixed-radix expansion
//! `p = ((v₁·n₂ + v₂)·n₃ + v₃)…`, consistent with folding
//! [`crate::KroneckerPair`] left-to-right — which is also how every
//! formula here is validated: an N-ary product must agree exactly with
//! the binary implicit pair applied `K−1` times.

use kron_analytics::distance::{all_eccentricities_naive, UNREACHABLE};
use kron_analytics::triangles::{edge_triangles, vertex_triangles};
use kron_analytics::Histogram;
use kron_graph::{CsrGraph, VertexId};

use crate::pair::{KronError, SelfLoopMode};

/// An implicit N-ary Kronecker product graph.
///
/// ```
/// use kron_core::power::KroneckerChain;
/// use kron_core::SelfLoopMode;
/// use kron_graph::generators::clique;
///
/// let cube = KroneckerChain::power(clique(3), 3, SelfLoopMode::FullBoth).unwrap();
/// assert_eq!(cube.n_c(), 27);
/// assert_eq!(cube.diameter().unwrap(), 1); // cliques stay cliques
/// ```
#[derive(Debug, Clone)]
pub struct KroneckerChain {
    base: Vec<CsrGraph>,
    factors: Vec<CsrGraph>,
    mode: SelfLoopMode,
    /// `suffix[i]` = product of `n_j` for `j > i` (radix weights).
    suffix: Vec<u64>,
}

impl KroneckerChain {
    /// Builds the chain; `FullBoth` adds loops to every (loop-free) factor.
    pub fn new(base: Vec<CsrGraph>, mode: SelfLoopMode) -> crate::Result<Self> {
        assert!(!base.is_empty(), "need at least one factor");
        assert!(base.iter().all(|g| g.n() > 0), "factors must be nonempty");
        let factors: Vec<CsrGraph> = match mode {
            SelfLoopMode::AsIs => base.clone(),
            SelfLoopMode::FullBoth => {
                for (idx, g) in base.iter().enumerate() {
                    if let Some(v) = (0..g.n()).find(|&v| g.has_self_loop(v)) {
                        return Err(KronError::FactorHasSelfLoop {
                            factor: (b'A' + (idx as u8 % 26)) as char,
                            vertex: v,
                        });
                    }
                }
                base.iter().map(|g| g.with_full_self_loops()).collect()
            }
        };
        let k = factors.len();
        let mut suffix = vec![1u64; k];
        for i in (0..k.saturating_sub(1)).rev() {
            suffix[i] = suffix[i + 1] * factors[i + 1].n();
        }
        Ok(KroneckerChain { base, factors, mode, suffix })
    }

    /// The K-fold Kronecker power `A^{⊗K}`.
    pub fn power(a: CsrGraph, k: usize, mode: SelfLoopMode) -> crate::Result<Self> {
        assert!(k >= 1, "power must be at least 1");
        Self::new(vec![a; k], mode)
    }

    /// Number of factors `K`.
    pub fn arity(&self) -> usize {
        self.factors.len()
    }

    /// Effective factors (loops added under `FullBoth`).
    pub fn factors(&self) -> &[CsrGraph] {
        &self.factors
    }

    /// The self-loop mode.
    pub fn mode(&self) -> SelfLoopMode {
        self.mode
    }

    /// `n_C = Π n_i`.
    pub fn n_c(&self) -> u64 {
        self.factors.iter().map(|g| g.n()).product()
    }

    /// Arc count of `C`: `Π nnz_i`.
    pub fn nnz_c(&self) -> u128 {
        self.factors.iter().map(|g| g.nnz() as u128).product()
    }

    /// Splits a product vertex into its factor coordinates.
    pub fn split(&self, p: VertexId) -> Vec<VertexId> {
        let mut coords = Vec::with_capacity(self.arity());
        let mut rest = p;
        for (g, &w) in self.factors.iter().zip(&self.suffix) {
            coords.push(rest / w);
            rest %= w;
            debug_assert!(coords[coords.len() - 1] < g.n());
        }
        coords
    }

    /// Joins factor coordinates into the product vertex.
    pub fn join(&self, coords: &[VertexId]) -> VertexId {
        assert_eq!(coords.len(), self.arity(), "one coordinate per factor");
        coords
            .iter()
            .zip(&self.suffix)
            .map(|(&v, &w)| v * w)
            .sum()
    }

    /// Validates a product vertex id.
    pub fn check_vertex(&self, p: VertexId) -> crate::Result<()> {
        if p < self.n_c() {
            Ok(())
        } else {
            Err(KronError::VertexOutOfRange { vertex: p, n: self.n_c() })
        }
    }

    /// Membership test: `(p, q)` is an arc of `C` iff every coordinate
    /// pair is an arc of its factor.
    pub fn has_arc(&self, p: VertexId, q: VertexId) -> bool {
        if p >= self.n_c() || q >= self.n_c() {
            return false;
        }
        self.split(p)
            .iter()
            .zip(self.split(q).iter())
            .zip(&self.factors)
            .all(|((&vi, &wi), g)| g.has_arc(vi, wi))
    }

    /// Ground-truth degree: `d_C(p) = Π d_i(v_i)`.
    pub fn degree_of(&self, p: VertexId) -> crate::Result<u64> {
        self.check_vertex(p)?;
        Ok(self
            .split(p)
            .iter()
            .zip(&self.factors)
            .map(|(&v, g)| g.degree(v))
            .product())
    }

    /// Degree histogram via K-fold multiplicative convolution — never
    /// touches `C`.
    pub fn degree_histogram(&self) -> Histogram {
        let mut acc = Histogram::from_values([1u64]);
        for g in &self.factors {
            let h = Histogram::from_values(g.degrees());
            let mut next = Histogram::new();
            for (va, ca) in acc.iter() {
                for (vb, cb) in h.iter() {
                    next.add_count(va * vb, ca * cb);
                }
            }
            acc = next;
        }
        acc
    }

    /// Ground-truth vertex triangles for **loop-free** chains:
    /// `t_C(p) = 2^{K−1} Π t_i(v_i)`.
    pub fn vertex_triangles_of(&self, p: VertexId) -> crate::Result<u64> {
        self.check_vertex(p)?;
        if self.mode != SelfLoopMode::AsIs
            || self.base.iter().any(|g| !g.is_loop_free())
        {
            return Err(KronError::RequiresLoopFree {
                formula: "N-ary vertex-triangle product law",
            });
        }
        let coords = self.split(p);
        let mut product: u64 = 1;
        for (&v, g) in coords.iter().zip(&self.factors) {
            product *= vertex_triangles(g).per_vertex[v as usize];
            if product == 0 {
                return Ok(0);
            }
        }
        Ok(product << (self.arity() - 1))
    }

    /// Ground-truth eccentricity under full self loops:
    /// `ε_C(p) = max_i ε_i(v_i)`.
    pub fn eccentricity_of(&self, p: VertexId) -> crate::Result<u32> {
        self.check_vertex(p)?;
        self.require_full_loops("N-ary eccentricity max law")?;
        let mut best = 0u32;
        for (&v, g) in self.split(p).iter().zip(&self.factors) {
            let e = kron_analytics::distance::eccentricity(g, v);
            if e == UNREACHABLE {
                return Ok(UNREACHABLE);
            }
            best = best.max(e);
        }
        Ok(best)
    }

    /// Ground-truth diameter under full self loops: `max_i diam(A_i)`.
    pub fn diameter(&self) -> crate::Result<u32> {
        self.require_full_loops("N-ary diameter max law")?;
        let mut best = 0u32;
        for g in &self.factors {
            let d = kron_analytics::distance::diameter(g);
            if d == UNREACHABLE {
                return Ok(UNREACHABLE);
            }
            best = best.max(d);
        }
        Ok(best)
    }

    /// Eccentricity histogram of the full product via iterated max-law
    /// convolution — `O(Σ n_i · diam)` after factor eccentricities.
    pub fn eccentricity_histogram(&self) -> crate::Result<Histogram> {
        self.require_full_loops("N-ary eccentricity histogram")?;
        let factor_hists: Vec<Histogram> = self
            .factors
            .iter()
            .map(|g| {
                Histogram::from_values(
                    all_eccentricities_naive(g).into_iter().map(|e| e as u64),
                )
            })
            .collect();
        let max_e = factor_hists.iter().filter_map(|h| h.max()).max().unwrap_or(0);
        let mut out = Histogram::new();
        let mut prev = 0u64;
        for e in 0..=max_e {
            let cum: u64 = factor_hists.iter().map(|h| h.cumulative(e)).product();
            out.add_count(e, cum - prev);
            prev = cum;
        }
        Ok(out)
    }

    fn require_full_loops(&self, formula: &'static str) -> crate::Result<()> {
        if self.factors.iter().all(|g| g.has_full_self_loops()) {
            Ok(())
        } else {
            Err(KronError::RequiresFullSelfLoops { formula })
        }
    }

    fn require_full_both_mode(&self, formula: &'static str) -> crate::Result<()> {
        if self.mode == SelfLoopMode::FullBoth {
            Ok(())
        } else {
            Err(KronError::RequiresFullSelfLoops { formula })
        }
    }

    /// Ground-truth vertex triangles for the full-self-loop chain
    /// `C = ⊗ (A_i + I)` — **generalized Cor. 1** by left-folding: with
    /// `B_k` the loop-free core of the k-factor partial product, Cor. 1
    /// applies to `(B_{k−1} + I) ⊗ (A_k + I)` because `B_{k−1}` is
    /// loop-free, and its inputs `t_{B_{k−1}}`, `d_{B_{k−1}}` are exactly
    /// the previous fold state (`d_{B_k} = Π (d_i + 1) − 1`). `O(K)` per
    /// query after factor preprocessing.
    pub fn vertex_triangles_full_of(&self, p: VertexId) -> crate::Result<u64> {
        self.check_vertex(p)?;
        self.require_full_both_mode("generalized Cor. 1 (chains)")?;
        let coords = self.split(p);
        let mut acc: Option<(u64, u64)> = None; // (t, d) of the partial core
        for (&v, base) in coords.iter().zip(&self.base) {
            let t_f = vertex_triangles(base).per_vertex[v as usize];
            let d_f = base.degree(v);
            acc = Some(match acc {
                None => (t_f, d_f),
                Some((t_x, d_x)) => {
                    let t = 2 * t_x * t_f
                        + 3 * (t_x * d_f + d_x * d_f + d_x * t_f)
                        + t_x
                        + t_f;
                    let d = (d_x + 1) * (d_f + 1) - 1;
                    (t, d)
                }
            });
        }
        Ok(acc.expect("at least one factor").0)
    }

    /// Ground-truth edge triangles for the full-self-loop chain —
    /// **generalized (corrected) Cor. 2** by the same left-fold, carrying
    /// `(Δ, arc-indicator, d_source, δ)` of the partial core.
    ///
    /// Errors when `(p, q)` is not a non-loop edge of `C`.
    pub fn edge_triangles_full_of(&self, p: VertexId, q: VertexId) -> crate::Result<u64> {
        self.check_vertex(p)?;
        self.check_vertex(q)?;
        self.require_full_both_mode("generalized Cor. 2 (chains)")?;
        if p == q || !self.has_arc(p, q) {
            return Err(KronError::NotAnEdge { p, q });
        }
        let src = self.split(p);
        let dst = self.split(q);
        // Fold state over the partial core X: (Δ_X(i,j), X_ij, d_X(i), δ(i,j)).
        let mut acc: Option<(u64, u64, u64, bool)> = None;
        for ((&i, &j), base) in src.iter().zip(dst.iter()).zip(&self.base) {
            let delta_f = if i == j {
                0
            } else {
                edge_triangles(base).get(i, j).unwrap_or(0)
            };
            let y = u64::from(i != j && base.has_arc(i, j));
            let d_f = base.degree(i);
            let eq_f = i == j;
            acc = Some(match acc {
                None => (delta_f, y, d_f, eq_f),
                Some((dx, x, d_x, eq_x)) => {
                    let del_x = u64::from(eq_x);
                    let del_y = u64::from(eq_f);
                    let delta = dx * delta_f
                        + 2 * (dx * y + x * delta_f + x * y)
                        + dx * (d_f + 1) * del_y
                        + delta_f * (d_x + 1) * del_x
                        + 2 * (x * d_f * del_y + y * d_x * del_x);
                    // Core arc of the merged partial: effective-arc in both
                    // coordinates, not the diagonal.
                    let x_new =
                        u64::from((x == 1 || eq_x) && (y == 1 || eq_f) && !(eq_x && eq_f));
                    let d_new = (d_x + 1) * (d_f + 1) - 1;
                    (delta, x_new, d_new, eq_x && eq_f)
                }
            });
        }
        Ok(acc.expect("at least one factor").0)
    }

    /// Ground-truth closeness centrality under full self loops: the
    /// K-way generalization of Thm. 4 via cumulative hop-count products,
    /// `ζ_C(p) = Σ_h [Π_i cum_i(h) − Π_i cum_i(h−1)] / h`.
    pub fn closeness_of(&self, p: VertexId) -> crate::Result<f64> {
        self.check_vertex(p)?;
        self.require_full_loops("K-way Thm. 4 closeness")?;
        let coords = self.split(p);
        let cums: Vec<Vec<u64>> = coords
            .iter()
            .zip(&self.factors)
            .map(|(&v, g)| {
                crate::closeness::cumulative_hop_counts(&kron_analytics::distance::bfs_hops(
                    g, v,
                ))
            })
            .collect();
        let h_star = cums.iter().map(|c| c.len()).max().unwrap_or(1) - 1;
        let at = |cum: &[u64], h: usize| -> u64 {
            if cum.is_empty() {
                0
            } else {
                cum[h.min(cum.len() - 1)]
            }
        };
        let mut sum = 0.0;
        // At h = 0: Π cum_i(0) (0 unless every hop row is empty).
        let mut prev: u128 = cums.iter().map(|c| at(c, 0) as u128).product();
        for h in 1..=h_star {
            let cur: u128 = cums.iter().map(|c| at(c, h) as u128).product();
            sum += (cur - prev) as f64 / h as f64;
            prev = cur;
        }
        Ok(sum)
    }

    /// Folds the chain into an explicit graph by repeated binary products
    /// (validation scale only).
    pub fn materialize(&self) -> CsrGraph {
        let mut acc = self.factors[0].clone();
        for g in &self.factors[1..] {
            let pair = crate::pair::KroneckerPair::new(acc, g.clone(), SelfLoopMode::AsIs)
                .expect("AsIs never fails");
            acc = crate::generate::materialize(&pair);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_analytics::{distance, triangles};
    use kron_graph::generators::{clique, cycle, erdos_renyi, path, star};

    #[test]
    fn sizes_compose() {
        let chain = KroneckerChain::new(
            vec![clique(3), path(4), cycle(5)],
            SelfLoopMode::AsIs,
        )
        .unwrap();
        assert_eq!(chain.arity(), 3);
        assert_eq!(chain.n_c(), 60);
        assert_eq!(chain.nnz_c(), 6 * 6 * 10);
        let c = chain.materialize();
        assert_eq!(c.n(), 60);
        assert_eq!(c.nnz() as u128, chain.nnz_c());
    }

    #[test]
    fn split_join_roundtrip() {
        let chain =
            KroneckerChain::new(vec![clique(3), path(4), cycle(5)], SelfLoopMode::AsIs).unwrap();
        for p in 0..chain.n_c() {
            let coords = chain.split(p);
            assert_eq!(chain.join(&coords), p);
            assert_eq!(coords.len(), 3);
        }
    }

    #[test]
    fn mixed_radix_matches_binary_fold() {
        // Chain coordinates must agree with left-fold binary pairs.
        let chain =
            KroneckerChain::new(vec![clique(3), path(2), cycle(4)], SelfLoopMode::AsIs).unwrap();
        // p = ((v0·2 + v1)·4 + v2)
        assert_eq!(chain.join(&[2, 1, 3]), (2 * 2 + 1) * 4 + 3);
    }

    #[test]
    fn membership_matches_materialized() {
        let chain =
            KroneckerChain::new(vec![path(3), clique(3), path(2)], SelfLoopMode::FullBoth)
                .unwrap();
        let c = chain.materialize();
        for p in 0..chain.n_c() {
            for q in 0..chain.n_c() {
                assert_eq!(chain.has_arc(p, q), c.has_arc(p, q), "arc ({p},{q})");
            }
        }
    }

    #[test]
    fn degrees_match_materialized() {
        let chain = KroneckerChain::new(
            vec![erdos_renyi(5, 0.5, 1), star(4), cycle(4)],
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        let c = chain.materialize();
        for p in 0..chain.n_c() {
            assert_eq!(chain.degree_of(p).unwrap(), c.degree(p));
        }
        assert_eq!(
            chain.degree_histogram(),
            Histogram::from_values(c.degrees())
        );
    }

    #[test]
    fn triangles_match_materialized_loop_free() {
        let chain = KroneckerChain::new(
            vec![clique(3), erdos_renyi(6, 0.6, 2), clique(4)],
            SelfLoopMode::AsIs,
        )
        .unwrap();
        let c = chain.materialize();
        let direct = triangles::vertex_triangles(&c).per_vertex;
        for p in 0..chain.n_c() {
            assert_eq!(
                chain.vertex_triangles_of(p).unwrap(),
                direct[p as usize],
                "vertex {p}"
            );
        }
    }

    #[test]
    fn triangle_formula_rejects_loops() {
        let chain =
            KroneckerChain::new(vec![clique(3), clique(3)], SelfLoopMode::FullBoth).unwrap();
        assert!(matches!(
            chain.vertex_triangles_of(0),
            Err(KronError::RequiresLoopFree { .. })
        ));
    }

    #[test]
    fn eccentricity_matches_materialized() {
        let chain = KroneckerChain::new(
            vec![path(4), cycle(5), star(4)],
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        let c = chain.materialize();
        let direct = distance::all_eccentricities_naive(&c);
        for p in (0..chain.n_c()).step_by(3) {
            assert_eq!(chain.eccentricity_of(p).unwrap(), direct[p as usize]);
        }
        assert_eq!(chain.diameter().unwrap(), distance::diameter(&c));
        let hist = chain.eccentricity_histogram().unwrap();
        assert_eq!(
            hist,
            Histogram::from_values(direct.into_iter().map(|e| e as u64))
        );
    }

    #[test]
    fn power_constructor() {
        let cube = KroneckerChain::power(clique(3), 3, SelfLoopMode::AsIs).unwrap();
        assert_eq!(cube.n_c(), 27);
        // t = 2^{K−1} Π t_i = 4·1·1·1 for corner vertices of K3^⊗3.
        assert_eq!(cube.vertex_triangles_of(0).unwrap(), 4);
        let c = cube.materialize();
        assert_eq!(
            triangles::vertex_triangles(&c).per_vertex[0],
            4
        );
    }

    #[test]
    fn single_factor_chain_is_identity() {
        let g = erdos_renyi(8, 0.4, 9);
        let chain = KroneckerChain::new(vec![g.clone()], SelfLoopMode::AsIs).unwrap();
        assert_eq!(chain.materialize(), g);
        assert_eq!(chain.n_c(), 8);
        for p in 0..8 {
            assert_eq!(chain.degree_of(p).unwrap(), g.degree(p));
        }
    }

    #[test]
    fn full_both_rejects_preexisting_loops() {
        let looped = clique(3).with_full_self_loops();
        assert!(KroneckerChain::new(vec![clique(3), looped], SelfLoopMode::FullBoth).is_err());
    }

    #[test]
    fn generalized_cor1_matches_materialized() {
        // 3-factor full-self-loop chain: the folded Cor. 1 recursion must
        // equal direct triangle counting on the materialized product.
        let chain = KroneckerChain::new(
            vec![clique(3), erdos_renyi(5, 0.6, 41), cycle(4)],
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        let c = chain.materialize();
        let direct = triangles::vertex_triangles(&c).per_vertex;
        for p in 0..chain.n_c() {
            assert_eq!(
                chain.vertex_triangles_full_of(p).unwrap(),
                direct[p as usize],
                "vertex {p}"
            );
        }
    }

    #[test]
    fn generalized_cor1_two_factor_agrees_with_pair_oracle() {
        // On K = 2 the chain recursion must reduce to the pair's Cor. 1.
        let a = erdos_renyi(6, 0.5, 42);
        let b = erdos_renyi(5, 0.5, 43);
        let chain = KroneckerChain::new(vec![a.clone(), b.clone()], SelfLoopMode::FullBoth)
            .unwrap();
        let pair = crate::pair::KroneckerPair::with_full_self_loops(a, b).unwrap();
        let oracle = crate::triangles::TriangleOracle::new(&pair).unwrap();
        for p in 0..chain.n_c() {
            assert_eq!(
                chain.vertex_triangles_full_of(p).unwrap(),
                oracle.vertex_triangles_of(p).unwrap()
            );
        }
    }

    #[test]
    fn generalized_cor2_matches_materialized() {
        let chain = KroneckerChain::new(
            vec![clique(3), erdos_renyi(4, 0.7, 44), path(3)],
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        let c = chain.materialize();
        let direct = triangles::edge_triangles(&c);
        for ((p, q), want) in direct.iter() {
            assert_eq!(
                chain.edge_triangles_full_of(p, q).unwrap(),
                want,
                "edge ({p},{q})"
            );
        }
        // Self loops and non-edges rejected.
        assert!(matches!(
            chain.edge_triangles_full_of(0, 0),
            Err(KronError::NotAnEdge { .. })
        ));
    }

    #[test]
    fn chain_closeness_matches_materialized() {
        let chain = KroneckerChain::new(
            vec![path(3), cycle(4), star(4)],
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        let c = chain.materialize();
        for p in 0..chain.n_c() {
            let want = distance::closeness(&c, p);
            let got = chain.closeness_of(p).unwrap();
            assert!((got - want).abs() < 1e-9, "vertex {p}: {got} vs {want}");
        }
    }

    #[test]
    fn chain_full_formulas_reject_as_is_mode() {
        let chain =
            KroneckerChain::new(vec![clique(3), clique(3)], SelfLoopMode::AsIs).unwrap();
        assert!(chain.vertex_triangles_full_of(0).is_err());
        assert!(chain.edge_triangles_full_of(0, 1).is_err());
        assert!(chain.closeness_of(0).is_err());
    }

    #[test]
    fn graph500_style_power_scales() {
        // A scale-free factor cubed: n and arcs multiply, histogram is
        // computable without the 10^6-arc product.
        let a = erdos_renyi(12, 0.4, 33);
        let chain = KroneckerChain::power(a.clone(), 3, SelfLoopMode::FullBoth).unwrap();
        assert_eq!(chain.n_c(), 12u64.pow(3));
        let hist = chain.degree_histogram();
        assert_eq!(hist.total(), chain.n_c());
        let total_degree: u128 = hist.iter().map(|(v, c)| v as u128 * c as u128).sum();
        assert_eq!(total_degree, chain.nnz_c());
    }
}
