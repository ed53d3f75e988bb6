//! Property-based cross-validation: random small factors, every
//! ground-truth formula checked against direct measurement on the
//! materialized product.

use proptest::prelude::*;

use kronecker::analytics::{clustering, community, distance, triangles};
use kronecker::core::clustering::ClusteringOracle;
use kronecker::core::community::CommunityOracle;
use kronecker::core::distance::DistanceOracle;
use kronecker::core::triangles::TriangleOracle;
use kronecker::core::{degree, generate, KroneckerPair, SelfLoopMode};
use kronecker::graph::{CsrGraph, EdgeList};

/// Strategy: a random undirected loop-free graph on `n` vertices.
fn graph(n: u64) -> impl Strategy<Value = CsrGraph> {
    let pairs: Vec<(u64, u64)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    proptest::collection::vec(proptest::bool::ANY, pairs.len()).prop_map(move |mask| {
        let mut list = EdgeList::new(n);
        for (keep, &(u, v)) in mask.iter().zip(&pairs) {
            if *keep {
                list.add_undirected(u, v).expect("in range");
            }
        }
        list.sort_dedup();
        CsrGraph::from_edge_list(&list)
    })
}

/// Relative error of `x` against `reference` (0 when they are equal).
fn rel_err(x: f64, reference: f64) -> f64 {
    if x == reference {
        0.0
    } else {
        (x - reference).abs() / reference.abs().max(f64::MIN_POSITIVE)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degrees: d_C = d_A ⊗ d_B in both modes.
    #[test]
    fn degrees_match_direct(a in graph(6), b in graph(5), full in proptest::bool::ANY) {
        let mode = if full { SelfLoopMode::FullBoth } else { SelfLoopMode::AsIs };
        let pair = KroneckerPair::new(a, b, mode).unwrap();
        let c = generate::materialize(&pair);
        prop_assert_eq!(degree::degrees(&pair), c.degrees());
    }

    /// Triangles at vertices, edges, and globally, both modes.
    #[test]
    fn triangles_match_direct(a in graph(6), b in graph(5), full in proptest::bool::ANY) {
        let mode = if full { SelfLoopMode::FullBoth } else { SelfLoopMode::AsIs };
        let pair = KroneckerPair::new(a, b, mode).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        let c = generate::materialize(&pair);
        let direct = triangles::vertex_triangles(&c);
        prop_assert_eq!(oracle.vertex_triangle_vector(), direct.per_vertex);
        prop_assert_eq!(oracle.global_triangles(), direct.global as u128);
        for ((p, q), want) in triangles::edge_triangles(&c).iter() {
            prop_assert_eq!(oracle.edge_triangles_of(p, q).unwrap(), want);
        }
    }

    /// Thm. 1/2 on loop-free factors: the clustering oracle matches the
    /// product's coefficients at every vertex and edge, and wherever the
    /// factor coefficients a law multiplies are defined (degrees ≥ 2) the
    /// law holds with θ ∈ [1/3, 1) and φ ∈ (0, 1).
    #[test]
    fn clustering_laws_match_direct(a in graph(6), b in graph(5)) {
        let (eta_a, eta_b) = (clustering::vertex_clustering(&a), clustering::vertex_clustering(&b));
        let (xi_a, xi_b) = (clustering::edge_clustering(&a), clustering::edge_clustering(&b));
        let (d_a, d_b) = (a.degrees(), b.degrees());
        let xi = |list: &[((u64, u64), f64)], u: u64, v: u64| {
            let at = list.binary_search_by_key(&(u.min(v), u.max(v)), |&(e, _)| e);
            list[at.expect("factor edge of a product edge")].1
        };
        let pair = KroneckerPair::new(a, b, SelfLoopMode::AsIs).unwrap();
        let oracle = ClusteringOracle::new(&pair).unwrap();
        let c = generate::materialize(&pair);
        for (p, &want) in clustering::vertex_clustering(&c).iter().enumerate() {
            let p = p as u64;
            let got = oracle.vertex_clustering_of(p).unwrap();
            prop_assert!(
                rel_err(got, want) <= 1e-12,
                "η at {}: oracle {} vs direct {}", p, got, want
            );
            let (i, k) = pair.split(p);
            let (i, k) = (i as usize, k as usize);
            if d_a[i] >= 2 && d_b[k] >= 2 {
                let theta = oracle.theta(p).unwrap();
                prop_assert!((1.0 / 3.0..1.0).contains(&theta), "θ at {} = {}", p, theta);
                let law = theta * eta_a[i] * eta_b[k];
                prop_assert!(rel_err(law, want) <= 1e-12, "Thm. 1 at {}: {} vs {}", p, law, want);
            }
        }
        for ((p, q), want) in clustering::edge_clustering(&c) {
            let got = oracle.edge_clustering_of(p, q).unwrap();
            prop_assert!(
                rel_err(got, want) <= 1e-12,
                "ξ at ({}, {}): oracle {} vs direct {}", p, q, got, want
            );
            let ((i, k), (j, l)) = (pair.split(p), pair.split(q));
            let min_a = d_a[i as usize].min(d_a[j as usize]);
            let min_b = d_b[k as usize].min(d_b[l as usize]);
            if min_a >= 2 && min_b >= 2 {
                let phi = oracle.phi(p, q).unwrap();
                prop_assert!(phi > 0.0 && phi < 1.0, "φ at ({}, {}) = {}", p, q, phi);
                let law = phi * xi(&xi_a, i, j) * xi(&xi_b, k, l);
                prop_assert!(
                    rel_err(law, want) <= 1e-12,
                    "Thm. 2 at ({}, {}): {} vs {}", p, q, law, want
                );
            }
        }
    }

    /// Distances: hops, eccentricity, diameter under full self loops.
    #[test]
    fn distances_match_direct(a in graph(5), b in graph(5)) {
        let pair = KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap();
        let oracle = DistanceOracle::new(&pair).unwrap();
        let c = generate::materialize(&pair);
        for p in 0..pair.n_c() {
            let hops = distance::bfs_hops(&c, p);
            for q in 0..pair.n_c() {
                prop_assert_eq!(oracle.hops_of(p, q).unwrap(), hops[q as usize]);
            }
            prop_assert_eq!(
                oracle.eccentricity_of(p).unwrap(),
                hops.iter().copied().max().unwrap()
            );
        }
        prop_assert_eq!(oracle.diameter(), distance::diameter(&c));
    }

    /// Thm. 5 / Cor. 5: with full self loops in `A` only, every product
    /// hop count (the diagonal included) and the diameter lie within the
    /// oracle's `max ≤ · ≤ max + 1` bounds, and a pair is unreachable
    /// exactly when its bounds say so.
    #[test]
    fn relaxed_distance_bounds_hold(a in graph(5), b in graph(5)) {
        let pair = KroneckerPair::as_is(a.with_full_self_loops(), b).unwrap();
        let oracle = DistanceOracle::new_relaxed(&pair).unwrap();
        let c = generate::materialize(&pair);
        for p in 0..pair.n_c() {
            let hops = distance::bfs_hops(&c, p);
            for q in 0..pair.n_c() {
                let (h, bounds) = (hops[q as usize], oracle.hops_bounds(p, q).unwrap());
                prop_assert_eq!(
                    h == distance::UNREACHABLE,
                    bounds.lower == distance::UNREACHABLE,
                    "reachability of ({}, {}): hops {} vs {:?}", p, q, h, bounds
                );
                prop_assert!(
                    bounds.lower <= h && h <= bounds.upper,
                    "hops({}, {}) = {} outside {:?}", p, q, h, bounds
                );
            }
        }
        let (d, bounds) = (distance::diameter(&c), oracle.diameter_bounds());
        prop_assert!(bounds.lower <= d && d <= bounds.upper, "diameter {} outside {:?}", d, bounds);
    }

    /// Closeness: naive formula = fast formula = direct BFS sum.
    #[test]
    fn closeness_matches_direct(a in graph(5), b in graph(4)) {
        use kronecker::core::closeness::{closeness_fast, closeness_naive};
        let pair = KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap();
        let oracle = DistanceOracle::new(&pair).unwrap();
        let c = generate::materialize(&pair);
        for p in 0..pair.n_c() {
            let direct = distance::closeness(&c, p);
            let naive = closeness_naive(&oracle, p).unwrap();
            let fast = closeness_fast(&oracle, p).unwrap();
            prop_assert!((naive - direct).abs() < 1e-9, "naive {} vs direct {}", naive, direct);
            prop_assert!((fast - direct).abs() < 1e-9, "fast {} vs direct {}", fast, direct);
        }
    }

    /// Thm. 6: Kronecker vertex-set profiles match materialized profiles
    /// for arbitrary member sets.
    #[test]
    fn community_profiles_match_direct(
        a in graph(6),
        b in graph(5),
        mask_a in proptest::collection::vec(proptest::bool::ANY, 6),
        mask_b in proptest::collection::vec(proptest::bool::ANY, 5),
    ) {
        let pair = KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap();
        let oracle = CommunityOracle::new(&pair).unwrap();
        let s_a: Vec<u64> = (0..6u64).filter(|&v| mask_a[v as usize]).collect();
        let s_b: Vec<u64> = (0..5u64).filter(|&v| mask_b[v as usize]).collect();
        let formula = oracle.profile_of(&s_a, &s_b);
        let c = generate::materialize(&pair);
        let direct = community::community_profile(&c, &oracle.kron_vertex_set(&s_a, &s_b));
        prop_assert_eq!(formula, direct);
    }

    /// The generated arc set *is* the Kronecker product (membership test
    /// against the Def. 1 indicator on random pairs).
    #[test]
    fn membership_matches_definition(a in graph(6), b in graph(5), p in 0u64..30, q in 0u64..30) {
        let pair = KroneckerPair::as_is(a, b).unwrap();
        let c = generate::materialize(&pair);
        prop_assert_eq!(pair.has_arc(p, q), p < 30 && q < 30 && c.has_arc(p, q));
    }

    /// Edge-rejection joint counting equals per-subgraph recounting.
    #[test]
    fn rejection_joint_equals_separate(a in graph(5), b in graph(4), seed in 0u64..1000) {
        use kronecker::core::rejection::{joint_global_triangles, RejectionFamily};
        let pair = KroneckerPair::new(a, b, SelfLoopMode::FullBoth).unwrap();
        let family = RejectionFamily::new(&pair, seed);
        let c = generate::materialize(&pair);
        let thresholds = [1.0, 0.8, 0.5];
        let joint = joint_global_triangles(&c, family.hash(), &thresholds);
        for (idx, &nu) in thresholds.iter().enumerate() {
            let sub = family.materialize(nu);
            prop_assert_eq!(joint[idx], triangles::global_triangles(&sub));
        }
    }
}
