//! Equivalence suite for the PR 6 bitmap kernel tier.
//!
//! Every kernel tier is an *optimization*, never a semantic change: the
//! word-parallel bitmap triangle kernel must produce bit-identical
//! counts to the marking kernel (and both to the enumeration oracle),
//! and the multi-source bitset BFS must reproduce the scalar BFS rows
//! element for element. This suite pins that across random graphs, the
//! deterministic generator zoo the chaos suite draws from, Kronecker
//! products whose rows the default tier both packs and lists, and both
//! self-loop modes.

use proptest::prelude::*;

use kron_analytics::distance::{
    bfs_distances, bfs_hops, multi_source_bfs_distances, multi_source_bfs_hops,
};
use kron_analytics::triangles::{
    enumerate_triangles, global_triangles_with, vertex_triangles_with, TriangleCounts,
    TriangleKernel,
};
use kron_graph::generators::{barabasi_albert, clique, cycle, erdos_renyi, path, rmat, star, RmatConfig};
use kron_graph::{CsrGraph, EdgeList, VertexId};

const KERNELS: [TriangleKernel; 3] =
    [TriangleKernel::Auto, TriangleKernel::Marking, TriangleKernel::Bitmap];

/// Builds an undirected loop-free graph from a raw arc bag.
fn undirected(n: u64, raw: Vec<(u64, u64)>) -> CsrGraph {
    let mut list = EdgeList::from_arcs(n, raw).expect("arcs in range by strategy");
    list.symmetrize();
    list.remove_self_loops();
    CsrGraph::from_edge_list(&list)
}

fn raw_arcs(n: u64, max_arcs: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_arcs)
}

/// Reference triangle counts via the order-pinned enumeration kernel.
fn enumerated(g: &CsrGraph) -> TriangleCounts {
    let mut per_vertex = vec![0u64; g.n() as usize];
    let mut global = 0u64;
    enumerate_triangles(g, |u, v, w| {
        per_vertex[u as usize] += 1;
        per_vertex[v as usize] += 1;
        per_vertex[w as usize] += 1;
        global += 1;
    });
    TriangleCounts { per_vertex, global }
}

/// Asserts all three kernel tiers agree with the enumeration reference
/// exactly.
fn assert_triangle_tiers_agree(g: &CsrGraph, label: &str) {
    let reference = enumerated(g);
    for kernel in KERNELS {
        let counts = vertex_triangles_with(g, kernel);
        assert_eq!(counts, reference, "{label}: {kernel:?}");
        assert_eq!(
            global_triangles_with(g, kernel),
            reference.global,
            "{label}: {kernel:?} global"
        );
    }
}

/// The `Auto` tier's row kinds, derived from the graph by the documented
/// rule: rank vertices by `(degree, id)`, orient each non-loop edge to
/// the higher rank, and take each non-empty forward row `F` of a vertex
/// `v` as packed when its word window `[min / 64, max / 64]` has at most
/// `|F|` words, else as CSR-read when `v` has at most `2·|F|` neighbors,
/// else as listed. Returns the `(packed, CSR-read, listed)` row counts.
fn auto_rows(g: &CsrGraph) -> (usize, usize, usize) {
    let order = g.degree_rank_order();
    let mut rank = vec![0u64; order.len()];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u64;
    }
    let (mut packed, mut csr_read, mut listed) = (0, 0, 0);
    for (r, &v) in order.iter().enumerate() {
        let fwd: Vec<u64> = g
            .neighbors(v)
            .iter()
            .map(|&w| rank[w as usize])
            .filter(|&rw| rw > r as u64)
            .collect();
        let (Some(lo), Some(hi)) = (fwd.iter().min(), fwd.iter().max()) else {
            continue;
        };
        let words = (hi >> 6) - (lo >> 6) + 1;
        if words <= fwd.len() as u64 {
            packed += 1;
        } else if g.degree(v) <= 2 * fwd.len() as u64 {
            csr_read += 1;
        } else {
            listed += 1;
        }
    }
    (packed, csr_read, listed)
}

/// `A ⊗ B`: arcs `(i, j)` of `A` and `(k, l)` of `B` give the arc
/// `(i·n_B + k, j·n_B + l)`.
fn kronecker(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
    let nb = b.n();
    let arcs: Vec<(u64, u64)> = a
        .arcs()
        .flat_map(|(i, j)| b.arcs().map(move |(k, l)| (i * nb + k, j * nb + l)))
        .collect();
    CsrGraph::from_arcs(a.n() * nb, arcs).expect("product arcs in range")
}

/// A random dense undirected loop-free factor on `n` vertices: the
/// circulant backbone `i ~ i ± 1, i ± 2 (mod n)` (minimum degree 4) plus
/// each other pair with probability 1/2.
fn dense_factor() -> impl Strategy<Value = CsrGraph> {
    // 91 = C(14, 2) coins cover every pair of the largest factor.
    let coins = proptest::collection::vec(proptest::bool::ANY, 91);
    (8u64..15, coins).prop_map(|(n, coins)| {
        let mut list = EdgeList::new(n);
        let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
        for ((u, v), coin) in pairs.zip(coins) {
            let gap = v - u;
            if coin || gap <= 2 || gap >= n - 2 {
                list.add_undirected(u, v).expect("in range");
            }
        }
        list.sort_dedup();
        CsrGraph::from_edge_list(&list)
    })
}

/// Vertices [`with_spread_tail`] puts between `z1` and `z2`: three words
/// of ranks.
const SPREAD: u64 = 192;

/// `core` plus a pendant vertex `x` on vertex 0.
fn with_pendant(core: &CsrGraph) -> CsrGraph {
    let x = core.n();
    undirected(x + 1, core.arcs().chain([(x, 0)]).collect())
}

/// `core` plus a vertex `y` adjacent to `z1` and `z2`, whose ids sandwich
/// [`SPREAD`] vertices `b`; each `z` is also adjacent to vertex 0 and each
/// `b` to vertices 0 and 1, so the `z`s and `b`s share one degree.
///
/// Dense products pack every row (a window of at most `n/64` words is no
/// longer than a dense row), so this tail forces a sparse, wide row into
/// `with_pendant(A) ⊗ with_spread_tail(B)`. There `(c, z1)`, `(c, b)` and
/// `(c, z2)` share a degree for each `c`, so they are ranked by id, and
/// the forward row of `(x, y)`, `{(0, z1), (0, z2)}` as-is, spans at least
/// `SPREAD + 1` ranks: a window of at least 4 words for 2 entries. With
/// full self loops it gains `(x, z1)`, `(x, z2)` and `(0, y)`: 5 entries
/// over at least `2·SPREAD + 4` ranks, 7 words. Either way the `Auto`
/// tier cannot pack it, while the dense core's rows still pack.
fn with_spread_tail(core: &CsrGraph) -> CsrGraph {
    let y = core.n();
    let (z1, z2) = (y + 1, y + 2 + SPREAD);
    let mut arcs: Vec<(u64, u64)> = core.arcs().collect();
    arcs.extend([(y, z1), (y, z2), (z1, 0), (z2, 0)]);
    arcs.extend((z1 + 1..z2).flat_map(|b| [(b, 0), (b, 1)]));
    undirected(z2 + 1, arcs)
}

/// Asserts the bitset BFS reproduces every scalar BFS row exactly.
fn assert_bfs_rows_agree(g: &CsrGraph, label: &str) {
    let sources: Vec<VertexId> = (0..g.n()).collect();
    let dist_rows = multi_source_bfs_distances(g, &sources);
    let hop_rows = multi_source_bfs_hops(g, &sources);
    for (i, &src) in sources.iter().enumerate() {
        assert_eq!(dist_rows[i], bfs_distances(g, src), "{label}: distances from {src}");
        assert_eq!(hop_rows[i], bfs_hops(g, src), "{label}: hops from {src}");
    }
}

/// The deterministic generator zoo (the families the chaos suite draws
/// its factors from, plus skewed R-MAT), in both self-loop modes.
fn zoo() -> Vec<(String, CsrGraph)> {
    let mut out = Vec::new();
    let base: Vec<(&str, CsrGraph)> = vec![
        ("path(9)", path(9)),
        ("cycle(8)", cycle(8)),
        ("star(9)", star(9)),
        ("clique(7)", clique(7)),
        ("erdos_renyi(24,0.2)", erdos_renyi(24, 0.2, 77)),
        ("erdos_renyi(40,0.5)", erdos_renyi(40, 0.5, 5)),
        ("barabasi_albert(60,3)", barabasi_albert(60, 3, 9)),
        ("rmat(scale 6)", rmat(&RmatConfig::graph500(6, 12))),
        ("empty(5)", CsrGraph::from_arcs(5, vec![]).unwrap()),
    ];
    for (name, g) in base {
        out.push((format!("{name} loop-free"), g.clone()));
        out.push((format!("{name} full loops"), g.with_full_self_loops()));
    }
    out
}

#[test]
fn triangle_tiers_agree_on_zoo() {
    for (label, g) in zoo() {
        assert_triangle_tiers_agree(&g, &label);
    }
}

#[test]
fn triangle_tiers_agree_on_packing_product() {
    // The zoo's graphs barely give the `Auto` tier a choice; the product
    // of two R-MAT scale-6 factors has rows of all three kinds: dense
    // rows packed, rows with few backward arcs read from the CSR, and a
    // residue of hubs whose few forward neighbors span a long window.
    let a = rmat(&RmatConfig::graph500(6, 22)).with_full_self_loops();
    let b = rmat(&RmatConfig::graph500(6, 23)).with_full_self_loops();
    let c = kronecker(&a, &b);
    assert_eq!(auto_rows(&c), (2_801, 1_229, 54), "R-MAT(6) x R-MAT(6) full loops");
    assert_triangle_tiers_agree(&c, "R-MAT(6) x R-MAT(6) full loops");
}

#[test]
fn bitset_bfs_agrees_on_zoo() {
    for (label, g) in zoo() {
        assert_bfs_rows_agree(&g, &label);
    }
}

#[test]
fn bitset_bfs_agrees_on_directed_graphs() {
    // The bitset BFS pushes along out-arcs, exactly like the scalar BFS;
    // directed inputs (which the triangle kernels never see) must agree
    // too — the distance oracle relies on this for directed factors.
    let dag = CsrGraph::from_arcs(6, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
    let dir_cycle =
        CsrGraph::from_arcs(5, (0..5).map(|v| (v, (v + 1) % 5)).collect::<Vec<_>>()).unwrap();
    assert_bfs_rows_agree(&dag, "dag");
    assert_bfs_rows_agree(&dir_cycle, "directed cycle");
    assert_bfs_rows_agree(&dir_cycle.with_full_self_loops(), "directed cycle + loops");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All triangle kernel tiers agree with enumeration on random
    /// undirected graphs, with and without full self loops.
    #[test]
    fn triangle_tiers_agree_on_random(raw in raw_arcs(18, 120)) {
        let g = undirected(18, raw);
        assert_triangle_tiers_agree(&g, "random");
        assert_triangle_tiers_agree(&g.with_full_self_loops(), "random + loops");
    }

    /// All tiers agree with enumeration on Kronecker products of random
    /// dense factors with sparse tails, in both self-loop modes, where the
    /// `Auto` tier packs some rows and reads others element by element.
    #[test]
    fn triangle_tiers_agree_on_dense_products(a in dense_factor(), b in dense_factor()) {
        let (a, b) = (with_pendant(&a), with_spread_tail(&b));
        let products = [
            ("as-is", kronecker(&a, &b)),
            ("full loops", kronecker(&a.with_full_self_loops(), &b.with_full_self_loops())),
        ];
        for (mode, c) in products {
            let (packed, csr_read, listed) = auto_rows(&c);
            let label = format!("{} x {} vertices, {mode}", a.n(), b.n());
            prop_assert!(
                packed > 0 && csr_read + listed > 0,
                "{label}: {packed} packed, {csr_read} CSR-read, {listed} listed"
            );
            assert_triangle_tiers_agree(&c, &label);
        }
    }

    /// The bitset BFS agrees with scalar BFS on random graphs — raw
    /// (possibly directed, possibly self-looped) and symmetrized.
    #[test]
    fn bitset_bfs_agrees_on_random(raw in raw_arcs(30, 150)) {
        let raw_graph = CsrGraph::from_arcs(30, raw.clone()).unwrap();
        assert_bfs_rows_agree(&raw_graph, "raw directed");
        let sym = undirected(30, raw);
        assert_bfs_rows_agree(&sym, "symmetrized");
        assert_bfs_rows_agree(&sym.with_full_self_loops(), "symmetrized + loops");
    }
}
