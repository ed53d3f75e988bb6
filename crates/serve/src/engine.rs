//! The query engine: answers every protocol query from factor-sized
//! precomputed state, never touching a materialized `C`.
//!
//! Built once at server startup from a [`KroneckerPair`]. The temporary
//! `kron_core` oracles (which borrow the pair) run during construction
//! and their factor-sized tables are copied out, so the engine is a
//! self-contained `'static`-friendly value that workers share through an
//! `Arc`:
//!
//! | query         | state                                        | per query |
//! |---------------|----------------------------------------------|-----------|
//! | Neighbors     | factor CSRs                                  | O(deg)    |
//! | Degree        | effective degree vectors `d_A`, `d_B`        | O(1)      |
//! | TriangleCount | base `t`, `d` vectors (Cor. 1 formula)       | O(1)      |
//! | Closeness     | closeness-table classes + dense f64 grid     | O(1)      |
//! | CommunityId   | factor connected-component labels (Def. 16)  | O(1)      |
//! | HopsFromRoot  | the root's two factor hop rows (Thm. 3)      | O(1)      |
//!
//! A Neighbors reply is written straight from the two factor rows into
//! the caller's reply buffer: no product row is stored anywhere, not
//! even for the duration of one request.
//!
//! Closeness follows the `closeness_batch` collapse: one
//! `closeness_from_cumulative` evaluation per distinct table-class pair,
//! memoized eagerly into a dense grid of `f64` bits at startup — the
//! same pure function over value-equal tables that makes the collapsed
//! batch bit-identical to `closeness_fast`, so served bits match direct
//! per-vertex oracle evaluation exactly.

use kron_analytics::distance::UNREACHABLE;
use kron_analytics::triangles::vertex_triangles;
use kron_core::closeness::closeness_from_cumulative;
use kron_core::distance::DistanceOracle;
use kron_core::{KroneckerPair, SelfLoopMode};
use kron_graph::connectivity::connected_components;
use kron_graph::generators::{rmat, RmatConfig};

use crate::protocol::{self, ErrorCode, Query, QueryKind};

/// Past this many distinct closeness-table-class pairs the eager grid is
/// skipped and closeness queries combine the two cumulative tables on
/// the fly (still allocation-free, ~`O(h*)` instead of O(1)).
const GRID_CAP: usize = 1 << 20;

/// Self-contained, shareable query state (see module docs).
pub struct QueryEngine {
    pair: KroneckerPair,
    root: u64,
    // Degree: effective factor degrees.
    d_a: Vec<u64>,
    d_b: Vec<u64>,
    // Triangles: base (loop-free) factor statistics for Cor. 1.
    t_a: Vec<u64>,
    t_b: Vec<u64>,
    bd_a: Vec<u64>,
    bd_b: Vec<u64>,
    // Closeness: per-vertex table classes, deduplicated cumulative
    // tables, and the eager class-pair grid (f64 bits).
    tclass_a: Vec<u32>,
    tclass_b: Vec<u32>,
    tables_a: Vec<Vec<u64>>,
    tables_b: Vec<Vec<u64>>,
    grid: Option<Vec<u64>>,
    // Community: Def. 16 Kronecker-partition labels from the factors'
    // connected components.
    comm_a: Vec<u32>,
    comm_b: Vec<u32>,
    comm_b_count: u32,
    // Hops from root: the root's factor hop rows (Thm. 3 max-combine).
    hops_root_a: Vec<u32>,
    hops_root_b: Vec<u32>,
}

impl QueryEngine {
    /// Builds the engine. Requires the `FullBoth` construction over
    /// loop-free factors — the only regime in which all six query kinds
    /// have exact closed forms (Thm. 3/4/6, Cor. 1) — and a valid root.
    pub fn from_pair(pair: KroneckerPair, root: u64) -> kron_core::Result<QueryEngine> {
        let _span = kron_obs::span::enter("serve/engine_build");
        pair.require_full_self_loops("kron-serve distance/closeness queries")?;
        pair.require_base_loop_free("kron-serve triangle queries")?;
        assert_eq!(
            pair.mode(),
            SelfLoopMode::FullBoth,
            "loop-free bases with full effective loops implies FullBoth"
        );
        pair.check_vertex(root)?;

        let d_a = pair.a().degrees();
        let d_b = pair.b().degrees();
        let t_a = vertex_triangles(pair.base_a()).per_vertex;
        let t_b = vertex_triangles(pair.base_b()).per_vertex;
        let bd_a = pair.base_a().degrees();
        let bd_b = pair.base_b().degrees();

        let dist = DistanceOracle::new(&pair)?;
        let tclass_a: Vec<u32> = (0..pair.a().n()).map(|i| dist.table_class_a(i)).collect();
        let tclass_b: Vec<u32> = (0..pair.b().n()).map(|k| dist.table_class_b(k)).collect();
        let tables_a = dist.closeness_tables_a().to_vec();
        let tables_b = dist.closeness_tables_b().to_vec();
        let cells = tables_a.len() * tables_b.len();
        let grid = (cells <= GRID_CAP).then(|| {
            let mut g = Vec::with_capacity(cells);
            for ta in &tables_a {
                for tb in &tables_b {
                    g.push(closeness_from_cumulative(ta, tb).to_bits());
                }
            }
            g
        });
        let (ri, rk) = pair.split(root);
        let hops_root_a = dist.hops_a_row(ri).to_vec();
        let hops_root_b = dist.hops_b_row(rk).to_vec();
        drop(dist);

        let comps_a = connected_components(pair.a());
        let comps_b = connected_components(pair.b());

        kron_obs::counter!("serve.engine_builds").inc();
        Ok(QueryEngine {
            root,
            d_a,
            d_b,
            t_a,
            t_b,
            bd_a,
            bd_b,
            tclass_a,
            tclass_b,
            tables_a,
            tables_b,
            grid,
            comm_a: comps_a.labels,
            comm_b: comps_b.labels,
            comm_b_count: comps_b.count,
            hops_root_a,
            hops_root_b,
            pair,
        })
    }

    /// The bench-scale engine: two graph500 R-MAT factors under
    /// `FullBoth`, root 0, as `kron-serve` builds them.
    pub fn bench(scale: u32, seed_a: u64, seed_b: u64) -> QueryEngine {
        QueryEngine::bench_with_root(scale, seed_a, seed_b, 0)
    }

    /// [`QueryEngine::bench`] with an explicit `HopsFromRoot` root.
    pub fn bench_with_root(scale: u32, seed_a: u64, seed_b: u64, root: u64) -> QueryEngine {
        let a = rmat(&RmatConfig::graph500(scale, seed_a));
        let b = rmat(&RmatConfig::graph500(scale, seed_b));
        let pair = KroneckerPair::with_full_self_loops(a, b).expect("R-MAT factors are loop-free");
        QueryEngine::from_pair(pair, root).expect("FullBoth pair satisfies every precondition")
    }

    /// The pair this engine answers for.
    pub fn pair(&self) -> &KroneckerPair {
        &self.pair
    }

    /// Product vertex count.
    pub fn n_c(&self) -> u64 {
        self.pair.n_c()
    }

    /// The configured root for `HopsFromRoot`.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// `d_C(p) = d_A(i)·d_B(k)`.
    pub fn degree(&self, p: u64) -> u64 {
        let (i, k) = self.pair.split(p);
        self.d_a[i as usize] * self.d_b[k as usize]
    }

    /// Cor. 1 (FullBoth):
    /// `t_p = 2 t_i t_k + 3(t_i d_k + d_i d_k + d_i t_k) + t_i + t_k`
    /// over the **base** factor statistics.
    pub fn triangles(&self, p: u64) -> u64 {
        let (i, k) = self.pair.split(p);
        let (ti, tk) = (self.t_a[i as usize], self.t_b[k as usize]);
        let (di, dk) = (self.bd_a[i as usize], self.bd_b[k as usize]);
        2 * ti * tk + 3 * (ti * dk + di * dk + di * tk) + ti + tk
    }

    /// Thm. 4 closeness as raw `f64` bits (grid lookup, or an on-the-fly
    /// table combine past [`GRID_CAP`]).
    pub fn closeness_bits(&self, p: u64) -> u64 {
        let (i, k) = self.pair.split(p);
        let xa = self.tclass_a[i as usize] as usize;
        let xb = self.tclass_b[k as usize] as usize;
        match &self.grid {
            Some(g) => g[xa * self.tables_b.len() + xb],
            None => closeness_from_cumulative(&self.tables_a[xa], &self.tables_b[xb]).to_bits(),
        }
    }

    /// Def. 16 Kronecker-partition label over factor connected
    /// components: `label_A(i) · |Π_B| + label_B(k)`.
    pub fn community_id(&self, p: u64) -> u32 {
        let (i, k) = self.pair.split(p);
        self.comm_a[i as usize] * self.comm_b_count + self.comm_b[k as usize]
    }

    /// Thm. 3: `hops_C(root, p) = max(hops_A, hops_B)`, with
    /// `UNREACHABLE` absorbing.
    pub fn hops_from_root(&self, p: u64) -> u32 {
        let (i, k) = self.pair.split(p);
        let ha = self.hops_root_a[i as usize];
        let hb = self.hops_root_b[k as usize];
        if ha == UNREACHABLE || hb == UNREACHABLE {
            UNREACHABLE
        } else {
            ha.max(hb)
        }
    }

    /// Appends the wire reply for `q` to `out`. Out-of-range vertices
    /// become error replies, and so does a Neighbors row whose reply
    /// would take more than `room` bytes (the frame's reply budget, see
    /// the [`protocol`] docs). Nothing here allocates once `out` has
    /// grown to the largest reply.
    pub fn reply_into(&self, q: Query, room: usize, out: &mut Vec<u8>) {
        if q.vertex >= self.n_c() {
            protocol::put_err(out, ErrorCode::VertexOutOfRange, q.vertex);
            return;
        }
        match q.kind {
            QueryKind::Neighbors => self.neighbors_into(q.vertex, room, out),
            QueryKind::Degree => {
                protocol::put_ok_u64(out, QueryKind::Degree, self.degree(q.vertex));
            }
            QueryKind::TriangleCount => {
                protocol::put_ok_u64(out, QueryKind::TriangleCount, self.triangles(q.vertex));
            }
            QueryKind::Closeness => {
                protocol::put_ok_u64(out, QueryKind::Closeness, self.closeness_bits(q.vertex));
            }
            QueryKind::CommunityId => {
                protocol::put_ok_u32(out, QueryKind::CommunityId, self.community_id(q.vertex));
            }
            QueryKind::HopsFromRoot => {
                protocol::put_ok_u32(out, QueryKind::HopsFromRoot, self.hops_from_root(q.vertex));
            }
        }
    }

    /// Writes the Neighbors reply of `p` straight from the two factor
    /// rows: the header, the count `d_A(i)·d_B(k)`, then `j·n_B + l` for
    /// `j` in row_A(i) and `l` in row_B(k). `j` outer / `l` inner over
    /// sorted factor rows makes the row strictly increasing — the same
    /// argument as `synthesize_row_block`. `out` is sized once for the
    /// whole row, so the loop does one add and one store per arc.
    fn neighbors_into(&self, p: u64, room: usize, out: &mut Vec<u8>) {
        let (i, k) = self.pair.split(p);
        let row_a = self.pair.a().neighbors(i);
        let row_b = self.pair.b().neighbors(k);
        let deg = (row_a.len() * row_b.len()) as u64;
        if !protocol::neighbors_fit(deg, room) {
            protocol::put_err(out, ErrorCode::ReplyTooLarge, deg);
            return;
        }
        out.push(0);
        out.push(QueryKind::Neighbors.as_u8());
        // Fits: the room check bounds `deg` by MAX_FRAME_LEN / 8.
        out.extend_from_slice(&(deg as u32).to_le_bytes());
        let at = out.len();
        out.resize(at + 8 * deg as usize, 0);
        let nb = self.pair.b().n();
        // FullBoth puts a self loop in every factor row, so `row_b` is
        // never empty and the chunk length is never 0.
        let rows = out[at..].chunks_exact_mut(8 * row_b.len());
        for (dst, &j) in rows.zip(row_a) {
            let base = u64::from(j) * nb;
            for (cell, &l) in dst.chunks_exact_mut(8).zip(row_b) {
                cell.copy_from_slice(&(base + u64::from(l)).to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::generate::synthesize_row_block;
    use kron_graph::generators::{clique, cycle, disjoint_cliques, erdos_renyi};

    fn engine() -> QueryEngine {
        let pair =
            KroneckerPair::with_full_self_loops(erdos_renyi(9, 0.4, 3), cycle(7)).unwrap();
        QueryEngine::from_pair(pair, 5).unwrap()
    }

    const ROOM: usize = protocol::MAX_FRAME_LEN - protocol::HEADER_LEN;

    #[test]
    fn rows_match_synthesize_row_block() {
        let e = engine();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for p in 0..e.n_c() {
            got.clear();
            e.reply_into(Query { kind: QueryKind::Neighbors, vertex: p }, ROOM, &mut got);
            let (offsets, cols) = synthesize_row_block(e.pair(), p..p + 1);
            assert_eq!(offsets, vec![0, cols.len()]);
            want.clear();
            protocol::put_ok_neighbors(&mut want, &cols);
            assert_eq!(got, want, "row {p}");
        }
    }

    #[test]
    fn row_past_its_room_becomes_reply_too_large() {
        let e = engine();
        let q = Query { kind: QueryKind::Neighbors, vertex: 11 };
        let deg = e.degree(q.vertex);
        let exact = 6 + 8 * deg as usize;
        let mut out = Vec::new();
        e.reply_into(q, exact, &mut out);
        assert_eq!(out.len(), exact, "a row that exactly fits is served");
        out.clear();
        e.reply_into(q, exact - 1, &mut out);
        let mut want = Vec::new();
        protocol::put_err(&mut want, ErrorCode::ReplyTooLarge, deg);
        assert_eq!(out, want);
    }

    #[test]
    fn scalars_match_core_oracles() {
        let e = engine();
        let pair = e.pair().clone();
        let tri = kron_core::triangles::TriangleOracle::new(&pair).unwrap();
        let dist = kron_core::distance::DistanceOracle::new(&pair).unwrap();
        for p in 0..pair.n_c() {
            assert_eq!(e.degree(p), kron_core::degree::degree_of(&pair, p).unwrap());
            assert_eq!(e.triangles(p), tri.vertex_triangles_of(p).unwrap());
            assert_eq!(
                e.closeness_bits(p),
                kron_core::closeness::closeness_fast(&dist, p).unwrap().to_bits(),
                "closeness bits at {p}"
            );
            assert_eq!(e.hops_from_root(p), dist.hops_of(e.root(), p).unwrap());
        }
    }

    #[test]
    fn community_matches_kron_partition() {
        let pair = KroneckerPair::with_full_self_loops(
            disjoint_cliques(2, 3),
            disjoint_cliques(3, 2),
        )
        .unwrap();
        let e = QueryEngine::from_pair(pair.clone(), 0).unwrap();
        let comm = kron_core::community::CommunityOracle::new(&pair).unwrap();
        let la = connected_components(pair.a()).labels;
        let cb = connected_components(pair.b());
        let mut seen = std::collections::BTreeSet::new();
        for p in 0..pair.n_c() {
            let expect = comm.kron_partition_label(&la, &cb.labels, cb.count as usize, p);
            assert_eq!(e.community_id(p), expect);
            seen.insert(expect);
        }
        assert_eq!(seen.len(), 6); // 2 × 3 components
    }

    #[test]
    fn out_of_range_becomes_error_reply() {
        let e = engine();
        let mut out = Vec::new();
        e.reply_into(Query { kind: QueryKind::Degree, vertex: e.n_c() }, ROOM, &mut out);
        assert_eq!(out[0], 1); // error status
        assert_eq!(out[1], ErrorCode::VertexOutOfRange.as_u8());
    }

    #[test]
    fn rejects_wrong_mode() {
        let pair = KroneckerPair::as_is(clique(3), clique(3)).unwrap();
        assert!(QueryEngine::from_pair(pair, 0).is_err());
    }

    #[test]
    fn rejects_bad_root() {
        let pair = KroneckerPair::with_full_self_loops(clique(3), clique(3)).unwrap();
        assert!(QueryEngine::from_pair(pair, 9).is_err());
    }
}
