//! Triangle participation at vertices and edges (§IV, Def. 5 / Def. 6).
//!
//! Both definitions strip the diagonal first (`A − A ∘ I_A`), so all
//! routines here operate on the loop-free core of the input graph: a self
//! loop never participates in a triangle.
//!
//! Two kinds of kernel live here. [`enumerate_triangles`] visits each
//! triangle `{u, v, w}` with `u < v < w` exactly once in identity order —
//! the contract the probabilistic-rejection experiment (§IV-C) depends
//! on — using per-row forward lists instead of per-edge binary searches.
//! The *counting* entry points ([`vertex_triangles`], [`global_triangles`]
//! and their `_with` variants) run the degree-ordered compact-forward
//! scheme of Chiba–Nishizeki (the paper's reference [22]). Each forward
//! row is read in one of three ways, chosen from the row itself: *packed*
//! into a rank-space `u64` bitmap window and closed with AND +
//! `count_ones()`, *CSR-read* straight from the graph's own row through
//! the rank table, or *listed* in a `u32` array and probe-scanned (see
//! [`Forward`]). Closing an oriented edge `ra → rb` costs at most
//! `2·|F(rb)|` element probes or `|F(rb)|` word ANDs, so the
//! `O(m^{3/2})` bound holds within a factor of 2. Counts are exact
//! integers, so every [`TriangleKernel`] tier agrees bit-for-bit; all
//! scratch is recycled through the process [`Arena`].

use kron_graph::arena::ArenaBuf;
use kron_graph::{Arena, CsrGraph, VertexId};
use serde::{Deserialize, Serialize};

/// Vertex triangle counts plus the global total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriangleCounts {
    /// `per_vertex[v]` = number of triangles containing `v`
    /// (`t_A` of Def. 5).
    pub per_vertex: Vec<u64>,
    /// Total distinct triangles (`τ_A = (1/3) Σ t_v`).
    pub global: u64,
}

/// Edge triangle counts (`Δ_A` of Def. 6), stored per canonical edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTriangles {
    edges: Vec<(VertexId, VertexId)>,
    counts: Vec<u64>,
}

impl EdgeTriangles {
    /// The triangle count at edge `{u, v}`; `None` when the edge is absent
    /// (or is a self loop, which by Def. 6 has no triangle count).
    pub fn get(&self, u: VertexId, v: VertexId) -> Option<u64> {
        let key = (u.min(v), u.max(v));
        self.edges.binary_search(&key).ok().map(|idx| self.counts[idx])
    }

    /// Iterates `((u, v), Δ_uv)` over canonical edges (`u < v`).
    pub fn iter(&self) -> impl Iterator<Item = ((VertexId, VertexId), u64)> + '_ {
        self.edges.iter().copied().zip(self.counts.iter().copied())
    }

    /// Number of stored (canonical, loop-free) edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph had no loop-free edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Counts common neighbors of two sorted neighbor slices, skipping entries
/// equal to `a` or `b` (self-loop arcs in either list).
fn intersect_count(left: &[u32], right: &[u32], a: u32, b: u32) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let w = left[i];
                if w != a && w != b {
                    count += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Selects the triangle-counting kernel tier.
///
/// All three tiers count the identical triangle set with exact integer
/// arithmetic, so their outputs are bit-for-bit equal; they differ only
/// in which forward rows are *packed*, and so in how an oriented edge
/// `ra → rb` is *closed*: by AND + `count_ones()` over `rb`'s packed
/// window, or by probing `rb`'s entries element by element against the
/// anchor's one-bit-per-vertex marks (see [`Forward`] for the three row
/// kinds).
///
/// * [`Auto`](TriangleKernel::Auto) — the default: a row is packed when
///   its rank-space window has at most `|F|` words, so every edge is
///   closed by whichever store is cheaper for its `rb`.
/// * [`Marking`](TriangleKernel::Marking) — no row is packed: the
///   Chiba–Nishizeki vertex-marking kernel everywhere.
/// * [`Bitmap`](TriangleKernel::Bitmap) — every non-empty row is packed,
///   whatever its window. Memory is `O(Σ window)` words, so forced
///   packing is meant for validation, not production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TriangleKernel {
    /// Pack exactly the rows whose window is no longer than the row.
    #[default]
    Auto,
    /// Pack no row: element-wise probe scans everywhere.
    Marking,
    /// Pack every non-empty row: word ANDs everywhere.
    Bitmap,
}

/// Packed windows are addressed by `u32` word offsets, so all windows
/// together may hold at most 2^32 words (32 GiB).
const MAX_WINDOW_WORDS: u64 = 1 << 32;

/// Panics when the packed windows would need more words than their `u32`
/// offsets can address: past the limit a start would wrap onto another
/// row's window and the counts would silently go wrong.
fn check_window_words(total: u64) {
    assert!(
        total <= MAX_WINDOW_WORDS,
        "packed triangle rows need {total} window words, past the 2^32-word \
         (32 GiB) limit of their u32 offsets"
    );
}

/// Degree-ordered forward adjacency — the compact structure of
/// Chiba–Nishizeki. Vertices are ranked ascending by `(degree, id)` (the
/// cached [`CsrGraph::degree_rank_order`] permutation); every undirected
/// non-loop edge is oriented from its lower-ranked to its higher-ranked
/// endpoint; forward lists live in rank space. Ranks are `u32`, like the
/// CSR's own neighbor ids (a `CsrGraph` holds at most 2^32 vertices).
///
/// The payoff is the classic `O(m^{3/2})` bound: each forward list has at
/// most `O(√m)` entries, so closing an oriented edge is cheap even at hub
/// vertices — unlike the identity-order enumeration, where a hub's full
/// neighbor list is walked once per incident edge.
///
/// Each non-empty forward row `F(r)` of the vertex `v = order[r]` is one
/// of three kinds, taken in this order from the row itself:
///
/// * **packed** when its rank-space window, the word span
///   `[min F(r) / 64, max F(r) / 64]`, has at most `|F(r)|` words: only
///   that window is stored, as a bitmap (so skewed Kronecker degree
///   distributions don't pay `n/64` words per row), and closing an edge
///   into the row costs at most `|F(r)|` word ANDs;
/// * **CSR-read** when `v`'s CSR row has at most `2·|F(r)|` entries:
///   nothing is stored; the kernel scans `g.neighbors(v)` through the
///   rank table and keeps the entries ranked above `r`, at most
///   `2·|F(r)|` element probes;
/// * **listed** otherwise (a hub whose few forward neighbors are spread
///   over a long window): its ranks, in CSR order, in one `u32` array,
///   `|F(r)|` probes.
///
/// So no close costs more than `2·|F(rb)|` probes, and the bound holds
/// within a factor of 2. [`TriangleKernel::Marking`] packs no row and
/// [`TriangleKernel::Bitmap`] every non-empty one; the other rows follow
/// the CSR-read/listed rule in every tier. An empty row is listed with no
/// entries, so a hub without forward neighbors is never scanned.
struct Forward<'g> {
    g: &'g CsrGraph,
    /// `order[r]` = vertex holding rank `r` (ascending `(degree, id)`),
    /// borrowed from the graph's cached degree-rank permutation.
    order: &'g [VertexId],
    /// `rank[v]` = rank of vertex `v`: CSR-read rows map their entries
    /// through it.
    rank: Vec<u32>,
    /// Offsets of the listed rows in `targets`; every other row's span is
    /// empty. `u64` words, so [`Forward::into_vertex_space`] can reuse
    /// them for the result.
    offsets: Vec<u64>,
    /// Forward neighbors of the listed rows, as ranks.
    targets: Vec<u32>,
    /// `slot[r]` = index into `meta` for a packed row, else [`LISTED`] or
    /// [`CSR_READ`].
    slot: Vec<u32>,
    meta: Vec<PackedMeta>,
    /// The packed windows, back to back.
    words: Vec<u64>,
    /// Length of the longest forward list (scratch-buffer sizing).
    max_forward: usize,
}

/// One forward row as the kernel reads it (see [`Forward`]).
enum Row<'a> {
    Packed(PackedMeta),
    /// The vertex's whole CSR row, as vertex ids.
    Csr(&'a [u32]),
    /// The row's forward ranks.
    Listed(&'a [u32]),
}

/// One packed forward row: bits of `F(r)` over the word window
/// `[base, base + len)` of the rank-space bitmap.
#[derive(Clone, Copy)]
struct PackedMeta {
    /// Index of the window's first word in [`Forward::words`].
    start: u32,
    /// First rank-space word index covered by the window.
    base: u32,
    /// Window length in words.
    len: u32,
}

/// [`Forward::slot`] of a listed row.
const LISTED: u32 = u32::MAX;
/// [`Forward::slot`] of a CSR-read row.
const CSR_READ: u32 = u32::MAX - 1;

/// Per-call kernel telemetry, accumulated locally in the hot loop and
/// published to `kron-obs` counters once per invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KernelStats {
    /// Anchors that closed ≥ 1 edge on the word-parallel path.
    anchors_bitmap: u64,
    /// Anchors that closed every edge on the probe-scan path.
    anchors_marking: u64,
    /// `u64` words ANDed + popcounted on the bitmap path.
    words_probed: u64,
    /// Elements probe-scanned on the marking path: a listed row's
    /// entries, or a CSR-read row's whole CSR row.
    elements_probed: u64,
}

impl KernelStats {
    fn publish(&self) {
        kron_obs::counter!("triangles.anchors_bitmap").add(self.anchors_bitmap);
        kron_obs::counter!("triangles.anchors_marking").add(self.anchors_marking);
        kron_obs::counter!("triangles.words_probed").add(self.words_probed);
        kron_obs::counter!("triangles.elements_probed").add(self.elements_probed);
    }
}

/// Probes the ranks of one row against the anchor's marks, keeping only
/// ranks above `floor` (a CSR row also holds the row's own loop and its
/// backward entries), credits each match's third corner in `per_rank`,
/// and returns the number of matches. Matches are compacted into `buf`
/// branch-free (`buf[matches] = w; matches += bit`), so only they pay a
/// scattered write; every probe writes one slot past the matches so far,
/// so `buf` needs one slot more than the row can match.
#[inline]
fn probe(
    marks: &[u64],
    ranks: impl Iterator<Item = u32>,
    floor: u32,
    buf: &mut [u32],
    per_rank: &mut [u64],
) -> u64 {
    let mut matches = 0usize;
    for w in ranks {
        let bit = (marks[(w >> 6) as usize] >> (w & 63)) & u64::from(w > floor);
        buf[matches] = w;
        matches += bit as usize;
    }
    for &w in &buf[..matches] {
        per_rank[w as usize] += 1;
    }
    matches as u64
}

impl<'g> Forward<'g> {
    /// Builds the forward rows in two passes over the graph.
    ///
    /// The sizing pass measures each row's length and window, picks its
    /// kind by the rule on [`Forward`], and lays out the list and the
    /// windows, so each is allocated once, at its exact size. The fill
    /// pass then writes the listed and packed rows; a CSR-read row needs
    /// nothing but the rank table, which lives on for counting.
    fn build(g: &'g CsrGraph, kernel: TriangleKernel) -> Self {
        let n = g.n() as usize;
        let order = g.degree_rank_order();
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        let forward_of = |r: usize| {
            g.neighbors(order[r])
                .iter()
                .map(|&w| rank[w as usize])
                .filter(move |&rw| rw > r as u32)
        };

        let mut offsets = vec![0u64; n + 1];
        let mut slot = vec![LISTED; n];
        let mut meta = Vec::new();
        let mut window_words = 0u64;
        let mut max_forward = 0usize;
        for r in 0..n {
            let (mut count, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
            for w in forward_of(r) {
                count += 1;
                lo = lo.min(w >> 6);
                hi = hi.max(w >> 6);
            }
            max_forward = max_forward.max(count);
            let packed = count > 0
                && match kernel {
                    TriangleKernel::Marking => false,
                    TriangleKernel::Bitmap => true,
                    TriangleKernel::Auto => (hi - lo + 1) as usize <= count,
                };
            if packed {
                let start = window_words;
                let len = hi - lo + 1;
                window_words += u64::from(len);
                check_window_words(window_words);
                slot[r] = meta.len() as u32;
                meta.push(PackedMeta { start: start as u32, base: lo, len });
            } else if count > 0 && g.neighbors(order[r]).len() <= 2 * count {
                slot[r] = CSR_READ;
            }
            offsets[r + 1] = offsets[r] + if slot[r] == LISTED { count as u64 } else { 0 };
        }
        // Only a 2^32-vertex graph with every row but the last packed
        // could reach the two sentinel slots.
        assert!(meta.len() <= CSR_READ as usize, "packed rows exceed the u32 slot ids");

        let mut targets = Vec::with_capacity(offsets[n] as usize);
        let mut words = vec![0u64; usize::try_from(window_words).expect("window words fit usize")];
        for (r, &s) in slot.iter().enumerate() {
            match s {
                LISTED => targets.extend(forward_of(r)),
                CSR_READ => {}
                s => {
                    let m = meta[s as usize];
                    let window = &mut words[m.start as usize..][..m.len as usize];
                    for w in forward_of(r) {
                        window[((w >> 6) - m.base) as usize] |= 1u64 << (w & 63);
                    }
                }
            }
        }
        kron_obs::counter!("triangles.packed_rows").add(meta.len() as u64);
        kron_obs::counter!("triangles.packed_bytes").add(8 * window_words);
        Forward { g, order, rank, offsets, targets, slot, meta, words, max_forward }
    }

    /// How row `r` is read.
    #[inline]
    fn row(&self, r: usize) -> Row<'_> {
        match self.slot[r] {
            LISTED => {
                Row::Listed(&self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize])
            }
            CSR_READ => Row::Csr(self.g.neighbors(self.order[r])),
            s => Row::Packed(self.meta[s as usize]),
        }
    }

    /// The window of a packed row.
    #[inline]
    fn window(&self, m: PackedMeta) -> &[u64] {
        &self.words[m.start as usize..][..m.len as usize]
    }

    /// Calls `f` with every rank of `F(r)`: a listed or CSR-read row in
    /// CSR order, a packed row in ascending rank order.
    #[inline]
    fn for_each_forward(&self, r: usize, mut f: impl FnMut(usize)) {
        match self.row(r) {
            Row::Listed(list) => list.iter().for_each(|&w| f(w as usize)),
            Row::Csr(row) => {
                for &v in row {
                    let w = self.rank[v as usize];
                    if w > r as u32 {
                        f(w as usize);
                    }
                }
            }
            Row::Packed(m) => {
                for (wi, &word) in (m.base as usize..).zip(self.window(m)) {
                    let mut y = word;
                    while y != 0 {
                        f((wi << 6) + y.trailing_zeros() as usize);
                        y &= y - 1;
                    }
                }
            }
        }
    }

    /// Frees the forward rows, then permutes rank-space counts back to
    /// vertex space into the list offsets' `n + 1` words, which counting
    /// no longer needs: the result costs no allocation of its own.
    fn into_vertex_space(mut self, per_rank: &[u64]) -> Vec<u64> {
        let mut per_vertex = std::mem::take(&mut self.offsets);
        let order = self.order;
        drop(self);
        per_vertex.truncate(order.len());
        for (r, &v) in order.iter().enumerate() {
            per_vertex[v as usize] = per_rank[r];
        }
        per_vertex
    }

    /// The counting pass: counts every triangle, anchored at its
    /// lowest-ranked corner, into rank-space participation counts and
    /// publishes the kernel counters. Per anchor `ra`, `F(ra)` is marked
    /// in the rank-indexed bitmap, recording which words were touched: a
    /// listed or CSR-read anchor sets one bit per element, a packed
    /// anchor copies its window's non-zero words. Each oriented edge
    /// `ra → rb` is then closed on one of two paths producing the
    /// identical match set:
    ///
    /// * **probe scan** — a listed or CSR-read `rb`: walk its entries
    ///   against the marks ([`probe`]). Only matches (≈25% of probes on
    ///   Kronecker products) pay a scattered write.
    /// * **word-parallel** — a packed `rb`: stream its window against the
    ///   same span of the anchor bitmap, branch-free: `count_ones()` of
    ///   each AND yields the match total and bit iteration credits the
    ///   third corners.
    ///
    /// `rb`'s kind, fixed at build time (see [`Forward`]), picks the path
    /// and bounds its cost by `2·|F(rb)|`. Counts are exact integers, so
    /// every path mix and visit order produces bit-identical results. The
    /// anchor bitmap, its touched-word list and the match buffer come
    /// zeroed from the process [`Arena`]; the bitmap is cleared word-wise
    /// via the touched list after each anchor. Returns the per-rank counts
    /// and the global total.
    fn count(&self) -> (ArenaBuf<'static, u64>, u64) {
        let n = self.order.len();
        let arena = Arena::global();
        let mut per_rank_buf = arena.take_words(n);
        let mut bitmap_buf = arena.take_words(n.div_ceil(64));
        let mut touched_buf = arena.take_ints(self.max_forward);
        let mut matches_buf = arena.take_ints(self.max_forward + 1);
        let (per_rank, bitmap, buf) = (&mut *per_rank_buf, &mut *bitmap_buf, &mut *matches_buf);
        let touched = touched_buf.as_vec_mut();
        let mut stats = KernelStats::default();
        let mut global = 0u64;
        for ra in 0..n {
            touched.clear();
            if let Row::Packed(m) = self.row(ra) {
                for (wi, &word) in (m.base..).zip(self.window(m)) {
                    if word != 0 {
                        bitmap[wi as usize] = word;
                        touched.push(wi);
                    }
                }
            } else {
                self.for_each_forward(ra, |w| {
                    let wi = w >> 6;
                    if bitmap[wi] == 0 {
                        touched.push(wi as u32);
                    }
                    bitmap[wi] |= 1u64 << (w & 63);
                });
            }
            if touched.is_empty() {
                continue;
            }
            let marks: &[u64] = bitmap;
            let mut bitmap_edges = 0u64;
            self.for_each_forward(ra, |rb| {
                let matches = match self.row(rb) {
                    Row::Packed(m) => {
                        bitmap_edges += 1;
                        let base = m.base as usize;
                        let window = self.window(m);
                        let anchor = &marks[base..base + window.len()];
                        stats.words_probed += window.len() as u64;
                        let mut matches = 0u64;
                        for (off, (&aword, &fword)) in anchor.iter().zip(window).enumerate() {
                            let x = aword & fword;
                            if x != 0 {
                                matches += x.count_ones() as u64;
                                let mut y = x;
                                while y != 0 {
                                    let w = ((base + off) << 6) + y.trailing_zeros() as usize;
                                    per_rank[w] += 1;
                                    y &= y - 1;
                                }
                            }
                        }
                        matches
                    }
                    Row::Listed(list) => {
                        stats.elements_probed += list.len() as u64;
                        probe(marks, list.iter().copied(), rb as u32, buf, per_rank)
                    }
                    Row::Csr(row) => {
                        stats.elements_probed += row.len() as u64;
                        let ranks = row.iter().map(|&v| self.rank[v as usize]);
                        probe(marks, ranks, rb as u32, buf, per_rank)
                    }
                };
                per_rank[ra] += matches;
                per_rank[rb] += matches;
                global += matches;
            });
            if bitmap_edges > 0 {
                stats.anchors_bitmap += 1;
            } else {
                stats.anchors_marking += 1;
            }
            for &wi in touched.iter() {
                bitmap[wi as usize] = 0;
            }
        }
        stats.publish();
        (per_rank_buf, global)
    }
}

/// Per-vertex triangle participation `t_A` (Def. 5) plus the global
/// total, via the default [`TriangleKernel::Auto`] tier.
pub fn vertex_triangles(g: &CsrGraph) -> TriangleCounts {
    vertex_triangles_with(g, TriangleKernel::Auto)
}

/// [`vertex_triangles`] with an explicit kernel tier. All tiers produce
/// bit-identical counts (pinned by the equivalence suite); the knob
/// exists for validation and benchmarking.
pub fn vertex_triangles_with(g: &CsrGraph, kernel: TriangleKernel) -> TriangleCounts {
    let _span = kron_obs::span::enter("analytics/vertex_triangles");
    let f = Forward::build(g, kernel);
    let (per_rank, global) = f.count();
    TriangleCounts { per_vertex: f.into_vertex_space(&per_rank), global }
}

/// Global triangle count `τ_A`.
pub fn global_triangles(g: &CsrGraph) -> u64 {
    global_triangles_with(g, TriangleKernel::Auto)
}

/// [`global_triangles`] with an explicit kernel tier.
pub fn global_triangles_with(g: &CsrGraph, kernel: TriangleKernel) -> u64 {
    let _span = kron_obs::span::enter("analytics/global_triangles");
    Forward::build(g, kernel).count().1
}

/// Triangle participation at every edge (Def. 6):
/// `Δ_uv = |N(u) ∩ N(v)|` on the loop-free core.
pub fn edge_triangles(g: &CsrGraph) -> EdgeTriangles {
    let mut edges = Vec::new();
    let mut counts = Vec::new();
    for u in 0..g.n() {
        for &v in g.neighbors(u) {
            let v64 = u64::from(v);
            if u < v64 {
                edges.push((u, v64));
                counts.push(intersect_count(g.neighbors(u), g.neighbors(v64), u as u32, v));
            }
        }
    }
    EdgeTriangles { edges, counts }
}

/// Enumerates each triangle `{u, v, w}` with `u < v < w` exactly once.
///
/// Used directly by the probabilistic-edge-rejection experiment (§IV-C),
/// which filters enumerated triangles of `G_C` by edge-hash thresholds to
/// count triangles of every `G_{C,ν}` in one pass.
pub fn enumerate_triangles<F: FnMut(VertexId, VertexId, VertexId)>(g: &CsrGraph, mut visit: F) {
    // Forward starts: for every row, the index of its first entry greater
    // than the row's own vertex — one binary search per row instead of
    // two per (u, v) pair. Rows are sorted, so `nu[forward_start[u]..]`
    // is exactly the identity-order forward list F(u) = { w ∈ N(u) :
    // w > u }, and for `v` at position `t` of `nu`, the entries of `nu`
    // above `v` are exactly `nu[t + 1..]`. These are the same slices the
    // per-pair binary searches located, so the visit order is
    // bit-identical to the old enumeration.
    let n = g.n() as usize;
    let forward_start: Vec<usize> = (0..n)
        .map(|v| g.neighbors(v as u64).partition_point(|&w| u64::from(w) <= v as u64))
        .collect();
    for u in 0..g.n() {
        let nu = g.neighbors(u);
        for t in forward_start[u as usize]..nu.len() {
            let v = u64::from(nu[t]);
            // Walk the intersection of N(u) and N(v) above v.
            let nv = g.neighbors(v);
            let mut i = t + 1;
            let mut j = forward_start[v as usize];
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        visit(u, v, u64::from(nu[i]));
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::generators::{clique, complete_bipartite, cycle, path, star};

    #[test]
    fn clique_counts() {
        // K5: each vertex in C(4,2)=6 triangles, 10 total.
        let g = clique(5);
        let t = vertex_triangles(&g);
        assert_eq!(t.per_vertex, vec![6; 5]);
        assert_eq!(t.global, 10);
        assert_eq!(global_triangles(&g), 10);
        // Every edge of K5 lies in 3 triangles.
        let e = edge_triangles(&g);
        assert_eq!(e.len(), 10);
        assert!(e.iter().all(|(_, c)| c == 3));
        assert_eq!(e.get(0, 4), Some(3));
        assert_eq!(e.get(4, 0), Some(3));
    }

    #[test]
    #[should_panic(expected = "past the 2^32-word (32 GiB) limit")]
    fn window_words_past_u32_offsets_panic() {
        // A made-up total: checked before anything is allocated.
        check_window_words(MAX_WINDOW_WORDS);
        check_window_words(MAX_WINDOW_WORDS + 1);
    }

    #[test]
    fn compact_forward_matches_enumeration() {
        use kron_graph::generators::{barabasi_albert, erdos_renyi};
        // Skewed, random, and loopy graphs: the rank-ordered kernel must
        // agree with the identity-order enumeration everywhere.
        for g in [
            erdos_renyi(60, 0.2, 3),
            barabasi_albert(50, 4, 9),
            clique(7).with_full_self_loops(),
            star(15),
        ] {
            let n = g.n() as usize;
            let mut per_vertex = vec![0u64; n];
            let mut global = 0u64;
            enumerate_triangles(&g, |u, v, w| {
                per_vertex[u as usize] += 1;
                per_vertex[v as usize] += 1;
                per_vertex[w as usize] += 1;
                global += 1;
            });
            let got = vertex_triangles(&g);
            assert_eq!(got.per_vertex, per_vertex);
            assert_eq!(got.global, global);
            assert_eq!(global_triangles(&g), global);
        }
    }

    #[test]
    fn triangle_free_families() {
        for g in [path(6), cycle(6), star(7), complete_bipartite(3, 4)] {
            assert_eq!(global_triangles(&g), 0);
            assert!(vertex_triangles(&g).per_vertex.iter().all(|&t| t == 0));
            assert!(edge_triangles(&g).iter().all(|(_, c)| c == 0));
        }
    }

    #[test]
    fn self_loops_ignored() {
        let plain = clique(4);
        let looped = plain.with_full_self_loops();
        assert_eq!(vertex_triangles(&looped), vertex_triangles(&plain));
        let e = edge_triangles(&looped);
        // Self-loop "edges" are not canonical u<v pairs, so counts match.
        for ((u, v), c) in edge_triangles(&plain).iter() {
            assert_eq!(e.get(u, v), Some(c));
        }
    }

    #[test]
    fn single_triangle_counts() {
        let g = clique(3);
        let t = vertex_triangles(&g);
        assert_eq!(t.per_vertex, vec![1, 1, 1]);
        assert_eq!(t.global, 1);
        let e = edge_triangles(&g);
        assert_eq!(e.get(0, 1), Some(1));
        assert_eq!(e.get(1, 2), Some(1));
        assert_eq!(e.get(0, 2), Some(1));
    }

    #[test]
    fn edge_lookup_missing() {
        let g = path(4);
        let e = edge_triangles(&g);
        assert_eq!(e.get(0, 1), Some(0));
        assert_eq!(e.get(0, 3), None);
        assert!(!e.is_empty());
    }

    #[test]
    fn enumeration_visits_each_once_in_order() {
        let g = clique(4);
        let mut seen = Vec::new();
        enumerate_triangles(&g, |u, v, w| seen.push((u, v, w)));
        assert_eq!(seen.len(), 4);
        for &(u, v, w) in &seen {
            assert!(u < v && v < w);
        }
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len());
    }

    #[test]
    fn vertex_counts_consistent_with_edge_counts() {
        // t_u = (1/2) Σ_{v ∈ N(u)} Δ_uv on the loop-free core.
        use kron_graph::generators::erdos_renyi;
        let g = erdos_renyi(40, 0.25, 5);
        let tv = vertex_triangles(&g);
        let et = edge_triangles(&g);
        for u in 0..g.n() {
            let sum: u64 = g
                .neighbors(u)
                .iter()
                .map(|&v| u64::from(v))
                .filter(|&v| v != u)
                .map(|v| et.get(u, v).expect("edge exists"))
                .sum();
            assert_eq!(sum % 2, 0);
            assert_eq!(tv.per_vertex[u as usize], sum / 2, "vertex {u}");
        }
        // Global count = (1/3) Σ_v t_v.
        let total: u64 = tv.per_vertex.iter().sum();
        assert_eq!(total % 3, 0);
        assert_eq!(tv.global, total / 3);
    }

    #[test]
    fn matches_matrix_oracle() {
        // Def. 5/6 verbatim on the dense oracle: t = ½ diag((A−A∘I)³),
        // Δ = (A−A∘I) ∘ (A−A∘I)².
        use kron_graph::generators::erdos_renyi;
        use kron_linalg::DenseMatrix;
        let g = erdos_renyi(25, 0.3, 11).with_full_self_loops();
        let n = g.n() as usize;
        let mut a = DenseMatrix::zeros(n, n);
        for (u, v) in g.arcs() {
            a.set(u as usize, v as usize, 1);
        }
        let core = &a - &a.hadamard(&DenseMatrix::identity(n));
        let cubed = core.pow(3);
        let expected_t: Vec<u64> =
            cubed.diag_vector().iter().map(|&x| (x / 2) as u64).collect();
        assert_eq!(vertex_triangles(&g).per_vertex, expected_t);

        let delta = core.hadamard(&core.pow(2));
        let et = edge_triangles(&g);
        for ((u, v), c) in et.iter() {
            assert_eq!(delta.get(u as usize, v as usize) as u64, c, "edge ({u},{v})");
        }
    }
}
