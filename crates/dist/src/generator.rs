//! The distributed generation engine.
//!
//! Each simulated rank runs on its own thread and executes §III's loop:
//! generate the arcs of its work cell `C_r = A_r ⊗ B_r`, look up each
//! arc's storage owner, batch arcs per destination, and exchange batches
//! over an all-to-all [`crate::transport`] mesh (the stand-in for
//! HavoqGT's asynchronous MPI communication). The exchange runs on the
//! reliable layer's rank threads (`crate::reliability`): batches
//! are sequence-numbered per link, acked cumulatively, retransmitted on
//! idle, and deduplicated at the receiver — so the run survives a faulty
//! transport that drops, duplicates, delays, and reorders messages. A
//! rank finishes once it has delivered a `Done` payload from every peer
//! (in-order delivery implies it then holds every batch too) *and* every
//! payload it sent is acked, so no peer still needs its retransmissions.
//!
//! The exchange is flow-controlled, as §III's generator is: edges travel
//! to their owners while they are being generated, not after. A rank
//! drains its inbox once every `batch_size` generated arcs (local or
//! remote), and never holds more than [`CREDIT_WINDOW`] unacked batches
//! toward one peer: after a send that fills a link's window it keeps
//! draining until an ack frees a slot. Resident exchange memory is thus
//! bounded by the window (see [`CREDIT_WINDOW`]), never by `|E_C|`.
//!
//! Both schemes run one generation loop over the rank's cell of a
//! [`GridPartition`] (1D is its `R × 1` case). It emits the rank's arcs
//! in increasing `(p, q)` order, and each link delivers in order, so the
//! arcs one source sends one owner arrive as a sorted stream. A spilling
//! rank writes each source's stream straight to its own shard run: no
//! run buffer and no sort, and at most `ranks` runs per rank.
//!
//! The credit wait cannot deadlock. A waiting rank drains, stores and
//! acks everything delivered to it, so it keeps serving the peers that
//! wait on it. The peer it waits on is generating (and drains every
//! `batch_size` arcs), waiting for credit itself (and drains), or
//! finishing — and a finishing rank drains until it holds a `Done` from
//! every rank, which the waiting rank sends only after its generation
//! ends. So the awaited acks always come, and the reliable layer's
//! retransmissions cover a dropped batch.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use kron_core::generate::for_each_product_target;
use kron_core::KroneckerPair;
use kron_graph::shard::ShardWriter;
use kron_graph::{Arc, EdgeList, VertexId};
use kron_obs::events::{RankRecorder, Timeline};

use crate::owner::{DelegateOwner, EdgeOwner, HashOwner, VertexBlockOwner};
use crate::partition::{GridPartition, PartitionScheme};
use crate::reliability::{run_ranks, ReliableEndpoint};
use crate::stats::{GenStats, RankStats};
use crate::transport::TransportConfig;

/// Whether ranks store routed edges or only count them (throughput runs at
/// scales where storing `C` is impossible — the paper's trillion-edge
/// validation generated and discarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageMode {
    /// Deliver and store every arc at its owner.
    Store,
    /// Generate and count; no communication or storage.
    CountOnly,
}

/// Credit window of the edge exchange: the most unacked batches a rank
/// holds toward any one peer. After a send leaves this many batches
/// unacked on a link, the sender drains its own inbox until an ack frees
/// a slot ([`RankStats::window_waits`] counts those waits).
///
/// It bounds what a spilling rank keeps resident beside its open shard
/// runs: its open outboxes, and per outgoing link at most
/// `CREDIT_WINDOW` batches in flight plus their retained copies (the
/// reliable layer keeps each payload until the receiver has taken it,
/// so "in flight" covers the wire and the receiver's delivery queue).
/// That is `O(ranks · CREDIT_WINDOW · batch_size)` arcs per rank, never
/// `O(|E_C|)`.
///
/// A receiver never pauses to sort: it stores each delivered batch by
/// appending it to its source's run. So the window only has to cover
/// the gap between a sender's sends and the receiver's next drain, which
/// comes at least once every `batch_size` arcs the receiver generates.
/// On the build-s8 pipeline (2 ranks, 2D spill, 20.5M arcs, 2 vCPUs)
/// generation ran within noise at windows of 16, 32, 64 and 128, while
/// the peak RSS after generation grew with the window (about 7.8, 8.7,
/// 10.5 and 14.4 MiB; EXPERIMENTS.md E17).
pub const CREDIT_WINDOW: usize = 128;

/// Storage-owner mapping choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerConfig {
    /// Contiguous vertex blocks.
    VertexBlock,
    /// Hashed source vertex.
    Hash {
        /// Placement seed.
        seed: u64,
    },
    /// HavoqGT-style delegates: hubs with ground-truth degree
    /// `d_C(p) ≥ threshold` are spread across all ranks by edge hash.
    Delegate {
        /// Degree threshold above which a vertex is delegated.
        threshold: u64,
        /// Placement seed.
        seed: u64,
    },
}

/// Out-of-core storage: ranks spill their stored arcs as sorted shard
/// runs (`kron_graph::shard`) instead of resident [`EdgeList`]s, one run
/// per source rank that sent them an arc. A spilling rank's storage
/// holds at most `ranks` open writers, each only its IO buffer. Its
/// exchange adds at most [`CREDIT_WINDOW`] batches in flight per
/// outgoing link, plus their retained copies.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory the per-rank run files are written to.
    pub dir: PathBuf,
    /// IO buffer capacity per open shard file, in bytes.
    pub io_buf_bytes: usize,
}

impl SpillConfig {
    /// Spill into `dir` with the default IO buffer.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig { dir: dir.into(), io_buf_bytes: kron_graph::shard::DEFAULT_IO_BUF }
    }
}

/// Configuration of a distributed generation run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of simulated ranks (threads).
    pub ranks: usize,
    /// Factor partition scheme (§III 1D or Rem. 1 2D).
    pub scheme: PartitionScheme,
    /// Arcs per exchange message; a rank also drains its inbox once every
    /// `batch_size` generated arcs.
    pub batch_size: usize,
    /// Store or count-only.
    pub storage: StorageMode,
    /// Storage owner mapping.
    pub owner: OwnerConfig,
    /// The rank mesh the exchange runs over: perfect channels or the
    /// seeded fault-injecting adversary.
    pub transport: TransportConfig,
    /// When set (and storing), ranks spill stored arcs to sorted shard
    /// runs on disk instead of keeping them resident; the run's
    /// [`DistResult::per_rank`] lists stay empty and
    /// [`DistResult::shard_runs`] carries the file paths.
    pub spill: Option<SpillConfig>,
}

impl DistConfig {
    /// A reasonable default: 1D partition, block ownership, storing.
    pub fn new(ranks: usize) -> Self {
        DistConfig {
            ranks,
            scheme: PartitionScheme::OneD,
            batch_size: 1024,
            storage: StorageMode::Store,
            owner: OwnerConfig::VertexBlock,
            transport: TransportConfig::Perfect,
            spill: None,
        }
    }
}

/// Result of a distributed generation run.
#[derive(Debug)]
pub struct DistResult {
    /// Arcs stored at each rank (empty lists in count-only and spill
    /// modes).
    pub per_rank: Vec<EdgeList>,
    /// Sorted shard-run files each rank spilled — empty unless
    /// [`DistConfig::spill`] was set. Rank `r` holds one run per rank
    /// that routed it at least one arc (itself included), in source
    /// order, so at most `ranks` runs per rank and `ranks²` in all. Feed
    /// a rank's runs (or all runs) to `kron_graph::CsrGraph::from_shards`
    /// / `merge_shards` to rebuild the stored arcs.
    pub shard_runs: Vec<Vec<PathBuf>>,
    /// Counters and timing.
    pub stats: GenStats,
    /// Per-rank event timeline of the exchange — empty unless
    /// `kron_obs::events::set_enabled(true)` was on when the run started.
    pub timeline: Timeline,
}

impl DistResult {
    /// Union of all ranks' stored arcs as one edge list (validation use).
    ///
    /// The product map `(i,j) ⊗ (k,l) ↦ (i·n_B+k, j·n_B+l)` is injective
    /// and every arc has exactly one owner, so a correct run stores each
    /// arc exactly once across all ranks. In debug/test builds a
    /// duplicate is treated as a protocol failure (a redelivery bug would
    /// otherwise silently inflate `m_C` after dedup hid it).
    pub fn union(&self, n_c: u64) -> EdgeList {
        let mut all = EdgeList::new(n_c);
        for rank_edges in &self.per_rank {
            for &(p, q) in rank_edges.arcs() {
                all.add_arc(p, q).expect("generated arcs are in range");
            }
        }
        let before = all.nnz();
        all.sort_dedup();
        debug_assert_eq!(
            before,
            all.nnz(),
            "{} duplicate arcs across rank stores — redelivery bug inflating m_C",
            before - all.nnz()
        );
        all
    }

    /// Each rank's stored rows, for the row-push analytics: its owned
    /// source vertices mapped to their sorted, deduplicated out-rows.
    /// A row is shared, so pushing it to a peer (and the reliable
    /// layer's retained copy) costs a reference count, not a second row.
    ///
    /// Panics unless `owner` is the source-complete mapping the run used:
    /// the same rank count, and every stored arc on its owner's rank.
    pub(crate) fn local_rows(&self, owner: &dyn EdgeOwner) -> Vec<LocalRows> {
        assert_eq!(self.per_rank.len(), owner.ranks(), "owner map must match the run");
        assert!(
            owner.source_complete(),
            "row-push analytics require source-complete ownership (not delegates)"
        );
        self.per_rank
            .iter()
            .enumerate()
            .map(|(rank, edges)| {
                let mut rows: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
                for &(p, q) in edges.arcs() {
                    assert_eq!(owner.owner(p, q), rank, "arc ({p},{q}) stored off its owner rank");
                    rows.entry(p).or_default().push(q);
                }
                rows.into_iter()
                    .map(|(p, mut row)| {
                        row.sort_unstable();
                        row.dedup();
                        (p, row.into())
                    })
                    .collect()
            })
            .collect()
    }
}

/// One rank's rows in [`DistResult::local_rows`]: owned source vertex →
/// sorted out-row.
pub(crate) type LocalRows = BTreeMap<VertexId, std::sync::Arc<[VertexId]>>;

/// The exchange payloads; `Clone` because the reliable layer keeps
/// unacked payloads for retransmission.
#[derive(Debug, Clone)]
enum Message {
    Batch(Vec<Arc>),
    Done,
}

/// Runs the distributed generator for `pair` under `config`.
///
/// ```
/// use kron_core::KroneckerPair;
/// use kron_dist::generator::{generate_distributed, DistConfig};
/// use kron_graph::generators::clique;
///
/// let pair = KroneckerPair::as_is(clique(3), clique(3)).unwrap();
/// let result = generate_distributed(&pair, &DistConfig::new(2));
/// assert_eq!(result.stats.total_stored() as u128, pair.nnz_c());
/// ```
pub fn generate_distributed(pair: &KroneckerPair, config: &DistConfig) -> DistResult {
    let _span = kron_obs::span::enter("dist/generate");
    assert!(config.ranks > 0, "need at least one rank");
    assert!(config.batch_size > 0, "batch size must be positive");
    if let Some(spill) = &config.spill {
        std::fs::create_dir_all(&spill.dir).expect("create spill directory");
    }
    // Each rank holds only its CSR slices of the two factors: 2D splits
    // both, 1D deals A's arcs and shares one whole-B slice.
    let grid = GridPartition::new(config.scheme, pair.a(), pair.b(), config.ranks);

    let owner: Box<dyn EdgeOwner + Send + Sync> = match config.owner {
        OwnerConfig::VertexBlock => Box::new(VertexBlockOwner::new(pair.n_c(), config.ranks)),
        OwnerConfig::Hash { seed } => Box::new(HashOwner::new(config.ranks, seed)),
        OwnerConfig::Delegate { threshold, seed } => Box::new(DelegateOwner::new(
            pair.a().degrees(),
            pair.b().degrees(),
            threshold,
            config.ranks,
            seed,
        )),
    };
    let owner = &*owner;
    let n_b = pair.b().n();

    let started = Instant::now();
    let (per_rank, timeline) = run_ranks(&config.transport, config.ranks, |link| {
        run_rank(link, &grid, owner, config, n_b, pair.n_c())
    });
    let elapsed_secs = started.elapsed().as_secs_f64();

    let mut stats = GenStats { per_rank: Vec::with_capacity(config.ranks), elapsed_secs };
    let mut edges = Vec::with_capacity(config.ranks);
    let mut shard_runs = Vec::with_capacity(config.ranks);
    for out in per_rank {
        stats.per_rank.push(out.stats);
        edges.push(out.stored);
        shard_runs.push(out.shard_runs);
    }
    DistResult { per_rank: edges, shard_runs, stats, timeline }
}

/// What one rank thread hands back to the run driver.
struct RankOutput {
    stats: RankStats,
    stored: EdgeList,
    shard_runs: Vec<PathBuf>,
}

/// Where a rank's stored arcs land: a resident [`EdgeList`], or one
/// shard run per source rank on disk (the out-of-core tier,
/// [`DistConfig::spill`]).
enum RankStore {
    Memory(EdgeList),
    Spill {
        n_c: u64,
        dir: PathBuf,
        rank: usize,
        io_buf_bytes: usize,
        /// The run of each source rank, opened at its first arc. A source
        /// emits in increasing `(p, q)` order and its link delivers in
        /// order, so `ShardWriter::push`'s sortedness check holds.
        writers: Vec<Option<ShardWriter>>,
    },
}

impl RankStore {
    fn new(config: &DistConfig, rank: usize, n_c: u64) -> Self {
        match (&config.spill, config.storage) {
            (Some(spill), StorageMode::Store) => RankStore::Spill {
                n_c,
                dir: spill.dir.clone(),
                rank,
                io_buf_bytes: spill.io_buf_bytes,
                writers: (0..config.ranks).map(|_| None).collect(),
            },
            _ => RankStore::Memory(EdgeList::new(n_c)),
        }
    }

    /// Stores one arc that rank `from` routed here.
    #[inline]
    fn store(&mut self, from: usize, p: u64, q: u64) {
        match self {
            RankStore::Memory(list) => list.add_arc(p, q).expect("in range"),
            RankStore::Spill { n_c, dir, rank, io_buf_bytes, writers } => writers[from]
                .get_or_insert_with(|| {
                    let path = dir.join(format!("rank{rank}_from{from}.krsh"));
                    ShardWriter::with_buffer(&path, *n_c, *io_buf_bytes)
                        .expect("create shard run")
                })
                .push(p, q)
                .expect("spill arc in range and in its source's order"),
        }
    }

    /// Finishes every open run and returns `(stored, run paths, spilled
    /// arcs)`.
    fn finish(self) -> (EdgeList, Vec<PathBuf>, u64) {
        match self {
            RankStore::Memory(list) => (list, Vec::new(), 0),
            RankStore::Spill { n_c, writers, .. } => {
                let mut runs = Vec::new();
                let mut spilled = 0;
                for writer in writers.into_iter().flatten() {
                    let info = writer.finish().expect("finish shard run");
                    spilled += info.arcs;
                    runs.push(info.path);
                }
                (EdgeList::new(n_c), runs, spilled)
            }
        }
    }
}

/// The per-rank exchange engine behind the generation loop: owner
/// routing, batch outboxes with buffer recycling, the periodic drain and
/// credit window, the Done protocol, and the memory-or-spill store. The
/// loop calls [`Exchange::emit`] per arc and [`Exchange::finish`] once.
struct Exchange<'a> {
    link: ReliableEndpoint<Message>,
    rank: usize,
    ranks: usize,
    batch_size: usize,
    count_only: bool,
    /// Generated arcs left until the next inbox drain.
    until_drain: usize,
    owner: &'a (dyn EdgeOwner + Send + Sync),
    stats: RankStats,
    store: RankStore,
    outboxes: Vec<Vec<Arc>>,
    // Recycled batch buffers: drained inbound `Vec`s are cleared and
    // handed back out as outbox replacements instead of allocating a
    // fresh `Vec` per sent batch. Bounded by the rank count so the pool
    // never outgrows one buffer per open outbox.
    spare: Vec<Vec<Arc>>,
    dones: usize,
}

impl<'a> Exchange<'a> {
    fn new(
        link: ReliableEndpoint<Message>,
        owner: &'a (dyn EdgeOwner + Send + Sync),
        config: &DistConfig,
        n_c: u64,
    ) -> Self {
        let rank = link.rank();
        Exchange {
            rank,
            ranks: config.ranks,
            batch_size: config.batch_size,
            count_only: config.storage == StorageMode::CountOnly,
            until_drain: config.batch_size,
            owner,
            stats: RankStats::default(),
            store: RankStore::new(config, rank, n_c),
            outboxes: vec![Vec::new(); config.ranks],
            spare: Vec::new(),
            dones: 0,
            link,
        }
    }

    /// Accounts factor arcs this rank holds (`|E_{A_r}| + |E_{B_r}|`).
    fn add_factor_arcs(&mut self, arcs: u64) {
        self.stats.factor_arcs += arcs;
    }

    /// Routes one generated product arc: store locally, or batch toward
    /// its owner (sending, then waiting for credit, when a batch fills).
    /// Every `batch_size` arcs the inbox is drained once, so a rank whose
    /// current arcs are all local still stores and acks its peers'
    /// batches.
    #[inline]
    fn emit(&mut self, p: u64, q: u64) {
        self.stats.generated += 1;
        if self.count_only {
            return;
        }
        self.until_drain -= 1;
        if self.until_drain == 0 {
            self.until_drain = self.batch_size;
            self.drain_ready();
        }
        let dest = self.owner.owner(p, q);
        if dest == self.rank {
            self.stats.sent_local += 1;
            self.stats.stored += 1;
            self.store.store(self.rank, p, q);
        } else {
            self.stats.sent_remote += 1;
            self.outboxes[dest].push((p, q));
            if self.outboxes[dest].len() >= self.batch_size {
                let refill = self.spare.pop();
                self.stats.batch_buffers_reused += u64::from(refill.is_some());
                let batch =
                    std::mem::replace(&mut self.outboxes[dest], refill.unwrap_or_default());
                self.send_batch(dest, batch);
            }
        }
    }

    /// Sends one batch to `dest`, then drains until the link is back
    /// under its [`CREDIT_WINDOW`].
    fn send_batch(&mut self, dest: usize, batch: Vec<Arc>) {
        self.stats.messages += 1;
        self.link.send(dest, Message::Batch(batch));
        if self.link.in_flight(dest) < CREDIT_WINDOW {
            return;
        }
        self.stats.window_waits += 1;
        while self.link.in_flight(dest) >= CREDIT_WINDOW {
            if let Some((from, message)) = self.link.poll_for_credit(dest) {
                self.deliver(from, message);
            }
        }
    }

    /// Stores every batch the reliable layer has already delivered.
    fn drain_ready(&mut self) {
        while let Some((from, message)) = self.link.poll() {
            self.deliver(from, message);
        }
    }

    /// Stores one batch delivered from rank `from`, recycling its buffer,
    /// or counts a Done.
    fn deliver(&mut self, from: usize, message: Message) {
        match message {
            Message::Batch(mut batch) => {
                self.stats.stored += batch.len() as u64;
                for &(p, q) in &batch {
                    self.store.store(from, p, q);
                }
                batch.clear();
                if self.spare.len() < self.ranks {
                    self.spare.push(batch);
                }
            }
            Message::Done => self.dones += 1,
        }
    }

    /// Flush + Done protocol + final drain; returns the rank's output
    /// and event log.
    fn finish(mut self) -> (RankOutput, RankRecorder) {
        // Flush remainders and signal completion to every rank, self
        // included — Done is an ordinary sequenced payload, so delivering
        // it proves every earlier batch on that link was delivered too.
        // Done goes out only now that generation has ended: a peer that
        // waits on this rank's Done keeps draining, so it keeps granting
        // credit to ranks that still generate.
        for dest in 0..self.ranks {
            if !self.outboxes[dest].is_empty() {
                let batch = std::mem::take(&mut self.outboxes[dest]);
                self.send_batch(dest, batch);
            }
        }
        for dest in 0..self.ranks {
            self.link.send(dest, Message::Done);
        }

        // Drain phase: run until a Done from every rank — in-order
        // delivery means every batch is in by then — then leave once
        // everything this rank sent is acked. `poll` flushes held traffic
        // on every empty poll and retransmits unacked payloads when the
        // mesh goes idle, which guarantees progress under bounded fair
        // loss.
        while self.dones < self.ranks {
            if let Some((from, message)) = self.link.poll() {
                self.deliver(from, message);
            }
        }
        let recorder = self.link.close();
        self.stats.retransmissions = self.link.retransmissions;
        self.stats.redeliveries_discarded = self.link.duplicates_discarded();
        let (stored, shard_runs, spilled) = self.store.finish();
        self.stats.spill_runs = shard_runs.len() as u64;
        self.stats.spill_arcs = spilled;
        (RankOutput { stats: self.stats, stored, shard_runs }, recorder)
    }
}

/// One rank's generation loop, for both schemes: rank `r` holds only its
/// grid cell's factor slices `A_x` and `B_y` and synthesizes the product
/// tile `A_x ⊗ B_y` **row by row in sorted order** — for each product row
/// `p = (i, k)`, `for_each_product_target` yields the targets in
/// increasing order — routing every arc through the reliable exchange.
fn run_rank(
    link: ReliableEndpoint<Message>,
    grid: &GridPartition,
    owner: &(dyn EdgeOwner + Send + Sync),
    config: &DistConfig,
    n_b: u64,
    n_c: u64,
) -> (RankOutput, RankRecorder) {
    let rank = link.rank();
    let mut ex = Exchange::new(link, owner, config, n_c);
    let a_slice = grid.a_slice_of(rank);
    let b_slice = grid.b_slice_of(rank);
    ex.add_factor_arcs((a_slice.nnz() + b_slice.nnz()) as u64);
    for i in a_slice.rows() {
        let row_a = a_slice.neighbors(i);
        if row_a.is_empty() {
            continue;
        }
        for k in b_slice.rows() {
            let p = i * n_b + k;
            for_each_product_target(row_a, b_slice.neighbors(k), n_b, |q| ex.emit(p, q));
        }
    }
    ex.finish()
}

/// What [`spill_shards_direct`] produced: the per-rank run paths plus
/// the per-rank accounting that the exchange path reports through
/// [`DistResult::stats`].
#[derive(Debug)]
pub struct DirectSpillResult {
    /// Run files per rank, in rank order (rank `r` at index `r`).
    pub runs: Vec<Vec<PathBuf>>,
    /// Per-rank generation/spill accounting. On the direct path every
    /// synthesized arc is stored and spilled locally, so per rank
    /// `generated == stored == spill_arcs`.
    pub stats: GenStats,
}

/// Streams the per-rank row blocks of `C` straight to sorted shard runs
/// on disk, with **no generation loop, no exchange, and no resident edge
/// set**: rank `r` owns the contiguous product-row interval
/// [`VertexBlockOwner::row_range`], whose rows
/// `kron_core::generate::for_each_synthesized_row` emits already sorted
/// through one reused row buffer, so each rank writes its block as one
/// run (none if the block is empty) with no sort buffer at all. Peak
/// resident memory is one product row plus one IO buffer — never
/// `O(|E_C|)`.
/// Returns the per-rank run paths and spill accounting;
/// `kron_graph::build_external_csr` over all runs completes the
/// beyond-RAM pipeline.
pub fn spill_shards_direct(
    pair: &KroneckerPair,
    ranks: usize,
    spill: &SpillConfig,
) -> kron_graph::Result<DirectSpillResult> {
    assert!(ranks > 0, "need at least one rank");
    let _span = kron_obs::span::enter("dist/spill_shards_direct");
    let started = Instant::now();
    std::fs::create_dir_all(&spill.dir)?;
    let owner = VertexBlockOwner::new(pair.n_c(), ranks);
    let mut all = Vec::with_capacity(ranks);
    let mut per_rank = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let path = spill.dir.join(format!("rank{rank}.krsh"));
        let mut writer: Option<ShardWriter> = None;
        let mut failed: Option<kron_graph::GraphError> = None;
        kron_core::generate::for_each_synthesized_row(pair, owner.row_range(rank), |p, row| {
            if failed.is_some() || row.is_empty() {
                return;
            }
            let w = match &mut writer {
                Some(w) => w,
                None => match ShardWriter::with_buffer(&path, pair.n_c(), spill.io_buf_bytes) {
                    Ok(w) => writer.insert(w),
                    Err(e) => {
                        failed = Some(e);
                        return;
                    }
                },
            };
            if let Some(e) = row.iter().find_map(|&q| w.push(p, q).err()) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        let (runs, arcs) = match writer {
            Some(w) => (vec![path], w.finish()?.arcs),
            None => (Vec::new(), 0),
        };
        per_rank.push(RankStats {
            generated: arcs,
            stored: arcs,
            spill_runs: runs.len() as u64,
            spill_arcs: arcs,
            ..RankStats::default()
        });
        all.push(runs);
    }
    let stats = GenStats { per_rank, elapsed_secs: started.elapsed().as_secs_f64() };
    Ok(DirectSpillResult { runs: all, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::generate::materialize;
    use kron_core::{KroneckerPair, SelfLoopMode};
    use kron_graph::generators::{clique, cycle, erdos_renyi, path};
    use kron_graph::CsrGraph;

    fn reference(pair: &KroneckerPair) -> EdgeList {
        let mut list = materialize(pair).to_edge_list();
        list.sort_dedup();
        list
    }

    fn run(pair: &KroneckerPair, config: &DistConfig) -> DistResult {
        generate_distributed(pair, config)
    }

    #[test]
    fn matches_sequential_one_d() {
        let pair = KroneckerPair::as_is(erdos_renyi(8, 0.4, 1), cycle(5)).unwrap();
        for ranks in [1, 2, 3, 7] {
            let mut cfg = DistConfig::new(ranks);
            cfg.batch_size = 16;
            let result = run(&pair, &cfg);
            assert_eq!(result.union(pair.n_c()), reference(&pair), "ranks={ranks}");
        }
    }

    #[test]
    fn matches_sequential_two_d() {
        let pair =
            KroneckerPair::new(erdos_renyi(8, 0.4, 2), path(6), SelfLoopMode::FullBoth).unwrap();
        for ranks in [1, 3, 4, 6] {
            let mut cfg = DistConfig::new(ranks);
            cfg.scheme = PartitionScheme::TwoD;
            cfg.batch_size = 8;
            let result = run(&pair, &cfg);
            assert_eq!(result.union(pair.n_c()), reference(&pair), "ranks={ranks}");
        }
    }

    #[test]
    fn matches_sequential_hash_owner() {
        let pair = KroneckerPair::as_is(clique(4), cycle(4)).unwrap();
        let mut cfg = DistConfig::new(3);
        cfg.owner = OwnerConfig::Hash { seed: 7 };
        let result = run(&pair, &cfg);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
    }

    #[test]
    fn stats_account_for_everything() {
        let pair = KroneckerPair::as_is(clique(4), clique(4)).unwrap();
        let cfg = DistConfig::new(4);
        let result = run(&pair, &cfg);
        let s = &result.stats;
        assert_eq!(s.total_generated() as u128, pair.nnz_c());
        assert_eq!(s.total_stored() as u128, pair.nnz_c());
        let local: u64 = s.per_rank.iter().map(|r| r.sent_local).sum();
        let remote: u64 = s.per_rank.iter().map(|r| r.sent_remote).sum();
        assert_eq!(local + remote, s.total_generated());
        assert!(s.elapsed_secs > 0.0);
    }

    #[test]
    fn count_only_stores_nothing() {
        let pair = KroneckerPair::as_is(clique(5), clique(5)).unwrap();
        let mut cfg = DistConfig::new(2);
        cfg.storage = StorageMode::CountOnly;
        let result = run(&pair, &cfg);
        assert_eq!(result.stats.total_generated() as u128, pair.nnz_c());
        assert_eq!(result.stats.total_stored(), 0);
        assert!(result.per_rank.iter().all(|e| e.is_empty()));
    }

    #[test]
    fn storage_bound_one_d() {
        // §III: per-rank factor storage is O(|E_A|/R + |E_B|).
        let pair = KroneckerPair::as_is(erdos_renyi(12, 0.5, 3), cycle(7)).unwrap();
        let ranks = 4;
        let result = run(&pair, &DistConfig::new(ranks));
        let ea = pair.a().nnz() as u64;
        let eb = pair.b().nnz() as u64;
        let bound = ea.div_ceil(ranks as u64) + eb;
        assert_eq!(result.stats.max_factor_arcs(), bound);
    }

    #[test]
    fn block_owner_stores_contiguous_rows() {
        // Each rank stores exactly its row block of C, as synthesized
        // from the factors.
        let pairs = [
            KroneckerPair::as_is(clique(4), clique(3)).unwrap(),
            KroneckerPair::with_full_self_loops(erdos_renyi(7, 0.5, 4), cycle(5)).unwrap(),
            KroneckerPair::as_is(clique(4), path(6)).unwrap(),
        ];
        for pair in &pairs {
            for ranks in [1usize, 2, 3, 5] {
                let result = run(pair, &DistConfig::new(ranks));
                let owner = VertexBlockOwner::new(pair.n_c(), ranks);
                assert_eq!(result.per_rank.len(), ranks);
                for (rank, edges) in result.per_rank.iter().enumerate() {
                    let mut stored = edges.arcs().to_vec();
                    stored.sort_unstable();
                    let mut block = Vec::new();
                    kron_core::generate::for_each_synthesized_row(
                        pair,
                        owner.row_range(rank),
                        |p, row| block.extend(row.iter().map(|&q| (p, q))),
                    );
                    assert_eq!(stored, block, "ranks={ranks} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn single_rank_is_fully_local() {
        let pair = KroneckerPair::as_is(path(4), path(4)).unwrap();
        let result = run(&pair, &DistConfig::new(1));
        assert_eq!(result.stats.remote_fraction(), 0.0);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
    }

    #[test]
    fn more_ranks_than_work() {
        // Ranks exceeding |E_A| idle but the result is still complete.
        let a = CsrGraph::from_arcs(2, vec![(0, 1), (1, 0)]).unwrap();
        let pair = KroneckerPair::as_is(a, clique(3)).unwrap();
        let result = run(&pair, &DistConfig::new(6));
        assert_eq!(result.union(pair.n_c()), reference(&pair));
        let busy = result.stats.per_rank.iter().filter(|r| r.generated > 0).count();
        assert_eq!(busy, 2);
    }

    #[test]
    fn delegate_owner_correct_and_balances_hubs() {
        use kron_graph::generators::star;
        // star ⊗ star: the (hub, hub) product vertex dominates storage.
        let pair = KroneckerPair::with_full_self_loops(star(12), star(12)).unwrap();
        let ranks = 4;
        let mut block = DistConfig::new(ranks);
        block.owner = OwnerConfig::VertexBlock;
        let mut delegate = DistConfig::new(ranks);
        delegate.owner = OwnerConfig::Delegate { threshold: 20, seed: 3 };

        let block_run = generate_distributed(&pair, &block);
        let delegate_run = generate_distributed(&pair, &delegate);
        // Both complete and agree.
        assert_eq!(
            block_run.union(pair.n_c()),
            delegate_run.union(pair.n_c())
        );
        // Delegation strictly improves hub-driven storage imbalance.
        let bi = block_run.stats.storage_imbalance();
        let di = delegate_run.stats.storage_imbalance();
        assert!(di < bi, "delegate {di:.2} should beat block {bi:.2}");
    }

    #[test]
    fn small_batches_match_sequential() {
        let pair = KroneckerPair::as_is(erdos_renyi(10, 0.5, 21), cycle(6)).unwrap();
        for ranks in [2usize, 4, 7] {
            let mut cfg = DistConfig::new(ranks);
            cfg.batch_size = 8;
            let result = generate_distributed(&pair, &cfg);
            assert_eq!(
                result.union(pair.n_c()),
                reference(&pair),
                "ranks {ranks}: exchange differs from sequential"
            );
            assert_eq!(
                result.stats.total_stored() as u128,
                pair.nnz_c(),
                "ranks {ranks}: exchange lost arcs"
            );
        }
    }

    #[test]
    fn tiny_batches_stress() {
        // batch_size 1 drains the inbox after every generated arc and
        // sends one payload per remote arc — maximal interleaving
        // pressure on the Done accounting.
        let pair = KroneckerPair::with_full_self_loops(clique(4), cycle(5)).unwrap();
        let mut cfg = DistConfig::new(5);
        cfg.batch_size = 1;
        let result = generate_distributed(&pair, &cfg);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
    }

    #[test]
    fn exchange_recycles_buffers() {
        // batch_size 1 with a scattering owner: every remote arc is a
        // send and every arc an inbox poll, so drained receive buffers
        // are recycled into outbox refills throughout generation.
        // Whichever rank's sends are scheduled later necessarily polls
        // after the other has delivered, so the total reuse count is
        // positive under any interleaving.
        let pair = KroneckerPair::as_is(clique(6), clique(6)).unwrap();
        let mut cfg = DistConfig::new(2);
        cfg.batch_size = 1;
        cfg.owner = OwnerConfig::Hash { seed: 5 };
        let result = generate_distributed(&pair, &cfg);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
        assert!(
            result.stats.total_batch_buffers_reused() > 0,
            "no batch buffers recycled: {:?}",
            result.stats.per_rank
        );
    }

    #[test]
    fn two_d_bounds_factor_storage_to_slices() {
        // Rem. 1's whole point: no 2D rank holds a full factor. With a
        // 4-rank 2×2 grid each rank holds about half of A and half of B.
        let pair = KroneckerPair::as_is(erdos_renyi(16, 0.5, 9), erdos_renyi(16, 0.5, 10))
            .unwrap();
        let mut cfg = DistConfig::new(4);
        cfg.scheme = PartitionScheme::TwoD;
        let result = run(&pair, &cfg);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
        let full = (pair.a().nnz() + pair.b().nnz()) as u64;
        let one_d_bound = pair.a().nnz() as u64 / 4 + pair.b().nnz() as u64;
        let max = result.stats.max_factor_arcs();
        assert!(max < full, "a 2D rank held both factors whole: {max} vs {full}");
        assert!(
            max < one_d_bound,
            "2D factor storage {max} should beat 1D's replicated-B bound {one_d_bound}"
        );
    }

    fn spill_config(name: &str) -> SpillConfig {
        SpillConfig::new(std::env::temp_dir().join("kron_dist_spill_test").join(name))
    }

    fn union_of_runs(result: &DistResult, n_c: u64) -> EdgeList {
        let paths: Vec<_> = result.shard_runs.iter().flatten().collect();
        let csr = kron_graph::CsrGraph::from_shards(&paths, 1024).expect("merge spilled runs");
        assert_eq!(csr.n(), n_c);
        csr.to_edge_list()
    }

    #[test]
    fn spill_mode_matches_in_memory_both_schemes() {
        let pair = KroneckerPair::with_full_self_loops(erdos_renyi(8, 0.5, 6), cycle(5)).unwrap();
        let expected = reference(&pair);
        for scheme in [PartitionScheme::OneD, PartitionScheme::TwoD] {
            let mut cfg = DistConfig::new(4);
            cfg.scheme = scheme;
            cfg.batch_size = 16;
            cfg.spill = Some(spill_config(&format!("mode_{scheme:?}")));
            let result = run(&pair, &cfg);
            assert!(
                result.per_rank.iter().all(EdgeList::is_empty),
                "{scheme:?}: spill mode must not keep resident edge lists"
            );
            assert_eq!(
                result.stats.total_spilled_arcs() as u128,
                pair.nnz_c(),
                "{scheme:?}: every stored arc must be spilled"
            );
            // One run per source that routed the rank an arc.
            assert!(result.stats.per_rank.iter().any(|r| r.spill_runs > 1));
            assert!(result.stats.per_rank.iter().all(|r| r.spill_runs <= 4));
            assert_eq!(union_of_runs(&result, pair.n_c()), expected, "{scheme:?}");
        }
    }

    #[test]
    fn spill_shards_direct_matches_distributed_spill() {
        let pair = KroneckerPair::as_is(erdos_renyi(9, 0.4, 13), cycle(6)).unwrap();
        let expected = reference(&pair);
        for ranks in [1usize, 3, 4] {
            let spill = spill_config(&format!("direct_{ranks}"));
            let direct = spill_shards_direct(&pair, ranks, &spill).unwrap();
            let runs = &direct.runs;
            assert_eq!(runs.len(), ranks);
            // The direct path reports real per-rank spill accounting,
            // matching the product it wrote.
            assert_eq!(direct.stats.total_spilled_arcs() as u128, pair.nnz_c());
            assert_eq!(direct.stats.total_generated(), direct.stats.total_stored());
            for (rank, rs) in direct.stats.per_rank.iter().enumerate() {
                assert_eq!(rs.spill_runs as usize, runs[rank].len(), "rank {rank} run count");
                assert_eq!(rs.spill_arcs, rs.stored, "rank {rank} stores locally");
            }
            let paths: Vec<_> = runs.iter().flatten().collect();
            let csr = kron_graph::CsrGraph::from_shards(&paths, 1024).unwrap();
            assert_eq!(csr.to_edge_list(), expected, "ranks={ranks}");
            // Rank r's runs hold exactly its row block, in order.
            let owner = VertexBlockOwner::new(pair.n_c(), ranks);
            for (rank, rank_runs) in runs.iter().enumerate() {
                let range = owner.row_range(rank);
                for path in rank_runs {
                    let mut reader = kron_graph::shard::ShardReader::open(path).unwrap();
                    while let Some((p, _)) = reader.next_arc().unwrap() {
                        assert!(range.contains(&p), "rank {rank} spilled foreign row {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_batch_size_still_correct() {
        let pair = KroneckerPair::as_is(clique(4), cycle(5)).unwrap();
        let mut cfg = DistConfig::new(3);
        cfg.batch_size = 1;
        let result = run(&pair, &cfg);
        assert_eq!(result.union(pair.n_c()), reference(&pair));
    }
}
