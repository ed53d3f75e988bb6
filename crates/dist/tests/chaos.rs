//! Seeded chaos matrix for the distributed layer.
//!
//! Every cell of the grid — seed × fault mix × rank count × scheme ×
//! batch size — replays distributed generation (and the BFS /
//! triangle-count analytics) over a fault-injecting transport and asserts
//! the results are **bit-identical** to the perfect-transport run. All
//! three run on the same reliable layer, so every cell also checks
//! per-link payload conservation from its timeline, and the analytics
//! matrices assert that their lossy cells really dropped and
//! retransmitted messages. The
//! batch-1 generation and spill cells send one payload per remote arc,
//! more than twice the exchange's credit window per link, so they drive
//! the window full under drops, duplicates and reordering. Fault schedules
//! are pure functions of the seed, so every failure is replayable: each
//! assertion message carries the full cell coordinates, and — with event
//! recording switched on for the whole suite — a failing cell dumps its
//! merged per-rank event timeline to a temp file whose path lands in the
//! panic message.
//!
//! `cargo test` covers a small default seed set; `scripts/chaos.sh`
//! widens it via `KRON_CHAOS_SEEDS=<count>` for the full sweep.

use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_dist::{
    distributed_bfs_traced, distributed_triangle_count_traced, generate_distributed, DistConfig,
    DistResult, FaultConfig, PartitionScheme, SpillConfig, TransportConfig, VertexBlockOwner,
    CREDIT_WINDOW,
};
use kron_graph::generators::{cycle, erdos_renyi};
use kron_graph::shard::{
    build_external_csr, build_external_csr_two_pass, merge_shards, ShardReader,
};
use kron_graph::{CsrGraph, EdgeList, VertexId};
use kron_obs::events::{EventKind, Timeline};

const DEFAULT_SEED_COUNT: u64 = 4;
/// Rank axis. 8 ranks puts the 2D scheme on its non-square 2×4 grid.
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Batch-size axis: the default batch, and single-arc batches that
/// push more than `2 · CREDIT_WINDOW` payloads over each link of the
/// multi-rank cells.
const BATCH_SIZES: [usize; 2] = [1024, 1];
/// Scheme axis: §III's 1D partition and Rem. 1's real 2D grid path.
const SCHEMES: [PartitionScheme; 2] = [PartitionScheme::OneD, PartitionScheme::TwoD];

/// Deterministic seed schedule; `KRON_CHAOS_SEEDS=<count>` widens it.
fn seeds() -> Vec<u64> {
    let count: u64 = std::env::var("KRON_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED_COUNT);
    (0..count)
        .map(|i| 0xC7A0_5EED_u64.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

fn mixes(seed: u64) -> [(&'static str, FaultConfig); 3] {
    [
        ("drops_only", FaultConfig::drops_only(seed)),
        ("dup_reorder_only", FaultConfig::dup_reorder_only(seed)),
        ("chaos", FaultConfig::chaos(seed)),
    ]
}

/// A small but structured product: FullBoth keeps it connected (BFS
/// reaches everything) and the cross terms create triangles.
fn test_pair() -> KroneckerPair {
    KroneckerPair::with_full_self_loops(erdos_renyi(6, 0.5, 77), cycle(5)).unwrap()
}

/// The generation and spill matrices' product: large enough that at
/// batch size 1 every link of a 2-rank cell carries more than
/// `2 · CREDIT_WINDOW` payloads, so the credit window fills.
fn window_pair() -> KroneckerPair {
    KroneckerPair::with_full_self_loops(erdos_renyi(16, 0.5, 77), cycle(9)).unwrap()
}

fn config(
    ranks: usize,
    scheme: PartitionScheme,
    batch_size: usize,
    transport: TransportConfig,
) -> DistConfig {
    let mut cfg = DistConfig::new(ranks);
    cfg.scheme = scheme;
    cfg.batch_size = batch_size;
    cfg.transport = transport;
    cfg
}

/// The single-process ground truth every scheme and fault mix must
/// reproduce bit-for-bit: `C` materialized sequentially, as a sorted
/// deduplicated arc list.
fn sequential_reference(pair: &KroneckerPair) -> EdgeList {
    let mut list = materialize(pair).to_edge_list();
    list.sort_dedup();
    list
}

/// Per-rank stored arcs, sorted — arrival order varies under chaos, the
/// stored *set* per rank must not.
fn canonical_stores(result: &DistResult) -> Vec<Vec<(VertexId, VertexId)>> {
    result
        .per_rank
        .iter()
        .map(|edges| {
            let mut arcs = edges.arcs().to_vec();
            arcs.sort_unstable();
            arcs
        })
        .collect()
}

/// Asserts `got == want`; on mismatch, dumps the cell's per-rank event
/// timeline under the OS temp dir and panics with the dump path so the
/// failing schedule can be read line by line.
#[track_caller]
fn assert_cell_eq<T: PartialEq + std::fmt::Debug>(
    got: &T,
    want: &T,
    timeline: &Timeline,
    cell: &str,
    what: &str,
) {
    if got != want {
        let dump = match timeline.dump_to_temp(cell) {
            Ok(path) => path.display().to_string(),
            Err(e) => format!("<timeline dump failed: {e}>"),
        };
        let trace = match kron_obs::trace_export::dump_timeline_trace(timeline, cell) {
            Ok(path) => path.display().to_string(),
            Err(e) => format!("<trace dump failed: {e}>"),
        };
        panic!(
            "{what} — {cell}\n  got:  {got:?}\n  want: {want:?}\n  \
             per-rank event timeline: {dump}\n  \
             chrome trace (load in chrome://tracing): {trace}"
        );
    }
}

/// Per-link conservation from the merged timeline: every payload the
/// sender handed the reliable layer (`LinkSent.a` = first transmissions
/// on the link) was delivered in order exactly once on the receiving
/// side (`LinkDelivered.a`), duplicates discarded, never stored. Returns
/// how many links it checked.
fn check_link_conservation(timeline: &Timeline, cell: &str) -> usize {
    let mut links = 0;
    for log in &timeline.per_rank {
        for e in log.events.iter().filter(|e| e.kind == EventKind::LinkSent) {
            let delivered = timeline
                .per_rank
                .iter()
                .find(|l| l.rank == e.peer)
                .and_then(|l| {
                    l.events
                        .iter()
                        .find(|d| d.kind == EventKind::LinkDelivered && d.peer == log.rank)
                })
                .unwrap_or_else(|| {
                    panic!("link {} -> {} has no receiver accounting — {cell}", log.rank, e.peer)
                });
            assert_eq!(
                e.a, delivered.a,
                "link {} -> {} sent {} payloads but receiver delivered {} — {cell}",
                log.rank, e.peer, e.a, delivered.a
            );
            links += 1;
        }
    }
    links
}

#[test]
fn chaos_matrix_generation_is_bit_identical() {
    kron_obs::events::set_enabled(true);
    let pair = window_pair();
    let sequential = sequential_reference(&pair);
    let mut chaos_retransmissions = 0u64;
    let mut chaos_redeliveries = 0u64;
    let mut lossy_window_waits = 0u64;
    for scheme in SCHEMES {
        for ranks in RANK_COUNTS {
            for batch in BATCH_SIZES {
                let baseline = generate_distributed(
                    &pair,
                    &config(ranks, scheme, batch, TransportConfig::Perfect),
                );
                if ranks == 2 && batch == 1 {
                    // Each rank's batches all cross the one remote link.
                    let sent = baseline.stats.per_rank.iter().map(|r| r.messages).min();
                    let sent = sent.unwrap_or(0);
                    assert!(
                        sent > 2 * CREDIT_WINDOW as u64,
                        "scheme={scheme:?}: {sent} payloads per link cannot fill the window"
                    );
                }
                let expected = canonical_stores(&baseline);
                assert_eq!(
                    u128::from(baseline.stats.total_stored()),
                    pair.nnz_c(),
                    "perfect baseline sanity (scheme={scheme:?} ranks={ranks})"
                );
                // Every scheme must reproduce the sequential run exactly
                // — the same contract for Rem. 1's 2D grid as for §III.
                assert_eq!(
                    baseline.union(pair.n_c()),
                    sequential,
                    "scheme={scheme:?} ranks={ranks} batch={batch}: \
                     perfect run differs from sequential materialization"
                );
                // A perfect transport never drops or duplicates, so the
                // reliable layer must stay silent — counters and event log
                // agree on zero.
                assert_eq!(baseline.stats.total_retransmissions(), 0, "perfect transport retransmitted");
                assert_eq!(baseline.timeline.count_of(EventKind::Retransmit), 0);
                assert_eq!(baseline.timeline.count_of(EventKind::DropInjected), 0);
                assert_links_checked(&baseline.timeline, ranks, "perfect baseline");
                for seed in seeds() {
                    for (mix, faults) in mixes(seed) {
                        let cell = format!(
                            "repro: seed={seed} mix={mix} scheme={scheme:?} ranks={ranks} batch={batch}"
                        );
                        let run = generate_distributed(
                            &pair,
                            &config(ranks, scheme, batch, TransportConfig::Faulty(faults)),
                        );
                        assert_cell_eq(
                            &u128::from(run.stats.total_stored()),
                            &pair.nnz_c(),
                            &run.timeline,
                            &cell,
                            "stored arc count drifted under faults",
                        );
                        assert_cell_eq(
                            &canonical_stores(&run),
                            &expected,
                            &run.timeline,
                            &cell,
                            "per-rank edge stores differ from perfect run",
                        );
                        assert_cell_eq(
                            &run.union(pair.n_c()).arcs().to_vec(),
                            &sequential.arcs().to_vec(),
                            &run.timeline,
                            &cell,
                            "edge union differs from sequential run",
                        );
                        assert_links_checked(&run.timeline, ranks, &cell);
                        // Counters snapshot the same facts the event log
                        // records — the two views must agree.
                        assert_cell_eq(
                            &run.stats.total_retransmissions(),
                            &run.timeline.count_of(EventKind::Retransmit),
                            &run.timeline,
                            &cell,
                            "retransmission counter disagrees with event log",
                        );
                        assert_cell_eq(
                            &run.stats.total_redeliveries_discarded(),
                            &run.timeline.count_of(EventKind::DedupDiscard),
                            &run.timeline,
                            &cell,
                            "dedup counter disagrees with event log",
                        );
                        chaos_retransmissions += run.stats.total_retransmissions();
                        chaos_redeliveries += run.stats.total_redeliveries_discarded();
                        if batch == 1 && faults.drop_p > 0.0 {
                            lossy_window_waits += run.stats.total_window_waits();
                        }
                    }
                }
            }
        }
    }
    // The matrix is vacuous if the adversary never actually bit: across
    // all cells, drops must have forced retransmissions and duplication
    // must have forced receive-side dedup.
    assert!(chaos_retransmissions > 0, "no fault schedule ever dropped a payload");
    assert!(chaos_redeliveries > 0, "no fault schedule ever duplicated a payload");
    // A dropped payload stalls its link's cumulative ack, so a link that
    // carries more than CREDIT_WINDOW payloads after a drop must wait.
    assert!(
        lossy_window_waits > 0,
        "no batch-1 cell with drops ever filled its credit window"
    );
}

/// Spill tier under the same matrix: {OneD, TwoD} × {Perfect + every
/// fault mix} × ranks (incl. the 2×4 grid) × batch size. A rank spills
/// one run per source rank, so in every multi-rank cell a rank fed by two
/// or more sources merges that many runs. Each rank's merged shard runs
/// must equal the per-rank store of the perfect in-memory run, and the
/// union of all runs must be bit-identical to the
/// sequential materialization — chaos on the exchange must never
/// corrupt, drop, or duplicate an arc on its way to disk.
#[test]
fn chaos_matrix_spilled_shards_are_bit_identical() {
    kron_obs::events::set_enabled(true);
    let pair = window_pair();
    let sequential = sequential_reference(&pair);
    let base_dir = std::env::temp_dir().join("kron_chaos_spill");
    for scheme in SCHEMES {
        for ranks in RANK_COUNTS {
            // Per-rank expected stores come from the in-memory perfect
            // run (ownership is owner-determined, not scheme-determined).
            let in_memory = generate_distributed(
                &pair,
                &config(ranks, scheme, BATCH_SIZES[0], TransportConfig::Perfect),
            );
            let expected_stores = canonical_stores(&in_memory);
            let mut transports = vec![("perfect".to_string(), TransportConfig::Perfect)];
            for seed in seeds() {
                for (mix, faults) in mixes(seed) {
                    transports
                        .push((format!("{mix} seed={seed}"), TransportConfig::Faulty(faults)));
                }
            }
            for (tname, transport) in &transports {
                for batch in BATCH_SIZES {
                    let cell = format!(
                        "repro: spill {tname} scheme={scheme:?} ranks={ranks} batch={batch}"
                    );
                    let mut cfg = config(ranks, scheme, batch, *transport);
                    let dir = base_dir.join(format!("{tname}_{scheme:?}_{ranks}_{batch}"));
                    cfg.spill = Some(SpillConfig::new(dir.clone()));
                    let run = generate_distributed(&pair, &cfg);
                    assert!(
                        run.per_rank.iter().all(EdgeList::is_empty),
                        "spill mode kept resident edges — {cell}"
                    );
                    assert_cell_eq(
                        &(run.stats.total_spilled_arcs() as u128),
                        &pair.nnz_c(),
                        &run.timeline,
                        &cell,
                        "spilled arc count drifted",
                    );
                    assert_links_checked(&run.timeline, ranks, &cell);
                    // Per-rank shard unions: merge each rank's runs.
                    for (rank, rank_runs) in run.shard_runs.iter().enumerate() {
                        let readers: Vec<ShardReader> = rank_runs
                            .iter()
                            .map(|p| ShardReader::open(p).expect("open spilled run"))
                            .collect();
                        let mut merged = Vec::new();
                        merge_shards(readers, |p, q| merged.push((p, q)))
                            .expect("merge spilled runs");
                        assert_cell_eq(
                            &merged,
                            &expected_stores[rank],
                            &run.timeline,
                            &format!("{cell} rank={rank}"),
                            "rank's merged shard runs differ from perfect in-memory store",
                        );
                    }
                    // Whole-graph union via the external-memory CSR build.
                    let paths: Vec<_> = run.shard_runs.iter().flatten().collect();
                    let rebuilt = CsrGraph::from_shards(&paths, 4096).expect("from_shards");
                    assert_cell_eq(
                        &rebuilt.to_edge_list(),
                        &sequential,
                        &run.timeline,
                        &cell,
                        "union of spilled shards differs from sequential run",
                    );
                    // Single-pass external build vs the two-pass reference:
                    // byte-identical KRSC output in every fault cell.
                    let one = dir.join("one.krsc");
                    let two = dir.join("two.krsc");
                    build_external_csr(&paths, &one, 4096).expect("single-pass build");
                    build_external_csr_two_pass(&paths, &two, 4096).expect("two-pass build");
                    assert_cell_eq(
                        &std::fs::read(&one).expect("read single-pass KRSC"),
                        &std::fs::read(&two).expect("read two-pass KRSC"),
                        &run.timeline,
                        &cell,
                        "single-pass external CSR bytes differ from two-pass",
                    );
                    std::fs::remove_dir_all(&dir).expect("clean up spill dir");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn chaos_matrix_bfs_distances_are_bit_identical() {
    kron_obs::events::set_enabled(true);
    let pair = test_pair();
    // Single-process BFS over the sequentially materialized graph is the
    // absolute reference — not merely "same as the perfect run".
    let csr = materialize(&pair);
    let mut lossy = LossTally::default();
    for scheme in SCHEMES {
        for ranks in RANK_COUNTS {
            let result = generate_distributed(
                &pair,
                &config(ranks, scheme, BATCH_SIZES[0], TransportConfig::Perfect),
            );
            let owner = VertexBlockOwner::new(pair.n_c(), ranks);
            for source in [0u64, pair.n_c() / 2] {
                let sequential = kron_analytics::distance::bfs_distances(&csr, source);
                let cell =
                    format!("repro: bfs perfect scheme={scheme:?} ranks={ranks} source={source}");
                let (baseline, timeline) = distributed_bfs_traced(
                    &result,
                    &owner,
                    pair.n_c(),
                    source,
                    &TransportConfig::Perfect,
                );
                assert_cell_eq(
                    &baseline,
                    &sequential,
                    &timeline,
                    &cell,
                    "perfect-transport BFS differs from sequential BFS",
                );
                assert_links_checked(&timeline, ranks, &cell);
                for seed in seeds() {
                    for (mix, faults) in mixes(seed) {
                        let cell = format!(
                            "repro: bfs seed={seed} mix={mix} scheme={scheme:?} ranks={ranks} \
                             source={source}"
                        );
                        let (dist, timeline) = distributed_bfs_traced(
                            &result,
                            &owner,
                            pair.n_c(),
                            source,
                            &TransportConfig::Faulty(faults),
                        );
                        assert_cell_eq(
                            &dist,
                            &sequential,
                            &timeline,
                            &cell,
                            "BFS distances differ from sequential run",
                        );
                        assert_links_checked(&timeline, ranks, &cell);
                        lossy.add(&faults, &timeline);
                    }
                }
            }
        }
    }
    lossy.assert_bit("BFS");
}

#[test]
fn chaos_matrix_triangle_counts_are_bit_identical() {
    kron_obs::events::set_enabled(true);
    let pair = test_pair();
    let sequential = kron_analytics::triangles::global_triangles(&materialize(&pair));
    assert!(sequential > 0, "test graph must contain triangles");
    let mut lossy = LossTally::default();
    for scheme in SCHEMES {
        for ranks in RANK_COUNTS {
            let result = generate_distributed(
                &pair,
                &config(ranks, scheme, BATCH_SIZES[0], TransportConfig::Perfect),
            );
            let owner = VertexBlockOwner::new(pair.n_c(), ranks);
            let cell = format!("repro: triangles perfect scheme={scheme:?} ranks={ranks}");
            let (baseline, timeline) =
                distributed_triangle_count_traced(&result, &owner, &TransportConfig::Perfect);
            assert_cell_eq(
                &baseline,
                &sequential,
                &timeline,
                &cell,
                "perfect-transport triangle count differs from sequential count",
            );
            assert_links_checked(&timeline, ranks, &cell);
            for seed in seeds() {
                for (mix, faults) in mixes(seed) {
                    let cell = format!(
                        "repro: triangles seed={seed} mix={mix} scheme={scheme:?} ranks={ranks}"
                    );
                    let (count, timeline) = distributed_triangle_count_traced(
                        &result,
                        &owner,
                        &TransportConfig::Faulty(faults),
                    );
                    assert_cell_eq(
                        &count,
                        &sequential,
                        &timeline,
                        &cell,
                        "triangle count differs from sequential run",
                    );
                    assert_links_checked(&timeline, ranks, &cell);
                    lossy.add(&faults, &timeline);
                }
            }
        }
    }
    lossy.assert_bit("triangle count");
}

/// Every protocol runs on the reliable layer, so a cell's timeline
/// carries link accounting for every ordered rank pair, self links
/// included.
fn assert_links_checked(timeline: &Timeline, ranks: usize, cell: &str) {
    assert_eq!(
        check_link_conservation(timeline, cell),
        ranks * ranks,
        "links with conservation accounting — {cell}"
    );
}

/// Drops injected and retransmissions made over the cells whose mix can
/// drop (`drops_only`, `chaos`): an analytics matrix whose messages the
/// adversary never dropped would check nothing about recovery.
#[derive(Default)]
struct LossTally {
    drops: u64,
    retransmissions: u64,
}

impl LossTally {
    fn add(&mut self, faults: &FaultConfig, timeline: &Timeline) {
        if faults.drop_p > 0.0 {
            self.drops += timeline.count_of(EventKind::DropInjected);
            self.retransmissions += timeline.count_of(EventKind::Retransmit);
        }
    }

    fn assert_bit(&self, analytic: &str) {
        assert!(self.drops > 0, "{analytic}: no lossy cell ever dropped a message");
        assert!(self.retransmissions > 0, "{analytic}: no lossy cell ever retransmitted");
    }
}
