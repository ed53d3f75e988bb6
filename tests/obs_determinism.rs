//! Observability must never change an answer.
//!
//! The kron-obs contract (DESIGN.md §9) is that probes — spans, metric
//! counters, the distributed event log, and the counting allocator — are
//! strictly *observational*: enabling any of them may cost time but must
//! leave every computed result bit-identical. This suite pins that down
//! for each instrumented layer (CSR synthesis, triangle vectors,
//! closeness batches, distributed generation / BFS / triangle count
//! under both perfect and chaotic transports), and then checks the
//! *conservation invariants* the metrics themselves must satisfy: a
//! perfect transport never retransmits, and under faults every payload a
//! sender handed the reliable layer is delivered in order exactly once,
//! with duplicates discarded rather than stored.
//!
//! The obs toggles are process globals, so every test here serialises on
//! one mutex and restores the disabled state before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use kron_analytics::triangles::{vertex_triangles, vertex_triangles_with, TriangleKernel};
use kron_core::closeness::closeness_batch;
use kron_core::distance::DistanceOracle;
use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_dist::{
    distributed_bfs_traced, distributed_triangle_count_traced, generate_distributed, DistConfig,
    FaultConfig, TransportConfig, VertexBlockOwner,
};
use kron_graph::generators::{cycle, erdos_renyi, rmat, RmatConfig};
use kron_graph::{CsrGraph, VertexId};
use kron_obs::events::{EventKind, Timeline};

/// Serialises tests that flip the process-global obs toggles.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores the all-off default when a test exits (also on panic, so a
/// failure doesn't leak enabled probes into the next test).
struct ObsOffOnDrop;
impl Drop for ObsOffOnDrop {
    fn drop(&mut self) {
        kron_obs::set_enabled(false);
        kron_obs::events::set_enabled(false);
    }
}

fn test_pair() -> KroneckerPair {
    KroneckerPair::with_full_self_loops(erdos_renyi(6, 0.5, 77), cycle(5)).unwrap()
}

fn dist_config(ranks: usize, transport: TransportConfig) -> DistConfig {
    let mut cfg = DistConfig::new(ranks);
    cfg.transport = transport;
    cfg
}

/// Everything the instrumented layers compute, as bit-comparable data.
/// Closeness values are captured as raw `f64` bits so "close enough"
/// can never pass for "identical".
#[derive(PartialEq, Debug)]
struct Fingerprint {
    csr_offsets: Vec<usize>,
    csr_targets: Vec<u32>,
    triangle_vector: Vec<u64>,
    closeness_bits: Vec<u64>,
    bfs_distances: Vec<u32>,
    dist_stores: Vec<Vec<(VertexId, VertexId)>>,
    dist_triangles: u64,
}

fn fingerprint(pair: &KroneckerPair) -> Fingerprint {
    let csr = materialize(pair);
    let triangles = vertex_triangles(&csr);
    let oracle = DistanceOracle::new(pair).expect("oracle");
    let vertices: Vec<VertexId> = (0..pair.n_c()).collect();
    let closeness = closeness_batch(&oracle, &vertices).expect("in range");

    let ranks = 4;
    let faults = FaultConfig::chaos(0xDE7E_12B1);
    let result = generate_distributed(pair, &dist_config(ranks, TransportConfig::Faulty(faults)));
    let owner = VertexBlockOwner::new(pair.n_c(), ranks);
    let bfs = distributed_bfs_traced(
        &result,
        &owner,
        pair.n_c(),
        0,
        &TransportConfig::Faulty(FaultConfig::chaos(0xDE7E_12B2)),
    )
    .0;
    let tri = distributed_triangle_count_traced(
        &result,
        &owner,
        &TransportConfig::Faulty(FaultConfig::chaos(0xDE7E_12B3)),
    )
    .0;
    Fingerprint {
        csr_offsets: csr.offsets().to_vec(),
        csr_targets: csr.targets().to_vec(),
        triangle_vector: triangles.per_vertex,
        closeness_bits: closeness.iter().map(|c| c.to_bits()).collect(),
        bfs_distances: bfs,
        dist_stores: result
            .per_rank
            .iter()
            .map(|edges| {
                let mut arcs = edges.arcs().to_vec();
                arcs.sort_unstable();
                arcs
            })
            .collect(),
        dist_triangles: tri,
    }
}

#[test]
fn results_are_bit_identical_with_obs_on_and_off() {
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    let pair = test_pair();

    kron_obs::set_enabled(false);
    kron_obs::events::set_enabled(false);
    let off = fingerprint(&pair);

    kron_obs::set_enabled(true);
    kron_obs::events::set_enabled(true);
    let on = fingerprint(&pair);

    // Spans only, events only — the toggles are independent.
    kron_obs::events::set_enabled(false);
    let spans_only = fingerprint(&pair);
    kron_obs::set_enabled(false);
    kron_obs::events::set_enabled(true);
    let events_only = fingerprint(&pair);

    assert_eq!(off, on, "enabling spans+metrics+events changed a result");
    assert_eq!(off, spans_only, "enabling spans+metrics changed a result");
    assert_eq!(off, events_only, "enabling the event log changed a result");
}

#[test]
fn kernel_tiers_bit_identical_under_all_toggles() {
    // The PR 6 kernel tiers (marking / bitmap / auto) and the obs toggles
    // are independent axes; every combination must produce the same
    // triangle vector, and the arena-recycled scratch must never leak
    // state between configurations (each run would see it as a different
    // answer if it did).
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    let pair = test_pair();
    let csr = materialize(&pair);
    kron_obs::set_enabled(false);
    let reference = vertex_triangles(&csr);
    for kernel in [TriangleKernel::Auto, TriangleKernel::Marking, TriangleKernel::Bitmap] {
        for obs_on in [false, true] {
            for events_on in [false, true] {
                kron_obs::set_enabled(obs_on);
                kron_obs::events::set_enabled(events_on);
                let got = vertex_triangles_with(&csr, kernel);
                assert_eq!(got, reference, "{kernel:?} obs={obs_on} events={events_on}");
            }
        }
    }
}

#[test]
fn kernel_tier_counters_account_for_every_anchor() {
    // With obs on, the tier counters must partition the anchors: every
    // anchor is counted exactly once as bitmap-path or marking-path, the
    // forced tiers land entirely on their own side, and the arena
    // records its takes.
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    let pair = test_pair();
    let csr = materialize(&pair);
    let counter = |report: &kron_obs::report::ObsReport, name: &str| -> u64 {
        report
            .metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    let run = |kernel: TriangleKernel| -> kron_obs::report::ObsReport {
        kron_obs::reset();
        kron_obs::set_enabled(true);
        let _ = vertex_triangles_with(&csr, kernel);
        kron_obs::set_enabled(false);
        kron_obs::report::ObsReport::capture()
    };

    let marking = run(TriangleKernel::Marking);
    assert_eq!(counter(&marking, "triangles.anchors_bitmap"), 0, "forced marking");
    let marked_anchors = counter(&marking, "triangles.anchors_marking");
    assert!(marked_anchors > 0, "marking tier saw no anchors");

    let bitmap = run(TriangleKernel::Bitmap);
    assert_eq!(
        counter(&bitmap, "triangles.anchors_bitmap")
            + counter(&bitmap, "triangles.anchors_marking"),
        marked_anchors,
        "tiers disagree on the anchor population"
    );
    assert!(counter(&bitmap, "triangles.packed_rows") > 0, "forced bitmap packed nothing");
    assert!(counter(&bitmap, "triangles.words_probed") > 0, "forced bitmap probed no words");

    let auto = run(TriangleKernel::Auto);
    assert_eq!(
        counter(&auto, "triangles.anchors_bitmap") + counter(&auto, "triangles.anchors_marking"),
        marked_anchors,
        "auto tier loses anchors"
    );
    assert!(
        counter(&auto, "arena.take_hits") + counter(&auto, "arena.take_misses") > 0,
        "kernel scratch bypassed the arena"
    );
}

/// The forward-row kinds `[packed, CSR-read, listed]` and
/// `Σ_r |B(r)|·|F(r)|`, derived from the graph by the documented `Auto`
/// rule: vertices are ranked by `(degree, id)`, `B(r)` and `F(r)` are
/// `r`'s lower- and higher-ranked neighbors, and a non-empty `F(r)` is
/// packed when its word window `[min / 64, max / 64]` has at most `|F(r)|`
/// words, else CSR-read when its vertex has at most `2·|F(r)|` neighbors,
/// else listed.
fn forward_rows(g: &CsrGraph) -> ([u64; 3], u64) {
    let order = g.degree_rank_order();
    let mut rank = vec![0u64; order.len()];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u64;
    }
    let (mut kinds, mut work) = ([0u64; 3], 0u64);
    for (r, &v) in order.iter().enumerate() {
        let r = r as u64;
        let (backward, forward): (Vec<u64>, Vec<u64>) = g
            .neighbors(v)
            .iter()
            .map(|&w| rank[w as usize])
            .filter(|&rw| rw != r)
            .partition(|&rw| rw < r);
        let len = forward.len() as u64;
        work += backward.len() as u64 * len;
        let (Some(lo), Some(hi)) = (forward.iter().min(), forward.iter().max()) else {
            continue;
        };
        let words = (hi >> 6) - (lo >> 6) + 1;
        let kind = if words <= len {
            0
        } else if g.degree(v) <= 2 * len {
            1
        } else {
            2
        };
        kinds[kind] += 1;
    }
    (kinds, work)
}

/// A hub whose few forward neighbors span a long window. The hub has 250
/// lower-ranked neighbors, paired off by edges into 125 triangles with
/// it, and two forward ones: the lowest and the highest of 200 vertices
/// whose distinct degrees (257 to 655, from shared filler vertices) rank
/// them above everything else. Its forward row has 2 entries over a
/// window of at least 4 words, so it is listed: 2 probes per anchor,
/// where its CSR row would cost 252.
fn sparse_hub() -> CsrGraph {
    let (low, high) = (250u64, 200u64);
    let fillers = 256 + 2 * (high - 1);
    let hub = 0;
    let lows = 1..=low;
    let highs = low + 1..=low + high;
    let filler = |k: u64| low + high + 1 + k;
    let mut edges: Vec<(u64, u64)> = lows.clone().map(|l| (hub, l)).collect();
    edges.extend(lows.step_by(2).map(|l| (l, l + 1)));
    edges.extend([(hub, *highs.start()), (hub, *highs.end())]);
    for (j, h) in highs.enumerate() {
        edges.extend((0..256 + 2 * j as u64).map(|k| (h, filler(k))));
    }
    let arcs = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    CsrGraph::from_arcs(filler(fillers), arcs).expect("arcs in range")
}

#[test]
fn kernel_work_stays_within_twice_the_forward_bound() {
    // Closing an oriented edge `ra → rb` costs at most `|F(rb)|` word ANDs
    // (packed `rb`), `2·|F(rb)|` element probes (CSR-read) or `|F(rb)|`
    // probes (listed), once per lower-ranked neighbor of `rb`, so under
    // `Auto` and forced `Marking` the kernel probes at most
    // `2·Σ_r |B(r)|·|F(r)|` elements and words. Forced `Bitmap` packs
    // every row whatever its window, so it is exempt.
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    let rmat_pair = KroneckerPair::with_full_self_loops(
        rmat(&RmatConfig::graph500(6, 22)),
        rmat(&RmatConfig::graph500(6, 23)),
    )
    .expect("R-MAT factors are loop-free");
    let products = [
        ("R-MAT(6) x R-MAT(6) full loops", materialize(&rmat_pair), [2_801, 1_229, 54]),
        ("sparse hub", sparse_hub(), [779, 125, 1]),
    ];
    for (label, g, kinds) in &products {
        let (got, work) = forward_rows(g);
        assert_eq!(&got, kinds, "{label}: packed, CSR-read and listed rows");
        for kernel in [TriangleKernel::Auto, TriangleKernel::Marking] {
            kron_obs::reset();
            kron_obs::set_enabled(true);
            let _ = vertex_triangles_with(g, kernel);
            kron_obs::set_enabled(false);
            let snapshot = kron_obs::metrics::snapshot();
            let probed: u64 = ["triangles.elements_probed", "triangles.words_probed"]
                .iter()
                .map(|name| snapshot.counter(name).unwrap_or(0))
                .sum();
            println!("{label}, {kernel:?}: {probed} probes, 2·Σ|B|·|F| = {}", 2 * work);
            assert!(
                probed <= 2 * work,
                "{label}, {kernel:?}: {probed} probes past 2·Σ|B|·|F| = {}",
                2 * work
            );
        }
    }
    assert_eq!(vertex_triangles(&products[1].1).global, 125, "sparse hub triangles");
}

#[test]
fn perfect_transport_never_retransmits() {
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    kron_obs::events::set_enabled(true);
    let pair = test_pair();
    let silent = |timeline: &Timeline, what: &str| {
        for kind in [
            EventKind::Retransmit,
            EventKind::DropInjected,
            EventKind::DupInjected,
            EventKind::DedupDiscard,
        ] {
            assert_eq!(timeline.count_of(kind), 0, "{what}: {kind:?}");
        }
    };
    for ranks in [2, 4] {
        let run = generate_distributed(&pair, &dist_config(ranks, TransportConfig::Perfect));
        assert_eq!(run.stats.total_retransmissions(), 0, "ranks={ranks}");
        assert_eq!(run.stats.total_redeliveries_discarded(), 0, "ranks={ranks}");
        silent(&run.timeline, &format!("generation, ranks={ranks}"));
    }
    // The analytics run on the same reliable layer, with link accounting.
    let run = generate_distributed(&pair, &dist_config(4, TransportConfig::Perfect));
    let owner = VertexBlockOwner::new(pair.n_c(), 4);
    let bfs = distributed_bfs_traced(&run, &owner, pair.n_c(), 0, &TransportConfig::Perfect).1;
    let tri = distributed_triangle_count_traced(&run, &owner, &TransportConfig::Perfect).1;
    for (what, timeline) in [("bfs", &bfs), ("triangle count", &tri)] {
        assert_eq!(timeline.count_of(EventKind::LinkSent), 16, "{what}: links accounted");
        silent(timeline, what);
    }
}

#[test]
fn faulty_links_conserve_payloads() {
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    kron_obs::events::set_enabled(true);
    let pair = test_pair();
    let run = generate_distributed(
        &pair,
        &dist_config(4, TransportConfig::Faulty(FaultConfig::chaos(0xBA1A_4CE5))),
    );
    let timeline = &run.timeline;
    assert_eq!(timeline.per_rank.len(), 4, "every rank contributes a log");

    // Sender-side LinkSent.a (payloads handed to the link) must equal the
    // matching receiver's LinkDelivered.a (payloads delivered in order) —
    // drops were retransmitted until acked, duplicates were discarded.
    let mut links_checked = 0;
    for log in &timeline.per_rank {
        for e in &log.events {
            if e.kind != EventKind::LinkSent {
                continue;
            }
            let delivered = timeline
                .per_rank
                .iter()
                .find(|l| l.rank == e.peer)
                .and_then(|l| {
                    l.events
                        .iter()
                        .find(|d| d.kind == EventKind::LinkDelivered && d.peer == log.rank)
                })
                .expect("receiver recorded link accounting");
            assert_eq!(
                e.a, delivered.a,
                "link {} -> {}: sent {} != delivered {}",
                log.rank, e.peer, e.a, delivered.a
            );
            links_checked += 1;
        }
    }
    assert!(links_checked >= 4 * 3, "all ordered rank pairs accounted");

    // The dedup/retransmit counters and the event log are two views of
    // the same run and must agree; the chaos mix must actually have bit.
    let retrans = timeline.count_of(EventKind::Retransmit);
    let dedups = timeline.count_of(EventKind::DedupDiscard);
    assert_eq!(run.stats.total_retransmissions(), retrans);
    assert_eq!(run.stats.total_redeliveries_discarded(), dedups);
    assert!(retrans > 0, "chaos schedule never dropped a payload");
    assert!(dedups > 0, "chaos schedule never duplicated a payload");
    // And per receiver, LinkDelivered.b (duplicates on that link) sums to
    // the global dedup count.
    let link_dups: u64 = timeline
        .iter()
        .filter(|(_, e)| e.kind == EventKind::LinkDelivered)
        .map(|(_, e)| e.b)
        .sum();
    assert_eq!(link_dups, dedups, "per-link duplicate accounting drifted");
}

#[test]
fn metrics_counters_match_ground_truth() {
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    kron_obs::reset();
    kron_obs::set_enabled(true);
    let pair = test_pair();
    let csr = materialize(&pair);
    let _ = vertex_triangles(&csr);
    kron_obs::set_enabled(false);

    let report = kron_obs::report::ObsReport::capture();
    let counter = |name: &str| {
        report
            .metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
    };
    assert_eq!(u128::from(counter("core.synthesized_arcs")), pair.nnz_c());
    assert!(
        report.spans.iter().any(|s| s.path.ends_with("core/materialize")),
        "synthesis span missing: {:?}",
        report.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    assert!(
        report.spans.iter().any(|s| s.path.ends_with("vertex_triangles")),
        "triangle span missing"
    );
}

#[test]
fn disabled_obs_records_nothing() {
    let _serial = obs_lock();
    let _restore = ObsOffOnDrop;
    kron_obs::reset();
    kron_obs::set_enabled(false);
    kron_obs::events::set_enabled(false);
    let pair = test_pair();
    let csr = materialize(&pair);
    let _ = vertex_triangles(&csr);
    let run = generate_distributed(&pair, &dist_config(2, TransportConfig::Perfect));
    assert!(run.timeline.per_rank.is_empty(), "disabled run produced a timeline");

    let report = kron_obs::report::ObsReport::capture();
    assert!(report.spans.is_empty(), "disabled run recorded spans");
    assert!(report.metrics.counters.is_empty(), "disabled run recorded counters");
}
