//! Distributed breadth-first search over the partitioned edge store.
//!
//! BFS is *the* Graph500 kernel — the benchmark family the paper's
//! generator feeds (§I). This is a level-synchronous implementation on a
//! source-partitioned store: each rank expands the frontier vertices it
//! owns and sends newly reached vertices to their owners; a level ends
//! when every peer's frontier traffic for that level is fully in, and the
//! search ends when a vote round agrees every frontier is empty.
//!
//! The protocol runs over the control class of [`crate::transport`], so
//! messages can be **duplicated, delayed, and reordered** (drops belong
//! to the data plane, where the edge exchange's ack/retry layer recovers
//! them). Three mechanisms make that survivable:
//!
//! * every message is **epoch-tagged** with its level, so stragglers from
//!   a finished level are recognizably stale and discarded;
//! * frontier messages carry a per-link sequence tag and each
//!   [`LevelDone`](FrontierMessage::LevelDone) marker declares how many
//!   frontier messages its sender put on that link, so an
//!   [`EpochTally`] can tell "all traffic arrived" from "a duplicate
//!   arrived twice" — level barriers neither fire early on duplicated
//!   markers nor hang on reordered ones;
//! * votes are collected at most once per peer per level.
//!
//! The resulting distances validate against the Thm. 3 ground-truth hop
//! formula in the tests — the paper's validation workflow for a second,
//! different analytic — and the chaos suite replays the whole search
//! under seeded fault schedules.

use kron_graph::VertexId;
use kron_obs::events::{EventKind, Timeline, NO_PEER};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::generator::DistResult;
use crate::owner::EdgeOwner;
use crate::reliability::EpochTally;
use crate::transport::{Endpoint, TransportConfig};

/// Unvisited marker (matches `kron-analytics::distance::UNREACHABLE`).
pub const UNREACHABLE: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum FrontierMessage {
    /// Vertices entering the next frontier. `seq` tags the message on its
    /// link within the level (dedup identity).
    Visit { level: u32, from: usize, seq: u64, verts: Vec<VertexId> },
    /// Sender finished expanding `level`, having sent `visits_sent`
    /// Visit messages on this link for it.
    LevelDone { level: u32, from: usize, visits_sent: u64 },
    /// Sender's termination vote for the level (1 = frontier non-empty).
    Vote { level: u32, from: usize, active: u64 },
}

impl FrontierMessage {
    fn level(&self) -> u32 {
        match self {
            FrontierMessage::Visit { level, .. }
            | FrontierMessage::LevelDone { level, .. }
            | FrontierMessage::Vote { level, .. } => *level,
        }
    }
}

const KIND_VISIT: u64 = 1;
const KIND_LEVEL_DONE: u64 = 2;
const KIND_VOTE: u64 = 3;

/// Transport key of a control message (feeds the per-message fault
/// schedule; uniqueness per link+level+kind is all that matters).
fn key(kind: u64, level: u32, seq: u64) -> u64 {
    (kind << 60) ^ ((level as u64) << 24) ^ seq
}

/// Runs a distributed BFS from `source` over `transport`, returning the
/// full distance vector (`dist[source] = 0`) and the merged per-rank
/// event timeline — level (epoch) boundaries with durations, stash-depth
/// samples, and every transport fault event. `owner` must match the
/// generation run. Pass [`TransportConfig::Perfect`] for plain channels,
/// or a [`TransportConfig::Faulty`] to replay the search under a seeded
/// chaos schedule. The timeline is empty unless
/// `kron_obs::events::set_enabled(true)` was on when the search started.
pub fn distributed_bfs_traced(
    result: &DistResult,
    owner: &dyn EdgeOwner,
    n_c: u64,
    source: VertexId,
    transport: &TransportConfig,
) -> (Vec<u32>, Timeline) {
    let _span = kron_obs::span::enter("dist/bfs");
    let ranks = result.per_rank.len();
    assert_eq!(ranks, owner.ranks(), "owner map must match the run");
    assert!(
        owner.source_complete(),
        "row-push analytics require source-complete ownership (not delegates)"
    );

    // Rank-local adjacency keyed by owned source vertex.
    let local_rows: Vec<BTreeMap<VertexId, Vec<VertexId>>> = result
        .per_rank
        .iter()
        .map(|edges| {
            let mut rows: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
            for &(p, q) in edges.arcs() {
                rows.entry(p).or_default().push(q);
            }
            rows
        })
        .collect();

    let endpoints: Vec<Endpoint<FrontierMessage>> = Endpoint::mesh(transport, ranks);

    let mut distance_parts: Vec<Vec<(VertexId, u32)>> = Vec::with_capacity(ranks);
    let mut recorders = Vec::with_capacity(ranks);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for ep in endpoints {
            let local_rows = &local_rows;
            handles.push(scope.spawn(move || bfs_rank(ep, local_rows, owner, source)));
        }
        for handle in handles {
            let (part, recorder) = handle.join().expect("rank thread panicked");
            distance_parts.push(part);
            recorders.push(recorder);
        }
    });

    let mut dist = vec![UNREACHABLE; n_c as usize];
    for part in distance_parts {
        for (v, d) in part {
            dist[v as usize] = d;
        }
    }
    let timeline = Timeline::from_recorders(recorders);
    if timeline.event_count() > 0 {
        kron_obs::events::publish_timeline(&timeline);
    }
    (dist, timeline)
}

/// Per-level receive state of one rank.
struct LevelState {
    tally: EpochTally,
    votes: Vec<Option<u64>>,
    next: Vec<VertexId>,
}

fn bfs_rank(
    mut ep: Endpoint<FrontierMessage>,
    local_rows: &[BTreeMap<VertexId, Vec<VertexId>>],
    owner: &dyn EdgeOwner,
    source: VertexId,
) -> (Vec<(VertexId, u32)>, kron_obs::events::RankRecorder) {
    let rank = ep.rank();
    let ranks = ep.ranks();
    let mine = &local_rows[rank];
    let mut dist: BTreeMap<VertexId, u32> = BTreeMap::new();
    let mut frontier: Vec<VertexId> = Vec::new();
    // Messages from the next level, parked until this rank gets there.
    // Drift is bounded: a peer can run at most one level ahead (its next
    // vote barrier needs our vote), so the stash never holds more than
    // one level of traffic.
    let mut stash: Vec<FrontierMessage> = Vec::new();

    // Level 0: the source's owner seeds its own frontier. `owner` routes
    // by source vertex, so `owner(source, source)` is the owning rank.
    if owner.owner(source, source) == rank {
        dist.insert(source, 0);
        frontier.push(source);
    }

    let mut level = 0u32;
    loop {
        // Epoch probe: level boundaries with wall durations. The timer is
        // observational only — no protocol decision reads it.
        let epoch_timer = ep.recorder().is_active().then(Instant::now);
        ep.recorder().record(EventKind::EpochStart, NO_PEER, level as u64, 0);
        // Expand owned frontier, batching discoveries per destination.
        let mut outboxes: Vec<Vec<VertexId>> = vec![Vec::new(); ranks];
        for &v in &frontier {
            if let Some(row) = mine.get(&v) {
                for &w in row {
                    outboxes[owner.owner(w, w)].push(w);
                }
            }
        }
        let mut state = LevelState {
            tally: EpochTally::new(ranks),
            votes: vec![None; ranks],
            next: Vec::new(),
        };
        // One Visit message per link per level here; the count protocol
        // supports any number. Self traffic rides the mesh like any other.
        for (dest, batch) in outboxes.into_iter().enumerate() {
            let visits_sent = u64::from(!batch.is_empty());
            if visits_sent > 0 {
                ep.send_control(
                    dest,
                    key(KIND_VISIT, level, 0),
                    FrontierMessage::Visit { level, from: rank, seq: 0, verts: batch },
                );
            }
            ep.send_control(
                dest,
                key(KIND_LEVEL_DONE, level, 0),
                FrontierMessage::LevelDone { level, from: rank, visits_sent },
            );
        }
        // Everything for this level is on the wire before we wait —
        // including copies the adversary parked in delay buffers.
        ep.flush();

        // Phase 1: absorb this level's frontier traffic until every
        // peer's declared message count is met. Stale duplicates are
        // discarded, future-level messages stashed.
        let parked = std::mem::take(&mut stash);
        for msg in parked {
            absorb(msg, level, &mut state, &mut dist, &mut stash);
        }
        while !state.tally.complete() {
            match ep.try_recv() {
                Some(msg) => absorb(msg, level, &mut state, &mut dist, &mut stash),
                None => {
                    ep.flush();
                    std::thread::yield_now();
                }
            }
        }

        // Phase 2: termination vote — a tiny allreduce over the same
        // mesh. Duplicated votes are idempotent (first one wins).
        let local_active = u64::from(!state.next.is_empty());
        for dest in 0..ranks {
            ep.send_control(
                dest,
                key(KIND_VOTE, level, 0),
                FrontierMessage::Vote { level, from: rank, active: local_active },
            );
        }
        ep.flush();
        while state.votes.iter().any(Option::is_none) {
            match ep.try_recv() {
                Some(msg) => absorb(msg, level, &mut state, &mut dist, &mut stash),
                None => {
                    ep.flush();
                    std::thread::yield_now();
                }
            }
        }

        // Sample the stash once per level (how far ahead peers ran) and
        // close the epoch.
        ep.recorder().record(EventKind::StashDepth, NO_PEER, stash.len() as u64, 0);
        if let Some(t) = epoch_timer {
            let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            ep.recorder().record(EventKind::EpochEnd, NO_PEER, level as u64, ns);
        }

        let active_total: u64 = state.votes.iter().map(|v| v.unwrap_or(0)).sum();
        level += 1;
        if active_total == 0 {
            break;
        }
        frontier = state.next;
    }
    // Release any parked duplicates so no held message outlives the mesh.
    ep.flush();
    let recorder = ep.take_recorder();
    (dist.into_iter().collect(), recorder)
}

/// Routes one received message: discard if stale, stash if early, apply
/// if it belongs to the current level.
fn absorb(
    msg: FrontierMessage,
    level: u32,
    state: &mut LevelState,
    dist: &mut BTreeMap<VertexId, u32>,
    stash: &mut Vec<FrontierMessage>,
) {
    if msg.level() < level {
        return; // stale duplicate from a completed level
    }
    if msg.level() > level {
        stash.push(msg);
        return;
    }
    match msg {
        FrontierMessage::Visit { from, seq, verts, .. } => {
            if state.tally.record_item(from, seq) {
                for v in verts {
                    dist.entry(v).or_insert_with(|| {
                        state.next.push(v);
                        level + 1
                    });
                }
            }
        }
        FrontierMessage::LevelDone { from, visits_sent, .. } => {
            state.tally.record_done(from, visits_sent);
        }
        FrontierMessage::Vote { from, active, .. } => {
            state.votes[from].get_or_insert(active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_distributed, DistConfig, OwnerConfig};
    use crate::owner::{HashOwner, VertexBlockOwner};
    use crate::transport::FaultConfig;
    use kron_core::distance::DistanceOracle;
    use kron_core::{KroneckerPair, SelfLoopMode};
    use kron_graph::generators::{clique, cycle, erdos_renyi, path};

    /// The search over perfect channels.
    fn bfs(result: &DistResult, owner: &dyn EdgeOwner, n_c: u64, source: VertexId) -> Vec<u32> {
        distributed_bfs_traced(result, owner, n_c, source, &TransportConfig::Perfect).0
    }

    #[test]
    fn matches_thm3_ground_truth() {
        // The validation workflow: distributed BFS distances on the
        // generated store vs the max-law hop formula.
        let pair =
            KroneckerPair::new(path(4), cycle(5), SelfLoopMode::FullBoth).unwrap();
        let oracle = DistanceOracle::new(&pair).unwrap();
        for ranks in [1usize, 3, 4] {
            let result = generate_distributed(&pair, &DistConfig::new(ranks));
            let owner = VertexBlockOwner::new(pair.n_c(), ranks);
            for source in [0u64, 7, pair.n_c() - 1] {
                let dist = bfs(&result, &owner, pair.n_c(), source);
                for q in 0..pair.n_c() {
                    let expected = if q == source {
                        0
                    } else {
                        oracle.hops_of(source, q).unwrap()
                    };
                    assert_eq!(
                        dist[q as usize], expected,
                        "ranks={ranks} source={source} q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn hash_owner_works_too() {
        let pair = KroneckerPair::with_full_self_loops(clique(3), cycle(4)).unwrap();
        let mut cfg = DistConfig::new(3);
        cfg.owner = OwnerConfig::Hash { seed: 11 };
        let result = generate_distributed(&pair, &cfg);
        let owner = HashOwner::new(3, 11);
        let dist = bfs(&result, &owner, pair.n_c(), 0);
        let oracle = DistanceOracle::new(&pair).unwrap();
        for q in 1..pair.n_c() {
            assert_eq!(dist[q as usize], oracle.hops_of(0, q).unwrap());
        }
    }

    #[test]
    fn disconnected_components_stay_unreachable() {
        // K2 ⊗ K2 (no loops) splits into two disjoint edges.
        let pair = KroneckerPair::as_is(clique(2), clique(2)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(2));
        let owner = VertexBlockOwner::new(pair.n_c(), 2);
        let dist = bfs(&result, &owner, pair.n_c(), 0);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[3], 1);
        assert_eq!(dist[1], UNREACHABLE);
        assert_eq!(dist[2], UNREACHABLE);
    }

    #[test]
    fn matches_sequential_bfs_on_random() {
        use kron_analytics::distance::bfs_distances;
        use kron_core::generate::materialize;
        let pair = KroneckerPair::as_is(erdos_renyi(7, 0.4, 91), erdos_renyi(6, 0.4, 92))
            .unwrap();
        let c = materialize(&pair);
        let result = generate_distributed(&pair, &DistConfig::new(4));
        let owner = VertexBlockOwner::new(pair.n_c(), 4);
        for source in (0..pair.n_c()).step_by(11) {
            let distributed = bfs(&result, &owner, pair.n_c(), source);
            let sequential = bfs_distances(&c, source);
            assert_eq!(distributed, sequential, "source {source}");
        }
    }

    #[test]
    fn survives_duplicated_reordered_frontier_traffic() {
        let pair =
            KroneckerPair::new(path(4), cycle(5), SelfLoopMode::FullBoth).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(3));
        let owner = VertexBlockOwner::new(pair.n_c(), 3);
        let baseline = bfs(&result, &owner, pair.n_c(), 0);
        for seed in [1u64, 7, 2024] {
            let chaotic = distributed_bfs_traced(
                &result,
                &owner,
                pair.n_c(),
                0,
                &TransportConfig::Faulty(FaultConfig::dup_reorder_only(seed)),
            )
            .0;
            assert_eq!(chaotic, baseline, "repro seed={seed} (dup+reorder BFS)");
        }
    }
}
