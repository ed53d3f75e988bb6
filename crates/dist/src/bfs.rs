//! Distributed breadth-first search over the partitioned edge store.
//!
//! BFS is *the* Graph500 kernel — the benchmark family the paper's
//! generator feeds (§I). This is a level-synchronous implementation on a
//! source-partitioned store: each rank expands the frontier vertices it
//! owns and sends newly reached vertices to their owners.
//!
//! The search runs on the reliable layer (`crate::reliability`), the
//! one the edge exchange uses, so a faulty transport may drop,
//! duplicate, delay and reorder its messages while every message still
//! arrives exactly once and in order on its link. Each level ends with
//! one `LevelDone` from every rank to every rank, behind that rank's
//! visits for the level, so a rank holding all of a level's markers
//! holds all of its traffic. A marker also says whether its sender's
//! frontier at that level was non-empty, and every rank stops after the
//! first level whose markers all say empty. A peer can run at most one
//! level ahead (its next level needs this rank's marker), so the stash
//! of early messages holds at most the next level.
//!
//! The resulting distances validate against the Thm. 3 ground-truth hop
//! formula in the tests — the paper's validation workflow for a second,
//! different analytic — and the chaos suite replays the whole search
//! under seeded fault schedules.

use kron_graph::VertexId;
use kron_obs::events::{EventKind, RankRecorder, Timeline, NO_PEER};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::generator::{DistResult, LocalRows};
use crate::owner::EdgeOwner;
use crate::reliability::{run_ranks, ReliableEndpoint};
use crate::transport::TransportConfig;

/// Unvisited marker (matches `kron-analytics::distance::UNREACHABLE`).
pub const UNREACHABLE: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum FrontierMessage {
    /// Vertices entering the frontier after `level`, shared so the
    /// reliable layer's retained copy is a reference count.
    Visit { level: u32, verts: Arc<[VertexId]> },
    /// Sender finished expanding `level`; `active`: its frontier at that
    /// level was non-empty.
    LevelDone { level: u32, active: bool },
}

/// Runs a distributed BFS from `source` over `transport`, returning the
/// full distance vector (`dist[source] = 0`) and the merged per-rank
/// event timeline — level (epoch) boundaries with durations, stash-depth
/// samples, every transport fault event and per-link accounting. `owner`
/// must match the generation run. Pass [`TransportConfig::Perfect`] for
/// plain channels, or a [`TransportConfig::Faulty`] to replay the search
/// under a seeded chaos schedule. The timeline is empty unless
/// `kron_obs::events::set_enabled(true)` was on when the search started.
pub fn distributed_bfs_traced(
    result: &DistResult,
    owner: &dyn EdgeOwner,
    n_c: u64,
    source: VertexId,
    transport: &TransportConfig,
) -> (Vec<u32>, Timeline) {
    let _span = kron_obs::span::enter("dist/bfs");
    let local_rows = result.local_rows(owner);
    let (parts, timeline) = run_ranks(transport, local_rows.len(), |link| {
        bfs_rank(link, &local_rows, owner, source)
    });
    let mut dist = vec![UNREACHABLE; n_c as usize];
    for (v, d) in parts.into_iter().flatten() {
        dist[v as usize] = d;
    }
    (dist, timeline)
}

fn bfs_rank(
    mut link: ReliableEndpoint<FrontierMessage>,
    local_rows: &[LocalRows],
    owner: &dyn EdgeOwner,
    source: VertexId,
) -> (Vec<(VertexId, u32)>, RankRecorder) {
    let rank = link.rank();
    let ranks = link.ranks();
    let mine = &local_rows[rank];
    let mut dist: BTreeMap<VertexId, u32> = BTreeMap::new();
    let mut frontier: Vec<VertexId> = Vec::new();
    // Messages of the next level from peers that finished this one first.
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
        let epoch_timer = link.recorder().is_active().then(Instant::now);
        link.recorder().record(EventKind::EpochStart, NO_PEER, level as u64, 0);
        // Expand owned frontier, batching discoveries per destination.
        let mut outboxes: Vec<Vec<VertexId>> = vec![Vec::new(); ranks];
        for &v in &frontier {
            if let Some(row) = mine.get(&v) {
                for &w in row.iter() {
                    outboxes[owner.owner(w, w)].push(w);
                }
            }
        }
        // One Visit per non-empty link, then the level's marker; self
        // traffic rides the mesh like any other.
        let active = !frontier.is_empty();
        for (dest, verts) in outboxes.into_iter().enumerate() {
            if !verts.is_empty() {
                link.send(dest, FrontierMessage::Visit { level, verts: verts.into() });
            }
            link.send(dest, FrontierMessage::LevelDone { level, active });
        }

        // Absorb this level's traffic — first what peers that ran ahead
        // already sent, then the wire — until every rank's marker is in,
        // stashing what peers send for the next level.
        let mut next = Vec::new();
        let (mut dones, mut any_active) = (0, false);
        let mut early = std::mem::take(&mut stash).into_iter();
        while dones < ranks {
            let Some(msg) = early.next().or_else(|| link.poll().map(|(_, msg)| msg)) else {
                continue;
            };
            match msg {
                FrontierMessage::Visit { level: l, .. }
                | FrontierMessage::LevelDone { level: l, .. }
                    if l > level =>
                {
                    debug_assert_eq!(l, level + 1, "a peer ran more than one level ahead");
                    stash.push(msg);
                }
                FrontierMessage::Visit { verts, .. } => {
                    for &v in verts.iter() {
                        dist.entry(v).or_insert_with(|| {
                            next.push(v);
                            level + 1
                        });
                    }
                }
                FrontierMessage::LevelDone { active, .. } => {
                    dones += 1;
                    any_active |= active;
                }
            }
        }

        // Sample the stash once per level (how far ahead peers ran) and
        // close the epoch.
        link.recorder().record(EventKind::StashDepth, NO_PEER, stash.len() as u64, 0);
        if let Some(t) = epoch_timer {
            let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            link.recorder().record(EventKind::EpochEnd, NO_PEER, level as u64, ns);
        }
        level += 1;
        if !any_active {
            break;
        }
        frontier = next;
    }
    let recorder = link.close();
    (dist.into_iter().collect(), recorder)
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
            for faults in [FaultConfig::dup_reorder_only(seed), FaultConfig::chaos(seed)] {
                let chaotic = distributed_bfs_traced(
                    &result,
                    &owner,
                    pair.n_c(),
                    0,
                    &TransportConfig::Faulty(faults),
                )
                .0;
                assert_eq!(chaotic, baseline, "repro {faults:?} (faulty BFS)");
            }
        }
    }
}
