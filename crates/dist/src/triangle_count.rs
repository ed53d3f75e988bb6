//! Distributed triangle counting over the partitioned edge store.
//!
//! This is the consumer side of the paper's validation story: its ref.
//! [23] ("Triangle counting for scale-free graphs at scale in distributed
//! memory") is exactly the kind of distributed analytic one validates
//! against Kronecker ground truth. The implementation here is the classic
//! row-push algorithm on a source-partitioned store:
//!
//! 1. every rank holds the full out-row `N(v)` of each vertex it owns
//!    (block/hash ownership routes by source, so this is automatic);
//! 2. for each owned vertex `v`, the rank pushes `N(v)` to the owners of
//!    `v`'s *smaller* neighbors `u < v` (one message per destination);
//! 3. the owner of `u` counts, for each canonical edge `(u, v)` with a
//!    received row, the common neighbors `w > v` of `N(u)` and `N(v)`.
//!
//! Each unordered triangle `u < v < w` is counted exactly once, at
//! `owner(u)`. The global count is the sum of rank-local counts — which
//! the tests check against both direct enumeration and the paper's
//! `τ_C = 6 τ_A τ_B` formula.
//!
//! The push phase runs on the reliable layer (`crate::reliability`),
//! the one the edge exchange uses: a faulty transport may drop,
//! duplicate, delay and reorder rows, yet every row arrives exactly once
//! and in order on its link, so no row is counted twice. Each rank ends
//! its push with one `Done` per link, and a rank holding every peer's
//! `Done` holds every row meant for it. Rows are shared
//! (`DistResult::local_rows`), so a pushed row and the reliable layer's
//! retained copy cost a reference count.

use std::sync::Arc;
use std::time::Instant;

use kron_graph::VertexId;
use kron_obs::events::{EventKind, RankRecorder, Timeline, NO_PEER};

use crate::generator::{DistResult, LocalRows};
use crate::owner::EdgeOwner;
use crate::reliability::{run_ranks, ReliableEndpoint};
use crate::transport::TransportConfig;

#[derive(Debug, Clone)]
enum RowMessage {
    /// `(v, sorted out-row of v)`.
    Row { v: VertexId, row: Arc<[VertexId]> },
    /// Sender pushed every row it had for this link.
    Done,
}

/// Counts unordered triangles of the stored (undirected) graph across
/// ranks, over perfect channels. `owner` must be the mapping the
/// generation run used.
///
/// Panics if a rank stores an arc whose source it does not own (the
/// row-push algorithm requires source-complete rows).
pub fn distributed_triangle_count(result: &DistResult, owner: &dyn EdgeOwner) -> u64 {
    distributed_triangle_count_traced(result, owner, &TransportConfig::Perfect).0
}

/// [`distributed_triangle_count`] over an explicit transport — pass a
/// [`TransportConfig::Faulty`] to replay the count under a seeded chaos
/// schedule — that also returns the merged per-rank event timeline
/// (push/count round boundaries, transport fault events, per-link
/// accounting). The timeline is empty unless
/// `kron_obs::events::set_enabled(true)` was on when the count started.
pub fn distributed_triangle_count_traced(
    result: &DistResult,
    owner: &dyn EdgeOwner,
    transport: &TransportConfig,
) -> (u64, Timeline) {
    let _span = kron_obs::span::enter("dist/triangle_count");
    let local_rows = result.local_rows(owner);
    let (counts, timeline) = run_ranks(transport, local_rows.len(), |link| {
        count_on_rank(link, &local_rows, owner)
    });
    (counts.into_iter().sum(), timeline)
}

fn count_on_rank(
    mut link: ReliableEndpoint<RowMessage>,
    local_rows: &[LocalRows],
    owner: &dyn EdgeOwner,
) -> (u64, RankRecorder) {
    let rank = link.rank();
    let ranks = link.ranks();
    let mine = &local_rows[rank];
    // The single exchange epoch, timed end to end per rank.
    let epoch_timer = link.recorder().is_active().then(Instant::now);
    link.recorder().record(EventKind::EpochStart, NO_PEER, 0, 0);

    // Push phase: send each owned row to the owners of smaller neighbors.
    for (&v, row) in mine {
        let mut dests: Vec<usize> = row
            .iter()
            .filter(|&&u| u < v)
            .map(|&u| owner.owner(u, v))
            .collect();
        dests.sort_unstable();
        dests.dedup();
        for dest in dests {
            link.send(dest, RowMessage::Row { v, row: Arc::clone(row) });
        }
    }
    for dest in 0..ranks {
        link.send(dest, RowMessage::Done);
    }

    // Count phase: for each received row N(v) and each owned u ∈ N(v)
    // with u < v, count common neighbors w > v. Runs until every rank's
    // Done is in.
    let mut dones = 0;
    let mut count = 0u64;
    while dones < ranks {
        match link.poll() {
            None => {}
            Some((_, RowMessage::Done)) => dones += 1,
            Some((_, RowMessage::Row { v, row: row_v })) => {
                for &u in row_v.iter().filter(|&&u| u < v) {
                    if let Some(row_u) = mine.get(&u) {
                        if row_u.binary_search(&v).is_err() {
                            continue; // arc (u,v) absent locally: not an edge
                        }
                        count += count_common_above(row_u, &row_v, v);
                    }
                }
            }
        }
    }
    if let Some(t) = epoch_timer {
        let ns = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        link.recorder().record(EventKind::EpochEnd, NO_PEER, 0, ns);
    }
    (count, link.close())
}

/// `|{ w > threshold : w ∈ a ∩ b }|` for sorted slices.
fn count_common_above(a: &[VertexId], b: &[VertexId], threshold: VertexId) -> u64 {
    let start_a = a.partition_point(|&x| x <= threshold);
    let start_b = b.partition_point(|&x| x <= threshold);
    let (mut i, mut j) = (start_a, start_b);
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_distributed, DistConfig, OwnerConfig};
    use crate::owner::{HashOwner, VertexBlockOwner};
    use crate::transport::FaultConfig;
    use kron_core::triangles::TriangleOracle;
    use kron_core::{KroneckerPair, SelfLoopMode};
    use kron_graph::generators::{barabasi_albert, clique, erdos_renyi};

    #[test]
    fn matches_ground_truth_block_owner() {
        let pair = KroneckerPair::new(
            erdos_renyi(9, 0.5, 51),
            barabasi_albert(8, 2, 52),
            SelfLoopMode::AsIs,
        )
        .unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        for ranks in [1usize, 3, 5] {
            let result = generate_distributed(&pair, &DistConfig::new(ranks));
            let owner = VertexBlockOwner::new(pair.n_c(), ranks);
            let counted = distributed_triangle_count(&result, &owner);
            assert_eq!(
                counted as u128,
                oracle.global_triangles(),
                "ranks {ranks}: distributed count vs tau_C = 6 tau_A tau_B"
            );
        }
    }

    #[test]
    fn matches_ground_truth_hash_owner() {
        let pair =
            KroneckerPair::with_full_self_loops(erdos_renyi(8, 0.5, 53), clique(4)).unwrap();
        let oracle = TriangleOracle::new(&pair).unwrap();
        let mut cfg = DistConfig::new(4);
        cfg.owner = OwnerConfig::Hash { seed: 5 };
        let result = generate_distributed(&pair, &cfg);
        let owner = HashOwner::new(4, 5);
        let counted = distributed_triangle_count(&result, &owner);
        assert_eq!(counted as u128, oracle.global_triangles());
    }

    #[test]
    fn matches_direct_enumeration() {
        use kron_analytics::triangles::global_triangles;
        use kron_core::generate::materialize;
        let pair = KroneckerPair::as_is(clique(4), erdos_renyi(6, 0.6, 54)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(3));
        let owner = VertexBlockOwner::new(pair.n_c(), 3);
        let counted = distributed_triangle_count(&result, &owner);
        assert_eq!(counted, global_triangles(&materialize(&pair)));
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let pair = KroneckerPair::with_full_self_loops(clique(3), clique(3)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(1));
        let owner = VertexBlockOwner::new(pair.n_c(), 1);
        let counted = distributed_triangle_count(&result, &owner);
        let oracle = TriangleOracle::new(&pair).unwrap();
        assert_eq!(counted as u128, oracle.global_triangles());
    }

    #[test]
    #[should_panic(expected = "owner map must match")]
    fn rejects_mismatched_owner() {
        let pair = KroneckerPair::as_is(clique(3), clique(3)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(2));
        let owner = VertexBlockOwner::new(pair.n_c(), 3); // wrong rank count
        distributed_triangle_count(&result, &owner);
    }

    #[test]
    fn survives_duplicated_reordered_rows() {
        let pair = KroneckerPair::as_is(clique(4), erdos_renyi(6, 0.6, 54)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(4));
        let owner = VertexBlockOwner::new(pair.n_c(), 4);
        let baseline = distributed_triangle_count(&result, &owner);
        for seed in [3u64, 8, 4096] {
            for faults in [FaultConfig::dup_reorder_only(seed), FaultConfig::chaos(seed)] {
                let counted = distributed_triangle_count_traced(
                    &result,
                    &owner,
                    &TransportConfig::Faulty(faults),
                )
                .0;
                assert_eq!(counted, baseline, "repro {faults:?} (faulty TC)");
            }
        }
    }
}
