//! Distributed validation — the paper's use case, end to end.
//!
//! The point of ground-truth Kronecker graphs (§I) is validating
//! distributed analytics at scales where no trusted reference exists.
//! This module closes that loop inside the simulated runtime: the arcs
//! the ranks store are checked against the factor-side ground truth from
//! `kron-core` — arc conservation and every vertex's degree.

use kron_core::{degree, KroneckerPair};

use crate::generator::DistResult;

/// Outcome of a distributed validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Stored arcs across ranks.
    pub stored_arcs: u64,
    /// Arc count the formulas predict (`nnz_A · nnz_B`).
    pub expected_arcs: u128,
    /// Vertices whose measured degree disagreed with `d_A ⊗ d_B`.
    pub degree_mismatches: u64,
    /// True when everything matched.
    pub passed: bool,
}

/// Validates a store-mode distributed run against ground truth: total
/// arc conservation and per-vertex degrees (`d_C = d_A ⊗ d_B`).
///
/// Degree checking walks each rank's stored arcs — `O(nnz_C)` total, the
/// same linear budget the paper assigns to local ground-truth checks.
pub fn validate_against_ground_truth(
    pair: &KroneckerPair,
    result: &DistResult,
) -> ValidationReport {
    let stored_arcs = result.stats.total_stored();
    let expected_arcs = pair.nnz_c();

    // Measured out-degrees across all ranks (disjoint source ownership
    // not assumed: sum contributions).
    let n = pair.n_c() as usize;
    let mut measured = vec![0u64; n];
    for rank_edges in &result.per_rank {
        for &(p, _) in rank_edges.arcs() {
            measured[p as usize] += 1;
        }
    }
    let mut degree_mismatches = 0u64;
    for (p, &got) in measured.iter().enumerate() {
        let want = degree::degree_of(pair, p as u64).expect("p < n_C");
        if got != want {
            degree_mismatches += 1;
        }
    }
    let passed = stored_arcs as u128 == expected_arcs && degree_mismatches == 0;
    ValidationReport { stored_arcs, expected_arcs, degree_mismatches, passed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_distributed, DistConfig};
    use crate::partition::PartitionScheme;
    use kron_core::SelfLoopMode;
    use kron_graph::generators::{barabasi_albert, clique, erdos_renyi};

    #[test]
    fn validation_passes_for_correct_runs() {
        let pair = KroneckerPair::new(
            erdos_renyi(10, 0.4, 31),
            barabasi_albert(8, 2, 32),
            SelfLoopMode::FullBoth,
        )
        .unwrap();
        for ranks in [1usize, 3, 6] {
            for scheme in [PartitionScheme::OneD, PartitionScheme::TwoD] {
                let mut cfg = DistConfig::new(ranks);
                cfg.scheme = scheme;
                let result = generate_distributed(&pair, &cfg);
                let report = validate_against_ground_truth(&pair, &result);
                assert!(report.passed, "{scheme:?} ranks={ranks}: {report:?}");
                assert_eq!(report.degree_mismatches, 0);
            }
        }
    }

    #[test]
    fn validation_catches_lost_edges() {
        let pair = KroneckerPair::as_is(clique(4), clique(4)).unwrap();
        let result = generate_distributed(&pair, &DistConfig::new(2));
        // Sabotage: drop one rank's storage.
        let mut broken = result;
        broken.per_rank[0] = kron_graph::EdgeList::new(pair.n_c());
        broken.stats.per_rank[0].stored = 0;
        let report = validate_against_ground_truth(&pair, &broken);
        assert!(!report.passed);
        assert!(report.degree_mismatches > 0);
    }
}
