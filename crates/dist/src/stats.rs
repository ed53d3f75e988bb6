//! Per-rank counters and aggregate load/storage metrics.
//!
//! Each rank's exchange counts straight into its [`RankStats`] (plain
//! field adds, always on), and a run's [`GenStats`] is the only copy of
//! its totals: the global `kron-obs` registry holds none of them.

use serde::{Deserialize, Serialize};

/// Counters collected by one simulated rank.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankStats {
    /// Product arcs this rank generated.
    pub generated: u64,
    /// Arcs this rank sent to other ranks (excludes self-delivery).
    pub sent_remote: u64,
    /// Arcs this rank delivered to itself.
    pub sent_local: u64,
    /// Arcs this rank received and stored.
    pub stored: u64,
    /// Batch messages this rank sent.
    pub messages: u64,
    /// Factor arcs this rank held (`|E_{A_r}| + |E_{B_r}|`).
    pub factor_arcs: u64,
    /// Payloads retransmitted by the reliable layer (0 on a perfect
    /// transport).
    pub retransmissions: u64,
    /// Redelivered payloads the reliable layer deduplicated away.
    pub redeliveries_discarded: u64,
    /// Batch buffers recycled from drained inbound messages instead of
    /// freshly allocated — each one is a `batch_size`-capacity `Vec` the
    /// exchange did **not** allocate.
    pub batch_buffers_reused: u64,
    /// Sorted shard runs this rank spilled to disk (0 unless the run was
    /// configured with `DistConfig::spill`).
    pub spill_runs: u64,
    /// Arcs this rank spilled into shard runs instead of resident memory.
    pub spill_arcs: u64,
    /// Batch sends that left their link's credit window full, so the rank
    /// drained its inbox until an ack freed a slot
    /// (`kron_dist::generator::CREDIT_WINDOW`).
    pub window_waits: u64,
}

/// Aggregated statistics over all ranks of one generation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GenStats {
    /// Per-rank counters.
    pub per_rank: Vec<RankStats>,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
}

impl GenStats {
    /// Total arcs generated across ranks.
    pub fn total_generated(&self) -> u64 {
        self.per_rank.iter().map(|r| r.generated).sum()
    }

    /// Total arcs stored across ranks.
    pub fn total_stored(&self) -> u64 {
        self.per_rank.iter().map(|r| r.stored).sum()
    }

    /// Fraction of arcs that crossed rank boundaries.
    pub fn remote_fraction(&self) -> f64 {
        let remote: u64 = self.per_rank.iter().map(|r| r.sent_remote).sum();
        let total = self.total_generated();
        if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        }
    }

    /// Generation load imbalance: max generated / mean generated.
    pub fn generation_imbalance(&self) -> f64 {
        imbalance(self.per_rank.iter().map(|r| r.generated))
    }

    /// Storage imbalance: max stored / mean stored.
    pub fn storage_imbalance(&self) -> f64 {
        imbalance(self.per_rank.iter().map(|r| r.stored))
    }

    /// Max factor arcs held by any rank (the §III storage bound term).
    pub fn max_factor_arcs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.factor_arcs).max().unwrap_or(0)
    }

    /// Total reliable-layer retransmissions (0 on a perfect transport).
    pub fn total_retransmissions(&self) -> u64 {
        self.per_rank.iter().map(|r| r.retransmissions).sum()
    }

    /// Total redelivered payloads discarded by receive-side dedup.
    pub fn total_redeliveries_discarded(&self) -> u64 {
        self.per_rank.iter().map(|r| r.redeliveries_discarded).sum()
    }

    /// Total batch buffers recycled across ranks — allocations the
    /// exchange saved by reusing drained receive buffers for outboxes.
    pub fn total_batch_buffers_reused(&self) -> u64 {
        self.per_rank.iter().map(|r| r.batch_buffers_reused).sum()
    }

    /// Total arcs spilled into shard runs across ranks (0 unless the run
    /// was configured with `DistConfig::spill`).
    pub fn total_spilled_arcs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.spill_arcs).sum()
    }

    /// Total credit-window waits across ranks.
    pub fn total_window_waits(&self) -> u64 {
        self.per_rank.iter().map(|r| r.window_waits).sum()
    }

    /// Generation throughput in arcs/second.
    pub fn arcs_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.total_generated() as f64 / self.elapsed_secs
        }
    }
}

fn imbalance(values: impl Iterator<Item = u64>) -> f64 {
    let values: Vec<u64> = values.collect();
    if values.is_empty() {
        return 1.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / values.len() as f64;
    *values.iter().max().expect("nonempty") as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(gen: &[u64], stored: &[u64]) -> GenStats {
        GenStats {
            per_rank: gen
                .iter()
                .zip(stored)
                .map(|(&g, &s)| RankStats { generated: g, stored: s, ..Default::default() })
                .collect(),
            elapsed_secs: 2.0,
        }
    }

    #[test]
    fn totals_and_throughput() {
        let s = stats(&[10, 20, 30], &[15, 15, 30]);
        assert_eq!(s.total_generated(), 60);
        assert_eq!(s.total_stored(), 60);
        assert_eq!(s.arcs_per_sec(), 30.0);
    }

    #[test]
    fn imbalance_metrics() {
        let s = stats(&[10, 10, 10], &[30, 0, 0]);
        assert!((s.generation_imbalance() - 1.0).abs() < 1e-12);
        assert!((s.storage_imbalance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn remote_fraction() {
        let mut s = stats(&[10, 10], &[10, 10]);
        s.per_rank[0].sent_remote = 5;
        s.per_rank[1].sent_remote = 5;
        assert!((s.remote_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_defaults() {
        let s = GenStats::default();
        assert_eq!(s.total_generated(), 0);
        assert_eq!(s.remote_fraction(), 0.0);
        assert_eq!(s.generation_imbalance(), 1.0);
        assert_eq!(s.arcs_per_sec(), 0.0);
        assert_eq!(s.max_factor_arcs(), 0);
    }
}
