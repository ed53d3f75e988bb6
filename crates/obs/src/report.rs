//! Report assembly: the span + metrics state rendered as JSON and as a
//! human-readable summary.
//!
//! Consumers print an [`ObsReport`]'s summary (`kron-serve` at shutdown)
//! or embed its JSON in their own output. The JSON side rides the
//! vendored serialize-only `serde_json`; [`ObsReport::to_json`] output is
//! guaranteed to pass [`crate::json_lint::validate`] (unit-tested here).

use serde::Serialize;

use crate::metrics::MetricsSnapshot;
use crate::span::SpanStat;

/// Version stamp of the report's JSON shape; bump on breaking changes.
/// v3 added derived quantiles to every exported histogram.
pub const SCHEMA_VERSION: u32 = 3;

/// Snapshot of everything the observability layer recorded.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsReport {
    /// [`SCHEMA_VERSION`] at emission time.
    pub schema_version: u32,
    /// Span table, path-sorted.
    pub spans: Vec<SpanStat>,
    /// Merged metrics, name-sorted.
    pub metrics: MetricsSnapshot,
}

impl ObsReport {
    /// Captures the current span table and metrics registry.
    pub fn capture() -> ObsReport {
        ObsReport {
            schema_version: SCHEMA_VERSION,
            spans: crate::span::snapshot(),
            metrics: crate::metrics::snapshot(),
        }
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Plain-text summary: span tree with times, then non-zero metrics.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "-- spans --");
        if self.spans.is_empty() {
            let _ = writeln!(out, "  (none recorded — observability disabled?)");
        }
        for s in &self.spans {
            // Indent by nesting depth so the hierarchy reads as a tree.
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let _ = writeln!(
                out,
                "  {:indent$}{name}: {:.3} ms  (n={}, min {:.3} ms, max {:.3} ms)",
                "",
                s.total_ns as f64 / 1e6,
                s.count,
                s.min_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6,
                indent = depth * 2,
            );
        }
        let _ = writeln!(out, "-- counters --");
        for c in &self.metrics.counters {
            let _ = writeln!(out, "  {} = {}", c.name, c.value);
        }
        for g in &self.metrics.gauges {
            let _ = writeln!(out, "  {} (max) = {}", g.name, g.value);
        }
        for h in &self.metrics.histograms {
            let buckets: Vec<String> =
                h.buckets.iter().map(|&(b, c)| format!("2^{b}:{c}")).collect();
            let q = &h.quantiles;
            let _ = writeln!(
                out,
                "  {} (hist, n={}, p50={} p90={} p99={} max<={}): {}",
                h.name,
                h.count,
                q.p50,
                q.p90,
                q.p99,
                q.max,
                buckets.join(" ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{NamedHistogram, NamedValue};

    fn sample() -> ObsReport {
        ObsReport {
            schema_version: SCHEMA_VERSION,
            spans: vec![
                SpanStat {
                    path: "run".into(),
                    count: 1,
                    total_ns: 5_000_000,
                    min_ns: 5_000_000,
                    max_ns: 5_000_000,
                },
                SpanStat {
                    path: "run/phase".into(),
                    count: 2,
                    total_ns: 3_000_000,
                    min_ns: 1_000_000,
                    max_ns: 2_000_000,
                },
            ],
            metrics: MetricsSnapshot {
                counters: vec![NamedValue { name: "arcs".into(), value: 42 }],
                gauges: vec![NamedValue { name: "depth".into(), value: 7 }],
                histograms: vec![NamedHistogram::from_buckets(
                    "batch".into(),
                    vec![(0, 1), (4, 2)],
                )],
            },
        }
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let json = sample().to_json();
        crate::json_lint::validate(&json).expect("report JSON parses");
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
    }

    #[test]
    fn summary_shows_hierarchy_and_metrics() {
        let text = sample().summary();
        assert!(text.contains("run: 5.000 ms"));
        assert!(text.contains("  phase: 3.000 ms") || text.contains("    phase: 3.000 ms"));
        assert!(text.contains("arcs = 42"));
        assert!(text.contains("depth (max) = 7"));
        assert!(text.contains("2^4:2"));
        // Derived quantiles of {0, 8..=15 ×2}: p50 = 8, p99 = 15.
        assert!(text.contains("p50=8"), "summary shows derived quantiles: {text}");
        assert!(text.contains("p99=15"), "summary shows derived quantiles: {text}");
    }
}
