//! # kron-obs — zero-dependency observability for the Kronecker stack
//!
//! The paper's evaluation (§V) reports per-phase wall time, per-rank
//! message/load statistics, and storage bounds. This crate is the uniform
//! instrumentation layer behind those numbers: hierarchical span timers,
//! a sharded metrics registry, a feature-gated measuring allocator, the
//! distributed per-rank event log, and JSON/plain-text export — built on
//! `std` alone (the vendored serialize-only `serde`/`serde_json` render
//! the export; crates.io is unreachable in this build environment).
//!
//! ## Determinism contract
//!
//! Instrumentation must never influence results. Everything in this crate
//! is **observation-only**: probes read clocks and bump counters, they
//! never draw randomness, take locks on data paths, reorder work, or feed
//! anything back into the instrumented computation. The repo-wide
//! guarantee — CSR bytes, triangle vectors, closeness batches, BFS
//! distances, and chaos-matrix results are bit-identical with
//! instrumentation enabled, disabled, or with the measuring allocator
//! installed — is enforced by `tests/obs_determinism.rs` at the workspace
//! root.
//!
//! ## Cost model
//!
//! Observability is off by default. The disabled fast path of every probe
//! is one relaxed atomic load and a branch ([`enabled`]); spans allocate
//! and lock only on the enabled path, and metric handles resolve to plain
//! indexed adds into a thread-local shard. Shards merge into the global
//! registry in name order with commutative operations (sum for counters,
//! max for gauges), so snapshots are deterministic under any thread
//! schedule.
//!
//! * [`span`] — RAII phase timers forming a per-thread phase stack.
//! * [`metrics`] — counters and max-gauges in the global sharded
//!   registry, and the shared log2-bucket latency quantiles.
//! * [`alloc`] — live/peak allocation tracking (feature `measure-alloc`).
//! * [`events`] — the distributed per-rank event log and timeline merge.
//! * [`ring`] — the always-on flight recorder: lock-free per-thread
//!   rings of recent query/span events with stage breakdowns, plus the
//!   panic hook that dumps them (DESIGN.md §14).
//! * [`trace_export`] — Chrome `trace_event` rendering of timelines,
//!   span trees, and flight-recorder contents.
//! * [`report`] — [`report::ObsReport`] JSON export + human summary.
//! * [`json_lint`] — a minimal JSON syntax validator (the vendored
//!   `serde_json` is serialize-only, so emitted reports are checked with
//!   this instead of a round-trip).

use std::sync::atomic::{AtomicBool, Ordering};

pub mod alloc;
pub mod events;
pub mod json_lint;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod span;
pub mod trace_export;

/// Master switch for spans and metrics. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span/metric recording on or off globally. Probes that are
/// in-flight keep the decision they made at entry, so toggling mid-phase
/// is safe (the phase is simply recorded or not as a whole).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span/metric recording is currently on — the one relaxed atomic
/// load every disabled probe pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded spans and metrics (global registry and the calling
/// thread's shard). Benchmarks call this between instrumented sections so
/// each report covers exactly one run.
pub fn reset() {
    span::reset();
    metrics::reset();
}

/// Serializes tests that flip the process-global toggles or read the
/// global tables; the harness runs tests on parallel threads.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_roundtrip() {
        let _serial = test_serial();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
