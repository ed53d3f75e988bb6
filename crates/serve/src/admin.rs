//! Admin scrape plane: always-on exact counters plus the JSON builders
//! behind the versioned admin opcodes (`Stats`, `SlowQueries`,
//! `FlightDump`, `ResetStats`) — DESIGN.md §14.
//!
//! ## Why a second set of counters
//!
//! The `kron-obs` registry is sharded per thread and folds into the
//! global accumulator only when a thread exits (or calls
//! `flush_thread`), which keeps the query hot path allocation- and
//! contention-free but means a *live* registry snapshot lags by
//! whatever the still-running workers hold. The scrape protocol's
//! headline numbers must instead be exact at any instant — `kron-load`
//! cross-checks them bit-for-bit against its client-side tallies mid
//! run — so [`ServeCounters`] keeps one relaxed `AtomicU64` per fact.
//! A relaxed add per served query is allocation-free and a few
//! nanoseconds; the sharded registry remains the home of histograms and
//! everything else.
//!
//! The `Stats` reply therefore carries three tiers of data:
//!
//! 1. exact always-on counts (`served_*`, `frames_*`, …),
//! 2. live latency quantiles derived from the flight recorder's recent
//!    window (see [`kron_obs::ring`]) via the one shared
//!    [`kron_obs::metrics::quantiles_from_buckets`] implementation,
//! 3. the merged `kron-obs` registry snapshot, complete only for
//!    threads that have flushed (exact after shutdown joins).
//!
//! All replies are JSON (response tag `RESP_ADMIN_JSON`), validated by
//! `kron_obs::json_lint` in debug builds, and size-capped so every
//! reply fits in one `MAX_FRAME_LEN` frame.

use std::sync::atomic::{AtomicU64, Ordering};

use kron_obs::metrics::{quantiles_from_buckets, HistQuantiles, MetricsSnapshot};
use kron_obs::ring::{self, FlightEvent, FlightSnapshot};
use serde::Serialize;

use crate::protocol::QueryKind;

/// Version stamp embedded in every admin reply; bump on layout change
/// (2: `Stats` lost its `cache_*` fields with the row cache).
pub const ADMIN_SCHEMA: u32 = 2;

/// Hard cap on `SlowQueries` results regardless of the requested limit,
/// so a pretty-printed reply always fits one frame.
pub const SLOW_LIMIT_CAP: usize = 512;

/// Hard cap on events in a `FlightDump` reply (compact-printed); the
/// newest events per ring survive, the reply reports how many were cut.
pub const DUMP_EVENT_CAP: usize = 2048;

/// Always-on exact serving counters (relaxed atomics; see module docs).
#[derive(Debug, Default)]
pub struct ServeCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) frames_single: AtomicU64,
    pub(crate) frames_batch: AtomicU64,
    pub(crate) frames_admin: AtomicU64,
    pub(crate) bad_frames: AtomicU64,
    pub(crate) write_failures: AtomicU64,
    pub(crate) served: [AtomicU64; 6],
}

/// Plain-value copy of [`ServeCounters`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Single-query request frames decoded.
    pub frames_single: u64,
    /// Batch request frames decoded.
    pub frames_batch: u64,
    /// Admin request frames decoded.
    pub frames_admin: u64,
    /// Undecodable frames (connection-fatal).
    pub bad_frames: u64,
    /// Reply frames that could not be written.
    pub write_failures: u64,
    /// Queries served, indexed by `QueryKind` wire tag.
    pub served: [u64; 6],
}

impl CountersSnapshot {
    /// Queries served across every kind.
    pub fn served_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Served count for one kind.
    pub fn served_of(&self, kind: QueryKind) -> u64 {
        self.served[kind as usize]
    }
}

impl ServeCounters {
    /// Fresh zeroed counters.
    pub fn new() -> ServeCounters {
        ServeCounters::default()
    }

    /// Bumps the served count for `kind` (relaxed, allocation-free).
    #[inline]
    pub fn bump_served(&self, kind: QueryKind) {
        self.served[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every counter out.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames_single: self.frames_single.load(Ordering::Relaxed),
            frames_batch: self.frames_batch.load(Ordering::Relaxed),
            frames_admin: self.frames_admin.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            served: std::array::from_fn(|i| self.served[i].load(Ordering::Relaxed)),
        }
    }

    /// Zeroes every counter (the `ResetStats` opcode).
    pub fn reset(&self) {
        self.connections.store(0, Ordering::Relaxed);
        self.frames_single.store(0, Ordering::Relaxed);
        self.frames_batch.store(0, Ordering::Relaxed);
        self.frames_admin.store(0, Ordering::Relaxed);
        self.bad_frames.store(0, Ordering::Relaxed);
        self.write_failures.store(0, Ordering::Relaxed);
        for s in &self.served {
            s.store(0, Ordering::Relaxed);
        }
    }
}

/// Everything the worker hands the `Stats` builder besides the global
/// flight/registry state it reads itself.
#[derive(Debug, Clone, Copy)]
pub struct StatsInput {
    /// Exact always-on counters.
    pub counters: CountersSnapshot,
    /// Jobs queued right now.
    pub queue_len: u64,
    /// Queue capacity.
    pub queue_depth: u64,
    /// Worker pool size.
    pub workers: u64,
    /// Nanoseconds since `spawn`.
    pub uptime_ns: u64,
}

/// Wire name of a flight-recorder query `kind` byte (per-query kinds in
/// wire-tag order; 6 marks a whole batch frame).
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        0 => "neighbors",
        1 => "degree",
        2 => "triangles",
        3 => "closeness",
        4 => "community",
        5 => "hops",
        6 => "batch",
        _ => "other",
    }
}

#[derive(Serialize)]
struct KindLatency {
    kind: String,
    quantiles: HistQuantiles,
}

#[derive(Serialize)]
struct StatsReply {
    admin_schema: u32,
    uptime_ns: u64,
    workers: u64,
    queue_len: u64,
    queue_depth: u64,
    connections: u64,
    frames_single: u64,
    frames_batch: u64,
    frames_admin: u64,
    bad_frames: u64,
    write_failures: u64,
    served_total: u64,
    served_neighbors: u64,
    served_degree: u64,
    served_triangles: u64,
    served_closeness: u64,
    served_community: u64,
    served_hops: u64,
    flight_recorded: u64,
    flight_overflow: u64,
    flight_dropped_threads: u64,
    latency_live: Vec<KindLatency>,
    registry: MetricsSnapshot,
}

/// Per-kind processing-time quantiles over the flight recorder's
/// current window (`proc_ns`, which excludes socket-idle read time).
/// Sparse log2 buckets feed the shared quantile derivation.
fn live_latency(flight: &FlightSnapshot) -> Vec<KindLatency> {
    const KINDS: usize = 7; // 6 query kinds + whole-batch frames
    let mut counts = [[0u64; 65]; KINDS];
    for ringlog in &flight.rings {
        for e in &ringlog.events {
            if e.etype == ring::ETYPE_QUERY && (e.kind as usize) < KINDS {
                let v = e.proc_ns();
                let b = if v == 0 { 0 } else { 64 - v.leading_zeros() };
                counts[e.kind as usize][b as usize] += 1;
            }
        }
    }
    (0..KINDS as u8)
        .filter_map(|k| {
            let sparse: Vec<(u32, u64)> = counts[k as usize]
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| (b as u32, c))
                .collect();
            if sparse.is_empty() {
                return None;
            }
            Some(KindLatency {
                kind: kind_name(k).to_string(),
                quantiles: quantiles_from_buckets(&sparse),
            })
        })
        .collect()
}

fn finish(json: String) -> String {
    debug_assert!(
        kron_obs::json_lint::validate(&json).is_ok(),
        "admin reply must lint clean"
    );
    json
}

/// Builds the `Stats` reply (see module docs for the three data tiers).
pub fn stats_json(input: &StatsInput) -> String {
    let flight = ring::snapshot();
    let c = input.counters;
    let reply = StatsReply {
        admin_schema: ADMIN_SCHEMA,
        uptime_ns: input.uptime_ns,
        workers: input.workers,
        queue_len: input.queue_len,
        queue_depth: input.queue_depth,
        connections: c.connections,
        frames_single: c.frames_single,
        frames_batch: c.frames_batch,
        frames_admin: c.frames_admin,
        bad_frames: c.bad_frames,
        write_failures: c.write_failures,
        served_total: c.served_total(),
        served_neighbors: c.served[0],
        served_degree: c.served[1],
        served_triangles: c.served[2],
        served_closeness: c.served[3],
        served_community: c.served[4],
        served_hops: c.served[5],
        flight_recorded: flight.total_written(),
        flight_overflow: flight.total_overflow(),
        flight_dropped_threads: flight.dropped_threads,
        latency_live: live_latency(&flight),
        registry: kron_obs::metrics::snapshot(),
    };
    finish(serde_json::to_string_pretty(&reply).expect("stats reply serializes"))
}

#[derive(Serialize)]
struct SlowReply {
    admin_schema: u32,
    threshold_ns: u64,
    limit: u64,
    count: u64,
    queries: Vec<FlightEvent>,
}

/// Builds the `SlowQueries` reply: flight-recorded queries whose
/// `proc_ns >= threshold_ns`, newest first, at most
/// `min(limit, SLOW_LIMIT_CAP)` of them.
pub fn slow_queries_json(threshold_ns: u64, limit: u32) -> String {
    let limit = (limit as usize).min(SLOW_LIMIT_CAP);
    let queries = ring::slow_queries(threshold_ns, limit);
    let reply = SlowReply {
        admin_schema: ADMIN_SCHEMA,
        threshold_ns,
        limit: limit as u64,
        count: queries.len() as u64,
        queries,
    };
    finish(serde_json::to_string_pretty(&reply).expect("slow reply serializes"))
}

#[derive(Serialize)]
struct DumpReply {
    admin_schema: u32,
    truncated_events: u64,
    flight: FlightSnapshot,
}

/// Builds the `FlightDump` reply: the full flight snapshot, compact
/// JSON, newest `DUMP_EVENT_CAP` events kept if the rings hold more.
pub fn flight_dump_json() -> String {
    let mut flight = ring::snapshot();
    let total = flight.total_events();
    let mut truncated = 0u64;
    if total > DUMP_EVENT_CAP {
        let live_rings = flight.rings.iter().filter(|r| !r.events.is_empty()).count().max(1);
        let per_ring = DUMP_EVENT_CAP / live_rings;
        for r in &mut flight.rings {
            if r.events.len() > per_ring {
                truncated += (r.events.len() - per_ring) as u64;
                // Keep the newest tail; events are seq-ascending.
                r.events.drain(..r.events.len() - per_ring);
            }
        }
    }
    let reply =
        DumpReply { admin_schema: ADMIN_SCHEMA, truncated_events: truncated, flight };
    finish(serde_json::to_string(&reply).expect("dump reply serializes"))
}

/// Builds the `ResetStats` acknowledgement (the caller performs the
/// actual resets first).
pub fn reset_json() -> String {
    finish(format!("{{\"admin_schema\": {ADMIN_SCHEMA}, \"reset\": true}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> StatsInput {
        StatsInput {
            counters: CountersSnapshot {
                connections: 2,
                frames_single: 10,
                frames_batch: 1,
                frames_admin: 3,
                bad_frames: 0,
                write_failures: 0,
                served: [7, 1, 1, 1, 1, 1],
            },
            queue_len: 0,
            queue_depth: 256,
            workers: 1,
            uptime_ns: 123_456,
        }
    }

    #[test]
    fn stats_reply_lints_and_carries_flat_keys() {
        let json = stats_json(&sample_input());
        kron_obs::json_lint::validate(&json).expect("stats lints");
        // The sidecar's line-oriented parser keys on these exact forms.
        assert!(json.contains("\"served_neighbors\": 7"), "{json}");
        assert!(json.contains("\"served_total\": 12"), "{json}");
        assert!(json.contains("\"admin_schema\": 2"));
        assert!(!json.contains("cache_hits"), "{json}");
        assert!(json.contains("\"registry\":"));
    }

    #[test]
    fn slow_and_dump_and_reset_lint() {
        for json in [
            slow_queries_json(0, 10_000),
            flight_dump_json(),
            reset_json(),
        ] {
            kron_obs::json_lint::validate(&json).expect("admin reply lints");
            assert!(json.contains("\"admin_schema\""));
        }
        // The limit is capped regardless of what the client asked for.
        assert!(slow_queries_json(0, u32::MAX).contains(&format!(
            "\"limit\": {SLOW_LIMIT_CAP}"
        )));
    }

    #[test]
    fn counters_snapshot_and_reset_are_exact() {
        let c = ServeCounters::new();
        c.bump_served(QueryKind::Neighbors);
        c.bump_served(QueryKind::Neighbors);
        c.bump_served(QueryKind::HopsFromRoot);
        c.frames_single.fetch_add(3, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.served, [2, 0, 0, 0, 0, 1]);
        assert_eq!(s.served_total(), 3);
        assert_eq!(s.served_of(QueryKind::Neighbors), 2);
        assert_eq!(s.frames_single, 3);
        c.reset();
        assert_eq!(c.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn kind_names_cover_wire_tags() {
        assert_eq!(kind_name(0), "neighbors");
        assert_eq!(kind_name(6), "batch");
        assert_eq!(kind_name(200), "other");
    }
}
