//! The benchmark's own spans, kept in memory.
//!
//! Every call the benchmark makes into a layer of the system runs inside
//! a span naming that layer; the timed section of each iteration is a
//! root span of layer [`Layer::Timed`]. A layer's self time is its spans'
//! durations minus the part covered by their child spans, so the root's
//! self time is exactly the timed wall time no layer span accounts for —
//! the unattributed share, which a complete breakdown keeps near zero.
//!
//! Spans are recorded only when tracing is on. At exit they are rendered
//! through `kron_obs::trace_export` as a Chrome trace, beside the
//! server's flight-recorder events on the serve workloads.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kron_obs::ring::{
    FlightEvent, FlightSnapshot, RingLog, StageNs, ETYPE_SPAN_ENTER, ETYPE_SPAN_EXIT,
};

/// The system layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// A timed section of the benchmark (the root of an iteration).
    Timed,
    /// `kron-core`: factors, materialization, ground-truth oracles.
    Core,
    /// `kron-dist`: distributed generation, exchange and spill.
    Dist,
    /// `kron-graph::shard`, write side: merge and external CSR build.
    ShardWrite,
    /// `kron-graph::shard`, read side: `ExternalCsr` open and row reads.
    ShardRead,
    /// `kron-analytics`: explicit kernels on the materialized product.
    Analytics,
    /// `kron-serve`: the protocol client driving the in-process server.
    Serve,
}

impl Layer {
    /// Every layer a span can be charged to, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Timed,
        Layer::Core,
        Layer::Dist,
        Layer::ShardWrite,
        Layer::ShardRead,
        Layer::Analytics,
        Layer::Serve,
    ];

    /// The layer metric holding this layer's self time (`None` for
    /// [`Layer::Timed`], whose self time is the unattributed share).
    pub fn self_metric(self) -> Option<&'static str> {
        match self {
            Layer::Timed => None,
            Layer::Core => Some("self_s.core"),
            Layer::Dist => Some("self_s.dist"),
            Layer::ShardWrite => Some("self_s.shard_write"),
            Layer::ShardRead => Some("self_s.shard_read"),
            Layer::Analytics => Some("self_s.analytics"),
            Layer::Serve => Some("self_s.serve"),
        }
    }
}

/// Handle of a recorded span, used as the parent of nested spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    layer: Layer,
    parent: Option<SpanId>,
    track: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; inert when tracing is off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    recs: Mutex<Vec<Rec>>,
}

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
}

fn track() -> u32 {
    TRACK.with(|t| {
        let id = t
            .get()
            .unwrap_or_else(|| NEXT_TRACK.fetch_add(1, Ordering::Relaxed));
        t.set(Some(id));
        id
    })
}

/// Ring index offset of benchmark span tracks in the exported trace, so
/// they never share a track with the server's flight-recorder rings.
const TRACK_RING_BASE: u64 = 100;

/// Time charged to each layer by one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self time per layer, nanoseconds, summed over threads (the
    /// `Timed` entry is the unattributed part of the timed sections).
    pub self_ns: BTreeMap<Layer, u64>,
    /// Total wall time of the timed sections, nanoseconds.
    pub timed_ns: u64,
    /// Number of timed sections (iterations).
    pub sections: u64,
}

impl Attribution {
    /// Self time of `layer` per timed section, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        let ns = self.self_ns.get(&layer).copied().unwrap_or(0);
        ns as f64 / 1e9 / self.sections.max(1) as f64
    }

    /// Share of the timed wall time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let unattributed = self.self_ns.get(&Layer::Timed).copied().unwrap_or(0);
        crate::stats::ratio(unattributed as f64, self.timed_ns as f64)
    }
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Tracer {
        if on {
            // Start the flight recorder's clock first so its event times
            // and the benchmark's span times share (almost exactly) one
            // origin in the exported trace.
            let _ = kron_obs::ring::recorded_total();
        }
        Tracer {
            on,
            origin: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span charged to `layer`, nested under `parent`; it closes
    /// when the returned guard drops.
    pub fn span(&self, name: &'static str, layer: Layer, parent: Option<SpanId>) -> Span<'_> {
        if !self.on {
            return Span {
                tracer: self,
                id: None,
            };
        }
        let rec = Rec {
            name,
            layer,
            parent,
            track: track(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        let mut recs = self.recs.lock().expect("span table poisoned");
        recs.push(rec);
        Span {
            tracer: self,
            id: Some(SpanId(recs.len() - 1)),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        layer: Layer,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.span(name, layer, parent);
        f()
    }

    fn recs(&self) -> Vec<Rec> {
        self.recs.lock().expect("span table poisoned").clone()
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.recs()
            .iter()
            .filter(|r| r.name == name && r.end_ns >= r.start_ns)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time per layer over every closed span.
    pub fn attribution(&self) -> Attribution {
        let recs = self.recs();
        let dur = |r: &Rec| r.end_ns.saturating_sub(r.start_ns);
        let mut covered = vec![0u64; recs.len()];
        for r in &recs {
            if let Some(SpanId(p)) = r.parent {
                covered[p] += dur(r);
            }
        }
        let mut out = Attribution::default();
        for (r, cov) in recs.iter().zip(&covered) {
            *out.self_ns.entry(r.layer).or_default() += dur(r).saturating_sub(*cov);
            if r.layer == Layer::Timed {
                out.timed_ns += dur(r);
                out.sections += 1;
            }
        }
        out
    }

    /// The spans as a flight-recorder snapshot (one ring per recording
    /// thread, enter/exit events in nesting order), which
    /// `kron_obs::trace_export::TraceBuilder::add_flight` renders as
    /// `B`/`E` pairs.
    pub fn as_flight(&self) -> FlightSnapshot {
        let recs = self.recs();
        let mut names: Vec<String> = Vec::new();
        let mut name_ids: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &recs {
            name_ids.entry(r.name).or_insert_with(|| {
                names.push(r.name.to_string());
                names.len() as u64 - 1
            });
        }
        let mut by_track: BTreeMap<u32, Vec<&Rec>> = BTreeMap::new();
        for r in recs.iter().filter(|r| r.end_ns >= r.start_ns) {
            by_track.entry(r.track).or_default().push(r);
        }
        let event = |seq: u64, t_ns: u64, etype: u8, id: u64| FlightEvent {
            seq,
            t_ns,
            etype,
            kind: 0,
            flags: 0,
            count: 0,
            id,
            stages: StageNs::default(),
        };
        let mut rings = Vec::new();
        for (track, mut spans) in by_track {
            // Parents before children: earlier start first, longer first.
            spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
            let mut events = Vec::with_capacity(spans.len() * 2);
            let mut open: Vec<&Rec> = Vec::new();
            for s in spans {
                while let Some(top) = open.last().filter(|top| top.end_ns <= s.start_ns) {
                    events.push(event(
                        events.len() as u64,
                        top.end_ns,
                        ETYPE_SPAN_EXIT,
                        name_ids[top.name],
                    ));
                    open.pop();
                }
                events.push(event(
                    events.len() as u64,
                    s.start_ns,
                    ETYPE_SPAN_ENTER,
                    name_ids[s.name],
                ));
                open.push(s);
            }
            while let Some(top) = open.pop() {
                events.push(event(
                    events.len() as u64,
                    top.end_ns,
                    ETYPE_SPAN_EXIT,
                    name_ids[top.name],
                ));
            }
            rings.push(RingLog {
                ring: TRACK_RING_BASE + u64::from(track),
                written: events.len() as u64,
                overflow: 0,
                torn: 0,
                events,
            });
        }
        FlightSnapshot {
            capacity: 0,
            dropped_threads: 0,
            span_names: names,
            rings,
        }
    }
}

/// Guard of one open span; records the end time on drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
}

impl Span<'_> {
    /// This span's handle (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(SpanId(i)) = self.id {
            let end = self.tracer.now_ns();
            if let Ok(mut recs) = self.tracer.recs.lock() {
                recs[i].end_ns = end;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let root = t.span("root", Layer::Timed, None);
            let root_id = root.id();
            t.time("a", Layer::Core, root_id, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.time("b", Layer::Dist, root_id, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        }
        let a = t.attribution();
        assert!(a.self_s(Layer::Core) >= 0.005);
        assert!(a.self_s(Layer::Dist) >= 0.005);
        assert!(a.unattributed_share() < 0.5, "{a:?}");
        let mut tb = kron_obs::trace_export::TraceBuilder::new();
        tb.add_flight(&t.as_flight());
        tb.check_shape().expect("balanced, ordered tracks");
        assert_eq!(t.durations_s("a").len(), 1);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        t.time("a", Layer::Core, None, || ());
        assert!(t.durations_s("a").is_empty());
        assert_eq!(t.attribution().timed_ns, 0);
    }
}
