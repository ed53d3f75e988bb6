//! Flight recorder: always-on, fixed-capacity, lock-free ring buffers of
//! recent structured events (DESIGN.md §14).
//!
//! The serve tier needs "what were the last N queries and where did their
//! time go" to be answerable from a *live* process, without a lock on the
//! request path and without unbounded memory. The recorder is a fixed
//! pool of [`MAX_RINGS`] rings of [`RING_CAPACITY`] slots each; every
//! recording thread claims one ring and is its only producer, so the
//! write path is plain relaxed stores into preallocated `AtomicU64`
//! words plus one release store that publishes the slot. No allocation,
//! no CAS loop, no blocking: when a ring is full the oldest slot is
//! overwritten and the loss is *counted* (derivable as
//! `written − capacity`), never back-pressured onto the producer.
//!
//! ## Memory model
//!
//! Each slot is [`SLOT_WORDS`] `u64` words; word 0 holds the event's
//! global-per-ring sequence number. A producer fills words 0..N with
//! `Relaxed` stores and then advances `head` (the total-written count)
//! with a `Release` store. A drainer loads `head` with `Acquire` — which
//! makes all slot words of published events visible — and reads the last
//! `min(head, capacity)` slots. Two guards make concurrent drains safe
//! rather than blocking producers:
//!
//! 1. after copying a slot, the drainer re-loads `head`; if the producer
//!    has lapped past that slot the copy may be torn and is discarded,
//! 2. the copied word 0 must equal the expected sequence number, which
//!    catches a same-instant overwrite.
//!
//! Discards are counted in [`RingLog::torn`]. When producers are
//! quiescent a drain is exact and deterministic: rings ascend by index
//! and events ascend by sequence number within a ring.
//!
//! Threads claim rings through a small mutex-guarded free list — touched
//! once per thread lifetime, never per event — and release them from a
//! thread-local destructor so short-lived threads (connection readers,
//! test bodies) recycle indices instead of exhausting the pool. If more
//! than [`MAX_RINGS`] threads record simultaneously the extras drop
//! events and bump `dropped_threads`.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// Rings in the pool — the bound on simultaneously recording threads.
pub const MAX_RINGS: usize = 32;
/// Events retained per ring before the oldest is overwritten.
pub const RING_CAPACITY: usize = 1024;
/// `u64` words per slot (seq, t_ns, meta, id, five stage durations).
pub const SLOT_WORDS: usize = 9;

/// `FlightEvent::etype`: a served query frame with stage breakdown.
pub const ETYPE_QUERY: u8 = 0;
/// `FlightEvent::etype`: a span was entered (`id` indexes `span_names`).
pub const ETYPE_SPAN_ENTER: u8 = 1;
/// `FlightEvent::etype`: a span was exited (`id` indexes `span_names`).
pub const ETYPE_SPAN_EXIT: u8 = 2;

/// `FlightEvent::flags` bit: at least one row in the frame was a row-cache
/// hit. `kron-serve` keeps no row cache and never sets it; the bit stays
/// with [`StageNs::cache_ns`], which `benchmark/src/serve.rs` reads, until
/// a benchmark change retires both.
pub const FLAG_CACHE_HIT: u8 = 1;

/// Per-stage durations of one served frame, nanoseconds. `read_ns` spans
/// the whole `read_frame` call and therefore includes socket idle time;
/// the processing total used by slow-query filtering deliberately
/// excludes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageNs {
    /// Reading the request frame off the socket (includes idle wait).
    pub read_ns: u64,
    /// Sitting in the bounded worker queue.
    pub queue_ns: u64,
    /// Oracle evaluation inside `answer`.
    pub engine_ns: u64,
    /// Row-cache lookup/fill share of the engine stage. `kron-serve`
    /// keeps no row cache and records 0; the field stays only because
    /// `benchmark/src/serve.rs` reads it.
    pub cache_ns: u64,
    /// Encoding + writing the response frame.
    pub write_ns: u64,
}

/// One drained flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FlightEvent {
    /// Per-ring sequence number (0-based count of events written before it).
    pub seq: u64,
    /// Nanoseconds since the recorder's origin instant, taken at record time.
    pub t_ns: u64,
    /// One of [`ETYPE_QUERY`], [`ETYPE_SPAN_ENTER`], [`ETYPE_SPAN_EXIT`].
    pub etype: u8,
    /// Query kind (wire tag 0–5, or 6 for a batch frame); 0 for spans.
    pub kind: u8,
    /// [`FLAG_CACHE_HIT`] bits; 0 for spans.
    pub flags: u8,
    /// Queries carried by the frame (1 for singles, batch size for batches).
    pub count: u16,
    /// Request id for queries; span-name index for span events.
    pub id: u64,
    /// Stage durations (all-zero for span events).
    pub stages: StageNs,
}

impl FlightEvent {
    /// Server-side processing time: queue + engine + cache + write, i.e.
    /// everything except the read stage (which absorbs socket idle time).
    /// `cache_ns` is part of `engine_ns`, not additional, so it is not
    /// double-counted here.
    pub fn proc_ns(&self) -> u64 {
        self.stages.queue_ns + self.stages.engine_ns + self.stages.write_ns
    }
}

/// Drained view of one ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RingLog {
    /// Ring index (stable for the lifetime of the claiming thread).
    pub ring: u64,
    /// Total events ever written to this ring.
    pub written: u64,
    /// Events lost to overwrite: `written.saturating_sub(capacity)`.
    pub overflow: u64,
    /// Slots discarded by this drain because a producer lapped mid-copy.
    pub torn: u64,
    /// Surviving events, ascending by `seq`.
    pub events: Vec<FlightEvent>,
}

/// Deterministic (when quiesced) merge of every claimed ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FlightSnapshot {
    /// [`RING_CAPACITY`].
    pub capacity: u64,
    /// Events dropped because more than [`MAX_RINGS`] threads recorded.
    pub dropped_threads: u64,
    /// Span-name intern table; `FlightEvent::id` of span events indexes it.
    pub span_names: Vec<String>,
    /// Per-ring logs, ascending by ring index.
    pub rings: Vec<RingLog>,
}

impl FlightSnapshot {
    /// Total surviving events across rings.
    pub fn total_events(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    /// Total events ever written across rings.
    pub fn total_written(&self) -> u64 {
        self.rings.iter().map(|r| r.written).sum()
    }

    /// Total events lost to ring overwrite across rings.
    pub fn total_overflow(&self) -> u64 {
        self.rings.iter().map(|r| r.overflow).sum()
    }
}

struct Ring {
    /// Total events written; `head % capacity` is the next slot.
    head: AtomicU64,
    /// `RING_CAPACITY * SLOT_WORDS` preallocated words.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new() -> Self {
        let mut v = Vec::with_capacity(RING_CAPACITY * SLOT_WORDS);
        v.resize_with(RING_CAPACITY * SLOT_WORDS, || AtomicU64::new(0));
        Ring { head: AtomicU64::new(0), slots: v.into_boxed_slice() }
    }

    /// Single-producer append: relaxed word stores, release head publish.
    #[inline]
    fn push(&self, words: &[u64; SLOT_WORDS]) {
        let head = self.head.load(Ordering::Relaxed);
        let base = (head as usize % RING_CAPACITY) * SLOT_WORDS;
        self.slots[base].store(head, Ordering::Relaxed);
        for (k, &w) in words.iter().enumerate().skip(1) {
            self.slots[base + k].store(w, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
    }

    fn drain(&self, ring_idx: usize) -> RingLog {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(RING_CAPACITY as u64);
        let mut events = Vec::with_capacity(n as usize);
        let mut torn = 0u64;
        for seq in (head - n)..head {
            let base = (seq as usize % RING_CAPACITY) * SLOT_WORDS;
            let mut w = [0u64; SLOT_WORDS];
            for (k, slot) in w.iter_mut().enumerate() {
                *slot = self.slots[base + k].load(Ordering::Relaxed);
            }
            // Guard 1: if the producer lapped past this slot while we
            // copied, the copy may be torn. Guard 2: the stored sequence
            // word must be the one we expected.
            let head_now = self.head.load(Ordering::Acquire);
            if head_now > seq + RING_CAPACITY as u64 || w[0] != seq {
                torn += 1;
                continue;
            }
            events.push(FlightEvent {
                seq: w[0],
                t_ns: w[1],
                etype: (w[2] & 0xff) as u8,
                kind: ((w[2] >> 8) & 0xff) as u8,
                flags: ((w[2] >> 16) & 0xff) as u8,
                count: ((w[2] >> 24) & 0xffff) as u16,
                id: w[3],
                stages: StageNs {
                    read_ns: w[4],
                    queue_ns: w[5],
                    engine_ns: w[6],
                    cache_ns: w[7],
                    write_ns: w[8],
                },
            });
        }
        RingLog {
            ring: ring_idx as u64,
            written: head,
            overflow: head.saturating_sub(RING_CAPACITY as u64),
            torn,
            events,
        }
    }
}

struct Recorder {
    rings: Vec<Ring>,
    /// Released ring indices awaiting reuse (touched at thread start/exit).
    free: Mutex<Vec<usize>>,
    /// High-water mark of claimed indices (`0..next` were ever claimed).
    next: AtomicUsize,
    dropped_threads: AtomicU64,
    origin: Instant,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// Span-name intern table: name → id, plus the id → name list.
static NAMES: Mutex<Option<(BTreeMap<&'static str, u32>, Vec<&'static str>)>> = Mutex::new(None);

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        rings: (0..MAX_RINGS).map(|_| Ring::new()).collect(),
        free: Mutex::new(Vec::with_capacity(MAX_RINGS)),
        next: AtomicUsize::new(0),
        dropped_threads: AtomicU64::new(0),
        origin: Instant::now(),
    })
}

/// Releases the thread's ring index back to the free list on thread exit,
/// so short-lived threads recycle rings instead of exhausting the pool.
/// The ring's contents stay drainable; the next claimant appends after
/// them (the free-list mutex orders the hand-off).
struct ClaimGuard(Option<usize>);

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let r = recorder();
            r.free.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(idx);
        }
    }
}

thread_local! {
    static CLAIM: OnceCell<ClaimGuard> = const { OnceCell::new() };
}

fn claim_index() -> Option<usize> {
    let r = recorder();
    if let Some(idx) = r.free.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop() {
        return Some(idx);
    }
    let claimed = r
        .next
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            if n < MAX_RINGS { Some(n + 1) } else { None }
        });
    claimed.ok()
}

/// Runs `f` with the calling thread's ring, or counts the event as
/// dropped when the pool is exhausted.
#[inline]
fn with_ring(f: impl FnOnce(&Ring, Instant)) {
    let r = recorder();
    CLAIM.with(|claim| {
        let guard = claim.get_or_init(|| ClaimGuard(claim_index()));
        match guard.0 {
            Some(idx) => f(&r.rings[idx], r.origin),
            None => {
                r.dropped_threads.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}

#[inline]
fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn meta_word(etype: u8, kind: u8, flags: u8, count: u16) -> u64 {
    u64::from(etype) | u64::from(kind) << 8 | u64::from(flags) << 16 | u64::from(count) << 24
}

/// Records one served frame with its stage breakdown. Allocation-free
/// after the thread's first record (ring claim + lazy pool init), which
/// is what lets the serve steady-state zero-allocation proof hold with
/// the recorder on.
#[inline]
pub fn record_query(id: u64, kind: u8, flags: u8, count: u16, stages: StageNs) {
    with_ring(|ring, origin| {
        ring.push(&[
            0, // seq, filled by push
            now_ns(origin),
            meta_word(ETYPE_QUERY, kind, flags, count),
            id,
            stages.read_ns,
            stages.queue_ns,
            stages.engine_ns,
            stages.cache_ns,
            stages.write_ns,
        ]);
    });
}

fn intern(name: &'static str) -> u64 {
    let mut guard = NAMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (map, list) = guard.get_or_insert_with(|| (BTreeMap::new(), Vec::new()));
    if let Some(&id) = map.get(name) {
        return u64::from(id);
    }
    let id = list.len() as u32;
    map.insert(name, id);
    list.push(name);
    u64::from(id)
}

fn record_span(etype: u8, name: &'static str) {
    let id = intern(name);
    with_ring(|ring, origin| {
        ring.push(&[0, now_ns(origin), meta_word(etype, 0, 0, 0), id, 0, 0, 0, 0, 0]);
    });
}

/// Span-enter hook, called by `span::enter` on its enabled path.
pub(crate) fn record_span_enter(name: &'static str) {
    record_span(ETYPE_SPAN_ENTER, name);
}

/// Span-exit hook, called by `SpanGuard::drop` on its enabled path.
pub(crate) fn record_span_exit(name: &'static str) {
    record_span(ETYPE_SPAN_EXIT, name);
}

/// Drains every claimed ring into a snapshot. Exact and deterministic
/// when producers are quiescent; under live traffic, mid-copy overwrites
/// are detected and counted (`torn`) instead of blocking producers.
pub fn snapshot() -> FlightSnapshot {
    let r = recorder();
    let claimed = r.next.load(Ordering::Acquire).min(MAX_RINGS);
    let span_names = {
        let guard = NAMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard
            .as_ref()
            .map(|(_, list)| list.iter().map(|s| (*s).to_string()).collect())
            .unwrap_or_default()
    };
    FlightSnapshot {
        capacity: RING_CAPACITY as u64,
        dropped_threads: r.dropped_threads.load(Ordering::Relaxed),
        span_names,
        rings: (0..claimed).map(|i| r.rings[i].drain(i)).collect(),
    }
}

/// Recent query events whose processing time ([`FlightEvent::proc_ns`],
/// read excluded) is at least `threshold_ns`, most recent first, capped
/// at `limit`.
pub fn slow_queries(threshold_ns: u64, limit: usize) -> Vec<FlightEvent> {
    let snap = snapshot();
    let mut hits: Vec<FlightEvent> = snap
        .rings
        .into_iter()
        .flat_map(|r| r.events)
        .filter(|e| e.etype == ETYPE_QUERY && e.proc_ns() >= threshold_ns)
        .collect();
    hits.sort_by(|a, b| b.t_ns.cmp(&a.t_ns).then(b.seq.cmp(&a.seq)));
    hits.truncate(limit);
    hits
}

/// Total events ever written across rings (cheap: one atomic load per ring).
pub fn recorded_total() -> u64 {
    let r = recorder();
    let claimed = r.next.load(Ordering::Acquire).min(MAX_RINGS);
    (0..claimed).map(|i| r.rings[i].head.load(Ordering::Relaxed)).sum()
}

/// Rewinds every ring to empty and zeroes the dropped-thread counter.
/// Exact only when producers are quiescent — a concurrently recording
/// thread may re-publish one in-flight event; memory safety is unaffected
/// (every access stays atomic). Ring claims are NOT released: live
/// threads keep their index.
pub fn reset() {
    let r = recorder();
    for ring in &r.rings {
        ring.head.store(0, Ordering::Release);
    }
    r.dropped_threads.store(0, Ordering::Relaxed);
}

/// Writes the current snapshot (plus the published distributed timeline,
/// if any — see `events::publish_timeline`) to
/// `$TMPDIR/kron_flight_<tag>_<pid>.json` and a Chrome-trace rendering
/// beside it, returning the JSON path.
pub fn dump_to_temp(tag: &str) -> io::Result<PathBuf> {
    let safe: String = tag
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || ".-_".contains(c) { c } else { '_' })
        .collect();
    let snap = snapshot();
    let flight_json = serde_json::to_string_pretty(&snap)
        .map_err(|e| io::Error::new(io::ErrorKind::Other, e.to_string()))?;
    let timeline_json = crate::events::published_timeline_json()
        .unwrap_or_else(|| "null".to_string());
    let doc = format!("{{\n\"flight\": {flight_json},\n\"timeline\": {timeline_json}\n}}\n");
    debug_assert!(crate::json_lint::validate(&doc).is_ok());

    let base = std::env::temp_dir();
    let pid = std::process::id();
    let path = base.join(format!("kron_flight_{safe}_{pid}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(doc.as_bytes())?;

    // Best-effort Chrome-trace rendering beside the raw dump.
    let mut tb = crate::trace_export::TraceBuilder::new();
    tb.add_flight(&snap);
    if let Some(t) = crate::events::published_timeline() {
        tb.add_timeline(&t);
    }
    let _ = tb.write_to(&base.join(format!("kron_flight_{safe}_{pid}.trace.json")));
    Ok(path)
}

/// Installs a chained panic hook that dumps the flight recorder (and the
/// published timeline) to a temp file and prints the path next to the
/// panic message. Idempotent; safe to call from several binaries/tests.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match dump_to_temp("panic") {
                Ok(path) => eprintln!(
                    "kron-obs: panic — flight recorder + timeline dumped to {}",
                    path.display()
                ),
                Err(e) => eprintln!("kron-obs: panic — flight dump failed: {e}"),
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_own_ring(min_seq: u64) -> Vec<FlightEvent> {
        // Events of the calling thread's ring at or after `min_seq`.
        let mut idx = None;
        CLAIM.with(|c| idx = c.get().and_then(|g| g.0));
        let idx = idx.expect("test thread has a ring");
        let log = recorder().rings[idx].drain(idx);
        log.events.into_iter().filter(|e| e.seq >= min_seq).collect()
    }

    #[test]
    fn record_drain_roundtrip_and_overflow() {
        let _serial = crate::test_serial();
        // Claim this thread's ring, then note where we start.
        record_query(0, 0, 0, 1, StageNs::default());
        let start = {
            let mut idx = None;
            CLAIM.with(|c| idx = c.get().and_then(|g| g.0));
            recorder().rings[idx.unwrap()].head.load(Ordering::Relaxed)
        };

        let stages = StageNs { read_ns: 10, queue_ns: 2, engine_ns: 30, cache_ns: 5, write_ns: 4 };
        record_query(77, 3, FLAG_CACHE_HIT, 1, stages);
        let got = drain_own_ring(start);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 77);
        assert_eq!(got[0].kind, 3);
        assert_eq!(got[0].flags, FLAG_CACHE_HIT);
        assert_eq!(got[0].count, 1);
        assert_eq!(got[0].stages, stages);
        assert_eq!(got[0].proc_ns(), 2 + 30 + 4);

        // Overflow: write 2*capacity events; exactly the last `capacity`
        // survive and `overflow = written - capacity` exactly.
        let n = 2 * RING_CAPACITY as u64;
        for i in 0..n {
            record_query(1000 + i, 1, 0, 1, StageNs::default());
        }
        let mut idx = None;
        CLAIM.with(|c| idx = c.get().and_then(|g| g.0));
        let log = recorder().rings[idx.unwrap()].drain(idx.unwrap());
        assert_eq!(log.events.len(), RING_CAPACITY);
        assert_eq!(log.overflow, log.written - RING_CAPACITY as u64);
        assert_eq!(log.torn, 0);
        // The survivors are the most recent `capacity` writes, in order.
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        let want: Vec<u64> = (log.written - RING_CAPACITY as u64..log.written).collect();
        assert_eq!(seqs, want);
    }

    #[test]
    fn slow_query_filter_most_recent_first() {
        let _serial = crate::test_serial();
        reset();
        let slow = StageNs { read_ns: 0, queue_ns: 0, engine_ns: 9_000_000, cache_ns: 0, write_ns: 0 };
        let fast = StageNs { read_ns: 0, queue_ns: 0, engine_ns: 10, cache_ns: 0, write_ns: 0 };
        record_query(1, 0, 0, 1, slow);
        record_query(2, 0, 0, 1, fast);
        record_query(3, 0, 0, 1, slow);
        let hits = slow_queries(1_000_000, 10);
        assert_eq!(hits.iter().map(|e| e.id).collect::<Vec<_>>(), [3, 1]);
        let one = slow_queries(1_000_000, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].id, 3);
    }

    #[test]
    fn span_events_reach_the_ring() {
        let _serial = crate::test_serial();
        crate::set_enabled(true);
        reset();
        {
            let _g = crate::span::enter("ring_span_probe");
        }
        crate::set_enabled(false);
        let snap = snapshot();
        let spans: Vec<&FlightEvent> = snap
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.etype != ETYPE_QUERY)
            .collect();
        assert!(spans.len() >= 2, "enter+exit must be recorded");
        let name_of = |e: &FlightEvent| snap.span_names[e.id as usize].clone();
        let probe: Vec<u8> = spans
            .iter()
            .filter(|e| name_of(e) == "ring_span_probe")
            .map(|e| e.etype)
            .collect();
        assert_eq!(probe, [ETYPE_SPAN_ENTER, ETYPE_SPAN_EXIT]);
    }

    #[test]
    fn dump_writes_lint_clean_json() {
        let _serial = crate::test_serial();
        record_query(42, 2, 0, 1, StageNs::default());
        let path = dump_to_temp("unit test/tag").expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        crate::json_lint::validate(&text).expect("dump must lint");
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("kron_flight_unit_test_tag"));
        let trace = path.with_extension("").with_extension("");
        let trace = trace.parent().unwrap().join(format!(
            "{}.trace.json",
            path.file_stem().unwrap().to_str().unwrap()
        ));
        let trace_text = std::fs::read_to_string(&trace).expect("trace dump exists");
        crate::json_lint::validate(&trace_text).expect("trace dump must lint");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace).ok();
    }
}
