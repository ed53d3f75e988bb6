//! The TCP serving stack: thread-per-connection readers feeding a fixed
//! worker pool over a bounded MPMC queue.
//!
//! ## Threading model
//!
//! ```text
//! accept loop ──spawns──▶ reader (1/conn) ──Job──▶ BoundedQueue ──▶ worker pool
//!                          reads frames                              decode, eval,
//!                          into pooled buffers                       write reply
//! ```
//!
//! Connection count and parallelism are decoupled: any number of
//! connections feed `workers` threads, and the bounded queue applies
//! backpressure by parking readers when the pool falls behind (the TCP
//! receive window then pushes back on the clients). Workers write each
//! complete response frame under the connection's write lock, so frames
//! never interleave; with several workers, replies to one connection's
//! pipelined frames may be *reordered*, which is why every frame echoes
//! its request id.
//!
//! ## Error policy
//!
//! Framing violations (bad length prefix, undecodable payload) are
//! connection-fatal: the connection is shut down, a counter ticks, and
//! the server lives on. Semantic errors (vertex out of range, a row too
//! large for its reply frame under the protocol's reply budget) travel
//! back as error replies. A worker can always make progress — nothing a
//! client sends can panic the process.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, unblocks every reader via
//! `TcpStream::shutdown(Read)` (write halves stay open), joins readers,
//! **then** closes the queue — so every frame that was fully read is
//! still decoded, evaluated, and its reply flushed before the workers
//! exit. All threads are joined; the returned stats prove it.
//!
//! ## Memory
//!
//! Payload buffers cycle through a bounded pool, and each worker owns a
//! decode scratch and one reply buffer. Neighbors rows are written from
//! the factor rows straight into that reply buffer, which grows to the
//! largest reply frame (at most `MAX_FRAME_LEN`) and stays there; no
//! product row is kept between requests. After warmup a request is
//! handled end to end with zero heap allocation (asserted in
//! `tests/steady_state_alloc.rs`) — including the flight-recorder write
//! and the always-on counter bumps — and serving every row of a product
//! holds no more heap than the largest reply (`tests/reply_memory.rs`).
//!
//! ## Observability (DESIGN.md §14)
//!
//! Every query frame is stage-timed (read → queue-wait → engine →
//! write) and recorded in the [`kron_obs::ring`] flight recorder;
//! [`admin::ServeCounters`] keeps exact always-on totals and is their
//! only count (the process-global registry holds no copy); the
//! admin opcodes (`Stats`, `SlowQueries`, `FlightDump`, `ResetStats`)
//! are answered by the same worker pool under the same backpressure as
//! query traffic. `read_ns` covers the blocking `read_frame` call and
//! therefore absorbs socket idle between a client's frames — which is
//! why the slow-query criterion `proc_ns` excludes it.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kron_obs::ring::{self, StageNs};

use crate::admin::{self, CountersSnapshot, ServeCounters};
use crate::engine::QueryEngine;
use crate::protocol::{self, AdminRequest, Query, RequestBody};
use crate::queue::BoundedQueue;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded queue depth (jobs).
    pub queue_depth: usize,
    /// Ignored: the server keeps no row cache. The field stays only
    /// because `benchmark/src/serve.rs` still sets it.
    pub cache_capacity: usize,
    /// Bound on a worker's blocking write to a slow client.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: 1,
            queue_depth: 256,
            cache_capacity: 0,
            write_timeout: Duration::from_secs(10),
        }
    }
}

struct ConnState {
    id: u64,
    writer: Mutex<TcpStream>,
}

struct Job {
    conn: Arc<ConnState>,
    payload: Vec<u8>,
    /// Wall time the reader spent inside `read_frame` for this payload
    /// (absorbs socket idle between the client's frames).
    read_ns: u64,
    /// When the reader enqueued the job; the worker's pop time minus
    /// this is the frame's queue-wait stage.
    enqueued: Instant,
}

/// Buffers above this capacity are dropped instead of pooled, so one
/// giant frame cannot pin its allocation forever.
const POOLED_BUF_CAP: usize = protocol::MAX_FRAME_LEN;

/// Pre-sized capacity of the buffers the pool is seeded with at spawn:
/// large enough for typical request frames (a full 4096-query batch is
/// ~36 KB and would grow one buffer once, then stay), so a reader that
/// drains the pool faster than workers refill it still never allocates
/// for ordinary traffic.
const INITIAL_BUF_CAP: usize = 4096;

struct Shared {
    engine: Arc<QueryEngine>,
    queue: BoundedQueue<Job>,
    pool: Mutex<Vec<Vec<u8>>>,
    pool_cap: usize,
    stop: AtomicBool,
    shutdown_requested: (Mutex<bool>, Condvar),
    /// Read-half clones of live connections, for shutdown unblocking.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    /// Readers not yet joined, and how many `accept_loop` has joined.
    readers: Mutex<Vec<JoinHandle<()>>>,
    readers_reaped: AtomicUsize,
    write_timeout: Duration,
    /// Exact always-on scrape counters (see [`crate::admin`]).
    counters: ServeCounters,
    /// Spawn instant, for the `Stats` uptime field.
    started: Instant,
    /// Queue capacity, echoed in `Stats`.
    queue_depth: u64,
    /// Worker pool size, echoed in `Stats`.
    workers_n: u64,
}

impl Shared {
    fn take_buf(&self) -> Vec<u8> {
        self.pool.lock().expect("pool poisoned").pop().unwrap_or_default()
    }

    fn return_buf(&self, buf: Vec<u8>) {
        if buf.capacity() > POOLED_BUF_CAP {
            return;
        }
        let mut pool = self.pool.lock().expect("pool poisoned");
        if pool.len() < self.pool_cap {
            pool.push(buf);
        }
    }

    fn request_shutdown(&self) {
        let (flag, cv) = &self.shutdown_requested;
        *flag.lock().expect("shutdown flag poisoned") = true;
        cv.notify_all();
    }

    fn drop_conn(&self, conn: &ConnState) {
        // Both halves down; the reader unblocks with EOF/reset and
        // deregisters the entry.
        if let Ok(w) = conn.writer.lock() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

/// Answers one query into `out` within `room` bytes (the frame's reply
/// budget) and bumps its served counter.
fn answer(shared: &Shared, q: Query, room: usize, out: &mut Vec<u8>) {
    shared.engine.reply_into(q, room, out);
    shared.counters.bump_served(q.kind);
}

/// Writes a complete frame under the connection's write lock; on failure
/// the connection is dropped (the client is gone or hopelessly slow).
fn write_frame(shared: &Shared, conn: &ConnState, frame: &[u8]) {
    let ok = {
        let mut w = conn.writer.lock().expect("writer poisoned");
        w.write_all(frame).is_ok()
    };
    if !ok {
        shared.counters.write_failures.fetch_add(1, Ordering::Relaxed);
        shared.drop_conn(conn);
    }
}

/// Handles one admin opcode: performs any side effects, builds the JSON
/// reply, frames it. Served by the same workers as query traffic, so
/// admin scrapes obey the same queue backpressure.
fn answer_admin(shared: &Shared, req: AdminRequest, id: u64, resp: &mut Vec<u8>) {
    shared.counters.frames_admin.fetch_add(1, Ordering::Relaxed);
    let json = match req {
        AdminRequest::Stats => admin::stats_json(&admin::StatsInput {
            counters: shared.counters.snapshot(),
            queue_len: shared.queue.len() as u64,
            queue_depth: shared.queue_depth,
            workers: shared.workers_n,
            uptime_ns: shared.started.elapsed().as_nanos() as u64,
        }),
        AdminRequest::SlowQueries { threshold_ns, limit } => {
            admin::slow_queries_json(threshold_ns, limit)
        }
        AdminRequest::FlightDump => admin::flight_dump_json(),
        AdminRequest::ResetStats => {
            // Exactly what `Stats` reports; the host's span table and
            // metrics registry are not the server's to clear.
            shared.counters.reset();
            ring::reset();
            admin::reset_json()
        }
    };
    protocol::put_admin_json(resp, id, &json);
}

fn worker_loop(shared: &Shared) {
    let mut batch: Vec<Query> = Vec::new();
    let mut resp: Vec<u8> = Vec::new();
    while let Some(Job { conn, payload, read_ns, enqueued }) = shared.queue.pop() {
        let queue_ns = enqueued.elapsed().as_nanos() as u64;
        resp.clear();
        let decoded = protocol::decode_request_into(&payload, &mut batch);
        // The request now lives in `batch`/`decoded` scratch; recycle the
        // payload buffer *before* answering so a closed-loop client's next
        // frame always finds a pooled buffer waiting.
        shared.return_buf(payload);
        match decoded {
            Err(_) => {
                // Framing/syntax violation: the stream can't be trusted.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                shared.drop_conn(&conn);
            }
            Ok((id, RequestBody::Single(q))) => {
                shared.counters.frames_single.fetch_add(1, Ordering::Relaxed);
                let t_engine = Instant::now();
                let start = protocol::begin_frame(&mut resp, 0, id);
                answer(shared, q, protocol::reply_room(&resp, start, 0), &mut resp);
                protocol::finish_frame(&mut resp, start);
                let engine_ns = t_engine.elapsed().as_nanos() as u64;
                let t_write = Instant::now();
                write_frame(shared, &conn, &resp);
                ring::record_query(id, q.kind as u8, NO_FLAGS, 1, StageNs {
                    read_ns,
                    queue_ns,
                    engine_ns,
                    cache_ns: 0,
                    write_ns: t_write.elapsed().as_nanos() as u64,
                });
            }
            Ok((id, RequestBody::Batch)) => {
                shared.counters.frames_batch.fetch_add(1, Ordering::Relaxed);
                let t_engine = Instant::now();
                let start = protocol::begin_frame(&mut resp, 1, id);
                resp.extend_from_slice(&(batch.len() as u32).to_le_bytes());
                for (e, &q) in batch.iter().enumerate() {
                    let room = protocol::reply_room(&resp, start, batch.len() - 1 - e);
                    answer(shared, q, room, &mut resp);
                }
                protocol::finish_frame(&mut resp, start);
                let engine_ns = t_engine.elapsed().as_nanos() as u64;
                let t_write = Instant::now();
                write_frame(shared, &conn, &resp);
                // MAX_BATCH (4096) fits u16; saturate defensively.
                let n = batch.len().min(u16::MAX as usize) as u16;
                ring::record_query(id, FLIGHT_KIND_BATCH, NO_FLAGS, n, StageNs {
                    read_ns,
                    queue_ns,
                    engine_ns,
                    cache_ns: 0,
                    write_ns: t_write.elapsed().as_nanos() as u64,
                });
            }
            Ok((id, RequestBody::Admin(req))) => {
                answer_admin(shared, req, id, &mut resp);
                write_frame(shared, &conn, &resp);
            }
            Ok((id, RequestBody::Shutdown)) => {
                let start = protocol::begin_frame(&mut resp, 2, id);
                protocol::finish_frame(&mut resp, start);
                write_frame(shared, &conn, &resp);
                shared.request_shutdown();
            }
        }
    }
}

/// Flight-recorder `kind` byte for a whole batch frame (per-query kinds
/// use the 0–5 wire tags).
pub const FLIGHT_KIND_BATCH: u8 = 6;

/// Flight-recorder flags of a query frame. The server sets none, and it
/// records `cache_ns = 0`: it keeps no row cache.
const NO_FLAGS: u8 = 0;

fn reader_loop(shared: &Shared, conn: Arc<ConnState>, mut stream: TcpStream) {
    loop {
        let mut buf = shared.take_buf();
        let t_read = Instant::now();
        match protocol::read_frame(&mut stream, &mut buf) {
            Ok(true) => {
                let job = Job {
                    conn: Arc::clone(&conn),
                    payload: buf,
                    read_ns: t_read.elapsed().as_nanos() as u64,
                    enqueued: Instant::now(),
                };
                if shared.queue.push(job).is_err() {
                    break; // queue closed mid-shutdown
                }
            }
            Ok(false) => {
                shared.return_buf(buf);
                break; // clean EOF
            }
            Err(_) => {
                // Bad length prefix or torn frame: drop the connection.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                shared.return_buf(buf);
                shared.drop_conn(&conn);
                break;
            }
        }
    }
    shared
        .conns
        .lock()
        .expect("conns poisoned")
        .retain(|(id, _)| *id != conn.id);
    // Fold this reader's `serve.queue_depth` samples before exit.
    kron_obs::metrics::flush_thread();
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut next_id = 0u64;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            break; // the shutdown dummy connection (or racing clients)
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(shared.write_timeout));
        let id = next_id;
        next_id += 1;
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Two clones of the socket: one kept in the registry so
        // shutdown can unblock the reader, one for the reader itself;
        // the original becomes the locked write half.
        let (registry_half, reader_half) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(a), Ok(b)) => (a, b),
            _ => continue,
        };
        shared
            .conns
            .lock()
            .expect("conns poisoned")
            .push((id, registry_half));
        let conn = Arc::new(ConnState { id, writer: Mutex::new(stream) });
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("kron-serve-reader-{id}"))
            .spawn(move || reader_loop(&shared2, conn, reader_half))
            .expect("spawn reader");
        let mut readers = shared.readers.lock().expect("readers poisoned");
        // Join the readers that have exited: until it is joined, a finished
        // thread keeps its stack mapped, so a client that reconnects for
        // every query would exhaust the process's memory mappings.
        while let Some(i) = readers.iter().position(JoinHandle::is_finished) {
            readers.swap_remove(i).join().expect("reader thread panicked");
            shared.readers_reaped.fetch_add(1, Ordering::Relaxed);
        }
        readers.push(handle);
    }
}

/// What [`ServerHandle::cache_stats`] returns: always zeros, since the
/// server keeps no row cache. The type stays only because
/// `benchmark/src/serve.rs` still reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
}

/// Joined-thread counts and final serving counters returned by
/// [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Worker threads joined.
    pub workers_joined: usize,
    /// Reader threads joined (total spawned over the server's life).
    pub readers_joined: usize,
    /// Jobs left in the queue after the drain — always 0.
    pub jobs_left: usize,
    /// The serving counters once the workers are joined, so frames
    /// drained during shutdown count.
    pub counters: CountersSnapshot,
}

/// A running server; dropping without [`ServerHandle::shutdown`] leaks
/// the threads (they park on the listener/queue), so call it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (127.0.0.1 with the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Always zeros: the server keeps no row cache. The method stays
    /// only because `benchmark/src/serve.rs` still calls it.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Exact always-on serving counters at this instant (the same
    /// numbers the `Stats` admin opcode reports).
    pub fn counters(&self) -> CountersSnapshot {
        self.shared.counters.snapshot()
    }

    /// Blocks until some client sends a Shutdown frame (or
    /// [`ServerHandle::request_shutdown`] is called).
    pub fn wait_shutdown_requested(&self) {
        let (flag, cv) = &self.shared.shutdown_requested;
        let mut requested = flag.lock().expect("shutdown flag poisoned");
        while !*requested {
            requested = cv.wait(requested).expect("shutdown flag poisoned");
        }
    }

    /// Marks shutdown as requested (unblocks `wait_shutdown_requested`).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Graceful teardown: stop accepting, drain, flush, join everything.
    pub fn shutdown(self) -> ShutdownStats {
        let shared = &self.shared;
        shared.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept.join().expect("accept thread panicked");

        // Unblock readers: close read halves only, leaving write halves
        // open so in-flight replies still flush.
        for (_, stream) in shared.conns.lock().expect("conns poisoned").iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let readers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *shared.readers.lock().expect("readers poisoned"));
        let readers_joined = shared.readers_reaped.load(Ordering::Relaxed) + readers.len();
        for r in readers {
            r.join().expect("reader thread panicked");
        }

        // Every fully-read frame is now queued; close and let the
        // workers drain it, then join them.
        shared.queue.close();
        let workers_joined = self.workers.len();
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
        let jobs_left = shared.queue.len();
        debug_assert_eq!(jobs_left, 0, "closed queue must be drained by workers");

        // Drop remaining write halves.
        shared.conns.lock().expect("conns poisoned").clear();

        ShutdownStats {
            workers_joined,
            readers_joined,
            jobs_left,
            counters: shared.counters.snapshot(),
        }
    }
}

/// Binds 127.0.0.1 and spawns the accept loop plus the worker pool.
pub fn spawn(engine: Arc<QueryEngine>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    let pool_cap = cfg.queue_depth.max(1) + cfg.workers.max(1) + 4;
    let shared = Arc::new(Shared {
        engine,
        queue: BoundedQueue::new(cfg.queue_depth.max(1)),
        pool: Mutex::new(
            (0..pool_cap).map(|_| Vec::with_capacity(INITIAL_BUF_CAP)).collect(),
        ),
        pool_cap,
        stop: AtomicBool::new(false),
        shutdown_requested: (Mutex::new(false), Condvar::new()),
        conns: Mutex::new(Vec::new()),
        readers: Mutex::new(Vec::new()),
        readers_reaped: AtomicUsize::new(0),
        write_timeout: cfg.write_timeout,
        counters: ServeCounters::new(),
        started: Instant::now(),
        queue_depth: cfg.queue_depth.max(1) as u64,
        workers_n: cfg.workers.max(1) as u64,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("kron-serve-accept".to_string())
            .spawn(move || accept_loop(shared, listener))
            .expect("spawn accept loop")
    };
    let workers = (0..cfg.workers.max(1))
        .map(|w| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("kron-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    Ok(ServerHandle { addr, shared, accept, workers })
}
