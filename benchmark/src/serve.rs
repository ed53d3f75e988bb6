//! The serve workloads: an in-process `kron-serve` (`server::spawn`, one
//! worker, a 4096-row cache, observability on as in the `kron-serve`
//! binary) driven over loopback TCP.
//!
//! * `serve-scalar-s8` — closed loop: 2 connections, one frame in flight
//!   each, degree/triangles/closeness/community/hops at zipf 1.0. The
//!   per-frame protocol, queue, worker and flight-recorder costs
//!   dominate and the row cache is never touched.
//! * `serve-nbr-hot-s8` — open loop on 1 connection (a sender and a
//!   receiver thread): Neighbors at zipf 1.2, whose working set fits the
//!   row cache; hub rows make the reply path heavy.
//! * `serve-nbr-cold-s8` — the same, uniform over every row: 16× the
//!   cache, so nearly every request pays `synthesize_row` and an
//!   eviction.
//!
//! Open-loop requests are sent on a fixed schedule at doubling rates
//! (paced rungs) and timed from when they were *due*, so a stall is
//! charged to every request it delays; how late the sender ran is
//! reported too. `latency.p50_us` is taken on the second paced rung. A
//! last, saturating rung, as long as the paced rungs together, keeps 64
//! requests in flight and gives `ops_per_s`, the rate the server sustains
//! on that traffic. `slo_qps` is the highest paced rung whose p99 is at
//! most 1 ms and whose achieved rate is at least 98% of the offered one.
//! Each rung's vertices come from a stratified stream
//! ([`crate::zipf_stream`]), so seeds differ in order, not in which rows
//! they ask for.
//!
//! Expected replies come from `kron_serve::load::Validator` (the
//! independent `kron_core` oracle path) for every `(kind, vertex)`
//! before the clock starts; each reply is checked against that digest.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kron_obs::ring::{FlightEvent, FlightSnapshot, RingLog, ETYPE_QUERY};
use kron_serve::engine::QueryEngine;
use kron_serve::load::Validator;
use kron_serve::protocol::{self, Query, QueryKind, Request, HEADER_LEN, PROTO_VERSION};
use kron_serve::server::{self, ServerConfig, ServerHandle};
use rand::distributions::{Distribution, Zipf};
use rand::Rng;

use crate::stats::{median, nearest_rank, peak_rss_mib, ratio, Latencies, Rates};
use crate::trace::{Layer, SpanId, Tracer};
use crate::{
    digest, factors, record_latency, rng_for, secs, sleep_until, timed_setups, zipf_stream, Bench,
    Checks, Env, Values, Workload,
};

/// Offered rate of the lowest open-loop rung of `serve-nbr-hot-s8`, in
/// queries/s; paced rung `j` offers `base · 2^j`. Chosen once, from a
/// sweep of the code this benchmark was added with, so that it meets the
/// SLO on the two lowest paced rungs and misses it on the top paced one
/// (benchmark/README.md has the sweep). The saturating rung after them
/// only measures capacity.
const HOT_BASE_QPS: f64 = 5_500.0;
/// Lowest-rung rate of `serve-nbr-cold-s8` (same rule).
const COLD_BASE_QPS: f64 = 25_000.0;
/// The open-loop latency objective: p99 due-time latency at most 1 ms.
const SLO_P99_NS: u64 = 1_000_000;
/// ... with at least this share of the offered rate achieved.
const SLO_MIN_ACHIEVED: f64 = 0.98;
/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Vertices per open-loop request stream; request `i` of a rung asks for
/// entry `i mod STREAM_LEN` of its stratified stream.
const STREAM_LEN: usize = 1 << 16;
/// Requests in flight on the saturating rung: enough to keep the one
/// worker busy, few enough that the rung ends when its time is up.
const SATURATION_WINDOW: usize = 64;
/// Request index of a rung's end-of-rung sentinel.
const SENTINEL: u64 = 0xffff_ffff;
/// Flight-recorder snapshot period of the traced pass's sidecar (one
/// worker ring holds only 1024 events).
const SIDECAR_PERIOD: Duration = Duration::from_millis(250);
/// Bound on waiting for any one reply, or on a blocked request write; a
/// lost reply or a stuck server fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Input-stream salts: closed-loop client `c` and open-loop rung `tag`.
const SALT_CLIENT: u64 = 0x100;
const SALT_RUNG: u64 = 0x200;
/// Response tag of a single-query reply (see the protocol grammar).
const RESP_SINGLE: u8 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Hot,
    Cold,
}

struct Serve {
    mode: Mode,
    n_c: u64,
    addr: SocketAddr,
    handle: Option<ServerHandle>,
    kinds: Vec<QueryKind>,
    /// `digests[kind.as_u8()][vertex]`: digest of the expected reply body.
    digests: Vec<Vec<u64>>,
    seed: u64,
    rungs: usize,
    flight: Option<FlightSnapshot>,
}

pub(crate) fn prepare(env: &Env, v: &mut Values) -> std::io::Result<Box<dyn Bench>> {
    let shape = env.cfg.shape;
    let mode = match env.cfg.workload {
        Workload::ServeScalarS8 => Mode::Closed,
        Workload::ServeNbrHotS8 => Mode::Hot,
        _ => Mode::Cold,
    };
    kron_obs::set_enabled(true);
    let cfg = ServerConfig {
        workers: 1,
        cache_capacity: 4096,
        ..ServerConfig::default()
    };
    let mut engine_s = Vec::new();
    let mut spawn_err = None;
    let ((engine, handle), setup_s) = timed_setups(
        shape.setup_seconds,
        || {
            let pair = factors(shape.serve_scale, 12, 13);
            let t = Instant::now();
            let engine =
                Arc::new(QueryEngine::from_pair(pair, 0).expect("FullBoth R-MAT pair, root 0"));
            engine_s.push(t.elapsed().as_secs_f64());
            let handle = server::spawn(Arc::clone(&engine), cfg.clone());
            (engine, handle)
        },
        |(_, handle)| match handle {
            Ok(h) => drop(h.shutdown()),
            Err(e) => spawn_err = Some(e),
        },
    );
    let handle = handle?;
    if let Some(e) = spawn_err {
        handle.shutdown();
        return Err(e);
    }
    v.set("setup_s", setup_s);
    v.set("serve.engine_build_s", median(&engine_s));

    let kinds: Vec<QueryKind> = match mode {
        Mode::Closed => QueryKind::ALL
            .into_iter()
            .filter(|&k| k != QueryKind::Neighbors)
            .collect(),
        Mode::Hot | Mode::Cold => vec![QueryKind::Neighbors],
    };
    let validator = Validator::new(engine.pair(), engine.root()).expect("engine pair is valid");
    let mut digests = vec![Vec::new(); QueryKind::ALL.len()];
    let mut reply = Vec::new();
    for &kind in &kinds {
        digests[kind.as_u8() as usize] = (0..engine.n_c())
            .map(|vertex| {
                reply.clear();
                validator.expected_reply(Query { kind, vertex }, &mut reply);
                digest::bytes(&reply)
            })
            .collect();
    }
    if env.cfg.inject_fault {
        // Vertex 0 is the zipf head and a likely uniform draw at test size.
        digests[kinds[0].as_u8() as usize][0] ^= 1;
    }
    Ok(Box::new(Serve {
        mode,
        n_c: engine.n_c(),
        addr: handle.addr(),
        handle: Some(handle),
        kinds,
        digests,
        seed: env.cfg.seed,
        rungs: shape.rungs,
        flight: None,
    }))
}

/// Whether `payload` is the single reply to request `id` whose body
/// digests to `expected`.
fn reply_ok(payload: &[u8], id: u64, expected: u64) -> bool {
    payload.len() >= HEADER_LEN
        && payload[0] == PROTO_VERSION
        && payload[1] == RESP_SINGLE
        && payload[2..10] == id.to_le_bytes()
        && digest::bytes(&payload[HEADER_LEN..]) == expected
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

/// What one load phase observed, besides the checks.
#[derive(Default)]
struct Observed {
    /// Measured latencies.
    lat: Latencies,
    /// `rtt[id >> 32][id & 0xffff_ffff]`: client round trip per request
    /// id (traced passes only), for the client-vs-server split.
    rtt: BTreeMap<u64, Vec<u64>>,
    replies: u64,
    reply_bytes: u64,
}

impl Observed {
    fn absorb(&mut self, other: Observed) {
        self.lat.absorb(other.lat);
        self.rtt.extend(other.rtt);
        self.replies += other.replies;
        self.reply_bytes += other.reply_bytes;
    }
}

/// One open-loop rung's results.
struct Rung {
    /// Offered queries/s; `None` for the saturating rung.
    offered: Option<f64>,
    achieved: f64,
    /// Due-time latencies (paced rungs).
    lat: Latencies,
    /// How late the sender sent each request (paced rungs).
    late: Latencies,
}

impl Rung {
    fn meets_slo(&self) -> bool {
        let Some(offered) = self.offered else {
            return false;
        };
        self.lat.percentiles().1 <= SLO_P99_NS as f64 && self.achieved >= SLO_MIN_ACHIEVED * offered
    }
}

/// What every load phase of one pass shares.
#[derive(Clone, Copy)]
struct Pass<'a> {
    checks: &'a Checks,
    tr: &'a Tracer,
    /// The pass's timed section: the parent of the client spans.
    root: Option<SpanId>,
}

impl Serve {
    fn expected(&self, q: Query) -> u64 {
        self.digests[q.kind.as_u8() as usize][q.vertex as usize]
    }

    /// Closed loop: `CLIENTS` connections, one frame in flight each,
    /// warm for `warm` seconds, then measured for `dur` seconds.
    fn closed_loop(&self, p: Pass, warm: f64, dur: f64) -> (f64, Observed) {
        let measure_from = Instant::now() + secs(warm);
        let per_client: Vec<(Observed, Rates)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || self.closed_client(p, c, measure_from, dur)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = Observed::default();
        let mut rates = Rates::new(secs(dur).as_nanos() as u64);
        for (o, r) in per_client {
            all.absorb(o);
            rates.absorb(&r);
        }
        (rates.rate(), all)
    }

    fn closed_client(
        &self,
        p: Pass,
        c: usize,
        measure_from: Instant,
        dur: f64,
    ) -> (Observed, Rates) {
        let _span = p.tr.span("serve.closed_client", Layer::Serve, p.root);
        let mut obs = Observed::default();
        let mut rates = Rates::new(secs(dur).as_nanos() as u64);
        let deadline = measure_from + secs(dur);
        let (mut stream, mut reader) = match connect(self.addr) {
            Ok(s) => s,
            Err(e) => {
                p.checks.fail(format!("client {c} connect: {e}"));
                return (obs, rates);
            }
        };
        let mut rng = rng_for(self.seed, SALT_CLIENT + c as u64);
        let zipf = Zipf::new(self.n_c, 1.0).expect("n_C > 0");
        let mut rtts = Vec::new();
        let (mut req, mut payload) = (Vec::new(), Vec::new());
        let mut good = 0u64;
        for seq in 0u64.. {
            let q = Query {
                kind: self.kinds[rng.gen_range(0..self.kinds.len())],
                vertex: zipf.sample(&mut rng),
            };
            let id = (c as u64) << 32 | seq;
            req.clear();
            protocol::encode_request(id, &Request::Single(q), &mut req);
            let sent = Instant::now();
            let io = stream
                .write_all(&req)
                .and_then(|()| protocol::read_frame(&mut reader, &mut payload));
            let done = Instant::now();
            match io {
                Ok(true) if reply_ok(&payload, id, self.expected(q)) => good += 1,
                Ok(true) => p
                    .checks
                    .fail(format!("reply to {q:?} differs from the oracle")),
                Ok(false) => {
                    p.checks
                        .fail(format!("client {c}: server closed the connection"));
                    break;
                }
                Err(e) => {
                    p.checks.fail(format!("client {c}: {e}"));
                    break;
                }
            }
            let rtt = (done - sent).as_nanos() as u64;
            if sent >= measure_from {
                obs.lat.push(rtt);
                rates.record((done - measure_from).as_nanos() as u64);
            }
            if p.tr.on() {
                rtts.push(rtt);
            }
            obs.replies += 1;
            obs.reply_bytes += payload.len() as u64;
            if done >= deadline {
                break;
            }
        }
        p.checks.passed(good);
        obs.rtt.insert(c as u64, rtts);
        (obs, rates)
    }

    /// One open-loop rung on the shared connection, tagged `tag` in the
    /// request ids: `pace` queries/s for `dur` seconds, each timed from
    /// its due time, or — `pace` of `None` — as fast as a window of
    /// [`SATURATION_WINDOW`] requests in flight allows, for `dur` seconds.
    /// A final sentinel request marks the rung's end; one worker answers a
    /// connection's frames in order, so a reply out of order fails a
    /// check. A connection that breaks fails a check and ends the rung:
    /// the receiver shuts the socket down and drops the credits, so the
    /// sender's next write or credit fails and it stops too.
    fn rung(
        &self,
        p: Pass,
        conn: &mut (TcpStream, TcpStream),
        tag: u64,
        pace: Option<f64>,
        dur: f64,
        obs: &mut Observed,
    ) -> Rung {
        let mut rng = rng_for(self.seed, SALT_RUNG + tag);
        let skew = if self.mode == Mode::Hot { 1.2 } else { 0.0 };
        let stream = zipf_stream(self.n_c, skew, STREAM_LEN, &mut rng);
        let vertex_of = |i: usize| stream[i % STREAM_LEN];
        let n = pace.map_or(usize::MAX, |rate| ((rate * dur).round() as usize).max(1));
        let kind = self.kinds[0];
        let due = |i: usize| pace.map_or(Duration::ZERO, |rate| secs(i as f64 / rate));
        let (writer, reader) = conn;
        let t0 = Instant::now() + Duration::from_millis(1);
        let stop = t0 + secs(dur);
        let sentinel = tag << 32 | SENTINEL;
        let traced = p.tr.on();
        // The saturating rung keeps at most SATURATION_WINDOW requests in
        // flight: one credit per request, returned with any reply.
        let (credit_tx, credit_rx) = mpsc::sync_channel::<()>(SATURATION_WINDOW);

        let ((late, send_ns, sent), lat, recv_ns, rates, received, last) =
            std::thread::scope(|s| {
                let sender = s.spawn(move || {
                    let _span = p.tr.span("serve.open_sender", Layer::Serve, p.root);
                    tighten_timer_slack();
                    let mut late = Latencies::default();
                    let mut send_ns = Vec::new();
                    let mut req = Vec::new();
                    let mut send = |id: u64, vertex: u64| {
                        req.clear();
                        protocol::encode_request(
                            id,
                            &Request::Single(Query { kind, vertex }),
                            &mut req,
                        );
                        writer.write_all(&req)
                    };
                    let mut i = 0;
                    while i < n {
                        let now = if pace.is_some() {
                            sleep_until(t0 + due(i));
                            let now = Instant::now();
                            late.push(now.saturating_duration_since(t0 + due(i)).as_nanos() as u64);
                            now
                        } else {
                            let now = Instant::now();
                            if now >= stop || credit_tx.send(()).is_err() {
                                break;
                            }
                            now
                        };
                        if traced {
                            send_ns.push(now.saturating_duration_since(t0).as_nanos() as u64);
                        }
                        if let Err(e) = send(tag << 32 | i as u64, vertex_of(i)) {
                            p.checks.fail(format!("open-loop send: {e}"));
                            return (late, send_ns, i);
                        }
                        i += 1;
                    }
                    if let Err(e) = send(sentinel, 0) {
                        p.checks.fail(format!("open-loop send: {e}"));
                    }
                    (late, send_ns, i)
                });
                let _span = p.tr.span("serve.open_receiver", Layer::Serve, p.root);
                let mut lat = Latencies::default();
                let mut recv_ns = Vec::new();
                let mut rates = Rates::new(secs(dur).as_nanos() as u64);
                let (mut received, mut last, mut good) = (0usize, 0u64, 0u64);
                let mut payload = Vec::new();
                let mut ended = false;
                loop {
                    match protocol::read_frame(reader, &mut payload) {
                        Ok(true) => {}
                        Ok(false) => {
                            p.checks
                                .fail("open loop: server closed the connection".into());
                            break;
                        }
                        Err(e) => {
                            p.checks.fail(format!("open loop: {e}"));
                            break;
                        }
                    }
                    let t = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
                    let id = payload
                        .get(2..10)
                        .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                    if id == sentinel {
                        let ok = reply_ok(&payload, id, self.expected(Query { kind, vertex: 0 }));
                        p.checks.check(ok, || {
                            "reply to the end-of-rung sentinel differs from the oracle".into()
                        });
                        ended = true;
                        break;
                    }
                    if pace.is_none() {
                        let _ = credit_rx.try_recv();
                    }
                    let i = received;
                    received += 1;
                    last = t;
                    if traced {
                        recv_ns.push(t);
                    }
                    obs.replies += 1;
                    obs.reply_bytes += payload.len() as u64;
                    if id != tag << 32 | i as u64 {
                        p.checks
                            .fail(format!("open loop: reply {id:#x} out of order"));
                        continue;
                    }
                    let vertex = vertex_of(i);
                    if reply_ok(&payload, id, self.expected(Query { kind, vertex })) {
                        good += 1;
                    } else {
                        p.checks.fail(format!(
                            "reply to Neighbors({vertex}) differs from the oracle"
                        ));
                    }
                    match pace {
                        Some(_) => lat.push(t.saturating_sub(due(i).as_nanos() as u64)),
                        None => rates.record(t),
                    }
                }
                if !ended {
                    // Fail the sender's next write instead of letting it
                    // block on a connection nobody reads.
                    let _ = reader.shutdown(Shutdown::Both);
                }
                // ... and its next credit, on the saturating rung.
                drop(credit_rx);
                p.checks.passed(good);
                (
                    sender.join().expect("sender thread panicked"),
                    lat,
                    recv_ns,
                    rates,
                    received,
                    last,
                )
            });

        if received < sent {
            p.checks.fail(format!(
                "open loop: {} of {sent} replies missing",
                sent - received
            ));
        }
        if traced {
            obs.rtt.insert(
                tag,
                recv_ns
                    .iter()
                    .zip(&send_ns)
                    .map(|(r, s)| r.saturating_sub(*s))
                    .collect(),
            );
        }
        let achieved = match pace {
            Some(_) => ratio(received as f64, last as f64 / 1e9),
            None => rates.rate(),
        };
        Rung {
            offered: pace,
            achieved,
            lat,
            late,
        }
    }

    /// The load phase of one pass, `seconds` long; records `ops_per_s`,
    /// the latencies and the load metrics.
    fn load(&self, p: Pass, seconds: f64, v: &mut Values) -> Observed {
        let warm = (seconds * 0.05).min(0.5);
        if self.mode == Mode::Closed {
            let (qps, obs) = self.closed_loop(p, warm, seconds);
            v.set("ops_per_s", qps);
            record_latency(v, &obs.lat);
            return obs;
        }
        let mut obs = Observed::default();
        let mut conn = match connect(self.addr) {
            Ok(c) => c,
            Err(e) => {
                p.checks.fail(format!("open-loop connect: {e}"));
                return obs;
            }
        };
        let base = if self.mode == Mode::Hot {
            HOT_BASE_QPS
        } else {
            COLD_BASE_QPS
        };
        self.rung(p, &mut conn, 0, Some(base), warm, &mut obs);
        // Paced rungs at base · 2^j share half the time; the saturating
        // rung, whose rate is `ops_per_s`, gets the other half.
        let paced_rungs = self.rungs - 1;
        let per_rung = seconds / 2.0 / paced_rungs as f64;
        let mut rungs: Vec<Rung> = (0..paced_rungs)
            .map(|j| {
                let rate = base * 2f64.powi(j as i32);
                self.rung(p, &mut conn, j as u64 + 1, Some(rate), per_rung, &mut obs)
            })
            .collect();
        rungs.push(self.rung(
            p,
            &mut conn,
            self.rungs as u64,
            None,
            seconds / 2.0,
            &mut obs,
        ));

        let (paced, saturating) = rungs.split_at(rungs.len() - 1);
        v.set("ops_per_s", saturating[0].achieved);
        let reported = paced.get(1).unwrap_or(&paced[0]);
        record_latency(v, &reported.lat);
        v.set("load.late_us.p99", reported.late.percentiles().1 / 1e3);
        let slo = paced
            .iter()
            .filter(|r| r.meets_slo())
            .filter_map(|r| r.offered)
            .fold(0.0, f64::max);
        v.set("slo_qps", slo);
        const ACHIEVED: [&str; 4] = [
            "load.achieved_qps.r0",
            "load.achieved_qps.r1",
            "load.achieved_qps.r2",
            "load.achieved_qps.r3",
        ];
        for (name, r) in ACHIEVED.iter().zip(&rungs) {
            v.set(name, r.achieved);
        }
        for (j, r) in paced.iter().enumerate() {
            let (p50, p99) = r.lat.percentiles();
            eprintln!(
                "kron-benchmark: rung {j}: offered {:.0} q/s, achieved {:.0} q/s, p50 {:.1} us, p99 {:.1} us, \
                 sender late p99 {:.1} us{}",
                r.offered.unwrap_or(0.0),
                r.achieved,
                p50 / 1e3,
                p99 / 1e3,
                r.late.percentiles().1 / 1e3,
                if r.meets_slo() { "" } else { " (misses the SLO)" }
            );
        }
        eprintln!(
            "kron-benchmark: saturating rung: achieved {:.0} q/s",
            saturating[0].achieved
        );
        obs
    }
}

/// Asks Linux for a 1 ns timer slack on the calling thread, so the paced
/// sender's sleeps end at their due times instead of up to the default
/// 50 µs slack later.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is shared.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// Merges ring snapshots, keeping each query event once (by ring and
/// sequence number).
fn merge_flight(into: &mut BTreeMap<(u64, u64), FlightEvent>, snap: FlightSnapshot) {
    for ring in snap.rings {
        for e in ring.events.into_iter().filter(|e| e.etype == ETYPE_QUERY) {
            into.entry((ring.ring, e.seq)).or_insert(e);
        }
    }
}

fn percentile_of(events: &[&FlightEvent], q: f64, f: impl Fn(&FlightEvent) -> u64) -> f64 {
    let mut xs: Vec<u64> = events.iter().map(|e| f(e)).collect();
    xs.sort_unstable();
    nearest_rank(&xs, q) as f64
}

impl Bench for Serve {
    fn pass(&mut self, env: &Env, tr: &Tracer, v: &mut Values) {
        let handle = self.handle.as_ref().expect("server runs until finish");
        let cache_before = handle.cache_stats();
        if tr.on() {
            kron_obs::ring::reset();
        }
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let mut events = BTreeMap::new();
        let obs = std::thread::scope(|s| {
            // Sidecar: snapshot the flight recorder while the load runs.
            let sidecar = tr.on().then(|| {
                let events = &mut events;
                s.spawn(move || {
                    while let Err(mpsc::RecvTimeoutError::Timeout) =
                        stop_rx.recv_timeout(SIDECAR_PERIOD)
                    {
                        merge_flight(events, kron_obs::ring::snapshot());
                    }
                    merge_flight(events, kron_obs::ring::snapshot());
                })
            });
            let root = tr.span("serve.load", Layer::Timed, None);
            let obs = self.load(
                Pass {
                    checks: env.checks,
                    tr,
                    root: root.id(),
                },
                env.cfg.seconds,
                v,
            );
            drop(root);
            v.set("peak_rss_mb", peak_rss_mib());
            let _ = stop_tx.send(());
            if let Some(h) = sidecar {
                h.join().expect("sidecar panicked");
            }
            obs
        });

        if !tr.on() {
            return;
        }
        let cache = handle.cache_stats();
        let lookups =
            (cache.hits + cache.misses).saturating_sub(cache_before.hits + cache_before.misses);
        v.set(
            "serve.cache_hit_rate",
            ratio((cache.hits - cache_before.hits) as f64, lookups as f64),
        );
        v.set(
            "serve.cache_evictions",
            (cache.evictions - cache_before.evictions) as f64,
        );
        v.set(
            "serve.reply_bytes_per_query",
            ratio(obs.reply_bytes as f64, obs.replies as f64),
        );
        let counters = handle.counters();
        v.set("serve.bad_frames", counters.bad_frames as f64);
        v.set("serve.write_failures", counters.write_failures as f64);

        let evs: Vec<&FlightEvent> = events.values().collect();
        v.set("serve.flight_events", evs.len() as f64);
        v.set(
            "serve.read_ns.p50",
            percentile_of(&evs, 0.50, |e| e.stages.read_ns),
        );
        v.set(
            "serve.queue_ns.p50",
            percentile_of(&evs, 0.50, |e| e.stages.queue_ns),
        );
        v.set(
            "serve.queue_ns.p99",
            percentile_of(&evs, 0.99, |e| e.stages.queue_ns),
        );
        v.set(
            "serve.write_ns.p50",
            percentile_of(&evs, 0.50, |e| e.stages.write_ns),
        );
        v.set(
            "serve.write_ns.p99",
            percentile_of(&evs, 0.99, |e| e.stages.write_ns),
        );
        v.set(
            "serve.proc_ns.p99",
            percentile_of(&evs, 0.99, FlightEvent::proc_ns),
        );
        v.set(
            "serve.engine_ns.p50",
            percentile_of(&evs, 0.50, |e| e.stages.engine_ns),
        );
        v.set(
            "serve.engine_ns.p99",
            percentile_of(&evs, 0.99, |e| e.stages.engine_ns),
        );
        let nbr: Vec<&FlightEvent> = evs
            .iter()
            .copied()
            .filter(|e| e.kind == QueryKind::Neighbors.as_u8())
            .collect();
        v.set(
            "serve.cache_ns.p50",
            percentile_of(&nbr, 0.50, |e| e.stages.cache_ns),
        );
        let mut outside: Vec<u64> = evs
            .iter()
            .filter_map(|e| {
                let rtt = *obs
                    .rtt
                    .get(&(e.id >> 32))?
                    .get((e.id & 0xffff_ffff) as usize)?;
                (rtt > 0).then(|| rtt.saturating_sub(e.proc_ns()))
            })
            .collect();
        outside.sort_unstable();
        v.set("serve.outside_ns.p50", nearest_rank(&outside, 0.50) as f64);

        let mut by_ring: BTreeMap<u64, Vec<FlightEvent>> = BTreeMap::new();
        for ((ring, _), e) in events {
            by_ring.entry(ring).or_default().push(e);
        }
        let rings = by_ring
            .into_iter()
            .map(|(ring, events)| RingLog {
                ring,
                written: events.len() as u64,
                overflow: 0,
                torn: 0,
                events,
            })
            .collect();
        self.flight = Some(FlightSnapshot {
            capacity: 0,
            dropped_threads: 0,
            span_names: Vec::new(),
            rings,
        });
    }

    fn flight(&self) -> Option<FlightSnapshot> {
        self.flight.clone()
    }

    fn finish(mut self: Box<Self>, env: &Env) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let counters = handle.counters();
        env.checks.check(counters.bad_frames == 0, || {
            format!("server saw {} bad frames", counters.bad_frames)
        });
        env.checks.check(counters.write_failures == 0, || {
            format!("server failed {} reply writes", counters.write_failures)
        });
        let stats = handle.shutdown();
        env.checks.check(stats.jobs_left == 0, || {
            format!("{} jobs left after shutdown", stats.jobs_left)
        });
        kron_obs::set_enabled(false);
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;

    use kron_serve::protocol::{Reply, Response, Value};

    use super::*;

    /// How the mock server breaks the protocol, by request index.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// Never answers request 5.
        Lose,
        /// Answers request 6 before request 5.
        Swap,
        /// Closes the connection after answering request 9.
        Close,
    }

    fn reply_frame(id: u64, out: &mut Vec<u8>) {
        let reply = Response::Single(Reply::Ok(Value::Neighbors(vec![1, 2])));
        protocol::encode_response(id, &reply, out);
    }

    /// A one-connection server that answers every request with the same
    /// Neighbors reply, echoing its id, except as `fault` says.
    fn mock(fault: Option<Fault>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local address");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = stream.try_clone().expect("clone");
            let (mut payload, mut out) = (Vec::new(), Vec::new());
            let mut held = None;
            while let Ok(true) = protocol::read_frame(&mut reader, &mut payload) {
                let (id, _) = protocol::decode_request(&payload).expect("a request");
                out.clear();
                match (fault, id & 0xffff_ffff) {
                    (Some(Fault::Lose), 5) => {}
                    (Some(Fault::Swap), 5) => held = Some(id),
                    (Some(Fault::Swap), 6) => {
                        reply_frame(id, &mut out);
                        reply_frame(held.take().expect("request 5 came first"), &mut out);
                    }
                    _ => reply_frame(id, &mut out),
                }
                if stream.write_all(&out).is_err() {
                    return;
                }
                if matches!((fault, id & 0xffff_ffff), (Some(Fault::Close), 9)) {
                    return;
                }
            }
        });
        (addr, server)
    }

    /// Runs one 0.3 s rung against the mock; returns the failed checks
    /// and how long the rung took.
    fn rung_against(fault: Option<Fault>, pace: Option<f64>) -> (u64, Duration) {
        let (addr, server) = mock(fault);
        let mut body = Vec::new();
        reply_frame(0, &mut body);
        let n_c = 8;
        let mut digests = vec![Vec::new(); QueryKind::ALL.len()];
        digests[QueryKind::Neighbors.as_u8() as usize] =
            vec![digest::bytes(&body[4 + HEADER_LEN..]); n_c];
        let serve = Serve {
            mode: Mode::Cold,
            n_c: n_c as u64,
            addr,
            handle: None,
            kinds: vec![QueryKind::Neighbors],
            digests,
            seed: 1,
            rungs: 2,
            flight: None,
        };
        let checks = Checks::default();
        let tr = Tracer::new(false);
        let p = Pass {
            checks: &checks,
            tr: &tr,
            root: None,
        };
        let mut conn = connect(addr).expect("connect to the mock");
        let start = Instant::now();
        serve.rung(p, &mut conn, 1, pace, 0.3, &mut Observed::default());
        let took = start.elapsed();
        drop(conn);
        server.join().expect("mock server panicked");
        (checks.failed.load(Ordering::Relaxed), took)
    }

    #[test]
    fn a_lost_reordered_or_dropped_reply_fails_the_rung_without_hanging_it() {
        for pace in [None, Some(2_000.0)] {
            assert_eq!(
                rung_against(None, pace).0,
                0,
                "a correct server, pace {pace:?}"
            );
            for fault in [Fault::Lose, Fault::Swap, Fault::Close] {
                let (failed, took) = rung_against(Some(fault), pace);
                assert!(failed > 0, "{fault:?}, pace {pace:?}: no failed check");
                assert!(
                    took < Duration::from_secs(5),
                    "{fault:?}, pace {pace:?}: the rung took {took:?}"
                );
            }
        }
    }
}
