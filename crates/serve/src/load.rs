//! Seeded load generation and bit-exact response validation.
//!
//! The harness drives a running server over real TCP connections with a
//! reproducible query stream — zipfian vertex popularity, weighted
//! query-kind mix, and a configurable pipelining window:
//!
//! * `window = 1` is the **closed loop**: one frame in flight per
//!   client, so each recorded latency is a true request RTT.
//! * `window > 1` is the **open(ish) loop**: up to `window` frames in
//!   flight per client, which measures throughput under pipelining the
//!   way a batching client would drive the server.
//!
//! Every response is validated **bit-for-bit**: the [`Validator`]
//! recomputes the exact expected response frame through the independent
//! `kron_core` oracle path (`synthesize_row_block`, `TriangleOracle`,
//! `closeness_fast`, `CommunityOracle`, `DistanceOracle::hops_of`) and
//! the client `==`-compares whole payloads. A server that drops a bit
//! anywhere — synthesis, encoding, the reply budget — fails the run,
//! not just a spot check.
//!
//! Determinism: client `c` draws from `SmallRng::seed_from_u64(seed ⊕
//! mix(c))`, so a given `(seed, clients, weights, zipf_s)` always
//! replays the same query stream (response *order* may vary with worker
//! interleaving; the set of queries and all validated bits do not).

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use kron_core::closeness::closeness_fast;
use kron_core::community::CommunityOracle;
use kron_core::degree::degree_of;
use kron_core::distance::DistanceOracle;
use kron_core::generate::synthesize_row_block;
use kron_core::triangles::TriangleOracle;
use kron_core::KroneckerPair;
use kron_graph::connectivity::connected_components;
use kron_obs::metrics::{quantiles_from_buckets, HistQuantiles};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::engine::QueryEngine;
use crate::protocol::{self, ErrorCode, Query, QueryKind};

/// Load run shape. `weights` follows [`QueryKind::ALL`] order; a zero
/// weight removes that kind from the mix.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Frames each client sends.
    pub frames_per_client: usize,
    /// Frames in flight per client (1 = closed loop).
    pub window: usize,
    /// Queries per frame (1 = single-query frames, else batch frames).
    pub batch: usize,
    /// Zipf exponent over vertex popularity (0 = uniform).
    pub zipf_s: f64,
    /// Master seed; client `c` derives its own stream from it.
    pub seed: u64,
    /// Per-kind mix weights in [`QueryKind::ALL`] order.
    pub weights: [u32; 6],
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 2,
            frames_per_client: 1000,
            window: 1,
            batch: 1,
            zipf_s: 1.0,
            seed: 0xC0FFEE,
            weights: [1, 1, 1, 1, 1, 1],
        }
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadStats {
    /// Queries sent (frames × batch).
    pub queries: u64,
    /// Frames sent.
    pub frames: u64,
    /// Wall-clock seconds over the whole run.
    pub secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Median frame RTT in microseconds (derived from log2 buckets via
    /// the shared [`quantiles_from_buckets`] implementation, the same
    /// derivation the server's `Stats` reply and `ObsReport` use).
    pub p50_us: f64,
    /// 90th-percentile frame RTT in microseconds.
    pub p90_us: f64,
    /// 99th-percentile frame RTT in microseconds.
    pub p99_us: f64,
    /// Responses compared bit-for-bit against the oracle path.
    pub validated_frames: u64,
    /// Responses whose bytes differed — must be 0.
    pub mismatched_frames: u64,
    /// Queries sent per kind, in [`QueryKind::ALL`] wire-tag order —
    /// the client-side tallies the scrape sidecar cross-checks against
    /// the server's exact `served_*` counters.
    pub queries_by_kind: Vec<u64>,
}

/// Recomputes exact expected response frames through the `kron_core`
/// oracle path (independent of [`QueryEngine`]'s precomputed tables).
pub struct Validator<'a> {
    pair: &'a KroneckerPair,
    tri: TriangleOracle<'a>,
    dist: DistanceOracle<'a>,
    comm: CommunityOracle<'a>,
    labels_a: Vec<u32>,
    labels_b: Vec<u32>,
    b_count: usize,
    root: u64,
    n_c: u64,
}

impl<'a> Validator<'a> {
    /// Builds the oracle set for `pair` with the server's root.
    pub fn new(pair: &'a KroneckerPair, root: u64) -> kron_core::Result<Validator<'a>> {
        let comps_a = connected_components(pair.a());
        let comps_b = connected_components(pair.b());
        Ok(Validator {
            tri: TriangleOracle::new(pair)?,
            dist: DistanceOracle::new(pair)?,
            comm: CommunityOracle::new(pair)?,
            labels_a: comps_a.labels,
            labels_b: comps_b.labels,
            b_count: comps_b.count as usize,
            root,
            n_c: pair.n_c(),
            pair,
        })
    }

    /// Appends the expected wire reply for `q` sent as a single-query
    /// frame (whose reply may take `MAX_FRAME_LEN - HEADER_LEN` bytes).
    pub fn expected_reply(&self, q: Query, out: &mut Vec<u8>) {
        self.expected_reply_within(q, protocol::MAX_FRAME_LEN - protocol::HEADER_LEN, out);
    }

    /// Appends the expected wire reply for `q` when it may take `room`
    /// bytes: the protocol's reply budget, decided here from the
    /// `kron_core` degree oracle.
    fn expected_reply_within(&self, q: Query, room: usize, out: &mut Vec<u8>) {
        if q.vertex >= self.n_c {
            protocol::put_err(out, ErrorCode::VertexOutOfRange, q.vertex);
            return;
        }
        match q.kind {
            QueryKind::Neighbors => {
                let deg = degree_of(self.pair, q.vertex).expect("vertex checked");
                if !protocol::neighbors_fit(deg, room) {
                    protocol::put_err(out, ErrorCode::ReplyTooLarge, deg);
                    return;
                }
                let (_, cols) = synthesize_row_block(self.pair, q.vertex..q.vertex + 1);
                protocol::put_ok_neighbors(out, &cols);
            }
            QueryKind::Degree => {
                let d = degree_of(self.pair, q.vertex).expect("vertex checked");
                protocol::put_ok_u64(out, QueryKind::Degree, d);
            }
            QueryKind::TriangleCount => {
                let t = self.tri.vertex_triangles_of(q.vertex).expect("vertex checked");
                protocol::put_ok_u64(out, QueryKind::TriangleCount, t);
            }
            QueryKind::Closeness => {
                let c = closeness_fast(&self.dist, q.vertex).expect("vertex checked");
                protocol::put_ok_u64(out, QueryKind::Closeness, c.to_bits());
            }
            QueryKind::CommunityId => {
                let id = self.comm.kron_partition_label(
                    &self.labels_a,
                    &self.labels_b,
                    self.b_count,
                    q.vertex,
                );
                protocol::put_ok_u32(out, QueryKind::CommunityId, id);
            }
            QueryKind::HopsFromRoot => {
                let h = self.dist.hops_of(self.root, q.vertex).expect("vertex checked");
                protocol::put_ok_u32(out, QueryKind::HopsFromRoot, h);
            }
        }
    }

    /// Builds the complete expected response frame (length prefix
    /// included) for a request frame carrying `queries`, applying the
    /// reply budget entry by entry in query order.
    pub fn expected_response_frame(&self, request_id: u64, queries: &[Query], out: &mut Vec<u8>) {
        if queries.len() == 1 {
            let start = protocol::begin_frame(out, 0, request_id);
            self.expected_reply(queries[0], out);
            protocol::finish_frame(out, start);
        } else {
            let start = protocol::begin_frame(out, 1, request_id);
            out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
            for (e, &q) in queries.iter().enumerate() {
                let room = protocol::reply_room(out, start, queries.len() - 1 - e);
                self.expected_reply_within(q, room, out);
            }
            protocol::finish_frame(out, start);
        }
    }
}

/// Weighted kind sampler over [`QueryKind::ALL`].
struct KindMix {
    cumulative: [u32; 6],
    total: u32,
}

impl KindMix {
    fn new(weights: &[u32; 6]) -> KindMix {
        let mut cumulative = [0u32; 6];
        let mut total = 0;
        for (c, &w) in cumulative.iter_mut().zip(weights) {
            total += w;
            *c = total;
        }
        assert!(total > 0, "at least one query kind must have weight > 0");
        KindMix { cumulative, total }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> QueryKind {
        let x = rng.gen_range(0..self.total);
        let slot = self.cumulative.iter().position(|&c| x < c).expect("x < total");
        QueryKind::ALL[slot]
    }
}

struct ClientStats {
    frames: u64,
    queries: u64,
    mismatches: u64,
    latencies_ns: Vec<u64>,
    queries_by_kind: [u64; 6],
}

/// In-flight bookkeeping: request id, send time, expected frame bytes.
struct Outstanding {
    id: u64,
    sent_at: Instant,
    expected: Vec<u8>,
    queries: u64,
}

fn run_client(
    addr: SocketAddr,
    validator: &Validator<'_>,
    cfg: &LoadConfig,
    client_idx: usize,
) -> std::io::Result<ClientStats> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let zipf = Zipf::new(validator.n_c, cfg.zipf_s).expect("n_c > 0, s >= 0");
    let mix = KindMix::new(&cfg.weights);

    let mut stats = ClientStats {
        frames: 0,
        queries: 0,
        mismatches: 0,
        latencies_ns: Vec::with_capacity(cfg.frames_per_client),
        queries_by_kind: [0; 6],
    };
    let mut inflight: VecDeque<Outstanding> = VecDeque::with_capacity(cfg.window);
    let mut queries: Vec<Query> = Vec::with_capacity(cfg.batch);
    let mut req = Vec::new();
    let mut payload = Vec::new();
    let mut sent = 0usize;

    while sent < cfg.frames_per_client || !inflight.is_empty() {
        // Fill the window.
        while sent < cfg.frames_per_client && inflight.len() < cfg.window.max(1) {
            let id = ((client_idx as u64) << 32) | sent as u64;
            queries.clear();
            for _ in 0..cfg.batch.max(1) {
                let kind = mix.sample(&mut rng);
                stats.queries_by_kind[kind as usize] += 1;
                queries.push(Query { kind, vertex: zipf.sample(&mut rng) });
            }
            req.clear();
            if queries.len() == 1 {
                protocol::encode_request(id, &protocol::Request::Single(queries[0]), &mut req);
            } else {
                protocol::encode_request(id, &protocol::Request::Batch(queries.clone()), &mut req);
            }
            let mut expected = Vec::new();
            validator.expected_response_frame(id, &queries, &mut expected);
            let sent_at = Instant::now();
            stream.write_all(&req)?;
            inflight.push_back(Outstanding { id, sent_at, expected, queries: queries.len() as u64 });
            sent += 1;
        }

        // Drain one response.
        if !protocol::read_frame(&mut reader, &mut payload)? {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed with responses outstanding",
            ));
        }
        let id = u64::from_le_bytes(payload[2..10].try_into().expect("header present"));
        let pos = inflight
            .iter()
            .position(|o| o.id == id)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unknown request id"))?;
        let out = inflight.remove(pos).expect("position valid");
        stats.latencies_ns.push(out.sent_at.elapsed().as_nanos() as u64);
        stats.frames += 1;
        stats.queries += out.queries;
        // Bit-for-bit: compare the whole payload against the oracle
        // path's expected frame (skipping the 4-byte length prefix the
        // validator also wrote).
        if payload != out.expected[4..] {
            stats.mismatches += 1;
        }
    }
    Ok(stats)
}

/// Folds raw RTTs into sparse log2 buckets and derives the quantiles
/// through the ONE shared implementation — the same buckets and the
/// same interpolation rule the server's metric histograms use, so a
/// client-reported p99 and the server's `serve.latency_ns.*` p99 are
/// directly comparable.
fn rtt_quantiles(latencies_ns: &[u64]) -> HistQuantiles {
    let mut counts = [0u64; 65];
    for &v in latencies_ns {
        let b = if v == 0 { 0 } else { 64 - v.leading_zeros() };
        counts[b as usize] += 1;
    }
    let sparse: Vec<(u32, u64)> = counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(b, &c)| (b as u32, c))
        .collect();
    quantiles_from_buckets(&sparse)
}

/// Drives `addr` with `cfg` and validates every response against the
/// oracle path for `engine`'s pair. Panics if any client hits an I/O
/// error — the server is supposed to outlive the run.
pub fn run_load(engine: &QueryEngine, addr: SocketAddr, cfg: &LoadConfig) -> LoadStats {
    let _span = kron_obs::span::enter("serve/load_run");
    let validator = Validator::new(engine.pair(), engine.root()).expect("engine pair is valid");
    let t0 = Instant::now();
    let per_client: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|c| {
                let validator = &validator;
                scope.spawn(move || run_client(addr, validator, cfg, c).expect("load client I/O"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::new();
    let mut queries = 0;
    let mut frames = 0;
    let mut mismatches = 0;
    let mut by_kind = [0u64; 6];
    for c in per_client {
        latencies.extend_from_slice(&c.latencies_ns);
        queries += c.queries;
        frames += c.frames;
        mismatches += c.mismatches;
        for (total, n) in by_kind.iter_mut().zip(c.queries_by_kind) {
            *total += n;
        }
    }
    let q = rtt_quantiles(&latencies);
    LoadStats {
        queries,
        frames,
        secs,
        qps: if secs > 0.0 { queries as f64 / secs } else { 0.0 },
        p50_us: q.p50 as f64 / 1000.0,
        p90_us: q.p90 as f64 / 1000.0,
        p99_us: q.p99 as f64 / 1000.0,
        validated_frames: frames,
        mismatched_frames: mismatches,
        queries_by_kind: by_kind.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mix_respects_zero_weights() {
        let mix = KindMix::new(&[0, 3, 0, 0, 0, 1]);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [0u32; 6];
        for _ in 0..400 {
            seen[mix.sample(&mut rng).as_u8() as usize] += 1;
        }
        assert_eq!(seen[0] + seen[2] + seen[3] + seen[4], 0);
        assert!(seen[1] > seen[5], "weight 3 should dominate weight 1");
        assert!(seen[5] > 0);
    }

    #[test]
    fn rtt_quantiles_use_shared_derivation() {
        // All samples in one bucket: the shared rule spreads them over
        // the bucket's range; count is exact either way.
        let q = rtt_quantiles(&[4000, 5000, 6000, 7000]);
        assert_eq!(q.count, 4);
        assert!(q.p50 >= 4096 && q.p50 <= 8191, "p50 inside the [4096,8191] bucket: {}", q.p50);
        assert_eq!(q.max, 8191, "max is the bucket's upper edge");
        assert_eq!(rtt_quantiles(&[]), HistQuantiles::default());
        // Zero maps to bucket 0 without shifting by -1 underflow.
        assert_eq!(rtt_quantiles(&[0]).max, 0);
    }
}
