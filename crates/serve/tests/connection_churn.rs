//! Connection churn: clients that connect and close at once must not
//! grow the server's memory mappings or threads, while a long-lived
//! client keeps getting bit-exact answers. A test binary of its own,
//! because it counts the whole process's mappings and threads through
//! Linux `/proc/self/{maps,status}`.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kron_core::KroneckerPair;
use kron_graph::generators::{cycle, erdos_renyi};
use kron_serve::engine::QueryEngine;
use kron_serve::load::Validator;
use kron_serve::protocol::{self, Query, QueryKind, Request};
use kron_serve::server::{self, ServerConfig};

const CHURNED: usize = 2_000;
/// Connections churned before the baseline is read, so lazily created
/// state (allocator arenas, the C library's cache of thread stacks) is
/// already in it.
const WARMUP: usize = 64;
/// How far mappings may end above the baseline. Without reaping, each
/// churned reader keeps two (its stack and guard page).
const MAPS_SLACK: usize = 16;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps").lines().count()
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

fn churn(addr: std::net::SocketAddr, n: usize) {
    for _ in 0..n {
        drop(TcpStream::connect(addr).expect("connect"));
    }
}

/// One query on the long-lived connection, compared byte for byte with
/// the frame the `kron_core` oracle path expects.
fn ask(stream: &mut TcpStream, validator: &Validator<'_>, id: u64, n_c: u64) {
    let q = Query {
        kind: QueryKind::from_u8((id % 6) as u8).expect("kinds 0..6"),
        vertex: id.wrapping_mul(0x9E37_79B9) % n_c,
    };
    let mut req = Vec::new();
    protocol::encode_request(id, &Request::Single(q), &mut req);
    stream.write_all(&req).expect("send");
    let mut payload = Vec::new();
    assert!(protocol::read_frame(stream, &mut payload).expect("read"), "server closed");
    let mut expected = Vec::new();
    validator.expected_response_frame(id, &[q], &mut expected);
    assert_eq!(payload, expected[4..], "reply to {q:?} differs from the oracle");
}

/// Waits until every churned reader has exited, then opens one more
/// connection: its accept joins the exited readers. Returns the process's
/// mappings while that connection is open.
fn settle(
    addr: std::net::SocketAddr,
    validator: &Validator<'_>,
    n_c: u64,
    idle_threads: usize,
) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > idle_threads {
        assert!(Instant::now() < deadline, "{} threads, {idle_threads} when idle", threads());
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut probe = TcpStream::connect(addr).expect("connect");
    ask(&mut probe, validator, 7, n_c);
    mappings()
}

#[test]
fn churned_connections_release_their_reader_threads() {
    let pair = KroneckerPair::with_full_self_loops(erdos_renyi(9, 0.4, 3), cycle(7)).unwrap();
    let engine = Arc::new(QueryEngine::from_pair(pair, 5).unwrap());
    let validator = Validator::new(engine.pair(), engine.root()).unwrap();
    let n_c = engine.n_c();
    let handle = server::spawn(Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut steady = TcpStream::connect(addr).expect("connect");
    steady.set_nodelay(true).expect("nodelay");
    ask(&mut steady, &validator, 0, n_c);
    let idle_threads = threads();
    churn(addr, WARMUP);
    let maps0 = settle(addr, &validator, n_c, idle_threads);

    // Twenty at a time, fewer than the listener's backlog holds.
    for i in 0..CHURNED / 20 {
        churn(addr, 20);
        ask(&mut steady, &validator, 1 + i as u64, n_c);
    }
    let maps = settle(addr, &validator, n_c, idle_threads);
    assert!(
        maps <= maps0 + MAPS_SLACK,
        "after {CHURNED} connect-and-close clients: {maps} mappings, {maps0} before"
    );
    ask(&mut steady, &validator, 1_000, n_c);

    drop(steady);
    let accepted = handle.counters().connections;
    let stats = handle.shutdown();
    // Every reader over the server's life, whether reaped early or at
    // shutdown. (A connect that overflowed the backlog was never
    // accepted, so this counts accepts, not connects.)
    assert_eq!(stats.readers_joined as u64, accepted, "{stats:?}");
    assert!(stats.readers_joined > CHURNED / 2, "{stats:?}");
    assert_eq!(stats.jobs_left, 0);
}
