//! Proves the serve path's memory bound with the counting allocator:
//! after a warm-up with the largest row, requesting every row of a
//! 4,096-vertex product once keeps the process's peak live heap within a
//! budget built from the largest reply frame — the worker's reply buffer
//! plus the client's payload buffer — and fixed slack. The budget never
//! depends on `n_C`, while the rows served total at least 5× it.
//!
//! Runs only with `--features measure-alloc` (the counting global
//! allocator). This file is its own test binary with a single `#[test]`,
//! so no sibling test can allocate inside the measured window.
#![cfg(feature = "measure-alloc")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use kron_core::KroneckerPair;
use kron_graph::generators::erdos_renyi;
use kron_serve::engine::QueryEngine;
use kron_serve::load::Validator;
use kron_serve::protocol::{self, Query, QueryKind, Request};
use kron_serve::server::{self, ServerConfig};

/// Bytes of a single-query reply frame besides its neighbor ids: the
/// length prefix, the payload header and the reply header.
const FRAME_OVERHEAD: u64 = 4 + protocol::HEADER_LEN as u64 + 6;
/// Allocator rounding, lazily created metric slots and socket
/// bookkeeping.
const FIXED_SLACK: u64 = 64 * 1024;

/// Requests the Neighbors row of `p` and checks the reply body against
/// `expected`; reuses `req` and `payload`, so it allocates nothing once
/// they have grown.
fn fetch(
    stream: &mut TcpStream,
    p: u64,
    req: &mut Vec<u8>,
    payload: &mut Vec<u8>,
    expected: &[u8],
) {
    req.clear();
    let q = Query { kind: QueryKind::Neighbors, vertex: p };
    protocol::encode_request(p, &Request::Single(q), req);
    stream.write_all(req).expect("send request");
    assert!(protocol::read_frame(stream, payload).expect("read reply"), "early EOF");
    assert!(payload[protocol::HEADER_LEN..] == *expected, "row {p} differs from the oracle");
}

#[test]
fn serving_every_row_holds_no_more_than_the_largest_reply() {
    // Observability on, as in the `kron-serve` binary.
    kron_obs::set_enabled(true);
    let pair = KroneckerPair::with_full_self_loops(
        erdos_renyi(64, 0.2, 41),
        erdos_renyi(64, 0.2, 42),
    )
    .unwrap();
    let engine = Arc::new(QueryEngine::from_pair(pair, 0).unwrap());
    let n_c = engine.n_c();
    assert_eq!(n_c, 4096);
    let handle = server::spawn(Arc::clone(&engine), ServerConfig::default()).expect("bind loopback");

    // Expected reply bodies from the independent oracle path, built
    // before the sweep so they sit in its starting level.
    let validator = Validator::new(engine.pair(), engine.root()).expect("valid pair");
    let expected: Vec<Vec<u8>> = (0..n_c)
        .map(|p| {
            let mut reply = Vec::new();
            validator.expected_reply(Query { kind: QueryKind::Neighbors, vertex: p }, &mut reply);
            reply
        })
        .collect();

    let largest = (0..n_c).max_by_key(|&p| engine.degree(p)).expect("n_c > 0");
    let max_frame = FRAME_OVERHEAD + 8 * engine.degree(largest);
    let budget = 2 * max_frame + FIXED_SLACK;
    let row_bytes: u64 = (0..n_c).map(|p| 8 * engine.degree(p)).sum();
    assert!(
        row_bytes >= 5 * budget,
        "the {budget}-byte budget is within 5× of the {row_bytes} row bytes served, \
         so the test would pass vacuously"
    );

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut req = Vec::new();
    let mut payload = Vec::new();
    // Warm-up: the largest row grows the worker's reply buffer and the
    // client's payload buffer to the largest frame.
    let big = &expected[largest as usize];
    fetch(&mut stream, largest, &mut req, &mut payload, big);

    let ((), m) = kron_obs::alloc::measure(|| {
        for p in 0..n_c {
            fetch(&mut stream, p, &mut req, &mut payload, &expected[p as usize]);
        }
    });
    assert!(m.measured, "measure-alloc allocator must be active");
    eprintln!(
        "reply_memory: n_c={n_c}, {row_bytes} row bytes served, largest frame {max_frame} B, \
         peak {} B above the pre-sweep level (budget {budget} B, {} allocations)",
        m.peak_bytes, m.allocs
    );
    assert!(
        m.peak_bytes <= budget,
        "serving every row held {} bytes above the pre-sweep level, over the {budget}-byte \
         budget of the largest reply ({max_frame} B) twice plus slack",
        m.peak_bytes
    );

    handle.shutdown();
}
