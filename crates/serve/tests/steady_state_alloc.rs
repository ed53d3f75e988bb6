//! Proves the zero-per-request-allocation claim: after a warmup pass,
//! replaying the *identical* request sequence over the same connection
//! performs zero heap allocations anywhere in the process — client,
//! readers, queue, and workers included.
//!
//! Runs only with `--features measure-alloc` (the counting global
//! allocator). This file is its own test binary with a single `#[test]`,
//! so no sibling test can allocate inside the measured window.
#![cfg(feature = "measure-alloc")]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use kron_core::KroneckerPair;
use kron_graph::generators::{cycle, erdos_renyi};
use kron_serve::engine::QueryEngine;
use kron_serve::protocol::{self, Query, QueryKind, Request};
use kron_serve::server::{self, ServerConfig};

/// One fixed pass: writes the pre-encoded requests, reads every reply
/// into `payload`, compares against `expected` (or records into it).
fn pass(
    stream: &mut TcpStream,
    requests: &[u8],
    frames: usize,
    payload: &mut Vec<u8>,
    expected: &mut Vec<Vec<u8>>,
    record: bool,
) {
    stream.write_all(requests).expect("send requests");
    for i in 0..frames {
        assert!(protocol::read_frame(stream, payload).expect("read reply"), "early EOF");
        if record {
            expected.push(payload.clone());
        } else {
            assert_eq!(payload, &expected[i], "reply {i} changed between passes");
        }
    }
}

#[test]
fn steady_state_request_handling_does_not_allocate() {
    // Full observability ON for the measured window: sharded metrics,
    // stage timing, and the flight recorder all ride the hot path, and
    // the zero-allocation claim must hold with them enabled.
    kron_obs::set_enabled(true);
    let pair = KroneckerPair::with_full_self_loops(erdos_renyi(9, 0.4, 3), cycle(7)).unwrap();
    let engine = Arc::new(QueryEngine::from_pair(pair, 5).unwrap());
    let n_c = engine.n_c();
    let handle = server::spawn(
        Arc::clone(&engine),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Fixed sequence: every kind over a small vertex set, singles and one
    // batch frame. The replay reuses the same request ids so every reply
    // byte is identical.
    let hot: Vec<u64> = (0..8).map(|i| (i * 7) % n_c).collect();
    let mut requests = Vec::new();
    let mut frames = 0usize;
    for (i, &v) in hot.iter().enumerate() {
        for kind in QueryKind::ALL {
            protocol::encode_request(
                (i * 10 + kind.as_u8() as usize) as u64,
                &Request::Single(Query { kind, vertex: v }),
                &mut requests,
            );
            frames += 1;
        }
    }
    let batch: Vec<Query> = hot
        .iter()
        .map(|&v| Query { kind: QueryKind::Neighbors, vertex: v })
        .collect();
    protocol::encode_request(1000, &Request::Batch(batch), &mut requests);
    frames += 1;

    let mut payload = Vec::with_capacity(protocol::MAX_FRAME_LEN);
    let mut expected: Vec<Vec<u8>> = Vec::with_capacity(frames);

    // Two warmup passes: the first grows every scratch buffer (the
    // worker's reply buffer to the largest reply); the second confirms
    // the sequence is stable and lets any lazily-initialized metric
    // slots settle.
    pass(&mut stream, &requests, frames, &mut payload, &mut expected, true);
    pass(&mut stream, &requests, frames, &mut payload, &mut expected, false);

    // Counted outside the measured window: the recorder must actually
    // be capturing, or the zero-alloc claim would be vacuous. Count only
    // query events (span enter/exits from engine construction share the
    // rings), and quiesce first — the worker records each frame *after*
    // writing the reply, so the last record can trail the client's read.
    let query_events = || {
        let snap = kron_obs::ring::snapshot();
        snap.rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| e.etype == kron_obs::ring::ETYPE_QUERY)
            .count() as u64
    };
    let wait_recorded = |target: u64| {
        for _ in 0..2000 {
            if query_events() >= target {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    wait_recorded(2 * frames as u64);
    let recorded_before = query_events();
    assert_eq!(recorded_before, 2 * frames as u64, "both warmup passes flight-recorded");

    let ((), m) = kron_obs::alloc::measure(|| {
        pass(&mut stream, &requests, frames, &mut payload, &mut expected, false);
    });
    assert!(m.measured, "measure-alloc allocator must be active");
    assert_eq!(
        m.allocs, 0,
        "steady-state request handling must not allocate (saw {} allocations, peak {} bytes)",
        m.allocs, m.peak_bytes
    );
    wait_recorded(recorded_before + frames as u64);
    assert_eq!(
        query_events() - recorded_before,
        frames as u64,
        "every frame of the measured pass must be flight-recorded"
    );

    handle.shutdown();
}
