//! End-to-end loopback tests: concurrent clients over real TCP against
//! a small engine, bit-identical validation against the `kron_core`
//! oracles, malformed-frame resilience, the reply budget for rows too
//! large for one frame, graceful shutdown, and the live admin scrape
//! plane (DESIGN.md §14).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use kron_core::generate::synthesize_row_block;
use kron_core::KroneckerPair;
use kron_graph::generators::{cycle, erdos_renyi, star};
use kron_serve::engine::QueryEngine;
use kron_serve::load::{run_load, LoadConfig, Validator};
use kron_serve::protocol::{
    self, AdminRequest, ErrorCode, Query, QueryKind, Reply, Request, Response, Value,
};
use kron_serve::server::{self, ServerConfig};

/// The flight recorder and metrics registry are process-global; the two
/// tests that reset or read them take this lock (the other tests only
/// append, which is safe concurrently).
fn obs_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn small_engine() -> Arc<QueryEngine> {
    let pair = KroneckerPair::with_full_self_loops(erdos_renyi(9, 0.4, 3), cycle(7)).unwrap();
    Arc::new(QueryEngine::from_pair(pair, 5).unwrap())
}

fn spawn_engine(engine: Arc<QueryEngine>, workers: usize) -> server::ServerHandle {
    server::spawn(engine, ServerConfig { workers, ..ServerConfig::default() })
        .expect("bind loopback")
}

fn spawn_small(workers: usize) -> (Arc<QueryEngine>, server::ServerHandle) {
    let engine = small_engine();
    let handle = spawn_engine(Arc::clone(&engine), workers);
    (engine, handle)
}

/// The product row of `p` through the `kron_core` oracle path.
fn oracle_row(engine: &QueryEngine, p: u64) -> Vec<u64> {
    synthesize_row_block(engine.pair(), p..p + 1).1
}

fn connect(handle: &server::ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s
}

fn roundtrip(stream: &mut TcpStream, id: u64, req: &Request) -> (u64, Response) {
    let mut buf = Vec::new();
    protocol::encode_request(id, req, &mut buf);
    stream.write_all(&buf).expect("send");
    let mut payload = Vec::new();
    assert!(protocol::read_frame(stream, &mut payload).expect("read"), "unexpected EOF");
    protocol::decode_response(&payload).expect("decode")
}

#[test]
fn concurrent_mixed_clients_validate_bit_identical() {
    let (engine, handle) = spawn_small(2);
    // Four concurrent clients, every query kind, pipelined batches; the
    // harness recomputes every expected frame through the independent
    // kron_core oracle path and compares whole payloads.
    let stats = run_load(
        &engine,
        handle.addr(),
        &LoadConfig {
            clients: 4,
            frames_per_client: 100,
            window: 4,
            batch: 5,
            zipf_s: 0.8,
            seed: 1234,
            weights: [1, 1, 1, 1, 1, 1],
        },
    );
    assert_eq!(stats.frames, 400);
    assert_eq!(stats.queries, 2000);
    assert_eq!(stats.mismatched_frames, 0, "every response must be bit-identical");
    let shutdown = handle.shutdown();
    assert_eq!(shutdown.jobs_left, 0);
}

#[test]
fn single_queries_match_engine_values() {
    let (engine, handle) = spawn_small(1);
    let mut stream = connect(&handle);
    for p in [0u64, 1, engine.n_c() / 2, engine.n_c() - 1] {
        for kind in QueryKind::ALL {
            let (id, resp) =
                roundtrip(&mut stream, p * 10 + kind.as_u8() as u64, &Request::Single(Query { kind, vertex: p }));
            assert_eq!(id, p * 10 + kind.as_u8() as u64);
            let Response::Single(reply) = resp else { panic!("expected single reply") };
            let expect = match kind {
                QueryKind::Neighbors => Value::Neighbors(oracle_row(&engine, p)),
                QueryKind::Degree => Value::Degree(engine.degree(p)),
                QueryKind::TriangleCount => Value::Triangles(engine.triangles(p)),
                QueryKind::Closeness => Value::ClosenessBits(engine.closeness_bits(p)),
                QueryKind::CommunityId => Value::CommunityId(engine.community_id(p)),
                QueryKind::HopsFromRoot => Value::Hops(engine.hops_from_root(p)),
            };
            assert_eq!(reply, Reply::Ok(expect), "kind {kind:?} at vertex {p}");
        }
    }
    handle.shutdown();
}

#[test]
fn out_of_range_is_an_error_reply_and_connection_survives() {
    let (engine, handle) = spawn_small(1);
    let mut stream = connect(&handle);
    let bad = engine.n_c() + 7;
    let (_, resp) = roundtrip(
        &mut stream,
        1,
        &Request::Single(Query { kind: QueryKind::Degree, vertex: bad }),
    );
    assert_eq!(
        resp,
        Response::Single(Reply::Err {
            code: protocol::ErrorCode::VertexOutOfRange,
            detail: bad
        })
    );
    // Same connection keeps working after a semantic error.
    let (_, resp) = roundtrip(
        &mut stream,
        2,
        &Request::Single(Query { kind: QueryKind::Degree, vertex: 0 }),
    );
    assert_eq!(resp, Response::Single(Reply::Ok(Value::Degree(engine.degree(0)))));
    handle.shutdown();
}

#[test]
fn malformed_frames_drop_the_connection_not_the_server() {
    let (engine, handle) = spawn_small(1);

    // Oversized length prefix: connection must be dropped.
    let mut bad = connect(&handle);
    bad.write_all(&u32::MAX.to_le_bytes()).expect("send bad prefix");
    let mut payload = Vec::new();
    assert!(
        !protocol::read_frame(&mut bad, &mut payload).unwrap_or(false),
        "server must close a connection after a bad length prefix"
    );

    // Undecodable payload (bad version byte): same fate.
    let mut bad2 = connect(&handle);
    let mut frame = Vec::new();
    let start = protocol::begin_frame(&mut frame, 0, 1);
    frame.extend_from_slice(&0u64.to_le_bytes());
    protocol::finish_frame(&mut frame, start);
    frame[4] = 99; // corrupt the version inside a well-framed payload
    bad2.write_all(&frame).expect("send bad version");
    assert!(!protocol::read_frame(&mut bad2, &mut payload).unwrap_or(false));

    // The server itself is fine: a fresh connection gets answers.
    let mut good = connect(&handle);
    let (_, resp) = roundtrip(
        &mut good,
        3,
        &Request::Single(Query { kind: QueryKind::Degree, vertex: 1 }),
    );
    assert_eq!(resp, Response::Single(Reply::Ok(Value::Degree(engine.degree(1)))));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_flushes_pipelined_replies_and_joins_every_thread() {
    let (engine, handle) = spawn_small(2);

    // Connection X pipelines 50 frames without reading.
    let mut x = connect(&handle);
    let mut buf = Vec::new();
    for i in 0..50u64 {
        protocol::encode_request(
            i,
            &Request::Single(Query { kind: QueryKind::Degree, vertex: i % engine.n_c() }),
            &mut buf,
        );
    }
    x.write_all(&buf).expect("pipeline 50 frames");

    // All 50 replies arrive (possibly reordered across the 2 workers —
    // the ids must form exactly the sent set).
    let mut seen = std::collections::BTreeSet::new();
    let mut payload = Vec::new();
    for _ in 0..50 {
        assert!(protocol::read_frame(&mut x, &mut payload).expect("read reply"));
        let (id, resp) = protocol::decode_response(&payload).expect("decode");
        let Response::Single(Reply::Ok(Value::Degree(d))) = resp else {
            panic!("expected degree reply")
        };
        assert_eq!(d, engine.degree(id % engine.n_c()));
        assert!(seen.insert(id), "duplicate reply id {id}");
    }
    assert_eq!(seen.len(), 50);

    // Connection Y requests shutdown and gets the acknowledgement.
    let mut y = connect(&handle);
    let (_, resp) = roundtrip(&mut y, 999, &Request::Shutdown);
    assert_eq!(resp, Response::ShuttingDown);

    handle.wait_shutdown_requested();
    let stats = handle.shutdown();
    // No worker leak: every spawned thread is joined and the queue is dry.
    assert_eq!(stats.workers_joined, 2);
    assert!(stats.readers_joined >= 2, "both connections' readers joined");
    assert_eq!(stats.jobs_left, 0, "queue fully drained before workers exited");
}

/// Unwraps an AdminJson reply and lint-checks the document.
fn admin_json(resp: Response) -> String {
    let Response::AdminJson(json) = resp else { panic!("expected AdminJson, got {resp:?}") };
    kron_obs::json_lint::validate(&json).expect("admin reply lints clean");
    json
}

#[test]
fn admin_opcodes_answer_live_with_lint_clean_json() {
    let _g = obs_serial();
    kron_obs::set_enabled(true);
    kron_obs::ring::set_enabled(true);
    let (engine, handle) = spawn_small(1);
    let mut stream = connect(&handle);

    // Reset so the per-server counters cover exactly this test's
    // traffic (ServeCounters are per-server; the ring/registry resets
    // are global, which obs_serial() makes safe).
    let (_, resp) = roundtrip(&mut stream, 1, &Request::Admin(AdminRequest::ResetStats));
    assert!(admin_json(resp).contains("\"reset\": true"));

    for i in 0..7u64 {
        roundtrip(
            &mut stream,
            10 + i,
            &Request::Single(Query { kind: QueryKind::Degree, vertex: i % engine.n_c() }),
        );
    }
    roundtrip(&mut stream, 20, &Request::Single(Query { kind: QueryKind::Neighbors, vertex: 2 }));
    roundtrip(&mut stream, 21, &Request::Single(Query { kind: QueryKind::Neighbors, vertex: 2 }));

    // Stats mid-connection: exact counts, no drain or flush needed.
    let (_, resp) = roundtrip(&mut stream, 30, &Request::Admin(AdminRequest::Stats));
    let stats = admin_json(resp);
    assert!(stats.contains("\"served_degree\": 7"), "{stats}");
    assert!(stats.contains("\"served_neighbors\": 2"), "{stats}");
    assert!(stats.contains("\"served_total\": 9"), "{stats}");
    assert!(stats.contains("\"admin_schema\": 2"), "{stats}");
    assert!(stats.contains("\"registry\":"), "{stats}");

    // The in-process accessor agrees with the wire answer.
    let c = handle.counters();
    assert_eq!(c.served_of(QueryKind::Degree), 7);
    assert_eq!(c.served_total(), 9);
    // ResetStats zeroes its own frame count, so only Stats remains.
    assert_eq!(c.frames_admin, 1);

    // SlowQueries with threshold 0 matches everything flight-recorded;
    // at least this test's 9 query frames are in the global ring.
    let (_, resp) = roundtrip(
        &mut stream,
        31,
        &Request::Admin(AdminRequest::SlowQueries { threshold_ns: 0, limit: 50 }),
    );
    let slow = admin_json(resp);
    assert!(slow.contains("\"queries\":"), "{slow}");
    assert!(slow.contains("\"stages\":"), "slow entries carry stage breakdowns: {slow}");

    // FlightDump returns the raw rings.
    let (_, resp) = roundtrip(&mut stream, 32, &Request::Admin(AdminRequest::FlightDump));
    let dump = admin_json(resp);
    assert!(dump.contains("\"rings\":"), "{dump}");
    assert!(dump.contains("\"truncated_events\":"), "{dump}");

    handle.shutdown();
}

#[test]
fn single_client_closed_loop_queue_wait_is_negligible() {
    let _g = obs_serial();
    kron_obs::set_enabled(true);
    kron_obs::ring::set_enabled(true);
    let (engine, handle) = spawn_small(1);
    let mut stream = connect(&handle);

    // Closed loop: exactly one frame in flight, one worker — every job
    // is popped the moment it is enqueued, so the recorded queue-wait
    // stage must be scheduler noise, not queueing.
    const BASE: u64 = 0x51AB_0000_0000_0000;
    const FRAMES: u64 = 40;
    for i in 0..FRAMES {
        roundtrip(
            &mut stream,
            BASE + i,
            &Request::Single(Query { kind: QueryKind::Degree, vertex: i % engine.n_c() }),
        );
    }

    // The worker records each frame *after* writing the reply, so the
    // last record can trail the client's read — poll until all 40 land.
    let recorded = || -> Vec<u64> {
        kron_obs::ring::snapshot()
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .filter(|e| {
                e.etype == kron_obs::ring::ETYPE_QUERY && (BASE..BASE + FRAMES).contains(&e.id)
            })
            .map(|e| e.stages.queue_ns)
            .collect()
    };
    let mut waits = recorded();
    for _ in 0..2000 {
        if waits.len() >= FRAMES as usize {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        waits = recorded();
    }
    assert_eq!(waits.len(), FRAMES as usize, "every frame flight-recorded with its id");
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < 5_000_000,
        "closed-loop single-client queue wait must be ≈0, got median {median}ns"
    );

    handle.shutdown();
}

#[test]
fn repeat_neighbors_serve_identical_bytes() {
    let (engine, handle) = spawn_small(1);
    let mut stream = connect(&handle);
    let p = 3u64;
    let (_, first) =
        roundtrip(&mut stream, 1, &Request::Single(Query { kind: QueryKind::Neighbors, vertex: p }));
    let (_, second) =
        roundtrip(&mut stream, 2, &Request::Single(Query { kind: QueryKind::Neighbors, vertex: p }));
    assert_eq!(first, second, "a repeated row must serve identical bytes");
    assert_eq!(first, Response::Single(Reply::Ok(Value::Neighbors(oracle_row(&engine, p)))));
    handle.shutdown();
}

/// The scale-8 bench engine (`kron-serve`'s default seeds 12/13) and its
/// highest-degree vertex: 24,964 arcs, a 199,718-byte Neighbors reply.
fn hub_engine() -> (Arc<QueryEngine>, u64) {
    let engine = Arc::new(QueryEngine::bench(8, 12, 13));
    let hub = (0..engine.n_c()).max_by_key(|&p| engine.degree(p)).expect("n_c > 0");
    assert_eq!(engine.degree(hub), 24_964);
    (engine, hub)
}

#[test]
fn oversized_batch_answers_late_hub_rows_with_reply_too_large() {
    let (engine, hub) = hub_engine();
    let deg = engine.degree(hub);
    let handle = spawn_engine(Arc::clone(&engine), 1);
    let validator = Validator::new(engine.pair(), engine.root()).expect("valid pair");

    // Eight hub rows would take 8 × 199,718 bytes, past the 1 MiB frame
    // cap: the first five fit with room left for three more replies.
    let queries = vec![Query { kind: QueryKind::Neighbors, vertex: hub }; 8];
    let mut stream = connect(&handle);
    let mut req = Vec::new();
    protocol::encode_request(7, &Request::Batch(queries.clone()), &mut req);
    stream.write_all(&req).expect("send batch");
    let mut payload = Vec::new();
    assert!(protocol::read_frame(&mut stream, &mut payload).expect("read"), "unexpected EOF");
    let mut expected = Vec::new();
    validator.expected_response_frame(7, &queries, &mut expected);
    assert!(payload == expected[4..], "batch reply must match the validator bit for bit");
    let (_, resp) = protocol::decode_response(&payload).expect("decode");
    let Response::Batch(replies) = resp else { panic!("expected a batch reply") };
    let row = Reply::Ok(Value::Neighbors(oracle_row(&engine, hub)));
    let too_large = Reply::Err { code: ErrorCode::ReplyTooLarge, detail: deg };
    assert_eq!(replies.len(), 8);
    for (e, reply) in replies.iter().enumerate() {
        assert_eq!(*reply, if e < 5 { row.clone() } else { too_large.clone() }, "entry {e}");
    }

    // The worker survived: a second connection is still answered.
    let mut other = connect(&handle);
    let (_, resp) = roundtrip(
        &mut other,
        8,
        &Request::Single(Query { kind: QueryKind::Degree, vertex: hub }),
    );
    assert_eq!(resp, Response::Single(Reply::Ok(Value::Degree(deg))));
    let stats = handle.shutdown();
    assert_eq!((stats.workers_joined, stats.jobs_left), (1, 0));
}

#[test]
fn single_row_past_the_frame_cap_is_reply_too_large() {
    // FullBoth star(400) ⊗ star(400): the hub (0, 0) has 400 · 400 =
    // 160,000 neighbors, 1,280,006 reply bytes on its own.
    let pair = KroneckerPair::with_full_self_loops(star(400), star(400)).unwrap();
    let engine = Arc::new(QueryEngine::from_pair(pair, 0).unwrap());
    let handle = spawn_engine(Arc::clone(&engine), 1);
    let validator = Validator::new(engine.pair(), engine.root()).expect("valid pair");
    let mut stream = connect(&handle);

    let hub = Query { kind: QueryKind::Neighbors, vertex: 0 };
    let (_, resp) = roundtrip(&mut stream, 1, &Request::Single(hub));
    let too_large = Reply::Err { code: ErrorCode::ReplyTooLarge, detail: 160_000 };
    assert_eq!(resp, Response::Single(too_large));
    let mut expected = Vec::new();
    validator.expected_reply(hub, &mut expected);
    let mut encoded = Vec::new();
    protocol::encode_response(1, &resp, &mut encoded);
    assert_eq!(encoded[4 + protocol::HEADER_LEN..], expected[..], "validator mirrors the rule");

    // Vertex 1 = (hub, leaf), 400 · 2 arcs, is still served on the same
    // connection.
    let leaf = 1;
    let (_, resp) = roundtrip(
        &mut stream,
        2,
        &Request::Single(Query { kind: QueryKind::Neighbors, vertex: leaf }),
    );
    assert_eq!(resp, Response::Single(Reply::Ok(Value::Neighbors(oracle_row(&engine, leaf)))));
    handle.shutdown();
}
