//! `kron-load` — seeded zipfian load harness with bit-exact validation.
//!
//! `kron-load --addr HOST:PORT [--scale S --seed-a A --seed-b B --root R]
//! [--clients C --frames F --window W --batch Q --zipf-s Z --seed X]
//! [--scrape-interval MS] [--scrape-out PATH] [--shutdown]` drives an
//! already-running `kron-serve` (the factor parameters must match the
//! server's, or validation fails on the first response). Prints one stats
//! line; exits nonzero if any response mismatched. `--shutdown` sends a
//! Shutdown frame after the run.
//!
//! `--scrape-interval MS` starts an admin sidecar on its own connection:
//! it sends `ResetStats` before the load begins, polls `Stats` every `MS`
//! milliseconds during the run (each reply must lint as JSON; one
//! parseable `kron-load: scrape …` line per poll), and after the run
//! takes a final `Stats` + `SlowQueries` scrape and cross-checks the
//! server's exact `served_*` counters **bit for bit** against the
//! client-side per-kind tallies — any difference is a failed run. The
//! cross-check assumes this kron-load is the server's only client.
//! `--scrape-out PATH` saves the final Stats JSON.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kron_serve::engine::QueryEngine;
use kron_serve::load::{run_load, LoadConfig, LoadStats};
use kron_serve::protocol::{self, AdminRequest, Request, Response};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    arg_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{flag}: {e:?}")))
        .unwrap_or(default)
}

fn print_stats(label: &str, s: &LoadStats) {
    eprintln!(
        "kron-load: {label}: {} queries in {:.3}s = {:.0} q/s; RTT p50 {:.0}us p90 {:.0}us p99 {:.0}us; \
         {}/{} frames validated, {} mismatched",
        s.queries, s.secs, s.qps, s.p50_us, s.p90_us, s.p99_us,
        s.validated_frames, s.frames, s.mismatched_frames,
    );
}

/// One admin request/reply roundtrip on `stream`. Panics on transport
/// or protocol errors — a broken scrape plane is a failed run.
fn admin_roundtrip(stream: &mut TcpStream, id: u64, req: &Request) -> String {
    let mut buf = Vec::new();
    protocol::encode_request(id, req, &mut buf);
    stream.write_all(&buf).expect("send admin frame");
    let mut payload = Vec::new();
    assert!(
        protocol::read_frame(stream, &mut payload).expect("read admin reply"),
        "server closed during admin scrape"
    );
    let (rid, resp) = protocol::decode_response(&payload).expect("decode admin reply");
    assert_eq!(rid, id, "admin reply echoes the request id");
    match resp {
        Response::AdminJson(json) => json,
        other => panic!("expected AdminJson reply, got {other:?}"),
    }
}

/// Extracts `"key": N` from a pretty-printed admin reply, line by line,
/// so the sidecar needs no JSON parser.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    json.lines().find_map(|l| {
        let rest = l.trim().strip_prefix(needle.as_str())?;
        let digits: String =
            rest.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    })
}

/// Polls `Stats` on its own connection every `interval_ms` until `stop`
/// flips; every reply must lint as JSON. Returns the poll count.
fn spawn_scraper(
    addr: SocketAddr,
    interval_ms: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::Builder::new()
        .name("kron-load-scrape".to_string())
        .spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("scrape connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut polls = 0u64;
            let mut id = 1u64 << 48;
            while !stop.load(Ordering::Relaxed) {
                let json =
                    admin_roundtrip(&mut stream, id, &Request::Admin(AdminRequest::Stats));
                id += 1;
                kron_obs::json_lint::validate(&json).expect("mid-run Stats reply lints");
                polls += 1;
                eprintln!(
                    "kron-load: scrape poll={polls} served_total={} queue_len={} flight_recorded={}",
                    json_u64(&json, "served_total").unwrap_or(0),
                    json_u64(&json, "queue_len").unwrap_or(0),
                    json_u64(&json, "flight_recorded").unwrap_or(0),
                );
                // Sleep in slices so the post-run join is prompt.
                let mut slept = 0;
                while slept < interval_ms && !stop.load(Ordering::Relaxed) {
                    let step = (interval_ms - slept).min(20);
                    std::thread::sleep(Duration::from_millis(step));
                    slept += step;
                }
            }
            polls
        })
        .expect("spawn scraper")
}

/// Final-scrape cross-check: the server's exact always-on `served_*`
/// counters must equal the client-side per-kind tallies **bit for
/// bit** (valid because the sidecar reset the stats before the load and
/// this kron-load is the server's only client). Returns mismatches.
fn cross_check(stats_json: &str, stats: &LoadStats) -> u64 {
    const KEYS: [&str; 6] = [
        "served_neighbors",
        "served_degree",
        "served_triangles",
        "served_closeness",
        "served_community",
        "served_hops",
    ];
    let mut bad = 0;
    for (i, key) in KEYS.iter().enumerate() {
        let server = json_u64(stats_json, key);
        let client = stats.queries_by_kind[i];
        if server != Some(client) {
            eprintln!(
                "kron-load: scrape MISMATCH {key}: server {server:?} != client {client}"
            );
            bad += 1;
        }
    }
    let total = json_u64(stats_json, "served_total");
    if total != Some(stats.queries) {
        eprintln!(
            "kron-load: scrape MISMATCH served_total: server {total:?} != client {}",
            stats.queries
        );
        bad += 1;
    }
    bad
}

/// Sends a Shutdown frame and waits for the acknowledgement.
fn send_shutdown(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = Vec::new();
    protocol::encode_request(u64::MAX, &Request::Shutdown, &mut buf);
    stream.write_all(&buf).expect("send shutdown frame");
    let mut payload = Vec::new();
    assert!(
        protocol::read_frame(&mut stream, &mut payload).expect("read shutdown ack"),
        "server closed before acknowledging shutdown"
    );
    let (_, resp) = protocol::decode_response(&payload).expect("decode shutdown ack");
    assert_eq!(resp, Response::ShuttingDown);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: u32 = parsed(&args, "--scale", 7);
    let seed_a: u64 = parsed(&args, "--seed-a", 12);
    let seed_b: u64 = parsed(&args, "--seed-b", 13);
    let root: u64 = parsed(&args, "--root", 0);
    let seed: u64 = parsed(&args, "--seed", 0xC0FFEE);

    let addr: SocketAddr = arg_value(&args, "--addr")
        .expect("kron-load needs --addr HOST:PORT")
        .parse()
        .expect("valid socket address");
    let cfg = LoadConfig {
        clients: parsed(&args, "--clients", 2),
        frames_per_client: parsed(&args, "--frames", 1000),
        window: parsed(&args, "--window", 1),
        batch: parsed(&args, "--batch", 1),
        zipf_s: parsed(&args, "--zipf-s", 1.0),
        seed,
        weights: [1, 1, 1, 1, 1, 1],
    };
    let scrape_interval: u64 = parsed(&args, "--scrape-interval", 0);
    let scrape_out = arg_value(&args, "--scrape-out");

    kron_obs::set_enabled(true);
    let engine = QueryEngine::bench_with_root(scale, seed_a, seed_b, root);

    // The admin sidecar: reset the server's stats on a dedicated
    // connection before any query traffic, so the final cross-check
    // compares whole-run counts.
    let mut admin_conn = if scrape_interval > 0 || scrape_out.is_some() {
        let mut s = TcpStream::connect(addr).expect("admin connect");
        s.set_nodelay(true).expect("nodelay");
        let ack = admin_roundtrip(&mut s, 1, &Request::Admin(AdminRequest::ResetStats));
        assert!(ack.contains("\"reset\": true"), "unexpected ResetStats ack: {ack}");
        eprintln!("kron-load: scrape: server stats reset before load");
        Some(s)
    } else {
        None
    };
    let stop = Arc::new(AtomicBool::new(false));
    let scraper =
        (scrape_interval > 0).then(|| spawn_scraper(addr, scrape_interval, Arc::clone(&stop)));

    let stats = run_load(&engine, addr, &cfg);
    print_stats("run", &stats);

    stop.store(true, Ordering::Relaxed);
    let polls = scraper.map(|h| h.join().expect("scraper panicked")).unwrap_or(0);
    let mut scrape_mismatches = 0;
    if let Some(stream) = admin_conn.as_mut() {
        let json = admin_roundtrip(stream, 2, &Request::Admin(AdminRequest::Stats));
        kron_obs::json_lint::validate(&json).expect("final Stats reply lints");
        scrape_mismatches = cross_check(&json, &stats);
        eprintln!(
            "kron-load: scrape final: {polls} mid-run polls; server served_total={} vs client {} ({} mismatched keys)",
            json_u64(&json, "served_total").unwrap_or(0),
            stats.queries,
            scrape_mismatches,
        );
        let slow = admin_roundtrip(
            stream,
            3,
            &Request::Admin(AdminRequest::SlowQueries { threshold_ns: 0, limit: 5 }),
        );
        kron_obs::json_lint::validate(&slow).expect("SlowQueries reply lints");
        eprintln!(
            "kron-load: scrape slow-queries count={}",
            json_u64(&slow, "count").unwrap_or(0)
        );
        if let Some(path) = &scrape_out {
            std::fs::write(path, &json).expect("write --scrape-out");
            eprintln!("kron-load: scrape wrote {path}");
        }
    }

    if args.iter().any(|a| a == "--shutdown") {
        send_shutdown(addr);
        eprintln!("kron-load: server acknowledged shutdown");
    }
    if stats.mismatched_frames > 0 || scrape_mismatches > 0 {
        eprintln!(
            "kron-load: FAIL: {} mismatched responses, {} scrape count mismatches",
            stats.mismatched_frames, scrape_mismatches
        );
        std::process::exit(1);
    }
}
