//! `kron-serve` — hosts a Kronecker product as a TCP query service.
//!
//! ```text
//! kron-serve [--scale S] [--seed-a A] [--seed-b B] [--root R]
//!            [--port P] [--workers W] [--queue-depth Q] [--quiet]
//! ```
//!
//! Builds two graph500 R-MAT factors at `--scale` (so the served
//! product has `4^S` vertices), precomputes the oracle tables, binds
//! 127.0.0.1 and prints one line to stdout:
//!
//! ```text
//! kron-serve: listening on 127.0.0.1:PORT n_c=N root=R workers=W
//! ```
//!
//! (scripts parse this line for the ephemeral port). The process exits
//! 0 after a client sends a Shutdown frame and the graceful drain
//! completes; a metrics summary goes to stderr unless `--quiet`.

use std::sync::Arc;

use kron_serve::engine::QueryEngine;
use kron_serve::server::{self, ServerConfig};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: u32 = parsed(&args, "--scale", 7);
    let seed_a: u64 = parsed(&args, "--seed-a", 12);
    let seed_b: u64 = parsed(&args, "--seed-b", 13);
    let root: u64 = parsed(&args, "--root", 0);
    let quiet = args.iter().any(|a| a == "--quiet");
    let cfg = ServerConfig {
        port: parsed(&args, "--port", 0),
        workers: parsed(&args, "--workers", 1),
        queue_depth: parsed(&args, "--queue-depth", 256),
        ..ServerConfig::default()
    };

    kron_obs::set_enabled(true);
    // A crash anywhere dumps the flight recorder (recent queries with
    // stage timings) to a temp file whose path lands in the panic
    // message — the black box for post-mortem triage.
    kron_obs::ring::install_panic_hook();
    let engine = {
        let pair = {
            use kron_graph::generators::{rmat, RmatConfig};
            let a = rmat(&RmatConfig::graph500(scale, seed_a));
            let b = rmat(&RmatConfig::graph500(scale, seed_b));
            kron_core::KroneckerPair::with_full_self_loops(a, b)
                .expect("R-MAT factors are loop-free")
        };
        Arc::new(QueryEngine::from_pair(pair, root).unwrap_or_else(|e| {
            eprintln!("kron-serve: cannot build engine: {e}");
            std::process::exit(2);
        }))
    };
    let n_c = engine.n_c();
    let handle = server::spawn(engine, cfg.clone()).unwrap_or_else(|e| {
        eprintln!("kron-serve: cannot bind 127.0.0.1:{}: {e}", cfg.port);
        std::process::exit(2);
    });
    println!(
        "kron-serve: listening on {} n_c={} root={} workers={}",
        handle.addr(),
        n_c,
        root,
        cfg.workers
    );
    use std::io::Write as _;
    std::io::stdout().flush().expect("stdout");

    handle.wait_shutdown_requested();
    let stats = handle.shutdown();
    if !quiet {
        kron_obs::metrics::flush_thread();
        let report = kron_obs::report::ObsReport::capture();
        eprintln!(
            "kron-serve: drained and stopped ({} workers, {} readers joined)",
            stats.workers_joined, stats.readers_joined,
        );
        eprintln!("{}", report.summary());
    }
}
