//! `build-s8`: the paper's out-of-core pipeline, factors in, first
//! correct row out, then a zipf stream of row reads from the file.
//!
//! Timed section per iteration: `generate_distributed` (2 ranks, `TwoD`
//! on a 1×2 grid, v2 spill runs) → `build_external_csr` (64 KiB buffers)
//! → `ExternalCsr::open_with_cache` → the first row read. `ops_per_s` is
//! `m_C` over that section (median over iterations). The 10,000 zipf(1.0)
//! row reads after it are timed one by one for `latency.p50_us`: reading
//! the file beside writing it catches a write-side gain that costs reads.
//!
//! The first iteration's file is verified row by row against digests of
//! the synthesized product taken before the clock starts. Every
//! iteration checks its arc counts, its first row and every read against
//! the same digests, so later iterations spend their time building.

use std::path::PathBuf;
use std::time::Instant;

use kron_core::generate::for_each_synthesized_row;
use kron_core::KroneckerPair;
use kron_dist::{generate_distributed, DistConfig, PartitionScheme, SpillConfig};
use kron_graph::shard::{build_external_csr, CsrCacheConfig, ExternalCsr};

use crate::stats::{median, peak_rss_mib, ratio, Latencies};
use crate::trace::{Layer, Tracer};
use crate::{
    digest, factors, iterate, record_latency, rng_for, timed_setups, zipf_stream, Bench, Env,
    Values,
};

/// Merge/build IO buffer per open file.
const BUF_BYTES: usize = 64 * 1024;

struct Build {
    pair: KroneckerPair,
    m_c: u64,
    /// Digest of every synthesized row of `C`.
    expected: Vec<u64>,
    /// The read stream: a stratified zipf(1.0) sample of product rows.
    reads: Vec<u64>,
}

pub(crate) fn prepare(env: &Env, v: &mut Values) -> Box<dyn Bench> {
    let shape = env.cfg.shape;
    let (pair, setup_s) = timed_setups(
        shape.setup_seconds,
        || factors(shape.build_scale, 22, 23),
        drop,
    );
    v.set("setup_s", setup_s);

    let mut expected = vec![0u64; pair.n_c() as usize];
    for_each_synthesized_row(&pair, 0..pair.n_c(), |p, row| {
        expected[p as usize] = digest::words(row)
    });
    let reads = zipf_stream(pair.n_c(), 1.0, shape.reads, &mut rng_for(env.cfg.seed, 1));
    if env.cfg.inject_fault {
        // Row 0 is the zipf head: the read stream is sure to hit it.
        expected[0] ^= 1;
    }
    let m_c = u64::try_from(pair.nnz_c()).expect("m_C fits u64");
    Box::new(Build {
        pair,
        m_c,
        expected,
        reads,
    })
}

/// Per-iteration observations the metrics are built from.
#[derive(Default)]
struct Iter {
    build_s: f64,
    reads: Latencies,
    read_total_ns: u64,
}

impl Build {
    fn iteration(&self, env: &Env, tr: &Tracer, i: usize, v: &mut Values) -> Iter {
        let dir = env.scratch.path().join(format!("iter{i}"));
        let mut cfg = DistConfig::new(2);
        cfg.scheme = PartitionScheme::TwoD;
        cfg.spill = Some(SpillConfig::new(dir.join("runs")));
        let krsc = dir.join("product.krsc");
        let first = self.reads[0];
        let mut row = Vec::new();

        // ---- timed: factors in, first row out -------------------------
        let root = tr.span("build.section", Layer::Timed, None);
        let t0 = Instant::now();
        let result = tr.time("dist.generate_distributed", Layer::Dist, root.id(), || {
            generate_distributed(&self.pair, &cfg)
        });
        let rss_generate = tr.on().then(peak_rss_mib);
        let runs: Vec<PathBuf> = result.shard_runs.iter().flatten().cloned().collect();
        let built = tr.time(
            "shard.build_external_csr",
            Layer::ShardWrite,
            root.id(),
            || build_external_csr(&runs, &krsc, BUF_BYTES),
        );
        let rss_build = tr.on().then(peak_rss_mib);
        let opened = tr.time("shard.open_with_cache", Layer::ShardRead, root.id(), || {
            ExternalCsr::open_with_cache(&krsc, CsrCacheConfig::default())
        });
        let first_read = match opened {
            Ok(mut ext) => {
                let r = tr.time("shard.row_into", Layer::ShardRead, root.id(), || {
                    ext.row_into(first, &mut row)
                });
                r.map(|()| ext)
            }
            Err(e) => Err(e),
        };
        let build_s = t0.elapsed().as_secs_f64();
        drop(root);
        // ---------------------------------------------------------------

        let checks = &env.checks;
        let mut out = Iter {
            build_s,
            ..Iter::default()
        };
        let (built, mut ext) = match (built, first_read) {
            (Ok(b), Ok(ext)) => (b, ext),
            (b, e) => {
                checks.fail(format!("build failed: {:?} / {:?}", b.err(), e.err()));
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
        };
        checks.check(digest::words(&row) == self.expected[first as usize], || {
            "first row".into()
        });
        let stats = &result.stats;
        checks.check(stats.total_stored() == self.m_c, || {
            format!("stored {} arcs", stats.total_stored())
        });
        checks.check(built.arcs == self.m_c, || {
            format!("external CSR holds {} arcs", built.arcs)
        });

        // Disk at its peak: every run plus the KRSC file.
        let run_bytes: u64 = runs
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
        let peak_bytes = env.scratch.bytes().unwrap_or(0);
        for p in &runs {
            if let Err(e) = std::fs::remove_file(p) {
                checks.fail(format!("removing run {}: {e}", p.display()));
            }
        }
        let t_verify = Instant::now();
        if i == 0 {
            self.verify_file(env, &krsc);
        }
        let verify_s = t_verify.elapsed().as_secs_f64();

        // Row reads, each timed alone.
        let read_root = tr.span("build.reads", Layer::ShardRead, None);
        let mut good = 0u64;
        for &p in &self.reads {
            let t = Instant::now();
            let r = ext.row_into(p, &mut row);
            let ns = t.elapsed().as_nanos() as u64;
            out.reads.push(ns);
            out.read_total_ns += ns;
            if r.is_ok() && digest::words(&row) == self.expected[p as usize] {
                good += 1;
            } else {
                checks.fail(format!("read of row {p}: {:?}", r.err()));
            }
        }
        checks.passed(good);
        drop(read_root);
        eprintln!(
            "kron-benchmark: iteration {i}: build {build_s:.3} s, verify {verify_s:.3} s, {} reads {:.3} s",
            self.reads.len(),
            out.read_total_ns as f64 / 1e9
        );
        let cache = ext.cache_stats();
        drop(ext);
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            checks.fail(format!("removing {}: {e}", dir.display()));
        }

        if tr.on() {
            let m_c = self.m_c as f64;
            v.set(
                "dist.messages",
                stats.per_rank.iter().map(|r| r.messages).sum::<u64>() as f64,
            );
            v.set("dist.remote_fraction", stats.remote_fraction());
            v.set("dist.storage_imbalance", stats.storage_imbalance());
            v.set("dist.retransmissions", stats.total_retransmissions() as f64);
            v.set("shard.runs", runs.len() as f64);
            v.set("shard.spill_bytes_per_arc", run_bytes as f64 / m_c);
            v.set("shard.merge_passes", f64::from(built.merge_passes));
            v.set(
                "shard.offsets_rewritten",
                f64::from(u8::from(built.offsets_rewritten)),
            );
            v.set("disk_bytes_per_arc", peak_bytes as f64 / m_c);
            v.set("shard.block_hit_rate", cache.hit_rate());
            v.set("shard.block_misses", cache.misses as f64);
            if i == 0 {
                v.set("rss.after_generate_mb", rss_generate.unwrap_or(0.0));
                v.set("rss.after_build_mb", rss_build.unwrap_or(0.0));
            }
        }
        out
    }

    /// Streams the whole file and checks every row against its digest.
    fn verify_file(&self, env: &Env, krsc: &std::path::Path) {
        let mut bad = 0u64;
        let scanned = ExternalCsr::open(krsc).and_then(|mut ext| {
            if ext.n() != self.pair.n_c() || ext.arc_count() != self.m_c {
                bad += 1;
            }
            ext.for_each_row(|p, row| {
                if digest::words(row) != self.expected[p as usize] {
                    bad += 1;
                }
                Ok(())
            })
        });
        match scanned {
            Ok(()) if bad == 0 => env.checks.passed(self.pair.n_c()),
            Ok(()) => env
                .checks
                .fail(format!("{bad} rows of the external CSR differ")),
            Err(e) => env.checks.fail(format!("scanning the external CSR: {e}")),
        }
    }
}

impl Bench for Build {
    fn pass(&mut self, env: &Env, tr: &Tracer, v: &mut Values) {
        if tr.on() {
            kron_obs::reset();
            kron_obs::set_enabled(true);
        }
        let mut build_s = Vec::new();
        let mut reads = Latencies::default();
        let mut read_total_ns = 0u64;
        let (_, peak_rss) = iterate(env.cfg.seconds, |i| {
            let it = self.iteration(env, tr, i, v);
            build_s.push(it.build_s);
            reads.absorb(it.reads);
            read_total_ns += it.read_total_ns;
        });
        kron_obs::set_enabled(false);

        v.set("ops_per_s", self.m_c as f64 / median(&build_s));
        v.set("peak_rss_mb", peak_rss);
        record_latency(v, &reads);
        if tr.on() {
            v.set(
                "dist.generate_s",
                median(&tr.durations_s("dist.generate_distributed")),
            );
            v.set(
                "shard.build_s",
                median(&tr.durations_s("shard.build_external_csr")),
            );
            v.set(
                "shard.open_s",
                median(&tr.durations_s("shard.open_with_cache")),
            );
            let (p50, p99) = reads.percentiles();
            v.set("shard.read_ns.p50", p50);
            v.set("shard.read_ns.p99", p99);
            v.set(
                "shard.reads_per_s",
                ratio(reads.count() as f64, read_total_ns as f64 / 1e9),
            );
        }
    }
}
