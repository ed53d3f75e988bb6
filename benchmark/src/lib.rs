//! # kron-benchmark — one pipeline benchmark with per-layer attribution
//!
//! The paper's promise is a graph whose ground truth is known at any
//! scale. Users pay for it three ways: generating `C` out of core,
//! validating analytics on `C` against the factor oracles, and querying
//! ground truth online. Each workload below exercises one of them, in
//! its own process, and reports the same end-to-end metrics:
//!
//! | workload            | what runs                                                                 |
//! |---------------------|---------------------------------------------------------------------------|
//! | `build-s8`          | 2-rank 2D generation → v2 spill → external CSR → open, then zipf row reads |
//! | `validate-s8`       | materialize → triangles, degrees, 64-source BFS, 16 closeness vs oracles   |
//! | `serve-scalar-s8`   | closed loop, 2 connections, scalar queries at zipf 1.0                    |
//! | `serve-nbr-hot-s8`  | open loop, Neighbors at zipf 1.2 (fits the row cache), then saturation    |
//! | `serve-nbr-cold-s8` | open loop, Neighbors uniform over every row (16× the cache), then saturation |
//!
//! Every layer is measured from outside: the benchmark times its calls
//! into each crate's public functions (spans, see `trace.rs`) and reads
//! the public stats those crates return. Expected replies are computed
//! before any clock starts and compared by digest (`digest.rs`), so oracle
//! work never lands in a timed window. README.md lists the metrics, their
//! bounds, and which layer metric should move which end-to-end metric.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kron_core::KroneckerPair;
use kron_graph::generators::{rmat, RmatConfig};
use kron_obs::ring::FlightSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod build;
mod digest;
mod scratch;
mod serve;
mod stats;
mod trace;
mod validate;

use scratch::Scratch;
use trace::{Layer, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Out-of-core generation and external CSR build, then row reads.
    BuildS8,
    /// Explicit analytics on the materialized product vs the oracles.
    ValidateS8,
    /// Closed-loop scalar ground-truth queries (bypasses the row cache).
    ServeScalarS8,
    /// Open-loop Neighbors queries whose working set fits the row cache.
    ServeNbrHotS8,
    /// Open-loop Neighbors queries over 16× the row cache.
    ServeNbrColdS8,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::BuildS8,
        Workload::ValidateS8,
        Workload::ServeScalarS8,
        Workload::ServeNbrHotS8,
        Workload::ServeNbrColdS8,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildS8 => "build-s8",
            Workload::ValidateS8 => "validate-s8",
            Workload::ServeScalarS8 => "serve-scalar-s8",
            Workload::ServeNbrHotS8 => "serve-nbr-hot-s8",
            Workload::ServeNbrColdS8 => "serve-nbr-cold-s8",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Shape::FULL`] is what `BENCHMARK.json` runs;
/// [`Shape::SMALL`] is the seconds-long shape the crate's tests run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// R-MAT factor scale of `build-s8` (`n_C = 4^scale`).
    pub build_scale: u32,
    /// R-MAT factor scale of `validate-s8`.
    pub validate_scale: u32,
    /// R-MAT factor scale of the serve workloads.
    pub serve_scale: u32,
    /// `row_into` reads per `build-s8` iteration.
    pub reads: usize,
    /// Multi-source BFS sources per `validate-s8` pass.
    pub bfs_sources: usize,
    /// Explicit closeness values per `validate-s8` pass (a prefix of the
    /// BFS sources).
    pub closeness_sources: usize,
    /// Open-loop rungs, at least 2: paced rungs at doubling rates, then
    /// one saturating rung.
    pub rungs: usize,
    /// Seconds spent repeating the set-up (at least [`MIN_SETUPS`]
    /// times); `setup_s` is the fastest set-up.
    pub setup_seconds: f64,
}

/// Fewest set-ups a run times, however short its set-up budget.
pub const MIN_SETUPS: usize = 5;

impl Shape {
    /// The benchmark's shape.
    pub const FULL: Shape = Shape {
        build_scale: 8,
        validate_scale: 8,
        serve_scale: 8,
        reads: 10_000,
        bfs_sources: 64,
        closeness_sources: 16,
        rungs: 4,
        setup_seconds: 2.0,
    };

    /// Factor scale 4, about 2k reads, one paced rung: the test shape.
    pub const SMALL: Shape = Shape {
        build_scale: 4,
        validate_scale: 4,
        serve_scale: 4,
        reads: 2_000,
        bfs_sources: 8,
        closeness_sources: 4,
        rungs: 2,
        setup_seconds: 0.0,
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Measurement budget of one pass.
    pub seconds: f64,
    /// Report layer metrics from a traced pass instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Problem sizes.
    pub shape: Shape,
    /// Parent of the run's scratch directory.
    pub scratch_root: PathBuf,
    /// Where `<workload>.json` (and, traced, `<workload>.trace.json`) go.
    pub out_dir: PathBuf,
    /// Corrupts one expected value before the clock starts, so a correct
    /// system must be reported as failing (the harness's self-check).
    pub inject_fault: bool,
}

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[m("setup_s", "s"), m("peak_rss_mb", "MiB")];

/// Layer metrics, reported by every traced run (0 where the workload
/// does not exercise the layer).
pub const PER_LAYER: &[MetricSpec] = &[
    m("dist.generate_s", "s"),
    m("dist.messages", "count"),
    m("dist.remote_fraction", "ratio"),
    m("dist.storage_imbalance", "ratio"),
    m("dist.retransmissions", "count"),
    m("rss.after_generate_mb", "MiB"),
    m("shard.runs", "count"),
    m("shard.spill_bytes_per_arc", "B/arc"),
    m("shard.build_s", "s"),
    m("shard.merge_passes", "count"),
    m("shard.offsets_rewritten", "count"),
    m("rss.after_build_mb", "MiB"),
    m("disk_bytes_per_arc", "B/arc"),
    m("shard.open_s", "s"),
    m("shard.read_ns.p50", "ns"),
    m("shard.read_ns.p99", "ns"),
    m("shard.reads_per_s", "reads/s"),
    m("shard.block_hit_rate", "ratio"),
    m("shard.block_misses", "count"),
    m("core.synthesize_s", "s"),
    m("core.oracle_build_s", "s"),
    m("core.oracle_eval_s", "s"),
    m("analytics.triangles_s", "s"),
    m("analytics.bfs_s", "s"),
    m("analytics.closeness_s", "s"),
    m("triangles.elements_probed", "count"),
    m("triangles.words_probed", "count"),
    m("analytics.closeness_max_rel_err", "ratio"),
    m("serve.engine_build_s", "s"),
    m("serve.read_ns.p50", "ns"),
    m("serve.queue_ns.p50", "ns"),
    m("serve.queue_ns.p99", "ns"),
    m("serve.write_ns.p50", "ns"),
    m("serve.write_ns.p99", "ns"),
    m("serve.proc_ns.p99", "ns"),
    m("serve.outside_ns.p50", "ns"),
    m("serve.engine_ns.p50", "ns"),
    m("serve.engine_ns.p99", "ns"),
    m("serve.cache_ns.p50", "ns"),
    m("serve.flight_events", "count"),
    m("serve.bad_frames", "count"),
    m("serve.write_failures", "count"),
    m("serve.cache_hit_rate", "ratio"),
    m("serve.cache_evictions", "count"),
    m("serve.reply_bytes_per_query", "B/query"),
    m("slo_qps", "queries/s"),
    m("load.achieved_qps.r0", "queries/s"),
    m("load.achieved_qps.r1", "queries/s"),
    m("load.achieved_qps.r2", "queries/s"),
    m("load.achieved_qps.r3", "queries/s"),
    m("load.late_us.p99", "us"),
    m("ops_per_s", "ops/s"),
    m("latency.p50_us", "us"),
    m("latency.p99_us", "us"),
    m("latency.samples", "count"),
    m("self_s.core", "s"),
    m("self_s.dist", "s"),
    m("self_s.shard_write", "s"),
    m("self_s.shard_read", "s"),
    m("self_s.analytics", "s"),
    m("self_s.serve", "s"),
    m("trace.unattributed_share", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub(crate) struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Attempted and failed checks, shared by every thread of a run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checks {
    /// Counts one check; a failed one is also reported on stderr (the
    /// first few only).
    pub(crate) fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.fail(what());
        }
    }

    /// Counts `n` checks that all passed.
    pub(crate) fn passed(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one attempted check that failed.
    pub(crate) fn fail(&self, what: String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let before = self.failed.fetch_add(1, Ordering::Relaxed);
        if before < 10 {
            eprintln!("kron-benchmark: check failed: {what}");
        }
    }
}

/// What one pass of a workload needs besides its own state.
pub(crate) struct Env<'a> {
    pub(crate) cfg: &'a RunConfig,
    pub(crate) scratch: &'a Scratch,
    pub(crate) checks: &'a Checks,
}

/// A prepared workload (set up, expected replies computed).
pub(crate) trait Bench {
    /// One measurement pass of `env.cfg.seconds`; records `ops_per_s`,
    /// `peak_rss_mb`, `latency.p50_us` and the layer metrics it can
    /// observe.
    fn pass(&mut self, env: &Env, tr: &Tracer, v: &mut Values);

    /// Flight-recorder events the last traced pass gathered.
    fn flight(&self) -> Option<FlightSnapshot> {
        None
    }

    /// Tears down what set-up started.
    fn finish(self: Box<Self>, _env: &Env) {}
}

/// An input stream of the run's seed, independent of the streams of
/// other `salt`s.
pub(crate) fn rng_for(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (salt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The graph500 R-MAT factor pair with full self loops.
pub(crate) fn factors(scale: u32, seed_a: u64, seed_b: u64) -> KroneckerPair {
    let a = rmat(&RmatConfig::graph500(scale, seed_a));
    let b = rmat(&RmatConfig::graph500(scale, seed_b));
    KroneckerPair::with_full_self_loops(a, b).expect("R-MAT factors are loop-free")
}

/// Runs `iteration` until `seconds` are used: always once, then again
/// while another iteration is expected to end within the budget. Returns
/// the iteration count and the median over iterations of each one's peak
/// resident set size, in MiB: one iteration's peak depends on how its
/// threads happened to interleave, so a single reading is an outlier too
/// often to compare.
pub(crate) fn iterate(seconds: f64, mut iteration: impl FnMut(usize)) -> (usize, f64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    loop {
        stats::reset_peak_rss();
        let t = Instant::now();
        iteration(walls.len());
        walls.push(t.elapsed().as_secs_f64());
        peaks.push(stats::peak_rss_mib());
        if start.elapsed().as_secs_f64() + stats::median(&walls) > seconds {
            return (walls.len(), stats::median(&peaks));
        }
    }
}

/// Fastest wall time of `setup`, run again and again until `seconds` have
/// passed and it ran at least [`MIN_SETUPS`] times. On a shared host a
/// set-up of a few milliseconds runs up to 1.5× slower for minutes at a
/// time while other tenants load the memory system, so the median of any
/// window follows the host. Contention only ever adds time, and brief
/// quiet moments recur even in a slow phase, so the fastest of a few
/// seconds of set-ups is close to the set-up's own cost. Every product but the
/// last goes to `teardown` (outside the clock); the last is returned.
pub(crate) fn timed_setups<T>(
    seconds: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < seconds {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
    (last.expect("at least one set-up"), fastest)
}

/// Records `latency.p50_us` and `latency.p99_us` (see
/// [`stats::Latencies`]) and the sample count.
pub(crate) fn record_latency(v: &mut Values, lat: &stats::Latencies) {
    let (p50, p99) = lat.percentiles();
    v.set("latency.p50_us", p50 / 1e3);
    v.set("latency.p99_us", p99 / 1e3);
    v.set("latency.samples", lat.count() as f64);
}

/// `len` vertices of `0..n` whose ranks follow zipf(`s`) (vertex id =
/// popularity rank; `s = 0` is uniform), drawn by stratification — the
/// inverse CDF at the midpoints of `len` equal slices of `[0, 1)` — then
/// shuffled by `rng`. Every seed visits the same multiset in its own
/// order, so a run's latencies do not hinge on which rare rows one random
/// sample happened to hit.
pub(crate) fn zipf_stream(n: u64, s: f64, len: usize, rng: &mut SmallRng) -> Vec<u64> {
    let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::with_capacity(len);
    let (mut rank, mut cdf) = (0usize, weights[0] / total);
    for i in 0..len {
        let u = (i as f64 + 0.5) / len as f64;
        while cdf < u && rank + 1 < weights.len() {
            rank += 1;
            cdf += weights[rank] / total;
        }
        out.push(rank as u64);
    }
    for i in (1..len).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Sleeps until `deadline` (no-op when it has passed).
pub(crate) fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Seconds as a `Duration`.
pub(crate) fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checks made against expected outputs.
    pub attempted: u64,
    /// Checks that failed (wrong replies, leftover files, missing metrics).
    pub failed: u64,
    /// The reported metrics, in catalog order: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<(MetricSpec, f64)>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed checks over attempted ones.
    pub fn error_rate(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The reported value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|&(_, v)| v)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(s, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    s.name, s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload end to end: set-up, one measurement pass (traced or
/// not), checks, scratch clean-up, and the report files under `out_dir`.
pub fn run(cfg: &RunConfig) -> std::io::Result<Outcome> {
    let tracer = Tracer::new(cfg.trace);
    let scratch = Scratch::create(&cfg.scratch_root, cfg.workload.name())?;
    let checks = Checks::default();
    let env = Env {
        cfg,
        scratch: &scratch,
        checks: &checks,
    };
    let mut v = Values::default();

    let mut bench: Box<dyn Bench> = match cfg.workload {
        Workload::BuildS8 => build::prepare(&env, &mut v),
        Workload::ValidateS8 => validate::prepare(&env, &mut v),
        Workload::ServeScalarS8 | Workload::ServeNbrHotS8 | Workload::ServeNbrColdS8 => {
            serve::prepare(&env, &mut v)?
        }
    };

    bench.pass(&env, &tracer, &mut v);
    // Throughput is a layer metric, so an untraced run's result line
    // lacks it; this line lets a traced and an untraced run of one seed
    // give the tracing overhead.
    eprintln!(
        "kron-benchmark: {} pass: ops_per_s {}",
        if cfg.trace { "traced" } else { "untraced" },
        v.get("ops_per_s").unwrap_or(0.0)
    );
    let mut flight = None;
    if cfg.trace {
        let a = tracer.attribution();
        for layer in Layer::ALL {
            if let Some(name) = layer.self_metric() {
                v.set(name, a.self_s(layer));
            }
        }
        v.set("trace.unattributed_share", a.unattributed_share());
        flight = bench.flight();
    }
    bench.finish(&env);

    match scratch.finish() {
        Ok(0) => checks.passed(1),
        Ok(n) => checks.fail(format!("{n} files left in the scratch directory")),
        Err(e) => checks.fail(format!("removing the scratch directory: {e}")),
    }

    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalog.len());
    for &spec in catalog {
        let value = match v.get(spec.name) {
            Some(x) if x.is_finite() => x,
            Some(x) => {
                checks.fail(format!("metric {} is not finite ({x})", spec.name));
                0.0
            }
            // A layer the workload does not exercise reads 0; an
            // end-to-end metric is always measured.
            None if cfg.trace => 0.0,
            None => {
                checks.fail(format!("metric {} was not measured", spec.name));
                0.0
            }
        };
        metrics.push((spec, value));
    }
    let outcome = Outcome {
        attempted: checks.attempted.load(Ordering::Relaxed),
        failed: checks.failed.load(Ordering::Relaxed),
        metrics,
    };

    write_reports(cfg, &outcome, &tracer, flight.as_ref())?;
    Ok(outcome)
}

/// Writes `<workload>.json` (the run's settings and result) and, traced,
/// the Chrome trace `<workload>.trace.json`.
fn write_reports(
    cfg: &RunConfig,
    outcome: &Outcome,
    traced: &Tracer,
    flight: Option<&FlightSnapshot>,
) -> std::io::Result<()> {
    let dir = &cfg.out_dir;
    std::fs::create_dir_all(dir)?;
    let name = cfg.workload.name();
    let doc = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {},\n\"result\": {}}}\n",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        outcome.result_line()
    );
    kron_obs::json_lint::validate(&doc).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(format!("{name}.json")), doc)?;

    if cfg.trace {
        let mut tb = kron_obs::trace_export::TraceBuilder::new();
        tb.add_flight(&traced.as_flight());
        if let Some(f) = flight {
            tb.add_flight(f);
        }
        tb.check_shape().map_err(std::io::Error::other)?;
        tb.write_to(&dir.join(format!("{name}.trace.json")))?;
    }
    Ok(())
}
