//! `validate-s8`: explicit analytics on the materialized product,
//! checked against the factor oracles.
//!
//! Timed pass: `materialize` → `vertex_triangles`, degrees, a 64-source
//! `multi_source_bfs_hops`, and 16 explicit `closeness` values → build
//! `TriangleOracle` and `DistanceOracle` → check every vertex (degree,
//! triangles, and its hop count from each BFS source) and every sampled
//! closeness value. `ops_per_s` is `m_C` over the pass (median over
//! passes); `latency.p50_us` is the time to compute one explicit
//! closeness value (a BFS over `C`), the latency of validating one
//! sampled vertex. The analytics kernels do nearly all the work and the
//! shard, dist and serve layers none, so an out-of-core gain must show no
//! change here.
//!
//! Closeness is checked through exact per-source hop histograms: the BFS
//! row's histogram must equal the oracle's (integer equality), and the
//! explicit value must agree with `closeness_fast` to a relative error of
//! 1e-12 — not bit for bit, because `kron_analytics::distance::closeness`
//! sums `1/h` in vertex order while the oracle sums by hop value, so the
//! two round differently in the last bits (about 2e-13 typically and
//! under 6e-13 in every sample checked with these factors). This is
//! rounding, not a bug; the largest error seen is reported as
//! `analytics.closeness_max_rel_err`.

use std::time::Instant;

use kron_analytics::distance::{closeness, multi_source_bfs_hops, UNREACHABLE};
use kron_analytics::triangles::vertex_triangles;
use kron_core::closeness::{closeness_fast, cumulative_hop_counts};
use kron_core::degree::degree_of;
use kron_core::distance::DistanceOracle;
use kron_core::generate::materialize;
use kron_core::triangles::TriangleOracle;
use kron_core::KroneckerPair;
use rand::Rng;

use crate::stats::{median, Latencies};
use crate::trace::{Layer, Tracer};
use crate::{factors, iterate, record_latency, rng_for, timed_setups, Bench, Env, Values};

/// Largest accepted relative error between an explicit closeness value
/// and `closeness_fast`.
const CLOSENESS_REL_TOL: f64 = 1e-12;

struct Validate {
    pair: KroneckerPair,
    m_c: u64,
    /// Distinct BFS sources; the first `closeness_sources` also get an
    /// explicit closeness value.
    sources: Vec<u64>,
    closeness_sources: usize,
    inject_fault: bool,
}

pub(crate) fn prepare(env: &Env, v: &mut Values) -> Box<dyn Bench> {
    let shape = env.cfg.shape;
    let (pair, setup_s) = timed_setups(
        shape.setup_seconds,
        || factors(shape.validate_scale, 22, 23),
        drop,
    );
    v.set("setup_s", setup_s);
    let mut rng = rng_for(env.cfg.seed, 2);
    let want = shape.bfs_sources.min(pair.n_c() as usize);
    let mut sources = Vec::with_capacity(want);
    while sources.len() < want {
        let s = rng.gen_range(0..pair.n_c());
        if !sources.contains(&s) {
            sources.push(s);
        }
    }
    let m_c = u64::try_from(pair.nnz_c()).expect("m_C fits u64");
    Box::new(Validate {
        pair,
        m_c,
        sources,
        closeness_sources: shape.closeness_sources.min(want),
        inject_fault: env.cfg.inject_fault,
    })
}

/// Exact hop histogram of one hop row: `counts[h]` vertices at hop `h`.
fn histogram(row: &[u32]) -> Vec<u64> {
    let max = row
        .iter()
        .copied()
        .filter(|&h| h != UNREACHABLE)
        .max()
        .unwrap_or(0);
    let mut counts = vec![0u64; max as usize + 1];
    for &h in row.iter().filter(|&&h| h != UNREACHABLE) {
        counts[h as usize] += 1;
    }
    counts
}

/// The oracle's hop histogram of product vertex `p`, from the factor hop
/// rows (Thm. 3: `hops_C = max(hops_A, hops_B)`).
fn oracle_histogram(dist: &DistanceOracle<'_>, p: u64) -> Vec<u64> {
    let (i, k) = dist.pair().split(p);
    let cum_a = cumulative_hop_counts(dist.hops_a_row(i));
    let cum_b = cumulative_hop_counts(dist.hops_b_row(k));
    let h_star = cum_a.len().max(cum_b.len());
    let at = |cum: &[u64], h: usize| cum.get(h).or(cum.last()).copied().unwrap_or(0);
    let mut counts = vec![0u64; h_star];
    let mut prev = 0u64;
    for (h, c) in counts.iter_mut().enumerate() {
        let cur = at(&cum_a, h) * at(&cum_b, h);
        *c = cur - prev;
        prev = cur;
    }
    while counts.len() > 1 && counts.last() == Some(&0) {
        counts.pop();
    }
    counts
}

fn rel_err(x: f64, reference: f64) -> f64 {
    if x == reference {
        0.0
    } else {
        (x - reference).abs() / reference.abs().max(f64::MIN_POSITIVE)
    }
}

impl Validate {
    /// One timed validation pass; returns its wall time.
    fn iteration(
        &self,
        env: &Env,
        tr: &Tracer,
        closeness_ns: &mut Latencies,
        max_err: &mut f64,
    ) -> f64 {
        let checks = &env.checks;
        let pair = &self.pair;
        let root = tr.span("validate.pass", Layer::Timed, None);
        let parent = root.id();
        let t0 = Instant::now();

        let c = tr.time("core.materialize", Layer::Core, parent, || {
            materialize(pair)
        });
        let tri = tr.time(
            "analytics.vertex_triangles",
            Layer::Analytics,
            parent,
            || vertex_triangles(&c),
        );
        let degrees = tr.time("analytics.degrees", Layer::Analytics, parent, || {
            c.degrees()
        });
        let rows = tr.time(
            "analytics.multi_source_bfs_hops",
            Layer::Analytics,
            parent,
            || multi_source_bfs_hops(&c, &self.sources),
        );
        let explicit: Vec<f64> = tr.time("analytics.closeness", Layer::Analytics, parent, || {
            self.sources[..self.closeness_sources]
                .iter()
                .map(|&s| {
                    let t = Instant::now();
                    let x = closeness(&c, s);
                    closeness_ns.push(t.elapsed().as_nanos() as u64);
                    x
                })
                .collect()
        });
        let (tri_oracle, dist) = tr.time("core.oracle_build", Layer::Core, parent, || {
            (TriangleOracle::new(pair), DistanceOracle::new(pair))
        });
        tr.time("core.oracle_eval", Layer::Core, parent, || {
            let (tri_oracle, dist) = match (tri_oracle, dist) {
                (Ok(t), Ok(d)) => (t, d),
                (t, d) => {
                    checks.fail(format!("oracle build: {:?} / {:?}", t.err(), d.err()));
                    return;
                }
            };
            let fault_at = self.inject_fault.then_some(self.sources[0]);
            let mut good = 0u64;
            for p in 0..pair.n_c() {
                let mut expected_t = tri_oracle.vertex_triangles_of(p).ok();
                if fault_at == Some(p) {
                    expected_t = expected_t.map(|x| x ^ 1);
                }
                let ok = degree_of(pair, p).ok() == Some(degrees[p as usize])
                    && expected_t == Some(tri.per_vertex[p as usize])
                    && self
                        .sources
                        .iter()
                        .zip(&rows)
                        .all(|(&s, row)| dist.hops_of(s, p).ok() == Some(row[p as usize]));
                if ok {
                    good += 1;
                } else {
                    checks.fail(format!("vertex {p} disagrees with the oracles"));
                }
            }
            checks.passed(good);
            checks.check(
                tri_oracle.global_triangles() == u128::from(tri.global),
                || "global triangle count".into(),
            );
            for (idx, (&s, &x)) in self.sources.iter().zip(&explicit).enumerate() {
                let fast = closeness_fast(&dist, s).unwrap_or(f64::NAN);
                checks.check(histogram(&rows[idx]) == oracle_histogram(&dist, s), || {
                    format!("hop histogram of source {s}")
                });
                let err = rel_err(x, fast);
                *max_err = max_err.max(err);
                checks.check(err <= CLOSENESS_REL_TOL, || {
                    format!("closeness of {s}: explicit {x}, oracle {fast}")
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        drop(root);
        wall
    }
}

impl Bench for Validate {
    fn pass(&mut self, env: &Env, tr: &Tracer, v: &mut Values) {
        if tr.on() {
            kron_obs::reset();
            kron_obs::set_enabled(true);
        }
        let mut walls = Vec::new();
        let mut closeness_ns = Latencies::default();
        let mut max_err = 0.0f64;
        let (passes, peak_rss) = iterate(env.cfg.seconds, |_| {
            walls.push(self.iteration(env, tr, &mut closeness_ns, &mut max_err));
        });
        kron_obs::set_enabled(false);

        v.set("ops_per_s", self.m_c as f64 / median(&walls));
        v.set("peak_rss_mb", peak_rss);
        record_latency(v, &closeness_ns);
        if tr.on() {
            let stage = |name| median(&tr.durations_s(name));
            v.set("core.synthesize_s", stage("core.materialize"));
            v.set("core.oracle_build_s", stage("core.oracle_build"));
            v.set("core.oracle_eval_s", stage("core.oracle_eval"));
            v.set("analytics.triangles_s", stage("analytics.vertex_triangles"));
            v.set("analytics.bfs_s", stage("analytics.multi_source_bfs_hops"));
            v.set("analytics.closeness_s", stage("analytics.closeness"));
            let counters = kron_obs::metrics::snapshot();
            let per_pass = |name| counters.counter(name).unwrap_or(0) as f64 / passes as f64;
            v.set(
                "triangles.elements_probed",
                per_pass("triangles.elements_probed"),
            );
            v.set("triangles.words_probed", per_pass("triangles.words_probed"));
            v.set("analytics.closeness_max_rel_err", max_err);
        }
    }
}
