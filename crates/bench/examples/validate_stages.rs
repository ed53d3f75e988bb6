//! Replays the `validate-s8` benchmark workload's stages once, in order,
//! and prints this process's `VmRSS` and `VmHWM` after each: the stage
//! after which `VmHWM` jumps is the one that sets the workload's peak.
//!
//! Stages: the R-MAT scale-8 factors (graph500, seeds 22/23, full self
//! loops), `materialize`, `vertex_triangles`, degrees, a 64-source
//! `multi_source_bfs_hops`, 16 explicit `closeness` values, then
//! `TriangleOracle::new` and `DistanceOracle::new`. Every result stays
//! live to the end, as in the workload's pass, and is checked against the
//! oracles there.
//!
//! It also prints the triangle kernel's counters for the product alone;
//! the workload's traced `triangles.*` counters also count the oracle
//! build's kernel calls on the factors.
//!
//! ```sh
//! cargo run --release --offline -p kron-bench --example validate_stages
//! ```
//!
//! It only reads `/proc/self/status`, so the memory columns are Linux
//! only (they read 0 elsewhere).

use std::time::Instant;

use kron_analytics::distance::{closeness, multi_source_bfs_hops};
use kron_analytics::triangles::vertex_triangles;
use kron_core::closeness::closeness_fast;
use kron_core::degree::degree_of;
use kron_core::distance::DistanceOracle;
use kron_core::generate::materialize;
use kron_core::triangles::TriangleOracle;
use kron_core::KroneckerPair;
use kron_graph::generators::{rmat, RmatConfig};

/// Prints `VmRSS` and `VmHWM` of this process, in MiB, after `stage`.
fn report(stage: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mib = |field: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    println!("{stage:<32} VmRSS {:>6.1} MiB  VmHWM {:>6.1} MiB", mib("VmRSS:"), mib("VmHWM:"));
}

fn main() {
    let a = rmat(&RmatConfig::graph500(8, 22));
    let b = rmat(&RmatConfig::graph500(8, 23));
    let pair = KroneckerPair::with_full_self_loops(a, b).expect("R-MAT factors are loop-free");
    let n = pair.n_c();
    // 64 distinct sources: an odd stride is a bijection modulo n = 2^16.
    let sources: Vec<u64> = (0..64).map(|i| i * 40_503 % n).collect();
    report("factors");

    let c = materialize(&pair);
    report("materialize");

    kron_obs::reset();
    kron_obs::set_enabled(true);
    let start = Instant::now();
    let triangles = vertex_triangles(&c);
    let kernel_s = start.elapsed().as_secs_f64();
    kron_obs::set_enabled(false);
    let counters = kron_obs::metrics::snapshot();
    report("vertex_triangles");

    let degrees = c.degrees();
    report("degrees");
    let hops = multi_source_bfs_hops(&c, &sources);
    report("multi_source_bfs_hops (64)");
    let explicit: Vec<f64> = sources[..16].iter().map(|&s| closeness(&c, s)).collect();
    report("closeness (16)");
    let tri = TriangleOracle::new(&pair).expect("R-MAT factors are loop-free");
    let dist = DistanceOracle::new(&pair).expect("the pair has full self loops");
    report("TriangleOracle + DistanceOracle");

    // FNV-1a over the per-vertex counts, to compare runs of two builds.
    let digest = triangles
        .per_vertex
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &t| (h ^ t).wrapping_mul(0x0100_0000_01b3));
    let agree = (0..n).all(|p| {
        tri.vertex_triangles_of(p).ok() == Some(triangles.per_vertex[p as usize])
            && degree_of(&pair, p).ok() == Some(degrees[p as usize])
    });
    let max_err = sources[..16]
        .iter()
        .zip(&explicit)
        .map(|(&s, &x)| {
            let fast = closeness_fast(&dist, s).expect("source in range");
            ((x - fast) / fast).abs()
        })
        .fold(0.0, f64::max);
    println!(
        "\nproduct: {} vertices, {} arcs; {} triangles, per-vertex digest {digest:016x}",
        n,
        c.nnz(),
        triangles.global
    );
    println!("vertex_triangles: {kernel_s:.3} s");
    println!(
        "oracles agree at every vertex: {agree}; {} hop rows; closeness max rel err {max_err:.1e}",
        hops.len()
    );
    println!("product-only kernel counters:");
    for name in [
        "triangles.elements_probed",
        "triangles.words_probed",
        "triangles.packed_rows",
        "triangles.packed_bytes",
        "triangles.anchors_bitmap",
        "triangles.anchors_marking",
    ] {
        println!("  {name:<27} {}", counters.counter(name).unwrap_or(0));
    }
}
