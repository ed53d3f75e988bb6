//! Conformance of the out-of-core shard tier against the in-memory
//! pipeline, across random Kronecker factor pairs: direct spill,
//! exchange-driven spill (both partition schemes), `from_shards`, and the
//! fully external CSR build must all reproduce `materialize(A ⊗ B)` bit
//! for bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use kron_core::generate::materialize;
use kron_core::KroneckerPair;
use kron_dist::{
    generate_distributed, spill_shards_direct, DistConfig, PartitionScheme, SpillConfig,
};
use kron_graph::generators::{cycle, erdos_renyi, path};
use kron_graph::shard::{
    build_external_csr, build_external_csr_two_pass, CsrCacheConfig, ExternalCsr,
};
use kron_graph::CsrGraph;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kron_shard_conf_{}_{tag}_{id}", std::process::id()))
}

/// Strategy: a random factor pair — ER × {ER, cycle, path} factors,
/// as-is or with full self loops.
fn factor_pair() -> impl Strategy<Value = KroneckerPair> {
    ((2u64..8, 2u64..8), (0u64..1000, proptest::bool::ANY, 0usize..3)).prop_map(
        |((na, nb), (seed, full, shape))| {
            let a = erdos_renyi(na, 0.5, seed);
            let b = match shape {
                0 => erdos_renyi(nb, 0.5, seed.wrapping_add(7)),
                1 => cycle(nb.max(3)),
                _ => path(nb),
            };
            if full {
                KroneckerPair::with_full_self_loops(a, b).expect("loop-free factors")
            } else {
                KroneckerPair::as_is(a, b).expect("loop-free factors")
            }
        },
    )
}

/// Asserts two CSR graphs are equal down to their raw arrays — "equal by
/// bits", not merely equivalent.
fn assert_bits_equal(got: &CsrGraph, want: &CsrGraph, ctx: &str) {
    assert_eq!(got.n(), want.n(), "{ctx}: n");
    assert_eq!(got.offsets(), want.offsets(), "{ctx}: offset array");
    assert_eq!(got.targets(), want.targets(), "{ctx}: target array");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direct per-rank spill → `from_shards` reproduces the sequentially
    /// materialized product exactly, for every rank count and run size.
    #[test]
    fn direct_spill_from_shards_matches_materialize(
        pair in factor_pair(),
        ranks in 1usize..6,
        run_arcs in 1usize..200,
    ) {
        let reference = materialize(&pair);
        let dir = scratch_dir("direct");
        let mut spill = SpillConfig::new(dir.clone());
        spill.run_arcs = run_arcs;
        let runs = spill_shards_direct(&pair, ranks, &spill).expect("direct spill").runs;
        prop_assert_eq!(runs.len(), ranks);
        let paths: Vec<&PathBuf> = runs.iter().flatten().collect();
        if paths.is_empty() {
            // An empty product spills nothing; nothing further to check.
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(reference.nnz(), 0);
            continue;
        }
        let rebuilt = CsrGraph::from_shards(&paths, 1024).expect("from_shards");
        assert_bits_equal(&rebuilt, &reference, &format!("direct spill ranks={ranks} run_arcs={run_arcs}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exchange-driven spill under both partition schemes agrees with the
    /// sequential build too — same shards-to-CSR contract, but the arcs
    /// took the full routed path through the reliable transport.
    #[test]
    fn exchange_spill_from_shards_matches_materialize(
        pair in factor_pair(),
        ranks in 1usize..5,
    ) {
        let reference = materialize(&pair);
        for scheme in [PartitionScheme::OneD, PartitionScheme::TwoD] {
            let dir = scratch_dir("exch");
            let mut cfg = DistConfig::new(ranks);
            cfg.scheme = scheme;
            let mut spill = SpillConfig::new(dir.clone());
            spill.run_arcs = 64;
            cfg.spill = Some(spill);
            let result = generate_distributed(&pair, &cfg);
            let paths: Vec<&PathBuf> = result.shard_runs.iter().flatten().collect();
            if paths.is_empty() {
                std::fs::remove_dir_all(&dir).ok();
                prop_assert_eq!(reference.nnz(), 0);
                continue;
            }
            let rebuilt = CsrGraph::from_shards(&paths, 1024).expect("from_shards");
            assert_bits_equal(
                &rebuilt,
                &reference,
                &format!("exchange spill scheme={scheme:?} ranks={ranks}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The fully external build (`KRSC` file on disk) loads back equal to
    /// the in-memory CSR, and its streamed degrees match row for row.
    #[test]
    fn external_csr_file_matches_materialize(pair in factor_pair(), ranks in 1usize..4) {
        let reference = materialize(&pair);
        let dir = scratch_dir("ext");
        let spill = SpillConfig::new(dir.clone());
        let runs = spill_shards_direct(&pair, ranks, &spill).expect("direct spill").runs;
        let paths: Vec<&PathBuf> = runs.iter().flatten().collect();
        if paths.is_empty() {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let out = dir.join("product.krsc");
        let stats = build_external_csr(&paths, &out, 1024).expect("external build");
        prop_assert_eq!(stats.arcs as usize, reference.nnz());
        let mut ext = ExternalCsr::open(&out).expect("open external CSR");
        prop_assert_eq!(ext.n(), reference.n());
        prop_assert_eq!(ext.arc_count() as usize, reference.nnz());
        assert_bits_equal(&ext.load().expect("load external CSR"), &reference, "external CSR");
        let mut degrees = Vec::new();
        ext.for_each_degree(|_, d| degrees.push(d)).expect("degree stream");
        prop_assert_eq!(degrees, reference.degrees());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Small-run conformance: for any run size the footers of a direct
    /// spill predict the offsets exactly, the single-pass build is
    /// byte-equal to the two-pass reference, and the spill is smaller
    /// than the retired fixed-width layout (a 24-byte header + 16
    /// bytes/arc per run) once runs hold a few arcs, and at most a
    /// quarter of it once they hold 64.
    #[test]
    fn small_runs_build_identical_csr_files(
        pair in factor_pair(),
        ranks in 1usize..4,
        run_arcs in 1usize..120,
    ) {
        let dir = scratch_dir("fmt");
        let mut spill = SpillConfig::new(dir.join("runs"));
        spill.run_arcs = run_arcs;
        let runs = spill_shards_direct(&pair, ranks, &spill).expect("direct spill").runs;
        let paths: Vec<PathBuf> = runs.into_iter().flatten().collect();
        if paths.is_empty() {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let one = dir.join("one.krsc");
        let two = dir.join("two.krsc");
        let s1 = build_external_csr(&paths, &one, 1024).expect("single-pass build");
        let s2 = build_external_csr_two_pass(&paths, &two, 1024).expect("two-pass build");
        prop_assert_eq!(s1.arcs, s2.arcs, "pass arc counts");
        prop_assert!(!s1.offsets_rewritten, "disjoint direct-spill runs must predict exactly");
        let b1 = std::fs::read(&one).expect("read single-pass KRSC");
        let b2 = std::fs::read(&two).expect("read two-pass KRSC");
        prop_assert_eq!(b1, b2, "single-pass differs from two-pass");
        let bytes: u64 = paths.iter().map(|p| std::fs::metadata(p).expect("run file").len()).sum();
        let fixed = 24 * paths.len() as u64 + 16 * pair.nnz_c() as u64;
        // A 1-arc run is 44 B against the fixed layout's 40 B, so the
        // size win needs a few arcs per run to amortize header + footer.
        if pair.nnz_c() >= 2 * paths.len() as u128 {
            prop_assert!(bytes < fixed, "spill {} B not below fixed width {} B", bytes, fixed);
        }
        // With 64 arcs per run the delta varints take at most a quarter.
        if pair.nnz_c() >= 64 * paths.len() as u128 {
            prop_assert!(4 * bytes <= fixed, "spill {} B above a quarter of {} B", bytes, fixed);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The block-cached `ExternalCsr` answers degree/row queries exactly
    /// like the uncached reader, for any cache geometry.
    #[test]
    fn cached_external_csr_matches_uncached(
        pair in factor_pair(),
        block_bytes in 1usize..512,
        blocks in 1usize..32,
        seed in 0u64..=u64::MAX,
    ) {
        let reference = materialize(&pair);
        let dir = scratch_dir("cache");
        let spill = SpillConfig::new(dir.clone());
        let runs = spill_shards_direct(&pair, 2, &spill).expect("direct spill").runs;
        let paths: Vec<&PathBuf> = runs.iter().flatten().collect();
        if paths.is_empty() {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let out = dir.join("product.krsc");
        build_external_csr(&paths, &out, 1024).expect("external build");
        let cfg = CsrCacheConfig { block_bytes, blocks, seed };
        let mut cached = ExternalCsr::open_with_cache(&out, cfg).expect("open cached");
        let mut plain = ExternalCsr::open(&out).expect("open uncached");
        for p in 0..reference.n() {
            prop_assert_eq!(cached.degree(p).expect("degree"), plain.degree(p).expect("degree"));
            prop_assert_eq!(cached.row(p).expect("row"), plain.row(p).expect("row"));
        }
        let stats = cached.cache_stats();
        prop_assert!(stats.hits + stats.misses > 0, "cache saw no traffic");
        std::fs::remove_dir_all(&dir).ok();
    }
}
