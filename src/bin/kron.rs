//! `kron` — command-line Kronecker graph generator with ground truth.
//!
//! The paper's contribution (a) as a tool: "reads two factor graphs A and
//! B from file and efficiently produces the nonstochastic Kronecker graph
//! C = A ⊗ B", plus ground-truth queries, dataset generation, and stats.
//!
//! ```text
//! kron generate A.txt B.txt --out c.txt [--self-loops full] [--ranks 4] [--scheme 2d] [--count-only]
//! kron ground-truth A.txt B.txt [--self-loops full] [--vertex P]
//! kron stats G.txt
//! kron dataset gnutella --out a.txt [--vertices N] [--seed S]
//! kron dataset groundtruth20000 --out a.txt [--vertices N] [--seed S] [--labels L]
//! kron spectrum A.txt B.txt [--self-loops full]
//! kron power A.txt K [--self-loops full] [--vertex P]
//! kron validate A.txt B.txt [--ranks R] [--self-loops full]
//! kron validate --help      # --help or -h after any command prints the usage
//! ```

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use kronecker::core::distance::DistanceOracle;
use kronecker::core::triangles::TriangleOracle;
use kronecker::core::{degree, spectrum, KroneckerPair, SelfLoopMode};
use kronecker::dist::generator::{generate_distributed, DistConfig, StorageMode};
use kronecker::dist::partition::PartitionScheme;
use kronecker::graph::{io, CsrGraph};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  kron generate <A> <B> [--out FILE] [--self-loops full|asis] [--ranks N]
                        [--scheme 1d|2d] [--count-only] [--binary]
  kron ground-truth <A> <B> [--self-loops full|asis] [--vertex P]
  kron stats <GRAPH>
  kron dataset <gnutella|groundtruth20000> --out FILE [--vertices N] [--seed S]
                                           [--labels FILE]
  kron spectrum <A> <B> [--self-loops full|asis]
  kron power <A> <K> [--self-loops full|asis] [--vertex P]
  kron validate <A> <B> [--ranks R] [--self-loops full|asis]
  kron help                (or --help / -h after any command)";

/// Parsed flags: positional arguments plus `--key value` / `--flag` pairs.
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    /// `--help` or `-h` appeared where a flag may stand.
    help: bool,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["--count-only", "--binary"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    let mut help = false;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            help = true;
        } else if let Some(key) = arg.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&arg.as_str()) {
                options.insert(key.to_string(), "true".to_string());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                options.insert(key.to_string(), value.clone());
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Args { positional, options, help })
}

impl Args {
    fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    fn parse_option<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {raw:?}")),
        }
    }

    fn self_loop_mode(&self) -> Result<SelfLoopMode, String> {
        match self.option("self-loops").unwrap_or("asis") {
            "full" => Ok(SelfLoopMode::FullBoth),
            "asis" => Ok(SelfLoopMode::AsIs),
            other => Err(format!("unknown --self-loops mode {other:?} (use full|asis)")),
        }
    }
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    let list = if path.ends_with(".bin") {
        io::read_binary_file(path)
    } else {
        io::read_text_file(path)
    }
    .map_err(|e| format!("reading {path}: {e}"))?;
    // A declared vertex count beyond 2^32 is refused before the CSR
    // allocates its offset array.
    CsrGraph::check_vertex_count(list.n()).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(CsrGraph::from_edge_list(&list))
}

fn load_pair(args: &Args) -> Result<KroneckerPair, String> {
    let [a_path, b_path] = args.positional.get(0..2).and_then(|s| <&[String; 2]>::try_from(s).ok())
        .ok_or("expected factor files <A> <B>")?;
    let a = load_graph(a_path)?;
    let b = load_graph(b_path)?;
    KroneckerPair::new(a, b, args.self_loop_mode()?).map_err(|e| e.to_string())
}

fn run(raw: &[String]) -> Result<(), String> {
    let command = raw.first().map(String::as_str).ok_or("no command given")?;
    let args = parse_args(&raw[1..])?;
    type Command = fn(&Args) -> Result<(), String>;
    // Each command with the flags it reads; any other flag is an error,
    // so a misspelled one cannot silently leave its default in place.
    let (handler, flags): (Command, &[&str]) = match command {
        "generate" => {
            (cmd_generate, &["out", "self-loops", "ranks", "scheme", "count-only", "binary"])
        }
        "ground-truth" => (cmd_ground_truth, &["self-loops", "vertex"]),
        "stats" => (cmd_stats, &[]),
        "dataset" => (cmd_dataset, &["out", "vertices", "seed", "labels"]),
        "spectrum" => (cmd_spectrum, &["self-loops"]),
        "power" => (cmd_power, &["self-loops", "vertex"]),
        "validate" => (cmd_validate, &["ranks", "self-loops"]),
        "--help" | "help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    if args.help {
        println!("{USAGE}");
        return Ok(());
    }
    if let Some(flag) = args.options.keys().find(|key| !flags.contains(&key.as_str())) {
        return Err(format!("unknown flag --{flag} for kron {command}"));
    }
    handler(&args)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let pair = load_pair(args)?;
    let ranks = args.parse_option("ranks", NonZeroUsize::MIN)?.get();
    let scheme = match args.option("scheme").unwrap_or("1d") {
        "1d" => PartitionScheme::OneD,
        "2d" => PartitionScheme::TwoD,
        other => return Err(format!("unknown --scheme {other:?} (use 1d|2d)")),
    };
    let count_only = args.option("count-only").is_some();

    eprintln!(
        "C: n = {}, arcs = {}, undirected edges = {}",
        pair.n_c(),
        pair.nnz_c(),
        pair.undirected_edge_count_c()
    );

    let mut config = DistConfig::new(ranks);
    config.scheme = scheme;
    config.storage = if count_only { StorageMode::CountOnly } else { StorageMode::Store };
    let result = generate_distributed(&pair, &config);
    let stats = &result.stats;
    eprintln!(
        "generated {} arcs on {ranks} rank(s) in {:.3}s ({:.2e} arcs/s), remote fraction {:.2}",
        stats.total_generated(),
        stats.elapsed_secs,
        stats.arcs_per_sec(),
        stats.remote_fraction()
    );

    if count_only {
        println!("{}", stats.total_generated());
        return Ok(());
    }
    let out = args.option("out").ok_or("--out FILE required unless --count-only")?;
    let union = result.union(pair.n_c());
    if args.option("binary").is_some() || out.ends_with(".bin") {
        io::write_binary_file(out, &union).map_err(|e| e.to_string())?;
    } else {
        io::write_text_file(out, &union).map_err(|e| e.to_string())?;
    }
    eprintln!("wrote {} arcs to {out}", union.nnz());
    Ok(())
}

fn cmd_ground_truth(args: &Args) -> Result<(), String> {
    let pair = load_pair(args)?;
    println!("n_C    = {}", pair.n_c());
    println!("arcs_C = {}", pair.nnz_c());
    println!("m_C    = {}", pair.undirected_edge_count_c());

    match TriangleOracle::new(&pair) {
        Ok(tri) => println!("tau_C  = {}", tri.global_triangles()),
        Err(e) => println!("tau_C  unavailable: {e}"),
    }
    match DistanceOracle::new(&pair) {
        Ok(dist) => {
            println!("diam_C = {}", dist.diameter());
            println!("eccentricity histogram of C:");
            print!("{}", dist.eccentricity_histogram());
        }
        Err(e) => println!("distance ground truth unavailable: {e}"),
    }

    if let Some(raw) = args.option("vertex") {
        let p: u64 = raw.parse().map_err(|_| format!("invalid vertex {raw:?}"))?;
        println!("\nvertex {p}:");
        println!("  degree = {}", degree::degree_of(&pair, p).map_err(|e| e.to_string())?);
        if let Ok(tri) = TriangleOracle::new(&pair) {
            println!(
                "  triangles = {}",
                tri.vertex_triangles_of(p).map_err(|e| e.to_string())?
            );
        }
        if let Ok(dist) = DistanceOracle::new(&pair) {
            println!(
                "  eccentricity = {}",
                dist.eccentricity_of(p).map_err(|e| e.to_string())?
            );
            println!(
                "  closeness = {:.4}",
                kronecker::core::closeness::closeness_fast(&dist, p)
                    .map_err(|e| e.to_string())?
            );
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a graph file")?;
    let g = load_graph(path)?;
    println!("vertices  = {}", g.n());
    println!("arcs      = {}", g.nnz());
    println!("edges     = {}", g.undirected_edge_count());
    println!("loops     = {}", g.self_loop_count());
    println!("undirected = {}", g.is_undirected());
    let ds = kronecker::graph::degree::degree_stats(&g);
    println!("degree    = min {}, mean {:.2}, max {}", ds.min, ds.mean, ds.max);
    if g.is_undirected() {
        let tri = kronecker::analytics::triangles::vertex_triangles(&g);
        println!("triangles = {}", tri.global);
        let comps = kronecker::graph::connectivity::connected_components(&g);
        println!("components = {}", comps.count);
        if comps.count == 1 && g.n() > 1 {
            let summary = kronecker::analytics::distance::distance_summary(&g);
            println!("diameter  = {}", summary.diameter);
            println!("radius    = {}", summary.radius);
        }
    }
    Ok(())
}

fn cmd_dataset(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("expected a dataset name")?;
    let out = args.option("out").ok_or("--out FILE required")?;
    let seed: u64 = args.parse_option("seed", 0xC0FFEE)?;
    let graph = match name.as_str() {
        "gnutella" => {
            let mut cfg = kronecker::datasets::gnutella::GnutellaConfig::full();
            cfg.vertices = args.parse_option("vertices", cfg.vertices)?;
            cfg.seed = seed;
            kronecker::datasets::gnutella::synthetic_gnutella(&cfg)
        }
        "groundtruth20000" => {
            let vertices: u64 = args.parse_option("vertices", 20_000)?;
            let ds = kronecker::datasets::graphchallenge::groundtruth_scaled(vertices, seed);
            if let Some(label_path) = args.option("labels") {
                let text: String = ds
                    .labels
                    .iter()
                    .enumerate()
                    .map(|(v, l)| format!("{v} {l}\n"))
                    .collect();
                std::fs::write(label_path, text).map_err(|e| e.to_string())?;
                eprintln!("wrote community labels to {label_path}");
            }
            ds.graph
        }
        other => return Err(format!("unknown dataset {other:?}")),
    };
    io::write_text_file(out, &graph.to_edge_list()).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {name}: {} vertices, {} edges to {out}",
        graph.n(),
        graph.undirected_edge_count()
    );
    Ok(())
}

fn cmd_spectrum(args: &Args) -> Result<(), String> {
    let pair = load_pair(args)?;
    let spec = spectrum::kronecker_spectrum(&pair).map_err(|e| e.to_string())?;
    let distinct = spectrum::distinct_eigenvalue_count(&spec, 1e-9);
    println!("eigenvalues of C = {}", spec.len());
    println!("distinct (1e-9)  = {distinct}");
    println!(
        "spectral radius  = {:.6}",
        spectrum::spectral_radius(&pair).map_err(|e| e.to_string())?
    );
    println!("min eigenvalue   = {:.6}", spec.first().expect("nonempty"));
    println!("max eigenvalue   = {:.6}", spec.last().expect("nonempty"));
    Ok(())
}

fn cmd_power(args: &Args) -> Result<(), String> {
    let path = args.positional.first().ok_or("expected a factor file")?;
    let k: usize = args
        .positional
        .get(1)
        .ok_or("expected the power K")?
        .parse()
        .map_err(|_| "K must be a positive integer".to_string())?;
    let a = load_graph(path)?;
    let chain = kronecker::core::power::KroneckerChain::power(a, k, args.self_loop_mode()?)
        .map_err(|e| e.to_string())?;
    println!("C = A^(x{k})");
    println!("n_C    = {}", chain.n_c());
    println!("arcs_C = {}", chain.nnz_c());
    match chain.diameter() {
        Ok(d) => println!("diam_C = {d}"),
        Err(e) => println!("diam_C unavailable: {e}"),
    }
    let hist = chain.degree_histogram();
    println!(
        "degree histogram: {} distinct values over {} vertices",
        hist.distinct(),
        hist.total()
    );
    if let Some(raw) = args.option("vertex") {
        let p: u64 = raw.parse().map_err(|_| format!("invalid vertex {raw:?}"))?;
        println!("\nvertex {p}:");
        println!("  degree = {}", chain.degree_of(p).map_err(|e| e.to_string())?);
        let triangles = match args.self_loop_mode()? {
            SelfLoopMode::AsIs => chain.vertex_triangles_of(p),
            SelfLoopMode::FullBoth => chain.vertex_triangles_full_of(p),
        };
        match triangles {
            Ok(t) => println!("  triangles = {t}"),
            Err(e) => println!("  triangles unavailable: {e}"),
        }
        match chain.eccentricity_of(p) {
            Ok(e) => println!("  eccentricity = {e}"),
            Err(e) => println!("  eccentricity unavailable: {e}"),
        }
        match chain.closeness_of(p) {
            Ok(z) => println!("  closeness = {z:.4}"),
            Err(e) => println!("  closeness unavailable: {e}"),
        }
    }
    Ok(())
}

/// Runs the paper's end-to-end validation workflow: distributed
/// generation, then distributed degree and triangle analytics checked
/// against the factor-side ground truth.
fn cmd_validate(args: &Args) -> Result<(), String> {
    let pair = load_pair(args)?;
    let ranks = args.parse_option("ranks", NonZeroUsize::new(4).expect("4 is non-zero"))?.get();
    let result = generate_distributed(&pair, &DistConfig::new(ranks));
    println!(
        "generated {} arcs on {ranks} rank(s) in {:.3}s",
        result.stats.total_stored(),
        result.stats.elapsed_secs
    );

    let report =
        kronecker::dist::validate::validate_against_ground_truth(&pair, &result);
    println!(
        "degree validation: {} mismatches over {} vertices → {}",
        report.degree_mismatches,
        pair.n_c(),
        if report.passed { "PASS" } else { "FAIL" }
    );

    let owner = kronecker::dist::owner::VertexBlockOwner::new(pair.n_c(), ranks);
    let counted =
        kronecker::dist::triangle_count::distributed_triangle_count(&result, &owner);
    match TriangleOracle::new(&pair) {
        Ok(oracle) => {
            let truth = oracle.global_triangles();
            let ok = counted as u128 == truth;
            println!(
                "triangle validation: distributed {counted} vs formula {truth} → {}",
                if ok { "PASS" } else { "FAIL" }
            );
            if !ok || !report.passed {
                return Err("validation failed".to_string());
            }
        }
        Err(e) => println!("triangle ground truth unavailable: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_positional_and_flags() {
        let args = parse_args(&strs(&["a.txt", "b.txt", "--ranks", "4", "--count-only"])).unwrap();
        assert_eq!(args.positional, vec!["a.txt", "b.txt"]);
        assert_eq!(args.option("ranks"), Some("4"));
        assert_eq!(args.option("count-only"), Some("true"));
        assert_eq!(args.parse_option::<usize>("ranks", 1).unwrap(), 4);
        assert_eq!(args.parse_option::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parse_rejects_dangling_flag() {
        assert!(parse_args(&strs(&["--out"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_value() {
        let args = parse_args(&strs(&["--ranks", "many"])).unwrap();
        assert!(args.parse_option::<usize>("ranks", 1).is_err());
    }

    #[test]
    fn self_loop_mode_parsing() {
        let full = parse_args(&strs(&["--self-loops", "full"])).unwrap();
        assert_eq!(full.self_loop_mode().unwrap(), SelfLoopMode::FullBoth);
        let asis = parse_args(&strs(&[])).unwrap();
        assert_eq!(asis.self_loop_mode().unwrap(), SelfLoopMode::AsIs);
        let bad = parse_args(&strs(&["--self-loops", "nope"])).unwrap();
        assert!(bad.self_loop_mode().is_err());
    }

    #[test]
    fn parse_reads_help_in_flag_position() {
        assert!(parse_args(&strs(&["a.txt", "--help"])).unwrap().help);
        assert!(parse_args(&strs(&["-h", "--ranks", "2"])).unwrap().help);
        // A flag's value is never a help request.
        let out = parse_args(&strs(&["--out", "-h"])).unwrap();
        assert!(!out.help);
        assert_eq!(out.option("out"), Some("-h"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_generate_and_stats() {
        use kronecker::graph::generators::clique;
        let dir = std::env::temp_dir().join("kron_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("a.txt");
        let b_path = dir.join("b.txt");
        let c_path = dir.join("c.txt");
        io::write_text_file(&a_path, &clique(3).to_edge_list()).unwrap();
        io::write_text_file(&b_path, &clique(4).to_edge_list()).unwrap();

        run(&strs(&[
            "generate",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--out",
            c_path.to_str().unwrap(),
            "--ranks",
            "2",
            "--scheme",
            "2d",
        ]))
        .unwrap();

        let c = load_graph(c_path.to_str().unwrap()).unwrap();
        assert_eq!(c.n(), 12);
        assert_eq!(c.nnz(), 6 * 12);

        run(&strs(&["stats", c_path.to_str().unwrap()])).unwrap();
        run(&strs(&[
            "ground-truth",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--self-loops",
            "full",
            "--vertex",
            "3",
        ]))
        .unwrap();
        run(&strs(&[
            "spectrum",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
        ]))
        .unwrap();
    }

    #[test]
    fn end_to_end_power() {
        use kronecker::graph::generators::clique;
        let dir = std::env::temp_dir().join("kron_cli_power_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("a.txt");
        io::write_text_file(&a_path, &clique(3).to_edge_list()).unwrap();
        run(&strs(&[
            "power",
            a_path.to_str().unwrap(),
            "3",
            "--self-loops",
            "full",
            "--vertex",
            "5",
        ]))
        .unwrap();
        assert!(run(&strs(&["power", a_path.to_str().unwrap(), "zero"])).is_err());
        assert!(run(&strs(&["power", a_path.to_str().unwrap()])).is_err());
    }

    #[test]
    fn end_to_end_validate() {
        use kronecker::graph::generators::clique;
        let dir = std::env::temp_dir().join("kron_cli_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("a.txt");
        let b_path = dir.join("b.txt");
        io::write_text_file(&a_path, &clique(3).to_edge_list()).unwrap();
        io::write_text_file(&b_path, &clique(4).to_edge_list()).unwrap();
        run(&strs(&[
            "validate",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--ranks",
            "3",
            "--self-loops",
            "full",
        ]))
        .unwrap();
    }

    #[test]
    fn end_to_end_dataset() {
        let dir = std::env::temp_dir().join("kron_cli_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("g.txt");
        run(&strs(&[
            "dataset",
            "gnutella",
            "--out",
            out.to_str().unwrap(),
            "--vertices",
            "200",
            "--seed",
            "5",
        ]))
        .unwrap();
        let g = load_graph(out.to_str().unwrap()).unwrap();
        assert!(g.n() > 100);
        assert!(g.is_undirected());
    }
}
