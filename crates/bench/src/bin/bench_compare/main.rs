//! `bench_compare` — the one performance gate: the working tree against
//! a base revision, in interleaved pairs of the pipeline benchmark that
//! `BENCHMARK.json` describes.
//!
//! ```text
//! bench_compare [BASE] [--workload NAME]... [--claim METRIC@WORKLOAD]
//! ```
//!
//! BASE (default `HEAD`) is checked out in a temporary git worktree. The
//! working tree's `benchmark/` is built against each side's crates into
//! `.bench_build/{base,change}`, so both sides run the same benchmark
//! code. Each workload (all of them, or those named) runs [`PAIRS`]
//! untraced pairs at `run_seconds`, alternating which side runs first;
//! pair `i` uses seed `i + 1`. For every end-to-end metric and for the
//! `ops_per_s` of the benchmark's stderr line it prints each side's
//! q1/median/q3, the median's change and the change's wins. A claim
//! (`ops_per_s` or an end-to-end metric) must pass the rule for gains,
//! and adds layer medians from [`TRACED_PAIRS`] traced pairs, to show
//! where the gain comes from. Exits 1 when a rule of `rules.rs` fails,
//! 2 on bad arguments or when git or a build fails.

mod rules;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use rules::{quartiles, Better, Checked, Paired, Verdict, PAIRS, TRACED_PAIRS};

/// A layer metric: a traced result line has it, and for an untraced run
/// it is read from the benchmark's `untraced pass: ops_per_s N` stderr line.
const OPS: &str = "ops_per_s";

const USAGE: &str = "usage: bench_compare [BASE] [--workload NAME]... [--claim METRIC@WORKLOAD]";

fn main() -> ExitCode {
    match compare() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// The text after `"key": ` in one line of flat JSON, up to the next
/// `"`, `,` or `}`. `BENCHMARK.json` puts each workload and metric on a
/// line of its own, and the benchmark's result line is one line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": "))?.1;
    rest.strip_prefix('"').unwrap_or(rest).split(['"', ',', '}']).next()
}

fn number<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.trim().parse().ok()
}

/// What `BENCHMARK.json` fixes: run length, workloads, end-to-end bounds.
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<(String, Better, f64)>,
}

fn load_spec(path: &Path) -> Result<Spec, String> {
    let err = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
    kron_obs::json_lint::validate(&text).map_err(err)?;
    let mut spec = Spec { run_seconds: 0.0, workloads: Vec::new(), end_to_end: Vec::new() };
    let mut list = "";
    for line in text.lines() {
        // A member of the top-level object starts its line with its key.
        match line.trim_start().strip_prefix('"').and_then(|l| l.split('"').next()) {
            Some("run_seconds") => spec.run_seconds = number(line, "run_seconds").unwrap_or(0.0),
            Some(key) => list = key,
            None => {}
        }
        match (list, field(line, "name"), number(line, "bound")) {
            ("workloads", Some(name), _) => spec.workloads.push(name.to_string()),
            ("end_to_end", Some(name), bound) => {
                let bound = bound.ok_or_else(|| err(format!("{name} has no bound")))?;
                let higher = field(line, "better") == Some("higher");
                let better = if higher { Better::Higher } else { Better::Lower };
                spec.end_to_end.push((name.to_string(), better, bound));
            }
            _ => {}
        }
    }
    if spec.run_seconds <= 0.0 || spec.workloads.is_empty() || spec.end_to_end.is_empty() {
        return Err(err("no run_seconds, workloads or end_to_end metrics".into()));
    }
    Ok(spec)
}

/// One run of the benchmark.
struct Run {
    checked: Checked,
    /// The result line's metrics, and `ops_per_s`.
    metrics: Vec<(String, f64)>,
}

fn run(exe: &Path, workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds"])
        .args([seconds.to_string().as_str(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        eprintln!("bench_compare: {workload} seed {seed}: {}\n{stderr}", out.status);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or("");
    // In `"name": {"value": V, ...}`, each name ends the piece before a split.
    let pieces: Vec<&str> = result.split("\": {\"value\": ").collect();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for p in pieces.windows(2) {
        let value = p[1].split([',', '}']).next().and_then(|v| v.parse().ok());
        metrics.extend(value.map(|v| (p[0].rsplit('"').next().unwrap_or_default().to_string(), v)));
    }
    let ops =
        stderr.lines().find_map(|l| l.split_once("untraced pass: ops_per_s ")?.1.parse().ok());
    metrics.extend(ops.map(|v| (OPS.to_string(), v)));
    let checked = Checked {
        exit_ok: out.status.success(),
        attempted: number(result, "attempted").unwrap_or(0),
        failed: number(result, "failed").unwrap_or(0),
    };
    Ok(Run { checked, metrics })
}

/// Runs [`PAIRS`] untraced pairs of workload `w` from seed 1, or
/// [`TRACED_PAIRS`] traced ones from the next seed, alternating which
/// side runs first. Returns the base's runs and the change's.
fn pairs(exes: &[PathBuf; 2], w: &str, secs: f64, trace: bool) -> Result<[Vec<Run>; 2], String> {
    let (n, seed) = if trace { (TRACED_PAIRS, PAIRS + 1) } else { (PAIRS, 1) };
    let mut runs = [Vec::new(), Vec::new()];
    for i in 0..n {
        for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
            runs[side].push(run(&exes[side], w, (seed + i) as u64, secs, trace)?);
        }
        eprintln!("bench_compare: {w}: pair {}/{n} done", i + 1);
    }
    Ok(runs)
}

/// Metric `name` of every run on both sides; `None` if a run lacks it.
fn paired(runs: &[Vec<Run>; 2], name: &str, better: Better) -> Option<Paired> {
    let column = |side: &[Run]| -> Option<Vec<f64>> {
        side.iter().map(|r| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1)).collect()
    };
    Some(Paired { base: column(&runs[0])?, change: column(&runs[1])?, better })
}

/// Prints one metric's row and returns whether its rule passed.
fn row(w: &str, name: &str, p: Option<Paired>, rule: impl Fn(&Paired) -> Verdict) -> bool {
    let Some(p) = p else {
        println!("{w:<18} {name:<12} missing from a run: fail");
        return false;
    };
    let verdict = rule(&p);
    let [b, c] = [&p.base, &p.change].map(|xs| quartiles(xs).map(|q| format!("{q:.4e}")));
    let change = 100.0 * (quartiles(&p.change)[1] / quartiles(&p.base)[1] - 1.0);
    let v = format!("{verdict:?}").to_lowercase();
    let (b, c, wins, n) = (b.join(" "), c.join(" "), p.wins(), p.base.len());
    println!("{w:<18} {name:<12} {b:>32}  {c:>32} {change:>+7.1}% {wins:>2}/{n} {v}");
    verdict != Verdict::Fail
}

/// Prints the checks rule's row and returns whether it passed.
fn checks_row(w: &str, runs: &[Vec<Run>; 2]) -> bool {
    let [base, change] = runs.each_ref().map(|s| s.iter().map(|r| r.checked).collect::<Vec<_>>());
    let exits = base.iter().chain(&change).filter(|c| !c.exit_ok).count();
    let [fb, fc] = [&base, &change].map(|s| rules::failed_share(s));
    let verdict = rules::checks_rule(&base, &change);
    let v = format!("{verdict:?}").to_lowercase();
    println!("{w:<18} checks       failed share {fb:.2e} / {fc:.2e}, {exits} nonzero exits: {v}");
    verdict == Verdict::Pass
}

fn git(repo: &Path, args: &[&str]) -> Result<String, String> {
    match Command::new("git").arg("-C").arg(repo).args(args).output() {
        Ok(o) if o.status.success() => Ok(String::from_utf8_lossy(&o.stdout).into_owned()),
        Ok(o) => Err(format!("git {}: {}", args.join(" "), String::from_utf8_lossy(&o.stderr))),
        Err(e) => Err(format!("git: {e}")),
    }
}

/// Builds `src`'s `benchmark/` into `target`; returns the executable.
fn build(src: &Path, target: &Path) -> Result<PathBuf, String> {
    eprintln!("bench_compare: building {} into {}", src.display(), target.display());
    let status = Command::new("cargo")
        .args(["build", "--quiet", "--release", "--offline", "--manifest-path"])
        .args([Path::new("benchmark/Cargo.toml"), Path::new("--target-dir"), target])
        .current_dir(src)
        .status();
    match status {
        Ok(s) if s.success() => Ok(target.join("release/kron-benchmark")),
        _ => Err(format!("building the benchmark in {} failed", src.display())),
    }
}

/// Checks `rev` out in a temporary worktree, puts the working tree's
/// `benchmark/` in place of its own, builds it into `target`, and removes
/// the worktree.
fn build_base(repo: &Path, rev: &str, target: &Path) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("bench_compare_{}", std::process::id()));
    let dir_arg = dir.to_str().ok_or("the temporary directory is not UTF-8")?;
    git(repo, &["worktree", "add", "--detach", "--quiet", dir_arg, rev])?;
    // The worktree is removed whether or not the build succeeds.
    let built = (|| {
        let io = |e: std::io::Error| format!("copying benchmark/ to {dir_arg}: {e}");
        std::fs::remove_dir_all(dir.join("benchmark")).map_err(io)?;
        let files = git(repo, &["ls-files", "-co", "--exclude-standard", "benchmark"])?;
        // A tracked file deleted in the working tree is not copied.
        for file in files.lines().filter(|f| repo.join(f).exists()) {
            std::fs::create_dir_all(dir.join(file).parent().expect("under benchmark/"))
                .map_err(io)?;
            std::fs::copy(repo.join(file), dir.join(file)).map_err(io)?;
        }
        build(&dir, target)
    })();
    git(repo, &["worktree", "remove", "--force", dir_arg])?;
    built
}

fn compare() -> Result<bool, String> {
    let repo = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?.trim());
    let spec = load_spec(&repo.join("BENCHMARK.json"))?;
    let (mut base, mut workloads, mut claim) = (None, Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg.starts_with('-') { args.next() } else { None };
        match (arg.as_str(), value) {
            ("--workload", Some(w)) if spec.workloads.contains(&w) => workloads.push(w),
            ("--claim", Some(c)) if c.contains('@') => claim = Some(c),
            (_, None) if base.is_none() && !arg.starts_with('-') => base = Some(arg.clone()),
            _ => return Err(format!("bad argument {arg}\n{USAGE}")),
        }
    }
    let base = base.unwrap_or_else(|| "HEAD".to_string());
    let workloads = if workloads.is_empty() { spec.workloads.clone() } else { workloads };
    let claim = claim.as_ref().and_then(|c| c.split_once('@'));
    let direction = |m: &str| match spec.end_to_end.iter().find(|e| e.0 == m) {
        Some(e) => Some(e.1),
        None => (m == OPS).then_some(Better::Higher),
    };
    if let Some((m, w)) =
        claim.filter(|(m, w)| direction(m).is_none() || !workloads.contains(&w.to_string()))
    {
        return Err(format!("--claim {m}@{w}: not a measured metric of a workload being run"));
    }

    let change = build(&repo, &repo.join(".bench_build/change"))?;
    let exes = [build_base(&repo, &base, &repo.join(".bench_build/base"))?, change];
    let secs = spec.run_seconds;
    println!("bench_compare: working tree vs {base}, {PAIRS} pairs of {secs} s per workload");
    let cols = ["parent q1 median q3", "change q1 median q3"];
    println!("{:<31} {:>32}  {:>32}   median wins", "", cols[0], cols[1]);
    let mut ok = true;
    for w in &workloads {
        let runs = pairs(&exes, w, secs, false)?;
        for (name, better, bound) in &spec.end_to_end {
            ok &= row(w, name, paired(&runs, name, *better), |p| rules::bound_rule(p, *bound));
        }
        ok &= row(w, OPS, paired(&runs, OPS, Better::Higher), rules::throughput_rule);
        ok &= checks_row(w, &runs);
        let Some((m, _)) = claim.filter(|(_, cw)| cw == w) else { continue };
        let claimed = paired(&runs, m, direction(m).expect("checked above"));
        ok &= row(w, &format!("claim {m}"), claimed, rules::claim_rule);

        let traced = pairs(&exes, w, secs, true)?;
        println!("{w}: layer medians of {TRACED_PAIRS} traced pairs, parent and change");
        for (name, _) in traced[0].first().map_or(&[][..], |r| &r.metrics[..]) {
            if let Some(p) = paired(&traced, name, Better::Lower) {
                // A layer the workload does not exercise reads 0.
                let [b, c] = [&p.base, &p.change].map(|xs| quartiles(xs)[1]);
                if b != 0.0 || c != 0.0 {
                    println!("  {name:<34} {b:>14.6e} {c:>14.6e}");
                }
            }
        }
        ok &= checks_row(w, &traced);
    }
    println!("bench_compare: {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_repository_benchmark_spec() {
        let spec = load_spec(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"))
            .expect("BENCHMARK.json");
        assert!(spec.run_seconds > 0.0);
        assert!(spec.workloads.iter().any(|w| w == "build-s8"), "{:?}", spec.workloads);
        assert!(spec.end_to_end.iter().any(|e| e.0 == "peak_rss_mb" && e.2 > 0.0));
        assert!(spec.end_to_end.iter().all(|e| !e.0.is_empty() && e.2 > 0.0));
    }

    /// A stand-in for the benchmark: a script printing a canned run.
    fn fake_run(stdout: &str, stderr: &str, code: i32) -> Run {
        use std::os::unix::fs::PermissionsExt;
        let dir =
            std::env::temp_dir().join(format!("bench_compare_test_{}_{code}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let exe = dir.join("kron-benchmark");
        let script = format!("#!/bin/sh\necho '{stdout}'\necho '{stderr}' >&2\nexit {code}\n");
        std::fs::write(&exe, script).unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let run = run(&exe, "build-s8", 1, 20.0, false).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        run
    }

    #[test]
    fn reads_a_run_from_its_result_line_and_ops_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.0015, "unit": "s"}, "peak_rss_mb": {"value": 29.9, "unit": "MiB"}}}"#;
        let run = fake_run(line, "kron-benchmark: untraced pass: ops_per_s 14488617.5", 0);
        assert!(run.checked.exit_ok);
        assert_eq!((run.checked.attempted, run.checked.failed), (12, 0));
        let want = [("setup_s", 0.0015), ("peak_rss_mb", 29.9), (OPS, 14488617.5)];
        assert_eq!(run.metrics, want.map(|(n, v)| (n.to_string(), v)));

        let failed =
            fake_run(r#"{"correct": false, "attempted": 9, "failed": 2, "metrics": {}}"#, "", 1);
        assert!(!failed.checked.exit_ok);
        assert_eq!((failed.checked.attempted, failed.checked.failed), (9, 2));
        assert!(failed.metrics.is_empty());
    }
}
