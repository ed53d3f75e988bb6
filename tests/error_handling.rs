//! Error-path coverage: every error variant is constructible, displays a
//! useful message, and round-trips through `std::error::Error`.

use kronecker::core::{KronError, KroneckerPair, SelfLoopMode};
use kronecker::graph::generators::clique;
use kronecker::graph::{CsrGraph, EdgeList, GraphError};

#[test]
fn graph_error_messages() {
    let cases: Vec<(GraphError, &str)> = vec![
        (GraphError::VertexOutOfRange { vertex: 9, n: 4 }, "vertex 9 out of range"),
        (
            GraphError::NotUndirected { missing_reverse: (1, 2) },
            "arc (1,2) has no reverse",
        ),
        (GraphError::HasSelfLoop { vertex: 3 }, "self loop at vertex 3"),
        (
            GraphError::Parse { line: 7, message: "bad field".into() },
            "line 7",
        ),
        (
            GraphError::Io(std::io::Error::other("disk gone")),
            "io error",
        ),
        (GraphError::TooManyVertices { n: 1 << 33 }, "8589934592 vertices exceed the 2^32"),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{text:?} missing {needle:?}");
    }
    // Io wraps a source; others do not.
    use std::error::Error;
    assert!(GraphError::Io(std::io::Error::other("x")).source().is_some());
    assert!(GraphError::HasSelfLoop { vertex: 0 }.source().is_none());
}

#[test]
fn kron_error_messages() {
    let cases: Vec<(KronError, &str)> = vec![
        (
            KronError::FactorHasSelfLoop { factor: 'A', vertex: 2 },
            "factor A has a self loop at 2",
        ),
        (
            KronError::RequiresLoopFree { formula: "Thm. 1" },
            "Thm. 1 requires loop-free",
        ),
        (
            KronError::RequiresFullSelfLoops { formula: "Thm. 3" },
            "Thm. 3 requires full self loops",
        ),
        (KronError::RequiresUndirected { factor: 'B' }, "factor B must be undirected"),
        (KronError::VertexOutOfRange { vertex: 10, n: 4 }, "vertex 10 out of range"),
        (KronError::NotAnEdge { p: 1, q: 2 }, "(1,2) is not an edge"),
    ];
    for (err, needle) in cases {
        let text = err.to_string();
        assert!(text.contains(needle), "{text:?} missing {needle:?}");
    }
}

#[test]
fn error_paths_fire_where_documented() {
    // FactorHasSelfLoop from the constructor.
    let looped = clique(3).with_full_self_loops();
    let err = KroneckerPair::new(looped.clone(), clique(3), SelfLoopMode::FullBoth)
        .unwrap_err();
    assert!(matches!(err, KronError::FactorHasSelfLoop { factor: 'A', vertex: 0 }));

    // RequiresFullSelfLoops from the distance oracle.
    let plain = KroneckerPair::as_is(clique(3), clique(3)).unwrap();
    let err = match kronecker::core::distance::DistanceOracle::new(&plain) {
        Err(e) => e,
        Ok(_) => panic!("expected RequiresFullSelfLoops"),
    };
    assert!(matches!(err, KronError::RequiresFullSelfLoops { .. }));

    // RequiresUndirected from the relaxed distance oracle.
    let directed = CsrGraph::from_arcs(2, vec![(0, 1)]).unwrap();
    let pair =
        KroneckerPair::as_is(clique(3).with_full_self_loops(), directed).unwrap();
    let err = match kronecker::core::distance::DistanceOracle::new_relaxed(&pair) {
        Err(e) => e,
        Ok(_) => panic!("expected RequiresUndirected"),
    };
    assert!(matches!(err, KronError::RequiresUndirected { factor: 'B' }));

    // GraphError from edge-list construction.
    let err = EdgeList::from_arcs(2, vec![(0, 5)]).unwrap_err();
    assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 5, n: 2 }));
}

#[test]
fn cli_rejects_factors_beyond_2_pow_32_vertices() {
    // Two arcs, but a declared n whose offset array alone would need
    // 80 GB: `kron stats` must refuse it with an error line and exit
    // code 1, never abort on the allocation.
    let dir = std::env::temp_dir().join(format!("kron_cli_limit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let text = dir.join("wide.txt");
    std::fs::write(&text, "# vertices: 10000000000\n0 1\n1 0\n").unwrap();
    let bin = dir.join("wide.bin");
    let list = EdgeList::from_arcs(10_000_000_000, vec![(0, 1), (1, 0)]).unwrap();
    kronecker::graph::io::write_binary_file(&bin, &list).unwrap();
    for path in [&text, &bin] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_kron"))
            .arg("stats")
            .arg(path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", path.display());
        assert!(stderr.starts_with("error: reading "), "{stderr}");
        assert!(stderr.contains("10000000000 vertices exceed the 2^32"), "{stderr}");
    }
    // The limit itself is inclusive: 2^32 vertices pass the check.
    assert!(CsrGraph::check_vertex_count(CsrGraph::MAX_VERTICES).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_rejects_zero_ranks() {
    // `--ranks 0` is a bad argument like any other: an error line and
    // exit code 1, never the generator's panic.
    let dir = std::env::temp_dir().join(format!("kron_cli_ranks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let factor = dir.join("k2.txt");
    std::fs::write(&factor, "0 1\n1 0\n").unwrap();
    for command in ["generate", "validate"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_kron"))
            .args([command, factor.to_str().unwrap(), factor.to_str().unwrap()])
            .args(["--ranks", "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.starts_with("error: invalid value for --ranks: \"0\""), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_rejects_unknown_flags() {
    // A misspelled flag is an error naming the flag and the command, not
    // a run on the default it was meant to override.
    let dir = std::env::temp_dir().join(format!("kron_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let factor = dir.join("k2.txt");
    std::fs::write(&factor, "0 1\n1 0\n").unwrap();
    let factor = factor.to_str().unwrap();
    let cases: [(&[&str], &str); 3] = [
        (&["validate", factor, factor, "--rnaks", "0"], "--rnaks for kron validate"),
        (&["generate", factor, factor, "--count-only", "--sheme", "2d"], "--sheme for kron generate"),
        (&["stats", factor, "--ranks", "2"], "--ranks for kron stats"),
    ];
    for (args, named) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_kron")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with(&format!("error: unknown flag {named}\n")), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_help_after_a_command_prints_usage() {
    // `--help` or `-h` after any command prints the usage and succeeds:
    // it is neither a flag that needs a value nor a positional argument.
    let commands = ["generate", "ground-truth", "stats", "dataset", "spectrum", "power", "validate"];
    for command in commands {
        for help in ["--help", "-h"] {
            for args in [vec![command, help], vec![command, "a.txt", help, "--ranks", "2"]] {
                let out = std::process::Command::new(env!("CARGO_BIN_EXE_kron"))
                    .args(&args)
                    .output()
                    .unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
                assert!(stdout.starts_with("usage:\n"), "{args:?}: {stdout}");
                assert!(stderr.is_empty(), "{args:?}: {stderr}");
            }
        }
    }
}

#[test]
fn errors_are_boxable_and_send() {
    fn takes_boxed(_: Box<dyn std::error::Error + Send + Sync>) {}
    takes_boxed(Box::new(KronError::NotAnEdge { p: 0, q: 1 }));
    takes_boxed(Box::new(GraphError::HasSelfLoop { vertex: 0 }));
}
