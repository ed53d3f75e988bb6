#!/usr/bin/env bash
# Single pre-PR entry point: chains every check the repo knows about.
#
#   1. tier-1:   cargo build --release --offline && cargo test -q --offline
#                (plus the full --workspace test pass, which the root
#                package's own test target does not cover, and the
#                pipeline benchmark's self-check: benchmark/ is a
#                workspace of its own, so --workspace never compiles it,
#                yet it links against the crates' public signatures)
#   2. chaos:    scripts/chaos.sh — fault-injected distributed conformance
#   3. obs:      scripts/obs.sh — observability determinism + allocator
#                configurations, Chrome-trace sidecar lint, and the live
#                scrape: a background kron-serve polled over the admin
#                opcodes mid-load with a bit-for-bit count cross-check
#   4. serve:    scripts/serve.sh — query-server smoke: process-level
#                loopback serving, bit-exact load validation, graceful
#                shutdown, steady-state zero-allocation proof
#   5. shard:    scripts/shard.sh — out-of-core tier smoke: a verified
#                build-s8 benchmark run with a scratch-dir-clean
#                assertion, plus the shard format, v2 codec, and
#                conformance suites
#   6. perf:     bench_compare HEAD — the one performance gate: the
#                working tree against HEAD in 10 interleaved pairs of
#                every BENCHMARK.json workload, failing on an end-to-end
#                median worse than its bound, a paired ops_per_s
#                regression, or a failed run (about 40 minutes)
#
# Any failing stage aborts the run with that stage's exit code. Run this
# before every PR; it is the enforced superset of the tier-1 contract in
# ROADMAP.md.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== ci: tier-1 build ===="
cargo build --release --offline

echo "==== ci: tier-1 tests ===="
cargo test -q --offline

echo "==== ci: workspace tests ===="
cargo test -q --offline --workspace

echo "==== ci: pipeline benchmark self-check ===="
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==== ci: chaos suite ===="
scripts/chaos.sh

echo "==== ci: observability suite ===="
scripts/obs.sh

echo "==== ci: serve smoke (query server + load harness) ===="
scripts/serve.sh

echo "==== ci: shard smoke (out-of-core tier) ===="
scripts/shard.sh

echo "==== ci: performance gate (working tree vs HEAD) ===="
cargo run --quiet --release --offline -p kron-bench --bin bench_compare -- HEAD

echo "==== ci: all stages passed ===="
