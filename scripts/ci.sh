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
#   5. shard:    scripts/shard.sh — out-of-core tier smoke: verified
#                generate → spill (KRSH v2) → single-pass
#                external-build pass with a scratch-dir-clean assertion,
#                plus the shard format, v2 codec, and conformance suites
#   6. bench:    scripts/bench.sh — instrumented benchmark with the >15%
#                stripped-phase regression gate and its self-test (kernel
#                phases in BENCH_PR6.json, serve phases in BENCH_PR7.json,
#                shard phases in BENCH_PR9.json, flight-recorder overhead
#                phases in BENCH_PR10.json)
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

echo "==== ci: bench + regression gate ===="
scripts/bench.sh

echo "==== ci: all stages passed ===="
