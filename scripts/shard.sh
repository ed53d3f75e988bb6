#!/usr/bin/env bash
# Out-of-core shard tier smoke: generate → spill → external build → verify.
#
# Runs `shard_bench --smoke` against a scratch directory under mktemp:
# one fully verified pass of 2D rank-grid generation, direct per-rank
# spill into sorted KRSH v2 runs (delta varints; a version-1 file is
# rejected), `from_shards` over them, and the single-pass external KRSC
# build byte-compared against the two-pass reference — every output
# bit-compared against the sequential materialization in-process. Afterwards the scratch directory must be
# empty: a shard file the pipeline forgot to clean up (or an unfinished
# run left behind by an early exit) fails the stage.
#
# Then runs the shard-format test batteries: the kron-graph unit +
# property suites (roundtrip, truncation/bit-flip/forged-count corpus,
# plus the v2 varint/delta codec corpus in shard_v2_props) and the
# cross-crate conformance suite in kron-dist — and both spill paths'
# counting-allocator memory bounds: the direct spill + external build
# (external_alloc) and the exchanged spill under the credit window
# (exchange_alloc).
#
# Usage: scripts/shard.sh [--scale S] [--ranks R]

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p kron-bench

SCRATCH="$(mktemp -d /tmp/kron_shard_smoke_XXXX)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "== shard: verified smoke pass (scratch ${SCRATCH}) =="
./target/release/shard_bench --smoke --dir "${SCRATCH}" "$@"

LEFTOVER="$(find "${SCRATCH}" -mindepth 1 | head -5)"
if [[ -n "${LEFTOVER}" ]]; then
  echo "shard.sh: FATAL: smoke pass left files in its scratch dir:" >&2
  echo "${LEFTOVER}" >&2
  exit 1
fi
echo "shard.sh: scratch dir clean after smoke pass"

echo "== shard: format unit + property suites (kron-graph) =="
cargo test -q --offline -p kron-graph shard
cargo test -q --offline -p kron-graph --test shard_props
cargo test -q --offline -p kron-graph --test shard_v2_props

echo "== shard: cross-crate conformance suite (kron-dist) =="
cargo test -q --offline -p kron-dist --test shard_conformance

echo "== shard: peak-heap bounds of both spill paths (kron-bench) =="
cargo test -q --offline -p kron-bench --test external_alloc
cargo test -q --offline -p kron-bench --test exchange_alloc

echo "shard.sh: all shard checks passed"
