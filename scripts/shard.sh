#!/usr/bin/env bash
# Out-of-core shard tier smoke: generate → spill → external build → verify.
#
# Makes one short untraced build-s8 run of the pipeline benchmark with
# its scratch directory under mktemp: 2-rank 2D generation spilled to
# sorted KRSH v2 runs, the single-pass external KRSC build, and row
# reads, every row checked against digests of the synthesized product.
# Afterwards the scratch directory must be empty: a shard file the
# pipeline forgot to clean up (or an unfinished run left behind by an
# early exit) fails the stage.
#
# Then runs the shard-format test batteries: the kron-graph unit +
# property suites (roundtrip, truncation/bit-flip/forged-count corpus,
# plus the v2 varint/delta codec corpus in shard_v2_props) and the
# cross-crate conformance suite in kron-dist (from_shards, one-pass vs
# two-pass KRSC bytes, the spill's size against the fixed-width layout)
# — and both spill paths' counting-allocator memory bounds: the direct
# spill + external build (external_alloc) and the exchanged spill under
# the credit window (exchange_alloc).
#
# Usage: scripts/shard.sh

set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d /tmp/kron_shard_smoke_XXXX)"
trap 'rm -rf "${SCRATCH}"' EXIT

echo "== shard: verified build-s8 run (scratch ${SCRATCH}) =="
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
  --workload build-s8 --seed 1 --seconds 2 --trace 0 --dir "${SCRATCH}" >/dev/null

# The benchmark also removes the scratch root once it is empty.
LEFTOVER=""
if [[ -d "${SCRATCH}" ]]; then
  LEFTOVER="$(find "${SCRATCH}" -mindepth 1 | head -5)"
fi
if [[ -n "${LEFTOVER}" ]]; then
  echo "shard.sh: FATAL: build run left files in its scratch dir:" >&2
  echo "${LEFTOVER}" >&2
  exit 1
fi
echo "shard.sh: scratch dir clean after build run"

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
