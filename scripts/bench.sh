#!/usr/bin/env bash
# Instrumented kernel benchmark + enforced regression gate
# (EXPERIMENTS.md, DESIGN.md §8–10).
#
# Builds the release bench binary (counting allocator on by default via
# the `measure-alloc` feature) and runs the extended smoke benchmark:
# generation + CSR build via direct Kronecker synthesis AND via the
# legacy arc-materialization path, the two-tier (marking / word-parallel
# bitmap) triangle kernel, and the class-collapsed closeness batch over
# the oracle's deduplicated tables. Timings are interleaved median-of-5
# per configuration (stripped / instrumented / max-threads); outputs are
# asserted identical across paths, thread counts, kernel tiers, and
# obs-on/obs-off before timings are trusted.
#
# Writes BENCH_PR6.json (stamped with schema_version and lint-checked on
# emission). When the baseline (default BENCH_PR5.json) is present, the
# per-phase comparison is embedded in the report and **gated**: any
# stripped phase more than GATE_PCT (default 15) percent slower than the
# baseline fails the run with a nonzero exit. Before exiting, the gate
# itself is self-tested: a fabricated baseline with impossibly fast
# timings must make the comparator exit nonzero, so a silently broken
# gate cannot pass.
#
# After the kernel phases, the serve tier runs: `kron-load --self`
# writes the three query-server phases to BENCH_PR7.json (median-of-5,
# every response validated bit-for-bit against the oracles), gated with
# the same comparator against the previous BENCH_PR7.json when present,
# with its own injected-regression self-test.
#
# Then the shard tier: `shard_bench` writes the 2D generation, v2 shard
# spill, loser-tree merge, and single-/two-pass external build phases to
# BENCH_PR9.json (every phase verified bit-identical to the sequential
# build first, v2 spill size checked against the v1 layout, one-pass
# output byte-compared to two-pass), gated the same way against the
# previous BENCH_PR9.json, with its own injected-regression self-test.
#
# Finally the observability tier: `obs_bench` times the flight recorder
# itself (record on vs off on a ~1 µs synthetic request, ring drain,
# shared quantile derivation) into BENCH_PR10.json. Its built-in gate
# fails the run if always-on flight recording adds more than GATE_PCT
# percent to the request loop; a previous BENCH_PR10.json additionally
# gates absolute phase times, with its own injected-regression
# self-test.
#
# Usage: scripts/bench.sh [--scale S] [--out PATH] [--baseline PATH]
#                         [--gate-pct P]

set -euo pipefail
cd "$(dirname "$0")/.."

GATE_PCT=15

cargo build --release --offline -p kron-bench

echo "== bench_smoke: interleaved median-of-5, gated at ${GATE_PCT}% =="
./target/release/bench_smoke --gate-pct "${GATE_PCT}" "$@"

OUT=BENCH_PR6.json
for ((i = 1; i <= $#; i++)); do
  [[ "${!i}" == "--out" ]] && j=$((i + 1)) && OUT="${!j}"
done

if [[ -f "${OUT}" ]]; then
  echo "== bench gate self-test: injected regression must fail =="
  FAKE="$(mktemp /tmp/bench_gate_selftest_XXXX.json)"
  trap 'rm -f "${FAKE}"' EXIT
  # A fabricated baseline in which every phase ran in 1 µs: against any
  # real report this is a >15% regression everywhere, so the comparator
  # MUST exit nonzero. If it passes, the gate is broken — fail loudly.
  cat > "${FAKE}" <<EOF
{
  "schema_version": 2,
  "phases": [
    {
      "name": "generate_and_csr_build",
      "secs_threads_1": 0.000001
    },
    {
      "name": "triangle_vector_direct",
      "secs_threads_1": 0.000001
    }
  ]
}
EOF
  if ./target/release/bench_smoke --compare "${OUT}" --baseline "${FAKE}" \
      --gate-pct "${GATE_PCT}" >/dev/null 2>&1; then
    echo "bench.sh: FATAL: gate self-test passed an injected regression" >&2
    exit 1
  fi
  echo "bench.sh: gate self-test OK (injected regression was rejected)"
fi

# ---------------------------------------------------------------------------
# Serve phases: kron-load --self hosts the query server in process and
# times the three standard serving shapes (closed-loop mixed, pipelined
# mixed, zipfian neighbors-hot) into BENCH_PR7.json, median-of-5 per
# phase with every response validated bit-for-bit. When a previous
# BENCH_PR7.json exists it becomes the baseline and the same >15%
# comparator gates the serve phases too — with its own self-test.
# ---------------------------------------------------------------------------

SERVE_OUT=BENCH_PR7.json
SERVE_BASE=""
SERVE_FAKE=""
trap 'rm -f "${FAKE:-}" "${SERVE_BASE}" "${SERVE_FAKE}"' EXIT

cargo build --release --offline -p kron-serve

if [[ -f "${SERVE_OUT}" ]]; then
  SERVE_BASE="$(mktemp /tmp/bench_serve_base_XXXX.json)"
  cp "${SERVE_OUT}" "${SERVE_BASE}"
fi

echo "== kron-load --self: serve phases, median-of-5, bit-exact validation =="
./target/release/kron-load --self --out "${SERVE_OUT}"

if [[ -n "${SERVE_BASE}" ]]; then
  echo "== serve gate: ${SERVE_OUT} vs previous baseline at ${GATE_PCT}% =="
  ./target/release/bench_smoke --compare "${SERVE_OUT}" --baseline "${SERVE_BASE}" \
    --gate-pct "${GATE_PCT}"
fi

echo "== serve gate self-test: injected regression must fail =="
SERVE_FAKE="$(mktemp /tmp/bench_serve_selftest_XXXX.json)"
cat > "${SERVE_FAKE}" <<EOF
{
  "schema_version": 2,
  "phases": [
    {
      "name": "serve_closed_loop_mixed",
      "secs_threads_1": 0.000001
    },
    {
      "name": "serve_pipelined_mixed",
      "secs_threads_1": 0.000001
    }
  ]
}
EOF
if ./target/release/bench_smoke --compare "${SERVE_OUT}" --baseline "${SERVE_FAKE}" \
    --gate-pct "${GATE_PCT}" >/dev/null 2>&1; then
  echo "bench.sh: FATAL: serve gate self-test passed an injected regression" >&2
  exit 1
fi
echo "bench.sh: serve gate self-test OK (injected regression was rejected)"

# ---------------------------------------------------------------------------
# Shard phases: shard_bench times 2D rank-grid generation, direct v2
# shard spill, the loser-tree k-way merge, and the single-pass (plus
# reference two-pass) external CSR build into BENCH_PR9.json
# (median-of-5 per phase, all outputs verified bit-identical to the
# sequential materialization before any timing, v2 disk footprint
# asserted at <= 1/4 of the exact fixed-width v1 size of the same runs).
# A previous BENCH_PR9.json becomes the baseline for the same >15%
# comparator, and the gate gets its own injected-regression self-test.
# ---------------------------------------------------------------------------

SHARD_OUT=BENCH_PR9.json
SHARD_BASE=""
SHARD_FAKE=""
trap 'rm -f "${FAKE:-}" "${SERVE_BASE}" "${SERVE_FAKE}" "${SHARD_BASE}" "${SHARD_FAKE}"' EXIT

if [[ -f "${SHARD_OUT}" ]]; then
  SHARD_BASE="$(mktemp /tmp/bench_shard_base_XXXX.json)"
  cp "${SHARD_OUT}" "${SHARD_BASE}"
fi

echo "== shard_bench: spill/merge phases, median-of-5, bit-exact verification =="
./target/release/shard_bench --out "${SHARD_OUT}"

if [[ -n "${SHARD_BASE}" ]]; then
  echo "== shard gate: ${SHARD_OUT} vs previous baseline at ${GATE_PCT}% =="
  ./target/release/bench_smoke --compare "${SHARD_OUT}" --baseline "${SHARD_BASE}" \
    --gate-pct "${GATE_PCT}"
fi

echo "== shard gate self-test: injected regression must fail =="
SHARD_FAKE="$(mktemp /tmp/bench_shard_selftest_XXXX.json)"
cat > "${SHARD_FAKE}" <<EOF
{
  "schema_version": 2,
  "phases": [
    {
      "name": "shard_merge_v2",
      "secs_threads_1": 0.000001
    },
    {
      "name": "shard_external_onepass",
      "secs_threads_1": 0.000001
    }
  ]
}
EOF
if ./target/release/bench_smoke --compare "${SHARD_OUT}" --baseline "${SHARD_FAKE}" \
    --gate-pct "${GATE_PCT}" >/dev/null 2>&1; then
  echo "bench.sh: FATAL: shard gate self-test passed an injected regression" >&2
  exit 1
fi
echo "bench.sh: shard gate self-test OK (injected regression was rejected)"

# ---------------------------------------------------------------------------
# Observability phases: obs_bench times the flight recorder on/off delta
# on a synthetic ~1 µs request (interleaved median-of-5), the ring drain
# the admin opcodes pay, and the shared log2-bucket quantile derivation,
# into BENCH_PR10.json. The binary's own gate enforces the "flight
# recorder stays within the bench gate" acceptance line; a previous
# BENCH_PR10.json becomes the baseline for the same >15% comparator,
# with its own injected-regression self-test.
# ---------------------------------------------------------------------------

OBS_OUT=BENCH_PR10.json
OBS_BASE=""
OBS_FAKE=""
trap 'rm -f "${FAKE:-}" "${SERVE_BASE}" "${SERVE_FAKE}" "${SHARD_BASE}" "${SHARD_FAKE}" "${OBS_BASE}" "${OBS_FAKE}"' EXIT

if [[ -f "${OBS_OUT}" ]]; then
  OBS_BASE="$(mktemp /tmp/bench_obs_base_XXXX.json)"
  cp "${OBS_OUT}" "${OBS_BASE}"
fi

echo "== obs_bench: flight recorder overhead, gated at ${GATE_PCT}% =="
./target/release/obs_bench --out "${OBS_OUT}" --gate-pct "${GATE_PCT}"

if [[ -n "${OBS_BASE}" ]]; then
  echo "== obs gate: ${OBS_OUT} vs previous baseline at ${GATE_PCT}% =="
  ./target/release/bench_smoke --compare "${OBS_OUT}" --baseline "${OBS_BASE}" \
    --gate-pct "${GATE_PCT}"
fi

echo "== obs gate self-test: injected regression must fail =="
OBS_FAKE="$(mktemp /tmp/bench_obs_selftest_XXXX.json)"
cat > "${OBS_FAKE}" <<EOF
{
  "schema_version": 2,
  "phases": [
    {
      "name": "flight_record_on",
      "secs_threads_1": 0.000000001
    },
    {
      "name": "quantiles_derive",
      "secs_threads_1": 0.000000001
    }
  ]
}
EOF
if ./target/release/bench_smoke --compare "${OBS_OUT}" --baseline "${OBS_FAKE}" \
    --gate-pct "${GATE_PCT}" >/dev/null 2>&1; then
  echo "bench.sh: FATAL: obs gate self-test passed an injected regression" >&2
  exit 1
fi
echo "bench.sh: obs gate self-test OK (injected regression was rejected)"
