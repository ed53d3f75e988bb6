#!/usr/bin/env bash
# Observability smoke check (DESIGN.md §9, §14).
#
# Proves the kron-obs layer end to end without trusting any single
# component: runs the obs unit suite (span tree, sharded metrics merge,
# allocation watermark, event timeline, flight-recorder ring, JSON lint)
# in both allocator configurations, runs the obs-on/obs-off determinism
# suite (results must be bit-identical with probes enabled), then makes
# one short traced run of the pipeline benchmark (serve-scalar-s8) and
# re-lints the emitted report — and its Chrome trace_event sidecar —
# from the outside: the files must exist, parse, and carry their result
# and trace events.
#
# Finally the live-scrape stage (PR 10): a real kron-serve process is
# started in the background, kron-load drives it over TCP with the admin
# sidecar polling `Stats` mid-run, and the server's exact served_*
# counters are cross-checked bit for bit against the client tallies.
# The saved final Stats JSON is re-parsed with the system python when
# available.
#
# Usage: scripts/obs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== kron-obs unit suite (default allocator) =="
cargo test -q --offline -p kron-obs

echo "== kron-obs unit suite (counting allocator) =="
cargo test -q --offline -p kron-obs --features measure-alloc

echo "== obs-on/obs-off determinism + conservation invariants =="
cargo test -q --offline --test obs_determinism

echo "== traced benchmark run -> emitted report + trace must lint =="
OUT="$(mktemp -d -t kron_obs_smoke_XXXXXX)"
SCRATCH="$(mktemp -d -t kron_obs_scratch_XXXXXX)"
SCRAPE_OUT=""
SERVE_LOG=""
SERVE_PID=""
cleanup() {
    [[ -n "${SERVE_PID}" ]] && kill "${SERVE_PID}" 2>/dev/null || true
    rm -rf "${OUT}" "${SCRATCH}"
    rm -f "${SCRAPE_OUT}" "${SERVE_LOG}"
}
trap cleanup EXIT
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload serve-scalar-s8 --seed 1 --seconds 2 --trace 1 \
    --out "${OUT}" --dir "${SCRATCH}" >/dev/null
REPORT="${OUT}/serve-scalar-s8.json"
TRACE="${OUT}/serve-scalar-s8.trace.json"

test -s "${REPORT}" || { echo "obs.sh: ${REPORT} is missing or empty" >&2; exit 1; }
grep -q '"result": ' "${REPORT}" || {
    echo "obs.sh: ${REPORT} lacks a result" >&2; exit 1;
}
test -s "${TRACE}" || {
    echo "obs.sh: ${TRACE} (chrome trace sidecar) is missing" >&2; exit 1;
}
grep -q '"traceEvents"' "${TRACE}" || {
    echo "obs.sh: trace sidecar lacks a traceEvents array" >&2; exit 1;
}
# The benchmark lints its own output before exiting; cross-check with the
# system python as an independent JSON parser when one is available.
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${REPORT}"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${TRACE}"
    echo "obs.sh: report + trace parse under python3 json"
fi

echo "== live scrape: kron-serve under kron-load with admin sidecar =="
cargo build --release --offline -p kron-serve
SCRAPE_OUT="$(mktemp -t kron_obs_scrape_XXXXXX.json)"
SERVE_LOG="$(mktemp -t kron_obs_serve_XXXXXX.log)"
# Small scale keeps the engine build fast; --quiet suppresses the
# shutdown report so the log holds only the banner line scripts parse.
./target/release/kron-serve --scale 5 --workers 2 --quiet > "${SERVE_LOG}" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^kron-serve: listening on \([0-9.:]*\) .*/\1/p' "${SERVE_LOG}")"
    [[ -n "${ADDR}" ]] && break
    kill -0 "${SERVE_PID}" 2>/dev/null || {
        echo "obs.sh: kron-serve died before binding" >&2; cat "${SERVE_LOG}" >&2; exit 1;
    }
    sleep 0.1
done
test -n "${ADDR}" || { echo "obs.sh: no listening banner from kron-serve" >&2; exit 1; }
echo "obs.sh: kron-serve up on ${ADDR}"

# The load run fails (exit 1) on any mismatched response OR any
# server-vs-client scrape count mismatch — the bit-for-bit cross-check.
./target/release/kron-load --addr "${ADDR}" --scale 5 \
    --clients 2 --frames 400 --scrape-interval 50 \
    --scrape-out "${SCRAPE_OUT}" --shutdown
wait "${SERVE_PID}"
SERVE_PID=""

test -s "${SCRAPE_OUT}" || { echo "obs.sh: no final Stats scrape saved" >&2; exit 1; }
grep -q '"admin_schema": 3' "${SCRAPE_OUT}" || {
    echo "obs.sh: scrape output lacks the admin_schema stamp" >&2; exit 1;
}
# Stats carries exact counts and ring-derived quantiles only; a registry
# snapshot would be a second, lagging count of the same facts.
if grep -q '"registry"' "${SCRAPE_OUT}"; then
    echo "obs.sh: final Stats scrape carries a registry snapshot" >&2; exit 1;
fi
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${SCRAPE_OUT}"
    echo "obs.sh: final Stats scrape parses under python3 json"
fi

echo "obs smoke check passed"
