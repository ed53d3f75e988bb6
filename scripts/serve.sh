#!/usr/bin/env bash
# kron-serve smoke: real processes, real sockets, graceful shutdown.
#
# Starts a `kron-serve` process on an ephemeral port, parses the port
# from its banner line, drives it with `kron-load` over loopback
# (pipelined mixed traffic, every response validated bit-for-bit against
# the in-process oracles), sends the Shutdown frame, and requires the
# server process to exit 0 after its graceful drain. Then runs the
# serve crate's test suite including the steady-state zero-allocation
# proof and the reply-memory bound (`--features measure-alloc`).
#
# Usage: scripts/serve.sh [--scale S]

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=6
for ((i = 1; i <= $#; i++)); do
  [[ "${!i}" == "--scale" ]] && j=$((i + 1)) && SCALE="${!j}"
done

cargo build --release --offline -p kron-serve

echo "== serve: starting kron-serve (scale ${SCALE}, ephemeral port) =="
BANNER="$(mktemp /tmp/kron_serve_banner_XXXX)"
trap 'rm -f "${BANNER}"; kill "${SERVER_PID}" 2>/dev/null || true' EXIT
./target/release/kron-serve --scale "${SCALE}" --port 0 > "${BANNER}" &
SERVER_PID=$!

# The banner line is printed (and flushed) once the listener is bound.
for _ in $(seq 1 100); do
  grep -q "listening on" "${BANNER}" 2>/dev/null && break
  kill -0 "${SERVER_PID}" 2>/dev/null || { echo "serve.sh: server died before binding" >&2; exit 1; }
  sleep 0.1
done
ADDR="$(awk '/listening on/ { print $4 }' "${BANNER}")"
[[ -n "${ADDR}" ]] || { echo "serve.sh: could not parse server address" >&2; exit 1; }
echo "serve.sh: server pid ${SERVER_PID} on ${ADDR}"

echo "== serve: seeded load + bit-exact validation + shutdown frame =="
./target/release/kron-load --addr "${ADDR}" --scale "${SCALE}" \
  --clients 2 --frames 300 --window 4 --batch 8 --shutdown

# Graceful drain: the server process must now exit cleanly on its own.
for _ in $(seq 1 100); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  echo "serve.sh: FATAL: server still running after shutdown frame" >&2
  exit 1
fi
wait "${SERVER_PID}"
echo "serve.sh: server exited 0 after graceful drain"

echo "== serve: crate tests (protocol proptests, loopback e2e, shutdown) =="
cargo test -q --offline -p kron-serve

echo "== serve: steady-state zero-allocation proof (measure-alloc) =="
cargo test -q --offline -p kron-serve --features measure-alloc --test steady_state_alloc

echo "== serve: every row served within the largest reply's memory (measure-alloc) =="
cargo test -q --offline -p kron-serve --features measure-alloc --test reply_memory

echo "serve.sh: all serve checks passed"
