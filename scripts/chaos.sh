#!/usr/bin/env bash
# Chaos conformance sweep for the distributed layer (EXPERIMENTS.md,
# DESIGN.md §7).
#
# Runs the seeded fault-injection matrix over 32 fixed seeds — every
# cell (seed × fault mix × ranks × scheme × batch size) must produce
# results bit-identical to the perfect-transport run; the batch-1 cells
# fill the exchange's credit window. Generation, BFS and triangle
# counting run on the same reliable layer, so the analytics cells see
# dropped messages too: every cell checks per-link payload conservation
# over all ranks² links, and each analytics matrix must have dropped and
# retransmitted messages in its drops_only and chaos cells. Then the
# owner property tests and the §I brute-force conformance sweep, which
# replays every ground-truth property under both transports.
#
# A failing cell prints its repro coordinates
# (seed=… mix=… scheme=… ranks=… batch=…); re-run with the same
# KRON_CHAOS_SEEDS to reproduce exactly — fault schedules are pure
# functions of the seed.
#
# Usage: scripts/chaos.sh [seed-count]   (default 32)

set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${1:-32}"

echo "== chaos matrix: ${SEEDS} seeds x {drops_only, dup_reorder_only, chaos} x ranks {1,2,4,8} x {OneD, TwoD} x batch {1024, 1} =="
KRON_CHAOS_SEEDS="${SEEDS}" cargo test -q --offline -p kron-dist --test chaos

echo "== owner map properties (total / deterministic / in-range / balance bound) =="
cargo test -q --offline -p kron-dist --test owner_props

echo "== §I ground-truth brute force under perfect + chaos transports =="
cargo test -q --offline --test paper_claims intro_table_brute_force

echo "chaos sweep passed (${SEEDS} seeds)"
