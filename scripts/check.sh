#!/usr/bin/env bash
# Repo gate: tier-1 build + tests, then the blocking static-analysis stage
# (clonos-lint + clippy disallow lists), then the chaos sweep.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite =="
cargo test -q

echo "== lint: clonos-lint + clippy (blocking) =="
lint_time_file=$(mktemp)
LINT_TIME_FILE="$lint_time_file" scripts/lint.sh
lint_ms=$(cat "$lint_time_file" 2>/dev/null || echo "")
rm -f "$lint_time_file"
if [[ -z "$lint_ms" ]]; then
  echo "ERROR: lint timing summary missing (expected a '... in N ms' stats line)" >&2
  exit 1
fi
if [[ "$lint_ms" -gt 2000 ]]; then
  echo "ERROR: clonos-lint analysis took ${lint_ms} ms (> 2000 ms budget) — the call-graph/lockgraph/causal passes regressed" >&2
  exit 1
fi
echo "== lint: analysis wall time ${lint_ms} ms (budget 2000 ms) =="

echo "== chaos: bounded seed sweep (25 seeds x 3 modes, release) =="
CHAOS_SEEDS=25 cargo test --release -q -p clonos-integration --test chaos_sweep

echo "== conformance: causal traces vs results/causal_spec.json (25 seeds x 4 FT modes, release) =="
CHAOS_SEEDS=25 cargo test --release -q -p clonos-integration --test causal_conformance

# Smoke stages (BENCH_SMOKE=1) write their JSON under target/bench-smoke/,
# never over the committed BENCH_*.json files.
echo "== bench: checkpoint smoke (full-vs-delta barrier encoding) =="
BENCH_SMOKE=1 cargo run --release -q -p clonos-bench --bin bench_checkpoint

echo "== bench: throughput smoke (sharded actor runtime vs sim scheduler) =="
BENCH_SMOKE=1 cargo run --release -q -p clonos-bench --bin bench_throughput

echo "== bench: barrier (aligned vs unaligned under backpressure, full horizon, >=5x p99 floor) =="
BENCH_SMOKE=1 cargo run --release -q -p clonos-bench --bin bench_barrier

echo "== bench: state smoke (tiered backend, O(dirty) shipped bytes) =="
BENCH_SMOKE=1 cargo run --release -q -p clonos-bench --bin bench_state

echo "== OK =="
