#!/usr/bin/env bash
# Regenerates every table of EXPERIMENTS.md, sequentially (benchmarks must
# not compete for CPU). Writes each harness's output under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

out=results
mkdir -p "$out"

# Static gate first: never produce benchmark numbers from a tree that fails
# fmt/clippy/tests.
scripts/check.sh

echo "== building (release) =="
cargo build --release -p rfid-bench

run() {
    local name="$1"
    echo "== $name =="
    cargo run -q --release -p rfid-bench --bin "$name" 2>/dev/null | tee "$out/$name.txt"
}

run fig9_events        # Fig. 9 series 1: time vs. events
run fig9_rules         # Fig. 9 series 2: time vs. rules
run fig4_demo          # §4.1 correctness story
run baseline_compare   # Ablation A3: RCEDA vs type-level ECA
run context_compare    # Ablation A4: parameter contexts
run action_cost        # §5 methodology: detection vs detection+actions
run fig9_shard         # shard sweep table: throughput vs. keyed shards × residual workers

# Counters-level observability overhead gate (throughput is the ledger's: benchmark/run.sh).
scripts/bench_gate.sh

echo
echo "All tables written to $out/."
