#!/usr/bin/env bash
# Regression gates for what `benchmark/run.sh` (the ledger) does not cover:
# re-runs the shard sweep and the observability overhead ablation, and
# fails if the best sweep events/s fell more than 15% below the committed
# reference in results/BENCH_shard.json, or if counters-level observability
# costs more than ${OBS_OVERHEAD_MAX:-3}% vs observe-off
# (results/BENCH_obs.json). Single-thread detection throughput and the
# working-set peak are the ledger's `detect` and `freshkeys` workloads.
# Pass a different tolerance (percent) as $1.
#
# The shard gate compares best-vs-best across the sweep: the fastest
# (shards × residual workers) configuration in the fresh run must stay within
# tolerance of the fastest configuration in the reference, so a topology whose
# optimum merely moves (e.g. 2×1 -> 2×2) does not fail the gate.
#
# On pass, the refreshed JSON is kept (the reference tracks the current
# tree); on fail, the prior reference is restored so reruns still compare
# against the good numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

tolerance="${1:-15}"

# --- shard-pipeline gate -----------------------------------------------------

shard_reference=results/BENCH_shard.json

if [[ ! -f "$shard_reference" ]]; then
    echo "bench_gate.sh: no committed $shard_reference; run fig9_shard first" >&2
    exit 1
fi

# Best events/s over the sweep rows (rows carry "shards"; the baseline
# object does not, so it is excluded).
parse_best_shard_eps() {
    awk -F'"events_per_sec": ' '/"shards":/ {
        split($2, a, ","); v = a[1] + 0
        if (v > best) best = v
    } END { if (best > 0) printf "%.1f\n", best }' "$1"
}

shard_ref_eps=$(parse_best_shard_eps "$shard_reference")
if [[ -z "$shard_ref_eps" ]]; then
    echo "bench_gate.sh: could not parse sweep events_per_sec from $shard_reference" >&2
    exit 1
fi

shard_saved=$(mktemp)
cp "$shard_reference" "$shard_saved"
trap 'rm -f "$shard_saved"' EXIT

echo "== bench gate: shard pipeline (best reference ${shard_ref_eps} ev/s, -${tolerance}% floor) =="
cargo run -q --release -p rfid-bench --bin fig9_shard >/dev/null 2>&1

shard_new_eps=$(parse_best_shard_eps "$shard_reference")

if ! awk -v ref="$shard_ref_eps" -v new="$shard_new_eps" -v tol="$tolerance" 'BEGIN {
    floor = ref * (1 - tol / 100)
    printf "  reference: %.0f ev/s | measured: %.0f ev/s | floor: %.0f ev/s\n", ref, new, floor
    if (new < floor) {
        printf "bench_gate.sh: FAIL — shard-pipeline throughput regressed more than %s%%\n", tol
        exit 1
    }
    printf "bench_gate.sh: OK (%.1f%% of reference)\n", 100 * new / ref
}'; then
    cp "$shard_saved" "$shard_reference"
    exit 1
fi

# --- observability-overhead gate ---------------------------------------------

# Unlike the gate above, this one is absolute, not relative to a reference:
# counters-level observability has a fixed budget (<= OBS_OVERHEAD_MAX % of
# observe-off throughput on the canonical workload), because the arena update
# is meant to stay on in production. Full level is recorded in the JSON but
# not gated — it is a diagnosis mode.
obs_reference=results/BENCH_obs.json
obs_max="${OBS_OVERHEAD_MAX:-3}"

obs_saved=$(mktemp)
[[ -f "$obs_reference" ]] && cp "$obs_reference" "$obs_saved"
trap 'rm -f "$shard_saved" "$obs_saved"' EXIT

# First match only: the JSON leads with the gated counters figure.
parse_obs_overhead() {
    awk -F': ' '/"counters_overhead_pct"/ { gsub(/,/, "", $2); print $2; exit }' "$1"
}

# More reps than the throughput gates: the gated figure is a ~2% paired-
# ratio median, so the estimator needs more pairs to hold still than a
# min-of-N throughput floor does.
echo "== bench gate: observability overhead (counters <= ${obs_max}% budget) =="
cargo run -q --release -p rfid-bench --bin fig9_obs -- --reps 25 >/dev/null

obs_pct=$(parse_obs_overhead "$obs_reference")
if [[ -z "$obs_pct" ]]; then
    echo "bench_gate.sh: could not parse counters_overhead_pct from $obs_reference" >&2
    [[ -s "$obs_saved" ]] && cp "$obs_saved" "$obs_reference"
    exit 1
fi

if ! awk -v pct="$obs_pct" -v max="$obs_max" 'BEGIN {
    printf "  counters overhead: %.2f%% | budget: %.2f%%\n", pct, max
    if (pct > max) {
        printf "bench_gate.sh: FAIL — counters-level observability costs more than %s%%\n", max
        exit 1
    }
    printf "bench_gate.sh: OK (%.2f%% of the %.0f%% budget)\n", pct, max
}'; then
    [[ -s "$obs_saved" ]] && cp "$obs_saved" "$obs_reference"
    exit 1
fi
