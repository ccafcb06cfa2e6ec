#!/usr/bin/env bash
# Regression gate for what `benchmark/run.sh` (the ledger) does not cover:
# re-runs the observability overhead ablation and fails if counters-level
# observability costs more than ${OBS_OVERHEAD_MAX:-3}% vs observe-off
# (results/BENCH_obs.json). Throughput — single-thread, sharded, and the
# working-set peak — is the ledger's `detect`, `sharded` and `freshkeys`
# workloads.
#
# The gate is absolute, not relative to a reference: counters-level
# observability has a fixed budget (<= OBS_OVERHEAD_MAX % of observe-off
# throughput on the canonical workload), because the arena update is meant
# to stay on in production. Full level is recorded in the JSON but not
# gated — it is a diagnosis mode.
#
# On pass, the refreshed JSON is kept (the reference tracks the current
# tree); on fail, the prior reference is restored.
set -euo pipefail
cd "$(dirname "$0")/.."

obs_reference=results/BENCH_obs.json
obs_max="${OBS_OVERHEAD_MAX:-3}"

obs_saved=$(mktemp)
[[ -f "$obs_reference" ]] && cp "$obs_reference" "$obs_saved"
trap 'rm -f "$obs_saved"' EXIT

# First match only: the JSON leads with the gated counters figure.
parse_obs_overhead() {
    awk -F': ' '/"counters_overhead_pct"/ { gsub(/,/, "", $2); print $2; exit }' "$1"
}

# The gated figure is a ~2% paired-ratio median, so the estimator needs
# many pairs to hold still.
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
