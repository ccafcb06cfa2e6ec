#!/usr/bin/env bash
# Builds the `ledger` binary and runs the benchmark. From anywhere:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--runs R] [--out SET.jsonl]
#       every workload, end to end and traced, every metric by name with its
#       unit; non-zero exit if an output check fails. --runs R repeats the
#       end-to-end runs on seeds N..N+R-1; --out collects the results as a
#       set for `compare`.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is its result object.
#   benchmark/run.sh --selfcheck [--seed N] [--smoke]
#   benchmark/run.sh compare A.jsonl B.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

target="${CARGO_TARGET_DIR:-$here/target}"
# Quiet on success: in single-run mode stdout must end with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
ledger="$target/release/ledger"

for arg in "$@"; do
    case "$arg" in
    --workload | --selfcheck | compare) exec "$ledger" "$@" ;;
    esac
done

seed=42
seconds=10
runs=1
out=""
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
append=()
if [ -n "$out" ]; then
    append=(--append "$out")
fi

status=0
for workload in canonical detect rules500 freshkeys sharded; do
    for ((i = 0; i < runs; i++)); do
        "$ledger" --workload "$workload" --seed $((seed + i)) --seconds "$seconds" \
            --trace 0 "${smoke[@]}" "${append[@]}" | grep -v '^{' || status=1
    done
    "$ledger" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 1 "${smoke[@]}" "${append[@]}" | grep -v '^{' || status=1
done
if [ "$status" -ne 0 ]; then
    echo "run.sh: an output check FAILED (see the FAILED lines above)" >&2
fi
exit "$status"
