#!/usr/bin/env bash
# Repo-wide static gate: formatting, lints, and the whole test suite.
# Run before every push; scripts/reproduce.sh runs it first so benchmark
# numbers are never produced from a tree that fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== one compile site (rceda::Program) =="
# A rule set is merged, solved and lowered in crates/core/src/program.rs
# only: elsewhere under crates/*/src (graph.rs aside), code before a file's
# `#[cfg(test)]` module may not call the pipeline's stages; comments may.
stray=$(find crates/*/src -name '*.rs' ! -path crates/core/src/graph.rs \
    ! -path crates/core/src/program.rs -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /EventGraph::(new|without_merging)|\.add_event\(|Bounds::solve|Cost::solve|CompiledPlan::lower/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: compile the rule set through rceda::Program instead" >&2
    exit 1
fi

echo "== tests (every crate, every suite) =="
cargo test -q --workspace

echo "== rceda-lint (canonical rule programs) =="
# The Rule 1-5 program and the 512-rule containment workload must lint
# free of error-level findings; rceda-lint exits 1 on any E-code.
cargo run -q --release -p rceda-lint -- --sim default --sim paper-scale

echo "== rceda-lint cost (static hotspot report) =="
# The cost subcommand must rank the 512-rule paper-scale program; the JSON
# run exercises the machine-readable path and the schema stamp.
cargo run -q --release -p rceda-lint -- cost --sim paper-scale --top 5
cargo run -q --release -p rceda-lint -- cost --json --sim default >/dev/null

echo "== rceda-obs (telemetry snapshot + provenance trace) =="
# The observability layer must drive end to end on the Rule 1-5 program:
# a counters-level snapshot exports, and the flight recorder replays at
# least one firing's derivation chain (exit 1 if nothing was recorded).
cargo run -q --release -p rceda-obs -- snapshot --events 5000 --format jsonl >/dev/null
cargo run -q --release -p rceda-obs -- explain --events 5000 --last 1 >/dev/null

echo "check.sh: all gates passed"
