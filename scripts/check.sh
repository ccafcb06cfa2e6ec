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
    /EventGraph::new|\.add_event\(|Bounds::solve|CompiledPlan::lower/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: compile the rule set through rceda::Program instead" >&2
    exit 1
fi

echo "== one partition weighting, no static cost model =="
# shard::partition_rules weighs a merge group by the readers its leaves can
# match, read off the catalog. No catalog-only cost estimator beside it —
# no per-node CPU weights, no cost solve, no cost column in telemetry.
if grep -rnE 'cpu_weight|CostEstimate|Cost::solve|node_cost|fn cost\(' crates/*/src src examples; then
    echo "check.sh: a static cost model is back; weigh partitions by reader fan-out" >&2
    exit 1
fi

echo "== one executor, an engine-free oracle =="
# Production carries no second executor to compare itself with, and the
# reference interpreter the differential suites compare it to
# (crates/core/tests/support/) may not depend on the engine it checks.
if grep -rnE 'ExecMode|run_work_graph|struct Dispatch' crates/*/src; then
    echo "check.sh: a second executor is back under crates/*/src" >&2
    exit 1
fi
if [[ ! -f crates/core/tests/support/reference.rs ]] ||
    grep -rn 'rceda' crates/core/tests/support/; then
    echo "check.sh: the reference interpreter must exist and not name the engine" >&2
    exit 1
fi

echo "== one differential driver (crates/core/tests/differential) =="
# The suites that hold the engine to the reference run it through one
# driver: a Case, one run loop and one check of full instances. Under
# crates/core/tests the firing fingerprint is built in differential/mod.rs
# only, and no suite keeps a fixture of its own.
stray=$({
    ls crates/core/tests/differential/mod.rs >/dev/null
    grep -rnE 't_begin\(\), *[[:alnum:]_]+\.t_end\(\), *[[:alnum:]_]+\.observations\(\)' \
        crates/core/tests | grep -v '^crates/core/tests/differential/mod\.rs:'
    grep -rn 'OnceLock<Fixture>' crates/core/tests
} 2>&1 || true)
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: fingerprint, run and fixture go through crates/core/tests/differential/" >&2
    exit 1
fi

echo "== docs describe the system as it is (size caps) =="
# DESIGN.md and EXPERIMENTS.md say what holds now; history lives in
# CHANGES.md and git. Each stays under 35,000 bytes.
for doc in DESIGN.md EXPERIMENTS.md; do
    size=$(wc -c <"$doc")
    if ((size > 35000)); then
        echo "check.sh: $doc is $size B, over its 35,000 B cap" >&2
        exit 1
    fi
done

echo "== one engine configuration =="
# Common-subgraph merging and key-partitioned buffers are what the engine
# is, not settings: no switch for either, and EngineConfig holds exactly
# what a deployment sets (unbounded_cap, observe, flight_capacity).
if grep -rnE 'merge_subgraphs|partition_buffers|without_merging|merging_enabled' \
    crates/ src/ tests/ examples/; then
    echo "check.sh: an ablation switch is back" >&2
    exit 1
fi
fields=$(awk '/^pub struct EngineConfig/ { in_struct = 1; next }
    in_struct && /^}/ { exit }
    in_struct && /^[[:space:]]*pub [a-z_]+:/ { n++ }
    END { print n + 0 }' crates/core/src/engine.rs)
if [[ "$fields" != 3 ]]; then
    echo "check.sh: EngineConfig declares $fields fields, not 3" >&2
    exit 1
fi

echo "== one worker kind (partitions on a pool) =="
# The shard pipeline has one execution design: partitions — keyed or
# broadcast — that any pool thread runs. No thread-per-worker loop with its
# own channels beside it, no knob (ShardConfig keeps shards,
# residual_workers, batch_size, queue_depth, engine) and no environment
# switch selecting between designs.
if grep -nE 'fn worker_loop|recycle_rx|std::env' crates/core/src/shard.rs; then
    echo "check.sh: a second worker kind or an env switch is back in shard.rs" >&2
    exit 1
fi
fields=$(awk '/^pub struct ShardConfig/ { in_struct = 1; next }
    in_struct && /^}/ { exit }
    in_struct && /^[[:space:]]*pub [a-z_]+:/ { n++ }
    END { print n + 0 }' crates/core/src/shard.rs)
if [[ "$fields" != 5 ]]; then
    echo "check.sh: ShardConfig declares $fields fields, not 5" >&2
    exit 1
fi

echo "== one keyed slot table (state::SlotTable) =="
# Join buffers and negation histories are one table: a slot arena that holds
# each key once behind a key-less index (rfid_epc::hash::TagTable). No hash
# map keyed by `Key` beside it — its buckets would store every key a second
# time — and one find-or-insert, not one per kind of state.
if grep -rnE 'KeyMap|HashMap<Key' crates/core/src; then
    echo "check.sh: a hash map keyed by Key is back under crates/core/src" >&2
    exit 1
fi
slot_ofs=$(grep -rE 'fn slot_of' crates/core/src | wc -l)
if [[ "$slot_ofs" != 1 ]]; then
    echo "check.sh: $slot_ofs definitions of slot_of under crates/core/src, not 1" >&2
    exit 1
fi

echo "== one key extraction site (engine.rs KeyMemo::key) =="
# The graph interns every extraction list as a KeySpecId and the engine
# builds each (spec, arrival) key once, in its per-arrival memo. Outside
# key.rs, code before a file's `#[cfg(test)]` module may extract a key only
# inside engine.rs's `fn key`; comments may name the extractors.
stray=$(find crates/core/src -name '*.rs' ! -path crates/core/src/key.rs -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0; fn_name = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
    /extract_all\(|\.left_key\(|\.right_key\(/ {
        if (FILENAME != "crates/core/src/engine.rs" || fn_name != "key") {
            print FILENAME ":" FNR ": " $0
        }
    }')
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: extract keys through the engine's per-arrival memo (KeyMemo::key)" >&2
    exit 1
fi

echo "== one interval analysis (rceda::bounds) =="
# Windows, minimum durations, emission lags and retentions are computed in
# crates/core/src/bounds.rs only, in one bottom-up pass, and the sweep, the
# unbounded-join cap and the lints all read that solve: no pre-solver
# horizon or retention on graph nodes, no graph-wide lag pad, no fixpoint
# cutoff with its widening fallback, no lint-private duration recurrence.
if grep -rnE 'max_lag|MAX_ROUNDS|fn widened|fn min_durations' crates/core/src; then
    echo "check.sh: a second interval analysis is back under crates/core/src" >&2
    exit 1
fi
stray=$(awk '/^pub struct Node \{/ { in_struct = 1; next }
    in_struct && /^}/ { exit }
    in_struct && /^[[:space:]]*pub (horizon|retention):/ { print FILENAME ":" FNR ": " $0 }
    ' crates/core/src/graph.rs)
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: graph nodes carry a pre-solver time bound; read Program::bounds()" >&2
    exit 1
fi

echo "== one timeline (rceda timeline.rs) =="
# The clock, the sequence counter and every deadline — pseudo events and the
# sweep's prune deadlines — live in crates/core/src/timeline.rs: one
# min-queue, and no clock write anywhere else. No second heap beside it, no
# `clock.max(` or clock-field assignment outside it, no pseudo-event module.
stray=$({
    ls crates/core/src/pseudo.rs 2>/dev/null
    grep -rn 'BinaryHeap' crates/core/src --exclude=timeline.rs
    grep -rnE 'clock\.max\(|\.clock[[:space:]]*=[^=]' crates/core/src --exclude=timeline.rs
} || true)
heaps=$(grep -c 'BinaryHeap<' crates/core/src/timeline.rs 2>/dev/null || true)
if [[ -n "$stray" || "${heaps:-0}" -gt 1 ]]; then
    echo "$stray"
    echo "check.sh: time and deadlines go through one queue in crates/core/src/timeline.rs" >&2
    exit 1
fi

echo "== one firing path (rfid_rules::prepared) =="
# A firing is bound, tested and executed by crates/rules/src/prepared.rs.
# The by-name interpreter (bind.rs, cond.rs, actions.rs) stays public for the
# ledger's harness sink and as the reference of tests/prepared_equivalence.rs,
# but code under crates/*/src outside those three files may not call it
# before its `#[cfg(test)]` module; comments may name it.
stray=$(find crates/*/src -name '*.rs' ! -path crates/rules/src/bind.rs \
    ! -path crates/rules/src/cond.rs ! -path crates/rules/src/actions.rs -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /bind::(\{([^}]*[^_[:alnum:]])?)?bind[^_[:alnum:]]/ ||
    /actions::(\{([^}]*[^_[:alnum:]])?)?(execute|eval|build_filter)[^_[:alnum:]]/ ||
    /cond::(\{([^}]*[^_[:alnum:]])?)?eval_cond[^_[:alnum:]]/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: fire rules through rfid_rules::prepared, not the by-name interpreter" >&2
    exit 1
fi

echo "== one call log (rfid_rules::CallLog) =="
# A procedure call is an interned ProcId and its arguments written in place
# into the fixed blocks of Procedures::log; handlers are a Vec by ProcId. No
# per-call name and argument Vec beside it, no name-keyed handler map.
if grep -rnE 'Vec<\(String, Vec<Value>\)>|HashMap<String, ProcHandler>|log\.push\(\(' \
    crates/rules/src; then
    echo "check.sh: calls go into rfid_rules::CallLog by ProcId, not a (String, Vec) log" >&2
    exit 1
fi

echo "== durable means a snapshot (rfid_store::snapshot) =="
# The store persists one way: Database::save_snapshot writes the whole store
# to a `.tmp` sibling, syncs it and renames it into place; load_snapshot only
# reads. No write-ahead log beside it that nothing appends to.
if grep -rnE 'DurableDatabase|WalError|mod wal' crates/ src/ tests/ examples/; then
    echo "check.sh: a write-ahead log is back" >&2
    exit 1
fi
for call in '\.sync_all\(' 'fs::rename\('; do
    if ! grep -qE "$call" crates/store/src/snapshot.rs 2>/dev/null; then
        echo "check.sh: crates/store/src/snapshot.rs lacks ${call//\\/}: not crash-safe" >&2
        exit 1
    fi
done

echo "== one benchmark harness (crates/bench prints tables) =="
# Throughput is the ledger's (benchmark/); crates/bench prints the paper's
# tables to stdout and fig9_obs gates the observability budget by its exit
# status. No JSON report layer, gate script or checked-in result file beside them.
stray=$({
    ls scripts/bench_*.sh crates/bench/src/report.rs results/BENCH_*.json 2>/dev/null
    grep -rnE '[[:alnum:]_*]\.json' crates/bench/src
} || true)
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: a second benchmark harness is back beside the table printers" >&2
    exit 1
fi

echo "== one GS1 codec (rfid_epc gs1.rs) =="
# SGTIN-96, SSCC-96 and GRAI-96 share one partitioned layout, coded in
# crates/epc/src/gs1.rs from each scheme's descriptor, and every codec error
# is an EpcError. No scheme error enum beside it; and elsewhere under
# crates/epc/src, code before a file's `#[cfg(test)]` module may not look up
# a partition row or write a partition field; comments may name them.
if grep -rnE 'enum [A-Za-z]*Error\b' crates/epc/src | grep -vE 'enum EpcError\b'; then
    echo "check.sh: a scheme error enum is back beside rfid_epc::EpcError" >&2
    exit 1
fi
stray=$(find crates/epc/src -name '*.rs' ! -path crates/epc/src/gs1.rs -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /partition::|by_value\(|by_company_digits\(|PartitionRow|"partition"/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$stray" ]]; then
    echo "$stray"
    echo "check.sh: code the GS1 layout through crates/epc/src/gs1.rs" >&2
    exit 1
fi

echo "== tests (every crate, every suite) =="
cargo test -q --workspace

echo "== rceda-lint (canonical rule programs) =="
# The Rule 1-5 program and the 512-rule containment workload must lint
# free of error-level findings; rceda-lint exits 1 on any E-code. The JSON
# run exercises the machine-readable path end to end.
cargo run -q --release -p rceda-lint -- --sim default --sim paper-scale
cargo run -q --release -p rceda-lint -- --json --sim default >/dev/null

echo "== rceda-obs (telemetry snapshot + provenance trace) =="
# The observability layer must drive end to end on the Rule 1-5 program:
# a counters-level snapshot exports, and the flight recorder replays at
# least one firing's derivation chain (exit 1 if nothing was recorded).
cargo run -q --release -p rceda-obs -- snapshot --events 5000 --format jsonl >/dev/null
cargo run -q --release -p rceda-obs -- explain --events 5000 --last 1 >/dev/null

echo "== ledger (allocation budgets of the edge filter, the firing path and the engine) =="
# One traced pass per workload at 1/10 size through the unedited benchmark.
# Its allocation counts are exact (every map on the path hashes with the
# fixed mixer), so the budgets sit just above what these streams measure:
# 0.0004 and 1.92 on canonical, 0.00016 on rules500 (5.26 and 3.04 with
# SipHash maps, per-firing HashMap rows and a Vec per offer; 2.0002 on
# rules500 with a name and an argument Vec per call, not the call log's
# blocks); on detect the engine allocates 319.4 bytes per event (360.4 with
# a `Vec` per two-child composite and an `Arc` pair per family member; 475.9
# with a `HashMap<Key, u32>` in front of each slot arena); on rules500 it
# makes 0.57 allocations per event (29.2 with an absence and a pair `Arc`
# per member of the 125-member in-field window family).
ledger_budget() {
    local workload="$1" line metric value
    shift
    line=$(benchmark/run.sh --workload "$workload" --seed 42 --seconds 2 --trace 1 --smoke | tail -n 1)
    case "$line" in
    '{"correct": true, '*) ;;
    *) echo "check.sh: ledger $workload: result line lacks correct: true" >&2; exit 1 ;;
    esac
    for metric in "$@"; do
        value=$(sed -n "s/.*\"${metric%%:*}\": {\"value\": \([^,}]*\)[,}].*/\1/p" <<<"$line")
        if ! awk -v v="$value" -v max="${metric##*:}" 'BEGIN { exit !(v != "" && v + 0 < max + 0) }'; then
            echo "check.sh: ledger $workload: ${metric%%:*} = '$value', budget < ${metric##*:}" >&2
            exit 1
        fi
        echo "   $workload ${metric%%:*} = $value (< ${metric##*:})"
    done
}
ledger_budget canonical edge.allocs_per_event:0.01 rules.allocs_per_firing:2.5
ledger_budget rules500 edge.allocs_per_event:0.01 rules.allocs_per_firing:0.05 core.allocs_per_event:1
ledger_budget detect core.alloc_bytes_per_event:320

echo "check.sh: all gates passed"
