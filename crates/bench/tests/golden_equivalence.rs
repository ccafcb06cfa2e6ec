//! Golden equivalence: the Fig. 9 workload's firing counts are pinned, and
//! the engine plus the sharded pipeline — on the full grid of keyed shards
//! × residual pool threads — must all reproduce them exactly.
//!
//! The constants below were produced by the pre-refactor `Vec<KeyPart>`
//! engine on this exact workload (paper-scale deployment, deterministic
//! trace, 20 000 events). Any hot-path change that alters detection —
//! packed-key collisions, plan-borrowing mistakes, shard routing drift, a
//! partition missing a reader it needed — shows up here as a count
//! mismatch, not as a silent perf-only diff.

use std::collections::BTreeMap;

use rceda::{EngineConfig, RuleId, ShardConfig};
use rfid_bench::{engine_from_script, sharded_engine_from_script, BenchWorkload};
use rfid_simulator::SimConfig;

const EVENTS: usize = 20_000;

/// Pinned per-rule firings of the five named rules on the golden workload.
const GOLDEN_NAMED: [(&str, u64); 5] = [
    ("asset_monitoring", 10),
    ("duplicate_detection", 542),
    ("infield_filtering", 11_320),
    ("location_change", 2_062),
    ("point_of_sale", 0),
];

/// Pinned total over the `containment_line_*` rules, and the overall total.
const GOLDEN_PACK_TOTAL: u64 = 247;
const GOLDEN_TOTAL: u64 = 14_181;

fn engine_counts(workload: &BenchWorkload, script: &str) -> BTreeMap<String, u64> {
    let mut engine = engine_from_script(workload, script, EngineConfig::default());
    let trace = workload.trace(EVENTS);
    let mut sink = |_rule: RuleId, _inst: &rfid_events::Instance| {};
    for &obs in &trace.observations {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    collect_counts(engine.rule_count(), engine.firings_per_rule(), |i| {
        engine.rule_name(RuleId(i as u32)).to_owned()
    })
}

fn sharded_counts(
    workload: &BenchWorkload,
    script: &str,
    shards: usize,
    residual_workers: usize,
) -> BTreeMap<String, u64> {
    let config = ShardConfig {
        shards,
        residual_workers,
        ..ShardConfig::default()
    };
    let mut engine = sharded_engine_from_script(workload, script, config);
    let trace = workload.trace(EVENTS);
    for &obs in &trace.observations {
        engine.process(obs);
    }
    engine.finish(&mut |_rule, _inst| {});
    collect_counts(engine.rule_count(), engine.firings_per_rule(), |i| {
        engine.rule_name(RuleId(i as u32)).to_owned()
    })
}

fn collect_counts(
    rules: usize,
    firings: &[u64],
    name_of: impl Fn(usize) -> String,
) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for (i, &fired) in firings.iter().enumerate().take(rules) {
        if fired > 0 {
            *counts.entry(name_of(i)).or_insert(0) += fired;
        }
    }
    counts
}

fn assert_matches_golden(counts: &BTreeMap<String, u64>, label: &str) {
    for (name, expected) in GOLDEN_NAMED {
        assert_eq!(
            counts.get(name).copied().unwrap_or(0),
            expected,
            "{label}: rule `{name}` diverged from the golden count"
        );
    }
    let pack_total: u64 = counts
        .iter()
        .filter(|(n, _)| n.starts_with("containment_line_"))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(
        pack_total, GOLDEN_PACK_TOTAL,
        "{label}: containment rules diverged"
    );
    let total: u64 = counts.values().sum();
    assert_eq!(total, GOLDEN_TOTAL, "{label}: total firings diverged");
}

/// Keyed shards × residual pool threads: every differential case holds on
/// the whole grid.
const SHARDS: [usize; 3] = [1, 2, 3];
const RESIDUAL: [usize; 3] = [1, 2, 4];

#[test]
fn fig9_workload_reproduces_golden_counts() {
    // The 512 containment rules are cut into up to four broadcast
    // partitions per residual thread, each reading only its own lines'
    // readers, and every per-rule count must still match the
    // single-threaded engine bit-for-bit at every grid point.
    let workload = BenchWorkload::with_config(SimConfig::paper_scale());
    let script = workload.sim.rule_set();

    let engine = engine_counts(&workload, &script);
    assert_matches_golden(&engine, "single-threaded engine");

    let grid = SHARDS
        .into_iter()
        .flat_map(|shards| RESIDUAL.map(|residual| (shards, residual)));
    for (shards, residual_workers) in grid.chain([(8, 1)]) {
        let label = format!("{shards} shards × {residual_workers} residual threads");
        let sharded = sharded_counts(&workload, &script, shards, residual_workers);
        assert_matches_golden(&sharded, &label);
        // Beyond the pinned aggregates: every individual rule (all 500+ of
        // them) must agree with the single-threaded engine exactly.
        assert_eq!(
            sharded, engine,
            "per-rule firing counts diverged between engine and {label}"
        );
    }
}

#[test]
fn rule_family_fires_the_same_on_the_grid() {
    // Fig. 9(b)'s family: 100 window-varied rules of four kinds. Rules of
    // a kind share leaves, so its merge groups are fewer and heavier than
    // the canonical set's 512 light ones.
    let workload = BenchWorkload::with_config(SimConfig::paper_scale());
    let script = workload.sim.rule_family(100);
    let engine = engine_counts(&workload, &script);
    assert!(engine.values().sum::<u64>() > 0, "the family must fire");
    for shards in SHARDS {
        for residual_workers in RESIDUAL {
            assert_eq!(
                sharded_counts(&workload, &script, shards, residual_workers),
                engine,
                "{shards} shards × {residual_workers} residual threads"
            );
        }
    }
}

#[test]
fn no_partition_of_the_ledger_layout_does_half_the_work() {
    // Balance, on counts rather than time: with the ledger's layout
    // (`shards: 1, residual_workers: 2`) over a 60 s trace, no partition
    // produces more than half of the summed `occurrences` — the heaviest
    // merge group, `infield`, is about a third — so two threads taking
    // partitions as they become ready can split the work evenly whatever
    // the static weights (82% for `infield`) predicted.
    let workload = BenchWorkload::with_config(SimConfig::paper_scale());
    let script = workload.sim.rule_set();
    let trace = workload
        .sim
        .generate_until(rfid_events::Timestamp::from_secs(60));
    let config = ShardConfig {
        shards: 1,
        residual_workers: 2,
        ..ShardConfig::default()
    };
    let mut engine = sharded_engine_from_script(&workload, &script, config);
    for &obs in &trace.observations {
        engine.process(obs);
    }
    engine.finish(&mut |_rule, _inst| {});

    assert_eq!(engine.residual_worker_count(), 2, "two pool threads");
    assert_eq!(
        engine.residual_partitions().len(),
        8,
        "four partitions each"
    );
    let occurrences: Vec<u64> = engine
        .worker_stats()
        .iter()
        .map(|s| s.occurrences)
        .collect();
    let total: u64 = occurrences.iter().sum();
    let heaviest = occurrences.iter().copied().max().unwrap_or(0);
    assert!(total > 0, "the trace must produce occurrences");
    assert!(
        2 * heaviest <= total,
        "one partition produced {heaviest} of {total} occurrences: {occurrences:?}"
    );
    // Subscriptions: only the two shelf rules share readers, so the stream
    // is delivered less than one and a half times, not once per partition.
    let delivered = engine.stats().events as f64;
    assert!(delivered < 1.5 * trace.observations.len() as f64);
}
