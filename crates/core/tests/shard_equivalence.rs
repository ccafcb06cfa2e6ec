//! ShardedEngine ≡ docs/SEMANTICS.md: the sharded pipeline must emit
//! exactly the multiset of rule firings the reference interpreter
//! (`support/reference.rs`) computes — which `plan_equivalence` holds the
//! single-threaded engine to as well — for any shard count, on realistic
//! simulator traces, including rules that fall back to the residual shard
//! and rules that resolve through pseudo events.

mod support;

use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::shard::{ResidualReason, ShardConfig, Shardability, ShardedEngine};
use rfid_events::{EventExpr, Instance, Observation, Span};
use rfid_simulator::{SimConfig, SupplyChain};

/// The mixed rule set: three object-shardable rules (one exercising
/// negation waits and pseudo events) and two residual rules (a keyless
/// chronicle join and a global TSEQ+ run).
fn rules() -> Vec<(&'static str, EventExpr, Shardability)> {
    let dup = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5));
    let missing = EventExpr::observation_in_group("shelves")
        .bind_object("o")
        .not()
        .seq(EventExpr::observation_in_group("shelves").bind_object("o"))
        .within(Span::from_secs(2));
    let and_neg = EventExpr::observation_in_group("pos")
        .bind_object("o")
        .and(
            EventExpr::observation_in_group("exits")
                .bind_object("o")
                .not(),
        )
        .within(Span::from_secs(3));
    let keyless = EventExpr::observation_in_group("docks")
        .seq(EventExpr::observation_in_group("pos"))
        .within(Span::from_secs(10));
    let run = EventExpr::observation_in_group("shelves")
        .tseq_plus(Span::ZERO, Span::from_millis(1_500))
        .within(Span::from_secs(30));
    vec![
        ("dup", dup, Shardability::Object),
        ("missing", missing, Shardability::Object),
        ("and-neg", and_neg, Shardability::Object),
        (
            "keyless",
            keyless,
            Shardability::Residual(ResidualReason::KeylessJoin),
        ),
        (
            "run",
            run,
            Shardability::Residual(ResidualReason::GlobalRun),
        ),
    ]
}

use support::reference::{self, Fingerprint};

fn fingerprint(rule: RuleId, inst: &Instance) -> Fingerprint {
    (rule.0, inst.t_begin(), inst.t_end(), inst.observations())
}

fn reference_firings(sim: &SupplyChain, stream: &[Observation]) -> Vec<Fingerprint> {
    let events: Vec<EventExpr> = rules().into_iter().map(|(_, event, _)| event).collect();
    reference::fire(&sim.catalog, &events, stream)
}

fn sharded(sim: &SupplyChain, shards: usize, batch_size: usize) -> ShardedEngine {
    sharded_with_residual(sim, shards, 1, batch_size)
}

fn sharded_with_residual(
    sim: &SupplyChain,
    shards: usize,
    residual_workers: usize,
    batch_size: usize,
) -> ShardedEngine {
    let config = ShardConfig {
        shards,
        residual_workers,
        batch_size,
        queue_depth: 2,
        ..ShardConfig::default()
    };
    let mut engine = ShardedEngine::new(sim.catalog.clone(), config);
    for (name, event, expected) in rules() {
        let id = engine.add_rule(name, event).expect("valid rule");
        assert_eq!(engine.shardability(id), expected, "rule {name}");
    }
    engine
}

fn trace(n: usize) -> (SupplyChain, Vec<Observation>) {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(n).observations;
    (sim, stream)
}

#[test]
fn sharded_matches_single_threaded_for_all_shard_counts() {
    let (sim, stream) = trace(4_000);
    let expected = reference_firings(&sim, &stream);
    assert!(!expected.is_empty(), "workload must actually fire rules");

    for shards in [1usize, 2, 8] {
        let mut engine = sharded(&sim, shards, 64);
        let mut got = Vec::new();
        engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        got.sort();
        assert_eq!(got, expected, "firing multiset diverged at {shards} shards");

        let stats = engine.stats();
        assert!(stats.batches > 0, "sharded path must batch");
        assert!(
            stats.max_queue_depth >= 1,
            "queue depth high-water must register"
        );
        let harvested: u64 = engine.firings_per_rule().iter().sum();
        assert_eq!(harvested as usize, expected.len());
    }
}

#[test]
fn rule_partitioned_residual_matches_single_threaded() {
    // The full grid the tentpole must hold over: keyed shards × residual
    // workers, with per-rule firing counts pinned against the
    // single-threaded engine — not just the total.
    let (sim, stream) = trace(4_000);
    let expected = reference_firings(&sim, &stream);
    let per_rule = |fps: &[Fingerprint]| {
        let mut counts = [0u64; 5];
        for f in fps {
            counts[f.0 as usize] += 1;
        }
        counts
    };
    let expected_per_rule = per_rule(&expected);

    for shards in [1usize, 2] {
        for residual_workers in [1usize, 2, 4] {
            let mut engine = sharded_with_residual(&sim, shards, residual_workers, 64);
            let mut got = Vec::new();
            engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
                got.push(fingerprint(rule, inst));
            });
            let label = format!("{shards} shards × {residual_workers} residual workers");
            assert_eq!(
                per_rule(&got),
                expected_per_rule,
                "per-rule counts, {label}"
            );
            got.sort();
            assert_eq!(got, expected, "firing multiset diverged, {label}");

            let stats = engine.stats();
            let spawned = engine.residual_worker_count();
            assert_eq!(stats.residual_workers, spawned as u64);
            assert!(
                spawned <= residual_workers.max(1),
                "never more residual workers than configured, {label}"
            );
            if residual_workers > 1 && shards > 1 {
                assert!(
                    spawned > 1,
                    "the 2-residual-rule set must actually split, {label}"
                );
            }
            // The broadcast partitions are disjoint and cover the rules
            // they were asked to run.
            let mut owned: Vec<u32> = engine
                .residual_partitions()
                .iter()
                .flatten()
                .map(|r| r.0)
                .collect();
            owned.sort_unstable();
            let before = owned.len();
            owned.dedup();
            assert_eq!(owned.len(), before, "partitions must be disjoint");
        }
    }
}

#[test]
fn residual_rules_fire_despite_sharding() {
    // The keyless join and the TSEQ+ run detect *cross-object* patterns; if
    // the residual shard were missing or keyed, these firings would vanish.
    let (sim, stream) = trace(4_000);
    let expected = reference_firings(&sim, &stream);
    let keyless_expected = expected.iter().filter(|f| f.0 == 3).count();
    let run_expected = expected.iter().filter(|f| f.0 == 4).count();
    assert!(keyless_expected > 0, "trace must exercise the keyless rule");
    assert!(run_expected > 0, "trace must exercise the TSEQ+ rule");

    let mut engine = sharded(&sim, 4, 128);
    assert!(engine.has_residual());
    let mut got = Vec::new();
    engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    assert_eq!(got.iter().filter(|f| f.0 == 3).count(), keyless_expected);
    assert_eq!(got.iter().filter(|f| f.0 == 4).count(), run_expected);
}

#[test]
fn ordered_output_is_deterministic_and_barriers_preserve_semantics() {
    let (sim, stream) = trace(2_000);
    let expected = reference_firings(&sim, &stream);
    let mid = stream.len() / 2;
    let t_mid = stream[mid].at;

    let run_once = || {
        let mut engine = sharded(&sim, 2, 32);
        let mut got = Vec::new();
        let mut sink = |rule: RuleId, inst: &Instance| got.push(fingerprint(rule, inst));
        for &obs in &stream[..mid] {
            engine.process(obs);
        }
        // Mid-stream epoch barrier: due pseudo events resolve, accumulated
        // firings are delivered; detection continues afterwards.
        engine.advance_to(t_mid, &mut sink);
        for &obs in &stream[mid..] {
            engine.process(obs);
        }
        engine.finish(&mut sink);
        got
    };

    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "ordered output must be reproducible run-to-run");

    let mut sorted = a;
    sorted.sort();
    assert_eq!(
        sorted, expected,
        "barriers must not change the firing multiset"
    );
}

#[test]
fn all_rules_shardable_skips_residual() {
    let (sim, stream) = trace(1_000);
    let config = ShardConfig {
        shards: 3,
        batch_size: 16,
        ..ShardConfig::default()
    };
    let mut engine = ShardedEngine::new(sim.catalog.clone(), config);
    let (name, event, _) = rules().remove(0);
    engine.add_rule(name, event).expect("valid rule");
    assert!(!engine.has_residual());

    let mut single = Engine::new(sim.catalog.clone(), EngineConfig::default());
    single
        .add_rule(name, rules().remove(0).1)
        .expect("valid rule");
    let mut expected = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| expected.push(fingerprint(rule, inst));
    for &obs in &stream {
        single.process(obs, &mut sink);
    }
    single.finish(&mut sink);
    expected.sort();

    let mut got = Vec::new();
    engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn single_shard_folds_residual_into_one_worker() {
    // With one keyed shard the worker sees the full stream anyway, so the
    // pipeline folds the residual rules into it instead of running a second
    // full-stream engine. Observable: each observation is processed exactly
    // once (the two-worker layout would count every event twice), while the
    // firings still match the reference exactly.
    let (sim, stream) = trace(2_000);
    let expected = reference_firings(&sim, &stream);

    let mut engine = sharded(&sim, 1, 64);
    assert!(engine.has_residual(), "mixed rule set needs a residual");
    let mut got = Vec::new();
    engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    got.sort();
    assert_eq!(got, expected, "folded single shard diverged");

    let stats = engine.stats();
    assert_eq!(
        stats.events,
        stream.len() as u64,
        "folded layout must process the stream once, not once per worker"
    );
}
