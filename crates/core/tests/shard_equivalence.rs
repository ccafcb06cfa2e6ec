//! ShardedEngine ≡ docs/SEMANTICS.md: the sharded pipeline must emit
//! exactly the multiset of rule firings the reference interpreter
//! (`support/reference.rs`) computes — which `plan_equivalence` holds the
//! single-threaded engine to as well — on the full grid of keyed shards ×
//! residual pool threads, on realistic simulator traces, including rules
//! that fall back to broadcast partitions and rules that resolve through
//! pseudo events. A partition is handed only the observations of the
//! readers its rules name, so the targeted cases below are the ones where
//! that could show: a leaf over any reader, a reader outside the catalog,
//! readers that fall silent while windows are open.

mod differential;
mod support;

use differential::{trace, Case, Firing};
use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::{ResidualReason, ShardConfig, Shardability, ShardedEngine};
use rfid_epc::ReaderId;
use rfid_events::{Instance, Observation, Span, Timestamp};
use support::shapes::{self, SHAPES, WINDOWS};

/// The grid every differential case holds over: keyed shards × residual
/// pool threads (the broadcast rules are cut into up to four partitions per
/// thread, so 4 threads means as many partitions as there are merge
/// groups).
const SHARDS: [usize; 3] = [1, 2, 3];
const RESIDUAL: [usize; 3] = [1, 2, 4];

/// How each rule of `shapes::mixed()` shards: the three keyed rules on the
/// object, the keyless join and the global run as residual rules.
const SHARDABILITY: [Shardability; 5] = [
    Shardability::Object,
    Shardability::Object,
    Shardability::Object,
    Shardability::Residual(ResidualReason::KeylessJoin),
    Shardability::Residual(ResidualReason::GlobalRun),
];

/// A grid point for the mixed rule set: inboxes of two batches.
fn grid(shards: usize, residual_workers: usize, batch_size: usize) -> ShardConfig {
    ShardConfig {
        shards,
        residual_workers,
        batch_size,
        queue_depth: 2,
        ..ShardConfig::default()
    }
}

/// The mixed rule set on the pipeline, each rule sharding as it should.
fn sharded(case: &Case, config: ShardConfig) -> ShardedEngine {
    let engine = case.sharded(config);
    assert_shardability(&engine);
    engine
}

fn assert_shardability(engine: &ShardedEngine) {
    for (rule, expected) in SHARDABILITY.into_iter().enumerate() {
        let got = engine.shardability(RuleId(rule as u32));
        assert_eq!(got, expected, "rule {rule}");
    }
}

/// Runs the mixed rule set and holds it to the reference.
fn run(case: &Case, config: ShardConfig) -> (Vec<Firing>, ShardedEngine) {
    let (fired, engine) = case.run_sharded(config);
    assert_shardability(&engine);
    case.check(&fired);
    (fired, engine)
}

/// Observations delivered to the broadcast partition that runs `rule`.
fn delivered_to(engine: &ShardedEngine, rule: u32) -> u64 {
    let partitions = engine.residual_partitions();
    let keyed = engine.worker_stats().len() - partitions.len();
    let p = partitions
        .iter()
        .position(|set| set.contains(&RuleId(rule)))
        .expect("a broadcast rule");
    engine.worker_stats()[keyed + p].events
}

#[test]
fn sharded_matches_single_threaded_for_all_shard_counts() {
    let case = trace(4_000).case(shapes::mixed());
    let expected = case.expected();
    assert!(!expected.is_empty(), "workload must actually fire rules");

    for shards in [1usize, 2, 8] {
        let (_, engine) = run(&case, grid(shards, 1, 64));
        let stats = engine.stats();
        assert!(stats.batches > 0, "sharded path must batch");
        assert!(
            (1..=2).contains(&stats.max_queue_depth),
            "an inbox holds at least the batch just pushed and never more than `queue_depth`"
        );
        let harvested: u64 = engine.firings_per_rule().iter().sum();
        assert_eq!(harvested as usize, expected.len());
    }
}

#[test]
fn the_grid_matches_single_threaded() {
    // Keyed shards × residual pool threads, with per-rule firing counts
    // pinned against the reference — not just the total — and the
    // accessors saying what they mean now that threads are not partitions.
    let case = trace(4_000).case(shapes::mixed());
    let per_rule = |fired: &[Firing]| {
        let mut counts = [0u64; 5];
        for f in fired {
            counts[f.0 as usize] += 1;
        }
        counts
    };
    let expected_per_rule = per_rule(case.expected());

    for shards in SHARDS {
        for residual_workers in RESIDUAL {
            let (got, engine) = run(&case, grid(shards, residual_workers, 64));
            let label = format!("{shards} shards × {residual_workers} residual threads");
            assert_eq!(
                per_rule(&got),
                expected_per_rule,
                "per-rule counts, {label}"
            );

            // Threads: never more than configured, never more than there
            // are partitions to run.
            let stats = engine.stats();
            let threads = engine.residual_worker_count();
            let partitions = engine.residual_partitions();
            assert_eq!(stats.residual_workers, threads as u64);
            assert_eq!(threads, residual_workers.min(partitions.len()), "{label}");
            // Partitions: one per merge group up to four per thread. Folded
            // (one keyed shard) all five rules are broadcast, else the two
            // residual ones; no two of them share a node.
            let broadcast_rules = if shards == 1 { 5 } else { 2 };
            assert_eq!(
                partitions.len(),
                broadcast_rules.min(4 * residual_workers),
                "{label}"
            );
            let keyed = if shards == 1 { 0 } else { shards };
            assert_eq!(engine.worker_stats().len(), keyed + partitions.len());
            assert_eq!(engine.worker_telemetry().len(), keyed + partitions.len());

            // The broadcast partitions are disjoint and cover the rules
            // they were asked to run.
            let mut owned: Vec<u32> = partitions.iter().flatten().map(|r| r.0).collect();
            owned.sort_unstable();
            let wanted: Vec<u32> = if shards == 1 {
                (0..5).collect()
            } else {
                vec![3, 4]
            };
            assert_eq!(owned, wanted, "partitions must be a partition, {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any program of up to five rules from the `plan_equivalence` pool, at
    /// any point of the grid, fires what the reference says.
    #[test]
    fn pool_programs_fire_what_the_semantics_say_on_the_grid(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=5),
        shards in 0usize..SHARDS.len(),
        residual in 0usize..RESIDUAL.len(),
    ) {
        let case = trace(2_000).case(shapes::program(&program));
        let config = ShardConfig {
            shards: SHARDS[shards],
            residual_workers: RESIDUAL[residual],
            batch_size: 32,
            ..ShardConfig::default()
        };
        case.check(&case.run_sharded(config).0);
    }

    /// Partition P is subscribed to reader R iff some observation of R
    /// activates a leaf of P's engine. Observable from outside: between two
    /// barriers that bracket a burst of R's observations, P's `events`
    /// moves iff an engine over P's rules counts a matched event.
    #[test]
    fn a_partition_is_subscribed_to_exactly_the_readers_that_activate_it(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=5),
        shards in 1usize..=2,
    ) {
        let case = trace(2_000).case(shapes::program(&program));
        let config = ShardConfig { shards, residual_workers: 2, ..ShardConfig::default() };
        let mut engine = case.sharded(config);
        let mut sink = |_: RuleId, _: &Instance| {};
        engine.advance_to(Timestamp::ZERO, &mut sink);

        // What each partition runs: the keyed shards all of the shardable
        // rules, a broadcast partition its own set.
        let keyed = engine.worker_stats().len() - engine.residual_partitions().len();
        let shardable: Vec<RuleId> = (0..case.rules.len() as u32)
            .map(RuleId)
            .filter(|&r| engine.shardability(r).is_object())
            .collect();
        let mut sets = vec![shardable; keyed.min(1)];
        sets.extend(engine.residual_partitions().iter().cloned());
        let mut models: Vec<Engine> = sets.iter().map(|set| {
            let rules = set.iter().map(|rule| case.rules[rule.0 as usize].clone()).collect();
            Case::new(case.catalog, rules, case.stream).engine(EngineConfig::default())
        }).collect();

        // A burst per reader — every registered one and an id the catalog
        // never saw — over the objects of the trace, on a moving clock.
        let outside = ReaderId(case.catalog.readers.len() as u32 + 3);
        let readers = case.catalog.readers.iter().map(|def| def.id).chain([outside]);
        let mut now = Timestamp::ZERO;
        for reader in readers {
            let before: Vec<u64> = engine.worker_stats().iter().map(|s| s.events).collect();
            let matched: Vec<u64> = models.iter().map(|m| m.stats().matched_events).collect();
            for seed in case.stream.iter().take(6) {
                now += Span::from_millis(10);
                let obs = Observation::new(reader, seed.object, now);
                engine.process(obs);
                for model in &mut models {
                    model.process(obs, &mut sink);
                }
            }
            engine.advance_to(now, &mut sink);
            let delivered: Vec<u64> = engine.worker_stats().iter().zip(&before)
                .map(|(s, b)| s.events - b).collect();
            // The keyed shards split one subscription by object.
            let mut per_set = vec![delivered[..keyed].iter().sum::<u64>(); keyed.min(1)];
            per_set.extend(&delivered[keyed..]);
            for (p, model) in models.iter().enumerate() {
                let activates = model.stats().matched_events > matched[p];
                prop_assert_eq!(
                    per_set[p], if activates { 6 } else { 0 },
                    "partition set {} vs reader {:?}", p, reader
                );
            }
        }
        engine.finish(&mut sink);
    }
}

#[test]
fn residual_rules_fire_despite_sharding() {
    // The keyless join and the TSEQ+ run detect *cross-object* patterns; if
    // the residual shard were missing or keyed, these firings would vanish.
    let case = trace(4_000).case(shapes::mixed());
    let expected = case.expected();
    assert!(
        expected.iter().any(|f| f.0 == 3),
        "trace must exercise the keyless rule"
    );
    assert!(
        expected.iter().any(|f| f.0 == 4),
        "trace must exercise the TSEQ+ rule"
    );
    let (_, engine) = run(&case, grid(4, 1, 128));
    assert!(engine.has_residual());
}

#[test]
fn ordered_output_is_deterministic_and_barriers_preserve_semantics() {
    let case = trace(2_000).case(shapes::mixed());
    let mid = case.stream.len() / 2;
    let t_mid = case.stream[mid].at;

    let run_once = || {
        let mut engine = sharded(&case, grid(2, 2, 32));
        let mut got = Vec::new();
        let mut sink = |rule: RuleId, inst: &Instance| got.push((rule.0, inst.clone()));
        for &obs in &case.stream[..mid] {
            engine.process(obs);
        }
        // Mid-stream epoch barrier: due pseudo events resolve, accumulated
        // firings are delivered; detection continues afterwards.
        engine.advance_to(t_mid, &mut sink);
        for &obs in &case.stream[mid..] {
            engine.process(obs);
        }
        engine.finish(&mut sink);
        got
    };

    let a = run_once();
    assert_eq!(
        a,
        run_once(),
        "ordered output must be reproducible run-to-run, whichever thread ran which partition"
    );
    // Barriers must not change the firing multiset.
    case.check(&a);
}

#[test]
fn all_rules_shardable_skips_residual() {
    let case = trace(1_000).case(vec![shapes::mixed().remove(0)]);
    let config = ShardConfig {
        shards: 3,
        batch_size: 16,
        ..ShardConfig::default()
    };
    let (fired, engine) = case.run_sharded(config);
    case.check(&fired);
    assert!(!engine.has_residual());
    assert_eq!(engine.residual_worker_count(), 0);
    assert!(engine.residual_partitions().is_empty());
    assert_eq!(engine.worker_stats().len(), 3, "three keyed partitions");
}

#[test]
fn single_shard_folds_the_keyed_rules_into_the_broadcast_partitions() {
    // One keyed shard would receive everything its rules subscribe to
    // anyway, so there is none: all five rules are rule-partitioned, each
    // merge group a partition of its own (four per thread allow it), and
    // each partition is handed the readers of its rule only.
    let case = trace(2_000).case(shapes::mixed());
    let (_, engine) = run(&case, grid(1, 2, 64));
    assert!(engine.has_residual(), "mixed rule set needs a residual");

    let partitions = engine.residual_partitions();
    assert_eq!(partitions.len(), 5);
    assert_eq!(engine.worker_stats().len(), 5, "no keyed partition");
    let group_of = |obs: &Observation| case.catalog.readers.group_of(obs.reader).unwrap_or("");
    let reads = |groups: &[&str]| {
        let stream = case.stream.iter();
        stream.filter(|obs| groups.contains(&group_of(obs))).count() as u64
    };
    for (rules, stats) in partitions.iter().zip(engine.worker_stats()) {
        let [rule] = rules[..] else {
            panic!("one rule per partition, got {rules:?}");
        };
        // `events` counts deliveries, and a delivery is never a miss.
        assert_eq!(stats.events, stats.matched_events, "rule {rule:?}");
        let wanted = match rule.0 {
            0 => case.stream.len() as u64, // `dup`: a leaf over any reader
            1 | 4 => reads(&["shelves"]),
            2 => reads(&["pos", "exits"]),
            3 => reads(&["docks", "pos"]),
            _ => unreachable!("five rules"),
        };
        assert_eq!(stats.events, wanted, "rule {rule:?}");
    }
    let delivered: u64 = engine.worker_stats().iter().map(|s| s.events).sum();
    assert_eq!(engine.stats().events, delivered, "`events` is deliveries");
}

#[test]
fn a_reader_outside_the_catalog_reaches_the_any_reader_partitions_only() {
    // `ReaderRegistry` ids are dense; an id past them has no dispatch row,
    // so only a leaf over any reader can match it — in one engine and in
    // every partition alike.
    let sim = &trace(1_500).sim;
    let outside = ReaderId(sim.catalog.readers.len() as u32 + 7);
    let shelf = sim.catalog.readers.members("shelves")[0];
    let mut stream = trace(1_500).stream.clone();
    for obs in stream.iter_mut().filter(|obs| obs.reader == shelf) {
        obs.reader = outside;
    }
    let case = Case::new(&sim.catalog, shapes::mixed(), &stream);
    let strangers = stream.iter().filter(|obs| obs.reader == outside).count() as u64;
    let by_strangers = |f: &Firing| f.1.observations().iter().all(|obs| obs.reader == outside);
    assert!(
        case.expected().iter().any(|f| f.0 == 0 && by_strangers(f)),
        "`dup` must pair reads of the unknown reader"
    );

    for shards in [1usize, 2] {
        let (_, engine) = run(&case, grid(shards, 2, 64));
        let known = |groups: &[&str]| {
            stream
                .iter()
                .filter(|obs| {
                    let group = sim.catalog.readers.group_of(obs.reader);
                    group.is_some_and(|g| groups.contains(&g))
                })
                .count() as u64
        };
        if shards == 1 {
            let all = stream.len() as u64;
            assert_eq!(delivered_to(&engine, 0), all, "`dup` sees strangers");
            assert_eq!(delivered_to(&engine, 1), known(&["shelves"]), "`missing`");
        } else {
            // Both keyed shards hold `dup`, so between them every read.
            let stats = engine.worker_stats();
            assert_eq!(stats[0].events + stats[1].events, stream.len() as u64);
        }
        assert_eq!(
            delivered_to(&engine, 3),
            known(&["docks", "pos"]),
            "keyless"
        );
        assert_eq!(delivered_to(&engine, 4), known(&["shelves"]), "run");
        assert!(strangers > 0 && known(&["shelves"]) > 0);
    }
}

#[test]
fn windows_of_a_partition_whose_readers_fall_silent_still_resolve() {
    // From the middle of the stream on, the shelf, exit and point-of-sale
    // readers are silent: the partitions of `missing`, `and-neg` and `run`
    // receive nothing more, their clocks stop, and their open `NOT` and
    // `TSEQ+` windows are closed by the barrier alone — with the `t_end`
    // the single engine, whose clock the dock reads keep moving, gives
    // them.
    let (sim, full) = (&trace(3_000).sim, &trace(3_000).stream);
    let mid = full.len() / 2;
    let silent = ["shelves", "exits", "pos"];
    let stream: Vec<Observation> = full
        .iter()
        .enumerate()
        .filter(|(i, obs)| {
            let group = sim.catalog.readers.group_of(obs.reader).unwrap_or("");
            *i < mid || !silent.contains(&group)
        })
        .map(|(_, obs)| *obs)
        .collect();
    let cut = stream
        .iter()
        .position(|obs| obs.at >= full[mid].at)
        .expect("a second half");
    let case = Case::new(&sim.catalog, shapes::mixed(), &stream);
    // The run the last shelf read belongs to was open when the shelves
    // stopped: what closes it comes after.
    let shelf = |obs: &&Observation| sim.catalog.readers.group_of(obs.reader) == Some("shelves");
    let last_shelf_read = stream[..cut].iter().rfind(shelf).expect("shelf reads");
    let closes_it = |f: &Firing| f.0 == 4 && f.1.observations().last() == Some(last_shelf_read);
    assert!(
        case.expected().iter().any(closes_it),
        "the open run must fire"
    );

    for (shards, residual_workers) in [(1, 1), (1, 2), (2, 2), (3, 4)] {
        let label = format!("{shards} shards × {residual_workers} residual threads");
        // Closed by `finish`.
        run(&case, grid(shards, residual_workers, 64));

        // Closed by `advance_to`: a barrier long after the silence began
        // delivers every firing whose window has closed by then, and
        // `finish` adds only the rest.
        let mut engine = sharded(&case, grid(shards, residual_workers, 64));
        let mut got = Vec::new();
        for &obs in &stream[..cut] {
            engine.process(obs);
        }
        let horizon = full[mid].at + Span::from_secs(60);
        let later = stream[cut..].partition_point(|obs| obs.at <= horizon) + cut;
        for &obs in &stream[cut..later] {
            engine.process(obs);
        }
        let mut sink = |rule: RuleId, inst: &Instance| got.push((rule.0, inst.clone()));
        engine.advance_to(horizon, &mut sink);
        for &obs in &stream[later..] {
            engine.process(obs);
        }
        let by_horizon = got.len();
        engine.finish(&mut |rule, inst: &Instance| got.push((rule.0, inst.clone())));
        let silenced_after: Vec<&Firing> = got[by_horizon..]
            .iter()
            .filter(|f| [1, 2, 4].contains(&f.0))
            .collect();
        assert!(
            silenced_after.is_empty(),
            "windows of ≤30 s closed at the barrier, {label}: {silenced_after:?}"
        );
        case.check(&got);
    }
}

#[test]
fn an_inbox_of_one_batch_changes_nothing() {
    let case = trace(2_000).case(shapes::mixed());
    for (shards, residual_workers) in [(1, 1), (2, 2), (3, 4)] {
        let config = ShardConfig {
            queue_depth: 1,
            ..grid(shards, residual_workers, 8)
        };
        let (_, engine) = run(&case, config);
        assert_eq!(engine.stats().max_queue_depth, 1, "the bound is the bound");
    }
}
