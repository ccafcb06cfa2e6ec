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

mod support;

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::shard::{ResidualReason, ShardConfig, Shardability, ShardedEngine};
use rfid_epc::ReaderId;
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};
use support::reference::{self, Fingerprint};
use support::shapes::{shape, SHAPES, WINDOWS};

/// The grid every differential case holds over: keyed shards × residual
/// pool threads (the broadcast rules are cut into up to four partitions per
/// thread, so 4 threads means as many partitions as there are merge
/// groups).
const SHARDS: [usize; 3] = [1, 2, 3];
const RESIDUAL: [usize; 3] = [1, 2, 4];

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

fn events() -> Vec<EventExpr> {
    rules().into_iter().map(|(_, event, _)| event).collect()
}

fn fingerprint(rule: RuleId, inst: &Instance) -> Fingerprint {
    (rule.0, inst.t_begin(), inst.t_end(), inst.observations())
}

fn reference_firings(sim: &SupplyChain, stream: &[Observation]) -> Vec<Fingerprint> {
    reference::fire(&sim.catalog, &events(), stream)
}

/// The sorted firings of one engine over `stream`.
fn single_firings(
    catalog: &Catalog,
    events: &[EventExpr],
    stream: &[Observation],
) -> Vec<Fingerprint> {
    let mut engine = Engine::new(catalog.clone(), EngineConfig::default());
    for (pos, event) in events.iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), event.clone())
            .expect("valid rule");
    }
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| out.push(fingerprint(rule, inst));
    for &obs in stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out.sort();
    out
}

/// A sharded engine over `events`, rule ids in slice order.
fn sharded_over(catalog: &Catalog, events: &[EventExpr], config: ShardConfig) -> ShardedEngine {
    let mut engine = ShardedEngine::new(catalog.clone(), config);
    for (pos, event) in events.iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), event.clone())
            .expect("valid rule");
    }
    engine
}

/// Feeds `stream` and finishes; the firings in delivery order, which must
/// be the documented one: by `t_end` across partitions.
fn drive(engine: &mut ShardedEngine, stream: &[Observation]) -> Vec<Fingerprint> {
    let mut got = Vec::new();
    engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    assert!(
        got.windows(2).all(|w| w[0].2 <= w[1].2),
        "a barrier delivers in t_end order"
    );
    got
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
        let mut got = drive(&mut engine, &stream);
        got.sort();
        assert_eq!(got, expected, "firing multiset diverged at {shards} shards");

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

    for shards in SHARDS {
        for residual_workers in RESIDUAL {
            let mut engine = sharded_with_residual(&sim, shards, residual_workers, 64);
            let mut got = drive(&mut engine, &stream);
            let label = format!("{shards} shards × {residual_workers} residual threads");
            assert_eq!(
                per_rule(&got),
                expected_per_rule,
                "per-rule counts, {label}"
            );
            got.sort();
            assert_eq!(got, expected, "firing multiset diverged, {label}");

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
        let (sim, stream) = pool_fixture();
        let events: Vec<EventExpr> = program.iter().map(|&(idx, w)| shape(idx, WINDOWS[w])).collect();
        let expected = reference::fire(&sim.catalog, &events, stream);
        let config = ShardConfig {
            shards: SHARDS[shards],
            residual_workers: RESIDUAL[residual],
            batch_size: 32,
            ..ShardConfig::default()
        };
        let mut engine = sharded_over(&sim.catalog, &events, config);
        let mut got = drive(&mut engine, stream);
        got.sort();
        prop_assert_eq!(got, expected);
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
        let (sim, stream) = pool_fixture();
        let events: Vec<EventExpr> = program.iter().map(|&(idx, w)| shape(idx, WINDOWS[w])).collect();
        let config = ShardConfig { shards, residual_workers: 2, ..ShardConfig::default() };
        let mut engine = sharded_over(&sim.catalog, &events, config);
        let mut sink = |_: RuleId, _: &Instance| {};
        engine.advance_to(Timestamp::ZERO, &mut sink);

        // What each partition runs: the keyed shards all of the shardable
        // rules, a broadcast partition its own set.
        let keyed = engine.worker_stats().len() - engine.residual_partitions().len();
        let shardable: Vec<RuleId> = (0..events.len() as u32)
            .map(RuleId)
            .filter(|&r| engine.shardability(r).is_object())
            .collect();
        let mut sets = vec![shardable; keyed.min(1)];
        sets.extend(engine.residual_partitions().iter().cloned());
        let mut models: Vec<Engine> = sets.iter().map(|set| {
            let mut model = Engine::new(sim.catalog.clone(), EngineConfig::default());
            for rule in set {
                model
                    .add_rule(&format!("r{}", rule.0), events[rule.0 as usize].clone())
                    .expect("valid rule");
            }
            model
        }).collect();

        // A burst per reader — every registered one and an id the catalog
        // never saw — over the objects of the trace, on a moving clock.
        let outside = ReaderId(sim.catalog.readers.len() as u32 + 3);
        let readers = sim.catalog.readers.iter().map(|def| def.id).chain([outside]);
        let mut now = Timestamp::ZERO;
        for reader in readers {
            let before: Vec<u64> = engine.worker_stats().iter().map(|s| s.events).collect();
            let matched: Vec<u64> = models.iter().map(|m| m.stats().matched_events).collect();
            for seed in stream.iter().take(6) {
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

/// The fixture of `plan_equivalence`: the default deployment, 2,000 events.
fn pool_fixture() -> &'static (SupplyChain, Vec<Observation>) {
    static FIXTURE: std::sync::OnceLock<(SupplyChain, Vec<Observation>)> =
        std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| trace(2_000))
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
    let got = drive(&mut engine, &stream);
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
        let mut engine = sharded_with_residual(&sim, 2, 2, 32);
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
    assert_eq!(
        a, b,
        "ordered output must be reproducible run-to-run, whichever thread ran which partition"
    );

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
    let (_, event, _) = rules().remove(0);
    let config = ShardConfig {
        shards: 3,
        batch_size: 16,
        ..ShardConfig::default()
    };
    let mut engine = sharded_over(&sim.catalog, std::slice::from_ref(&event), config);
    assert!(!engine.has_residual());

    let expected = single_firings(&sim.catalog, &[event], &stream);
    let mut got = drive(&mut engine, &stream);
    got.sort();
    assert_eq!(got, expected);
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
    let (sim, stream) = trace(2_000);
    let expected = reference_firings(&sim, &stream);

    let mut engine = sharded_with_residual(&sim, 1, 2, 64);
    assert!(engine.has_residual(), "mixed rule set needs a residual");
    let mut got = drive(&mut engine, &stream);
    got.sort();
    assert_eq!(got, expected, "folded single shard diverged");

    let partitions = engine.residual_partitions();
    assert_eq!(partitions.len(), 5);
    assert_eq!(engine.worker_stats().len(), 5, "no keyed partition");
    let group_of = |obs: &Observation| sim.catalog.readers.group_of(obs.reader).unwrap_or("");
    let reads = |groups: &[&str]| {
        stream
            .iter()
            .filter(|obs| groups.contains(&group_of(obs)))
            .count() as u64
    };
    for (rules, stats) in partitions.iter().zip(engine.worker_stats()) {
        let [rule] = rules[..] else {
            panic!("one rule per partition, got {rules:?}");
        };
        // `events` counts deliveries, and a delivery is never a miss.
        assert_eq!(stats.events, stats.matched_events, "rule {rule:?}");
        let wanted = match rule.0 {
            0 => stream.len() as u64, // `dup`: a leaf over any reader
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
    let (sim, mut stream) = trace(1_500);
    let outside = ReaderId(sim.catalog.readers.len() as u32 + 7);
    let shelf = sim.catalog.readers.members("shelves")[0];
    for obs in stream.iter_mut().filter(|obs| obs.reader == shelf) {
        obs.reader = outside;
    }
    let strangers = stream.iter().filter(|obs| obs.reader == outside).count() as u64;
    let expected = single_firings(&sim.catalog, &events(), &stream);
    assert!(
        expected
            .iter()
            .any(|f| f.0 == 0 && f.3.iter().all(|obs| obs.reader == outside)),
        "`dup` must pair reads of the unknown reader"
    );

    for shards in [1usize, 2] {
        let mut engine = sharded_with_residual(&sim, shards, 2, 64);
        let mut got = drive(&mut engine, &stream);
        got.sort();
        assert_eq!(got, expected, "{shards} shards");

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
    let (sim, full) = trace(3_000);
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
    let expected = reference_firings(&sim, &stream);
    // The run the last shelf read belongs to was open when the shelves
    // stopped: what closes it comes after.
    let shelf = |obs: &&Observation| sim.catalog.readers.group_of(obs.reader) == Some("shelves");
    let last_shelf_read = stream[..cut].iter().rfind(shelf).expect("shelf reads");
    assert!(
        expected
            .iter()
            .any(|f| f.0 == 4 && f.3.last() == Some(last_shelf_read)),
        "the open run must fire"
    );

    for (shards, residual_workers) in [(1, 1), (1, 2), (2, 2), (3, 4)] {
        let label = format!("{shards} shards × {residual_workers} residual threads");
        // Closed by `finish`.
        let mut engine = sharded_with_residual(&sim, shards, residual_workers, 64);
        let mut got = drive(&mut engine, &stream);
        got.sort();
        assert_eq!(got, expected, "finish, {label}");

        // Closed by `advance_to`: a barrier long after the silence began
        // delivers every firing whose window has closed by then, and
        // `finish` adds only the rest.
        let mut engine = sharded_with_residual(&sim, shards, residual_workers, 64);
        let mut got = Vec::new();
        for &obs in &stream[..cut] {
            engine.process(obs);
        }
        let horizon = full[mid].at + Span::from_secs(60);
        let later = stream[cut..].partition_point(|obs| obs.at <= horizon) + cut;
        for &obs in &stream[cut..later] {
            engine.process(obs);
        }
        engine.advance_to(horizon, &mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        let by_horizon = got.len();
        for &obs in &stream[later..] {
            engine.process(obs);
        }
        engine.finish(&mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        let silenced_after: Vec<&Fingerprint> = got[by_horizon..]
            .iter()
            .filter(|f| [1, 2, 4].contains(&f.0))
            .collect();
        assert!(
            silenced_after.is_empty(),
            "windows of ≤30 s closed at the barrier, {label}: {silenced_after:?}"
        );
        got.sort();
        assert_eq!(got, expected, "advance_to, {label}");
    }
}

#[test]
fn an_inbox_of_one_batch_changes_nothing() {
    let (sim, stream) = trace(2_000);
    let expected = reference_firings(&sim, &stream);
    for (shards, residual_workers) in [(1, 1), (2, 2), (3, 4)] {
        let config = ShardConfig {
            shards,
            residual_workers,
            batch_size: 8,
            queue_depth: 1,
            ..ShardConfig::default()
        };
        let mut engine = sharded_over(&sim.catalog, &events(), config);
        let mut got = drive(&mut engine, &stream);
        got.sort();
        assert_eq!(
            got, expected,
            "{shards} shards × {residual_workers} threads"
        );
        assert_eq!(engine.stats().max_queue_depth, 1, "the bound is the bound");
    }
}
