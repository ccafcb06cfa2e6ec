//! Shard-merged telemetry ≡ single-engine telemetry: for any program of
//! object-shardable rules, the per-node metrics arena summed across keyed
//! shards must equal the arena of one engine that processed the whole
//! stream, and the shard-summed counter stats must match exactly.
//!
//! This is the observability analogue of the firing-equivalence suites:
//! keyed sharding partitions the stream by object, every shard compiles
//! the identical plan, and each counter is incremented per (observation,
//! node) independently of which engine holds the key — so the sums are
//! exact, not approximate. Prune counters are the one column the
//! equivalence excludes: each shard sweeps at its own batch boundaries,
//! and an entry one engine prunes in a sweep another discards at probe
//! time.

use proptest::prelude::*;
use rceda::{Engine, EngineConfig, ObserveLevel, RuleId, ShardConfig, ShardedEngine};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};
use std::sync::OnceLock;

type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// Object-shardable shapes only: every rule keys on the object EPC, so
/// the keyed-shard pipeline runs with no residual broadcast workers and
/// the per-shard streams partition the input exactly.
const SHAPES: usize = 4;
const WINDOWS: [Span; 3] = [Span::from_secs(2), Span::from_secs(5), Span::from_secs(30)];

fn shape(idx: usize, window: Span) -> EventExpr {
    let keyed = |group: &str| EventExpr::observation_in_group(group).bind_object("o");
    match idx {
        // Self-join duplicate filter.
        0 => EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(window),
        // AND with negated side (pseudo events on window close).
        1 => keyed("pos").and(keyed("exits").not()).within(window),
        // Right-side negation wait.
        2 => keyed("docks").seq(keyed("exits").not()).within(window),
        // Keyed two-sided join across groups.
        3 => keyed("docks").seq(keyed("pos")).within(window),
        _ => unreachable!("shape index out of pool"),
    }
}

struct Fixture {
    sim: SupplyChain,
    stream: Vec<Observation>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = SupplyChain::build(SimConfig::default());
        let stream = sim.generate(1_500).observations;
        Fixture { sim, stream }
    })
}

/// Engine config for both sides: counters on.
fn engine_config() -> EngineConfig {
    EngineConfig {
        observe: ObserveLevel::Counters,
        ..EngineConfig::default()
    }
}

fn single_pass(program: &[(usize, usize)]) -> (Vec<Fingerprint>, rceda::TelemetrySnapshot) {
    let fx = fixture();
    let mut engine = Engine::new(fx.sim.catalog.clone(), engine_config());
    for (pos, &(idx, w)) in program.iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), shape(idx, WINDOWS[w]))
            .expect("valid rule");
    }
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| {
        out.push((rule.0, inst.t_begin(), inst.t_end(), inst.observations()));
    };
    for &obs in &fx.stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out.sort();
    (out, engine.telemetry())
}

fn sharded_pass(program: &[(usize, usize)]) -> (Vec<Fingerprint>, rceda::TelemetrySnapshot) {
    let fx = fixture();
    let config = ShardConfig {
        shards: 2,
        residual_workers: 1,
        batch_size: 32,
        engine: engine_config(),
        ..ShardConfig::default()
    };
    let mut engine = ShardedEngine::new(fx.sim.catalog.clone(), config);
    for (pos, &(idx, w)) in program.iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), shape(idx, WINDOWS[w]))
            .expect("valid rule");
    }
    let mut out = Vec::new();
    for &obs in &fx.stream {
        engine.process(obs);
    }
    engine.finish(&mut |rule: RuleId, inst: &Instance| {
        out.push((rule.0, inst.t_begin(), inst.t_end(), inst.observations()));
    });
    out.sort();
    let snap = engine
        .telemetry()
        .expect("counters level reports telemetry");
    (out, snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Keyed sharding preserves both the firing multiset and the summed
    /// telemetry: node-for-node arena counts and the shard-sum-exact
    /// counter stats equal the single-engine run on the same stream.
    #[test]
    fn shard_merged_telemetry_equals_single_engine(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=4)
    ) {
        let (single_firings, single) = single_pass(&program);
        let (sharded_firings, sharded) = sharded_pass(&program);

        prop_assert_eq!(&single_firings, &sharded_firings, "firing multisets diverged");

        // Counter stats sum exactly across the partitioned streams — all
        // but `events`, which counts deliveries: a shard is not handed the
        // observations of readers none of its rules names.
        prop_assert!(sharded.stats.events <= single.stats.events);
        prop_assert!(sharded.stats.events >= sharded.stats.matched_events);
        prop_assert_eq!(single.stats.matched_events, sharded.stats.matched_events);
        prop_assert_eq!(single.stats.occurrences, sharded.stats.occurrences);
        prop_assert_eq!(single.stats.rule_firings, sharded.stats.rule_firings);
        prop_assert_eq!(single.stats.pseudo_scheduled, sharded.stats.pseudo_scheduled);
        prop_assert_eq!(single.stats.pseudo_fired, sharded.stats.pseudo_fired);

        // Every shard compiled the identical plan, so the merged arena
        // aligns node-for-node with the single engine's.
        prop_assert_eq!(
            single.ops.clone(),
            sharded.ops.clone(),
            "merged snapshot keeps the shared plan's op names"
        );
        prop_assert_eq!(single.nodes.len(), sharded.nodes.len());
        for node in 0..single.nodes.len() {
            let (mut one, mut merged) = (single.nodes.node(node), sharded.nodes.node(node));
            (one.prunes, merged.prunes) = (0, 0);
            prop_assert_eq!(
                one,
                merged,
                "node {} ({}) counters diverged",
                node,
                single.ops.get(node).copied().unwrap_or("?")
            );
        }
    }
}
