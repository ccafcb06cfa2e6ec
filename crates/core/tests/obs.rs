//! Observability layer: firing-neutrality, reset semantics, provenance
//! pinning, and sharded telemetry invariants.
//!
//! The contract under test (DESIGN.md §15): observation is *read-only*
//! with respect to detection — the firing multiset is identical at every
//! `ObserveLevel` — and `Engine::reset` returns the whole observability
//! state (arena, histograms, flight recorder) to a fresh engine's, not
//! just the stats block.

mod differential;
mod support;

use differential::{fingerprint, Fingerprint};
use rceda::explain::{render_firing, render_instance};
use rceda::{
    Engine, EngineConfig, ObserveLevel, RuleId, ShardConfig, ShardedEngine, TelemetrySnapshot,
};
use rfid_epc::{Epc, Gid96};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};

fn sim_rules() -> Vec<(&'static str, EventExpr)> {
    let keyed = |group: &str| EventExpr::observation_in_group(group).bind_object("o");
    vec![
        (
            "dup",
            EventExpr::observation()
                .bind_reader("r")
                .bind_object("o")
                .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
                .within(Span::from_secs(5)),
        ),
        (
            "missing",
            keyed("pos")
                .and(keyed("exits").not())
                .within(Span::from_secs(30)),
        ),
        (
            "move",
            keyed("docks").seq(keyed("pos")).within(Span::from_secs(30)),
        ),
        (
            "burst",
            EventExpr::observation_in_group("shelves")
                .tseq_plus(Span::ZERO, Span::from_millis(1_500))
                .within(Span::from_secs(30)),
        ),
    ]
}

fn engine_with(level: ObserveLevel, sim: &SupplyChain) -> Engine {
    let config = EngineConfig {
        observe: level,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(sim.catalog.clone(), config);
    for (name, event) in sim_rules() {
        engine.add_rule(name, event).expect("valid rule");
    }
    engine
}

fn run_stream(engine: &mut Engine, stream: &[Observation]) -> Vec<Fingerprint> {
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| out.push(fingerprint(rule, inst));
    for &obs in stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out.sort();
    out
}

#[test]
fn observe_levels_do_not_change_firings() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(3_000).observations;

    let mut baseline = None;
    for level in [
        ObserveLevel::Off,
        ObserveLevel::Counters,
        ObserveLevel::Full,
    ] {
        let mut engine = engine_with(level, &sim);
        let firings = run_stream(&mut engine, &stream);
        assert!(!firings.is_empty(), "workload fires at {}", level.name());
        match &baseline {
            None => baseline = Some(firings),
            Some(expected) => assert_eq!(
                &firings,
                expected,
                "firing multiset changed at level {}",
                level.name()
            ),
        }
    }
}

#[test]
fn counters_level_populates_the_arena_and_off_does_not() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(2_000).observations;

    let mut off = engine_with(ObserveLevel::Off, &sim);
    run_stream(&mut off, &stream);
    let snap = off.telemetry();
    let total_arrivals: u64 = (0..snap.nodes.len())
        .map(|i| snap.nodes.node(i).arrivals)
        .sum();
    assert_eq!(total_arrivals, 0, "Off must not touch the arena");

    let mut counters = engine_with(ObserveLevel::Counters, &sim);
    run_stream(&mut counters, &stream);
    let snap = counters.telemetry();
    let total_arrivals: u64 = (0..snap.nodes.len())
        .map(|i| snap.nodes.node(i).arrivals)
        .sum();
    assert!(total_arrivals > 0, "Counters records arrivals");
    assert_eq!(snap.ops.len(), snap.nodes.len(), "ops align with the arena");
    assert!(snap.latency_ns.is_empty(), "latency histogram is Full-only");

    let mut full = engine_with(ObserveLevel::Full, &sim);
    run_stream(&mut full, &stream);
    let snap = full.telemetry();
    assert!(
        !snap.latency_ns.is_empty(),
        "Full records per-event latency"
    );
    assert!(!snap.occupancy.is_empty(), "Full samples buffer occupancy");
    assert!(!full.flight().is_empty(), "Full records firing provenance");
}

/// The satellite fix: `reset` must also clear per-node observability
/// state, so stats *and* telemetry after a reset equal a fresh engine's.
#[test]
fn reset_equals_fresh_engine_telemetry() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(2_000).observations;

    for level in [ObserveLevel::Counters, ObserveLevel::Full] {
        let mut reset_engine = engine_with(level, &sim);
        run_stream(&mut reset_engine, &stream);
        assert!(reset_engine.stats().events > 0);
        reset_engine.reset();

        // Immediately after reset: nothing recorded anywhere.
        let blank = reset_engine.telemetry();
        let moved: u64 = (0..blank.nodes.len())
            .map(|i| {
                let n = blank.nodes.node(i);
                n.arrivals + n.probes + n.admissions + n.prunes + n.firings
            })
            .sum();
        assert_eq!(moved, 0, "arena cleared at {}", level.name());
        assert!(blank.latency_ns.is_empty(), "latency cleared");
        assert!(blank.occupancy.is_empty(), "occupancy cleared");
        assert_eq!(reset_engine.flight().len(), 0, "flight ring cleared");
        assert_eq!(reset_engine.flight().seen(), 0, "firing sequence cleared");

        // Replaying the stream after reset matches a fresh engine exactly.
        let reset_firings = run_stream(&mut reset_engine, &stream);
        let mut fresh_engine = engine_with(level, &sim);
        let fresh_firings = run_stream(&mut fresh_engine, &stream);
        assert_eq!(reset_firings, fresh_firings);

        let replay = reset_engine.telemetry();
        let fresh = fresh_engine.telemetry();
        assert_eq!(replay.stats, fresh.stats, "stats equal at {}", level.name());
        assert_eq!(replay.nodes, fresh.nodes, "arena equal at {}", level.name());
        assert_eq!(replay.occupancy, fresh.occupancy, "occupancy equal");
        assert_eq!(
            reset_engine.flight().seen(),
            fresh_engine.flight().seen(),
            "flight sequence equal"
        );
        // Latency histograms are wall-clock samples — count matches, the
        // timings themselves legitimately vary run to run.
        assert_eq!(replay.latency_ns.count, fresh.latency_ns.count);
    }
}

/// Pinned provenance for a Rule 4 chronicle (aggregation) firing:
/// `TSEQ(TSEQ+(conv); caser, [0, 3 s])` — cases move down a conveyor,
/// then the completed run is caught at the casing station. The flight
/// record must chain the firing back through the `TSEQ+` run to every
/// constituent conveyor observation, and the rendered derivation must
/// show that chain.
#[test]
fn flight_recorder_pins_a_chronicle_derivation() {
    let mut catalog = Catalog::new();
    let conv = catalog.readers.register("conv0", "conveyor", "line-1");
    let caser = catalog.readers.register("caser0", "caser", "line-1");
    let case = Epc::from(Gid96::new(1, 7, 1).expect("valid gid"));

    let rule = EventExpr::observation_at("conv0")
        .tseq_plus(Span::ZERO, Span::from_secs(2))
        .tseq(
            EventExpr::observation_at("caser0"),
            Span::ZERO,
            Span::from_secs(3),
        )
        .within(Span::from_secs(60));

    let config = EngineConfig {
        observe: ObserveLevel::Full,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(catalog, config);
    let aggregate = engine.add_rule("aggregation", rule).expect("valid rule");

    let at = |secs: u64| Timestamp::from_secs(secs);
    let mut firings = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| firings.push((rule, inst.clone()));
    for obs in [
        Observation::new(conv, case, at(1)),
        Observation::new(conv, case, at(2)),
        Observation::new(conv, case, at(3)),
        Observation::new(caser, case, at(4)),
    ] {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);

    assert_eq!(firings.len(), 1, "exactly one aggregation firing");
    assert_eq!(firings[0].0, aggregate);

    let records: Vec<_> = engine.flight().records().collect();
    assert_eq!(records.len(), 1, "one flight record for one firing");
    let rec = records[0];
    assert_eq!(rec.rule, aggregate);
    assert_eq!(rec.seq, 0, "first firing in the engine's sequence");
    assert_eq!(
        *rec.inst, firings[0].1,
        "the recorded instance is the emitted instance"
    );

    // The derivation chain: TSEQ root over [1 s, 4 s] with the TSEQ+ run
    // (three conveyor observations) as its first constituent and the
    // caser observation as its second.
    let inst = &rec.inst;
    assert_eq!(inst.t_begin(), at(1));
    assert_eq!(inst.t_end(), at(4));
    let obs = inst.observations();
    assert_eq!(obs.len(), 4, "three conveyor reads plus the caser read");
    assert_eq!(
        obs[..3].iter().map(|o| o.reader).collect::<Vec<_>>(),
        vec![conv; 3]
    );
    assert_eq!(obs[3].reader, caser);

    let rendered = render_firing(engine.rule_name(rec.rule), rec);
    assert!(
        rendered.starts_with("firing #0 — rule `aggregation`"),
        "header names the rule: {rendered}"
    );
    assert!(
        rendered.contains("TSEQ+"),
        "derivation shows the run: {rendered}"
    );
    assert_eq!(
        rendered.matches("obs ").count(),
        4,
        "all four observations appear: {rendered}"
    );
    // The standalone instance renderer shows the same tree minus header.
    let tree = render_instance(inst);
    assert!(
        rendered.ends_with(&tree),
        "firing body is the instance tree"
    );
}

/// Sharded telemetry invariants on a deterministic run: partitions report
/// labelled snapshots, the merged snapshot carries the coordinator's
/// stats, and the queue-depth histogram records exactly one sample per
/// flushed batch.
#[test]
fn sharded_telemetry_merges_and_samples_queue_depth() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(2_000).observations;

    let config = ShardConfig {
        shards: 2,
        residual_workers: 1,
        batch_size: 16,
        engine: EngineConfig {
            observe: ObserveLevel::Counters,
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    };
    let mut engine = ShardedEngine::new(sim.catalog.clone(), config);
    for (name, event) in sim_rules() {
        engine.add_rule(name, event).expect("valid rule");
    }
    let mut firings = 0u64;
    for &obs in &stream {
        engine.process(obs);
    }
    engine.finish(&mut |_rule: RuleId, _inst: &Instance| firings += 1);
    assert!(firings > 0);

    for snap in engine.worker_telemetry() {
        let snap = snap.as_ref().expect("every partition observes");
        assert!(
            snap.label.starts_with("shard-") || snap.label.starts_with("residual-"),
            "partition snapshots carry partition labels, got `{}`",
            snap.label
        );
    }

    let merged: TelemetrySnapshot = engine.telemetry().expect("telemetry at Counters");
    assert_eq!(merged.label, "sharded");
    assert_eq!(
        merged.stats,
        engine.stats(),
        "merged stats are the coordinator's"
    );
    assert_eq!(
        merged.queue_depth.count, merged.stats.batches,
        "one queue-depth sample per flushed batch"
    );
    assert!(merged.queue_depth.count > 0, "the stream actually batched");
    let arena_total: u64 = (0..merged.nodes.len())
        .map(|i| merged.nodes.node(i).arrivals)
        .sum();
    assert!(arena_total > 0 || merged.nodes.is_empty());
}

/// Telemetry with observability off still reports stats (they are always
/// maintained), and the sharded engine reports no telemetry at all.
#[test]
fn off_level_keeps_exports_cheap_but_stats_live() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(500).observations;

    let mut engine = engine_with(ObserveLevel::Off, &sim);
    run_stream(&mut engine, &stream);
    let snap = engine.telemetry();
    assert!(snap.stats.events > 0);
    let jsonl = snap.to_jsonl();
    assert!(jsonl.starts_with("{\"label\":\"engine\""));
    assert!(!jsonl.contains('\n'), "JSONL is one line");
    assert!(snap.to_prometheus().contains("rceda_events_total"));

    let mut sharded = ShardedEngine::new(sim.catalog.clone(), ShardConfig::default());
    for (name, event) in sim_rules() {
        sharded.add_rule(name, event).expect("valid rule");
    }
    for &obs in &stream {
        sharded.process(obs);
    }
    sharded.finish(&mut |_rule: RuleId, _inst: &Instance| {});
    assert!(
        sharded.telemetry().is_none(),
        "no telemetry when workers run with observe off"
    );
}

/// A window family's telemetry says who did what: the one probe per
/// observation is the holder's, and every member's own node keeps the
/// firings of its own rule — what `rceda-obs snapshot` prints per node.
#[test]
fn window_family_probes_land_on_the_holder_and_firings_on_the_members() {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(3_000).observations;
    let config = EngineConfig {
        observe: ObserveLevel::Counters,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(sim.catalog.clone(), config);
    let shelf = || {
        EventExpr::observation_in_group("shelves")
            .bind_reader("r")
            .bind_object("o")
    };
    let roots: Vec<_> = [5, 40, 20]
        .into_iter()
        .map(|secs| {
            let dup = shelf().seq(shelf()).within(Span::from_secs(secs));
            let rule = engine.add_rule(&format!("dup{secs}"), dup).unwrap();
            engine.rule_root(rule)
        })
        .collect();
    run_stream(&mut engine, &stream);

    let per_rule = engine.firings_per_rule().to_vec();
    assert!(per_rule[0] > 0, "{per_rule:?}");
    assert!(
        per_rule[0] <= per_rule[2] && per_rule[2] < per_rule[1],
        "{per_rule:?}"
    );
    let snap = engine.telemetry();
    let node = |n: rceda::NodeId| snap.nodes.node(n.0 as usize);
    assert!(node(roots[0]).probes > 0, "the holder probes");
    assert_eq!(node(roots[0]).probes, node(roots[0]).admissions);
    for (rule, &root) in roots.iter().enumerate() {
        assert_eq!(node(root).firings, per_rule[rule], "rule {rule}");
        assert_eq!(node(root).arrivals, per_rule[rule], "rule {rule}");
        if rule > 0 {
            assert_eq!((node(root).probes, node(root).admissions), (0, 0));
        }
    }
}
