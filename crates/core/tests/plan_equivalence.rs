//! Compiled plan ≡ graph walker: for any rule program drawn from the
//! paper's rule shapes and a realistic simulator trace, the plan executor
//! ([`ExecMode::Plan`]) must emit exactly the same multiset of rule
//! firings — and the same counters — as the graph-walker reference
//! ([`ExecMode::Graph`]). This is the differential harness the lowering's
//! order-preservation argument (DESIGN.md §13) is checked against,
//! including the in-field twin-leaf fusion, the NFA-encoded `TSEQ+` runs,
//! and the negation-wait pseudo events.
//!
//! It is also the harness behind the bounds solver's soundness argument
//! (DESIGN.md §14): the plan executor evicts at the solved per-node
//! retention, the walker at the conservative `max_lag`-padded horizon, so
//! equal firings mean the solved bounds only discard state no future
//! arrival could pair with. The lag-inflator shape keeps the two policies
//! far apart: with it in the program the walker retains everything for a
//! day while the plan's other buffers still die at their own windows.

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, ExecMode, RuleId};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};
use std::sync::OnceLock;

/// A firing fingerprint that identifies an occurrence independently of
/// emission order: rule, instance window, and constituent observations.
type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// The rule-shape pool: every plan variant the lowering distinguishes,
/// parameterized by the detection window so different draws stress
/// different buffer and pruning regimes.
const SHAPES: usize = 9;
const WINDOWS: [Span; 3] = [Span::from_secs(2), Span::from_secs(5), Span::from_secs(30)];

fn shape(idx: usize, window: Span) -> EventExpr {
    let shelf = || EventExpr::observation_in_group("shelves").bind_object("o");
    match idx {
        // Self-join duplicate filter (SelfJoin edges).
        0 => EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(window),
        // In-field filtering: the twin-leaf `QueryRecord` fusion.
        1 => shelf().not().seq(shelf()).within(window),
        // AND with right-side negation (pseudo events on window close).
        2 => EventExpr::observation_in_group("pos")
            .bind_object("o")
            .and(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Keyless chronicle join (TwoSided, trivial key).
        3 => EventExpr::observation_in_group("docks")
            .seq(EventExpr::observation_in_group("pos"))
            .within(window),
        // Global timed run (TimedAperiodic + CloseRun pseudo events).
        4 => EventExpr::observation_in_group("shelves")
            .tseq_plus(Span::ZERO, Span::from_millis(1_500))
            .within(window),
        // Right-side negation wait (anchor + window close).
        5 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Aperiodic drain (LeftAperiodicQuery / AperiodicRecorder).
        6 => EventExpr::observation_in_group("shelves")
            .seq_plus()
            .seq(EventExpr::observation_in_group("docks"))
            .within(window),
        // Keyed two-sided join across groups (Left/Right edges).
        7 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(EventExpr::observation_in_group("pos").bind_object("o"))
            .within(window),
        // Lag inflator: a day-long `TSEQ+` gap (its own window, whatever
        // the draw) poisons the graph-wide `max_lag` the walker pads with.
        8 => EventExpr::observation_in_group("exits")
            .tseq_plus(Span::ZERO, Span::from_secs(24 * 3_600))
            .within(Span::from_secs(48 * 3_600)),
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
        let stream = sim.generate(2_000).observations;
        Fixture { sim, stream }
    })
}

fn run(
    mode: ExecMode,
    merge: bool,
    program: &[(usize, usize)],
) -> (Vec<Fingerprint>, rceda::EngineStats) {
    let fx = fixture();
    let config = EngineConfig {
        exec: mode,
        merge_subgraphs: merge,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(fx.sim.catalog.clone(), config);
    for (pos, &(idx, w)) in program.iter().enumerate() {
        let name = format!("r{pos}");
        engine
            .add_rule(&name, shape(idx, WINDOWS[w]))
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
    (out, engine.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any program of up to five rules drawn from the shape pool fires
    /// identically under both executors, and the shared counters agree —
    /// `occurrences` included, under both kinds of sharing: a coalesced
    /// leaf counts the pops it absorbs (`extra_pops`), and a window family
    /// (two draws of shape 0 or 1 with different windows) delivers each
    /// emission at every member's own node, one pop per member it reaches,
    /// exactly the pops the unshared walker makes. Runs with subgraph
    /// merging both on (the engine default; exercises the merged-leaf
    /// `RecordQuery` fusion) and off (the A1 ablation; exercises the
    /// twin-leaf `QueryRecord` fusion).
    #[test]
    fn plan_and_graph_walker_fire_identically(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=5)
    ) {
        for merge in [true, false] {
            let (plan_firings, plan_stats) = run(ExecMode::Plan, merge, &program);
            let (graph_firings, graph_stats) = run(ExecMode::Graph, merge, &program);
            prop_assert_eq!(
                plan_firings,
                graph_firings,
                "firing multisets diverged (merge={})",
                merge
            );
            for field in [
                "events",
                "matched_events",
                "pseudo_scheduled",
                "pseudo_fired",
                "occurrences",
                "rule_firings",
                "capacity_drops",
            ] {
                prop_assert_eq!(
                    plan_stats.get(field),
                    graph_stats.get(field),
                    "counter `{}` diverged between executors (merge={})",
                    field,
                    merge
                );
            }
        }
    }
}
