//! Window families ≡ unshared rules: a program of rules that differ only
//! in their `WITHIN` must fire exactly as if every rule kept its own
//! buffer and history.
//!
//! [`ExecMode::Plan`] coalesces such rules onto one state holder
//! (DESIGN.md "Window families"); the graph walker ([`ExecMode::Graph`])
//! never shares anything, so it is the oracle. The streams are keyed,
//! bursty, and full of equal timestamps — the cases where "oldest
//! compatible partner" and "window ends exclusively at the terminator"
//! are decided by a single comparison.
//!
//! The second half pins the plan's shape: admissible families collapse to
//! one holder, the `AND NOT` shape to one shared history with its per-rule
//! waits kept, and the two inadmissible shapes stay exactly as they were.

use std::collections::HashMap;

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, ExecMode, RuleId};
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};

type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

/// Shapes 0–2 are the admissible ones; 3 and 4 must lower unshared.
const SHAPES: usize = 5;

fn shape(idx: usize, window: Span) -> EventExpr {
    let keyed = |group: &str| {
        EventExpr::observation_in_group(group)
            .bind_reader("r")
            .bind_object("o")
    };
    let by_object = |group: &str| EventExpr::observation_in_group(group).bind_object("o");
    match idx {
        // Duplicate filter: keyed self-join.
        0 => keyed("g1").seq(keyed("g1")).within(window),
        // In-field filter: negated initiator over the terminator's pattern.
        1 => keyed("g1").not().seq(keyed("g1")).within(window),
        // AND NOT: a wait per rule over one negated pattern.
        2 => by_object("g1").and(by_object("g2").not()).within(window),
        // Two-sided join over distinct leaves: consumption is per member.
        3 => by_object("g1").seq(by_object("g2")).within(window),
        // Self-join with a minimum distance: an initiator too young for
        // one arrival can match a later one, so members diverge.
        4 => keyed("g1")
            .tseq(keyed("g1"), Span::from_millis(300), Span::from_secs(20))
            .within(window),
        _ => unreachable!("shape index out of pool"),
    }
}

fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.readers.register("a0", "g1", "floor");
    catalog.readers.register("a1", "g1", "floor");
    catalog.readers.register("b0", "g2", "gate");
    catalog.readers.register("b1", "g2", "gate");
    catalog
}

/// Windows and clock steps sit on one half-second lattice, so a pair's
/// interval lands exactly on a member's cut-off in most cases — the
/// comparison a family's fan-out turns on.
const TICK: u64 = 500;

fn window() -> impl Strategy<Value = u64> {
    (1u64..=16).prop_map(|ticks| ticks * TICK)
}

/// A stream step: which reader, which object, and how far the clock moves
/// before it (0 = same instant as the previous read).
fn steps() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    let gap = prop_oneof![
        Just(0u64),
        Just(0u64),
        Just(0u64),
        Just(TICK),
        Just(TICK),
        Just(TICK),
        (2u64..6).prop_map(|ticks| ticks * TICK),
        (6u64..20).prop_map(|ticks| ticks * TICK),
        1u64..400,
    ];
    proptest::collection::vec((0u32..4, 0u64..2, gap), 20..260)
}

fn stream(steps: &[(u32, u64, u64)]) -> Vec<Observation> {
    let mut at = 0;
    steps
        .iter()
        .map(|&(reader, object, gap)| {
            at += gap;
            let epc: Epc = Gid96::new(7, 1, object).expect("valid gid").into();
            Observation::new(ReaderId(reader), epc, Timestamp::from_millis(at))
        })
        .collect()
}

fn engine(mode: ExecMode, merge: bool, program: &[(usize, u64)]) -> Engine {
    let config = EngineConfig {
        exec: mode,
        merge_subgraphs: merge,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(catalog(), config);
    for (pos, &(idx, ms)) in program.iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), shape(idx, Span::from_millis(ms)))
            .expect("valid rule");
    }
    engine
}

fn run(
    mode: ExecMode,
    merge: bool,
    program: &[(usize, u64)],
    stream: &[Observation],
) -> (Vec<Fingerprint>, Vec<u64>) {
    let mut engine = engine(mode, merge, program);
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| {
        out.push((rule.0, inst.t_begin(), inst.t_end(), inst.observations()));
    };
    engine.process_all(stream.iter().copied(), &mut sink);
    out.sort();
    (out, engine.firings_per_rule().to_vec())
}

/// What the two family shapes mean, written out directly: the walker runs
/// the same arrival handlers as the plan (on families of one), so the cut
/// an emission is fanned out by needs an oracle that shares no code with
/// it. A duplicate rule fires when the previous read of the same
/// `(reader, object)` lies within its window; an in-field rule when no
/// earlier read of it lies in `[t - w, t)`. `None` for the other shapes.
fn model_counts(program: &[(usize, u64)], stream: &[Observation]) -> Vec<Option<u64>> {
    let g1 = |obs: &&Observation| obs.reader.0 < 2;
    program
        .iter()
        .map(|&(idx, w)| {
            let mut reads: HashMap<_, Vec<u64>> = HashMap::new();
            let mut fired = 0;
            for obs in stream.iter().filter(g1) {
                let t = obs.at.as_millis();
                let seen = reads.entry((obs.reader, obs.object)).or_default();
                fired += u64::from(match idx {
                    0 => seen.last().is_some_and(|&prev| t - prev <= w),
                    1 => !seen.iter().any(|&r| r >= t.saturating_sub(w) && r < t),
                    _ => return None,
                });
                seen.push(t);
            }
            Some(fired)
        })
        .collect()
}

fn assert_equivalent(program: &[(usize, u64)], stream: &[Observation]) {
    let model = model_counts(program, stream);
    for merge in [true, false] {
        let (shared, shared_counts) = run(ExecMode::Plan, merge, program, stream);
        let (reference, reference_counts) = run(ExecMode::Graph, merge, program, stream);
        for (rule, expected) in model.iter().enumerate() {
            if let Some(expected) = expected {
                assert_eq!(
                    shared_counts[rule], *expected,
                    "rule {rule} {:?} diverged from the model (merge={merge})",
                    program[rule]
                );
            }
        }
        assert_eq!(
            shared_counts, reference_counts,
            "per-rule firing counts diverged (merge={merge})"
        );
        assert_eq!(
            shared, reference,
            "firing multisets diverged (merge={merge})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One family of 2–40 members per case, any of the five shapes, windows
    /// drawn with repeats (equal cut-offs are members too).
    #[test]
    fn one_family_fires_like_unshared_rules(
        idx in 0usize..SHAPES,
        windows in proptest::collection::vec(window(), 2..=40),
        steps in steps(),
    ) {
        let program: Vec<(usize, u64)> = windows.iter().map(|&w| (idx, w)).collect();
        assert_equivalent(&program, &stream(&steps));
    }

    /// Several families interleaved in one program: the shelf shapes share
    /// a leaf pattern, so their deliveries ride one dispatch row.
    #[test]
    fn mixed_families_fire_like_unshared_rules(
        program in proptest::collection::vec((0usize..SHAPES, window()), 2..=40),
        steps in steps(),
    ) {
        assert_equivalent(&program, &stream(&steps));
    }
}

/// Windows of a five-rule family, out of order and with one repeat. With
/// merging on the repeat hash-conses onto the earlier rule's nodes, so the
/// family has four member nodes; with merging off, five.
const FIVE: [u64; 5] = [4_000, 1_500, 9_000, 1_500, 6_000];

fn five(idx: usize) -> Vec<(usize, u64)> {
    FIVE.iter().map(|&w| (idx, w)).collect()
}

/// `nodes` without repeats, first occurrences kept in order.
fn distinct(nodes: Vec<rceda::graph::NodeId>) -> Vec<rceda::graph::NodeId> {
    let mut out = Vec::new();
    for n in nodes {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

#[test]
fn self_join_family_collapses_to_one_holder() {
    for merge in [true, false] {
        let mut engine = engine(ExecMode::Plan, merge, &five(0));
        let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
        let program = engine.program();
        let plan = program.plan();
        let families: Vec<_> = plan.families().collect();
        assert_eq!(families.len(), 1, "one family (merge={merge})");
        let (holder, members) = families[0];
        assert_eq!(
            holder, roots[0],
            "state stays at the first-registered member"
        );
        assert!(roots.iter().all(|&r| plan.holder(r) == holder));
        let cuts: Vec<u64> = members.iter().map(|m| m.cutoff.as_millis()).collect();
        let mut expected = vec![1_500, 1_500, 4_000, 6_000, 9_000];
        if merge {
            expected.dedup();
        }
        assert_eq!(cuts, expected);
        assert!(program.shared_histories().is_empty());
    }
}

#[test]
fn negation_query_family_collapses_to_one_holder_and_one_history() {
    for merge in [true, false] {
        let mut engine = engine(ExecMode::Plan, merge, &five(1));
        let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
        let recorders = distinct(
            roots
                .iter()
                .map(|&r| engine.graph().node(r).children[0])
                .collect(),
        );
        let program = engine.program();
        let plan = program.plan();
        let families: Vec<_> = plan.families().collect();
        assert_eq!(families.len(), 1, "one family (merge={merge})");
        assert_eq!(families[0].0, roots[0]);
        assert_eq!(families[0].1.len(), recorders.len());
        let histories = program.shared_histories();
        assert_eq!(histories.len(), 1, "one history (merge={merge})");
        assert_eq!(histories[0], (recorders[0], recorders.clone()));
    }
}

#[test]
fn and_not_shares_the_history_and_keeps_the_waits() {
    for merge in [true, false] {
        let mut engine = engine(ExecMode::Plan, merge, &five(2));
        let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
        let recorders = distinct(
            roots
                .iter()
                .map(|&r| engine.graph().node(r).children[1])
                .collect(),
        );
        let program = engine.program();
        let plan = program.plan();
        assert_eq!(plan.families().count(), 0, "waits stay per rule");
        assert!(roots.iter().all(|&r| plan.holder(r) == r));
        assert_eq!(
            program.shared_histories(),
            vec![(recorders[0], recorders.clone())]
        );
    }
}

#[test]
fn inadmissible_shapes_lower_unshared() {
    for idx in [3, 4] {
        for merge in [true, false] {
            let mut engine = engine(ExecMode::Plan, merge, &five(idx));
            let nodes = engine.graph().len() as u32;
            let program = engine.program();
            let plan = program.plan();
            assert_eq!(plan.families().count(), 0, "shape {idx} merge={merge}");
            assert!(program.shared_histories().is_empty());
            assert!((0..nodes).all(|n| {
                let node = rceda::graph::NodeId(n);
                plan.holder(node) == node
            }));
        }
    }
}

/// The reference walker never shares, whatever the program.
#[test]
fn walker_plan_is_unshared() {
    let mut engine = engine(ExecMode::Graph, true, &five(0));
    let plan = engine.compiled_plan();
    assert_eq!(plan.families().count(), 0);
}
