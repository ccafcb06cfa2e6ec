//! Window families ≡ unshared rules: a program of rules that differ only
//! in their `WITHIN` must fire exactly as if every rule kept its own
//! buffer and history.
//!
//! The plan coalesces such rules onto one state holder (DESIGN.md "Window
//! families"); the reference interpreter (`support/reference.rs`) matches
//! every rule on its own tree and shares nothing, so it is the oracle. The
//! streams are keyed, bursty, and full of equal timestamps — the cases
//! where "oldest compatible partner" and "window ends exclusively at the
//! terminator" are decided by a single comparison.
//!
//! The second half pins the plan's shape: admissible families collapse to
//! one holder, the `AND NOT` shape to one `NOT` node with its per-rule
//! waits kept, and the inadmissible shapes stay exactly as they were.

mod differential;
mod support;

use std::sync::Arc;

use differential::{Case, Feed};
use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId, PROCESS_ALL_BATCH};
use rceda::ObserveLevel;
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};

/// Shapes 0–2 are the admissible ones; 3, 4, 6 and 9 must lower unshared,
/// and 5 shares its `NOT` node the way 2 does. Shapes 5 and 6 put the two
/// remaining boundary decisions on the lattice: whether an out-field
/// initiator blocks itself, and whether a `TSEQ+` gap of exactly `τl` or
/// `τu` extends the run. Shapes 7 and 8 are 0 and 1 spelled with the
/// initiator under an inner `WITHIN` shorter than any drawn window; it
/// admits every observation, so the initiator is the terminator's leaf and
/// the two lower like 0 and 1. Shape 9 is a `TSEQ` whose terminator is a
/// `SEQ`: its initiators retire one maximum distance after they end, which
/// the lattice puts on both sides of the drawn windows.
const SHAPES: usize = 10;

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
        // Out-field filter: the initiator matches the pattern it negates.
        5 => keyed("g1").seq(keyed("g1").not()).within(window),
        // Timed run whose gap bounds are one and two ticks.
        6 => EventExpr::observation_in_group("g1")
            .tseq_plus(Span::from_millis(TICK), Span::from_millis(2 * TICK))
            .within(window),
        7 => keyed("g1").within(INNER).seq(keyed("g1")).within(window),
        8 => keyed("g1")
            .within(INNER)
            .not()
            .seq(keyed("g1"))
            .within(window),
        9 => by_object("g1")
            .tseq(
                by_object("g1").seq(by_object("g2")),
                Span::ZERO,
                Span::from_millis(3 * TICK),
            )
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
const INNER: Span = Span::from_millis(TICK / 2);

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

fn rules(program: &[(usize, u64)]) -> Vec<EventExpr> {
    let rule = |&(idx, ms): &(usize, u64)| shape(idx, Span::from_millis(ms));
    program.iter().map(rule).collect()
}

fn engine(program: &[(usize, u64)]) -> Engine {
    let named = rules(program);
    let named = named.iter().map(|rule| ("rule", rule));
    Engine::with_rules(catalog(), EngineConfig::default(), named).expect("valid rules")
}

fn assert_equivalent(program: &[(usize, u64)], stream: &[Observation]) {
    let catalog = catalog();
    let case = Case::new(&catalog, rules(program), stream);
    let (fired, engine) = case.run(Feed::Chunks(PROCESS_ALL_BATCH), ObserveLevel::Off);
    let mut counts = vec![0u64; program.len()];
    for &(rule, _) in &fired {
        counts[rule as usize] += 1;
    }
    assert_eq!(
        engine.firings_per_rule(),
        counts,
        "per-rule firing counts diverged"
    );
    case.check(&fired);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One family of 2–40 members per case, any of the ten shapes, windows
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

/// Windows of a five-rule family, out of order and with one repeat, which
/// hash-conses onto the earlier rule's nodes: the family has four member
/// nodes.
const FIVE: [u64; 5] = [4_000, 1_500, 9_000, 1_500, 6_000];

fn five(idx: usize) -> Vec<(usize, u64)> {
    FIVE.iter().map(|&w| (idx, w)).collect()
}

/// `nodes` without repeats, first occurrences kept in order.
fn distinct(nodes: Vec<rceda::NodeId>) -> Vec<rceda::NodeId> {
    let mut out = Vec::new();
    for n in nodes {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

/// What one emission delivers: every reached member fires, widest first,
/// each with its own occurrence — an in-field member with the absence
/// witness of its own window, a self-join member the one pair — under
/// every observe level, and each flight record keeps what its firing
/// delivered. In the third program the in-field root also feeds a parent:
/// the one member whose occurrence a family emission builds on the heap.
#[test]
fn a_family_emission_fires_each_member_with_its_own_occurrence() {
    let read = |reader: u32, ms: u64| {
        let epc: Epc = Gid96::new(7, 1, 0).expect("valid gid").into();
        Observation::new(ReaderId(reader), epc, Timestamp::from_millis(ms))
    };
    let (first, second, gate) = (read(0, 20_000), read(0, 22_000), read(2, 22_000));
    let leaf = |o: Observation| Arc::new(Instance::observation(o));
    let absent = |window: u64| {
        let witness = Instance::absence(Timestamp::from_millis(20_000 - window), first.at);
        Instance::pair("SEQ", Arc::new(witness), leaf(first))
    };
    let pair = Instance::pair("SEQ", leaf(first), leaf(second));
    let fed = shape(1, Span::from_millis(4_000))
        .seq(EventExpr::observation_in_group("g2").bind_object("o"))
        .within(Span::from_millis(10_000));
    // Rules 1 and 3 of `five` share the 1.5 s node.
    let programs = [
        (
            rules(&five(1)),
            vec![first],
            vec![
                (2, absent(9_000)),
                (4, absent(6_000)),
                (0, absent(4_000)),
                (1, absent(1_500)),
                (3, absent(1_500)),
            ],
        ),
        (
            rules(&five(0)),
            vec![first, second],
            vec![(2, pair.clone()), (4, pair.clone()), (0, pair)],
        ),
        (
            vec![shape(1, Span::from_millis(4_000)), fed],
            vec![first, gate],
            vec![
                (0, absent(4_000)),
                (
                    1,
                    Instance::pair("SEQ", Arc::new(absent(4_000)), leaf(gate)),
                ),
            ],
        ),
    ];
    let catalog = catalog();
    for (rules, stream, expected) in programs {
        let case = Case::new(&catalog, rules, &stream);
        for observe in [
            ObserveLevel::Off,
            ObserveLevel::Counters,
            ObserveLevel::Full,
        ] {
            let (fired, engine) = case.run(Feed::Chunks(PROCESS_ALL_BATCH), observe);
            assert_eq!(fired, expected, "under {observe:?}");
            case.check(&fired);
            let record = |r: &rceda::FlightRecord| (r.rule.0, Instance::clone(&r.inst));
            let flight: Vec<_> = engine.flight().records().map(record).collect();
            let kept = if observe == ObserveLevel::Full {
                expected.clone()
            } else {
                Vec::new()
            };
            assert_eq!(flight, kept, "flight under {observe:?}");
        }
    }
}

#[test]
fn self_join_family_collapses_to_one_holder() {
    let mut engine = engine(&five(0));
    let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
    let program = engine.program();
    let plan = program.plan();
    let families: Vec<_> = plan.families().collect();
    assert_eq!(families.len(), 1, "one family");
    let (holder, members) = families[0];
    assert_eq!(
        holder, roots[0],
        "state stays at the first-registered member"
    );
    assert!(roots.iter().all(|&r| plan.holder(r) == holder));
    let cuts: Vec<u64> = members.iter().map(|m| m.cutoff.as_millis()).collect();
    assert_eq!(cuts, [1_500, 4_000, 6_000, 9_000]);
}

#[test]
fn negation_query_family_collapses_to_one_holder_and_one_history() {
    for idx in [1, 8] {
        let mut engine = engine(&five(idx));
        let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
        let recorders = distinct(
            roots
                .iter()
                .map(|&r| engine.graph().node(r).children[0])
                .collect(),
        );
        assert_eq!(recorders.len(), 1, "one NOT node (shape {idx})");
        let program = engine.program();
        let plan = program.plan();
        let families: Vec<_> = plan.families().collect();
        assert_eq!(families.len(), 1, "one family (shape {idx})");
        assert_eq!(families[0].0, roots[0]);
        assert_eq!(families[0].1.len(), distinct(roots).len());
    }
}

#[test]
fn and_not_shares_the_history_and_keeps_the_waits() {
    for idx in [2, 5] {
        let mut engine = engine(&five(idx));
        let roots: Vec<_> = (0..5).map(|r| engine.rule_root(RuleId(r))).collect();
        let recorders = distinct(
            roots
                .iter()
                .map(|&r| engine.graph().node(r).children[1])
                .collect(),
        );
        assert_eq!(recorders.len(), 1, "one NOT node (shape {idx})");
        let plan = engine.program().plan();
        assert_eq!(plan.families().count(), 0, "waits stay per rule");
        assert!(roots.iter().all(|&r| plan.holder(r) == r));
    }
}

#[test]
fn inadmissible_shapes_lower_unshared() {
    for idx in [3, 4, 6, 9] {
        let mut engine = engine(&five(idx));
        let nodes = engine.graph().len() as u32;
        let program = engine.program();
        let plan = program.plan();
        assert_eq!(plan.families().count(), 0, "shape {idx}");
        assert!((0..nodes).all(|n| {
            let node = rceda::NodeId(n);
            plan.holder(node) == node
        }));
    }
}

#[test]
fn an_inner_window_on_the_initiator_lowers_like_none() {
    for (twin, plain) in [(7, 0), (8, 1)] {
        let lowered = |idx| engine(&five(idx)).program().describe_plan();
        assert_eq!(lowered(twin), lowered(plain), "shape {twin}");
    }
}
