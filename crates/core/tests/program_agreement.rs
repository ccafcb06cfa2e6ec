//! The consumers of a compiled [`Program`] agree: what lint note N003
//! reports is what the engine executes, the shard coordinator's verdicts
//! and partitions over the merged program are the per-rule ones, and the
//! cost model is solved once per rule-set change.

use rceda::analyze::DiagCode;
use rceda::shard::{partition_rules, shardability, ResidualReason, Shardability};
use rceda::{Engine, EngineConfig, Program, RuleEvent, RuleId};
use rfid_events::{Catalog, EventExpr, Span};
use rfid_rules::{lint_script, rule_events};
use rfid_simulator::{SimConfig, SupplyChain};

/// The canonical 517-rule program, the Rule 1–5 program, and the lint
/// corpus' window-family program (over the corpus' two-reader deployment).
fn programs() -> Vec<(&'static str, String, Catalog)> {
    let canonical = SupplyChain::build(SimConfig::paper_scale());
    let rules_1_5 = SupplyChain::build(SimConfig::default());
    let mut corpus = Catalog::new();
    corpus.readers.register("r1", "g1", "dock-a");
    corpus.readers.register("r2", "g1", "dock-b");
    let families = include_str!("../../rules/tests/lint_corpus/n003_window_family.rule");
    vec![
        ("canonical", canonical.rule_set(), canonical.catalog),
        ("rules-1-5", rules_1_5.rule_set(), rules_1_5.catalog),
        ("n003_window_family", families.to_owned(), corpus),
    ]
}

fn engine_of(rules: &[RuleEvent], catalog: &Catalog) -> Engine {
    let rules = rules.iter().map(|r| (r.name.as_str(), &r.event));
    Engine::with_rules(catalog.clone(), EngineConfig::default(), rules).unwrap()
}

/// (a) The families and shared histories N003 reports are the engine's.
#[test]
fn n003_reports_the_engines_plan() {
    let mut families_seen = 0;
    for (name, script, catalog) in programs() {
        let rules = rule_events(&script).expect("script compiles");
        let mut engine = engine_of(&rules, &catalog);
        let program = engine.program();
        let linted = Program::compile(Some(&catalog), rules.iter().cloned());
        assert_eq!(
            program.describe_plan(),
            linted.describe_plan(),
            "{name}: lint and the engine lower the same plan"
        );

        let report = lint_script(&script, Some(&catalog)).expect("script parses");
        let notes: Vec<&str> = (report.diagnostics.iter())
            .filter(|d| d.code == DiagCode::WindowFamily)
            .map(|d| d.message.as_str())
            .collect();
        let (family_notes, history_notes): (Vec<&str>, Vec<&str>) =
            notes.iter().partition(|m| m.starts_with("window family"));

        let plan = program.plan();
        let families: Vec<_> = plan.families().collect();
        assert_eq!(family_notes.len(), families.len(), "{name}: {notes:?}");
        let mut read_by_family = Vec::new();
        for (holder, members) in families {
            let node = program.graph().node(holder);
            let at = format!(" at {} node {}: ", node.kind.name(), holder.0);
            let note = family_notes.iter().find(|m| m.contains(&at));
            let note = note.unwrap_or_else(|| panic!("{name}: no note{at}in {notes:?}"));
            for m in members {
                for r in program.rules_at(m.node) {
                    let listed = format!("`{}` ({})", rules[r.0 as usize].id, m.cutoff);
                    assert!(note.contains(&listed), "{name}: {listed} not in {note}");
                }
            }
            read_by_family.push(plan.holder(node.children[0]));
            families_seen += 1;
        }
        // A history a reported family reads is described by that family's
        // note; every other one gets its own.
        let histories = program.shared_histories();
        let unread = |(h, _): &&(_, _)| !read_by_family.contains(h);
        let unread: Vec<_> = histories.iter().filter(unread).collect();
        assert_eq!(history_notes.len(), unread.len(), "{name}: {notes:?}");
        for (holder, served) in unread {
            let at = format!(
                "shared NOT history at node {}: {} NOT nodes",
                holder.0,
                served.len()
            );
            assert!(history_notes.iter().any(|m| m.starts_with(&at)), "{name}");
        }
    }
    assert!(families_seen > 0, "the corpus program has a family");
}

/// The shapes of `shard::tests::analysis_classifies_canonical_shapes`.
fn canonical_shapes() -> Vec<(EventExpr, Shardability)> {
    let any = EventExpr::observation;
    let at = EventExpr::observation_at;
    let keyless = Shardability::Residual(ResidualReason::KeylessJoin);
    vec![
        (
            any()
                .bind_reader("r")
                .bind_object("o")
                .seq(any().bind_reader("r").bind_object("o"))
                .within(Span::from_secs(5)),
            Shardability::Object,
        ),
        (
            any()
                .bind_object("o")
                .not()
                .seq(any().bind_object("o"))
                .within(Span::from_secs(30)),
            Shardability::Object,
        ),
        (at("r0").seq(at("r1")).within(Span::from_secs(10)), keyless),
        (
            any()
                .bind_reader("r")
                .seq(any().bind_reader("r"))
                .within(Span::from_secs(10)),
            keyless,
        ),
        (
            at("r0")
                .tseq_plus(Span::ZERO, Span::from_secs(1))
                .within(Span::from_secs(60)),
            Shardability::Residual(ResidualReason::GlobalRun),
        ),
        (
            at("r0").or(at("r1")).within(Span::from_secs(5)),
            Shardability::Object,
        ),
        // A keyless join numbered before a run in its own graph but after
        // it in a graph that already holds the run: the first reason found
        // must not depend on who else is in the program.
        (
            at("r0")
                .seq(at("r1"))
                .seq(at("r0").tseq_plus(Span::ZERO, Span::from_secs(1)))
                .within(Span::from_secs(60)),
            keyless,
        ),
    ]
}

/// (b) Shardability read off the merged coordinator program is the verdict
/// each rule gets alone.
#[test]
fn merged_shardability_is_the_per_rule_verdict() {
    let shapes = canonical_shapes();
    let rule = |e: &EventExpr| RuleEvent::new("r", "rule", e.clone());
    let merged = Program::compile(None, shapes.iter().map(|(e, _)| rule(e)));
    assert_eq!(merged.rules().len(), shapes.len(), "every shape is valid");
    for (i, (event, expected)) in shapes.iter().enumerate() {
        let alone = Program::compile(None, [rule(event)]);
        let verdict = shardability(alone.graph(), alone.roots()[0]);
        assert_eq!(verdict, *expected, "shape {i} alone");
        let verdict = shardability(merged.graph(), merged.roots()[i]);
        assert_eq!(verdict, *expected, "shape {i} in the merged program");
    }
}

/// (c) Partitioning the coordinator program returns what partitioning a
/// graph of just those rules returned (recorded from the parent commit for
/// the `partition_equivalence` rule pool over the default deployment).
#[test]
fn coordinator_partitions_match_the_per_subset_ones() {
    let shelf = || EventExpr::observation_in_group("shelves");
    let pos = || EventExpr::observation_in_group("pos");
    let pool = [
        EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(Span::from_secs(5)),
        shelf()
            .bind_object("o")
            .not()
            .seq(shelf().bind_object("o"))
            .within(Span::from_secs(2)),
        pos()
            .bind_object("o")
            .and(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(Span::from_secs(3)),
        EventExpr::observation_in_group("docks")
            .seq(pos())
            .within(Span::from_secs(10)),
        shelf()
            .tseq_plus(Span::ZERO, Span::from_millis(1_500))
            .within(Span::from_secs(30)),
    ];
    let catalog = SupplyChain::build(SimConfig::default()).catalog;
    let rules = pool.iter().map(|e| RuleEvent::new("r", "rule", e.clone()));
    let program = Program::compile(Some(&catalog), rules);
    let partition = |rules: &[u32], max_parts| -> Vec<Vec<u32>> {
        let rules: Vec<RuleId> = rules.iter().copied().map(RuleId).collect();
        let parts = partition_rules(&program, &rules, max_parts);
        let ids = |part: Vec<RuleId>| part.into_iter().map(|r| r.0).collect();
        parts.into_iter().map(ids).collect()
    };
    let all = [0, 1, 2, 3, 4];
    assert_eq!(partition(&all, 1), [vec![0, 1, 2, 3, 4]]);
    assert_eq!(partition(&all, 2), [vec![1], vec![0, 2, 3, 4]]);
    assert_eq!(partition(&all, 3), [vec![1], vec![0], vec![2, 3, 4]]);
    assert_eq!(partition(&all, 4), [vec![1], vec![0], vec![2], vec![3, 4]]);
    let singletons = [vec![1], vec![0], vec![2], vec![3], vec![4]];
    assert_eq!(partition(&all, 5), singletons);
    // The residual rules alone, weighed by the whole program's cost model.
    assert_eq!(partition(&[3, 4], 1), [vec![3, 4]]);
    assert_eq!(partition(&[3, 4], 2), [vec![3], vec![4]]);
    assert_eq!(partition(&[3, 4], 3), [vec![3], vec![4]]);
}

/// (d) The cost model is solved with the program, not per call, and covers
/// a rule added later.
#[test]
fn cost_is_solved_once_per_rule_set_change() {
    let (_, script, catalog) = programs().swap_remove(1);
    let rules = rule_events(&script).expect("script compiles");
    let mut engine = engine_of(&rules, &catalog);
    let first = engine.cost().clone();
    assert_eq!(first.len(), engine.graph().len());
    assert_eq!(&first, engine.cost(), "no rule change, same estimates");

    let late = EventExpr::observation_in_group("shelves")
        .tseq_plus(Span::ZERO, Span::from_secs(7))
        .within(Span::from_secs(90));
    let rule = engine.add_rule("late", late).unwrap();
    let root = engine.rule_root(rule);
    assert!(root.0 as usize >= first.len(), "the rule added nodes");
    let cost = engine.cost();
    assert_eq!(cost.len(), root.0 as usize + 1);
    assert!(cost.node(root).cpu_weight > 0.0);
    assert!((0..first.len() as u32).all(|n| {
        let n = rceda::NodeId(n);
        cost.node(n) == first.node(n)
    }));
}
