//! The consumers of a compiled [`Program`] agree: what lint note N003
//! reports is what the engine executes, and the shard coordinator places
//! the canonical program's wide rules by their reader fan-out. (That its
//! verdicts and partitions over the merged program are the per-rule ones
//! is unit-tested in `shard.rs`.)

use rceda::analyze::DiagCode;
use rceda::{Engine, EngineConfig, Program, RuleEvent, ShardConfig, ShardedEngine};
use rfid_events::Catalog;
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

/// (b) On the canonical 517-rule program cut into the ledger's eight
/// broadcast partitions (one keyed shard, so every rule is broadcast; two
/// pool threads), the two shelf rules — each reading all eight shelves,
/// where a containment rule reads two named readers — are each placed
/// alone.
#[test]
fn shelf_rules_each_get_a_partition_of_their_own() {
    let (_, script, catalog) = programs().swap_remove(0);
    let config = ShardConfig {
        shards: 1,
        residual_workers: 2,
        ..ShardConfig::default()
    };
    let mut engine = ShardedEngine::new(catalog, config);
    for rule in rule_events(&script).expect("script compiles") {
        engine.add_rule(&rule.name, rule.event).expect("valid rule");
    }
    engine.finish(&mut |_, _| {});
    let parts = engine.residual_partitions();
    assert_eq!(parts.len(), 8);
    for name in ["infield_filtering", "duplicate_detection"] {
        let alone = parts.iter().any(|part| {
            let names: Vec<&str> = part.iter().map(|&r| engine.rule_name(r)).collect();
            names == [name]
        });
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert!(alone, "`{name}` shares its partition; sizes {sizes:?}");
    }
}
