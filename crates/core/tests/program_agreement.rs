//! The consumers of a compiled [`Program`] agree: what lint note N003
//! reports is what the engine executes, and the shard coordinator places
//! the canonical program's wide rules by their reader fan-out. (That its
//! verdicts and partitions over the merged program are the per-rule ones
//! is unit-tested in `shard.rs`.) And what the compiled graph of the
//! ledger's programs is made of: one node per set of parts, and no rule
//! whose sibling patterns overlap without being equal.

mod support;

use std::collections::HashMap;

use rceda::analyze::DiagCode;
use rceda::{Engine, EngineConfig, Program, RuleEvent, ShardConfig, ShardedEngine};
use rfid_events::{Catalog, EventExpr, ObjectSel, PrimitivePattern, ReaderSel};
use rfid_rules::{lint_script, rule_events};
use rfid_simulator::{SimConfig, SupplyChain};
use support::shapes;

/// The canonical 517-rule program, the Rule 1–5 program, and the lint
/// corpus' window-family program (over the corpus' two-reader deployment).
fn programs() -> Vec<(&'static str, String, Catalog)> {
    let canonical = SupplyChain::build(SimConfig::paper_scale());
    let rules_1_5 = SupplyChain::build(SimConfig::default());
    let families = include_str!("../../rules/tests/lint_corpus/n003_window_family.rule");
    vec![
        ("canonical", canonical.rule_set(), canonical.catalog),
        ("rules-1-5", rules_1_5.rule_set(), rules_1_5.catalog),
        ("n003_window_family", families.to_owned(), corpus_catalog()),
    ]
}

/// The lint corpus' deployment: two readers in one group.
fn corpus_catalog() -> Catalog {
    let mut corpus = Catalog::new();
    corpus.readers.register("r1", "g1", "dock-a");
    corpus.readers.register("r2", "g1", "dock-b");
    corpus
}

fn engine_of(rules: &[RuleEvent], catalog: &Catalog) -> Engine {
    let rules = rules.iter().map(|r| (r.name.as_str(), &r.event));
    Engine::with_rules(catalog.clone(), EngineConfig::default(), rules).unwrap()
}

/// (a) The families N003 reports are the engine's.
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

        let plan = program.plan();
        let families: Vec<_> = plan.families().collect();
        assert_eq!(notes.len(), families.len(), "{name}: {notes:?}");
        for (holder, members) in families {
            let node = program.graph().node(holder);
            let at = format!("window family at {} node {}: ", node.kind.name(), holder.0);
            let note = notes.iter().find(|m| m.starts_with(&at));
            let note = note.unwrap_or_else(|| panic!("{name}: no note{at}in {notes:?}"));
            for m in members {
                for r in program.rules_at(m.node) {
                    let listed = format!("`{}` ({})", rules[r.0 as usize].id, m.cutoff);
                    assert!(note.contains(&listed), "{name}: {listed} not in {note}");
                }
            }
            families_seen += 1;
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

/// The ledger's two rule programs over their deployment: the canonical
/// 517 rules and the 500-rule window-varied family.
fn ledger_programs() -> (Vec<(&'static str, String)>, Catalog) {
    let sim = SupplyChain::build(SimConfig::paper_scale());
    let programs = vec![
        ("rule_set", sim.rule_set()),
        ("rule_family(500)", sim.rule_family(500)),
    ];
    (programs, sim.catalog)
}

/// (c) A node is its parts, per load: over the ledger's programs, every
/// program of the lint corpus (rejected rules' partial nodes included) and
/// the differential suites' shape pool under every window — loaded once,
/// and loaded twice across a seal — no two nodes of one load have equal
/// constructor, children and window, and no two `NOT`s of one load negate
/// one child. A `SEQ+` store is the exception: its querying parent
/// consumes it, so it is never shared — no `SEQ+` has two parents. Across
/// loads, a node that holds state has parents of its own load only.
#[test]
fn no_two_nodes_share_their_parts() {
    let (ledger, catalog) = ledger_programs();
    let mut programs: Vec<_> = ledger
        .into_iter()
        .map(|(name, script)| (name.to_owned(), script, catalog.clone()))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../rules/tests/lint_corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("lint corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rule"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "the corpus has its programs");
    for path in paths {
        let script = std::fs::read_to_string(&path).expect("corpus program");
        programs.push((path.display().to_string(), script, corpus_catalog()));
    }
    let mut compiled: Vec<_> = programs
        .into_iter()
        .map(|(name, script, catalog)| {
            let rules = rule_events(&script).expect("script compiles");
            (name, Program::compile(Some(&catalog), rules))
        })
        .collect();
    let pool = (0..shapes::SHAPES).flat_map(|idx| {
        let shape = move |window| shapes::shape(idx, window);
        shapes::WINDOWS.into_iter().map(shape)
    });
    let pool: Vec<_> = pool
        .map(|event| RuleEvent::new("shape", "shape", event))
        .collect();
    compiled.push((
        "shape pool".to_owned(),
        Program::compile(None, pool.clone()),
    ));
    let mut twice = Program::new();
    for rule in pool.iter().chain(&pool) {
        twice.add_rule(rule.clone()).expect("pool shapes are valid");
        if twice.rules().len() == pool.len() {
            twice.seal();
        }
    }
    twice.solve(None);
    let late_roots = &twice.roots()[pool.len()..];
    let sealed = twice.graph().sealed();
    assert!(
        late_roots.iter().all(|root| root.0 as usize >= sealed),
        "a late rule's root is its own"
    );
    compiled.push(("shape pool, loaded twice".to_owned(), twice));
    for (name, program) in compiled {
        let mut parts = HashMap::new();
        let mut negated = HashMap::new();
        let graph = program.graph();
        for node in graph.nodes() {
            for &parent in &node.parents {
                let load = graph.node(parent).load;
                let (id, plan) = (node.id, node.plan);
                let shared = plan.holds_state() && load != node.load;
                assert!(
                    !shared,
                    "{name}: {id:?} ({plan:?}) under {parent:?} of a later load"
                );
            }
            if node.kind.name() == "SEQ+" {
                let (id, parents) = (node.id, &node.parents);
                assert!(parents.len() <= 1, "{name}: SEQ+ {id:?} under {parents:?}");
                continue;
            }
            let key = (node.load, &node.kind, &node.children, node.within);
            if let Some(twin) = parts.insert(key, node.id) {
                panic!("{name}: nodes {twin:?} and {:?} share their parts", node.id);
            }
            if node.kind.name() == "NOT" {
                if let Some(twin) = negated.insert((node.load, node.children[0]), node.id) {
                    panic!("{name}: NOTs {twin:?} and {:?} share a child", node.id);
                }
            }
        }
    }
}

/// (d) The scope of the oracle's one open disagreement (ROADMAP): one read
/// matching two leaves of a rule on either side of a binary node, whose
/// patterns overlap without being equal — the engine delivers those in
/// dispatch-row order, not right to left. Neither ledger program has such a
/// pair; the disagreement's own rule has one.
#[test]
fn no_ledger_rule_has_overlapping_sibling_patterns() {
    let (programs, catalog) = ledger_programs();
    let overlapping = |event: &EventExpr| {
        let mut pairs = Vec::new();
        leaves(event, &mut |l, r| {
            if l != r && overlap(&catalog, l, r) {
                pairs.push((l.clone(), r.clone()));
            }
        });
        pairs
    };
    for (name, script) in programs {
        for rule in rule_events(&script).expect("script compiles") {
            let pairs = overlapping(&rule.event);
            assert!(pairs.is_empty(), "{name}: rule `{}`: {pairs:?}", rule.id);
        }
    }
    let disagreement = EventExpr::observation()
        .bind_object("o")
        .and(EventExpr::observation_in_group("shelves").bind_object("o"));
    assert_eq!(overlapping(&disagreement).len(), 1);
}

/// The leaves under `expr`, left to right; at every binary node, `visit`
/// sees each pair of a leaf on its left and one on its right.
fn leaves<'e>(
    expr: &'e EventExpr,
    visit: &mut impl FnMut(&PrimitivePattern, &PrimitivePattern),
) -> Vec<&'e PrimitivePattern> {
    match expr {
        EventExpr::Primitive(p) => vec![p],
        EventExpr::Not(x)
        | EventExpr::SeqPlus(x)
        | EventExpr::TSeqPlus { inner: x, .. }
        | EventExpr::Within { inner: x, .. } => leaves(x, visit),
        EventExpr::Or(a, b)
        | EventExpr::And(a, b)
        | EventExpr::Seq(a, b)
        | EventExpr::TSeq {
            first: a,
            second: b,
            ..
        } => {
            let (left, right) = (leaves(a, visit), leaves(b, visit));
            for l in &left {
                for r in &right {
                    visit(l, r);
                }
            }
            left.into_iter().chain(right).collect()
        }
    }
}

/// Whether one observation can match both patterns over `catalog`
/// (variables bind across reads; they filter no single read).
fn overlap(catalog: &Catalog, a: &PrimitivePattern, b: &PrimitivePattern) -> bool {
    let named_in = |name: &str, group: &str| {
        let id = catalog.reader(name);
        id.and_then(|id| catalog.readers.group_of(id)) == Some(group)
    };
    let readers =
        match (&a.reader, &b.reader) {
            (ReaderSel::Any, _) | (_, ReaderSel::Any) => true,
            (ReaderSel::Named(x), ReaderSel::Named(y))
            | (ReaderSel::Group(x), ReaderSel::Group(y)) => x == y,
            (ReaderSel::Named(n), ReaderSel::Group(g))
            | (ReaderSel::Group(g), ReaderSel::Named(n)) => named_in(n, g),
        };
    let objects = match (&a.object, &b.object) {
        (ObjectSel::Any, _) | (_, ObjectSel::Any) => true,
        (ObjectSel::Exact(x), ObjectSel::Exact(y)) => x == y,
        (ObjectSel::Type(x), ObjectSel::Type(y)) => x == y,
        (ObjectSel::Exact(e), ObjectSel::Type(t)) | (ObjectSel::Type(t), ObjectSel::Exact(e)) => {
            catalog.types.is_type(*e, t)
        }
    };
    readers && objects
}
