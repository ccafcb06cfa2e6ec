//! Snapshot corpus for the rule-program linter.
//!
//! Every `tests/lint_corpus/NAME.rule` is a small bad program whose file
//! name starts with the diagnostic code it must trigger (`e002_…` → E002) —
//! or, for a near miss (`w006_near_miss_…`), the code it must not trigger.
//! The full rendered report is snapshot-asserted against the sibling
//! `NAME.expected` file; regenerate snapshots with
//! `UPDATE_EXPECT=1 cargo test -p rfid-rules --test lint_corpus`.

use std::fs;
use std::path::{Path, PathBuf};

use rfid_epc::{Epc, Gid96};
use rfid_events::{Catalog, Observation, Timestamp};
use rfid_rules::{lint_script, LintLevel, LintReport, RuleRuntime, RuntimeError};
use rfid_simulator::{SimConfig, SupplyChain};
use rfid_store::Value;

/// The reference interpreter of docs/SEMANTICS.md the engine's
/// differential suites use.
#[allow(dead_code)]
#[path = "../../core/tests/support/reference.rs"]
mod reference;

/// The deployment the corpus programs lint against: two shelf readers in
/// one group. `w003_dead_reader.rule` names a reader that is *not* here.
fn fixture_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.readers.register("r1", "g1", "dock-a");
    cat.readers.register("r2", "g1", "dock-b");
    cat
}

fn render(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!("{d}\n"));
    }
    out
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus")
}

#[test]
fn corpus_programs_trigger_their_codes() {
    let mut cases: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rule"))
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 10,
        "corpus shrank to {} programs",
        cases.len()
    );

    let catalog = fixture_catalog();
    let update = std::env::var_os("UPDATE_EXPECT").is_some();
    for path in cases {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let expected_code = stem[..4].to_uppercase();
        let script = fs::read_to_string(&path).expect("read corpus program");
        let report = lint_script(&script, Some(&catalog))
            .unwrap_or_else(|e| panic!("{stem}: parse error: {e}"));

        let near_miss = stem.contains("_near_miss_");
        let fired = (report.diagnostics.iter()).any(|d| d.code.as_str() == expected_code);
        assert!(
            fired != near_miss,
            "{stem}: expected {} {expected_code} diagnostic, got: {:?}",
            if near_miss { "no" } else { "a" },
            report
                .diagnostics
                .iter()
                .map(|d| d.code.as_str())
                .collect::<Vec<_>>()
        );

        let rendered = render(&report);
        let expected_path = path.with_extension("expected");
        if update {
            fs::write(&expected_path, &rendered).expect("write snapshot");
            continue;
        }
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("{stem}: missing snapshot; rerun with UPDATE_EXPECT=1"));
        assert_eq!(
            rendered, expected,
            "{stem}: report drifted from snapshot; rerun with UPDATE_EXPECT=1 and review"
        );
    }
}

/// Acceptance criterion: under `Deny`, a program with an unsatisfiable
/// WITHIN is rejected before a runtime is built; under `Warn` the same
/// program still compiles into a *working* runtime (the impossible rule
/// simply never fires) and the diagnostics ride along.
#[test]
fn deny_rejects_unsatisfiable_within_but_warn_still_builds() {
    let script = "CREATE RULE bad, impossible \
                  ON WITHIN(TSEQ(observation('r1', o, t1); observation('r1', o, t2), \
                                 10 sec, 20 sec), 5 sec) \
                  IF true DO send_duplicate_msg('r1', o, t1) \
                  CREATE RULE ok, duplicate \
                  ON WITHIN(observation('r2', o, t1) ; observation('r2', o, t2), 5 sec) \
                  IF true DO send_duplicate_msg('r2', o, t1)";

    let Err(err) = RuleRuntime::compile(fixture_catalog(), script, LintLevel::Deny) else {
        panic!("deny level must reject the program");
    };
    assert!(
        matches!(err, RuntimeError::Lint(_)),
        "expected a lint rejection, got: {err}"
    );

    let catalog = fixture_catalog();
    let r2 = catalog.reader("r2").unwrap();
    let (mut rt, diagnostics) = RuleRuntime::compile(catalog, script, LintLevel::Warn).unwrap();
    assert!(
        diagnostics
            .iter()
            .any(|d| d.severity() == rceda::analyze::Severity::Error),
        "warn level must still surface the findings"
    );

    // The healthy rule in the same program detects as usual.
    let obj: Epc = Gid96::new(1, 7, 9).unwrap().into();
    rt.process_all([
        Observation::new(r2, obj, Timestamp::from_secs(1)),
        Observation::new(r2, obj, Timestamp::from_secs(2)),
    ]);
    assert_eq!(rt.procedures().calls("send_duplicate_msg").count(), 1);
    assert!(rt.errors().is_empty());

    let (_, none) = RuleRuntime::compile(fixture_catalog(), script, LintLevel::Allow).unwrap();
    assert!(none.is_empty(), "allow level skips analysis entirely");
}

/// Fig. 3's distance runs end to end, so in a `TSEQ` whose terminator is
/// itself a `TSEQ` the terminator's span is part of the outer distance, not
/// added to it: on r1@0, r2@0, r3@2s this rule fires over [0, 2s], inside
/// its 3 s window. It must lint without E001 and load under `Deny`.
#[test]
fn nested_tseq_inside_its_window_is_not_an_empty_window() {
    let event = "WITHIN(TSEQ(observation('r1', o, t1); \
                 TSEQ(observation('r2', o, t2); observation('r3', o, t3), 2 sec, 3 sec), \
                 2 sec, 3 sec), 3 sec)";
    let script = format!("CREATE RULE nest, nested_tseq ON {event} IF true DO f(t1, t3)");
    let mut catalog = fixture_catalog();
    catalog.readers.register("r3", "g1", "dock-c");

    let report = lint_script(&script, Some(&catalog)).unwrap();
    assert!(
        report.diagnostics.iter().all(|d| d.code.as_str() != "E001"),
        "{}",
        render(&report)
    );
    let (mut rt, _) = RuleRuntime::compile(catalog.clone(), &script, LintLevel::Deny)
        .expect("deny level accepts a satisfiable rule");

    let obj: Epc = Gid96::new(1, 7, 9).unwrap().into();
    let read = |reader: &str, secs| {
        let reader = catalog.reader(reader).unwrap();
        Observation::new(reader, obj, Timestamp::from_secs(secs))
    };
    let stream = [read("r1", 0), read("r2", 0), read("r3", 2)];
    rt.process_all(stream);
    rt.finish();

    let parsed = rfid_rules::parser::parse_event(event).unwrap();
    let expr = rfid_rules::compile::compile_event(&parsed).unwrap();
    let spans: Vec<(Timestamp, Timestamp)> = reference::fire(&catalog, &[expr], &stream)
        .into_iter()
        .map(|(_, begin, end, _)| (begin, end))
        .collect();
    assert_eq!(spans, [(Timestamp::ZERO, Timestamp::from_secs(2))]);
    let fired: Vec<&[Value]> = rt.procedures().calls("f").collect();
    assert_eq!(
        fired,
        [&[Value::Time(spans[0].0), Value::Time(spans[0].1)][..]],
        "the runtime fires what the reference fires"
    );
}

/// The canonical Rule 1–5 program and the paper-scale containment workload
/// must come back free of error-level findings — `scripts/check.sh` gates
/// on the same property through the `rceda-lint` binary.
#[test]
fn canonical_programs_are_error_free() {
    for cfg in [SimConfig::default(), SimConfig::paper_scale()] {
        let lines = cfg.packing_lines;
        let chain = SupplyChain::build(cfg);
        let report = lint_script(&chain.rule_set(), Some(&chain.catalog)).unwrap();
        assert_eq!(
            report.errors(),
            0,
            "canonical program ({lines} lines) has errors: {:?}",
            report
                .diagnostics
                .iter()
                .filter(|d| d.severity() == rceda::analyze::Severity::Error)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.rules, 5 + lines);
    }
}
