//! Script-level linting: the rule-language frontend of `rceda-lint`.
//!
//! [`lint_script`] parses a script and runs every static-analysis pass over
//! it without building a runtime (the rule set is compiled once, into the
//! [`Program`] an engine loading the script would execute):
//!
//! * **W002** — duplicate `DEFINE` aliases (the later body silently shadows
//!   the earlier one);
//! * **E000** — duplicate rule ids and events the compiler or graph builder
//!   rejects, resurfaced as diagnostics so one lint run reports every
//!   problem instead of aborting at the first;
//! * **E004** — conditions or actions referencing variables no positive
//!   (non-`NOT`) leaf can bind, so every firing would fail;
//! * the graph passes of [`rceda::analyze`] (E001–E003, W003–W005) per
//!   rule, the merge-aware W001 shadowing pass across rules, the W006
//!   subsumption prover, and the N003 window-family report.
//!
//! [`crate::RuleRuntime::compile`] wraps this with a [`LintLevel`] policy:
//! `deny` refuses to build a runtime from a program with error-level
//! findings, `warn` reports them but builds anyway, `allow` skips linting.

use std::collections::BTreeSet;

use rceda::analyze::{analyze_compiled, analyze_event, DiagCode, Diagnostic};
use rceda::{Program, RuleEvent};
use rfid_events::Catalog;

use crate::ast::{ActionAst, CondAst, CondTerm, EventAst, RuleDecl, Term, ValueExpr, WhereCond};
use crate::compile::{compile_event, resolve_aliases};
use crate::parser::{parse_script, ParseError};

/// How strictly [`crate::RuleRuntime::compile`] treats lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// Skip linting entirely; no diagnostics are produced.
    Allow,
    /// Lint and report diagnostics, but build the runtime regardless.
    #[default]
    Warn,
    /// Lint and refuse to build if any error-level diagnostic is found.
    Deny,
}

/// The outcome of linting one script.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Every finding, grouped per rule in script order (program-wide
    /// shadowing findings come last).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of rules declared in the script.
    pub rules: usize,
}

impl LintReport {
    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == rceda::analyze::Severity::Error)
            .count()
    }

    /// Number of warning-level findings. Notes are counted separately
    /// ([`LintReport::notes`]): they report bounds the analyzer *proved*,
    /// not hazards, so they never trip a deny-warnings policy.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == rceda::analyze::Severity::Warning)
            .count()
    }

    /// Number of note-level findings (informational, e.g. `N001`).
    pub fn notes(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == rceda::analyze::Severity::Note)
            .count()
    }

    /// Whether the script is free of error-level findings.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

/// The script → events front end of [`lint_script`]: parses the script,
/// resolves the `DEFINE`s front-to-back (later definitions shadowing earlier
/// ones — mirroring `RuleRuntime::load`) and compiles every rule's event.
/// Returns the number of declared rules and the rule events that compiled,
/// in script order; everything else becomes a diagnostic, grouped per rule
/// with each compiled rule's own per-rule passes.
fn compile_script(
    script: &str,
    catalog: Option<&Catalog>,
    diagnostics: &mut Vec<Diagnostic>,
) -> Result<(usize, Vec<RuleEvent>), ParseError> {
    let parsed = parse_script(script)?;
    let invalid = |id: &str, name: &str, message: String, hint: &str| Diagnostic {
        code: DiagCode::InvalidRule,
        rule_id: id.to_owned(),
        rule_name: name.to_owned(),
        path: String::new(),
        message,
        hint: hint.to_owned(),
    };

    // W002: duplicate DEFINE aliases within the script.
    let mut seen = BTreeSet::new();
    for d in &parsed.defines {
        if !seen.insert(d.name.as_str()) {
            diagnostics.push(Diagnostic {
                code: DiagCode::DuplicateDefine,
                rule_id: d.name.clone(),
                rule_name: d.name.clone(),
                path: String::new(),
                message: format!(
                    "alias `{}` is defined more than once; the later body silently \
                     shadows the earlier one",
                    d.name
                ),
                hint: "rename one of the aliases or delete the redundant definition".to_owned(),
            });
        }
    }

    let mut defines = std::collections::HashMap::new();
    for d in &parsed.defines {
        match resolve_aliases(&d.event, &defines) {
            Ok(resolved) => {
                defines.insert(d.name.clone(), resolved);
            }
            Err(err) => diagnostics.push(invalid(
                &d.name,
                &d.name,
                err.to_string(),
                "fix the DEFINE body; rules using the alias cannot compile",
            )),
        }
    }

    let mut compiled = Vec::new();
    let mut ids = BTreeSet::new();
    for rule in &parsed.rules {
        // E000: duplicate rule ids (§3 requires unique ids; load rejects).
        if !ids.insert(rule.id.as_str()) {
            diagnostics.push(invalid(
                &rule.id,
                &rule.name,
                format!("duplicate rule id `{}`", rule.id),
                "rule ids must be unique across the program",
            ));
        }

        let event = match resolve_aliases(&rule.event, &defines) {
            Ok(event) => event,
            Err(err) => {
                diagnostics.push(invalid(
                    &rule.id,
                    &rule.name,
                    err.to_string(),
                    "DEFINE the alias before the rule that uses it",
                ));
                continue;
            }
        };

        // E004: variables the condition/actions need but no leaf can bind.
        diagnostics.extend(unbound_bindings(rule, &event));

        match compile_event(&event) {
            Ok(expr) => {
                let re = RuleEvent::new(rule.id.clone(), rule.name.clone(), expr);
                diagnostics.extend(analyze_event(&re, catalog));
                compiled.push(re);
            }
            Err(err) => diagnostics.push(invalid(
                &rule.id,
                &rule.name,
                err.to_string(),
                "fix the pattern; see the rule-language grammar in DESIGN.md",
            )),
        }
    }
    Ok((parsed.rules.len(), compiled))
}

/// Lints a script against an optional deployment catalog. Without a
/// catalog the dead-leaf pass (W003) is skipped — patterns cannot be
/// checked against a deployment that isn't given. Parse failures are the
/// only hard error: past parsing, every problem becomes a diagnostic.
pub fn lint_script(script: &str, catalog: Option<&Catalog>) -> Result<LintReport, ParseError> {
    let mut diagnostics = Vec::new();
    let (rules, compiled) = compile_script(script, catalog, &mut diagnostics)?;
    // The program-level passes (W001, W006, N003) over the one
    // program every rule that compiled builds.
    let program = Program::compile(catalog, compiled);
    diagnostics.extend(analyze_compiled(&program, catalog));
    Ok(LintReport { diagnostics, rules })
}

/// E004: every variable the condition and actions reference must be
/// bindable by some leaf outside a `NOT` — negation asserts absence, so
/// its leaves never contribute bindings (`SEQ+`/`TSEQ+` leaves do, as bulk
/// rows).
fn unbound_bindings(rule: &RuleDecl, event: &EventAst) -> Vec<Diagnostic> {
    let mut bindable = BTreeSet::new();
    collect_bindable(event, false, &mut bindable);
    let mut referenced = BTreeSet::new();
    collect_cond_vars(&rule.condition, &mut referenced);
    for action in &rule.actions {
        collect_action_vars(action, &mut referenced);
    }
    referenced
        .difference(&bindable)
        .map(|var| Diagnostic {
            code: DiagCode::UnboundBinding,
            rule_id: rule.id.clone(),
            rule_name: rule.name.clone(),
            path: String::new(),
            message: format!(
                "condition/action references `{var}`, which no leaf outside a NOT binds; \
                 every firing would fail to bind"
            ),
            hint: format!("bind `{var}` in an observation(…) that is not negated"),
        })
        .collect()
}

fn collect_bindable(ast: &EventAst, under_not: bool, out: &mut BTreeSet<String>) {
    match ast {
        EventAst::Observation {
            reader,
            object,
            time,
            ..
        } => {
            if !under_not {
                for term in [reader, object, time] {
                    if let Term::Var(v) = term {
                        out.insert(v.clone());
                    }
                }
            }
        }
        EventAst::Alias(_) => {} // resolved away before this pass
        EventAst::Or(a, b) | EventAst::And(a, b) | EventAst::Seq(a, b) => {
            collect_bindable(a, under_not, out);
            collect_bindable(b, under_not, out);
        }
        EventAst::TSeq { first, second, .. } => {
            collect_bindable(first, under_not, out);
            collect_bindable(second, under_not, out);
        }
        EventAst::Not(x) => collect_bindable(x, true, out),
        EventAst::SeqPlus(x) => collect_bindable(x, under_not, out),
        EventAst::TSeqPlus { inner, .. } | EventAst::Within { inner, .. } => {
            collect_bindable(inner, under_not, out);
        }
    }
}

fn collect_cond_vars(cond: &CondAst, out: &mut BTreeSet<String>) {
    match cond {
        CondAst::True | CondAst::False => {}
        CondAst::And(a, b) | CondAst::Or(a, b) => {
            collect_cond_vars(a, out);
            collect_cond_vars(b, out);
        }
        CondAst::Not(x) => collect_cond_vars(x, out),
        CondAst::Compare { lhs, rhs, .. } => {
            for term in [lhs, rhs] {
                if let CondTerm::Var(v) | CondTerm::TypeOf(v) | CondTerm::GroupOf(v) = term {
                    out.insert(v.clone());
                }
            }
        }
        CondAst::Exists { wheres, .. } => {
            for w in wheres {
                collect_where_vars(w, out);
            }
        }
    }
}

fn collect_action_vars(action: &ActionAst, out: &mut BTreeSet<String>) {
    match action {
        ActionAst::Insert { values, .. } | ActionAst::BulkInsert { values, .. } => {
            for v in values {
                collect_value_vars(v, out);
            }
        }
        ActionAst::Update { sets, wheres, .. } => {
            for (_, v) in sets {
                collect_value_vars(v, out);
            }
            for w in wheres {
                collect_where_vars(w, out);
            }
        }
        ActionAst::Delete { wheres, .. } => {
            for w in wheres {
                collect_where_vars(w, out);
            }
        }
        ActionAst::Call { args, .. } => {
            for v in args {
                collect_value_vars(v, out);
            }
        }
    }
}

fn collect_where_vars(w: &WhereCond, out: &mut BTreeSet<String>) {
    collect_value_vars(&w.value, out);
}

fn collect_value_vars(value: &ValueExpr, out: &mut BTreeSet<String>) {
    match value {
        ValueExpr::Var(v)
        | ValueExpr::LocationOf(v)
        | ValueExpr::GroupOf(v)
        | ValueExpr::TypeOf(v) => {
            out.insert(v.clone());
        }
        ValueExpr::Str(_) | ValueExpr::Int(_) | ValueExpr::Uc | ValueExpr::Now => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rceda::analyze::Severity;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.readers.register("r1", "g1", "dock-a");
        cat.readers.register("r2", "g1", "dock-b");
        cat
    }

    fn codes(report: &LintReport) -> Vec<DiagCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_script_is_clean() {
        let report = lint_script(
            "CREATE RULE dup, duplicate_detection \
             ON WITHIN(observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
             IF true DO send_duplicate_msg(r, o, t1)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.rules, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn duplicate_define_is_w002() {
        let report = lint_script(
            "DEFINE A = observation('r1', o, t) \
             DEFINE A = observation('r2', o, t) \
             CREATE RULE x, y ON WITHIN(A ; observation(r2, o, t2), 5 sec) IF true DO f(o)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(
            codes(&report).contains(&DiagCode::DuplicateDefine),
            "{report:?}"
        );
        assert!(report.is_clean(), "W002 is a warning: {report:?}");
    }

    #[test]
    fn unbound_variable_is_e004() {
        let report = lint_script(
            "CREATE RULE x, y ON observation('r1', o, t) IF true DO f(ghost)",
            Some(&catalog()),
        )
        .unwrap();
        assert_eq!(codes(&report), vec![DiagCode::UnboundBinding], "{report:?}");
        assert_eq!(report.errors(), 1);

        // Variables bound only under NOT do not count.
        let report = lint_script(
            "CREATE RULE x, y \
             ON WITHIN(NOT observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
             IF true DO f(t1)",
            Some(&catalog()),
        )
        .unwrap();
        assert_eq!(codes(&report), vec![DiagCode::UnboundBinding], "{report:?}");

        // The same variable bound positively elsewhere is fine.
        let report = lint_script(
            "CREATE RULE x, y \
             ON WITHIN(NOT observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
             IF true DO f(r, o, t2)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn condition_vars_are_checked_too() {
        let report = lint_script(
            "CREATE RULE x, y ON observation('r1', o, t) IF type(ghost) = 'laptop' DO f(o)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(
            codes(&report).contains(&DiagCode::UnboundBinding),
            "{report:?}"
        );
    }

    #[test]
    fn duplicate_rule_id_is_reported_not_fatal() {
        let report = lint_script(
            "CREATE RULE x, first ON observation('r1', o, t) IF true DO f(o) \
             CREATE RULE x, second ON observation('r2', o, t) IF true DO f(o)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(
            codes(&report).contains(&DiagCode::InvalidRule),
            "{report:?}"
        );
        assert_eq!(report.rules, 2);
    }

    #[test]
    fn graph_passes_reach_script_rules() {
        // Unsatisfiable WITHIN: E002 from the core analyzer.
        let report = lint_script(
            "CREATE RULE x, y \
             ON WITHIN(TSEQ(observation(r, o, t1); observation(r, o, t2), 10 sec, 20 sec), 5 sec) \
             IF true DO f(o)",
            Some(&catalog()),
        )
        .unwrap();
        assert_eq!(codes(&report), vec![DiagCode::EmptyDistance], "{report:?}");
        assert!(!report.is_clean());

        // Builder rejection: E000.
        let report = lint_script(
            "CREATE RULE x, y \
             ON (observation(r, o, t1) ; NOT observation(r, o, t2)) \
             IF true DO f(o)",
            Some(&catalog()),
        )
        .unwrap();
        assert!(
            codes(&report).contains(&DiagCode::InvalidRule),
            "{report:?}"
        );
    }

    #[test]
    fn shadowed_rules_span_the_script() {
        let report = lint_script(
            "CREATE RULE a, first \
             ON WITHIN(observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
             IF true DO f(o) \
             CREATE RULE b, second \
             ON WITHIN(observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
             IF true DO g(o)",
            Some(&catalog()),
        )
        .unwrap();
        let shadowed: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::ShadowedRule)
            .collect();
        assert_eq!(shadowed.len(), 1, "{report:?}");
        assert_eq!(shadowed[0].rule_id, "b");
        assert_eq!(shadowed[0].severity(), Severity::Warning);
    }
}
