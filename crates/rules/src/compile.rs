//! Compilation: rule-language events → engine event expressions.
//!
//! Resolves `DEFINE` aliases, turns `observation(…)` patterns with their
//! `group`/`type` predicates into [`rfid_events::PrimitivePattern`]s, and
//! maps each constructor onto the algebra. Variables in reader/object
//! position become correlation variables; the time variable is kept only in
//! the AST for action binding (timestamps are instance data, not pattern
//! constraints).

use std::collections::HashMap;
use std::fmt;

use rceda::RuleEvent;
use rfid_epc::Epc;
use rfid_events::{EventExpr, Var};

use crate::ast::{Define, EventAst, PatternPred, RuleDecl, Term};
use crate::parser::parse_script;
use crate::RuntimeError;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// An event alias was referenced but never `DEFINE`d.
    UnknownAlias(String),
    /// An alias definition refers to itself (directly or transitively).
    CyclicAlias(String),
    /// A `group`/`type` predicate names a variable the pattern doesn't bind.
    PredVarMismatch {
        /// Variable the predicate names.
        var: String,
    },
    /// An object literal is not a parseable EPC.
    BadEpc(String),
    /// The time position must be a variable.
    TimeMustBeVar,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAlias(n) => write!(f, "unknown event alias `{n}`"),
            Self::CyclicAlias(n) => write!(f, "cyclic event alias `{n}`"),
            Self::PredVarMismatch { var } => {
                write!(
                    f,
                    "predicate names variable `{var}` the pattern does not bind"
                )
            }
            Self::BadEpc(s) => write!(f, "`{s}` is not a valid EPC"),
            Self::TimeMustBeVar => {
                f.write_str("the time position of observation() must be a variable")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Resolves every alias reference in `ast`, substituting `DEFINE` bodies.
/// Aliases may reference earlier aliases; cycles are rejected.
pub fn resolve_aliases(
    ast: &EventAst,
    defines: &HashMap<String, EventAst>,
) -> Result<EventAst, CompileError> {
    resolve_inner(ast, defines, &mut Vec::new())
}

fn resolve_inner(
    ast: &EventAst,
    defines: &HashMap<String, EventAst>,
    stack: &mut Vec<String>,
) -> Result<EventAst, CompileError> {
    Ok(match ast {
        EventAst::Alias(name) => {
            if stack.iter().any(|n| n == name) {
                return Err(CompileError::CyclicAlias(name.clone()));
            }
            let body = defines
                .get(name)
                .ok_or_else(|| CompileError::UnknownAlias(name.clone()))?;
            stack.push(name.clone());
            let resolved = resolve_inner(body, defines, stack)?;
            stack.pop();
            resolved
        }
        EventAst::Observation { .. } => ast.clone(),
        EventAst::Or(a, b) => EventAst::Or(
            Box::new(resolve_inner(a, defines, stack)?),
            Box::new(resolve_inner(b, defines, stack)?),
        ),
        EventAst::And(a, b) => EventAst::And(
            Box::new(resolve_inner(a, defines, stack)?),
            Box::new(resolve_inner(b, defines, stack)?),
        ),
        EventAst::Not(x) => EventAst::Not(Box::new(resolve_inner(x, defines, stack)?)),
        EventAst::Seq(a, b) => EventAst::Seq(
            Box::new(resolve_inner(a, defines, stack)?),
            Box::new(resolve_inner(b, defines, stack)?),
        ),
        EventAst::TSeq {
            first,
            second,
            min_dist,
            max_dist,
        } => EventAst::TSeq {
            first: Box::new(resolve_inner(first, defines, stack)?),
            second: Box::new(resolve_inner(second, defines, stack)?),
            min_dist: *min_dist,
            max_dist: *max_dist,
        },
        EventAst::SeqPlus(x) => EventAst::SeqPlus(Box::new(resolve_inner(x, defines, stack)?)),
        EventAst::TSeqPlus {
            inner,
            min_gap,
            max_gap,
        } => EventAst::TSeqPlus {
            inner: Box::new(resolve_inner(inner, defines, stack)?),
            min_gap: *min_gap,
            max_gap: *max_gap,
        },
        EventAst::Within { inner, window } => EventAst::Within {
            inner: Box::new(resolve_inner(inner, defines, stack)?),
            window: *window,
        },
    })
}

/// Builds the define map from a script's definitions, resolving references
/// to earlier defines eagerly so stored bodies are alias-free.
pub fn build_defines(defines: &[Define]) -> Result<HashMap<String, EventAst>, CompileError> {
    let mut map = HashMap::new();
    for d in defines {
        let resolved = resolve_aliases(&d.event, &map)?;
        map.insert(d.name.clone(), resolved);
    }
    Ok(map)
}

/// A script's rules as the engine takes them, in script order: parsed,
/// aliases resolved against the script's own `DEFINE`s, events compiled.
/// Build an engine from them with [`rceda::Engine::with_rules`].
/// [`crate::RuleRuntime::load`] keeps its own loop, because its defines
/// accumulate across loads.
pub fn rule_events(script: &str) -> Result<Vec<RuleEvent>, RuntimeError> {
    let parsed = parse_script(script)?;
    let defines = build_defines(&parsed.defines)?;
    let compile = |rule: &RuleDecl| -> Result<RuleEvent, RuntimeError> {
        let event = compile_event(&resolve_aliases(&rule.event, &defines)?)?;
        Ok(RuleEvent::new(rule.id.clone(), rule.name.clone(), event))
    };
    parsed.rules.iter().map(compile).collect()
}

/// Compiles an alias-free event AST into the engine's algebra.
pub fn compile_event(ast: &EventAst) -> Result<EventExpr, CompileError> {
    Ok(match ast {
        EventAst::Alias(name) => return Err(CompileError::UnknownAlias(name.clone())),
        EventAst::Observation {
            reader,
            object,
            time,
            preds,
        } => {
            if matches!(time, Term::Literal(_)) {
                return Err(CompileError::TimeMustBeVar);
            }
            EventExpr::Primitive(compile_pattern(reader, object, preds)?)
        }
        EventAst::Or(a, b) => {
            EventExpr::Or(Box::new(compile_event(a)?), Box::new(compile_event(b)?))
        }
        EventAst::And(a, b) => {
            EventExpr::And(Box::new(compile_event(a)?), Box::new(compile_event(b)?))
        }
        EventAst::Not(x) => EventExpr::Not(Box::new(compile_event(x)?)),
        EventAst::Seq(a, b) => {
            EventExpr::Seq(Box::new(compile_event(a)?), Box::new(compile_event(b)?))
        }
        EventAst::TSeq {
            first,
            second,
            min_dist,
            max_dist,
        } => EventExpr::TSeq {
            first: Box::new(compile_event(first)?),
            second: Box::new(compile_event(second)?),
            min_dist: *min_dist,
            max_dist: *max_dist,
        },
        EventAst::SeqPlus(x) => EventExpr::SeqPlus(Box::new(compile_event(x)?)),
        EventAst::TSeqPlus {
            inner,
            min_gap,
            max_gap,
        } => EventExpr::TSeqPlus {
            inner: Box::new(compile_event(inner)?),
            min_gap: *min_gap,
            max_gap: *max_gap,
        },
        EventAst::Within { inner, window } => EventExpr::Within {
            inner: Box::new(compile_event(inner)?),
            window: *window,
        },
    })
}

fn compile_pattern(
    reader: &Term,
    object: &Term,
    preds: &[PatternPred],
) -> Result<rfid_events::PrimitivePattern, CompileError> {
    use rfid_events::{ObjectSel, ReaderSel};
    use std::sync::Arc;

    let mut pattern = rfid_events::PrimitivePattern::any();

    match reader {
        Term::Literal(name) => pattern.reader = ReaderSel::Named(Arc::from(name.as_str())),
        Term::Var(v) => pattern.reader_var = Some(Var::new(v)),
    }
    match object {
        Term::Literal(uri) => {
            let epc: Epc = uri.parse().map_err(|_| CompileError::BadEpc(uri.clone()))?;
            pattern.object = ObjectSel::Exact(epc);
        }
        Term::Var(v) => pattern.object_var = Some(Var::new(v)),
    }

    for pred in preds {
        match pred {
            PatternPred::Group { var, group } => {
                let bound = matches!(reader, Term::Var(v) if v == var);
                if !bound {
                    return Err(CompileError::PredVarMismatch { var: var.clone() });
                }
                pattern.reader = ReaderSel::Group(Arc::from(group.as_str()));
            }
            PatternPred::Type { var, ty } => {
                let bound = matches!(object, Term::Var(v) if v == var);
                if !bound {
                    return Err(CompileError::PredVarMismatch { var: var.clone() });
                }
                pattern.object = ObjectSel::Type(Arc::from(ty.as_str()));
            }
        }
    }
    Ok(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_event, parse_script};
    use rfid_events::{ObjectSel, ReaderSel, Span};

    #[test]
    fn compiles_rule5_shape() {
        let script = parse_script(
            "DEFINE E4 = observation('r4', o4, t4), type(o4) = 'laptop' \
             DEFINE E5 = observation('r4', o5, t5), type(o5) = 'superuser' \
             CREATE RULE r5, asset \
             ON WITHIN(E4 AND NOT E5, 5 sec) IF true DO send_alarm()",
        )
        .unwrap();
        let defines = build_defines(&script.defines).unwrap();
        let resolved = resolve_aliases(&script.rules[0].event, &defines).unwrap();
        let expr = compile_event(&resolved).unwrap();
        let expected = rfid_events::EventExpr::observation_at("r4")
            .with_type("laptop")
            .bind_object("o4")
            .and(
                rfid_events::EventExpr::observation_at("r4")
                    .with_type("superuser")
                    .bind_object("o5")
                    .not(),
            )
            .within(Span::from_secs(5));
        assert_eq!(expr, expected);
    }

    #[test]
    fn group_predicate_selects_group() {
        let ast = parse_event("observation(r, o, t), group(r) = 'g1'").unwrap();
        let expr = compile_event(&ast).unwrap();
        let rfid_events::EventExpr::Primitive(p) = expr else {
            panic!()
        };
        assert_eq!(p.reader, ReaderSel::Group(std::sync::Arc::from("g1")));
        assert_eq!(p.reader_var.unwrap().name(), "r");
    }

    #[test]
    fn object_literal_must_be_epc() {
        let ast = parse_event("observation(r, 'not-an-epc', t)").unwrap();
        assert!(matches!(compile_event(&ast), Err(CompileError::BadEpc(_))));

        let uri = rfid_epc::Epc::from(rfid_epc::Gid96::new(1, 2, 3).unwrap()).to_uri();
        let ast = parse_event(&format!("observation(r, '{uri}', t)")).unwrap();
        let rfid_events::EventExpr::Primitive(p) = compile_event(&ast).unwrap() else {
            panic!()
        };
        assert!(matches!(p.object, ObjectSel::Exact(_)));
    }

    #[test]
    fn pred_on_unbound_var_is_rejected() {
        let ast = parse_event("observation('r1', o, t), group(x) = 'g1'").unwrap();
        assert!(matches!(
            compile_event(&ast),
            Err(CompileError::PredVarMismatch { .. })
        ));
    }

    #[test]
    fn unknown_alias_is_reported() {
        let ast = parse_event("NOBODY").unwrap();
        assert!(matches!(
            resolve_aliases(&ast, &HashMap::new()),
            Err(CompileError::UnknownAlias(_))
        ));
    }

    #[test]
    fn aliases_chain_and_cycles_fail() {
        let script = parse_script(
            "DEFINE A = observation('r1', o, t) \
             DEFINE B = SEQ+(A) \
             CREATE RULE x, y ON WITHIN(B ; observation('r2', o2, t2), 10 sec) IF true DO f()",
        )
        .unwrap();
        let defines = build_defines(&script.defines).unwrap();
        let resolved = resolve_aliases(&script.rules[0].event, &defines).unwrap();
        assert!(compile_event(&resolved).is_ok());

        // Self-reference: A defined in terms of A fails at build time.
        let bad = parse_script("DEFINE A = SEQ+(A) CREATE RULE x, y ON A IF true DO f()").unwrap();
        assert!(matches!(
            build_defines(&bad.defines),
            Err(CompileError::UnknownAlias(_) | CompileError::CyclicAlias(_))
        ));
    }
}
