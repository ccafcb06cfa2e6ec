//! Condition evaluation (`IF …`).
//!
//! Conditions are boolean combinations of comparisons over bound variables
//! and the built-in functions `type(o)`, `group(r)`, `count()`, and
//! `interval()`. Incomparable operands make a comparison false (SQL-style
//! unknown), never an error — a rule with a nonsense condition simply never
//! fires.

use rfid_events::{Catalog, Instance};
use rfid_store::{Database, Value};

use crate::ast::{CompareOp, CondAst, CondTerm};
use crate::bind::Bindings;

/// Evaluates a condition for a firing. `db` backs `EXISTS(…)` queries.
pub fn eval_cond(
    cond: &CondAst,
    bindings: &Bindings<'_>,
    inst: &Instance,
    catalog: &Catalog,
    db: &Database,
) -> bool {
    match cond {
        CondAst::True => true,
        CondAst::False => false,
        CondAst::And(a, b) => {
            eval_cond(a, bindings, inst, catalog, db) && eval_cond(b, bindings, inst, catalog, db)
        }
        CondAst::Or(a, b) => {
            eval_cond(a, bindings, inst, catalog, db) || eval_cond(b, bindings, inst, catalog, db)
        }
        CondAst::Not(x) => !eval_cond(x, bindings, inst, catalog, db),
        CondAst::Compare { lhs, op, rhs } => {
            let (Some(l), Some(r)) = (
                eval_term(lhs, bindings, inst, catalog),
                eval_term(rhs, bindings, inst, catalog),
            ) else {
                return false;
            };
            compare(&l, *op, &r)
        }
        CondAst::Exists { table, wheres } => {
            // SQL-style unknown-as-false: a missing table or an unbound
            // variable makes the predicate false, never an error.
            let Ok(filter) = crate::actions::build_filter(wheres, bindings, inst, catalog) else {
                return false;
            };
            db.table(table)
                .and_then(|t| t.count(&filter).ok())
                .is_some_and(|n| n > 0)
        }
    }
}

fn eval_term(
    term: &CondTerm,
    bindings: &Bindings<'_>,
    inst: &Instance,
    catalog: &Catalog,
) -> Option<Value> {
    match term {
        CondTerm::Var(v) => bindings.get(v, None).cloned(),
        CondTerm::Str(s) => Some(Value::str(s.as_str())),
        CondTerm::Int(i) => Some(Value::Int(*i)),
        CondTerm::Duration(d) => Some(Value::Int(d.as_millis() as i64)),
        CondTerm::TypeOf(v) => {
            let epc = bindings.get(v, None)?.as_epc()?;
            catalog.types.type_of(epc).map(|t| Value::str(t.name()))
        }
        CondTerm::GroupOf(v) => {
            let def = bindings.get_reader(v, None)?.def(catalog)?;
            Some(Value::Str(def.group.clone()))
        }
        CondTerm::Count => Some(Value::Int(inst.primitive_count() as i64)),
        CondTerm::Interval => Some(Value::Int(inst.interval().as_millis() as i64)),
    }
}

/// Applies a comparison; incomparable operands are false.
pub fn compare(l: &Value, op: CompareOp, r: &Value) -> bool {
    use std::cmp::Ordering::*;
    #[allow(clippy::match_like_matches_macro)] // table form reads clearer
    match (op, l.compare(r)) {
        (CompareOp::Eq, Some(Equal)) => true,
        (CompareOp::Ne, Some(Less | Greater)) => true,
        (CompareOp::Lt, Some(Less)) => true,
        (CompareOp::Le, Some(Less | Equal)) => true,
        (CompareOp::Gt, Some(Greater)) => true,
        (CompareOp::Ge, Some(Greater | Equal)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;
    use rfid_epc::{Epc, Gid96};
    use rfid_events::{Observation, Timestamp};

    fn parse_cond(src: &str) -> CondAst {
        let script = parse_script(&format!(
            "CREATE RULE x, y ON observation(r, o, t) IF {src} DO f()"
        ))
        .unwrap();
        script.rules[0].condition.clone()
    }

    fn fixture() -> (Bindings<'static>, Instance, Catalog) {
        let mut catalog = Catalog::new();
        let r1 = catalog.readers.register("r1", "dock-group", "dock");
        let laptop: Epc = Gid96::new(1, 10, 5).unwrap().into();
        catalog.types.map_class_of(laptop, "laptop");
        let inst = Instance::observation(Observation::new(r1, laptop, Timestamp::from_secs(3)));
        let mut b = Bindings::default();
        b.scalar.insert("r", Value::str("r1"));
        b.scalar.insert("o", Value::Epc(laptop));
        b.scalar.insert("n", Value::Int(7));
        (b, inst, catalog)
    }

    fn ec(cond: &CondAst, b: &Bindings<'_>, i: &Instance, c: &Catalog) -> bool {
        eval_cond(cond, b, i, c, &Database::rfid())
    }

    #[test]
    fn boolean_combinators() {
        let (b, i, c) = fixture();
        assert!(ec(&parse_cond("true"), &b, &i, &c));
        assert!(!ec(&parse_cond("false"), &b, &i, &c));
        assert!(ec(&parse_cond("true AND NOT false"), &b, &i, &c));
        assert!(ec(&parse_cond("false OR true"), &b, &i, &c));
    }

    #[test]
    fn builtin_functions() {
        let (b, i, c) = fixture();
        assert!(ec(&parse_cond("type(o) = 'laptop'"), &b, &i, &c));
        assert!(!ec(&parse_cond("type(o) = 'pallet'"), &b, &i, &c));
        assert!(ec(&parse_cond("group(r) = 'dock-group'"), &b, &i, &c));
        assert!(ec(&parse_cond("count() = 1"), &b, &i, &c));
        assert!(ec(&parse_cond("interval() <= 5 sec"), &b, &i, &c));
    }

    #[test]
    fn numeric_comparisons() {
        let (b, i, c) = fixture();
        assert!(ec(&parse_cond("n > 5"), &b, &i, &c));
        assert!(ec(&parse_cond("n <= 7"), &b, &i, &c));
        assert!(!ec(&parse_cond("n != 7"), &b, &i, &c));
    }

    #[test]
    fn incomparable_and_unbound_are_false() {
        let (b, i, c) = fixture();
        assert!(!ec(&parse_cond("n = 'seven'"), &b, &i, &c));
        assert!(!ec(&parse_cond("missing = 1"), &b, &i, &c));
        // …but NOT of an unknown is true (two-valued semantics).
        assert!(ec(&parse_cond("NOT (missing = 1)"), &b, &i, &c));
    }
}
