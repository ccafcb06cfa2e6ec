//! Variable binding: detected instance → values for conditions and actions.
//!
//! When a rule fires, its actions refer to the variables of the event part:
//! Rule 3's `UPDATE … WHERE object_epc = o` needs `o`, Rule 4's
//! `BULK INSERT … VALUES (o1, o2, t2, UC)` needs one `o1` *per packed item*
//! plus the scalar `o2`/`t2`. The binder walks the detected [`Instance`]
//! alongside the (alias-free) event AST:
//!
//! * scalar variables bind once;
//! * variables under `SEQ+`/`TSEQ+` bind per element, forming the *bulk
//!   rows* that `BULK INSERT` iterates;
//! * negations bind nothing (their witness is an absence).
//!
//! A scalar firing allocates nothing here: variable names are borrowed from
//! the rule's AST, which outlives every firing, a reader variable's value
//! shares the catalog entry's own name string, and a [`Row`] keeps its first
//! [`INLINE_VARS`] variables in place. A run of N elements allocates once,
//! for the `Vec` of its N rows.

use std::fmt;

use rfid_epc::{ReaderDef, ReaderId};
use rfid_events::{Catalog, Instance, InstanceKind};
use rfid_store::Value;

use crate::ast::{EventAst, Term};

/// Variables a [`Row`] holds without touching the heap. The paper's rules
/// bind two to four (`r, o, t1, t2`); a fifth spills to a `Vec`.
pub const INLINE_VARS: usize = 4;

/// One bound variable.
#[derive(Debug, Clone)]
struct Bound<'ast> {
    name: &'ast str,
    value: Value,
}

/// One set of bound variables, by the name the rule's event gives them: a
/// small association list searched front to back. Binding a name again
/// replaces its value, as in the map this stands in for.
#[derive(Debug, Default, Clone)]
pub struct Row<'ast> {
    /// Filled from the front; the first `None` ends the list.
    inline: [Option<Bound<'ast>>; INLINE_VARS],
    /// Variables past the inline ones, in binding order.
    spill: Vec<Bound<'ast>>,
    /// The variable last bound to the name of a reader the catalog knows,
    /// with that reader's id: `location(r)`/`group(r)` then read the
    /// reader's record by id instead of looking its name up again.
    reader: Option<(&'ast str, ReaderId)>,
}

impl<'ast> Row<'ast> {
    /// Binds `var` to `value`, replacing an earlier binding of the name.
    pub fn insert(&mut self, var: &'ast str, value: Value) {
        if self.reader.is_some_and(|(name, _)| name == var) {
            self.reader = None;
        }
        self.set(var, value);
    }

    /// Binds `var` to the name of a reader of the catalog.
    fn insert_reader(&mut self, var: &'ast str, reader: &ReaderDef) {
        self.set(var, Value::Str(reader.name.clone()));
        self.reader = Some((var, reader.id));
    }

    fn set(&mut self, name: &'ast str, value: Value) {
        let bound = Bound { name, value };
        for slot in &mut self.inline {
            match slot {
                Some(earlier) if earlier.name != name => {}
                _ => {
                    *slot = Some(bound);
                    return;
                }
            }
        }
        match self.spill.iter_mut().find(|b| b.name == name) {
            Some(earlier) => *earlier = bound,
            None => self.spill.push(bound),
        }
    }

    fn entries(&self) -> impl Iterator<Item = &Bound<'ast>> {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
    }

    /// The value bound to `var`.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.entries().find(|b| b.name == var).map(|b| &b.value)
    }

    /// Whether `var` is bound.
    pub fn contains_key(&self, var: &str) -> bool {
        self.get(var).is_some()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    /// The bound `(variable, value)` pairs, in first-binding order.
    pub fn iter(&self) -> impl Iterator<Item = (&'ast str, &Value)> {
        self.entries().map(|b| (b.name, &b.value))
    }

    /// [`Row::get`], with the reader's id when the row remembers it.
    fn get_reader(&self, var: &str) -> Option<ReaderVar<'_>> {
        let value = self.get(var)?;
        let id = self
            .reader
            .and_then(|(name, id)| (name == var).then_some(id));
        Some(ReaderVar { value, id })
    }
}

/// `row["o"]`: the value bound to `o`.
///
/// # Panics
/// Panics when the variable is not bound.
impl std::ops::Index<&str> for Row<'_> {
    type Output = Value;

    fn index(&self, var: &str) -> &Value {
        self.get(var)
            .unwrap_or_else(|| panic!("variable `{var}` is not bound"))
    }
}

/// Rows are equal when they bind the same names to the same values, in
/// whatever order.
impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(var, v)| other.get(var) == Some(v))
    }
}

/// A variable looked up as the argument of `location(…)`/`group(…)`.
pub(crate) struct ReaderVar<'a> {
    pub(crate) value: &'a Value,
    id: Option<ReaderId>,
}

impl ReaderVar<'_> {
    /// The catalog record of the reader the variable names: by the id the
    /// binder kept, else by the bound name. `catalog` must be the one the
    /// firing was bound against.
    pub(crate) fn def<'c>(&self, catalog: &'c Catalog) -> Option<&'c ReaderDef> {
        let id = match self.id {
            Some(id) => id,
            None => catalog.readers.id_of(self.value.as_str()?)?,
        };
        catalog.readers.def(id)
    }
}

/// The values a firing bound.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Bindings<'ast> {
    /// Once-per-firing variables.
    pub scalar: Row<'ast>,
    /// Per-element rows from an aperiodic sequence (empty when the event has
    /// none).
    pub bulk: Vec<Row<'ast>>,
}

impl Bindings<'_> {
    /// Looks up a variable: scalar first, then the given bulk row, then the
    /// first bulk row.
    pub fn get<'a>(&'a self, var: &str, row: Option<&'a Row<'_>>) -> Option<&'a Value> {
        self.find(row, |r| r.get(var))
    }

    /// [`Bindings::get`] for the argument of `location(…)`/`group(…)`.
    pub(crate) fn get_reader<'a>(
        &'a self,
        var: &str,
        row: Option<&'a Row<'_>>,
    ) -> Option<ReaderVar<'a>> {
        self.find(row, |r| r.get_reader(var))
    }

    /// The lookup order of every variable reference.
    fn find<'a, T>(
        &'a self,
        row: Option<&'a Row<'_>>,
        in_row: impl Fn(&'a Row<'a>) -> Option<T>,
    ) -> Option<T> {
        in_row(&self.scalar)
            .or_else(|| row.and_then(&in_row))
            .or_else(|| self.bulk.first().and_then(&in_row))
    }
}

/// Binding failures (all indicate an engine/AST shape mismatch — they are
/// reported, not panicked, because rule scripts are user input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError(pub String);

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binding failed: {}", self.0)
    }
}

impl std::error::Error for BindError {}

/// Binds the variables of `ast` against the detected `inst`.
pub fn bind<'ast>(
    ast: &'ast EventAst,
    inst: &Instance,
    catalog: &Catalog,
) -> Result<Bindings<'ast>, BindError> {
    let mut out = Bindings::default();
    bind_into(
        ast,
        inst,
        catalog,
        &mut out.scalar,
        &mut Some(&mut out.bulk),
    )?;
    Ok(out)
}

/// Recursive worker. `bulk` is `None` while inside an aperiodic element
/// (nested aperiodics are not supported and error out).
fn bind_into<'ast>(
    ast: &'ast EventAst,
    inst: &Instance,
    catalog: &Catalog,
    scalar: &mut Row<'ast>,
    bulk: &mut Option<&mut Vec<Row<'ast>>>,
) -> Result<(), BindError> {
    match ast {
        EventAst::Alias(name) => Err(BindError(format!("unresolved alias `{name}`"))),
        EventAst::Observation {
            reader,
            object,
            time,
            ..
        } => {
            let InstanceKind::Observation(obs) = inst.kind() else {
                return Err(BindError(format!(
                    "pattern expected an observation, instance is {inst}"
                )));
            };
            if let Term::Var(v) = reader {
                match catalog.readers.def(obs.reader) {
                    Some(def) => scalar.insert_reader(v, def),
                    None => scalar.insert(v, Value::str(obs.reader.to_string())),
                }
            }
            if let Term::Var(v) = object {
                scalar.insert(v, Value::Epc(obs.object));
            }
            if let Term::Var(v) = time {
                scalar.insert(v, Value::Time(obs.at));
            }
            Ok(())
        }
        EventAst::Within { inner, .. } => bind_into(inner, inst, catalog, scalar, bulk),
        EventAst::Not(_) => Ok(()), // absence: nothing to bind
        EventAst::And(a, b) | EventAst::Seq(a, b) => bind_binary(a, b, inst, catalog, scalar, bulk),
        EventAst::TSeq { first, second, .. } => {
            bind_binary(first, second, inst, catalog, scalar, bulk)
        }
        EventAst::Or(a, b) => {
            let child = sole_child(inst, "OR")?;
            // The instance shape tells us which branch matched; try left
            // first on a scratch map so a failed attempt leaves no bindings.
            let mut scratch = scalar.clone();
            let mut scratch_bulk: Vec<Row<'ast>> = Vec::new();
            let mut scratch_opt = Some(&mut scratch_bulk);
            if bind_into(a, child, catalog, &mut scratch, &mut scratch_opt).is_ok() {
                *scalar = scratch;
                if let Some(bulk) = bulk.as_deref_mut() {
                    bulk.extend(scratch_bulk);
                }
                return Ok(());
            }
            let mut scratch = scalar.clone();
            let mut scratch_bulk: Vec<Row<'ast>> = Vec::new();
            let mut scratch_opt = Some(&mut scratch_bulk);
            bind_into(b, child, catalog, &mut scratch, &mut scratch_opt)?;
            *scalar = scratch;
            if let Some(bulk) = bulk.as_deref_mut() {
                bulk.extend(scratch_bulk);
            }
            Ok(())
        }
        EventAst::SeqPlus(inner) | EventAst::TSeqPlus { inner, .. } => {
            let Some(bulk) = bulk.as_deref_mut() else {
                return Err(BindError(
                    "nested aperiodic sequences are not supported".into(),
                ));
            };
            let InstanceKind::Composite { children, .. } = inst.kind() else {
                return Err(BindError(format!(
                    "aperiodic pattern expected a run, instance is {inst}"
                )));
            };
            bulk.reserve(children.len());
            for element in children {
                // Bound in place: a row is a few hundred bytes to move.
                bulk.push(Row::default());
                let row = bulk.last_mut().expect("just pushed");
                bind_into(inner, element, catalog, row, &mut None)?;
            }
            Ok(())
        }
    }
}

fn bind_binary<'ast>(
    a: &'ast EventAst,
    b: &'ast EventAst,
    inst: &Instance,
    catalog: &Catalog,
    scalar: &mut Row<'ast>,
    bulk: &mut Option<&mut Vec<Row<'ast>>>,
) -> Result<(), BindError> {
    let InstanceKind::Composite { children, .. } = inst.kind() else {
        return Err(BindError(format!(
            "binary pattern expected a composite, instance is {inst}"
        )));
    };
    if children.len() != 2 {
        return Err(BindError(format!(
            "binary pattern expected 2 constituents, instance has {}",
            children.len()
        )));
    }
    bind_into(a, &children[0], catalog, scalar, bulk)?;
    bind_into(b, &children[1], catalog, scalar, bulk)
}

fn sole_child<'a>(inst: &'a Instance, op: &str) -> Result<&'a Instance, BindError> {
    match inst.kind() {
        InstanceKind::Composite { children, .. } if children.len() == 1 => Ok(&children[0]),
        _ => Err(BindError(format!(
            "{op} expected a single-child composite, got {inst}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_event;
    use rfid_epc::{Epc, Gid96, ReaderId};
    use rfid_events::{Observation, Timestamp};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.readers.register("r1", "r1", "dock");
        c.readers.register("r2", "r2", "dock");
        c
    }

    fn epc(n: u64) -> Epc {
        Gid96::new(1, 1, n).unwrap().into()
    }

    fn obs_inst(reader: u32, serial: u64, secs: u64) -> Arc<Instance> {
        Arc::new(Instance::observation(Observation::new(
            ReaderId(reader),
            epc(serial),
            Timestamp::from_secs(secs),
        )))
    }

    #[test]
    fn binds_scalar_vars_from_sequence() {
        let ast = parse_event("observation(r, o, t1); observation(r, o, t2)").unwrap();
        let inst = Instance::composite("SEQ", vec![obs_inst(0, 7, 1), obs_inst(0, 7, 3)]);
        let b = bind(&ast, &inst, &catalog()).unwrap();
        assert_eq!(b.scalar["r"], Value::str("r1"));
        assert_eq!(b.scalar["o"], Value::Epc(epc(7)));
        assert_eq!(b.scalar["t1"], Value::Time(Timestamp::from_secs(1)));
        assert_eq!(b.scalar["t2"], Value::Time(Timestamp::from_secs(3)));
        assert!(b.bulk.is_empty());
    }

    #[test]
    fn binds_bulk_rows_from_aperiodic() {
        // Rule 4 shape.
        let ast = parse_event(
            "TSEQ(TSEQ+(observation('r1', o1, t1), 0.1 sec, 1 sec); \
                  observation('r2', o2, t2), 10 sec, 20 sec)",
        )
        .unwrap();
        let run = Instance::composite(
            "TSEQ+",
            vec![obs_inst(0, 1, 1), obs_inst(0, 2, 2), obs_inst(0, 3, 3)],
        );
        let inst = Instance::composite("TSEQ", vec![Arc::new(run), obs_inst(1, 100, 15)]);
        let b = bind(&ast, &inst, &catalog()).unwrap();
        assert_eq!(b.scalar["o2"], Value::Epc(epc(100)));
        assert_eq!(b.bulk.len(), 3);
        let items: Vec<&Value> = b.bulk.iter().map(|r| &r["o1"]).collect();
        assert_eq!(
            items,
            vec![
                &Value::Epc(epc(1)),
                &Value::Epc(epc(2)),
                &Value::Epc(epc(3))
            ]
        );
        // get() falls back to the first bulk row.
        assert_eq!(b.get("o1", None), Some(&Value::Epc(epc(1))));
    }

    #[test]
    fn negation_binds_nothing() {
        let ast = parse_event("NOT observation(r, o, t1); observation(r, o, t2)").unwrap();
        let absence = Arc::new(Instance::absence(Timestamp::ZERO, Timestamp::from_secs(1)));
        let inst = Instance::composite("SEQ", vec![absence, obs_inst(0, 7, 2)]);
        let b = bind(&ast, &inst, &catalog()).unwrap();
        assert_eq!(
            b.scalar["o"],
            Value::Epc(epc(7)),
            "bound from the positive side"
        );
        assert!(!b.scalar.contains_key("t1"));
    }

    #[test]
    fn or_binds_matching_branch() {
        let ast = parse_event(
            "observation('r1', a, t) OR SEQ(observation('r1', b, t1); observation('r2', c, t2))",
        )
        .unwrap();
        // Right-branch instance: the OR wraps a SEQ composite.
        let seq = Instance::composite("SEQ", vec![obs_inst(0, 1, 1), obs_inst(1, 2, 2)]);
        let inst = Instance::composite("OR", vec![Arc::new(seq)]);
        let b = bind(&ast, &inst, &catalog()).unwrap();
        assert!(b.scalar.contains_key("b"));
        assert!(b.scalar.contains_key("c"));
        assert!(!b.scalar.contains_key("a"));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let ast = parse_event("observation(r, o, t)").unwrap();
        let comp = Instance::composite("SEQ", vec![obs_inst(0, 1, 1), obs_inst(0, 1, 2)]);
        assert!(bind(&ast, &comp, &catalog()).is_err());
    }

    #[test]
    fn unknown_reader_binds_fallback_name() {
        let ast = parse_event("observation(r, o, t)").unwrap();
        let inst = obs_inst(99, 1, 0);
        let b = bind(&ast, &inst, &catalog()).unwrap();
        assert_eq!(b.scalar["r"], Value::str("reader#99"));
    }
}
