//! Action execution (`DO …`).
//!
//! Actions run in declaration order against the store and the procedure
//! registry. `BULK INSERT` runs once per bulk binding row (the elements of
//! an aperiodic sequence); everything else evaluates scalar bindings.

use std::fmt;

use rfid_events::{Catalog, Instance};
use rfid_store::{Cond, CondOp, Database, Filter, TableError, Value};

use crate::ast::{ActionAst, CompareOp, ValueExpr, WhereCond};
use crate::bind::{Bindings, Row};
use crate::runtime::Procedures;

/// Action execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionError {
    /// A variable used in an action was never bound by the event.
    UnboundVar(String),
    /// A store operation failed.
    Store(TableError),
    /// A builtin value function could not resolve (unknown reader, untyped
    /// object, …).
    Unresolvable(String),
}

impl fmt::Display for ActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnboundVar(v) => write!(f, "variable `{v}` is not bound by the event"),
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::Unresolvable(what) => write!(f, "cannot resolve {what}"),
        }
    }
}

impl std::error::Error for ActionError {}

impl From<TableError> for ActionError {
    fn from(value: TableError) -> Self {
        Self::Store(value)
    }
}

/// Executes one action.
pub fn execute(
    action: &ActionAst,
    bindings: &Bindings<'_>,
    inst: &Instance,
    catalog: &Catalog,
    db: &mut Database,
    procs: &mut Procedures,
) -> Result<(), ActionError> {
    match action {
        ActionAst::Insert { table, values } => {
            let row = values
                .iter()
                .map(|v| eval(v, bindings, None, inst, catalog))
                .collect::<Result<Vec<_>, _>>()?;
            db.require_mut(table)?.insert(row)?;
            Ok(())
        }
        ActionAst::BulkInsert { table, values } => {
            for row_bindings in &bindings.bulk {
                let row = values
                    .iter()
                    .map(|v| eval(v, bindings, Some(row_bindings), inst, catalog))
                    .collect::<Result<Vec<_>, _>>()?;
                db.require_mut(table)?.insert(row)?;
            }
            Ok(())
        }
        ActionAst::Update {
            table,
            sets,
            wheres,
        } => {
            let assignments = sets
                .iter()
                .map(|(col, v)| Ok((col.clone(), eval(v, bindings, None, inst, catalog)?)))
                .collect::<Result<Vec<_>, ActionError>>()?;
            let filter = build_filter(wheres, bindings, inst, catalog)?;
            db.require_mut(table)?.update(&filter, &assignments)?;
            Ok(())
        }
        ActionAst::Delete { table, wheres } => {
            let filter = build_filter(wheres, bindings, inst, catalog)?;
            db.require_mut(table)?.delete(&filter)?;
            Ok(())
        }
        ActionAst::Call { name, args } => {
            let values = args
                .iter()
                .map(|v| eval(v, bindings, None, inst, catalog))
                .collect::<Result<Vec<_>, _>>()?;
            procs.invoke(name, values);
            Ok(())
        }
    }
}

/// Builds a store filter from `WHERE` conjuncts under the firing's
/// bindings. Shared with `EXISTS(…)` condition evaluation.
pub fn build_filter(
    wheres: &[WhereCond],
    bindings: &Bindings<'_>,
    inst: &Instance,
    catalog: &Catalog,
) -> Result<Filter, ActionError> {
    let mut filter = Filter::all();
    for w in wheres {
        let value = eval(&w.value, bindings, None, inst, catalog)?;
        let op = match w.op {
            CompareOp::Eq => CondOp::Eq,
            CompareOp::Ne => CondOp::Ne,
            CompareOp::Lt => CondOp::Lt,
            CompareOp::Le => CondOp::Le,
            CompareOp::Gt => CondOp::Gt,
            CompareOp::Ge => CondOp::Ge,
        };
        filter = filter.and(Cond::new(&w.column, op, value));
    }
    Ok(filter)
}

/// Evaluates a value expression under scalar + optional bulk-row bindings.
pub fn eval(
    expr: &ValueExpr,
    bindings: &Bindings<'_>,
    row: Option<&Row<'_>>,
    inst: &Instance,
    catalog: &Catalog,
) -> Result<Value, ActionError> {
    Ok(match expr {
        ValueExpr::Var(v) => bindings
            .get(v, row)
            .cloned()
            .ok_or_else(|| ActionError::UnboundVar(v.clone()))?,
        ValueExpr::Str(s) => Value::str(s.clone()),
        ValueExpr::Int(i) => Value::Int(*i),
        ValueExpr::Uc => Value::Uc,
        ValueExpr::Now => Value::Time(inst.t_end()),
        ValueExpr::LocationOf(v) => {
            let name = var_reader_name(v, bindings, row)?;
            let id = catalog
                .readers
                .id_of(name)
                .ok_or_else(|| ActionError::Unresolvable(format!("reader `{name}`")))?;
            let loc = catalog
                .readers
                .location_of(id)
                .ok_or_else(|| ActionError::Unresolvable(format!("location of `{name}`")))?;
            Value::str(loc)
        }
        ValueExpr::GroupOf(v) => {
            let name = var_reader_name(v, bindings, row)?;
            let id = catalog
                .readers
                .id_of(name)
                .ok_or_else(|| ActionError::Unresolvable(format!("reader `{name}`")))?;
            let group = catalog
                .readers
                .group_of(id)
                .ok_or_else(|| ActionError::Unresolvable(format!("group of `{name}`")))?;
            Value::str(group)
        }
        ValueExpr::TypeOf(v) => {
            let value = bindings
                .get(v, row)
                .ok_or_else(|| ActionError::UnboundVar(v.clone()))?;
            let epc = value
                .as_epc()
                .ok_or_else(|| ActionError::Unresolvable(format!("`{v}` is not an EPC")))?;
            let ty = catalog
                .types
                .type_of(epc)
                .ok_or_else(|| ActionError::Unresolvable(format!("type of {epc}")))?;
            Value::str(ty.name())
        }
    })
}

fn var_reader_name<'a>(
    v: &str,
    bindings: &'a Bindings<'_>,
    row: Option<&'a Row<'_>>,
) -> Result<&'a str, ActionError> {
    let value = bindings
        .get(v, row)
        .ok_or_else(|| ActionError::UnboundVar(v.to_owned()))?;
    value
        .as_str()
        .ok_or_else(|| ActionError::Unresolvable(format!("`{v}` is not a reader name")))
}
