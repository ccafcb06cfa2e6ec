//! Action execution (`DO …`).
//!
//! Actions run in declaration order against the store and the procedure
//! registry. `BULK INSERT` runs once per bulk binding row (the elements of
//! an aperiodic sequence); everything else evaluates scalar bindings.

use std::fmt;

use rfid_epc::ReaderDef;
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
    let eval_all = |exprs: &[ValueExpr], row: Option<&Row<'_>>| {
        let mut values = Vec::with_capacity(exprs.len());
        for v in exprs {
            values.push(eval(v, bindings, row, inst, catalog)?);
        }
        Ok::<_, ActionError>(values)
    };
    match action {
        ActionAst::Insert { table, values } => {
            let row = eval_all(values, None)?;
            db.require_mut(table)?.insert(row)?;
            Ok(())
        }
        ActionAst::BulkInsert { table, values } => {
            // The table is looked up once, after the first row evaluates (a
            // firing without bulk rows never names it).
            let mut rows = bindings.bulk.iter();
            let Some(first) = rows.next() else {
                return Ok(());
            };
            let row = eval_all(values, Some(first))?;
            let target = db.require_mut(table)?;
            target.insert(row)?;
            for row_bindings in rows {
                target.insert(eval_all(values, Some(row_bindings))?)?;
            }
            Ok(())
        }
        ActionAst::Update {
            table,
            sets,
            wheres,
        } => {
            let mut assignments = Vec::with_capacity(sets.len());
            for (col, v) in sets {
                assignments.push((col.as_str(), eval(v, bindings, None, inst, catalog)?));
            }
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
            let id = procs.intern(name);
            let args = args.iter().map(|v| eval(v, bindings, None, inst, catalog));
            procs.call(id, args)
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
    let mut filter = Filter {
        conds: Vec::with_capacity(wheres.len()),
    };
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
        filter.conds.push(Cond {
            column: w.column.clone(),
            op,
            value,
        });
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
        ValueExpr::Str(s) => Value::str(s.as_str()),
        ValueExpr::Int(i) => Value::Int(*i),
        ValueExpr::Uc => Value::Uc,
        ValueExpr::Now => Value::Time(inst.t_end()),
        ValueExpr::LocationOf(v) => {
            Value::Str(reader_def(v, bindings, row, catalog)?.location.clone())
        }
        ValueExpr::GroupOf(v) => Value::Str(reader_def(v, bindings, row, catalog)?.group.clone()),
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

/// The catalog record of the reader bound to `v`, for `location(v)` and
/// `group(v)`: their values are the record's own strings.
fn reader_def<'c>(
    v: &str,
    bindings: &Bindings<'_>,
    row: Option<&Row<'_>>,
    catalog: &'c Catalog,
) -> Result<&'c ReaderDef, ActionError> {
    let var = bindings
        .get_reader(v, row)
        .ok_or_else(|| ActionError::UnboundVar(v.to_owned()))?;
    var.def(catalog).ok_or_else(|| {
        ActionError::Unresolvable(match var.value.as_str() {
            Some(name) => format!("reader `{name}`"),
            None => format!("`{v}` is not a reader name"),
        })
    })
}
