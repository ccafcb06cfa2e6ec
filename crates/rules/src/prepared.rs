//! The prepared firing: what [`crate::RuleRuntime`] runs when a rule fires.
//!
//! A rule is lowered once, at `load`, into three things a firing only reads:
//!
//! * a [`BindPlan`] — the alias-free `ON` event flattened in pre-order, every
//!   variable site a slot number. Binding walks the detected instance by
//!   child position and copies reader ids, EPCs and times into a [`Frame`]:
//!   scalar slots once, the slots of a `SEQ+`/`TSEQ+` run once per element
//!   in one buffer. No name is compared and no row is built;
//! * the condition and the `DO` list with every operand resolved to a slot
//!   source ([`Slot`]), a constant (one shared string per literal), or a
//!   function of a slot;
//! * each statement's table id and column positions, looked up in the
//!   [`Database`] once and again only after its [`Database::version`] moved.
//!
//! What a rule lowers to holds no rule name, id or window, so rules whose
//! bodies agree lower to equal [`PreparedRule`]s (`Eq + Hash`, variable and
//! table names included: they are in the error texts). `RuleRuntime` keeps
//! one program per distinct body and fires it for every rule that has it.
//!
//! The observable behaviour — store contents, procedure log, error values
//! and their order — is that of [`crate::bind::bind`] →
//! [`crate::cond::eval_cond`] → [`crate::actions::execute`], which stay as
//! the reference `tests/prepared_equivalence.rs` compares this module to.

use std::sync::Arc;

use rfid_epc::{Epc, ReaderDef, ReaderId};
use rfid_events::{Catalog, Instance, InstanceKind, Timestamp};
use rfid_store::{ColCond, CondOp, Database, Row, Table, TableError, TableId, Value};

use crate::actions::ActionError;
use crate::ast::{
    ActionAst, CompareOp, CondAst, CondTerm, EventAst, RuleDecl, Term, ValueExpr, WhereCond,
};
use crate::bind::BindError;
use crate::cond::compare;
use crate::runtime::Procedures;

/// What a variable site copied out of the match.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    /// Not bound by this firing (an `OR` branch not taken, or not yet).
    Unbound,
    /// A reader variable: the id, so `location(r)`/`group(r)` index the
    /// catalog record and the name is copied only where it is used.
    Reader(ReaderId),
    Object(Epc),
    Time(Timestamp),
}

/// The values one firing bound, by slot.
#[derive(Debug, Default)]
struct Frame {
    scalar: Vec<Cell>,
    /// `rows` × `width` cells: the elements of the firing's runs, in order.
    elems: Vec<Cell>,
    rows: usize,
    width: usize,
}

impl Frame {
    fn reset(&mut self, scalars: usize, width: usize) {
        self.scalar.clear();
        self.scalar.resize(scalars, Cell::Unbound);
        self.elems.clear();
        self.rows = 0;
        self.width = width;
    }

    /// Appends `n` unbound element rows, reserving once; the first's offset.
    fn push_rows(&mut self, n: usize) -> usize {
        let at = self.elems.len();
        self.elems.resize(at + n * self.width, Cell::Unbound);
        self.rows += n;
        at
    }

    /// The cells a leaf writes: an element row's, or the scalar ones.
    fn cells_mut(&mut self, row_at: Option<usize>) -> &mut [Cell] {
        match row_at {
            Some(at) => &mut self.elems[at..at + self.width],
            None => &mut self.scalar,
        }
    }

    /// Ends a firing. The run buffer keeps its capacity for the next one up
    /// to [`KEPT_RUN_BYTES`]; a firing over a longer run gives it back, so
    /// it does not pin its size for the life of the runtime.
    fn release(&mut self) {
        if self.elems.capacity() * std::mem::size_of::<Cell>() > KEPT_RUN_BYTES {
            self.elems = Vec::new();
        }
    }

    /// A variable's cell. Where both sides bind it: scalar first, then
    /// element row `row`, then the first element row — the order of
    /// [`crate::bind::Bindings::get`].
    fn get(&self, slot: Slot, row: Option<usize>) -> Cell {
        match slot {
            Slot::Never => Cell::Unbound,
            Slot::Scalar(at) => self.scalar[at],
            Slot::Elem(at) => self.elem(at, row),
            Slot::Both { scalar, elem } => match self.scalar[scalar] {
                Cell::Unbound => self.elem(elem, row),
                cell => cell,
            },
        }
    }

    /// Element slot `slot` of row `row`, else of the first row.
    fn elem(&self, slot: usize, row: Option<usize>) -> Cell {
        let at = |row: usize| self.elems[row * self.width + slot];
        match row.map(at) {
            Some(cell) if cell != Cell::Unbound => cell,
            _ if self.rows > 0 => at(0),
            _ => Cell::Unbound,
        }
    }
}

/// The run buffer a [`Frame`] keeps between firings: 2,048 cells, a run of
/// 682 elements binding three variables each.
const KEPT_RUN_BYTES: usize = 64 << 10;

/// One step of a bind plan. A node's first child is the next op.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum BindOp {
    /// An observation pattern: the slots its variable terms fill.
    Leaf {
        reader: Option<usize>,
        object: Option<usize>,
        time: Option<usize>,
    },
    /// `;`, `AND`, `TSEQ`: two constituents; the second's plan starts at
    /// `second`.
    Pair {
        second: usize,
    },
    /// `NOT`: an absence binds nothing and is not looked at.
    Skip,
    /// `OR`: one constituent, bound by the left plan if it fits its shape,
    /// else by the right one at `right`.
    Or {
        right: usize,
    },
    /// `SEQ+`/`TSEQ+`: the element plan once per constituent. Where the
    /// rows are not kept ([`Level::ElementOr`]) the shape is still checked.
    Run {
        keep: bool,
    },
    Alias(String),
    /// A run directly inside a run's element.
    Nested,
}

/// Where in the event the lowering stands: which slots a leaf's variables
/// get, and what a run means there.
#[derive(Clone, Copy, PartialEq)]
enum Level {
    /// Outside every run: scalar slots; a run's rows are kept.
    Scalar,
    /// Directly in a run's element: element slots; a run is an error.
    Element,
    /// Under an `OR` in an element: the by-name binder tries each branch
    /// with a bulk list of its own, which the element then has nowhere to
    /// put, so a run is checked and its rows dropped.
    ElementOr,
}

/// A rule's `ON` event, lowered for binding.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
struct BindPlan {
    ops: Vec<BindOp>,
    /// Names with a scalar slot / an element slot; a slot is a position.
    scalars: Vec<Box<str>>,
    elems: Vec<Box<str>>,
    /// Where `ops` has no run and no `OR`: its leaves, which binding reads
    /// down their paths instead of walking `ops`.
    leaves: Option<Vec<LeafAt>>,
}

/// An observation pattern of a plan with neither runs nor `OR`s: the way
/// down to it and the scalar slots it fills.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LeafAt {
    /// Bit `d`: the child taken at depth `d` (each a pair of constituents).
    path: u32,
    depth: u32,
    reader: Option<usize>,
    object: Option<usize>,
    time: Option<usize>,
}

impl LeafAt {
    /// Writes the leaf's cells; false where `inst` is not of the shape the
    /// path expects.
    fn bind(&self, inst: &Instance, cells: &mut [Cell]) -> bool {
        let mut node = inst;
        for depth in 0..self.depth {
            let InstanceKind::Composite { children, .. } = node.kind() else {
                return false;
            };
            let [first, second] = &children[..] else {
                return false;
            };
            node = if self.path >> depth & 1 == 0 {
                first
            } else {
                second
            };
        }
        let InstanceKind::Observation(obs) = node.kind() else {
            return false;
        };
        if let Some(slot) = self.reader {
            cells[slot] = Cell::Reader(obs.reader);
        }
        if let Some(slot) = self.object {
            cells[slot] = Cell::Object(obs.object);
        }
        if let Some(slot) = self.time {
            cells[slot] = Cell::Time(obs.at);
        }
        true
    }
}

fn slot_of(names: &mut Vec<Box<str>>, name: &str) -> usize {
    names.iter().position(|n| **n == *name).unwrap_or_else(|| {
        names.push(name.into());
        names.len() - 1
    })
}

impl BindPlan {
    fn lower(event: &EventAst) -> Self {
        let mut plan = Self::default();
        plan.push(event, Level::Scalar);
        let mut leaves = Vec::new();
        plan.leaves = plan.flatten(0, 0, 0, &mut leaves).map(|()| leaves);
        plan
    }

    /// Appends the leaves under `pc`, reached by `path` at `depth`, in
    /// pre-order; `None` under a run or an `OR`, or a pair with no leaf
    /// below it (whose shape only the walk checks).
    fn flatten(&self, pc: usize, path: u32, depth: u32, out: &mut Vec<LeafAt>) -> Option<()> {
        match self.ops[pc] {
            BindOp::Leaf {
                reader,
                object,
                time,
            } => out.push(LeafAt {
                path,
                depth,
                reader,
                object,
                time,
            }),
            BindOp::Skip => {}
            BindOp::Pair { second } if depth < u32::BITS => {
                let before = out.len();
                self.flatten(pc + 1, path, depth + 1, out)?;
                self.flatten(second, path | 1 << depth, depth + 1, out)?;
                if out.len() == before {
                    return None;
                }
            }
            _ => return None,
        }
        Some(())
    }

    fn push(&mut self, ast: &EventAst, level: Level) {
        let at = self.ops.len();
        match ast {
            EventAst::Alias(name) => self.ops.push(BindOp::Alias(name.clone())),
            EventAst::Observation {
                reader,
                object,
                time,
                ..
            } => {
                let names = match level {
                    Level::Scalar => &mut self.scalars,
                    Level::Element | Level::ElementOr => &mut self.elems,
                };
                let mut slot = |term: &Term| match term {
                    Term::Var(v) => Some(slot_of(names, v)),
                    Term::Literal(_) => None,
                };
                let op = BindOp::Leaf {
                    reader: slot(reader),
                    object: slot(object),
                    time: slot(time),
                };
                self.ops.push(op);
            }
            EventAst::Within { inner, .. } => self.push(inner, level),
            EventAst::Not(_) => self.ops.push(BindOp::Skip),
            EventAst::And(a, b)
            | EventAst::Seq(a, b)
            | EventAst::TSeq {
                first: a,
                second: b,
                ..
            } => {
                self.ops.push(BindOp::Pair { second: 0 });
                self.push(a, level);
                self.ops[at] = BindOp::Pair {
                    second: self.ops.len(),
                };
                self.push(b, level);
            }
            EventAst::Or(a, b) => {
                let level = match level {
                    Level::Scalar => Level::Scalar,
                    Level::Element | Level::ElementOr => Level::ElementOr,
                };
                self.ops.push(BindOp::Or { right: 0 });
                self.push(a, level);
                self.ops[at] = BindOp::Or {
                    right: self.ops.len(),
                };
                self.push(b, level);
            }
            EventAst::SeqPlus(inner) | EventAst::TSeqPlus { inner, .. } => {
                if level == Level::Element {
                    return self.ops.push(BindOp::Nested);
                }
                self.ops.push(BindOp::Run {
                    keep: level == Level::Scalar,
                });
                self.push(inner, Level::Element);
            }
        }
    }

    /// Fills `frame` from `inst`; on an error the frame's contents are
    /// meaningless and the firing is over.
    fn bind(&self, inst: &Instance, frame: &mut Frame) -> Result<(), BindError> {
        frame.reset(self.scalars.len(), self.elems.len());
        if let Some(leaves) = &self.leaves {
            // Each pair and leaf the walk would check is on some leaf's
            // path, so a shape only fails here when it fails there: the walk
            // then words the error.
            if leaves.iter().all(|leaf| leaf.bind(inst, &mut frame.scalar)) {
                return Ok(());
            }
        }
        self.exec(0, inst, frame, None, true)
    }

    /// Runs the plan at `pc` over `inst`. With `write` off only the shape is
    /// checked — how an `OR` finds the branch that matched, so a failed
    /// attempt leaves nothing behind. `row_at` is the element row being
    /// bound, if any.
    fn exec(
        &self,
        pc: usize,
        inst: &Instance,
        frame: &mut Frame,
        row_at: Option<usize>,
        write: bool,
    ) -> Result<(), BindError> {
        match &self.ops[pc] {
            BindOp::Leaf {
                reader,
                object,
                time,
            } => {
                let InstanceKind::Observation(obs) = inst.kind() else {
                    return Err(BindError(format!(
                        "pattern expected an observation, instance is {inst}"
                    )));
                };
                if write {
                    let cells = frame.cells_mut(row_at);
                    if let Some(slot) = *reader {
                        cells[slot] = Cell::Reader(obs.reader);
                    }
                    if let Some(slot) = *object {
                        cells[slot] = Cell::Object(obs.object);
                    }
                    if let Some(slot) = *time {
                        cells[slot] = Cell::Time(obs.at);
                    }
                }
                Ok(())
            }
            BindOp::Pair { second } => {
                let InstanceKind::Composite { children, .. } = inst.kind() else {
                    return Err(BindError(format!(
                        "binary pattern expected a composite, instance is {inst}"
                    )));
                };
                let [a, b] = &children[..] else {
                    return Err(BindError(format!(
                        "binary pattern expected 2 constituents, instance has {}",
                        children.len()
                    )));
                };
                self.exec(pc + 1, a, frame, row_at, write)?;
                self.exec(*second, b, frame, row_at, write)
            }
            BindOp::Skip => Ok(()),
            BindOp::Or { right } => {
                let child = match inst.kind() {
                    InstanceKind::Composite { children, .. } if children.len() == 1 => &children[0],
                    _ => {
                        return Err(BindError(format!(
                            "OR expected a single-child composite, got {inst}"
                        )))
                    }
                };
                let left = pc + 1;
                if self.exec(left, child, frame, row_at, false).is_err() {
                    self.exec(*right, child, frame, row_at, write)
                } else if write {
                    self.exec(left, child, frame, row_at, true)
                } else {
                    Ok(())
                }
            }
            BindOp::Run { keep } => {
                let InstanceKind::Composite { children, .. } = inst.kind() else {
                    return Err(BindError(format!(
                        "aperiodic pattern expected a run, instance is {inst}"
                    )));
                };
                if write && *keep {
                    let first = frame.push_rows(children.len());
                    let width = frame.width;
                    for (i, element) in children.iter().enumerate() {
                        self.exec(pc + 1, element, frame, Some(first + i * width), true)?;
                    }
                } else {
                    for element in children.iter() {
                        self.exec(pc + 1, element, frame, None, false)?;
                    }
                }
                Ok(())
            }
            BindOp::Alias(name) => Err(BindError(format!("unresolved alias `{name}`"))),
            BindOp::Nested => Err(BindError(
                "nested aperiodic sequences are not supported".into(),
            )),
        }
    }

    fn var(&self, name: &str) -> VarRef {
        let position = |names: &[Box<str>]| names.iter().position(|n| **n == *name);
        let slot = match (position(&self.scalars), position(&self.elems)) {
            (None, None) => Slot::Never,
            (Some(at), None) => Slot::Scalar(at),
            (None, Some(at)) => Slot::Elem(at),
            (Some(scalar), Some(elem)) => Slot::Both { scalar, elem },
        };
        VarRef {
            name: name.into(),
            slot,
        }
    }
}

/// Where a firing finds a variable's cell, decided at lowering by which
/// side of the event's runs binds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// The event never binds it.
    Never,
    /// Bound outside every run only.
    Scalar(usize),
    /// Bound inside a run only.
    Elem(usize),
    /// Bound on both sides.
    Both { scalar: usize, elem: usize },
}

/// A variable reference of a condition or an action, resolved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct VarRef {
    /// For error messages.
    name: Box<str>,
    slot: Slot,
}

/// An operand of a condition or an action, resolved at load.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Operand {
    Var(VarRef),
    /// A literal, `UC`, a duration in milliseconds: one value, cloned.
    Const(Value),
    Now,
    LocationOf(VarRef),
    GroupOf(VarRef),
    TypeOf(VarRef),
    /// `count()` / `interval()`, in conditions.
    Count,
    Interval,
}

/// What a firing's operands are evaluated against.
struct Ctx<'a> {
    frame: &'a Frame,
    inst: &'a Instance,
    catalog: &'a Catalog,
}

impl Ctx<'_> {
    /// The record of the reader a variable names. An observation by a
    /// reader the catalog lacks binds the name `reader#N`, which is looked
    /// up like any other name.
    fn reader(&self, var: &VarRef, row: Option<usize>) -> Option<&ReaderDef> {
        let Cell::Reader(id) = self.frame.get(var.slot, row) else {
            return None;
        };
        let readers = &self.catalog.readers;
        readers
            .def(id)
            .or_else(|| readers.def(readers.id_of(&id.to_string())?))
    }

    /// An operand's value; `None` where it has none, which a condition
    /// reads as unknown and an action asks [`Ctx::miss`] about.
    fn value(&self, operand: &Operand, row: Option<usize>) -> Option<Value> {
        Some(match operand {
            Operand::Var(var) => match self.frame.get(var.slot, row) {
                Cell::Unbound => return None,
                Cell::Reader(id) => match self.catalog.readers.def(id) {
                    Some(def) => Value::Str(def.name.clone()),
                    None => Value::str(id.to_string()),
                },
                Cell::Object(epc) => Value::Epc(epc),
                Cell::Time(at) => Value::Time(at),
            },
            Operand::Const(value) => value.clone(),
            Operand::Now => Value::Time(self.inst.t_end()),
            Operand::LocationOf(var) => Value::Str(self.reader(var, row)?.location.clone()),
            Operand::GroupOf(var) => Value::Str(self.reader(var, row)?.group.clone()),
            Operand::TypeOf(var) => match self.frame.get(var.slot, row) {
                Cell::Object(epc) => Value::str(self.catalog.types.type_of(epc)?.name()),
                _ => return None,
            },
            Operand::Count => Value::Int(self.inst.primitive_count() as i64),
            Operand::Interval => Value::Int(self.inst.interval().as_millis() as i64),
        })
    }

    /// Why `operand` has no [`Ctx::value`], worded as an action reports
    /// it. Only a miss pays for the words.
    #[cold]
    #[inline(never)]
    fn miss(&self, operand: &Operand, row: Option<usize>) -> ActionError {
        let (Operand::Var(var)
        | Operand::LocationOf(var)
        | Operand::GroupOf(var)
        | Operand::TypeOf(var)) = operand
        else {
            unreachable!("only an operand over a variable can miss")
        };
        let name = &var.name;
        match (operand, self.frame.get(var.slot, row)) {
            (_, Cell::Unbound) => ActionError::UnboundVar(name.to_string()),
            (Operand::TypeOf(_), Cell::Object(epc)) => {
                ActionError::Unresolvable(format!("type of {epc}"))
            }
            (Operand::TypeOf(_), _) => ActionError::Unresolvable(format!("`{name}` is not an EPC")),
            (_, Cell::Reader(id)) => ActionError::Unresolvable(format!("reader `{id}`")),
            _ => ActionError::Unresolvable(format!("`{name}` is not a reader name")),
        }
    }

    fn eval(&self, operand: &Operand, row: Option<usize>) -> Result<Value, ActionError> {
        self.value(operand, row)
            .ok_or_else(|| self.miss(operand, row))
    }

    /// One row of values: the stored row, or a call's arguments.
    fn row(&self, operands: &[Operand], row: Option<usize>) -> Result<Row, ActionError> {
        let mut values = Vec::with_capacity(operands.len());
        for operand in operands {
            match self.value(operand, row) {
                Some(value) => values.push(value),
                None => return Err(self.miss(operand, row)),
            }
        }
        Ok(values)
    }
}

/// `column op operand`, or `SET column = operand` (`op` unused).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ColumnOperand {
    column: Arc<str>,
    /// The column's position in the target's schema; `None` when the
    /// schema has no such column (or there is no such table).
    col: Option<usize>,
    op: CondOp,
    operand: Operand,
}

/// The table a statement names with its `SET` and `WHERE` lists: resolved
/// by [`Target::resolve`], whose result holds while the database's version
/// does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Target {
    table: String,
    id: Option<TableId>,
    sets: Vec<ColumnOperand>,
    wheres: Vec<ColumnOperand>,
    /// The first of `sets` then `wheres` whose column the table lacks.
    unknown: Option<usize>,
}

impl Target {
    fn new(
        table: &str,
        sets: &[(String, ValueExpr)],
        wheres: &[WhereCond],
        plan: &BindPlan,
    ) -> Self {
        let set = |(column, value): &(String, ValueExpr)| ColumnOperand {
            column: column.as_str().into(),
            col: None,
            op: CondOp::Eq,
            operand: lower_value(value, plan),
        };
        let cond = |w: &WhereCond| ColumnOperand {
            column: w.column.clone(),
            col: None,
            op: match w.op {
                CompareOp::Eq => CondOp::Eq,
                CompareOp::Ne => CondOp::Ne,
                CompareOp::Lt => CondOp::Lt,
                CompareOp::Le => CondOp::Le,
                CompareOp::Gt => CondOp::Gt,
                CompareOp::Ge => CondOp::Ge,
            },
            operand: lower_value(&w.value, plan),
        };
        Self {
            table: table.to_owned(),
            id: None,
            sets: sets.iter().map(set).collect(),
            wheres: wheres.iter().map(cond).collect(),
            unknown: None,
        }
    }

    fn resolve(&mut self, db: &Database) {
        self.id = db.table_id(&self.table);
        let schema = self.id.map(|id| db.by_id(id).schema());
        for c in self.sets.iter_mut().chain(&mut self.wheres) {
            c.col = schema.and_then(|s| s.col(&c.column));
        }
        self.unknown = self
            .sets
            .iter()
            .chain(&self.wheres)
            .position(|c| c.col.is_none());
    }

    fn table_mut<'d>(&self, db: &'d mut Database) -> Result<&'d mut Table, TableError> {
        match self.id {
            Some(id) => Ok(db.by_id_mut(id)),
            None => Err(Database::no_table(&self.table)),
        }
    }

    /// Evaluates the `SET` then the `WHERE` operands into `values`.
    fn eval_into(&self, ctx: &Ctx<'_>, values: &mut Vec<Value>) -> Result<(), ActionError> {
        values.clear();
        for c in self.sets.iter().chain(&self.wheres) {
            values.push(ctx.eval(&c.operand, None)?);
        }
        Ok(())
    }

    /// The error the by-name statement reports for a column the table
    /// lacks: after the type errors of the assignments written before it.
    fn unknown_column(&self, at: usize, table: &Table, values: &[Value]) -> TableError {
        for (c, value) in self.sets.iter().zip(values).take(at) {
            let fits = c.col.map_or(Ok(()), |col| table.check_value(col, value));
            if let Err(e) = fits {
                return e;
            }
        }
        let columns = self.sets.iter().chain(&self.wheres);
        let unknown = columns.skip(at).map(|c| c.column.to_string()).next();
        TableError::NoSuchColumn(unknown.unwrap_or_default())
    }
}

/// The resolved `(column, value)` pairs of a `SET` list.
fn sets_of<'v>(
    sets: &'v [ColumnOperand],
    values: &'v [Value],
) -> impl Iterator<Item = (usize, &'v Value)> + Clone {
    sets.iter()
        .zip(values)
        .filter_map(|(c, value)| Some((c.col?, value)))
}

/// The resolved conditions of a `WHERE` list.
fn conds_of<'v>(
    wheres: &'v [ColumnOperand],
    values: &'v [Value],
) -> impl Iterator<Item = ColCond<'v>> + Clone {
    wheres.iter().zip(values).filter_map(|(c, value)| {
        Some(ColCond {
            col: c.col?,
            op: c.op,
            value,
        })
    })
}

/// One statement of a `DO` list, prepared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Stmt {
    Insert {
        target: Target,
        values: Vec<Operand>,
    },
    BulkInsert {
        target: Target,
        values: Vec<Operand>,
    },
    Update(Target),
    Delete(Target),
    Call {
        name: String,
        args: Vec<Operand>,
    },
}

impl Stmt {
    fn lower(action: &ActionAst, plan: &BindPlan) -> Self {
        let operands = |exprs: &[ValueExpr]| {
            exprs
                .iter()
                .map(|e| lower_value(e, plan))
                .collect::<Vec<_>>()
        };
        match action {
            ActionAst::Insert { table, values } => Stmt::Insert {
                target: Target::new(table, &[], &[], plan),
                values: operands(values),
            },
            ActionAst::BulkInsert { table, values } => Stmt::BulkInsert {
                target: Target::new(table, &[], &[], plan),
                values: operands(values),
            },
            ActionAst::Update {
                table,
                sets,
                wheres,
            } => Stmt::Update(Target::new(table, sets, wheres, plan)),
            ActionAst::Delete { table, wheres } => {
                Stmt::Delete(Target::new(table, &[], wheres, plan))
            }
            ActionAst::Call { name, args } => Stmt::Call {
                name: name.clone(),
                args: operands(args),
            },
        }
    }

    fn target_mut(&mut self) -> Option<&mut Target> {
        match self {
            Stmt::Insert { target, .. } | Stmt::BulkInsert { target, .. } => Some(target),
            Stmt::Update(target) | Stmt::Delete(target) => Some(target),
            Stmt::Call { .. } => None,
        }
    }

    /// Runs the statement. Everything is evaluated before the table is
    /// looked at, and the table before its columns: the order in which
    /// [`crate::actions::execute`] meets its errors.
    fn run(
        &self,
        ctx: &Ctx<'_>,
        db: &mut Database,
        procs: &mut Procedures,
        values: &mut Vec<Value>,
    ) -> Result<(), ActionError> {
        match self {
            Stmt::Insert {
                target,
                values: operands,
            } => {
                let row = ctx.row(operands, None)?;
                target.table_mut(db)?.insert(row)?;
            }
            Stmt::BulkInsert {
                target,
                values: operands,
            } => {
                // A firing without element rows never names the table.
                if ctx.frame.rows == 0 {
                    return Ok(());
                }
                let first = ctx.row(operands, Some(0))?;
                let rest = (1..ctx.frame.rows).map(|row| ctx.row(operands, Some(row)));
                target
                    .table_mut(db)?
                    .insert_all(std::iter::once(Ok(first)).chain(rest))?;
            }
            Stmt::Update(target) => {
                target.eval_into(ctx, values)?;
                let table = target.table_mut(db)?;
                if let Some(at) = target.unknown {
                    return Err(target.unknown_column(at, table, values).into());
                }
                let (set_values, where_values) = values.split_at(target.sets.len());
                table.update_where(
                    sets_of(&target.sets, set_values),
                    conds_of(&target.wheres, where_values),
                )?;
            }
            Stmt::Delete(target) => {
                target.eval_into(ctx, values)?;
                let table = target.table_mut(db)?;
                if let Some(at) = target.unknown {
                    return Err(target.unknown_column(at, table, values).into());
                }
                table.delete_where(conds_of(&target.wheres, values));
            }
            Stmt::Call { name, args } => procs.invoke(name, ctx.row(args, None)?),
        }
        Ok(())
    }
}

/// A rule's `IF`, prepared. Unknown is false, as in [`crate::cond`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Cond {
    False,
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Not(Box<Cond>),
    Compare {
        lhs: Operand,
        op: CompareOp,
        rhs: Operand,
    },
    Exists(Target),
}

impl Cond {
    /// `None` for `true`, which most rules say.
    fn lower(cond: &CondAst, plan: &BindPlan) -> Option<Self> {
        let always = || Cond::Not(Box::new(Cond::False));
        let sub = |c: &CondAst| Box::new(Cond::lower(c, plan).unwrap_or_else(always));
        Some(match cond {
            CondAst::True => return None,
            CondAst::False => Cond::False,
            CondAst::And(a, b) => Cond::And(sub(a), sub(b)),
            CondAst::Or(a, b) => Cond::Or(sub(a), sub(b)),
            CondAst::Not(x) => Cond::Not(sub(x)),
            CondAst::Compare { lhs, op, rhs } => Cond::Compare {
                lhs: lower_term(lhs, plan),
                op: *op,
                rhs: lower_term(rhs, plan),
            },
            CondAst::Exists { table, wheres } => {
                Cond::Exists(Target::new(table, &[], wheres, plan))
            }
        })
    }

    fn resolve(&mut self, db: &Database) {
        match self {
            Cond::False | Cond::Compare { .. } => {}
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.resolve(db);
                b.resolve(db);
            }
            Cond::Not(x) => x.resolve(db),
            Cond::Exists(target) => target.resolve(db),
        }
    }

    fn holds(&self, ctx: &Ctx<'_>, db: &Database, values: &mut Vec<Value>) -> bool {
        match self {
            Cond::False => false,
            Cond::And(a, b) => a.holds(ctx, db, values) && b.holds(ctx, db, values),
            Cond::Or(a, b) => a.holds(ctx, db, values) || b.holds(ctx, db, values),
            Cond::Not(x) => !x.holds(ctx, db, values),
            Cond::Compare { lhs, op, rhs } => {
                let (Some(l), Some(r)) = (ctx.value(lhs, None), ctx.value(rhs, None)) else {
                    return false;
                };
                compare(&l, *op, &r)
            }
            Cond::Exists(target) => {
                values.clear();
                for c in &target.wheres {
                    match ctx.value(&c.operand, None) {
                        Some(value) => values.push(value),
                        None => return false,
                    }
                }
                match target.id {
                    Some(id) if target.unknown.is_none() => {
                        db.by_id(id).count_where(conds_of(&target.wheres, values)) > 0
                    }
                    _ => false,
                }
            }
        }
    }
}

fn lower_value(expr: &ValueExpr, plan: &BindPlan) -> Operand {
    match expr {
        ValueExpr::Var(v) => Operand::Var(plan.var(v)),
        ValueExpr::Str(s) => Operand::Const(Value::str(s.as_str())),
        ValueExpr::Int(i) => Operand::Const(Value::Int(*i)),
        ValueExpr::Uc => Operand::Const(Value::Uc),
        ValueExpr::Now => Operand::Now,
        ValueExpr::LocationOf(v) => Operand::LocationOf(plan.var(v)),
        ValueExpr::GroupOf(v) => Operand::GroupOf(plan.var(v)),
        ValueExpr::TypeOf(v) => Operand::TypeOf(plan.var(v)),
    }
}

fn lower_term(term: &CondTerm, plan: &BindPlan) -> Operand {
    match term {
        CondTerm::Var(v) => Operand::Var(plan.var(v)),
        CondTerm::Str(s) => Operand::Const(Value::str(s.as_str())),
        CondTerm::Int(i) => Operand::Const(Value::Int(*i)),
        CondTerm::Duration(d) => Operand::Const(Value::Int(d.as_millis() as i64)),
        CondTerm::TypeOf(v) => Operand::TypeOf(plan.var(v)),
        CondTerm::GroupOf(v) => Operand::GroupOf(plan.var(v)),
        CondTerm::Count => Operand::Count,
        CondTerm::Interval => Operand::Interval,
    }
}

/// What one firing reuses from the last: the frame and the values of the
/// statement being run. Nothing in it outlives a firing but capacity.
#[derive(Debug, Default)]
pub struct Scratch {
    frame: Frame,
    values: Vec<Value>,
}

/// A failed step of a firing.
#[derive(Debug, Clone, PartialEq)]
pub enum FiringError {
    /// The instance does not have the event's shape; the firing ended.
    Bind(BindError),
    /// One action failed; the rest of the list still ran.
    Action(ActionError),
}

/// One rule body, lowered: bind plan, condition, `DO` list. Equal for two
/// rules whose bodies lower alike, as long as neither is resolved or both
/// are, against the same tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PreparedRule {
    bind: BindPlan,
    condition: Option<Cond>,
    stmts: Vec<Stmt>,
    /// The [`Database::version`] the statements are resolved for.
    resolved_for: u64,
}

impl PreparedRule {
    /// Lowers a rule over its alias-free event ([`crate::compile::resolve_aliases`])
    /// and resolves its statements against `db`.
    pub fn new(decl: &RuleDecl, event: &EventAst, db: &Database) -> Self {
        let mut rule = Self::lower(decl, event);
        rule.resolve(db);
        rule
    }

    /// Lowers a rule, its statements not yet resolved.
    pub(crate) fn lower(decl: &RuleDecl, event: &EventAst) -> Self {
        let bind = BindPlan::lower(event);
        Self {
            condition: Cond::lower(&decl.condition, &bind),
            stmts: decl.actions.iter().map(|a| Stmt::lower(a, &bind)).collect(),
            bind,
            resolved_for: 0,
        }
    }

    /// Looks the statements' tables and columns up in `db`.
    pub(crate) fn resolve(&mut self, db: &Database) {
        if let Some(condition) = &mut self.condition {
            condition.resolve(db);
        }
        for target in self.stmts.iter_mut().filter_map(Stmt::target_mut) {
            target.resolve(db);
        }
        self.resolved_for = db.version();
    }

    /// One firing: bind → condition → actions, against the catalog the
    /// engine matched with. A bind error ends the firing; a failed action is
    /// handed to `failed` and the rest of the list still runs.
    pub fn fire(
        &mut self,
        inst: &Instance,
        catalog: &Catalog,
        db: &mut Database,
        procs: &mut Procedures,
        scratch: &mut Scratch,
        mut failed: impl FnMut(FiringError),
    ) {
        // A table was created or replaced (or `db` is another database):
        // table ids and column positions are looked up again.
        if self.resolved_for != db.version() {
            self.resolve(db);
        }
        let Scratch { frame, values } = scratch;
        if let Err(e) = self.bind.bind(inst, frame) {
            frame.release();
            return failed(FiringError::Bind(e));
        }
        let ctx = Ctx {
            frame,
            inst,
            catalog,
        };
        if self
            .condition
            .as_ref()
            .is_none_or(|c| c.holds(&ctx, db, values))
        {
            for stmt in &self.stmts {
                if let Err(e) = stmt.run(&ctx, db, procs, values) {
                    failed(FiringError::Action(e));
                }
            }
        }
        values.clear();
        frame.release();
    }
}
