//! Tables: schemas, rows, filters, and hash indexes.
//!
//! Deliberately small — just enough relational machinery for the paper's
//! rule actions (`INSERT`, `BULK INSERT`, `UPDATE … WHERE`, `DELETE … WHERE`,
//! `SELECT`-style scans for conditions) — but with real schema checking and
//! equality indexes so the location/containment tables stay fast as the
//! simulator pushes hundreds of thousands of rows through them.

use std::fmt;
use std::sync::Arc;

use crate::index::Index;
use crate::value::Value;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// EPC identities.
    Epc,
    /// Strings.
    Str,
    /// Signed integers.
    Int,
    /// Timestamps; also accepts `UC` (open period end).
    Time,
}

impl ColumnType {
    fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Epc, Value::Epc(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Time, Value::Time(_) | Value::Uc)
                | (_, Value::Null)
        )
    }
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names (a definition bug, not input data).
    pub fn new(columns: &[(&str, ColumnType)]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in columns {
            assert!(seen.insert(*name), "duplicate column `{name}`");
        }
        Self {
            columns: columns.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Declared type of the column at `idx`.
    pub fn column_type(&self, idx: usize) -> Option<ColumnType> {
        self.columns.get(idx).map(|(_, t)| *t)
    }

    fn check_row(&self, row: &Row) -> Result<(), TableError> {
        if row.len() != self.arity() {
            return Err(TableError::Arity {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for ((name, ty), v) in self.columns.iter().zip(row) {
            if !ty.accepts(v) {
                return Err(TableError::Type {
                    column: name.clone(),
                    value: v.clone(),
                });
            }
        }
        Ok(())
    }
}

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// Comparison operator of a filter condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// One condition: `column op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Column name. Shared, so a statement evaluated once per firing names
    /// its columns by a pointer copy of the rule's own strings.
    pub column: Arc<str>,
    /// Operator.
    pub op: CondOp,
    /// Right-hand value.
    pub value: Value,
}

impl Cond {
    /// Builds a condition.
    pub fn new(column: &str, op: CondOp, value: impl Into<Value>) -> Self {
        Self {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Shorthand for equality.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Self::new(column, CondOp::Eq, value)
    }
}

/// A conjunction of conditions (`WHERE c1 AND c2 AND …`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    /// The conjuncts; empty matches every row.
    pub conds: Vec<Cond>,
}

impl Filter {
    /// The always-true filter.
    pub fn all() -> Self {
        Self::default()
    }

    /// A single-condition filter.
    pub fn on(cond: Cond) -> Self {
        Self { conds: vec![cond] }
    }

    /// Adds a conjunct.
    pub fn and(mut self, cond: Cond) -> Self {
        self.conds.push(cond);
        self
    }
}

/// One condition whose column is already resolved to its position in the
/// schema ([`Schema::col`]): what a statement prepared once and run many
/// times hands [`Table::update_where`], [`Table::delete_where`] and
/// [`Table::count_where`] instead of a [`Filter`] of names.
#[derive(Debug, Clone, Copy)]
pub struct ColCond<'v> {
    /// Column position.
    pub col: usize,
    /// Operator.
    pub op: CondOp,
    /// Right-hand value.
    pub value: &'v Value,
}

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Row width does not match the schema.
    Arity {
        /// Schema arity.
        expected: usize,
        /// Row width.
        got: usize,
    },
    /// A value does not fit its column type.
    Type {
        /// Column name.
        column: String,
        /// Offending value.
        value: Value,
    },
    /// A filter references a column the schema does not have.
    NoSuchColumn(String),
    /// The table holds as many rows as its indexes can number.
    Full,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Arity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            Self::Type { column, value } => {
                write!(f, "value {value} does not fit column `{column}`")
            }
            Self::NoSuchColumn(c) => write!(f, "no column `{c}`"),
            Self::Full => f.write_str("the table is full"),
        }
    }
}

impl std::error::Error for TableError {}

/// Row ids a list keeps without touching the heap: most `WHERE` clauses of
/// the paper's rules match one row (the object's open period).
const INLINE_IDS: usize = 3;

/// The rows a filter matched, ascending.
#[derive(Debug, Clone)]
enum RowIds {
    Inline { len: u8, ids: [usize; INLINE_IDS] },
    Heap(Vec<usize>),
}

impl Default for RowIds {
    fn default() -> Self {
        RowIds::Inline {
            len: 0,
            ids: [0; INLINE_IDS],
        }
    }
}

impl std::ops::Deref for RowIds {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        match self {
            RowIds::Inline { len, ids } => &ids[..usize::from(*len)],
            RowIds::Heap(ids) => ids,
        }
    }
}

impl std::ops::DerefMut for RowIds {
    fn deref_mut(&mut self) -> &mut [usize] {
        match self {
            RowIds::Inline { len, ids } => &mut ids[..usize::from(*len)],
            RowIds::Heap(ids) => ids,
        }
    }
}

impl RowIds {
    fn push(&mut self, id: usize) {
        match self {
            RowIds::Inline { len, ids } if usize::from(*len) < INLINE_IDS => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            RowIds::Inline { ids, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_IDS + 2);
                heap.extend_from_slice(ids);
                heap.push(id);
                *self = RowIds::Heap(heap);
            }
            RowIds::Heap(ids) => ids.push(id),
        }
    }
}

/// A table: schema, row storage, and optional equality indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    /// Live-row flags: a deleted row keeps its slot (row ids are positions)
    /// and leaves every index, which holds live rows only.
    live: Vec<bool>,
    live_count: usize,
    /// `(column, its index)`, in creation order. A table has a handful at
    /// most, so finding one is a scan, not a hash.
    indexes: Vec<(usize, Index)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            indexes: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    fn index_on(&self, col: usize) -> Option<&Index> {
        self.indexes
            .iter()
            .find_map(|(c, index)| (*c == col).then_some(index))
    }

    /// Adds an equality index on a column. Indexing an unknown column is an
    /// error; indexing twice is a no-op.
    pub fn create_index(&mut self, column: &str) -> Result<(), TableError> {
        let col = self
            .schema
            .col(column)
            .ok_or_else(|| TableError::NoSuchColumn(column.to_owned()))?;
        if self.index_on(col).is_some() {
            return Ok(());
        }
        let mut index = Index::default();
        for (id, row) in self.rows.iter().enumerate() {
            if self.live[id] {
                index.add(&row[col], id);
            }
        }
        self.indexes.push((col, index));
        Ok(())
    }

    /// Positions of the indexed columns, in index creation order.
    pub fn indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.iter().map(|(col, _)| *col)
    }

    /// Whether `row` may become the table's next row.
    fn admit(&self, row: &Row) -> Result<(), TableError> {
        self.schema.check_row(row)?;
        if self.rows.len() < Index::MAX_ROWS {
            Ok(())
        } else {
            Err(TableError::Full)
        }
    }

    /// Inserts a row.
    pub fn insert(&mut self, row: Row) -> Result<(), TableError> {
        self.insert_all([Ok(row)]).map(|_| ())
    }

    /// Inserts rows as they are produced, stopping at the first that fails
    /// to evaluate (`Err` from the iterator) or to fit the schema; the rows
    /// before it stay. Storage is reserved once from the iterator's size
    /// hint, and the indexes are brought up to date one after the other,
    /// not row by row. Returns the number of rows inserted.
    pub fn insert_all<E: From<TableError>>(
        &mut self,
        rows: impl IntoIterator<Item = Result<Row, E>>,
    ) -> Result<usize, E> {
        let rows = rows.into_iter();
        let first = self.rows.len();
        self.rows.reserve(rows.size_hint().0);
        self.live.reserve(rows.size_hint().0);
        let mut outcome = Ok(());
        for row in rows {
            let checked = row.and_then(|row| {
                self.admit(&row)?;
                Ok(row)
            });
            match checked {
                Ok(row) => self.rows.push(row),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let end = self.rows.len();
        self.live.resize(end, true);
        self.live_count += end - first;
        for (col, index) in &mut self.indexes {
            for id in first..end {
                index.add(&self.rows[id][*col], id);
            }
        }
        outcome.map(|()| end - first)
    }

    /// Row ids matching every condition, ascending (insertion order). An
    /// indexed equality conjunct, if there is one, is the access path.
    fn matching<'v>(&self, conds: impl Iterator<Item = ColCond<'v>> + Clone) -> RowIds {
        let driver = conds.clone().find_map(|c| {
            let index = self.index_on(c.col).filter(|_| c.op == CondOp::Eq)?;
            Some(index.candidates(c.value))
        });
        let check = |id: usize| -> bool {
            self.live[id]
                && conds
                    .clone()
                    .all(|c| cond_holds(&self.rows[id][c.col], c.op, c.value))
        };
        let mut ids = RowIds::default();
        match driver {
            Some(newest_first) => {
                newest_first
                    .filter(|&id| check(id))
                    .for_each(|id| ids.push(id));
                ids.reverse();
            }
            None => (0..self.rows.len())
                .filter(|&id| check(id))
                .for_each(|id| ids.push(id)),
        }
        ids
    }

    /// The filter's conditions with their columns resolved.
    fn resolve<'v>(&self, filter: &'v Filter) -> Result<Vec<ColCond<'v>>, TableError> {
        filter
            .conds
            .iter()
            .map(|cond| {
                let col = self
                    .schema
                    .col(&cond.column)
                    .ok_or_else(|| TableError::NoSuchColumn(cond.column.to_string()))?;
                Ok(ColCond {
                    col,
                    op: cond.op,
                    value: &cond.value,
                })
            })
            .collect()
    }

    /// Row ids matching a filter, ascending (insertion order).
    fn matching_ids(&self, filter: &Filter) -> Result<RowIds, TableError> {
        Ok(self.matching(self.resolve(filter)?.iter().copied()))
    }

    /// Returns clones of the rows matching a filter.
    pub fn select(&self, filter: &Filter) -> Result<Vec<Row>, TableError> {
        Ok(self
            .matching_ids(filter)?
            .iter()
            .map(|&id| self.rows[id].clone())
            .collect())
    }

    /// Number of rows matching a filter.
    pub fn count(&self, filter: &Filter) -> Result<usize, TableError> {
        Ok(self.matching_ids(filter)?.len())
    }

    /// [`Table::count`] over resolved conditions.
    ///
    /// # Panics
    /// Panics when a condition's column is not one of the schema's.
    pub fn count_where<'v>(&self, conds: impl Iterator<Item = ColCond<'v>> + Clone) -> usize {
        self.matching(conds).len()
    }

    /// Applies `SET column = value` assignments to matching rows. Returns
    /// the number of rows updated. Column names may be owned or borrowed.
    pub fn update<S: AsRef<str>>(
        &mut self,
        filter: &Filter,
        assignments: &[(S, Value)],
    ) -> Result<usize, TableError> {
        let mut sets: Vec<(usize, &Value)> = Vec::with_capacity(assignments.len());
        for (column, value) in assignments {
            let column = column.as_ref();
            let col = self
                .schema
                .col(column)
                .ok_or_else(|| TableError::NoSuchColumn(column.to_owned()))?;
            self.check_value(col, value)?;
            sets.push((col, value));
        }
        let conds = self.resolve(filter)?;
        Ok(self.set_where(sets.iter().copied(), conds.iter().copied()))
    }

    /// [`Table::update`] over resolved columns: `sets` pairs a column
    /// position with its new value. Nothing is written unless every value
    /// fits its column.
    ///
    /// # Panics
    /// Panics when a column position is not one of the schema's.
    pub fn update_where<'v>(
        &mut self,
        sets: impl Iterator<Item = (usize, &'v Value)> + Clone,
        conds: impl Iterator<Item = ColCond<'v>> + Clone,
    ) -> Result<usize, TableError> {
        for (col, value) in sets.clone() {
            self.check_value(col, value)?;
        }
        Ok(self.set_where(sets, conds))
    }

    /// Whether `value` fits the column at position `col`.
    ///
    /// # Panics
    /// Panics when the position is not one of the schema's.
    pub fn check_value(&self, col: usize, value: &Value) -> Result<(), TableError> {
        let (name, ty) = &self.schema.columns[col];
        if ty.accepts(value) {
            Ok(())
        } else {
            Err(TableError::Type {
                column: name.clone(),
                value: value.clone(),
            })
        }
    }

    /// Writes checked assignments to the matching rows, moving each row's
    /// posting when an indexed column changes.
    fn set_where<'v>(
        &mut self,
        sets: impl Iterator<Item = (usize, &'v Value)> + Clone,
        conds: impl Iterator<Item = ColCond<'v>> + Clone,
    ) -> usize {
        let ids = self.matching(conds);
        for &id in ids.iter() {
            for (col, value) in sets.clone() {
                if let Some((_, index)) = self.indexes.iter_mut().find(|(c, _)| *c == col) {
                    index.remove(&self.rows[id][col], id);
                    index.add(value, id);
                }
                self.rows[id][col] = value.clone();
            }
        }
        ids.len()
    }

    /// Deletes matching rows. Returns the number deleted.
    pub fn delete(&mut self, filter: &Filter) -> Result<usize, TableError> {
        let conds = self.resolve(filter)?;
        Ok(self.delete_where(conds.iter().copied()))
    }

    /// [`Table::delete`] over resolved conditions.
    ///
    /// # Panics
    /// Panics when a condition's column is not one of the schema's.
    pub fn delete_where<'v>(&mut self, conds: impl Iterator<Item = ColCond<'v>> + Clone) -> usize {
        let ids = self.matching(conds);
        for &id in ids.iter() {
            self.live[id] = false;
            self.live_count -= 1;
            for (col, index) in &mut self.indexes {
                index.remove(&self.rows[id][*col], id);
            }
        }
        ids.len()
    }

    /// Iterates live rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows
            .iter()
            .zip(&self.live)
            .filter(|(_, &l)| l)
            .map(|(r, _)| r)
    }
}

fn cond_holds(cell: &Value, op: CondOp, value: &Value) -> bool {
    use std::cmp::Ordering::*;
    match (op, cell.compare(value)) {
        (CondOp::Eq, Some(Equal)) => true,
        (CondOp::Ne, Some(Less | Greater)) => true,
        // NULL/cross-type inequality: follow SQL and treat as unknown=false,
        // except Ne on genuinely different variants.
        (CondOp::Ne, None) => !matches!((cell, value), (Value::Null, _) | (_, Value::Null)),
        (CondOp::Lt, Some(Less)) => true,
        (CondOp::Le, Some(Less | Equal)) => true,
        (CondOp::Gt, Some(Greater)) => true,
        (CondOp::Ge, Some(Greater | Equal)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Epc, Gid96};
    use rfid_events::Timestamp;

    fn epc(n: u64) -> Epc {
        Gid96::new(1, 1, n).unwrap().into()
    }

    fn location_table() -> Table {
        let mut t = Table::new(Schema::new(&[
            ("object_epc", ColumnType::Epc),
            ("loc_id", ColumnType::Str),
            ("tstart", ColumnType::Time),
            ("tend", ColumnType::Time),
        ]));
        t.create_index("object_epc").unwrap();
        t
    }

    fn row(n: u64, loc: &str, start: u64, end: Option<u64>) -> Row {
        vec![
            Value::Epc(epc(n)),
            Value::str(loc),
            Value::Time(Timestamp::from_secs(start)),
            end.map_or(Value::Uc, |e| Value::Time(Timestamp::from_secs(e))),
        ]
    }

    #[test]
    fn insert_and_select_by_index() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, Some(10))).unwrap();
        t.insert(row(1, "truck", 10, None)).unwrap();
        t.insert(row(2, "warehouse", 5, None)).unwrap();

        let rows = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn uc_predicate_selects_open_rows() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, Some(10))).unwrap();
        t.insert(row(1, "truck", 10, None)).unwrap();

        let open = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))).and(Cond::new(
                "tend",
                CondOp::Eq,
                Value::Uc,
            )))
            .unwrap();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0][1], Value::str("truck"));
    }

    #[test]
    fn update_closes_uc_row_and_maintains_index() {
        let mut t = location_table();
        t.insert(row(1, "warehouse", 0, None)).unwrap();
        let n = t
            .update(
                &Filter::on(Cond::eq("object_epc", epc(1))).and(Cond::new(
                    "tend",
                    CondOp::Eq,
                    Value::Uc,
                )),
                &[("tend".to_owned(), Value::Time(Timestamp::from_secs(7)))],
            )
            .unwrap();
        assert_eq!(n, 1);
        let rows = t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(rows[0][3], Value::Time(Timestamp::from_secs(7)));
    }

    #[test]
    fn delete_tombstones() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, None)).unwrap();
        t.insert(row(2, "b", 0, None)).unwrap();
        let n = t
            .delete(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.len(), 1);
        assert!(t
            .select(&Filter::on(Cond::eq("object_epc", epc(1))))
            .unwrap()
            .is_empty());
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn range_conditions() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, Some(10))).unwrap();
        t.insert(row(1, "b", 10, Some(20))).unwrap();
        t.insert(row(1, "c", 20, None)).unwrap();
        // Rows whose period covers t=15: tstart <= 15 AND tend > 15.
        let at_15 = t
            .select(
                &Filter::on(Cond::new("tstart", CondOp::Le, Timestamp::from_secs(15)))
                    .and(Cond::new("tend", CondOp::Gt, Timestamp::from_secs(15))),
            )
            .unwrap();
        assert_eq!(at_15.len(), 1);
        assert_eq!(at_15[0][1], Value::str("b"));
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = location_table();
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(TableError::Arity {
                expected: 4,
                got: 1
            })
        ));
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::str("x"), Value::Uc, Value::Uc]),
            Err(TableError::Type { .. })
        ));
        assert!(matches!(
            t.select(&Filter::on(Cond::eq("bogus", 1i64))),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn filter_without_index_scans() {
        let mut t = location_table();
        t.insert(row(1, "a", 0, None)).unwrap();
        t.insert(row(2, "a", 0, None)).unwrap();
        let rows = t.select(&Filter::on(Cond::eq("loc_id", "a"))).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn count_matches_select() {
        let mut t = location_table();
        for i in 0..10 {
            t.insert(row(i % 3, "x", i, None)).unwrap();
        }
        let f = Filter::on(Cond::eq("object_epc", epc(0)));
        assert_eq!(t.count(&f).unwrap(), t.select(&f).unwrap().len());
    }

    fn containment_table() -> Table {
        let mut t = Table::new(Schema::new(&[
            ("object_epc", ColumnType::Epc),
            ("parent_epc", ColumnType::Epc),
            ("tstart", ColumnType::Time),
        ]));
        t.create_index("object_epc").unwrap();
        t.create_index("parent_epc").unwrap();
        t
    }

    /// Each index holds exactly the distinct values of its column over the
    /// live rows, each with exactly the rows holding it, newest first.
    fn assert_indexes_are_exact(t: &Table) {
        for (col, index) in &t.indexes {
            let mut expected = std::collections::BTreeMap::<String, Vec<usize>>::new();
            for (id, row) in t.rows.iter().enumerate() {
                if t.live[id] {
                    expected.entry(row[*col].to_string()).or_default().push(id);
                }
            }
            // No two of these tests' keys share a hash, so a key per chain.
            assert_eq!(index.keys(), expected.len(), "index on column {col}");
            for row in t.iter() {
                let mut held: Vec<usize> = index.candidates(&row[*col]).collect();
                held.reverse();
                assert_eq!(held, expected[&row[*col].to_string()], "{}", row[*col]);
            }
        }
    }

    /// What the index answers, a scan of the live rows answers too.
    fn assert_select_is_a_scan(t: &Table, filter: &Filter) {
        let conds = t.resolve(filter).unwrap();
        let scanned: Vec<Row> = t
            .iter()
            .filter(|row| conds.iter().all(|c| cond_holds(&row[c.col], c.op, c.value)))
            .cloned()
            .collect();
        assert_eq!(t.select(filter).unwrap(), scanned);
        assert_eq!(t.count(filter).unwrap(), scanned.len());
        assert_eq!(t.count_where(conds.iter().copied()), scanned.len());
    }

    #[test]
    fn churn_leaves_each_index_with_exactly_the_live_keys() {
        let mut t = containment_table();
        let parent = |cycle: u64| Value::Epc(epc(1_000 + cycle % 7));
        for cycle in 0..500u64 {
            // insert → move to another parent (indexed) → delete an older row
            t.insert(vec![
                Value::Epc(epc(cycle)),
                parent(cycle),
                Value::Time(Timestamp::from_secs(cycle)),
            ])
            .unwrap();
            let moved = t
                .update(
                    &Filter::on(Cond::eq("object_epc", epc(cycle))),
                    &[("parent_epc", parent(cycle + 3))],
                )
                .unwrap();
            assert_eq!(moved, 1);
            if cycle % 4 != 0 {
                let gone = t
                    .delete(&Filter::on(Cond::eq("object_epc", epc(cycle))))
                    .unwrap();
                assert_eq!(gone, 1);
            }
            if cycle % 50 == 0 {
                assert_indexes_are_exact(&t);
            }
        }
        assert_eq!(t.len(), 125);
        assert_indexes_are_exact(&t);
        let object_keys = t.indexes[0].1.keys();
        assert_eq!(object_keys, 125, "one key per live object, none per dead");
        for p in 0..7 {
            assert_select_is_a_scan(&t, &Filter::on(Cond::eq("parent_epc", epc(1_000 + p))));
        }
        assert_select_is_a_scan(&t, &Filter::on(Cond::eq("object_epc", epc(3))));
        assert_select_is_a_scan(&t, &Filter::on(Cond::eq("object_epc", epc(4))));
        // Everything deleted: the indexes are empty maps again.
        assert_eq!(t.delete(&Filter::all()).unwrap(), 125);
        assert!(t.indexes.iter().all(|(_, index)| index.keys() == 0));
    }

    #[test]
    fn a_row_moved_to_an_older_key_is_selected_in_insertion_order() {
        let mut t = containment_table();
        for n in 0..3 {
            let at = Value::Time(Timestamp::from_secs(n));
            t.insert(vec![Value::Epc(epc(n)), Value::Epc(epc(100 + n)), at])
                .unwrap();
        }
        // Row 0 joins row 2's parent: the posting list reads [0, 2].
        t.update(
            &Filter::on(Cond::eq("object_epc", epc(0))),
            &[("parent_epc", Value::Epc(epc(102)))],
        )
        .unwrap();
        assert_indexes_are_exact(&t);
        assert_select_is_a_scan(&t, &Filter::on(Cond::eq("parent_epc", epc(102))));
    }

    #[test]
    fn insert_all_keeps_the_rows_before_a_failing_one() {
        let item = |n: u64, parent: u64| -> Result<Row, TableError> {
            Ok(vec![
                Value::Epc(epc(n)),
                Value::Epc(epc(parent)),
                Value::Time(Timestamp::from_secs(n)),
            ])
        };
        let mut t = containment_table();
        // Two runs of equal parents, then a distinct one.
        let rows = [
            item(1, 50),
            item(2, 50),
            item(3, 51),
            item(4, 51),
            item(5, 52),
        ];
        assert_eq!(t.insert_all(rows), Ok(5));
        assert_indexes_are_exact(&t);
        assert_select_is_a_scan(&t, &Filter::on(Cond::eq("parent_epc", epc(51))));

        // Row 2 of the next batch does not fit; row 3 is never asked for.
        let mut asked = 0;
        let batch = (0..4).map(|k| {
            asked += 1;
            if k == 2 {
                Ok(vec![Value::Int(1), Value::Epc(epc(60)), Value::Uc])
            } else {
                item(10 + k, 60)
            }
        });
        assert!(matches!(t.insert_all(batch), Err(TableError::Type { .. })));
        assert_eq!((asked, t.len()), (3, 7));
        assert_indexes_are_exact(&t);
        // The caller's own error passes through, rows before it kept.
        let failing = [item(20, 61), Err(TableError::NoSuchColumn("caller".into()))];
        assert_eq!(
            t.insert_all(failing),
            Err(TableError::NoSuchColumn("caller".into()))
        );
        assert_eq!(t.len(), 8);
        assert_eq!(t.insert_all(Vec::<Result<Row, TableError>>::new()), Ok(0));
        assert_indexes_are_exact(&t);
    }

    #[test]
    fn resolved_writes_are_the_named_ones() {
        let mut named = location_table();
        for i in 0..12 {
            named.insert(row(i % 4, "dock", i, None)).unwrap();
        }
        let mut resolved = named.clone();
        let (object, tend) = (0, 3);
        let closed = Value::Time(Timestamp::from_secs(99));
        let open_rows_of = |n: u64| {
            Filter::on(Cond::eq("object_epc", epc(n))).and(Cond::new("tend", CondOp::Eq, Value::Uc))
        };

        let filter = open_rows_of(2);
        let conds = resolved.resolve(&filter).unwrap();
        assert_eq!((conds[0].col, conds[1].col), (object, tend));
        assert_eq!(
            resolved.update_where([(tend, &closed)].into_iter(), conds.iter().copied()),
            named.update(&filter, &[("tend", closed.clone())])
        );
        // A value that does not fit: the same error, nothing written.
        let wrong = Value::Int(3);
        assert_eq!(
            resolved.update_where([(tend, &wrong)].into_iter(), conds.iter().copied()),
            named.update(&filter, &[("tend", wrong.clone())])
        );
        let filter = open_rows_of(1);
        let conds = resolved.resolve(&filter).unwrap();
        assert_eq!(
            resolved.delete_where(conds.iter().copied()),
            named.delete(&filter).unwrap()
        );
        assert_eq!(resolved.rows, named.rows);
        assert_eq!(resolved.live, named.live);
        assert_eq!(resolved.len(), 9);
        assert_indexes_are_exact(&resolved);
        assert_indexes_are_exact(&named);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }
}
