//! Tables: schemas, rows, filters, and hash indexes.
//!
//! Deliberately small — just enough relational machinery for the paper's
//! rule actions (`INSERT`, `BULK INSERT`, `UPDATE … WHERE`, `DELETE … WHERE`,
//! `SELECT`-style scans for conditions) — but with real schema checking and
//! equality indexes so the location/containment tables stay fast as the
//! simulator pushes hundreds of thousands of rows through them.

use std::fmt;
use std::sync::Arc;

use rfid_epc::hash::MixMap;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        }
    }
}

impl std::error::Error for TableError {}

/// Row ids a list keeps without touching the heap. Most keys of the RFID
/// tables are object EPCs with one to three rows (an item is packed once;
/// an object passes a few docks), and most `WHERE` clauses of the paper's
/// rules match one row (the object's open period).
const INLINE_IDS: usize = 3;

/// A list of row ids in the order they were added: the rows under one index
/// key, or the rows a filter matched.
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

    fn remove(&mut self, id: usize) {
        match self {
            RowIds::Inline { len, ids } => {
                let n = usize::from(*len);
                if let Some(at) = ids[..n].iter().position(|&x| x == id) {
                    ids.copy_within(at + 1..n, at);
                    *len -= 1;
                }
            }
            RowIds::Heap(ids) => ids.retain(|&x| x != id),
        }
    }
}

/// An equality index: value → the rows holding it. Keyed mostly by EPCs, so
/// on the fixed hasher ([`rfid_epc::hash`]).
type Index = MixMap<Value, RowIds>;

/// A table: schema, row storage, and optional equality indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Row>,
    /// Live-row flags (deletes are tombstoned; compaction rebuilds indexes).
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
                index.entry(row[col].clone()).or_default().push(id);
            }
        }
        self.indexes.push((col, index));
        Ok(())
    }

    /// Inserts a row.
    pub fn insert(&mut self, row: Row) -> Result<(), TableError> {
        self.schema.check_row(&row)?;
        let id = self.rows.len();
        for (col, index) in &mut self.indexes {
            index.entry(row[*col].clone()).or_default().push(id);
        }
        self.rows.push(row);
        self.live.push(true);
        self.live_count += 1;
        Ok(())
    }

    /// Row ids matching a filter, ascending (insertion order).
    fn matching_ids(&self, filter: &Filter) -> Result<RowIds, TableError> {
        // Resolve columns once; prefer an indexed equality conjunct as the
        // driving access path.
        let mut resolved: Vec<(usize, CondOp, &Value)> = Vec::with_capacity(filter.conds.len());
        for cond in &filter.conds {
            let col = self
                .schema
                .col(&cond.column)
                .ok_or_else(|| TableError::NoSuchColumn(cond.column.to_string()))?;
            resolved.push((col, cond.op, &cond.value));
        }
        let driver = resolved.iter().find_map(|(col, op, value)| {
            let index = self.index_on(*col).filter(|_| *op == CondOp::Eq)?;
            Some(index.get(*value).map_or(&[][..], |ids| &ids[..]))
        });
        let check = |id: usize| -> bool {
            self.live[id]
                && resolved
                    .iter()
                    .all(|(col, op, value)| cond_holds(&self.rows[id][*col], *op, value))
        };
        let mut ids = RowIds::default();
        match driver {
            Some(candidates) => candidates
                .iter()
                .filter(|&&id| check(id))
                .for_each(|&id| ids.push(id)),
            None => (0..self.rows.len())
                .filter(|&id| check(id))
                .for_each(|id| ids.push(id)),
        }
        Ok(ids)
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
            if !self.schema.columns[col].1.accepts(value) {
                return Err(TableError::Type {
                    column: column.to_owned(),
                    value: value.clone(),
                });
            }
            sets.push((col, value));
        }
        let ids = self.matching_ids(filter)?;
        for &id in ids.iter() {
            for &(col, value) in &sets {
                if let Some((_, index)) = self.indexes.iter_mut().find(|(c, _)| *c == col) {
                    if let Some(postings) = index.get_mut(&self.rows[id][col]) {
                        postings.remove(id);
                    }
                    index.entry(value.clone()).or_default().push(id);
                }
                self.rows[id][col] = value.clone();
            }
        }
        Ok(ids.len())
    }

    /// Deletes matching rows (tombstoning). Returns the number deleted.
    pub fn delete(&mut self, filter: &Filter) -> Result<usize, TableError> {
        let ids = self.matching_ids(filter)?;
        for &id in ids.iter() {
            self.live[id] = false;
            self.live_count -= 1;
        }
        Ok(ids.len())
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

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(&[("a", ColumnType::Int), ("a", ColumnType::Int)]);
    }
}
