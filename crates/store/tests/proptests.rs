//! Property tests over the temporal store: a table behaves as a list of
//! rows, UC invariants must survive any interleaving of location updates,
//! packings, sales, and queries, and a snapshot must give back exactly the
//! store it saved, or nothing.

use std::path::PathBuf;

use proptest::prelude::*;
use rfid_epc::{Epc, Gid96};
use rfid_events::Timestamp;
use rfid_store::{
    ColCond, ColumnType, Cond, CondOp, Database, Filter, Row, Schema, Table, TableError, Value,
};

fn epc(n: u64) -> Epc {
    Gid96::new(1, 1, n).unwrap().into()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rfid-store-{name}-{}", std::process::id()))
}

const TYPES: [ColumnType; 4] = [
    ColumnType::Epc,
    ColumnType::Str,
    ColumnType::Int,
    ColumnType::Time,
];

/// Raw material of one cell: `(kind, number, text)`, made a value of
/// whatever type its column has. Kind 0 is `NULL`, and kind 1 is `UC` in a
/// time column, so every [`Value`] variant turns up.
type Cell = (u8, u64, String);

fn cell_value(ty: ColumnType, (kind, n, text): &Cell) -> Value {
    match (ty, kind) {
        (_, 0) => Value::Null,
        (ColumnType::Epc, _) => Value::Epc(epc(n % 1_000)),
        (ColumnType::Str, _) => Value::str(text.as_str()),
        (ColumnType::Int, _) => Value::Int(*n as i64),
        (ColumnType::Time, 1) => Value::Uc,
        (ColumnType::Time, _) => Value::Time(Timestamp::from_millis(*n)),
    }
}

/// A table: column types, rows of cells, columns to index, and
/// `(row, column)` pairs whose value is deleted from the table.
type TableSpec = (Vec<u8>, Vec<Vec<Cell>>, Vec<usize>, Vec<(usize, usize)>);

fn table_strategy() -> impl Strategy<Value = TableSpec> {
    let cell = (0u8..4, any::<u64>(), "[a-c|%,:\n]{0,6}");
    (
        prop::collection::vec(0u8..4, 0..5),
        prop::collection::vec(prop::collection::vec(cell, 5), 0..8),
        prop::collection::vec(0usize..5, 0..3),
        prop::collection::vec((0usize..8, 0usize..5), 0..3),
    )
}

/// Builds the store the specs describe. Table and column names carry the
/// format's separators.
fn build(specs: &[TableSpec]) -> Database {
    let mut db = Database::new();
    for (t, (types, rows, indexes, deletes)) in specs.iter().enumerate() {
        let names: Vec<String> = (0..types.len()).map(|c| format!("c{c}:|%,\n")).collect();
        let cols: Vec<(&str, ColumnType)> = names
            .iter()
            .zip(types)
            .map(|(n, &ty)| (n.as_str(), TYPES[usize::from(ty)]))
            .collect();
        let table = db.create_table(&format!("T{t}|%,\n:"), Schema::new(&cols));
        for cells in rows {
            let row = cols
                .iter()
                .zip(cells)
                .map(|(&(_, ty), c)| cell_value(ty, c));
            table.insert(row.collect()).unwrap();
        }
        for &col in indexes.iter().filter(|&&c| c < cols.len()) {
            table.create_index(cols[col].0).unwrap();
        }
        for &(row, col) in deletes {
            if row < rows.len() && col < cols.len() {
                let (name, ty) = cols[col];
                let value = cell_value(ty, &rows[row][col]);
                table.delete(&Filter::on(Cond::eq(name, value))).unwrap();
            }
        }
    }
    db
}

/// A store with every table kind the paper's rules write, a string with
/// every separator, a deleted row and an extra index.
fn stocked() -> Database {
    let mut db = Database::rfid();
    for n in 0..4u64 {
        let at = Timestamp::from_secs(n);
        db.record_location(epc(n), &format!("dock|{n}%,\n"), at)
            .unwrap();
        db.record_containment(epc(100), &[epc(n)], at).unwrap();
    }
    let location = db.table_mut("OBJECTLOCATION").unwrap();
    location.create_index("loc_id").unwrap();
    location
        .delete(&Filter::on(Cond::eq("object_epc", epc(2))))
        .unwrap();
    db
}

#[derive(Debug, Clone)]
enum Op {
    MoveTo { object: u64, loc: u8 },
    Pack { case: u64, item: u64 },
    Unpack { item: u64 },
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..6, 0u8..4).prop_map(|(object, loc)| Op::MoveTo { object, loc }),
            (100u64..104, 0u64..6).prop_map(|(case, item)| Op::Pack { case, item }),
            (0u64..6).prop_map(|item| Op::Unpack { item }),
        ],
        0..60,
    )
}

/// One step of [`a_table_is_a_list_of_rows`]. Cells are made values of
/// their column's type; a `(type, cell)` pair is made a value of that type,
/// whatever the column's.
#[derive(Debug, Clone)]
enum TableOp {
    Insert(Vec<Cell>),
    /// Rows inserted through `insert_all`; the one at `fail` does not
    /// fit (odd) or is the caller's error (even).
    InsertAll {
        rows: Vec<Vec<Cell>>,
        fail: Option<(usize, u8)>,
    },
    /// `SET col = value WHERE …`, by name (`by_name`) or resolved.
    Update {
        col: usize,
        value: (u8, Cell),
        conds: Vec<CondSpec>,
        by_name: bool,
    },
    Delete {
        conds: Vec<CondSpec>,
        by_name: bool,
    },
    CreateIndex(usize),
    Select(Vec<CondSpec>),
    /// More rows than a segment, then a copy of every live row, and the
    /// flood deleted again: the table compacts, moving the copies down.
    Churn(Vec<Cell>),
}

/// `column op value`: the column, the operator, and a value of any type.
type CondSpec = (usize, u8, (u8, Cell));

const OPS: [CondOp; 6] = [
    CondOp::Eq,
    CondOp::Ne,
    CondOp::Lt,
    CondOp::Le,
    CondOp::Gt,
    CondOp::Ge,
];

fn small_cell() -> impl Strategy<Value = Cell> {
    (0u8..4, 0u64..4, "[ab]{0,2}")
}

fn table_op() -> impl Strategy<Value = TableOp> {
    let row = || prop::collection::vec(small_cell(), 5);
    let typed = || (0u8..4, small_cell());
    let conds = move || prop::collection::vec((0usize..5, 0u8..6, typed()), 0..3);
    prop_oneof![
        row().prop_map(TableOp::Insert),
        (prop::collection::vec(row(), 0..5), 0usize..8, any::<u8>()).prop_map(|(rows, at, how)| {
            let fail = (at < rows.len()).then_some((at, how));
            TableOp::InsertAll { rows, fail }
        }),
        (0usize..5, typed(), conds(), any::<bool>()).prop_map(|(col, value, conds, by_name)| {
            TableOp::Update {
                col,
                value,
                conds,
                by_name,
            }
        }),
        (0usize..5, typed(), conds(), any::<bool>()).prop_map(|(col, value, conds, by_name)| {
            TableOp::Update {
                col,
                value,
                conds,
                by_name,
            }
        }),
        (conds(), any::<bool>()).prop_map(|(conds, by_name)| TableOp::Delete { conds, by_name }),
        (0usize..5).prop_map(TableOp::CreateIndex),
        conds().prop_map(TableOp::Select),
        conds().prop_map(TableOp::Select),
        // A churn now and then (some 0.4 a case), else one more insert.
        (0u8..12, row()).prop_map(|(k, cells)| {
            if k == 0 {
                TableOp::Churn(cells)
            } else {
                TableOp::Insert(cells)
            }
        }),
    ]
}

/// What a condition means: SQL's, with `NULL` and cross-type comparisons
/// unknown (false), but for `<>` between two different non-null types.
fn model_holds(cell: &Value, op: CondOp, value: &Value) -> bool {
    use std::cmp::Ordering::*;
    match (op, cell.compare(value)) {
        (_, None) => op == CondOp::Ne && *cell != Value::Null && *value != Value::Null,
        (CondOp::Eq, Some(o)) => o == Equal,
        (CondOp::Ne, Some(o)) => o != Equal,
        (CondOp::Lt, Some(o)) => o == Less,
        (CondOp::Le, Some(o)) => o != Greater,
        (CondOp::Gt, Some(o)) => o == Greater,
        (CondOp::Ge, Some(o)) => o != Less,
    }
}

/// A table of `types` and the list of rows it should be, deleted rows
/// `None`, driven one [`TableOp`] at a time.
struct Model {
    types: Vec<ColumnType>,
    names: Vec<String>,
    rows: Vec<Option<Row>>,
}

impl Model {
    fn row(&self, cells: &[Cell]) -> Row {
        self.types
            .iter()
            .zip(cells)
            .map(|(&ty, c)| cell_value(ty, c))
            .collect()
    }

    /// The conditions on this schema's columns, with their values.
    fn conds(&self, specs: &[CondSpec]) -> Vec<(usize, CondOp, Value)> {
        specs
            .iter()
            .map(|(col, op, (ty, cell))| {
                (
                    col % self.types.len(),
                    OPS[usize::from(*op)],
                    cell_value(TYPES[usize::from(*ty)], cell),
                )
            })
            .collect()
    }

    fn filter(&self, conds: &[(usize, CondOp, Value)]) -> Filter {
        let conds = conds
            .iter()
            .map(|(col, op, value)| Cond::new(&self.names[*col], *op, value.clone()));
        Filter {
            conds: conds.collect(),
        }
    }

    /// Positions of the live rows meeting every condition.
    fn matching(&self, conds: &[(usize, CondOp, Value)]) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&at| {
                self.rows[at].as_ref().is_some_and(|row| {
                    conds
                        .iter()
                        .all(|(col, op, value)| model_holds(&row[*col], *op, value))
                })
            })
            .collect()
    }

    fn live(&self) -> Vec<Row> {
        self.rows.iter().flatten().cloned().collect()
    }

    /// Runs `op` on the table and the model, checking what the table
    /// answers against the model.
    fn step(&mut self, table: &mut Table, op: &TableOp) {
        match op {
            TableOp::Insert(cells) => {
                let row = self.row(cells);
                table.insert(row.clone()).unwrap();
                self.rows.push(Some(row));
            }
            TableOp::InsertAll { rows, fail } => {
                let mut batch: Vec<Result<Row, TableError>> =
                    rows.iter().map(|cells| Ok(self.row(cells))).collect();
                let fail = *fail;
                if let Some((at, how)) = fail {
                    batch[at] = if how % 2 == 1 {
                        Ok(vec![Value::Null; self.types.len() + 1])
                    } else {
                        Err(TableError::NoSuchColumn("caller".into()))
                    };
                }
                let kept = fail.map_or(batch.len(), |(at, _)| at);
                let inserted = table.insert_all(batch.clone());
                prop_assert_eq!(inserted.is_err(), fail.is_some());
                if fail.is_none() {
                    prop_assert_eq!(inserted, Ok(kept));
                }
                self.rows
                    .extend(batch.into_iter().take(kept).map(Result::ok));
            }
            TableOp::Update {
                col,
                value: (ty, cell),
                conds,
                by_name,
            } => {
                let col = col % self.types.len();
                let value = cell_value(TYPES[usize::from(*ty)], cell);
                let conds = self.conds(conds);
                let fits = table.check_value(col, &value).is_ok();
                let updated = if *by_name {
                    table.update(
                        &self.filter(&conds),
                        &[(self.names[col].as_str(), value.clone())],
                    )
                } else {
                    let cols = conds.iter().map(|(c, op, v)| ColCond {
                        col: *c,
                        op: *op,
                        value: v,
                    });
                    table.update_where(std::iter::once((col, &value)), cols)
                };
                let matching = self.matching(&conds);
                if fits {
                    prop_assert_eq!(updated, Ok(matching.len()));
                    for at in matching {
                        self.rows[at].as_mut().unwrap()[col] = value.clone();
                    }
                } else {
                    prop_assert!(matches!(updated, Err(TableError::Type { .. })));
                }
            }
            TableOp::Delete { conds, by_name } => {
                let conds = self.conds(conds);
                let deleted = if *by_name {
                    table.delete(&self.filter(&conds)).unwrap()
                } else {
                    let cols = conds.iter().map(|(c, op, v)| ColCond {
                        col: *c,
                        op: *op,
                        value: v,
                    });
                    table.delete_where(cols)
                };
                let matching = self.matching(&conds);
                prop_assert_eq!(deleted, matching.len());
                for at in matching {
                    self.rows[at] = None;
                }
            }
            TableOp::CreateIndex(col) => {
                table
                    .create_index(&self.names[col % self.types.len()])
                    .unwrap();
            }
            TableOp::Select(conds) => {
                let conds = self.conds(conds);
                let expected: Vec<Row> = self
                    .matching(&conds)
                    .into_iter()
                    .map(|at| self.rows[at].clone().unwrap())
                    .collect();
                let filter = self.filter(&conds);
                prop_assert_eq!(table.select(&filter).unwrap(), expected.clone());
                prop_assert_eq!(table.count(&filter).unwrap(), expected.len());
                let cols = conds.iter().map(|(c, op, v)| ColCond {
                    col: *c,
                    op: *op,
                    value: v,
                });
                prop_assert_eq!(table.count_where(cols), expected.len());
            }
            TableOp::Churn(cells) => {
                let row = self.row(cells);
                let flood = 4_200;
                let copies = self.live();
                for row in std::iter::repeat_n(&row, flood).chain(&copies) {
                    table.insert(row.clone()).unwrap();
                    self.rows.push(Some(row.clone()));
                }
                let conds: Vec<(usize, CondOp, Value)> = (0..self.types.len())
                    .filter(|&col| row[col] != Value::Null)
                    .map(|col| (col, CondOp::Eq, row[col].clone()))
                    .collect();
                let deleted = table.delete(&self.filter(&conds)).unwrap();
                let matching = self.matching(&conds);
                prop_assert_eq!(deleted, matching.len());
                prop_assert!(deleted >= flood);
                for at in matching {
                    self.rows[at] = None;
                }
                // Every index, rebuilt, answers as a scan does.
                for row in self.live() {
                    for (col, value) in row.iter().enumerate() {
                        let eq = [(col, CondOp::Eq, value.clone())];
                        let expected = self.matching(&eq).len();
                        prop_assert_eq!(table.count(&self.filter(&eq)).unwrap(), expected);
                    }
                }
            }
        }
        prop_assert_eq!(table.len(), self.rows.iter().flatten().count());
        prop_assert_eq!(table.iter().collect::<Vec<_>>(), self.live());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sequence of inserts, batches cut by a failing row, updates to
    /// and from `NULL` and `UC` on indexed and unindexed columns, deletes
    /// (enough of them, once in a while, to compact the table), late
    /// indexes and queries with every operator leaves the table what a
    /// list of rows would be, and a snapshot gives that list back.
    #[test]
    fn a_table_is_a_list_of_rows(
        types in prop::collection::vec(0u8..4, 1..5),
        indexed in prop::collection::vec(0usize..5, 0..3),
        ops in prop::collection::vec(table_op(), 0..40),
    ) {
        let types: Vec<ColumnType> = types.iter().map(|&t| TYPES[usize::from(t)]).collect();
        let names: Vec<String> = (0..types.len()).map(|c| format!("c{c}")).collect();
        let cols: Vec<(&str, ColumnType)> =
            names.iter().map(String::as_str).zip(types.iter().copied()).collect();
        let mut db = Database::new();
        let table = db.create_table("T", Schema::new(&cols));
        for col in indexed {
            table.create_index(&names[col % types.len()]).unwrap();
        }
        let mut model = Model { types, names, rows: Vec::new() };
        for op in &ops {
            model.step(table, op);
        }
        let path = scratch("list");
        db.save_snapshot(&path).unwrap();
        let loaded = Database::load_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let back = loaded.table("T").unwrap();
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), model.live());
        prop_assert_eq!(
            back.indexed_columns().collect::<Vec<_>>(),
            db.table("T").unwrap().indexed_columns().collect::<Vec<_>>()
        );
    }
}

proptest! {
    /// After any op sequence: at most one open (UC) location row per
    /// object, at most one open containment per item, and the snapshot
    /// queries agree with a naive replay.
    #[test]
    fn uc_invariants_hold(ops in ops_strategy()) {
        let mut db = Database::rfid();
        let mut naive_loc = std::collections::HashMap::<u64, u8>::new();
        let mut naive_parent = std::collections::HashMap::<u64, Option<u64>>::new();
        for (i, op) in ops.iter().enumerate() {
            let t = Timestamp::from_secs(i as u64 + 1);
            match *op {
                Op::MoveTo { object, loc } => {
                    db.record_location(epc(object), &format!("loc{loc}"), t).unwrap();
                    naive_loc.insert(object, loc);
                }
                Op::Pack { case, item } => {
                    db.record_containment(epc(case), &[epc(item)], t).unwrap();
                    naive_parent.insert(item, Some(case));
                }
                Op::Unpack { item } => {
                    db.end_containment(epc(item), t).unwrap();
                    naive_parent.insert(item, None);
                }
            }
        }
        let now = Timestamp::from_secs(ops.len() as u64 + 10);

        // One open row per object, tops.
        for object in 0u64..6 {
            let open = db
                .table("OBJECTLOCATION").unwrap()
                .count(
                    &Filter::on(Cond::eq("object_epc", epc(object)))
                        .and(Cond::new("tend", CondOp::Eq, Value::Uc)),
                )
                .unwrap();
            prop_assert!(open <= 1, "object {object} has {open} open location rows");
            let expected = naive_loc.get(&object).map(|l| format!("loc{l}"));
            prop_assert_eq!(db.current_location(epc(object)).unwrap(), expected);
            prop_assert_eq!(db.location_at(epc(object), now).unwrap(),
                            naive_loc.get(&object).map(|l| format!("loc{l}")));

            let open_containments = db
                .table("OBJECTCONTAINMENT").unwrap()
                .count(
                    &Filter::on(Cond::eq("object_epc", epc(object)))
                        .and(Cond::new("tend", CondOp::Eq, Value::Uc)),
                )
                .unwrap();
            prop_assert!(open_containments <= 1);
            let expected_parent = naive_parent.get(&object).copied().flatten().map(epc);
            prop_assert_eq!(db.parent_at(epc(object), now).unwrap(), expected_parent);
        }
    }

    /// Location history periods tile the timeline: consecutive rows abut,
    /// only the last is open.
    #[test]
    fn history_periods_tile(moves in prop::collection::vec(0u8..5, 1..20)) {
        let mut db = Database::rfid();
        for (i, loc) in moves.iter().enumerate() {
            db.record_location(epc(1), &format!("loc{loc}"), Timestamp::from_secs(i as u64))
                .unwrap();
        }
        let history = db.location_history(epc(1)).unwrap();
        prop_assert_eq!(history.len(), moves.len());
        for w in history.windows(2) {
            prop_assert_eq!(w[0].period.to, Some(w[1].period.from), "gap in the timeline");
        }
        prop_assert_eq!(history.last().unwrap().period.to, None, "latest row open");
    }

    /// select/count/delete agree with each other on random filters.
    #[test]
    fn select_count_delete_agree(rows in prop::collection::vec((0u64..5, 0u8..3), 0..40),
                                 probe in 0u64..5) {
        let mut db = Database::rfid();
        for (i, &(object, loc)) in rows.iter().enumerate() {
            db.table_mut("OBJECTLOCATION").unwrap().insert(vec![
                Value::Epc(epc(object)),
                Value::str(format!("loc{loc}")),
                Value::Time(Timestamp::from_secs(i as u64)),
                Value::Uc,
            ]).unwrap();
        }
        let filter = Filter::on(Cond::eq("object_epc", epc(probe)));
        let table = db.table_mut("OBJECTLOCATION").unwrap();
        let selected = table.select(&filter).unwrap().len();
        prop_assert_eq!(selected, table.count(&filter).unwrap());
        let deleted = table.delete(&filter).unwrap();
        prop_assert_eq!(deleted, selected);
        prop_assert_eq!(table.count(&filter).unwrap(), 0);
        prop_assert_eq!(table.len(), rows.len() - deleted);
    }

    /// Whatever the store holds, a snapshot gives back the same tables in
    /// the same order, with the same schemas, live rows and indexes.
    #[test]
    fn snapshot_round_trips_any_store(specs in prop::collection::vec(table_strategy(), 0..4)) {
        let db = build(&specs);
        let path = scratch("roundtrip");
        db.save_snapshot(&path).unwrap();
        let loaded = Database::load_snapshot(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(
            loaded.table_names().collect::<Vec<_>>(),
            db.table_names().collect::<Vec<_>>()
        );
        for name in db.table_names() {
            let (saved, back) = (db.table(name).unwrap(), loaded.table(name).unwrap());
            prop_assert_eq!(back.schema(), saved.schema());
            prop_assert_eq!(back.iter().collect::<Vec<_>>(), saved.iter().collect::<Vec<_>>());
            prop_assert_eq!(
                back.indexed_columns().collect::<Vec<_>>(),
                saved.indexed_columns().collect::<Vec<_>>()
            );
        }
    }
}

/// A snapshot cut short anywhere is rejected, never read as a smaller
/// store, and reading it leaves it as it was.
#[test]
fn every_truncated_snapshot_is_rejected_and_left_alone() {
    let (path, cut) = (scratch("whole"), scratch("cut"));
    stocked().save_snapshot(&path).unwrap();
    let whole = std::fs::read(&path).unwrap();
    assert!(Database::load_snapshot(&path).is_ok());
    for len in 0..whole.len() {
        std::fs::write(&cut, &whole[..len]).unwrap();
        let loaded = Database::load_snapshot(&cut);
        assert!(
            loaded.is_err(),
            "a {len}-byte prefix of {} loaded",
            whole.len()
        );
        assert_eq!(std::fs::read(&cut).unwrap(), &whole[..len], "at {len}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut);
}
