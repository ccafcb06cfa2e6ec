//! Property tests over the temporal store: UC invariants must survive any
//! interleaving of location updates, packings, sales, and queries, and a
//! snapshot must give back exactly the store it saved, or nothing.

use std::path::PathBuf;

use proptest::prelude::*;
use rfid_epc::{Epc, Gid96};
use rfid_events::Timestamp;
use rfid_store::{ColumnType, Cond, CondOp, Database, Filter, Schema, Value};

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
