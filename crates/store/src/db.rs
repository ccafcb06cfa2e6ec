//! The database: named tables, pre-provisioned RFID schemas.
//!
//! The paper's rules write to three standard tables. [`Database::rfid`]
//! creates them with the exact columns used in §3:
//!
//! * `OBSERVATION(reader, object_epc, at)` — filtered sightings (Rule 2);
//! * `OBJECTLOCATION(object_epc, loc_id, tstart, tend)` — location history
//!   with `UC` open periods (Rule 3);
//! * `OBJECTCONTAINMENT(object_epc, parent_epc, tstart, tend)` — containment
//!   history (Rule 4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rfid_epc::hash::MixMap;

use crate::table::{ColumnType, Schema, Table, TableError};

/// Position of a table in its database: what a statement prepared once
/// keeps instead of the table's name. Good for as long as
/// [`Database::version`] reads what it read when the id was looked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(usize);

/// Source of [`Database::version`] numbers, shared by every database of the
/// process so that no two table sets that differ carry the same number.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// A database: a set of named tables.
#[derive(Debug, Default, Clone)]
pub struct Database {
    /// Named tables in creation order; a [`TableId`] is a position here.
    tables: Vec<(String, Table)>,
    /// By name, which only the program's own scripts and set-up code choose.
    ids: MixMap<String, TableId>,
    /// Redrawn whenever a table is created or replaced.
    version: u64,
}

/// A database shared across threads (the engine thread writes, application
/// threads read).
pub type SharedDatabase = Arc<RwLock<Database>>;

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database provisioned with the paper's standard RFID tables and
    /// their natural indexes.
    pub fn rfid() -> Self {
        let mut db = Self::new();
        db.create_table(
            "OBSERVATION",
            Schema::new(&[
                ("reader", ColumnType::Str),
                ("object_epc", ColumnType::Epc),
                ("at", ColumnType::Time),
            ]),
        );
        db.create_table(
            "OBJECTLOCATION",
            Schema::new(&[
                ("object_epc", ColumnType::Epc),
                ("loc_id", ColumnType::Str),
                ("tstart", ColumnType::Time),
                ("tend", ColumnType::Time),
            ]),
        );
        db.create_table(
            "OBJECTCONTAINMENT",
            Schema::new(&[
                ("object_epc", ColumnType::Epc),
                ("parent_epc", ColumnType::Epc),
                ("tstart", ColumnType::Time),
                ("tend", ColumnType::Time),
            ]),
        );
        db.table_mut("OBSERVATION")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTLOCATION")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTCONTAINMENT")
            .unwrap()
            .create_index("object_epc")
            .unwrap();
        db.table_mut("OBJECTCONTAINMENT")
            .unwrap()
            .create_index("parent_epc")
            .unwrap();
        db
    }

    /// Creates (or replaces) a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> &mut Table {
        // Relaxed: the number only has to differ from every other one drawn.
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        let table = Table::new(schema);
        match self.ids.get(name) {
            Some(&TableId(at)) => self.tables[at].1 = table,
            None => {
                self.ids.insert(name.to_owned(), TableId(self.tables.len()));
                self.tables.push((name.to_owned(), table));
            }
        }
        let TableId(at) = self.ids[name];
        &mut self.tables[at].1
    }

    /// A number that changes whenever a table is created or replaced, here
    /// or in whatever database this one was cloned from or is swapped for:
    /// while it reads the same, every [`TableId`] and column position looked
    /// up earlier still names the same table and column.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The id of a table, for [`Database::by_id`].
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.ids.get(name).copied()
    }

    /// The table with an id looked up at the current [`Database::version`].
    ///
    /// # Panics
    /// May panic (or name another table) when the id is from another version.
    pub fn by_id(&self, id: TableId) -> &Table {
        &self.tables[id.0].1
    }

    /// [`Database::by_id`], mutably.
    pub fn by_id_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0].1
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_id(name).map(|id| self.by_id(id))
    }

    /// A mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.table_id(name).map(|id| self.by_id_mut(id))
    }

    /// A table by name, or an error naming it (for action execution).
    pub fn require(&self, name: &str) -> Result<&Table, TableError> {
        self.table(name).ok_or_else(|| Self::no_table(name))
    }

    /// A mutable table by name, or an error naming it.
    pub fn require_mut(&mut self, name: &str) -> Result<&mut Table, TableError> {
        self.table_mut(name).ok_or_else(|| Self::no_table(name))
    }

    /// The error [`Database::require`] reports for a table that is not there.
    pub fn no_table(name: &str) -> TableError {
        TableError::NoSuchColumn(format!("table {name}"))
    }

    /// Table names in creation order (a name's position is its [`TableId`]).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(name, _)| name.as_str())
    }

    /// Wraps into a [`SharedDatabase`].
    pub fn into_shared(self) -> SharedDatabase {
        Arc::new(RwLock::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfid_database_has_standard_tables() {
        let db = Database::rfid();
        for name in ["OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"] {
            let t = db.table(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(t.is_empty());
        }
        assert_eq!(db.table_names().count(), 3);
    }

    #[test]
    fn require_reports_missing_tables() {
        let db = Database::new();
        assert!(db.require("NOPE").is_err());
    }

    #[test]
    fn version_moves_with_the_table_set_and_ids_hold_between_moves() {
        let mut db = Database::rfid();
        let before = db.version();
        let id = db.table_id("OBJECTLOCATION").expect("provisioned");
        db.by_id_mut(id).create_index("loc_id").unwrap();
        assert_eq!(db.version(), before, "an index is not a table");
        assert_eq!(db.clone().version(), before, "a clone has the same tables");
        assert_ne!(Database::rfid().version(), before, "another database");

        db.create_table("AUDIT", Schema::new(&[("n", ColumnType::Int)]));
        let created = db.version();
        assert_ne!(created, before);
        assert_eq!(db.table_id("OBJECTLOCATION"), Some(id));
        // Replaced in place: same id, another schema, another version.
        db.create_table("AUDIT", Schema::new(&[("m", ColumnType::Str)]));
        assert_ne!(db.version(), created);
        assert_eq!(db.table("AUDIT").unwrap().schema().col("m"), Some(0));
        assert_eq!(db.table_names().count(), 4);
    }

    #[test]
    fn shared_database_allows_concurrent_reads() {
        let shared = Database::rfid().into_shared();
        let a = shared.read();
        let b = shared.read();
        assert_eq!(a.table_names().count(), b.table_names().count());
    }
}
