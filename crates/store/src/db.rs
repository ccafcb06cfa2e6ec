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

use std::sync::Arc;

use parking_lot::RwLock;
use rfid_epc::hash::MixMap;

use crate::table::{ColumnType, Schema, Table, TableError};

/// A database: a set of named tables.
#[derive(Debug, Default, Clone)]
pub struct Database {
    /// By name, which only the program's own scripts and set-up code choose.
    tables: MixMap<String, Table>,
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
        self.tables.insert(name.to_owned(), Table::new(schema));
        self.tables.get_mut(name).expect("just inserted")
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// A mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// A table by name, or an error naming it (for action execution).
    pub fn require(&self, name: &str) -> Result<&Table, TableError> {
        self.table(name)
            .ok_or_else(|| TableError::NoSuchColumn(format!("table {name}")))
    }

    /// A mutable table by name, or an error naming it.
    pub fn require_mut(&mut self, name: &str) -> Result<&mut Table, TableError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| TableError::NoSuchColumn(format!("table {name}")))
    }

    /// Table names, unordered.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
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
    fn shared_database_allows_concurrent_reads() {
        let shared = Database::rfid().into_shared();
        let a = shared.read();
        let b = shared.read();
        assert_eq!(a.table_names().count(), b.table_names().count());
    }
}
