//! # rfid-store — the temporal RFID data store
//!
//! RFID rules *act* on a data store: Rule 2 inserts observations, Rule 3
//! rewrites `OBJECTLOCATION` with "Until Changed" (UC) semantics, Rule 4
//! bulk-inserts containment relationships. This crate is that store — an
//! embedded, in-memory implementation of the temporal data model the paper
//! builds on (Wang & Liu, VLDB 2005):
//!
//! * [`value`] / [`table`] — a small typed store of cells with schemas, filters,
//!   and hash indexes, written by name or by resolved column position;
//! * [`db`] — the database of named tables, pre-provisioned with the
//!   paper's `OBSERVATION`, `OBJECTLOCATION`, and `OBJECTCONTAINMENT`
//!   schemas;
//! * [`temporal`] — UC-aware operations: close-and-append location updates,
//!   containment with period validity, snapshot queries ("where was object X
//!   at time t", "what was in pallet P at time t", transitive closure), and
//!   history queries;
//! * [`snapshot`] — persistence: the whole store saved to one file
//!   atomically ([`Database::save_snapshot`]) and read back
//!   ([`Database::load_snapshot`]).
//!
//! The rule-language crate executes its SQL-subset actions against this
//! store; applications can also use it directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod db;
mod index;
pub mod snapshot;
pub mod table;
pub mod temporal;
pub mod value;

pub use db::{Database, SharedDatabase, TableId};
pub use snapshot::SnapshotError;
pub use table::{ColCond, ColumnType, Cond, CondOp, Filter, Row, Schema, Table, TableError};
pub use value::Value;
