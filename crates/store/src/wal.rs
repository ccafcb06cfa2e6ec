//! Durability: a write-ahead log and checkpointing for the store.
//!
//! The paper's RFID data store is a persistent database; this module makes
//! the embedded store survive restarts without pulling in an external
//! engine. [`DurableDatabase`] wraps a [`Database`] and appends every
//! mutation to an append-only, line-oriented log before applying it;
//! [`DurableDatabase::open`] replays the log (tolerating a torn final
//! record from a crash mid-append), and [`DurableDatabase::checkpoint`]
//! compacts the log to a snapshot of live rows.
//!
//! The record format is a deliberately simple escaped text encoding — the
//! sanctioned dependency set has no serializer, and a format one can read
//! with `less` is worth more in an audit than a binary one.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;

use rfid_epc::Epc;
use rfid_events::Timestamp;

use crate::db::Database;
use crate::table::{ColumnType, Cond, CondOp, Filter, Row, Schema, TableError};
use crate::value::Value;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The store rejected a replayed or live operation.
    Store(TableError),
    /// A log record (other than a torn tail) is malformed.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Store(e) => write!(f, "wal store error: {e}"),
            Self::Corrupt { line, reason } => write!(f, "wal corrupt at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(value: std::io::Error) -> Self {
        Self::Io(value)
    }
}

impl From<TableError> for WalError {
    fn from(value: TableError) -> Self {
        Self::Store(value)
    }
}

/// A database whose mutations survive process restarts.
pub struct DurableDatabase {
    db: Database,
    path: PathBuf,
    writer: BufWriter<File>,
    records: u64,
}

impl DurableDatabase {
    /// Creates a fresh durable database at `path` (truncating any existing
    /// log), seeded with `base`'s schemas and rows.
    pub fn create(path: impl Into<PathBuf>, base: Database) -> Result<Self, WalError> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut this = Self {
            db: Database::new(),
            path,
            writer: BufWriter::new(file),
            records: 0,
        };
        let mut names: Vec<String> = base.table_names().map(str::to_owned).collect();
        names.sort();
        for name in names {
            let table = base.table(&name).expect("listed");
            this.append(&encode_create(&name, table.schema()))?;
            this.db.create_table(&name, table.schema().clone());
            let rows: Vec<Row> = table.iter().cloned().collect();
            for row in rows {
                this.insert(&name, row)?;
            }
        }
        this.sync()?;
        Ok(this)
    }

    /// Opens an existing log and replays it. A torn final record (crash
    /// mid-append) is truncated away; corruption anywhere else is an error.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, WalError> {
        let path = path.into();
        let mut db = Database::new();
        let mut records = 0u64;
        let mut valid_bytes: u64 = 0;
        {
            let file = File::open(&path)?;
            let total = file.metadata()?.len();
            let mut reader = BufReader::new(file);
            let mut line = String::new();
            let mut line_no = 0usize;
            loop {
                line.clear();
                let n = reader.read_line(&mut line)?;
                if n == 0 {
                    break;
                }
                line_no += 1;
                let is_complete = line.ends_with('\n');
                match apply_record(&mut db, line.trim_end_matches('\n')) {
                    Ok(()) => {
                        if !is_complete {
                            // A record without the trailing newline may be
                            // torn even if it parsed; keep it only when it is
                            // provably the whole file tail.
                            valid_bytes += n as u64;
                            records += 1;
                            debug_assert_eq!(valid_bytes, total);
                            break;
                        }
                        valid_bytes += n as u64;
                        records += 1;
                    }
                    Err(e) => {
                        let at_tail = valid_bytes + n as u64 == total;
                        if at_tail {
                            break; // torn tail: drop it
                        }
                        return Err(match e {
                            WalError::Corrupt { reason, .. } => WalError::Corrupt {
                                line: line_no,
                                reason,
                            },
                            other => other,
                        });
                    }
                }
            }
        }
        // Truncate away any torn tail, then reopen for append.
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_bytes)?;
        let mut file = OpenOptions::new().append(true).open(&path)?;
        file.flush()?;
        Ok(Self {
            db,
            path,
            writer: BufWriter::new(file),
            records,
        })
    }

    /// Read access to the underlying database (all query APIs).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Inserts a row durably.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), WalError> {
        self.append(&encode_insert(table, &row))?;
        self.db.require_mut(table)?.insert(row)?;
        Ok(())
    }

    /// Updates rows durably. Returns the number of rows changed.
    pub fn update(
        &mut self,
        table: &str,
        filter: &Filter,
        sets: &[(String, Value)],
    ) -> Result<usize, WalError> {
        self.append(&encode_update(table, filter, sets))?;
        Ok(self.db.require_mut(table)?.update(filter, sets)?)
    }

    /// Deletes rows durably. Returns the number of rows removed.
    pub fn delete(&mut self, table: &str, filter: &Filter) -> Result<usize, WalError> {
        self.append(&encode_delete(table, filter))?;
        Ok(self.db.require_mut(table)?.delete(filter)?)
    }

    /// Creates a table durably.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), WalError> {
        self.append(&encode_create(name, &schema))?;
        self.db.create_table(name, schema);
        Ok(())
    }

    /// Flushes buffered records to the operating system.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Compacts the log: rewrites it as schema records plus one insert per
    /// *live* row, atomically replacing the old log. Tombstoned rows and
    /// superseded updates disappear.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let tmp = self.path.with_extension("wal.tmp");
        {
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            let mut w = BufWriter::new(file);
            let mut names: Vec<String> = self.db.table_names().map(str::to_owned).collect();
            names.sort();
            let mut count = 0u64;
            for name in &names {
                let table = self.db.table(name).expect("listed");
                w.write_all(encode_create(name, table.schema()).as_bytes())?;
                w.write_all(b"\n")?;
                count += 1;
                for row in table.iter() {
                    w.write_all(encode_insert(name, row).as_bytes())?;
                    w.write_all(b"\n")?;
                    count += 1;
                }
            }
            w.flush()?;
            self.records = count;
        }
        std::fs::rename(&tmp, &self.path)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }

    /// Records written since open/create (including replayed ones).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    fn append(&mut self, record: &str) -> Result<(), WalError> {
        debug_assert!(!record.contains('\n'));
        self.writer.write_all(record.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }
}

// --- record encoding --------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '\n' => out.push_str("%0A"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            let hex: String = chars.by_ref().take(2).collect();
            match hex.as_str() {
                "25" => out.push('%'),
                "7C" => out.push('|'),
                "0A" => out.push('\n'),
                other => return Err(format!("bad escape %{other}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Epc(e) => format!("E:{}", e.to_hex()),
        Value::Str(s) => format!("S:{}", esc(s)),
        Value::Int(i) => format!("I:{i}"),
        Value::Time(t) => format!("T:{}", t.as_millis()),
        Value::Uc => "UC".to_owned(),
        Value::Null => "NULL".to_owned(),
    }
}

fn decode_value(s: &str) -> Result<Value, String> {
    if s == "UC" {
        return Ok(Value::Uc);
    }
    if s == "NULL" {
        return Ok(Value::Null);
    }
    let (tag, body) = s
        .split_once(':')
        .ok_or_else(|| format!("bad value `{s}`"))?;
    Ok(match tag {
        "E" => Value::Epc(Epc::from_hex(body).map_err(|e| e.to_string())?),
        "S" => Value::str(unesc(body)?),
        "I" => Value::Int(body.parse().map_err(|_| format!("bad int `{body}`"))?),
        "T" => Value::Time(Timestamp::from_millis(
            body.parse().map_err(|_| format!("bad time `{body}`"))?,
        )),
        other => return Err(format!("unknown value tag `{other}`")),
    })
}

fn encode_op(op: CondOp) -> &'static str {
    match op {
        CondOp::Eq => "eq",
        CondOp::Ne => "ne",
        CondOp::Lt => "lt",
        CondOp::Le => "le",
        CondOp::Gt => "gt",
        CondOp::Ge => "ge",
    }
}

fn decode_op(s: &str) -> Result<CondOp, String> {
    Ok(match s {
        "eq" => CondOp::Eq,
        "ne" => CondOp::Ne,
        "lt" => CondOp::Lt,
        "le" => CondOp::Le,
        "gt" => CondOp::Gt,
        "ge" => CondOp::Ge,
        other => return Err(format!("unknown op `{other}`")),
    })
}

fn encode_filter(out: &mut String, filter: &Filter) {
    let _ = write!(out, "|{}", filter.conds.len());
    for cond in &filter.conds {
        let _ = write!(
            out,
            "|{}|{}|{}",
            esc(&cond.column),
            encode_op(cond.op),
            encode_value(&cond.value)
        );
    }
}

fn encode_insert(table: &str, row: &Row) -> String {
    let mut out = format!("I|{}", esc(table));
    for v in row {
        let _ = write!(out, "|{}", encode_value(v));
    }
    out
}

fn encode_update(table: &str, filter: &Filter, sets: &[(String, Value)]) -> String {
    let mut out = format!("U|{}|{}", esc(table), sets.len());
    for (col, v) in sets {
        let _ = write!(out, "|{}|{}", esc(col), encode_value(v));
    }
    encode_filter(&mut out, filter);
    out
}

fn encode_delete(table: &str, filter: &Filter) -> String {
    let mut out = format!("D|{}", esc(table));
    encode_filter(&mut out, filter);
    out
}

fn encode_create(name: &str, schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .names()
        .map(|n| {
            let idx = schema.col(n).expect("own column");
            let ty = match schema.column_type(idx).expect("own column") {
                ColumnType::Epc => "epc",
                ColumnType::Str => "str",
                ColumnType::Int => "int",
                ColumnType::Time => "time",
            };
            format!("{}:{ty}", esc(n))
        })
        .collect();
    format!("C|{}|{}", esc(name), cols.join(","))
}

fn corrupt(reason: impl Into<String>) -> WalError {
    WalError::Corrupt {
        line: 0,
        reason: reason.into(),
    }
}

fn apply_record(db: &mut Database, line: &str) -> Result<(), WalError> {
    let mut parts = line.split('|');
    let kind = parts.next().ok_or_else(|| corrupt("empty record"))?;
    match kind {
        "C" => {
            let name =
                unesc(parts.next().ok_or_else(|| corrupt("missing table"))?).map_err(corrupt)?;
            let cols_text = parts.next().ok_or_else(|| corrupt("missing columns"))?;
            let mut cols: Vec<(String, ColumnType)> = Vec::new();
            for col in cols_text.split(',').filter(|c| !c.is_empty()) {
                let (n, ty) = col.rsplit_once(':').ok_or_else(|| corrupt("bad column"))?;
                let ty = match ty {
                    "epc" => ColumnType::Epc,
                    "str" => ColumnType::Str,
                    "int" => ColumnType::Int,
                    "time" => ColumnType::Time,
                    other => return Err(corrupt(format!("unknown type `{other}`"))),
                };
                cols.push((unesc(n).map_err(corrupt)?, ty));
            }
            let refs: Vec<(&str, ColumnType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let table = db.create_table(&name, Schema::new(&refs));
            // The standard RFID tables get their standard indexes back.
            for col in ["object_epc", "parent_epc"] {
                let _ = table.create_index(col);
            }
            Ok(())
        }
        "I" => {
            let table =
                unesc(parts.next().ok_or_else(|| corrupt("missing table"))?).map_err(corrupt)?;
            let row: Result<Row, String> = parts.map(decode_value).collect();
            db.require_mut(&table)?.insert(row.map_err(corrupt)?)?;
            Ok(())
        }
        "U" => {
            let table =
                unesc(parts.next().ok_or_else(|| corrupt("missing table"))?).map_err(corrupt)?;
            let n_sets: usize = parts
                .next()
                .ok_or_else(|| corrupt("missing set count"))?
                .parse()
                .map_err(|_| corrupt("bad set count"))?;
            let mut sets = Vec::with_capacity(n_sets);
            for _ in 0..n_sets {
                let col = unesc(parts.next().ok_or_else(|| corrupt("missing set column"))?)
                    .map_err(corrupt)?;
                let val = decode_value(parts.next().ok_or_else(|| corrupt("missing set value"))?)
                    .map_err(corrupt)?;
                sets.push((col, val));
            }
            let filter = decode_filter(&mut parts)?;
            db.require_mut(&table)?.update(&filter, &sets)?;
            Ok(())
        }
        "D" => {
            let table =
                unesc(parts.next().ok_or_else(|| corrupt("missing table"))?).map_err(corrupt)?;
            let filter = decode_filter(&mut parts)?;
            db.require_mut(&table)?.delete(&filter)?;
            Ok(())
        }
        other => Err(corrupt(format!("unknown record kind `{other}`"))),
    }
}

fn decode_filter<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<Filter, WalError> {
    let n: usize = parts
        .next()
        .ok_or_else(|| corrupt("missing cond count"))?
        .parse()
        .map_err(|_| corrupt("bad cond count"))?;
    let mut filter = Filter::all();
    for _ in 0..n {
        let column =
            unesc(parts.next().ok_or_else(|| corrupt("missing cond column"))?).map_err(corrupt)?;
        let op =
            decode_op(parts.next().ok_or_else(|| corrupt("missing cond op"))?).map_err(corrupt)?;
        let value = decode_value(parts.next().ok_or_else(|| corrupt("missing cond value"))?)
            .map_err(corrupt)?;
        filter = filter.and(Cond::new(&column, op, value));
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;

    fn epc(n: u64) -> Epc {
        Gid96::new(1, 1, n).unwrap().into()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rfid-wal-{name}-{}.log", std::process::id()))
    }

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn create_write_reopen_recovers_everything() {
        let path = tmp("roundtrip");
        {
            let mut d = DurableDatabase::create(&path, Database::rfid()).unwrap();
            d.insert(
                "OBJECTLOCATION",
                vec![
                    Value::Epc(epc(1)),
                    Value::str("dock"),
                    Value::Time(ts(0)),
                    Value::Uc,
                ],
            )
            .unwrap();
            d.update(
                "OBJECTLOCATION",
                &Filter::on(Cond::eq("object_epc", epc(1))),
                &[("tend".to_owned(), Value::Time(ts(9)))],
            )
            .unwrap();
            d.insert(
                "OBJECTLOCATION",
                vec![
                    Value::Epc(epc(1)),
                    Value::str("truck"),
                    Value::Time(ts(9)),
                    Value::Uc,
                ],
            )
            .unwrap();
            d.sync().unwrap();
        } // dropped: simulated process exit

        let recovered = DurableDatabase::open(&path).unwrap();
        let db = recovered.db();
        assert_eq!(
            db.current_location(epc(1)).unwrap().as_deref(),
            Some("truck")
        );
        assert_eq!(
            db.location_at(epc(1), ts(5)).unwrap().as_deref(),
            Some("dock")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        {
            let mut d = DurableDatabase::create(&path, Database::rfid()).unwrap();
            d.insert(
                "OBSERVATION",
                vec![Value::str("r1"), Value::Epc(epc(1)), Value::Time(ts(1))],
            )
            .unwrap();
            d.sync().unwrap();
        }
        // Simulate a crash mid-append: a half-written record at the tail.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"I|OBSERVATION|S:r1|E:GARB").unwrap();
        }
        let recovered = DurableDatabase::open(&path).unwrap();
        assert_eq!(recovered.db().table("OBSERVATION").unwrap().len(), 1);

        // The truncated log now reopens cleanly too (tail removed).
        drop(recovered);
        let again = DurableDatabase::open(&path).unwrap();
        assert_eq!(again.db().table("OBSERVATION").unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let path = tmp("corrupt");
        {
            let mut d = DurableDatabase::create(&path, Database::rfid()).unwrap();
            d.insert(
                "OBSERVATION",
                vec![Value::str("r1"), Value::Epc(epc(1)), Value::Time(ts(1))],
            )
            .unwrap();
            d.sync().unwrap();
        }
        // Corrupt the FIRST line; the file still has valid records after.
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled = format!("Z|garbage\n{text}");
        std::fs::write(&path, mangled).unwrap();
        assert!(matches!(
            DurableDatabase::open(&path),
            Err(WalError::Corrupt { line: 1, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_without_losing_state() {
        let path = tmp("checkpoint");
        let mut d = DurableDatabase::create(&path, Database::rfid()).unwrap();
        // Many superseded updates…
        d.insert(
            "OBJECTLOCATION",
            vec![
                Value::Epc(epc(1)),
                Value::str("a"),
                Value::Time(ts(0)),
                Value::Uc,
            ],
        )
        .unwrap();
        for i in 0..50u64 {
            d.update(
                "OBJECTLOCATION",
                &Filter::on(Cond::eq("object_epc", epc(1))),
                &[("loc_id".to_owned(), Value::str(format!("loc{i}")))],
            )
            .unwrap();
        }
        let before = d.record_count();
        d.checkpoint().unwrap();
        assert!(d.record_count() < before, "log compacted");

        drop(d);
        let recovered = DurableDatabase::open(&path).unwrap();
        assert_eq!(
            recovered.db().current_location(epc(1)).unwrap().as_deref(),
            Some("loc49")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writes_after_checkpoint_survive() {
        let path = tmp("post-checkpoint");
        let mut d = DurableDatabase::create(&path, Database::rfid()).unwrap();
        d.checkpoint().unwrap();
        d.insert(
            "OBSERVATION",
            vec![Value::str("r1"), Value::Epc(epc(7)), Value::Time(ts(3))],
        )
        .unwrap();
        d.sync().unwrap();
        drop(d);
        let recovered = DurableDatabase::open(&path).unwrap();
        assert_eq!(recovered.db().table("OBSERVATION").unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn value_encoding_roundtrips_strings_with_special_chars() {
        for v in [
            Value::str("plain"),
            Value::str("with|pipe"),
            Value::str("with%percent"),
            Value::str("with\nnewline"),
            Value::Int(-42),
            Value::Uc,
            Value::Null,
            Value::Epc(epc(5)),
            Value::Time(ts(123)),
        ] {
            let encoded = encode_value(&v);
            assert!(!encoded.contains('\n'));
            assert_eq!(decode_value(&encoded).unwrap(), v, "{encoded}");
        }
    }
}
