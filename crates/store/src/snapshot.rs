//! Persistence: the whole [`Database`] as one crash-safe snapshot.
//!
//! [`Database::save_snapshot`] writes `<path>.tmp`, syncs it, renames it over
//! `<path>` and syncs the directory, so a kill mid-save leaves the previous
//! snapshot intact. [`Database::load_snapshot`] only reads, and rejects a
//! file that does not end in its end record instead of guessing where a cut
//! one stopped. The format is escaped text one can read with `less`, one
//! record a line:
//!
//! ```text
//! C|<table>|<column>:<type>,…   a table, in creation order (its TableId)
//! X|<table>|<column>            an index, in index creation order
//! I|<table>|<value>|…           a live row, in insertion order
//! E|<records>                   the end: how many records precede it
//! ```

use std::error::Error;
use std::fmt::{self, Write as _};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use rfid_epc::Epc;
use rfid_events::Timestamp;

use crate::db::Database;
use crate::table::{ColumnType, Schema};
use crate::value::Value;

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (including a file that is not UTF-8).
    Io(io::Error),
    /// The file is not one whole snapshot.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
            Self::Corrupt { line, reason } => write!(f, "snapshot line {line}: {reason}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(value: io::Error) -> Self {
        Self::Io(value)
    }
}

const TYPES: [(ColumnType, &str); 4] = [
    (ColumnType::Epc, "epc"),
    (ColumnType::Str, "str"),
    (ColumnType::Int, "int"),
    (ColumnType::Time, "time"),
];

/// The format's separators (`|` between fields, `,` in a column list, `\n`
/// between records) and the escape character, each with its escape. A
/// column's `:` needs none: its type follows the last one.
const ESCAPES: [(char, &str); 4] = [('%', "%25"), ('|', "%7C"), (',', "%2C"), ('\n', "%0A")];

impl Database {
    /// Writes the whole store to `path`, atomically: until the closing
    /// rename, the file at `path` is untouched, so a failure or a kill
    /// before it leaves the previous snapshot byte for byte.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        if let Err(e) = self.write_snapshot(Path::new(&tmp), path) {
            let _ = fs::remove_file(&tmp); // best effort: not a file, not ours
            return Err(e.into());
        }
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }

    /// Writes the snapshot to `tmp`, syncs it, and renames it to `path`.
    fn write_snapshot(&self, tmp: &Path, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(tmp)?);
        let mut records = 0;
        for name in self.table_names() {
            let table = self.table(name).expect("listed");
            let schema = table.schema();
            write!(w, "C|{}|", Esc(name))?;
            for (i, column) in schema.names().enumerate() {
                let ty = schema.column_type(i);
                let (_, ty) = TYPES.iter().find(|(t, _)| Some(*t) == ty).expect("a type");
                write!(w, "{}{}:{ty}", if i == 0 { "" } else { "," }, Esc(column))?;
            }
            writeln!(w)?;
            for col in table.indexed_columns() {
                let column = schema.names().nth(col).expect("own column");
                writeln!(w, "X|{}|{}", Esc(name), Esc(column))?;
            }
            for id in table.live_ids() {
                write!(w, "I|{}", Esc(name))?;
                for col in 0..schema.arity() {
                    write!(w, "|{}", Encoded(&table.cell(id, col)))?;
                }
                writeln!(w)?;
            }
            records += 1 + table.indexed_columns().count() + table.len();
        }
        writeln!(w, "E|{records}")?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(tmp, path)
    }

    /// Reads a store [`Database::save_snapshot`] wrote. Never writes to the
    /// file. A file without its newline-terminated end record, whose record
    /// count disagrees with the end record, or with any malformed line is
    /// an error, never a smaller store.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let corrupt = |line, reason: String| SnapshotError::Corrupt { line, reason };
        let text = fs::read_to_string(path)?;
        let Some(body) = text.strip_suffix('\n') else {
            let last = text.split('\n').count();
            return Err(corrupt(last, "no newline-terminated end record".into()));
        };
        let mut lines: Vec<&str> = body.split('\n').collect();
        let end = lines.pop().unwrap_or_default();
        if end.strip_prefix("E|").and_then(|n| n.parse().ok()) != Some(lines.len()) {
            let reason = format!("`{end}` is not the end of {} records", lines.len());
            return Err(corrupt(lines.len() + 1, reason));
        }
        let mut db = Database::new();
        for (i, line) in lines.iter().enumerate() {
            apply_record(&mut db, line).map_err(|e| corrupt(i + 1, e.to_string()))?;
        }
        Ok(db)
    }
}

fn apply_record(db: &mut Database, line: &str) -> Result<(), Box<dyn Error>> {
    let mut parts = line.split('|');
    let kind = parts.next().unwrap_or_default();
    let table = unesc(parts.next().ok_or("missing table")?)?;
    match kind {
        "C" => {
            if db.table_id(&table).is_some() {
                return Err(format!("table `{table}` defined twice").into());
            }
            let mut cols: Vec<(String, ColumnType)> = Vec::new();
            let text = parts.next().ok_or("missing columns")?;
            for col in text.split_terminator(',') {
                let (name, ty) = col.rsplit_once(':').ok_or("bad column")?;
                let (ty, _) = TYPES.iter().find(|(_, n)| *n == ty).ok_or("unknown type")?;
                let name = unesc(name)?;
                if cols.iter().any(|(n, _)| *n == name) {
                    return Err(format!("duplicate column `{name}`").into());
                }
                cols.push((name, *ty));
            }
            let refs: Vec<(&str, ColumnType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            db.create_table(&table, Schema::new(&refs));
        }
        "X" => {
            let column = unesc(parts.next().ok_or("missing column")?)?;
            db.require_mut(&table)?.create_index(&column)?;
        }
        "I" => {
            let row = parts.by_ref().map(decode_value).collect::<Result<_, _>>()?;
            db.require_mut(&table)?.insert(row)?;
        }
        other => return Err(format!("unexpected record kind `{other}`").into()),
    }
    parts
        .next()
        .map_or(Ok(()), |_| Err("trailing fields".into()))
}

/// A name or string, escaped.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match ESCAPES.iter().find(|(plain, _)| *plain == c) {
                Some((_, code)) => f.write_str(code)?,
                None => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

fn unesc(s: &str) -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '%' {
            let code: String = chars.by_ref().take(2).collect();
            let found = ESCAPES.iter().find(|(_, e)| e[1..] == code);
            out.push(found.ok_or_else(|| format!("bad escape %{code}"))?.0);
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// A value, tagged with its variant.
struct Encoded<'a>(&'a Value);

impl fmt::Display for Encoded<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Epc(e) => write!(f, "E:{}", e.to_hex()),
            Value::Str(s) => write!(f, "S:{}", Esc(s)),
            Value::Int(i) => write!(f, "I:{i}"),
            Value::Time(t) => write!(f, "T:{}", t.as_millis()),
            Value::Uc => f.write_str("UC"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

fn decode_value(s: &str) -> Result<Value, Box<dyn Error>> {
    Ok(match s.split_once(':') {
        None if s == "UC" => Value::Uc,
        None if s == "NULL" => Value::Null,
        Some(("E", body)) => Value::Epc(Epc::from_hex(body)?),
        Some(("S", body)) => Value::str(unesc(body)?),
        Some(("I", body)) => Value::Int(body.parse()?),
        Some(("T", body)) => Value::Time(Timestamp::from_millis(body.parse()?)),
        _ => return Err(format!("bad value `{s}`").into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rfid-snapshot-{name}-{}", std::process::id()))
    }

    #[test]
    fn a_saved_store_keeps_its_table_ids_and_indexes() {
        let path = tmp("roundtrip");
        let mut db = Database::rfid();
        let object = Gid96::new(1, 1, 1).unwrap().into();
        db.record_location(object, "dock|door", Timestamp::from_secs(3))
            .unwrap();
        db.save_snapshot(&path).unwrap();
        let loaded = Database::load_snapshot(&path).unwrap();
        for name in db.table_names() {
            assert_eq!(loaded.table_id(name), db.table_id(name), "{name}");
            let (a, b) = (db.table(name).unwrap(), loaded.table(name).unwrap());
            assert!(a.iter().eq(b.iter()), "{name}");
            assert!(a.indexed_columns().eq(b.indexed_columns()), "{name}");
        }
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            text.ends_with("\nE|8\n"),
            "3 tables, 4 indexes, 1 row: {text}"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_lines_and_counts_are_errors() {
        let path = tmp("malformed");
        for (text, line) in [
            ("", 1),
            ("E|0", 1),
            ("E|1\n", 1),
            ("C|T|a:int\nE|0\n", 2),
            ("Z|T\nE|1\n", 1),
            ("C|T|a:int,a:str\nE|1\n", 1),
            ("C|T|a:int,,b:str\nE|1\n", 1),
            ("C|T|a:uint\nE|1\n", 1),
            ("C|T|a:int\nI|T|S:x\nE|2\n", 2),
            ("C|T|a:int\nX|T|b\nE|2\n", 2),
            ("C|T|a:int\nC|T|a:int\nE|2\n", 2),
            ("C|T|a:int\nI|T|I:1|I:2\nE|2\n", 2),
            ("C|T|a:int\nI|T|I:x\nE|2\n", 2),
            ("C|T|a:str\nI|T|S:%7\nE|2\n", 2),
            ("C|T|a:int\nX|T|a|b\nE|2\n", 2),
        ] {
            fs::write(&path, text).unwrap();
            match Database::load_snapshot(&path) {
                Err(SnapshotError::Corrupt { line: at, .. }) => assert_eq!(at, line, "{text:?}"),
                other => panic!("{text:?} loaded as {other:?}"),
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn values_round_trip_through_their_encoding() {
        for v in [
            Value::str("with|pipe,comma%percent\nnewline:colon"),
            Value::str(""),
            Value::Int(i64::MIN),
            Value::Time(Timestamp::MAX),
            Value::Uc,
            Value::Null,
            Value::Epc(Gid96::new(1, 1, 5).unwrap().into()),
        ] {
            let encoded = Encoded(&v).to_string();
            assert!(!encoded.contains(['\n', '|', ',']), "{encoded}");
            assert_eq!(decode_value(&encoded).unwrap(), v, "{encoded}");
        }
    }
}
