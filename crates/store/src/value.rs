//! Typed cell values.
//!
//! The store's rows carry EPCs, strings, integers, and timestamps — plus the
//! distinguished [`Value::Uc`] ("Until Changed") that the paper's temporal
//! model uses as the open end of a validity period, and `Null` for absent
//! data. `Uc` compares *greater* than every concrete timestamp, which makes
//! period-overlap predicates uniform.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use rfid_epc::Epc;
use rfid_events::Timestamp;

/// A cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An EPC identity.
    Epc(Epc),
    /// A string (location ids, type names, message text). Shared, so a
    /// value that names a catalog entry — a reader, a location — is a
    /// pointer copy of the catalog's own string, not a new allocation.
    Str(Arc<str>),
    /// A signed integer.
    Int(i64),
    /// A point in time.
    Time(Timestamp),
    /// "Until Changed" — the open end of a temporal validity period.
    Uc,
    /// Absent.
    Null,
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The timestamp, treating `Uc` as the far future. `None` for
    /// non-temporal values.
    pub fn as_time_or_uc(&self) -> Option<Timestamp> {
        match self {
            Value::Time(t) => Some(*t),
            Value::Uc => Some(Timestamp::MAX),
            _ => None,
        }
    }

    /// The EPC, if this is one.
    pub fn as_epc(&self) -> Option<Epc> {
        match self {
            Value::Epc(e) => Some(*e),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Ordering within comparable variants. Temporal comparisons treat `Uc`
    /// as after every concrete time; cross-type comparisons yield `None`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Epc(a), Value::Epc(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Time(_) | Value::Uc, Value::Time(_) | Value::Uc) => {
                let a = self.as_time_or_uc().expect("temporal");
                let b = other.as_time_or_uc().expect("temporal");
                Some(a.cmp(&b))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Epc(e) => write!(f, "{e}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::Uc => f.write_str("UC"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<Epc> for Value {
    fn from(value: Epc) -> Self {
        Value::Epc(value)
    }
}

impl From<Timestamp> for Value {
    fn from(value: Timestamp) -> Self {
        Value::Time(value)
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Str(value.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;

    #[test]
    fn uc_is_after_every_time() {
        let t = Value::Time(Timestamp::from_secs(1_000_000));
        assert_eq!(Value::Uc.compare(&t), Some(Ordering::Greater));
        assert_eq!(t.compare(&Value::Uc), Some(Ordering::Less));
        assert_eq!(Value::Uc.compare(&Value::Uc), Some(Ordering::Equal));
    }

    #[test]
    fn cross_type_comparison_is_none() {
        assert_eq!(Value::Int(3).compare(&Value::str("3")), None);
        assert_eq!(Value::Null.compare(&Value::Null), None);
    }

    #[test]
    fn same_type_ordering() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").compare(&Value::str("b")),
            Some(Ordering::Less)
        );
        let e1: Epc = Gid96::new(1, 1, 1).unwrap().into();
        let e2: Epc = Gid96::new(1, 1, 2).unwrap().into();
        assert_eq!(
            Value::Epc(e1).compare(&Value::Epc(e2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Uc.as_time_or_uc(), Some(Timestamp::MAX));
        assert_eq!(Value::Int(1).as_time_or_uc(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        let e: Epc = Gid96::new(1, 1, 1).unwrap().into();
        assert_eq!(Value::Epc(e).as_epc(), Some(e));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Uc.to_string(), "UC");
        assert_eq!(Value::str("dock").to_string(), "'dock'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
