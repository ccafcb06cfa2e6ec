//! The unified [`Epc`] value used throughout the system.
//!
//! Events carry millions of object identities, so `Epc` is a `Copy` wrapper
//! around the canonical 96-bit binary word; scheme-level views are decoded on
//! demand. This mirrors how middleware actually handles tag data: the raw
//! word flows through the pipeline, and only semantic layers decode it.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::bits;
use crate::gid::{self, Gid96};
use crate::gs1::{self, GRAI, SGTIN, SSCC};
use crate::{Grai96, Sgtin96, Sscc96};

/// A 96-bit Electronic Product Code in canonical binary form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Epc(u128);

/// The encoding scheme of an EPC, determined by its 8-bit header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpcClass {
    /// SGTIN-96 — serialized trade item.
    Sgtin96,
    /// SSCC-96 — logistic unit (case/pallet).
    Sscc96,
    /// GRAI-96 — returnable asset.
    Grai96,
    /// GID-96 — general identifier.
    Gid96,
    /// Unknown header; carried opaquely.
    Unknown(u8),
}

/// Errors constructing, decoding or parsing one scheme's identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpcError {
    /// Company prefix digit count has no partition row (must be 6–12).
    BadCompanyDigits(u32),
    /// A field exceeded its decimal capacity (`width` in digits) or its
    /// binary one (`width` in bits).
    Overflow {
        /// The field's name.
        field: &'static str,
        /// Its width.
        width: u32,
        /// The value that did not fit.
        value: u64,
    },
    /// The 96-bit word does not carry the header of the named scheme.
    WrongHeader(u64, &'static str),
    /// The stored partition value is not in the table.
    BadPartition(u8),
    /// The trailing reserved bits (SSCC-96) were not zero.
    ReservedNonZero(u64),
    /// A URI field is missing, is not all decimal digits, or is not as many
    /// digits as its partition row gives it.
    Malformed(&'static str),
}

impl fmt::Display for EpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadCompanyDigits(d) => write!(f, "company prefix of {d} digits not encodable"),
            Self::Overflow {
                field,
                width,
                value,
            } => write!(
                f,
                "value {value} does not fit in {width}-bit field `{field}`"
            ),
            Self::WrongHeader(h, scheme) => write!(f, "header {h:#04x} is not {scheme}"),
            Self::BadPartition(p) => write!(f, "partition value {p} invalid"),
            Self::ReservedNonZero(v) => write!(f, "reserved bits hold {v}, expected 0"),
            Self::Malformed(field) => write!(f, "field `{field}` is missing or malformed"),
        }
    }
}

impl std::error::Error for EpcError {}

/// Error parsing an EPC from its URI or hex form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpcParseError {
    text: String,
    reason: String,
}

impl EpcParseError {
    fn new(text: &str, reason: impl Into<String>) -> Self {
        Self {
            text: text.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for EpcParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse EPC `{}`: {}", self.text, self.reason)
    }
}

impl std::error::Error for EpcParseError {}

impl Epc {
    /// Wraps a raw 96-bit word. The high 32 bits of the `u128` must be zero.
    pub fn from_raw(word: u128) -> Self {
        assert_eq!(word >> 96, 0, "EPC wider than 96 bits");
        Self(word)
    }

    /// The canonical 96-bit word.
    pub fn raw(self) -> u128 {
        self.0
    }

    /// The scheme, from the 8-bit header.
    pub fn class(self) -> EpcClass {
        match (self.0 >> 88) as u8 {
            h if h == SGTIN.header => EpcClass::Sgtin96,
            h if h == SSCC.header => EpcClass::Sscc96,
            h if h == GRAI.header => EpcClass::Grai96,
            h if u64::from(h) == gid::HEADER => EpcClass::Gid96,
            h => EpcClass::Unknown(h),
        }
    }

    /// Decodes as SGTIN-96, if this EPC carries that header.
    pub fn as_sgtin(self) -> Option<Sgtin96> {
        Sgtin96::decode(self.0).ok()
    }

    /// Decodes as SSCC-96, if this EPC carries that header.
    pub fn as_sscc(self) -> Option<Sscc96> {
        Sscc96::decode(self.0).ok()
    }

    /// Decodes as GRAI-96, if this EPC carries that header.
    pub fn as_grai(self) -> Option<Grai96> {
        Grai96::decode(self.0).ok()
    }

    /// Decodes as GID-96, if this EPC carries that header.
    pub fn as_gid(self) -> Option<Gid96> {
        Gid96::decode(self.0).ok()
    }

    /// The 24-hex-digit label form.
    pub fn to_hex(self) -> String {
        bits::to_hex(self.0)
    }

    /// Parses the 24-hex-digit label form.
    pub fn from_hex(s: &str) -> Result<Self, EpcParseError> {
        bits::from_hex(s)
            .map(Self)
            .ok_or_else(|| EpcParseError::new(s, "expected 24 hex digits"))
    }

    /// The pure-identity URI (`urn:epc:id:<scheme>:<body>`), or the raw form
    /// (`urn:epc:raw:96.x<hex>`) for unknown headers.
    pub fn to_uri(self) -> String {
        let id = match gs1::scheme(self.class()) {
            Some(scheme) => scheme
                .decode(self.0)
                .map(|v| (scheme.uri, scheme.uri_body(&v))),
            None => Gid96::decode(self.0).map(|v| ("gid", v.uri_body())),
        };
        match id {
            Ok((scheme, body)) => format!("urn:epc:id:{scheme}:{body}"),
            Err(_) => format!("urn:epc:raw:96.x{}", self.to_hex()),
        }
    }

    /// Parses a pure-identity URI or raw URI.
    pub fn from_uri(uri: &str) -> Result<Self, EpcParseError> {
        if let Some(hex) = uri.strip_prefix("urn:epc:raw:96.x") {
            return Self::from_hex(hex);
        }
        let body = uri
            .strip_prefix("urn:epc:id:")
            .ok_or_else(|| EpcParseError::new(uri, "missing `urn:epc:id:` prefix"))?;
        let (name, rest) = body
            .split_once(':')
            .ok_or_else(|| EpcParseError::new(uri, "missing scheme separator"))?;
        let word = if name == "gid" {
            Gid96::parse_uri_body(rest).map(|v| v.encode())
        } else if let Some(s) = gs1::SCHEMES.iter().find(|s| s.uri == name) {
            s.parse_uri_body(rest).map(|v| s.encode(&v))
        } else {
            return Err(EpcParseError::new(uri, format!("unknown scheme `{name}`")));
        };
        word.map(Self)
            .map_err(|e| EpcParseError::new(uri, e.to_string()))
    }
}

impl From<Gid96> for Epc {
    fn from(value: Gid96) -> Self {
        Self(value.encode())
    }
}

impl fmt::Debug for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Epc({})", self.to_uri())
    }
}

impl fmt::Display for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_uri())
    }
}

impl FromStr for Epc {
    type Err = EpcParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.starts_with("urn:") {
            Self::from_uri(s)
        } else {
            Self::from_hex(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_detection() {
        let sgtin: Epc = Sgtin96::new(1, 614_141, 7, 112_345, 400).unwrap().into();
        let sscc: Epc = Sscc96::new(2, 614_141, 7, 1_234_567_890).unwrap().into();
        let grai: Epc = Grai96::new(0, 614_141, 7, 12_345, 7).unwrap().into();
        let gid: Epc = Gid96::new(1, 2, 3).unwrap().into();
        assert_eq!(sgtin.class(), EpcClass::Sgtin96);
        assert_eq!(sscc.class(), EpcClass::Sscc96);
        assert_eq!(grai.class(), EpcClass::Grai96);
        assert_eq!(gid.class(), EpcClass::Gid96);
        assert_eq!(
            Epc::from_raw(0xFFu128 << 88).class(),
            EpcClass::Unknown(0xFF)
        );
    }

    #[test]
    fn uri_roundtrip_all_schemes() {
        for epc in [
            Epc::from(Sgtin96::new(1, 614_141, 7, 112_345, 400).unwrap()),
            Epc::from(Sscc96::new(2, 614_141, 7, 1_234_567_890).unwrap()),
            Epc::from(Grai96::new(0, 614_141, 7, 12_345, 7).unwrap()),
            Epc::from(Gid96::new(42, 7, 99).unwrap()),
        ] {
            let uri = epc.to_uri();
            let parsed = Epc::from_uri(&uri).unwrap();
            // Filter bits are not part of the pure-identity URI; compare URIs.
            assert_eq!(parsed.to_uri(), uri);
        }
    }

    #[test]
    fn raw_uri_roundtrip() {
        let epc = Epc::from_raw(0xAB_u128 << 88 | 0xDEADBEEF);
        let uri = epc.to_uri();
        assert!(uri.starts_with("urn:epc:raw:96.x"));
        assert_eq!(Epc::from_uri(&uri).unwrap(), epc);
    }

    #[test]
    fn hex_roundtrip() {
        let epc = Epc::from(Gid96::new(1, 2, 3).unwrap());
        assert_eq!(Epc::from_hex(&epc.to_hex()).unwrap(), epc);
    }

    #[test]
    fn from_str_accepts_both_forms() {
        let epc = Epc::from(Gid96::new(1, 2, 3).unwrap());
        assert_eq!(epc.to_uri().parse::<Epc>().unwrap(), epc);
        assert_eq!(epc.to_hex().parse::<Epc>().unwrap(), epc);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let err = Epc::from_uri("urn:epc:id:bogus:1.2.3").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert!(Epc::from_uri("not a uri").is_err());
        assert!(Epc::from_hex("123").is_err());
    }
}
