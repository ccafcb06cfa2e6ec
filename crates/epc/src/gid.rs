//! GID-96: General Identifier.
//!
//! A scheme with no GS1 semantics: a flat manager / object-class / serial
//! triple. We use it for infrastructure tags (reader self-test tags, employee
//! badges in deployments without a GS1 prefix). Layout: header `0x35` (8) ·
//! general manager number (28) · object class (24) · serial (36).

use crate::bits::{self, BitReader, BitWriter};
use crate::epc::EpcError;

/// Binary header value identifying GID-96.
pub const HEADER: u64 = 0x35;

/// A decoded GID-96 identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid96 {
    /// General manager number (28 bits) — the issuing organisation.
    pub manager: u64,
    /// Object class (24 bits).
    pub class: u64,
    /// Serial number (36 bits).
    pub serial: u64,
}

impl Gid96 {
    /// Builds a GID-96, validating field widths.
    pub fn new(manager: u64, class: u64, serial: u64) -> Result<Self, EpcError> {
        for (field, value, width) in [
            ("manager", manager, 28u32),
            ("class", class, 24),
            ("serial", serial, 36),
        ] {
            if value >= (1u64 << width) {
                return Err(EpcError::Overflow {
                    field,
                    width,
                    value,
                });
            }
        }
        Ok(Self {
            manager,
            class,
            serial,
        })
    }

    /// Encodes into the 96-bit binary form.
    pub fn encode(&self) -> u128 {
        let mut w = BitWriter::new();
        w.put("header", HEADER, 8).expect("constant fits");
        w.put("manager", self.manager, 28).expect("validated");
        w.put("class", self.class, 24).expect("validated");
        w.put("serial", self.serial, 36).expect("validated");
        w.finish()
    }

    /// Decodes from the 96-bit binary form.
    pub fn decode(word: u128) -> Result<Self, EpcError> {
        let mut r = BitReader::new(word);
        let header = r.take(8);
        if header != HEADER {
            return Err(EpcError::WrongHeader(header, "GID-96"));
        }
        Ok(Self {
            manager: r.take(28),
            class: r.take(24),
            serial: r.take(36),
        })
    }

    /// Pure-identity URI body: `Manager.Class.Serial`.
    pub fn uri_body(&self) -> String {
        format!("{}.{}.{}", self.manager, self.class, self.serial)
    }

    /// Parses the URI body produced by [`Self::uri_body`].
    pub fn parse_uri_body(body: &str) -> Result<Self, EpcError> {
        let mut parts = body.splitn(3, '.');
        let mut next = |field| bits::decimal(field, parts.next().unwrap_or_default());
        Self::new(next("manager")?, next("class")?, next("serial")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_binary() {
        let g = Gid96::new(268_435_455, 16_777_215, 68_719_476_735).unwrap();
        assert_eq!(Gid96::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn header_is_gid() {
        let g = Gid96::new(1, 2, 3).unwrap();
        assert_eq!(g.encode() >> 88, 0x35);
    }

    #[test]
    fn uri_roundtrip() {
        let g = Gid96::new(42, 7, 99).unwrap();
        assert_eq!(g.uri_body(), "42.7.99");
        assert_eq!(Gid96::parse_uri_body("42.7.99").unwrap(), g);
    }

    #[test]
    fn rejects_overflow() {
        assert!(Gid96::new(1u64 << 28, 0, 0).is_err());
        assert!(Gid96::new(0, 1u64 << 24, 0).is_err());
        assert!(Gid96::new(0, 0, 1u64 << 36).is_err());
    }

    #[test]
    fn rejects_malformed_uri() {
        assert!(Gid96::parse_uri_body("1.2").is_err());
        assert!(Gid96::parse_uri_body("a.b.c").is_err());
    }
}
