//! GRAI-96: Global Returnable Asset Identifier.
//!
//! Identifies returnable/trackable assets — the laptops and badges of the
//! paper's asset-monitoring example are naturally GRAI-tagged. Layout:
//! header `0x33` (8) · filter (3) · partition (3) · company prefix (20–40) ·
//! asset type (24–4) · serial (38). Partition 0 gives the asset type no
//! digits: an empty URI field. A URI gives filter 0.

/// A decoded GRAI-96 identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Grai96 {
    /// Filter value (3 bits).
    pub filter: u8,
    /// GS1 company prefix.
    pub company_prefix: u64,
    /// Number of decimal digits in the company prefix (6–12).
    pub company_digits: u32,
    /// Asset type (class of asset, e.g. "laptop" vs. "badge").
    pub asset_type: u64,
    /// Per-asset serial number (38 bits).
    pub serial: u64,
}

crate::gs1::identifier!(Grai96, GRAI, asset_type, serial);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Grai96 {
        Grai96::new(0, 614_141, 7, 12_345, 5555).unwrap()
    }

    #[test]
    fn roundtrip_binary() {
        let g = sample();
        assert_eq!(Grai96::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn header_is_grai() {
        assert_eq!(sample().encode() >> 88, 0x33);
    }

    #[test]
    fn uri_roundtrip() {
        let g = sample();
        let parsed = Grai96::parse_uri_body(&g.uri_body()).unwrap();
        assert_eq!(parsed.asset_type, g.asset_type);
        assert_eq!(parsed.serial, g.serial);
    }

    #[test]
    fn partition_zero_has_empty_asset_type() {
        let g = Grai96::new(0, 999_999_999_999, 12, 0, 7).unwrap();
        assert_eq!(g.uri_body(), "999999999999..7");
        let parsed = Grai96::parse_uri_body("999999999999..7").unwrap();
        assert_eq!(parsed, Grai96 { filter: 0, ..g });
    }

    #[test]
    fn rejects_asset_type_overflow() {
        assert!(Grai96::new(0, 614_141, 7, 100_000, 1).is_err());
    }
}
