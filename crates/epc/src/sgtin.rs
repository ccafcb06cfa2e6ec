//! SGTIN-96: Serialized Global Trade Item Number.
//!
//! The workhorse EPC scheme for individual trade items (the "laptop" tags of
//! the paper's asset-monitoring example, the items on the packing conveyor of
//! Example 1). Layout: header `0x30` (8) · filter (3) · partition (3) ·
//! company prefix (20–40) · item reference (24–4) · serial (38). A URI gives
//! filter 1 (point-of-sale item).

/// A decoded SGTIN-96 identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sgtin96 {
    /// Filter value (3 bits): fast pre-selection hint, e.g. 1 = point of sale
    /// item, 2 = full case, 3 = reserved.
    pub filter: u8,
    /// GS1 company prefix, as a decimal value.
    pub company_prefix: u64,
    /// Number of decimal digits in the company prefix (6–12).
    pub company_digits: u32,
    /// Item reference (includes the indicator digit).
    pub item_reference: u64,
    /// Per-item serial number (38 bits).
    pub serial: u64,
}

crate::gs1::identifier!(Sgtin96, SGTIN, item_reference, serial);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gs1::SGTIN;
    use crate::EpcError;

    fn sample() -> Sgtin96 {
        Sgtin96::new(3, 614_141, 7, 812_345, 6789).unwrap()
    }

    #[test]
    fn roundtrip_binary() {
        let s = sample();
        let word = s.encode();
        assert_eq!(Sgtin96::decode(word).unwrap(), s);
    }

    #[test]
    fn header_is_sgtin() {
        assert_eq!(sample().encode() >> 88, 0x30);
    }

    #[test]
    fn uri_body_roundtrip() {
        let s = Sgtin96::new(1, 614_141, 7, 112_345, 400).unwrap();
        assert_eq!(s.uri_body(), "0614141.112345.400");
        assert_eq!(Sgtin96::parse_uri_body("0614141.112345.400").unwrap(), s);
    }

    #[test]
    fn rejects_bad_company_digits() {
        assert!(matches!(
            Sgtin96::new(1, 1, 5, 1, 1),
            Err(EpcError::BadCompanyDigits(5))
        ));
    }

    #[test]
    fn rejects_decimal_overflow() {
        // 7-digit company prefix cannot hold 10^7.
        assert!(matches!(
            Sgtin96::new(1, 10_000_000, 7, 1, 1),
            Err(EpcError::Overflow { .. })
        ));
        // item reference for partition 5 has 6 digits.
        assert!(matches!(
            Sgtin96::new(1, 614_141, 7, 1_000_000, 1),
            Err(EpcError::Overflow { .. })
        ));
    }

    #[test]
    fn rejects_serial_overflow() {
        assert!(Sgtin96::new(1, 614_141, 7, 1, 1u64 << 38).is_err());
    }

    #[test]
    fn rejects_filter_overflow() {
        assert!(Sgtin96::new(8, 614_141, 7, 1, 1).is_err());
    }

    #[test]
    fn decode_rejects_wrong_header() {
        let word = sample().encode() & !(0xFFu128 << 88) | (0x31u128 << 88);
        assert!(matches!(
            Sgtin96::decode(word),
            Err(EpcError::WrongHeader(0x31, "SGTIN-96"))
        ));
    }

    #[test]
    fn decode_rejects_bad_partition() {
        // Craft header ok but partition=7.
        let mut w = crate::bits::BitWriter::new();
        w.put("h", SGTIN.header.into(), 8).unwrap();
        w.put("f", 0, 3).unwrap();
        w.put("p", 7, 3).unwrap();
        w.put("rest", 0, 44).unwrap();
        w.put("serial", 0, 38).unwrap();
        assert!(matches!(
            Sgtin96::decode(w.finish()),
            Err(EpcError::BadPartition(7))
        ));
    }

    #[test]
    fn parse_uri_body_rejects_malformed() {
        assert!(Sgtin96::parse_uri_body("0614141.112345").is_err());
        assert!(Sgtin96::parse_uri_body("0614141.11234.400").is_err()); // wrong item width
        assert!(Sgtin96::parse_uri_body("abc.112345.400").is_err());
    }
}
