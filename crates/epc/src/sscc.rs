//! SSCC-96: Serial Shipping Container Code.
//!
//! Identifies logistic units — the cases and pallets that items get packed
//! into in the paper's containment-aggregation example. Layout: header `0x31`
//! (8) · filter (3) · partition (3) · company prefix (20–40) · serial
//! reference (38–18) · reserved (24, must be zero). A URI gives filter 2
//! (full case).

/// A decoded SSCC-96 identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sscc96 {
    /// Filter value (3 bits), e.g. 2 = full case.
    pub filter: u8,
    /// GS1 company prefix.
    pub company_prefix: u64,
    /// Number of decimal digits in the company prefix (6–12).
    pub company_digits: u32,
    /// Serial reference (includes the extension digit).
    pub serial_reference: u64,
}

crate::gs1::identifier!(Sscc96, SSCC, serial_reference);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpcError;

    fn sample() -> Sscc96 {
        Sscc96::new(2, 614_141, 7, 1_234_567_890).unwrap()
    }

    #[test]
    fn roundtrip_binary() {
        let s = sample();
        assert_eq!(Sscc96::decode(s.encode()).unwrap(), s);
    }

    #[test]
    fn header_is_sscc() {
        assert_eq!(sample().encode() >> 88, 0x31);
    }

    #[test]
    fn uri_roundtrip() {
        let s = sample();
        let parsed = Sscc96::parse_uri_body(&s.uri_body()).unwrap();
        assert_eq!(parsed.company_prefix, s.company_prefix);
        assert_eq!(parsed.serial_reference, s.serial_reference);
    }

    #[test]
    fn reserved_bits_checked() {
        let word = sample().encode() | 1;
        assert!(matches!(
            Sscc96::decode(word),
            Err(EpcError::ReservedNonZero(1))
        ));
    }

    #[test]
    fn rejects_serial_overflow() {
        // 10-digit serial reference for a 7-digit company prefix.
        assert!(Sscc96::new(2, 614_141, 7, 10_000_000_000).is_err());
    }

    #[test]
    fn rejects_wrong_header() {
        let word = (0x30u128) << 88;
        assert!(matches!(
            Sscc96::decode(word),
            Err(EpcError::WrongHeader(0x30, "SSCC-96"))
        ));
    }
}
