//! Fixed-width bit packing over a 96-bit word.
//!
//! EPC binary encodings are defined as sequences of fixed-width big-endian
//! bit fields inside a 96-bit word. We keep the word in the low 96 bits of a
//! `u128`; bit index 0 is the most significant bit of the encoding (the first
//! bit of the header), matching how the Tag Data Standard tables are written.

use crate::epc::EpcError;

/// Total width of the encodings handled by this crate.
pub const EPC_BITS: u32 = 96;

/// Writes fields MSB-first into a 96-bit word.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    word: u128,
    cursor: u32,
}

impl BitWriter {
    /// Creates an empty writer positioned at the first (most significant) bit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `width` bits of `value`. Fails if `value >= 2^width` or the
    /// word would exceed 96 bits.
    pub fn put(&mut self, field: &'static str, value: u64, width: u32) -> Result<(), EpcError> {
        debug_assert!(width <= 64, "field wider than 64 bits");
        if width < 64 && value >= (1u64 << width) {
            return Err(EpcError::Overflow {
                field,
                width,
                value,
            });
        }
        assert!(
            self.cursor + width <= EPC_BITS,
            "bit layout exceeds 96 bits at field `{field}`"
        );
        self.cursor += width;
        self.word |= (value as u128) << (EPC_BITS - self.cursor);
        Ok(())
    }

    /// Finishes the encoding. Panics if fewer than 96 bits were written,
    /// which would indicate a codec bug rather than bad input.
    pub fn finish(self) -> u128 {
        assert_eq!(self.cursor, EPC_BITS, "bit layout shorter than 96 bits");
        self.word
    }
}

/// Reads fields MSB-first from a 96-bit word.
#[derive(Debug, Clone)]
pub struct BitReader {
    word: u128,
    cursor: u32,
}

impl BitReader {
    /// Wraps a 96-bit word (high 32 bits of the `u128` must be zero).
    pub fn new(word: u128) -> Self {
        debug_assert_eq!(word >> EPC_BITS, 0, "more than 96 bits set");
        Self { word, cursor: 0 }
    }

    /// Reads the next `width` bits as an unsigned integer.
    pub fn take(&mut self, width: u32) -> u64 {
        debug_assert!(width <= 64);
        assert!(
            self.cursor + width <= EPC_BITS,
            "read past end of 96-bit word"
        );
        self.cursor += width;
        let shifted = self.word >> (EPC_BITS - self.cursor);
        let mask = if width == 64 {
            u64::MAX as u128
        } else {
            (1u128 << width) - 1
        };
        (shifted & mask) as u64
    }
}

/// Formats a 96-bit word as the 24-hex-digit string used on tag labels.
pub fn to_hex(word: u128) -> String {
    format!("{word:024X}")
}

/// Parses a 24-hex-digit string into a 96-bit word. Only hex digits: the
/// integer parser alone would take a leading `+`.
pub fn from_hex(s: &str) -> Option<u128> {
    if s.len() != 24 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Parses a decimal URI field: ASCII digits only (the integer parser alone
/// would take a leading `+`), at most `u64::MAX`.
pub(crate) fn decimal(field: &'static str, text: &str) -> Result<u64, EpcError> {
    let step = |n: u64, b: u8| match b {
        b'0'..=b'9' => n.checked_mul(10)?.checked_add(u64::from(b - b'0')),
        _ => None,
    };
    match text.bytes().try_fold(0, step) {
        Some(n) if !text.is_empty() => Ok(n),
        _ => Err(EpcError::Malformed(field)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_fields() {
        let mut w = BitWriter::new();
        w.put("header", 0x30, 8).unwrap();
        w.put("filter", 5, 3).unwrap();
        w.put("partition", 6, 3).unwrap();
        w.put("company", 123456, 20).unwrap();
        w.put("item", 9_999_999, 24).unwrap();
        w.put("serial", (1u64 << 38) - 1, 38).unwrap();
        let word = w.finish();

        let mut r = BitReader::new(word);
        assert_eq!(r.take(8), 0x30);
        assert_eq!(r.take(3), 5);
        assert_eq!(r.take(3), 6);
        assert_eq!(r.take(20), 123456);
        assert_eq!(r.take(24), 9_999_999);
        assert_eq!(r.take(38), (1u64 << 38) - 1);
    }

    #[test]
    fn overflow_detected() {
        let mut w = BitWriter::new();
        let err = w.put("filter", 8, 3).unwrap_err();
        assert_eq!(
            err,
            EpcError::Overflow {
                field: "filter",
                width: 3,
                value: 8
            }
        );
    }

    #[test]
    fn hex_roundtrip() {
        let word = 0x3074_257B_F719_4E40_0000_1A85_u128 & ((1u128 << 96) - 1);
        let hex = to_hex(word);
        assert_eq!(hex.len(), 24);
        assert_eq!(from_hex(&hex), Some(word));
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("0123456789ABCDEF01234567AA"), None); // 26 digits
        assert_eq!(from_hex("GGGGGGGGGGGGGGGGGGGGGGGG"), None);
    }

    #[test]
    #[should_panic(expected = "shorter than 96 bits")]
    fn short_layout_panics() {
        let mut w = BitWriter::new();
        w.put("header", 1, 8).unwrap();
        let _ = w.finish();
    }
}
