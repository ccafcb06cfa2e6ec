//! The GS1 partitioned layout, the one codec of SGTIN-96, SSCC-96 and GRAI-96.
//!
//! All three schemes write `header 8 · filter 3 · partition 3 · company
//! prefix · reference · tail` into 96 bits. GS1 company prefixes vary in
//! length (6–12 decimal digits); the *partition* field selects how a fixed bit
//! budget is split between the company prefix and the scheme's reference (item
//! reference, serial reference, asset type), per the EPCglobal Tag Data
//! Standard's tables. The tail is a 38-bit serial or 24 reserved zero bits.
//! A [`Scheme`] describes one scheme; the code here validates, encodes,
//! decodes, prints and parses every one of them from its descriptor.

use crate::bits::{self, BitReader, BitWriter};
use crate::epc::{EpcClass, EpcError};

/// One row of a partition table: bit and digit widths for the company prefix
/// and for the scheme's reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartitionRow {
    /// Partition value stored in the 3-bit partition field (the row's index).
    pub partition: u8,
    /// Bits allocated to the GS1 company prefix.
    pub company_bits: u32,
    /// Decimal digits of the company prefix.
    pub company_digits: u32,
    /// Bits allocated to the reference.
    pub other_bits: u32,
    /// Decimal digits of the reference.
    pub other_digits: u32,
}

/// What follows the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tail {
    /// A 38-bit serial number, printed as the URI's third field.
    Serial,
    /// 24 bits that must be zero, absent from the URI.
    Reserved,
}

/// Everything that tells one GS1 scheme's layout from another's.
pub(crate) struct Scheme {
    /// The 8-bit header.
    pub header: u8,
    /// The name error texts give, e.g. `SGTIN-96`.
    pub name: &'static str,
    /// The scheme's name in a pure-identity URI, e.g. `sgtin`.
    pub uri: &'static str,
    /// The partition table, indexed by partition value.
    pub table: [PartitionRow; 7],
    /// The reference field's name.
    pub reference: &'static str,
    /// What follows the reference.
    pub tail: Tail,
    /// The filter a parsed URI gets (the URI carries none).
    pub uri_filter: u8,
}

/// The fields of a GS1 identity under any scheme.
#[derive(Clone, Copy)]
pub(crate) struct Fields {
    pub filter: u8,
    pub company_prefix: u64,
    pub company_digits: u32,
    pub reference: u64,
    /// Zero under a reserved tail.
    pub serial: u64,
}

/// Implements a GS1 identifier type on its scheme's descriptor: `new` checks
/// the fields, and `encode`, `decode`, `uri_body`, `parse_uri_body` and the
/// conversion into an [`Epc`](crate::Epc) are the shared codec's.
/// `$reference` is the type's reference field and `$serial`, under a serial
/// tail, its serial field.
macro_rules! identifier {
    ($id:ident, $scheme:ident, $reference:ident $(, $serial:ident)?) => {
        impl $id {
            /// Builds the identifier, checking each field against its
            /// partition row's decimal capacity or its binary width.
            pub fn new(
                filter: u8,
                company_prefix: u64,
                company_digits: u32,
                $reference: u64,
                $($serial: u64,)?
            ) -> Result<Self, $crate::EpcError> {
                let id = Self { filter, company_prefix, company_digits, $reference, $($serial)? };
                $crate::gs1::$scheme.check(id.fields()).map(|_| id)
            }

            /// Encodes into the 96-bit binary form.
            pub fn encode(&self) -> u128 {
                $crate::gs1::$scheme.encode(&self.fields())
            }

            /// Decodes from the 96-bit binary form.
            pub fn decode(word: u128) -> Result<Self, $crate::EpcError> {
                $crate::gs1::$scheme.decode(word).map(Self::from_fields)
            }

            /// Pure-identity URI body: `CompanyPrefix.Reference`, then
            /// `.Serial` under a serial tail, with the company prefix and
            /// the reference zero-padded to their partition widths.
            pub fn uri_body(&self) -> String {
                $crate::gs1::$scheme.uri_body(&self.fields())
            }

            /// Parses the URI body produced by [`Self::uri_body`]. The URI
            /// carries no filter: it is the scheme's default.
            pub fn parse_uri_body(body: &str) -> Result<Self, $crate::EpcError> {
                $crate::gs1::$scheme.parse_uri_body(body).map(Self::from_fields)
            }

            fn fields(&self) -> $crate::gs1::Fields {
                $crate::gs1::Fields {
                    filter: self.filter,
                    company_prefix: self.company_prefix,
                    company_digits: self.company_digits,
                    reference: self.$reference,
                    // Zero for a type without one: its tail is reserved.
                    serial: 0 $(+ self.$serial)?,
                }
            }

            fn from_fields(f: $crate::gs1::Fields) -> Self {
                Self {
                    filter: f.filter,
                    company_prefix: f.company_prefix,
                    company_digits: f.company_digits,
                    $reference: f.reference,
                    $($serial: f.serial,)?
                }
            }
        }

        impl From<$id> for $crate::Epc {
            fn from(value: $id) -> Self {
                Self::from_raw(value.encode())
            }
        }
    };
}
pub(crate) use identifier;

/// SGTIN-96 (TDS 1.x Table: SGTIN); the reference is the item reference.
pub(crate) static SGTIN: Scheme = Scheme {
    header: 0x30,
    name: "SGTIN-96",
    uri: "sgtin",
    table: [
        PartitionRow {
            partition: 0,
            company_bits: 40,
            company_digits: 12,
            other_bits: 4,
            other_digits: 1,
        },
        PartitionRow {
            partition: 1,
            company_bits: 37,
            company_digits: 11,
            other_bits: 7,
            other_digits: 2,
        },
        PartitionRow {
            partition: 2,
            company_bits: 34,
            company_digits: 10,
            other_bits: 10,
            other_digits: 3,
        },
        PartitionRow {
            partition: 3,
            company_bits: 30,
            company_digits: 9,
            other_bits: 14,
            other_digits: 4,
        },
        PartitionRow {
            partition: 4,
            company_bits: 27,
            company_digits: 8,
            other_bits: 17,
            other_digits: 5,
        },
        PartitionRow {
            partition: 5,
            company_bits: 24,
            company_digits: 7,
            other_bits: 20,
            other_digits: 6,
        },
        PartitionRow {
            partition: 6,
            company_bits: 20,
            company_digits: 6,
            other_bits: 24,
            other_digits: 7,
        },
    ],
    reference: "item_reference",
    tail: Tail::Serial,
    uri_filter: 1,
};

/// SSCC-96; the reference is the serial reference.
pub(crate) static SSCC: Scheme = Scheme {
    header: 0x31,
    name: "SSCC-96",
    uri: "sscc",
    table: [
        PartitionRow {
            partition: 0,
            company_bits: 40,
            company_digits: 12,
            other_bits: 18,
            other_digits: 5,
        },
        PartitionRow {
            partition: 1,
            company_bits: 37,
            company_digits: 11,
            other_bits: 21,
            other_digits: 6,
        },
        PartitionRow {
            partition: 2,
            company_bits: 34,
            company_digits: 10,
            other_bits: 24,
            other_digits: 7,
        },
        PartitionRow {
            partition: 3,
            company_bits: 30,
            company_digits: 9,
            other_bits: 28,
            other_digits: 8,
        },
        PartitionRow {
            partition: 4,
            company_bits: 27,
            company_digits: 8,
            other_bits: 31,
            other_digits: 9,
        },
        PartitionRow {
            partition: 5,
            company_bits: 24,
            company_digits: 7,
            other_bits: 34,
            other_digits: 10,
        },
        PartitionRow {
            partition: 6,
            company_bits: 20,
            company_digits: 6,
            other_bits: 38,
            other_digits: 11,
        },
    ],
    reference: "serial_reference",
    tail: Tail::Reserved,
    uri_filter: 2,
};

/// GRAI-96; the reference is the asset type.
pub(crate) static GRAI: Scheme = Scheme {
    header: 0x33,
    name: "GRAI-96",
    uri: "grai",
    table: [
        PartitionRow {
            partition: 0,
            company_bits: 40,
            company_digits: 12,
            other_bits: 4,
            other_digits: 0,
        },
        PartitionRow {
            partition: 1,
            company_bits: 37,
            company_digits: 11,
            other_bits: 7,
            other_digits: 1,
        },
        PartitionRow {
            partition: 2,
            company_bits: 34,
            company_digits: 10,
            other_bits: 10,
            other_digits: 2,
        },
        PartitionRow {
            partition: 3,
            company_bits: 30,
            company_digits: 9,
            other_bits: 14,
            other_digits: 3,
        },
        PartitionRow {
            partition: 4,
            company_bits: 27,
            company_digits: 8,
            other_bits: 17,
            other_digits: 4,
        },
        PartitionRow {
            partition: 5,
            company_bits: 24,
            company_digits: 7,
            other_bits: 20,
            other_digits: 5,
        },
        PartitionRow {
            partition: 6,
            company_bits: 20,
            company_digits: 6,
            other_bits: 24,
            other_digits: 6,
        },
    ],
    reference: "asset_type",
    tail: Tail::Serial,
    uri_filter: 0,
};

/// The GS1 schemes, for lookup by URI name.
pub(crate) static SCHEMES: [&Scheme; 3] = [&SGTIN, &SSCC, &GRAI];

/// The scheme of a GS1 class.
pub(crate) fn scheme(class: EpcClass) -> Option<&'static Scheme> {
    match class {
        EpcClass::Sgtin96 => Some(&SGTIN),
        EpcClass::Sscc96 => Some(&SSCC),
        EpcClass::Grai96 => Some(&GRAI),
        EpcClass::Gid96 | EpcClass::Unknown(_) => None,
    }
}

impl Scheme {
    /// The row for a company prefix of `digits` decimal digits: in every
    /// GS1 table, partition `p` gives the company prefix `12 - p` digits.
    fn by_company_digits(&self, digits: u32) -> Result<&PartitionRow, EpcError> {
        12u32
            .checked_sub(digits)
            .and_then(|p| self.table.get(p as usize))
            .ok_or(EpcError::BadCompanyDigits(digits))
    }

    /// Checks every field against its decimal or binary capacity.
    pub fn check(&self, f: Fields) -> Result<Fields, EpcError> {
        let row = self.by_company_digits(f.company_digits)?;
        let (cd, rd) = (row.company_digits, row.other_digits);
        for (field, value, width, max) in [
            ("company_prefix", f.company_prefix, cd, max_decimal(cd)),
            (self.reference, f.reference, rd, max_decimal(rd)),
            ("serial", f.serial, 38, (1 << 38) - 1),
            ("filter", u64::from(f.filter), 3, 7),
        ] {
            if value > max {
                return Err(EpcError::Overflow {
                    field,
                    width,
                    value,
                });
            }
        }
        Ok(f)
    }

    /// Encodes checked fields into the 96-bit word.
    pub fn encode(&self, f: &Fields) -> u128 {
        let row = self
            .by_company_digits(f.company_digits)
            .expect("validated at construction");
        let tail = match self.tail {
            Tail::Serial => ("serial", f.serial, 38),
            Tail::Reserved => ("reserved", 0, 24),
        };
        let mut w = BitWriter::new();
        for (field, value, width) in [
            ("header", u64::from(self.header), 8),
            ("filter", u64::from(f.filter), 3),
            ("partition", u64::from(row.partition), 3),
            ("company_prefix", f.company_prefix, row.company_bits),
            (self.reference, f.reference, row.other_bits),
            tail,
        ] {
            w.put(field, value, width)
                .expect("validated at construction");
        }
        w.finish()
    }

    /// Decodes a 96-bit word carrying this scheme's header.
    pub fn decode(&self, word: u128) -> Result<Fields, EpcError> {
        let mut r = BitReader::new(word);
        let header = r.take(8);
        if header != u64::from(self.header) {
            return Err(EpcError::WrongHeader(header, self.name));
        }
        let filter = r.take(3) as u8;
        let p = r.take(3) as u8;
        let row = self
            .table
            .get(usize::from(p))
            .ok_or(EpcError::BadPartition(p))?;
        let company_prefix = r.take(row.company_bits);
        let reference = r.take(row.other_bits);
        let serial = match self.tail {
            Tail::Serial => r.take(38),
            Tail::Reserved => match r.take(24) {
                0 => 0,
                reserved => return Err(EpcError::ReservedNonZero(reserved)),
            },
        };
        self.check(Fields {
            filter,
            company_prefix,
            company_digits: row.company_digits,
            reference,
            serial,
        })
    }

    /// Pure-identity URI body: `CompanyPrefix.Reference[.Serial]`, the
    /// decimal fields zero-padded to their partition widths. A reference of
    /// no digits (GRAI partition 0) is an empty field.
    pub fn uri_body(&self, f: &Fields) -> String {
        let row = self
            .by_company_digits(f.company_digits)
            .expect("validated at construction");
        let (cw, rw) = (row.company_digits as usize, row.other_digits as usize);
        match self.tail {
            Tail::Serial if rw == 0 => format!("{:0cw$}..{}", f.company_prefix, f.serial),
            Tail::Serial => format!(
                "{:0cw$}.{:0rw$}.{}",
                f.company_prefix, f.reference, f.serial
            ),
            Tail::Reserved => format!("{:0cw$}.{:0rw$}", f.company_prefix, f.reference),
        }
    }

    /// Parses the body [`Scheme::uri_body`] prints; the filter is the
    /// scheme's `uri_filter`.
    pub fn parse_uri_body(&self, body: &str) -> Result<Fields, EpcError> {
        let mut parts = body.splitn(if self.tail == Tail::Serial { 3 } else { 2 }, '.');
        let mut next = |field| parts.next().ok_or(EpcError::Malformed(field));
        let company = next("company_prefix")?;
        let reference = next(self.reference)?;
        let serial = match self.tail {
            Tail::Serial => Some(next("serial")?),
            Tail::Reserved => None,
        };
        let company_digits = company.len() as u32;
        let row = self.by_company_digits(company_digits)?;
        let company_prefix = bits::decimal("company_prefix", company)?;
        if reference.len() != row.other_digits as usize {
            return Err(EpcError::Malformed(self.reference));
        }
        let reference = match reference {
            "" => 0,
            text => bits::decimal(self.reference, text)?,
        };
        self.check(Fields {
            filter: self.uri_filter,
            company_prefix,
            company_digits,
            reference,
            serial: serial.map_or(Ok(0), |s| bits::decimal("serial", s))?,
        })
    }
}

/// The largest value representable by a decimal field of `digits` digits.
fn max_decimal(digits: u32) -> u64 {
    10u64.checked_pow(digits).map_or(u64::MAX, |p| p - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_bit_consistent() {
        // Every SGTIN row splits 44 bits between company and item reference.
        for row in &SGTIN.table {
            assert_eq!(
                row.company_bits + row.other_bits,
                44,
                "SGTIN p{}",
                row.partition
            );
            assert_eq!(
                row.company_digits + row.other_digits,
                13,
                "SGTIN p{}",
                row.partition
            );
        }
        // Every SSCC row splits 58 bits between company and serial reference.
        for row in &SSCC.table {
            assert_eq!(
                row.company_bits + row.other_bits,
                58,
                "SSCC p{}",
                row.partition
            );
            assert_eq!(
                row.company_digits + row.other_digits,
                17,
                "SSCC p{}",
                row.partition
            );
        }
        // Every GRAI row splits 44 bits between company and asset type.
        for row in &GRAI.table {
            assert_eq!(
                row.company_bits + row.other_bits,
                44,
                "GRAI p{}",
                row.partition
            );
            assert_eq!(
                row.company_digits + row.other_digits,
                12,
                "GRAI p{}",
                row.partition
            );
        }
    }

    #[test]
    fn decimal_capacity_fits_bit_width() {
        // 10^digits - 1 must fit in the allocated bits for every row.
        for scheme in SCHEMES {
            for row in &scheme.table {
                assert!(
                    (max_decimal(row.company_digits) as u128) < (1u128 << row.company_bits),
                    "company field p{} overflows",
                    row.partition
                );
                assert!(
                    (max_decimal(row.other_digits) as u128) < (1u128 << row.other_bits),
                    "other field p{} overflows",
                    row.partition
                );
            }
        }
    }

    #[test]
    fn lookup_by_digits() {
        assert_eq!(SGTIN.by_company_digits(7).unwrap().partition, 5);
        assert_eq!(SGTIN.by_company_digits(12).unwrap().partition, 0);
        assert_eq!(
            SGTIN.by_company_digits(13),
            Err(EpcError::BadCompanyDigits(13))
        );
        assert!(SGTIN.by_company_digits(5).is_err());
    }

    #[test]
    fn lookup_by_value() {
        // `decode` indexes a table by the stored partition value and
        // `by_company_digits` by `12 - digits`.
        for scheme in SCHEMES {
            for (i, row) in scheme.table.iter().enumerate() {
                assert_eq!(usize::from(row.partition), i, "{}", scheme.name);
                assert_eq!(row.company_digits as usize, 12 - i, "{}", scheme.name);
            }
        }
        assert_eq!(SSCC.table.get(3).unwrap().company_digits, 9);
        assert!(SSCC.table.get(7).is_none());
    }

    #[test]
    fn max_decimal_edges() {
        assert_eq!(max_decimal(0), 0);
        assert_eq!(max_decimal(1), 9);
        assert_eq!(max_decimal(12), 999_999_999_999);
    }
}
