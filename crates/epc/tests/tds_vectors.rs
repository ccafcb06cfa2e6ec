//! Pinned Tag Data Standard vectors: for every GS1 scheme and every
//! partition row, the 96-bit word (as its hex label) and the pure-identity
//! URI of the smallest and the largest company prefix, reference and serial
//! (with filter 0 and 7), plus GID-96's field extremes. Then the inputs every
//! decoder and parser must refuse.

use rfid_epc::types::ClassKey;
use rfid_epc::{Epc, Gid96, Grai96, Sgtin96, Sscc96};

/// SGTIN-96: filter, company digits, company prefix, item reference, serial,
/// hex label, URI. Partitions 0–6 in order, minimum then maximum.
#[rustfmt::skip]
const SGTIN: &[(u8, u32, u64, u64, u64, &str, &str)] = &[
    (0, 12, 0, 0, 0, "300000000000000000000000", "urn:epc:id:sgtin:000000000000.0.0"),
    (7, 12, 999999999999, 9, 274877906943, "30E3A352943FFE7FFFFFFFFF", "urn:epc:id:sgtin:999999999999.9.274877906943"),
    (0, 11, 0, 0, 0, "300400000000000000000000", "urn:epc:id:sgtin:00000000000.00.0"),
    (7, 11, 99999999999, 99, 274877906943, "30E6E90EDCFFF8FFFFFFFFFF", "urn:epc:id:sgtin:99999999999.99.274877906943"),
    (0, 10, 0, 0, 0, "300800000000000000000000", "urn:epc:id:sgtin:0000000000.000.0"),
    (7, 10, 9999999999, 999, 274877906943, "30EA540BE3FFF9FFFFFFFFFF", "urn:epc:id:sgtin:9999999999.999.274877906943"),
    (0, 9, 0, 0, 0, "300C00000000000000000000", "urn:epc:id:sgtin:000000000.0000.0"),
    (7, 9, 999999999, 9999, 274877906943, "30EFB9AC9FF9C3FFFFFFFFFF", "urn:epc:id:sgtin:999999999.9999.274877906943"),
    (0, 8, 0, 0, 0, "301000000000000000000000", "urn:epc:id:sgtin:00000000.00000.0"),
    (7, 8, 99999999, 99999, 274877906943, "30F2FAF07FE1A7FFFFFFFFFF", "urn:epc:id:sgtin:99999999.99999.274877906943"),
    (0, 7, 0, 0, 0, "301400000000000000000000", "urn:epc:id:sgtin:0000000.000000.0"),
    (7, 7, 9999999, 999999, 274877906943, "30F66259FFD08FFFFFFFFFFF", "urn:epc:id:sgtin:9999999.999999.274877906943"),
    (0, 6, 0, 0, 0, "301800000000000000000000", "urn:epc:id:sgtin:000000.0000000.0"),
    (7, 6, 999999, 9999999, 274877906943, "30FBD08FE6259FFFFFFFFFFF", "urn:epc:id:sgtin:999999.9999999.274877906943"),
];

/// SSCC-96: filter, company digits, company prefix, serial reference, hex
/// label, URI.
#[rustfmt::skip]
const SSCC: &[(u8, u32, u64, u64, &str, &str)] = &[
    (0, 12, 0, 0, "310000000000000000000000", "urn:epc:id:sscc:000000000000.00000"),
    (7, 12, 999999999999, 99999, "31E3A352943FFD869F000000", "urn:epc:id:sscc:999999999999.99999"),
    (0, 11, 0, 0, "310400000000000000000000", "urn:epc:id:sscc:00000000000.000000"),
    (7, 11, 99999999999, 999999, "31E6E90EDCFFEF423F000000", "urn:epc:id:sscc:99999999999.999999"),
    (0, 10, 0, 0, "310800000000000000000000", "urn:epc:id:sscc:0000000000.0000000"),
    (7, 10, 9999999999, 9999999, "31EA540BE3FF98967F000000", "urn:epc:id:sscc:9999999999.9999999"),
    (0, 9, 0, 0, "310C00000000000000000000", "urn:epc:id:sscc:000000000.00000000"),
    (7, 9, 999999999, 99999999, "31EFB9AC9FF5F5E0FF000000", "urn:epc:id:sscc:999999999.99999999"),
    (0, 8, 0, 0, "311000000000000000000000", "urn:epc:id:sscc:00000000.000000000"),
    (7, 8, 99999999, 999999999, "31F2FAF07FBB9AC9FF000000", "urn:epc:id:sscc:99999999.999999999"),
    (0, 7, 0, 0, "311400000000000000000000", "urn:epc:id:sscc:0000000.0000000000"),
    (7, 7, 9999999, 9999999999, "31F66259FE540BE3FF000000", "urn:epc:id:sscc:9999999.9999999999"),
    (0, 6, 0, 0, "311800000000000000000000", "urn:epc:id:sscc:000000.00000000000"),
    (7, 6, 999999, 99999999999, "31FBD08FD74876E7FF000000", "urn:epc:id:sscc:999999.99999999999"),
];

/// GRAI-96: filter, company digits, company prefix, asset type, serial, hex
/// label, URI. Partition 0 gives the asset type no digits: an empty field.
#[rustfmt::skip]
const GRAI: &[(u8, u32, u64, u64, u64, &str, &str)] = &[
    (0, 12, 0, 0, 0, "330000000000000000000000", "urn:epc:id:grai:000000000000..0"),
    (7, 12, 999999999999, 0, 274877906943, "33E3A352943FFC3FFFFFFFFF", "urn:epc:id:grai:999999999999..274877906943"),
    (0, 11, 0, 0, 0, "330400000000000000000000", "urn:epc:id:grai:00000000000.0.0"),
    (7, 11, 99999999999, 9, 274877906943, "33E6E90EDCFFE27FFFFFFFFF", "urn:epc:id:grai:99999999999.9.274877906943"),
    (0, 10, 0, 0, 0, "330800000000000000000000", "urn:epc:id:grai:0000000000.00.0"),
    (7, 10, 9999999999, 99, 274877906943, "33EA540BE3FF18FFFFFFFFFF", "urn:epc:id:grai:9999999999.99.274877906943"),
    (0, 9, 0, 0, 0, "330C00000000000000000000", "urn:epc:id:grai:000000000.000.0"),
    (7, 9, 999999999, 999, 274877906943, "33EFB9AC9FF0F9FFFFFFFFFF", "urn:epc:id:grai:999999999.999.274877906943"),
    (0, 8, 0, 0, 0, "331000000000000000000000", "urn:epc:id:grai:00000000.0000.0"),
    (7, 8, 99999999, 9999, 274877906943, "33F2FAF07F89C3FFFFFFFFFF", "urn:epc:id:grai:99999999.9999.274877906943"),
    (0, 7, 0, 0, 0, "331400000000000000000000", "urn:epc:id:grai:0000000.00000.0"),
    (7, 7, 9999999, 99999, 274877906943, "33F66259FC61A7FFFFFFFFFF", "urn:epc:id:grai:9999999.99999.274877906943"),
    (0, 6, 0, 0, 0, "331800000000000000000000", "urn:epc:id:grai:000000.000000.0"),
    (7, 6, 999999, 999999, 274877906943, "33FBD08FC3D08FFFFFFFFFFF", "urn:epc:id:grai:999999.999999.274877906943"),
];

/// GID-96: manager, object class, serial, hex label, URI.
#[rustfmt::skip]
const GID: &[(u64, u64, u64, &str, &str)] = &[
    (0, 0, 0, "350000000000000000000000", "urn:epc:id:gid:0.0.0"),
    (268435455, 16777215, 68719476735, "35FFFFFFFFFFFFFFFFFFFFFF", "urn:epc:id:gid:268435455.16777215.68719476735"),
];

/// `epc` prints as `hex` and `uri`, both parse back, and the URI — which
/// carries no filter — parses to `from_uri`, the same identity under the
/// scheme's default filter.
fn check(epc: Epc, hex: &str, uri: &str, from_uri: Epc) {
    assert_eq!(epc.to_hex(), hex, "{uri}");
    assert_eq!(epc.to_uri(), uri, "{hex}");
    assert_eq!(hex.parse::<Epc>().unwrap(), epc, "{hex}");
    assert_eq!(hex.to_lowercase().parse::<Epc>().unwrap(), epc, "{hex}");
    assert_eq!(uri.parse::<Epc>().unwrap(), from_uri, "{uri}");
    let raw = format!("urn:epc:raw:96.x{hex}");
    assert_eq!(raw.parse::<Epc>().unwrap(), epc, "{raw}");
}

#[test]
fn sgtin_vectors() {
    for (i, &(filter, digits, company, item, serial, hex, uri)) in SGTIN.iter().enumerate() {
        assert_eq!(12 - digits as usize, i / 2, "one row pair per partition");
        let v = Sgtin96::new(filter, company, digits, item, serial).unwrap();
        let epc = Epc::from(v);
        assert_eq!(epc.as_sgtin(), Some(v));
        let plain = Sgtin96::new(1, company, digits, item, serial).unwrap();
        check(epc, hex, uri, plain.into());
        assert_eq!(Sgtin96::parse_uri_body(&v.uri_body()), Ok(plain));
    }
}

#[test]
fn sscc_vectors() {
    for (i, &(filter, digits, company, serial_ref, hex, uri)) in SSCC.iter().enumerate() {
        assert_eq!(12 - digits as usize, i / 2, "one row pair per partition");
        let v = Sscc96::new(filter, company, digits, serial_ref).unwrap();
        let epc = Epc::from(v);
        assert_eq!(epc.as_sscc(), Some(v));
        let plain = Sscc96::new(2, company, digits, serial_ref).unwrap();
        check(epc, hex, uri, plain.into());
        assert_eq!(Sscc96::parse_uri_body(&v.uri_body()), Ok(plain));
    }
}

#[test]
fn grai_vectors() {
    for (i, &(filter, digits, company, asset, serial, hex, uri)) in GRAI.iter().enumerate() {
        assert_eq!(12 - digits as usize, i / 2, "one row pair per partition");
        let v = Grai96::new(filter, company, digits, asset, serial).unwrap();
        let epc = Epc::from(v);
        assert_eq!(epc.as_grai(), Some(v));
        let plain = Grai96::new(0, company, digits, asset, serial).unwrap();
        check(epc, hex, uri, plain.into());
        assert_eq!(Grai96::parse_uri_body(&v.uri_body()), Ok(plain));
    }
}

#[test]
fn gid_vectors() {
    for &(manager, class, serial, hex, uri) in GID {
        let v = Gid96::new(manager, class, serial).unwrap();
        let epc = Epc::from(v);
        assert_eq!(epc.as_gid(), Some(v));
        check(epc, hex, uri, epc);
    }
}

/// Text `Epc::from_str` must refuse, grouped by what is wrong with it.
const MALFORMED_TEXT: &[&str] = &[
    // Unknown scheme, or not a pure-identity URI.
    "urn:epc:id:bogus:1.2.3",
    "urn:epc:id:SGTIN:0614141.112345.400",
    "urn:epc:id:sgtin",
    "urn:epc:tag:sgtin-96:1.0614141.112345.400",
    // Missing fields.
    "urn:epc:id:sgtin:0614141.112345",
    "urn:epc:id:sgtin:0614141",
    "urn:epc:id:sgtin:.112345.400",
    "urn:epc:id:sgtin:0614141.112345.",
    "urn:epc:id:sscc:0614141",
    "urn:epc:id:sscc:0614141.",
    "urn:epc:id:grai:0614141.12345",
    "urn:epc:id:gid:42.7",
    "urn:epc:id:gid:42..99",
    // A field too many.
    "urn:epc:id:sgtin:0614141.112345.400.1",
    "urn:epc:id:sscc:0614141.1234567890.0",
    "urn:epc:id:gid:42.7.99.1",
    // A reference field not as wide as the partition row makes it.
    "urn:epc:id:sgtin:0614141.12345.400",
    "urn:epc:id:sgtin:0614141.1123456.400",
    "urn:epc:id:sscc:0614141.123456789",
    "urn:epc:id:sscc:0614141.12345678901",
    "urn:epc:id:grai:0614141.1234.5555",
    "urn:epc:id:grai:0614141.123456.5555",
    // GRAI partition 0 gives the asset type no digits.
    "urn:epc:id:grai:999999999999.0.7",
    // A company prefix no partition row holds.
    "urn:epc:id:sgtin:12345.12345678.1",
    "urn:epc:id:sscc:1234567890123.1234",
    "urn:epc:id:grai:1234567890123..1",
    // Not decimal digits.
    "urn:epc:id:sgtin:061414a.112345.400",
    "urn:epc:id:sgtin:0614141.11234x.400",
    "urn:epc:id:sgtin:0614141.112345.4x0",
    "urn:epc:id:sgtin:0614141.112345.-400",
    "urn:epc:id:sscc:0614141.12345678x9",
    "urn:epc:id:grai:0614141.1234 .5555",
    "urn:epc:id:gid:a.b.c",
    "urn:epc:id:gid:42.7.-99",
    // A value past its field.
    "urn:epc:id:sgtin:0614141.112345.274877906944",
    "urn:epc:id:sgtin:0614141.112345.99999999999999999999",
    "urn:epc:id:grai:0614141.12345.274877906944",
    "urn:epc:id:gid:268435456.0.0",
    "urn:epc:id:gid:0.16777216.0",
    "urn:epc:id:gid:0.0.68719476736",
    // Hex labels and raw URIs that are not 24 hex digits.
    "",
    "30140242",
    "3014025F3E71B8400000019",
    "3014025F3E71B840000001900",
    "3014025F3E71B8400000019G",
    "-014025F3E71B84000000190",
    "urn:epc:raw:96.x3014",
    "urn:epc:raw:96.x",
];

#[test]
fn malformed_text_is_refused() {
    for text in MALFORMED_TEXT {
        assert!(text.parse::<Epc>().is_err(), "accepted {text:?}");
    }
}

/// Words carrying a GS1 header that no GS1 decoder accepts: each prints as
/// a raw URI and has no class key.
#[test]
fn malformed_words_are_refused() {
    let words: &[(&str, u128)] = &[
        ("SGTIN partition 7", 0x30 << 88 | 7 << 82),
        ("SSCC partition 7", 0x31 << 88 | 7 << 82),
        ("GRAI partition 7", 0x33 << 88 | 7 << 82),
        ("SSCC reserved bits", 0x31 << 88 | 5 << 82 | 1),
        ("SSCC top reserved bit", 0x31 << 88 | 5 << 82 | 1 << 23),
        ("GRAI partition 0 asset type 1", 0x33 << 88 | 1 << 38),
        (
            "SGTIN p5 company past 7 digits",
            0x30 << 88 | 5 << 82 | 0xFF_FFFF << 58,
        ),
        (
            "SGTIN p5 item past 6 digits",
            0x30 << 88 | 5 << 82 | 0xF_FFFF << 38,
        ),
        (
            "SSCC p6 serial reference past 11 digits",
            0x31 << 88 | 6 << 82 | 0x3F_FFFF_FFFF << 24,
        ),
        (
            "GRAI p6 asset type past 6 digits",
            0x33 << 88 | 6 << 82 | 0xFF_FFFF << 38,
        ),
    ];
    for &(what, word) in words {
        let epc = Epc::from_raw(word);
        assert_eq!(
            (epc.as_sgtin(), epc.as_sscc(), epc.as_grai(), epc.as_gid()),
            (None, None, None, None),
            "{what}"
        );
        assert_eq!(
            epc.to_uri(),
            format!("urn:epc:raw:96.x{}", epc.to_hex()),
            "{what}"
        );
        assert_eq!(ClassKey::of(epc), None, "{what}");
    }
}

/// Each decoder refuses every other scheme's header.
#[test]
fn wrong_headers_are_refused() {
    let sgtin = Sgtin96::new(1, 614_141, 7, 112_345, 400).unwrap().encode();
    let sscc = Sscc96::new(2, 614_141, 7, 1_234_567_890).unwrap().encode();
    let grai = Grai96::new(0, 614_141, 7, 12_345, 5555).unwrap().encode();
    let gid = Gid96::new(42, 7, 99).unwrap().encode();
    let unknown = 0x36 << 88;
    for word in [sscc, grai, gid, unknown] {
        assert!(Sgtin96::decode(word).is_err(), "{word:#x}");
    }
    for word in [sgtin, grai, gid, unknown] {
        assert!(Sscc96::decode(word).is_err(), "{word:#x}");
    }
    for word in [sgtin, sscc, gid, unknown] {
        assert!(Grai96::decode(word).is_err(), "{word:#x}");
    }
    for word in [sgtin, sscc, grai, unknown] {
        assert!(Gid96::decode(word).is_err(), "{word:#x}");
    }
    assert_eq!(
        Epc::from_raw(unknown).to_uri(),
        "urn:epc:raw:96.x360000000000000000000000"
    );
}
