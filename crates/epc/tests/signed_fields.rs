//! A numeric EPC field is digits only. Rust's integer parsers accept a
//! leading `+`, so a label such as `+` followed by 23 hex digits, or a URI
//! field such as `+614141`, once parsed — and re-printed as a different
//! text (`0614141`). Trace files and rule-script EPC literals both reach
//! `Epc::from_str`, so each form below must be refused there.

use rfid_epc::Epc;

/// One signed input per numeric field of every form.
const SIGNED: &[&str] = &[
    // Hex label and raw URI: `+` and 23 hex digits.
    "+35000000000000000000001",
    "urn:epc:raw:96.x+35000000000000000000001",
    // SGTIN-96: company prefix, item reference, serial.
    "urn:epc:id:sgtin:+614141.112345.400",
    "urn:epc:id:sgtin:0614141.+12345.400",
    "urn:epc:id:sgtin:0614141.112345.+400",
    // SSCC-96: company prefix, serial reference.
    "urn:epc:id:sscc:+614141.1234567890",
    "urn:epc:id:sscc:0614141.+123456789",
    // GRAI-96: company prefix, asset type, serial.
    "urn:epc:id:grai:+614141.12345.5555",
    "urn:epc:id:grai:0614141.+1234.5555",
    "urn:epc:id:grai:0614141.12345.+5555",
    // GID-96: manager, object class, serial.
    "urn:epc:id:gid:+42.7.99",
    "urn:epc:id:gid:42.+7.99",
    "urn:epc:id:gid:42.7.+99",
];

#[test]
fn signed_fields_are_refused() {
    let accepted: Vec<(&str, String)> = SIGNED
        .iter()
        .filter_map(|text| Some((*text, text.parse::<Epc>().ok()?.to_uri())))
        .collect();
    assert!(accepted.is_empty(), "accepted (input, URI): {accepted:#?}");
}

#[test]
fn unsigned_forms_still_parse() {
    for text in SIGNED {
        let unsigned = text.replace('+', "0");
        assert!(unsigned.parse::<Epc>().is_ok(), "{unsigned}");
    }
}
