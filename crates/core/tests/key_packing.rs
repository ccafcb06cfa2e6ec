//! Property tests for the packed correlation key (`rceda::key::Key`).
//!
//! The engine used to correlate on `Vec<KeyPart>`; the packed key replaces
//! it with an inline fixed-size encoding plus a precomputed hash. Detection
//! semantics depend on one property only: the packing is **injective** with
//! respect to the old vector semantics — two packed keys compare equal iff
//! the part sequences they were built from compare equal. These tests drive
//! that equivalence (and the hash/map contract it rests on) across random
//! part sequences, including ones wide enough to spill out of the inline
//! words.

use proptest::prelude::*;
use rceda::key::{Key, KeyBuilder, KeyPart};
use rceda::state::SlotTable;
use rfid_epc::{Epc, ReaderId};

/// 96-bit EPC payload mask: `Epc::from_raw` rejects wider words.
const EPC_MASK: u128 = (1u128 << 96) - 1;

fn part_strategy() -> impl Strategy<Value = KeyPart> {
    prop_oneof![
        any::<u32>().prop_map(|r| KeyPart::Reader(ReaderId(r))),
        (any::<u64>(), any::<u64>()).prop_map(|(lo, hi)| {
            let raw = ((u128::from(hi) << 64) | u128::from(lo)) & EPC_MASK;
            KeyPart::Object(Epc::from_raw(raw))
        }),
    ]
}

/// Part sequences from empty up past every inline budget: more than 6 parts
/// always spills, and 3+ objects (36 payload bytes) spill earlier.
fn parts_strategy() -> impl Strategy<Value = Vec<KeyPart>> {
    prop::collection::vec(part_strategy(), 0..9)
}

proptest! {
    /// Equal part vectors pack to equal keys with equal hashes — the old
    /// `Vec<KeyPart>` equality is preserved exactly.
    #[test]
    fn equal_vectors_pack_equal(parts in parts_strategy()) {
        let a = Key::from_parts(&parts);
        let b = Key::from_parts(&parts);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.precomputed_hash(), b.precomputed_hash());
    }

    /// Distinct part vectors pack to distinct keys (injectivity): packed
    /// equality implies vector equality. Pairs are drawn independently, so
    /// most are unequal; the equal case is covered above.
    #[test]
    fn distinct_vectors_pack_distinct(a in parts_strategy(), b in parts_strategy()) {
        let ka = Key::from_parts(&a);
        let kb = Key::from_parts(&b);
        prop_assert_eq!(ka == kb, a == b, "packed equality must mirror Vec<KeyPart> equality");
    }

    /// The packing is lossless: decoding returns the original sequence, so
    /// injectivity holds by construction, not just over sampled pairs.
    #[test]
    fn packing_round_trips(parts in parts_strategy()) {
        let key = Key::from_parts(&parts);
        prop_assert_eq!(key.parts(), parts.clone());
        prop_assert_eq!(key.len(), parts.len());
        prop_assert_eq!(key.is_empty(), parts.is_empty());
    }

    /// Streaming construction (the hot path) agrees with whole-slice
    /// construction, part by part.
    #[test]
    fn builder_matches_from_parts(parts in parts_strategy()) {
        let mut b = KeyBuilder::new();
        for &p in &parts {
            b.push(p);
        }
        prop_assert_eq!(b.finish(), Key::from_parts(&parts));
    }

    /// A `SlotTable` keyed by packed keys behaves like a map keyed by the
    /// old vectors: what is stored under the packed key of a vector is found
    /// by exactly the keys whose vectors were equal.
    #[test]
    fn slot_table_agrees_with_vector_map(seqs in prop::collection::vec(parts_strategy(), 0..12)) {
        let mut packed: SlotTable<usize> = SlotTable::default();
        let mut by_vec: std::collections::HashMap<Vec<KeyPart>, usize> =
            std::collections::HashMap::new();
        for (i, parts) in seqs.iter().enumerate() {
            let key = Key::from_parts(parts);
            let slot = packed.slot_of(key.precomputed_hash(), &key);
            *packed.value_mut(slot) = i;
            by_vec.insert(parts.clone(), i);
        }
        prop_assert_eq!(packed.len(), by_vec.len());
        for (parts, i) in &by_vec {
            let key = Key::from_parts(parts);
            let slot = packed.find(key.precomputed_hash(), &key);
            prop_assert_eq!(slot.map(|s| packed.value(s)), Some(i));
        }
    }
}

/// The adversarial collision shapes, pinned deterministically: payload bytes
/// that agree while kinds or boundaries differ must never alias.
#[test]
fn packing_separates_adversarial_shapes() {
    let r = |v: u32| KeyPart::Reader(ReaderId(v));
    let o = |v: u128| KeyPart::Object(Epc::from_raw(v));

    // Same payload bytes, different kind split: three readers vs one object
    // with the same 12 little-endian bytes.
    let readers = [r(1), r(2), r(3)];
    let object = [o((1u128) | (2u128 << 32) | (3u128 << 64))];
    assert_ne!(Key::from_parts(&readers), Key::from_parts(&object));

    // Prefix vs extended: [a] vs [a, 0-reader] — count bits separate them
    // even though the extra payload bytes are all zero.
    assert_ne!(Key::from_parts(&[r(7)]), Key::from_parts(&[r(7), r(0)]));
    assert_ne!(Key::from_parts(&[]), Key::from_parts(&[r(0)]));
    assert_ne!(Key::from_parts(&[o(0)]), Key::from_parts(&[r(0)]));

    // Order matters.
    assert_ne!(
        Key::from_parts(&[r(1), o(2)]),
        Key::from_parts(&[o(2), r(1)])
    );
}

/// Hashing covers only the words a key's payload occupies, so keys whose
/// payloads are all zero differ in their shape alone: the empty key, one
/// and two zero readers, and one zero object must stay pairwise unequal
/// and hash apart.
#[test]
fn trailing_zero_keys_stay_distinct() {
    let zero_reader = KeyPart::Reader(ReaderId(0));
    let keys = [
        Key::EMPTY,
        Key::from_parts(&[zero_reader]),
        Key::from_parts(&[zero_reader, zero_reader]),
        Key::from_parts(&[KeyPart::Object(Epc::from_raw(0))]),
    ];
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
            assert_ne!(a.precomputed_hash(), b.precomputed_hash(), "{a:?} vs {b:?}");
        }
    }
}
