//! Correlation keys: instance-level equality joins from shared variables.
//!
//! Rule 1 of the paper reads `WITHIN(observation(r, o, t1); observation(r, o,
//! t2), 5sec)` — the two constituents must agree on *both* the reader and the
//! object. The graph builder turns shared variables into a [`JoinSpec`] per
//! binary node; at runtime each side's buffer is partitioned by the
//! [`Key`] the spec extracts, so matching is a hash lookup instead of a scan
//! over every buffered instance.
//!
//! # Packed representation
//!
//! The graph interns every distinct extraction list once, as a
//! [`KeySpecId`], and the engine builds a key once per arrival per interned
//! spec: every parent edge that reads the same spec off the same arrival
//! borrows that one key. Rather than a `Vec<KeyPart>` (one heap allocation
//! per extraction, another per clone, and a SipHash walk per map probe),
//! [`Key`] packs its parts straight into three inline `u64` words — a
//! `ReaderId` contributes 4 payload bytes, an `Epc` 12 (its 96-bit word) —
//! together with a shape descriptor (part count + per-part kind bits) and a
//! precomputed 64-bit hash over the shape and only the words the parts
//! occupy (two mixing rounds for a one-EPC key). Construction, cloning, and
//! equality are then allocation-free value operations, and the keyed state
//! tables ([`crate::state::SlotTable`]) probe with the precomputed hash
//! instead of re-hashing.
//!
//! Keys wider than 24 payload bytes (more than two object parts, or
//! pathological many-variable joins) spill to a shared `Arc<[KeyPart]>`.
//! Inline and spilled keys can never alias: whether a part sequence fits
//! inline is a function of its shape alone, so equal part sequences always
//! take the same representation. See `DESIGN.md` §10.

use std::collections::BTreeMap;
use std::sync::Arc;

use rfid_epc::hash::MixMap;
use rfid_epc::{Epc, ReaderId};
use rfid_events::{EventExpr, Instance, InstanceKind, Var};

/// Which attribute of an observation a variable binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attr {
    /// The reader id.
    Reader,
    /// The object EPC.
    Object,
}

/// A path from a node's instance down to one observation attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Extract {
    /// The instance is a primitive observation; read the attribute directly.
    Obs(Attr),
    /// Descend into the i-th child of the composite instance.
    Child(u8, Box<Extract>),
}

impl Extract {
    /// Wraps an extraction one composite level deeper.
    pub fn under(self, child: u8) -> Self {
        Extract::Child(child, Box::new(self))
    }

    /// The observation attribute this path ultimately reads, however deep
    /// the composite nesting.
    pub fn terminal_attr(&self) -> Attr {
        match self {
            Extract::Obs(attr) => *attr,
            Extract::Child(_, inner) => inner.terminal_attr(),
        }
    }

    /// Evaluates the path against an instance. `None` when the instance's
    /// shape does not match (e.g. an absence witness), which callers treat as
    /// "no key" — the instance then never joins.
    #[inline]
    pub fn eval(&self, inst: &Instance) -> Option<KeyPart> {
        match self {
            Extract::Obs(attr) => match inst.kind() {
                InstanceKind::Observation(obs) => Some(match attr {
                    Attr::Reader => KeyPart::Reader(obs.reader),
                    Attr::Object => KeyPart::Object(obs.object),
                }),
                _ => None,
            },
            Extract::Child(i, inner) => {
                inst.children().get(*i as usize).and_then(|c| inner.eval(c))
            }
        }
    }
}

/// One component of a correlation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyPart {
    /// A reader id.
    Reader(ReaderId),
    /// An object EPC.
    Object(Epc),
}

/// Payload bytes a key can hold inline: three words of packed parts.
const INLINE_BYTES: usize = 24;
/// Parts a key can describe inline (shape kind bits).
const INLINE_PARTS: usize = 6;

// The splitmix64 finalizer, shared with the edge filters' and the store's
// maps over the same EPC bits; the shard router uses it too, so one
// multiply chain serves the keyed tables and shard routing.
pub(crate) use rfid_epc::hash::mix64;

/// Hashes a packed shape + the payload words `used` bytes occupy. The
/// shape is mixed into the first word, so one round covers a key of up to
/// 8 bytes; words past the payload are zero and skipped — the shape's part
/// count already tells keys with trailing zero words apart.
#[inline]
fn hash_inline(shape: u16, words: &[u64; 3], used: usize) -> u64 {
    let seed = u64::from(shape).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
    let mut h = mix64(words[0] ^ seed);
    if used > 8 {
        h = mix64(h ^ words[1]);
    }
    if used > 16 {
        h = mix64(h ^ words[2]);
    }
    h
}

/// Hashes a spilled part sequence (same scheme, unbounded width).
fn hash_spilled(parts: &[KeyPart]) -> u64 {
    let mut h = mix64(parts.len() as u64 ^ 0xD1B5_4A32_D192_ED03);
    for part in parts {
        match part {
            KeyPart::Reader(r) => {
                h = mix64(h ^ u64::from(r.0));
            }
            KeyPart::Object(o) => {
                let raw = o.raw();
                h = mix64(h ^ (raw as u64));
                h = mix64(h ^ ((raw >> 64) as u64) ^ 1);
            }
        }
    }
    h
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// `shape` encodes the part count (bits 8..=11) and, for part `i`, its
    /// kind in bit `i` (0 = reader, 1 = object). `words` hold the packed
    /// payload bytes, little-endian, in part order.
    Inline { shape: u16, words: [u64; 3] },
    /// Overflow for part sequences wider than [`INLINE_BYTES`]; shared so
    /// cloning stays cheap.
    Spilled(Arc<[KeyPart]>),
}

/// A correlation key: the tuple of shared-variable values, in sorted
/// variable-name order, packed inline (see the module docs). The empty key
/// means "uncorrelated" — every instance lands in one partition.
#[derive(Debug, Clone)]
pub struct Key {
    /// Precomputed hash over the representation; what
    /// [`crate::state::SlotTable`] probes with.
    hash: u64,
    repr: Repr,
}

impl Key {
    /// The empty (uncorrelated) key.
    pub const EMPTY: Key = Key {
        // hash_inline(0, &[0; 3], 0) precomputed; asserted in tests.
        hash: 0xb55a_8fa0_6753_7a73,
        repr: Repr::Inline {
            shape: 0,
            words: [0; 3],
        },
    };

    /// Builds a key from a part slice (tests; the hot path streams parts
    /// through [`KeyBuilder`] instead).
    #[cfg(test)]
    pub fn from_parts(parts: &[KeyPart]) -> Self {
        let mut b = KeyBuilder::new();
        for &p in parts {
            b.push(p);
        }
        b.finish()
    }

    /// The precomputed hash.
    #[inline]
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// Decodes the parts back out (tests, diagnostics — not on the hot
    /// path). Round-trips exactly with [`Key::from_parts`].
    pub fn parts(&self) -> Vec<KeyPart> {
        match &self.repr {
            Repr::Spilled(parts) => parts.to_vec(),
            Repr::Inline { shape, words } => {
                let count = (usize::from(*shape) >> 8) & 0xF;
                let mut bytes = [0u8; INLINE_BYTES];
                for (i, w) in words.iter().enumerate() {
                    bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
                }
                let mut out = Vec::with_capacity(count);
                let mut at = 0usize;
                for i in 0..count {
                    if shape & (1 << i) == 0 {
                        let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                        out.push(KeyPart::Reader(ReaderId(v)));
                        at += 4;
                    } else {
                        let mut raw = [0u8; 16];
                        raw[..12].copy_from_slice(&bytes[at..at + 12]);
                        out.push(KeyPart::Object(Epc::from_raw(u128::from_le_bytes(raw))));
                        at += 12;
                    }
                }
                out
            }
        }
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::EMPTY
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The hash is a pure function of the representation, so comparing it
        // first is a cheap reject; the representation settles collisions.
        self.hash == other.hash && self.repr == other.repr
    }
}

impl Eq for Key {}

impl std::hash::Hash for Key {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl FromIterator<KeyPart> for Key {
    fn from_iter<I: IntoIterator<Item = KeyPart>>(iter: I) -> Self {
        let mut b = KeyBuilder::new();
        for p in iter {
            b.push(p);
        }
        b.finish()
    }
}

/// The inline half of key construction: parts packed straight into three
/// payload words, with the shape (part count + kind bits) alongside. `Copy`
/// and drop-free, so an extraction keeps it in registers.
#[derive(Debug, Clone, Copy, Default)]
struct Packer {
    /// Payload, little-endian in part order, written in place.
    words: [u64; 3],
    /// Payload bytes written.
    used: usize,
    /// The part count in bits 8..=11, part `i`'s kind in bit `i`.
    shape: u16,
}

impl Packer {
    /// Packs one more part; `false` (and nothing written) when it does not
    /// fit inline.
    #[inline]
    fn push(&mut self, part: KeyPart) -> bool {
        let count = usize::from(self.shape >> 8);
        let need = match part {
            KeyPart::Reader(_) => 4,
            KeyPart::Object(_) => 12,
        };
        if count == INLINE_PARTS || self.used + need > INLINE_BYTES {
            return false;
        }
        // Parts are 4 or 12 bytes, so one starts at bit 0 or 32 of a word:
        // a reader fits that word, an EPC's 96 bits run into the next.
        let (word, high) = (self.used / 8, !self.used.is_multiple_of(8));
        match part {
            KeyPart::Reader(r) => self.words[word] |= u64::from(r.0) << if high { 32 } else { 0 },
            KeyPart::Object(o) => {
                let (lo, hi) = (o.raw() as u64, (o.raw() >> 64) as u64);
                if high {
                    self.words[word] |= lo << 32;
                    self.words[word + 1] |= (lo >> 32) | (hi << 32);
                } else {
                    self.words[word] |= lo;
                    self.words[word + 1] |= hi;
                }
                self.shape |= 1 << count;
            }
        }
        self.used += need;
        self.shape += 1 << 8;
        true
    }

    #[inline]
    fn finish(self) -> Key {
        Key {
            hash: hash_inline(self.shape, &self.words, self.used),
            repr: Repr::Inline {
                shape: self.shape,
                words: self.words,
            },
        }
    }
}

/// Streaming key constructor: push parts, then [`KeyBuilder::finish`].
/// Allocation-free while the key fits inline.
#[derive(Debug, Default)]
pub struct KeyBuilder {
    packer: Packer,
    /// Every part, once the key no longer fits inline.
    spill: Option<Vec<KeyPart>>,
}

impl KeyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one part.
    #[inline]
    pub fn push(&mut self, part: KeyPart) {
        if self.spill.is_some() || !self.packer.push(part) {
            self.push_spilled(part);
        }
    }

    /// Re-materializes what is already packed and spills from here on.
    #[cold]
    fn push_spilled(&mut self, part: KeyPart) {
        let packer = self.packer;
        self.spill
            .get_or_insert_with(|| packer.finish().parts())
            .push(part);
    }

    /// Finalizes the key, computing its hash.
    #[inline]
    pub fn finish(self) -> Key {
        match self.spill {
            Some(parts) => Key {
                hash: hash_spilled(&parts),
                repr: Repr::Spilled(parts.into()),
            },
            None => self.packer.finish(),
        }
    }
}

/// A hash map keyed by an engine sequence number, on the fixed identity
/// hasher ([`rfid_epc::hash::MixMap`]): `std`'s default `RandomState` would
/// make such a map's growth pattern — and with it the engine's allocation
/// counts — differ between two runs over the same stream.
pub type SeqMap<V> = MixMap<u64, V>;

/// The variables a node's instances can provide, with how to extract each.
pub type Exports = BTreeMap<Var, Extract>;

/// Dense id of an interned extraction list
/// ([`crate::graph::EventGraph::key_spec`]): equal lists share one id, so
/// the engine builds the key of an id once per arrival, whichever parent
/// edges read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KeySpecId(pub u32);

impl KeySpecId {
    /// The empty list — the uncorrelated key — which every graph interns
    /// first.
    pub const EMPTY: KeySpecId = KeySpecId(0);

    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Equality-join specification for a binary node: aligned extraction paths
/// for the variables both sides share, sorted by variable name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinSpec {
    /// Extraction paths relative to a left-side instance.
    pub left: Vec<Extract>,
    /// Extraction paths relative to a right-side instance.
    pub right: Vec<Extract>,
    /// The shared variable names (diagnostics only).
    pub vars: Vec<Var>,
    /// `[left, right]` as interned by the graph the node belongs to — what
    /// the engine extracts keys by. [`KeySpecId::EMPTY`] until then, which
    /// is already right for a trivial spec.
    pub ids: [KeySpecId; 2],
}

impl JoinSpec {
    /// Builds the spec for two export maps; empty when no variables overlap.
    pub fn between(left: &Exports, right: &Exports) -> Self {
        let mut spec = JoinSpec::default();
        for (var, lx) in left {
            if let Some(rx) = right.get(var) {
                spec.left.push(lx.clone());
                spec.right.push(rx.clone());
                spec.vars.push(var.clone());
            }
        }
        spec
    }

    /// Whether any variables are shared.
    pub fn is_trivial(&self) -> bool {
        self.vars.is_empty()
    }

    /// Extracts the left-side key. `None` if any path fails to resolve.
    #[cfg(test)]
    pub fn left_key(&self, inst: &Instance) -> Option<Key> {
        extract_all(&self.left, inst)
    }

    /// Extracts the right-side key. `None` if any path fails to resolve.
    #[cfg(test)]
    pub fn right_key(&self, inst: &Instance) -> Option<Key> {
        extract_all(&self.right, inst)
    }

    /// Whether the correlation key constrains `attr` on *both* sides: some
    /// aligned component reads `attr` from the left and right instances.
    /// `keys_on(Attr::Object)` is the shardability criterion — two instances
    /// can only join when they agree on the object EPC, so detection
    /// partitions cleanly by object.
    pub fn keys_on(&self, attr: Attr) -> bool {
        self.left
            .iter()
            .zip(&self.right)
            .any(|(l, r)| l.terminal_attr() == attr && r.terminal_attr() == attr)
    }
}

/// Packs every extraction into a key without intermediate collection. The
/// engine calls it from one place, its per-arrival key memo.
#[inline]
pub(crate) fn extract_all(paths: &[Extract], inst: &Instance) -> Option<Key> {
    let mut packer = Packer::default();
    for p in paths {
        if !packer.push(p.eval(inst)?) {
            return extract_spilled(paths, inst);
        }
    }
    Some(packer.finish())
}

/// [`extract_all`] for a key too wide to pack inline.
#[cold]
fn extract_spilled(paths: &[Extract], inst: &Instance) -> Option<Key> {
    let mut b = KeyBuilder::new();
    for p in paths {
        b.push(p.eval(inst)?);
    }
    Some(b.finish())
}

/// Computes the exports of an expression node from its children's exports,
/// mirroring the composite instance shapes the detector produces.
///
/// * primitives export their bound attributes;
/// * binary constructors re-export both sides one child level down (left
///   wins when both bind the same variable — they are equal by the join);
/// * `OR`, `NOT`, and the aperiodic sequences export nothing: an `OR` child
///   index is branch-dependent, absences carry no attributes, and sequence
///   elements bind per-element.
pub fn exports_of(expr: &EventExpr, child_exports: &[&Exports]) -> Exports {
    match expr {
        EventExpr::Primitive(p) => {
            let mut out = Exports::new();
            if let Some(v) = &p.reader_var {
                out.insert(v.clone(), Extract::Obs(Attr::Reader));
            }
            if let Some(v) = &p.object_var {
                out.insert(v.clone(), Extract::Obs(Attr::Object));
            }
            out
        }
        EventExpr::And(..) | EventExpr::Seq(..) | EventExpr::TSeq { .. } => {
            let mut out = Exports::new();
            debug_assert_eq!(child_exports.len(), 2);
            // Right first so that left insertions overwrite: the left path is
            // the canonical extraction when both sides bind a variable.
            for (var, x) in child_exports[1] {
                out.insert(var.clone(), x.clone().under(1));
            }
            for (var, x) in child_exports[0] {
                out.insert(var.clone(), x.clone().under(0));
            }
            out
        }
        EventExpr::Within { .. } => {
            // WITHIN is a constraint, not a node; the builder never asks for
            // its exports directly.
            child_exports
                .first()
                .map(|e| (*e).clone())
                .unwrap_or_default()
        }
        EventExpr::Or(..)
        | EventExpr::Not(..)
        | EventExpr::SeqPlus(..)
        | EventExpr::TSeqPlus { .. } => Exports::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::Gid96;
    use rfid_events::{Observation, Timestamp};
    use std::sync::Arc;

    fn obs(reader: u32, serial: u64, ms: u64) -> Instance {
        Instance::observation(Observation::new(
            ReaderId(reader),
            Gid96::new(1, 1, serial).unwrap().into(),
            Timestamp::from_millis(ms),
        ))
    }

    #[test]
    fn extract_from_primitive() {
        let inst = obs(3, 77, 0);
        assert_eq!(
            Extract::Obs(Attr::Reader).eval(&inst),
            Some(KeyPart::Reader(ReaderId(3)))
        );
        let KeyPart::Object(epc) = Extract::Obs(Attr::Object).eval(&inst).unwrap() else {
            panic!("expected object part");
        };
        assert_eq!(epc, Gid96::new(1, 1, 77).unwrap().into());
    }

    #[test]
    fn extract_descends_children() {
        let comp = Instance::composite("SEQ", vec![Arc::new(obs(1, 1, 0)), Arc::new(obs(2, 2, 5))]);
        let path = Extract::Obs(Attr::Reader).under(1);
        assert_eq!(path.eval(&comp), Some(KeyPart::Reader(ReaderId(2))));
    }

    #[test]
    fn extract_fails_gracefully_on_shape_mismatch() {
        let absence = Instance::absence(Timestamp::ZERO, Timestamp::from_secs(1));
        assert_eq!(Extract::Obs(Attr::Reader).eval(&absence), None);
        let prim = obs(1, 1, 0);
        assert_eq!(Extract::Obs(Attr::Reader).under(0).eval(&prim), None);
    }

    #[test]
    fn join_spec_aligns_shared_vars() {
        // Two primitives both binding r and o (Rule 1's shape).
        let pattern = |(): ()| {
            let e = EventExpr::observation()
                .bind_reader("r")
                .bind_object("o")
                .build();
            exports_of(&e, &[])
        };
        let left = pattern(());
        let right = pattern(());
        let spec = JoinSpec::between(&left, &right);
        assert_eq!(spec.vars.len(), 2);
        assert!(!spec.is_trivial());

        let a = obs(5, 9, 0);
        let b = obs(5, 9, 100);
        let c = obs(5, 8, 100);
        assert_eq!(spec.left_key(&a), spec.right_key(&b));
        assert_ne!(spec.left_key(&a), spec.right_key(&c));
    }

    #[test]
    fn keys_on_requires_attr_on_both_sides() {
        let both = |e: &EventExpr| exports_of(e, &[]);
        let ro = EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .build();
        let r_only = EventExpr::observation().bind_reader("r").build();

        let spec = JoinSpec::between(&both(&ro), &both(&ro));
        assert!(spec.keys_on(Attr::Object));
        assert!(spec.keys_on(Attr::Reader));

        let spec = JoinSpec::between(&both(&ro), &both(&r_only));
        assert!(!spec.keys_on(Attr::Object), "object bound on one side only");
        assert!(spec.keys_on(Attr::Reader));

        assert!(
            !JoinSpec::default().keys_on(Attr::Object),
            "trivial join keys on nothing"
        );
    }

    #[test]
    fn terminal_attr_pierces_nesting() {
        let deep = Extract::Obs(Attr::Object).under(1).under(0);
        assert_eq!(deep.terminal_attr(), Attr::Object);
        assert_eq!(Extract::Obs(Attr::Reader).terminal_attr(), Attr::Reader);
    }

    #[test]
    fn binary_exports_are_wrapped() {
        let left = EventExpr::observation().bind_object("o").build();
        let right = EventExpr::observation().bind_reader("r").build();
        let le = exports_of(&left, &[]);
        let re = exports_of(&right, &[]);
        let seq = left.seq(right);
        let exports = exports_of(&seq, &[&le, &re]);
        assert_eq!(exports.len(), 2);
        assert_eq!(exports[&Var::new("o")], Extract::Obs(Attr::Object).under(0));
        assert_eq!(exports[&Var::new("r")], Extract::Obs(Attr::Reader).under(1));
    }

    #[test]
    fn left_binding_wins_on_conflict() {
        let left = EventExpr::observation().bind_object("o").build();
        let right = EventExpr::observation().bind_object("o").build();
        let le = exports_of(&left, &[]);
        let re = exports_of(&right, &[]);
        let and = left.and(right);
        let exports = exports_of(&and, &[&le, &re]);
        assert_eq!(exports[&Var::new("o")], Extract::Obs(Attr::Object).under(0));
    }

    #[test]
    fn opaque_constructors_export_nothing() {
        let inner = EventExpr::observation().bind_object("o").build();
        let ie = exports_of(&inner, &[]);
        for e in [
            inner.clone().not(),
            inner.clone().seq_plus(),
            inner.clone().or(EventExpr::observation().build()),
        ] {
            assert!(
                exports_of(&e, &[&ie, &ie]).is_empty(),
                "{e} should export nothing"
            );
        }
    }

    // --- packed representation ---

    fn epc(serial: u64) -> Epc {
        Gid96::new(1, 1, serial).unwrap().into()
    }

    #[test]
    fn empty_key_constant_matches_builder() {
        assert_eq!(Key::EMPTY, KeyBuilder::new().finish());
        assert_eq!(
            Key::EMPTY.precomputed_hash(),
            KeyBuilder::new().finish().precomputed_hash(),
            "the const-precomputed hash must equal the computed one"
        );
        assert_eq!(Key::EMPTY.parts(), Vec::new());
    }

    #[test]
    fn parts_round_trip_inline() {
        let seqs: Vec<Vec<KeyPart>> = vec![
            vec![],
            vec![KeyPart::Reader(ReaderId(7))],
            vec![KeyPart::Object(epc(9))],
            vec![KeyPart::Reader(ReaderId(1)), KeyPart::Object(epc(2))],
            vec![KeyPart::Object(epc(3)), KeyPart::Reader(ReaderId(4))],
            vec![KeyPart::Object(epc(3)), KeyPart::Object(epc(4))],
            vec![KeyPart::Reader(ReaderId(u32::MAX)); 6],
        ];
        for parts in seqs {
            let key = Key::from_parts(&parts);
            assert_eq!(key.parts(), parts, "inline round trip");
        }
    }

    #[test]
    fn parts_round_trip_spilled() {
        // Three objects (36 payload bytes) exceed the 24-byte inline budget.
        let parts = vec![
            KeyPart::Object(epc(1)),
            KeyPart::Object(epc(2)),
            KeyPart::Object(epc(3)),
        ];
        let key = Key::from_parts(&parts);
        assert_eq!(key.parts(), parts, "spilled round trip");
        // Seven readers exceed the 6-part shape budget.
        let many = vec![KeyPart::Reader(ReaderId(5)); 7];
        assert_eq!(Key::from_parts(&many).parts(), many);
    }

    #[test]
    fn equality_matches_part_equality() {
        let a = [KeyPart::Reader(ReaderId(1)), KeyPart::Object(epc(2))];
        let b = [KeyPart::Reader(ReaderId(1)), KeyPart::Object(epc(2))];
        let c = [KeyPart::Object(epc(2)), KeyPart::Reader(ReaderId(1))];
        assert_eq!(Key::from_parts(&a), Key::from_parts(&b));
        assert_ne!(Key::from_parts(&a), Key::from_parts(&c), "order matters");
        assert_ne!(Key::from_parts(&a), Key::EMPTY);
    }

    #[test]
    fn kind_is_part_of_identity() {
        // A reader and an object with identical low payload bytes must not
        // collide: the shape kind bits separate them.
        let r = Key::from_parts(&[KeyPart::Reader(ReaderId(42))]);
        let o = Key::from_parts(&[KeyPart::Object(Epc::from_raw(42))]);
        assert_ne!(r, o);
    }

    /// Property tests of the packing. The engine used to correlate on
    /// `Vec<KeyPart>`; the packed key replaces it with an inline
    /// fixed-size encoding plus a precomputed hash. Detection semantics
    /// depend on one property only: the packing is **injective** with
    /// respect to the old vector semantics — two packed keys compare equal
    /// iff the part sequences they were built from compare equal. These
    /// tests drive that equivalence (and the hash/map contract it rests on)
    /// across random part sequences, including ones wide enough to spill
    /// out of the inline words.
    mod packing {
        use crate::key::{Key, KeyBuilder, KeyPart};
        use crate::state::{Found, SlotTable};
        use proptest::prelude::*;
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
                prop_assert_eq!(key.parts(), parts);
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
                let mut packed = SlotTable::new(crate::key::KeySpecId(1));
                let mut values = std::collections::HashMap::new();
                let mut by_vec: std::collections::HashMap<Vec<KeyPart>, usize> =
                    std::collections::HashMap::new();
                for (i, parts) in seqs.iter().enumerate() {
                    let key = Key::from_parts(parts);
                    let slot = packed.slot_of(key.precomputed_hash(), &key, &mut Found::Unprobed);
                    values.insert(slot, i);
                    by_vec.insert(parts.clone(), i);
                }
                prop_assert_eq!(values.len(), by_vec.len());
                for (parts, i) in &by_vec {
                    let key = Key::from_parts(parts);
                    let slot = packed.find(key.precomputed_hash(), &key);
                    prop_assert_eq!(slot.map(|s| &values[&s]), Some(i));
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
    }
}
