//! The paper's `type(o)` function: mapping object EPCs to application types.
//!
//! §2.1 allows the type of an object to be "extracted from its EPC value with
//! a user-defined extraction function, or specified by a user with a mapping
//! function". [`TypeRegistry`] supports both: class-level rules keyed on the
//! decoded EPC class fields (the extraction path) and per-EPC overrides (the
//! mapping path), with overrides winning.

use std::sync::Arc;

use crate::epc::{Epc, EpcClass};
use crate::gs1;
use crate::hash::MixMap;

/// An interned application-level object type such as `"laptop"` or `"case"`.
///
/// Cloning is cheap (an `Arc<str>` bump), and equality is string equality, so
/// predicates in event definitions can compare types without allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectType(Arc<str>);

impl ObjectType {
    /// Creates a type from its name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The type name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ObjectType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectType {
    fn from(value: &str) -> Self {
        Self::new(value)
    }
}

/// The class-level key an extraction rule matches on.
///
/// For GS1 schemes the item reference / asset type / serial reference
/// identifies the product class; for GID the object class does. Two objects
/// of the same class always share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKey {
    /// SGTIN: (company prefix, item reference).
    Sgtin {
        /// GS1 company prefix.
        company: u64,
        /// Item reference (product class).
        item_reference: u64,
    },
    /// SSCC: company prefix only — serial references are per-unit, so SSCC
    /// class rules are per-company (typically all "case" or all "pallet").
    Sscc {
        /// GS1 company prefix.
        company: u64,
    },
    /// GRAI: (company prefix, asset type).
    Grai {
        /// GS1 company prefix.
        company: u64,
        /// Asset type (asset class).
        asset_type: u64,
    },
    /// GID: (manager, class).
    Gid {
        /// General manager number.
        manager: u64,
        /// Object class.
        class: u64,
    },
}

impl ClassKey {
    /// Derives the class key of an EPC, if its scheme is known.
    pub fn of(epc: Epc) -> Option<Self> {
        let class = epc.class();
        let Some(scheme) = gs1::scheme(class) else {
            let v = epc.as_gid()?;
            return Some(ClassKey::Gid {
                manager: v.manager,
                class: v.class,
            });
        };
        let v = scheme.decode(epc.raw()).ok()?;
        let company = v.company_prefix;
        Some(match class {
            EpcClass::Sgtin96 => ClassKey::Sgtin {
                company,
                item_reference: v.reference,
            },
            EpcClass::Sscc96 => ClassKey::Sscc { company },
            _ => ClassKey::Grai {
                company,
                asset_type: v.reference,
            },
        })
    }
}

/// Registry implementing `type(o)`.
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    by_epc: MixMap<Epc, ObjectType>,
    by_class: MixMap<ClassKey, ObjectType>,
    fallback: Option<ObjectType>,
}

impl TypeRegistry {
    /// Creates an empty registry: every lookup yields `None` (or the fallback
    /// once one is set).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a per-EPC override (the user "mapping function").
    pub fn map_epc(&mut self, epc: Epc, ty: impl Into<ObjectType>) -> &mut Self {
        self.by_epc.insert(epc, ty.into());
        self
    }

    /// Registers a class-level rule (the "extraction function"): every EPC of
    /// this product class gets the type.
    pub fn map_class(&mut self, key: ClassKey, ty: impl Into<ObjectType>) -> &mut Self {
        self.by_class.insert(key, ty.into());
        self
    }

    /// Convenience: register the class rule derived from a sample EPC.
    pub fn map_class_of(&mut self, sample: Epc, ty: impl Into<ObjectType>) -> &mut Self {
        if let Some(key) = ClassKey::of(sample) {
            self.by_class.insert(key, ty.into());
        }
        self
    }

    /// Sets a default type returned when nothing else matches.
    pub fn set_fallback(&mut self, ty: impl Into<ObjectType>) -> &mut Self {
        self.fallback = Some(ty.into());
        self
    }

    /// `type(o)`: per-EPC override, then class rule, then fallback.
    pub fn type_of(&self, epc: Epc) -> Option<ObjectType> {
        if let Some(t) = self.by_epc.get(&epc) {
            return Some(t.clone());
        }
        if let Some(t) = ClassKey::of(epc).and_then(|k| self.by_class.get(&k)) {
            return Some(t.clone());
        }
        self.fallback.clone()
    }

    /// Whether `type(o) = name` holds.
    pub fn is_type(&self, epc: Epc, name: &str) -> bool {
        self.type_of(epc).is_some_and(|t| t.name() == name)
    }

    /// Whether any mapping (override, class rule, or fallback) can produce
    /// this type name — i.e. whether `type(o) = name` is satisfiable at all
    /// under this registry. Used by static analysis to flag patterns that
    /// predicate on a type no object will ever have.
    pub fn knows_type(&self, name: &str) -> bool {
        self.by_epc.values().any(|t| t.name() == name)
            || self.by_class.values().any(|t| t.name() == name)
            || self.fallback.as_ref().is_some_and(|t| t.name() == name)
    }

    /// Number of registered rules (overrides + class rules).
    pub fn len(&self) -> usize {
        self.by_epc.len() + self.by_class.len()
    }

    /// Whether no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.by_epc.is_empty() && self.by_class.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gid::Gid96;
    use crate::grai::Grai96;
    use crate::sgtin::Sgtin96;

    fn laptop(serial: u64) -> Epc {
        Grai96::new(0, 614_141, 7, 11, serial).unwrap().into()
    }

    fn badge(serial: u64) -> Epc {
        Gid96::new(9, 1, serial).unwrap().into()
    }

    #[test]
    fn class_rule_covers_all_serials() {
        let mut reg = TypeRegistry::new();
        reg.map_class_of(laptop(0), "laptop");
        assert!(reg.is_type(laptop(1), "laptop"));
        assert!(reg.is_type(laptop(999), "laptop"));
        assert!(!reg.is_type(badge(1), "laptop"));
    }

    #[test]
    fn epc_override_beats_class_rule() {
        let mut reg = TypeRegistry::new();
        reg.map_class_of(laptop(0), "laptop");
        reg.map_epc(laptop(7), "demo-unit");
        assert!(reg.is_type(laptop(7), "demo-unit"));
        assert!(reg.is_type(laptop(8), "laptop"));
    }

    #[test]
    fn fallback_applies_last() {
        let mut reg = TypeRegistry::new();
        reg.set_fallback("unknown");
        assert!(reg.is_type(badge(1), "unknown"));
        reg.map_class_of(badge(0), "superuser");
        assert!(reg.is_type(badge(1), "superuser"));
    }

    #[test]
    fn sgtin_class_key_ignores_serial() {
        let a: Epc = Sgtin96::new(1, 614_141, 7, 112_345, 1).unwrap().into();
        let b: Epc = Sgtin96::new(1, 614_141, 7, 112_345, 2).unwrap().into();
        let c: Epc = Sgtin96::new(1, 614_141, 7, 999_999, 1).unwrap().into();
        assert_eq!(ClassKey::of(a), ClassKey::of(b));
        assert_ne!(ClassKey::of(a), ClassKey::of(c));
    }

    #[test]
    fn unknown_scheme_has_no_class_key() {
        assert_eq!(ClassKey::of(Epc::from_raw(0xEE_u128 << 88)), None);
    }

    #[test]
    fn len_and_is_empty() {
        let mut reg = TypeRegistry::new();
        assert!(reg.is_empty());
        reg.map_epc(badge(1), "x");
        reg.map_class_of(laptop(0), "laptop");
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
