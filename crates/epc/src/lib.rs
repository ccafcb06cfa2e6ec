//! # rfid-epc — EPC identity layer
//!
//! The Electronic Product Code (EPC) standard assigns every physical object a
//! globally unique identifier. RFID readers report these identifiers, and the
//! complex-event layer above interprets them. This crate provides:
//!
//! * 96-bit binary codecs for the common EPC schemes — [`Sgtin96`] (trade
//!   items), [`Sscc96`] (logistic units such as cases and pallets),
//!   [`Grai96`] (returnable assets), and [`Gid96`] (general identifiers).
//!   The three GS1 schemes share one codec: a private module validates,
//!   encodes, decodes, prints and parses `header · filter · partition ·
//!   company prefix · reference · tail` from each scheme's descriptor (its
//!   header, Tag Data Standard partition table, reference field, tail and
//!   URI filter); GID keeps its own fixed layout. One [`EpcError`] serves all;
//! * a unified [`Epc`] value with pure-identity URI parsing/formatting
//!   (`urn:epc:id:sgtin:0614141.112345.400`) and raw hex round-tripping,
//!   whose numeric fields are ASCII digits only;
//! * the paper's `type(o)` function: a [`TypeRegistry`] mapping EPCs to
//!   application-level object types ("laptop", "pallet", "case", …) either by
//!   explicit enumeration or by class-level prefix rules;
//! * the paper's `group(r)` function: a [`ReaderRegistry`] that organises
//!   readers into named groups with symbolic locations;
//! * [`hash`]: the one fixed hasher ([`hash::MixMap`]) the layers above use
//!   for maps keyed by these identities.
//!
//! Everything in the detection engine identifies objects and readers through
//! this crate, so the synthetic workloads exercise the same identity code path
//! a hardware deployment would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod epc;
pub mod gid;
pub mod grai;
mod gs1;
pub mod hash;
pub mod reader;
pub mod sgtin;
pub mod sscc;
pub mod types;

pub use crate::epc::{Epc, EpcClass, EpcError, EpcParseError};
pub use crate::gid::Gid96;
pub use crate::grai::Grai96;
pub use crate::reader::{ReaderDef, ReaderId, ReaderRegistry};
pub use crate::sgtin::Sgtin96;
pub use crate::sscc::Sscc96;
pub use crate::types::{ObjectType, TypeRegistry};
