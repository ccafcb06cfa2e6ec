//! # rfid-events — the RFID event model
//!
//! This crate formalizes §2 of the paper: what an event *is*, which functions
//! are defined over event instances, and which constructors build complex
//! events out of primitive reader observations.
//!
//! * [`time`] — timestamps and spans (the τ of temporal constraints), with
//!   the paper's granularity (`0.1 sec` conveyor gaps) expressible exactly;
//! * [`observation`] — the single primitive event, `observation(r, o, t)`;
//! * [`instance`] — event *instances* with `t_begin`/`t_end`, the functions
//!   of Fig. 3 (`interval`, `dist`, pairwise `interval`), and constituent
//!   traversal used by rule actions (e.g. `BULK INSERT` over a sequence);
//! * [`expr`] — event *types* as an algebra: `OR`, `AND`, `NOT`, `SEQ`,
//!   `TSEQ`, `SEQ+`, `TSEQ+`, `WITHIN`, plus primitive patterns predicated on
//!   `group(r)` and `type(o)` with named variables for instance-level
//!   correlation (Rule 1's "same reader, same object");
//! * [`catalog`] — the deployment catalog binding patterns to the identity
//!   layer ([`rfid_epc::ReaderRegistry`], [`rfid_epc::TypeRegistry`]);
//! * [`context`] — the four classic parameter contexts plus *chronicle*,
//!   the one the paper shows is correct for overlapping RFID streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod context;
pub mod expr;
pub mod instance;
pub mod observation;
pub mod stream;
pub mod time;

pub use catalog::Catalog;
pub use context::ParameterContext;
pub use expr::{EventExpr, ObjectSel, PrimitivePattern, ReaderSel, Var};
pub use instance::{dist, interval2, Instance, InstanceKind};
pub use observation::Observation;
pub use stream::Reorderer;
pub use time::{Span, Timestamp};
