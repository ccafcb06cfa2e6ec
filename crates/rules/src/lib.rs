//! # rfid-rules — the declarative RFID rule language
//!
//! §3 of the paper defines a rule language over complex events:
//!
//! ```text
//! DEFINE E1 = observation('r1', o1, t1)
//! DEFINE E2 = observation('r2', o2, t2)
//! CREATE RULE r4, containment_rule
//! ON TSEQ(TSEQ+(E1, 0.1 sec, 1 sec); E2, 10 sec, 20 sec)
//! IF true
//! DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, UC)
//! ```
//!
//! This crate implements it end to end:
//!
//! * [`token`] / [`parser`] — a hand-written lexer and recursive-descent
//!   parser for `DEFINE` and `CREATE RULE` statements, event expressions
//!   (`;`, `AND`/`∧`, `OR`/`∨`, `NOT`/`¬`, `SEQ`, `TSEQ`, `SEQ+`, `TSEQ+`,
//!   `WITHIN`), `group(r)`/`type(o)` predicates, conditions, and the
//!   SQL-subset actions (`INSERT`, `BULK INSERT`, `UPDATE`, `DELETE`,
//!   procedure calls);
//! * [`compile`] — resolution of aliases and translation into
//!   [`rfid_events::EventExpr`] for the RCEDA engine, and [`rule_events`],
//!   a whole script's rules ready for [`rceda::Engine::with_rules`];
//! * [`prepared`] — what a firing runs: each rule lowered once, at load,
//!   into a bind plan (every variable `r`, `o1`, `t2`, … a slot, the
//!   *per-element* variables of an aperiodic sequence that `BULK INSERT`
//!   iterates in one buffer), a condition and a `DO` list of prepared
//!   statements against [`rfid_store::Database`] and a procedure registry;
//! * [`bind`] / [`cond`] / [`actions`] — the same firing interpreted by
//!   name off the AST: the reference `prepared` is tested against, and
//!   what the benchmark's traced pass still times. Nothing in this crate
//!   calls them;
//! * [`runtime`] — [`RuleRuntime`]: load a script, feed observations, and
//!   the rules transform the stream into store rows and procedure calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
pub mod ast;
pub mod bind;
pub mod compile;
pub mod cond;
pub mod driver;
pub mod lint;
pub mod parser;
pub mod prepared;
pub mod runtime;
pub mod stdlib;
pub mod token;

pub use compile::rule_events;
pub use driver::StreamHandle;
pub use lint::{cost_report, lint_script, CostRow, LintLevel, LintReport};
pub use parser::{parse_script, ParseError};
pub use runtime::{Procedures, RuleRuntime, RuntimeError};
