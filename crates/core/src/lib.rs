//! # rceda — the RFID Complex Event Detection engine
//!
//! A faithful implementation of §4 of the paper: a graph-based complex event
//! detection engine in which **temporal constraints are first-class objects of
//! the detection step** (not post-hoc conditions) and **pseudo events** make
//! non-spontaneous constructors (`NOT`, `SEQ+`, `TSEQ+`) detectable.
//!
//! The pipeline:
//!
//! 1. `program` compiles a set of [`rfid_events::EventExpr`] rule events:
//!    `graph` merges them into one shared event graph — propagating
//!    `WITHIN` interval constraints top-down, merging common subgraphs
//!    (hash-consing), deriving each node's *detection mode* (push / pull /
//!    mixed), extracting correlation join specs from shared variables, and
//!    rejecting *invalid rules* whose root could never be detected — then
//!    `bounds` solves the retention intervals and `plan` lowers the
//!    graph to flat arenas;
//! 2. `state` holds the per-node runtime state: chronicle-context FIFO
//!    buffers partitioned by correlation key, negation/aperiodic histories,
//!    open `TSEQ+` runs, and anchored negation waits;
//! 3. `timeline` holds the clock, the sequence counter and one queue of
//!    every deadline — pseudo events and the sweep's prune deadlines; the
//!    [`engine`] driver always consumes the earlier of (incoming
//!    observation, due pseudo event), exactly as §4.5 prescribes, and
//!    rejects a read behind the clock;
//! 4. [`engine`] wires it together and reports occurrences to a sink.
//!
//! ```
//! use rceda::{Engine, EngineConfig};
//! use rfid_events::{Catalog, EventExpr, Observation, Span, Timestamp};
//! use rfid_epc::Gid96;
//!
//! // Example 2 / Rule 5: laptop at the exit with no superuser within 5 s.
//! let mut catalog = Catalog::new();
//! let exit = catalog.readers.register("r4", "exit", "building-exit");
//! let laptop = rfid_epc::Epc::from(Gid96::new(1, 10, 1).unwrap());
//! let badge = rfid_epc::Epc::from(Gid96::new(1, 20, 1).unwrap());
//! catalog.types.map_class_of(laptop, "laptop");
//! catalog.types.map_class_of(badge, "superuser");
//!
//! let event = EventExpr::observation_at("r4").with_type("laptop")
//!     .and(EventExpr::observation_at("r4").with_type("superuser").not())
//!     .within(Span::from_secs(5));
//!
//! let mut engine = Engine::new(catalog, EngineConfig::default());
//! let alarm = engine.add_rule("asset-monitoring", event).unwrap();
//!
//! let mut fired = Vec::new();
//! engine.process(
//!     Observation::new(exit, laptop, Timestamp::from_secs(10)),
//!     &mut |rule, _inst| fired.push(rule),
//! );
//! engine.finish(&mut |rule, _inst| fired.push(rule));
//! assert_eq!(fired, vec![alarm]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod bounds;
pub mod engine;
mod error;
pub mod explain;
mod graph;
mod key;
mod obs;
mod plan;
mod program;
mod shard;
mod state;
mod stats;
mod subsume;
mod timeline;

pub use analyze::{DiagCode, Diagnostic, Severity};
pub use bounds::{Bounds, NodeBounds};
pub use engine::{Engine, EngineConfig, RuleId, PROCESS_ALL_BATCH};
pub use error::InvalidRule;
pub use graph::{DetectionMode, EventGraph, NodeId};
pub use obs::{
    FlightRecord, FlightRecorder, Histogram, MetricsArena, ObserveLevel, TelemetrySnapshot,
};
pub use plan::{CompiledPlan, EdgeOp, InlineBuf, Member};
pub use program::{Program, RuleEvent};
pub use shard::{ResidualReason, ShardConfig, Shardability, ShardedEngine};
pub use stats::EngineStats;
pub use subsume::{subsumes, Subsumption};
