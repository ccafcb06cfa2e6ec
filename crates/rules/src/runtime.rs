//! The rule runtime: scripts in, transformed data out.
//!
//! [`RuleRuntime`] ties the pieces together: it parses a script, compiles
//! each rule's event into the RCEDA engine, and — on every firing — binds
//! variables, evaluates the condition, and executes the actions against the
//! embedded [`Database`] and the [`Procedures`] registry. This is the
//! complete loop of Fig. 2: observations in, semantic data and messages out.

use std::collections::HashMap;
use std::fmt;

use rceda::{Engine, EngineConfig, Program, RuleEvent, RuleId};
use rfid_events::{Catalog, Observation, Timestamp};
use rfid_store::{Database, Value};

use crate::actions::ActionError;
use crate::ast::{EventAst, RuleDecl};
use crate::bind::BindError;
use crate::compile::{build_defines, compile_event, resolve_aliases, CompileError};
use crate::parser::{parse_script, ParseError};
use crate::prepared::{FiringError, PreparedRule, Scratch};

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Script text did not parse.
    Parse(ParseError),
    /// An event did not compile.
    Compile(CompileError),
    /// The engine rejected the rule (§4.4 invalid rule).
    Invalid(rceda::InvalidRule),
    /// A firing could not bind its variables.
    Bind(BindError),
    /// An action failed.
    Action(ActionError),
    /// A rule id was declared twice (§3 requires unique ids).
    DuplicateRuleId(String),
    /// `DROP RULE` named a rule that was never created.
    UnknownRuleId(String),
    /// [`RuleRuntime::compile`] under [`crate::LintLevel::Deny`] found
    /// error-level diagnostics; the full report is attached.
    Lint(Vec<rceda::analyze::Diagnostic>),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::Compile(e) => write!(f, "{e}"),
            Self::Invalid(e) => write!(f, "{e}"),
            Self::Bind(e) => write!(f, "{e}"),
            Self::Action(e) => write!(f, "{e}"),
            Self::DuplicateRuleId(id) => write!(f, "duplicate rule id `{id}`"),
            Self::UnknownRuleId(id) => write!(f, "no rule with id `{id}` to drop"),
            Self::Lint(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity() == rceda::analyze::Severity::Error)
                    .count();
                write!(
                    f,
                    "lint rejected the program: {errors} error-level finding(s)"
                )?;
                if let Some(first) = diags
                    .iter()
                    .find(|d| d.severity() == rceda::analyze::Severity::Error)
                {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ParseError> for RuntimeError {
    fn from(value: ParseError) -> Self {
        Self::Parse(value)
    }
}

impl From<CompileError> for RuntimeError {
    fn from(value: CompileError) -> Self {
        Self::Compile(value)
    }
}

impl From<FiringError> for RuntimeError {
    fn from(value: FiringError) -> Self {
        match value {
            FiringError::Bind(e) => Self::Bind(e),
            FiringError::Action(e) => Self::Action(e),
        }
    }
}

impl From<rceda::InvalidRule> for RuntimeError {
    fn from(value: rceda::InvalidRule) -> Self {
        Self::Invalid(value)
    }
}

/// Boxed procedure handler.
pub type ProcHandler = Box<dyn FnMut(&[Value]) + Send>;

/// Registry of user procedures (`send_alarm`, `send_duplicate_msg`, …).
///
/// Every invocation is recorded in [`Procedures::log`] regardless of whether
/// a handler is installed, so tests and examples can assert on calls without
/// wiring callbacks.
#[derive(Default)]
pub struct Procedures {
    handlers: HashMap<String, ProcHandler>,
    /// Chronological record of every call: `(procedure, args)`.
    pub log: Vec<(String, Vec<Value>)>,
}

impl Procedures {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a handler for a procedure name.
    pub fn register(
        &mut self,
        name: &str,
        handler: impl FnMut(&[Value]) + Send + 'static,
    ) -> &mut Self {
        self.handlers.insert(name.to_owned(), Box::new(handler));
        self
    }

    /// Invokes a procedure: records the call, then runs the handler if any.
    pub fn invoke(&mut self, name: &str, args: Vec<Value>) {
        // Most programs register none: their calls are read from the log.
        if !self.handlers.is_empty() {
            if let Some(h) = self.handlers.get_mut(name) {
                h(&args);
            }
        }
        self.log.push((name.to_owned(), args));
    }

    /// Calls logged for one procedure name.
    pub fn calls<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a [Value]> + 'a {
        self.log
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, a)| a.as_slice())
    }
}

impl fmt::Debug for Procedures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Procedures")
            .field("handlers", &self.handlers.keys().collect::<Vec<_>>())
            .field("log_len", &self.log.len())
            .finish()
    }
}

/// One loaded rule as declared.
struct CompiledRule {
    decl: RuleDecl,
    /// Alias-free event AST (what the sharded engine recompiles).
    event: EventAst,
}

/// The firing programs of the loaded rules: one per distinct rule body.
#[derive(Default)]
struct Programs {
    /// Bind plan, condition and `DO` list, lowered and resolved.
    programs: Vec<PreparedRule>,
    /// By rule id: the index of the rule's program.
    of_rule: Vec<u32>,
    /// Each program's body as lowered, before it was resolved: what a
    /// rule loaded later is looked up by.
    interned: HashMap<PreparedRule, u32>,
}

impl Programs {
    /// Gives the next rule the program of its body, lowering one if no
    /// loaded rule has that body.
    fn push(&mut self, decl: &RuleDecl, event: &EventAst, db: &Database) {
        let fresh = self.programs.len() as u32;
        let programs = &mut self.programs;
        let program = *self
            .interned
            .entry(PreparedRule::lower(decl, event))
            .or_insert_with_key(|body| {
                let mut program = body.clone();
                program.resolve(db);
                programs.push(program);
                fresh
            });
        self.of_rule.push(program);
    }
}

/// Errors a runtime keeps from its firings; the rest are only counted.
pub const ERRORS_KEPT: usize = 1024;

/// The errors of a runtime's firings: the first [`ERRORS_KEPT`], and how
/// many there were. A rule whose action fails on every firing would
/// otherwise grow the list for the life of the runtime.
#[derive(Default)]
struct ErrorLog {
    kept: Vec<RuntimeError>,
    count: u64,
}

impl ErrorLog {
    fn push(&mut self, error: RuntimeError) {
        self.count += 1;
        if self.kept.len() < ERRORS_KEPT {
            self.kept.push(error);
        }
    }
}

/// The complete rule-processing runtime.
pub struct RuleRuntime {
    engine: Engine,
    /// The engine owns one catalog copy for matching; the runtime keeps
    /// another for binding/conditions/actions while the engine is borrowed.
    catalog: Catalog,
    db: Database,
    procs: Procedures,
    rules: Vec<CompiledRule>,
    programs: Programs,
    /// Reused from firing to firing.
    scratch: Scratch,
    defines: HashMap<String, EventAst>,
    errors: ErrorLog,
}

impl RuleRuntime {
    /// Creates a runtime over a deployment catalog, with the standard RFID
    /// tables provisioned.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_parts(catalog, Database::rfid(), EngineConfig::default())
    }

    /// Creates a runtime with a custom database and engine configuration.
    pub fn with_parts(catalog: Catalog, db: Database, config: EngineConfig) -> Self {
        Self {
            engine: Engine::new(catalog.clone(), config),
            catalog,
            db,
            procs: Procedures::new(),
            rules: Vec::new(),
            programs: Programs::default(),
            scratch: Scratch::default(),
            defines: HashMap::new(),
            errors: ErrorLog::default(),
        }
    }

    /// Builds a runtime from a script under a lint policy. This is
    /// [`RuleRuntime::new`] + [`RuleRuntime::load`] with static analysis in
    /// front:
    ///
    /// * [`crate::LintLevel::Allow`] — no linting; behaves like plain `load`
    ///   and returns no diagnostics;
    /// * [`crate::LintLevel::Warn`] — diagnostics are returned alongside
    ///   the runtime, which is built even when errors are found (the
    ///   builder still rejects §4.4-invalid rules as before);
    /// * [`crate::LintLevel::Deny`] — any error-level diagnostic (`E…`)
    ///   aborts with [`RuntimeError::Lint`] carrying the full report.
    ///
    /// The runtime's catalog doubles as the deployment the dead-leaf pass
    /// (W003) checks patterns against.
    pub fn compile(
        catalog: Catalog,
        script: &str,
        level: crate::LintLevel,
    ) -> Result<(Self, Vec<rceda::analyze::Diagnostic>), RuntimeError> {
        let diagnostics = match level {
            crate::LintLevel::Allow => Vec::new(),
            crate::LintLevel::Warn | crate::LintLevel::Deny => {
                crate::lint::lint_script(script, Some(&catalog))?.diagnostics
            }
        };
        if level == crate::LintLevel::Deny
            && diagnostics
                .iter()
                .any(|d| d.severity() == rceda::analyze::Severity::Error)
        {
            return Err(RuntimeError::Lint(diagnostics));
        }
        let mut runtime = Self::new(catalog);
        runtime.load(script)?;
        Ok((runtime, diagnostics))
    }

    /// Parses and loads a script (any number of `DEFINE`s and rules).
    /// Returns the ids of the newly created rules, in script order.
    /// Rule ids must be unique across everything loaded so far (§3: "the
    /// unique id … for a rule"). A script that fails loads nothing: no
    /// define, rule or drop of it takes effect.
    pub fn load(&mut self, script: &str) -> Result<Vec<RuleId>, RuntimeError> {
        let parsed = parse_script(script)?;
        // The first rule of the batch whose id is taken, by a loaded rule or
        // by another rule of the batch.
        let mut declared: HashMap<&str, u32> = HashMap::new();
        let loaded = self.rules.iter().map(|r| &r.decl.id);
        for id in loaded.chain(parsed.rules.iter().map(|r| &r.id)) {
            *declared.entry(id).or_default() += 1;
        }
        if let Some(clash) = parsed.rules.iter().find(|r| declared[r.id.as_str()] > 1) {
            return Err(RuntimeError::DuplicateRuleId(clash.id.clone()));
        }
        // New defines extend (and may shadow) earlier ones.
        let mut defines = self.defines.clone();
        for d in &parsed.defines {
            let resolved = resolve_aliases(&d.event, &defines)?;
            defines.insert(d.name.clone(), resolved);
        }
        // Validate the batch's internal defines too.
        let _ = build_defines(&parsed.defines)?;
        // Every rule is valid on its own (§4.4), checked on a graph of its
        // own, and every drop names a rule, before the engine changes.
        let mut batch = Vec::with_capacity(parsed.rules.len());
        for rule in parsed.rules {
            let event = resolve_aliases(&rule.event, &defines)?;
            let expr = compile_event(&event)?;
            Program::new().add_rule(RuleEvent::new(&rule.name, &rule.name, expr.clone()))?;
            batch.push((rule, event, expr));
        }
        let by_rule_id: Vec<&String> = (self.rules.iter().map(|r| &r.decl.id))
            .chain(batch.iter().map(|(rule, ..)| &rule.id))
            .collect();
        let drops = parsed
            .drops
            .iter()
            .map(|dropped| {
                let rule = by_rule_id.iter().position(|id| *id == dropped);
                rule.ok_or_else(|| RuntimeError::UnknownRuleId(dropped.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;

        self.defines = defines;
        let mut ids = Vec::with_capacity(batch.len());
        for (rule, event, expr) in batch {
            let id = self.engine.add_rule(&rule.name, expr)?;
            debug_assert_eq!(id.0 as usize, self.rules.len());
            self.programs.push(&rule, &event, &self.db);
            self.rules.push(CompiledRule { decl: rule, event });
            ids.push(id);
        }
        for rule in drops {
            self.engine.set_rule_enabled(RuleId(rule as u32), false);
        }
        Ok(ids)
    }

    /// Enables or disables a rule by its declared id (`DROP RULE` uses the
    /// same mechanism). Returns the previous state.
    pub fn set_rule_enabled_by_id(
        &mut self,
        id: &str,
        enabled: bool,
    ) -> Result<bool, RuntimeError> {
        let idx = self
            .rules
            .iter()
            .position(|r| r.decl.id == id)
            .ok_or_else(|| RuntimeError::UnknownRuleId(id.to_owned()))?;
        Ok(self.engine.set_rule_enabled(RuleId(idx as u32), enabled))
    }

    /// Registers a procedure handler.
    pub fn register_procedure(
        &mut self,
        name: &str,
        handler: impl FnMut(&[Value]) + Send + 'static,
    ) {
        self.procs.register(name, handler);
    }

    /// Feeds one observation; any rule firings run their conditions and
    /// actions immediately.
    pub fn process(&mut self, obs: Observation) {
        self.process_batch(std::slice::from_ref(&obs));
    }

    /// Feeds a contiguous batch of observations
    /// ([`rceda::Engine::process_batch`]); firings run their conditions and
    /// actions immediately, in detection order.
    pub fn process_batch(&mut self, batch: &[Observation]) {
        self.drive(|engine, sink| engine.process_batch(batch, sink));
    }

    /// Feeds a whole stream and finishes it ([`rceda::Engine::process_all`]).
    pub fn process_all<I: IntoIterator<Item = Observation>>(&mut self, stream: I) {
        self.drive(|engine, sink| engine.process_all(stream, sink));
    }

    /// Runs `feed` on the engine with the sink that fires a rule: binds its
    /// variables, checks its condition and executes its actions.
    fn drive(&mut self, feed: impl FnOnce(&mut Engine, &mut rceda::engine::Sink<'_>)) {
        let Self {
            engine,
            catalog,
            db,
            procs,
            programs: Programs {
                programs, of_rule, ..
            },
            scratch,
            errors,
            ..
        } = self;
        feed(engine, &mut |rule, inst| {
            let Some(&program) = of_rule.get(rule.0 as usize) else {
                return;
            };
            let failed = |e: FiringError| errors.push(e.into());
            programs[program as usize].fire(inst, catalog, db, procs, scratch, failed);
        });
    }

    /// Feeds a whole stream through the key-sharded parallel detection
    /// pipeline ([`rceda::ShardedEngine`]) instead of this runtime's
    /// single-threaded engine. The loaded rules are recompiled into the
    /// sharded engine (object-shardable rules fan out over
    /// [`rceda::ShardConfig::shards`] keyed partitions; the rest are
    /// rule-partitioned into broadcast partitions that read only the readers
    /// they name, served by [`rceda::ShardConfig::residual_workers`] pool
    /// threads), and every firing runs its condition and actions in the
    /// merged deterministic `(t_end, partition, seq)` order at the
    /// end-of-stream barrier. Rules disabled via `DROP RULE` are detected but
    /// not fired. Returns the merged detection stats.
    pub fn process_all_sharded<I: IntoIterator<Item = Observation>>(
        &mut self,
        stream: I,
        config: rceda::ShardConfig,
    ) -> Result<rceda::EngineStats, RuntimeError> {
        let mut sharded = rceda::ShardedEngine::new(self.catalog.clone(), config);
        for (i, compiled) in self.rules.iter().enumerate() {
            let expr = compile_event(&compiled.event)?;
            let id = sharded.add_rule(&compiled.decl.name, expr)?;
            debug_assert_eq!(id.0 as usize, i, "sharded ids mirror runtime ids");
        }
        self.drive(|engine, sink| {
            sharded.process_all(stream, &mut |rule, inst| {
                if engine.rule_enabled(rule) {
                    sink(rule, inst);
                }
            });
        });
        Ok(sharded.stats())
    }

    /// Resolves all pending windows (end of stream).
    pub fn finish(&mut self) {
        self.drive(|engine, sink| engine.finish(sink));
    }

    /// Advances the clock without an observation (heartbeat).
    pub fn advance_to(&mut self, now: Timestamp) {
        self.drive(|engine, sink| engine.advance_to(now, sink));
    }

    /// The data store.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The data store, mutably (seeding test fixtures).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The procedure registry (inspect `log` in tests).
    pub fn procedures(&self) -> &Procedures {
        &self.procs
    }

    /// The underlying engine (graph inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Telemetry snapshot of the single-threaded engine: per-node metrics
    /// arena and histograms (see [`rceda::TelemetrySnapshot`]).
    pub fn telemetry(&mut self) -> rceda::TelemetrySnapshot {
        self.engine.telemetry()
    }

    /// Detection counters of the single-threaded engine, including the
    /// negation-history working set ([`rceda::EngineStats::retained_keys`]).
    /// Sharded passes report their own merged stats from
    /// [`Self::process_all_sharded`] instead.
    pub fn stats(&self) -> rceda::EngineStats {
        self.engine.stats()
    }

    /// Errors collected from firings (bad bindings, failed actions), in
    /// the order they happened. Rule processing continues past them. Only
    /// the first [`ERRORS_KEPT`] are kept; [`Self::error_count`] counts all.
    pub fn errors(&self) -> &[RuntimeError] {
        &self.errors.kept
    }

    /// How many firing errors there have been, kept by [`Self::errors`] or
    /// not.
    pub fn error_count(&self) -> u64 {
        self.errors.count
    }

    /// Retrospective detection (§1's history-oriented tracking): asks *new*
    /// questions of *old* data. Builds a fresh runtime over the same
    /// catalog, loads `script`, and replays this runtime's `OBSERVATION`
    /// table — the filtered sightings earlier rules recorded — through it
    /// in timestamp order. Rows naming readers absent from the catalog are
    /// skipped. Returns the analysis runtime (inspect its store and
    /// procedure log) and the number of skipped rows.
    pub fn replay_observations_with(
        &self,
        script: &str,
    ) -> Result<(RuleRuntime, usize), RuntimeError> {
        let rows = self
            .db
            .table("OBSERVATION")
            .map(|t| t.iter().cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        let mut stream = Vec::with_capacity(rows.len());
        let mut skipped = 0usize;
        for row in rows {
            let (Some(name), Some(object), Some(at)) =
                (row[0].as_str(), row[1].as_epc(), row[2].as_time_or_uc())
            else {
                skipped += 1;
                continue;
            };
            match self.catalog.reader(name) {
                Some(reader) => stream.push(Observation::new(reader, object, at)),
                None => skipped += 1,
            }
        }
        stream.sort();
        let mut analysis = RuleRuntime::new(self.catalog.clone());
        analysis.load(script)?;
        analysis.process_all(stream);
        Ok((analysis, skipped))
    }

    /// Persists the current store state to a snapshot at `path` (see
    /// [`Database::save_snapshot`]: atomic, so a failed call leaves the
    /// previous snapshot in place). Restart with
    /// [`RuleRuntime::with_restored`] to continue over the same data.
    pub fn persist(
        &self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<(), rfid_store::SnapshotError> {
        self.db.save_snapshot(path.into())
    }

    /// Builds a runtime over a store read back from a [`Self::persist`]
    /// snapshot.
    pub fn with_restored(
        catalog: Catalog,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<Self, rfid_store::SnapshotError> {
        let db = Database::load_snapshot(path.into())?;
        Ok(Self::with_parts(catalog, db, EngineConfig::default()))
    }

    /// Declared id/name of a rule.
    pub fn rule_decl(&self, id: RuleId) -> Option<(&str, &str)> {
        self.rules
            .get(id.0 as usize)
            .map(|r| (r.decl.id.as_str(), r.decl.name.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Epc, Gid96};

    /// A statement that can never succeed fails once per firing, for as long
    /// as the runtime lives: the list of errors must not grow with it.
    #[test]
    fn a_doomed_statement_is_counted_not_kept() {
        let mut catalog = Catalog::new();
        let r1 = catalog.readers.register("r1", "docks", "dock");
        let mut rt = RuleRuntime::new(catalog);
        rt.load(
            "CREATE RULE doomed, misspelt ON observation(r, o, t) IF true \
             DO INSERT INTO OBSERVATIONS VALUES (r, o, t); note(o)",
        )
        .expect("loads");
        for n in 0..10_000u64 {
            let object: Epc = Gid96::new(1, 1, n).expect("small serial").into();
            rt.process(Observation::new(r1, object, Timestamp::from_millis(n)));
        }
        assert_eq!(rt.error_count(), 10_000);
        assert_eq!(rt.errors().len(), ERRORS_KEPT);
        assert_eq!(
            rt.errors()[0].to_string(),
            "store error: no column `table OBSERVATIONS`"
        );
        // The rest of each `DO` list still ran.
        assert_eq!(rt.procedures().log.len(), 10_000);
    }

    fn programs_of(script: &str) -> (usize, Vec<u32>) {
        let mut catalog = Catalog::new();
        for name in ["r1", "r2"] {
            catalog.readers.register(name, "docks", name);
        }
        let mut rt = RuleRuntime::new(catalog);
        rt.load(script).expect("loads");
        (rt.programs.programs.len(), rt.programs.of_rule.clone())
    }

    #[test]
    fn rule_programs_count_distinct_bodies() {
        let sim = rfid_simulator::SupplyChain::build(rfid_simulator::SimConfig::default());
        for (script, programs) in [(sim.rule_set(), 6), (sim.rule_family(500), 4)] {
            let mut rt = RuleRuntime::new(sim.catalog.clone());
            rt.load(&script).expect("loads");
            assert_eq!(rt.programs.programs.len(), programs);
            assert_eq!(rt.programs.of_rule.len(), rt.rules.len());
        }
    }

    #[test]
    fn rules_share_a_program_when_only_name_id_window_or_reader_literal_differ() {
        let rule =
            |id: &str, on: &str| format!("CREATE RULE {id}, n{id} ON {on} IF true DO f(o, t2) ");
        let seq = |reader: &str, secs: u32| {
            format!(
                "WITHIN(observation({reader}, o, t1); observation({reader}, o, t2), {secs} sec)"
            )
        };
        let script = [
            rule("a", &seq("'r1'", 5)),
            rule("b", &seq("'r1'", 9)),
            rule("c", &seq("'r2'", 5)),
            rule("d", "observation('r1', o, t2)"),
        ]
        .concat();
        assert_eq!(programs_of(&script), (2, vec![0, 0, 0, 1]));
    }

    #[test]
    fn rules_do_not_share_a_program_when_their_bodies_differ() {
        let two = "WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec)";
        let swapped = "WITHIN(observation(r, o, t2); observation(r, o, t1), 5 sec)";
        let renamed = "WITHIN(observation(x, o, t1); observation(x, o, t2), 5 sec)";
        let script = [
            format!("CREATE RULE a, a ON {two} IF true DO f(r, t1) "),
            // Another argument.
            format!("CREATE RULE b, b ON {two} IF true DO f(r, t2) "),
            // Another procedure.
            format!("CREATE RULE c, c ON {two} IF true DO g(r, t1) "),
            // A condition.
            format!("CREATE RULE d, d ON {two} IF t2 != t1 DO f(r, t1) "),
            // The same names in other slots.
            format!("CREATE RULE e, e ON {swapped} IF true DO f(r, t1) "),
            // Another variable name, in the same slot: its errors name it.
            format!("CREATE RULE f, f ON {renamed} IF true DO f(x, t1) "),
            // And `a` again.
            format!("CREATE RULE g, g ON {two} IF true DO f(r, t1) "),
        ]
        .concat();
        assert_eq!(programs_of(&script), (6, vec![0, 1, 2, 3, 4, 5, 0]));
    }

    /// Two rules share a program: a table created after `load` is written
    /// by both, and dropping one leaves the other firing.
    #[test]
    fn rules_sharing_a_program_fire_apart() {
        let mut catalog = Catalog::new();
        let r1 = catalog.readers.register("r1", "docks", "dock");
        let mut rt = RuleRuntime::new(catalog);
        let rule = |id: &str, secs: u32| {
            format!(
                "CREATE RULE {id}, {id} ON WITHIN(observation(r, o, t1); observation(r, o, t2), \
                 {secs} sec) IF true DO INSERT INTO LATE VALUES (o, t2); seen(o) "
            )
        };
        rt.load(&(rule("near", 5) + &rule("far", 50)))
            .expect("loads");
        assert_eq!(rt.programs.of_rule, [0, 0]);
        let object: Epc = Gid96::new(1, 1, 1).expect("small serial").into();
        let read = |ms: u64| Observation::new(r1, object, Timestamp::from_millis(ms));

        let schema = rfid_store::Schema::new(&[
            ("object_epc", rfid_store::ColumnType::Epc),
            ("at", rfid_store::ColumnType::Time),
        ]);
        rt.db_mut().create_table("LATE", schema);
        rt.process(read(0));
        rt.process(read(1_000));
        assert_eq!(rt.procedures().log.len(), 2, "both rules fired");
        assert_eq!(rt.db().table("LATE").expect("created").len(), 2);

        rt.load("DROP RULE near").expect("drops");
        rt.process(read(2_000));
        rt.process(read(3_000));
        rt.finish();
        // Only `far` fired again, once a read.
        assert_eq!(rt.procedures().log.len(), 4);
        assert_eq!(rt.db().table("LATE").expect("created").len(), 4);
        assert_eq!(rt.error_count(), 0);
    }

    /// A `persist` that cannot write its `.tmp` sibling fails and leaves
    /// the snapshot it would have replaced as it was.
    #[test]
    fn a_failed_persist_leaves_the_previous_snapshot() {
        let path = std::env::temp_dir().join(format!("rfid-persist-{}", std::process::id()));
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        let mut rt = RuleRuntime::new(Catalog::new());
        rt.persist(&path).expect("first snapshot");
        let before = std::fs::read(&path).unwrap();

        let object: Epc = Gid96::new(1, 1, 1).expect("small serial").into();
        rt.db_mut()
            .record_location(object, "dock", Timestamp::from_secs(1))
            .unwrap();
        std::fs::create_dir(&tmp).unwrap();
        let failed = rt.persist(&path);
        let after = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir(&tmp);
        let _ = std::fs::remove_file(&path);
        assert!(failed.is_err(), "the .tmp sibling is a directory");
        assert_eq!(after, before);
    }
}
