//! The rule runtime: scripts in, transformed data out.
//!
//! [`RuleRuntime`] ties the pieces together: it parses a script, compiles
//! each rule's event into the RCEDA engine, and — on every firing — binds
//! variables, evaluates the condition, and executes the actions against the
//! embedded [`Database`] and the [`Procedures`] registry. This is the
//! complete loop of Fig. 2: observations in, semantic data and messages out.

use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;

use rceda::{Engine, EngineConfig, Program, RuleEvent, RuleId};
use rfid_epc::hash::MixMap;
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

/// A procedure name's index in a [`CallLog`]'s name table: interned once,
/// by [`Procedures::register`], by `load` for each call a rule makes, or on
/// the first call by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(u32);

/// Call records a block holds: 8 bytes each, 12 KiB.
const CALLS_PER_BLOCK: usize = 1536;

/// Argument values a block holds: 32 bytes each, 96 KiB. Its calls and its
/// arguments each stay under glibc's 128 KiB `mmap` threshold, so a block
/// comes from the heap, not from a mapping whose pages are faulted in anew.
const ARGS_PER_BLOCK: usize = 3072;
const _: () = assert!(ARGS_PER_BLOCK * std::mem::size_of::<Value>() <= 96 << 10);

/// Spare blocks a thread keeps: 32 MiB of them, the most glibc keeps of
/// one freed mapping (the ceiling of its dynamic `mmap` threshold).
const SPARE_BLOCKS: usize = (32 << 20)
    / (CALLS_PER_BLOCK * std::mem::size_of::<(ProcId, u32)>()
        + ARGS_PER_BLOCK * std::mem::size_of::<Value>());

thread_local! {
    /// Emptied blocks of the logs this thread dropped, filled by its next
    /// logs before they ask the allocator. A runtime built and dropped
    /// again and again (a benchmark pass, a test suite) so writes into
    /// pages it already faulted in: freed, the blocks would be trimmed off
    /// the top of the heap and faulted in anew by the next log.
    static SPARE: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// A fixed-capacity run of the log: its calls and their arguments, one
/// after another.
#[derive(Clone)]
struct Block {
    /// Per call: its procedure, and the end of its arguments in `args` (the
    /// start is the call before's end).
    calls: Vec<(ProcId, u32)>,
    args: Vec<Value>,
}

impl Block {
    /// An empty block for a call of `arity` arguments: a spare one if the
    /// call fits a standard block and the thread has one, else a fresh one.
    fn open(arity: usize) -> Block {
        let spare = if arity <= ARGS_PER_BLOCK {
            SPARE
                .try_with(|spare| spare.borrow_mut().pop())
                .ok()
                .flatten()
        } else {
            None
        };
        spare.unwrap_or_else(|| Block {
            calls: Vec::with_capacity(CALLS_PER_BLOCK),
            args: Vec::with_capacity(ARGS_PER_BLOCK.max(arity)),
        })
    }

    /// Sized as [`Block::open`] sizes a block for a call that fits: not a
    /// long call's block, nor a clone's, which holds only what it copied.
    fn is_standard(&self) -> bool {
        self.calls.capacity() == CALLS_PER_BLOCK && self.args.capacity() == ARGS_PER_BLOCK
    }
}

/// Every procedure call a registry saw, in order: `(procedure, arguments)`.
///
/// A call is a [`ProcId`] and its arguments written in place into the last
/// of a list of fixed-capacity blocks; a full block is left as it is and a
/// new one opened, so the log grows without copying and, past the names
/// and the list's own doubling, allocates twice per block it opens — not
/// per call. A dropped log leaves its blocks, emptied, to the next logs
/// of its thread (up to 32 MiB of them), which open those first and
/// allocate nothing for them. A call whose argument fails to evaluate is
/// cut back to where it started: it leaves no record and no argument.
/// Iteration yields each call's name and argument slice; two logs are
/// equal when their calls are, however their blocks and ids fall.
#[derive(Clone, Default)]
pub struct CallLog {
    /// By id: the procedure's name.
    names: Vec<String>,
    ids: MixMap<String, ProcId>,
    blocks: Vec<Block>,
}

impl Drop for CallLog {
    fn drop(&mut self) {
        let blocks = self.blocks.drain(..).filter(Block::is_standard);
        // A thread tearing its locals down frees the blocks instead.
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let room = SPARE_BLOCKS.saturating_sub(spare.len());
            spare.extend(blocks.take(room).map(|mut block| {
                block.calls.clear();
                block.args.clear();
                block
            }));
        });
    }
}

impl CallLog {
    /// The id of a procedure name, interned on first sight.
    fn intern(&mut self, name: &str) -> ProcId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = ProcId(u32::try_from(self.names.len()).expect("fewer than 2^32 procedures"));
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// The id of a procedure name, if it is interned.
    pub(crate) fn id(&self, name: &str) -> Option<ProcId> {
        self.ids.get(name).copied()
    }

    /// Whether `id` is the id of `name` in this log's table.
    pub(crate) fn is(&self, id: ProcId, name: &str) -> bool {
        self.names.get(id.0 as usize).is_some_and(|n| n == name)
    }

    /// The name of an interned procedure.
    pub(crate) fn name(&self, id: ProcId) -> &str {
        &self.names[id.0 as usize]
    }

    /// How many calls are logged.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.calls.len()).sum()
    }

    /// No call is logged.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|b| b.calls.is_empty())
    }

    /// How many blocks the log has opened.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// How many argument values the blocks hold: the logged calls'
    /// arguments, no more.
    pub fn arguments(&self) -> usize {
        self.blocks.iter().map(|b| b.args.len()).sum()
    }

    /// The calls in order: each procedure's name and arguments.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            log: self,
            block: 0,
            call: 0,
        }
    }

    /// The block a call of `arity` arguments is written into: the last one
    /// if both the call and its arguments fit, else one opened.
    fn block_for(&mut self, arity: usize) -> &mut Block {
        let fits = self.blocks.last().is_some_and(|b| {
            b.calls.len() < CALLS_PER_BLOCK && b.args.len() + arity <= ARGS_PER_BLOCK
        });
        if !fits {
            self.blocks.push(Block::open(arity));
        }
        self.blocks.last_mut().expect("a block was just ensured")
    }
}

impl PartialEq for CallLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for CallLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A [`CallLog`]'s calls in order: `(procedure, arguments)`.
pub struct Iter<'a> {
    log: &'a CallLog,
    /// The next call: its block, and its index there.
    block: usize,
    call: usize,
}

impl<'a> Iter<'a> {
    /// The next call, by id.
    fn next_call(&mut self) -> Option<(ProcId, &'a [Value])> {
        loop {
            let block = self.log.blocks.get(self.block)?;
            if let Some(&(id, end)) = block.calls.get(self.call) {
                let start = match self.call {
                    0 => 0,
                    call => block.calls[call - 1].1,
                };
                self.call += 1;
                return Some((id, &block.args[start as usize..end as usize]));
            }
            self.block += 1;
            self.call = 0;
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a [Value]);

    fn next(&mut self) -> Option<Self::Item> {
        let (id, args) = self.next_call()?;
        Some((&self.log.names[id.0 as usize], args))
    }
}

impl<'a> IntoIterator for &'a CallLog {
    type Item = (&'a String, &'a [Value]);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Registry of user procedures (`send_alarm`, `send_duplicate_msg`, …).
///
/// Every call is recorded in [`Procedures::log`] whether or not a handler
/// is installed, so tests and examples can assert on calls without wiring
/// callbacks. Names are interned into the log's one table, which
/// [`Procedures::register`] and [`RuleRuntime::load`] share: a handler
/// registered after its rules were loaded still receives their calls,
/// reading the arguments where the log holds them.
#[derive(Default)]
pub struct Procedures {
    /// By procedure id: its handler, if one is registered.
    handlers: Vec<Option<ProcHandler>>,
    /// Chronological record of every call. Its name table holds the ids
    /// the handlers are kept under: replace it only in a registry without
    /// handlers.
    pub log: CallLog,
}

impl Procedures {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of a procedure name, interned on first sight.
    pub fn intern(&mut self, name: &str) -> ProcId {
        self.log.intern(name)
    }

    /// Installs a handler for a procedure name.
    pub fn register(
        &mut self,
        name: &str,
        handler: impl FnMut(&[Value]) + Send + 'static,
    ) -> &mut Self {
        let id = self.intern(name).0 as usize;
        if self.handlers.len() <= id {
            self.handlers.resize_with(id + 1, || None);
        }
        self.handlers[id] = Some(Box::new(handler));
        self
    }

    /// Invokes a procedure by name with a copy of `args`: records the
    /// call, then runs the handler if any.
    pub fn invoke(&mut self, name: &str, args: &[Value]) {
        let id = self.intern(name);
        let Ok(()) = self.call(id, args.iter().cloned().map(Ok::<_, Infallible>));
    }

    /// Invokes procedure `id`, evaluating each argument straight into the
    /// log. The first `Err` ends the call: what it wrote is cut back, no
    /// call is recorded, no handler runs, and the error is returned.
    /// Otherwise the call is recorded and the handler, if any, runs on the
    /// arguments as the log holds them.
    pub fn call<E>(
        &mut self,
        id: ProcId,
        args: impl ExactSizeIterator<Item = Result<Value, E>>,
    ) -> Result<(), E> {
        let block = self.log.block_for(args.len());
        let start = block.args.len();
        for arg in args {
            match arg {
                Ok(value) => block.args.push(value),
                Err(e) => {
                    block.args.truncate(start);
                    return Err(e);
                }
            }
        }
        let end = u32::try_from(block.args.len()).expect("a block holds < 2^32 arguments");
        block.calls.push((id, end));
        if let Some(Some(handler)) = self.handlers.get_mut(id.0 as usize) {
            handler(&block.args[start..]);
        }
        Ok(())
    }

    /// Calls logged for one procedure name.
    pub fn calls<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a [Value]> + 'a {
        let wanted = self.log.id(name);
        let mut calls = self.log.iter();
        std::iter::from_fn(move || calls.next_call())
            .filter(move |&(id, _)| Some(id) == wanted)
            .map(|(_, args)| args)
    }
}

impl fmt::Debug for Procedures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let registered = (self.handlers.iter().enumerate())
            .filter(|(_, h)| h.is_some())
            .map(|(id, _)| self.log.name(ProcId(id as u32)));
        f.debug_struct("Procedures")
            .field("handlers", &registered.collect::<Vec<_>>())
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
    fn push(&mut self, decl: &RuleDecl, event: &EventAst, db: &Database, procs: &mut Procedures) {
        let fresh = self.programs.len() as u32;
        let programs = &mut self.programs;
        let program = *self
            .interned
            .entry(PreparedRule::lower(decl, event))
            .or_insert_with_key(|body| {
                let mut program = body.clone();
                program.resolve(db, procs);
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
            self.programs.push(&rule, &event, &self.db, &mut self.procs);
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

    /// The procedure registry (inspect its [`CallLog`] in tests).
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
            .map(|t| t.iter().collect::<Vec<_>>())
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

    /// Calls of three procedures and of every arity, some failing at their
    /// second argument, over blocks that fill by arguments, then by calls,
    /// and one block of a call too long for any: the log reads back the
    /// calls that succeeded, in order, holds no argument of one that
    /// failed, and a handler sees what the log holds.
    #[test]
    fn the_call_log_reads_back_in_order_across_blocks() {
        let mut procs = Procedures::new();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let handled = std::sync::Arc::clone(&seen);
        procs.register("b", move |args| handled.lock().unwrap().push(args.to_vec()));
        let mut expected = Vec::new();
        for n in 0..8_000usize {
            let name = ["a", "b", "c"][n % 3];
            let arity = match n {
                // Three arguments a call: blocks fill by arguments.
                ..3_000 => 3,
                5_000 => ARGS_PER_BLOCK + 1,
                // 1.5 a call: blocks fill by calls.
                _ => n % 4,
            };
            let args: Vec<Value> = (0..arity)
                .map(|k| Value::Int((n * 10 + k) as i64))
                .collect();
            if n % 7 == 3 && arity >= 2 {
                // The second argument misses.
                let evaluated = args.iter().enumerate().map(|(k, value)| match k {
                    1 => Err(n),
                    _ => Ok(value.clone()),
                });
                let id = procs.intern(name);
                assert_eq!(procs.call(id, evaluated), Err(n));
            } else {
                procs.invoke(name, &args);
                expected.push((name.to_owned(), args));
            }
        }
        let log = &procs.log;
        assert!(log.blocks() > 5, "{} blocks", log.blocks());
        assert_eq!(log.len(), expected.len());
        let read: Vec<_> = log.iter().map(|(n, a)| (n.clone(), a.to_vec())).collect();
        assert_eq!(read, expected);
        let held: usize = expected.iter().map(|(_, args)| args.len()).sum();
        assert_eq!(log.arguments(), held);
        let b_calls: Vec<_> = procs.calls("b").map(<[Value]>::to_vec).collect();
        assert_eq!(*seen.lock().unwrap(), b_calls);
        assert_eq!(
            b_calls.len(),
            expected.iter().filter(|(n, _)| n == "b").count()
        );
    }

    /// A dropped log's standard blocks, emptied, are the next log's on the
    /// same thread — the very allocations, holding none of the old calls —
    /// and the thread keeps no more than `SPARE_BLOCKS` of them.
    #[test]
    fn a_dropped_log_leaves_its_blocks_to_the_next() {
        let spare = || SPARE.with(|spare| spare.borrow().len());
        let calls = |procs: &mut Procedures, n: usize, arity: usize, from: i64| {
            for k in 0..n {
                procs.invoke("a", &vec![Value::Int(from + k as i64); arity]);
            }
        };
        let addresses = |log: &CallLog| -> Vec<usize> {
            log.blocks
                .iter()
                .map(|b| b.args.as_ptr() as usize)
                .collect()
        };
        assert_eq!(spare(), 0);
        let mut first = Procedures::new();
        // Three full blocks of three-argument calls, and one overlong call.
        calls(&mut first, 3 * 1024, 3, 0);
        first.invoke("long", &vec![Value::Null; ARGS_PER_BLOCK + 1]);
        let kept = addresses(&first.log)[..3].to_vec();
        drop(first);
        assert_eq!(spare(), 3);

        let mut second = Procedures::new();
        calls(&mut second, 1025, 3, 10_000);
        assert_eq!(spare(), 1);
        assert!(addresses(&second.log).iter().all(|a| kept.contains(a)));
        let expected: Vec<_> = (0..1025).map(|k| vec![Value::Int(10_000 + k); 3]).collect();
        assert_eq!(
            second.calls("a").map(<[Value]>::to_vec).collect::<Vec<_>>(),
            expected
        );
        assert_eq!(second.log.arguments(), 3 * 1025);

        let mut many = Procedures::new();
        calls(&mut many, (SPARE_BLOCKS + 2) * CALLS_PER_BLOCK, 0, 0);
        drop(many);
        drop(second);
        assert_eq!(spare(), SPARE_BLOCKS);
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
