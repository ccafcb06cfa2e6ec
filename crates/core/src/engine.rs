//! The RCEDA driver (§4.5–§4.6).
//!
//! [`Engine`] owns the event graph, per-node state, and the timeline of
//! pseudo events. Its processing loop is the paper's algorithm verbatim:
//!
//! * incoming observations and due pseudo events are consumed in global
//!   timestamp order (observations win ties: everything read at the instant
//!   a window closes is seen before the window is resolved);
//! * a primitive occurrence activates every matching leaf and propagates
//!   upward (`ACTIVATE_PARENT_NODE`), with temporal constraints checked
//!   *during* propagation;
//! * non-spontaneous constituents are resolved by querying their recorded
//!   histories (`QUERY_INTERVAL_NODE`), either immediately when the past
//!   suffices or via a scheduled pseudo event when the window extends into
//!   the future (`GENERATE_PSEUDO_EVENT`);
//! * every occurrence reaching a node with rules attached fires those rules
//!   into the caller's sink.
//!
//! Detection runs under the chronicle parameter context: FIFO buffers,
//! oldest-compatible matching, and consumption on use. What that must fire
//! is written down in docs/SEMANTICS.md and checked from outside: the
//! differential suites compare this engine — the only executor there is —
//! to a naive interpreter of that document
//! (`tests/support/reference.rs`), which shares none of the code below.
//!
//! Internally the engine is split in two (DESIGN.md §10): the compiled
//! [`Program`] is immutable between rule-set changes, while all mutable
//! detection state lives in [`Runtime`]. Propagation borrows nodes (plans,
//! join specs, windows) straight out of the graph for the duration of an
//! arrival while mutating runtime state — no per-arrival plan or kind
//! clones — and the per-event work queue is a buffer reused across events.

use std::ops::Range;
use std::sync::Arc;

use rfid_events::{dist, interval2, Catalog, EventExpr, Instance, Observation, Span, Timestamp};

use crate::error::InvalidRule;
use crate::graph::{EventGraph, Node, NodeId, NodeKind, Plan};
use crate::key::{extract_all, Key, KeySpecId};
use crate::obs::{FlightRecorder, Histogram, ObsState, ObserveLevel, TelemetrySnapshot};
use crate::plan::{CompiledPlan, EdgeOp, InlineBuf, Member, LEAF_HITS_INLINE};
use crate::program::{Program, RuleEvent, Store};
use crate::state::{
    AperiodicState, Found, KeyTable, NodeState, TimedRunState, WaitEntry, WaitState,
};
use crate::stats::EngineStats;
use crate::timeline::{Deadline, Due, Timeline};

/// Identifier of a registered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-key buffer cap for join sides the bounds solver cannot bound by
    /// time (the left side of a plain `SEQ` without `WITHIN`). Every other
    /// side prunes at its solved retention instead.
    pub unbounded_cap: usize,
    /// Observability level ([`crate::obs`]): `Off` (default) keeps the hot
    /// path unobserved, `Counters` maintains the per-node metrics arena
    /// (≤3% overhead, gated), `Full` adds latency/occupancy histograms and
    /// the firing flight recorder. Never changes what fires.
    pub observe: ObserveLevel,
    /// Flight-recorder ring capacity (records kept); 0 disables recording
    /// even at `Full`.
    pub flight_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            unbounded_cap: 1024,
            observe: ObserveLevel::Off,
            flight_capacity: 64,
        }
    }
}

/// The occurrence sink: called for every rule firing with the rule and the
/// detected instance.
pub type Sink<'s> = dyn FnMut(RuleId, &Instance) + 's;

/// Chunk size [`Engine::process_all`] cuts a stream into; matches the shard
/// pipeline's default flush size.
pub const PROCESS_ALL_BATCH: usize = 1024;

/// The RFID complex event detection engine.
pub struct Engine {
    /// The rule set and what it compiles to. Read through
    /// [`Engine::program`], which re-solves it after a rule-set change.
    program: Program,
    catalog: Catalog,
    /// All mutable detection state; hot-path methods live here and borrow
    /// the graph immutably alongside.
    rt: Runtime,
    rule_enabled: Vec<bool>,
    rule_firings: Vec<u64>,
    config: EngineConfig,
}

/// The mutable half of the engine: per-node state, the timeline (clock,
/// sequence and deadlines), and reusable hot-path buffers. Methods that run
/// once per arrival take `&EventGraph` explicitly, so the borrow checker
/// sees graph reads and state writes as disjoint — the reason `arrival` can
/// match on a node's plan by reference instead of cloning it.
struct Runtime {
    states: Vec<NodeState>,
    /// Keyed state, one table per interned key spec ([`KeySpecId`]).
    tables: Vec<KeyTable>,
    timeline: Timeline,
    stats: EngineStats,
    /// Reused propagation queue: occurrences waiting to fire rules and
    /// activate parents. Fully drained by `run_work` after every event, so
    /// its capacity (not its contents) carries over between events.
    work: Vec<Work>,
    /// Observability state ([`crate::obs`]): the cached observe level, the
    /// per-node metrics arena, histograms, and the flight recorder. Living
    /// here keeps every instrumentation site a plain field access — no
    /// extra parameters through the arrival handlers.
    obs: ObsState,
    /// The keys of the instance being propagated, one per interned spec.
    keys: KeyMemo,
}

/// One entry of the propagation queue.
enum Work {
    /// An occurrence at a node: fires the node's rules, then activates its
    /// parents.
    At(NodeId, Arc<Instance>),
    /// One emission of a window family.
    Family(Emission),
}

/// One emission of a window family (DESIGN.md "Window families"): the
/// `members` of the family `holder` holds, fired widest first, each with
/// its own occurrence built when the entry pops. `inst` is the self-join's
/// pair, which every member fires as it is, or — with `absent_to` set —
/// the negated-initiator query's terminator, which each member pairs with
/// the absence witness of its own window.
struct Emission {
    holder: NodeId,
    /// A range of [`CompiledPlan::family`], whose bounds are `u32`.
    members: Range<u32>,
    inst: Arc<Instance>,
    absent_to: Option<Timestamp>,
}

/// The correlation keys of the current work-queue pop, memoised per
/// interned key spec ([`KeySpecId`]): every parent edge that reads the same
/// extraction list off the same arrival shares one extraction, one pack, one
/// hash and one probe of the spec's table ([`Found`]). A slot is current
/// when it carries the pop's generation.
#[derive(Debug, Default)]
struct KeyMemo {
    /// Never wraps: one bump per pop.
    generation: u64,
    slots: Vec<(u64, Option<Key>, Found)>,
    /// Lent beside the empty key: the empty spec's one slot needs no probe.
    empty: Found,
}

/// What [`KeyMemo::key`] lends for the empty spec: the uncorrelated key,
/// never extracted.
static EMPTY_KEY: Key = Key::EMPTY;

impl KeyMemo {
    /// Sizes the memo for a graph's interned specs (after a re-solve).
    fn resize(&mut self, specs: usize) {
        self.slots.resize(specs, (0, None, Found::Unprobed));
    }

    /// Invalidates every slot: a new instance is being propagated.
    #[inline]
    fn next_pop(&mut self) {
        self.generation += 1;
    }

    /// The key `spec` extracts from `inst`, the current pop's instance, and
    /// where it sits in `spec`'s table — `None` when a path does not
    /// resolve. The engine's one extraction site: extracted on the first
    /// read per pop, borrowed after.
    #[inline]
    fn key(
        &mut self,
        graph: &EventGraph,
        spec: KeySpecId,
        inst: &Instance,
    ) -> Option<(&Key, &mut Found)> {
        if spec == KeySpecId::EMPTY {
            return Some((&EMPTY_KEY, &mut self.empty));
        }
        let (generation, key, found) = &mut self.slots[spec.idx()];
        if *generation != self.generation {
            let fresh = extract_all(graph.key_spec(spec), inst);
            (*generation, *key, *found) = (self.generation, fresh, Found::Unprobed);
        }
        debug_assert_eq!(
            *key,
            extract_all(graph.key_spec(spec), inst),
            "the memoised key is the one a fresh extraction builds"
        );
        Some((key.as_ref()?, found))
    }
}

impl Engine {
    /// Creates an engine over a fixed deployment catalog. Register readers
    /// and object types in the catalog *before* building the engine — leaf
    /// dispatch resolves names against it.
    pub fn new(catalog: Catalog, config: EngineConfig) -> Self {
        Self {
            program: Program::new(),
            catalog,
            rt: Runtime {
                states: Vec::new(),
                tables: Vec::new(),
                timeline: Timeline::default(),
                stats: EngineStats::default(),
                work: Vec::new(),
                obs: ObsState::new(config.observe, config.flight_capacity),
                keys: KeyMemo::default(),
            },
            rule_enabled: Vec::new(),
            rule_firings: Vec::new(),
            config,
        }
    }

    /// Builds an engine over `catalog` preloaded with a subset of rules —
    /// the constructor the sharded pipeline uses to stamp out per-worker
    /// engines from disjoint slices of one coordinator catalog. Rules are
    /// registered in iteration order, so worker-local [`RuleId`]s map
    /// positionally onto the caller's subset.
    pub fn with_rules<'r, I>(
        catalog: Catalog,
        config: EngineConfig,
        rules: I,
    ) -> Result<Self, InvalidRule>
    where
        I: IntoIterator<Item = (&'r str, &'r EventExpr)>,
    {
        let mut engine = Self::new(catalog, config);
        for (name, event) in rules {
            engine.add_rule(name, event.clone())?;
        }
        Ok(engine)
    }

    /// Registers a rule: its event expression is compiled into the shared
    /// graph (merging common structure) and validated (§4.4). Returns the
    /// rule id used in sink callbacks.
    pub fn add_rule(&mut self, name: &str, event: EventExpr) -> Result<RuleId, InvalidRule> {
        let rule = self.program.add_rule(RuleEvent::new(name, name, event))?;
        self.rule_enabled.push(true);
        self.rule_firings.push(0);
        Ok(rule)
    }

    /// Builds the state of every node past the seal, a rejected rule's
    /// included (its leaves dispatch too): none has seen the stream, so a
    /// rebuild loses nothing and sizes it for the parents registered since.
    /// Their lanes are added to the key tables, an empty lane in every slot
    /// already there.
    fn rebuild_states(&mut self) {
        let (program, rt, cap) = (&self.program, &mut self.rt, self.config.unbounded_cap);
        let (graph, sealed) = (program.graph(), program.graph().sealed());
        rt.states.truncate(sealed);
        if sealed == 0 {
            rt.tables.clear();
        }
        for table in &mut rt.tables {
            table.truncate(NodeId(sealed as u32));
        }
        let specs = rt.tables.len()..graph.key_spec_count();
        rt.tables
            .extend(specs.map(|s| KeyTable::new(KeySpecId(s as u32))));
        for node in &graph.nodes()[sealed..] {
            rt.states
                .push(initial_state(program, &mut rt.tables, cap, node));
        }
    }

    /// Brings the program up to date and seals its graph: a rule loaded
    /// from here on shares no state with it (docs/SEMANTICS.md §6).
    fn seal(&mut self) {
        self.program();
        self.program.seal();
    }

    /// Feeds one observation: a one-element [`Engine::process_batch`].
    pub fn process(&mut self, obs: Observation, sink: &mut Sink<'_>) {
        self.process_batch(std::slice::from_ref(&obs), sink);
    }

    /// Feeds a contiguous batch of observations — the engine's one
    /// observation loop (DESIGN.md §13). Observations must arrive in
    /// non-decreasing timestamp order (the middleware's stream order), and
    /// each is handled exactly as the paper prescribes: due pseudo events
    /// first, then leaf activation and upward propagation. A read behind
    /// the clock is not matched: it is counted in
    /// [`EngineStats::late_rejected`] instead of `events`. Firings and
    /// their order do not depend on how a stream is cut into batches; the
    /// per-event overheads are amortized over each one:
    ///
    /// * the check for a changed rule set ([`Engine::program`]) runs once
    ///   per batch;
    /// * leaf dispatch resolves the compiled reader row once per
    ///   contiguous same-reader run;
    /// * whether anything is due before an observation is one comparison
    ///   against the timeline's cached head.
    ///
    /// Nothing runs at a batch boundary: a store drops its dead entries as
    /// it admits, at the clock of that admission, so expiry and every
    /// counter follow the stream alone, not where it is cut.
    pub fn process_batch(&mut self, batch: &[Observation], sink: &mut Sink<'_>) {
        if batch.is_empty() {
            return;
        }
        self.seal();
        self.rt.stats.batches_processed += 1;
        let full = self.rt.obs.level.full();
        let mut i = 0;
        while i < batch.len() {
            // The compiled dispatch row depends only on the reader: resolve
            // it once per contiguous same-reader run.
            let reader = batch[i].reader;
            let row = self.program.plan().reader_row(reader.0);
            let can_match = self.program.plan().row_can_match(row);
            let mut j = i;
            while j < batch.len() && batch[j].reader == reader {
                let obs = batch[j];
                j += 1;
                if self.rt.timeline.is_late(obs.at) {
                    self.rt.stats.late_rejected += 1;
                    continue;
                }
                let obs_t0 = full.then(std::time::Instant::now);
                self.fire_due(Some(obs.at), sink);
                self.rt.timeline.advance(obs.at);
                self.rt.stats.events += 1;
                if can_match {
                    // Matched leaves collect in an inline fixed-capacity
                    // queue, so the common miss/single-hit cases never
                    // allocate.
                    let mut hits: InlineBuf<NodeId, LEAF_HITS_INLINE> = InlineBuf::default();
                    let plan = self.program.plan();
                    plan.leaf_hits_in_row(&self.catalog, &obs, row, &mut hits);
                    if !hits.is_empty() {
                        self.rt.activate_leaves(obs, hits.iter().copied());
                        self.run_work(sink);
                    }
                }
                if let Some(t0) = obs_t0 {
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.rt.obs.latency_ns.record(ns);
                }
            }
            i = j;
        }
    }

    /// Feeds a whole stream, then drains remaining pseudo events so windows
    /// extending past the last observation resolve. The stream goes through
    /// [`Engine::process_batch`] in [`PROCESS_ALL_BATCH`]-observation chunks.
    pub fn process_all<I>(&mut self, stream: I, sink: &mut Sink<'_>)
    where
        I: IntoIterator<Item = Observation>,
    {
        let mut buf: Vec<Observation> = Vec::with_capacity(PROCESS_ALL_BATCH);
        for obs in stream {
            buf.push(obs);
            if buf.len() == PROCESS_ALL_BATCH {
                self.process_batch(&buf, sink);
                buf.clear();
            }
        }
        self.process_batch(&buf, sink);
        self.finish(sink);
    }

    /// Drains every pending pseudo event (end of stream): negation windows
    /// and open `TSEQ+` runs resolve as if time advanced past them.
    pub fn finish(&mut self, sink: &mut Sink<'_>) {
        self.seal();
        self.fire_due(None, sink);
    }

    /// Advances the clock to `now`, executing due pseudo events, without
    /// feeding an observation (heartbeat for quiet streams).
    pub fn advance_to(&mut self, now: Timestamp, sink: &mut Sink<'_>) {
        self.seal();
        self.fire_due(Some(now), sink);
        self.rt.timeline.advance(now);
    }

    /// Fires every pseudo event due strictly before `before`, or every one
    /// at all when it is `None` (end of stream), in `(at, seq)` order — the
    /// one loop behind the observation, heartbeat and end-of-stream paths.
    #[inline]
    fn fire_due(&mut self, before: Option<Timestamp>, sink: &mut Sink<'_>) {
        while let Some(deadline) = self.rt.timeline.pop_due(before) {
            self.fire_pseudo(deadline, sink);
        }
    }

    /// Counters, including buffered-capacity drops and the negation-history
    /// key gauge.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.rt.stats;
        s.pseudo_scheduled = self.rt.timeline.scheduled();
        // As of the last solve, like the state the other counters describe.
        s.plan_nodes = self.program.plan().node_count() as u64;
        s.plan_arena_bytes = self.program.plan().arena_bytes() as u64;
        s.buffered_entries = self.buffered_instances() as u64;
        for table in &self.rt.tables {
            for lane in &table.joins {
                s.capacity_drops += lane.dropped;
                s.join_keys += lane.keys as u64;
            }
            s.retained_keys += table.hists.iter().map(|l| l.keys as u64).sum::<u64>();
        }
        for state in &self.rt.states {
            if let NodeState::TimedRun(run) = state {
                s.run_spills += run.open.spills();
                s.max_run_depth = s.max_run_depth.max(run.open.high_water());
            }
        }
        s
    }

    /// The compiled event graph (inspection, tests, benches).
    pub fn graph(&self) -> &EventGraph {
        self.program.graph()
    }

    /// What the rule set compiles to, re-solved first if the rule set
    /// changed since the last call — once per change, never per event. The
    /// one place the engine's runtime state follows a recompile: the nodes
    /// past the seal get fresh state, each store with its solved retention,
    /// and the metrics arena is sized for them. State below the seal stays
    /// where it is: no holder of a sealed node moves, and no sealed store's
    /// retention changes.
    pub fn program(&mut self) -> &Program {
        if self.program.solve(Some(&self.catalog)) {
            self.rebuild_states();
            self.rt.obs.arena.ensure_len(self.program.graph().len());
            self.rt.keys.resize(self.program.graph().key_spec_count());
        }
        &self.program
    }

    /// The lowered execution plan of the current rule set.
    pub fn compiled_plan(&mut self) -> &CompiledPlan {
        self.program().plan()
    }

    /// Total instances currently held in join buffers, negation histories,
    /// aperiodic stores, open runs, and waits — the engine's working-set
    /// gauge (memory diagnostics; expiry keeps it bounded).
    pub fn buffered_instances(&self) -> usize {
        let keyed = self.rt.tables.iter().map(|t| {
            let joins = t.joins.iter().map(|l| l.len);
            joins.chain(t.hists.iter().map(|l| l.len)).sum::<usize>()
        });
        let own = self.rt.states.iter().map(|s| match s {
            NodeState::Stateless | NodeState::Keyed(_) => 0,
            NodeState::Aperiodic(ap) => ap.len(),
            NodeState::TimedRun(run) => run.open.len(),
            NodeState::Wait(w) => w.waiting.len(),
        });
        keyed.chain(own).sum()
    }

    /// The deployment catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Name of a rule.
    pub fn rule_name(&self, rule: RuleId) -> &str {
        &self.program.rules()[rule.0 as usize].name
    }

    /// Root graph node of a rule.
    pub fn rule_root(&self, rule: RuleId) -> NodeId {
        self.program.roots()[rule.0 as usize]
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.program.rules().len()
    }

    /// Enables or disables a rule. Disabled rules stop firing immediately;
    /// the graph keeps detecting on its nodes, which other rules of its
    /// load may share, and re-enabling resumes from that state. Returns the
    /// previous state.
    pub fn set_rule_enabled(&mut self, rule: RuleId, enabled: bool) -> bool {
        let slot = &mut self.rule_enabled[rule.0 as usize];
        std::mem::replace(slot, enabled)
    }

    /// Firings so far, per rule (indexed by [`RuleId`]).
    pub fn firings_per_rule(&self) -> &[u64] {
        &self.rule_firings
    }

    /// Clears all runtime state — buffers, histories, open runs, waits,
    /// pending pseudo events, clock, counters — while keeping the compiled
    /// rules. After `reset()` the engine behaves as if freshly built, so
    /// benchmark iterations and replays skip recompilation. The seal is
    /// cleared: no node has seen the stream.
    pub fn reset(&mut self) {
        self.program.unseal();
        self.program();
        self.rebuild_states();
        self.rt.timeline = Timeline::default();
        self.rt.stats = EngineStats::default();
        self.rt.obs.reset();
        for f in &mut self.rule_firings {
            *f = 0;
        }
    }

    /// The configured observability level ([`EngineConfig::observe`]).
    pub fn observe_level(&self) -> ObserveLevel {
        self.rt.obs.level
    }

    /// The firing provenance flight recorder. Populated only at
    /// [`ObserveLevel::Full`]; empty otherwise.
    pub fn flight(&self) -> &FlightRecorder {
        &self.rt.obs.flight
    }

    /// An exportable point-in-time telemetry snapshot: stats totals, the
    /// per-node metrics arena labelled with compiled-plan op names, and the
    /// latency/occupancy histograms, all node-aligned with the current
    /// [`Engine::program`]. The queue-depth histogram is filled by the
    /// sharded pipeline ([`crate::shard::ShardedEngine::telemetry`]); empty
    /// here.
    pub fn telemetry(&mut self) -> TelemetrySnapshot {
        let program = self.program();
        let ops = program.graph().nodes().iter().map(|n| n.plan.name());
        let ops = ops.collect();
        TelemetrySnapshot {
            label: "engine".to_owned(),
            clock_ms: self.rt.timeline.clock().as_millis(),
            stats: self.stats(),
            ops,
            nodes: self.rt.obs.arena.clone(),
            latency_ns: self.rt.obs.latency_ns,
            occupancy: self.rt.obs.occupancy,
            queue_depth: Histogram::default(),
        }
    }

    /// Whether a rule is currently enabled.
    pub fn rule_enabled(&self, rule: RuleId) -> bool {
        self.rule_enabled[rule.0 as usize]
    }

    /// The engine clock (timestamp of the last consumed event).
    pub fn clock(&self) -> Timestamp {
        self.rt.timeline.clock()
    }

    fn fire_pseudo(&mut self, deadline: Deadline, sink: &mut Sink<'_>) {
        self.rt.stats.pseudo_fired += 1;
        match deadline.due {
            Due::CloseRun { node } => {
                let mut rearm = None;
                let run = match &mut self.rt.states[node.idx()] {
                    NodeState::TimedRun(run) if run.armed => {
                        if deadline.at == run.close_exec && deadline.seq == run.close_seq {
                            run.armed = false;
                            run.open.take_all()
                        } else {
                            // Stale: the run advanced after this closure was
                            // armed. Push it back at the recorded position —
                            // the exact `(at, seq)` a per-element schedule
                            // would have used, so ordering is unchanged while
                            // the queue holds one entry per run instead of
                            // one per element.
                            rearm = Some((run.close_exec, run.close_seq));
                            Vec::new()
                        }
                    }
                    _ => return,
                };
                if let Some((at, seq)) = rearm {
                    self.rt.timeline.schedule(at, seq, Due::CloseRun { node });
                    return;
                }
                if !run.is_empty() {
                    let inst = Arc::new(Instance::composite("TSEQ+", run));
                    self.rt.work.push(Work::At(node, inst));
                    self.run_work(sink);
                }
            }
            Due::ResolveWait { node } => {
                let entry = match &mut self.rt.states[node.idx()] {
                    NodeState::Wait(w) => w.waiting.remove(&deadline.seq),
                    _ => None,
                };
                let Some(entry) = entry else { return };
                let n = self.program.graph().node(node);
                let not_side = match n.plan {
                    Plan::AndNegation { not_side } => not_side,
                    Plan::RightNegationWait => 1,
                    other => unreachable!("ResolveWait on plan {other:?}"),
                };
                let kind_name = n.kind.name();
                if self.rt.obs.level.counters() {
                    // The deferred window-close check is this node's probe.
                    self.rt.obs.arena.probed(node.idx());
                }
                let (table, lane) = self.rt.hist_lane(n, not_side);
                let key = (&entry.key, &mut Found::Unprobed);
                let window = (entry.from, deadline.at);
                let occurred = self.rt.tables[table].occurred(lane, key, window, false);
                if !occurred {
                    let absence = Arc::new(Instance::absence(entry.from, deadline.at));
                    let inst = if not_side == 0 {
                        Instance::pair(kind_name, absence, entry.inst)
                    } else {
                        Instance::pair(kind_name, entry.inst, absence)
                    };
                    self.rt.work.push(Work::At(node, Arc::new(inst)));
                    self.run_work(sink);
                }
            }
        }
    }

    /// The ACTIVATE_PARENT_NODE loop over the compiled plan: drains
    /// `rt.work`, propagating each occurrence to the node's rules and
    /// parents (arrival handlers push further occurrences onto the same
    /// queue). Rule fan-out is a range scan over the flat rule arena and
    /// parent activation follows precomputed [`EdgeOp`] edges — no hash
    /// probes, no per-delivery side derivation.
    fn run_work(&mut self, sink: &mut Sink<'_>) {
        let Self {
            program,
            rt,
            rule_enabled,
            rule_firings,
            ..
        } = self;
        let (graph, plan) = (program.graph(), program.plan());
        while let Some(work) = rt.work.pop() {
            let (node_id, inst) = match work {
                Work::At(node_id, inst) => (node_id, inst),
                Work::Family(emission) => {
                    rt.fire_family(graph, plan, rule_enabled, rule_firings, sink, emission);
                    continue;
                }
            };
            rt.keys.next_pop();
            rt.fire_rules(plan, rule_enabled, rule_firings, sink, node_id, &inst);
            for edge in plan.edges_at(node_id) {
                let pnode = graph.node(edge.parent());
                match edge.op() {
                    EdgeOp::SelfJoin => rt.self_join_arrival(graph, plan, pnode, &inst),
                    EdgeOp::Left => rt.arrival(graph, plan, pnode, 0, &inst),
                    EdgeOp::Right => rt.arrival(graph, plan, pnode, 1, &inst),
                }
            }
        }
    }
}

impl Runtime {
    /// Queues the primitive occurrence of `obs` at every leaf it matched.
    fn activate_leaves(&mut self, obs: Observation, leaves: impl Iterator<Item = NodeId>) {
        self.stats.matched_events += 1;
        let inst = Arc::new(Instance::observation(obs));
        self.work
            .extend(leaves.map(|leaf| Work::At(leaf, inst.clone())));
    }

    /// One work-queue pop of `inst` at `node`, short of activating its
    /// parents: counts the occurrence and fires the node's enabled rules
    /// into the sink and the flight recorder. An ordinary pop and every
    /// member of a family emission come here. Under a plain `#[inline]`
    /// the release build keeps it out of line, a call on every ordinary
    /// pop.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn fire_rules(
        &mut self,
        plan: &CompiledPlan,
        rule_enabled: &[bool],
        rule_firings: &mut [u64],
        sink: &mut Sink<'_>,
        node: NodeId,
        inst: &Instance,
    ) {
        self.stats.occurrences += 1;
        let observe = self.obs.level;
        if observe.counters() {
            self.obs.arena.arrived(node.idx());
        }
        for &rule in plan.rules_at(node) {
            if !rule_enabled[rule.0 as usize] {
                continue;
            }
            self.stats.rule_firings += 1;
            rule_firings[rule.0 as usize] += 1;
            sink(rule, inst);
            if observe.counters() {
                self.obs.arena.fired(node.idx());
                if observe.full() {
                    self.obs.flight.offer(rule, self.timeline.clock(), inst);
                }
            }
        }
    }

    /// Fires a family emission's members where their own pops would have
    /// come: members feed no parent (`CompiledPlan::family_key`), so
    /// serving them all at once keeps that order. Kept out of `run_work`'s
    /// loop, which every ordinary pop runs.
    #[inline(never)]
    fn fire_family(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        rule_enabled: &[bool],
        rule_firings: &mut [u64],
        sink: &mut Sink<'_>,
        emission: Emission,
    ) {
        let Emission {
            holder,
            members,
            inst,
            absent_to,
        } = emission;
        let family = &plan.family(holder)[members.start as usize..members.end as usize];
        let Some(to) = absent_to else {
            for m in family.iter().rev() {
                self.fire_rules(plan, rule_enabled, rule_firings, sink, m.node, &inst);
            }
            return;
        };
        let name = graph.node(holder).kind.name();
        let (narrowest, wider) = family.split_first().expect("an emission reaches a member");
        // One witness per entry, re-armed in place; the narrowest member,
        // fired last, takes the witness and the terminator themselves.
        let mut spare = None;
        for m in wider.iter().rev() {
            let absence = rearm(spare.take(), absent_witness(m.cutoff, &inst, to));
            let out = Instance::pair(name, absence.clone(), inst.clone());
            self.fire_rules(plan, rule_enabled, rule_firings, sink, m.node, &out);
            spare = Some(absence);
        }
        let absence = rearm(spare, absent_witness(narrowest.cutoff, &inst, to));
        let out = Instance::pair(name, absence, inst);
        self.fire_rules(plan, rule_enabled, rule_firings, sink, narrowest.node, &out);
    }

    /// Queues one emission of the family `holder` holds to its `members`
    /// (a non-empty range of [`CompiledPlan::family`]): one entry, expanded
    /// member by member when it pops. A holder that feeds parents is the
    /// sole member of its own family, and its parents buffer what it
    /// emits, so its occurrence is built on the heap and queued as an
    /// ordinary one.
    fn emit_family(
        &mut self,
        plan: &CompiledPlan,
        holder: &Node,
        members: Range<usize>,
        inst: Arc<Instance>,
        absent_to: Option<Timestamp>,
    ) {
        debug_assert!(!members.is_empty(), "an emission reaches a member");
        if plan.edges_at(holder.id).is_empty() {
            self.work.push(Work::Family(Emission {
                holder: holder.id,
                members: members.start as u32..members.end as u32,
                inst,
                absent_to,
            }));
            return;
        }
        let [sole] = plan.family(holder.id) else {
            unreachable!("a family member feeds no parent");
        };
        let out = match absent_to {
            None => inst,
            Some(to) => {
                let witness = Arc::new(absent_witness(sole.cutoff, &inst, to));
                Arc::new(Instance::pair(holder.kind.name(), witness, inst))
            }
        };
        self.work.push(Work::At(holder.id, out));
    }

    /// Arrival at a binary node whose two children are the same node: the
    /// instance first tries to terminate an older initiator, then becomes an
    /// initiator itself. This yields the chained pairing Rule 1 needs
    /// ((e1,e2), (e2,e3), …) without ever pairing an instance with itself.
    ///
    /// `node` holds the state of its whole window family: the probe runs
    /// once, at the family's widest window, and the pair goes to every
    /// member whose own window covers its interval — each at its own node,
    /// so rules, `occurrences` and the per-node counters see exactly the
    /// pops an unshared plan would have made.
    fn self_join_arrival(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        inst: &Arc<Instance>,
    ) {
        debug_assert_eq!(node.plan, Plan::TwoSided, "self-join is always two-sided");
        let spec = node.join.ids[0];
        debug_assert_eq!(spec, node.join.ids[1], "one child, one key spec");
        let Some(key) = self.keys.key(graph, spec, inst) else {
            return;
        };
        let kind = &node.kind;
        let family = plan.family(node.id);
        let within = family.last().expect("a holder is in its family").cutoff;

        if self.obs.level.counters() {
            // One bucket access both probes for a partner and admits the
            // instance as a future initiator.
            self.obs.arena.probed_admitted(node.id.idx());
        }
        let lane = self.states[node.id.idx()].lanes()[0];
        let table = &mut self.tables[spec.idx()];
        // Take-and-admit in one slot access: the instance scans for an
        // older initiator to terminate and is enqueued as an initiator
        // itself.
        let (matched, dropped) = table.take_match_and_push(
            lane,
            key,
            self.timeline.clock(),
            |e| !Arc::ptr_eq(e, inst) && pair_ok(kind, within, e, inst),
            inst.clone(),
        );
        if self.obs.level.full() {
            let occ = table.joins[lane as usize].len as u64;
            self.obs.occupancy.record(occ);
        }
        count_expiry(&mut self.stats, &mut self.obs, node.id, dropped);
        if let Some(e) = matched {
            let out = Arc::new(Instance::pair(kind.name(), e, inst.clone()));
            // The probe ran at the widest cut-off, so the widest member is
            // always reached.
            let reached = family.partition_point(|m| m.cutoff < out.interval());
            self.emit_family(plan, node, reached..family.len(), out, None);
        }
    }

    /// Handles an instance arriving at `node` from its `side`-th child: one
    /// handler per [`Plan`] kind. Emissions are pushed onto the reusable
    /// work queue.
    fn arrival(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        side: u8,
        inst: &Arc<Instance>,
    ) {
        match node.plan {
            Plan::Leaf => unreachable!("leaves have no children"),
            Plan::Forward if inst.interval() <= node.within => {
                let wrapped = Arc::new(Instance::wrap("OR", inst.clone()));
                self.work.push(Work::At(node.id, wrapped));
            }
            Plan::Forward => {}
            Plan::TwoSided => self.two_sided(graph, node, side, inst),
            Plan::LeftNegationQuery => {
                debug_assert_eq!(side, 1, "negated initiator never delivers");
                self.left_negation_query(graph, plan, node, inst);
            }
            Plan::LeftAperiodicQuery => {
                debug_assert_eq!(side, 1, "the run never delivers");
                self.left_aperiodic_query(node, inst);
            }
            Plan::RightNegationWait => {
                debug_assert_eq!(side, 0, "negated terminator never delivers");
                self.right_negation_wait(graph, node, inst);
            }
            Plan::AndNegation { not_side } => {
                debug_assert_eq!(side, 1 - not_side, "arrivals come from the push side");
                let from = inst.t_end().saturating_sub(node.within);
                let to = inst.t_begin() + node.within;
                self.wait_on_negation(graph, node, not_side, inst, from, to);
            }
            Plan::NegationRecorder => self.record_negation(graph, node, inst),
            Plan::AperiodicRecorder => self.record_aperiodic(node, inst),
            Plan::TimedAperiodic => self.timed_aperiodic(node, inst),
        }
    }

    /// [`Plan::TwoSided`]: pair with the oldest compatible instance of the
    /// other side and consume both, or wait on this one.
    fn two_sided(&mut self, graph: &EventGraph, node: &Node, side: u8, inst: &Arc<Instance>) {
        let parent = node.id;
        let (own_spec, other_spec) = (
            node.join.ids[side as usize],
            node.join.ids[1 - side as usize],
        );
        let Some((key, found)) = self.keys.key(graph, own_spec, inst) else {
            return;
        };
        let mut other_found = Found::Unprobed;
        let (kind, within, clock) = (&node.kind, node.within, self.timeline.clock());
        if self.obs.level.counters() {
            self.obs.arena.probed(parent.idx());
        }
        let lanes = self.states[parent.idx()].lanes();
        let (own, other) = (lanes[side as usize], lanes[1 - side as usize]);
        let (own_table, other_table) = (own_spec.idx(), other_spec.idx());
        let other_key = (key, memo_if(node, &mut *found, &mut other_found));
        // Each lane expires at its own retention: the scan drops the other
        // side's dead heads, an admission expires its own side.
        let matched = self.tables[other_table].take_oldest_match(other, other_key, clock, |e| {
            // One physical event can never be both constituents of an
            // occurrence (overlapping sibling patterns deliver the same Arc
            // to both sides).
            if Arc::ptr_eq(e, inst) {
                return false;
            }
            if side == 0 {
                pair_ok(kind, within, inst, e)
            } else {
                pair_ok(kind, within, e, inst)
            }
        });
        match matched {
            Some(e) => {
                // Retire every buffered copy of both constituents: under
                // overlapping sibling patterns (`any` beside
                // `group(shelves)`, ROADMAP "The oracle's one open
                // disagreement") an instance can sit in both side buffers.
                self.tables[own_table].remove_ptr_eq(own, (key, &mut *found), &e);
                // `inst` is not in `own`: only `None` below admits it, once per side.
                let other_key = (key, memo_if(node, &mut *found, &mut other_found));
                self.tables[other_table].remove_ptr_eq(other, other_key, inst);
                let out = if side == 0 {
                    Instance::pair(kind.name(), inst.clone(), e)
                } else {
                    Instance::pair(kind.name(), e, inst.clone())
                };
                self.work.push(Work::At(parent, Arc::new(out)));
            }
            None => {
                let table = &mut self.tables[own_table];
                let dropped = table.push(own, (key, found), inst.clone(), clock);
                let occ = table.joins[own as usize].len as u64;
                count_expiry(&mut self.stats, &mut self.obs, parent, dropped);
                if self.obs.level.counters() {
                    self.obs.arena.admitted(parent.idx());
                    if self.obs.level.full() {
                        self.obs.occupancy.record(occ);
                    }
                }
            }
        }
    }

    /// [`Plan::LeftNegationQuery`]: one probe of the negated child's
    /// history answers the terminator for the whole family `node` holds.
    /// The window ends at `to` (exclusive for `SEQ`) and reaches back a
    /// member's [`Member::cutoff`] from the terminator's end: the `WITHIN`
    /// for `SEQ`, the maximum distance for `TSEQ`. So a member's negation
    /// held exactly when `last`, the latest negated occurrence before `to`,
    /// lies before its window's start — with members in ascending cut-off
    /// order, a prefix of the family. Each gets its own witness
    /// ([`absent_witness`]): the window is the one part of the occurrence
    /// that differs by member.
    fn left_negation_query(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        inst: &Arc<Instance>,
    ) {
        let (to, exclusive) = match node.kind {
            NodeKind::Seq => (inst.t_begin(), true),
            NodeKind::TSeq { min_dist, .. } => (
                inst.t_end().saturating_sub(min_dist).min(inst.t_begin()),
                false,
            ),
            ref other => unreachable!("negated-initiator query on {other:?}"),
        };
        let (table, lane) = self.hist_lane(node, 0);
        let Some((key, found)) = self.keys.key(graph, node.join.ids[1], inst) else {
            return;
        };
        if self.obs.level.counters() {
            self.obs.arena.probed(node.id.idx());
        }
        let mut cross = Found::Unprobed;
        let found = memo_if(node, found, &mut cross);
        let last = self.tables[table].last_occurrence(lane, (key, found), to, exclusive);
        let family = plan.family(node.id);
        let from = |m: &Member| inst.t_end().saturating_sub(m.cutoff);
        let absent = last.map_or(family.len(), |l| family.partition_point(|m| from(m) > l));
        if absent > 0 {
            self.emit_family(plan, node, 0..absent, inst.clone(), Some(to));
        }
    }

    /// [`Plan::LeftAperiodicQuery`]: the terminator takes every recorded
    /// `SEQ+` element in its window as one run, and consumes them.
    fn left_aperiodic_query(&mut self, node: &Node, inst: &Arc<Instance>) {
        let within = node.within;
        // Saturates at the epoch: an unbounded window reaches all the way back.
        let from = inst.t_end().saturating_sub(within);
        let (last_min, last_max) = match node.kind {
            NodeKind::Seq => (Timestamp::ZERO, inst.t_begin()),
            NodeKind::TSeq { min_dist, max_dist } => (
                inst.t_end().saturating_sub(max_dist),
                inst.t_end().saturating_sub(min_dist).min(inst.t_begin()),
            ),
            ref other => unreachable!("LeftAperiodicQuery on {other:?}"),
        };
        if self.obs.level.counters() {
            self.obs.arena.probed(node.id.idx());
        }
        let NodeState::Aperiodic(ap) = &mut self.states[node.children[0].idx()] else {
            unreachable!("aperiodic child state");
        };
        let elements = ap.take_window(from, last_max);
        // A run that ended too long before this terminator would be pruned
        // anyway.
        if elements.last().is_none_or(|last| last.t_end() < last_min) {
            return;
        }
        let run = Arc::new(Instance::composite("SEQ+", elements));
        let out = Arc::new(Instance::pair(node.kind.name(), run, inst.clone()));
        if out.interval() <= within {
            self.work.push(Work::At(node.id, out));
        }
    }

    /// [`Plan::RightNegationWait`]: the initiator waits out the window in
    /// which the negated terminator must stay absent.
    fn right_negation_wait(&mut self, graph: &EventGraph, node: &Node, inst: &Arc<Instance>) {
        // The negation window opens strictly after the initiator ends;
        // otherwise an initiator whose pattern overlaps the negated pattern
        // would block itself.
        let epsilon = Span::from_millis(1);
        let (from, to) = match node.kind {
            NodeKind::Seq => (inst.t_end() + epsilon, inst.t_begin() + node.within),
            NodeKind::TSeq { min_dist, max_dist } => (
                inst.t_end() + min_dist.max(epsilon),
                inst.t_end() + max_dist,
            ),
            ref other => unreachable!("RightNegationWait on {other:?}"),
        };
        self.wait_on_negation(graph, node, 1, inst, from, to);
    }

    /// [`Plan::NegationRecorder`]: record the occurrence under the key of
    /// every parent that reads the history; a `NOT` left by a rejected rule
    /// has none and records nothing.
    fn record_negation(&mut self, graph: &EventGraph, node: &Node, inst: &Arc<Instance>) {
        let (parent, clock) = (node.id, self.timeline.clock());
        let lanes = self.states[parent.idx()].lanes();
        for (&spec, &lane) in graph.hist_specs(parent).iter().zip(lanes) {
            if let Some(key) = self.keys.key(graph, spec, inst) {
                let dropped = self.tables[spec.idx()].record(lane, key, inst.t_end(), clock);
                count_expiry(&mut self.stats, &mut self.obs, parent, dropped);
                if self.obs.level.counters() {
                    self.obs.arena.admitted(parent.idx());
                }
            }
        }
    }

    /// [`Plan::AperiodicRecorder`]: record the element for a terminator.
    fn record_aperiodic(&mut self, node: &Node, inst: &Arc<Instance>) {
        let NodeState::Aperiodic(ap) = &mut self.states[node.id.idx()] else {
            unreachable!("aperiodic state");
        };
        let dropped = ap.record(inst.clone(), self.timeline.clock());
        count_expiry(&mut self.stats, &mut self.obs, node.id, dropped);
        if self.obs.level.counters() {
            self.obs.arena.admitted(node.id.idx());
        }
    }

    /// [`Plan::TimedAperiodic`]: extend, close or discard the open `TSEQ+`
    /// run, and move its closing pseudo event.
    fn timed_aperiodic(&mut self, node: &Node, inst: &Arc<Instance>) {
        let parent = node.id;
        let NodeKind::TSeqPlus { min_gap, max_gap } = node.kind else {
            unreachable!("TimedAperiodic on non-TSEQ+ node");
        };
        let within = node.within;
        // Claim this arrival's sequence number up front: it marks where
        // the run's closure now belongs in pseudo-event order.
        let close_seq = self.timeline.next_seq();
        let close_exec = inst.t_end() + max_gap;
        let NodeState::TimedRun(run) = &mut self.states[parent.idx()] else {
            unreachable!("timed-run state");
        };
        let mut closed: Option<Vec<Arc<Instance>>> = None;
        if run.open.is_empty() {
            run.open.push(inst.clone());
        } else {
            let gap = inst.t_end().signed_delta(run.last_end);
            let first_begin = run
                .open
                .first()
                .expect("non-empty run")
                .t_begin()
                .min(inst.t_begin());
            let extended_interval = inst.t_end() - first_begin;
            let gap_ok =
                gap >= 0 && gap as u64 >= min_gap.as_millis() && gap as u64 <= max_gap.as_millis();
            if gap_ok && extended_interval <= within {
                run.open.push(inst.clone());
            } else if gap >= 0 && gap as u64 > max_gap.as_millis() {
                // Late closure (normally the pseudo event beats us).
                closed = Some(run.open.take_all());
                run.open.push(inst.clone());
            } else {
                // Sub-τl gap (or interval overflow): the run cannot be
                // extended, and interleaved this tightly it is not a
                // valid detection either — discard and restart.
                run.open.clear();
                run.open.push(inst.clone());
            }
        }
        run.last_end = inst.t_end();
        // Re-arm instead of re-schedule: record where the closure belongs
        // and keep at most one pseudo event per run in the queue (a popped
        // stale one is pushed back at the recorded position by
        // `fire_pseudo`).
        run.close_exec = close_exec;
        run.close_seq = close_seq;
        let arm = !run.armed;
        run.armed = true;
        if self.obs.level.full() {
            self.obs.occupancy.record(run.open.len() as u64);
        }
        if arm {
            let due = Due::CloseRun { node: parent };
            self.timeline.schedule(close_exec, close_seq, due);
        }
        if let Some(run) = closed {
            let out = Arc::new(Instance::composite("TSEQ+", run));
            self.work.push(Work::At(parent, out));
        }
        if self.obs.level.counters() {
            // Every arrival is stored into the (possibly restarted) open
            // run.
            self.obs.arena.admitted(parent.idx());
        }
    }

    /// Shared machinery of `AndNegation` and `RightNegationWait`: check the
    /// past part of the window now; if the window extends into the future,
    /// anchor the instance and schedule a pseudo event at its close.
    fn wait_on_negation(
        &mut self,
        graph: &EventGraph,
        node: &Node,
        not_side: u8,
        inst: &Arc<Instance>,
        from: Timestamp,
        to: Timestamp,
    ) {
        let push_spec = node.join.ids[usize::from(1 - not_side)];
        let (table, lane) = self.hist_lane(node, not_side);
        let Some((key, found)) = self.keys.key(graph, push_spec, inst) else {
            return;
        };
        let kind_name = node.kind.name();

        let clock = self.timeline.clock();
        let past_end = clock.min(to);
        if from <= past_end {
            if self.obs.level.counters() {
                self.obs.arena.probed(node.id.idx());
            }
            let mut cross = Found::Unprobed;
            let found = memo_if(node, found, &mut cross);
            let occurred = self.tables[table].occurred(lane, (key, found), (from, past_end), false);
            if occurred {
                return;
            }
        }
        if to <= clock {
            // Whole window already elapsed (lagged push-side delivery).
            let absence = Arc::new(Instance::absence(from, to));
            let out = if not_side == 0 {
                Instance::pair(kind_name, absence, inst.clone())
            } else {
                Instance::pair(kind_name, inst.clone(), absence)
            };
            self.work.push(Work::At(node.id, Arc::new(out)));
            return;
        }
        let anchor = self.timeline.next_seq();
        let NodeState::Wait(w) = &mut self.states[node.id.idx()] else {
            unreachable!("wait state");
        };
        w.waiting.insert(
            anchor,
            WaitEntry {
                inst: inst.clone(),
                key: key.clone(),
                from,
            },
        );
        if self.obs.level.counters() {
            self.obs.arena.admitted(node.id.idx());
        }
        let due = Due::ResolveWait { node: node.id };
        self.timeline.schedule(to, anchor, due);
    }

    /// The key table and lane of the history `node` queries on its
    /// `not_side` child: the table of its join's key on that side.
    fn hist_lane(&self, node: &Node, not_side: u8) -> (usize, u32) {
        let spec = node.hist_spec.expect("a negation query has a history spec");
        let not_child = node.children[usize::from(not_side)].idx();
        let table = node.join.ids[usize::from(not_side)].idx();
        (table, self.states[not_child].lanes()[spec.0 as usize])
    }
}

/// Where the arrival's key sits in the table `node` probes on the other
/// side of its join: the memoised slot when both sides read one key spec,
/// and so one table; else `cross`, a probe of the other side's table. So a
/// cross probe happens exactly when `node.join.ids[0] != node.join.ids[1]`:
/// one side reads the key through another extraction path, as a `SEQ`
/// beside a read does. No ledger program has such a join.
fn memo_if<'a>(node: &Node, memo: &'a mut Found, cross: &'a mut Found) -> &'a mut Found {
    if node.join.ids[0] == node.join.ids[1] {
        memo
    } else {
        cross
    }
}

/// The witness that a negated initiator stayed absent over the window of
/// a member with `cutoff`: from `cutoff` before the terminator's end to
/// `to`. A window that closes before it opens — a composite terminator that
/// began more than `cutoff` before it ended — holds no initiator, so the
/// negation holds over it, witnessed at `[to, to]` (docs/SEMANTICS.md §3).
fn absent_witness(cutoff: Span, terminator: &Instance, to: Timestamp) -> Instance {
    let from = terminator.t_end().saturating_sub(cutoff);
    Instance::absence(from.min(to), to)
}

/// `witness` in `spare`'s allocation when nothing else holds it — a sink
/// or the flight recorder may have kept the previous witness — else in a
/// fresh one.
fn rearm(spare: Option<Arc<Instance>>, witness: Instance) -> Arc<Instance> {
    match spare {
        Some(mut arc) => match Arc::get_mut(&mut arc) {
            Some(slot) => {
                *slot = witness;
                arc
            }
            None => Arc::new(witness),
        },
        None => Arc::new(witness),
    }
}

/// Accounts one admission's expiry at `node`: `dropped` entries died as it
/// admitted (`sweeps` and the node's prunes), none did in a store that
/// expires by time (`sweeps_skipped`), or the store never expires (`None`).
#[inline]
fn count_expiry(stats: &mut EngineStats, obs: &mut ObsState, node: NodeId, dropped: Option<usize>) {
    match dropped {
        Some(0) => stats.sweeps_skipped += 1,
        Some(n) => {
            stats.sweeps += 1;
            if obs.level.counters() {
                obs.arena.pruned(node.idx(), n as u64);
            }
        }
        None => {}
    }
}

/// Instance-level temporal predicate of a binary constructor — the checks
/// that make temporal constraints first-class in detection (§4.1).
fn pair_ok(kind: &NodeKind, within: Span, l: &Instance, r: &Instance) -> bool {
    if interval2(l, r) > within {
        return false;
    }
    match kind {
        NodeKind::And => true,
        NodeKind::Seq => l.t_end() <= r.t_begin(),
        NodeKind::TSeq { min_dist, max_dist } => {
            if l.t_end() > r.t_begin() {
                return false;
            }
            let d = dist(l, r);
            d >= 0 && (d as u64) >= min_dist.as_millis() && (d as u64) <= max_dist.as_millis()
        }
        other => unreachable!("pair_ok on {other:?}"),
    }
}

/// A node's state before it has seen the stream, each store with its solved
/// retention ([`Program::retention`]) and its keyed ones added as lanes to
/// their specs' tables, capped at `unbounded_cap` where that retention is
/// unbounded; a `NOT`'s histories are sized for the parents registered on
/// it, which a sealed `NOT` never gains.
fn initial_state(
    program: &Program,
    tables: &mut [KeyTable],
    unbounded_cap: usize,
    node: &Node,
) -> NodeState {
    let retain = program.retention(node.id);
    let state = match &node.plan {
        Plan::Leaf | Plan::Forward | Plan::LeftNegationQuery | Plan::LeftAperiodicQuery => {
            NodeState::Stateless
        }
        Plan::TwoSided | Plan::NegationRecorder => {
            let stores = program.stores(node.id).into_iter();
            let lanes = stores.map(|(store, spec)| {
                let (hist, span) = match store {
                    Store::Side(s) => (false, retain[usize::from(s)]),
                    Store::Hist(_) => (true, retain[0]),
                };
                tables[spec.idx()].add_lane(node.id, hist, span, unbounded_cap)
            });
            NodeState::Keyed(lanes.collect())
        }
        Plan::RightNegationWait | Plan::AndNegation { .. } => NodeState::Wait(WaitState::default()),
        Plan::AperiodicRecorder => NodeState::Aperiodic(AperiodicState::new(retain[0])),
        Plan::TimedAperiodic => NodeState::TimedRun(TimedRunState::default()),
    };
    debug_assert_eq!(
        node.plan.holds_state(),
        !matches!(state, NodeState::Stateless)
    );
    state
}
