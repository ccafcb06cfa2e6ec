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

use std::sync::Arc;

use rfid_events::{dist, interval2, Catalog, EventExpr, Instance, Observation, Span, Timestamp};

use crate::error::InvalidRule;
use crate::graph::{EventGraph, Node, NodeId, NodeKind, Plan};
use crate::key::{extract_all, Key, KeySpecId};
use crate::obs::{FlightRecorder, Histogram, ObsState, ObserveLevel, TelemetrySnapshot};
use crate::plan::{CompiledPlan, EdgeOp, InlineBuf, Member, LEAF_HITS_INLINE};
use crate::program::{Program, RuleEvent};
use crate::state::{
    dead_before, AperiodicState, KeyedBuffer, NegationState, NodeState, TimedRunState, WaitEntry,
    WaitState,
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
    timeline: Timeline,
    stats: EngineStats,
    /// Reused propagation queue: occurrences waiting to activate parents.
    /// Fully drained by `run_work` after every event, so its capacity (not
    /// its contents) carries over between events.
    work: Vec<(NodeId, Arc<Instance>)>,
    /// Observability state ([`crate::obs`]): the cached observe level, the
    /// per-node metrics arena, histograms, and the flight recorder. Living
    /// here keeps every instrumentation site a plain field access — no
    /// extra parameters through the arrival handlers.
    obs: ObsState,
    /// Watermark-amortized sweeping (DESIGN.md §16): per-node retention
    /// spans, which nodes have a prune deadline on the timeline, and the
    /// per-batch touched bitmap deadlines are armed from.
    sweep: Sweep,
    /// The keys of the instance being propagated, one per interned spec.
    keys: KeyMemo,
}

/// The correlation keys of the current work-queue pop, memoised per
/// interned key spec ([`KeySpecId`]): every parent edge that reads the same
/// extraction list off the same arrival shares one extraction, one pack and
/// one hash. A slot is current when it carries the pop's generation.
#[derive(Debug, Default)]
struct KeyMemo {
    /// Never wraps: one bump per pop.
    generation: u64,
    slots: Vec<(u64, Option<Key>)>,
}

/// What [`KeyMemo::key`] lends for the empty spec: the uncorrelated key,
/// never extracted.
static EMPTY_KEY: Key = Key::EMPTY;

impl KeyMemo {
    /// Sizes the memo for a graph's interned specs (after a re-solve).
    fn resize(&mut self, specs: usize) {
        self.slots.resize(specs, (0, None));
    }

    /// Invalidates every slot: a new instance is being propagated.
    #[inline]
    fn next_pop(&mut self) {
        self.generation += 1;
    }

    /// The key `spec` extracts from `inst`, the current pop's instance —
    /// `None` when a path does not resolve. The engine's one extraction
    /// site: extracted on the first read per pop, borrowed after.
    #[inline]
    fn key(&mut self, graph: &EventGraph, spec: KeySpecId, inst: &Instance) -> Option<&Key> {
        if spec == KeySpecId::EMPTY {
            return Some(&EMPTY_KEY);
        }
        let slot = &mut self.slots[spec.idx()];
        if slot.0 != self.generation {
            *slot = (self.generation, extract_all(graph.key_spec(spec), inst));
        }
        debug_assert_eq!(
            slot.1,
            extract_all(graph.key_spec(spec), inst),
            "the memoised key is the one a fresh extraction builds"
        );
        slot.1.as_ref()
    }
}

/// State of the deadline-driven sweep. A node is *armed* when its earliest
/// logged entry has a finite death time on the timeline; quiescent nodes
/// are neither armed nor visited. Arming happens at batch boundaries from
/// the `touched` bitmap (set at every state admission), and a deadline
/// fires only when the batch watermark — the engine clock after the batch —
/// passes it.
#[derive(Debug, Default)]
struct Sweep {
    /// Per-node `[side0, side1]` retention spans — how long an entry of
    /// that side's buffer stays matchable — chosen by
    /// [`Engine::rebuild_sweep_spans`] on every re-solve and read by both the
    /// probe-time dead scans and the sweep. Non-join stores use slot 0;
    /// `Span::MAX` marks a side that is never pruned by time.
    spans: Vec<[Span; 2]>,
    /// Whether the node currently has a prune deadline on the timeline.
    armed: Vec<bool>,
    /// Bitmap of nodes that admitted state since the last batch boundary.
    touched: Vec<u64>,
}

impl Sweep {
    /// Marks a node as having admitted state this batch. Called from the
    /// arrival handlers on every admission; two instructions.
    #[inline]
    fn touch(&mut self, node: NodeId) {
        let i = node.idx();
        self.touched[i >> 6] |= 1 << (i & 63);
    }

    /// Sizes the tables for `len` nodes, keeping existing armed state.
    fn resize(&mut self, len: usize) {
        self.spans.resize(len, [Span::MAX; 2]);
        self.armed.resize(len, false);
        self.touched.resize(len.div_ceil(64), 0);
    }

    /// Disarms every node and clears the touched bits (engine reset).
    fn clear_runtime(&mut self) {
        self.armed.iter_mut().for_each(|a| *a = false);
        self.touched.iter_mut().for_each(|w| *w = 0);
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
                timeline: Timeline::default(),
                stats: EngineStats::default(),
                work: Vec::new(),
                obs: ObsState::new(config.observe, config.flight_capacity),
                sweep: Sweep::default(),
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

    /// Creates or refreshes runtime state for every graph node — those a
    /// rejected rule left behind included, since their leaves dispatch too.
    fn sync_states(&mut self) {
        let graph = self.program.graph();
        for node in graph.nodes() {
            let idx = node.id.idx();
            if idx >= self.rt.states.len() {
                self.rt.states.push(initial_state(node));
            }
            // A new rule may have registered additional keyed histories on an
            // existing negation node.
            if let NodeState::Negation(neg) = &mut self.rt.states[idx] {
                neg.ensure_specs(graph.hist_specs(node.id).len().max(1));
            }
        }
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
    ///   against the timeline's cached head;
    /// * prune deadlines share that timeline but are deferred to the batch
    ///   boundary, where only the nodes whose deadline the watermark passed
    ///   are pruned; quiescent nodes are never visited.
    ///
    /// Batch size therefore moves sweep *timing* (`sweeps`/`sweeps_skipped`
    /// and the per-node prune counters), which is firing-neutral: matching
    /// discards dead entries at probe time and history queries are
    /// range-checked, so later pruning never changes what fires.
    pub fn process_batch(&mut self, batch: &[Observation], sink: &mut Sink<'_>) {
        if batch.is_empty() {
            return;
        }
        self.program();
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
        self.batch_sweep();
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
        self.program();
        self.fire_due(None, sink);
    }

    /// Advances the clock to `now`, executing due pseudo events, without
    /// feeding an observation (heartbeat for quiet streams).
    pub fn advance_to(&mut self, now: Timestamp, sink: &mut Sink<'_>) {
        self.program();
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
        for state in &self.rt.states {
            match state {
                NodeState::Join { left, right } => {
                    s.capacity_drops += left.dropped + right.dropped;
                    s.join_keys += (left.key_count() + right.key_count()) as u64;
                }
                NodeState::Negation(neg) => {
                    s.retained_keys += neg.key_count() as u64;
                }
                NodeState::TimedRun(run) => {
                    s.run_spills += run.open.spills();
                    s.max_run_depth = s.max_run_depth.max(run.open.high_water());
                }
                _ => {}
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
    /// one place the engine's runtime state follows a recompile: node state
    /// and the metrics arena are sized for the new nodes, the sweep spans
    /// are rebuilt, and state moves with its holder.
    pub fn program(&mut self) -> &Program {
        if let Some(prior) = self.program.solve(Some(&self.catalog)) {
            self.sync_states();
            self.rt.obs.arena.ensure_len(self.program.graph().len());
            self.rt.keys.resize(self.program.graph().key_spec_count());
            self.rebuild_sweep_spans();
            self.rehome_states(&prior);
        }
        &self.program
    }

    /// The lowered execution plan of the current rule set.
    pub fn compiled_plan(&mut self) -> &CompiledPlan {
        self.program().plan()
    }

    /// Total instances currently held in join buffers, negation histories,
    /// aperiodic stores, open runs, and waits — the engine's working-set
    /// gauge (memory diagnostics; sweeping should keep it bounded).
    pub fn buffered_instances(&self) -> usize {
        self.rt
            .states
            .iter()
            .map(|s| match s {
                NodeState::Stateless => 0,
                NodeState::Join { left, right } => left.len() + right.len(),
                NodeState::Negation(neg) => neg.recorded(),
                NodeState::Aperiodic(ap) => ap.len(),
                NodeState::TimedRun(run) => run.open.len(),
                NodeState::Wait(w) => w.waiting.len(),
            })
            .sum()
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
    /// the shared graph keeps detecting for other rules on the same nodes.
    /// Returns the previous state.
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
    /// benchmark iterations and replays skip recompilation.
    pub fn reset(&mut self) {
        self.rt.states.clear();
        self.sync_states();
        self.rt.timeline = Timeline::default();
        self.rt.stats = EngineStats::default();
        self.rt.obs.reset();
        self.rt.sweep.clear_runtime();
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

    /// Follows the holders from the plan `prior` to the current one. State
    /// stays where it is: a holder is the first-registered node of its
    /// group, so rules added to a running engine only ever join it. The one
    /// move is a member that no longer fits its holder and now holds state
    /// itself; it carries on from a copy of what it shared (a superset of
    /// what it would have kept alone, and anything beyond its own window is
    /// invisible to its probes). A `NOT` leaves because it gained a history
    /// spec its holder lacks: the copy keeps the histories of the specs the
    /// two still share and is sized for the node's own list, so the new
    /// spec starts empty, as it does on an unshared `NOT`.
    fn rehome_states(&mut self, prior: &CompiledPlan) {
        let (graph, plan) = (self.program.graph(), self.program.plan());
        for idx in 0..prior.node_count() {
            let node = NodeId(idx as u32);
            let was = prior.holder(node);
            if was != node && plan.holder(node) == node {
                self.rt.states[idx] = self.rt.states[was.idx()].clone();
                if let NodeState::Negation(neg) = &mut self.rt.states[idx] {
                    let (own, shared) = (graph.hist_specs(node), graph.hist_specs(was));
                    let common = own.iter().zip(shared).take_while(|(a, b)| a == b).count();
                    neg.truncate_specs(common);
                    neg.ensure_specs(own.len().max(1));
                }
                self.rt.sweep.touch(node);
            }
        }
    }

    /// The one place a retention is chosen: the solved per-side bounds
    /// ([`crate::bounds`]), which the sweep and the join scans prune at; a
    /// join side left at [`Span::MAX`] is capped at
    /// [`EngineConfig::unbounded_cap`] instead. A holder keeps what its
    /// longest-reaching member needs.
    fn rebuild_sweep_spans(&mut self) {
        let (graph, plan) = (self.program.graph(), self.program.plan());
        self.rt.sweep.resize(graph.len());
        for node in graph.nodes() {
            let b = self.program.bounds().node(node.id);
            let own = match node.plan {
                Plan::TwoSided => b.retain,
                Plan::NegationRecorder | Plan::AperiodicRecorder => [b.retention; 2],
                _ => [Span::MAX; 2],
            };
            // Ids are topological and a holder is the lowest id of its
            // group, so its own spans are in place before any member's.
            let holder = plan.holder(node.id);
            let spans = &mut self.rt.sweep.spans;
            spans[node.id.idx()] = own;
            if holder != node.id {
                spans[holder.idx()] = [0, 1].map(|side| spans[holder.idx()][side].max(own[side]));
            }
        }
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
                    self.rt.work.push((node, inst));
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
                let spec = n.hist_spec.expect("wait plan always has a history spec").0 as usize;
                let not_child = self.program.plan().holder(n.children[not_side as usize]);
                let kind_name = n.kind.name();
                if self.rt.obs.level.counters() {
                    // The deferred window-close check is this node's probe.
                    self.rt.obs.arena.probed(node.idx());
                }
                let occurred = match &self.rt.states[not_child.idx()] {
                    NodeState::Negation(neg) => {
                        neg.occurred(spec, &entry.key, entry.from, entry.to, false)
                    }
                    other => unreachable!("negation child has state {other:?}"),
                };
                if !occurred {
                    let absence = Arc::new(Instance::absence(entry.from, entry.to));
                    let children = if not_side == 0 {
                        vec![absence, entry.inst]
                    } else {
                        vec![entry.inst, absence]
                    };
                    let inst = Arc::new(Instance::composite(kind_name, children));
                    self.rt.work.push((node, inst));
                    self.run_work(sink);
                }
            }
            Due::Prune { .. } => unreachable!("prune deadlines wait for the batch boundary"),
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
            config,
            ..
        } = self;
        let (graph, plan) = (program.graph(), program.plan());
        let observe = rt.obs.level;
        while let Some((node_id, inst)) = rt.work.pop() {
            rt.keys.next_pop();
            // A coalesced leaf representative stands in for its whole
            // pattern group; count the pops an unshared plan would make.
            rt.stats.occurrences += 1 + u64::from(plan.extra_pops(node_id));
            if observe.counters() {
                rt.obs.arena.arrived(node_id.idx());
            }
            for &rule in plan.rules_at(node_id) {
                if !rule_enabled[rule.0 as usize] {
                    continue;
                }
                rt.stats.rule_firings += 1;
                rule_firings[rule.0 as usize] += 1;
                sink(rule, &inst);
                if observe.counters() {
                    rt.obs.arena.fired(node_id.idx());
                    if observe.full() {
                        rt.obs.flight.offer(rule, rt.timeline.clock(), &inst);
                    }
                }
            }
            for edge in plan.edges_at(node_id) {
                let pnode = graph.node(edge.parent());
                match edge.op() {
                    EdgeOp::SelfJoin => rt.self_join_arrival(graph, config, plan, pnode, &inst),
                    EdgeOp::Left => rt.arrival(graph, config, plan, pnode, 0, &inst),
                    EdgeOp::Right => rt.arrival(graph, config, plan, pnode, 1, &inst),
                    EdgeOp::RecordQuery { query } => {
                        let query = graph.node(NodeId(query));
                        rt.fused_negation(graph, plan, pnode, query, &inst, true);
                    }
                    EdgeOp::QueryRecord { query } => {
                        let query = graph.node(NodeId(query));
                        rt.fused_negation(graph, plan, pnode, query, &inst, false);
                    }
                }
            }
        }
    }

    /// Prunes one node's stores against its retention spans.
    fn prune_node(&mut self, idx: usize) {
        let clock = self.rt.timeline.clock();
        let [s0, s1] = self.rt.sweep.spans[idx];
        let counters = self.rt.obs.level.counters();
        match &mut self.rt.states[idx] {
            NodeState::Join { left, right } => {
                let before = left.len() + right.len();
                left.prune(dead_before(clock, s0));
                right.prune(dead_before(clock, s1));
                if counters {
                    let dropped = before - (left.len() + right.len());
                    self.rt.obs.arena.pruned(idx, dropped as u64);
                }
            }
            NodeState::Negation(neg) => {
                let dropped = neg.prune(dead_before(clock, s0));
                if counters {
                    self.rt.obs.arena.pruned(idx, dropped as u64);
                }
            }
            NodeState::Aperiodic(ap) => {
                let before = ap.len();
                ap.prune(dead_before(clock, s0));
                if counters {
                    self.rt.obs.arena.pruned(idx, (before - ap.len()) as u64);
                }
            }
            _ => {}
        }
    }

    /// The earliest instant at which something buffered on this node can
    /// die, from the oldest expiry-log record of each store plus the
    /// node's sweep span — `None` when nothing is buffered or the spans
    /// are unbounded. Stale log heads (consumed entries) only make the
    /// deadline early, never late, so arming from logs is conservative.
    fn node_deadline(&self, idx: usize) -> Option<Timestamp> {
        let [s0, s1] = self.rt.sweep.spans[idx];
        let side = |oldest: Option<Timestamp>, span: Span| {
            if span == Span::MAX {
                None
            } else {
                oldest.map(|t| t.saturating_add(span))
            }
        };
        match &self.rt.states[idx] {
            NodeState::Join { left, right } => {
                let d0 = side(left.oldest_logged(), s0);
                let d1 = side(right.oldest_logged(), s1);
                match (d0, d1) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (d, None) | (None, d) => d,
                }
            }
            NodeState::Negation(neg) => side(neg.oldest_logged(), s0),
            NodeState::Aperiodic(ap) => side(ap.oldest_logged(), s0),
            _ => None,
        }
    }

    /// Batch-boundary sweep: arm a deadline for every node that admitted
    /// state this batch, then prune exactly the nodes whose deadline the
    /// batch watermark passed — those the batch's observations popped off
    /// the timeline, and those armed already behind the watermark. A batch
    /// that crosses no deadline prunes nothing and touches no node state
    /// at all (`sweeps_skipped`).
    fn batch_sweep(&mut self) {
        for w in 0..self.rt.sweep.touched.len() {
            let mut bits = std::mem::take(&mut self.rt.sweep.touched[w]);
            while bits != 0 {
                #[allow(clippy::cast_possible_truncation)]
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.rt.sweep.armed[idx] {
                    continue;
                }
                match self.node_deadline(idx) {
                    Some(d) => {
                        self.rt.sweep.armed[idx] = true;
                        self.rt.timeline.arm_prune(d, NodeId(idx as u32));
                    }
                    None => {
                        // No finite deadline, but a join with an unbounded
                        // side still relies on the sweep for expiry-log
                        // compaction (consumed entries leave stale records
                        // a time-based prune never reaches). The prune
                        // itself drops nothing here.
                        if matches!(self.rt.states[idx], NodeState::Join { .. }) {
                            self.prune_node(idx);
                        }
                    }
                }
            }
        }
        // A node re-armed below waits for a later boundary even when its
        // new deadline is already behind the watermark (`end_sweep` keeps
        // it deferred), so each node is visited at most once per batch.
        let due = self.rt.timeline.begin_sweep();
        if due.is_empty() {
            self.rt.stats.sweeps_skipped += 1;
        } else {
            self.rt.stats.sweeps += 1;
            for &(_, node) in &due {
                self.prune_node(node.idx());
                match self.node_deadline(node.idx()) {
                    Some(d) => self.rt.timeline.arm_prune(d, node),
                    None => self.rt.sweep.armed[node.idx()] = false,
                }
            }
        }
        self.rt.timeline.end_sweep(due);
    }
}

impl Runtime {
    /// Queues the primitive occurrence of `obs` at every leaf it matched.
    fn activate_leaves(&mut self, obs: Observation, leaves: impl Iterator<Item = NodeId>) {
        self.stats.matched_events += 1;
        let inst = Arc::new(Instance::observation(obs));
        self.work.extend(leaves.map(|leaf| (leaf, inst.clone())));
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
        config: &EngineConfig,
        plan: &CompiledPlan,
        node: &Node,
        inst: &Arc<Instance>,
    ) {
        debug_assert_eq!(node.plan, Plan::TwoSided, "self-join is always two-sided");
        let Some(key) = self.keys.key(graph, node.join.ids[1], inst) else {
            return;
        };
        let kind = &node.kind;
        let family = plan.family(node.id);
        let within = family.last().expect("a holder is in its family").cutoff;
        let span = self.sweep.spans[node.id.idx()][0];
        let (dead, cap) = (
            dead_before(self.timeline.clock(), span),
            side_cap(config, span),
        );

        self.sweep.touch(node.id);
        if self.obs.level.counters() {
            // One bucket access both probes for a partner and admits the
            // instance as a future initiator.
            self.obs.arena.probed_admitted(node.id.idx());
        }
        let (lbuf, _) = self.states[node.id.idx()].join_mut();
        // Take-and-admit in one bucket probe: the instance scans for an
        // older initiator to terminate and is enqueued as an initiator
        // itself in the same map access.
        let matched = lbuf.take_match_and_push(
            key,
            dead,
            |e| !Arc::ptr_eq(e, inst) && pair_ok(kind, within, e, inst),
            inst.clone(),
            cap,
        );
        if self.obs.level.full() {
            let occ = lbuf.len() as u64;
            self.obs.occupancy.record(occ);
        }
        if let Some(e) = matched {
            let out = Arc::new(Instance::pair(kind.name(), e, inst.clone()));
            let reached = family.partition_point(|m| m.cutoff < out.interval());
            let members = family[reached..].iter();
            self.work.extend(members.map(|m| (m.node, out.clone())));
        }
    }

    /// Answers a negated-initiator query for the whole family `query_node`
    /// holds, from the one thing its history probe found: `last`, the
    /// latest negated occurrence before the window's end `to`. A member's
    /// window reaches back `cutoff` from the terminator's end, so its
    /// negation held exactly when `last` lies before that start — with
    /// members in ascending cut-off order, a prefix of the family. Each
    /// gets its own `absence(from, to)` witness: the window is the one part
    /// of the instance that differs by member.
    fn emit_absent(
        &mut self,
        family: &[Member],
        query_node: &Node,
        inst: &Arc<Instance>,
        last: Option<Timestamp>,
        to: Timestamp,
    ) {
        let from = |m: &Member| inst.t_end().saturating_sub(m.cutoff);
        let absent = last.map_or(family.len(), |l| family.partition_point(|m| from(m) > l));
        for m in &family[..absent] {
            let absence = Arc::new(Instance::absence(from(m), to));
            let out = Instance::pair(query_node.kind.name(), absence, inst.clone());
            self.work.push((m.node, Arc::new(out)));
        }
    }

    /// Fused in-field delivery: record the instance into `not_node`'s
    /// negation history and answer `query_node`'s window probe out of one
    /// bucket access, in graph order for each lowered shape. `record_first`
    /// ([`EdgeOp::RecordQuery`], merged leaf): the record edge precedes the
    /// query edge within one work-queue pop. Query-first
    /// ([`EdgeOp::QueryRecord`], twin leaves): the query twin is the later
    /// dispatch candidate, so it pops first off the LIFO work stack, before
    /// the recorder twin's delivery. Lowering only emits
    /// these ops when the record key spec equals the query key spec, so a
    /// single probe provably serves both deliveries.
    fn fused_negation(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        not_node: &Node,
        query_node: &Node,
        inst: &Arc<Instance>,
        record_first: bool,
    ) {
        let (to, exclusive) = negation_query_end(query_node, inst);
        let spec_idx = query_node.hist_spec.expect("query plan has a spec").0 as usize;
        let specs = graph.hist_specs(not_node.id);
        self.sweep.touch(not_node.id);
        let NodeState::Negation(neg) = &mut self.states[not_node.id.idx()] else {
            unreachable!("negation state");
        };
        debug_assert!(
            neg.spec_count() >= specs.len().max(1),
            "recompile sized the negation state"
        );
        let mut probed = None;
        for (i, spec) in specs.iter().enumerate() {
            if let Some(key) = self.keys.key(graph, spec.key, inst) {
                if self.obs.level.counters() {
                    self.obs.arena.admitted(not_node.id.idx());
                }
                // Lowering guarantees this spec is the query node's
                // right-side join spec, so `key` doubles as the query key
                // — and its absence as the unfused query's dropped
                // delivery.
                if i == spec_idx {
                    debug_assert_eq!(spec.key, query_node.join.ids[1], "fused key specs agree");
                    if self.obs.level.counters() {
                        self.obs.arena.probed(query_node.id.idx());
                    }
                    probed =
                        Some(neg.fused_last(i, key, inst.t_end(), to, exclusive, record_first));
                } else {
                    neg.record(i, key, inst.t_end());
                }
            }
        }
        if let Some(last) = probed {
            self.emit_absent(plan.family(query_node.id), query_node, inst, last, to);
        }
    }

    /// Handles an instance arriving at `node` from its `side`-th child: one
    /// handler per [`Plan`] kind. Emissions are pushed onto the reusable
    /// work queue.
    fn arrival(
        &mut self,
        graph: &EventGraph,
        config: &EngineConfig,
        plan: &CompiledPlan,
        node: &Node,
        side: u8,
        inst: &Arc<Instance>,
    ) {
        match node.plan {
            Plan::Leaf => unreachable!("leaves have no children"),
            Plan::Forward if inst.interval() <= node.within => {
                let wrapped = Arc::new(Instance::wrap("OR", inst.clone()));
                self.work.push((node.id, wrapped));
            }
            Plan::Forward => {}
            Plan::TwoSided => self.two_sided(graph, config, node, side, inst),
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
                self.right_negation_wait(graph, plan, node, inst);
            }
            Plan::AndNegation { not_side } => {
                debug_assert_eq!(side, 1 - not_side, "arrivals come from the push side");
                let from = inst.t_end().saturating_sub(node.within);
                let to = inst.t_begin() + node.within;
                self.wait_on_negation(graph, plan, node, not_side, inst, from, to);
            }
            Plan::NegationRecorder => self.record_negation(graph, node, inst),
            Plan::AperiodicRecorder => self.record_aperiodic(node, inst),
            Plan::TimedAperiodic => self.timed_aperiodic(node, inst),
        }
    }

    /// [`Plan::TwoSided`]: pair with the oldest compatible instance of the
    /// other side and consume both, or wait on this one.
    fn two_sided(
        &mut self,
        graph: &EventGraph,
        config: &EngineConfig,
        node: &Node,
        side: u8,
        inst: &Arc<Instance>,
    ) {
        let parent = node.id;
        let Some(key) = self.keys.key(graph, node.join.ids[side as usize], inst) else {
            return;
        };
        let kind = &node.kind;
        let within = node.within;
        // The scan prunes the *other* side's buffer, so its solved
        // retention governs (a side's entries outlive only what the
        // opposite side can still pair with); an admission is capped
        // exactly when its own side's retention is unbounded.
        let spans = self.sweep.spans[parent.idx()];
        let dead = dead_before(self.timeline.clock(), spans[1 - side as usize]);
        let cap = side_cap(config, spans[side as usize]);
        if self.obs.level.counters() {
            self.obs.arena.probed(parent.idx());
        }
        let (lbuf, rbuf) = self.states[parent.idx()].join_mut();
        let (own, other) = if side == 0 {
            (lbuf, rbuf)
        } else {
            (rbuf, lbuf)
        };
        let matched = other.take_oldest_match(key, dead, |e| {
            // One physical event can never be both constituents of an
            // occurrence (same-pattern children deliver the same Arc to
            // both sides).
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
                // Retire every buffered copy of both constituents: with
                // same-pattern children under different windows an
                // instance can sit in both side buffers.
                own.remove_ptr_eq(key, &e);
                // `inst` is not in `own`: only `None` below admits it, once per side.
                other.remove_ptr_eq(key, inst);
                let children = if side == 0 {
                    vec![inst.clone(), e]
                } else {
                    vec![e, inst.clone()]
                };
                let out = Arc::new(Instance::composite(kind.name(), children));
                self.work.push((parent, out));
            }
            None => {
                own.push(key, inst.clone(), cap);
                self.sweep.touch(parent);
                if self.obs.level.counters() {
                    self.obs.arena.admitted(parent.idx());
                    if self.obs.level.full() {
                        self.obs.occupancy.record(own.len() as u64);
                    }
                }
            }
        }
    }

    /// [`Plan::LeftNegationQuery`]: one probe of the negated child's
    /// history answers the terminator for the whole family `node` holds.
    fn left_negation_query(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        inst: &Arc<Instance>,
    ) {
        let (to, exclusive) = negation_query_end(node, inst);
        let Some(key) = self.keys.key(graph, node.join.ids[1], inst) else {
            return;
        };
        let spec = node.hist_spec.expect("query plan has a spec").0 as usize;
        let not_child = plan.holder(node.children[0]);
        if self.obs.level.counters() {
            self.obs.arena.probed(node.id.idx());
        }
        let last = match &self.states[not_child.idx()] {
            NodeState::Negation(neg) => neg.last_occurrence(spec, key, to, exclusive),
            other => unreachable!("negation child has state {other:?}"),
        };
        self.emit_absent(plan.family(node.id), node, inst, last, to);
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
            self.work.push((node.id, out));
        }
    }

    /// [`Plan::RightNegationWait`]: the initiator waits out the window in
    /// which the negated terminator must stay absent.
    fn right_negation_wait(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        inst: &Arc<Instance>,
    ) {
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
        self.wait_on_negation(graph, plan, node, 1, inst, from, to);
    }

    /// [`Plan::NegationRecorder`]: record the occurrence under the key of
    /// every parent that correlates with it.
    fn record_negation(&mut self, graph: &EventGraph, node: &Node, inst: &Arc<Instance>) {
        let parent = node.id;
        let specs = graph.hist_specs(parent);
        self.sweep.touch(parent);
        let NodeState::Negation(neg) = &mut self.states[parent.idx()] else {
            unreachable!("negation state");
        };
        neg.ensure_specs(specs.len().max(1));
        if specs.is_empty() {
            // No parent correlates: record under the empty key.
            neg.record(0, &EMPTY_KEY, inst.t_end());
            if self.obs.level.counters() {
                self.obs.arena.admitted(parent.idx());
            }
        } else {
            for (i, spec) in specs.iter().enumerate() {
                if let Some(key) = self.keys.key(graph, spec.key, inst) {
                    neg.record(i, key, inst.t_end());
                    if self.obs.level.counters() {
                        self.obs.arena.admitted(parent.idx());
                    }
                }
            }
        }
    }

    /// [`Plan::AperiodicRecorder`]: record the element for a terminator.
    fn record_aperiodic(&mut self, node: &Node, inst: &Arc<Instance>) {
        self.sweep.touch(node.id);
        let NodeState::Aperiodic(ap) = &mut self.states[node.id.idx()] else {
            unreachable!("aperiodic state");
        };
        ap.record(inst.clone());
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
            self.work.push((parent, out));
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
    #[allow(clippy::too_many_arguments)]
    fn wait_on_negation(
        &mut self,
        graph: &EventGraph,
        plan: &CompiledPlan,
        node: &Node,
        not_side: u8,
        inst: &Arc<Instance>,
        from: Timestamp,
        to: Timestamp,
    ) {
        let push_side = usize::from(1 - not_side);
        let Some(key) = self.keys.key(graph, node.join.ids[push_side], inst) else {
            return;
        };
        let spec = node.hist_spec.expect("wait plan has a spec").0 as usize;
        let not_child = plan.holder(node.children[not_side as usize]);
        let kind_name = node.kind.name();

        let clock = self.timeline.clock();
        let past_end = clock.min(to);
        if from <= past_end {
            if self.obs.level.counters() {
                self.obs.arena.probed(node.id.idx());
            }
            let occurred = match &self.states[not_child.idx()] {
                NodeState::Negation(neg) => neg.occurred(spec, key, from, past_end, false),
                other => unreachable!("negation child has state {other:?}"),
            };
            if occurred {
                return;
            }
        }
        if to <= clock {
            // Whole window already elapsed (lagged push-side delivery).
            let absence = Arc::new(Instance::absence(from, to));
            let children = if not_side == 0 {
                vec![absence, inst.clone()]
            } else {
                vec![inst.clone(), absence]
            };
            self.work
                .push((node.id, Arc::new(Instance::composite(kind_name, children))));
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
                to,
            },
        );
        if self.obs.level.counters() {
            self.obs.arena.admitted(node.id.idx());
        }
        let due = Due::ResolveWait { node: node.id };
        self.timeline.schedule(to, anchor, due);
    }
}

/// Where the window of a negated-initiator `SEQ`/`TSEQ` query ends for
/// terminator `inst`, and whether that end is exclusive. The window starts
/// a [`Member::cutoff`] before the terminator's end: the `WITHIN` for
/// `SEQ`, the maximum distance for `TSEQ`.
fn negation_query_end(node: &Node, inst: &Instance) -> (Timestamp, bool) {
    match node.kind {
        NodeKind::Seq => (inst.t_begin(), true),
        NodeKind::TSeq { min_dist, .. } => (
            inst.t_end().saturating_sub(min_dist).min(inst.t_begin()),
            false,
        ),
        ref other => unreachable!("negated-initiator query on {other:?}"),
    }
}

/// The per-key FIFO cap of a join side retained for `span`: the capacity
/// cap where the solver could not bound the side by time, none otherwise.
fn side_cap(config: &EngineConfig, span: Span) -> usize {
    if span == Span::MAX {
        config.unbounded_cap
    } else {
        usize::MAX
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

fn initial_state(node: &Node) -> NodeState {
    match &node.plan {
        Plan::Leaf | Plan::Forward | Plan::LeftNegationQuery | Plan::LeftAperiodicQuery => {
            NodeState::Stateless
        }
        Plan::TwoSided => NodeState::Join {
            left: KeyedBuffer::default(),
            right: KeyedBuffer::default(),
        },
        Plan::RightNegationWait | Plan::AndNegation { .. } => NodeState::Wait(WaitState::default()),
        Plan::NegationRecorder => NodeState::Negation(NegationState::default()),
        Plan::AperiodicRecorder => NodeState::Aperiodic(AperiodicState::default()),
        Plan::TimedAperiodic => NodeState::TimedRun(TimedRunState::default()),
    }
}
