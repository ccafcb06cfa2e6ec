//! Key-sharded parallel detection: a scale-out layer over [`Engine`].
//!
//! The chronicle-context engine is inherently sequential — buffers consume
//! instances in arrival order. But most RFID rules (Rule 1's duplicate
//! filter, Rule 2's missing-reads detector, the asset-monitoring negations)
//! correlate *every* stateful constituent on the object EPC. For such rules
//! detection decomposes exactly: an occurrence only ever combines events
//! carrying the same object, so routing observations by `hash(object) % N`
//! to N independent engines preserves the paper's semantics bit-for-bit
//! while processing shards in parallel.
//!
//! [`ShardedEngine`] implements this in three pieces:
//!
//! 1. **Compile-time shardability analysis** ([`shardability`]): a rule is
//!    *object-shardable* iff its compiled subgraph contains no global-run
//!    constructor (`SEQ+`/`TSEQ+` runs span arbitrary objects) and every
//!    stateful binary plan (chronicle join, negation query, negation wait)
//!    carries the object EPC in its correlation key on both sides
//!    ([`crate::key::JoinSpec::keys_on`]). Stateless plans (`OR` forwarding,
//!    leaf dispatch) never constrain sharding.
//! 2. **Routing + batched ingestion**: observations are appended to a
//!    per-shard batch and shipped over a bounded channel (backpressure) to
//!    worker threads, each owning a plain single-threaded [`Engine`] loaded
//!    with the shardable rules. Rules that fail the analysis run on
//!    *residual* workers that receive the full stream by broadcast — the
//!    sharded engine never rejects a rule, it just cannot split its stream.
//!    Residual rules are still mutually independent detection trees over
//!    that stream, so they parallelize **by rule**: [`partition_rules`]
//!    splits them across [`ShardConfig::residual_workers`] partitions,
//!    keeping rules that share compiled subgraphs together (merging is
//!    preserved within a worker) and balancing partitions by leaf-dispatch
//!    fan-out. Per-worker delivery stays timestamp-ordered because both
//!    keyed routing and broadcast preserve the stream's order.
//! 3. **Barrier-based harvest**: firings accumulate inside workers and are
//!    delivered to the caller's sink at [`ShardedEngine::advance_to`] /
//!    [`ShardedEngine::finish`] barriers, merged across shards in stable
//!    `(t_end, shard, seq)` order, together with the merged
//!    [`EngineStats`]. `finish` drains every worker's pseudo-event queue,
//!    so `NOT`/`TSEQ+` windows resolve exactly as they do single-threaded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use rfid_events::{Catalog, EventExpr, Instance, Observation, Timestamp};

use crate::engine::{Engine, EngineConfig, RuleId, Sink};
use crate::error::InvalidRule;
use crate::graph::{EventGraph, NodeId, NodeKind, Plan};
use crate::key::{mix64, Attr};
use crate::obs::{Histogram, TelemetrySnapshot};
use crate::program::{Program, RuleEvent};
use crate::stats::EngineStats;

/// Why a rule must run on the residual (full-stream) shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualReason {
    /// The rule contains `SEQ+` or `TSEQ+`: aperiodic runs accumulate
    /// elements regardless of object, so splitting the stream would split
    /// the runs.
    GlobalRun,
    /// Some stateful join or negation does not carry the object EPC in its
    /// correlation key; its chronicle buffers mix objects, so consumption
    /// order depends on the full stream.
    KeylessJoin,
}

/// Result of the compile-time shardability analysis for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shardability {
    /// Every stateful constituent correlates on the object EPC: detection
    /// partitions exactly by `hash(object) % N`.
    Object,
    /// The rule needs the full stream on a single engine.
    Residual(ResidualReason),
}

impl Shardability {
    /// Whether the rule can run on keyed shards.
    pub fn is_object(self) -> bool {
        matches!(self, Shardability::Object)
    }
}

/// The object-shardability of the rule rooted at `root`, read off the plan
/// of every node under it. The verdict is the rule's own however many
/// other rules share those nodes: a node's plan and join are fixed when it
/// is built, and [`EventGraph::reachable`] visits them in the order a graph
/// of this rule alone would, so the first reason found is the same too.
pub fn shardability(graph: &EventGraph, root: NodeId) -> Shardability {
    for id in graph.reachable(root) {
        let node = graph.node(id);
        if matches!(node.kind, NodeKind::SeqPlus | NodeKind::TSeqPlus { .. }) {
            return Shardability::Residual(ResidualReason::GlobalRun);
        }
        let stateful = matches!(
            node.plan,
            Plan::TwoSided
                | Plan::LeftNegationQuery
                | Plan::LeftAperiodicQuery
                | Plan::RightNegationWait
                | Plan::AndNegation { .. }
        );
        if stateful && !node.join.keys_on(Attr::Object) {
            return Shardability::Residual(ResidualReason::KeylessJoin);
        }
    }
    Shardability::Object
}

/// Tuning knobs of the sharded pipeline.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of keyed worker shards (clamped to at least 1). Residual
    /// workers, when any rule needs them, are additional workers.
    pub shards: usize,
    /// Number of rule-partitioned residual workers (clamped to at least 1,
    /// and to the number of merge groups the residual rule set actually
    /// splits into). Each residual worker owns a disjoint subset of the
    /// unshardable rules and receives the full stream by broadcast, so
    /// ingestion cost grows with this knob while detection parallelizes.
    pub residual_workers: usize,
    /// Observations per ingestion batch.
    pub batch_size: usize,
    /// Bounded channel depth per shard, in batches; a full queue blocks the
    /// router (backpressure) instead of buffering without limit.
    pub queue_depth: usize,
    /// Configuration for each worker's inner engine.
    pub engine: EngineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        Self {
            shards,
            residual_workers: 1,
            batch_size: 1024,
            queue_depth: 4,
            engine: EngineConfig::default(),
        }
    }
}

/// Merge-aware partition of `rules` — rules of the solved `program` — into
/// at most `max_parts` disjoint subsets for rule-partitioned broadcast
/// execution. Returns the partitions as sorted id lists; deterministic for
/// a fixed input.
///
/// Two concerns compete:
///
/// * **Preserve common-subgraph merging.** Rules whose subgraphs in the
///   program's merged graph share *any* node are grouped together and never
///   split. Splitting them would be semantically sound — every rule is a
///   deterministic function of the full stream — but each worker would
///   rebuild the shared subtree and redo its detection work, forfeiting
///   exactly the merging §4.3 introduces.
/// * **Balance by static cost.** A worker's per-observation broadcast cost
///   is the work its detection trees cause. Each merge group is weighted
///   by the summed solved CPU weight of its distinct nodes
///   ([`crate::cost::CostEstimate::cpu_weight`], from the program's cost
///   model): leaf dispatch *and* expected join probes against the solved
///   retention windows. Groups are placed longest-processing-time-first
///   onto the lightest partition, rather than dealt round-robin.
pub fn partition_rules(program: &Program, rules: &[RuleId], max_parts: usize) -> Vec<Vec<RuleId>> {
    if rules.is_empty() {
        return Vec::new();
    }
    // Track which rule first claimed each node; a later rule touching a
    // claimed node unions the two rules' groups.
    let mut uf: Vec<usize> = (0..rules.len()).collect();
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    let mut rule_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let reachable = program.graph().reachable(program.roots()[rule.0 as usize]);
        for &node in &reachable {
            match owner.entry(node) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let (a, b) = (find(&mut uf, i), find(&mut uf, *o.get()));
                    if a != b {
                        uf[a.max(b)] = a.min(b);
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(i);
                }
            }
        }
        rule_nodes.push(reachable);
    }
    // Collect merge groups and weigh each by its distinct nodes (a shared
    // node costs a worker once, so count it once).
    let mut groups: HashMap<usize, (u64, Vec<usize>)> = HashMap::new();
    for i in 0..rules.len() {
        let rep = find(&mut uf, i);
        groups.entry(rep).or_default().1.push(i);
    }
    let cost = program.cost();
    for (weight, members) in groups.values_mut() {
        let mut nodes: Vec<NodeId> = members
            .iter()
            .flat_map(|&i| rule_nodes[i].iter().copied())
            .collect();
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        // Fixed-point scale so LPT compares solved weights with enough
        // resolution; +1 keeps every group schedulable.
        let w: f64 = nodes.iter().map(|&n| cost.node(n).cpu_weight).sum();
        *weight = (w * 1024.0).round() as u64 + 1;
    }
    // LPT bin-packing: heaviest group first, onto the lightest partition.
    let mut ordered: Vec<(u64, usize, Vec<usize>)> = groups
        .into_iter()
        .map(|(_, (w, members))| {
            let first = *members.iter().min().expect("groups are non-empty");
            (w, first, members)
        })
        .collect();
    ordered.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let parts_n = max_parts.max(1).min(ordered.len());
    let mut loads = vec![0u64; parts_n];
    let mut parts: Vec<Vec<RuleId>> = vec![Vec::new(); parts_n];
    for (weight, _, members) in ordered {
        let lightest = (0..parts_n)
            .min_by_key(|&p| (loads[p], p))
            .expect("at least one partition");
        loads[lightest] += weight;
        parts[lightest].extend(members.into_iter().map(|i| rules[i]));
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    parts
}

/// Union-find `find` with path compression.
fn find(uf: &mut [usize], mut i: usize) -> usize {
    while uf[i] != i {
        uf[i] = uf[uf[i]];
        i = uf[i];
    }
    i
}

/// A rule firing shipped from a worker to the coordinator.
struct Firing {
    /// Global rule id (coordinator numbering).
    rule: RuleId,
    inst: Arc<Instance>,
    t_end: Timestamp,
    /// Worker-local emission sequence, for stable ordering.
    seq: u64,
}

enum Cmd {
    Batch(Vec<Observation>),
    AdvanceTo(Timestamp),
    Finish,
}

struct Reply {
    firings: Vec<Firing>,
    stats: EngineStats,
    /// Telemetry snapshot taken at the barrier; `None` unless the worker
    /// engines observe (boxed — it is two orders of magnitude larger than
    /// the rest of the reply).
    telemetry: Option<Box<TelemetrySnapshot>>,
}

struct Worker {
    cmd_tx: mpsc::SyncSender<Cmd>,
    reply_rx: mpsc::Receiver<Reply>,
    /// Emptied batch buffers coming back from the worker, so steady-state
    /// ingestion reuses allocations instead of growing a fresh `Vec` per
    /// batch.
    recycle_rx: mpsc::Receiver<Vec<Observation>>,
    depth: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

struct Runtime {
    workers: Vec<Worker>,
    /// Per-worker batch under construction.
    pending: Vec<Vec<Observation>>,
    /// Number of keyed workers (prefix of `workers`).
    keyed: usize,
    /// Index of the first broadcast (rule-partitioned residual) worker;
    /// `workers[broadcast_start..]` all receive the full stream.
    broadcast_start: usize,
}

/// Parallel detection over keyed shards; see the module docs.
///
/// Unlike [`Engine::process`], [`ShardedEngine::process`] takes no sink:
/// firings surface at the next barrier ([`ShardedEngine::advance_to`] or
/// [`ShardedEngine::finish`]), since they happen asynchronously inside
/// workers. Rules must all be added before the first observation.
pub struct ShardedEngine {
    /// The coordinator's compile of the whole rule set: what shardability
    /// and the residual partitions are read from. Workers compile their
    /// own subsets.
    program: Program,
    catalog: Catalog,
    config: ShardConfig,
    /// Per-rule verdict, indexed by [`RuleId`].
    shardability: Vec<Shardability>,
    runtime: Option<Runtime>,
    finished: bool,
    /// Latest stats snapshot per worker (updated at barriers).
    worker_stats: Vec<EngineStats>,
    /// Latest telemetry snapshot per worker (updated at barriers; `None`
    /// when the engines run with observability off).
    worker_telemetry: Vec<Option<TelemetrySnapshot>>,
    /// Per-shard ingestion queue depth, sampled at every batch flush —
    /// the backpressure trajectory, not just the final high-water mark.
    queue_hists: Vec<Histogram>,
    /// Rule partition of each broadcast worker, in worker order (set on
    /// start; empty before the first observation).
    partitions: Vec<Vec<RuleId>>,
    rule_firings: Vec<u64>,
    batches: u64,
    max_queue_depth: u64,
}

impl ShardedEngine {
    /// Creates a sharded engine over a deployment catalog.
    pub fn new(catalog: Catalog, config: ShardConfig) -> Self {
        Self {
            program: Program::new(),
            catalog,
            config,
            shardability: Vec::new(),
            runtime: None,
            finished: false,
            worker_stats: Vec::new(),
            worker_telemetry: Vec::new(),
            queue_hists: Vec::new(),
            partitions: Vec::new(),
            rule_firings: Vec::new(),
            batches: 0,
            max_queue_depth: 0,
        }
    }

    /// Registers a rule, returning its id (coordinator numbering, used in
    /// sink callbacks). The rule is validated and analyzed for
    /// shardability immediately; workers compile it on spawn.
    ///
    /// # Panics
    /// Panics if called after the first observation was processed — the
    /// worker engines are already running.
    pub fn add_rule(&mut self, name: &str, event: EventExpr) -> Result<RuleId, InvalidRule> {
        assert!(
            self.runtime.is_none(),
            "add rules before processing observations"
        );
        let id = self.program.add_rule(RuleEvent::new(name, name, event))?;
        let root = self.program.roots()[id.0 as usize];
        self.shardability
            .push(shardability(self.program.graph(), root));
        self.rule_firings.push(0);
        Ok(id)
    }

    /// The shardability verdict for a rule.
    pub fn shardability(&self, rule: RuleId) -> Shardability {
        self.shardability[rule.0 as usize]
    }

    /// Name of a rule.
    pub fn rule_name(&self, rule: RuleId) -> &str {
        &self.program.rules()[rule.0 as usize].name
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.shardability.len()
    }

    /// Firings so far per rule, as harvested at barriers.
    pub fn firings_per_rule(&self) -> &[u64] {
        &self.rule_firings
    }

    /// Number of keyed shards that will run (or are running).
    pub fn keyed_shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Whether any rule requires a residual full-stream worker.
    pub fn has_residual(&self) -> bool {
        self.shardability.iter().any(|s| !s.is_object())
    }

    /// Number of broadcast (rule-partitioned residual) workers running.
    /// Zero before the first observation and when every rule is keyed.
    pub fn residual_worker_count(&self) -> usize {
        self.partitions.len()
    }

    /// The rule partition each broadcast worker owns, in worker order
    /// (empty before the pipeline starts). With a single keyed shard the
    /// keyed rules fold into these partitions too, so the union may exceed
    /// the residual rule set.
    pub fn residual_partitions(&self) -> &[Vec<RuleId>] {
        &self.partitions
    }

    /// Per-worker counters as of the last barrier: the keyed shards first,
    /// then one entry per broadcast partition (same order as
    /// [`ShardedEngine::residual_partitions`]).
    pub fn worker_stats(&self) -> &[EngineStats] {
        &self.worker_stats
    }

    /// Counters merged across every shard at the last barrier, plus the
    /// coordinator's batching counters. Per-engine counters sum, so an
    /// observation delivered to both a keyed shard and a residual worker is
    /// counted by each engine that processed it; gauges merge as maxima.
    pub fn stats(&self) -> EngineStats {
        let mut merged = self
            .worker_stats
            .iter()
            .fold(EngineStats::default(), |acc, s| acc.merge(*s));
        merged.batches = self.batches;
        merged.max_queue_depth = self.max_queue_depth;
        merged.residual_workers = self.partitions.len() as u64;
        merged
    }

    /// Per-worker telemetry as of the last barrier, in
    /// [`ShardedEngine::worker_stats`] order. Entries stay `None` until a
    /// barrier runs with [`crate::obs::ObserveLevel::Counters`] or above.
    pub fn worker_telemetry(&self) -> &[Option<TelemetrySnapshot>] {
        &self.worker_telemetry
    }

    /// Telemetry merged across every worker at the last barrier. Per-node
    /// tables survive the merge only when all observing workers compiled
    /// the same plan (keyed shards do; residual partitions compile
    /// different rule subsets, so a mixed fleet keeps counters and
    /// histograms but drops the node tables). Stats are replaced by
    /// [`ShardedEngine::stats`] so the coordinator's batching counters are
    /// included, and the queue-depth histogram is the per-flush depth
    /// distribution across all shards — backpressure over time, not just
    /// the high-water mark. `None` until a barrier has run with
    /// observability on.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        let mut merged: Option<TelemetrySnapshot> = None;
        for snap in self.worker_telemetry.iter().flatten() {
            match merged.as_mut() {
                Some(acc) => acc.merge(snap),
                None => merged = Some(snap.clone()),
            }
        }
        let mut merged = merged?;
        "sharded".clone_into(&mut merged.label);
        merged.stats = self.stats();
        merged.queue_depth = Histogram::default();
        for h in &self.queue_hists {
            merged.queue_depth.merge_from(h);
        }
        Some(merged)
    }

    /// Routes one observation to its keyed shard and broadcasts it to every
    /// residual worker. Observations must arrive in non-decreasing
    /// timestamp order, exactly as for [`Engine::process`].
    ///
    /// # Panics
    /// Panics if the stream was already [`ShardedEngine::finish`]ed.
    pub fn process(&mut self, obs: Observation) {
        assert!(!self.finished, "stream already finished");
        self.ensure_started();
        let rt = self.runtime.as_mut().expect("started above");
        let batch_size = self.config.batch_size;
        if rt.keyed > 0 {
            let shard = shard_of(&obs.object, rt.keyed);
            rt.pending[shard].push(obs);
            if rt.pending[shard].len() >= batch_size {
                flush(
                    rt,
                    shard,
                    batch_size,
                    &mut self.batches,
                    &mut self.max_queue_depth,
                    &mut self.queue_hists[shard],
                );
            }
        }
        for idx in rt.broadcast_start..rt.workers.len() {
            rt.pending[idx].push(obs);
            if rt.pending[idx].len() >= batch_size {
                flush(
                    rt,
                    idx,
                    batch_size,
                    &mut self.batches,
                    &mut self.max_queue_depth,
                    &mut self.queue_hists[idx],
                );
            }
        }
    }

    /// Feeds a whole stream, then finishes it, delivering all firings.
    pub fn process_all<I>(&mut self, stream: I, sink: &mut Sink<'_>)
    where
        I: IntoIterator<Item = Observation>,
    {
        for obs in stream {
            self.process(obs);
        }
        self.finish(sink);
    }

    /// Epoch barrier: flushes partial batches, advances every worker's
    /// clock to `now` (executing due pseudo events deterministically), and
    /// delivers the firings accumulated since the previous barrier.
    pub fn advance_to(&mut self, now: Timestamp, sink: &mut Sink<'_>) {
        assert!(!self.finished, "stream already finished");
        self.barrier(|| Cmd::AdvanceTo(now), sink);
    }

    /// Final barrier: flushes everything, drains every worker's pseudo
    /// queue (windows extending past the last observation resolve, as in
    /// [`Engine::finish`]), delivers the remaining firings, and joins the
    /// worker threads. The engine cannot process further observations.
    pub fn finish(&mut self, sink: &mut Sink<'_>) {
        if self.finished {
            return;
        }
        self.barrier(|| Cmd::Finish, sink);
        let mut rt = self.runtime.take().expect("started by the barrier");
        for w in &mut rt.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
        self.finished = true;
    }

    /// Flushes every worker's partial batch, sends each the barrier
    /// command, and harvests the replies.
    fn barrier(&mut self, cmd: impl Fn() -> Cmd, sink: &mut Sink<'_>) {
        self.ensure_started();
        let rt = self.runtime.as_mut().expect("started above");
        for i in 0..rt.workers.len() {
            flush(
                rt,
                i,
                self.config.batch_size,
                &mut self.batches,
                &mut self.max_queue_depth,
                &mut self.queue_hists[i],
            );
            rt.workers[i].cmd_tx.send(cmd()).expect("worker alive");
        }
        self.harvest(sink);
    }

    /// Receives one reply per worker and emits the merged firings.
    fn harvest(&mut self, sink: &mut Sink<'_>) {
        let rt = self.runtime.as_ref().expect("harvest only after start");
        let mut merged: Vec<(usize, Firing)> = Vec::new();
        for (idx, worker) in rt.workers.iter().enumerate() {
            let reply = worker.reply_rx.recv().expect("worker replies at barrier");
            self.worker_stats[idx] = reply.stats;
            if let Some(snap) = reply.telemetry {
                self.worker_telemetry[idx] = Some(*snap);
            }
            merged.extend(reply.firings.into_iter().map(|f| (idx, f)));
        }
        merged.sort_by_key(|(shard, f)| (f.t_end, *shard, f.seq));
        for (_, f) in merged {
            self.rule_firings[f.rule.0 as usize] += 1;
            sink(f.rule, &f.inst);
        }
    }

    /// Spawns the worker threads on first use.
    fn ensure_started(&mut self) {
        if self.runtime.is_some() {
            return;
        }
        let all: Vec<RuleId> = (0..self.rule_count() as u32).map(RuleId).collect();
        let (shardable, residual): (Vec<RuleId>, Vec<RuleId>) =
            all.iter().partition(|r| self.shardability(**r).is_object());
        let max_parts = self.config.residual_workers.max(1);

        let keyed;
        let broadcast_sets: Vec<Vec<RuleId>>;
        if self.keyed_shards() == 1 && !shardable.is_empty() {
            // A single keyed shard receives the full stream anyway, so keyed
            // routing buys nothing over broadcast: fold the keyed rules into
            // the broadcast partitions. With one residual worker this is the
            // classic fold (every rule on one full-stream engine — same
            // semantics, half the ingestion); with more, the keyed rules get
            // rule-partitioned along with the residual ones.
            keyed = 0;
            broadcast_sets = self.partition(&all, max_parts);
        } else {
            keyed = if shardable.is_empty() {
                0
            } else {
                self.keyed_shards()
            };
            broadcast_sets = self.partition(&residual, max_parts);
        }
        let mut workers = Vec::new();
        for shard in 0..keyed {
            workers.push(self.spawn_worker(&format!("shard-{shard}"), &shardable));
        }
        let broadcast_start = workers.len();
        for (p, set) in broadcast_sets.iter().enumerate() {
            workers.push(self.spawn_worker(&format!("residual-{p}"), set));
        }
        self.partitions = broadcast_sets;
        let pending = workers.iter().map(|_| Vec::new()).collect();
        self.worker_stats = vec![EngineStats::default(); workers.len()];
        self.worker_telemetry = vec![None; workers.len()];
        self.queue_hists = vec![Histogram::default(); workers.len()];
        self.runtime = Some(Runtime {
            workers,
            pending,
            keyed,
            broadcast_start,
        });
    }

    /// Partitions `rules` into at most `max_parts` merge-aware groups (see
    /// [`partition_rules`]); the coordinator program is solved only when
    /// there is a split to weigh.
    fn partition(&mut self, rules: &[RuleId], max_parts: usize) -> Vec<Vec<RuleId>> {
        if rules.is_empty() {
            return Vec::new();
        }
        if max_parts <= 1 || rules.len() == 1 {
            return vec![rules.to_vec()];
        }
        self.program.solve(Some(&self.catalog));
        partition_rules(&self.program, rules, max_parts)
    }

    /// Builds one worker: an engine loaded with `rules` (in global order,
    /// so worker-local ids map back positionally) on its own thread.
    fn spawn_worker(&self, name: &str, rules: &[RuleId]) -> Worker {
        let defs = rules.iter().map(|r| &self.program.rules()[r.0 as usize]);
        let engine = Engine::with_rules(
            self.catalog.clone(),
            self.config.engine.clone(),
            defs.map(|def| (def.name.as_str(), &def.event)),
        )
        .expect("rules validated by add_rule");
        let map = rules.to_vec();
        let (cmd_tx, cmd_rx) = mpsc::sync_channel(self.config.queue_depth.max(1));
        let (reply_tx, reply_rx) = mpsc::channel();
        let (recycle_tx, recycle_rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let worker_depth = depth.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || worker_loop(engine, map, cmd_rx, reply_tx, recycle_tx, worker_depth))
            .expect("spawn worker thread");
        Worker {
            cmd_tx,
            reply_rx,
            recycle_rx,
            depth,
            handle: Some(handle),
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Closing the command channels ends the worker loops; join so no
        // detached thread outlives the coordinator.
        if let Some(rt) = self.runtime.take() {
            for worker in rt.workers {
                let Worker {
                    cmd_tx,
                    reply_rx,
                    handle,
                    ..
                } = worker;
                drop(cmd_tx);
                drop(reply_rx);
                if let Some(handle) = handle {
                    let _ = handle.join();
                }
            }
        }
    }
}

/// Ships worker `idx`'s pending batch, tracking queue-depth high water. The
/// replacement batch buffer comes from the worker's recycle channel when one
/// is already back, so the router allocates only while the pipeline ramps
/// up.
fn flush(
    rt: &mut Runtime,
    idx: usize,
    batch_size: usize,
    batches: &mut u64,
    max_depth: &mut u64,
    qdepth: &mut Histogram,
) {
    if rt.pending[idx].is_empty() {
        return;
    }
    let worker = &rt.workers[idx];
    let replacement = worker
        .recycle_rx
        .try_recv()
        .unwrap_or_else(|_| Vec::with_capacity(batch_size));
    let batch = std::mem::replace(&mut rt.pending[idx], replacement);
    let depth = worker.depth.fetch_add(1, Ordering::AcqRel) as u64 + 1;
    *max_depth = (*max_depth).max(depth);
    qdepth.record(depth);
    *batches += 1;
    worker.cmd_tx.send(Cmd::Batch(batch)).expect("worker alive");
}

/// Deterministic object routing: one splitmix64 fold of the packed 96-bit
/// EPC word — the same mixer the engine's correlation keys hash with, and
/// much cheaper than streaming the EPC through SipHash per observation.
/// Pure arithmetic, so shard assignment is stable across runs and
/// platforms.
fn shard_of(object: &rfid_epc::Epc, shards: usize) -> usize {
    let raw = object.raw();
    let h = mix64(raw as u64 ^ mix64((raw >> 64) as u64));
    (h % shards as u64) as usize
}

/// Appends one firing, tagging it with the global rule id and the
/// worker-local emission sequence.
fn push_firing(
    map: &[RuleId],
    seq: &mut u64,
    firings: &mut Vec<Firing>,
    rule: RuleId,
    inst: &Instance,
) {
    *seq += 1;
    firings.push(Firing {
        rule: map[rule.0 as usize],
        inst: Arc::new(inst.clone()),
        t_end: inst.t_end(),
        seq: *seq,
    });
}

/// Telemetry for a barrier reply: `None` with observability off (the common
/// case — barriers stay allocation-light), else a snapshot labelled with the
/// worker's thread name (`shard-N` / `residual-P`).
fn snapshot_telemetry(engine: &mut Engine) -> Option<Box<TelemetrySnapshot>> {
    if !engine.observe_level().counters() {
        return None;
    }
    let mut snap = engine.telemetry();
    if let Some(name) = std::thread::current().name() {
        name.clone_into(&mut snap.label);
    }
    Some(Box::new(snap))
}

/// One worker: drives its engine over batches, accumulates firings (with
/// global rule ids), replies at barriers, and returns emptied batch buffers
/// for reuse.
fn worker_loop(
    mut engine: Engine,
    map: Vec<RuleId>,
    cmd_rx: mpsc::Receiver<Cmd>,
    reply_tx: mpsc::Sender<Reply>,
    recycle_tx: mpsc::Sender<Vec<Observation>>,
    depth: Arc<AtomicUsize>,
) {
    let mut firings: Vec<Firing> = Vec::new();
    let mut seq = 0u64;
    while let Ok(cmd) = cmd_rx.recv() {
        let mut sink = |rule: RuleId, inst: &Instance| {
            push_firing(&map, &mut seq, &mut firings, rule, inst);
        };
        let last = match cmd {
            Cmd::Batch(mut batch) => {
                engine.process_batch(&batch, &mut sink);
                batch.clear();
                depth.fetch_sub(1, Ordering::AcqRel);
                // Hand the emptied buffer back; if the router is gone the
                // buffer just drops.
                let _ = recycle_tx.send(batch);
                continue;
            }
            Cmd::AdvanceTo(t) => {
                engine.advance_to(t, &mut sink);
                false
            }
            Cmd::Finish => {
                engine.finish(&mut sink);
                true
            }
        };
        // A barrier: reply with everything fired since the previous one.
        let reply = Reply {
            firings: std::mem::take(&mut firings),
            stats: engine.stats(),
            telemetry: snapshot_telemetry(&mut engine),
        };
        if reply_tx.send(reply).is_err() || last {
            break; // coordinator gone, or end of stream
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_events::Span;

    fn obs_any() -> rfid_events::expr::ObservationBuilder {
        EventExpr::observation()
    }

    /// The verdict for one rule alone, or the builder's rejection.
    fn analyze(event: &EventExpr) -> Result<Shardability, InvalidRule> {
        let mut program = Program::new();
        let id = program.add_rule(RuleEvent::new("r", "rule", event.clone()))?;
        Ok(shardability(
            program.graph(),
            program.roots()[id.0 as usize],
        ))
    }

    /// Partitions the program of `events` (all of its rules), as positions
    /// into `events`.
    fn partition(catalog: &Catalog, events: &[&EventExpr], max_parts: usize) -> Vec<Vec<usize>> {
        let rules = events
            .iter()
            .map(|&e| RuleEvent::new("r", "rule", e.clone()));
        let program = Program::compile(Some(catalog), rules);
        let all: Vec<RuleId> = (0..events.len() as u32).map(RuleId).collect();
        partition_rules(&program, &all, max_parts)
            .into_iter()
            .map(|part| part.into_iter().map(|r| r.0 as usize).collect())
            .collect()
    }

    #[test]
    fn analysis_classifies_canonical_shapes() {
        // Rule 1: duplicate filter, keyed on (reader, object) — shardable.
        let dup = obs_any()
            .bind_reader("r")
            .bind_object("o")
            .seq(obs_any().bind_reader("r").bind_object("o"))
            .within(Span::from_secs(5));
        assert_eq!(analyze(&dup).unwrap(), Shardability::Object);

        // Rule 2 shape: NOT keyed on object — shardable.
        let missing = obs_any()
            .bind_object("o")
            .not()
            .seq(obs_any().bind_object("o"))
            .within(Span::from_secs(30));
        assert_eq!(analyze(&missing).unwrap(), Shardability::Object);

        // Keyless SEQ: chronicle consumption is global — residual.
        let keyless = EventExpr::observation_at("r0")
            .seq(EventExpr::observation_at("r1"))
            .within(Span::from_secs(10));
        assert_eq!(
            analyze(&keyless).unwrap(),
            Shardability::Residual(ResidualReason::KeylessJoin)
        );

        // Reader-only key: still mixes objects — residual.
        let reader_only = obs_any()
            .bind_reader("r")
            .seq(obs_any().bind_reader("r"))
            .within(Span::from_secs(10));
        assert_eq!(
            analyze(&reader_only).unwrap(),
            Shardability::Residual(ResidualReason::KeylessJoin)
        );

        // TSEQ+ runs are global — residual.
        let run = EventExpr::observation_at("r0")
            .tseq_plus(Span::ZERO, Span::from_secs(1))
            .within(Span::from_secs(60));
        assert_eq!(
            analyze(&run).unwrap(),
            Shardability::Residual(ResidualReason::GlobalRun)
        );

        // OR of primitives is stateless — shardable.
        let ored = EventExpr::observation_at("r0")
            .or(EventExpr::observation_at("r1"))
            .within(Span::from_secs(5));
        assert_eq!(analyze(&ored).unwrap(), Shardability::Object);
    }

    #[test]
    fn analysis_propagates_invalid_rules() {
        assert!(analyze(&EventExpr::observation_at("r0").build().not()).is_err());
    }

    fn named_run(conv: &str, caser: &str) -> EventExpr {
        EventExpr::observation_at(conv)
            .tseq_plus(Span::ZERO, Span::from_secs(1))
            .tseq(
                EventExpr::observation_at(caser),
                Span::ZERO,
                Span::from_secs(2),
            )
            .within(Span::from_secs(60))
    }

    fn line_catalog(lines: usize) -> Catalog {
        let mut catalog = Catalog::new();
        for i in 0..lines {
            catalog
                .readers
                .register(&format!("conv{i}"), "convs", "line");
            catalog
                .readers
                .register(&format!("caser{i}"), "casers", "line");
        }
        catalog
    }

    #[test]
    fn partitioner_balances_independent_rules() {
        // Eight containment-style rules over disjoint readers: no shared
        // structure, equal fan-out, so 3 partitions split them 3/3/2.
        let catalog = line_catalog(8);
        let events: Vec<EventExpr> = (0..8)
            .map(|i| named_run(&format!("conv{i}"), &format!("caser{i}")))
            .collect();
        let refs: Vec<&EventExpr> = events.iter().collect();
        let parts = partition(&catalog, &refs, 3);
        assert_eq!(parts.len(), 3);
        let mut sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3, 3], "LPT must balance equal weights");
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>(), "partition, not sample");
    }

    #[test]
    fn partitioner_keeps_merged_subgraphs_together() {
        // Rules 0 and 2 share the conv0 TSEQ+ subexpression (they differ
        // only in the terminator distance), so the merged graph unifies the
        // run node — they must land in the same partition. Rule 1 is
        // structurally disjoint.
        let catalog = line_catalog(2);
        let a = named_run("conv0", "caser0");
        let b = named_run("conv1", "caser1");
        let c = EventExpr::observation_at("conv0")
            .tseq_plus(Span::ZERO, Span::from_secs(1))
            .tseq(
                EventExpr::observation_at("caser0"),
                Span::ZERO,
                Span::from_secs(5),
            )
            .within(Span::from_secs(60));
        let parts = partition(&catalog, &[&a, &b, &c], 3);
        assert_eq!(parts.len(), 2, "two merge groups, not three rules");
        let with_a = parts
            .iter()
            .find(|p| p.contains(&0))
            .expect("rule 0 is somewhere");
        assert!(
            with_a.contains(&2),
            "rules sharing the TSEQ+ node must colocate: {parts:?}"
        );
        assert!(!with_a.contains(&1), "disjoint rule gets its own partition");
    }

    #[test]
    fn partitioner_weighs_by_dispatch_fanout() {
        // One group-leaf rule (its leaves see every conv and caser reader)
        // vs. three named-leaf rules (one reader per leaf): the solved
        // weight grows with a leaf's share of the stream, so with two
        // partitions LPT puts the heavy group rule alone and the three
        // cheap rules together — round-robin would split 2/2.
        let catalog = line_catalog(3);
        let heavy = EventExpr::observation_in_group("convs")
            .seq(EventExpr::observation_in_group("casers"))
            .within(Span::from_secs(5));
        let cheap: Vec<EventExpr> = (0..3)
            .map(|i| named_run(&format!("conv{i}"), &format!("caser{i}")))
            .collect();
        let refs: Vec<&EventExpr> = std::iter::once(&heavy).chain(cheap.iter()).collect();
        let parts = partition(&catalog, &refs, 2);
        assert_eq!(parts.len(), 2);
        let heavy_part = parts
            .iter()
            .find(|p| p.contains(&0))
            .expect("heavy rule is somewhere");
        assert_eq!(
            heavy_part,
            &vec![0],
            "cost-weighted packing isolates the group-leaf rule: {parts:?}"
        );
    }

    #[test]
    fn partitioner_solved_cost_sees_join_weight() {
        // Rule 0 is a negation over a one-minute window: its history is
        // never consumed, so every positive arrival rescans a minute of
        // buffered stream — enormous solved probe cost from just two named
        // leaves. Rules 1..=3 join the same-fan-out leaves over a 1 ms
        // window: negligible probe cost. Counting leaves alone would see
        // four equal groups and split them 2/2; solved weights isolate the
        // negation rule, and the packing is deterministic.
        let catalog = line_catalog(4);
        let heavy = EventExpr::observation_at("conv0")
            .and(EventExpr::observation_at("caser0").not())
            .within(Span::from_secs(60));
        let blips: Vec<EventExpr> = (1..=3)
            .map(|i| {
                EventExpr::observation_at(&format!("conv{i}"))
                    .seq(EventExpr::observation_at(&format!("caser{i}")))
                    .within(Span::from_millis(1))
            })
            .collect();
        let refs: Vec<&EventExpr> = std::iter::once(&heavy).chain(blips.iter()).collect();
        let solved = partition(&catalog, &refs, 2);
        assert_eq!(solved, partition(&catalog, &refs, 2));
        let heavy_part = solved
            .iter()
            .find(|p| p.contains(&0))
            .expect("negation rule is somewhere");
        assert_eq!(
            heavy_part,
            &vec![0],
            "solved weights isolate the negation scan: {solved:?}"
        );
    }

    #[test]
    fn partitioner_clamps_to_group_count() {
        let catalog = line_catalog(2);
        let a = named_run("conv0", "caser0");
        let b = named_run("conv1", "caser1");
        let parts = partition(&catalog, &[&a, &b], 16);
        assert_eq!(parts.len(), 2, "never more partitions than merge groups");
        assert!(partition(&catalog, &[], 4).is_empty());
    }

    #[test]
    fn routing_is_total_and_stable() {
        use rfid_epc::Gid96;
        for n in [1usize, 2, 7, 8] {
            for serial in 0..64u64 {
                let epc: rfid_epc::Epc = Gid96::new(1, 1, serial).unwrap().into();
                let s = shard_of(&epc, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&epc, n), "stable per object");
            }
        }
    }
}
