//! Key-sharded, rule-partitioned parallel detection: a scale-out layer over
//! [`Engine`].
//!
//! The chronicle-context engine is inherently sequential — buffers consume
//! instances in arrival order. Two decompositions are nevertheless exact:
//!
//! * **By object.** Most RFID rules (Rule 1's duplicate filter, Rule 2's
//!   missing-reads detector, the asset-monitoring negations) correlate
//!   *every* stateful constituent on the object EPC, so an occurrence only
//!   ever combines events carrying the same object: routing observations by
//!   `hash(object) % N` to N engines preserves the paper's semantics bit for
//!   bit ([`shardability`]).
//! * **By rule.** Rules that share no compiled node are independent
//!   detection trees over the stream, and a tree only ever looks at the
//!   readers its leaves name: an engine holding a subset of the rules needs
//!   only the observations of those readers.
//!
//! [`ShardedEngine`] runs both on one design, *partitions on a pool*:
//!
//! 1. **Partitions.** A partition is a plain single-threaded [`Engine`]
//!    over a rule subset, the firings it has produced since the last
//!    barrier, and a bounded inbox of commands. Object-shardable rules run
//!    on [`ShardConfig::shards`] *keyed* partitions (every one holds all of
//!    them and takes the observations `shard_of` routes to it); the rest —
//!    the sharded engine never rejects a rule — are cut by
//!    [`partition_rules`] into *broadcast* partitions: merge groups are
//!    never split (common-subgraph merging survives inside a partition) and
//!    are placed by reader fan-out, into `PARTITIONS_PER_THREAD` times as
//!    many partitions as [`ShardConfig::residual_workers`]: many small
//!    partitions scheduled at run time need only a rough weight.
//! 2. **Subscriptions.** Each partition's per-reader subscription is read
//!    off its own compiled dispatch rows: it receives an observation only
//!    if some leaf of its engine could match that reader (a leaf over any
//!    reader subscribes it to everything). What it does not receive could
//!    only have advanced its clock: due pseudo events are executed by its
//!    next relevant observation or the next barrier under the engine's own
//!    `exec < now` test, so firings are exactly the full-stream engine's.
//!    Per-partition delivery stays timestamp-ordered because routing,
//!    filtering and batching all preserve the stream's order.
//! 3. **A pool.** `keyed partitions + residual_workers` threads take ready
//!    partitions — those with a non-empty inbox — from one queue, and a
//!    thread drains a partition's inbox before it yields it, so a hand-off
//!    costs one wake-up per run of batches, not per batch. The coordinator
//!    blocks on a full inbox (backpressure): at most `partitions ×
//!    queue_depth` batches are ever queued.
//! 4. **Barrier-based harvest.** Firings accumulate inside partitions and
//!    are delivered to the caller's sink at [`ShardedEngine::advance_to`] /
//!    [`ShardedEngine::finish`] barriers, merged in stable `(t_end,
//!    partition, seq)` order, together with the merged [`EngineStats`]. A
//!    barrier reaches every partition, subscribed to the recent stream or
//!    not, and `finish` drains every partition's timeline, so `NOT`/`TSEQ+`
//!    windows resolve exactly as they do single-threaded.
//!
//! A panic inside a partition's engine is caught on its pool thread and
//! raised again, with its original payload, by the coordinator's next flush
//! or barrier.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use rfid_events::{Catalog, EventExpr, Instance, Observation, ReaderSel, Timestamp};

use crate::engine::{Engine, EngineConfig, RuleId, Sink};
use crate::error::InvalidRule;
use crate::graph::{EventGraph, NodeId, NodeKind, Plan};
use crate::key::{mix64, Attr};
use crate::obs::{Histogram, TelemetrySnapshot};
use crate::program::{Program, RuleEvent};
use crate::stats::EngineStats;

/// Why a rule must run on a broadcast partition: one engine for every read
/// of its readers, whatever the object.
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
    /// The rule needs every read of its readers on a single engine.
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

/// Broadcast partitions cut per residual pool thread. Over-decomposition is
/// what keeps the pool balanced under a rough weight (reader fan-out): a
/// thread that finishes a light partition takes the next ready one instead
/// of idling behind a mis-weighted peer. Four keeps a partition's batches
/// large enough that a hand-off stays rare (a constant, not a knob: it was
/// the only value measured and nothing in a deployment sets it).
const PARTITIONS_PER_THREAD: usize = 4;

/// Tuning knobs of the sharded pipeline.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of keyed partitions (clamped to at least 1), each adding one
    /// thread to the pool. With 1 there is no keyed routing: the keyed
    /// rules fold into the broadcast partitions.
    pub shards: usize,
    /// Pool threads added for the broadcast (rule-partitioned) rules,
    /// clamped to at least 1 and to the number of broadcast partitions.
    /// The rules are cut into up to four times as many partitions, each
    /// subscribed only to the readers its rules name.
    pub residual_workers: usize,
    /// Observations per ingestion batch.
    pub batch_size: usize,
    /// Bound of each partition's inbox, in batches (clamped to at least 1);
    /// a full inbox blocks the router (backpressure) instead of buffering
    /// without limit, so at most `partitions × queue_depth` batches are
    /// queued at any time.
    pub queue_depth: usize,
    /// Configuration for each partition's engine.
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

/// Merge-aware partition of `rules` — rules of `program`, deployed over
/// `catalog` — into at most `max_parts` disjoint subsets, the broadcast
/// partitions. Returns the partitions as sorted id lists; deterministic for
/// a fixed input.
///
/// Two concerns compete:
///
/// * **Preserve common-subgraph merging.** Rules whose subgraphs in the
///   program's merged graph share *any* node are grouped together and never
///   split. Splitting them would be semantically sound — every rule is a
///   deterministic function of the full stream — but each partition would
///   rebuild the shared subtree and redo its detection work, forfeiting
///   exactly the merging §4.3 introduces.
/// * **Balance by reader fan-out.** A partition receives the reads of every
///   reader one of its leaves can match, and each such read is work. A
///   merge group weighs `1 +` the readers its distinct leaves can match: a
///   named reader counts 1 (0 if the catalog does not register it), a group
///   its members, any reader all of them. Groups are placed
///   longest-processing-time-first onto the lightest partition, rather than
///   dealt round-robin.
pub fn partition_rules(
    program: &Program,
    catalog: &Catalog,
    rules: &[RuleId],
    max_parts: usize,
) -> Vec<Vec<RuleId>> {
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
    // Collect merge groups and weigh each by its distinct leaves (a shared
    // leaf is delivered to a partition once, so count it once).
    let mut groups: HashMap<usize, (u64, Vec<usize>)> = HashMap::new();
    for i in 0..rules.len() {
        let rep = find(&mut uf, i);
        groups.entry(rep).or_default().1.push(i);
    }
    let fanout = |sel: &ReaderSel| match sel {
        ReaderSel::Named(name) => u64::from(catalog.reader(name).is_some()),
        ReaderSel::Group(g) => catalog.readers.members(g).len() as u64,
        ReaderSel::Any => catalog.readers.len() as u64,
    };
    for (weight, members) in groups.values_mut() {
        let mut nodes: Vec<NodeId> = members
            .iter()
            .flat_map(|&i| rule_nodes[i].iter().copied())
            .collect();
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        let leaves = nodes
            .iter()
            .filter_map(|&n| match &program.graph().node(n).kind {
                NodeKind::Primitive(p) => Some(fanout(&p.reader)),
                _ => None,
            });
        // +1 keeps every group schedulable.
        *weight = 1 + leaves.sum::<u64>();
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

/// A rule firing on its way from a partition to the coordinator.
struct Firing {
    /// Global rule id (coordinator numbering).
    rule: RuleId,
    inst: Arc<Instance>,
    t_end: Timestamp,
    /// Partition-local emission sequence, for stable ordering.
    seq: u64,
}

enum Cmd {
    Batch(Vec<Observation>),
    AdvanceTo(Timestamp),
    Finish,
}

/// What a partition answers a barrier with.
struct Reply {
    firings: Vec<Firing>,
    stats: EngineStats,
    /// Telemetry snapshot taken at the barrier; `None` unless the engines
    /// observe (boxed — it is two orders of magnitude larger than the rest
    /// of the reply).
    telemetry: Option<Box<TelemetrySnapshot>>,
}

/// The part of a partition only the thread running it touches.
struct Work {
    engine: Engine,
    /// Partition-local rule id → coordinator rule id.
    map: Vec<RuleId>,
    /// Fired since the last barrier.
    firings: Vec<Firing>,
    seq: u64,
    /// `shard-N` / `residual-P`: the label of its telemetry snapshots.
    label: String,
}

/// The part of a partition the coordinator and the pool exchange.
#[derive(Default)]
struct Inbox {
    cmds: VecDeque<Cmd>,
    /// On the ready queue or held by a pool thread; set by whoever makes
    /// the inbox non-empty, cleared by the thread that finds it empty.
    scheduled: bool,
    /// Emptied batch buffers on their way back, so steady-state ingestion
    /// reuses allocations instead of growing a fresh `Vec` per batch.
    recycled: Vec<Vec<Observation>>,
    /// The answer to the last barrier command, until harvested.
    reply: Option<Reply>,
}

struct Partition {
    /// `None` once the partition has run `Finish`.
    work: Mutex<Option<Work>>,
    inbox: Mutex<Inbox>,
    /// Signalled when the inbox loses a command or gains a reply: the two
    /// things the coordinator waits for.
    changed: Condvar,
}

/// Partitions with a non-empty inbox that no thread holds.
#[derive(Default)]
struct Ready {
    queue: VecDeque<usize>,
    shutdown: bool,
}

/// What the coordinator and the pool threads share.
struct Pool {
    parts: Vec<Partition>,
    ready: Mutex<Ready>,
    /// Signalled when `ready` gains a partition or shuts down.
    wake: Condvar,
    /// A partition's engine panicked; `panic` holds the payload until the
    /// coordinator raises it again. Stored with `Release` after the payload
    /// is in place, loaded with `Acquire` before it is taken.
    failed: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Locks an inbox, the ready queue or the panic slot, past poisoning: every
/// update under these locks is one push, pop or flag write, so the data is
/// valid whenever a guard is released. (An engine's panic poisons only its
/// partition's `work`, which is not locked again.)
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// One pool thread: runs ready partitions until shutdown.
    fn serve(&self) {
        while let Some(idx) = self.next_ready() {
            let part = &self.parts[idx];
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| part.drain())) {
                self.fail(payload);
                return;
            }
        }
    }

    fn next_ready(&self) -> Option<usize> {
        let mut ready = lock(&self.ready);
        loop {
            if ready.shutdown {
                return None;
            }
            if let Some(idx) = ready.queue.pop_front() {
                return Some(idx);
            }
            ready = self
                .wake
                .wait(ready)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Appends `cmd` to partition `idx`'s inbox, blocking while it is full,
    /// and makes the partition ready if no thread has it. Returns the inbox
    /// depth after the push and a recycled batch buffer, if one is back.
    fn push(&self, idx: usize, cmd: Cmd, bound: usize) -> (usize, Option<Vec<Observation>>) {
        let mut inbox = self.wait(idx, |inbox| inbox.cmds.len() < bound);
        inbox.cmds.push_back(cmd);
        let depth = inbox.cmds.len();
        let recycled = inbox.recycled.pop();
        let idle = !std::mem::replace(&mut inbox.scheduled, true);
        drop(inbox);
        if idle {
            lock(&self.ready).queue.push_back(idx);
            self.wake.notify_one();
        }
        (depth, recycled)
    }

    /// Blocks the coordinator until partition `idx`'s inbox satisfies
    /// `ready` — unless an engine panicked, which ends the wait (that
    /// partition will not progress) by raising the panic here.
    fn wait(&self, idx: usize, ready: impl Fn(&Inbox) -> bool) -> MutexGuard<'_, Inbox> {
        let part = &self.parts[idx];
        let mut inbox = lock(&part.inbox);
        loop {
            if self.failed.load(Ordering::Acquire) {
                drop(inbox);
                match lock(&self.panic).take() {
                    Some(payload) => resume_unwind(payload),
                    None => panic!("a partition's engine panicked earlier"),
                }
            }
            if ready(&inbox) {
                return inbox;
            }
            inbox = part
                .changed
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records an engine panic and wakes everyone: the pool threads to
    /// exit, the coordinator — wherever it waits — to raise it again.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        lock(&self.panic).get_or_insert(payload);
        self.failed.store(true, Ordering::Release);
        self.shutdown();
        for part in &self.parts {
            // Taking the lock orders this after a coordinator that has
            // checked `failed` and is about to wait.
            drop(lock(&part.inbox));
            part.changed.notify_all();
        }
    }

    fn shutdown(&self) {
        lock(&self.ready).shutdown = true;
        self.wake.notify_all();
    }
}

impl Partition {
    /// Runs the inbox dry, then yields the partition. Draining rather than
    /// running one command per wake-up is what keeps a hand-off per *run*
    /// of batches: yielding after every command measured 2.5–2.9M ev/s on
    /// the ledger's `sharded` workload where this measures 3.2–3.6M, at
    /// twice the `chunk_p90_us`.
    fn drain(&self) {
        let mut slot = self
            .work
            .lock()
            .expect("a partition whose engine panicked is not run again");
        let mut spent: Option<Vec<Observation>> = None;
        loop {
            let cmd = {
                let mut inbox = lock(&self.inbox);
                inbox.recycled.extend(spent.take());
                let Some(cmd) = inbox.cmds.pop_front() else {
                    inbox.scheduled = false;
                    return;
                };
                cmd
            };
            self.changed.notify_one();
            let work = slot.as_mut().expect("no command follows `Finish`");
            match cmd {
                Cmd::Batch(mut batch) => {
                    work.run(|engine, sink| engine.process_batch(&batch, sink));
                    batch.clear();
                    spent = Some(batch);
                }
                Cmd::AdvanceTo(t) => {
                    work.run(|engine, sink| engine.advance_to(t, sink));
                    self.reply(work);
                }
                Cmd::Finish => {
                    work.run(|engine, sink| engine.finish(sink));
                    self.reply(work);
                    // The engine's state is freed here, on the pool, while
                    // the coordinator merges — not by the coordinator after
                    // it has joined the threads.
                    *slot = None;
                }
            }
        }
    }

    /// Answers a barrier with everything fired since the previous one.
    fn reply(&self, work: &mut Work) {
        let reply = Reply {
            firings: std::mem::take(&mut work.firings),
            stats: work.engine.stats(),
            telemetry: work.snapshot_telemetry(),
        };
        lock(&self.inbox).reply = Some(reply);
        self.changed.notify_one();
    }
}

impl Work {
    /// Drives the engine with a sink that tags each firing with the global
    /// rule id and the partition-local emission sequence.
    fn run(&mut self, drive: impl FnOnce(&mut Engine, &mut Sink<'_>)) {
        let Work {
            engine,
            map,
            firings,
            seq,
            ..
        } = self;
        drive(engine, &mut |rule: RuleId, inst: &Instance| {
            *seq += 1;
            firings.push(Firing {
                rule: map[rule.0 as usize],
                inst: Arc::new(inst.clone()),
                t_end: inst.t_end(),
                seq: *seq,
            });
        });
    }

    /// Telemetry for a barrier reply: `None` with observability off (the
    /// common case — barriers stay allocation-light), else a snapshot
    /// labelled with the partition's name.
    fn snapshot_telemetry(&mut self) -> Option<Box<TelemetrySnapshot>> {
        if !self.engine.observe_level().counters() {
            return None;
        }
        let mut snap = self.engine.telemetry();
        self.label.clone_into(&mut snap.label);
        Some(Box::new(snap))
    }
}

/// The running pipeline, as the coordinator sees it.
struct Runtime {
    pool: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
    /// Per-partition batch under construction.
    pending: Vec<Vec<Observation>>,
    /// Number of keyed partitions (prefix of the partitions); the rest are
    /// broadcast.
    keyed: usize,
    /// Registered readers: `subscribed` has one row per reader id, plus a
    /// last one for every id outside the catalog.
    readers: usize,
    /// Row-major `[reader][partition]`: whether the partition's compiled
    /// dispatch can activate a leaf on that reader's observations.
    subscribed: Vec<bool>,
}

impl Runtime {
    /// Appends `obs` to partition `idx`'s batch, shipping it when full.
    fn deliver(&mut self, idx: usize, obs: Observation, config: &ShardConfig, flow: &mut Flow) {
        self.pending[idx].push(obs);
        if self.pending[idx].len() >= config.batch_size {
            self.flush(idx, config, flow);
        }
    }

    /// Ships partition `idx`'s pending batch, if any. The replacement
    /// buffer is a recycled one when one is already back, so the router
    /// allocates only while the pipeline ramps up.
    fn flush(&mut self, idx: usize, config: &ShardConfig, flow: &mut Flow) {
        if self.pending[idx].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending[idx]);
        let (depth, recycled) = self
            .pool
            .push(idx, Cmd::Batch(batch), config.queue_depth.max(1));
        self.pending[idx] = recycled.unwrap_or_else(|| Vec::with_capacity(config.batch_size));
        flow.batches += 1;
        flow.max_queue_depth = flow.max_queue_depth.max(depth as u64);
        flow.queue_hists[idx].record(depth as u64);
    }
}

/// The coordinator's batching counters.
#[derive(Default)]
struct Flow {
    batches: u64,
    max_queue_depth: u64,
    /// Per-partition inbox depth, sampled at every batch flush — the
    /// backpressure trajectory, not just the final high-water mark.
    queue_hists: Vec<Histogram>,
}

/// Parallel detection over partitions on a thread pool; see the module
/// docs.
///
/// Unlike [`Engine::process`], [`ShardedEngine::process`] takes no sink:
/// firings surface at the next barrier ([`ShardedEngine::advance_to`] or
/// [`ShardedEngine::finish`]), since they happen asynchronously inside
/// partitions. Rules must all be added before the first observation.
pub struct ShardedEngine {
    /// The coordinator's compile of the whole rule set: what shardability
    /// and the broadcast partitions are read from. Partitions compile
    /// their own subsets.
    program: Program,
    catalog: Catalog,
    config: ShardConfig,
    /// Per-rule verdict, indexed by [`RuleId`].
    shardability: Vec<Shardability>,
    runtime: Option<Runtime>,
    finished: bool,
    /// Latest stats snapshot per partition (updated at barriers).
    worker_stats: Vec<EngineStats>,
    /// Latest telemetry snapshot per partition (updated at barriers;
    /// `None` when the engines run with observability off).
    worker_telemetry: Vec<Option<TelemetrySnapshot>>,
    /// Rule set of each broadcast partition, in partition order (set on
    /// start; empty before the first observation).
    partitions: Vec<Vec<RuleId>>,
    rule_firings: Vec<u64>,
    flow: Flow,
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
            partitions: Vec::new(),
            rule_firings: Vec::new(),
            flow: Flow::default(),
        }
    }

    /// Registers a rule, returning its id (coordinator numbering, used in
    /// sink callbacks). The rule is validated and analyzed for
    /// shardability immediately; partitions compile it on start.
    ///
    /// # Panics
    /// Panics if called after the first observation was processed — the
    /// partition engines are already running.
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

    /// Whether any rule is residual, i.e. needs a broadcast partition.
    pub fn has_residual(&self) -> bool {
        self.shardability.iter().any(|s| !s.is_object())
    }

    /// Pool threads serving the broadcast partitions: the configured
    /// [`ShardConfig::residual_workers`], or fewer when there are fewer
    /// partitions to run. Zero before the first observation and when every
    /// rule is keyed. Threads are not partitions:
    /// [`ShardedEngine::residual_partitions`] counts those.
    pub fn residual_worker_count(&self) -> usize {
        self.config
            .residual_workers
            .max(1)
            .min(self.partitions.len())
    }

    /// The rule set of each broadcast partition, in partition order (empty
    /// before the pipeline starts) — up to four per residual worker. With
    /// a single keyed shard the keyed rules fold into these partitions
    /// too, so the union may exceed the residual rule set.
    pub fn residual_partitions(&self) -> &[Vec<RuleId>] {
        &self.partitions
    }

    /// Per-partition counters as of the last barrier: the keyed shards
    /// first, then one entry per broadcast partition (same order as
    /// [`ShardedEngine::residual_partitions`]). A partition's `events`
    /// counts the observations *delivered* to it — those of the readers it
    /// subscribes to, on its key route.
    pub fn worker_stats(&self) -> &[EngineStats] {
        &self.worker_stats
    }

    /// Counters merged across every partition at the last barrier, plus
    /// the coordinator's batching counters. Per-engine counters sum, so
    /// `events` is the number of observations *delivered*: one delivered
    /// to two partitions counts twice, one no partition subscribes to not
    /// at all. Gauges merge as maxima; `residual_workers` is
    /// [`ShardedEngine::residual_worker_count`].
    pub fn stats(&self) -> EngineStats {
        let mut merged = self
            .worker_stats
            .iter()
            .fold(EngineStats::default(), |acc, s| acc.merge(*s));
        merged.batches = self.flow.batches;
        merged.max_queue_depth = self.flow.max_queue_depth;
        merged.residual_workers = self.residual_worker_count() as u64;
        merged
    }

    /// Per-partition telemetry as of the last barrier, in
    /// [`ShardedEngine::worker_stats`] order. Entries stay `None` until a
    /// barrier runs with [`crate::obs::ObserveLevel::Counters`] or above.
    pub fn worker_telemetry(&self) -> &[Option<TelemetrySnapshot>] {
        &self.worker_telemetry
    }

    /// Telemetry merged across every partition at the last barrier.
    /// Per-node tables survive the merge only when all observing
    /// partitions compiled the same plan (keyed shards do; broadcast
    /// partitions compile different rule subsets, so a mixed fleet keeps
    /// counters and histograms but drops the node tables). Stats are
    /// replaced by [`ShardedEngine::stats`] so the coordinator's batching
    /// counters are included, and the queue-depth histogram is the
    /// per-flush inbox depth distribution across all partitions —
    /// backpressure over time, not just the high-water mark. `None` until
    /// a barrier has run with observability on.
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
        for h in &self.flow.queue_hists {
            merged.queue_depth.merge_from(h);
        }
        Some(merged)
    }

    /// Hands one observation to the partitions subscribed to its reader:
    /// its keyed shard and every such broadcast partition. Observations
    /// must arrive in non-decreasing timestamp order, exactly as for
    /// [`Engine::process`].
    ///
    /// # Panics
    /// Panics if the stream was already [`ShardedEngine::finish`]ed, and
    /// with a partition engine's own panic if one happened since the last
    /// call that shipped a batch.
    pub fn process(&mut self, obs: Observation) {
        assert!(!self.finished, "stream already finished");
        self.ensure_started();
        let rt = self.runtime.as_mut().expect("started above");
        let parts = rt.pending.len();
        let row = (obs.reader.0 as usize).min(rt.readers) * parts;
        if rt.keyed > 0 {
            let shard = shard_of(&obs.object, rt.keyed);
            if rt.subscribed[row + shard] {
                rt.deliver(shard, obs, &self.config, &mut self.flow);
            }
        }
        for idx in rt.keyed..parts {
            if rt.subscribed[row + idx] {
                rt.deliver(idx, obs, &self.config, &mut self.flow);
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

    /// Epoch barrier: flushes partial batches, advances every partition's
    /// clock to `now` (executing due pseudo events deterministically), and
    /// delivers the firings accumulated since the previous barrier.
    pub fn advance_to(&mut self, now: Timestamp, sink: &mut Sink<'_>) {
        assert!(!self.finished, "stream already finished");
        self.barrier(|| Cmd::AdvanceTo(now), sink);
    }

    /// Final barrier: flushes everything, drains every partition's pseudo
    /// queue (windows extending past the last observation resolve, as in
    /// [`Engine::finish`]), delivers the remaining firings, and joins the
    /// pool threads. The engine cannot process further observations.
    pub fn finish(&mut self, sink: &mut Sink<'_>) {
        if self.finished {
            return;
        }
        self.barrier(|| Cmd::Finish, sink);
        // Joins the pool (`Drop for Runtime`).
        self.runtime = None;
        self.finished = true;
    }

    /// Flushes every partition's partial batch, sends each the barrier
    /// command, and harvests the replies.
    fn barrier(&mut self, cmd: impl Fn() -> Cmd, sink: &mut Sink<'_>) {
        self.ensure_started();
        let rt = self.runtime.as_mut().expect("started above");
        let bound = self.config.queue_depth.max(1);
        for idx in 0..rt.pending.len() {
            rt.flush(idx, &self.config, &mut self.flow);
            rt.pool.push(idx, cmd(), bound);
        }
        self.harvest(sink);
    }

    /// Takes one reply per partition and emits the merged firings.
    fn harvest(&mut self, sink: &mut Sink<'_>) {
        let rt = self.runtime.as_ref().expect("harvest only after start");
        let mut merged: Vec<(usize, Firing)> = Vec::new();
        for idx in 0..rt.pending.len() {
            let reply = rt
                .pool
                .wait(idx, |inbox| inbox.reply.is_some())
                .reply
                .take();
            let reply = reply.expect("waited for it");
            self.worker_stats[idx] = reply.stats;
            if let Some(snap) = reply.telemetry {
                self.worker_telemetry[idx] = Some(*snap);
            }
            merged.extend(reply.firings.into_iter().map(|f| (idx, f)));
        }
        merged.sort_by_key(|(part, f)| (f.t_end, *part, f.seq));
        for (_, f) in merged {
            self.rule_firings[f.rule.0 as usize] += 1;
            sink(f.rule, &f.inst);
        }
    }

    /// Builds the partitions and spawns the pool on first use.
    fn ensure_started(&mut self) {
        if self.runtime.is_some() {
            return;
        }
        let all: Vec<RuleId> = (0..self.rule_count() as u32).map(RuleId).collect();
        let (shardable, residual): (Vec<RuleId>, Vec<RuleId>) =
            all.iter().partition(|r| self.shardability(**r).is_object());
        // A single keyed shard would receive everything its rules subscribe
        // to anyway, so keyed routing buys nothing: fold the keyed rules
        // into the broadcast partitions, where they are rule-partitioned
        // along with the residual ones.
        let fold = self.keyed_shards() == 1;
        let keyed = if fold || shardable.is_empty() {
            0
        } else {
            self.keyed_shards()
        };
        let broadcast = if fold { &all } else { &residual };
        let parts = PARTITIONS_PER_THREAD * self.config.residual_workers.max(1);
        let broadcast_sets = partition_rules(&self.program, &self.catalog, broadcast, parts);
        let mut built = Vec::new();
        for shard in 0..keyed {
            built.push(self.build_partition(format!("shard-{shard}"), &shardable));
        }
        for (p, set) in broadcast_sets.iter().enumerate() {
            built.push(self.build_partition(format!("residual-{p}"), set));
        }
        self.partitions = broadcast_sets;
        let (parts, subscriptions): (Vec<Partition>, Vec<Vec<bool>>) = built.into_iter().unzip();
        let readers = self.catalog.readers.len();
        let subscribed = (0..=readers)
            .flat_map(|slot| subscriptions.iter().map(move |s| s[slot]))
            .collect();

        self.worker_stats = vec![EngineStats::default(); parts.len()];
        self.worker_telemetry = vec![None; parts.len()];
        self.flow.queue_hists = vec![Histogram::default(); parts.len()];
        let pending = parts.iter().map(|_| Vec::new()).collect();
        let pool = Arc::new(Pool {
            parts,
            ready: Mutex::default(),
            wake: Condvar::new(),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let threads = (0..keyed + self.residual_worker_count())
            .map(|i| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("shard-pool-{i}"))
                    .spawn(move || pool.serve())
                    .expect("spawn pool thread")
            })
            .collect();
        self.runtime = Some(Runtime {
            pool,
            threads,
            pending,
            keyed,
            readers,
            subscribed,
        });
    }

    /// Builds one partition — an engine loaded with `rules` (in global
    /// order, so partition-local ids map back positionally), compiled here
    /// — and its subscription: one slot per reader id plus a last one for
    /// ids the catalog never registered, each the engine's own per-run
    /// test of whether the reader's dispatch row can activate a leaf.
    fn build_partition(&self, label: String, rules: &[RuleId]) -> (Partition, Vec<bool>) {
        let defs = rules.iter().map(|r| &self.program.rules()[r.0 as usize]);
        let mut engine = Engine::with_rules(
            self.catalog.clone(),
            self.config.engine.clone(),
            defs.map(|def| (def.name.as_str(), &def.event)),
        )
        .expect("rules validated by add_rule");
        let plan = engine.compiled_plan();
        let subscription = (0..=self.catalog.readers.len() as u32)
            .map(|reader| plan.row_can_match(plan.reader_row(reader)))
            .collect();
        let partition = Partition {
            work: Mutex::new(Some(Work {
                engine,
                map: rules.to_vec(),
                firings: Vec::new(),
                seq: 0,
                label,
            })),
            inbox: Mutex::default(),
            changed: Condvar::new(),
        };
        (partition, subscription)
    }
}

impl Drop for Runtime {
    /// Stops the pool and joins its threads, so none outlives the
    /// coordinator; whatever is still queued is dropped with the
    /// partitions.
    fn drop(&mut self) {
        self.pool.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
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
        partition_rules(&program, catalog, &all, max_parts)
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
    fn partitioner_clamps_to_group_count() {
        let catalog = line_catalog(2);
        let a = named_run("conv0", "caser0");
        let b = named_run("conv1", "caser1");
        let parts = partition(&catalog, &[&a, &b], 16);
        assert_eq!(parts.len(), 2, "never more partitions than merge groups");
        assert!(partition(&catalog, &[], 4).is_empty());
    }

    /// A partition's panic on a pool thread comes back on the coordinator
    /// with its own message, and the engine still drops cleanly: every pool
    /// thread is joined. The panic is planted by emptying one partition's
    /// rule map, so its first firing indexes out of bounds.
    #[test]
    fn a_partition_panic_resurfaces_on_the_coordinator() {
        let mut catalog = Catalog::new();
        catalog.readers.register("r1", "g", "dock");
        let reader = catalog.reader("r1").expect("registered");
        let config = ShardConfig {
            shards: 1,
            residual_workers: 1,
            ..ShardConfig::default()
        };
        let mut engine = ShardedEngine::new(catalog, config);
        let rule = EventExpr::observation_at("r1").within(Span::from_secs(1));
        engine.add_rule("every read", rule).unwrap();
        engine.ensure_started();
        let pool = &engine.runtime.as_ref().expect("started").pool;
        lock(&pool.parts[0].work)
            .as_mut()
            .expect("running")
            .map
            .clear();
        let raised = catch_unwind(AssertUnwindSafe(|| {
            let epc = rfid_epc::Gid96::new(1, 1, 1).unwrap().into();
            engine.process(Observation::new(reader, epc, Timestamp::ZERO));
            engine.finish(&mut |_, _| {});
        }));
        let payload = raised.expect_err("the partition's firing must panic");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("the panic carries a message");
        assert!(message.contains("index out of bounds"), "got `{message}`");
        drop(engine);
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

    /// The shapes of `analysis_classifies_canonical_shapes`, plus one whose
    /// verdict depends on node numbering.
    fn canonical_shapes() -> Vec<(EventExpr, Shardability)> {
        let any = EventExpr::observation;
        let at = EventExpr::observation_at;
        let keyless = Shardability::Residual(ResidualReason::KeylessJoin);
        vec![
            (
                any()
                    .bind_reader("r")
                    .bind_object("o")
                    .seq(any().bind_reader("r").bind_object("o"))
                    .within(Span::from_secs(5)),
                Shardability::Object,
            ),
            (
                any()
                    .bind_object("o")
                    .not()
                    .seq(any().bind_object("o"))
                    .within(Span::from_secs(30)),
                Shardability::Object,
            ),
            (at("r0").seq(at("r1")).within(Span::from_secs(10)), keyless),
            (
                any()
                    .bind_reader("r")
                    .seq(any().bind_reader("r"))
                    .within(Span::from_secs(10)),
                keyless,
            ),
            (
                at("r0")
                    .tseq_plus(Span::ZERO, Span::from_secs(1))
                    .within(Span::from_secs(60)),
                Shardability::Residual(ResidualReason::GlobalRun),
            ),
            (
                at("r0").or(at("r1")).within(Span::from_secs(5)),
                Shardability::Object,
            ),
            // A keyless join numbered before a run in its own graph but after
            // it in a graph that already holds the run: the first reason found
            // must not depend on who else is in the program.
            (
                at("r0")
                    .seq(at("r1"))
                    .seq(at("r0").tseq_plus(Span::ZERO, Span::from_secs(1)))
                    .within(Span::from_secs(60)),
                keyless,
            ),
        ]
    }

    /// Shardability read off the merged coordinator program is the verdict
    /// each rule gets alone.
    #[test]
    fn merged_shardability_is_the_per_rule_verdict() {
        let shapes = canonical_shapes();
        let rule = |e: &EventExpr| RuleEvent::new("r", "rule", e.clone());
        let merged = Program::compile(None, shapes.iter().map(|(e, _)| rule(e)));
        assert_eq!(merged.rules().len(), shapes.len(), "every shape is valid");
        for (i, (event, expected)) in shapes.iter().enumerate() {
            let alone = Program::compile(None, [rule(event)]);
            let verdict = shardability(alone.graph(), alone.roots()[0]);
            assert_eq!(verdict, *expected, "shape {i} alone");
            let verdict = shardability(merged.graph(), merged.roots()[i]);
            assert_eq!(verdict, *expected, "shape {i} in the merged program");
        }
    }

    /// Partitioning the coordinator program returns what partitioning a
    /// graph of just those rules returns, for the `partition_equivalence` rule
    /// pool over the default deployment (32 readers: 8 shelves, 4 docks, 2 POS
    /// registers, 2 exits). Weighed by reader fan-out, rule 0's any-reader leaf
    /// makes it 33, rules 1 and 4 one shelf leaf each 9, rule 3 (docks, POS) 7
    /// and rule 2 (POS, exits) 5.
    #[test]
    fn coordinator_partitions_match_the_per_subset_ones() {
        use rfid_simulator::{SimConfig, SupplyChain};
        let shelf = || EventExpr::observation_in_group("shelves");
        let pos = || EventExpr::observation_in_group("pos");
        let pool = [
            EventExpr::observation()
                .bind_reader("r")
                .bind_object("o")
                .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
                .within(Span::from_secs(5)),
            shelf()
                .bind_object("o")
                .not()
                .seq(shelf().bind_object("o"))
                .within(Span::from_secs(2)),
            pos()
                .bind_object("o")
                .and(
                    EventExpr::observation_in_group("exits")
                        .bind_object("o")
                        .not(),
                )
                .within(Span::from_secs(3)),
            EventExpr::observation_in_group("docks")
                .seq(pos())
                .within(Span::from_secs(10)),
            shelf()
                .tseq_plus(Span::ZERO, Span::from_millis(1_500))
                .within(Span::from_secs(30)),
        ];
        let catalog = SupplyChain::build(SimConfig::default()).catalog;
        let rules = pool.iter().map(|e| RuleEvent::new("r", "rule", e.clone()));
        let program = Program::compile(Some(&catalog), rules);
        let partition = |rules: &[u32], max_parts| -> Vec<Vec<u32>> {
            let rules: Vec<RuleId> = rules.iter().copied().map(RuleId).collect();
            let parts = partition_rules(&program, &catalog, &rules, max_parts);
            let ids = |part: Vec<RuleId>| part.into_iter().map(|r| r.0).collect();
            parts.into_iter().map(ids).collect()
        };
        let all = [0, 1, 2, 3, 4];
        assert_eq!(partition(&all, 1), [vec![0, 1, 2, 3, 4]]);
        assert_eq!(partition(&all, 2), [vec![0], vec![1, 2, 3, 4]]);
        assert_eq!(partition(&all, 3), [vec![0], vec![1, 3], vec![2, 4]]);
        assert_eq!(partition(&all, 4), [vec![0], vec![1], vec![4], vec![2, 3]]);
        let singletons = [vec![0], vec![1], vec![4], vec![3], vec![2]];
        assert_eq!(partition(&all, 5), singletons);
        // The residual rules alone, read off the whole program.
        assert_eq!(partition(&[3, 4], 1), [vec![3, 4]]);
        assert_eq!(partition(&[3, 4], 2), [vec![4], vec![3]]);
        assert_eq!(partition(&[3, 4], 3), [vec![4], vec![3]]);
    }
}
