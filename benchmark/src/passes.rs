//! One pass of a workload's path: every chunk, then the end-of-stream
//! drain, on a fresh engine or runtime.
//!
//! End-to-end passes go through the production surface
//! (`RuleRuntime::process_batch`, `Engine::process_batch`,
//! `ShardedEngine::process`) with [`NoTrace`] and default configuration.
//! The traced pass of an action workload drives a bare engine with a sink
//! of the harness's own, which repeats `rfid_rules::runtime`'s firing steps
//! (`bind` → `eval_cond` → `execute`) with a span around each.

use std::collections::BTreeMap;
use std::time::Instant;

use rceda::{Engine, EngineConfig, EngineStats, ObserveLevel, RuleId, TelemetrySnapshot};
use rfid_edge::{DedupFilter, Pipeline};
use rfid_epc::Epc;
use rfid_events::{Catalog, Instance, Observation, Span, Timestamp};
use rfid_rules::actions::{build_filter, eval, execute};
use rfid_rules::ast::{ActionAst, CondAst};
use rfid_rules::bind::bind;
use rfid_rules::cond::eval_cond;
use rfid_rules::{Procedures, RuleRuntime};
use rfid_store::{Database, Filter, Table, Value};

use crate::procfs;
use crate::span::{Name, NoTrace, SpanTrace, Trace};
use crate::workloads::{Inputs, Rule, Workload, CHUNK};

/// The three tables of `Database::rfid()`, in the order rows are counted.
pub const TABLES: [&str; 3] = ["OBSERVATION", "OBJECTLOCATION", "OBJECTCONTAINMENT"];

/// Chunks between two readings of the engine's gauges in a traced pass.
/// `Engine::stats` walks every node's state: read after each chunk, it
/// evicts what the next chunk needs and slows detection by half.
const SAMPLE_EVERY: usize = 32;

/// The edge filter of `canonical`: re-reads within 5 s are dropped.
const EDGE_DEDUP: Span = Span::from_secs(5);

/// Node-counter sums from the telemetry arena (`ObserveLevel::Counters`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeSums {
    pub probes: u64,
    pub admissions: u64,
    pub prunes: u64,
}

impl NodeSums {
    fn add(&mut self, snap: &TelemetrySnapshot) {
        for i in 0..snap.nodes.len() {
            let n = snap.nodes.node(i);
            self.probes += n.probes;
            self.admissions += n.admissions;
            self.prunes += n.prunes;
        }
    }
}

/// What a pass did and produced.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    /// All chunks plus the drain.
    pub wall_ns: u64,
    /// Process CPU (user + system, all threads) over the same interval.
    pub cpu_s: f64,
    /// The drain alone.
    pub finish_ns: u64,
    /// Service time of each full chunk.
    pub chunk_ns: Vec<u64>,
    /// Observations offered to the path (text lines for `canonical`).
    pub offered: u64,
    /// Lines the decoder refused.
    pub rejected: u64,
    /// Observations the edge filter dropped.
    pub edge_dropped: u64,
    /// Firings per rule, in script order.
    pub firings: Vec<u64>,
    /// `RuntimeError`s (bind or action failures).
    pub errors: u64,
    /// Live rows per table of [`TABLES`]; zeros for detection-only paths.
    pub rows: [u64; 3],
    /// Calls per procedure name.
    pub calls: BTreeMap<String, u64>,
    pub stats: EngineStats,
    /// Per-worker events, `sharded` only.
    pub worker_events: Vec<u64>,
    /// Peaks of the `buffered_entries` / `retained_keys` gauges over the
    /// samples taken; traced passes only.
    pub buffered_peak: u64,
    pub retained_keys_peak: u64,
    /// Traced passes only.
    pub nodes: NodeSums,
    /// `VmRSS` at the end of the pass, engine or runtime still alive.
    pub rss_alive_mb: f64,
    /// Store writes in execution order; traced action passes only.
    pub store_ops: Vec<StoreOp>,
}

impl PassOut {
    pub fn total_firings(&self) -> u64 {
        self.firings.iter().sum()
    }
}

/// Engine configuration of a pass: the default, plus the per-node counters
/// when traced.
fn engine_config(traced: bool) -> EngineConfig {
    EngineConfig {
        observe: if traced {
            ObserveLevel::Counters
        } else {
            ObserveLevel::Off
        },
        ..EngineConfig::default()
    }
}

/// Runs one end-to-end pass: production surface, everything off.
pub fn untraced(inputs: &Inputs) -> PassOut {
    match inputs.workload {
        Workload::Canonical | Workload::Rules500 => runtime_pass(inputs),
        Workload::Detect | Workload::Freshkeys => engine_pass(inputs, &mut NoTrace),
        Workload::Sharded => sharded_pass(inputs, &mut NoTrace),
    }
}

/// Runs one traced pass: spans, allocation counts, node counters.
pub fn traced(inputs: &Inputs, t: &mut SpanTrace) -> PassOut {
    match inputs.workload {
        Workload::Canonical | Workload::Rules500 => fire_pass(inputs, t),
        Workload::Detect | Workload::Freshkeys => engine_pass(inputs, t),
        Workload::Sharded => sharded_pass(inputs, t),
    }
}

/// A single-engine pass over the decoded stream, whatever the workload:
/// the reference `sharded` must agree with and the base of its CPU ratio.
pub fn detect_reference(inputs: &Inputs) -> PassOut {
    engine_pass(inputs, &mut NoTrace)
}

/// Milliseconds from script text to an engine or runtime ready for its first
/// observation: parse, compile, plan lowering, bounds solving.
pub fn load_ms(inputs: &Inputs) -> f64 {
    let t0 = Instant::now();
    if inputs.workload.runs_actions() {
        std::hint::black_box(ready_runtime(inputs));
    } else {
        let program = crate::workloads::Program::compile(inputs.program.script.clone());
        std::hint::black_box(program.engine(&inputs.catalog, EngineConfig::default()));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// A fresh `RuleRuntime` with the script loaded, the plan lowered and the
/// bounds solved, so the first timed chunk does not pay for them.
fn ready_runtime(inputs: &Inputs) -> RuleRuntime {
    let mut rt = RuleRuntime::with_parts(
        inputs.catalog.clone(),
        Database::rfid(),
        EngineConfig::default(),
    );
    rt.load(&inputs.program.script)
        .expect("generated script loads");
    rt.advance_to(Timestamp::ZERO);
    rt
}

/// Feeds a path its chunks: decoded observations as they are, or text lines
/// through the decoder and the edge filter.
struct Ingest<'a> {
    catalog: &'a Catalog,
    stream: &'a [Observation],
    lines: Vec<&'a str>,
    pipeline: Option<Pipeline>,
    buf: Vec<Observation>,
    rejected: u64,
}

impl<'a> Ingest<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        let text = inputs.csv.is_some();
        Self {
            catalog: &inputs.catalog,
            stream: &inputs.stream,
            lines: inputs.lines(),
            pipeline: text.then(|| Pipeline::new().then(DedupFilter::new(EDGE_DEDUP))),
            buf: Vec::with_capacity(CHUNK),
            rejected: 0,
        }
    }

    fn offered(&self) -> usize {
        self.stream.len()
    }

    /// The observations of chunk `i` that reach the engine.
    fn chunk<T: Trace>(&mut self, i: usize, t: &mut T) -> &[Observation] {
        let range = i * CHUNK..((i + 1) * CHUNK).min(self.stream.len());
        let Some(pipeline) = self.pipeline.as_mut() else {
            return &self.stream[range];
        };
        t.begin(Name::EpcDecode);
        self.buf.clear();
        for line in &self.lines[range] {
            match decode_line(line, self.catalog) {
                Some(obs) => self.buf.push(obs),
                None => self.rejected += 1,
            }
        }
        t.end();
        t.begin(Name::EdgeOffer);
        let mut kept = 0;
        for next in 0..self.buf.len() {
            for obs in pipeline.offer(self.buf[next]) {
                // A dedup stage passes at most what it was offered, so the
                // survivors overwrite the prefix already consumed.
                self.buf[kept] = obs;
                kept += 1;
            }
        }
        self.buf.truncate(kept);
        t.end();
        &self.buf
    }

    /// What the edge filter still holds at end of stream (nothing, for a
    /// dedup stage; the call is part of the path all the same).
    fn flush(&mut self) -> Vec<Observation> {
        self.pipeline
            .as_mut()
            .map(Pipeline::flush)
            .unwrap_or_default()
    }

    fn edge_dropped(&self) -> u64 {
        self.pipeline
            .as_ref()
            .map_or(0, |p| p.dropped_per_stage().iter().sum())
    }
}

/// `time_ms,reader,epc` → observation, as `rfid-cli run` decodes a trace.
fn decode_line(line: &str, catalog: &Catalog) -> Option<Observation> {
    let mut cols = line.split(',');
    let at: u64 = cols.next()?.trim().parse().ok()?;
    let reader = catalog.reader(cols.next()?.trim())?;
    let object: Epc = cols.next()?.trim().parse().ok()?;
    cols.next()
        .is_none()
        .then(|| Observation::new(reader, object, Timestamp::from_millis(at)))
}

fn chunks_of(len: usize) -> usize {
    len.div_ceil(CHUNK)
}

/// `canonical`, `rules500`, end to end: `RuleRuntime` as a user runs it.
fn runtime_pass(inputs: &Inputs) -> PassOut {
    let mut rt = ready_runtime(inputs);
    let mut ingest = Ingest::new(inputs);
    let mut out = PassOut::default();

    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    for i in 0..chunks_of(ingest.offered()) {
        let t0 = Instant::now();
        rt.process_batch(ingest.chunk(i, &mut NoTrace));
        if (i + 1) * CHUNK <= ingest.offered() {
            out.chunk_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let t0 = Instant::now();
    rt.process_batch(&ingest.flush());
    rt.finish();
    out.finish_ns = t0.elapsed().as_nanos() as u64;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.cpu_s = procfs::cpu_seconds() - cpu0;

    out.rss_alive_mb = procfs::rss_mb();
    out.offered = ingest.offered() as u64;
    out.rejected = ingest.rejected;
    out.edge_dropped = ingest.edge_dropped();
    out.firings = rt.engine().firings_per_rule().to_vec();
    out.errors = rt.errors().len() as u64;
    out.rows = TABLES.map(|name| rt.db().table(name).map_or(0, Table::len) as u64);
    for (name, _) in &rt.procedures().log {
        *out.calls.entry(name.clone()).or_default() += 1;
    }
    out.stats = rt.stats();
    out
}

/// `detect`, `freshkeys`: a bare engine and a counting sink.
fn engine_pass<T: Trace>(inputs: &Inputs, t: &mut T) -> PassOut {
    let mut engine = inputs.program.engine(&inputs.catalog, engine_config(T::ON));
    let mut out = PassOut::default();
    let mut fired = 0u64;
    let mut sink = |_: RuleId, _: &Instance| fired += 1;

    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    for (i, chunk) in inputs.stream.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        t.begin(Name::Chunk);
        t.begin(Name::CoreBatch);
        engine.process_batch(chunk, &mut sink);
        t.end();
        if T::ON && i % SAMPLE_EVERY == 0 {
            sample_gauges(&engine, t, &mut out);
        }
        t.end();
        if chunk.len() == CHUNK {
            out.chunk_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let t0 = Instant::now();
    t.begin(Name::Drain);
    t.begin(Name::CoreFinish);
    engine.finish(&mut sink);
    t.end();
    t.end();
    out.finish_ns = t0.elapsed().as_nanos() as u64;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.cpu_s = procfs::cpu_seconds() - cpu0;

    out.rss_alive_mb = procfs::rss_mb();
    out.offered = inputs.stream.len() as u64;
    out.firings = engine.firings_per_rule().to_vec();
    debug_assert_eq!(fired, out.total_firings());
    out.stats = engine.stats();
    if T::ON {
        out.nodes.add(&engine.telemetry());
    }
    out
}

fn sample_gauges<T: Trace>(engine: &Engine, t: &mut T, out: &mut PassOut) {
    t.begin(Name::HarnessSample);
    let s = engine.stats();
    out.buffered_peak = out.buffered_peak.max(s.buffered_entries);
    out.retained_keys_peak = out.retained_keys_peak.max(s.retained_keys);
    t.end();
}

/// `sharded`: the feeding thread hands observations to one keyed shard and
/// two residual workers; firings come back at the final barrier.
fn sharded_pass<T: Trace>(inputs: &Inputs, t: &mut T) -> PassOut {
    let mut sharded = inputs
        .program
        .sharded(&inputs.catalog, engine_config(T::ON));
    let mut out = PassOut::default();
    let mut fired = 0u64;
    let mut sink = |_: RuleId, _: &Instance| fired += 1;
    // Spawns the workers and has each lower its plan, before the clock.
    sharded.advance_to(Timestamp::ZERO, &mut sink);

    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    for chunk in inputs.stream.chunks(CHUNK) {
        let t0 = Instant::now();
        t.begin(Name::Chunk);
        t.begin(Name::ShardFeed);
        for &obs in chunk {
            sharded.process(obs);
        }
        t.end();
        t.end();
        if chunk.len() == CHUNK {
            out.chunk_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let t0 = Instant::now();
    t.begin(Name::Drain);
    t.begin(Name::ShardDrain);
    sharded.finish(&mut sink);
    t.end();
    t.end();
    out.finish_ns = t0.elapsed().as_nanos() as u64;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.cpu_s = procfs::cpu_seconds() - cpu0;

    out.rss_alive_mb = procfs::rss_mb();
    out.offered = inputs.stream.len() as u64;
    out.firings = sharded.firings_per_rule().to_vec();
    debug_assert_eq!(fired, out.total_firings());
    out.stats = sharded.stats();
    out.worker_events = sharded.worker_stats().iter().map(|s| s.events).collect();
    // Gauges as of the final barrier: the workers are not observable while
    // they run.
    out.buffered_peak = out.stats.buffered_entries;
    out.retained_keys_peak = out.stats.retained_keys;
    for snap in sharded.worker_telemetry().iter().flatten() {
        out.nodes.add(snap);
    }
    out
}

/// A store write the traced pass performed, for the store-only replay.
#[derive(Debug, Clone)]
pub enum StoreOp {
    Insert {
        table: usize,
        row: Vec<Value>,
    },
    Update {
        table: usize,
        filter: Filter,
        sets: Vec<(String, Value)>,
    },
    Delete {
        table: usize,
        filter: Filter,
    },
}

/// What the harness-owned sink needs besides the engine.
struct Firing<'a> {
    rules: &'a [Rule],
    catalog: &'a Catalog,
    db: Database,
    procs: Procedures,
    errors: u64,
    ops: Vec<StoreOp>,
}

impl Firing<'_> {
    /// `rfid_rules::runtime`'s firing steps, one span each.
    fn fire(&mut self, t: &mut SpanTrace, rule: RuleId, inst: &Instance) {
        t.begin(Name::RulesFire);
        let compiled = &self.rules[rule.0 as usize];
        t.begin(Name::RulesBind);
        let bound = bind(&compiled.event, inst, self.catalog);
        t.end();
        let Ok(bindings) = bound else {
            self.errors += 1;
            t.end();
            return;
        };
        if compiled.decl.condition != CondAst::True {
            t.begin(Name::RulesCond);
            let holds = eval_cond(
                &compiled.decl.condition,
                &bindings,
                inst,
                self.catalog,
                &self.db,
            );
            t.end();
            if !holds {
                t.end();
                return;
            }
        }
        for action in &compiled.decl.actions {
            t.begin(match action {
                ActionAst::Insert { .. } | ActionAst::BulkInsert { .. } => Name::RulesInsert,
                ActionAst::Update { .. } | ActionAst::Delete { .. } => Name::RulesUpdate,
                ActionAst::Call { .. } => Name::RulesCall,
            });
            let done = execute(
                action,
                &bindings,
                inst,
                self.catalog,
                &mut self.db,
                &mut self.procs,
            );
            t.end();
            if done.is_err() {
                self.errors += 1;
                continue;
            }
            t.begin(Name::HarnessOpLog);
            self.log(action, &bindings, inst);
            t.end();
        }
        t.end();
    }

    /// Re-evaluates a successful action's values into a [`StoreOp`].
    fn log(&mut self, action: &ActionAst, b: &rfid_rules::bind::Bindings, inst: &Instance) {
        let table_id = |name: &str| {
            TABLES
                .iter()
                .position(|t| *t == name)
                .expect("the canonical rules write the three RFID tables")
        };
        let row_of = |values: &[rfid_rules::ast::ValueExpr], bulk| -> Vec<Value> {
            values
                .iter()
                .map(|v| eval(v, b, bulk, inst, self.catalog).expect("the action just succeeded"))
                .collect()
        };
        match action {
            ActionAst::Insert { table, values } => self.ops.push(StoreOp::Insert {
                table: table_id(table),
                row: row_of(values, None),
            }),
            ActionAst::BulkInsert { table, values } => {
                for bulk in &b.bulk {
                    self.ops.push(StoreOp::Insert {
                        table: table_id(table),
                        row: row_of(values, Some(bulk)),
                    });
                }
            }
            ActionAst::Update {
                table,
                sets,
                wheres,
            } => self.ops.push(StoreOp::Update {
                table: table_id(table),
                filter: build_filter(wheres, b, inst, self.catalog)
                    .expect("the action just succeeded"),
                sets: sets
                    .iter()
                    .map(|(col, v)| (col.clone(), row_of(std::slice::from_ref(v), None).remove(0)))
                    .collect(),
            }),
            ActionAst::Delete { table, wheres } => self.ops.push(StoreOp::Delete {
                table: table_id(table),
                filter: build_filter(wheres, b, inst, self.catalog)
                    .expect("the action just succeeded"),
            }),
            ActionAst::Call { .. } => {}
        }
    }
}

/// `canonical`, `rules500`, traced: a bare engine and the harness's sink.
fn fire_pass(inputs: &Inputs, t: &mut SpanTrace) -> PassOut {
    let mut engine = inputs.program.engine(&inputs.catalog, engine_config(true));
    let mut ingest = Ingest::new(inputs);
    let mut out = PassOut::default();
    let mut firing = Firing {
        rules: &inputs.program.rules,
        catalog: &inputs.catalog,
        db: Database::rfid(),
        procs: Procedures::new(),
        errors: 0,
        ops: Vec::new(),
    };

    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    for i in 0..chunks_of(ingest.offered()) {
        let t0 = Instant::now();
        t.begin(Name::Chunk);
        let chunk = ingest.chunk(i, t);
        t.begin(Name::CoreBatch);
        engine.process_batch(chunk, &mut |rule, inst| firing.fire(t, rule, inst));
        t.end();
        if i % SAMPLE_EVERY == 0 {
            sample_gauges(&engine, t, &mut out);
        }
        t.end();
        if (i + 1) * CHUNK <= ingest.offered() {
            out.chunk_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let t0 = Instant::now();
    t.begin(Name::Drain);
    let held = ingest.flush();
    t.begin(Name::CoreFinish);
    engine.process_batch(&held, &mut |rule, inst| firing.fire(t, rule, inst));
    engine.finish(&mut |rule, inst| firing.fire(t, rule, inst));
    t.end();
    t.end();
    out.finish_ns = t0.elapsed().as_nanos() as u64;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.cpu_s = procfs::cpu_seconds() - cpu0;

    out.rss_alive_mb = procfs::rss_mb();
    out.offered = ingest.offered() as u64;
    out.rejected = ingest.rejected;
    out.edge_dropped = ingest.edge_dropped();
    out.firings = engine.firings_per_rule().to_vec();
    out.errors = firing.errors;
    out.rows = TABLES.map(|name| firing.db.table(name).map_or(0, Table::len) as u64);
    for (name, _) in &firing.procs.log {
        *out.calls.entry(name.clone()).or_default() += 1;
    }
    out.stats = engine.stats();
    out.nodes.add(&engine.telemetry());
    out.store_ops = firing.ops;
    out
}

/// Timings of the store alone under a pass's writes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub insert_ns: u64,
    pub inserts: u64,
    pub update_ns: u64,
    pub updates: u64,
    pub total_ns: u64,
    pub rows_final: u64,
    pub failed: u64,
}

/// Replays `ops` onto fresh copies of the `Database::rfid()` tables through
/// `Table::insert` / `Table::update` / `Table::delete`, timing each call.
/// What `rules.action.*` spends beyond this is the SQL-subset executor's
/// own: expression evaluation, `Value` clones, filter building.
pub fn replay_store(ops: Vec<StoreOp>) -> Replay {
    let mut r = Replay::default();
    if ops.is_empty() {
        return r;
    }
    let db = Database::rfid();
    let mut tables: Vec<Table> = TABLES
        .iter()
        .map(|name| db.table(name).expect("rfid() provisions it").clone())
        .collect();
    let start = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        match op {
            StoreOp::Insert { table, row } => {
                r.failed += u64::from(tables[table].insert(row).is_err());
                r.insert_ns += t0.elapsed().as_nanos() as u64;
                r.inserts += 1;
            }
            StoreOp::Update {
                table,
                filter,
                sets,
            } => {
                r.failed += u64::from(tables[table].update(&filter, &sets).is_err());
                r.update_ns += t0.elapsed().as_nanos() as u64;
                r.updates += 1;
            }
            StoreOp::Delete { table, filter } => {
                r.failed += u64::from(tables[table].delete(&filter).is_err());
                r.update_ns += t0.elapsed().as_nanos() as u64;
                r.updates += 1;
            }
        }
    }
    r.total_ns = start.elapsed().as_nanos() as u64;
    r.rows_final = tables.iter().map(|t| t.len() as u64).sum();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_accepts_cli_lines_and_rejects_the_rest() {
        let inputs = Inputs::generate(Workload::Canonical, 42, true);
        let line = inputs.lines()[0];
        assert_eq!(decode_line(line, &inputs.catalog), Some(inputs.stream[0]));
        for bad in [
            "",
            "12",
            "x,conv0,urn:epc:id:gid:1.1.1",
            "12,nosuchreader,urn:epc:id:gid:1.1.1",
            "12,conv0,not-an-epc",
            "12,conv0,urn:epc:id:gid:1.1.1,extra",
        ] {
            assert_eq!(decode_line(bad, &inputs.catalog), None, "{bad:?}");
        }
    }

    #[test]
    fn traced_and_untraced_action_paths_agree() {
        let inputs = Inputs::generate(Workload::Canonical, 42, true);
        let a = untraced(&inputs);
        let b = traced(&inputs, &mut SpanTrace::new());
        assert!(a.total_firings() > 0);
        assert_eq!(a.firings, b.firings);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.calls, b.calls);
        assert_eq!((a.errors, b.errors), (0, 0));
        assert_eq!(a.edge_dropped, b.edge_dropped);
        let replay = replay_store(b.store_ops);
        assert_eq!(replay.rows_final, a.rows.iter().sum::<u64>());
        assert_eq!(replay.failed, 0);
    }
}
