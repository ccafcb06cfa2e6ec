//! Spans around the calls into each layer, recorded from outside the
//! program.
//!
//! A pass is generic over [`Trace`]: the end-to-end passes use [`NoTrace`],
//! whose methods are empty and compile away; the traced pass uses
//! [`SpanTrace`]. Self time and self allocations (a span's own minus its
//! children's) are accumulated per span name as each span closes, so a pass
//! with millions of per-firing spans needs constant memory; the first
//! [`SpanTrace::KEEP`] spans are also kept whole for the trace file.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// What a span covers. The prefix before the dot is the layer (crate) whose
/// code runs inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One 1024-observation chunk through the workload's whole path.
    Chunk,
    /// End-of-stream drain (`finish`) through the whole path.
    Drain,
    /// CSV line → (`Timestamp`, `Catalog::reader`, `Epc::from_str`).
    EpcDecode,
    /// `rfid_edge::Pipeline::offer` over a chunk.
    EdgeOffer,
    /// `Engine::process_batch` (self time excludes the sink).
    CoreBatch,
    /// `Engine::finish` (self time excludes the sink).
    CoreFinish,
    /// Harness reading `Engine::stats` for the peak gauges.
    HarnessSample,
    /// Harness recording a firing's store writes for the store-only replay.
    HarnessOpLog,
    /// One firing in the harness-owned sink.
    RulesFire,
    /// `bind::bind`.
    RulesBind,
    /// `cond::eval_cond`.
    RulesCond,
    /// `actions::execute` of an `INSERT`/`BULK INSERT`.
    RulesInsert,
    /// `actions::execute` of an `UPDATE`/`DELETE`.
    RulesUpdate,
    /// `actions::execute` of a procedure call.
    RulesCall,
    /// Feeding thread inside `ShardedEngine::process` for a chunk.
    ShardFeed,
    /// `ShardedEngine::finish`: flush, drain, merge, join.
    ShardDrain,
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = Name::ShardDrain as usize + 1;

    /// Dotted name, layer first.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Chunk => "harness.chunk",
            Name::Drain => "harness.drain",
            Name::EpcDecode => "epc.decode",
            Name::EdgeOffer => "edge.offer",
            Name::CoreBatch => "core.process_batch",
            Name::CoreFinish => "core.finish",
            Name::HarnessSample => "harness.sample",
            Name::HarnessOpLog => "harness.oplog",
            Name::RulesFire => "rules.fire",
            Name::RulesBind => "rules.bind",
            Name::RulesCond => "rules.cond",
            Name::RulesInsert => "rules.action.insert",
            Name::RulesUpdate => "rules.action.update",
            Name::RulesCall => "rules.action.call",
            Name::ShardFeed => "shard.feed",
            Name::ShardDrain => "shard.drain",
        }
    }
}

/// Span recording as seen by a pass.
pub trait Trace {
    /// Whether spans are recorded; a pass samples gauges only when they are.
    const ON: bool;
    /// Opens a span; it becomes the parent of spans opened before it ends.
    fn begin(&mut self, name: Name);
    /// Closes the innermost open span.
    fn end(&mut self);
}

/// Tracing off.
pub struct NoTrace;

impl Trace for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: Name) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
    /// Allocations made in the span but not in a child span.
    pub self_allocs: u64,
    /// Bytes requested in the span but not in a child span.
    pub self_bytes: u64,
}

struct Open {
    name: Name,
    id: u32,
    parent: u32,
    start_ns: u64,
    allocs: u64,
    bytes: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// One kept span, as written to the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kept {
    pub id: u32,
    /// 0 for a root span (ids start at 1).
    pub parent: u32,
    /// Id of the root span this span descends from: one per chunk.
    pub chunk: u32,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Tracing on.
pub struct SpanTrace {
    epoch: Instant,
    open: Vec<Open>,
    next_id: u32,
    root: u32,
    pub agg: [Agg; Name::COUNT],
    pub kept: Vec<Kept>,
}

impl SpanTrace {
    /// Spans kept whole for the trace file.
    pub const KEEP: usize = 200_000;

    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            next_id: 0,
            root: 0,
            agg: [Agg::default(); Name::COUNT],
            kept: Vec::with_capacity(Self::KEEP),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Totals for one name.
    pub fn of(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Spans closed, all names.
    pub fn spans(&self) -> u64 {
        self.agg.iter().map(|a| a.count).sum()
    }

    /// Sum of self times, all names: equals the time covered by root spans.
    pub fn self_ns_total(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    /// Sum of self time over the names of one layer (`"core"`, `"rules"`…).
    pub fn layer(&self, layer: &str) -> Agg {
        let mut sum = Agg::default();
        for (i, a) in self.agg.iter().enumerate() {
            let name = NAMES[i].as_str();
            if name.split('.').next() == Some(layer) {
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.self_ns += a.self_ns;
                sum.self_allocs += a.self_allocs;
                sum.self_bytes += a.self_bytes;
            }
        }
        sum
    }

    /// The kept spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        for s in &self.kept {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"chunk\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.chunk,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Every name, indexed by discriminant.
const NAMES: [Name; Name::COUNT] = [
    Name::Chunk,
    Name::Drain,
    Name::EpcDecode,
    Name::EdgeOffer,
    Name::CoreBatch,
    Name::CoreFinish,
    Name::HarnessSample,
    Name::HarnessOpLog,
    Name::RulesFire,
    Name::RulesBind,
    Name::RulesCond,
    Name::RulesInsert,
    Name::RulesUpdate,
    Name::RulesCall,
    Name::ShardFeed,
    Name::ShardDrain,
];

impl Trace for SpanTrace {
    const ON: bool = true;
    fn begin(&mut self, name: Name) {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.open.last().map_or(0, |o| o.id);
        if parent == 0 {
            self.root = id;
        }
        let (allocs, bytes) = alloc::counted();
        self.open.push(Open {
            name,
            id,
            parent,
            allocs,
            bytes,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
            // Read the clock last, so the bookkeeping above is charged to
            // the parent and not to this span.
            start_ns: self.now_ns(),
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc::counted();
        let o = self.open.pop().expect("end() pairs with a begin()");
        let dur = end_ns - o.start_ns;
        let d_allocs = allocs - o.allocs;
        let d_bytes = bytes - o.bytes;
        let a = &mut self.agg[o.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.self_allocs += d_allocs.saturating_sub(o.child_allocs);
        a.self_bytes += d_bytes.saturating_sub(o.child_bytes);
        if let Some(p) = self.open.last_mut() {
            p.child_ns += dur;
            p.child_allocs += d_allocs;
            p.child_bytes += d_bytes;
        }
        if self.kept.len() < Self::KEEP {
            self.kept.push(Kept {
                id: o.id,
                parent: o.parent,
                chunk: self.root,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn names_table_is_in_discriminant_order() {
        for (i, n) in NAMES.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = SpanTrace::new();
        t.begin(Name::Chunk);
        spin(200_000);
        t.begin(Name::CoreBatch);
        spin(300_000);
        t.begin(Name::RulesFire);
        spin(400_000);
        t.end();
        t.begin(Name::RulesFire);
        spin(100_000);
        t.end();
        t.end();
        t.end();

        let chunk = t.of(Name::Chunk);
        let core = t.of(Name::CoreBatch);
        let fire = t.of(Name::RulesFire);
        assert_eq!((chunk.count, core.count, fire.count), (1, 1, 2));
        // Leaves: self == total. Parents: self == total − children, exactly.
        assert_eq!(fire.self_ns, fire.total_ns);
        assert_eq!(core.self_ns, core.total_ns - fire.total_ns);
        assert_eq!(chunk.self_ns, chunk.total_ns - core.total_ns);
        assert!(fire.total_ns >= 500_000 && core.self_ns >= 300_000);
        // Self times tile the root span with nothing counted twice.
        assert_eq!(t.self_ns_total(), chunk.total_ns);
        assert_eq!(t.spans(), 4);
        assert_eq!(t.layer("rules").self_ns, fire.self_ns);
    }

    #[test]
    fn kept_spans_carry_parent_and_chunk_ids() {
        let mut t = SpanTrace::new();
        for _ in 0..2 {
            t.begin(Name::Chunk);
            t.begin(Name::CoreBatch);
            t.end();
            t.end();
        }
        // Spans are kept as they close: child before parent.
        let ids: Vec<(u32, u32, u32)> = t.kept.iter().map(|s| (s.id, s.parent, s.chunk)).collect();
        assert_eq!(ids, vec![(2, 1, 1), (1, 0, 1), (4, 3, 3), (3, 0, 3)]);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with(
            "{\"id\": 2, \"parent\": 1, \"chunk\": 1, \"name\": \"core.process_batch\""
        ));
    }
}
