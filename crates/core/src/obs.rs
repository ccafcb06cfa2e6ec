//! Flight-recorder observability: per-node metrics arenas, firing
//! provenance traces, and exportable telemetry snapshots.
//!
//! The event-graph machinery is otherwise a black box at runtime —
//! [`crate::stats::EngineStats`] is a handful of end-of-run totals that
//! cannot answer *which node is hot*, *where latency is spent*, or *why a
//! firing happened*. This module adds three layers, all gated behind
//! [`ObserveLevel`] so the default (`Off`) hot path pays one predictable
//! branch per site:
//!
//! 1. **[`MetricsArena`]** — SoA counters indexed by
//!    [`crate::plan::CompiledPlan`] node id (arrivals, probes, admissions,
//!    prunes, firings), in the style of the compiled plan's flat arenas.
//!    Updated at `Counters` and above.
//! 2. **[`FlightRecorder`]** — a bounded ring of
//!    [`FlightRecord`]s that chain each recorded rule firing back through
//!    its constituent instances to the raw reader observations. Rendered
//!    by `rceda-obs explain` (via [`crate::explain::render_instance`]) as
//!    the event-graph derivation. Recorded at `Full` only.
//! 3. **[`TelemetrySnapshot`]** — an exportable point-in-time copy of
//!    stats + arena + log2 histograms (process latency, buffer occupancy,
//!    shard queue depth), mergeable across the sharded pipeline's
//!    partitions and serialized as JSONL or Prometheus text exposition.
//!
//! Merge semantics follow the [`crate::stats::StatKind`] table: histogram
//! buckets are monotone populations, so [`StatKind::Histogram`] combines
//! by summing bucket-wise — the audit tests in `stats.rs` pin this.

use std::collections::VecDeque;
use std::sync::Arc;

use rfid_events::{Instance, Timestamp};

use crate::engine::RuleId;
use crate::stats::{EngineStats, StatKind};

/// How much the engine records about itself while detecting.
///
/// Selected once in [`crate::engine::EngineConfig::observe`]; every
/// instrumentation site reduces to a byte compare against this level, so
/// `Off` (the default) keeps the hot path within noise of an unobserved
/// build and `Counters` is gated at ≤3% overhead by the `fig9_obs`
/// benchmark, which exits non-zero above it (`results/fig9_obs.txt`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObserveLevel {
    /// No per-node metrics; only the pre-existing [`EngineStats`] totals.
    #[default]
    Off,
    /// Per-node SoA counters (arrivals, probes, admissions, prunes,
    /// firings) and shard queue-depth histograms.
    Counters,
    /// Everything in `Counters`, plus process-latency and buffer-occupancy
    /// histograms and the firing provenance flight recorder.
    Full,
}

impl ObserveLevel {
    /// Whether per-node counters are maintained (`Counters` or `Full`).
    #[inline]
    #[must_use]
    pub fn counters(self) -> bool {
        self != ObserveLevel::Off
    }

    /// Whether histograms and the flight recorder are maintained.
    #[inline]
    #[must_use]
    pub fn full(self) -> bool {
        self == ObserveLevel::Full
    }

    /// Stable lowercase name, as accepted by `rceda-obs --level`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObserveLevel::Off => "off",
            ObserveLevel::Counters => "counters",
            ObserveLevel::Full => "full",
        }
    }

    /// Parses a level name (the inverse of [`ObserveLevel::name`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "off" => Some(ObserveLevel::Off),
            "counters" => Some(ObserveLevel::Counters),
            "full" => Some(ObserveLevel::Full),
            _ => None,
        }
    }
}

/// Number of log2 buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 32;

/// A fixed-size log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`; the last bucket absorbs everything from
/// `2^30` up. Recording is two instructions (leading-zeros + increment),
/// cheap enough for per-event latency sampling at `Full`. Buckets are
/// monotone populations, so merging sums them bucket-wise via
/// [`StatKind::Histogram`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample populations.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (saturating).
    pub sum: u64,
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else its bit length, clamped.
    #[inline]
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i`, or `None` for the overflow
    /// bucket (rendered as `+Inf` in Prometheus exposition).
    #[must_use]
    pub fn bucket_le(i: usize) -> Option<u64> {
        if i + 1 >= HIST_BUCKETS {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram in, bucket-wise, under the
    /// [`StatKind::Histogram`] rule from the stats merge table.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = StatKind::Histogram.combine(*a, *b);
        }
        self.count = StatKind::Histogram.combine(self.count, other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Inclusive upper bound of the bucket containing quantile `q` in
    /// `[0, 1]`, or `None` when empty. Overflow-bucket hits report
    /// `u64::MAX`.
    #[must_use]
    pub fn quantile_le(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Self::bucket_le(i).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Mean of recorded samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One node's counters, read out of a [`MetricsArena`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounters {
    /// Work-queue deliveries (instances popped for this node).
    pub arrivals: u64,
    /// Partner-buffer / history probes performed on arrival.
    pub probes: u64,
    /// Instances admitted into this node's buffers, histories, runs, or
    /// waits.
    pub admissions: u64,
    /// Entries a store dropped as it admitted, dead under the solved
    /// retention bounds. Dead entries a probe skips are not counted.
    pub prunes: u64,
    /// Rule firings emitted at this node.
    pub firings: u64,
}

/// The hot half of one node's counters: 16-byte `u32` deltas for the four
/// counters bumped during propagation. Kept narrow so the whole hot array
/// stays L1-resident at paper scale (~2,000 nodes × 16 B ≈ 32 KB, vs
/// 80 KB of `u64` rows) — the increments scatter across every rule's
/// nodes, so row width is the miss rate. Overflow carries into the `u64`
/// totals at the wrap (see [`MetricsArena::arrived`]), so counts stay
/// exact without any periodic flush.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct HotRow {
    arrivals: u32,
    probes: u32,
    admissions: u32,
    firings: u32,
}

/// Per-node counters indexed by [`crate::plan::CompiledPlan`] node id.
///
/// Array-of-structs, unlike the compiled plan's SoA arenas, because the
/// access pattern is opposite: an arrival typically touches several
/// counters of the *same* node back to back (probe + admit, arrive +
/// fire). Each node splits into a narrow [`HotRow`] of `u32` deltas
/// (bumped on the hot path, sized to keep the array in L1) and a `u64`
/// totals row that absorbs `u32` wraps and the admission-time prune counts;
/// a node's true count is always `totals + hot` ([`MetricsArena::node`]).
#[derive(Debug, Default, Clone)]
pub struct MetricsArena {
    hot: Vec<HotRow>,
    totals: Vec<NodeCounters>,
}

/// Semantic equality: two arenas are equal when every node's *summed*
/// counters match, regardless of how the counts split between the hot
/// deltas and the totals (merging flattens into totals; live engines
/// accumulate in hot rows).
impl PartialEq for MetricsArena {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.node(i) == other.node(i))
    }
}

impl Eq for MetricsArena {}

/// Carry-on-wrap increment: the delta wraps `u32`, and the wrap moves
/// 2^32 into the `u64` total — one never-taken branch on the hot path
/// instead of a periodic flush.
macro_rules! bump {
    ($self:ident, $node:ident, $field:ident) => {{
        let row = &mut $self.hot[$node];
        row.$field = row.$field.wrapping_add(1);
        if row.$field == 0 {
            $self.totals[$node].$field += 1 << 32;
        }
    }};
}

impl MetricsArena {
    /// Number of node slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the arena has no node slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Grows the arena to at least `nodes` slots (never shrinks, so
    /// recompiles that only add nodes keep earlier counts).
    pub fn ensure_len(&mut self, nodes: usize) {
        if self.hot.len() < nodes {
            self.hot.resize(nodes, HotRow::default());
            self.totals.resize(nodes, NodeCounters::default());
        }
    }

    /// Zeroes every counter in place, keeping the allocation.
    pub fn reset(&mut self) {
        self.hot.fill(HotRow::default());
        self.totals.fill(NodeCounters::default());
    }

    /// Records a work-queue delivery at `node`.
    #[inline]
    pub fn arrived(&mut self, node: usize) {
        bump!(self, node, arrivals);
    }

    /// Records a partner-buffer probe at `node`.
    #[inline]
    pub fn probed(&mut self, node: usize) {
        bump!(self, node, probes);
    }

    /// Records an admission into `node`'s state.
    #[inline]
    pub fn admitted(&mut self, node: usize) {
        bump!(self, node, admissions);
    }

    /// Records a probe and an admission at `node` in one row access —
    /// the self-join fast path does both per arrival.
    #[inline]
    pub fn probed_admitted(&mut self, node: usize) {
        bump!(self, node, probes);
        bump!(self, node, admissions);
    }

    /// Records `n` entries pruned from `node`'s state by an admission's
    /// expiry.
    ///
    /// Prunes go straight to the `u64` totals: they are batched per
    /// admission (not per entry) and only when something died, so they are
    /// off the increment hot path and their `n` can exceed a delta's range.
    #[inline]
    pub fn pruned(&mut self, node: usize, n: u64) {
        self.totals[node].prunes += n;
    }

    /// Records a rule firing emitted at `node`.
    #[inline]
    pub fn fired(&mut self, node: usize) {
        bump!(self, node, firings);
    }

    /// Counters for one node: the `u64` totals plus the live deltas.
    ///
    /// # Panics
    /// Panics if `node >= self.len()`.
    #[must_use]
    pub fn node(&self, node: usize) -> NodeCounters {
        let hot = self.hot[node];
        let t = self.totals[node];
        NodeCounters {
            arrivals: t.arrivals + u64::from(hot.arrivals),
            probes: t.probes + u64::from(hot.probes),
            admissions: t.admissions + u64::from(hot.admissions),
            prunes: t.prunes,
            firings: t.firings + u64::from(hot.firings),
        }
    }

    /// Sums another arena in, element-wise (both must be the same length).
    /// The other side's counts land in this arena's totals.
    ///
    /// # Panics
    /// Panics if the arenas have different lengths — merging counters for
    /// different compiled plans is meaningless; callers align first (see
    /// [`TelemetrySnapshot::merge`]).
    pub fn merge_from(&mut self, other: &MetricsArena) {
        assert_eq!(self.len(), other.len(), "arena length mismatch");
        for (i, t) in self.totals.iter_mut().enumerate() {
            let b = other.node(i);
            t.arrivals = StatKind::Counter.combine(t.arrivals, b.arrivals);
            t.probes = StatKind::Counter.combine(t.probes, b.probes);
            t.admissions = StatKind::Counter.combine(t.admissions, b.admissions);
            t.prunes = StatKind::Counter.combine(t.prunes, b.prunes);
            t.firings = StatKind::Counter.combine(t.firings, b.firings);
        }
    }
}

/// One recorded rule firing: which rule, when, and the full constituent
/// instance that produced it (chaining, via [`Instance::children`], down
/// to the raw reader observations).
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Position in the engine's firing sequence (0-based), so a ring that
    /// has wrapped still tells you *which* firing each record is.
    pub seq: u64,
    /// The rule that fired.
    pub rule: RuleId,
    /// Engine clock when the firing was emitted.
    pub at: Timestamp,
    /// The emitted instance — the derivation tree.
    pub inst: Arc<Instance>,
}

/// A bounded ring of [`FlightRecord`]s.
///
/// Keeps the most recent `capacity` firings, so steady-state memory is
/// fixed no matter how long the engine runs.
/// Dumped on demand by `rceda-obs explain` and on panic by the CLI's
/// unwind handler.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<FlightRecord>,
    capacity: usize,
    seen: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` firings; 0 disables
    /// recording entirely.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            seen: 0,
        }
    }

    /// Offers a firing: counts it and records it, evicting the oldest
    /// record from a full ring.
    pub fn offer(&mut self, rule: RuleId, at: Timestamp, inst: &Instance) {
        let seq = self.seen;
        self.seen += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(FlightRecord {
            seq,
            rule,
            at,
            inst: Arc::new(inst.clone()),
        });
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total firings offered (recorded or since evicted).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Drops all records and resets the firing sequence.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.seen = 0;
    }
}

/// The engine's mutable observability state, owned by the runtime half of
/// the graph/state split so instrumentation sites need no extra
/// parameters.
///
/// The `level` byte and the counters arena live inline: the level is
/// what every hot-path site branches on, and the arena's row pointer is
/// what every `Counters` increment chases — an extra `Box` hop here
/// shows up directly in the overhead ablation. The `Full`-only bulk
/// (two 272-byte histograms, the flight ring) sits behind one `Box` so
/// the engine's `Runtime` struct stays small and its hot fields (work
/// queue, clock, stats) keep their cache locality; `Deref` keeps those
/// cold sites a plain field access.
#[derive(Debug, Clone)]
pub(crate) struct ObsState {
    /// Cached copy of `EngineConfig::observe` — every hot-path site
    /// branches on this.
    pub(crate) level: ObserveLevel,
    /// Per-node counters, sized by `Engine::program`.
    pub(crate) arena: MetricsArena,
    full: Box<ObsFull>,
}

/// The `Full`-only bulk of [`ObsState`], reached through its `Deref`.
#[derive(Debug, Clone)]
pub(crate) struct ObsFull {
    /// `Engine::process` wall-clock latency per call, in nanoseconds
    /// (`Full` only).
    pub(crate) latency_ns: Histogram,
    /// Join-bucket occupancy sampled at admission (`Full` only).
    pub(crate) occupancy: Histogram,
    /// Firing provenance ring (`Full` only).
    pub(crate) flight: FlightRecorder,
}

impl std::ops::Deref for ObsState {
    type Target = ObsFull;

    fn deref(&self) -> &ObsFull {
        &self.full
    }
}

impl std::ops::DerefMut for ObsState {
    fn deref_mut(&mut self) -> &mut ObsFull {
        &mut self.full
    }
}

impl ObsState {
    pub(crate) fn new(level: ObserveLevel, flight_capacity: usize) -> Self {
        Self {
            level,
            arena: MetricsArena::default(),
            full: Box::new(ObsFull {
                latency_ns: Histogram::default(),
                occupancy: Histogram::default(),
                flight: FlightRecorder::new(flight_capacity),
            }),
        }
    }

    /// Clears everything back to a fresh engine's state (level and flight
    /// configuration are preserved — they are configuration, not state).
    pub(crate) fn reset(&mut self) {
        self.arena.reset();
        self.full.latency_ns = Histogram::default();
        self.full.occupancy = Histogram::default();
        self.full.flight.reset();
    }
}

/// A point-in-time, exportable copy of everything the engine knows about
/// itself: stats totals, the per-node arena with op labels, and the
/// latency / occupancy / queue-depth histograms.
///
/// Snapshots from the sharded pipeline's partitions merge via
/// [`TelemetrySnapshot::merge`]; the result serializes as a JSONL line
/// ([`TelemetrySnapshot::to_jsonl`]) or Prometheus text exposition
/// ([`TelemetrySnapshot::to_prometheus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Where this snapshot came from (`"engine"`, a partition name like
    /// `"shard-0"` / `"residual-1"`, or `"sharded"` after merging).
    pub label: String,
    /// Engine clock at snapshot time, in milliseconds.
    pub clock_ms: u64,
    /// The stats totals, merged per the [`StatKind`] table.
    pub stats: EngineStats,
    /// Op-tag name per plan node, aligned with `nodes`.
    pub ops: Vec<&'static str>,
    /// Per-node counters.
    pub nodes: MetricsArena,
    /// `Engine::process` latency, nanoseconds.
    pub latency_ns: Histogram,
    /// Join-bucket occupancy at admission.
    pub occupancy: Histogram,
    /// Per-partition inbox depth, in batches, sampled at every batch
    /// flush (not just at `finish`).
    pub queue_depth: Histogram,
}

impl TelemetrySnapshot {
    /// An empty snapshot (the merge identity).
    #[must_use]
    pub fn empty(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            clock_ms: 0,
            stats: EngineStats::default(),
            ops: Vec::new(),
            nodes: MetricsArena::default(),
            latency_ns: Histogram::default(),
            occupancy: Histogram::default(),
            queue_depth: Histogram::default(),
        }
    }

    /// Merges another snapshot in: stats via the [`StatKind`] table,
    /// histograms bucket-wise, clock by max. Per-node tables merge
    /// element-wise when both sides describe the same plan shape (same op
    /// labels); otherwise they are dropped — broadcast partitions compile
    /// different rule subsets, so their node ids do not align and a
    /// positional sum would charge one node with another's work.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.stats = self.stats.merge(other.stats);
        self.clock_ms = self.clock_ms.max(other.clock_ms);
        self.latency_ns.merge_from(&other.latency_ns);
        self.occupancy.merge_from(&other.occupancy);
        self.queue_depth.merge_from(&other.queue_depth);
        if self.ops.is_empty() && self.nodes.is_empty() {
            self.ops.clone_from(&other.ops);
            self.nodes.clone_from(&other.nodes);
        } else if self.ops == other.ops && self.nodes.len() == other.nodes.len() {
            self.nodes.merge_from(&other.nodes);
        } else if !other.ops.is_empty() || !other.nodes.is_empty() {
            self.ops.clear();
            self.nodes = MetricsArena::default();
        }
    }

    /// Serializes the snapshot as a single JSON line (hand-rolled — no
    /// serde in the engine). Histograms carry `[le, count]` bucket pairs
    /// (only non-empty buckets; the overflow bucket's bound is `null`).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\"label\":\"");
        json_escape_into(&mut out, &self.label);
        let _ = write!(out, "\",\"clock_ms\":{}", self.clock_ms);
        out.push_str(",\"stats\":{");
        for (i, &(name, _)) in EngineStats::FIELDS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{}",
                self.stats.get(name).expect("field from table")
            );
        }
        out.push_str("},\"nodes\":[");
        let mut first = true;
        for (idx, &op) in self.ops.iter().enumerate() {
            let c = self.nodes.node(idx);
            if c == NodeCounters::default() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"node\":{idx},\"op\":\"{op}\",\"arrivals\":{},\"probes\":{},\
                 \"admissions\":{},\"prunes\":{},\"firings\":{}}}",
                c.arrivals, c.probes, c.admissions, c.prunes, c.firings
            );
        }
        out.push_str("],");
        for (i, (name, hist)) in self.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                hist.count, hist.sum
            );
            let mut first = true;
            for (b, &n) in hist.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                match Histogram::bucket_le(b) {
                    Some(le) => {
                        let _ = write!(out, "[{le},{n}]");
                    }
                    None => {
                        let _ = write!(out, "[null,{n}]");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }

    /// Serializes the snapshot as Prometheus text exposition (v0.0.4):
    /// stats as `rceda_<name>[_total]`, per-node counters as labelled
    /// series (non-zero nodes only), histograms with cumulative `le`
    /// buckets.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut label = String::new();
        json_escape_into(&mut label, &self.label);
        for &(name, kind) in EngineStats::FIELDS {
            let (suffix, ty) = match kind {
                StatKind::Counter | StatKind::Histogram => ("_total", "counter"),
                StatKind::Gauge => ("", "gauge"),
            };
            let _ = writeln!(out, "# TYPE rceda_{name}{suffix} {ty}");
            let _ = writeln!(
                out,
                "rceda_{name}{suffix}{{engine=\"{label}\"}} {}",
                self.stats.get(name).expect("field from table")
            );
        }
        for (col, help) in [
            ("arrivals", "work-queue deliveries"),
            ("probes", "partner-buffer probes"),
            ("admissions", "state admissions"),
            ("prunes", "entries expired at admission"),
            ("firings", "rule firings emitted"),
        ] {
            let _ = writeln!(out, "# HELP rceda_node_{col}_total per-node {help}");
            let _ = writeln!(out, "# TYPE rceda_node_{col}_total counter");
            for (idx, &op) in self.ops.iter().enumerate() {
                let c = self.nodes.node(idx);
                let v = match col {
                    "arrivals" => c.arrivals,
                    "probes" => c.probes,
                    "admissions" => c.admissions,
                    "prunes" => c.prunes,
                    _ => c.firings,
                };
                if v == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "rceda_node_{col}_total{{engine=\"{label}\",node=\"{idx}\",op=\"{op}\"}} {v}"
                );
            }
        }
        for (name, hist) in self.histograms() {
            let _ = writeln!(out, "# TYPE rceda_{name} histogram");
            let mut cum = 0u64;
            for (b, &n) in hist.buckets.iter().enumerate() {
                cum += n;
                if n == 0 && b + 1 < HIST_BUCKETS {
                    continue;
                }
                let le =
                    Histogram::bucket_le(b).map_or_else(|| "+Inf".to_owned(), |v| v.to_string());
                let _ = writeln!(
                    out,
                    "rceda_{name}_bucket{{engine=\"{label}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(out, "rceda_{name}_sum{{engine=\"{label}\"}} {}", hist.sum);
            let _ = writeln!(
                out,
                "rceda_{name}_count{{engine=\"{label}\"}} {}",
                hist.count
            );
        }
        out
    }

    /// Human-readable rendering: stats line, top nodes by arrivals, and
    /// histogram summaries. Used by `rceda-obs snapshot`.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "telemetry [{}] clock={}ms", self.label, self.clock_ms);
        let _ = writeln!(out, "  {}", self.stats);
        let mut hot: Vec<usize> = (0..self.ops.len())
            .filter(|&i| self.nodes.node(i) != NodeCounters::default())
            .collect();
        hot.sort_by_key(|&i| std::cmp::Reverse(self.nodes.node(i).arrivals));
        if !hot.is_empty() {
            let _ = writeln!(
                out,
                "  {:>5}  {:<10} {:>10} {:>10} {:>10} {:>10} {:>9}",
                "node", "op", "arrivals", "probes", "admitted", "pruned", "firings"
            );
            for &i in hot.iter().take(16) {
                let c = self.nodes.node(i);
                let _ = writeln!(
                    out,
                    "  {:>5}  {:<10} {:>10} {:>10} {:>10} {:>10} {:>9}",
                    i, self.ops[i], c.arrivals, c.probes, c.admissions, c.prunes, c.firings
                );
            }
            if hot.len() > 16 {
                let _ = writeln!(out, "  … {} more active nodes", hot.len() - 16);
            }
        }
        for (name, hist) in self.histograms() {
            if hist.is_empty() {
                continue;
            }
            let p50 = hist.quantile_le(0.50).unwrap_or(0);
            let p99 = hist.quantile_le(0.99).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name}: n={} mean={:.1} p50≤{p50} p99≤{p99}",
                hist.count,
                hist.mean()
            );
        }
        out
    }

    /// The snapshot's histograms with their export names.
    fn histograms(&self) -> [(&'static str, &Histogram); 3] {
        [
            ("latency_ns", &self.latency_ns),
            ("occupancy", &self.occupancy),
            ("queue_depth", &self.queue_depth),
        ]
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Epc, Gid96, ReaderId};
    use rfid_events::Observation;

    fn inst(ms: u64) -> Instance {
        Instance::observation(Observation::new(
            ReaderId(1),
            Epc::from(Gid96::new(1, 1, ms).unwrap()),
            Timestamp::from_millis(ms),
        ))
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // The inclusive bound is consistent with the index function: every
        // bucket's bound maps back into that bucket, and bound+1 does not.
        for i in 1..HIST_BUCKETS - 1 {
            let le = Histogram::bucket_le(i).unwrap();
            assert_eq!(Histogram::bucket_of(le), i);
            assert!(Histogram::bucket_of(le + 1) > i);
        }
        assert_eq!(Histogram::bucket_le(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_merge_sums_bucketwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0, 1, 5, 5, 100] {
            a.record(v);
        }
        for v in [5, 1_000_000] {
            b.record(v);
        }
        let mut merged = a;
        merged.merge_from(&b);
        assert_eq!(merged.count, 7);
        assert_eq!(merged.sum, a.sum + b.sum);
        for i in 0..HIST_BUCKETS {
            assert_eq!(merged.buckets[i], a.buckets[i] + b.buckets[i]);
        }
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile_le(0.5).unwrap();
        let p99 = h.quantile_le(0.99).unwrap();
        assert!(p50 >= 500, "p50 bound {p50} below the true median");
        assert!(p99 >= 990, "p99 bound {p99} below the true p99");
        assert!(p99 <= 1023, "p99 bound {p99} looser than one bucket");
        assert!(Histogram::default().quantile_le(0.5).is_none());
    }

    #[test]
    fn flight_recorder_keeps_the_newest_records() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..30u64 {
            fr.offer(RuleId(0), Timestamp::from_millis(i), &inst(i));
        }
        assert_eq!(fr.seen(), 30);
        assert_eq!(fr.len(), 4, "ring stays at capacity");
        let seqs: Vec<u64> = fr.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![26, 27, 28, 29], "newest kept");
        fr.reset();
        assert!(fr.is_empty());
        assert_eq!(fr.seen(), 0);
    }

    #[test]
    fn snapshot_merge_aligned_sums_and_misaligned_drops() {
        let mut a = TelemetrySnapshot::empty("a");
        a.ops = vec!["obs", "SEQ"];
        a.nodes.ensure_len(2);
        a.nodes.arrived(0);
        a.nodes.arrived(1);
        let mut b = a.clone();
        b.label = "b".to_owned();
        b.nodes.probed(1);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.nodes.node(0).arrivals, 2);
        assert_eq!(merged.nodes.node(1).probes, 1);
        assert_eq!(merged.ops, vec!["obs", "SEQ"]);

        // Identity on the left adopts the right's tables.
        let mut id = TelemetrySnapshot::empty("id");
        id.merge(&a);
        assert_eq!(id.nodes.node(1).arrivals, 1);

        // Mismatched plans: per-node tables are dropped, stats survive.
        let mut c = TelemetrySnapshot::empty("c");
        c.ops = vec!["obs"];
        c.nodes.ensure_len(1);
        c.stats.events = 7;
        let mut mixed = a;
        mixed.stats.events = 3;
        mixed.merge(&c);
        assert!(mixed.ops.is_empty() && mixed.nodes.is_empty());
        assert_eq!(mixed.stats.events, 10);
    }

    #[test]
    fn exports_render_and_escape() {
        let mut s = TelemetrySnapshot::empty("shard \"0\"\n");
        s.ops = vec!["obs"];
        s.nodes.ensure_len(1);
        s.nodes.arrived(0);
        s.stats.events = 2;
        s.latency_ns.record(900);
        s.queue_depth.record(3);
        let jsonl = s.to_jsonl();
        assert!(!jsonl.contains('\n'), "JSONL must be a single line");
        assert!(jsonl.contains("\\\"0\\\""), "label quotes escaped");
        assert!(jsonl.contains("\"events\":2"));
        assert!(jsonl.contains("\"op\":\"obs\",\"arrivals\":1"));
        let prom = s.to_prometheus();
        assert!(prom.contains("rceda_events_total"));
        assert!(prom.contains("rceda_node_arrivals_total"));
        assert!(prom.contains("le=\"+Inf\""));
        assert!(prom
            .lines()
            .any(|l| l.starts_with("rceda_latency_ns_count")));
        let human = s.describe();
        assert!(human.contains("latency_ns"));
    }
}
