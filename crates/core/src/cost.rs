//! Static cost/selectivity model and rule-subsumption prover.
//!
//! Two compile-time analyses over the merged [`EventGraph`], run alongside
//! the interval solver ([`crate::bounds`]):
//!
//! 1. **Cost model** ([`Cost::solve`]): propagates per-node arrival-rate
//!    and match-probability estimates bottom-up from catalog metadata (leaf
//!    dispatch width, object-type selectivity) and the solved temporal
//!    bounds (windows, retention spans, `TSEQ` distance intervals,
//!    negation suppression). Each node gets a [`CostEstimate`]: expected
//!    emission rate, expected partner-buffer probes per second, expected
//!    resident buffer entries, and a scalar CPU weight. The model is a
//!    *ranking* device — absolute numbers assume a nominal stream rate and
//!    uniform reader traffic — and is calibrated against the measured
//!    per-node probe counters (`tests/cost_calibrate.rs`).
//!
//! 2. **Subsumption prover** ([`subsumes`]): decides whether one rule's
//!    firing set provably contains another's, by conservative syntactic
//!    containment — same constructor shape, with the wider rule allowed a
//!    larger `WITHIN` window, a larger `TSEQ` maximum distance, or weaker
//!    leaf predicates (`Any ⊇ group ⊇ named reader`, `Any ⊇ type ⊇ exact
//!    EPC`). The prover must never report a false containment (`W006` is
//!    only emitted on a proof), so every relaxation is gated on the
//!    chronicle-consumption argument in DESIGN.md §17: minimum distances
//!    must be equal, and window/distance widening is only admitted over
//!    subtrees free of `NOT`/`SEQ+`/`TSEQ+` (where widening can *suppress*
//!    firings instead of adding them). Anything the argument does not
//!    cover requires exact structural equality.

use std::collections::HashMap;

use rfid_events::{Catalog, EventExpr, ObjectSel, PrimitivePattern, ReaderSel, Span, Var};

use crate::bounds::Bounds;
use crate::graph::{EventGraph, NodeId, NodeKind, Plan};

/// Nominal total stream arrival rate (events/second) the model assumes,
/// spread uniformly over the registered readers. Matches the paper-scale
/// workload's ~1000 ev/s; only rankings depend on it.
pub const STREAM_RATE: f64 = 1000.0;

/// Cap (seconds) applied to unbounded windows/retentions so `Span::MAX`
/// does not poison the arithmetic: an unbounded buffer is modelled as one
/// hour of resident stream.
const HORIZON_CAP_SECS: f64 = 3600.0;

/// Match probability of a `type(o) = …` object predicate.
const TYPE_SELECTIVITY: f64 = 0.125;

/// Match probability of an exact-EPC object predicate.
const EXACT_SELECTIVITY: f64 = 1.0 / 1024.0;

/// Effective number of distinct correlation-key buckets each shared
/// variable splits a join buffer into.
const KEY_FANOUT: f64 = 32.0;

/// Relative CPU cost of delivering one instance into a node.
const ARRIVAL_CPU: f64 = 0.25;

/// Relative CPU cost of one partner-buffer / history probe.
const PROBE_CPU: f64 = 1.0;

/// Catalog-free fallback: assumed reader count when no deployment catalog
/// is available (e.g. `EventGraph::describe` on a bare graph).
const DEFAULT_READERS: f64 = 16.0;

/// Static cost estimate for one graph node, in nominal per-second units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Expected instances emitted per second.
    pub rate: f64,
    /// Expected partner-buffer / history probes per second.
    pub probes_per_sec: f64,
    /// Expected resident entries in this node's buffers at any instant.
    pub buffered: f64,
    /// Scalar CPU weight: probe work plus arrival handling. Node-local;
    /// see [`Cost::subgraph_weight`] for the cumulative per-rule figure.
    pub cpu_weight: f64,
}

/// Solved per-node cost estimates for a graph (indexed by [`NodeId`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cost {
    per_node: Vec<CostEstimate>,
}

/// `Span` in seconds with unbounded values capped at the model horizon.
fn span_secs(s: Span) -> f64 {
    if s == Span::MAX {
        HORIZON_CAP_SECS
    } else {
        s.as_secs_f64().min(HORIZON_CAP_SECS)
    }
}

/// Fraction of the stream a leaf's reader predicate admits.
fn reader_fraction(catalog: Option<&Catalog>, sel: &ReaderSel) -> f64 {
    match catalog {
        Some(cat) => {
            let total = cat.readers.len().max(1) as f64;
            match sel {
                // A name missing from the catalog can never match.
                ReaderSel::Named(name) => {
                    if cat.reader(name).is_some() {
                        1.0 / total
                    } else {
                        0.0
                    }
                }
                ReaderSel::Group(g) => cat.readers.members(g).len() as f64 / total,
                ReaderSel::Any => 1.0,
            }
        }
        None => match sel {
            ReaderSel::Named(_) => 1.0 / DEFAULT_READERS,
            ReaderSel::Group(_) => 4.0 / DEFAULT_READERS,
            ReaderSel::Any => 1.0,
        },
    }
}

/// Match probability of a leaf's object predicate.
fn object_selectivity(sel: &ObjectSel) -> f64 {
    match sel {
        ObjectSel::Any => 1.0,
        ObjectSel::Type(_) => TYPE_SELECTIVITY,
        ObjectSel::Exact(_) => EXACT_SELECTIVITY,
    }
}

impl Cost {
    /// Solves the cost model for a graph: one bottom-up sweep (node ids are
    /// topological, children first). `bounds` must be solved for the same
    /// graph; pass the deployment catalog for real dispatch-width leaf
    /// rates, or `None` for the documented fallbacks.
    pub fn solve(graph: &EventGraph, bounds: &Bounds, catalog: Option<&Catalog>) -> Cost {
        let mut per_node = vec![CostEstimate::default(); graph.len()];
        for node in graph.nodes() {
            let rate_of = |i: usize| per_node[node.children[i].idx()].rate;
            let b = bounds.node(node.id);
            let w = span_secs(node.within);
            // Each shared correlation variable partitions the buffers; probe
            // work and partner availability scale down by the bucket count.
            let keys = KEY_FANOUT.powi(node.join.vars.len() as i32).max(1.0);
            let est = match node.plan {
                Plan::Leaf => {
                    let NodeKind::Primitive(p) = &node.kind else {
                        unreachable!("leaf plan on non-primitive node");
                    };
                    let rate = STREAM_RATE
                        * reader_fraction(catalog, &p.reader)
                        * object_selectivity(&p.object);
                    CostEstimate {
                        rate,
                        probes_per_sec: 0.0,
                        buffered: 0.0,
                        cpu_weight: rate * ARRIVAL_CPU,
                    }
                }
                Plan::Forward => {
                    let rate = rate_of(0) + rate_of(1);
                    CostEstimate {
                        rate,
                        probes_per_sec: 0.0,
                        buffered: 0.0,
                        cpu_weight: rate * ARRIVAL_CPU,
                    }
                }
                Plan::TwoSided => {
                    let (rl, rr) = (rate_of(0), rate_of(1));
                    // Pairing width: the window for SEQ/AND, the distance
                    // interval for TSEQ.
                    let pair_w = match node.kind {
                        NodeKind::TSeq { min_dist, max_dist } => {
                            (span_secs(max_dist.min(node.within)) - span_secs(min_dist)).max(0.0)
                        }
                        _ => w,
                    };
                    // Chronicle consumption drains the buffers: every firing
                    // removes one instance per side, so steady-state
                    // occupancy is the retention-bounded backlog damped by
                    // how fast the partner side consumes within the same
                    // key bucket (calibrated in tests/cost_calibrate.rs —
                    // undamped raw occupancy overranks wide idle joins).
                    let occ_l = rl * span_secs(b.retain[0]) / (1.0 + rr * pair_w / keys);
                    let occ_r = rr * span_secs(b.retain[1]) / (1.0 + rl * pair_w / keys);
                    // Every arrival scans the partner bucket (probe + prune
                    // in one pass); bucket size is the partner occupancy
                    // over the key fan-out.
                    let probes = (rl * occ_r + rr * occ_l) / keys;
                    // Output rate saturates at the slower side; availability
                    // is the chance a partner is waiting in the same bucket.
                    let avail = (rl.max(rr) * pair_w / keys).min(1.0);
                    CostEstimate {
                        rate: rl.min(rr) * avail,
                        probes_per_sec: probes,
                        buffered: occ_l + occ_r,
                        cpu_weight: probes * PROBE_CPU + (rl + rr) * ARRIVAL_CPU,
                    }
                }
                Plan::AndNegation { not_side } => {
                    let pos = rate_of(1 - not_side as usize);
                    let neg = rate_of(not_side as usize);
                    let pressure = neg * w / keys;
                    // Positive arrivals survive when no negative instance
                    // lands in the window around them.
                    let suppression = 1.0 / (1.0 + pressure);
                    // Past-window history check at arrival plus the pseudo
                    // event resolving the future part.
                    let probes = pos * (1.0 + pressure);
                    CostEstimate {
                        rate: pos * suppression,
                        probes_per_sec: probes,
                        buffered: pos * w, // anchored waits held for the window
                        cpu_weight: probes * PROBE_CPU + (pos + neg) * ARRIVAL_CPU,
                    }
                }
                Plan::LeftNegationQuery => {
                    let term = rate_of(1);
                    let neg = rate_of(0);
                    let pressure = neg * w / keys;
                    let probes = term * (1.0 + pressure);
                    CostEstimate {
                        rate: term / (1.0 + pressure),
                        probes_per_sec: probes,
                        buffered: 0.0, // the history lives on the recorder child
                        cpu_weight: probes * PROBE_CPU + term * ARRIVAL_CPU,
                    }
                }
                Plan::LeftAperiodicQuery => {
                    let term = rate_of(1);
                    let rec = rate_of(0);
                    let pressure = rec * w / keys;
                    CostEstimate {
                        rate: term * pressure.min(1.0),
                        probes_per_sec: term * (1.0 + pressure),
                        buffered: 0.0,
                        cpu_weight: term * (1.0 + pressure) * PROBE_CPU + term * ARRIVAL_CPU,
                    }
                }
                Plan::RightNegationWait => {
                    let init = rate_of(0);
                    let neg = rate_of(1);
                    let pressure = neg * w / keys;
                    let probes = init * (1.0 + pressure);
                    CostEstimate {
                        rate: init / (1.0 + pressure),
                        probes_per_sec: probes,
                        buffered: init * w, // every initiator waits out the window
                        cpu_weight: probes * PROBE_CPU + (init + neg) * ARRIVAL_CPU,
                    }
                }
                Plan::NegationRecorder | Plan::AperiodicRecorder => {
                    let rate = rate_of(0);
                    CostEstimate {
                        rate,
                        probes_per_sec: 0.0, // queries are charged to the querying parent
                        buffered: rate * span_secs(b.retention),
                        cpu_weight: rate * ARRIVAL_CPU,
                    }
                }
                Plan::TimedAperiodic => {
                    let rate_in = rate_of(0);
                    let max_gap = match node.kind {
                        NodeKind::TSeqPlus { max_gap, .. } => span_secs(max_gap),
                        _ => w,
                    };
                    // A run continues while the next element lands within the
                    // gap; runs close (and emit) at the complement rate.
                    let cont = (rate_in * max_gap).min(0.95);
                    CostEstimate {
                        rate: rate_in * (1.0 - cont),
                        // Extending an open run is an O(1) append (no
                        // partner scan), so it is charged as arrival work.
                        probes_per_sec: 0.0,
                        buffered: rate_in * span_secs(b.retention),
                        cpu_weight: rate_in * ARRIVAL_CPU,
                    }
                }
            };
            per_node[node.id.idx()] = est;
        }
        Cost { per_node }
    }

    /// The estimate for one node.
    pub fn node(&self, id: NodeId) -> &CostEstimate {
        &self.per_node[id.idx()]
    }

    /// Number of solved nodes.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Whether the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Per-node CPU weights, indexed by [`NodeId`] (telemetry export).
    pub fn cpu_weights(&self) -> Vec<f64> {
        self.per_node.iter().map(|e| e.cpu_weight).collect()
    }

    /// Cumulative CPU weight of the subgraph under `root` (each distinct
    /// node counted once) — the per-rule figure the shard partitioner and
    /// the `N002` cost ranking use.
    pub fn subgraph_weight(&self, graph: &EventGraph, root: NodeId) -> f64 {
        let mut seen = vec![false; graph.len()];
        let mut stack = vec![root];
        let mut total = 0.0;
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.idx()], true) {
                continue;
            }
            total += self.per_node[id.idx()].cpu_weight;
            stack.extend(graph.node(id).children.iter().copied());
        }
        total
    }
}

/// Which relaxations a containment proof used — the evidence string for
/// the `W006` diagnostic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Subsumption {
    /// The wider rule has a larger `WITHIN` window somewhere.
    pub widened_window: bool,
    /// The wider rule has a larger `TSEQ` maximum distance somewhere.
    pub widened_distance: bool,
    /// The wider rule has a weaker leaf predicate somewhere.
    pub weakened_leaf: bool,
}

impl Subsumption {
    /// Human-readable proof sketch (`"wider window, weaker leaf predicate"`,
    /// or `"identical pattern"` when no relaxation was needed).
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.widened_window {
            parts.push("wider WITHIN window");
        }
        if self.widened_distance {
            parts.push("looser TSEQ distance bound");
        }
        if self.weakened_leaf {
            parts.push("weaker leaf predicate");
        }
        if parts.is_empty() {
            "identical pattern up to variable renaming".to_owned()
        } else {
            parts.join(", ")
        }
    }
}

/// Bijective variable renaming between the two rules' scopes.
#[derive(Default)]
struct VarMap {
    ab: HashMap<Var, Var>,
    ba: HashMap<Var, Var>,
}

impl VarMap {
    /// Records/validates `a ↔ b`; fails on any non-bijective pairing.
    fn align(&mut self, a: Option<&Var>, b: Option<&Var>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(va), Some(vb)) => {
                let fwd = self.ab.entry(va.clone()).or_insert_with(|| vb.clone());
                let bwd = self.ba.entry(vb.clone()).or_insert_with(|| va.clone());
                fwd == vb && bwd == va
            }
            // Correlation structure must match exactly: a missing variable
            // changes the join keying, which the chronicle-consumption
            // containment argument does not cover.
            _ => false,
        }
    }
}

/// Whether widening a window/distance over this subtree is admissible:
/// no `NOT` (wider window = more suppression, fewer firings) and no
/// aperiodic constructor (run semantics are not monotone in the window).
fn widening_safe(e: &EventExpr) -> bool {
    match e {
        EventExpr::Primitive(_) => true,
        EventExpr::Or(a, b) | EventExpr::And(a, b) | EventExpr::Seq(a, b) => {
            widening_safe(a) && widening_safe(b)
        }
        EventExpr::TSeq { first, second, .. } => widening_safe(first) && widening_safe(second),
        EventExpr::Within { inner, .. } => widening_safe(inner),
        EventExpr::Not(_) | EventExpr::SeqPlus(_) | EventExpr::TSeqPlus { .. } => false,
    }
}

/// `a` accepts at least the readers `b` accepts.
fn reader_weaker(
    a: &ReaderSel,
    b: &ReaderSel,
    catalog: Option<&Catalog>,
    relax: &mut bool,
) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (ReaderSel::Any, _) => {
            *relax = true;
            true
        }
        (ReaderSel::Group(g), ReaderSel::Named(n)) => match catalog.and_then(|c| c.reader(n)) {
            Some(id) if catalog.is_some_and(|c| c.readers.in_group(id, g)) => {
                *relax = true;
                true
            }
            _ => false,
        },
        _ => false,
    }
}

/// `a` accepts at least the objects `b` accepts.
fn object_weaker(
    a: &ObjectSel,
    b: &ObjectSel,
    catalog: Option<&Catalog>,
    relax: &mut bool,
) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (ObjectSel::Any, _) => {
            *relax = true;
            true
        }
        (ObjectSel::Type(t), ObjectSel::Exact(epc))
            if catalog.is_some_and(|c| c.types.is_type(*epc, t)) =>
        {
            *relax = true;
            true
        }
        _ => false,
    }
}

/// Strict structural equality modulo the shared variable bijection: same
/// constructors, equal spans, equal leaf predicates. Required under `NOT`
/// and aperiodic constructors, where containment is not monotone.
fn alpha_equal(a: &EventExpr, b: &EventExpr, vars: &mut VarMap) -> bool {
    match (a, b) {
        (EventExpr::Primitive(pa), EventExpr::Primitive(pb)) => {
            pa.reader == pb.reader
                && pa.object == pb.object
                && vars.align(pa.reader_var.as_ref(), pb.reader_var.as_ref())
                && vars.align(pa.object_var.as_ref(), pb.object_var.as_ref())
        }
        (EventExpr::Or(a1, a2), EventExpr::Or(b1, b2))
        | (EventExpr::And(a1, a2), EventExpr::And(b1, b2))
        | (EventExpr::Seq(a1, a2), EventExpr::Seq(b1, b2)) => {
            alpha_equal(a1, b1, vars) && alpha_equal(a2, b2, vars)
        }
        (EventExpr::Not(ia), EventExpr::Not(ib)) => alpha_equal(ia, ib, vars),
        (EventExpr::SeqPlus(ia), EventExpr::SeqPlus(ib)) => alpha_equal(ia, ib, vars),
        (
            EventExpr::TSeq {
                first: af,
                second: as_,
                min_dist: amin,
                max_dist: amax,
            },
            EventExpr::TSeq {
                first: bf,
                second: bs,
                min_dist: bmin,
                max_dist: bmax,
            },
        ) => {
            amin == bmin && amax == bmax && alpha_equal(af, bf, vars) && alpha_equal(as_, bs, vars)
        }
        (
            EventExpr::TSeqPlus {
                inner: ia,
                min_gap: algo,
                max_gap: ahi,
            },
            EventExpr::TSeqPlus {
                inner: ib,
                min_gap: blo,
                max_gap: bhi,
            },
        ) => algo == blo && ahi == bhi && alpha_equal(ia, ib, vars),
        (
            EventExpr::Within {
                inner: ia,
                window: wa,
            },
            EventExpr::Within {
                inner: ib,
                window: wb,
            },
        ) => wa == wb && alpha_equal(ia, ib, vars),
        _ => false,
    }
}

fn leaf_weaker(
    pa: &PrimitivePattern,
    pb: &PrimitivePattern,
    catalog: Option<&Catalog>,
    vars: &mut VarMap,
    sub: &mut Subsumption,
) -> bool {
    vars.align(pa.reader_var.as_ref(), pb.reader_var.as_ref())
        && vars.align(pa.object_var.as_ref(), pb.object_var.as_ref())
        && reader_weaker(&pa.reader, &pb.reader, catalog, &mut sub.weakened_leaf)
        && object_weaker(&pa.object, &pb.object, catalog, &mut sub.weakened_leaf)
}

/// Containment recursion: firing set of `a` ⊇ firing set of `b`.
fn contains(
    a: &EventExpr,
    b: &EventExpr,
    catalog: Option<&Catalog>,
    vars: &mut VarMap,
    sub: &mut Subsumption,
) -> bool {
    match (a, b) {
        (EventExpr::Primitive(pa), EventExpr::Primitive(pb)) => {
            leaf_weaker(pa, pb, catalog, vars, sub)
        }
        (EventExpr::Or(a1, a2), EventExpr::Or(b1, b2))
        | (EventExpr::And(a1, a2), EventExpr::And(b1, b2))
        | (EventExpr::Seq(a1, a2), EventExpr::Seq(b1, b2)) => {
            contains(a1, b1, catalog, vars, sub) && contains(a2, b2, catalog, vars, sub)
        }
        (
            EventExpr::TSeq {
                first: af,
                second: as_,
                min_dist: amin,
                max_dist: amax,
            },
            EventExpr::TSeq {
                first: bf,
                second: bs,
                min_dist: bmin,
                max_dist: bmax,
            },
        ) => {
            // Minimum distances must be equal: lowering the minimum lets the
            // wider rule consume a young initiator the narrow rule needs
            // only later, breaking containment under chronicle consumption.
            if amin != bmin {
                return false;
            }
            let dist_ok = if amax == bmax {
                true
            } else if amax > bmax
                && widening_safe(af)
                && widening_safe(as_)
                && widening_safe(bf)
                && widening_safe(bs)
            {
                sub.widened_distance = true;
                true
            } else {
                false
            };
            dist_ok && contains(af, bf, catalog, vars, sub) && contains(as_, bs, catalog, vars, sub)
        }
        (
            EventExpr::Within {
                inner: ia,
                window: wa,
            },
            EventExpr::Within {
                inner: ib,
                window: wb,
            },
        ) => {
            let window_ok = if wa == wb {
                true
            } else if wa > wb && widening_safe(ia) && widening_safe(ib) {
                sub.widened_window = true;
                true
            } else {
                false
            };
            window_ok && contains(ia, ib, catalog, vars, sub)
        }
        // An unwindowed pattern contains its WITHIN-constrained variant
        // (window = ∞ ≥ wb), under the same widening-safety condition.
        (a_bare, EventExpr::Within { inner: ib, .. })
            if !matches!(a_bare, EventExpr::Within { .. })
                && widening_safe(a_bare)
                && widening_safe(ib) =>
        {
            sub.widened_window = true;
            contains(a_bare, ib, catalog, vars, sub)
        }
        // Non-monotone constructors: only exact equality is provable.
        (EventExpr::Not(ia), EventExpr::Not(ib)) => alpha_equal(ia, ib, vars),
        (EventExpr::SeqPlus(ia), EventExpr::SeqPlus(ib)) => alpha_equal(ia, ib, vars),
        (a @ EventExpr::TSeqPlus { .. }, b @ EventExpr::TSeqPlus { .. }) => alpha_equal(a, b, vars),
        _ => false,
    }
}

/// Proves that every firing of `narrower` is matched by a firing of
/// `wider` at the same instant (conservative syntactic containment).
/// Returns the relaxations used on success, `None` when containment could
/// not be proved — never a false positive: equality is always admissible,
/// and each relaxation is justified by the chronicle-consumption argument
/// in DESIGN.md §17. Pass the deployment catalog to enable group/type
/// predicate-weakening proofs.
pub fn subsumes(
    wider: &EventExpr,
    narrower: &EventExpr,
    catalog: Option<&Catalog>,
) -> Option<Subsumption> {
    let mut vars = VarMap::default();
    let mut sub = Subsumption::default();
    contains(wider, narrower, catalog, &mut vars, &mut sub).then_some(sub)
}

/// Constructor-shape signature used to bucket rules before the pairwise
/// containment scan: two rules can only subsume one another when their
/// skeletons match, so the quadratic scan runs per bucket only.
pub fn shape_signature(e: &EventExpr) -> String {
    fn walk(e: &EventExpr, out: &mut String) {
        match e {
            EventExpr::Primitive(_) => out.push('p'),
            EventExpr::Or(a, b) => {
                out.push('|');
                walk(a, out);
                walk(b, out);
            }
            EventExpr::And(a, b) => {
                out.push('&');
                walk(a, out);
                walk(b, out);
            }
            EventExpr::Seq(a, b) => {
                out.push(';');
                walk(a, out);
                walk(b, out);
            }
            EventExpr::TSeq { first, second, .. } => {
                out.push('t');
                walk(first, out);
                walk(second, out);
            }
            EventExpr::Not(i) => {
                out.push('!');
                walk(i, out);
            }
            EventExpr::SeqPlus(i) => {
                out.push('+');
                walk(i, out);
            }
            EventExpr::TSeqPlus { inner, .. } => {
                out.push('T');
                walk(inner, out);
            }
            EventExpr::Within { inner, .. } => {
                // Transparent: WITHIN(E, τ) can contain bare E and vice
                // versa, so the window marker must not split buckets.
                walk(inner, out);
            }
        }
    }
    let mut out = String::new();
    walk(e, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(reader: &str) -> EventExpr {
        EventExpr::observation_at(reader).bind_object("o").build()
    }

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.readers.register("r1", "g1", "a");
        c.readers.register("r2", "g1", "b");
        c.readers.register("r3", "g2", "c");
        c
    }

    fn solve(e: &EventExpr, catalog: &Catalog) -> (EventGraph, Bounds, Cost) {
        let mut g = EventGraph::new();
        g.add_event(e).unwrap();
        let b = Bounds::solve(&g);
        let c = Cost::solve(&g, &b, Some(catalog));
        (g, b, c)
    }

    #[test]
    fn leaf_rates_follow_dispatch_width() {
        let catalog = cat();
        let e = EventExpr::observation_at("r1")
            .build()
            .seq(EventExpr::observation_in_group("g1").build())
            .within(Span::from_secs(5));
        let (g, _, c) = solve(&e, &catalog);
        let prims = g.primitives();
        assert_eq!(prims.len(), 2);
        let named = c.node(prims[0]).rate;
        let group = c.node(prims[1]).rate;
        // g1 has two members, so the group leaf sees twice the traffic.
        assert!((group / named - 2.0).abs() < 1e-9, "{named} vs {group}");
    }

    #[test]
    fn wider_window_costs_more() {
        let catalog = cat();
        let narrow = obs("r1").seq(obs("r2")).within(Span::from_secs(5));
        let wide = obs("r1").seq(obs("r2")).within(Span::from_secs(500));
        let (gn, _, cn) = solve(&narrow, &catalog);
        let (gw, _, cw) = solve(&wide, &catalog);
        let root_n = NodeId((gn.len() - 1) as u32);
        let root_w = NodeId((gw.len() - 1) as u32);
        assert!(
            cw.subgraph_weight(&gw, root_w) > cn.subgraph_weight(&gn, root_n),
            "wider window must rank costlier"
        );
    }

    #[test]
    fn costs_are_finite_without_windows() {
        let catalog = cat();
        // Unbounded join: Span::MAX retention must cap, not overflow.
        let e = obs("r1").seq(obs("r2"));
        let (g, _, c) = solve(&e, &catalog);
        for n in g.nodes() {
            let est = c.node(n.id);
            assert!(est.rate.is_finite() && est.cpu_weight.is_finite());
        }
    }

    #[test]
    fn subsumption_wider_window() {
        let narrow = obs("r1").seq(obs("r2")).within(Span::from_secs(5));
        let wide = obs("r1").seq(obs("r2")).within(Span::from_secs(10));
        let sub = subsumes(&wide, &narrow, None).expect("wider window subsumes");
        assert!(sub.widened_window && !sub.weakened_leaf);
        assert!(subsumes(&narrow, &wide, None).is_none(), "not symmetric");
    }

    #[test]
    fn subsumption_tseq_distance() {
        let narrow = obs("r1").tseq(obs("r2"), Span::from_secs(1), Span::from_secs(2));
        let wide = obs("r1").tseq(obs("r2"), Span::from_secs(1), Span::from_secs(4));
        assert!(subsumes(&wide, &narrow, None).unwrap().widened_distance);
        // Lowering the *minimum* distance is not a proof (chronicle
        // consumption can starve the wider rule).
        let lower_min = obs("r1").tseq(obs("r2"), Span::ZERO, Span::from_secs(2));
        assert!(subsumes(&lower_min, &narrow, None).is_none());
    }

    #[test]
    fn subsumption_weaker_leaf_needs_catalog() {
        let catalog = cat();
        let narrow = EventExpr::observation_at("r1")
            .bind_object("o")
            .build()
            .seq(obs("r3"))
            .within(Span::from_secs(5));
        let wide = EventExpr::observation_in_group("g1")
            .bind_object("o")
            .build()
            .seq(obs("r3"))
            .within(Span::from_secs(5));
        assert!(
            subsumes(&wide, &narrow, None).is_none(),
            "needs the catalog"
        );
        let sub = subsumes(&wide, &narrow, Some(&catalog)).expect("group ⊇ member");
        assert!(sub.weakened_leaf);
        // r3 is not in g1: no proof the other way.
        let other = EventExpr::observation_in_group("g1")
            .bind_object("o")
            .build()
            .seq(obs("r1"))
            .within(Span::from_secs(5));
        assert!(subsumes(&other, &narrow, Some(&catalog)).is_none());
    }

    #[test]
    fn negation_blocks_window_widening() {
        let narrow = obs("r1").and(obs("r2").not()).within(Span::from_secs(5));
        let wide = obs("r1").and(obs("r2").not()).within(Span::from_secs(10));
        // A wider window around a negation suppresses MORE: no containment.
        assert!(subsumes(&wide, &narrow, None).is_none());
        // Equal windows with identical negation: containment (identity).
        let same = obs("r1").and(obs("r2").not()).within(Span::from_secs(5));
        assert!(subsumes(&same, &narrow, None).is_some());
    }

    #[test]
    fn variable_renaming_is_transparent_but_structure_is_not() {
        let a = EventExpr::observation_at("r1")
            .bind_object("x")
            .build()
            .seq(EventExpr::observation_at("r2").bind_object("x").build())
            .within(Span::from_secs(5));
        let b = EventExpr::observation_at("r1")
            .bind_object("y")
            .build()
            .seq(EventExpr::observation_at("r2").bind_object("y").build())
            .within(Span::from_secs(5));
        assert!(subsumes(&a, &b, None).is_some(), "α-renamed twin");
        // Dropping the correlation changes the join keying: no proof.
        let unkeyed = EventExpr::observation_at("r1")
            .build()
            .seq(EventExpr::observation_at("r2").build())
            .within(Span::from_secs(5));
        assert!(subsumes(&unkeyed, &b, None).is_none());
    }

    #[test]
    fn shape_signature_ignores_windows() {
        let a = obs("r1").seq(obs("r2")).within(Span::from_secs(5));
        let b = obs("r1").seq(obs("r2"));
        assert_eq!(shape_signature(&a), shape_signature(&b));
        assert_ne!(
            shape_signature(&a),
            shape_signature(&obs("r1").and(obs("r2")))
        );
    }
}
