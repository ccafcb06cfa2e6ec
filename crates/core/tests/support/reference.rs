//! docs/SEMANTICS.md, executed: a deliberately naive chronicle matcher the
//! differential suites hold the engine to.
//!
//! One [`Matcher`] per rule, built straight from the rule's [`EventExpr`]
//! tree — nothing is merged across rules, lowered, keyed, hashed or pruned:
//!
//! * every node keeps every instance it ever received, with a `consumed`
//!   mark, and matching is a linear scan over that list;
//! * correlation is "the variables both sides bind hold equal values";
//! * pseudo events are one sorted list, scanned whenever the clock moves.
//!
//! It imports the event model (`rfid_events`, `rfid_epc`) and nothing of
//! the engine. Its domain is what SEMANTICS.md defines: valid rules (§2's
//! spontaneity conditions — anything else is an `unreachable!`), input in
//! time order (§4), and streams on which no unbounded `SEQ` buffer reaches
//! `EngineConfig::unbounded_cap` — the reference keeps everything, so the
//! suites assert `capacity_drops == 0` on the engine side. It reports the
//! firing multiset plus the three counters it can define (`events` is the
//! stream length, `rule_firings` the multiset's size, [`matched_events`]);
//! `occurrences` and the pseudo-event counts depend on how a program is
//! merged and are pinned against recorded values instead
//! (`plan_equivalence.rs`). Time arithmetic saturates by name
//! (`saturating_add`, `millis`) instead of through the operators it
//! checks, so an unbounded `τu` means "never" here whatever `+` does.

use std::sync::Arc;

use rfid_epc::{Epc, ReaderId};
use rfid_events::{
    dist, interval2, Catalog, EventExpr, Instance, Observation, PrimitivePattern, Span, Timestamp,
    Var,
};

/// Every firing of `rules` — each matched on its own — over `stream`,
/// windows still open at the end of the stream included (§4's `finish()`),
/// as the full instance, absence witnesses included: by rule index, each
/// rule's in the order it fired.
pub fn fire(
    catalog: &Catalog,
    rules: &[EventExpr],
    stream: &[Observation],
) -> Vec<(u32, Instance)> {
    let mut out = Vec::new();
    for (rule, event) in rules.iter().enumerate() {
        let mut matcher = Matcher::default();
        matcher.build(event, Span::MAX, None);
        for (idx, obs) in stream.iter().enumerate() {
            matcher.observe(catalog, idx as u64, obs);
        }
        matcher.advance(None);
        let fired = matcher.fired.iter();
        out.extend(fired.map(|i| (rule as u32, Instance::clone(i))));
    }
    out
}

/// How many observations of `stream` match at least one primitive pattern
/// of `rules` (`EngineStats::matched_events`).
pub fn matched_events(catalog: &Catalog, rules: &[EventExpr], stream: &[Observation]) -> u64 {
    let matches = |obs: &&Observation| {
        let mut hit = false;
        for rule in rules {
            rule.for_each_primitive(&mut |p| hit |= p.matches(obs, catalog));
        }
        hit
    };
    stream.iter().filter(matches).count() as u64
}

/// The value a correlation variable is bound to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    Reader(ReaderId),
    Object(Epc),
}

/// One occurrence flowing up the tree.
#[derive(Clone)]
struct Occ {
    /// Identity of the physical instance: the stream index for a primitive
    /// (one observation reaching two leaves is still one instance, §2 "an
    /// instance never pairs with itself"), a fresh number for a composite.
    id: u64,
    inst: Arc<Instance>,
    /// Variables the instance exports: a primitive its own, a binary
    /// constructor both sides' (left wins; equal anyway, by the join); `OR`,
    /// absences and runs none.
    binds: Vec<(Var, Val)>,
}

/// Whether every variable both sides bind holds the same value.
fn correlated(a: &Occ, b: &Occ) -> bool {
    let agree = |(var, va): &(Var, Val)| b.binds.iter().all(|(vb, v)| vb != var || v == va);
    a.binds.iter().all(agree)
}

/// A received instance and whether chronicle consumption has used it up.
struct Kept {
    occ: Occ,
    consumed: bool,
}

/// The binary constructors.
#[derive(Debug, Clone, Copy)]
enum Kind {
    And,
    Seq,
    TSeq { min_dist: Span, max_dist: Span },
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::And => "AND",
            Kind::Seq => "SEQ",
            Kind::TSeq { .. } => "TSEQ",
        }
    }
}

/// What a node does with an arrival (§2–§3).
#[derive(Debug, Clone)]
enum Op {
    Leaf(PrimitivePattern),
    Or,
    /// Records inner occurrences; never emits.
    Not,
    /// Records inner occurrences for a following terminator; never emits.
    SeqPlus,
    /// `(τl, τu)`: the bounds on every adjacent gap.
    TSeqPlus(Span, Span),
    /// Both sides spontaneous. `symmetric`: structurally identical
    /// children, built (and delivered) once.
    Join {
        kind: Kind,
        symmetric: bool,
    },
    /// `SEQ/TSEQ(¬A; B)` — §3.1, past-only.
    AbsentBefore(Kind),
    /// `SEQ/TSEQ(SEQ+(A); B)`.
    RunBefore(Kind),
    /// `SEQ/TSEQ(A; ¬B)` — §3.2, future wait.
    AbsentAfter(Kind),
    /// `AND` with a `NOT` on the given side — §3.3, two-sided window.
    AbsentAround(usize),
}

struct Node {
    op: Op,
    /// Effective `WITHIN`: `min(own, parent)`, propagated top-down.
    within: Span,
    /// Parent and the side (0 left, 1 right) this node feeds; `None` at
    /// the rule's root.
    parent: Option<(usize, usize)>,
    kids: Vec<usize>,
    /// Everything received so far: per side for a join, slot 0 for a
    /// history (`NOT`, `SEQ+`) or a `TSEQ+` run.
    kept: [Vec<Kept>; 2],
}

/// What a pseudo event does when its instant has passed.
enum Due {
    /// Deliver the open `TSEQ+` run.
    Close,
    /// Decide a parked instance: emit it iff the negated event stayed
    /// absent over `[from, to]`.
    Resolve {
        occ: Occ,
        from: Timestamp,
        to: Timestamp,
    },
}

struct Pending {
    at: Timestamp,
    /// Scheduling order: simultaneous pseudo events fire first come first.
    seq: u64,
    node: usize,
    due: Due,
}

#[derive(Default)]
struct Matcher {
    nodes: Vec<Node>,
    /// Leaves, left to right.
    leaves: Vec<usize>,
    /// Sorted by `(at, seq)`.
    pending: Vec<Pending>,
    seq: u64,
    /// Composite instances built so far.
    minted: u64,
    clock: Timestamp,
    fired: Vec<Arc<Instance>>,
}

/// A `WITHIN` folds into the constraint it carries and disappears.
fn strip(expr: &EventExpr, inherited: Span) -> (&EventExpr, Span) {
    match expr {
        EventExpr::Within { inner, window } => strip(inner, (*window).min(inherited)),
        other => (other, inherited),
    }
}

impl Matcher {
    fn build(
        &mut self,
        expr: &EventExpr,
        inherited: Span,
        parent: Option<(usize, usize)>,
    ) -> usize {
        let (expr, within) = strip(expr, inherited);
        let id = self.nodes.len();
        self.nodes.push(Node {
            op: Op::Or,
            within,
            parent,
            kids: Vec::new(),
            kept: [Vec::new(), Vec::new()],
        });
        let (op, kids) = match expr {
            EventExpr::Within { .. } => unreachable!("stripped"),
            EventExpr::Primitive(p) => {
                self.leaves.push(id);
                (Op::Leaf(p.clone()), vec![])
            }
            EventExpr::Or(a, b) => (Op::Or, vec![(&**a, 0), (&**b, 1)]),
            EventExpr::Not(x) => (Op::Not, vec![(&**x, 0)]),
            EventExpr::SeqPlus(x) => (Op::SeqPlus, vec![(&**x, 0)]),
            &EventExpr::TSeqPlus {
                ref inner,
                min_gap,
                max_gap,
            } => (Op::TSeqPlus(min_gap, max_gap), vec![(&**inner, 0)]),
            EventExpr::And(a, b) => binary(Kind::And, a, b),
            EventExpr::Seq(a, b) => binary(Kind::Seq, a, b),
            &EventExpr::TSeq {
                ref first,
                ref second,
                min_dist,
                max_dist,
            } => binary(Kind::TSeq { min_dist, max_dist }, first, second),
        };
        let kids: Vec<usize> = kids
            .into_iter()
            .map(|(kid, side)| self.build(kid, within, Some((id, side))))
            .collect();
        self.nodes[id].op = op;
        self.nodes[id].kids = kids;
        id
    }

    /// One observation (§4): pseudo events strictly before its instant
    /// first, then the observation at every leaf it matches. Rightmost
    /// leaf first, each delivery carried to the root before the next: an
    /// instance terminates what it can before it initiates (§2, symmetric
    /// joins).
    fn observe(&mut self, catalog: &Catalog, idx: u64, obs: &Observation) {
        self.advance(Some(obs.at));
        self.clock = obs.at;
        for leaf in self.leaves.clone().into_iter().rev() {
            let Op::Leaf(p) = &self.nodes[leaf].op else {
                unreachable!("leaf list holds leaves");
            };
            if !p.matches(obs, catalog) {
                continue;
            }
            let reader = p.reader_var.clone().map(|v| (v, Val::Reader(obs.reader)));
            let object = p.object_var.clone().map(|v| (v, Val::Object(obs.object)));
            let binds = reader.into_iter().chain(object).collect();
            let inst = Arc::new(Instance::observation(*obs));
            self.emit(
                leaf,
                Occ {
                    id: idx,
                    inst,
                    binds,
                },
            );
        }
    }

    /// Fires the pseudo events scheduled strictly before `until` — all of
    /// them at the end of the stream — in `(at, seq)` order, those
    /// scheduled on the way included.
    fn advance(&mut self, until: Option<Timestamp>) {
        let due = |p: &Pending| until.is_none_or(|t| p.at < t);
        while self.pending.first().is_some_and(due) {
            let Pending { at, node, due, .. } = self.pending.remove(0);
            self.clock = self.clock.max(at);
            match due {
                Due::Close => {
                    let run = self.take_unconsumed(node);
                    self.emit_run(node, run);
                }
                Due::Resolve { occ, from, to } => {
                    if !self.negated_occurred(node, &occ, from, to) {
                        self.emit_absence(node, occ, from, to);
                    }
                }
            }
        }
    }

    fn schedule(&mut self, at: Timestamp, node: usize, due: Due) {
        self.seq += 1;
        let seq = self.seq;
        let pos = self.pending.partition_point(|p| (p.at, p.seq) <= (at, seq));
        self.pending.insert(pos, Pending { at, seq, node, due });
    }

    /// Hands an occurrence of `node` to its parent, or fires the rule.
    fn emit(&mut self, node: usize, occ: Occ) {
        match self.nodes[node].parent {
            Some((parent, side)) => self.arrive(parent, side, occ),
            None => self.fired.push(occ.inst),
        }
    }

    /// Emits a composite `node` just built: a new physical instance.
    fn emit_new(&mut self, node: usize, inst: Instance, binds: Vec<(Var, Val)>) {
        self.minted += 1;
        let (id, inst) = (u64::MAX - self.minted, Arc::new(inst));
        self.emit(node, Occ { id, inst, binds });
    }

    fn emit_pair(&mut self, node: usize, kind: Kind, l: Occ, r: Occ) {
        let mut binds = l.binds;
        let extra = |(var, _): &(Var, Val)| binds.iter().all(|(have, _)| have != var);
        let extra: Vec<_> = r.binds.into_iter().filter(extra).collect();
        binds.extend(extra);
        self.emit_new(node, Instance::pair(kind.name(), l.inst, r.inst), binds);
    }

    fn emit_run(&mut self, node: usize, run: Vec<Occ>) {
        if !run.is_empty() {
            let elements = run.into_iter().map(|o| o.inst).collect();
            self.emit_new(node, Instance::composite("TSEQ+", elements), Vec::new());
        }
    }

    /// `occ` with the witness that its negated partner stayed absent over
    /// `[from, to]`, on the side the `NOT` stands.
    fn emit_absence(&mut self, node: usize, occ: Occ, from: Timestamp, to: Timestamp) {
        let (name, not_side) = match self.nodes[node].op {
            Op::AbsentBefore(kind) => (kind.name(), 0),
            Op::AbsentAfter(kind) => (kind.name(), 1),
            Op::AbsentAround(not_side) => ("AND", not_side),
            ref other => unreachable!("{other:?} has no negated side"),
        };
        let absence = Arc::new(Instance::absence(from, to));
        let pair = if not_side == 0 {
            Instance::pair(name, absence, occ.inst)
        } else {
            Instance::pair(name, occ.inst, absence)
        };
        self.emit_new(node, pair, occ.binds);
    }

    /// Marks everything unconsumed in the node's slot 0 consumed and
    /// returns it, in arrival order.
    fn take_unconsumed(&mut self, node: usize) -> Vec<Occ> {
        let open = self.nodes[node].kept[0].iter_mut().filter(|k| !k.consumed);
        let take = |k: &mut Kept| {
            k.consumed = true;
            k.occ.clone()
        };
        open.map(take).collect()
    }

    /// Whether the event negated under `node` occurred, correlated with
    /// `occ`, with its end in `[from, to]` (both inclusive).
    fn negated_occurred(&self, node: usize, occ: &Occ, from: Timestamp, to: Timestamp) -> bool {
        let kids = &self.nodes[node].kids;
        let not = kids.iter().find(|&&k| matches!(self.nodes[k].op, Op::Not));
        let seen = &self.nodes[*not.expect("a negated side")].kept[0];
        let hit = |k: &Kept| {
            let t = k.occ.inst.t_end();
            from <= t && t <= to && correlated(&k.occ, occ)
        };
        seen.iter().any(hit)
    }

    /// An occurrence `x` of the `side`-th child arrives at `node`.
    fn arrive(&mut self, node: usize, side: usize, x: Occ) {
        let within = self.nodes[node].within;
        match self.nodes[node].op.clone() {
            Op::Leaf(_) => unreachable!("leaves have no children"),
            Op::Or => {
                if x.inst.interval() <= within {
                    self.emit_new(node, Instance::wrap("OR", x.inst), Vec::new());
                }
            }
            Op::Not | Op::SeqPlus => self.keep(node, 0, x),
            Op::TSeqPlus(min_gap, max_gap) => self.run_element(node, min_gap, max_gap, x),
            Op::Join { kind, symmetric } => self.join(node, kind, symmetric, side, x),
            Op::AbsentBefore(kind) => {
                // The window reaches back to `from` from the terminator's
                // end and closes before the terminator begins: half-open
                // for SEQ, `τl` short of the terminator for TSEQ.
                let (reach, to, half_open) = match kind {
                    Kind::Seq => (within, x.inst.t_begin(), true),
                    Kind::TSeq { min_dist, max_dist } => {
                        let to = x.inst.t_end().saturating_sub(min_dist);
                        (max_dist, to.min(x.inst.t_begin()), false)
                    }
                    Kind::And => unreachable!("AND is two-sided"),
                };
                let from = x.inst.t_end().saturating_sub(reach);
                let seen = &self.nodes[self.nodes[node].kids[0]].kept[0];
                let blocked = seen.iter().any(|k| {
                    let t = k.occ.inst.t_end();
                    from <= t && (t < to || (t == to && !half_open)) && correlated(&k.occ, &x)
                });
                // A window that closes before it opens holds no initiator:
                // the negation holds, witnessed at `[to, to]`.
                if !blocked {
                    self.emit_absence(node, x, from.min(to), to);
                }
            }
            Op::RunBefore(kind) => self.run_before(node, kind, x),
            Op::AbsentAfter(kind) => {
                // Opens strictly after the initiator ends (1 ms), so an
                // initiator matching the negated pattern does not block
                // itself.
                let tick = Span::from_millis(1);
                let end = x.inst.t_end();
                let (from, to) = match kind {
                    Kind::Seq => (
                        end.saturating_add(tick),
                        x.inst.t_begin().saturating_add(within),
                    ),
                    Kind::TSeq { min_dist, max_dist } => (
                        end.saturating_add(min_dist.max(tick)),
                        end.saturating_add(max_dist),
                    ),
                    Kind::And => unreachable!("AND is two-sided"),
                };
                self.wait(node, x, from, to);
            }
            Op::AbsentAround(_) => {
                let from = x.inst.t_end().saturating_sub(within);
                let to = x.inst.t_begin().saturating_add(within);
                self.wait(node, x, from, to);
            }
        }
    }

    fn keep(&mut self, node: usize, side: usize, occ: Occ) {
        let consumed = false;
        self.nodes[node].kept[side].push(Kept { occ, consumed });
    }

    /// §2 AND / SEQ / TSEQ: pair with the oldest compatible unconsumed
    /// instance of the other side and consume both, or wait on one's own
    /// side. A symmetric join keeps one list: the arrival terminates the
    /// oldest compatible initiator, then becomes an initiator itself.
    fn join(&mut self, node: usize, kind: Kind, symmetric: bool, side: usize, x: Occ) {
        let within = self.nodes[node].within;
        let other = if symmetric { 0 } else { 1 - side };
        let compatible = |k: &Kept| {
            let (l, r) = if side == 0 && !symmetric {
                (&x, &k.occ)
            } else {
                (&k.occ, &x)
            };
            !k.consumed && k.occ.id != x.id && correlated(l, r) && pair_ok(kind, within, l, r)
        };
        let partner = self.nodes[node].kept[other].iter().position(compatible);
        let partner = partner.map(|p| self.nodes[node].kept[other][p].occ.clone());
        if let Some(e) = &partner {
            // Consumed once each: retire every held copy of both.
            let held = self.nodes[node].kept.iter_mut().flatten();
            for k in held.filter(|k| k.occ.id == e.id || k.occ.id == x.id) {
                k.consumed = true;
            }
        }
        if symmetric || partner.is_none() {
            self.keep(node, if symmetric { 0 } else { side }, x.clone());
        }
        match partner {
            Some(e) if side == 0 && !symmetric => self.emit_pair(node, kind, x, e),
            Some(e) => self.emit_pair(node, kind, e, x),
            None => {}
        }
    }

    /// §2 SEQ+: the terminator takes — and consumes — every recorded
    /// occurrence in its window as one run, oldest end first.
    fn run_before(&mut self, node: usize, kind: Kind, x: Occ) {
        let within = self.nodes[node].within;
        let end = x.inst.t_end();
        let (last_min, last_max) = match kind {
            Kind::Seq => (Timestamp::ZERO, x.inst.t_begin()),
            Kind::TSeq { min_dist, max_dist } => (
                end.saturating_sub(max_dist),
                end.saturating_sub(min_dist).min(x.inst.t_begin()),
            ),
            Kind::And => unreachable!("AND over SEQ+ is invalid"),
        };
        let from = end.saturating_sub(within);
        let history = self.nodes[node].kids[0];
        let mut run = Vec::new();
        let recorded = self.nodes[history].kept[0].iter_mut();
        for k in recorded.filter(|k| !k.consumed) {
            let t = k.occ.inst.t_end();
            if from <= t && t <= last_max {
                k.consumed = true;
                run.push(k.occ.inst.clone());
            }
        }
        run.sort_by_key(|i| i.t_end());
        // A run whose last element ended more than `τu` before the
        // terminator is spent all the same.
        if run.last().is_none_or(|last| last.t_end() < last_min) {
            return;
        }
        let run = Arc::new(Instance::composite("SEQ+", run));
        let pair = Instance::pair(kind.name(), run, x.inst);
        if pair.interval() <= within {
            self.emit_new(node, pair, x.binds);
        }
    }

    /// §2 TSEQ+: extend the open run, close it, or discard it; every
    /// element moves the closing pseudo event to `its end + τu`.
    fn run_element(&mut self, node: usize, min_gap: Span, max_gap: Span, x: Occ) {
        let within = self.nodes[node].within;
        let open = self.nodes[node].kept[0].iter().filter(|k| !k.consumed);
        let open: Vec<&Occ> = open.map(|k| &k.occ).collect();
        let mut closed = Vec::new();
        if let (Some(first), Some(last)) = (open.first(), open.last()) {
            let gap = x.inst.t_end().signed_delta(last.inst.t_end());
            let begin = first.inst.t_begin().min(x.inst.t_begin());
            let fits = x.inst.t_end() - begin <= within;
            let (lo, hi) = (millis(min_gap), millis(max_gap));
            if !(lo <= gap && gap <= hi && fits) {
                // Above `τu` the run is complete and delivered; below `τl`
                // (or out of `WITHIN`) it is no detection at all.
                let run = self.take_unconsumed(node);
                if gap > hi {
                    closed = run;
                }
            }
        }
        let close_at = x.inst.t_end().saturating_add(max_gap);
        self.keep(node, 0, x);
        let closes = |p: &Pending| p.node == node && matches!(p.due, Due::Close);
        self.pending.retain(|p| !closes(p));
        self.schedule(close_at, node, Due::Close);
        self.emit_run(node, closed);
    }

    /// §3.2 / §3.3: check the part of `[from, to]` that has already
    /// elapsed, then park until the window closes (or emit at once when it
    /// already has, for a constituent that was itself delivered late).
    fn wait(&mut self, node: usize, x: Occ, from: Timestamp, to: Timestamp) {
        let elapsed = self.clock.min(to);
        if from <= elapsed && self.negated_occurred(node, &x, from, elapsed) {
            return;
        }
        if to <= self.clock {
            self.emit_absence(node, x, from, to);
        } else {
            self.schedule(to, node, Due::Resolve { occ: x, from, to });
        }
    }
}

/// A binary constructor's op, by which of its constituents are spontaneous.
fn binary<'e>(kind: Kind, a: &'e EventExpr, b: &'e EventExpr) -> (Op, Vec<(&'e EventExpr, usize)>) {
    let negated = |e: &EventExpr| matches!(strip(e, Span::MAX).0, EventExpr::Not(_));
    let aperiodic = |e: &EventExpr| matches!(strip(e, Span::MAX).0, EventExpr::SeqPlus(_));
    let both = vec![(a, 0), (b, 1)];
    let op = match kind {
        Kind::And if negated(a) => Op::AbsentAround(0),
        Kind::And if negated(b) => Op::AbsentAround(1),
        _ if negated(a) => Op::AbsentBefore(kind),
        _ if aperiodic(a) => Op::RunBefore(kind),
        _ if negated(b) => Op::AbsentAfter(kind),
        _ => {
            let symmetric = a == b;
            let kids = if symmetric { vec![(b, 1)] } else { both };
            return (Op::Join { kind, symmetric }, kids);
        }
    };
    (op, both)
}

/// The temporal predicate of a pair (§2): `interval(l, r) ≤ within`, order
/// for the sequences, `τl ≤ dist ≤ τu` for TSEQ.
fn pair_ok(kind: Kind, within: Span, l: &Occ, r: &Occ) -> bool {
    let (l, r) = (&*l.inst, &*r.inst);
    if interval2(l, r) > within {
        return false;
    }
    match kind {
        Kind::And => true,
        Kind::Seq => l.t_end() <= r.t_begin(),
        Kind::TSeq { min_dist, max_dist } => {
            let d = dist(l, r);
            l.t_end() <= r.t_begin() && millis(min_dist) <= d && d <= millis(max_dist)
        }
    }
}

/// A bound in signed milliseconds, `Span::MAX` (an unbounded `τu`) as
/// `i64::MAX` rather than wrapped to −1.
fn millis(span: Span) -> i64 {
    i64::try_from(span.as_millis()).unwrap_or(i64::MAX)
}
