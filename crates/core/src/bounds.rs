//! Interval-constraint propagation over the merged event graph.
//!
//! Graph compilation ([`crate::graph`]) already folds `WITHIN` constraints
//! top-down (parent → child narrowing, Fig. 7 of the paper). This module
//! runs *after* merging and closes the loop in the other two directions:
//!
//! * **child → parent**: the solved duration interval `[dur_min, dur_max]`
//!   of each child tightens the parent's effective window — a `TSEQ` whose
//!   constituents are instantaneous observations can never span more than
//!   `dur_max(l) + τu + dur_max(r)`, no matter how loose its declared
//!   `WITHIN` is;
//! * **sibling → sibling**: under chronicle context, how long one join side
//!   must buffer is governed by the *other* side — how far in the future a
//!   logical partner may still lie, plus how late that partner can be
//!   delivered (its emission lag). A `SEQ(A; B)` right buffer only ever
//!   waits for *older* left partners, so its retention is the left side's
//!   emission lag — usually zero.
//!
//! The pass iterates to a fixed point (node ids are topological —
//! children first — so it converges in one sweep plus one confirming
//! sweep; the loop and the widening cutoff are kept for safety) and
//! derives, per node:
//!
//! * a solved **window**: an upper bound on the interval of any instance
//!   the node can emit;
//! * an **emission lag**: how long after an instance's `t_end` it can
//!   still be delivered (pseudo-event closures of `TSEQ+` runs and
//!   negation waits) — the *per-node* refinement of the graph-wide
//!   [`crate::graph::EventGraph::max_lag`] pad;
//! * per-side join **retention bounds** `retain[side]`: the oldest
//!   `t_end` a buffered entry on that side can have and still pair with
//!   a future arrival — the horizon `Engine` eviction enforces;
//! * a **history retention** for `NOT`/`SEQ+` recorders: the furthest
//!   back any parent's query can reach, per the querying plans actually
//!   attached.
//!
//! # Soundness: why eviction preserves the firing multiset
//!
//! Chronicle context consumes the *oldest compatible* partner, so evicting
//! an entry that could still pair — even a pair no rule would ever observe
//! upward — changes which partner a later arrival consumes, and with it
//! the firing multiset. Every bound here is therefore derived only from
//! *admission-level* quantities: the node's own `within` (the window its
//! `pair_ok` admission predicate checks), TSEQ distance bounds, solved
//! child durations, and emission lags. An entry is evicted only once no
//! future arrival could be admitted against it at all. Usefulness to
//! parents is deliberately **not** used to narrow retention.

use rfid_events::Span;

use crate::graph::{EventGraph, Node, NodeId, NodeKind, Plan};

/// Fixed-point iteration cutoff. The pass is a single bottom-up sweep in
/// practice (ids are topological); hitting the cutoff widens every node to
/// the conservative pre-solver bounds instead of risking an unsound
/// partial solution.
const MAX_ROUNDS: u32 = 8;

/// Solved interval bounds for one event-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBounds {
    /// Upper bound on `t_end - t_begin` of any instance this node emits.
    /// [`Span::MAX`] when unbounded.
    pub window: Span,
    /// Lower bound on the interval of any emitted instance.
    pub dur_min: Span,
    /// How long after an emitted instance's `t_end` it can still be
    /// delivered to parents (pseudo-event closure lag). The per-node
    /// refinement of the graph-wide `max_lag` pad.
    pub emit_lag: Span,
    /// Join-buffer retention per side: an entry whose `t_end` is older
    /// than `clock - retain[side]` can no longer be admitted against any
    /// future arrival on the other side. [`Span::MAX`] = must keep
    /// forever (unbounded buffer).
    pub retain: [Span; 2],
    /// For history nodes (`NOT`, `SEQ+`, `TSEQ+` run stores): how far back
    /// any attached parent's query can reach at the wall-clock moment it
    /// runs. [`Span::MAX`] = unbounded (epoch-anchored queries).
    pub retention: Span,
}

impl NodeBounds {
    /// The pre-solver state: nothing known beyond the node's own window.
    fn unknown(node: &Node) -> Self {
        NodeBounds {
            window: node.within,
            dur_min: Span::ZERO,
            emit_lag: Span::ZERO,
            retain: [Span::MAX, Span::MAX],
            retention: Span::ZERO,
        }
    }

    /// The conservative fallback used when the fixpoint does not converge:
    /// exactly the bounds the engine enforced before this pass existed
    /// (own horizon plus the graph-wide lag pad).
    fn widened(node: &Node, max_lag: Span) -> Self {
        let pad = |h: Span| {
            if h == Span::MAX {
                Span::MAX
            } else {
                h + max_lag
            }
        };
        NodeBounds {
            window: node.within,
            dur_min: Span::ZERO,
            emit_lag: max_lag,
            retain: [pad(node.horizon), pad(node.horizon)],
            retention: pad(node.retention),
        }
    }
}

/// The solved bounds for every node of a merged [`EventGraph`].
#[derive(Debug, Clone, Default)]
pub struct Bounds {
    nodes: Vec<NodeBounds>,
    rounds: u32,
}

impl Bounds {
    /// Runs the propagation pass to a fixed point over a compiled graph.
    pub fn solve(graph: &EventGraph) -> Bounds {
        let mut nodes: Vec<NodeBounds> = graph.nodes().iter().map(NodeBounds::unknown).collect();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            // Bottom-up value pass: ids are topological (children first).
            for node in graph.nodes() {
                let next = transfer(node, &nodes);
                let slot = &mut nodes[node.id.idx()];
                if (slot.window, slot.dur_min, slot.emit_lag, slot.retain)
                    != (next.window, next.dur_min, next.emit_lag, next.retain)
                {
                    changed = true;
                }
                let retention = slot.retention;
                *slot = next;
                slot.retention = retention;
            }
            // Retention pass: each querying parent extends the reach of the
            // history node it queries. Recomputed from scratch so the loop
            // body is idempotent.
            for b in &mut nodes {
                b.retention = Span::ZERO;
            }
            for node in graph.nodes() {
                for (child, reach) in query_reaches(node, &nodes) {
                    let slot = &mut nodes[child.idx()];
                    if reach > slot.retention {
                        slot.retention = reach;
                    }
                }
            }
            if !changed && rounds > 1 {
                break;
            }
            if rounds >= MAX_ROUNDS {
                // Widening cutoff: fall back to the conservative pre-solver
                // bounds rather than ship a possibly unsound partial fix.
                let max_lag = graph.max_lag();
                for node in graph.nodes() {
                    nodes[node.id.idx()] = NodeBounds::widened(node, max_lag);
                }
                break;
            }
        }
        Bounds { nodes, rounds }
    }

    /// Bounds of a node. Panics if the graph changed since the solve.
    pub fn node(&self, id: NodeId) -> &NodeBounds {
        &self.nodes[id.idx()]
    }

    /// Fixpoint rounds the solve took (diagnostics; 2 in practice).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// `a - b`, preserving the `MAX` = unbounded sentinel.
fn minus(a: Span, b: Span) -> Span {
    if a == Span::MAX {
        Span::MAX
    } else {
        Span::from_millis(a.as_millis().saturating_sub(b.as_millis()))
    }
}

/// The monotone transfer function: one node's bounds from its children's.
/// `retention` is left at its default here; the caller accumulates it from
/// the querying parents in a separate pass.
fn transfer(node: &Node, solved: &[NodeBounds]) -> NodeBounds {
    let child = |i: usize| &solved[node.children[i].idx()];
    let w = node.within;
    let mut b = NodeBounds::unknown(node);
    match node.plan {
        Plan::Leaf => {
            // Observations are instantaneous.
            b.window = Span::ZERO;
        }
        Plan::Forward => {
            // OR forwards one child instance, re-checked against `w`.
            let mut widest = Span::ZERO;
            let mut narrowest = Span::MAX;
            for (i, _) in node.children.iter().enumerate() {
                let c = child(i);
                widest = if widest >= c.window { widest } else { c.window };
                narrowest = narrowest.min(c.dur_min);
                b.emit_lag = if b.emit_lag >= c.emit_lag {
                    b.emit_lag
                } else {
                    c.emit_lag
                };
            }
            b.window = w.min(widest);
            b.dur_min = if narrowest == Span::MAX {
                Span::ZERO
            } else {
                narrowest
            };
        }
        Plan::TwoSided => {
            let (l, r) = (child(0), child(1));
            b.emit_lag = if l.emit_lag >= r.emit_lag {
                l.emit_lag
            } else {
                r.emit_lag
            };
            match node.kind {
                NodeKind::Seq => {
                    b.window = w;
                    b.dur_min = l.dur_min + r.dur_min;
                    // Left entries wait for future right partners, which the
                    // admission window caps; right entries only ever pair
                    // with *older* left instances, so they outlive nothing
                    // but the left side's delivery lag.
                    b.retain = [w + r.emit_lag, l.emit_lag];
                }
                NodeKind::TSeq { min_dist, max_dist } => {
                    // child→parent: constituents + the distance bound cap
                    // the pair's span below the declared window.
                    b.window = w.min(l.window + max_dist + r.window);
                    b.dur_min = l.dur_min + min_dist + r.dur_min;
                    let by_window = w + r.emit_lag;
                    let by_dist = max_dist + r.window + r.emit_lag;
                    b.retain = [by_window.min(by_dist), minus(l.emit_lag, min_dist)];
                }
                NodeKind::And => {
                    b.window = w;
                    b.dur_min = if l.dur_min >= r.dur_min {
                        l.dur_min
                    } else {
                        r.dur_min
                    };
                    // Either side can arrive second; both wait a full window.
                    b.retain = [w + r.emit_lag, w + l.emit_lag];
                }
                _ => {}
            }
        }
        Plan::LeftNegationQuery => {
            // Fires on terminator delivery; the absence constituent spans
            // the queried past window.
            let term = child(1);
            b.emit_lag = term.emit_lag;
            b.dur_min = term.dur_min;
            b.window = match node.kind {
                NodeKind::TSeq { max_dist, .. } => {
                    if max_dist >= term.window {
                        max_dist
                    } else {
                        term.window
                    }
                }
                _ => w,
            };
        }
        Plan::LeftAperiodicQuery => {
            // The emitted composite is gated on `interval <= within`.
            let term = child(1);
            b.emit_lag = term.emit_lag;
            b.dur_min = term.dur_min;
            b.window = w;
        }
        Plan::RightNegationWait => {
            // Resolved by a pseudo event at window close; the composite's
            // `t_end` *is* the close time, so only the initiator's own
            // delivery lag carries over.
            let push = child(0);
            b.emit_lag = push.emit_lag;
            match node.kind {
                NodeKind::TSeq { max_dist, .. } => {
                    b.window = w.min(push.window + max_dist);
                    b.dur_min = push.dur_min + max_dist;
                }
                _ => {
                    b.window = w;
                    b.dur_min = w;
                }
            }
        }
        Plan::AndNegation { not_side } => {
            let push = child(1 - not_side as usize);
            b.emit_lag = push.emit_lag;
            b.dur_min = push.dur_min;
            // The absence constituent spans [t_end - w, t_begin + w].
            b.window = w + w;
        }
        Plan::NegationRecorder | Plan::AperiodicRecorder => {
            // Histories: records are never emitted upward themselves.
            let c = child(0);
            b.window = w.min(c.window);
            b.dur_min = c.dur_min;
        }
        Plan::TimedAperiodic => {
            let c = child(0);
            b.dur_min = c.dur_min;
            b.window = w;
            // Runs close `max_gap` after their last element (or earlier, on
            // a gap violation) — the per-node lag the graph-wide `max_lag`
            // over-approximates for everyone else.
            if let NodeKind::TSeqPlus { max_gap, .. } = node.kind {
                b.emit_lag = max_gap + c.emit_lag;
            }
        }
    }
    b
}

/// How far back `node`'s plan queries each history child it is attached
/// to, measured from the wall clock at the moment the query runs.
fn query_reaches(node: &Node, solved: &[NodeBounds]) -> Vec<(NodeId, Span)> {
    let child = |i: usize| &solved[node.children[i].idx()];
    let w = node.within;
    match node.plan {
        Plan::LeftNegationQuery => {
            // Query runs at terminator delivery (lag of child 1), reaching
            // back `w` (SEQ) / `max_dist` (TSEQ) from the terminator.
            let back = match node.kind {
                NodeKind::TSeq { max_dist, .. } => max_dist,
                _ => w,
            };
            vec![(node.children[0], back + child(1).emit_lag)]
        }
        Plan::LeftAperiodicQuery => vec![(node.children[0], w + child(1).emit_lag)],
        Plan::RightNegationWait => {
            // Resolution queries (t_end, t_begin + w] (SEQ) or the distance
            // band (TSEQ); the initiator may itself arrive late.
            let back = match node.kind {
                NodeKind::TSeq { max_dist, .. } => max_dist,
                _ => w,
            };
            vec![(node.children[1], back + child(0).emit_lag)]
        }
        Plan::AndNegation { not_side } => {
            // Arrival queries `w` back; the future pseudo query at
            // `t_begin + w` can still see records `2w` older than itself.
            let push_lag = child(1 - not_side as usize).emit_lag;
            let arrival = w + push_lag;
            let future = w + w;
            vec![(
                node.children[not_side as usize],
                if arrival >= future { arrival } else { future },
            )]
        }
        Plan::TimedAperiodic => {
            // The run store is bounded by the gap rule itself: an open run
            // whose tail is `max_gap` stale is closed by pseudo event.
            match node.kind {
                NodeKind::TSeqPlus { max_gap, .. } => vec![(node.id, max_gap)],
                _ => vec![],
            }
        }
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_events::EventExpr;

    fn p(reader: &str) -> EventExpr {
        EventExpr::observation_at(reader).build()
    }

    fn solve(expr: EventExpr) -> (EventGraph, Bounds, NodeId) {
        let mut g = EventGraph::new();
        let root = g.add_event(&expr).expect("valid rule");
        let b = Bounds::solve(&g);
        (g, b, root)
    }

    #[test]
    fn seq_right_buffer_retention_is_zero() {
        // SEQ(a; b) WITHIN 30s: the right buffer only pairs with *older*
        // left observations (lag 0), so its retention collapses to zero
        // while the left buffer keeps a full window.
        let (_, b, root) = solve(p("a").seq(p("b")).within(Span::from_secs(30)));
        let nb = b.node(root);
        assert_eq!(nb.retain, [Span::from_secs(30), Span::ZERO]);
        assert_eq!(nb.window, Span::from_secs(30));
        assert_eq!(nb.emit_lag, Span::ZERO);
    }

    #[test]
    fn unconstrained_seq_left_side_stays_unbounded() {
        let (_, b, root) = solve(p("a").seq(p("b")));
        assert_eq!(b.node(root).retain, [Span::MAX, Span::ZERO]);
    }

    #[test]
    fn tseq_distance_caps_both_window_and_retention() {
        // TSEQ over instantaneous leaves: the solved window is the distance
        // bound, far below the declared hour-wide WITHIN — child→parent
        // refinement the top-down pass cannot see.
        let (_, b, root) = solve(
            p("a")
                .tseq(p("b"), Span::from_secs(1), Span::from_secs(5))
                .within(Span::from_secs(3600)),
        );
        let nb = b.node(root);
        assert_eq!(nb.window, Span::from_secs(5));
        assert_eq!(nb.dur_min, Span::from_secs(1));
        assert_eq!(nb.retain[0], Span::from_secs(5));
        assert_eq!(nb.retain[1], Span::ZERO);
    }

    #[test]
    fn and_retains_a_full_window_on_both_sides() {
        let (_, b, root) = solve(p("a").and(p("b")).within(Span::from_secs(10)));
        assert_eq!(
            b.node(root).retain,
            [Span::from_secs(10), Span::from_secs(10)]
        );
    }

    #[test]
    fn negation_history_retention_tracks_the_querying_parent() {
        // WITHIN(SEQ(NOT a; b), 60s): the NOT history is queried 60s back
        // at terminator arrival (lag 0) — finite, so it can be pruned.
        let (g, b, root) = solve(p("a").not().seq(p("b")).within(Span::from_secs(60)));
        let not_id = g.node(root).children[0];
        assert_eq!(b.node(not_id).retention, Span::from_secs(60));
    }

    #[test]
    fn and_negation_history_reaches_two_windows_back() {
        // AND with a negated side: the future-window pseudo query at
        // `t_begin + w` can see records up to `2w` older than itself.
        let (g, b, root) = solve(p("a").and(p("b").not()).within(Span::from_secs(10)));
        let not_id = g.node(root).children[1];
        assert_eq!(b.node(not_id).retention, Span::from_secs(20));
    }

    #[test]
    fn tseq_plus_closure_lag_is_per_node_not_global() {
        // A TSEQ+ run closes up to max_gap after its last element; only the
        // nodes above it inherit that lag. An unrelated SEQ in the same
        // graph keeps lag-0 retention even though the *global* max_lag pad
        // is inflated to the gap.
        let mut g = EventGraph::new();
        let runs = g
            .add_event(
                &p("belt")
                    .tseq_plus(Span::ZERO, Span::from_secs(120))
                    .tseq(p("case"), Span::ZERO, Span::from_secs(4))
                    .within(Span::from_secs(600)),
            )
            .expect("valid rule");
        let pair = g
            .add_event(&p("a").seq(p("b")).within(Span::from_secs(30)))
            .expect("valid rule");
        let b = Bounds::solve(&g);
        assert!(
            g.max_lag() >= Span::from_secs(120),
            "global pad is inflated"
        );
        // The TSEQ's right (case) buffer must wait out late run closures...
        let tseq = b.node(runs);
        assert_eq!(tseq.retain[1], Span::from_secs(120));
        // ...but the unrelated SEQ pays nothing for them.
        assert_eq!(b.node(pair).retain, [Span::from_secs(30), Span::ZERO]);
        assert_eq!(b.rounds(), 2, "topological ids converge in one sweep");
    }

    #[test]
    fn unbounded_negation_query_keeps_distance_retention() {
        // TSEQ(NOT a; b) bounded only by the distance: within stays MAX but
        // the query reach is the finite max_dist.
        let (g, b, root) = solve(p("a").not().tseq(p("b"), Span::ZERO, Span::from_secs(15)));
        let not_id = g.node(root).children[0];
        assert_eq!(b.node(not_id).retention, Span::from_secs(15));
        assert_eq!(b.node(root).window, Span::from_secs(15));
    }
}
