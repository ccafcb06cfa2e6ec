//! Interval-constraint propagation over the merged event graph: the one
//! place a window, a minimum duration, an emission lag or a retention is
//! computed. Store expiry, the unbounded-join cap and every lint that talks
//! about time (E001, E003, W005, N001) read these numbers through
//! [`crate::Program::bounds`].
//!
//! Graph compilation ([`crate::graph`]) folds `WITHIN` constraints top-down
//! (parent → child narrowing, Fig. 7 of the paper) into each node's
//! `within`. This pass runs *after* merging and closes the loop in the
//! other two directions:
//!
//! * **child → parent**: the solved durations of the children tighten the
//!   parent's window — a `TSEQ` spans its left constituent plus the
//!   end-to-end distance, so it can never span more than
//!   `window(l) + τu`, no matter how loose its declared `WITHIN` is;
//! * **sibling → sibling**: under chronicle context, how long one join side
//!   must buffer is governed by the *other* side — how far in the future a
//!   logical partner may still lie, plus how late that partner can be
//!   delivered (its emission lag). A `SEQ(A; B)` right buffer only ever
//!   waits for *older* left partners, so its retention is the left side's
//!   emission lag — usually zero.
//!
//! Node ids are topological (children first; lowering asserts it) and a
//! node's values depend only on its children's, so one bottom-up pass
//! solves them; a second pass lets each querying parent extend the reach of
//! the history it queries. Per node:
//!
//! * a solved **window**: an upper bound on the interval of any instance
//!   the node can emit;
//! * a **minimum duration** `dur_min`: a lower bound on the same interval
//!   (E001 compares it with `within` where the handler checks the window);
//! * an **emission lag**: how long after an instance's `t_end` it can
//!   still be delivered (pseudo-event closures of `TSEQ+` runs and
//!   negation waits);
//! * per-side join **retention bounds** `retain[side]`: the oldest `t_end`
//!   a buffered entry on that side can have and still pair with a future
//!   arrival — what the engine's admissions and join scans prune at, and where
//!   they cannot (`Span::MAX`), the capacity cap applies;
//! * a **history retention** for `NOT`/`SEQ+` recorders: the furthest back
//!   any parent's query can reach, per the querying plans actually
//!   attached.
//!
//! `TSEQ` follows `pair_ok`: `t_end(l) ≤ t_begin(r)` and
//! `dist = t_end(r) − t_end(l) ∈ [τl, τu]` (Fig. 3's end-to-end distance).
//! A pair therefore spans `dur(l) + dist` with `dist ≥ max(τl, dur(r))`, and
//! a left entry can pair only with a right partner ending at most
//! `min(within, τu)` after it.
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

/// Solved interval bounds for one event-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBounds {
    /// Upper bound on `t_end - t_begin` of any instance this node emits.
    /// [`Span::MAX`] when unbounded.
    pub window: Span,
    /// Lower bound on the interval of any emitted instance.
    pub dur_min: Span,
    /// How long after an emitted instance's `t_end` it can still be
    /// delivered to parents (pseudo-event closure lag).
    pub emit_lag: Span,
    /// Join-buffer retention per side: an entry whose `t_end` is older
    /// than `clock - retain[side]` can no longer be admitted against any
    /// future arrival on the other side. [`Span::MAX`] = must keep
    /// forever (unbounded buffer; the engine caps it instead).
    pub retain: [Span; 2],
    /// For history nodes (`NOT`, `SEQ+`, `TSEQ+` run stores): how far back
    /// any attached parent's query can reach at the wall-clock moment it
    /// runs. [`Span::MAX`] = unbounded (epoch-anchored queries).
    pub retention: Span,
}

/// The solved bounds for every node of a merged [`EventGraph`].
#[derive(Debug, Clone, Default)]
pub struct Bounds {
    nodes: Vec<NodeBounds>,
}

impl Bounds {
    /// Solves a compiled graph: one bottom-up pass for the values, one for
    /// the history retentions their querying parents need.
    pub fn solve(graph: &EventGraph) -> Bounds {
        let mut nodes = Vec::with_capacity(graph.len());
        for node in graph.nodes() {
            let solved = transfer(node, &nodes);
            nodes.push(solved);
        }
        for node in graph.nodes() {
            if let Some((history, reach)) = query_reach(node, &nodes) {
                let slot = &mut nodes[history.idx()].retention;
                *slot = (*slot).max(reach);
            }
        }
        Bounds { nodes }
    }

    /// Bounds of a node. Panics if the graph changed since the solve.
    pub fn node(&self, id: NodeId) -> &NodeBounds {
        &self.nodes[id.idx()]
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

/// The shortest `SEQ`/`TSEQ` pair of `l` then `r`: it spans `dur(l)` plus
/// the end-to-end distance, which is at least `dur(r)` (`r` begins after
/// `l` ends) and, for a `TSEQ`, at least `τl`.
fn pair_dur_min(kind: &NodeKind, l: &NodeBounds, r: &NodeBounds) -> Span {
    let dist_min = match *kind {
        NodeKind::TSeq { min_dist, .. } => min_dist.max(r.dur_min),
        _ => r.dur_min,
    };
    l.dur_min + dist_min
}

/// One node's bounds from its children's (`solved` holds every node with a
/// smaller id). `retention` is left at zero here; [`Bounds::solve`]
/// accumulates it from the querying parents.
fn transfer(node: &Node, solved: &[NodeBounds]) -> NodeBounds {
    let child = |i: usize| &solved[node.children[i].idx()];
    let w = node.within;
    let mut b = NodeBounds {
        window: w,
        dur_min: Span::ZERO,
        emit_lag: Span::ZERO,
        retain: [Span::MAX, Span::MAX],
        retention: Span::ZERO,
    };
    match node.plan {
        Plan::Leaf => {
            // Observations are instantaneous.
            b.window = Span::ZERO;
        }
        Plan::Forward => {
            // OR forwards one child instance, re-checked against `w`.
            let children = node.children.iter().map(|c| &solved[c.idx()]);
            let widest = children.clone().map(|c| c.window).max();
            b.window = w.min(widest.unwrap_or(Span::ZERO));
            b.dur_min = children
                .clone()
                .map(|c| c.dur_min)
                .min()
                .unwrap_or(Span::ZERO);
            b.emit_lag = children.map(|c| c.emit_lag).max().unwrap_or(Span::ZERO);
        }
        Plan::TwoSided => {
            let (l, r) = (child(0), child(1));
            b.emit_lag = l.emit_lag.max(r.emit_lag);
            match node.kind {
                NodeKind::Seq => {
                    b.dur_min = pair_dur_min(&node.kind, l, r);
                    // Left entries wait for future right partners, which the
                    // admission window caps; right entries only ever pair
                    // with *older* left instances, so they outlive nothing
                    // but the left side's delivery lag.
                    b.retain = [w + r.emit_lag, l.emit_lag];
                }
                NodeKind::TSeq { min_dist, max_dist } => {
                    b.window = w.min(l.window + max_dist);
                    b.dur_min = pair_dur_min(&node.kind, l, r);
                    // A right partner ends at most `min(w, τu)` after the
                    // left entry and is delivered up to `lag(r)` later.
                    b.retain = [w.min(max_dist) + r.emit_lag, minus(l.emit_lag, min_dist)];
                }
                NodeKind::And => {
                    b.dur_min = l.dur_min.max(r.dur_min);
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
            if let NodeKind::TSeq { max_dist, .. } = node.kind {
                b.window = max_dist.max(term.window);
            }
        }
        Plan::LeftAperiodicQuery => {
            // The run pairs with the terminator like a two-sided `SEQ`/`TSEQ`
            // (its last element ends before the terminator begins, within
            // the distance band), gated on `interval <= within`.
            let (run, term) = (child(0), child(1));
            b.emit_lag = term.emit_lag;
            b.dur_min = pair_dur_min(&node.kind, run, term);
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
                _ => b.dur_min = w,
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
            // Runs close `max_gap` after their last element (or earlier, on
            // a gap violation): only the nodes above this one inherit it.
            if let NodeKind::TSeqPlus { max_gap, .. } = node.kind {
                b.emit_lag = max_gap + c.emit_lag;
            }
        }
    }
    b
}

/// The history `node`'s plan queries (or keeps, for a `TSEQ+` run store)
/// and how far back it reaches, measured from the wall clock at the moment
/// the query runs.
fn query_reach(node: &Node, solved: &[NodeBounds]) -> Option<(NodeId, Span)> {
    let child = |i: usize| &solved[node.children[i].idx()];
    let w = node.within;
    // SEQ queries reach back the window, TSEQ the distance band.
    let back = match node.kind {
        NodeKind::TSeq { max_dist, .. } => max_dist,
        _ => w,
    };
    match node.plan {
        // Query runs at terminator delivery (lag of child 1).
        Plan::LeftNegationQuery => Some((node.children[0], back + child(1).emit_lag)),
        Plan::LeftAperiodicQuery => Some((node.children[0], w + child(1).emit_lag)),
        // Resolution queries (t_end, t_begin + w] (SEQ) or the distance
        // band (TSEQ); the initiator may itself arrive late.
        Plan::RightNegationWait => Some((node.children[1], back + child(0).emit_lag)),
        Plan::AndNegation { not_side } => {
            // Arrival queries `w` back; the future pseudo query at
            // `t_begin + w` can still see records `2w` older than itself.
            let arrival = w + child(1 - not_side as usize).emit_lag;
            Some((node.children[not_side as usize], arrival.max(w + w)))
        }
        // The run store is bounded by the gap rule itself: an open run
        // whose tail is `max_gap` stale is closed by pseudo event.
        Plan::TimedAperiodic => match node.kind {
            NodeKind::TSeqPlus { max_gap, .. } => Some((node.id, max_gap)),
            _ => None,
        },
        _ => None,
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
    fn tseq_over_a_composite_right_side_is_bounded_by_the_distance() {
        // TSEQ(a; SEQ(b; c), 0, 5s) with no WITHIN: the distance runs end
        // to end, so a left entry waits one `τu` for the right partner's
        // end, however long that partner spans.
        let (_, b, root) = solve(p("a").tseq(p("b").seq(p("c")), Span::ZERO, Span::from_secs(5)));
        let nb = b.node(root);
        assert_eq!(nb.retain, [Span::from_secs(5), Span::ZERO]);
        assert_eq!(nb.window, Span::from_secs(5));
    }

    #[test]
    fn nested_tseq_duration_counts_the_distance_once() {
        // WITHIN(TSEQ(a; TSEQ(b; c, 2s, 3s), 2s, 3s), 3s) fires on
        // a@0, b@0, c@2s: the inner pair's own span is part of the outer
        // distance, not added to it.
        let (_, b, root) = solve(
            p("a")
                .tseq(
                    p("b").tseq(p("c"), Span::from_secs(2), Span::from_secs(3)),
                    Span::from_secs(2),
                    Span::from_secs(3),
                )
                .within(Span::from_secs(3)),
        );
        assert_eq!(b.node(root).dur_min, Span::from_secs(2));
        assert_eq!(b.node(root).window, Span::from_secs(3));
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
    fn aperiodic_history_under_an_unwindowed_tseq_is_unbounded() {
        // TSEQ(SEQ+(a); b, 0, 5s): the terminator takes every recorded
        // element back to the epoch, so the store is only bounded by a
        // WITHIN — the distance band limits the run's last element only.
        let (g, b, root) = solve(
            p("a")
                .seq_plus()
                .tseq(p("b"), Span::ZERO, Span::from_secs(5)),
        );
        let run = g.node(root).children[0];
        assert_eq!(b.node(run).retention, Span::MAX);
    }

    #[test]
    fn tseq_plus_closure_lag_is_per_node_not_global() {
        // A TSEQ+ run closes up to max_gap after its last element; only the
        // nodes above it inherit that lag. An unrelated SEQ in the same
        // graph keeps lag-0 retention.
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
        // The TSEQ's right (case) buffer must wait out late run closures...
        let tseq = b.node(runs);
        assert_eq!(tseq.retain[1], Span::from_secs(120));
        // ...but the unrelated SEQ pays nothing for them.
        assert_eq!(b.node(pair).retain, [Span::from_secs(30), Span::ZERO]);
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
