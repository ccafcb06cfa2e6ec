//! Inspection: human-readable and Graphviz renderings of a compiled rule
//! set.
//!
//! The paper's Figs. 5–7 draw event graphs with constructor labels and
//! temporal annotations; [`EventGraph::to_dot`] reproduces that drawing for
//! any compiled rule set, [`Program::describe`] prints the analysis table
//! (mode, plan, within, solved window and retention) that §4.4's algorithms
//! and the [`crate::bounds`] interval solver compute, and
//! [`Program::describe_plan`] the lowered plan.

use std::fmt::Write as _;

use rfid_events::{Instance, InstanceKind, Span};

use crate::graph::{DetectionMode, EventGraph, NodeKind, Plan};
use crate::key::KeySpecId;
use crate::obs::FlightRecord;
use crate::plan::EdgeOp;
use crate::program::{Program, Store};

impl Program {
    /// A text table of every node's static analysis, in id order. The
    /// `window` and `retain` columns are the interval solver's
    /// ([`crate::bounds::NodeBounds`]): the longest instance the node can
    /// emit, and the per-side buffer bound the engine prunes against.
    pub fn describe(&self) -> String {
        let solved = self.bounds();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:<14} {:<8} {:<20} {:>10} {:>10} {:<15} {:<10} detail",
            "id", "kind", "mode", "plan", "within", "window", "retain", "children"
        );
        for node in self.graph().nodes() {
            let mode = match node.mode {
                DetectionMode::Push => "push",
                DetectionMode::Pull => "pull",
                DetectionMode::Mixed => "mixed",
            };
            let children: Vec<String> = node.children.iter().map(|c| c.0.to_string()).collect();
            let detail = match &node.kind {
                NodeKind::Primitive(p) => format!("{p}"),
                NodeKind::TSeq { min_dist, max_dist } => format!("dist ∈ [{min_dist}, {max_dist}]"),
                NodeKind::TSeqPlus { min_gap, max_gap } => format!("gap ∈ [{min_gap}, {max_gap}]"),
                _ => String::new(),
            };
            let b = solved.node(node.id);
            let _ = writeln!(
                out,
                "{:>4} {:<14} {:<8} {:<20} {:>10} {:>10} {:<15} {:<10} {}",
                node.id.0,
                node.kind.name(),
                mode,
                node.plan.name(),
                fmt_span(node.within),
                fmt_span(b.window),
                format!("{}/{}", fmt_span(b.retain[0]), fmt_span(b.retain[1])),
                children.join(","),
                detail,
            );
        }
        out
    }

    /// A text table of the lowered execution plan, in node order: the
    /// per-node [`Plan`], dispatch reachability, attached rules, and the
    /// precomputed parent-activation edges — the flat view the executor
    /// runs, complementing [`Program::describe`]'s graph-level table. What
    /// shares state is listed after the summary: one line per window family
    /// (holder, then each member node with its cut-off), and one per key
    /// spec's keyed table with its lanes (node, join side or history
    /// registration, solved retention).
    pub fn describe_plan(&self) -> String {
        let plan = self.plan();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:<12} {:<6} {:<8} edges",
            "id", "op", "disp", "rules"
        );
        for node in self.graph().nodes() {
            let id = node.id;
            let disp = match (node.plan, plan.leaf_is_dispatchable(id)) {
                (Plan::Leaf, true) => "yes",
                (Plan::Leaf, false) => "dead",
                _ => "-",
            };
            let rules: Vec<String> = plan.rules_at(id).iter().map(|r| r.0.to_string()).collect();
            let edges: Vec<String> = plan
                .edges_at(id)
                .iter()
                .map(|e| {
                    let parent = e.parent().0;
                    match e.op() {
                        EdgeOp::SelfJoin => format!("self-join→{parent}"),
                        EdgeOp::Left => format!("left→{parent}"),
                        EdgeOp::Right => format!("right→{parent}"),
                    }
                })
                .collect();
            let _ = writeln!(
                out,
                "{:>4} {:<12} {:<6} {:<8} {}",
                id.0,
                node.plan.name(),
                disp,
                rules.join(","),
                edges.join(" "),
            );
        }
        let _ = writeln!(
            out,
            "— {} nodes, {} edges, {} rule attachments, dispatch width {}, {} arena bytes",
            plan.node_count(),
            plan.edge_count(),
            plan.rule_count(),
            plan.dispatch_width(),
            plan.arena_bytes(),
        );
        for (holder, members) in plan.families() {
            let members: Vec<String> = members
                .iter()
                .map(|m| format!("{} ({})", m.node.0, fmt_span(m.cutoff)))
                .collect();
            let _ = writeln!(
                out,
                "family: {} node {} serves {}",
                self.graph().node(holder).plan.name(),
                holder.0,
                members.join(", ")
            );
        }
        let mut tables = vec![Vec::new(); self.graph().key_spec_count()];
        for node in self.graph().nodes() {
            let retain = self.retention(node.id);
            for (store, spec) in self.stores(node.id) {
                let (lane, span) = match store {
                    Store::Side(side) => (
                        ["left", "right"][usize::from(side)].to_owned(),
                        retain[usize::from(side)],
                    ),
                    Store::Hist(i) => (format!("hist{i}"), retain[0]),
                };
                tables[spec.idx()].push(format!("{}.{lane} {}", node.id.0, fmt_span(span)));
            }
        }
        for (spec, lanes) in tables
            .iter()
            .enumerate()
            .filter(|(_, lanes)| !lanes.is_empty())
        {
            let parts = self.graph().key_spec(KeySpecId(spec as u32)).len();
            let _ = writeln!(out, "keys {spec} ({parts} parts): {}", lanes.join(", "));
        }
        out
    }
}

impl EventGraph {
    /// A Graphviz `digraph` in the style of the paper's figures: constructor
    /// nodes with temporal annotations, edges from constituents to the
    /// events they construct, pull/mixed nodes visually distinguished.
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph event_graph {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n",
        );
        for node in self.nodes() {
            let (shape, style) = match node.mode {
                DetectionMode::Push => ("ellipse", "solid"),
                DetectionMode::Mixed => ("ellipse", "dashed"),
                DetectionMode::Pull => ("box", "dashed"),
            };
            let mut label = match &node.kind {
                NodeKind::Primitive(p) => format!("{p}"),
                NodeKind::TSeq { min_dist, max_dist } => {
                    format!("TSEQ [{min_dist},{max_dist}]")
                }
                NodeKind::TSeqPlus { min_gap, max_gap } => {
                    format!("TSEQ+ [{min_gap},{max_gap}]")
                }
                other => other.name().to_owned(),
            };
            if node.within != Span::MAX {
                let _ = write!(label, "\\nwithin {}", node.within);
            }
            if !node.join.is_trivial() {
                let vars: Vec<&str> = node.join.vars.iter().map(|v| v.name()).collect();
                let _ = write!(label, "\\njoin on {}", vars.join(","));
            }
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\" shape={shape} style={style}];",
                node.id.0,
                label.replace('"', "'"),
            );
        }
        for node in self.nodes() {
            for (slot, child) in node.children.iter().enumerate() {
                let _ = writeln!(out, "  n{} -> n{} [label=\"{slot}\"];", child.0, node.id.0);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Renders an instance's constituent tree — the event-graph derivation of
/// a firing — down to the raw reader observations, one node per line:
///
/// ```text
/// TSEQ [0ms..5.100sec] (4 observations)
/// ├─ TSEQ+ [0ms..3sec] (3 observations)
/// │  ├─ obs …
/// │  └─ obs …
/// └─ obs …
/// ```
///
/// Absence constituents render as their witnessed window. This is the
/// tree `rceda-obs explain` prints for each flight-recorded firing.
pub fn render_instance(inst: &Instance) -> String {
    let mut out = String::new();
    render_node(inst, "", "", &mut out);
    out
}

/// Renders one flight-recorded firing: a header naming the rule and
/// firing position, then the derivation tree of its instance.
pub fn render_firing(rule_name: &str, rec: &FlightRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "firing #{} — rule `{rule_name}` at {} ({} observations)",
        rec.seq,
        rec.at,
        rec.inst.primitive_count()
    );
    out.push_str(&render_instance(&rec.inst));
    out
}

fn render_node(inst: &Instance, prefix: &str, child_prefix: &str, out: &mut String) {
    match inst.kind() {
        InstanceKind::Observation(obs) => {
            let _ = writeln!(out, "{prefix}obs {obs}");
        }
        InstanceKind::Composite { op, children } => {
            let _ = writeln!(
                out,
                "{prefix}{op} [{}..{}] ({} observations)",
                inst.t_begin(),
                inst.t_end(),
                inst.primitive_count()
            );
            let last = children.len().saturating_sub(1);
            for (i, child) in children.iter().enumerate() {
                let (branch, cont) = if i == last {
                    ("└─ ", "   ")
                } else {
                    ("├─ ", "│  ")
                };
                render_node(
                    child,
                    &format!("{child_prefix}{branch}"),
                    &format!("{child_prefix}{cont}"),
                    out,
                );
            }
        }
        InstanceKind::Absence => {
            let _ = writeln!(
                out,
                "{prefix}absence [{}..{}] (no occurrence witnessed)",
                inst.t_begin(),
                inst.t_end()
            );
        }
    }
}

fn fmt_span(s: Span) -> String {
    if s == Span::MAX {
        "∞".to_owned()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use rfid_events::EventExpr;

    /// A solved program over `events`, one rule each.
    fn program(catalog: Option<rfid_events::Catalog>, events: Vec<EventExpr>) -> Program {
        let mut p = Program::new();
        for (i, event) in events.into_iter().enumerate() {
            let rule = crate::RuleEvent::new(format!("r{i}"), "rule", event);
            p.add_rule(rule).unwrap();
        }
        p.solve(catalog.as_ref());
        p
    }

    fn sample_program() -> Program {
        let e = EventExpr::observation_at("r1")
            .tseq_plus(Span::from_millis(100), Span::from_secs(1))
            .tseq(
                EventExpr::observation_at("r2"),
                Span::from_secs(10),
                Span::from_secs(20),
            )
            .within(Span::from_mins(5));
        let neg = EventExpr::observation_at("r1")
            .and(EventExpr::observation_at("r2").not())
            .within(Span::from_secs(5));
        program(None, vec![e, neg])
    }

    fn shelf_catalog() -> rfid_events::Catalog {
        let mut catalog = rfid_events::Catalog::new();
        catalog.readers.register("s1", "shelves", "aisle-1");
        catalog
    }

    #[test]
    fn describe_lists_every_node() {
        let p = sample_program();
        let text = p.describe();
        assert_eq!(
            text.lines().count(),
            p.graph().len() + 1,
            "header + one line per node"
        );
        assert!(text.contains("TSEQ+"));
        assert!(text.contains("mixed"));
        assert!(text.contains("pull"));
        assert!(text.contains("and-neg-r"));
        assert!(text.contains("gap ∈ [0.100sec, 1sec]"));
        assert!(
            text.lines().next().unwrap().contains("retain"),
            "solved retention column present: {text}"
        );
        assert!(
            text.contains('/'),
            "per-side retain bounds rendered: {text}"
        );
    }

    #[test]
    fn plan_describe_lists_every_node_and_the_infield_edges() {
        let shelf = EventExpr::observation_in_group("shelves");
        let infield = shelf.clone().not().seq(shelf).within(Span::from_secs(30));
        let p = program(Some(shelf_catalog()), vec![infield]);
        let text = p.describe_plan();
        assert_eq!(
            text.lines().filter(|l| !l.starts_with("keys ")).count(),
            p.plan().node_count() + 2,
            "header + one line per node + summary, then the key tables"
        );
        assert!(text.contains("neg-record"), "plans rendered by name");
        assert!(
            text.contains("right→2 left→1"),
            "the leaf answers the query, then records: {text}"
        );
        assert!(
            text.contains("dispatch width 1"),
            "one shelf candidate: {text}"
        );
    }

    #[test]
    fn plan_describe_lists_families() {
        let shelf = || EventExpr::observation_in_group("shelves").bind_object("o");
        let infield = |secs| shelf().not().seq(shelf()).within(Span::from_secs(secs));
        let p = program(
            Some(shelf_catalog()),
            [30, 10, 20].into_iter().map(infield).collect(),
        );
        let text = p.describe_plan();
        assert!(
            text.contains("family: neg-query node 2 serves 3 (10sec), 4 (20sec), 2 (30sec)"),
            "{text}"
        );
        let negated = |r: &NodeId| p.graph().node(*r).children[0] == NodeId(1);
        assert!(p.roots().iter().all(negated), "one NOT node: {text}");
        assert_eq!(text.matches("neg-record").count(), 1, "{text}");
    }

    /// One line per key spec's table: `dup`'s self-join admits on its left
    /// side alone and shares `(r, o)` with `infield`'s history; the
    /// uncorrelated `SEQ` has both sides in the empty spec's table.
    #[test]
    fn plan_describe_lists_key_tables() {
        let shelf = || {
            EventExpr::observation_in_group("shelves")
                .bind_reader("r")
                .bind_object("o")
        };
        let p = program(
            Some(shelf_catalog()),
            vec![
                shelf().seq(shelf()).within(Span::from_secs(5)),
                shelf().not().seq(shelf()).within(Span::from_secs(3)),
                EventExpr::observation_at("s1")
                    .seq(EventExpr::observation_in_group("shelves"))
                    .within(Span::from_secs(2)),
            ],
        );
        let text = p.describe_plan();
        let tables: Vec<&str> = text.lines().filter(|l| l.starts_with("keys ")).collect();
        assert_eq!(
            tables,
            [
                "keys 0 (0 parts): 6.left 2sec, 6.right 0sec",
                "keys 1 (2 parts): 1.left 5sec, 2.hist0 3sec"
            ],
            "{text}"
        );
    }

    #[test]
    fn dot_is_structurally_complete() {
        let p = sample_program();
        let g = p.graph();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph event_graph {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(
            dot.matches("[label=\"").count() - dot.matches("] [label").count(),
            g.len() + g.nodes().iter().map(|n| n.children.len()).sum::<usize>(),
            "one label per node and per edge"
        );
        assert!(dot.contains("within 5sec"), "annotations rendered");
        assert!(dot.contains("shape=box"), "pull nodes distinguished");
    }

    #[test]
    fn dot_edges_match_graph_edges() {
        let p = sample_program();
        let g = p.graph();
        let dot = g.to_dot();
        for node in g.nodes() {
            for child in &node.children {
                assert!(
                    dot.contains(&format!("n{} -> n{}", child.0, node.id.0)),
                    "edge {} -> {} missing",
                    child.0,
                    node.id.0
                );
            }
        }
    }
}
