//! Event graph construction and static analysis (§4.3–§4.4).
//!
//! Compiling a rule's [`EventExpr`] into the shared [`EventGraph`] performs,
//! in one pass per node:
//!
//! * **Interval-constraint propagation** — `WITHIN(E, τ)` is not a node but a
//!   constraint; it propagates top-down so every descendant's effective
//!   window is `min(own, parent)` (Fig. 7 of the paper);
//! * **Common-subgraph merging** — a node is hash-consed on its parts: its
//!   constructor, its compiled children and its effective window (none for
//!   a leaf or a `NOT`), so identical sub-events across rules share one
//!   detection node (Fig. 5's merging step). A `SEQ+` store, which the
//!   node querying it consumes, is the one part never shared between two
//!   querying parents, and a node that holds state is never shared across
//!   a seal ([`EventGraph::seal`]): a rule sees the stream from its load;
//! * **Detection-mode assignment** — push / pull / mixed, bottom-up from the
//!   constructor kinds (§4.4), rejecting *invalid rules* whose root is pull;
//! * **Execution planning** — each composite node gets a [`Plan`] describing
//!   how the runtime drives it (two-sided chronicle join, past-window
//!   negation query, pseudo-event-resolved negation wait, …);
//! * **Correlation extraction** — shared variables become [`JoinSpec`]s, and
//!   negation nodes get keyed-history registrations for each parent that
//!   correlates with them. Every extraction list is interned once as a
//!   [`KeySpecId`], so the engine builds each distinct key once per arrival.

use std::collections::HashMap;

use rfid_events::{EventExpr, PrimitivePattern, Span};

use crate::error::InvalidRule;
use crate::key::{exports_of, Exports, Extract, JoinSpec, KeySpecId};

/// Index of a node in the event graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a keyed-history registration on a negation node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistSpecId(pub u32);

/// The constructor a node implements. `WITHIN` never appears: it is folded
/// into [`Node::within`] during propagation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Leaf: a primitive observation pattern.
    Primitive(PrimitivePattern),
    /// `E1 ∨ E2`.
    Or,
    /// `E1 ∧ E2`.
    And,
    /// `E1 ; E2`.
    Seq,
    /// `TSEQ(E1; E2, τl, τu)`.
    TSeq {
        /// Minimum distance `τl`.
        min_dist: Span,
        /// Maximum distance `τu`.
        max_dist: Span,
    },
    /// `¬E`.
    Not,
    /// `SEQ+(E)`.
    SeqPlus,
    /// `TSEQ+(E, τl, τu)`.
    TSeqPlus {
        /// Minimum adjacent gap `τl`.
        min_gap: Span,
        /// Maximum adjacent gap `τu`.
        max_gap: Span,
    },
}

impl NodeKind {
    /// Constructor name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            NodeKind::Primitive(_) => "observation",
            NodeKind::Or => "OR",
            NodeKind::And => "AND",
            NodeKind::Seq => "SEQ",
            NodeKind::TSeq { .. } => "TSEQ",
            NodeKind::Not => "NOT",
            NodeKind::SeqPlus => "SEQ+",
            NodeKind::TSeqPlus { .. } => "TSEQ+",
        }
    }
}

/// §4.4's three detection modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// Spontaneous: occurrences propagate to parents unprompted.
    Push,
    /// Non-spontaneous: occurrences exist only as answers to queries.
    Pull,
    /// Detectable, but only with the help of pseudo events.
    Mixed,
}

/// How the runtime drives a composite node. Every variant is a couple of
/// bytes, so the engine copies plans out of nodes (`Copy`) instead of
/// borrowing them across state mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Leaf node; the engine's dispatch index feeds it.
    Leaf,
    /// `OR`: forward any child instance (subject to the window).
    Forward,
    /// Binary join with both sides delivering instances: chronicle-context
    /// FIFO buffers per correlation key.
    TwoSided,
    /// `SEQ`/`TSEQ` whose initiator is `NOT`: on terminator arrival, query
    /// the negation's history over the *past* window — no pseudo events
    /// needed (§4.5's `WITHIN(¬E1; E2, τ)` example).
    LeftNegationQuery,
    /// `SEQ`/`TSEQ` whose initiator is `SEQ+`: on terminator arrival, query
    /// the aperiodic history over the past window.
    LeftAperiodicQuery,
    /// `SEQ`/`TSEQ` whose terminator is `NOT`: each initiator instance waits;
    /// a pseudo event at window close resolves it.
    RightNegationWait,
    /// `AND` with a negated side: past-window check at arrival plus a pseudo
    /// event for the future part (Fig. 8).
    AndNegation {
        /// Which side (0 = left, 1 = right) is the `NOT` child.
        not_side: u8,
    },
    /// `NOT`: record inner occurrences into keyed histories.
    NegationRecorder,
    /// `SEQ+`: record inner occurrences for pull queries.
    AperiodicRecorder,
    /// `TSEQ+`: maintain the open run; close it by gap violation or pseudo
    /// event and push the closed run to parents.
    TimedAperiodic,
}

impl Plan {
    /// Whether a node of this plan keeps state (the engine's `initial_state`).
    pub fn holds_state(self) -> bool {
        !matches!(
            self,
            Plan::Leaf | Plan::Forward | Plan::LeftNegationQuery | Plan::LeftAperiodicQuery
        )
    }

    /// Short display name (explain tables, telemetry op labels).
    pub fn name(self) -> &'static str {
        match self {
            Plan::Leaf => "leaf",
            Plan::Forward => "forward",
            Plan::TwoSided => "two-sided",
            Plan::LeftNegationQuery => "neg-query",
            Plan::LeftAperiodicQuery => "aper-query",
            Plan::RightNegationWait => "neg-wait",
            Plan::AndNegation { not_side: 0 } => "and-neg-l",
            Plan::AndNegation { .. } => "and-neg-r",
            Plan::NegationRecorder => "neg-record",
            Plan::AperiodicRecorder => "aper-record",
            Plan::TimedAperiodic => "timed-run",
        }
    }
}

/// One node of the shared event graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Constructor.
    pub kind: NodeKind,
    /// Children (0 for leaves, 1 for unary, 2 for binary constructors).
    pub children: Vec<NodeId>,
    /// Parents (any number; shared nodes have several).
    pub parents: Vec<NodeId>,
    /// Effective interval constraint after top-down propagation;
    /// [`Span::MAX`] when unconstrained, and on every leaf and `NOT` (a
    /// `NOT`'s window is its child's).
    pub within: Span,
    /// Detection mode (§4.4).
    pub mode: DetectionMode,
    /// Execution plan.
    pub plan: Plan,
    /// Correlation join between the two children (binary nodes; trivial
    /// otherwise).
    pub join: JoinSpec,
    /// For plans that query a negation/aperiodic child: which keyed history
    /// registration on that child to use.
    pub hist_spec: Option<HistSpecId>,
    /// Variables this node's instances export.
    pub exports: Exports,
    /// The seal watermark the node was built under, shared by its load.
    pub load: u32,
}

/// The shared event graph for every rule added to an engine.
#[derive(Debug)]
pub struct EventGraph {
    nodes: Vec<Node>,
    /// Hash-consing table: a node's parts → the node.
    memo: HashMap<NodeKey, NodeId>,
    /// Keyed-history registrations, indexed by node id (empty for every
    /// node no parent queries): each the key spec a querying parent's join
    /// reads on this child's side, whose extraction paths are relative to
    /// the *inner* instance.
    hist_specs: Vec<Vec<KeySpecId>>,
    /// Interned extraction lists, indexed by [`KeySpecId`]; the empty list
    /// is id 0.
    key_specs: Vec<Vec<Extract>>,
    /// Interning table over `key_specs` (build time only).
    key_spec_ids: HashMap<Vec<Extract>, KeySpecId>,
    /// All primitive (leaf) node ids, for the engine's dispatch index.
    primitives: Vec<NodeId>,
    /// Structural sharing diagnostics: compile requests that hit the memo.
    merged_hits: u64,
    /// Every node below this id has seen the stream ([`EventGraph::seal`]).
    sealed: u32,
}

/// Variables mentioned anywhere below a node (not just exported), used to
/// reject correlations the engine cannot enforce.
type AllVars = std::collections::BTreeSet<rfid_events::Var>;

/// What a node is made of: its constructor, its children and its effective
/// window ([`Span::MAX`] on a leaf and a `NOT`).
type NodeKey = (NodeKind, Vec<NodeId>, Span);

impl Default for EventGraph {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            memo: HashMap::new(),
            hist_specs: Vec::new(),
            key_specs: vec![Vec::new()],
            key_spec_ids: HashMap::from([(Vec::new(), KeySpecId::EMPTY)]),
            primitives: Vec::new(),
            merged_hits: 0,
            sealed: 0,
        }
    }
}

impl EventGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles a rule's event expression, returning its root node.
    /// Structure shared with previously added rules is reused.
    pub fn add_event(&mut self, expr: &EventExpr) -> Result<NodeId, InvalidRule> {
        let (id, _, _) = self.compile(expr, Span::MAX)?;
        let root = self.node(id);
        if root.mode == DetectionMode::Pull {
            return Err(InvalidRule::PullModeRoot {
                event: expr.to_string(),
                cause: format!("root constructor {} is non-spontaneous", root.kind.name()),
            });
        }
        Ok(id)
    }

    /// The node for an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All primitive (leaf) node ids.
    pub fn primitives(&self) -> &[NodeId] {
        &self.primitives
    }

    /// Keyed-history registrations of a negation/aperiodic node.
    pub fn hist_specs(&self, id: NodeId) -> &[KeySpecId] {
        self.hist_specs.get(id.idx()).map_or(&[], Vec::as_slice)
    }

    /// The extraction list an interned key spec stands for.
    pub fn key_spec(&self, id: KeySpecId) -> &[Extract] {
        &self.key_specs[id.idx()]
    }

    /// Number of interned key specs (the empty one included); ids are
    /// dense below it.
    pub fn key_spec_count(&self) -> usize {
        self.key_specs.len()
    }

    /// The id of an extraction list, interning it on first sight.
    fn intern(&mut self, extracts: &[Extract]) -> KeySpecId {
        if let Some(&id) = self.key_spec_ids.get(extracts) {
            return id;
        }
        let id = KeySpecId(self.key_specs.len() as u32);
        self.key_specs.push(extracts.to_vec());
        self.key_spec_ids.insert(extracts.to_vec(), id);
        id
    }

    /// How many compiled sub-events were interned onto an existing node
    /// (a shared composite counts its shared descendants too).
    pub fn merged_hits(&self) -> u64 {
        self.merged_hits
    }

    /// Marks every node built so far as having seen the stream
    /// ([`crate::Program::seal`]).
    pub(crate) fn seal(&mut self) {
        self.sealed = self.nodes.len() as u32;
    }

    /// Clears the seal: no node has seen the stream (an engine reset).
    pub(crate) fn unseal(&mut self) {
        self.sealed = 0;
    }

    /// The seal watermark: the nodes below it have seen the stream.
    pub fn sealed(&self) -> usize {
        self.sealed as usize
    }

    /// Every node under `root`, itself last, each once: children first,
    /// left to right — the order a graph holding only this event numbers
    /// them in, however many other rules share the nodes.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        fn visit(graph: &EventGraph, id: NodeId, seen: &mut [bool], out: &mut Vec<NodeId>) {
            if std::mem::replace(&mut seen[id.idx()], true) {
                return;
            }
            for &child in &graph.node(id).children {
                visit(graph, child, seen, out);
            }
            out.push(id);
        }
        let mut out = Vec::new();
        visit(self, root, &mut vec![false; self.len()], &mut out);
        out
    }

    /// Compiles `expr` under an inherited interval constraint. Returns the
    /// node, its exports snapshot, and the set of all variables below it.
    ///
    /// A node is its parts: it is hash-consed on its constructor, its
    /// compiled children and its window, so whatever spells the same node
    /// — a no-op inner `WITHIN` included — compiles to it once, unless it
    /// holds state and is sealed ([`EventGraph::seal`]).
    fn compile(
        &mut self,
        expr: &EventExpr,
        inherited: Span,
    ) -> Result<(NodeId, Exports, AllVars), InvalidRule> {
        // WITHIN folds into the constraint and disappears (propagation).
        if let EventExpr::Within { inner, window } = expr {
            return self.compile(inner, (*window).min(inherited));
        }
        let (kind, subs): (NodeKind, Vec<&EventExpr>) = match expr {
            EventExpr::Within { .. } => unreachable!("folded above"),
            EventExpr::Primitive(p) => (NodeKind::Primitive(p.clone()), vec![]),
            EventExpr::Or(a, b) => (NodeKind::Or, vec![a, b]),
            EventExpr::And(a, b) => (NodeKind::And, vec![a, b]),
            EventExpr::Seq(a, b) => (NodeKind::Seq, vec![a, b]),
            EventExpr::TSeq {
                first,
                second,
                min_dist,
                max_dist,
            } => (
                NodeKind::TSeq {
                    min_dist: *min_dist,
                    max_dist: *max_dist,
                },
                vec![first, second],
            ),
            EventExpr::Not(x) => (NodeKind::Not, vec![x]),
            EventExpr::SeqPlus(x) => (NodeKind::SeqPlus, vec![x]),
            EventExpr::TSeqPlus {
                inner,
                min_gap,
                max_gap,
            } => (
                NodeKind::TSeqPlus {
                    min_gap: *min_gap,
                    max_gap: *max_gap,
                },
                vec![inner],
            ),
        };
        let mut parts = Vec::with_capacity(subs.len());
        for sub in &subs {
            parts.push(self.compile(sub, inherited)?);
        }
        // An observation is instantaneous, so every window admits it, and a
        // `NOT`'s window is its child's: neither has one of its own.
        let within = match kind {
            NodeKind::Primitive(_) | NodeKind::Not => Span::MAX,
            _ => inherited,
        };
        let key = (kind, parts.iter().map(|p| p.0).collect(), within);
        let mut vars: AllVars = parts.iter().flat_map(|p| p.2.iter().cloned()).collect();
        // A sealed node that holds state has seen the stream: it is a miss,
        // and the fresh node built below takes its place in the memo.
        let hit = self.memo.get(&key).copied();
        let seen = hit.is_some_and(|id| id.0 < self.sealed && self.node(id).plan.holds_state());
        if let Some(id) = hit.filter(|_| !seen) {
            self.merged_hits += 1;
            let exports = self.node(id).exports.clone();
            vars.extend(exports.keys().cloned());
            return Ok((id, exports, vars));
        }

        let mut node = Node {
            id: NodeId(0),
            kind: key.0.clone(),
            children: key.1.clone(),
            parents: vec![],
            within,
            mode: DetectionMode::Push,
            plan: Plan::Leaf,
            join: JoinSpec::default(),
            hist_spec: None,
            exports: Exports::new(),
            load: 0,
        };
        let child_mode = |g: &EventGraph, i: usize| g.node(node.children[i]).mode;
        match node.kind {
            NodeKind::Primitive(_) => {
                node.exports = exports_of(expr, &[]);
                vars.extend(node.exports.keys().cloned());
            }
            NodeKind::Or => {
                if (0..2).any(|i| child_mode(self, i) != DetectionMode::Push) {
                    return Err(InvalidRule::NonPushOrBranch {
                        event: expr.to_string(),
                    });
                }
                node.plan = Plan::Forward;
            }
            NodeKind::Not | NodeKind::SeqPlus | NodeKind::TSeqPlus { .. } => {
                if child_mode(self, 0) == DetectionMode::Pull {
                    return Err(InvalidRule::NonSpontaneousOverNonPush {
                        constructor: node.kind.name(),
                        inner: subs[0].to_string(),
                    });
                }
                (node.plan, node.mode) = match node.kind {
                    NodeKind::Not => (Plan::NegationRecorder, DetectionMode::Pull),
                    NodeKind::SeqPlus => (Plan::AperiodicRecorder, DetectionMode::Pull),
                    _ => (Plan::TimedAperiodic, DetectionMode::Mixed),
                };
            }
            NodeKind::And | NodeKind::Seq | NodeKind::TSeq { .. } => {
                self.plan_binary(expr, &mut node, [&parts[0], &parts[1]], inherited)?;
            }
        }
        let exports = node.exports.clone();
        let id = self.push_node(node);
        self.memo.insert(key, id);
        Ok((id, exports, vars))
    }

    /// Plans a binary node whose children are compiled: its correlation
    /// join, its execution plan and mode, and the keyed history it queries
    /// on a negation/aperiodic child.
    fn plan_binary(
        &mut self,
        expr: &EventExpr,
        node: &mut Node,
        [(ca, ea, va), (cb, eb, vb)]: [&(NodeId, Exports, AllVars); 2],
        inherited: Span,
    ) -> Result<(), InvalidRule> {
        let (ca, cb) = (*ca, *cb);
        let ma = self.node(ca).mode;
        let mb = self.node(cb).mode;
        let is_and = matches!(node.kind, NodeKind::And);

        // The finite bound available to resolve a trailing negation.
        let neg_bound = match node.kind {
            NodeKind::TSeq { max_dist, .. } => max_dist.min(inherited),
            _ => inherited,
        };

        // Joinable exports: a NOT side joins through its inner event.
        let joinable = |g: &EventGraph, id: NodeId, own: &Exports| -> Exports {
            let node = g.node(id);
            if node.kind == NodeKind::Not {
                let inner = node.children[0];
                g.node(inner).exports.clone()
            } else {
                own.clone()
            }
        };
        let ja = joinable(self, ca, ea);
        let jb = joinable(self, cb, eb);
        let mut join = JoinSpec::between(&ja, &jb);
        join.ids = [self.intern(&join.left), self.intern(&join.right)];

        // Every variable shared across the two subtrees must be enforceable
        // through the join, otherwise the rule would silently under-constrain.
        for var in va.intersection(vb) {
            if !join.vars.contains(var) {
                return Err(InvalidRule::UnsupportedCorrelation {
                    var: var.name().to_owned(),
                    event: expr.to_string(),
                });
            }
        }
        let not_a = self.node(ca).kind == NodeKind::Not;
        let not_b = self.node(cb).kind == NodeKind::Not;
        let seqplus_a = self.node(ca).kind == NodeKind::SeqPlus;
        let seqplus_b = self.node(cb).kind == NodeKind::SeqPlus;

        let (plan, mode) = match (ma, mb) {
            (DetectionMode::Pull, DetectionMode::Pull) => {
                return Err(InvalidRule::NoPushSide {
                    event: expr.to_string(),
                })
            }
            (DetectionMode::Pull, _) if not_a && is_and => {
                if neg_bound == Span::MAX {
                    return Err(InvalidRule::UnboundedNegation {
                        event: expr.to_string(),
                    });
                }
                (Plan::AndNegation { not_side: 0 }, DetectionMode::Mixed)
            }
            (_, DetectionMode::Pull) if not_b && is_and => {
                if neg_bound == Span::MAX {
                    return Err(InvalidRule::UnboundedNegation {
                        event: expr.to_string(),
                    });
                }
                (Plan::AndNegation { not_side: 1 }, DetectionMode::Mixed)
            }
            (DetectionMode::Pull, _) if not_a => {
                // SEQ(¬A; B): answered entirely from the past at B's arrival.
                (Plan::LeftNegationQuery, mb)
            }
            (DetectionMode::Pull, _) if seqplus_a && !is_and => (Plan::LeftAperiodicQuery, mb),
            (DetectionMode::Pull, _) if seqplus_a => {
                // AND over SEQ+ has no terminator to scope the run.
                return Err(InvalidRule::PullModeRoot {
                    event: expr.to_string(),
                    cause: "SEQ+ as an AND constituent never closes".to_owned(),
                });
            }
            (_, DetectionMode::Pull) if not_b => {
                if neg_bound == Span::MAX {
                    return Err(InvalidRule::UnboundedNegation {
                        event: expr.to_string(),
                    });
                }
                (Plan::RightNegationWait, DetectionMode::Mixed)
            }
            (_, DetectionMode::Pull) if seqplus_b => {
                // SEQ(A; SEQ+(B)) can never announce the end of the run.
                return Err(InvalidRule::PullModeRoot {
                    event: expr.to_string(),
                    cause: "SEQ+ as terminator never closes".to_owned(),
                });
            }
            (DetectionMode::Pull, _) | (_, DetectionMode::Pull) => {
                return Err(InvalidRule::NoPushSide {
                    event: expr.to_string(),
                })
            }
            (DetectionMode::Push, DetectionMode::Push) => (Plan::TwoSided, DetectionMode::Push),
            _ => (Plan::TwoSided, DetectionMode::Mixed),
        };

        node.exports = exports_of(expr, &[ea, eb]);
        node.join = join;
        (node.plan, node.mode) = (plan, mode);

        // A `SEQ+` store is consumed by the node that queries it, so a
        // second querying parent gets a store of its own.
        if plan == Plan::LeftAperiodicQuery && !self.node(ca).parents.is_empty() {
            let mut own = self.node(ca).clone();
            own.parents.clear();
            node.children[0] = self.push_node(own);
        }

        // Register the keyed history this node will query on its negation /
        // aperiodic child, and remember which registration to use.
        let query_side = match node.plan {
            Plan::LeftNegationQuery | Plan::LeftAperiodicQuery => Some(0u8),
            Plan::RightNegationWait => Some(1),
            Plan::AndNegation { not_side } => Some(not_side),
            _ => None,
        };
        if let Some(side) = query_side {
            let child = node.children[side as usize];
            let spec = node.join.ids[side as usize];
            if self.hist_specs.len() <= child.idx() {
                self.hist_specs.resize_with(child.idx() + 1, Vec::new);
            }
            let specs = &mut self.hist_specs[child.idx()];
            let spec_id = match specs.iter().position(|s| *s == spec) {
                Some(i) => HistSpecId(i as u32),
                None => {
                    specs.push(spec);
                    HistSpecId((specs.len() - 1) as u32)
                }
            };
            node.hist_spec = Some(spec_id);
        }
        Ok(())
    }

    /// Appends a node and attaches it as parent of its children.
    fn push_node(&mut self, mut node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        node.id = id;
        node.load = self.sealed;
        for &c in &node.children {
            let parents = &mut self.nodes[c.idx()].parents;
            if !parents.contains(&id) {
                parents.push(id);
            }
        }
        if node.plan == Plan::Leaf {
            self.primitives.push(id);
        }
        self.nodes.push(node);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Attr;

    fn p(reader: &str) -> EventExpr {
        EventExpr::observation_at(reader).build()
    }

    #[test]
    fn primitive_rule_compiles_to_leaf() {
        let mut g = EventGraph::new();
        let id = g.add_event(&p("r1")).unwrap();
        let node = g.node(id);
        assert_eq!(node.mode, DetectionMode::Push);
        assert_eq!(node.plan, Plan::Leaf);
        assert_eq!(g.primitives(), &[id]);
    }

    #[test]
    fn within_propagates_to_descendants() {
        // Fig. 7: WITHIN(TSEQ+(E1 ∨ E2, 0.1s, 1s) ; E3, 10min)
        let mut g = EventGraph::new();
        let e = p("r1")
            .or(p("r2"))
            .tseq_plus(Span::from_millis(100), Span::from_secs(1))
            .seq(p("r3"))
            .within(Span::from_mins(10));
        let root = g.add_event(&e).unwrap();
        for node in g.nodes() {
            let within = match node.plan {
                Plan::Leaf => Span::MAX,
                _ => Span::from_mins(10),
            };
            assert_eq!(node.within, within, "{:?}", node.kind);
        }
        assert_eq!(g.node(root).kind, NodeKind::Seq);
    }

    #[test]
    fn inner_within_keeps_minimum() {
        let mut g = EventGraph::new();
        let e = p("r1")
            .seq(p("r2"))
            .within(Span::from_secs(5))
            .and(p("r3").seq(p("r4")))
            .within(Span::from_secs(30));
        let root = g.add_event(&e).unwrap();
        let and = g.node(root);
        assert_eq!(and.within, Span::from_secs(30));
        let left = g.node(and.children[0]);
        assert_eq!(left.within, Span::from_secs(5), "min(5s, 30s)");
        let right = g.node(and.children[1]);
        assert_eq!(right.within, Span::from_secs(30));
    }

    #[test]
    fn a_leaf_is_its_pattern() {
        let mut g = EventGraph::new();
        let plain = g.add_event(&p("r1")).unwrap();
        let windowed = g.add_event(&p("r1").within(Span::from_secs(5))).unwrap();
        assert_eq!(plain, windowed, "every window admits an observation");
        let join = g
            .add_event(
                &p("r1")
                    .within(Span::from_secs(1))
                    .seq(p("r1"))
                    .within(Span::from_secs(5)),
            )
            .unwrap();
        assert_eq!(
            g.node(join).children,
            [plain, plain],
            "one leaf, both sides"
        );
        assert_eq!(g.primitives(), &[plain]);
        assert_eq!(g.node(plain).within, Span::MAX);
    }

    #[test]
    fn common_subgraphs_merge() {
        let mut g = EventGraph::new();
        let r1 = g.add_event(&p("r1").seq(p("r2"))).unwrap();
        let r2 = g.add_event(&p("r1").seq(p("r2"))).unwrap();
        assert_eq!(r1, r2, "identical events share one root");
        assert!(g.merged_hits() > 0);

        // Shared leaf, different composite.
        let before = g.len();
        g.add_event(&p("r1").and(p("r2"))).unwrap();
        assert_eq!(g.len(), before + 1, "only the AND node is new");
    }

    #[test]
    fn merging_respects_within_difference() {
        let mut g = EventGraph::new();
        let a = g
            .add_event(&p("r1").seq(p("r2")).within(Span::from_secs(5)))
            .unwrap();
        let b = g
            .add_event(&p("r1").seq(p("r2")).within(Span::from_secs(9)))
            .unwrap();
        assert_ne!(a, b, "different effective windows must not merge");
    }

    #[test]
    fn modes_match_section_4_4() {
        let mut g = EventGraph::new();

        // Push: plain sequence of primitives.
        let seq = g.add_event(&p("r1").seq(p("r2"))).unwrap();
        assert_eq!(g.node(seq).mode, DetectionMode::Push);

        // Mixed: TSEQ+ over a push child.
        let tsp = g
            .add_event(
                &p("r1")
                    .tseq_plus(Span::ZERO, Span::from_secs(1))
                    .within(Span::from_secs(100)),
            )
            .unwrap();
        assert_eq!(g.node(tsp).mode, DetectionMode::Mixed);

        // Mixed: AND with negation under WITHIN (Fig. 8).
        let andneg = g
            .add_event(&p("r1").and(p("r2").not()).within(Span::from_secs(10)))
            .unwrap();
        assert_eq!(g.node(andneg).mode, DetectionMode::Mixed);
        assert_eq!(g.node(andneg).plan, Plan::AndNegation { not_side: 1 });

        // Push: SEQ(¬A; B) — resolved from the past.
        let negseq = g
            .add_event(&p("r1").not().seq(p("r2")).within(Span::from_secs(30)))
            .unwrap();
        assert_eq!(g.node(negseq).mode, DetectionMode::Push);
        assert_eq!(g.node(negseq).plan, Plan::LeftNegationQuery);
    }

    #[test]
    fn invalid_rules_are_rejected() {
        let mut g = EventGraph::new();

        // NOT at the root.
        assert!(matches!(
            g.add_event(&p("r1").not()),
            Err(InvalidRule::PullModeRoot { .. })
        ));

        // SEQ+ at the root.
        assert!(matches!(
            g.add_event(&p("r1").seq_plus()),
            Err(InvalidRule::PullModeRoot { .. })
        ));

        // Unbounded trailing negation.
        assert!(matches!(
            g.add_event(&p("r1").seq(p("r2").not())),
            Err(InvalidRule::UnboundedNegation { .. })
        ));

        // Unbounded AND-negation.
        assert!(matches!(
            g.add_event(&p("r1").and(p("r2").not())),
            Err(InvalidRule::UnboundedNegation { .. })
        ));

        // No push side.
        assert!(matches!(
            g.add_event(&p("r1").not().seq(p("r2").not()).within(Span::from_secs(5))),
            Err(InvalidRule::NoPushSide { .. })
        ));

        // NOT over NOT.
        assert!(matches!(
            g.add_event(&p("r1").not().not().seq(p("r2"))),
            Err(InvalidRule::NonSpontaneousOverNonPush { .. })
        ));

        // SEQ+ as terminator.
        assert!(matches!(
            g.add_event(&p("r1").seq(p("r2").seq_plus())),
            Err(InvalidRule::PullModeRoot { .. })
        ));

        // OR over a negation.
        assert!(matches!(
            g.add_event(&p("r1").or(p("r2").not())),
            Err(InvalidRule::NonPushOrBranch { .. })
        ));

        // SEQ+ as an AND constituent (no way to drive the window).
        assert!(g
            .add_event(&p("r1").seq_plus().and(p("r2")).within(Span::from_secs(5)))
            .is_err());

        // TSEQ+ over a pull child.
        assert!(matches!(
            g.add_event(&p("r1").not().tseq_plus(Span::ZERO, Span::from_secs(1))),
            Err(InvalidRule::NonSpontaneousOverNonPush { .. })
        ));
    }

    #[test]
    fn correlation_across_aperiodic_is_rejected() {
        let mut g = EventGraph::new();
        let left = EventExpr::observation_at("r1")
            .bind_object("o")
            .tseq_plus(Span::ZERO, Span::from_secs(1));
        let right = EventExpr::observation_at("r2").bind_object("o").build();
        let e = left.tseq(right, Span::from_secs(5), Span::from_secs(10));
        assert!(matches!(
            g.add_event(&e),
            Err(InvalidRule::UnsupportedCorrelation { .. })
        ));
    }

    #[test]
    fn rule1_duplicate_filter_compiles_with_join() {
        // WITHIN(observation(r,o,t1); observation(r,o,t2), 5sec)
        let mut g = EventGraph::new();
        let e = EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(Span::from_secs(5));
        let root = g.add_event(&e).unwrap();
        let node = g.node(root);
        assert_eq!(node.join.vars.len(), 2);
        assert_eq!(node.plan, Plan::TwoSided);
    }

    #[test]
    fn negation_query_registers_keyed_history() {
        // Rule 2: WITHIN(¬observation(r,o,t1); observation(r,o,t2), 30sec)
        let mut g = EventGraph::new();
        let e = EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .not()
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(Span::from_secs(30));
        let root = g.add_event(&e).unwrap();
        let node = g.node(root);
        let not_id = node.children[0];
        assert_eq!(g.node(not_id).kind, NodeKind::Not);
        assert_eq!(g.hist_specs(not_id).len(), 1);
        assert_eq!(g.key_spec(g.hist_specs(not_id)[0]).len(), 2);
        assert_eq!(node.hist_spec, Some(HistSpecId(0)));
    }

    #[test]
    fn equal_extraction_lists_share_one_key_spec() {
        let ro = || {
            EventExpr::observation()
                .bind_reader("r")
                .bind_object("o")
                .build()
        };
        let o_at = |reader: &str| EventExpr::observation_at(reader).bind_object("o").build();
        let mut g = EventGraph::new();
        // Rule 1's shape: both sides key on (o, r) read off an observation.
        let dup = g
            .add_event(&ro().seq(ro()).within(Span::from_secs(5)))
            .unwrap();
        // The same lists on another node, under another window.
        let dup9 = g
            .add_event(&ro().and(ro()).within(Span::from_secs(9)))
            .unwrap();
        // A composite child read through its left, then its right child.
        let pair = o_at("r1").seq(o_at("r2"));
        let deep = g
            .add_event(&pair.clone().seq(o_at("r3")).within(Span::from_secs(5)))
            .unwrap();
        let (dup, dup9, deep) = (g.node(dup), g.node(dup9), g.node(deep));

        assert_ne!(dup.id, dup9.id);
        assert_eq!(dup.join.ids, dup9.join.ids, "equal lists, one id");
        assert_eq!(dup.join.ids[0], dup.join.ids[1], "both sides read (o, r)");
        assert_eq!(deep.join.ids[1], KeySpecId(2), "a bare (o) is new");
        assert_ne!(deep.join.ids[0], deep.join.ids[1], "Child(0, o) ≠ Obs(o)");
        assert_eq!(
            g.key_spec(deep.join.ids[0]),
            &[Extract::Obs(Attr::Object).under(0)]
        );
        for id in [dup.join.ids[0], deep.join.ids[0], deep.join.ids[1]] {
            assert_ne!(id, KeySpecId::EMPTY);
        }
        assert_eq!(g.key_spec_count(), 4, "empty, (o, r), (o), Child(0, o)");
        let trivial = g.add_event(&p("r1").seq(p("r2"))).unwrap();
        assert_eq!(g.node(trivial).join.ids, [KeySpecId::EMPTY; 2]);
        assert!(g.key_spec(KeySpecId::EMPTY).is_empty());
    }
}
