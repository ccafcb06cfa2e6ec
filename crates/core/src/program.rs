//! What a rule set compiles to (§4.3–§4.4), built in one place.
//!
//! A [`Program`] owns the whole compile pipeline and its results:
//!
//! 1. [`Program::add_rule`] merges a rule's event into the shared
//!    [`EventGraph`] (construction, common-subgraph merging, `WITHIN`
//!    propagation, mode assignment, invalid-rule rejection);
//! 2. [`Program::solve`] runs, once per rule-set change and in this order,
//!    the interval solver ([`Bounds`], reads the graph), the lowering
//!    ([`CompiledPlan`], reads the graph, the deployment catalog and the
//!    rules at each root). The caller lends the deployment catalog — its
//!    own on every call — or `None` when there is no deployment to check
//!    against: named and grouped leaves then lower as undispatchable.
//!
//! Everything else reads the result: the [`crate::Engine`] executes it, the
//! shard coordinator partitions it, [`crate::analyze`] judges it and
//! [`crate::explain`] prints it — so they all talk about the same plan.

use std::collections::HashMap;

use rfid_events::{Catalog, EventExpr, Span};

use crate::bounds::Bounds;
use crate::engine::RuleId;
use crate::error::InvalidRule;
use crate::graph::{EventGraph, NodeId, Plan};
use crate::key::KeySpecId;
use crate::plan::CompiledPlan;

/// One rule handed to the compiler: its identity and event.
#[derive(Debug, Clone)]
pub struct RuleEvent {
    /// Declared id.
    pub id: String,
    /// Declared name.
    pub name: String,
    /// The event expression, alias-free.
    pub event: EventExpr,
}

impl RuleEvent {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, name: impl Into<String>, event: EventExpr) -> Self {
        Self {
            id: id.into(),
            name: name.into(),
            event,
        }
    }
}

/// A keyed store of the runtime, a lane of its key spec's table
/// (DESIGN.md §10): one side of a two-sided join, or one history
/// registration on a `NOT` ([`EventGraph::hist_specs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// The join side that admits into it.
    Side(u8),
    /// The history registration it records.
    Hist(u32),
}

/// A rule set and what it compiles to; see the module docs.
#[derive(Debug, Default)]
pub struct Program {
    graph: EventGraph,
    /// Accepted rules, indexed by [`RuleId`], and their roots.
    rules: Vec<RuleEvent>,
    roots: Vec<NodeId>,
    /// Cleared by `add_rule`, set by `solve`; everything below is as of the
    /// last `solve`.
    solved: bool,
    rules_at: HashMap<NodeId, Vec<RuleId>>,
    bounds: Bounds,
    plan: CompiledPlan,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The solved program of a whole rule set. Rules the builder rejects are
    /// left out (their partial nodes stay in the graph, as they do in an
    /// engine that went on after the rejection).
    pub fn compile(
        deployment: Option<&Catalog>,
        rules: impl IntoIterator<Item = RuleEvent>,
    ) -> Self {
        let mut program = Self::new();
        for rule in rules {
            let _ = program.add_rule(rule);
        }
        program.solve(deployment);
        program
    }

    /// Merges a rule's event into the graph and validates it (§4.4). A
    /// rejected rule is not registered and takes no id, but the nodes built
    /// before the rejection stay in the graph, so the program is re-solved
    /// either way.
    pub fn add_rule(&mut self, rule: RuleEvent) -> Result<RuleId, InvalidRule> {
        self.solved = false;
        let root = self.graph.add_event(&rule.event)?;
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(rule);
        self.roots.push(root);
        Ok(id)
    }

    /// Brings the bounds and the plan up to date with the rule set, against
    /// `deployment`. Returns whether it re-solved: `false` when the rule set
    /// has not changed since the last call.
    pub fn solve(&mut self, deployment: Option<&Catalog>) -> bool {
        if self.solved {
            return false;
        }
        self.rules_at.clear();
        for (i, &root) in self.roots.iter().enumerate() {
            let rules = self.rules_at.entry(root).or_default();
            rules.push(RuleId(i as u32));
        }
        self.bounds = Bounds::solve(&self.graph);
        let no_deployment = Catalog::new();
        let deployment = deployment.unwrap_or(&no_deployment);
        self.plan = CompiledPlan::lower(&self.graph, deployment, &self.rules_at);
        self.solved = true;
        true
    }

    /// Marks every node built so far as having seen the stream: a rule
    /// added later gets a fresh copy of each that holds state, which the
    /// rules loaded with it share (docs/SEMANTICS.md §6).
    pub fn seal(&mut self) {
        self.graph.seal();
    }

    /// Clears the seal: no node has seen the stream (an engine reset).
    pub(crate) fn unseal(&mut self) {
        self.graph.unseal();
    }

    /// The merged event graph; current after every `add_rule`.
    pub fn graph(&self) -> &EventGraph {
        &self.graph
    }

    /// The accepted rules, indexed by [`RuleId`].
    pub fn rules(&self) -> &[RuleEvent] {
        &self.rules
    }

    /// Root graph node of each rule, indexed by [`RuleId`].
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Rules rooted at a node, in registration order (as of the last
    /// [`Program::solve`]).
    pub fn rules_at(&self, node: NodeId) -> &[RuleId] {
        self.rules_at.get(&node).map_or(&[], Vec::as_slice)
    }

    /// The solved retention bounds (as of the last [`Program::solve`]).
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// The lowered execution plan (as of the last [`Program::solve`]).
    #[inline]
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// The keyed stores `node` owns, each with the key spec whose table
    /// holds it: both sides of a two-sided join (the left alone of a
    /// self-join, whose right never admits), one history per registration
    /// on a `NOT`; none on a window-family member, which its holder's
    /// stores serve.
    pub fn stores(&self, id: NodeId) -> Vec<(Store, KeySpecId)> {
        let node = self.graph.node(id);
        match node.plan {
            _ if self.plan.holder(id) != id => Vec::new(),
            Plan::TwoSided => {
                let sides = if node.children[0] == node.children[1] {
                    1
                } else {
                    2
                };
                (0..sides)
                    .map(|s| (Store::Side(s), node.join.ids[usize::from(s)]))
                    .collect()
            }
            Plan::NegationRecorder => (self.graph.hist_specs(id).iter().enumerate())
                .map(|(i, &key)| (Store::Hist(i as u32), key))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The one place a retention is chosen: how long each side's store of
    /// `node` keeps an entry matchable, from the solved bounds
    /// ([`Bounds`]); non-join stores use side 0 and [`Span::MAX`]
    /// marks a side that never expires by time. A window-family holder
    /// keeps what its longest-reaching member needs.
    pub fn retention(&self, id: NodeId) -> [Span; 2] {
        let own = |id: NodeId| {
            let b = self.bounds.node(id);
            match self.graph.node(id).plan {
                Plan::TwoSided => b.retain,
                Plan::NegationRecorder | Plan::AperiodicRecorder => [b.retention; 2],
                _ => [Span::MAX; 2],
            }
        };
        let members = self.plan.family(id).iter().map(|m| own(m.node));
        members.fold(own(id), |a, b| [a[0].max(b[0]), a[1].max(b[1])])
    }
}
