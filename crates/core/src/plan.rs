//! Compiled execution plan: the merged event graph lowered to a flat,
//! cache-dense table (DESIGN.md §13).
//!
//! [`EventGraph`] pushes nodes children-first, so node-id order *is* a
//! topological order of the DAG. Lowering exploits that: the plan keeps the
//! graph's numbering and stores everything the hot path consults per
//! occurrence — the rules to fire and the parent edges with their delivery
//! side — in contiguous arenas indexed by node id. The per-event costs this
//! removes from a walk over the graph itself:
//!
//! * **leaf dispatch** — two hash-map probes, a group-string lookup, and a
//!   per-candidate pattern re-check become one direct index into a
//!   per-reader row of pre-resolved `(leaf, object-check)` pairs;
//! * **rule fan-out** — the `rules_at` hash probe per occurrence becomes a
//!   range scan over a flat rule arena;
//! * **parent activation** — re-deriving left/right/self-join from the
//!   parent's child list on every delivery becomes a precomputed
//!   [`EdgeOp`] per edge.
//!
//! What runs once for several rules is the graph's to decide: it
//! hash-conses every node on its parts, so a shared leaf, `NOT` or subgraph
//! reaches the plan as one node. The plan's one sharing of its own is the
//! window family — rule roots equal in everything but `WITHIN`, served by
//! one state holder ([`CompiledPlan::family`]).
//!
//! The executor lives in [`crate::engine`]. Lowering is deterministic and
//! total: every well-formed graph lowers, and the plan encodes exactly the
//! candidate and delivery order of a plain walk over the graph — *graph
//! order* below: leaf candidates by reader row, the work stack popped
//! last-in first, each occurrence delivered to its parents in reverse
//! registration order (within a rule right to left, so an instance
//! terminates before it initiates, docs/SEMANTICS.md §4).

use std::collections::HashMap;
use std::sync::Arc;

use rfid_epc::Epc;
use rfid_events::{Catalog, ObjectSel, Observation, ReaderSel, Span};

use crate::engine::RuleId;
use crate::graph::{EventGraph, HistSpecId, Node, NodeId, NodeKind, Plan};
use crate::key::KeySpecId;

/// How an occurrence at a child node is delivered to one of its parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Both child slots are this node: run the self-join protocol once.
    SelfJoin,
    /// Deliver as the left (initiator-side) constituent.
    Left,
    /// Deliver as the right (terminator-side) constituent.
    Right,
}

/// One parent-activation edge in the edge arena.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    parent: u32,
    op: EdgeOp,
}

impl Edge {
    /// The parent node activated through this edge.
    pub fn parent(self) -> NodeId {
        NodeId(self.parent)
    }

    /// The precomputed delivery side.
    pub fn op(self) -> EdgeOp {
        self.op
    }
}

/// Pre-resolved object predicate of a leaf. The reader predicate is encoded
/// by the row the leaf sits in, so only the object check remains at match
/// time.
#[derive(Debug, Clone)]
enum ObjCheck {
    /// Matches every object.
    Any,
    /// Matches exactly one EPC.
    Exact(Epc),
    /// Matches objects of a named type (resolved through the catalog's
    /// mapping at match time, as `PrimitivePattern::matches` does).
    Type(Arc<str>),
}

impl ObjCheck {
    #[inline]
    fn matches(&self, obs: &Observation, catalog: &Catalog) -> bool {
        match self {
            ObjCheck::Any => true,
            ObjCheck::Exact(epc) => obs.object == *epc,
            ObjCheck::Type(ty) => catalog.types.is_type(obs.object, ty),
        }
    }
}

/// A leaf candidate inside a dispatch row: the leaf node plus its residual
/// object check.
#[derive(Debug, Clone)]
struct LeafCheck {
    node: u32,
    object: ObjCheck,
}

/// Fixed-capacity inline buffer with heap spill — the ArrayVec-style
/// scratch queue of the static-graph events plan (SNIPPETS.md Snippet 3),
/// minus `unsafe` (this crate forbids it): the first `N` elements live
/// inline in the struct and only past-capacity pushes touch the heap.
/// Spills and the depth high-water mark are counted so the plan-shape
/// stats can report whether `N` was sized right for the workload.
#[derive(Debug, Clone)]
pub struct InlineBuf<T, const N: usize> {
    slots: [Option<T>; N],
    inline: usize,
    spill: Vec<T>,
    spills: u64,
    high_water: u64,
}

impl<T, const N: usize> Default for InlineBuf<T, N> {
    fn default() -> Self {
        Self {
            slots: std::array::from_fn(|_| None),
            inline: 0,
            spill: Vec::new(),
            spills: 0,
            high_water: 0,
        }
    }
}

impl<T, const N: usize> InlineBuf<T, N> {
    /// Appends a value, spilling to the heap past capacity.
    pub fn push(&mut self, value: T) {
        if self.inline < N {
            self.slots[self.inline] = Some(value);
            self.inline += 1;
        } else {
            self.spill.push(value);
            self.spills += 1;
        }
        self.high_water = self.high_water.max(self.len() as u64);
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        self.inline + self.spill.len()
    }

    /// Whether the buffer is empty (spill is only reachable once the inline
    /// slots are full, so checking the inline count suffices).
    pub fn is_empty(&self) -> bool {
        self.inline == 0
    }

    /// The oldest buffered element.
    pub fn first(&self) -> Option<&T> {
        if self.inline == 0 {
            None
        } else {
            self.slots[0].as_ref()
        }
    }

    /// Drops all elements; diagnostics counters survive.
    pub fn clear(&mut self) {
        for slot in &mut self.slots[..self.inline] {
            *slot = None;
        }
        self.inline = 0;
        self.spill.clear();
    }

    /// Drains the buffer into a `Vec`, oldest first.
    pub fn take_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for slot in &mut self.slots[..self.inline] {
            out.push(slot.take().expect("inline slot occupied"));
        }
        self.inline = 0;
        out.append(&mut self.spill);
        out
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots[..self.inline]
            .iter()
            .map(|s| s.as_ref().expect("inline slot occupied"))
            .chain(self.spill.iter())
    }

    /// Lifetime count of pushes that overflowed into the heap spill.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Deepest buffer length observed.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

/// One member of a window family: a rule root served by the family
/// holder's state (DESIGN.md "Window families"). A family lists its members
/// in ascending cut-off order, so the members an emission reaches are one
/// `partition_point` away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// How far back the member's own window reaches: its `WITHIN` for a
    /// self-join, the start of its negated window (before the terminator's
    /// end) for a negated-initiator query.
    pub cutoff: Span,
    /// The member's own node: where its emissions are delivered, so rules,
    /// `occurrences` and the per-node firing counters stay per member.
    pub node: NodeId,
}

impl Member {
    /// The member a node is of its own family: all there is to an unshared
    /// node's family.
    pub fn alone(node: &Node) -> Self {
        Member {
            cutoff: match (node.plan, &node.kind) {
                (Plan::LeftNegationQuery, NodeKind::TSeq { max_dist, .. }) => *max_dist,
                _ => node.within,
            },
            node: node.id,
        }
    }
}

/// What makes two rule roots the same modulo `WITHIN`: everything the
/// arrival handler reads except the window, and the load, so a family
/// never spans a seal ([`EventGraph::seal`]).
#[derive(Debug, PartialEq, Eq, Hash)]
struct FamilyKey {
    load: u32,
    plan: Plan,
    kind: NodeKind,
    /// The join's interned `[left, right]` key specs.
    keys: [KeySpecId; 2],
    children: [NodeId; 2],
    hist_spec: Option<HistSpecId>,
}

/// Inline capacity of the leaf-dispatch hit queue: candidate leaves per
/// reader are bounded by the rule program, not the stream, and the paper's
/// rule sets stay well under this.
pub const LEAF_HITS_INLINE: usize = 8;

/// The merged event graph lowered to flat struct-of-arrays form.
///
/// All arenas are indexed by [`NodeId`] (graph numbering is topological, so
/// the table is too); ranges are half-open `(start, end)` index pairs into
/// the shared arenas. Built by [`crate::Program::solve`] whenever the rule
/// set changes.
#[derive(Debug, Default)]
pub struct CompiledPlan {
    /// Per-node range into `edges`.
    edge_ranges: Vec<(u32, u32)>,
    /// Parent-activation edge arena.
    edges: Vec<Edge>,
    /// Per-node range into `rules`.
    rule_ranges: Vec<(u32, u32)>,
    /// Rule-attachment arena.
    rules: Vec<RuleId>,
    /// Per-reader (indexed by dense `ReaderId.0`) range into `leaf_checks`.
    reader_rows: Vec<(u32, u32)>,
    /// Dispatch-row arena: named-reader leaves, then group leaves, in
    /// primitive registration order (graph order).
    leaf_checks: Vec<LeafCheck>,
    /// Leaves with `ReaderSel::Any`: a shared suffix of every row.
    any_leaves: Vec<LeafCheck>,
    /// Per-node flag: leaf reachable from at least one dispatch row (the
    /// shared view `analyze`'s dead-leaf pass reads).
    dispatchable: Vec<bool>,
    /// Per-node state holder: the node whose runtime state serves this one
    /// — itself, unless it is a window-family member, which uses the
    /// first-registered node of its family.
    holders: Vec<u32>,
    /// Per-node range into `members`: the family a holder serves, itself
    /// included, in ascending cut-off order. Empty for a node another
    /// holder serves.
    family_ranges: Vec<(u32, u32)>,
    /// Family-member arena.
    members: Vec<Member>,
}

impl CompiledPlan {
    /// Lowers the graph (plus the rule-attachment map) into the flat plan.
    ///
    /// Relies on — and in debug builds asserts — the `EventGraph` invariant
    /// that nodes are pushed children-first, i.e. node-id order is
    /// topological.
    ///
    /// Window families are coalesced within each load: a holder and its
    /// members were built between the same two seals.
    pub fn lower(
        graph: &EventGraph,
        catalog: &Catalog,
        rules_at: &HashMap<NodeId, Vec<RuleId>>,
    ) -> Self {
        let n = graph.len();
        let mut plan = CompiledPlan {
            edge_ranges: Vec::with_capacity(n),
            rule_ranges: Vec::with_capacity(n),
            dispatchable: vec![false; n],
            ..CompiledPlan::default()
        };
        plan.assign_holders(graph, rules_at);
        let mut raw: Vec<Edge> = Vec::new();
        for idx in 0..n {
            let id = NodeId(idx as u32);
            let node = graph.node(id);
            debug_assert!(
                node.children.iter().all(|c| c.idx() < idx),
                "event graph must be in topological (children-first) order"
            );
            let rule_start = plan.rules.len() as u32;
            if let Some(rules) = rules_at.get(&id) {
                plan.rules.extend_from_slice(rules);
            }
            plan.rule_ranges.push((rule_start, plan.rules.len() as u32));

            // Mirrors `run_work`'s parent loop exactly: one delivery per
            // parent, with the side (or self-join) decided at compile time
            // instead of by re-reading the parent's child list.
            raw.clear();
            raw_edges(graph, id, &mut raw);
            // A window family is delivered once, at its holder's own edge:
            // its members all received this very instance, and the
            // holder's single probe answers for them.
            raw.retain(|e| plan.holders[e.parent as usize] == e.parent);
            let edge_start = plan.edges.len() as u32;
            plan.edges.extend_from_slice(&raw);
            plan.edge_ranges.push((edge_start, plan.edges.len() as u32));
        }
        plan.lower_dispatch(graph, catalog);
        plan
    }

    /// Decides where every node's state lives and lists each holder's
    /// family: rule roots equal in everything but `WITHIN` ([`FamilyKey`])
    /// are served by the first-registered of them, which is exact under
    /// chronicle consumption (proof in DESIGN.md "Window families"). What
    /// else is shared, the graph already merged into one node.
    ///
    /// A family never spans a load, and a sealed root gains no parent (a
    /// later rule copies it instead), so the families of sealed nodes are
    /// the same under every later lowering: state never moves.
    fn assign_holders(&mut self, graph: &EventGraph, rules_at: &HashMap<NodeId, Vec<RuleId>>) {
        let n = graph.len();
        self.holders = (0..n as u32).collect();
        // Node ids are topological, so a holder (lowest id of its family)
        // is settled before any of its members.
        let mut roots: HashMap<FamilyKey, u32> = HashMap::new();
        for node in graph.nodes() {
            if let Some(key) = Self::family_key(graph, rules_at, node.id) {
                self.holders[node.id.idx()] = *roots.entry(key).or_insert(node.id.0);
            }
        }
        let mut families: Vec<Vec<Member>> = vec![Vec::new(); n];
        for node in graph.nodes() {
            families[self.holders[node.id.idx()] as usize].push(Member::alone(node));
        }
        for mut family in families {
            family.sort_by_key(|m| m.cutoff);
            let start = self.members.len() as u32;
            self.members.extend(family);
            self.family_ranges.push((start, self.members.len() as u32));
        }
    }

    /// The family key of a rule root, or `None` for a node no family can
    /// hold. Admissible shapes (DESIGN.md "Window families"):
    ///
    /// * the keyed or keyless `SEQ`/`AND` self-join over one leaf with a
    ///   finite window — the partner of every arrival is the previous
    ///   same-key arrival, whatever the window;
    /// * the negated-initiator query (`SEQ`/`TSEQ` over `NOT`) with a leaf
    ///   terminator — it only reads an append-only history.
    ///
    /// Only a root that fires rules and feeds no parent qualifies: its
    /// emissions then only fire rules, so the order members are served in
    /// cannot reach any other node's state.
    fn family_key(
        graph: &EventGraph,
        rules_at: &HashMap<NodeId, Vec<RuleId>>,
        id: NodeId,
    ) -> Option<FamilyKey> {
        let node = graph.node(id);
        if !node.parents.is_empty() || rules_at.get(&id).is_none_or(Vec::is_empty) {
            return None;
        }
        let &[a, b] = &node.children[..] else {
            return None;
        };
        let leaf = |id: NodeId| graph.node(id).plan == Plan::Leaf;
        let children = match node.plan {
            Plan::TwoSided => {
                let monotone = matches!(node.kind, NodeKind::Seq | NodeKind::And);
                if a != b || !leaf(a) || !monotone || node.within == Span::MAX {
                    return None;
                }
                [a; 2]
            }
            Plan::LeftNegationQuery if leaf(b) => [a, b],
            _ => return None,
        };
        Some(FamilyKey {
            load: node.load,
            plan: node.plan,
            kind: node.kind.clone(),
            keys: node.join.ids,
            children,
            hist_spec: node.hist_spec,
        })
    }

    /// Builds the per-reader dispatch rows: by-reader and by-group buckets
    /// flattened so `reader_rows[r]` directly indexes
    /// the candidates of reader `r` — named leaves first, then the leaves
    /// of `r`'s group, each in primitive registration order.
    fn lower_dispatch(&mut self, graph: &EventGraph, catalog: &Catalog) {
        let mut by_reader: HashMap<u32, Vec<LeafCheck>> = HashMap::new();
        let mut by_group: HashMap<Arc<str>, Vec<LeafCheck>> = HashMap::new();
        for &leaf in graph.primitives() {
            let NodeKind::Primitive(p) = &graph.node(leaf).kind else {
                continue;
            };
            let check = LeafCheck {
                node: leaf.0,
                object: match &p.object {
                    ObjectSel::Any => ObjCheck::Any,
                    ObjectSel::Exact(epc) => ObjCheck::Exact(*epc),
                    ObjectSel::Type(ty) => ObjCheck::Type(ty.clone()),
                },
            };
            match &p.reader {
                ReaderSel::Named(name) => {
                    // A name missing from the catalog can never match.
                    if let Some(id) = catalog.reader(name) {
                        self.dispatchable[leaf.idx()] = true;
                        by_reader.entry(id.0).or_default().push(check);
                    }
                }
                ReaderSel::Group(group) => {
                    if !catalog.readers.members(group).is_empty() {
                        self.dispatchable[leaf.idx()] = true;
                    }
                    by_group.entry(group.clone()).or_default().push(check);
                }
                ReaderSel::Any => {
                    self.dispatchable[leaf.idx()] = true;
                    self.any_leaves.push(check);
                }
            }
        }
        for def in catalog.readers.iter() {
            debug_assert_eq!(
                def.id.0 as usize,
                self.reader_rows.len(),
                "reader ids are dense registration indices"
            );
            let start = self.leaf_checks.len() as u32;
            if let Some(named) = by_reader.get(&def.id.0) {
                self.leaf_checks.extend(named.iter().cloned());
            }
            if let Some(grouped) = by_group.get(&def.group) {
                self.leaf_checks.extend(grouped.iter().cloned());
            }
            self.reader_rows
                .push((start, self.leaf_checks.len() as u32));
        }
    }

    /// The reader's dispatch-row bounds in the leaf-check arena (`None`
    /// for a reader the catalog never registered). The engine resolves the
    /// row once per contiguous same-reader run of a batch and feeds it
    /// back through [`CompiledPlan::leaf_hits_in_row`] instead of
    /// re-indexing the row table per observation.
    #[inline]
    pub fn reader_row(&self, reader: u32) -> Option<(u32, u32)> {
        self.reader_rows.get(reader as usize).copied()
    }

    /// Whether a resolved dispatch row can activate any leaf at all. A
    /// `false` answer lets the engine skip hit collection entirely for
    /// every observation of that reader's run.
    #[inline]
    pub fn row_can_match(&self, row: Option<(u32, u32)>) -> bool {
        row.is_some_and(|(start, end)| start != end) || !self.any_leaves.is_empty()
    }

    /// Appends the leaves activated by `obs` — its reader's `row` (from
    /// [`CompiledPlan::reader_row`]), then the `Any` suffix — to `out`, in
    /// graph order.
    #[inline]
    pub fn leaf_hits_in_row(
        &self,
        catalog: &Catalog,
        obs: &Observation,
        row: Option<(u32, u32)>,
        out: &mut InlineBuf<NodeId, LEAF_HITS_INLINE>,
    ) {
        if let Some((start, end)) = row {
            for check in &self.leaf_checks[start as usize..end as usize] {
                if check.object.matches(obs, catalog) {
                    out.push(NodeId(check.node));
                }
            }
        }
        for check in &self.any_leaves {
            if check.object.matches(obs, catalog) {
                out.push(NodeId(check.node));
            }
        }
    }

    /// Rules attached to a node (roots of registered rules; empty slices
    /// for inner nodes).
    #[inline]
    pub fn rules_at(&self, node: NodeId) -> &[RuleId] {
        let (start, end) = self.rule_ranges[node.idx()];
        &self.rules[start as usize..end as usize]
    }

    /// Parent-activation edges of a node.
    #[inline]
    pub fn edges_at(&self, node: NodeId) -> &[Edge] {
        let (start, end) = self.edge_ranges[node.idx()];
        &self.edges[start as usize..end as usize]
    }

    /// Number of compiled nodes (equals the graph's node count).
    pub fn node_count(&self) -> usize {
        self.edge_ranges.len()
    }

    /// Total edges in the parent-activation arena.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total rule attachments in the rule arena.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Leaf candidates across all dispatch rows plus the `Any` suffix.
    pub fn dispatch_width(&self) -> usize {
        self.leaf_checks.len() + self.any_leaves.len()
    }

    /// Bytes held by the flat arenas (the plan-shape stats gauge; excludes
    /// spare capacity and the strings shared with the graph).
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.edge_ranges.len() + self.rule_ranges.len() + self.reader_rows.len())
            * size_of::<(u32, u32)>()
            + self.edges.len() * size_of::<Edge>()
            + self.rules.len() * size_of::<RuleId>()
            + (self.leaf_checks.len() + self.any_leaves.len()) * size_of::<LeafCheck>()
            + self.holders.len() * size_of::<u32>()
            + self.family_ranges.len() * size_of::<(u32, u32)>()
            + self.members.len() * size_of::<Member>()
    }

    /// The node whose runtime state serves `node`: itself, or the
    /// first-registered node of its window family.
    #[inline]
    pub fn holder(&self, node: NodeId) -> NodeId {
        NodeId(self.holders[node.idx()])
    }

    /// The family `node` holds, itself included, in ascending cut-off
    /// order — one member unless rule roots were coalesced onto it, empty
    /// if another holder serves `node`. The last member's cut-off is the
    /// window the holder's one probe runs at.
    #[inline]
    pub fn family(&self, node: NodeId) -> &[Member] {
        let (start, end) = self.family_ranges[node.idx()];
        &self.members[start as usize..end as usize]
    }

    /// Every window family of two or more members, by holder.
    pub fn families(&self) -> impl Iterator<Item = (NodeId, &[Member])> {
        (0..self.family_ranges.len() as u32)
            .map(|i| (NodeId(i), self.family(NodeId(i))))
            .filter(|(_, family)| family.len() > 1)
    }

    /// Whether a leaf lands in at least one dispatch row — the shared view
    /// behind `analyze`'s dead-leaf pass (W003): a named leaf whose reader
    /// is not deployed, or a group leaf whose group has no members, never
    /// appears in any row and so can never match.
    pub fn leaf_is_dispatchable(&self, node: NodeId) -> bool {
        self.dispatchable.get(node.idx()).copied().unwrap_or(false)
    }
}

/// Collects `node`'s parent-activation edges in graph order: one edge per
/// parent, the side (or self-join) decided here at compile time.
fn raw_edges(graph: &EventGraph, id: NodeId, out: &mut Vec<Edge>) {
    let node = graph.node(id);
    for &p in node.parents.iter().rev() {
        let pnode = graph.node(p);
        let is_left = pnode.children[0] == id;
        let is_right = pnode.children.len() > 1 && pnode.children[1] == id;
        let op = match (is_left, is_right) {
            (true, true) => EdgeOp::SelfJoin,
            (true, false) => EdgeOp::Left,
            (false, true) => EdgeOp::Right,
            (false, false) => continue,
        };
        out.push(Edge { parent: p.0, op });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_events::EventExpr;

    fn infield_rule() -> rfid_events::EventExpr {
        let shelf = EventExpr::observation_in_group("shelves");
        shelf
            .clone()
            .not()
            .seq(shelf)
            .within(rfid_events::Span::from_secs(30))
    }

    fn shelf_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.readers.register("s1", "shelves", "aisle-1");
        catalog
    }

    /// `WITHIN(NOT(A); A, w)` hash-conses both copies of `A` into one leaf
    /// whose parents, in reverse registration order, are the query root
    /// and the `NOT`: two plain edges, `Right→query` then `Left→NOT`, so
    /// the terminator is answered before the instance is recorded, and
    /// the key memo gives both deliveries one probe of the history.
    #[test]
    fn infield_shape_lowers_to_query_then_record() {
        let catalog = shelf_catalog();
        let mut graph = EventGraph::new();
        let root = graph.add_event(&infield_rule()).expect("rule compiles");
        let plan = CompiledPlan::lower(&graph, &catalog, &HashMap::new());

        let &[leaf] = graph.primitives() else {
            panic!("merging folds both copies into one leaf");
        };
        let not = graph.node(root).children[0];
        assert_eq!(graph.node(not).plan, Plan::NegationRecorder);
        let edges: Vec<_> = plan
            .edges_at(leaf)
            .iter()
            .map(|e| (e.parent(), e.op()))
            .collect();
        assert_eq!(edges, [(root, EdgeOp::Right), (not, EdgeOp::Left)]);
        assert_eq!(plan.dispatch_width(), 1);
    }

    /// `WITHIN(NOT(WITHIN(A, 5s)); A, 30s)`: the inner window admits every
    /// observation, so the negated copy is the same leaf and the rule
    /// lowers to exactly the graph and edges of the unwrapped spelling.
    #[test]
    fn an_inner_window_on_a_leaf_lowers_like_none() {
        let catalog = shelf_catalog();
        let shelf = EventExpr::observation_in_group("shelves");
        let twin = shelf
            .clone()
            .within(rfid_events::Span::from_secs(5))
            .not()
            .seq(shelf)
            .within(rfid_events::Span::from_secs(30));
        let lowered = |rule: &EventExpr| {
            let mut graph = EventGraph::new();
            let root = graph.add_event(rule).expect("rule compiles");
            let plan = CompiledPlan::lower(&graph, &catalog, &HashMap::new());
            let edges: Vec<_> = (0..graph.len() as u32)
                .map(|n| {
                    plan.edges_at(NodeId(n))
                        .iter()
                        .map(|e| (e.parent(), e.op()))
                        .collect()
                })
                .collect::<Vec<Vec<_>>>();
            let kinds: Vec<_> = graph
                .nodes()
                .iter()
                .map(|n| (n.kind.clone(), n.within))
                .collect();
            (root, kinds, edges, plan.dispatch_width())
        };
        assert_eq!(lowered(&twin), lowered(&infield_rule()));
    }

    /// Two rules over the same reader group under different `WITHIN`
    /// windows share one leaf. It delivers to its parents in reverse
    /// registration order — the later rule first, each rule right to left
    /// — so the in-field rule's query and record come before the duplicate
    /// filter's self-join, and one observation costs one dispatch
    /// candidate and one pop.
    #[test]
    fn one_pattern_is_one_leaf_across_rules() {
        let catalog = shelf_catalog();
        let mut graph = EventGraph::new();
        let shelf = EventExpr::observation_in_group("shelves");
        let dup = graph
            .add_event(
                &shelf
                    .clone()
                    .seq(shelf.clone())
                    .within(rfid_events::Span::from_secs(5)),
            )
            .expect("dup rule compiles");
        let infield = graph.add_event(&infield_rule()).expect("rule compiles");
        let plan = CompiledPlan::lower(&graph, &catalog, &HashMap::new());

        let &[leaf] = graph.primitives() else {
            panic!("one pattern, one leaf");
        };
        assert_eq!(plan.dispatch_width(), 1);
        let not = graph.node(infield).children[0];
        let edges: Vec<_> = plan
            .edges_at(leaf)
            .iter()
            .map(|e| (e.parent(), e.op()))
            .collect();
        assert_eq!(
            edges,
            [
                (infield, EdgeOp::Right),
                (not, EdgeOp::Left),
                (dup, EdgeOp::SelfJoin)
            ]
        );
    }

    #[test]
    fn inline_buf_spills_past_capacity() {
        let mut buf: InlineBuf<u32, 4> = InlineBuf::default();
        assert!(buf.is_empty());
        for i in 0..6 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 6);
        assert_eq!(buf.spills(), 2);
        assert_eq!(buf.high_water(), 6);
        assert_eq!(buf.first(), Some(&0));
        let drained = buf.take_all();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5], "order preserved");
        assert!(buf.is_empty());
        assert_eq!(buf.spills(), 2, "diagnostics survive draining");

        buf.push(9);
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![9]);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.high_water(), 6);
    }

    #[test]
    fn inline_buf_iter_spans_inline_and_spill() {
        let mut buf: InlineBuf<u32, 2> = InlineBuf::default();
        for i in 0..5 {
            buf.push(i);
        }
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }
}
