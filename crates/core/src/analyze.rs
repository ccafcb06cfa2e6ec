//! Static analysis of rule events: the lint passes behind `rceda-lint`.
//!
//! The paper's §4 interval-constraint propagation is itself a static
//! analysis — `WITHIN`/`TSEQ` bounds flow top-down through the event graph
//! before any event arrives. This module reuses that machinery to *judge*
//! rules instead of merely executing them: the per-rule passes read a
//! one-rule [`Program`], the program-level passes the one [`Program`] the
//! whole rule set compiles to — the same compile the engine runs — looking
//! for the two classic CEP failure modes (unsatisfiable temporal predicates
//! and unbounded partial-match state) plus operational hazards (dead
//! leaves, shadowed rules, residual-path rules).
//!
//! Diagnostics carry **stable codes** (documented in `DESIGN.md` §12):
//!
//! | code | severity | pass |
//! |------|----------|------|
//! | E000 | error    | rule rejected outright (builder/compiler error) |
//! | E001 | error    | empty window: minimum duration exceeds `WITHIN` |
//! | E002 | error    | empty distance interval on `TSEQ` after propagation |
//! | E003 | error    | unbounded chronicle state (`NOT`/`SEQ+`/`TSEQ+`) |
//! | E004 | error    | condition/action references an unbindable variable |
//! | W001 | warning  | rule shadowed by an earlier rule (merged away) |
//! | W002 | warning  | duplicate `DEFINE` alias |
//! | W003 | warning  | dead leaf: pattern can never match the catalog |
//! | W004 | warning  | rule runs on the residual (non-sharded) path |
//! | W005 | warning  | unbounded chronicle buffer on a join node |
//! | W006 | warning  | rule provably subsumed by a wider rule (containment) |
//! | N001 | note     | join buffer bounded at runtime by the solved retention |
//! | N003 | note     | window family: rules differing only in `WITHIN` share state |
//!
//! E004 and W002 are script-level passes: they live in the rule-language
//! crate (`rfid-rules`), but their codes are defined here so the taxonomy
//! has one home. Everything else runs on the compiled event graph via
//! [`analyze_event`] (per rule) and [`analyze_compiled`] (per program).

use std::collections::HashMap;
use std::fmt;

use rfid_events::{Catalog, ObjectSel, ReaderSel, Span};

use crate::graph::{EventGraph, NodeId, NodeKind, Plan};
use crate::program::{Program, RuleEvent};
use crate::shard::{self, ResidualReason, Shardability};
use crate::subsume;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: nothing is wrong; the analyzer is reporting a bound
    /// it proved rather than a hazard it found.
    Note,
    /// Suspicious but executable; the rule loads and runs.
    Warning,
    /// The rule (or program) is broken: it can never fire as written, or
    /// will grow state without bound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning;
/// renders as `E001`, `W004`, … via [`DiagCode::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagCode {
    /// The rule was rejected outright: a §4.4 invalid rule (builder
    /// rejection) or a rule-language compile error, resurfaced as a
    /// diagnostic so a lint run reports every problem instead of aborting
    /// at the first.
    InvalidRule,
    /// Unsatisfiable `WITHIN`: the minimum possible duration of the
    /// sub-event exceeds its effective window, so no instance can ever
    /// satisfy the constraint.
    EmptyWindow,
    /// Empty `TSEQ` distance interval: after window propagation the
    /// effective maximum distance is below the minimum distance.
    EmptyDistance,
    /// Unbounded chronicle state: a `NOT`/`SEQ+` history with no finite
    /// retention bound, or a `TSEQ+` whose runs can never close — memory
    /// grows with the stream (watch `retained_keys`).
    UnboundedState,
    /// A condition or action references a variable no positive (non-`NOT`)
    /// leaf can bind, so every firing would fail to bind.
    UnboundBinding,
    /// The rule's event merged into an earlier rule's node with the same
    /// effective window: both fire on exactly the same instances.
    ShadowedRule,
    /// A `DEFINE` alias is declared more than once; the later body silently
    /// shadows the earlier one.
    DuplicateDefine,
    /// A leaf pattern that can never match under the deployment catalog
    /// (unknown reader, empty group, unmapped type): the rule cannot fire.
    DeadLeaf,
    /// The rule is not object-shardable and runs on the residual broadcast
    /// path ([`crate::shard::Shardability::Residual`]).
    ResidualRule,
    /// A join side the interval solver cannot bound by time retains
    /// partial matches until the capacity cap evicts them
    /// (`capacity_drops`).
    UnboundedBuffer,
    /// The rule's firing set is provably contained in another rule's: a
    /// wider rule with the same shape (larger window, looser `TSEQ`
    /// maximum distance, or weaker leaf predicates) fires at every instant
    /// this rule fires. The subsumed rule is redundant for detection
    /// coverage.
    SubsumedRule,
    /// A join side that *looks* unbounded (infinite window) but that the
    /// interval solver ([`crate::bounds`]) proved finite through emission
    /// lags: the engine prunes it eagerly at the solved retention.
    BoundedRetention,
    /// Rules that differ only in their `WITHIN` and are served by one
    /// state holder ([`crate::plan::CompiledPlan::families`]): what the
    /// plan shares, with the cut-offs and the solved retention it shares
    /// them at.
    WindowFamily,
}

impl DiagCode {
    /// The stable code string (`E001`, `W004`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::InvalidRule => "E000",
            DiagCode::EmptyWindow => "E001",
            DiagCode::EmptyDistance => "E002",
            DiagCode::UnboundedState => "E003",
            DiagCode::UnboundBinding => "E004",
            DiagCode::ShadowedRule => "W001",
            DiagCode::DuplicateDefine => "W002",
            DiagCode::DeadLeaf => "W003",
            DiagCode::ResidualRule => "W004",
            DiagCode::UnboundedBuffer => "W005",
            DiagCode::SubsumedRule => "W006",
            DiagCode::BoundedRetention => "N001",
            DiagCode::WindowFamily => "N003",
        }
    }

    /// The severity class the code's prefix encodes.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::InvalidRule
            | DiagCode::EmptyWindow
            | DiagCode::EmptyDistance
            | DiagCode::UnboundedState
            | DiagCode::UnboundBinding => Severity::Error,
            DiagCode::ShadowedRule
            | DiagCode::DuplicateDefine
            | DiagCode::DeadLeaf
            | DiagCode::ResidualRule
            | DiagCode::UnboundedBuffer
            | DiagCode::SubsumedRule => Severity::Warning,
            DiagCode::BoundedRetention | DiagCode::WindowFamily => Severity::Note,
        }
    }

    /// One-line summary for the code table.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::InvalidRule => "rule rejected by the compiler or graph builder",
            DiagCode::EmptyWindow => "WITHIN window smaller than the event's minimum duration",
            DiagCode::EmptyDistance => "TSEQ distance interval empty after window propagation",
            DiagCode::UnboundedState => "negation/aperiodic state with no finite bound",
            DiagCode::UnboundBinding => "condition/action variable no positive leaf binds",
            DiagCode::ShadowedRule => "event merged into an identical earlier rule",
            DiagCode::DuplicateDefine => "DEFINE alias declared more than once",
            DiagCode::DeadLeaf => "pattern can never match the deployment catalog",
            DiagCode::ResidualRule => "rule falls to the residual (rule-partitioned) path",
            DiagCode::UnboundedBuffer => "join buffers bounded only by the capacity cap",
            DiagCode::SubsumedRule => "rule provably subsumed by a wider rule",
            DiagCode::BoundedRetention => "join buffer bounded at runtime by the solved retention",
            DiagCode::WindowFamily => "rules differing only in WITHIN share one state holder",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: which rule, where in its event graph, what is wrong, and
/// how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Declared rule id (`pack3`), or the alias name for `W002`.
    pub rule_id: String,
    /// Declared rule name (`containment_line_3`); may equal the id when the
    /// source has no separate name.
    pub rule_name: String,
    /// Path from the event's root to the offending node, e.g.
    /// `SEQ/0:NOT/0:observation`; empty when the finding is not tied to a
    /// graph node.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

impl Diagnostic {
    /// Severity, from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] rule `{}` ({})",
            self.severity(),
            self.code,
            self.rule_id,
            self.rule_name
        )?;
        if !self.path.is_empty() {
            write!(f, " at {}", self.path)?;
        }
        write!(f, ": {}", self.message)?;
        if !self.hint.is_empty() {
            write!(f, " — hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// Analyzes one rule's event in isolation: compiles it into a one-rule
/// [`Program`] and runs the per-rule passes (E001, E002, E003, W003, W004, W005). A
/// builder rejection becomes an `E000` diagnostic. Pass the deployment
/// catalog to enable the dead-leaf pass (W003); without one, patterns
/// cannot be checked against reality and the pass is skipped.
pub fn analyze_event(rule: &RuleEvent, catalog: Option<&Catalog>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut program = Program::new();
    let root = match program.add_rule(rule.clone()) {
        Ok(id) => program.roots()[id.0 as usize],
        Err(err) => {
            out.push(Diagnostic {
                code: DiagCode::InvalidRule,
                rule_id: rule.id.clone(),
                rule_name: rule.name.clone(),
                path: String::new(),
                message: err.to_string(),
                hint: "rewrite the event so its root is push- or mixed-mode (§4.4)".to_owned(),
            });
            return out;
        }
    };
    program.solve(catalog);
    let graph = program.graph();
    let paths = node_paths(graph, root);
    // Every time bound below is the interval solver's — the numbers the
    // engine prunes and caps at.
    let solved = program.bounds();
    let mut diag = |code: DiagCode, node: NodeId, message: String, hint: &str| {
        out.push(Diagnostic {
            code,
            rule_id: rule.id.clone(),
            rule_name: rule.name.clone(),
            path: paths.get(&node).cloned().unwrap_or_default(),
            message,
            hint: hint.to_owned(),
        });
    };

    for node in graph.nodes() {
        let b = solved.node(node.id);
        // E002: the effective distance interval of a TSEQ is empty.
        if let NodeKind::TSeq { min_dist, max_dist } = node.kind {
            let effective_max = max_dist.min(node.within);
            if effective_max < min_dist {
                diag(
                    DiagCode::EmptyDistance,
                    node.id,
                    format!(
                        "TSEQ distance interval [{min_dist}, {max_dist}] is empty under the \
                         effective window {} (max distance becomes {effective_max})",
                        node.within
                    ),
                    "raise the WITHIN window above the minimum distance, or lower the minimum",
                );
                continue; // E001 at the same node would restate the problem.
            }
        }

        // E001: the window cannot contain even the shortest instance —
        // judged where the arrival handler holds the emission to `within`
        // (a negation wait's span is never checked against it).
        let checks_within = matches!(
            node.plan,
            Plan::TwoSided | Plan::Forward | Plan::LeftAperiodicQuery | Plan::TimedAperiodic
        );
        let min_dur = b.dur_min;
        if checks_within && min_dur > node.within {
            diag(
                DiagCode::EmptyWindow,
                node.id,
                format!(
                    "minimum possible duration {min_dur} exceeds the effective window {}; \
                     no instance can satisfy the constraint",
                    node.within
                ),
                "widen the WITHIN window or relax the inner TSEQ minimum distances",
            );
        }

        // E003: history/run state that nothing ever bounds.
        match node.kind {
            NodeKind::Not | NodeKind::SeqPlus if b.retention == Span::MAX => {
                diag(
                    DiagCode::UnboundedState,
                    node.id,
                    format!(
                        "{} history has no finite retention bound: every recorded occurrence \
                         is kept forever and `retained_keys` grows with the stream",
                        node.kind.name()
                    ),
                    "wrap the enclosing sequence in WITHIN(…, τ) or use TSEQ distance bounds",
                );
            }
            NodeKind::TSeqPlus { max_gap, .. } if max_gap == Span::MAX => {
                diag(
                    DiagCode::UnboundedState,
                    node.id,
                    "TSEQ+ maximum gap is infinite: the open run never closes by gap \
                     violation and its closure pseudo event is scheduled at t=∞, so the \
                     run accumulates elements forever and is never emitted"
                        .to_owned(),
                    "give TSEQ+ a finite maximum gap so runs can close",
                );
            }
            _ => {}
        }

        // W005 / N001, per buffer side of a two-sided join: a side the
        // solver leaves unbounded is one only the capacity cap evicts from
        // (W005). Where the join's own admission test bounds nothing (no
        // `WITHIN`, no finite TSEQ distance), a side the solver still
        // proves finite through emission lags (a SEQ right buffer only
        // holds instances until the left side could no longer pair with
        // them) is an informational N001 with the Δ the engine prunes at.
        if node.plan == Plan::TwoSided {
            let sides = [("left", b.retain[0]), ("right", b.retain[1])];
            let admits_any_span = match node.kind {
                NodeKind::TSeq { max_dist, .. } => max_dist.min(node.within) == Span::MAX,
                _ => node.within == Span::MAX,
            };
            let unbounded: Vec<&str> = sides
                .into_iter()
                .filter(|&(_, r)| r == Span::MAX)
                .map(|(name, _)| name)
                .collect();
            if !unbounded.is_empty() {
                diag(
                    DiagCode::UnboundedBuffer,
                    node.id,
                    format!(
                        "{} join has no finite window: unmatched constituents on the {} \
                         side are retained until the capacity cap evicts them \
                         (`capacity_drops`)",
                        node.kind.name(),
                        unbounded.join(" and ")
                    ),
                    "add a WITHIN constraint so partial matches expire deterministically",
                );
            }
            for (name, r) in sides {
                if admits_any_span && r < Span::MAX {
                    diag(
                        DiagCode::BoundedRetention,
                        node.id,
                        format!(
                            "{} join {name} buffer is bounded at runtime to Δ={r} by the \
                             solved retention bound, despite the infinite window",
                            node.kind.name()
                        ),
                        "informational: the interval solver derived this bound from \
                         emission lags; the engine prunes the buffer eagerly",
                    );
                }
            }
        }

        // W003: leaves that can never match the deployment. Reader-side
        // deadness is the compiled plan's dispatchability view — a leaf is
        // dead exactly when `lower_dispatch` put it in no dispatch row — so
        // the analyzer and the executor can never disagree about which
        // leaves are reachable. The object-type check stays separate: type
        // membership resolves at match time, not at lowering time.
        if let (NodeKind::Primitive(p), Some(cat)) = (&node.kind, catalog) {
            if !program.plan().leaf_is_dispatchable(node.id) {
                match &p.reader {
                    ReaderSel::Named(name) => {
                        diag(
                            DiagCode::DeadLeaf,
                            node.id,
                            format!("reader `{name}` is not in the deployment catalog"),
                            "register the reader in the catalog or fix the name",
                        );
                    }
                    ReaderSel::Group(group) => {
                        diag(
                            DiagCode::DeadLeaf,
                            node.id,
                            format!("reader group `{group}` has no members in the catalog"),
                            "register readers into the group or fix the group name",
                        );
                    }
                    ReaderSel::Any => unreachable!("ReaderSel::Any is always dispatchable"),
                }
            }
            if let ObjectSel::Type(ty) = &p.object {
                if !cat.types.knows_type(ty) {
                    diag(
                        DiagCode::DeadLeaf,
                        node.id,
                        format!("object type `{ty}` has no mapping in the catalog"),
                        "map EPCs or classes to the type, or fix the type name",
                    );
                }
            }
        }
    }

    // W004: the shardability report — why the rule needs the residual path.
    if let Shardability::Residual(reason) = shard::shardability(graph, root) {
        let (message, hint) = match reason {
            ResidualReason::GlobalRun => (
                "contains SEQ+/TSEQ+: aperiodic runs span objects, so the rule runs on \
                 the residual path (one engine for all of its readers) instead of keyed shards",
                "expected for containment-style rules: they run on broadcast partitions that \
                 read only the readers they name; raise `residual_workers` to add pool threads",
            ),
            ResidualReason::KeylessJoin => (
                "a stateful join does not correlate on the object EPC, so detection \
                 order depends on the full stream and the rule runs on the residual path",
                "bind the object position to a shared variable on both sides to shard by object",
            ),
        };
        out.push(Diagnostic {
            code: DiagCode::ResidualRule,
            rule_id: rule.id.clone(),
            rule_name: rule.name.clone(),
            path: paths.get(&root).cloned().unwrap_or_default(),
            message: message.to_owned(),
            hint: hint.to_owned(),
        });
    }

    out
}

/// The program-level passes over a [`Program`] solved against `catalog`,
/// in report order: W001 (shadowing), W006 (subsumption), N003 (what the
/// plan shares). Script-level frontends run the per-rule passes themselves,
/// grouped per rule, and call this once for the rest.
pub fn analyze_compiled(program: &Program, catalog: Option<&Catalog>) -> Vec<Diagnostic> {
    let mut out = analyze_shadowing(program);
    out.extend(analyze_subsumption(program, catalog));
    out.extend(analyze_families(program));
    out
}

/// The W001 pass: rules whose events hash-cons to the same node are
/// duplicates; the later one is shadowed (it fires on exactly the
/// instances the earlier one fires on).
fn analyze_shadowing(program: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut owner: HashMap<NodeId, &RuleEvent> = HashMap::new();
    for (rule, &root) in program.rules().iter().zip(program.roots()) {
        match owner.get(&root) {
            Some(prior) => {
                out.push(Diagnostic {
                    code: DiagCode::ShadowedRule,
                    rule_id: rule.id.clone(),
                    rule_name: rule.name.clone(),
                    path: program.graph().node(root).kind.name().to_owned(),
                    message: format!(
                        "event compiles to the same graph node as rule `{}` ({}); both rules \
                         fire on exactly the same instances",
                        prior.id, prior.name
                    ),
                    hint: "drop one rule, or merge their actions into a single rule".to_owned(),
                });
            }
            None => {
                owner.insert(root, rule);
            }
        }
    }
    out
}

/// The W006 pass: pairwise containment over rules with matching
/// constructor skeletons ([`subsume::shape_signature`]), via the
/// conservative prover ([`subsume::subsumes`]) — a subsumed rule's every
/// firing instant is provably matched by the wider rule, so it is redundant
/// for detection coverage. Pairs that hash-cons to the *same* merged node are W001's
/// domain and are skipped here; mutually-containing (equivalent but not
/// merged-identical, e.g. α-renamed) pairs flag the later rule.
fn analyze_subsumption(program: &Program, catalog: Option<&Catalog>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let (rules, roots) = (program.rules(), program.roots());
    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        let bucket = buckets.entry(subsume::shape_signature(&rule.event));
        bucket.or_default().push(i);
    }
    let mut flagged = vec![false; rules.len()];
    let mut bucket_keys: Vec<&String> = buckets.keys().collect();
    bucket_keys.sort();
    for key in bucket_keys {
        let members = &buckets[key];
        for (a_pos, &i) in members.iter().enumerate() {
            for &j in &members[a_pos + 1..] {
                if roots[i] == roots[j] {
                    continue; // merged-identical: W001 territory
                }
                // Prefer flagging the later rule: if each contains the
                // other (equivalent), `j` is the redundant one.
                let pairs = [(i, j), (j, i)];
                for (wide, narrow) in pairs {
                    if flagged[narrow] {
                        continue;
                    }
                    let Some(proof) =
                        subsume::subsumes(&rules[wide].event, &rules[narrow].event, catalog)
                    else {
                        continue;
                    };
                    flagged[narrow] = true;
                    let (w, n) = (&rules[wide], &rules[narrow]);
                    out.push(Diagnostic {
                        code: DiagCode::SubsumedRule,
                        rule_id: n.id.clone(),
                        rule_name: n.name.clone(),
                        path: String::new(),
                        message: format!(
                            "every firing of this rule is provably matched by rule `{}` ({}) \
                             at the same instant: same pattern shape with {}",
                            w.id,
                            w.name,
                            proof.describe()
                        ),
                        hint: "drop this rule, or tighten the wider rule so they diverge"
                            .to_owned(),
                    });
                    break; // one W006 per subsumed rule
                }
            }
        }
    }
    out.sort_by_key(|d| {
        rules
            .iter()
            .position(|r| r.id == d.rule_id)
            .unwrap_or(usize::MAX)
    });
    out
}

/// The N003 pass: reports what the program's plan — the engine's — shares:
/// one note per window family (holder node, member rules with their
/// cut-offs, the retention the shared state is kept for). What the graph
/// merged into one node — a leaf, a `NOT`, a subgraph — is ordinary
/// hash-consing and goes unreported.
fn analyze_families(program: &Program) -> Vec<Diagnostic> {
    let (rules, merged) = (program.rules(), program.graph());
    let (bounds, plan) = (program.bounds(), program.plan());
    let mut out = Vec::new();
    for (holder, members) in plan.families() {
        let node = merged.node(holder);
        let (state, retention) = if node.plan == Plan::LeftNegationQuery {
            let history = node.children[0];
            (
                format!("one probe of the NOT history at node {}", history.0),
                bounds.node(history).retention,
            )
        } else {
            let retain = members.iter().map(|m| bounds.node(m.node).retain[0]);
            let retain = retain.max().expect("a family has members");
            ("one join buffer".to_owned(), retain)
        };
        let listed: Vec<String> = members
            .iter()
            .flat_map(|m| {
                let at = program.rules_at(m.node).iter();
                at.map(|r| format!("`{}` ({})", rules[r.0 as usize].id, m.cutoff))
            })
            .collect();
        let rule = &rules[program.rules_at(holder)[0].0 as usize];
        out.push(Diagnostic {
            code: DiagCode::WindowFamily,
            rule_id: rule.id.clone(),
            rule_name: rule.name.clone(),
            path: String::new(),
            message: format!(
                "window family at {} node {}: {} rules that differ only in their window \
                 share {state}, probed at the widest cut-off and kept for {retention} — \
                 members by cut-off: {}",
                node.kind.name(),
                holder.0,
                listed.len(),
                listed.join(", ")
            ),
            hint: "informational: one probe serves every member; an emission reaches the \
                   members whose own window covers it (DESIGN.md, Window families)"
                .to_owned(),
        });
    }
    out
}

/// First path from the root to every reachable node, rendered as
/// `KIND/childidx:KIND/…` (e.g. `SEQ/0:NOT/0:observation`).
fn node_paths(graph: &EventGraph, root: NodeId) -> HashMap<NodeId, String> {
    let mut paths = HashMap::new();
    let mut stack = vec![(root, graph.node(root).kind.name().to_owned())];
    while let Some((id, path)) = stack.pop() {
        if paths.contains_key(&id) {
            continue; // shared subgraph: keep the first path found
        }
        for (i, &child) in graph.node(id).children.iter().enumerate() {
            let kind = graph.node(child).kind.name();
            stack.push((child, format!("{path}/{i}:{kind}")));
        }
        paths.insert(id, path);
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_events::EventExpr;

    fn obs(reader: &str) -> EventExpr {
        EventExpr::observation_at(reader).build()
    }

    fn obs_keyed(reader: &str) -> EventExpr {
        EventExpr::observation_at(reader).bind_object("o").build()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<DiagCode> {
        diags.iter().map(|d| d.code).collect()
    }

    fn rule(event: EventExpr) -> RuleEvent {
        RuleEvent::new("r", "test", event)
    }

    #[test]
    fn clean_rule_has_no_findings() {
        let e = obs_keyed("r1")
            .seq(obs_keyed("r2"))
            .within(Span::from_secs(5));
        assert!(analyze_event(&rule(e), None).is_empty());
    }

    #[test]
    fn empty_window_is_e001() {
        // Two satisfiable TSEQs whose minimum distances sum past the window.
        let e = obs_keyed("r1")
            .tseq(obs_keyed("r2"), Span::from_secs(2), Span::from_secs(3))
            .seq(obs_keyed("r3").tseq(obs_keyed("r4"), Span::from_secs(4), Span::from_secs(5)))
            .within(Span::from_secs(5));
        let diags = analyze_event(&rule(e), None);
        assert!(codes(&diags).contains(&DiagCode::EmptyWindow), "{diags:?}");
        assert!(
            !codes(&diags).contains(&DiagCode::EmptyDistance),
            "each TSEQ alone is satisfiable: {diags:?}"
        );
    }

    #[test]
    fn empty_distance_is_e002_not_e001() {
        let e = obs_keyed("r1")
            .tseq(obs_keyed("r2"), Span::from_secs(10), Span::from_secs(20))
            .within(Span::from_secs(5));
        let diags = analyze_event(&rule(e), None);
        assert_eq!(codes(&diags), vec![DiagCode::EmptyDistance], "{diags:?}");
        assert!(diags[0].path.starts_with("TSEQ"));
    }

    #[test]
    fn unbounded_histories_are_e003() {
        // SEQ(¬a; b) with no WITHIN: accepted by the builder, but the
        // negation history is never pruned.
        let e = obs_keyed("r1").not().seq(obs_keyed("r2"));
        let diags = analyze_event(&rule(e), None);
        assert!(
            codes(&diags).contains(&DiagCode::UnboundedState),
            "{diags:?}"
        );

        let e = obs("r1").seq_plus().seq(obs("r2"));
        let diags = analyze_event(&rule(e), None);
        assert!(
            codes(&diags).contains(&DiagCode::UnboundedState),
            "{diags:?}"
        );

        // The same shapes under WITHIN are clean.
        let e = obs_keyed("r1")
            .not()
            .seq(obs_keyed("r2"))
            .within(Span::from_secs(30));
        assert!(analyze_event(&rule(e), None).is_empty());
    }

    #[test]
    fn infinite_tseq_plus_gap_is_e003() {
        let e = obs("r1").tseq_plus(Span::ZERO, Span::MAX).tseq(
            obs("r2"),
            Span::ZERO,
            Span::from_secs(5),
        );
        let diags = analyze_event(&rule(e), None);
        assert!(
            codes(&diags).contains(&DiagCode::UnboundedState),
            "{diags:?}"
        );
    }

    #[test]
    fn bare_join_is_w005() {
        // SEQ with no window: the left buffer is truly unbounded (W005) but
        // the right buffer is provably pruned at Δ = lag(left) = 0 (N001).
        let e = obs_keyed("r1").seq(obs_keyed("r2"));
        let diags = analyze_event(&rule(e), None);
        assert_eq!(
            codes(&diags),
            vec![DiagCode::UnboundedBuffer, DiagCode::BoundedRetention],
            "{diags:?}"
        );
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert!(diags[0].message.contains("left side"), "{diags:?}");
        assert_eq!(diags[1].severity(), Severity::Note);
        assert!(diags[1].message.contains("Δ=0"), "{diags:?}");
    }

    #[test]
    fn windowless_and_is_w005_on_both_sides_with_no_note() {
        // AND retains a full window on both sides; with w = ∞ the solver
        // proves nothing and no N001 is emitted.
        let e = obs_keyed("r1").and(obs_keyed("r2"));
        let diags = analyze_event(&rule(e), None);
        assert_eq!(codes(&diags), vec![DiagCode::UnboundedBuffer], "{diags:?}");
        assert!(
            diags[0].message.contains("left and right side"),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_leaves_need_a_catalog() {
        let e = obs("ghost").seq(obs("r1")).within(Span::from_secs(5));
        // Without a catalog the pass is skipped (only the keyless-join W004
        // remains).
        let diags = analyze_event(&rule(e.clone()), None);
        assert!(!codes(&diags).contains(&DiagCode::DeadLeaf));

        let mut catalog = Catalog::new();
        catalog.readers.register("r1", "g1", "dock");
        let diags = analyze_event(&rule(e), Some(&catalog));
        assert!(codes(&diags).contains(&DiagCode::DeadLeaf), "{diags:?}");

        // Unknown group and unmapped type are also dead.
        let e = EventExpr::observation_in_group("nowhere")
            .with_type("unobtainium")
            .build();
        let diags = analyze_event(&rule(e), Some(&catalog));
        assert_eq!(
            codes(&diags),
            vec![DiagCode::DeadLeaf, DiagCode::DeadLeaf],
            "{diags:?}"
        );
    }

    #[test]
    fn residual_rules_are_w004_with_reason() {
        // Keyless SEQ: W005 (no window bound here is avoided with WITHIN).
        let e = obs("r1").seq(obs("r2")).within(Span::from_secs(10));
        let diags = analyze_event(&rule(e), None);
        assert_eq!(codes(&diags), vec![DiagCode::ResidualRule], "{diags:?}");
        assert!(diags[0].message.contains("object"));

        // Aperiodic runs: GlobalRun.
        let e = obs("r1").tseq_plus(Span::ZERO, Span::from_secs(1)).tseq(
            obs("r2"),
            Span::ZERO,
            Span::from_secs(5),
        );
        let diags = analyze_event(&rule(e), None);
        assert_eq!(codes(&diags), vec![DiagCode::ResidualRule], "{diags:?}");
        assert!(diags[0].message.contains("SEQ+"));
    }

    #[test]
    fn builder_rejections_become_e000() {
        let e = obs_keyed("r1").seq(obs_keyed("r2").not());
        let diags = analyze_event(&rule(e), None);
        assert_eq!(codes(&diags), vec![DiagCode::InvalidRule]);
        assert_eq!(diags[0].severity(), Severity::Error);
        assert!(diags[0].message.contains("negation"), "{diags:?}");
    }

    #[test]
    fn shadowed_rules_are_w001() {
        let a = RuleEvent::new(
            "a",
            "first",
            obs_keyed("r1")
                .seq(obs_keyed("r2"))
                .within(Span::from_secs(5)),
        );
        let b = RuleEvent::new(
            "b",
            "second",
            obs_keyed("r1")
                .seq(obs_keyed("r2"))
                .within(Span::from_secs(5)),
        );
        let c = RuleEvent::new(
            "c",
            "different-window",
            obs_keyed("r1")
                .seq(obs_keyed("r2"))
                .within(Span::from_secs(9)),
        );
        let rules = [a, b, c];
        let mut diags: Vec<_> = rules.iter().flat_map(|r| analyze_event(r, None)).collect();
        let program = Program::compile(None, rules.iter().cloned());
        diags.extend(analyze_compiled(&program, None));
        let shadowed: Vec<_> = diags
            .iter()
            .filter(|d| d.code == DiagCode::ShadowedRule)
            .collect();
        assert_eq!(shadowed.len(), 1, "{diags:?}");
        assert_eq!(shadowed[0].rule_id, "b");
        assert!(shadowed[0].message.contains("`a`"));
    }

    #[test]
    fn paths_descend_into_the_graph() {
        let e = obs_keyed("r1").not().seq(obs_keyed("r2"));
        let diags = analyze_event(&rule(e), None);
        let e003 = diags
            .iter()
            .find(|d| d.code == DiagCode::UnboundedState)
            .unwrap();
        assert_eq!(e003.path, "SEQ/0:NOT");
    }

    #[test]
    fn display_is_one_line_with_code_and_hint() {
        let e = obs_keyed("r1")
            .tseq(obs_keyed("r2"), Span::from_secs(10), Span::from_secs(20))
            .within(Span::from_secs(5));
        let diags = analyze_event(&RuleEvent::new("x", "demo", e), None);
        let line = diags[0].to_string();
        assert!(
            line.starts_with("error[E002] rule `x` (demo) at TSEQ"),
            "{line}"
        );
        assert!(line.contains("hint:"), "{line}");
        assert!(!line.contains('\n'));
    }
}
