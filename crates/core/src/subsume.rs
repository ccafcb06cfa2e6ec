//! Rule-subsumption prover behind lint W006.
//!
//! [`subsumes`] decides whether one rule's firing set provably contains
//! another's, by conservative syntactic containment — same constructor
//! shape, with the wider rule allowed a larger `WITHIN` window, a larger
//! `TSEQ` maximum distance, or weaker leaf predicates (`Any ⊇ group ⊇ named
//! reader`, `Any ⊇ type ⊇ exact EPC`). The prover must never report a false
//! containment (`W006` is only emitted on a proof), so every relaxation is
//! gated on the chronicle-consumption argument in DESIGN.md §17: minimum
//! distances must be equal, and window/distance widening is only admitted
//! over subtrees free of `NOT`/`SEQ+`/`TSEQ+` (where widening can *suppress*
//! firings instead of adding them). Anything the argument does not cover
//! requires exact structural equality.

use std::collections::HashMap;

use rfid_events::{Catalog, EventExpr, ObjectSel, PrimitivePattern, ReaderSel, Var};

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
    use rfid_events::Span;

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
