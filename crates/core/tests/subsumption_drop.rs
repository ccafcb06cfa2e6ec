//! Soundness of the W006 subsumption prover (`rceda::subsumes`,
//! DESIGN.md §17): if the prover says `wide` subsumes `narrow`, then
//! (a) dropping `narrow` from a deployed program never changes the firing
//! multiset of any *remaining* rule, and (b) every firing of `narrow`
//! coincides (same `t_end`) with a firing of `wide` over the same stream.
//!
//! (a) is the property the lint actually licenses — "this rule is
//! redundant, removing it is free" — and it is non-trivial under subgraph
//! merging, where the narrow rule's nodes may be hash-consed into state
//! shared with the survivors. (b) is the containment claim itself, checked
//! per `t_end` (chronicle consumption may pick different constituent
//! witnesses for the two rules, but the firing instants must nest).
//!
//! Pairs are generated *by construction* from the three relaxation axes the
//! prover admits — wider WITHIN window, looser TSEQ max-distance with equal
//! minimum, weaker leaf reader predicate (any ⊇ group) — then re-checked
//! with the prover, so the test exercises exactly the relaxations W006 can
//! emit. Every run is first held to the reference interpreter
//! (`support/reference.rs`) — constituents and all — so the rule pool of
//! this suite (the one place a leaf pattern overlaps its sibling's:
//! `docks ; any reader`) faces the oracle too.

mod differential;
mod support;

use differential::{trace, Feed, Firing};
use proptest::prelude::*;
use rceda::{subsumes, ObserveLevel};
use rfid_events::{EventExpr, Span, Timestamp};

/// Firing fingerprint: rule slot and instance window. Constituents are
/// deliberately excluded — chronicle consumption may witness a firing with
/// different observations when the rule set changes state interleaving,
/// but W006 promises the *firings* (what/when) are preserved.
type Fingerprint = (u32, Timestamp, Timestamp);

const WINDOWS: [Span; 3] = [Span::from_secs(2), Span::from_secs(5), Span::from_secs(30)];

/// A provably-subsumed pair: `wide` ⊇ `narrow` by one relaxation axis.
fn pair(axis: usize, w: usize) -> (EventExpr, EventExpr) {
    let window = WINDOWS[w];
    let docks = || EventExpr::observation_in_group("docks").bind_object("o");
    let pos = || EventExpr::observation_in_group("pos").bind_object("o");
    match axis {
        // Wider WITHIN window, identical body.
        0 => (
            docks()
                .seq(pos())
                .within(Span::from_millis(window.as_millis() * 3)),
            docks().seq(pos()).within(window),
        ),
        // Looser TSEQ max-distance, equal minimum, identical window.
        1 => (
            docks()
                .tseq(pos(), Span::from_millis(10), Span::from_secs(4))
                .within(window),
            docks()
                .tseq(pos(), Span::from_millis(10), Span::from_secs(1))
                .within(window),
        ),
        // Weaker leaf predicate: any reader ⊇ the "pos" group.
        2 => (
            docks()
                .seq(EventExpr::observation().bind_object("o"))
                .within(window),
            docks().seq(pos()).within(window),
        ),
        _ => unreachable!("relaxation axis out of pool"),
    }
}

/// Unrelated survivor rules, including shapes that hash-cons leaves with
/// the pair above so merged state is genuinely shared, and two over twin
/// leaves (one pattern under an inner `WITHIN` and bare: two nodes) that
/// coalesce with the pair's `docks` and `pos` leaves.
const CONTROLS: usize = 5;

fn control(idx: usize) -> EventExpr {
    let docks = || EventExpr::observation_in_group("docks").bind_object("o");
    let pos = || EventExpr::observation_in_group("pos").bind_object("o");
    match idx {
        0 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(EventExpr::observation_in_group("exits").bind_object("o"))
            .within(Span::from_secs(5)),
        1 => EventExpr::observation_in_group("pos")
            .bind_object("o")
            .and(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(Span::from_secs(2)),
        2 => EventExpr::observation_in_group("shelves")
            .tseq_plus(Span::ZERO, Span::from_millis(1_500))
            .within(Span::from_secs(30)),
        3 => docks()
            .within(Span::from_secs(1))
            .seq(docks())
            .within(Span::from_secs(5)),
        4 => pos()
            .within(Span::from_secs(1))
            .not()
            .seq(pos())
            .within(Span::from_secs(5)),
        _ => unreachable!("control index out of pool"),
    }
}

/// Runs a program and returns its sorted firing fingerprints, after
/// checking the full firings — constituents included — against the
/// reference. Rule slots are caller-assigned so the same rule keeps its id
/// across variants.
fn run(rules: &[(u32, &EventExpr)]) -> Vec<Fingerprint> {
    let case = trace(2_000).case(rules.iter().map(|&(_, e)| e.clone()).collect());
    let (fired, _) = case.run(Feed::Scalar, ObserveLevel::Off);
    case.check(&fired);
    let slot = |(rule, inst): &Firing| (rules[*rule as usize].0, inst.t_begin(), inst.t_end());
    let mut out: Vec<Fingerprint> = fired.iter().map(slot).collect();
    out.sort();
    out
}

/// Multiset containment of `needles` in `haystack` (both sorted).
fn contained(needles: &[Timestamp], haystack: &[Timestamp]) -> bool {
    let mut it = haystack.iter();
    'outer: for n in needles {
        for h in it.by_ref() {
            if h == n {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every constructed (wide, narrow) pair the prover certifies,
    /// dropping the narrow rule leaves the survivors' firings untouched,
    /// and the narrow rule's firing instants nest inside the wide rule's.
    #[test]
    fn dropping_a_subsumed_rule_preserves_the_firing_multiset(
        axis in 0usize..3,
        w in 0usize..WINDOWS.len(),
        ctrl in 0usize..CONTROLS,
    ) {
        let (wide, narrow) = pair(axis, w);
        let extra = control(ctrl);
        // The pair must be exactly what W006 would flag.
        prop_assert!(
            subsumes(&wide, &narrow, Some(&trace(2_000).sim.catalog)).is_some(),
            "constructed pair on axis {axis} must be provable"
        );
        let full = run(&[(0, &wide), (1, &narrow), (2, &extra)]);
        let dropped = run(&[(0, &wide), (2, &extra)]);
        let survivors: Vec<Fingerprint> =
            full.iter().copied().filter(|f| f.0 != 1).collect();
        prop_assert_eq!(
            &survivors, &dropped,
            "dropping the subsumed rule changed a survivor"
        );
        let narrow_ends: Vec<Timestamp> =
            full.iter().filter(|f| f.0 == 1).map(|f| f.2).collect();
        let wide_ends: Vec<Timestamp> =
            full.iter().filter(|f| f.0 == 0).map(|f| f.2).collect();
        prop_assert!(
            contained(&narrow_ends, &wide_ends),
            "narrow firings escaped the subsumer: {} narrow vs {} wide",
            narrow_ends.len(), wide_ends.len()
        );
    }
}
