//! Engine ≡ docs/SEMANTICS.md: for any rule program drawn from the paper's
//! rule shapes and a realistic simulator trace, the engine must emit
//! exactly the multiset of rule firings the reference interpreter
//! (`support/reference.rs`) computes rule by rule, straight off the
//! expression trees. The two share no code below the event model, so this
//! is the harness every layer of the engine answers to at once: the
//! arrival handlers (oldest-compatible pairing, the half-open in-field
//! window, the 1 ms out-field epsilon, `TSEQ+` closure), the lowering's
//! order-preservation argument (DESIGN.md §13) including the in-field
//! twin-leaf fusion and leaf coalescing, window families and shared `NOT`
//! histories, and the bounds solver's soundness (DESIGN.md §14) — the
//! engine evicts at the solved per-node retention while the reference
//! keeps everything, so equal firings mean the solved bounds only discard
//! state no future arrival could pair with. The lag-inflator shape keeps
//! the two far apart: its day-long closure delay sits in the same program
//! as buffers that die after two seconds.
//!
//! The counters the reference cannot define are pinned instead, against
//! values recorded from the parent commit (`counters_are_pinned`).

mod differential;
mod support;

use differential::{trace, Case, Feed};
use proptest::prelude::*;
use rceda::ObserveLevel;
use rfid_events::{EventExpr, Span};
use support::reference;
use support::shapes::{self, SHAPES, WINDOWS};

fn run(draws: &[(usize, usize)]) -> rceda::EngineStats {
    let case = trace(2_000).case(shapes::program(draws));
    case.run(Feed::Scalar, ObserveLevel::Off).1.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any program of up to five rules drawn from the shape pool fires
    /// what the reference says its rules fire, each on its own — under
    /// both kinds of plan-level sharing (a coalesced leaf, and a window
    /// family: two draws of shape 0 or 1 with different windows) and both
    /// in-field fusions (shape 1 the merged-leaf `RecordQuery`, shape 10
    /// the twin-leaf `QueryRecord`) — and the counters the reference
    /// defines agree.
    #[test]
    fn engine_fires_what_the_semantics_say(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=5)
    ) {
        let case = trace(2_000).case(shapes::program(&program));
        let (fired, engine) = case.run(Feed::Scalar, ObserveLevel::Off);
        case.check(&fired);
        let stats = engine.stats();
        let matched = reference::matched_events(case.catalog, &case.rules, case.stream);
        prop_assert_eq!(stats.events, case.stream.len() as u64);
        prop_assert_eq!(stats.matched_events, matched);
        prop_assert_eq!(stats.rule_firings, fired.len() as u64);
    }
}

/// `[pseudo_scheduled, pseudo_fired, occurrences, sweeps, sweeps_skipped]`
/// of one program over the 2,000-event trace, as recorded from an earlier
/// commit: the first three of shapes 0–8 and the mixed programs at
/// `741f74c` (under both of its executors), of the twin-leaf shapes 9 and
/// 10 at `261f94b`, of the composite-terminator shapes 11 and 12 at
/// `b3cde7e` (before their initiators were retired at one distance); the
/// sweep counts at `423a540`, the last commit with a separate sweep heap.
type Pinned = [u64; 5];

/// Each shape alone, by `[shape][window]`.
const ALONE: [[Pinned; 3]; SHAPES] = [
    [
        [0, 0, 1979, 663, 1270],
        [0, 0, 1979, 649, 1284],
        [0, 0, 2416, 532, 1401],
    ],
    [
        [0, 0, 1250, 72, 1861],
        [0, 0, 1250, 69, 1864],
        [0, 0, 813, 50, 1883],
    ],
    [
        [0, 0, 28, 27, 1906],
        [0, 0, 28, 23, 1910],
        [0, 0, 28, 12, 1921],
    ],
    [
        [0, 0, 231, 198, 1735],
        [0, 0, 231, 194, 1739],
        [0, 0, 231, 153, 1780],
    ],
    [[55, 55, 665, 0, 1933]; 3],
    [
        [231, 231, 490, 27, 1906],
        [231, 231, 490, 27, 1906],
        [231, 231, 490, 18, 1915],
    ],
    [
        [0, 0, 930, 27, 1906],
        [0, 0, 930, 15, 1918],
        [0, 0, 930, 3, 1930],
    ],
    [
        [0, 0, 231, 198, 1735],
        [0, 0, 231, 194, 1739],
        [0, 0, 231, 153, 1780],
    ],
    [[2, 2, 29, 0, 1933]; 3],
    [
        [0, 0, 3912, 1306, 627],
        [0, 0, 3912, 1263, 670],
        [0, 0, 4349, 990, 943],
    ],
    [
        [0, 0, 1898, 72, 1861],
        [0, 0, 1898, 69, 1864],
        [0, 0, 1461, 50, 1883],
    ],
    [
        [0, 0, 740, 72, 1861],
        [0, 0, 740, 129, 1804],
        [0, 0, 1177, 113, 1820],
    ],
    [[0, 0, 1177, 74, 1859]; 3],
];

/// Three mixed programs: every shape of the first nine once, the two family
/// shapes at several windows, and the pseudo-event shapes interleaved.
fn mixed() -> [(Vec<(usize, usize)>, Pinned); 3] {
    [
        (
            (0..9).map(|idx| (idx, idx % 3)).collect(),
            [288, 288, 5574, 733, 1200],
        ),
        (
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 1)],
            [0, 0, 8465, 538, 1395],
        ),
        (
            vec![(4, 2), (8, 0), (6, 1), (5, 0), (5, 2), (3, 1), (7, 1)],
            [519, 519, 2835, 220, 1713],
        ),
    ]
}

/// `occurrences` and the pseudo-event counts describe how a program was
/// merged and scheduled, which the reference — one tree per rule, one
/// closure per run — has no notion of. They stay comparable across
/// commits instead: a coalesced leaf counts the pops it absorbs
/// (`extra_pops`) and a window family delivers each emission at every
/// member it reaches, so sharing must not move them. The sweep counts
/// follow the batch boundaries (one observation each here), which the
/// reference has no notion of either.
#[test]
fn counters_are_pinned() {
    let alone = (0..SHAPES).flat_map(|idx| (0..3).map(move |w| (vec![(idx, w)], ALONE[idx][w])));
    for (program, pinned) in alone.chain(mixed()) {
        let stats = run(&program);
        let counted = [
            stats.pseudo_scheduled,
            stats.pseudo_fired,
            stats.occurrences,
            stats.sweeps,
            stats.sweeps_skipped,
        ];
        assert_eq!(counted, pinned, "{program:?}");
    }
}

/// A twin's right leaf may be one an earlier rule already registered: the
/// second rule's terminator-side `observation(r, o)` under 30 s is the
/// first rule's leaf, its 1 s initiator-side twin is new. Reverse
/// registration order alone would then initiate before it terminates and
/// consume each read as a terminator only, breaking the chain
/// `(e1, e2), (e2, e3), …` into `(e1, e2), (e3, e4), …`.
#[test]
fn a_twin_sharing_its_right_leaf_still_terminates_first() {
    let case = trace(2_000).case(shapes::program(&[(0, 2), (9, 2)]));
    case.check(&case.run(Feed::Scalar, ObserveLevel::Off).0);
}

/// Open disagreement, met while pointing the suites at the reference
/// (ROADMAP, "The oracle's one open disagreement"): SEMANTICS.md §4
/// delivers one observation to the leaves of a rule right to left —
/// terminate, then initiate — and the engine does so for identical siblings
/// and every shape in the pools.
/// For *overlapping but different* sibling patterns it follows its
/// dispatch rows instead (any-reader leaves pop before group leaves before
/// named ones, whatever side they stand on). Here the left pattern is the
/// less specific one, so the engine initiates before it terminates: the
/// second read pairs as the left constituent, `[1 s, 0]`, where the
/// semantics say `[0, 1 s]`.
#[test]
#[ignore = "engine delivers overlapping sibling leaves in dispatch-row order (ROADMAP: the oracle's one open disagreement)"]
fn overlapping_sibling_patterns_are_delivered_right_to_left() {
    let sim = &trace(2_000).sim;
    let shelf = trace(2_000).stream.iter().find(|obs| {
        let group = sim.catalog.readers.group_of(obs.reader);
        group == Some("shelves")
    });
    let first = *shelf.expect("the trace reads a shelf");
    let mut second = first;
    second.at = first.at + Span::from_secs(1);
    let rule = EventExpr::observation()
        .bind_object("o")
        .and(EventExpr::observation_in_group("shelves").bind_object("o"))
        .within(Span::from_secs(10));
    let stream = [first, second];
    let case = Case::new(&sim.catalog, vec![rule], &stream);
    case.check(&case.run(Feed::Scalar, ObserveLevel::Off).0);
}
