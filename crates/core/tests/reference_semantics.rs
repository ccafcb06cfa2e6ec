//! The oracle is tested against the paper, not against the engine: one
//! hand-computed example per sentence of docs/SEMANTICS.md, run through
//! the reference interpreter alone (`support/reference.rs`). Nothing here
//! touches `rceda`; the differential suites then hold the engine to the
//! interpreter these tables pin.

mod support;

use rfid_epc::{Gid96, ReaderId};
use rfid_events::{Catalog, EventExpr, Observation, Span, Timestamp};
use support::reference;

/// Three readers, one per group: reader `i` is the only member of `g{i}`.
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..3 {
        catalog
            .readers
            .register(&format!("r{i}"), &format!("g{i}"), "floor");
    }
    catalog
}

/// Reads of group `g{i}`, object bound to `o`.
fn g(i: u32) -> EventExpr {
    EventExpr::observation_in_group(&format!("g{i}"))
        .bind_object("o")
        .build()
}

fn secs(s: u64) -> Span {
    Span::from_secs(s)
}

struct Case {
    /// The SEMANTICS.md sentence the example pins.
    sentence: &'static str,
    rule: EventExpr,
    /// `(reader, object, at ms)`, in stream order.
    reads: &'static [(u32, u64, u64)],
    /// Expected firings, sorted: `(t_begin ms, t_end ms, read times ms)`.
    fires: &'static [(u64, u64, &'static [u64])],
}

fn check(cases: Vec<Case>) {
    for case in cases {
        let read = |&(reader, object, at): &(u32, u64, u64)| {
            let epc = Gid96::new(7, 1, object).expect("valid gid").into();
            Observation::new(ReaderId(reader), epc, Timestamp::from_millis(at))
        };
        let stream: Vec<Observation> = case.reads.iter().map(read).collect();
        assert!(stream.is_sorted_by_key(|o| o.at), "{}", case.sentence);
        let mut fired: Vec<(u64, u64, Vec<u64>)> =
            reference::fire(&catalog(), &[case.rule], &stream)
                .into_iter()
                .map(|(_, inst)| {
                    let reads = inst
                        .observations()
                        .iter()
                        .map(|o| o.at.as_millis())
                        .collect();
                    (inst.t_begin().as_millis(), inst.t_end().as_millis(), reads)
                })
                .collect();
        fired.sort();
        let expected: Vec<(u64, u64, Vec<u64>)> = case
            .fires
            .iter()
            .map(|&(begin, end, reads)| (begin, end, reads.to_vec()))
            .collect();
        assert_eq!(fired, expected, "{}", case.sentence);
    }
}

/// §1–§2: instances and constructors under chronicle context.
#[test]
fn constructors() {
    check(vec![
        Case {
            sentence: "§1 a composite spans its constituents; §2 OR: any child occurrence",
            rule: EventExpr::observation_in_group("g0")
                .or(EventExpr::observation_in_group("g1"))
                .seq(EventExpr::observation_in_group("g2"))
                .within(secs(10)),
            reads: &[(1, 1, 1_000), (2, 1, 4_000)],
            fires: &[(1_000, 4_000, &[1_000, 4_000])],
        },
        Case {
            sentence: "§2 AND pairs with the oldest compatible instance, consumed once each",
            rule: g(0).and(g(1)).within(secs(10)),
            // Two lefts, then two rights: (l1, r1) and (l2, r2), never (l1, r2).
            reads: &[
                (0, 1, 0),
                (0, 1, 1_000),
                (1, 1, 2_000),
                (1, 1, 3_000),
                (1, 1, 4_000),
            ],
            fires: &[(0, 2_000, &[0, 2_000]), (1_000, 3_000, &[1_000, 3_000])],
        },
        Case {
            sentence: "§2 the pair must satisfy interval(l, r) ≤ within — at the bound it does",
            rule: g(0).and(g(1)).within(secs(5)),
            // Object 1 exactly 5 s apart (right first: AND takes any order);
            // object 2 one millisecond more.
            reads: &[(1, 1, 0), (0, 2, 0), (0, 1, 5_000), (1, 2, 5_001)],
            fires: &[(0, 5_000, &[5_000, 0])],
        },
        Case {
            sentence: "§2 SEQ adds order: t_end(initiator) ≤ t_begin(terminator)",
            rule: g(0).seq(g(1)).within(secs(10)),
            // The terminator read first waits, and is not an initiator.
            reads: &[(1, 1, 0), (0, 1, 1_000), (1, 1, 2_000)],
            fires: &[(1_000, 2_000, &[1_000, 2_000])],
        },
        Case {
            sentence: "§2 chronicle = oldest satisfying initiator; too-recent ones stay",
            rule: g(0).tseq(g(1), secs(5), secs(10)),
            // At 12 s: dist 12 (too old) and 4 (too recent) — nothing. At
            // 14 s the second initiator has aged into [5, 10].
            reads: &[(0, 1, 0), (0, 1, 8_000), (1, 1, 12_000), (1, 1, 14_000)],
            fires: &[(8_000, 14_000, &[8_000, 14_000])],
        },
        Case {
            sentence: "§2 symmetric joins: bursts chain (e1,e2),(e2,e3); never with itself",
            rule: g(0).seq(g(0)).within(secs(5)),
            reads: &[(0, 1, 0), (0, 1, 1_000), (0, 1, 2_000), (0, 2, 2_000)],
            fires: &[(0, 1_000, &[0, 1_000]), (1_000, 2_000, &[1_000, 2_000])],
        },
        Case {
            sentence: "§2 SEQ+: the terminator takes all recorded occurrences, and consumes them",
            rule: EventExpr::observation_in_group("g0")
                .seq_plus()
                .seq(EventExpr::observation_in_group("g1"))
                .within(secs(10)),
            reads: &[
                (0, 1, 1_000),
                (0, 2, 2_000),
                (0, 3, 3_000),
                (1, 9, 5_000),
                (1, 9, 6_000),
            ],
            fires: &[(1_000, 5_000, &[1_000, 2_000, 3_000, 5_000])],
        },
        Case {
            sentence: "§2 TSEQ+: a gap below τl discards the run",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::from_millis(500), secs(1))
                .within(secs(60)),
            // 0 → 100: gap 100 < 500, restart at 100; 100 → 800 extends.
            reads: &[(0, 1, 0), (0, 2, 100), (0, 3, 800)],
            fires: &[(100, 800, &[100, 800])],
        },
        Case {
            sentence: "§2 TSEQ+: the extended interval must fit the propagated WITHIN",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::ZERO, secs(1))
                .within(secs(2)),
            // 0, 1 s, 2 s fit; 2.9 s would stretch the run to 2.9 s: the
            // run so far is discarded, not delivered, and 2.9 s restarts.
            reads: &[(0, 1, 0), (0, 2, 1_000), (0, 3, 2_000), (0, 4, 2_900)],
            fires: &[(2_900, 2_900, &[2_900])],
        },
        Case {
            sentence: "§2 WITHIN propagates top-down as min(own, parent)",
            rule: g(0).seq(g(1)).within(secs(2)).seq(g(2)).within(secs(60)),
            // Object 1's inner pair spans 3 s > 2 s; object 2's spans 1 s.
            reads: &[
                (0, 1, 0),
                (0, 2, 2_000),
                (1, 1, 3_000),
                (1, 2, 3_000),
                (2, 1, 9_000),
                (2, 2, 9_000),
            ],
            fires: &[(2_000, 9_000, &[2_000, 3_000, 9_000])],
        },
        Case {
            sentence: "Fig. 4: overlapping streams pair run {1,2,3} with 12 and {5,6,7} with 15",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::ZERO, secs(1))
                .tseq(EventExpr::observation_in_group("g1"), secs(5), secs(10)),
            reads: &[
                (0, 1, 1_000),
                (0, 2, 2_000),
                (0, 3, 3_000),
                (0, 4, 5_000),
                (0, 5, 6_000),
                (0, 6, 7_000),
                (1, 8, 12_000),
                (1, 9, 15_000),
            ],
            fires: &[
                (1_000, 12_000, &[1_000, 2_000, 3_000, 12_000]),
                (5_000, 15_000, &[5_000, 6_000, 7_000, 15_000]),
            ],
        },
    ]);
}

/// §3: the three negation plans.
#[test]
fn negation() {
    check(vec![
        Case {
            sentence: "§3.1 in-field: [t − within, t) is half-open — a read exactly one period old still suppresses",
            rule: g(0).not().seq(g(0)).within(secs(30)),
            // 0 fires (nothing before it); 30 s and 60 s each see the read
            // one period earlier; 91 s sees [61 s, 91 s) empty.
            reads: &[(0, 1, 0), (0, 1, 30_000), (0, 1, 60_000), (0, 1, 91_000)],
            fires: &[(0, 0, &[0]), (61_000, 91_000, &[91_000])],
        },
        Case {
            sentence: "§3 negation queries are keyed when the rule correlates the negated event",
            rule: g(0).not().seq(g(0)).within(secs(30)),
            reads: &[(0, 1, 10_000), (0, 2, 11_000), (0, 1, 12_000)],
            fires: &[(0, 10_000, &[10_000]), (0, 11_000, &[11_000])],
        },
        Case {
            sentence: "§2 NOT: unbounded look-backs (no WITHIN) stay exact",
            rule: g(0).not().seq(g(1)),
            reads: &[(0, 1, 5), (1, 1, 90_000_000), (1, 2, 90_000_000)],
            fires: &[(0, 90_000_000, &[90_000_000])],
        },
        Case {
            sentence: "§3.2 out-field: the window opens 1 ms after the initiator, which does not block itself",
            rule: g(0).seq(g(0).not()).within(secs(5)),
            // Object 1 read once: fires when its window closes at 15 s.
            // Object 2 read twice: the second read blocks the first and
            // then waits out its own window.
            reads: &[(0, 1, 10_000), (0, 2, 10_000), (0, 2, 12_000)],
            fires: &[(10_000, 15_000, &[10_000]), (12_000, 17_000, &[12_000])],
        },
        Case {
            sentence: "§3.2 out-field: a re-read 1 ms later is inside the window",
            rule: g(0).seq(g(0).not()).within(secs(5)),
            reads: &[(0, 1, 10_000), (0, 1, 10_001)],
            fires: &[(10_001, 15_001, &[10_001])],
        },
        Case {
            sentence: "Fig. 8: WITHIN(E1 ∧ ¬E2, 10 s) over e2@2, e1@10, e1@20 fires once, at t = 30",
            rule: EventExpr::observation_in_group("g0")
                .and(EventExpr::observation_in_group("g1").not())
                .within(secs(10)),
            reads: &[(1, 9, 2_000), (0, 1, 10_000), (0, 2, 20_000)],
            fires: &[(10_000, 30_000, &[20_000])],
        },
        Case {
            sentence: "§3.3 two-sided window: the future part blocks too",
            rule: g(0).and(g(1).not()).within(secs(10)),
            reads: &[(0, 1, 10_000), (1, 1, 15_000)],
            fires: &[],
        },
    ]);
}

/// §4: time, ordering and the end of the stream.
#[test]
fn time_and_ordering() {
    check(vec![
        Case {
            sentence:
                "§4 a TSEQ+ element at exactly last + τu extends; one millisecond past it closes",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::ZERO, secs(1))
                .within(secs(60)),
            reads: &[(0, 1, 0), (0, 2, 1_000), (0, 3, 2_001)],
            fires: &[(0, 1_000, &[0, 1_000]), (2_001, 2_001, &[2_001])],
        },
        Case {
            sentence: "§4 a blocker at exactly a window close blocks; 1 ms later it does not",
            rule: g(0).and(g(1).not()).within(secs(10)),
            reads: &[
                (0, 1, 20_000),
                (0, 2, 20_000),
                (1, 1, 30_000),
                (1, 2, 30_001),
            ],
            fires: &[(10_000, 30_000, &[20_000])],
        },
        Case {
            sentence: "§4 at instant t observations at t come before pseudo events at t",
            rule: g(0).seq(g(1).not()).within(secs(5)),
            // Both windows close at 15 s. Object 1's blocker is read at
            // 15 s sharp, object 2's a millisecond after the close.
            reads: &[
                (0, 1, 10_000),
                (0, 2, 10_000),
                (1, 1, 15_000),
                (1, 2, 15_001),
            ],
            fires: &[(10_000, 15_000, &[10_000])],
        },
        Case {
            sentence: "§2 a terminator may arrive before a lagged initiator and still pair",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::ZERO, secs(1))
                .seq(EventExpr::observation_in_group("g1"))
                .within(secs(60)),
            // The run {0, 0.5 s} is delivered at 1.5 s; the terminator read
            // at 1.2 s is already waiting for it.
            reads: &[(0, 1, 0), (0, 2, 500), (1, 9, 1_200), (1, 9, 40_000)],
            fires: &[(0, 1_200, &[0, 500, 1_200])],
        },
        Case {
            sentence: "§4 finish() drains open windows: an open run and a parked wait resolve",
            rule: EventExpr::observation_in_group("g0")
                .tseq_plus(Span::ZERO, secs(1))
                .seq(EventExpr::observation_in_group("g1").not())
                .within(secs(10)),
            // The run {0, 0.5 s} closes at 1.5 s and waits for g1 until
            // 0 + 10 s; the stream ends long before either.
            reads: &[(0, 1, 0), (0, 2, 500)],
            fires: &[(0, 10_000, &[0, 500])],
        },
    ]);
}
