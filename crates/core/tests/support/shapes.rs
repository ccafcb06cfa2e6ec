//! The rule-shape pool of the differential suites: every differential
//! suite draws its programs from it — random `(shape, window)` draws, or
//! the fixed [`mixed`] rule set — except two whose pools are their
//! subject: `family_equivalence`'s tick-lattice window families and
//! `subsumption_drop`'s constructed subsumption pairs.

use rfid_events::{EventExpr, Span};

/// The rule-shape pool: every plan variant the lowering distinguishes,
/// parameterized by the detection window so different draws stress
/// different buffer and pruning regimes.
pub const SHAPES: usize = 13;
pub const WINDOWS: [Span; 3] = [Span::from_secs(2), Span::from_secs(5), Span::from_secs(30)];
/// Shorter than every draw of `WINDOWS`: a leaf wrapped in it is a node of
/// its own, beside the unwrapped leaf of the same pattern (hash-consing
/// keys on the effective window).
const INNER: Span = Span::from_secs(1);
/// The maximum distance of the composite-terminator `TSEQ` shapes: inside
/// the middle draw of `WINDOWS`, so the distance, not the window, is what
/// retires a waiting initiator under the wider draws.
const DIST: Span = Span::from_secs(4);

pub fn shape(idx: usize, window: Span) -> EventExpr {
    let shelf = || EventExpr::observation_in_group("shelves").bind_object("o");
    match idx {
        // Self-join duplicate filter (SelfJoin edges).
        0 => EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(window),
        // In-field filtering: the merged-leaf `RecordQuery` fusion.
        1 => shelf().not().seq(shelf()).within(window),
        // AND with right-side negation (pseudo events on window close).
        2 => EventExpr::observation_in_group("pos")
            .bind_object("o")
            .and(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Keyless chronicle join (TwoSided, trivial key).
        3 => EventExpr::observation_in_group("docks")
            .seq(EventExpr::observation_in_group("pos"))
            .within(window),
        // Global timed run (TimedAperiodic + CloseRun pseudo events).
        4 => EventExpr::observation_in_group("shelves")
            .tseq_plus(Span::ZERO, Span::from_millis(1_500))
            .within(window),
        // Right-side negation wait (anchor + window close).
        5 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(
                EventExpr::observation_in_group("exits")
                    .bind_object("o")
                    .not(),
            )
            .within(window),
        // Aperiodic drain (LeftAperiodicQuery / AperiodicRecorder).
        6 => EventExpr::observation_in_group("shelves")
            .seq_plus()
            .seq(EventExpr::observation_in_group("docks"))
            .within(window),
        // Keyed two-sided join across groups (Left/Right edges).
        7 => EventExpr::observation_in_group("docks")
            .bind_object("o")
            .seq(EventExpr::observation_in_group("pos").bind_object("o"))
            .within(window),
        // Lag inflator: a day-long `TSEQ+` gap (its own window, whatever
        // the draw) delivers its runs a day late, so every bound above it
        // must absorb that lag while the other shapes' stay at seconds.
        8 => EventExpr::observation_in_group("exits")
            .tseq_plus(Span::ZERO, Span::from_secs(24 * 3_600))
            .within(Span::from_secs(48 * 3_600)),
        // Shape 0 over twin leaves: one observation reaches both sides of
        // a two-sided join as one instance.
        9 => EventExpr::observation()
            .bind_reader("r")
            .bind_object("o")
            .within(INNER)
            .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
            .within(window),
        // Shape 1 over twin leaves: the `QueryRecord` fusion.
        10 => shelf().within(INNER).not().seq(shelf()).within(window),
        // TSEQ whose terminator is itself a SEQ: the distance runs end to
        // end, so an initiator waits one `DIST` for the terminator's end
        // however long the terminator spans (the solved left retention).
        11 => shelf()
            .tseq(shelf().seq(shelf()), Span::ZERO, DIST)
            .within(window),
        // Shape 11 with no WITHIN (whatever the draw): the distance alone
        // bounds the initiators; the inner SEQ's left side is capped.
        12 => shelf().tseq(shelf().seq(shelf()), Span::ZERO, DIST),
        _ => unreachable!("shape index out of pool"),
    }
}

/// A program of `(shape, window index)` draws.
pub fn program(draws: &[(usize, usize)]) -> Vec<EventExpr> {
    draws
        .iter()
        .map(|&(idx, w)| shape(idx, WINDOWS[w]))
        .collect()
}

/// The mixed rule set: three object-shardable rules — a duplicate filter,
/// an in-field filter and an `AND NOT` wait, the last two resolved by
/// pseudo events — and two residual ones, a keyless chronicle join and a
/// global `TSEQ+` run: shapes 0–4 at 5, 2, 3, 10 and 30 s.
pub fn mixed() -> Vec<EventExpr> {
    let at = |(idx, secs)| shape(idx, Span::from_secs(secs));
    [(0, 5), (1, 2), (2, 3), (3, 10), (4, 30)].map(at).into()
}
