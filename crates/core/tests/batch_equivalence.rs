//! Firings do not depend on how a stream is cut into batches: for any
//! rule program drawn from the differential suites' shape pool
//! (`support/shapes.rs`: every plan variant the lowering distinguishes, so
//! every arrival handler and every sweepable store), feeding a simulator
//! trace through `Engine::process_batch` at any chunking — or interleaving
//! it with per-observation `Engine::process` calls on the same engine —
//! must emit exactly the same multiset of rule firings, and the same
//! detection counter totals, as feeding it one observation at a time. This
//! is the differential harness behind the batch loop (DESIGN.md §13):
//! batching only amortizes dispatch, pseudo-queue peeks, and sweep
//! scheduling; it never changes what the engine detects. The batched
//! firings are held to the reference interpreter (`support/reference.rs`)
//! as well, so the property is "every chunking fires what
//! docs/SEMANTICS.md says", not merely "every chunking agrees".
//!
//! Counters that describe *sweep timing* (`sweeps`, `sweeps_skipped`, the
//! per-node prune counts, and the buffered-state gauges) legitimately move
//! with the batch boundaries, so the comparison pins the detection
//! counters only: events, matched events, occurrences, rule firings,
//! pseudo events scheduled/fired, and capacity drops.

mod differential;
mod support;

use differential::{trace, Feed};
use proptest::prelude::*;
use rceda::{EngineStats, ObserveLevel};
use support::shapes::{self, SHAPES, WINDOWS};

/// How many batches the engine counts when `feed` cuts `len` observations
/// into chunks: a `process` call is a batch of one.
fn batches(feed: Feed, len: usize) -> u64 {
    let starts = |n: usize| (0..len).step_by(n).enumerate();
    let sum = match feed {
        Feed::Scalar => len,
        Feed::Chunks(n) => len.div_ceil(n),
        // Even chunks are one batch, odd ones one per observation.
        Feed::Mixed(n) => starts(n)
            .map(|(i, at)| if i % 2 == 1 { n.min(len - at) } else { 1 })
            .sum(),
    };
    sum as u64
}

/// The counters batching must not change — everything that describes
/// *detection* rather than sweep timing.
fn detection_counters(s: &EngineStats) -> [u64; 7] {
    [
        s.events,
        s.matched_events,
        s.occurrences,
        s.rule_firings,
        s.pseudo_scheduled,
        s.pseudo_fired,
        s.capacity_drops,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any program of up to four rules from the shape pool fires
    /// identically — what the reference fires, with identical detection
    /// counters — whether the stream is fed per observation, in batches
    /// of any size, or both interleaved.
    #[test]
    fn batched_execution_preserves_firings_and_counters(
        program in proptest::collection::vec((0usize..SHAPES, 0usize..WINDOWS.len()), 1..=4),
        feed in prop_oneof![
            Just(Feed::Chunks(7)),
            Just(Feed::Chunks(64)),
            Just(Feed::Chunks(256)),
            Just(Feed::Chunks(2_000)),
            Just(Feed::Mixed(7)),
        ],
        observe in prop_oneof![Just(ObserveLevel::Off), Just(ObserveLevel::Counters)],
    ) {
        let case = trace(2_000).case(shapes::program(&program));
        let (scalar, scalar_engine) = case.run(Feed::Scalar, observe);
        let (batched, batch_engine) = case.run(feed, observe);
        case.check(&scalar);
        case.check(&batched);
        let (scalar_stats, batch_stats) = (scalar_engine.stats(), batch_engine.stats());
        prop_assert_eq!(
            detection_counters(&scalar_stats),
            detection_counters(&batch_stats),
            "detection counters diverged under {:?}",
            feed
        );
        prop_assert_eq!(
            scalar_stats.batches_processed,
            case.stream.len() as u64,
            "a `process` call is a batch of one"
        );
        prop_assert_eq!(batch_stats.batches_processed, batches(feed, case.stream.len()));
    }
}
