//! Firings do not depend on how a stream is cut into batches: for any
//! rule program drawn from the differential suites' shape pool
//! (`support/shapes.rs`: every plan variant the lowering distinguishes, so
//! every arrival handler and every expiring store), feeding a simulator
//! trace through `Engine::process_batch` at any chunking — or interleaving
//! it with per-observation `Engine::process` calls on the same engine —
//! must emit exactly the same multiset of rule firings, and the same
//! counter totals, as feeding it one observation at a time. This is the
//! differential harness behind the batch loop (DESIGN.md §13): batching
//! only amortizes dispatch and pseudo-queue peeks; it never changes what
//! the engine detects. The batched firings are held to the reference
//! interpreter (`support/reference.rs`) as well, so the property is "every
//! chunking fires what docs/SEMANTICS.md says", not merely "every chunking
//! agrees".
//!
//! Expiry is pinned too: a store drops its dead entries when it admits,
//! at that admission's clock, so nothing waits for a batch boundary. The
//! expiry counts (`sweeps`, `sweeps_skipped`, every node's prunes), the
//! state gauges (buffered entries, retained and join keys) and the
//! detection counters are the same under every chunking; only the batch
//! count differs.

mod differential;
mod support;

use differential::{trace, Feed};
use proptest::prelude::*;
use rceda::{Engine, EngineStats, ObserveLevel};
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

/// The counters batching must not change: detection, expiry and the
/// state gauges.
fn stream_counters(s: &EngineStats) -> [u64; 12] {
    [
        s.events,
        s.matched_events,
        s.occurrences,
        s.rule_firings,
        s.pseudo_scheduled,
        s.pseudo_fired,
        s.capacity_drops,
        s.sweeps,
        s.sweeps_skipped,
        s.buffered_entries,
        s.retained_keys,
        s.join_keys,
    ]
}

/// Every node's prune count (all zero below `ObserveLevel::Counters`).
fn prunes(engine: &mut Engine) -> Vec<u64> {
    let nodes = engine.telemetry().nodes;
    (0..nodes.len()).map(|idx| nodes.node(idx).prunes).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any program of up to four rules from the shape pool fires
    /// identically — what the reference fires, with identical detection
    /// and expiry counters — whether the stream is fed per observation, in
    /// batches of any size, or both interleaved.
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
        let (scalar, mut scalar_engine) = case.run(Feed::Scalar, observe);
        let (batched, mut batch_engine) = case.run(feed, observe);
        case.check(&scalar);
        case.check(&batched);
        let (scalar_stats, batch_stats) = (scalar_engine.stats(), batch_engine.stats());
        prop_assert_eq!(
            stream_counters(&scalar_stats),
            stream_counters(&batch_stats),
            "counters diverged under {:?}",
            feed
        );
        prop_assert_eq!(
            prunes(&mut scalar_engine),
            prunes(&mut batch_engine),
            "prunes diverged under {:?}",
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A rule sees the stream from its load (docs/SEMANTICS.md §6): in a
    /// program of up to four rules from the shape pool whose odd-indexed
    /// rules are loaded at one drawn batch boundary, each rule fires what
    /// the reference fires for it over the stream from its load, whatever
    /// it spells of the rules loaded before it. A `twin` draw gives an
    /// odd-indexed rule the shape of the rule before it, so a late rule
    /// often spells an earlier rule's nodes.
    #[test]
    fn a_rule_loaded_mid_stream_fires_from_its_load(
        draws in proptest::collection::vec(
            (0usize..SHAPES, 0usize..WINDOWS.len(), any::<bool>()),
            1..=4,
        ),
        at in 1usize..2_000,
        feed in prop_oneof![Just(Feed::Scalar), Just(Feed::Chunks(64)), Just(Feed::Mixed(7))],
    ) {
        let mut program: Vec<(usize, usize)> = Vec::new();
        for (pos, &(shape, window, twin)) in draws.iter().enumerate() {
            let shape = if pos % 2 == 1 && twin { program[pos - 1].0 } else { shape };
            program.push((shape, window));
        }
        let loads = (0..program.len()).map(|pos| if pos % 2 == 1 { at } else { 0 });
        let case = trace(2_000).case(shapes::program(&program)).loaded_at(loads.collect());
        let (fired, engine) = case.run(feed, ObserveLevel::Off);
        case.check(&fired);
        prop_assert_eq!(engine.stats().events, case.stream.len() as u64);
    }
}
