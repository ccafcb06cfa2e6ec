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

mod support;

use proptest::prelude::*;
use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::{EngineStats, ObserveLevel};
use rfid_events::{EventExpr, Instance, Observation};
use rfid_simulator::{SimConfig, SupplyChain};
use std::sync::OnceLock;
use support::reference::{self, Fingerprint};
use support::shapes::{shape, SHAPES, WINDOWS};

struct Fixture {
    sim: SupplyChain,
    stream: Vec<Observation>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = SupplyChain::build(SimConfig::default());
        let stream = sim.generate(2_000).observations;
        Fixture { sim, stream }
    })
}

/// How a run feeds the stream to the engine.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// One `process` call per observation — the counters' baseline.
    Scalar,
    /// `process_batch` over chunks of this size.
    Chunks(usize),
    /// Chunks of this size, alternately one `process_batch` call and one
    /// `process` call per element, on the same engine.
    Mixed(usize),
}

/// Runs one configuration; also returns how many batches the feed made.
fn rules(program: &[(usize, usize)]) -> Vec<EventExpr> {
    let rule = |&(idx, w): &(usize, usize)| shape(idx, WINDOWS[w]);
    program.iter().map(rule).collect()
}

fn run(
    observe: ObserveLevel,
    feed: Feed,
    program: &[(usize, usize)],
) -> (Vec<Fingerprint>, EngineStats, u64) {
    let fx = fixture();
    let config = EngineConfig {
        observe,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(fx.sim.catalog.clone(), config);
    for (pos, rule) in rules(program).into_iter().enumerate() {
        engine
            .add_rule(&format!("r{pos}"), rule)
            .expect("valid rule");
    }
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| {
        out.push((rule.0, inst.t_begin(), inst.t_end(), inst.observations()));
    };
    let size = match feed {
        Feed::Scalar => 1,
        Feed::Chunks(n) | Feed::Mixed(n) => n,
    };
    let mut batches = 0;
    for (i, chunk) in fx.stream.chunks(size).enumerate() {
        let per_observation = match feed {
            Feed::Scalar => true,
            Feed::Chunks(_) => false,
            Feed::Mixed(_) => i % 2 == 1,
        };
        if per_observation {
            for &obs in chunk {
                engine.process(obs, &mut sink);
            }
            batches += chunk.len() as u64;
        } else {
            engine.process_batch(chunk, &mut sink);
            batches += 1;
        }
    }
    engine.finish(&mut sink);
    out.sort();
    (out, engine.stats(), batches)
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
        let fx = fixture();
        let expected = reference::fire(&fx.sim.catalog, &rules(&program), &fx.stream);
        let (scalar_firings, scalar_stats, _) = run(observe, Feed::Scalar, &program);
        let (batch_firings, batch_stats, batches) = run(observe, feed, &program);
        prop_assert_eq!(
            &batch_firings,
            &expected,
            "firing multiset diverged from the reference under {:?}",
            feed
        );
        prop_assert_eq!(&scalar_firings, &expected, "scalar feed diverged from the reference");
        prop_assert_eq!(
            detection_counters(&scalar_stats),
            detection_counters(&batch_stats),
            "detection counters diverged under {:?}",
            feed
        );
        prop_assert_eq!(batch_stats.capacity_drops, 0, "outside the reference's domain");
        prop_assert_eq!(
            scalar_stats.batches_processed,
            fx.stream.len() as u64,
            "a `process` call is a batch of one"
        );
        prop_assert_eq!(batch_stats.batches_processed, batches);
    }
}
