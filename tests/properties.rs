//! Property-based tests over random observation streams: the engine's core
//! invariants must hold for *any* input, not just the staged scenarios.

use proptest::prelude::*;
use rfid_cep::engine::{Engine, EngineConfig, RuleId};
use rfid_cep::epc::{Epc, Gid96, ReaderId};
use rfid_cep::events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};

const READERS: u32 = 3;
const OBJECTS: u64 = 5;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..READERS {
        c.readers
            .register(&format!("r{i}"), &format!("r{i}"), "loc");
    }
    c
}

fn epc(n: u64) -> Epc {
    Gid96::new(1, 1, n).unwrap().into()
}

/// A random time-ordered stream: (reader, object, time).
fn stream_strategy() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec((0..READERS, 0..OBJECTS, 0u64..2_000), 0..120).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(r, o, dt)| {
                t += dt;
                Observation::new(ReaderId(r), epc(o), Timestamp::from_millis(t))
            })
            .collect()
    })
}

/// Runs a rule over a stream and collects every firing's constituent
/// observations.
fn run_rule(
    event: EventExpr,
    stream: &[Observation],
    config: EngineConfig,
) -> Vec<Vec<Observation>> {
    let mut engine = Engine::new(catalog(), config);
    engine.add_rule("prop", event).expect("valid rule");
    let mut out = Vec::new();
    let mut sink = |_: RuleId, inst: &Instance| out.push(inst.observations());
    for &obs in stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out
}

fn dup_rule() -> EventExpr {
    EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5))
}

fn seq_rule() -> EventExpr {
    EventExpr::observation_at("r0")
        .seq(EventExpr::observation_at("r1"))
        .within(Span::from_secs(10))
}

fn tseq_rule() -> EventExpr {
    EventExpr::observation_at("r0").tseq(
        EventExpr::observation_at("r1"),
        Span::from_secs(1),
        Span::from_secs(4),
    )
}

fn run_rule_pair(event: EventExpr, stream: &[Observation]) -> Vec<(Observation, Observation)> {
    run_rule(event, stream, EngineConfig::default())
        .into_iter()
        .map(|obs| {
            assert_eq!(obs.len(), 2);
            (obs[0], obs[1])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The correlation in Rule 1 must hold on every emitted pair, with the
    /// window respected.
    #[test]
    fn duplicate_pairs_share_reader_object_and_window(stream in stream_strategy()) {
        for (a, b) in run_rule_pair(dup_rule(), &stream) {
            prop_assert_eq!(a.reader, b.reader);
            prop_assert_eq!(a.object, b.object);
            prop_assert!(a.at <= b.at);
            prop_assert!(b.at.signed_delta(a.at) <= 5_000);
        }
    }

    /// Chronicle context: every observation participates in at most one
    /// occurrence of a given complex event, and pairs never interleave
    /// backwards (oldest initiator first). The stream may contain identical
    /// observations (same reader, object, and instant), which are distinct
    /// stream elements; consumption is therefore a multiset bound, not a
    /// set-membership one.
    #[test]
    fn chronicle_consumes_each_instance_once(stream in stream_strategy()) {
        let mut available = std::collections::HashMap::new();
        for obs in &stream {
            *available.entry(*obs).or_insert(0u32) += 1;
        }
        let pairs = run_rule_pair(seq_rule(), &stream);
        let mut used = std::collections::HashMap::new();
        let mut last_initiator = None;
        for (a, b) in &pairs {
            for obs in [a, b] {
                let n = used.entry(*obs).or_insert(0u32);
                *n += 1;
                prop_assert!(
                    *n <= available.get(obs).copied().unwrap_or(0),
                    "consumed more often than observed: {obs}"
                );
            }
            if let Some(prev) = last_initiator {
                prop_assert!(a.at >= prev, "initiators must be consumed oldest-first");
            }
            last_initiator = Some(a.at);
        }
    }

    /// TSEQ distance bounds are instance-level constraints: every emitted
    /// pair satisfies them exactly.
    #[test]
    fn tseq_bounds_hold_on_every_firing(stream in stream_strategy()) {
        for (a, b) in run_rule_pair(tseq_rule(), &stream) {
            let d = b.at.signed_delta(a.at);
            prop_assert!((1_000..=4_000).contains(&d), "dist {d} out of bounds");
        }
    }

    /// Detection is a pure function of the stream.
    #[test]
    fn detection_is_deterministic(stream in stream_strategy()) {
        let a = run_rule(dup_rule(), &stream, EngineConfig::default());
        let b = run_rule(dup_rule(), &stream, EngineConfig::default());
        prop_assert_eq!(a, b);
    }

    /// Twin leaves — one pattern, two graph nodes, the initiator's under an
    /// inner `WITHIN` — hand one read to both sides of a two-sided join as
    /// one instance. It terminates before it initiates and never pairs with
    /// itself (docs/SEMANTICS.md §2, §4), so the rule fires exactly what the
    /// self-join over the one merged leaf fires.
    #[test]
    fn twin_leaves_fire_like_the_self_join(stream in stream_strategy()) {
        let leaf = || EventExpr::observation().bind_reader("r").bind_object("o");
        let twin = leaf().within(Span::from_secs(1)).seq(leaf()).within(Span::from_secs(5));
        let twins = run_rule(twin, &stream, EngineConfig::default());
        prop_assert_eq!(twins, run_rule(dup_rule(), &stream, EngineConfig::default()));
    }

    /// Identical rules share one graph node and fire identically, whatever
    /// is registered between them.
    #[test]
    fn identical_rules_fire_identically(stream in stream_strategy()) {
        let mut engine = Engine::new(catalog(), EngineConfig::default());
        let first = engine.add_rule("a", seq_rule()).unwrap();
        engine.add_rule("b", dup_rule()).unwrap();
        let again = engine.add_rule("c", seq_rule()).unwrap();
        let mut out: Vec<(RuleId, Vec<Observation>)> = Vec::new();
        let mut sink = |r: RuleId, inst: &Instance| out.push((r, inst.observations()));
        for &obs in &stream {
            engine.process(obs, &mut sink);
        }
        engine.finish(&mut sink);
        let of = |rule: RuleId| -> Vec<&Vec<Observation>> {
            out.iter().filter(|(r, _)| *r == rule).map(|(_, o)| o).collect()
        };
        prop_assert_eq!(of(first), of(again));
    }

    /// TSEQ+ runs respect the gap bounds between all adjacent elements and
    /// the WITHIN interval.
    #[test]
    fn tseqplus_runs_respect_gaps(stream in stream_strategy()) {
        let event = EventExpr::observation_at("r0")
            .tseq_plus(Span::from_millis(0), Span::from_millis(1_500))
            .within(Span::from_secs(30));
        for run in run_rule(event, &stream, EngineConfig::default()) {
            prop_assert!(!run.is_empty());
            for w in run.windows(2) {
                let gap = w[1].at.signed_delta(w[0].at);
                prop_assert!((0..=1_500).contains(&gap), "gap {gap}");
            }
            let span = run.last().unwrap().at.signed_delta(run.first().unwrap().at);
            prop_assert!(span <= 30_000);
        }
    }

    /// Negation soundness: WITHIN(E1 ∧ ¬E2, τ) never fires when an E2
    /// exists within τ of the E1, and always fires when none does.
    #[test]
    fn negation_is_sound_and_complete(stream in stream_strategy()) {
        let event = EventExpr::observation_at("r0")
            .and(EventExpr::observation_at("r1").not())
            .within(Span::from_secs(3));
        let firings = run_rule(event, &stream, EngineConfig::default());
        let fired_at: std::collections::HashSet<Timestamp> =
            firings.iter().map(|o| o[0].at).collect();

        for obs in stream.iter().filter(|o| o.reader == ReaderId(0)) {
            let blocked = stream.iter().any(|e2| {
                e2.reader == ReaderId(1) && e2.at.signed_delta(obs.at).unsigned_abs() <= 3_000
            });
            if blocked {
                prop_assert!(
                    !fired_at.contains(&obs.at) ||
                    // Two r0 observations at the same instant: the firing may
                    // belong to the other one; skip the ambiguous case.
                    stream.iter().filter(|o| o.reader == ReaderId(0) && o.at == obs.at).count() > 1,
                    "fired despite an r1 within the window (t={})",
                    obs.at
                );
            } else {
                prop_assert!(
                    fired_at.contains(&obs.at),
                    "missed an unaccompanied r0 at t={}",
                    obs.at
                );
            }
        }
    }
}
