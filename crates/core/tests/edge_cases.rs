//! Engine edge cases beyond the paper's worked examples: lagged
//! deliveries, unbounded windows, dynamic rule addition, buffer hygiene,
//! and composite negation.

mod differential;
mod support;

use std::sync::Arc;

use differential::{fingerprint, fingerprints, Case, Feed, Firing};
use rceda::engine::PROCESS_ALL_BATCH;
use rceda::{Engine, EngineConfig, ObserveLevel, RuleId};
use rfid_epc::{Epc, Gid96, ReaderId};
use rfid_events::{Catalog, EventExpr, Instance, Observation, Span, Timestamp};

fn catalog(n: u32) -> Catalog {
    let mut c = Catalog::new();
    for i in 1..=n {
        c.readers
            .register(&format!("r{i}"), &format!("r{i}"), "loc");
    }
    c
}

fn epc(n: u64) -> Epc {
    Gid96::new(1, 1, n).unwrap().into()
}

fn obs(reader: u32, serial: u64, ms: u64) -> Observation {
    Observation::new(
        ReaderId(reader - 1),
        epc(serial),
        Timestamp::from_millis(ms),
    )
}

fn at(reader: &str) -> rfid_events::expr::ObservationBuilder {
    EventExpr::observation_at(reader)
}

fn collect(engine: &mut Engine, stream: Vec<Observation>) -> Vec<(RuleId, Arc<Instance>)> {
    let mut out = Vec::new();
    engine.process_all(stream, &mut |r, i| out.push((r, Arc::new(i.clone()))));
    out
}

/// A terminator arriving *before* the initiator's TSEQ+ run has closed must
/// still pair once the closure pseudo event delivers the run (the right
/// buffer exists exactly for this).
#[test]
fn terminator_before_run_closure_still_pairs() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    let event = at("r1").tseq_plus(Span::ZERO, Span::from_secs(10)).tseq(
        at("r2"),
        Span::ZERO,
        Span::from_secs(20),
    );
    engine.add_rule("lagged", event).unwrap();

    let fired = collect(
        &mut engine,
        vec![
            obs(1, 1, 0),
            obs(2, 9, 1_000), // case read 1s later; run closes at t=10s
        ],
    );
    assert_eq!(fired.len(), 1);
    let times: Vec<u64> = fired[0]
        .1
        .observations()
        .iter()
        .map(|o| o.at.as_millis())
        .collect();
    assert_eq!(times, vec![0, 1_000]);
}

/// SEQ(¬A; B) with no WITHIN bound: "B never preceded by any A" — answered
/// from the epoch via the per-key earliest-occurrence marker, which must
/// survive pruning.
#[test]
fn unbounded_negation_initiator_uses_first_seen() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    let event = at("r1").not().seq(at("r2"));
    engine.add_rule("never-before", event).unwrap();

    let fired = collect(
        &mut engine,
        vec![
            obs(2, 1, 1_000),   // no r1 ever: fires
            obs(1, 9, 2_000),   // an r1 occurs
            obs(2, 2, 500_000), // long after (past any retention): must NOT fire
        ],
    );
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].1.observations()[0].at, Timestamp::from_secs(1));
}

/// Negation over a *composite* inner event: ¬(A;B) records sequence
/// occurrences, not primitives.
#[test]
fn negation_over_composite_event() {
    let mut engine = Engine::new(catalog(3), EngineConfig::default());
    let ab = at("r1").seq(at("r2")).within(Span::from_secs(5));
    let event = EventExpr::Not(Box::new(ab))
        .seq(at("r3"))
        .within(Span::from_secs(30));
    engine.add_rule("no-ab-then-c", event).unwrap();

    // A then B (a full AB occurrence) then C: blocked.
    let fired = collect(
        &mut engine,
        vec![obs(1, 1, 0), obs(2, 2, 1_000), obs(3, 3, 10_000)],
    );
    assert!(fired.is_empty(), "the AB occurrence blocks C");

    // A alone (no B): the AB event never occurred, so C fires.
    let mut engine2 = Engine::new(catalog(3), EngineConfig::default());
    let ab = at("r1").seq(at("r2")).within(Span::from_secs(5));
    let event = EventExpr::Not(Box::new(ab))
        .seq(at("r3"))
        .within(Span::from_secs(30));
    engine2.add_rule("no-ab-then-c", event).unwrap();
    let fired = collect(&mut engine2, vec![obs(1, 1, 0), obs(3, 3, 10_000)]);
    assert_eq!(fired.len(), 1);
}

/// AND of a TSEQ+ run with a primitive: the run's closure (a pseudo event)
/// participates in a two-sided join like any push instance.
#[test]
fn and_of_run_and_primitive() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    let event = at("r1")
        .tseq_plus(Span::ZERO, Span::from_secs(1))
        .and(at("r2"))
        .within(Span::from_secs(60));
    engine.add_rule("run-and-prim", event).unwrap();

    let fired = collect(
        &mut engine,
        vec![obs(1, 1, 0), obs(1, 2, 500), obs(2, 9, 30_000)],
    );
    assert_eq!(fired.len(), 1);
    assert_eq!(
        fired[0].1.observations().len(),
        3,
        "two run elements + the primitive"
    );
}

/// Rules can be added mid-stream; they see only subsequent events.
#[test]
fn dynamic_rule_addition() {
    let mut engine = Engine::new(catalog(1), EngineConfig::default());
    let mut fired = Vec::new();
    let mut sink = |r: RuleId, _: &Instance| fired.push(r);

    engine.process(obs(1, 1, 0), &mut sink);
    let rule = engine.add_rule("late", at("r1").build()).unwrap();
    engine.process(obs(1, 2, 1_000), &mut sink);
    engine.finish(&mut sink);

    assert_eq!(fired, vec![rule], "only the post-registration event fired");
}

/// A rejected rule takes no id but leaves the nodes built before the
/// rejection in the graph; their leaves dispatch, so they need state even
/// when no later rule is added.
#[test]
fn rejected_rule_leaves_a_working_engine() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    let rejected = at("r1").seq(at("r2").build().not());
    assert!(engine.add_rule("rejected", rejected).is_err());
    assert_eq!(engine.rule_count(), 0);
    let fired = collect(&mut engine, vec![obs(1, 1, 0), obs(2, 1, 1_000)]);
    assert!(fired.is_empty());

    // Rejected on a running engine too: the plan and the telemetry tables
    // follow the graph.
    let nodes = engine.graph().len();
    let rejected = at("r2").seq(at("r1").build().not());
    assert!(engine.add_rule("rejected-late", rejected).is_err());
    assert!(engine.graph().len() > nodes, "the rejection left nodes");
    let fired = collect(&mut engine, vec![obs(2, 2, 2_000), obs(1, 2, 3_000)]);
    assert!(fired.is_empty());
    let snap = engine.telemetry();
    assert_eq!(snap.ops.len(), engine.graph().len());
    assert_eq!(snap.nodes.len(), snap.ops.len());
}

/// The unbounded-buffer cap evicts oldest initiators instead of growing
/// without limit (plain SEQ with no WITHIN).
#[test]
fn unbounded_seq_is_capped() {
    let config = EngineConfig {
        unbounded_cap: 16,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(catalog(2), config);
    engine
        .add_rule("unbounded", at("r1").seq(at("r2")))
        .unwrap();

    let stream: Vec<Observation> = (0..100).map(|i| obs(1, i, i * 10)).collect();
    let _ = collect(&mut engine, stream);
    let stats = engine.stats();
    assert_eq!(stats.capacity_drops, 100 - 16, "oldest 84 evicted");
}

/// Sweeping prunes aged buffers; correctness after many windows' worth of
/// traffic is unchanged. Fed per observation, so every call is a batch
/// boundary with its own deadline check.
#[test]
fn sweeping_does_not_disturb_detection() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine
        .add_rule("seq", at("r1").seq(at("r2")).within(Span::from_secs(2)))
        .unwrap();

    // 1000 pairs, each well separated; every pair must fire despite sweeps.
    let mut stream = Vec::new();
    for i in 0..1000u64 {
        stream.push(obs(1, i, i * 10_000));
        stream.push(obs(2, i + 10_000, i * 10_000 + 1_000));
    }
    let mut fired = 0;
    let mut sink = |_: RuleId, _: &Instance| fired += 1;
    for obs in stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    assert_eq!(fired, 1000);
    assert!(engine.stats().sweeps > 0);
}

/// `advance_to` resolves windows without observations (quiet-stream
/// heartbeat), and time never runs backwards.
#[test]
fn advance_to_resolves_windows() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine
        .add_rule(
            "alone",
            at("r1").and(at("r2").not()).within(Span::from_secs(5)),
        )
        .unwrap();

    let fired = std::cell::Cell::new(0u32);
    let mut sink = |_: RuleId, _: &Instance| fired.set(fired.get() + 1);
    engine.process(obs(1, 1, 0), &mut sink);
    assert_eq!(fired.get(), 0, "window still open");
    engine.advance_to(Timestamp::from_secs(4), &mut sink);
    assert_eq!(fired.get(), 0, "window closes at t=5, exclusive tick at 4");
    engine.advance_to(Timestamp::from_secs(6), &mut sink);
    assert_eq!(fired.get(), 1, "heartbeat resolved the negation");
}

/// A read behind the engine clock is rejected, not matched: a stream with
/// one late read fires exactly what it fires without that read, and counts
/// it in `late_rejected` instead of `events`. A read at exactly the clock
/// is on time.
#[test]
fn a_late_read_is_rejected_and_a_same_instant_read_fires() {
    let run = |stream: Vec<Observation>| {
        let mut engine = Engine::new(catalog(2), EngineConfig::default());
        let event = at("r1")
            .bind_object("o")
            .seq(at("r2").bind_object("o"))
            .within(Span::from_secs(5));
        engine.add_rule("moved", event).unwrap();
        let fired = collect(&mut engine, stream);
        let fired: Vec<(u64, u64)> = fired
            .iter()
            .map(|(_, i)| (i.t_begin().as_millis(), i.t_end().as_millis()))
            .collect();
        (fired, engine.stats())
    };
    let on_time = vec![
        obs(1, 1, 1_000),
        obs(1, 3, 2_000),
        obs(2, 2, 3_000),
        // At the clock: pairs with the r1 read of object 3.
        obs(2, 3, 3_000),
    ];
    let mut with_late = on_time.clone();
    // Behind the clock (3 s): matched, it would pair with object 1's read.
    with_late.insert(3, obs(2, 1, 2_500));

    let (expected, clean) = run(on_time);
    assert_eq!(expected, [(2_000, 3_000)], "the same-instant read fires");
    assert_eq!(clean.late_rejected, 0);
    let (fired, stats) = run(with_late);
    assert_eq!(fired, expected, "the late read was matched");
    assert_eq!(stats.late_rejected, 1);
    assert_eq!(stats.events, clean.events);
}

/// OR forwards occurrences of either branch and both firings carry the OR
/// wrapper (stable child indexing for bindings).
#[test]
fn or_wraps_instances() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine.add_rule("or", at("r1").or(at("r2"))).unwrap();
    let fired = collect(&mut engine, vec![obs(1, 1, 0), obs(2, 2, 100)]);
    assert_eq!(fired.len(), 2);
    for (_, inst) in &fired {
        assert_eq!(inst.children().len(), 1, "OR wraps exactly one constituent");
    }
}

/// Identical rules registered twice fire twice per occurrence (merged to
/// one node, fanned out to both rules).
#[test]
fn duplicate_rules_fan_out() {
    let mut engine = Engine::new(catalog(1), EngineConfig::default());
    let a = engine.add_rule("a", at("r1").build()).unwrap();
    let b = engine.add_rule("b", at("r1").build()).unwrap();
    assert_eq!(engine.rule_root(a), engine.rule_root(b), "merged");
    let fired = collect(&mut engine, vec![obs(1, 1, 0)]);
    let mut rules: Vec<RuleId> = fired.iter().map(|(r, _)| *r).collect();
    rules.sort();
    assert_eq!(rules, vec![a, b]);
}

/// Disabling a rule silences it without touching other rules on the same
/// (merged) node; re-enabling restores it.
#[test]
fn rule_enable_disable() {
    let mut engine = Engine::new(catalog(1), EngineConfig::default());
    let a = engine.add_rule("a", at("r1").build()).unwrap();
    let b = engine.add_rule("b", at("r1").build()).unwrap();
    assert!(engine.rule_enabled(a));

    let was = engine.set_rule_enabled(a, false);
    assert!(was);
    let mut fired = Vec::new();
    engine.process(obs(1, 1, 0), &mut |r, _| fired.push(r));
    assert_eq!(fired, vec![b], "only the enabled rule fires");

    engine.set_rule_enabled(a, true);
    fired.clear();
    engine.process(obs(1, 2, 1_000), &mut |r, _| fired.push(r));
    assert_eq!(fired.len(), 2);
}

/// The three window-family shapes over one object key, `ms` wide.
fn family_shape(idx: usize, ms: u64) -> EventExpr {
    let r1 = || at("r1").bind_object("o");
    let window = Span::from_millis(ms);
    match idx {
        0 => r1().seq(r1()).within(window),
        1 => r1().not().seq(r1()).within(window),
        _ => r1().and(at("r2").bind_object("o").not()).within(window),
    }
}

/// A keyed stream with repeats, bursts at one instant, and gaps on both
/// sides of every window used below.
fn family_stream(len: usize) -> Vec<Observation> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let mut ms = 0;
    (0..len)
        .map(|_| {
            ms += [0, 0, 250, 500, 1_000, 2_500, 7_000][next(7) as usize];
            obs(1 + next(2) as u32, next(3), ms)
        })
        .collect()
}

/// Rules added to (or disabled on) a running engine may widen, narrow or
/// silence a window family, and may take a member out of it. None of that
/// may change what the rules that were already there fire: the family's
/// state stays at its first-registered member, the cut-offs and retention
/// are recomputed, and a member that leaves carries on from a copy.
#[test]
fn family_changes_mid_stream_leave_existing_members_alone() {
    let seed_rules = [
        (0, 2_000),
        (0, 5_000),
        (1, 3_000),
        (1, 6_000),
        (2, 2_000),
        (2, 4_000),
    ];
    let build = || {
        let mut engine = Engine::new(catalog(2), EngineConfig::default());
        for (pos, &(idx, ms)) in seed_rules.iter().enumerate() {
            engine
                .add_rule(&format!("seed{pos}"), family_shape(idx, ms))
                .unwrap();
        }
        engine
    };
    let stream = family_stream(2_000);
    let (head, tail) = stream.split_at(1_000);
    let seeds = seed_rules.len() as u32;
    let run = |engine: &mut Engine, part: &[Observation], out: &mut Vec<_>| {
        engine.process_batch(part, &mut |r: RuleId, i: &Instance| {
            if r.0 < seeds {
                out.push(fingerprint(r, i));
            }
        });
    };

    let mut untouched = build();
    let mut expected = Vec::new();
    run(&mut untouched, head, &mut expected);
    run(&mut untouched, tail, &mut expected);
    untouched.finish(&mut |r, i| expected.push(fingerprint(r, i)));
    assert!(expected.len() > 500, "the stream exercises every seed rule");

    let mut changed = build();
    let mut got = Vec::new();
    run(&mut changed, head, &mut got);
    let root = |engine: &Engine, rule: u32| engine.rule_root(RuleId(rule));
    let (dup2, dup5) = (root(&changed, 0), root(&changed, 1));
    let (infield3, infield6) = (root(&changed, 2), root(&changed, 3));
    assert_eq!(changed.compiled_plan().holder(dup5), dup2);
    assert_eq!(changed.compiled_plan().holder(infield6), infield3);
    // Wider and narrower members for every shape.
    for (idx, ms) in [(0, 9_000), (0, 1_000), (1, 12_000), (1, 500), (2, 8_000)] {
        changed.add_rule("late", family_shape(idx, ms)).unwrap();
    }
    // Two roots gain a parent: they hash-cons into these rules' initiators,
    // stop being rule roots only, and leave their families. The 2 s
    // duplicate root is its family's holder, so the family regroups under
    // the 5 s one; the 6 s in-field root is a member and just leaves.
    for (idx, ms) in [(0, 2_000), (1, 6_000)] {
        let nested = family_shape(idx, ms).seq(at("r2").bind_object("p"));
        changed.add_rule("nested", nested).unwrap();
    }
    // A shared `NOT` gains a history spec: this rule's `NOT` hash-conses
    // onto the 6 s one, and its unkeyed terminator registers an empty-key
    // spec there that the 3 s holder lacks. The 6 s `NOT` leaves the shared
    // history with a copy, sized for both specs before the next record.
    let not6 = changed.graph().node(infield6).children[0];
    assert_ne!(
        changed.compiled_plan().holder(not6),
        not6,
        "shares a history"
    );
    let unkeyed = at("r1")
        .bind_object("o")
        .not()
        .seq(at("r1"))
        .within(Span::from_secs(6));
    changed.add_rule("unkeyed", unkeyed).unwrap();
    assert_eq!(changed.graph().hist_specs(not6).len(), 2);
    // A late member disabled right away must stay silent and harmless.
    let silenced = changed
        .add_rule("silenced", family_shape(0, 20_000))
        .unwrap();
    changed.set_rule_enabled(silenced, false);
    run(&mut changed, tail, &mut got);
    let plan = changed.compiled_plan();
    assert_eq!(plan.holder(dup2), dup2, "the old holder keeps its state");
    assert_eq!(plan.family(dup2).len(), 1);
    assert_eq!(plan.family(dup5).len(), 4, "5 s, 9 s, 1 s and the silenced");
    assert_eq!(plan.holder(infield6), infield6, "left");
    assert_eq!(plan.holder(not6), not6, "left its shared history");
    assert_eq!(plan.family(infield3).len(), 3, "3 s, 12 s, 0.5 s");
    changed.finish(&mut |r, i| {
        if r.0 < seeds {
            got.push(fingerprint(r, i));
        }
    });

    assert_eq!(changed.firings_per_rule()[silenced.0 as usize], 0);
    let late_fired: u64 = changed.firings_per_rule()[seeds as usize..].iter().sum();
    assert!(late_fired > 0, "the added members detect too");
    expected.sort();
    got.sort();
    assert_eq!(got, expected);
}

/// `reset()` restores a fresh engine without recompiling rules.
#[test]
fn reset_clears_state_keeps_rules() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine
        .add_rule("seq", at("r1").seq(at("r2")).within(Span::from_secs(5)))
        .unwrap();

    let mut fired = 0u32;
    engine.process_all(
        vec![obs(1, 1, 0), obs(2, 2, 2_000)],
        &mut |_, _: &Instance| fired += 1,
    );
    assert_eq!(fired, 1);
    assert_eq!(engine.firings_per_rule(), &[1]);

    engine.reset();
    assert_eq!(engine.stats().events, 0);
    assert_eq!(engine.firings_per_rule(), &[0]);
    assert_eq!(engine.buffered_instances(), 0);

    // A second pass starting at t=0 again (which would violate monotonic
    // time without the reset) detects identically.
    let mut fired = 0u32;
    engine.process_all(
        vec![obs(1, 3, 0), obs(2, 4, 2_000)],
        &mut |_, _: &Instance| fired += 1,
    );
    assert_eq!(fired, 1);
    assert_eq!(engine.firings_per_rule(), &[1]);
}

/// A pattern naming a reader absent from the catalog never matches and
/// never panics.
#[test]
fn unknown_reader_pattern_is_inert() {
    let mut engine = Engine::new(catalog(1), EngineConfig::default());
    engine
        .add_rule("ghost", EventExpr::observation_at("ghost-reader").build())
        .unwrap();
    let fired = collect(&mut engine, vec![obs(1, 1, 0)]);
    assert!(fired.is_empty());
}

/// Deeply nested expressions compile and detect (stacking all constructor
/// kinds in one rule).
#[test]
fn deeply_nested_rule() {
    let mut engine = Engine::new(catalog(4), EngineConfig::default());
    let event = at("r1")
        .or(at("r2"))
        .tseq_plus(Span::ZERO, Span::from_secs(2))
        .seq(at("r3").and(at("r4").not()).within(Span::from_secs(3)))
        .within(Span::from_mins(2));
    engine.add_rule("tower", event).unwrap();
    assert!(engine.graph().len() >= 7);

    let fired = collect(
        &mut engine,
        vec![
            obs(1, 1, 0),
            obs(2, 2, 1_000),  // run of two (via OR)
            obs(3, 3, 20_000), // r3 with no r4 within 3s
        ],
    );
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].1.observations().len(), 3);
}

/// The working set stays bounded under sustained traffic: the deadline
/// sweep at each per-observation batch boundary keeps buffered instances
/// proportional to the window, not to the stream length.
#[test]
fn working_set_is_bounded_by_the_window() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine
        .add_rule("seq", at("r1").seq(at("r2")).within(Span::from_secs(2)))
        .unwrap();

    let mut peak_after_warmup = 0usize;
    let mut sink = |_: RuleId, _: &Instance| {};
    // Only initiators, never matched: without pruning this grows to 50_000.
    for i in 0..50_000u64 {
        engine.process(obs(1, i, i * 100), &mut sink);
        if i > 10_000 {
            peak_after_warmup = peak_after_warmup.max(engine.buffered_instances());
        }
    }
    // 2s window at 10 obs/sec ≈ tens of entries, not thousands.
    assert!(
        peak_after_warmup < 100,
        "working set grew to {peak_after_warmup} — pruning is broken"
    );
}

/// A `TSEQ` whose terminator is a composite retires its initiators one
/// maximum distance after they end: the distance runs end to end, so how
/// long the terminator spans adds nothing to how long an initiator can
/// wait. The left side is bounded by time, so the cap never applies.
#[test]
fn tseq_over_a_composite_terminator_keeps_one_distance_of_initiators() {
    let mut engine = Engine::new(catalog(3), EngineConfig::default());
    let terminator = at("r2").bind_object("o").seq(at("r3").bind_object("o"));
    let rule = at("r1")
        .bind_object("o")
        .tseq(terminator, Span::ZERO, Span::from_secs(5));
    engine.add_rule("nested", rule).unwrap();

    let mut peak = 0usize;
    let mut sink = |_: RuleId, _: &Instance| {};
    // Unmatched initiators, a fresh object every 10 ms: 5 s is 501 reads,
    // both ends included; without pruning this grows to 100_000.
    for i in 0..100_000u64 {
        engine.process(obs(1, i, i * 10), &mut sink);
        peak = peak.max(engine.buffered_instances());
    }
    assert!(
        peak <= 501,
        "{peak} initiators buffered, over one τu of reads"
    );
    assert_eq!(engine.stats().capacity_drops, 0);
}

/// What the engine fires over `stream`, in delivery order, held to the
/// reference as full instances.
fn fire_checked(catalog: &Catalog, rules: &[EventExpr], stream: &[Observation]) -> Vec<Firing> {
    let case = Case::new(catalog, rules.to_vec(), stream);
    let (fired, _) = case.run(Feed::Chunks(PROCESS_ALL_BATCH), ObserveLevel::Off);
    case.check(&fired);
    fired
}

/// A negated initiator's window `[t_end − τu, min(t_end − τl, t_begin)]`
/// is empty once a composite terminator spans more than `τu`: no initiator
/// can stand at that distance, so the negation holds and the rule fires,
/// its witness clamped to `[to, to]` — here the terminator's begin. The
/// `r1` read inside the terminator's span blocks nothing.
#[test]
fn an_empty_negated_window_fires_with_its_witness_clamped() {
    let catalog = catalog(3);
    let read = |reader: &str| at(reader).bind_object("o");
    let terminator = read("r2").seq(read("r3"));
    let rule = read("r1")
        .not()
        .tseq(terminator, Span::from_secs(1), Span::from_secs(2));
    let stream = [obs(2, 1, 0), obs(1, 1, 5_000), obs(3, 1, 10_000)];
    let fired = fire_checked(&catalog, &[rule], &stream);

    let read = |o: Observation| Arc::new(Instance::observation(o));
    let terminator = Instance::pair("SEQ", read(stream[0]), read(stream[2]));
    let witness = Instance::absence(Timestamp::ZERO, Timestamp::ZERO);
    let expected = Instance::pair("TSEQ", Arc::new(witness), Arc::new(terminator));
    assert_eq!(fired, [(0, expected)]);
}

/// One negated-initiator rule under four maximum distances, over a
/// terminator that spans 5 s and one that spans 1 s. Over the long one the
/// 1 s and 3 s windows are empty and fire, the 6 s window opens before the
/// terminator and fires, and the 12 s window holds the `r1` read at 1 s.
/// Over the short one only the 1 s window misses the `r1` read at 19.5 s.
/// A composite terminator keeps these rules out of one window family, so
/// each is a family of one; the last two rules nest the 3 s and 6 s roots
/// under a parent, so those roots are sole members that feed one.
#[test]
fn negated_windows_empty_for_some_distances_fire_like_the_reference() {
    let catalog = catalog(4);
    let read = |reader: &str| at(reader).bind_object("o");
    let rule = |max_s: u64| {
        let terminator = read("r2").seq(read("r3")).within(Span::from_secs(5));
        read("r1")
            .not()
            .tseq(terminator, Span::ZERO, Span::from_secs(max_s))
    };
    let then_r4 = |max_s: u64| rule(max_s).seq(read("r4")).within(Span::from_secs(20));
    let rules = [rule(1), rule(3), rule(6), rule(12), then_r4(3), then_r4(6)];
    let stream = [
        obs(1, 1, 1_000),
        obs(2, 1, 4_000),
        obs(3, 1, 9_000),
        obs(4, 1, 10_000),
        obs(1, 2, 19_500),
        obs(2, 2, 20_000),
        obs(3, 2, 21_000),
        obs(4, 2, 22_000),
    ];
    let fired = fire_checked(&catalog, &rules, &stream);
    let per_rule = |r: u32| fired.iter().filter(|f| f.0 == r).count();
    assert_eq!([0, 1, 2, 3, 4, 5].map(per_rule), [2, 1, 1, 0, 1, 1]);
    let witness = |f: &Firing| {
        let w = &f.1.children()[0];
        (w.t_begin().as_millis(), w.t_end().as_millis())
    };
    let long = Timestamp::from_secs(9);
    let over_long = |r: u32| fired.iter().find(|f| f.0 == r && f.1.t_end() == long);
    let windows = [0, 1, 2].map(|r| over_long(r).map(witness));
    assert_eq!(
        windows,
        [
            Some((4_000, 4_000)),
            Some((4_000, 4_000)),
            Some((3_000, 4_000))
        ]
    );
}

/// An unbounded maximum gap — `Span::MAX`, what a script's oversized
/// literal such as `99999999999999999999 sec` parses to — keeps a `TSEQ+`
/// run open to the end of the stream: its closure lies in the far future,
/// not wrapped into the past where every arrival would close the run.
#[test]
fn tseq_plus_with_an_unbounded_gap_runs_to_the_end_of_the_stream() {
    let catalog = catalog(1);
    let rule = at("r1")
        .tseq_plus(Span::ZERO, Span::MAX)
        .within(Span::from_secs(60));
    let stream = [obs(1, 1, 1_000), obs(1, 2, 2_000), obs(1, 3, 3_000)];
    let fired = fire_checked(&catalog, &[rule], &stream);
    assert_eq!(fired.len(), 1, "one run");
    assert_eq!(fired[0].1.observations(), stream, "of all three reads");
}

/// The same for the negation waits, whose window closes `τu` after the
/// initiator: a bound unbounded waits are rejected for, but one just short
/// of it — still past every timestamp a stream carries — waits to the end
/// of the stream instead of closing before it opened.
#[test]
fn negation_waits_near_the_clock_limit_run_to_the_end_of_the_stream() {
    let catalog = catalog(2);
    let huge = Span::from_millis(u64::MAX - 1);
    let rules = [
        at("r1").tseq(at("r2").not(), Span::ZERO, huge),
        at("r1").seq(at("r2").not()).within(huge),
        at("r1").and(at("r2").not()).within(huge),
    ];
    let stream = [obs(1, 1, 1_000), obs(2, 2, 2_000), obs(1, 3, 3_000)];
    let fired = fingerprints(&fire_checked(&catalog, &rules, &stream));
    // The r2 read blocks the first r1 read under every rule and the second
    // under `AND` (it lies in the window's past half).
    assert_eq!(fired.iter().map(|f| f.0).collect::<Vec<_>>(), [0, 1]);
}

/// Keys are built once per arrival per interned key spec, so parents that
/// read one composite child under different paths must each get their
/// own key: `a` is `Child(0, Obs(Object))` of the shared `SEQ`, `b` is
/// `Child(1, Obs(Object))` — same attribute, different child. The third
/// rule reads the same list as the first on another parent and shares its
/// key.
#[test]
fn parents_reading_one_child_under_different_paths_keep_their_keys() {
    let catalog = catalog(3);
    let pair = || {
        at("r1")
            .bind_object("a")
            .seq(at("r2").bind_object("b"))
            .within(Span::from_secs(5))
    };
    let rules = [
        pair()
            .seq(at("r3").bind_object("a"))
            .within(Span::from_secs(10)),
        pair()
            .seq(at("r3").bind_object("b"))
            .within(Span::from_secs(10)),
        pair()
            .and(at("r3").bind_object("a"))
            .within(Span::from_secs(10)),
    ];
    let stream = [
        obs(1, 1, 0),
        obs(2, 2, 1_000), // pair(a = 1, b = 2)
        obs(3, 2, 2_000), // matches b only
        obs(3, 1, 3_000), // matches a only
        obs(1, 3, 4_000),
        obs(2, 3, 5_000), // pair(a = 3, b = 3)
        obs(3, 3, 6_000), // matches both
    ];
    let named = rules.iter().map(|rule| ("rule", rule));
    let engine = Engine::with_rules(catalog.clone(), EngineConfig::default(), named).unwrap();
    let root = |rule: u32| engine.graph().node(engine.rule_root(RuleId(rule)));
    assert_eq!(
        root(0).children[0],
        root(1).children[0],
        "one shared pair node"
    );
    assert_ne!(
        root(0).join.ids[0],
        root(1).join.ids[0],
        "a and b are two specs"
    );
    assert_eq!(
        root(0).join.ids[0],
        root(2).join.ids[0],
        "equal lists, one spec"
    );

    let fired = fire_checked(&catalog, &rules, &stream);
    let per_rule = |r: u32| fired.iter().filter(|f| f.0 == r).count();
    assert_eq!([0, 1, 2].map(per_rule), [2, 2, 2]);
}

/// Stats display is stable and total counters are coherent.
#[test]
fn stats_are_coherent() {
    let mut engine = Engine::new(catalog(2), EngineConfig::default());
    engine
        .add_rule(
            "asset",
            at("r1").and(at("r2").not()).within(Span::from_secs(5)),
        )
        .unwrap();
    let fired = collect(&mut engine, vec![obs(1, 1, 0), obs(1, 2, 60_000)]);
    let stats = engine.stats();
    assert_eq!(stats.rule_firings as usize, fired.len());
    assert!(stats.pseudo_fired <= stats.pseudo_scheduled);
    assert!(stats.matched_events <= stats.events);
    let line = stats.to_string();
    assert!(line.contains("events=2"), "{line}");
}
