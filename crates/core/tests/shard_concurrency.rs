//! Concurrency-soundness smoke tests for the sharded pipeline, sized so
//! the whole file also runs under Miri (`cargo +nightly miri test -p rceda
//! --test shard_concurrency`, see `.github/workflows/ci.yml`): a few
//! hundred observations, small batches, shallow queues. The small queue
//! depth forces the router into backpressure blocking, and the small batch
//! size maximizes channel handoffs per observation — the exact regions a
//! data race or a lost-wakeup bug would live in.
//!
//! Tool choice (see DESIGN.md §12): Miri's Tree Borrows + data-race
//! detector over `loom`, because the pipeline uses real OS threads behind
//! std channels rather than an exhaustively-modelable atomic protocol, and
//! the workspace builds offline against shimmed dependencies (no loom).

use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::shard::{ShardConfig, ShardedEngine};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};

/// Small but adversarial config: 3 keyed shards + 2 residual workers,
/// 4-observation batches, queue depth 1 (every flush can block).
fn tight_config() -> ShardConfig {
    ShardConfig {
        shards: 3,
        residual_workers: 2,
        batch_size: 4,
        queue_depth: 1,
        ..ShardConfig::default()
    }
}

/// One keyed rule (duplicate detection), one negation rule (exercises the
/// pseudo-event clock at barriers), one residual global run.
fn rules() -> Vec<(&'static str, EventExpr)> {
    let dup = EventExpr::observation()
        .bind_reader("r")
        .bind_object("o")
        .seq(EventExpr::observation().bind_reader("r").bind_object("o"))
        .within(Span::from_secs(5));
    let missing = EventExpr::observation_in_group("shelves")
        .bind_object("o")
        .not()
        .seq(EventExpr::observation_in_group("shelves").bind_object("o"))
        .within(Span::from_secs(2));
    let run = EventExpr::observation_in_group("shelves")
        .tseq_plus(Span::ZERO, Span::from_millis(1_500))
        .within(Span::from_secs(30));
    // A second residual rule in its own merge group, so the two residual
    // workers of `tight_config` actually both receive the broadcast.
    let keyless = EventExpr::observation_in_group("docks")
        .seq(EventExpr::observation_in_group("pos"))
        .within(Span::from_secs(10));
    vec![
        ("dup", dup),
        ("missing", missing),
        ("run", run),
        ("keyless", keyless),
    ]
}

type Fingerprint = (u32, Timestamp, Timestamp, Vec<Observation>);

fn fingerprint(rule: RuleId, inst: &Instance) -> Fingerprint {
    (rule.0, inst.t_begin(), inst.t_end(), inst.observations())
}

fn trace(n: usize) -> (SupplyChain, Vec<Observation>) {
    let sim = SupplyChain::build(SimConfig::default());
    let stream = sim.generate(n).observations;
    (sim, stream)
}

fn reference(sim: &SupplyChain, stream: &[Observation]) -> Vec<Fingerprint> {
    let mut engine = Engine::new(sim.catalog.clone(), EngineConfig::default());
    for (name, event) in rules() {
        engine.add_rule(name, event).expect("valid rule");
    }
    let mut out = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| out.push(fingerprint(rule, inst));
    for &obs in stream {
        engine.process(obs, &mut sink);
    }
    engine.finish(&mut sink);
    out.sort();
    out
}

fn sharded(sim: &SupplyChain) -> ShardedEngine {
    let mut engine = ShardedEngine::new(sim.catalog.clone(), tight_config());
    for (name, event) in rules() {
        engine.add_rule(name, event).expect("valid rule");
    }
    engine
}

/// The channel/backpressure handshake delivers every observation exactly
/// once: the sharded firing multiset equals the single-threaded one.
#[test]
fn tight_queues_preserve_the_firing_multiset() {
    let (sim, stream) = trace(240);
    let expected = reference(&sim, &stream);
    assert!(!expected.is_empty(), "workload must fire rules");

    let mut engine = sharded(&sim);
    let mut got = Vec::new();
    engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    got.sort();
    assert_eq!(got, expected);
}

/// Repeated epoch barriers mid-stream: each `advance_to` flushes partial
/// batches, advances every worker's clock in lockstep, and harvests. The
/// union of per-epoch harvests must still be the reference multiset, and
/// barriers must never deadlock against the bounded queues.
#[test]
fn repeated_epoch_barriers_harvest_everything_once() {
    let (sim, stream) = trace(240);
    let expected = reference(&sim, &stream);

    let mut engine = sharded(&sim);
    let mut got = Vec::new();
    let mut epochs = 0usize;
    for chunk in stream.chunks(30) {
        for &obs in chunk {
            engine.process(obs);
        }
        let now = chunk.last().expect("nonempty chunk").at;
        engine.advance_to(now, &mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        epochs += 1;
    }
    engine.finish(&mut |rule, inst: &Instance| {
        got.push(fingerprint(rule, inst));
    });
    got.sort();
    assert_eq!(got, expected, "after {epochs} mid-stream barriers");
}

/// Dropping the engine mid-stream — batches pending, queues possibly full —
/// must join every worker thread without deadlock, panic, or leak (Miri
/// reports leaked threads and channels as errors).
#[test]
fn drop_mid_stream_joins_workers() {
    let (sim, stream) = trace(120);
    let mut engine = sharded(&sim);
    for &obs in stream.iter().take(90) {
        engine.process(obs);
    }
    drop(engine);
}

/// `finish` is terminal and idempotent: a second call is a no-op, and
/// worker stats remain readable after the threads have been joined.
#[test]
fn finish_is_idempotent_and_stats_survive_join() {
    let (sim, stream) = trace(120);
    let mut engine = sharded(&sim);
    let mut count = 0usize;
    engine.process_all(stream.iter().copied(), &mut |_, _| count += 1);
    engine.finish(&mut |_, _| panic!("second finish must not deliver"));

    let stats = engine.stats();
    assert_eq!(stats.events as usize, stream.len() * 2 + stream.len());
    assert!(stats.batches > 0);
    assert_eq!(stats.residual_workers, 2);
    assert!(engine.worker_stats().len() >= 4, "3 keyed + residual");
}
