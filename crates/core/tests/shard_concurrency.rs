//! Concurrency-soundness smoke tests for the sharded pipeline, sized so
//! the whole file also runs under Miri (`cargo +nightly miri test -p rceda
//! --test shard_concurrency`, see `.github/workflows/ci.yml`): a few
//! hundred observations, small batches, inboxes of one batch. The bound of
//! one forces the router into backpressure blocking, the small batch size
//! maximizes hand-offs per observation, and the crowded layout — four
//! partitions on one pool thread — makes every one of them a partition
//! changing hands: the exact regions a data race or a lost-wakeup bug
//! would live in.
//!
//! Tool choice (see DESIGN.md §12): Miri's Tree Borrows + data-race
//! detector over `loom`, because the pipeline uses real OS threads behind
//! std mutexes and condition variables rather than an exhaustively-modelable
//! atomic protocol, and the workspace builds offline against shimmed
//! dependencies (no loom).

use rceda::engine::{Engine, EngineConfig, RuleId};
use rceda::shard::{ShardConfig, ShardedEngine};
use rfid_events::{EventExpr, Instance, Observation, Span, Timestamp};
use rfid_simulator::{SimConfig, SupplyChain};

/// Small but adversarial config: 3 keyed partitions + 2 broadcast ones on
/// 5 pool threads, 4-observation batches, inboxes of one batch (every
/// flush can block).
fn tight_config() -> ShardConfig {
    ShardConfig {
        shards: 3,
        residual_workers: 2,
        batch_size: 4,
        queue_depth: 1,
        ..ShardConfig::default()
    }
}

/// More partitions than threads: one keyed shard folds, so the four rules
/// — four merge groups — are four broadcast partitions on one pool thread,
/// which the router outruns two observations at a time.
fn crowded_config() -> ShardConfig {
    ShardConfig {
        shards: 1,
        residual_workers: 1,
        batch_size: 2,
        queue_depth: 1,
        ..ShardConfig::default()
    }
}

fn configs() -> [ShardConfig; 2] {
    [tight_config(), crowded_config()]
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
    // A second residual rule in its own merge group, so `tight_config` has
    // two broadcast partitions for its two residual threads.
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

fn sharded(sim: &SupplyChain, config: ShardConfig) -> ShardedEngine {
    let mut engine = ShardedEngine::new(sim.catalog.clone(), config);
    for (name, event) in rules() {
        engine.add_rule(name, event).expect("valid rule");
    }
    engine
}

/// The inbox/backpressure handshake delivers every observation exactly
/// once: the sharded firing multiset equals the single-threaded one, and
/// no inbox ever held more than its bound.
#[test]
fn tight_queues_preserve_the_firing_multiset() {
    let (sim, stream) = trace(240);
    let expected = reference(&sim, &stream);
    assert!(!expected.is_empty(), "workload must fire rules");

    for config in configs() {
        let mut engine = sharded(&sim, config);
        let mut got = Vec::new();
        engine.process_all(stream.iter().copied(), &mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        got.sort();
        assert_eq!(got, expected);
        assert_eq!(engine.stats().max_queue_depth, 1, "an inbox at capacity");
    }
}

/// Repeated epoch barriers mid-stream: each `advance_to` flushes partial
/// batches, advances every partition's clock in lockstep, and harvests. The
/// union of per-epoch harvests must still be the reference multiset, and
/// barriers must never deadlock against the bounded inboxes.
#[test]
fn repeated_epoch_barriers_harvest_everything_once() {
    let (sim, stream) = trace(240);
    let expected = reference(&sim, &stream);

    for config in configs() {
        let mut engine = sharded(&sim, config);
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
}

/// A barrier reaches a partition that was never handed an observation: the
/// dock and point-of-sale readers are silent, so `keyless`'s partition has
/// an empty inbox at every barrier, answers each all the same, and the
/// barrier's clock is the only one it ever sees.
#[test]
fn barriers_reach_an_empty_partition() {
    let (sim, stream) = trace(240);
    let heard = |obs: &Observation| {
        let group = sim.catalog.readers.group_of(obs.reader);
        group != Some("docks") && group != Some("pos")
    };
    let stream: Vec<Observation> = stream.into_iter().filter(heard).collect();
    let expected = reference(&sim, &stream);

    for config in configs() {
        let mut engine = sharded(&sim, config);
        let mut got = Vec::new();
        for chunk in stream.chunks(40) {
            for &obs in chunk {
                engine.process(obs);
            }
            let now = chunk.last().expect("nonempty chunk").at;
            engine.advance_to(now, &mut |rule, inst: &Instance| {
                got.push(fingerprint(rule, inst));
            });
        }
        engine.finish(&mut |rule, inst: &Instance| {
            got.push(fingerprint(rule, inst));
        });
        got.sort();
        assert_eq!(got, expected);

        let keyed = engine.worker_stats().len() - engine.residual_partitions().len();
        let idle = engine
            .residual_partitions()
            .iter()
            .position(|set| set.contains(&RuleId(3)))
            .expect("`keyless` is broadcast");
        assert_eq!(engine.worker_stats()[keyed + idle].events, 0);
    }
}

/// Dropping the engine mid-stream, without `finish` — batches pending,
/// inboxes possibly full, partitions possibly waiting for a thread — must
/// join every pool thread without deadlock, panic, or leak (Miri reports
/// leaked threads as errors).
#[test]
fn drop_mid_stream_joins_the_pool() {
    let (sim, stream) = trace(120);
    for config in configs() {
        let mut engine = sharded(&sim, config);
        for &obs in stream.iter().take(90) {
            engine.process(obs);
        }
        drop(engine);
    }
}

/// `finish` is terminal and idempotent: a second call is a no-op, and the
/// per-partition stats remain readable after the threads have been joined.
#[test]
fn finish_is_idempotent_and_stats_survive_join() {
    let (sim, stream) = trace(120);
    let mut engine = sharded(&sim, tight_config());
    let mut count = 0usize;
    engine.process_all(stream.iter().copied(), &mut |_, _| count += 1);
    engine.finish(&mut |_, _| panic!("second finish must not deliver"));

    let stats = engine.stats();
    // `events` counts deliveries: `dup` names every reader, so the keyed
    // shards see each read once between them; the two broadcast partitions
    // see the reads of their own groups and no others.
    let per_partition = engine.worker_stats();
    let keyed: u64 = per_partition[..3].iter().map(|s| s.events).sum();
    assert_eq!(keyed as usize, stream.len());
    assert!(per_partition[3..]
        .iter()
        .all(|s| (s.events as usize) < stream.len()));
    assert_eq!(stats.events, per_partition.iter().map(|s| s.events).sum());
    assert!(stats.batches > 0);
    assert_eq!(stats.residual_workers, 2, "pool threads, not partitions");
    assert_eq!(engine.residual_partitions().len(), 2);
    assert_eq!(per_partition.len(), 5, "3 keyed + 2 broadcast partitions");

    let mut crowded = sharded(&sim, crowded_config());
    crowded.process_all(stream.iter().copied(), &mut |_, _| {});
    assert_eq!(crowded.stats().residual_workers, 1, "one thread");
    assert_eq!(crowded.residual_partitions().len(), 4, "four partitions");
}

/// An engine's panic on a pool thread comes back on the coordinator, with
/// the engine's own message: a read behind the clock trips
/// `Engine::process_batch`'s time-order `debug_assert!`. Afterwards the
/// engine still drops cleanly — every pool thread is joined.
#[cfg(debug_assertions)]
#[test]
fn an_engine_panic_resurfaces_on_the_coordinator() {
    let (sim, stream) = trace(120);
    for config in configs() {
        let mut engine = sharded(&sim, config);
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for &obs in stream.iter().rev() {
                engine.process(obs);
            }
            engine.finish(&mut |_, _| {});
        }));
        let payload = raised.expect_err("a decreasing timestamp must panic");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("the engine panics with a message");
        assert!(message.contains("time-ordered"), "got `{message}`");
        drop(engine);
    }
}
