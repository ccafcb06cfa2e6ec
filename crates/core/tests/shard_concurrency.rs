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

mod differential;
mod support;

use differential::{trace, Case, Firing};
use rceda::engine::RuleId;
use rceda::{ShardConfig, ShardedEngine};
use rfid_events::{EventExpr, Instance, Observation};
use support::shapes;

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

/// Of `shapes::mixed()`: one keyed rule (duplicate detection), one
/// negation rule (exercises the pseudo-event clock at barriers), one
/// residual global run, and a second residual rule in its own merge group,
/// so `tight_config` has two broadcast partitions for its two residual
/// threads.
fn rules() -> Vec<EventExpr> {
    let mixed = shapes::mixed();
    [0, 1, 4, 3].map(|i| mixed[i].clone()).into()
}

/// The inbox/backpressure handshake delivers every observation exactly
/// once: the sharded firing multiset is the reference's, and no inbox ever
/// held more than its bound.
#[test]
fn tight_queues_preserve_the_firing_multiset() {
    let case = trace(240).case(rules());
    assert!(!case.expected().is_empty(), "workload must fire rules");

    for config in configs() {
        let (fired, engine) = case.run_sharded(config);
        case.check(&fired);
        assert_eq!(engine.stats().max_queue_depth, 1, "an inbox at capacity");
    }
}

/// Repeated epoch barriers mid-stream: each `advance_to` flushes partial
/// batches, advances every partition's clock in lockstep, and harvests. The
/// union of per-epoch harvests must still be the reference multiset, and
/// barriers must never deadlock against the bounded inboxes.
#[test]
fn repeated_epoch_barriers_harvest_everything_once() {
    let case = trace(240).case(rules());
    for config in configs() {
        case.check(&with_barriers(&case, config, 30).0);
    }
}

/// Runs `case` on the pipeline with an epoch barrier after every `every`
/// observations, at the last one's timestamp.
fn with_barriers(case: &Case, config: ShardConfig, every: usize) -> (Vec<Firing>, ShardedEngine) {
    let mut engine = case.sharded(config);
    let mut got = Vec::new();
    let mut sink = |rule: RuleId, inst: &Instance| got.push((rule.0, inst.clone()));
    for chunk in case.stream.chunks(every) {
        for &obs in chunk {
            engine.process(obs);
        }
        engine.advance_to(chunk.last().expect("nonempty chunk").at, &mut sink);
    }
    engine.finish(&mut sink);
    (got, engine)
}

/// A barrier reaches a partition that was never handed an observation: the
/// dock and point-of-sale readers are silent, so `keyless`'s partition has
/// an empty inbox at every barrier, answers each all the same, and the
/// barrier's clock is the only one it ever sees.
#[test]
fn barriers_reach_an_empty_partition() {
    let trace = trace(240);
    let heard = |obs: &&Observation| {
        let group = trace.sim.catalog.readers.group_of(obs.reader);
        group != Some("docks") && group != Some("pos")
    };
    let stream: Vec<Observation> = trace.stream.iter().filter(heard).copied().collect();
    let case = Case::new(&trace.sim.catalog, rules(), &stream);

    for config in configs() {
        let (got, engine) = with_barriers(&case, config, 40);
        case.check(&got);

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
    let case = trace(120).case(rules());
    for config in configs() {
        let mut engine = case.sharded(config);
        for &obs in case.stream.iter().take(90) {
            engine.process(obs);
        }
        drop(engine);
    }
}

/// `finish` is terminal and idempotent: a second call is a no-op, and the
/// per-partition stats remain readable after the threads have been joined.
#[test]
fn finish_is_idempotent_and_stats_survive_join() {
    let case = trace(120).case(rules());
    let stream = case.stream;
    let mut engine = case.sharded(tight_config());
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

    let mut crowded = case.sharded(crowded_config());
    crowded.process_all(stream.iter().copied(), &mut |_, _| {});
    assert_eq!(crowded.stats().residual_workers, 1, "one thread");
    assert_eq!(crowded.residual_partitions().len(), 4, "four partitions");
}

/// Reads behind a partition's clock are rejected there, not matched: run
/// backwards, the stream reaches each partition as often as it does
/// forwards, and each delivery is either one of the partition's `events`
/// or one of its `late_rejected`, which sum across partitions alike. (That
/// a partition's panic comes back on the coordinator is unit-tested in
/// `shard.rs`.)
#[test]
fn late_reads_are_rejected_on_every_partition() {
    let case = trace(120).case(rules());
    let stream = case.stream;
    for config in configs() {
        let delivered = |stream: &mut dyn Iterator<Item = Observation>| {
            let mut engine = case.sharded(config.clone());
            stream.for_each(|obs| engine.process(obs));
            engine.finish(&mut |_, _| {});
            let per_partition = engine.worker_stats();
            let late: u64 = per_partition.iter().map(|s| s.late_rejected).sum();
            let stats = engine.stats();
            assert_eq!(stats.late_rejected, late);
            (stats.events, stats.late_rejected)
        };
        let (forwards, on_time) = delivered(&mut stream.iter().copied());
        assert_eq!(on_time, 0);
        let (events, late) = delivered(&mut stream.iter().rev().copied());
        assert!(late > 0, "the reversed stream has late reads");
        assert_eq!(events + late, forwards);
    }
}
