//! Criterion bench for the sharded pipeline: detection throughput at 1, 2
//! and 4 keyed shards on the canonical rule set. The `fig9_shard` harness
//! binary prints the full paper-scale sweep and writes
//! `results/BENCH_shard.json`; this bench gives statistically sampled
//! numbers at a smaller stream size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rceda::ShardConfig;
use rfid_bench::{sharded_engine_from_script, time_sharded_pass, BenchWorkload};

fn shard_sweep(c: &mut Criterion) {
    let workload = BenchWorkload::new();
    let script = workload.sim.rule_set();
    let trace = workload.trace(20_000);
    let mut group = c.benchmark_group("shard_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.observations.len() as u64));
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &trace, |b, trace| {
            b.iter_with_setup(
                || {
                    sharded_engine_from_script(
                        &workload,
                        &script,
                        ShardConfig {
                            shards,
                            ..ShardConfig::default()
                        },
                    )
                },
                |mut engine| time_sharded_pass(&mut engine, &trace.observations).1,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, shard_sweep);
criterion_main!(benches);
