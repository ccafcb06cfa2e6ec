//! Criterion benches for Fig. 9: detection cost vs. stream size and vs.
//! rule-set size. Sizes are smaller than the harness binaries' (criterion
//! repeats each measurement many times); the harness binaries print the
//! full paper-scale tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rceda::EngineConfig;
use rfid_bench::{bare_engine, engine_from_script, time_engine_pass, BenchWorkload};

fn fig9_events(c: &mut Criterion) {
    let workload = BenchWorkload::new();
    let mut group = c.benchmark_group("fig9_events");
    group.sample_size(10);
    for &n in &[10_000usize, 25_000, 50_000] {
        let trace = workload.trace(n);
        group.throughput(Throughput::Elements(trace.observations.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &trace, |b, trace| {
            b.iter_with_setup(
                || bare_engine(&workload, EngineConfig::default()),
                |mut engine| time_engine_pass(&mut engine, &trace.observations).1,
            );
        });
    }
    group.finish();
}

fn fig9_rules(c: &mut Criterion) {
    let workload = BenchWorkload::new();
    let trace = workload.trace(20_000);
    let mut group = c.benchmark_group("fig9_rules");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.observations.len() as u64));
    for &n in &[50usize, 200, 500] {
        let script = workload.sim.rule_family(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &script, |b, script| {
            b.iter_with_setup(
                || engine_from_script(&workload, script, EngineConfig::default()),
                |mut engine| time_engine_pass(&mut engine, &trace.observations).1,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, fig9_events, fig9_rules);
criterion_main!(benches);
