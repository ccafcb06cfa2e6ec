//! Criterion benches for the design-choice ablations of DESIGN.md:
//! subgraph merging (A1), correlation-key partitioning (A2), and the
//! RCEDA-vs-ECA head-to-head (A3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rceda::EngineConfig;
use rfid_baseline::{EcaEngine, EcaEvent, TemporalCheck};
use rfid_bench::{engine_from_script, time_engine_pass, BenchWorkload};
use rfid_events::{EventExpr, ParameterContext, PrimitivePattern, Span};
use rfid_simulator::SimConfig;

fn pattern(reader: &str) -> PrimitivePattern {
    match EventExpr::observation_at(reader).build() {
        EventExpr::Primitive(p) => p,
        _ => unreachable!(),
    }
}

fn merge_ablation(c: &mut Criterion) {
    let workload = BenchWorkload::new();
    let trace = workload.trace(15_000);
    let script = workload.sim.rule_family(150);
    let mut group = c.benchmark_group("ablation_merge");
    group.sample_size(10);
    for merge in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if merge { "on" } else { "off" }),
            &merge,
            |b, &merge| {
                b.iter_with_setup(
                    || {
                        engine_from_script(
                            &workload,
                            &script,
                            EngineConfig {
                                merge_subgraphs: merge,
                                ..EngineConfig::default()
                            },
                        )
                    },
                    |mut engine| time_engine_pass(&mut engine, &trace.observations).1,
                );
            },
        );
    }
    group.finish();
}

fn partition_ablation(c: &mut Criterion) {
    let cfg = SimConfig {
        shelves: 16,
        shelf_population: 200,
        duplicate_prob: 0.15,
        packing_lines: 0,
        docks: 0,
        exits: 0,
        ..SimConfig::default()
    };
    let workload = BenchWorkload::with_config(cfg);
    let trace = workload.trace(15_000);
    let script = "CREATE RULE dup, duplicate_detection \
                  ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5 sec) \
                  IF true DO send_duplicate_msg(r, o, t1)";
    let mut group = c.benchmark_group("ablation_partition");
    group.sample_size(10);
    for partition in [true, false] {
        group.bench_with_input(
            BenchmarkId::from_parameter(if partition { "keyed" } else { "flat" }),
            &partition,
            |b, &partition| {
                b.iter_with_setup(
                    || {
                        engine_from_script(
                            &workload,
                            script,
                            EngineConfig {
                                partition_buffers: partition,
                                ..EngineConfig::default()
                            },
                        )
                    },
                    |mut engine| time_engine_pass(&mut engine, &trace.observations).1,
                );
            },
        );
    }
    group.finish();
}

fn engine_head_to_head(c: &mut Criterion) {
    let cfg = SimConfig {
        packing_lines: 8,
        shelves: 0,
        docks: 0,
        exits: 0,
        ..SimConfig::default()
    };
    let workload = BenchWorkload::with_config(cfg.clone());
    let trace = workload.trace(15_000);

    let mut rceda_script = String::new();
    for i in 0..cfg.packing_lines {
        rceda_script.push_str(&format!(
            "CREATE RULE pack{i}, containment_{i} \
             ON TSEQ(TSEQ+(observation('conv{i}', o1, t1), {} msec, {} msec); \
                     observation('caser{i}', o2, t2), {} msec, {} msec) \
             IF true DO send_containment_msg(o2, t2) ",
            cfg.item_gap_ms.0, cfg.item_gap_ms.1, cfg.case_dist_ms.0, cfg.case_dist_ms.1
        ));
    }

    let mut group = c.benchmark_group("engine_head_to_head");
    group.sample_size(10);
    group.bench_function("rceda", |b| {
        b.iter_with_setup(
            || engine_from_script(&workload, &rceda_script, EngineConfig::default()),
            |mut engine| time_engine_pass(&mut engine, &trace.observations).1,
        );
    });
    group.bench_function("eca_baseline", |b| {
        b.iter_with_setup(
            || {
                let mut eca =
                    EcaEngine::new(workload.sim.catalog.clone(), ParameterContext::Chronicle);
                for i in 0..cfg.packing_lines {
                    eca.add_rule(
                        &EcaEvent::Aperiodic {
                            element: Box::new(EcaEvent::Prim(pattern(&format!("conv{i}")))),
                            terminator: Box::new(EcaEvent::Prim(pattern(&format!("caser{i}")))),
                        },
                        vec![
                            TemporalCheck::GapBounds {
                                lo: Span::from_millis(cfg.item_gap_ms.0),
                                hi: Span::from_millis(cfg.item_gap_ms.1),
                            },
                            TemporalCheck::DistBounds {
                                lo: Span::from_millis(cfg.case_dist_ms.0),
                                hi: Span::from_millis(cfg.case_dist_ms.1),
                            },
                        ],
                    );
                }
                eca
            },
            |mut eca| {
                let mut count = 0u64;
                eca.process_all(trace.observations.iter().copied(), &mut |_, _| count += 1);
                count
            },
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    merge_ablation,
    partition_ablation,
    engine_head_to_head
);
criterion_main!(benches);
