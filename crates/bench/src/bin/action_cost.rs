//! Methodology check for §5: the paper excludes action cost ("database
//! update cost is not counted in the processing time"). This harness
//! measures both sides of that line on the same stream — bare detection
//! (the number comparable to Fig. 9) and the full pipeline with condition
//! evaluation, variable binding, and store actions.
//!
//! Its second table is the firing path itself, on the Fig. 9(b) family at
//! 500 rules (every action a procedure call): bare detection; the floor —
//! detection plus a sink that only appends each call's name and an
//! argument `Vec` of its arity to a `Procedures` log; and `RuleRuntime`.
//! `RuleRuntime`/floor is what binding, conditions and operand evaluation
//! cost beyond writing the log entries the runtime writes too.

use std::time::Instant;

use rceda::{EngineConfig, RuleId};
use rfid_bench::{
    bare_engine, engine_from_script, time_engine_pass, time_runtime_pass, BenchWorkload,
};
use rfid_events::{Instance, Observation, Timestamp};
use rfid_rules::ast::ActionAst;
use rfid_rules::{parse_script, Procedures, RuleRuntime};
use rfid_simulator::SimConfig;
use rfid_store::{Database, Value};

/// Rules in the family: the endpoint of Fig. 9(b).
const FAMILY_RULES: usize = 500;
/// Shelves of the family's deployment: the paper-scale supply chain with
/// an eighth of its shelves, as the ledger's `rules500` workload runs it.
const FAMILY_SHELVES: usize = 96;
/// Logical seconds of trace the family replays, as `rules500` does.
const FAMILY_HORIZON_S: u64 = 80;
/// Interleaved repetitions of the three passes; medians are reported.
const REPS: usize = 15;

fn main() {
    let workload = BenchWorkload::new();
    println!(
        "{:>10} {:>16} {:>18} {:>10}",
        "events", "detection (ms)", "with actions (ms)", "overhead"
    );
    for &n in &[25_000usize, 50_000, 100_000] {
        let trace = workload.trace(n);

        let mut engine = bare_engine(&workload, EngineConfig::default());
        let (detect_ms, _) = time_engine_pass(&mut engine, &trace.observations);

        let mut rt = workload.runtime(EngineConfig::default());
        let full_ms = time_runtime_pass(&mut rt, &trace.observations);

        println!(
            "{:>10} {:>16.1} {:>18.1} {:>9.1}x",
            trace.observations.len(),
            detect_ms,
            full_ms,
            full_ms / detect_ms.max(1e-9)
        );
    }
    println!("\nFig. 9 numbers use the detection column, matching the paper's methodology.");

    firing_path();
}

/// The second table: detection, floor and runtime on the 500-rule family.
fn firing_path() {
    let family = BenchWorkload::with_config(SimConfig {
        seed: 42,
        shelves: FAMILY_SHELVES,
        ..SimConfig::paper_scale()
    });
    let script = family.sim.rule_family(FAMILY_RULES);
    let stream = family
        .sim
        .generate_until(Timestamp::from_secs(FAMILY_HORIZON_S))
        .observations;
    let calls = calls_by_rule(&script);

    let (mut detect, mut floor, mut runtime) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut engine = engine_from_script(&family, &script, EngineConfig::default());
        engine.advance_to(Timestamp::ZERO, &mut |_, _| {});
        detect.push(time_engine_pass(&mut engine, &stream).0);

        let mut engine = engine_from_script(&family, &script, EngineConfig::default());
        engine.advance_to(Timestamp::ZERO, &mut |_, _| {});
        floor.push(time_floor_pass(&mut engine, &stream, &calls));

        let mut rt = RuleRuntime::with_parts(
            family.sim.catalog.clone(),
            Database::rfid(),
            EngineConfig::default(),
        );
        rt.load(&script).expect("the family loads");
        rt.advance_to(Timestamp::ZERO);
        runtime.push(time_runtime_pass(&mut rt, &stream));
    }
    let per_event = |ms: &mut Vec<f64>| median(ms) * 1e3 / stream.len() as f64;
    let (detect, floor, runtime) = (
        per_event(&mut detect),
        per_event(&mut floor),
        per_event(&mut runtime),
    );
    println!(
        "\n=== firing path: Fig. 9(b) family, {FAMILY_RULES} rules, {} events, \
         median of {REPS} interleaved reps ===",
        stream.len()
    );
    println!("{:>28} {:>10.3} us/event", "bare detection", detect);
    println!("{:>28} {:>10.3} us/event", "floor (detection + log)", floor);
    println!("{:>28} {:>10.3} us/event", "RuleRuntime", runtime);
    println!("{:>28} {:>10.3}", "RuleRuntime / floor", runtime / floor);
}

/// Each rule's procedure calls, by rule id: name and number of arguments.
fn calls_by_rule(script: &str) -> Vec<Vec<(String, usize)>> {
    let parsed = parse_script(script).expect("the family parses");
    parsed
        .rules
        .iter()
        .map(|rule| {
            rule.actions
                .iter()
                .filter_map(|action| match action {
                    ActionAst::Call { name, args } => Some((name.clone(), args.len())),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// Detection with a sink that logs each firing's calls as `RuleRuntime`
/// logs them (the name and an argument `Vec`), without binding or
/// evaluating anything. Elapsed ms.
fn time_floor_pass(
    engine: &mut rceda::Engine,
    stream: &[Observation],
    calls: &[Vec<(String, usize)>],
) -> f64 {
    let mut procs = Procedures::new();
    let mut sink = |rule: RuleId, _: &Instance| {
        for (name, arity) in &calls[rule.0 as usize] {
            procs.invoke(name, vec![Value::Null; *arity]);
        }
    };
    let start = Instant::now();
    for chunk in stream.chunks(rceda::PROCESS_ALL_BATCH) {
        engine.process_batch(chunk, &mut sink);
    }
    engine.finish(&mut sink);
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;
    std::hint::black_box(&procs.log);
    elapsed
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}
