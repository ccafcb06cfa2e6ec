//! # rfid-bench — shared benchmark machinery
//!
//! Workload construction and timing helpers used by the table-printing
//! harness binaries (`fig9_*`, `fig4_demo`, `action_cost`,
//! `baseline_compare`, `context_compare`). Each binary regenerates one
//! figure/ablation of DESIGN.md's experiment index; EXPERIMENTS.md records
//! the outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::time::Instant;

use rceda::{EngineConfig, RuleId};
use rfid_events::Observation;
use rfid_rules::RuleRuntime;
use rfid_simulator::{SimConfig, SupplyChain, Trace};

/// One measured point of a sweep.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The swept value (number of events or number of rules).
    pub x: u64,
    /// Observations actually processed.
    pub events: usize,
    /// Rules loaded.
    pub rules: usize,
    /// Total event processing time, milliseconds (action cost excluded when
    /// `firings` counts a bare-engine run, matching §5's methodology).
    pub elapsed_ms: f64,
    /// Rule firings observed.
    pub firings: u64,
    /// Graph nodes after rule compilation.
    pub graph_nodes: usize,
}

impl Measurement {
    /// Events per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 / (self.elapsed_ms / 1000.0)
    }
}

/// The benchmark deployment and its canonical rule set (mirrors §5: a
/// supply-chain simulator with transformation/aggregation rules).
pub struct BenchWorkload {
    /// The simulated deployment.
    pub sim: SupplyChain,
}

impl Default for BenchWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchWorkload {
    /// The standard benchmark deployment.
    pub fn new() -> Self {
        Self {
            sim: SupplyChain::build(SimConfig::benchmark()),
        }
    }

    /// A deployment with a custom configuration.
    pub fn with_config(cfg: SimConfig) -> Self {
        Self {
            sim: SupplyChain::build(cfg),
        }
    }

    /// Generates a stream of approximately `n` events.
    pub fn trace(&self, n: usize) -> Trace {
        self.sim.generate(n)
    }

    /// Builds a rule runtime loaded with the canonical rule set.
    pub fn runtime(&self, config: EngineConfig) -> RuleRuntime {
        let mut rt = RuleRuntime::with_parts(
            self.sim.catalog.clone(),
            rfid_store::Database::rfid(),
            config,
        );
        rt.load(&self.sim.rule_set())
            .expect("canonical rule set loads");
        rt
    }
}

/// Times a full engine-only pass over a stream (detection cost without
/// store actions — §5 excludes action cost, so the bare engine is the
/// comparable number), fed in [`rceda::PROCESS_ALL_BATCH`]-observation
/// chunks. Returns elapsed ms and firings.
pub fn time_engine_pass(engine: &mut rceda::Engine, stream: &[Observation]) -> (f64, u64) {
    let mut firings = 0u64;
    let mut sink = |_rule: RuleId, _inst: &rfid_events::Instance| firings += 1;
    let start = Instant::now();
    for chunk in stream.chunks(rceda::PROCESS_ALL_BATCH) {
        engine.process_batch(chunk, &mut sink);
    }
    engine.finish(&mut sink);
    (start.elapsed().as_secs_f64() * 1000.0, firings)
}

/// Times a full runtime pass (detection + conditions + actions), fed in
/// the same chunks as [`time_engine_pass`].
pub fn time_runtime_pass(rt: &mut RuleRuntime, stream: &[Observation]) -> f64 {
    let start = Instant::now();
    for chunk in stream.chunks(rceda::PROCESS_ALL_BATCH) {
        rt.process_batch(chunk);
    }
    rt.finish();
    start.elapsed().as_secs_f64() * 1000.0
}

/// Builds a bare engine loaded with the compiled canonical rule set (no
/// store, no actions — pure detection, as §5 measures).
pub fn bare_engine(workload: &BenchWorkload, config: EngineConfig) -> rceda::Engine {
    engine_from_script(workload, &workload.sim.rule_set(), config)
}

/// Builds a bare engine from any rule script.
pub fn engine_from_script(
    workload: &BenchWorkload,
    script: &str,
    config: EngineConfig,
) -> rceda::Engine {
    use rfid_rules::compile::{build_defines, compile_event, resolve_aliases};
    use rfid_rules::parser::parse_script;

    let parsed = parse_script(script).expect("script parses");
    let defines = build_defines(&parsed.defines).expect("defines build");
    let mut engine = rceda::Engine::new(workload.sim.catalog.clone(), config);
    for rule in &parsed.rules {
        let resolved = resolve_aliases(&rule.event, &defines).expect("aliases resolve");
        let expr = compile_event(&resolved).expect("event compiles");
        engine.add_rule(&rule.name, expr).expect("rule is valid");
    }
    engine
}

/// Builds a sharded engine from any rule script (no store, no actions —
/// pure detection, comparable with [`engine_from_script`]).
pub fn sharded_engine_from_script(
    workload: &BenchWorkload,
    script: &str,
    config: rceda::ShardConfig,
) -> rceda::ShardedEngine {
    use rfid_rules::compile::{build_defines, compile_event, resolve_aliases};
    use rfid_rules::parser::parse_script;

    let parsed = parse_script(script).expect("script parses");
    let defines = build_defines(&parsed.defines).expect("defines build");
    let mut engine = rceda::ShardedEngine::new(workload.sim.catalog.clone(), config);
    for rule in &parsed.rules {
        let resolved = resolve_aliases(&rule.event, &defines).expect("aliases resolve");
        let expr = compile_event(&resolved).expect("event compiles");
        engine.add_rule(&rule.name, expr).expect("rule is valid");
    }
    engine
}

/// Times a full sharded pass over a stream (detection cost only). Returns
/// elapsed ms and firings. The clock includes `finish()` so queued batches
/// drain inside the measured window.
pub fn time_sharded_pass(engine: &mut rceda::ShardedEngine, stream: &[Observation]) -> (f64, u64) {
    let mut firings = 0u64;
    let start = Instant::now();
    for &obs in stream {
        engine.process(obs);
    }
    engine.finish(&mut |_rule: RuleId, _inst: &rfid_events::Instance| firings += 1);
    (start.elapsed().as_secs_f64() * 1000.0, firings)
}

/// Least-squares linear fit `y ≈ a·x + b`; returns `(a, b, r²)`. Used to
/// verify the paper's "cost increases almost linearly" claim.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (0.0, sy / n, 0.0);
    }
    let a = (n * sxy - sx * sy) / denom;
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot.abs() < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Prints a measurement table in the paper's row layout.
pub fn print_table(title: &str, xlabel: &str, rows: &[Measurement]) {
    println!("\n=== {title} ===");
    println!(
        "{xlabel:>12} {:>10} {:>8} {:>14} {:>14} {:>12}",
        "events", "rules", "time (ms)", "ev/s", "firings"
    );
    for m in rows {
        println!(
            "{:>12} {:>10} {:>8} {:>14.1} {:>14.0} {:>12}",
            m.x,
            m.events,
            m.rules,
            m.elapsed_ms,
            m.throughput(),
            m.firings
        );
    }
    let points: Vec<(f64, f64)> = rows.iter().map(|m| (m.x as f64, m.elapsed_ms)).collect();
    let (a, b, r2) = linear_fit(&points);
    println!("linear fit: time ≈ {a:.6}·x + {b:.2} ms, r² = {r2:.4}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_a_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let (a, b, r2) = linear_fit(&points);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert_eq!(linear_fit(&[]), (0.0, 0.0, 0.0));
        let (a, _, _) = linear_fit(&[(1.0, 5.0), (1.0, 7.0)]);
        assert_eq!(a, 0.0, "vertical data has no slope");
    }

    #[test]
    fn bare_engine_runs_canonical_set() {
        let w = BenchWorkload::with_config(SimConfig::default());
        let trace = w.trace(2_000);
        let mut engine = bare_engine(&w, EngineConfig::default());
        let (ms, firings) = time_engine_pass(&mut engine, &trace.observations);
        assert!(ms >= 0.0);
        assert!(
            firings > 0,
            "the canonical rules fire on the canonical workload"
        );
    }
}
