//! # rfid-bench — shared benchmark machinery
//!
//! Workload construction and timing helpers used by the table-printing
//! harness binaries (`fig9_*`, `fig4_demo`, `action_cost`,
//! `baseline_compare`, `context_compare`). Each binary prints one
//! figure/ablation of DESIGN.md's experiment index to stdout;
//! `scripts/reproduce.sh` keeps each as `results/<binary>.txt` and
//! EXPERIMENTS.md records them. End-to-end throughput is the ledger's
//! (`benchmark/run.sh`), not these tables'.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    let rules = rfid_rules::rule_events(script).expect("script compiles");
    let named = rules.iter().map(|r| (r.name.as_str(), &r.event));
    rceda::Engine::with_rules(workload.sim.catalog.clone(), config, named).expect("rules are valid")
}

/// Builds a sharded engine from any rule script (no store, no actions —
/// pure detection, comparable with [`engine_from_script`]).
pub fn sharded_engine_from_script(
    workload: &BenchWorkload,
    script: &str,
    config: rceda::ShardConfig,
) -> rceda::ShardedEngine {
    let mut engine = rceda::ShardedEngine::new(workload.sim.catalog.clone(), config);
    for rule in rfid_rules::rule_events(script).expect("script compiles") {
        engine
            .add_rule(&rule.name, rule.event)
            .expect("rule is valid");
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

/// The observability budget: the `Counters` level may cost at most this
/// many percent of `Off` (`fig9_obs` exits non-zero above it).
pub const COUNTERS_BUDGET_PCT: f64 = 3.0;

/// How much slower `level_ms` passes are than `base_ms` passes, in percent:
/// the median of the paired ratios `level_ms[i] / base_ms[i]`, minus one.
/// Pass `i` of each side ran next to the other, so a slowdown both share
/// cancels in their ratio, and the median ignores a one-off stall.
pub fn paired_overhead_pct(level_ms: &[f64], base_ms: &[f64]) -> f64 {
    assert_eq!(level_ms.len(), base_ms.len(), "passes come in pairs");
    assert!(!base_ms.is_empty(), "at least one pair");
    let mut ratios: Vec<f64> = level_ms.iter().zip(base_ms).map(|(l, b)| l / b).collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len().is_multiple_of(2) {
        f64::midpoint(ratios[mid - 1], ratios[mid])
    } else {
        ratios[mid]
    };
    (median - 1.0) * 100.0
}

/// Whether a counters-level overhead fits [`COUNTERS_BUDGET_PCT`].
pub fn within_counters_budget(overhead_pct: f64) -> bool {
    overhead_pct <= COUNTERS_BUDGET_PCT
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

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn paired_overhead_is_the_median_ratio() {
        // Odd: the middle ratio; the 1.50 stall does not move it.
        let odd = paired_overhead_pct(&[101.0, 150.0, 102.0], &[100.0; 3]);
        assert!(close(odd, 2.0), "{odd}");
        // Even: halfway between the two middle ratios.
        let even = paired_overhead_pct(&[101.0, 150.0, 102.0, 104.0], &[100.0; 4]);
        assert!(close(even, 3.0), "{even}");
        let single = paired_overhead_pct(&[95.0], &[100.0]);
        assert!(close(single, -5.0), "{single}");
    }

    #[test]
    fn a_slowdown_both_sides_share_cancels() {
        // The box runs at another speed for every pair; both sides share it.
        let drift = [1.0, 1.7, 0.6, 3.0, 1.25];
        let off: Vec<f64> = drift.iter().map(|d| 100.0 * d).collect();
        let counters: Vec<f64> = drift.iter().map(|d| 102.0 * d).collect();
        let overhead = paired_overhead_pct(&counters, &off);
        assert!(close(overhead, 2.0), "{overhead}");
    }

    #[test]
    fn the_budget_is_three_percent_inclusive() {
        let over = paired_overhead_pct(&[103.01], &[100.0]);
        let under = paired_overhead_pct(&[102.99], &[100.0]);
        assert!(!within_counters_budget(over), "{over}");
        assert!(within_counters_budget(under), "{under}");
        assert!(within_counters_budget(COUNTERS_BUDGET_PCT));
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
