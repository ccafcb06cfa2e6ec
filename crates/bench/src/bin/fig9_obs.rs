//! Observability overhead ablation: single-threaded events/s on the
//! paper-scale canonical workload at each `ObserveLevel`, and the gate on
//! its budget.
//!
//! The per-node metrics arena is updated on the hot path, so its cost is
//! budgeted, not assumed: `Counters` must stay within
//! [`COUNTERS_BUDGET_PCT`] of `Off`, and this binary exits non-zero when it
//! does not. `Full` — latency/occupancy histograms plus the flight recorder
//! cloning instances — is measured for the record but not gated (it is a
//! diagnosis mode, not a production default).
//!
//! Passes are interleaved (Off, Counters, Full, Off, Counters, Full, …)
//! rather than batched per level, so slow drift on a contended box —
//! thermal throttling, a neighbour starting up — lands on every level
//! equally instead of biasing whichever ran last. The overhead is
//! [`paired_overhead_pct`]: the median of paired per-rep ratios, over
//! enough reps for a ~2% figure to hold still. Per-level best-of-N
//! throughput is reported beside it.
//!
//! Takes no arguments; `scripts/reproduce.sh` keeps its output as
//! `results/fig9_obs.txt`.

use std::process::ExitCode;

use rceda::{EngineConfig, ObserveLevel};
use rfid_bench::{
    bare_engine, paired_overhead_pct, time_engine_pass, within_counters_budget, BenchWorkload,
    COUNTERS_BUDGET_PCT,
};

const EVENTS: usize = 150_000;
const REPS: usize = 25;
const LEVELS: [ObserveLevel; 3] = [
    ObserveLevel::Off,
    ObserveLevel::Counters,
    ObserveLevel::Full,
];

fn main() -> ExitCode {
    let workload = BenchWorkload::with_config(rfid_simulator::SimConfig::paper_scale());
    let trace = workload.trace(EVENTS);
    let stream = &trace.observations;

    println!("Observability overhead — single-threaded Fig. 9 workload");

    let config_for = |level: ObserveLevel| EngineConfig {
        observe: level,
        ..EngineConfig::default()
    };

    // Rep 0 warms up (faults in the trace, fills allocator caches) and is
    // not kept. Observation is read-only with respect to detection, so every
    // pass at every level must fire the same.
    let mut firings = None;
    let mut rules = 0;
    let mut passes: [Vec<f64>; 3] = Default::default();
    for rep in 0..=REPS {
        for (li, &level) in LEVELS.iter().enumerate() {
            let mut engine = bare_engine(&workload, config_for(level));
            rules = engine.rule_count();
            let (elapsed_ms, fired) = time_engine_pass(&mut engine, stream);
            assert_eq!(
                *firings.get_or_insert(fired),
                fired,
                "observe level `{}` changed the firing count",
                level.name()
            );
            eprintln!("  [{}] pass {rep}: {elapsed_ms:.1} ms", level.name());
            if rep > 0 {
                passes[li].push(elapsed_ms);
            }
        }
    }
    let firings = firings.expect("at least one pass");

    println!(
        "  events: {} | rules: {rules} | firings: {firings}",
        stream.len()
    );
    for (level, level_passes) in LEVELS.iter().zip(&passes) {
        let best_ms = level_passes.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  [{:>8}] best of {REPS}: {best_ms:.1} ms ({:.0} ev/s) — {:+.2}% vs off",
            level.name(),
            stream.len() as f64 / (best_ms / 1000.0),
            paired_overhead_pct(level_passes, &passes[0])
        );
    }

    let counters_pct = paired_overhead_pct(&passes[1], &passes[0]);
    if within_counters_budget(counters_pct) {
        println!("counters overhead {counters_pct:+.2}%: within the {COUNTERS_BUDGET_PCT}% budget");
        ExitCode::SUCCESS
    } else {
        println!(
            "counters overhead {counters_pct:+.2}%: FAIL, over the {COUNTERS_BUDGET_PCT}% budget"
        );
        ExitCode::FAILURE
    }
}
