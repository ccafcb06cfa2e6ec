//! Observability overhead ablation: single-threaded events/s on the
//! paper-scale canonical workload at each `ObserveLevel`.
//!
//! The per-node metrics arena is updated on the hot path, so its cost is
//! budgeted, not assumed: `Counters` must stay within 3% of `Off` (the
//! gate in `scripts/bench_gate.sh` reads `counters_overhead_pct` from the
//! JSON this writes), while `Full` — latency/occupancy histograms plus
//! the flight recorder cloning instances — is measured for the record but
//! not gated (it is a diagnosis mode, not a production default).
//!
//! Passes are interleaved (Off, Counters, Full, Off, Counters, Full, …)
//! rather than batched per level, so slow drift on a contended box —
//! thermal throttling, a neighbour starting up — lands on every level
//! equally instead of biasing whichever ran last. The overhead estimator
//! is the **median of paired per-rep ratios** (level pass *i* over off
//! pass *i*): pairing adjacent passes cancels the drift the interleaving
//! spreads, and the median rejects the one-off stalls a shared box
//! injects — unlike best-vs-best, which compares two independent minima
//! of noisy distributions and swings by several points per campaign.
//! Per-level min-of-N throughput is still reported.
//!
//! Firings must be identical at every level: observation is read-only
//! with respect to detection.
//!
//! Flags: `--events N` (default 150 000), `--reps N` (default 5).

use rceda::{EngineConfig, ObserveLevel};
use rfid_bench::report::{self, JsonBuf};
use rfid_bench::{bare_engine, time_engine_pass, BenchWorkload};

const EVENTS: usize = 150_000;
const REPS: usize = 5;
const LEVELS: [ObserveLevel; 3] = [
    ObserveLevel::Off,
    ObserveLevel::Counters,
    ObserveLevel::Full,
];

struct LevelRun {
    level: ObserveLevel,
    passes: Vec<f64>,
    best_ms: f64,
    eps: f64,
    firings: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let events = args
        .iter()
        .position(|a| a == "--events")
        .and_then(|i| args.get(i + 1))
        .map_or(EVENTS, |n| n.parse().expect("--events takes a count"));
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .map_or(REPS, |n| n.parse().expect("--reps takes a count"));

    let workload = BenchWorkload::with_config(rfid_simulator::SimConfig::paper_scale());
    let trace = workload.trace(events);
    let stream = &trace.observations;

    println!("Observability overhead — single-threaded Fig. 9 workload");

    let config_for = |level: ObserveLevel| EngineConfig {
        observe: level,
        ..EngineConfig::default()
    };

    // Warm-up (one pass per level): faults in the trace, fills allocator
    // caches, and pins the expected firing count.
    let mut expected_firings = None;
    let mut rules = 0;
    for &level in &LEVELS {
        let mut warm = bare_engine(&workload, config_for(level));
        rules = warm.rule_count();
        let (warm_ms, firings) = time_engine_pass(&mut warm, stream);
        eprintln!(
            "  [{}] warm-up: {warm_ms:.1} ms, {firings} firings",
            level.name()
        );
        match expected_firings {
            None => expected_firings = Some(firings),
            Some(expected) => assert_eq!(
                firings,
                expected,
                "observe level `{}` changed the firing count",
                level.name()
            ),
        }
    }
    let expected_firings = expected_firings.expect("at least one level");

    // Interleaved measured passes: rep-major, level-minor.
    let mut passes: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for rep in 0..reps {
        for (li, &level) in LEVELS.iter().enumerate() {
            let mut engine = bare_engine(&workload, config_for(level));
            let (elapsed_ms, firings) = time_engine_pass(&mut engine, stream);
            assert_eq!(
                firings,
                expected_firings,
                "observe level `{}` changed the firing count",
                level.name()
            );
            eprintln!("  [{}] pass {}: {elapsed_ms:.1} ms", level.name(), rep + 1);
            passes[li].push(elapsed_ms);
        }
    }

    let runs: Vec<LevelRun> = LEVELS
        .iter()
        .zip(passes)
        .map(|(&level, passes)| {
            let best_ms = passes.iter().copied().fold(f64::INFINITY, f64::min);
            LevelRun {
                level,
                passes,
                best_ms,
                eps: report::eps(stream.len(), best_ms),
                firings: expected_firings,
            }
        })
        .collect();

    let off = &runs[0];
    // Median of paired per-rep ratios (see module docs): pass i of each
    // level ran adjacent to off pass i, so the ratio cancels box drift.
    let overhead_pct = |run: &LevelRun| {
        let mut ratios: Vec<f64> = run
            .passes
            .iter()
            .zip(&off.passes)
            .map(|(l, o)| l / o)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        let median = if ratios.len().is_multiple_of(2) {
            f64::midpoint(ratios[mid - 1], ratios[mid])
        } else {
            ratios[mid]
        };
        (median - 1.0) * 100.0
    };
    println!(
        "  events: {} | rules: {rules} | firings: {expected_firings}",
        stream.len()
    );
    for run in &runs {
        println!(
            "  [{:>8}] best of {}: {:.1} ms ({:.0} ev/s) — {:+.2}% vs off",
            run.level.name(),
            run.passes.len(),
            run.best_ms,
            run.eps,
            overhead_pct(run)
        );
    }

    write_json(
        stream.len(),
        rules,
        &runs,
        overhead_pct(&runs[1]),
        overhead_pct(&runs[2]),
    );
}

/// `counters_overhead_pct` leads so `bench_gate.sh`'s first-match parse
/// reads the gated figure; the per-level rows follow.
fn write_json(events: usize, rules: usize, runs: &[LevelRun], counters_pct: f64, full_pct: f64) {
    let reps = runs[0].passes.len();
    let mut json = JsonBuf::begin("fig9_obs", &format!("events={events} reps={reps}"));
    json.u64_field("events", events as u64);
    json.u64_field("rules", rules as u64);
    json.u64_field("firings", runs[0].firings);
    json.f64_field("counters_overhead_pct", counters_pct, 2);
    json.f64_field("full_overhead_pct", full_pct, 2);
    json.f64_field("off_events_per_sec", runs[0].eps, 1);
    json.begin_arr("levels");
    for run in runs {
        json.begin_obj(None);
        json.str_field("level", run.level.name());
        json.begin_arr("passes_ms");
        for ms in &run.passes {
            json.elem(&format!("{ms:.3}"));
        }
        json.end_arr();
        json.f64_field("best_ms", run.best_ms, 3);
        json.f64_field("events_per_sec", run.eps, 1);
        json.end_obj();
    }
    json.end_arr();
    report::write_results("BENCH_obs.json", &json.finish());
}
