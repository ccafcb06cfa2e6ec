//! Shard sweep: detection throughput vs. pipeline topology, canonical rule
//! set, fixed event count.
//!
//! The sharded pipeline has two parallelism axes: object-shardable rules
//! fan out over *keyed shards* by `hash(object EPC)`, while the remaining
//! rules (the 512 `TSEQ+` containment rules on the canonical set) are cut
//! into broadcast partitions — up to four per *residual worker*, each
//! handed only the readers its rules name — that the pool's threads take
//! as they become ready. This sweep measures end-to-end events/s over the
//! cross product of both axes against the single-threaded engine, and
//! prints how the ledger's layout (`shards: 1, residual_workers: 2`) spreads the
//! work: per partition, the share of the static cost model's weight beside
//! the share of the occurrences it actually produced.
//!
//! Usage (all flags optional):
//!
//! ```text
//! fig9_shard [--shards 1,2,4,8] [--residual-workers 1,2]
//!            [--events 150000] [--seed 42]
//! ```

use rceda::{EngineConfig, ObserveLevel, ShardConfig};
use rfid_bench::{
    bare_engine, sharded_engine_from_script, time_engine_pass, time_sharded_pass, BenchWorkload,
    Measurement,
};

const DEFAULT_EVENTS: usize = 150_000;
const DEFAULT_SHARDS: [usize; 4] = [1, 2, 4, 8];
const DEFAULT_RESIDUAL: [usize; 2] = [1, 2];

struct Args {
    shards: Vec<usize>,
    residual_workers: Vec<usize>,
    events: usize,
    seed: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: DEFAULT_SHARDS.to_vec(),
        residual_workers: DEFAULT_RESIDUAL.to_vec(),
        events: DEFAULT_EVENTS,
        seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--shards" => args.shards = parse_list(&value("--shards")),
            "--residual-workers" => {
                args.residual_workers = parse_list(&value("--residual-workers"));
            }
            "--events" => {
                args.events = value("--events").parse().expect("--events takes a number");
            }
            "--seed" => args.seed = Some(value("--seed").parse().expect("--seed takes a number")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: fig9_shard [--shards LIST] [--residual-workers LIST] \
                     [--events N] [--seed N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}` (try --help)"),
        }
    }
    assert!(!args.shards.is_empty(), "--shards list must be non-empty");
    assert!(
        !args.residual_workers.is_empty(),
        "--residual-workers list must be non-empty"
    );
    args
}

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .unwrap_or_else(|_| panic!("`{part}` is not a count"))
        })
        .collect()
}

/// One sweep point: a (keyed shards, residual workers) configuration.
struct SweepRow {
    measurement: Measurement,
    stats: rceda::EngineStats,
}

fn main() {
    let args = parse_args();
    let mut cfg = rfid_simulator::SimConfig::paper_scale();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    let workload = BenchWorkload::with_config(cfg);
    let script = workload.sim.rule_set();
    let trace = workload.trace(args.events);
    let stream = &trace.observations;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Single-threaded baseline: same rules, same stream, no pipeline.
    let mut baseline = bare_engine(&workload, EngineConfig::default());
    let rules = baseline.rule_count();
    let graph_nodes = baseline.graph().len();
    let (base_ms, base_firings) = time_engine_pass(&mut baseline, stream);
    eprintln!("  baseline (single-threaded): {base_ms:.1} ms, {base_firings} firings");
    let measure = |x: usize, elapsed_ms: f64| Measurement {
        x: x as u64,
        events: stream.len(),
        rules,
        elapsed_ms,
        firings: base_firings,
        graph_nodes,
    };

    let mut rows = Vec::new();
    for &shards in &args.shards {
        for &residual_workers in &args.residual_workers {
            let config = ShardConfig {
                shards,
                residual_workers,
                ..ShardConfig::default()
            };
            let mut engine = sharded_engine_from_script(&workload, &script, config);
            let (elapsed_ms, firings) = time_sharded_pass(&mut engine, stream);
            assert_eq!(
                firings, base_firings,
                "sharded firing count diverged at {shards} shards × {residual_workers} residual"
            );
            let stats = engine.stats();
            eprintln!(
                "  {shards} shard(s) × {} residual worker(s): {elapsed_ms:.1} ms \
                 ({} batches, max queue depth {})",
                stats.residual_workers, stats.batches, stats.max_queue_depth
            );
            rows.push(SweepRow {
                measurement: measure(shards, elapsed_ms),
                stats,
            });
        }
    }

    print_sweep(&rows);
    println!(
        "cores available: {cores}; baseline (unsharded): {:.0} ev/s",
        measure(0, base_ms).throughput()
    );
    print_balance(&workload, &script, stream);
}

fn print_sweep(rows: &[SweepRow]) {
    println!("\n=== Shard sweep — throughput vs. keyed shards × residual workers ===");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>14} {:>10} {:>8} {:>12}",
        "shards", "residual", "events", "time (ms)", "ev/s", "batches", "qdepth", "firings"
    );
    for row in rows {
        let m = &row.measurement;
        println!(
            "{:>8} {:>10} {:>10} {:>10.1} {:>14.0} {:>10} {:>8} {:>12}",
            m.x,
            row.stats.residual_workers,
            m.events,
            m.elapsed_ms,
            m.throughput(),
            row.stats.batches,
            row.stats.max_queue_depth,
            m.firings,
        );
    }
}

/// Predicted vs. measured share of the work per partition, on the ledger's
/// layout. Predicted is the partition's summed `cpu_weight` (what
/// `partition_rules` packs by), measured its `occurrences`: a count, so the
/// table repeats exactly. The pool schedules partitions as they become
/// ready, which is why a prediction this far off costs no balance.
fn print_balance(workload: &BenchWorkload, script: &str, stream: &[rfid_events::Observation]) {
    let config = ShardConfig {
        shards: 1,
        residual_workers: 2,
        engine: EngineConfig {
            observe: ObserveLevel::Counters,
            ..EngineConfig::default()
        },
        ..ShardConfig::default()
    };
    let mut engine = sharded_engine_from_script(workload, script, config);
    time_sharded_pass(&mut engine, stream);
    let predicted: Vec<f64> = engine
        .worker_telemetry()
        .iter()
        .map(|snap| snap.as_ref().map_or(0.0, |s| s.node_cost.iter().sum()))
        .collect();
    let stats = engine.worker_stats();
    let weight: f64 = predicted.iter().sum();
    let occurrences: u64 = stats.iter().map(|s| s.occurrences).sum();
    let delivered: u64 = stats.iter().map(|s| s.events).sum();
    println!(
        "\n=== Balance — 1 shard × 2 residual workers: {} partitions on {} threads ===",
        stats.len(),
        engine.residual_worker_count()
    );
    println!(
        "{:>9} {:>6}  {:<24} {:>10} {:>10} {:>12} {:>10}",
        "partition", "rules", "first rule", "predicted", "measured", "occurrences", "delivered"
    );
    let rows = engine
        .residual_partitions()
        .iter()
        .zip(stats)
        .zip(&predicted);
    for (p, ((rules, stats), predicted)) in rows.enumerate() {
        println!(
            "{:>9} {:>6}  {:<24} {:>9.1}% {:>9.1}% {:>12} {:>10}",
            p,
            rules.len(),
            rules.first().map_or("", |&r| engine.rule_name(r)),
            100.0 * predicted / weight,
            100.0 * stats.occurrences as f64 / occurrences as f64,
            stats.occurrences,
            stats.events,
        );
    }
    println!(
        "delivered per event: {:.2} ({} of {})",
        delivered as f64 / stream.len() as f64,
        delivered,
        stream.len()
    );
}
