//! `rceda-obs`: inspect a running engine's observability layer.
//!
//! Drives a simulated workload through an instrumented engine and either
//! exports the telemetry snapshot (per-node metrics arena, latency and
//! occupancy histograms, engine counters) or replays firing provenance
//! from the flight recorder as event-graph derivation trees (see
//! `DESIGN.md` §15).
//!
//! ```text
//! rceda-obs snapshot [--sim PRESET] [--events N] [--level counters|full]
//!                    [--format human|jsonl|prom]
//! rceda-obs explain  [--sim PRESET] [--events N] [--rule NAME] [--last N]
//!
//!   --sim PRESET    workload preset: default, benchmark, or paper-scale
//!   --events N      observations to stream (default 50000)
//!   --level L       observe level for `snapshot` (default counters)
//!   --format F      snapshot output: human (default), jsonl, or prom
//!   --rule NAME     only explain firings of this rule
//!   --last N        number of most-recent firings to explain (default 1)
//! ```
//!
//! `explain` always runs at level `full` (the flight recorder is off
//! below it). If the engine panics mid-stream, the flight ring is dumped
//! to stderr before the panic resumes — the last recorded derivations are
//! exactly the context a crash report needs.
//!
//! Exit status: 0 success, 1 no matching firing to explain, 2 usage
//! errors.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use rceda::explain::render_firing;
use rceda::{Engine, EngineConfig, ObserveLevel, RuleId};
use rfid_events::Instance;
use rfid_simulator::{SimConfig, SupplyChain, Trace};

enum Mode {
    Snapshot,
    Explain,
}

enum Format {
    Human,
    Jsonl,
    Prom,
}

struct Options {
    mode: Mode,
    sim: String,
    events: usize,
    level: ObserveLevel,
    format: Format,
    rule: Option<String>,
    last: usize,
}

fn usage() -> &'static str {
    "usage: rceda-obs snapshot [--sim default|benchmark|paper-scale] [--events N] \
     [--level counters|full] [--format human|jsonl|prom]\n       \
     rceda-obs explain [--sim default|benchmark|paper-scale] [--events N] \
     [--rule NAME] [--last N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mode = match args.first().map(String::as_str) {
        Some("snapshot") => Mode::Snapshot,
        Some("explain") => Mode::Explain,
        Some(other) => return Err(format!("unknown command `{other}`\n{}", usage())),
        None => return Err(usage().to_owned()),
    };
    let mut opts = Options {
        mode,
        sim: "default".to_owned(),
        events: 50_000,
        level: ObserveLevel::Counters,
        format: Format::Human,
        rule: None,
        last: 1,
    };
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--sim" => {
                let preset = value("--sim")?;
                match preset.as_str() {
                    "default" | "benchmark" | "paper-scale" => opts.sim = preset,
                    other => return Err(format!("unknown --sim preset `{other}`\n{}", usage())),
                }
            }
            "--events" => {
                let n = value("--events")?;
                opts.events = n
                    .parse()
                    .map_err(|_| format!("--events needs a number, got `{n}`\n{}", usage()))?;
            }
            "--level" => {
                let name = value("--level")?;
                opts.level = ObserveLevel::parse(&name)
                    .filter(|l| l.counters())
                    .ok_or_else(|| format!("unknown --level `{name}`\n{}", usage()))?;
            }
            "--format" => {
                let name = value("--format")?;
                opts.format = match name.as_str() {
                    "human" => Format::Human,
                    "jsonl" => Format::Jsonl,
                    "prom" => Format::Prom,
                    other => return Err(format!("unknown --format `{other}`\n{}", usage())),
                };
            }
            "--rule" => opts.rule = Some(value("--rule")?),
            "--last" => {
                let n = value("--last")?;
                opts.last = n
                    .parse()
                    .map_err(|_| format!("--last needs a number, got `{n}`\n{}", usage()))?;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            flag => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    Ok(opts)
}

fn sim_config(preset: &str) -> SimConfig {
    match preset {
        "benchmark" => SimConfig::benchmark(),
        "paper-scale" => SimConfig::paper_scale(),
        _ => SimConfig::default(),
    }
}

/// Builds an instrumented engine loaded with the workload's canonical rule
/// set (the same script→engine path the benches use).
fn build_engine(chain: &SupplyChain, level: ObserveLevel, flight_capacity: usize) -> Engine {
    let config = EngineConfig {
        observe: level,
        flight_capacity,
        ..EngineConfig::default()
    };
    let rules = rfid_rules::rule_events(&chain.rule_set()).expect("canonical rule set compiles");
    let named = rules.iter().map(|r| (r.name.as_str(), &r.event));
    Engine::with_rules(chain.catalog.clone(), config, named).expect("rules are valid")
}

/// Streams the trace through the engine. On panic the flight ring is
/// dumped to stderr before the panic resumes, so the derivations leading
/// up to the crash are preserved.
fn run_stream(engine: &mut Engine, trace: &Trace) -> u64 {
    let mut firings = 0u64;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = |_rule: RuleId, _inst: &Instance| firings += 1;
        for &obs in &trace.observations {
            engine.process(obs, &mut sink);
        }
        engine.finish(&mut sink);
    }));
    if let Err(panic) = result {
        eprintln!("panic during stream — dumping flight recorder:");
        for rec in engine.flight().records() {
            eprint!("{}", render_firing(engine.rule_name(rec.rule), rec));
        }
        resume_unwind(panic);
    }
    firings
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let chain = SupplyChain::build(sim_config(&opts.sim));
    let trace = chain.generate(opts.events);

    match opts.mode {
        Mode::Snapshot => {
            let mut engine = build_engine(&chain, opts.level, 64);
            run_stream(&mut engine, &trace);
            let snap = engine.telemetry();
            match opts.format {
                Format::Human => print!("{}", snap.describe()),
                Format::Jsonl => println!("{}", snap.to_jsonl()),
                Format::Prom => print!("{}", snap.to_prometheus()),
            }
            ExitCode::SUCCESS
        }
        Mode::Explain => {
            // The ring must hold enough history that `--last N` of one
            // rule survives other rules' firings pushing records out.
            let capacity = (opts.last * 64).clamp(256, 65_536);
            let mut engine = build_engine(&chain, ObserveLevel::Full, capacity);
            let firings = run_stream(&mut engine, &trace);
            let records: Vec<_> = engine
                .flight()
                .records()
                .filter(|rec| {
                    opts.rule
                        .as_deref()
                        .is_none_or(|name| engine.rule_name(rec.rule) == name)
                })
                .collect();
            let shown = records.iter().rev().take(opts.last).rev();
            let mut any = false;
            for rec in shown {
                any = true;
                print!("{}", render_firing(engine.rule_name(rec.rule), rec));
            }
            if any {
                ExitCode::SUCCESS
            } else {
                let filter = opts
                    .rule
                    .map_or(String::new(), |name| format!(" for rule `{name}`"));
                eprintln!("no recorded firing{filter} ({firings} firings total; ring holds the most recent {capacity})");
                ExitCode::from(1)
            }
        }
    }
}
