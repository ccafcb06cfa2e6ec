//! `rfid-cli` — drive the CEP system from the command line.
//!
//! ```text
//! rfid-cli simulate --events 20000 --seed 7 --out-dir ./trace
//!     Generate a supply-chain workload: trace.csv (time_ms,reader,epc),
//!     readers.csv (name,group,location), types.csv (sample_epc,type),
//!     rules.rules (the canonical rule set), truth.txt (summary).
//!
//! rfid-cli run --script rules.rules --trace trace.csv \
//!              --readers readers.csv --types types.csv
//!     Replay a trace through a rule script; print firings and store sizes.
//!
//! rfid-cli inspect --script rules.rules [--readers readers.csv] [--dot]
//!     Print the compiled event graph's analysis table (or Graphviz).
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use rfid_cep::engine::EngineConfig;
use rfid_cep::epc::Epc;
use rfid_cep::events::{Catalog, Observation, Timestamp};
use rfid_cep::rules::compile::{build_defines, compile_event, resolve_aliases};
use rfid_cep::rules::{parse_script, RuleRuntime};
use rfid_cep::simulator::{SimConfig, SupplyChain};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("usage: rfid-cli <simulate|run|inspect> [options]  (see --help per command)");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Tiny `--key value` argument scanner.
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn simulate(args: &[String]) -> Result<(), String> {
    let events: usize = opt(args, "--events")
        .unwrap_or_else(|| "20000".into())
        .parse()
        .map_err(|_| "--events must be a number")?;
    let seed: u64 = opt(args, "--seed")
        .unwrap_or_else(|| "42".into())
        .parse()
        .map_err(|_| "--seed must be a number")?;
    let out_dir = PathBuf::from(opt(args, "--out-dir").unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let sim = SupplyChain::build(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let trace = sim.generate(events);

    // trace.csv
    let mut out = String::from("time_ms,reader,epc\n");
    for obs in &trace.observations {
        let name = sim
            .catalog
            .readers
            .def(obs.reader)
            .map(|d| d.name.to_string())
            .unwrap_or_else(|| obs.reader.to_string());
        out.push_str(&format!(
            "{},{},{}\n",
            obs.at.as_millis(),
            name,
            obs.object.to_uri()
        ));
    }
    write_file(&out_dir.join("trace.csv"), &out)?;

    // readers.csv
    let mut readers = String::from("name,group,location\n");
    for def in sim.catalog.readers.iter() {
        readers.push_str(&format!("{},{},{}\n", def.name, def.group, def.location));
    }
    write_file(&out_dir.join("readers.csv"), &readers)?;

    // types.csv (class samples)
    let mut types = String::from("sample_epc,type\n");
    for (sample, ty) in rfid_cep::simulator::EpcAllocator::class_samples() {
        types.push_str(&format!("{},{ty}\n", sample.to_uri()));
    }
    write_file(&out_dir.join("types.csv"), &types)?;

    // rules + truth summary
    write_file(&out_dir.join("rules.rules"), &sim.rule_set())?;
    let t = &trace.truth;
    write_file(
        &out_dir.join("truth.txt"),
        &format!(
            "events: {}\nlogical_end_ms: {}\ncontainments: {}\ninfields: {}\nalarms: {}\n\
             duplicates: {}\nlocation_changes: {}\nsales: {}\n",
            trace.observations.len(),
            trace.until.as_millis(),
            t.containments.len(),
            t.infields.len(),
            t.alarms.len(),
            t.duplicates.len(),
            t.location_changes.len(),
            t.sales.len(),
        ),
    )?;
    println!(
        "wrote {} events to {} (truth: {} containments, {} alarms, {} duplicates)",
        trace.observations.len(),
        out_dir.display(),
        t.containments.len(),
        t.alarms.len(),
        t.duplicates.len(),
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let script_path = opt(args, "--script").ok_or("--script <file> required")?;
    let trace_path = opt(args, "--trace").ok_or("--trace <file> required")?;
    let script =
        std::fs::read_to_string(&script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let catalog = load_catalog(args)?;
    let stream = load_trace(&trace_path, &catalog)?;

    let mut rt = RuleRuntime::new(catalog);
    let ids = rt.load(&script).map_err(|e| e.to_string())?;
    println!("loaded {} rule(s) from {script_path}", ids.len());

    let start = std::time::Instant::now();
    let n = stream.len();
    rt.process_all(stream);
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;

    println!(
        "processed {n} events in {elapsed:.1} ms ({:.0} ev/s)",
        n as f64 / (elapsed / 1000.0)
    );
    println!("engine: {}", rt.engine().stats());
    let mut tables: Vec<String> = rt.db().table_names().map(str::to_owned).collect();
    tables.sort();
    for name in tables {
        let len = rt.db().table(&name).map_or(0, |t| t.len());
        if len > 0 {
            println!("store: {name} = {len} rows");
        }
    }
    let mut proc_counts: HashMap<&str, usize> = HashMap::new();
    for (name, _) in &rt.procedures().log {
        *proc_counts.entry(name).or_default() += 1;
    }
    let mut procs: Vec<_> = proc_counts.into_iter().collect();
    procs.sort_unstable();
    for (name, count) in procs {
        println!("procedure: {name} called {count} time(s)");
    }
    for err in rt.errors() {
        eprintln!("runtime error: {err}");
    }
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let script_path = opt(args, "--script").ok_or("--script <file> required")?;
    let script =
        std::fs::read_to_string(&script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let catalog = load_catalog(args).unwrap_or_default();

    let parsed = parse_script(&script).map_err(|e| e.to_string())?;
    let defines = build_defines(&parsed.defines).map_err(|e| e.to_string())?;
    let mut engine = rfid_cep::engine::Engine::new(catalog, EngineConfig::default());
    for rule in &parsed.rules {
        let resolved = resolve_aliases(&rule.event, &defines).map_err(|e| e.to_string())?;
        let expr = compile_event(&resolved).map_err(|e| e.to_string())?;
        engine
            .add_rule(&rule.name, expr)
            .map_err(|e| e.to_string())?;
    }
    if flag(args, "--dot") {
        print!("{}", engine.graph().to_dot());
    } else {
        println!(
            "{} rule(s), {} graph node(s), {} merge hit(s)\n",
            engine.rule_count(),
            engine.graph().len(),
            engine.graph().merged_hits()
        );
        print!("{}", engine.program().describe());
    }
    Ok(())
}

fn load_catalog(args: &[String]) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    if let Some(path) = opt(args, "--readers") {
        for (line_no, line) in read_csv_rows(&path)? {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != 3 {
                return Err(format!("{path}:{line_no}: expected name,group,location"));
            }
            catalog
                .readers
                .register(cols[0].trim(), cols[1].trim(), cols[2].trim());
        }
    }
    if let Some(path) = opt(args, "--types") {
        for (line_no, line) in read_csv_rows(&path)? {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != 2 {
                return Err(format!("{path}:{line_no}: expected sample_epc,type"));
            }
            let epc: Epc = cols[0]
                .trim()
                .parse()
                .map_err(|e| format!("{path}:{line_no}: {e}"))?;
            catalog.types.map_class_of(epc, cols[1].trim());
        }
    }
    Ok(catalog)
}

fn load_trace(path: &str, catalog: &Catalog) -> Result<Vec<Observation>, String> {
    let mut out = Vec::new();
    for (line_no, line) in read_csv_rows(path)? {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 3 {
            return Err(format!("{path}:{line_no}: expected time_ms,reader,epc"));
        }
        let at: u64 = cols[0]
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{line_no}: bad timestamp"))?;
        let reader = catalog.reader(cols[1].trim()).ok_or_else(|| {
            format!(
                "{path}:{line_no}: unknown reader `{}` (missing --readers?)",
                cols[1]
            )
        })?;
        let object: Epc = cols[2]
            .trim()
            .parse()
            .map_err(|e| format!("{path}:{line_no}: {e}"))?;
        out.push(Observation::new(reader, object, Timestamp::from_millis(at)));
    }
    out.sort();
    Ok(out)
}

/// Reads a CSV, skipping the header row; yields (1-based line number, line).
fn read_csv_rows(path: &str) -> Result<Vec<(usize, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .enumerate()
        .skip(1)
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i + 1, l.to_owned()))
        .collect())
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(contents.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}
