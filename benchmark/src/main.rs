//! `ledger`: one end-to-end and per-layer benchmark for the whole RCEDA user
//! path — trace text → `rfid-edge` → `rceda` → sink → `rfid-rules` →
//! `rfid-store`. See `benchmark/README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1 [--smoke] [--append FILE]
//! ledger --selfcheck [--seed N] [--smoke]
//! ledger compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```

mod alloc;
mod compare;
mod json;
mod oracle;
mod passes;
mod procfs;
mod quant;
mod run;
mod span;
mod workloads;

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use json::Json;
use run::{Args, Outcome};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the traced run writes its spans: `benchmark/out` of the checkout
/// the binary was built in, whatever the working directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// The contract file of that checkout: `compare` takes its bounds from it.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

const USAGE: &str = "usage:
  ledger --workload <canonical|detect|rules500|freshkeys|sharded> [--seed N] [--seconds S]
         [--trace 0|1] [--smoke] [--append FILE]
  ledger --selfcheck [--seed N] [--smoke]
  ledger compare A.jsonl B.jsonl [--spec BENCHMARK.json]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("ledger: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The value after `flag`, if the flag is present.
fn value<'a>(argv: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match argv.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => argv
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{flag} needs a value")),
    }
}

fn number<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(argv, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: `{v}` is not a number")),
    }
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_sets(&argv[1..]);
    }
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--append",
        "--smoke",
        "--selfcheck",
    ];
    let mut i = 0;
    while i < argv.len() {
        if !known.contains(&argv[i].as_str()) {
            return Err(format!("unknown argument `{}`", argv[i]));
        }
        i += if matches!(argv[i].as_str(), "--smoke" | "--selfcheck") {
            1
        } else {
            2
        };
    }
    let smoke = argv.iter().any(|a| a == "--smoke");
    let seed: u64 = number(argv, "--seed", 42)?;
    if argv.iter().any(|a| a == "--selfcheck") {
        return Ok(selfcheck(seed, smoke));
    }
    let name = value(argv, "--workload")?.ok_or("--workload is required")?;
    let args = Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?,
        seed,
        seconds: number(argv, "--seconds", 10.0)?,
        smoke,
    };
    if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must lie in 0..=3600".to_owned());
    }
    let trace = match value(argv, "--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let outcome = if trace {
        run::traced(&args, None, Some(Path::new(OUT_DIR)))
    } else {
        run::end_to_end(&args)
    };
    let line = print(&args, trace, &outcome);
    if let Some(path) = value(argv, "--append")? {
        let mut record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": ",
            args.workload.name(),
            args.seed,
            u8::from(trace)
        );
        record.push_str(&line);
        record.push_str("}\n");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(outcome.correct)
}

/// Prints a run for a reader, then the result object as the last line.
/// Returns that line.
fn print(args: &Args, trace: bool, o: &Outcome) -> String {
    println!(
        "== {} seed={} {} ==",
        args.workload.name(),
        args.seed,
        if trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        }
    );
    for note in &o.notes {
        println!("   {note}");
    }
    for m in &o.metrics {
        println!("   {:<32} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "   {:<32} {:>18.6} ratio ({} of {})",
        "failed_share",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    );
    let line = json::result_line(o.correct, o.attempted, o.failed, &o.metrics);
    println!("{line}");
    line
}

/// Two traced passes per workload on one seed must agree on every count
/// metric, bit for bit; a second seed must change the inputs and still pass
/// the oracle. `sharded` runs, but its counts are checked for nothing:
/// its workers' interleaving moves allocation and batch counts.
fn selfcheck(seed: u64, smoke: bool) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        let mut fingerprints = Vec::new();
        for seed in [seed, seed + 1] {
            let args = Args {
                workload,
                seed,
                seconds: 0.0,
                smoke,
            };
            let o = run::traced(&args, Some(2), None);
            let of = |kind| run::PER_LAYER.iter().filter(|m| m.2 == kind).count();
            let (counts, allocs) = (of(run::Kind::Count), of(run::Kind::Allocs));
            println!(
                "{:<10} seed={seed}: {} — over 2 traced passes, {}",
                workload.name(),
                if o.correct { "ok" } else { "FAILED" },
                if workload == Workload::Sharded {
                    format!("{} counts reported as approximate", counts + allocs)
                } else if o.correct {
                    format!(
                        "{counts} count metrics bit-identical, {allocs} allocation counts within \
                         {}%",
                        run::ALLOC_TOLERANCE * 100.0
                    )
                } else {
                    "counts NOT identical, or the oracle failed".to_owned()
                },
            );
            for note in o.notes.iter().filter(|n| n.starts_with("FAILED")) {
                println!("   {note}");
            }
            ok &= o.correct;
            fingerprints.push(o.inputs);
        }
        if fingerprints[0] == fingerprints[1] {
            println!(
                "{:<10} the second seed did not change the inputs",
                workload.name()
            );
            ok = false;
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn compare_sets(argv: &[String]) -> Result<bool, String> {
    let files: Vec<&String> = argv.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("compare takes two set files".to_owned());
    };
    let spec_path = value(argv, "--spec")?.unwrap_or(SPEC);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let limits = compare::limits(&Json::parse(&read(spec_path)?)?)?;
    let set_a = compare::read_set(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let set_b = compare::read_set(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    println!("A = {a}\nB = {b}\nbounds from {spec_path}");
    let (table, clean) = compare::report(&set_a, &set_b, &limits);
    print!("{table}");
    Ok(clean)
}
