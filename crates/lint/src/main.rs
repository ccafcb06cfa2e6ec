//! `rceda-lint`: static analysis for RFID rule programs.
//!
//! Compiles each rule to the merged event graph and reports diagnostics
//! with stable codes (see `DESIGN.md` §12): unsatisfiable temporal
//! constraints, unbounded chronicle state, dead or shadowed rules, unbound
//! bindings, and a shardability report explaining which rules fall to the
//! residual broadcast path of the parallel pipeline.
//!
//! ```text
//! rceda-lint [--json] [--deny-warnings] [--sim PRESET]... [FILE]...
//! rceda-lint cost [--json] [--top N] [--sim PRESET]... [FILE]...
//!
//!   FILE            a rule-language script to lint (no deployment catalog:
//!                   the dead-leaf pass W003 is skipped)
//!   --sim PRESET    lint a simulator workload against its own catalog;
//!                   PRESET is default, benchmark, or paper-scale
//!   --json          machine-readable output
//!   --deny-warnings exit nonzero on warnings too, not just errors
//!   --top N         (cost) rows per target in the human table (default 20;
//!                   JSON output is always complete)
//! ```
//!
//! The `cost` subcommand prints the full static cost table behind the
//! `N002` note: every rule ranked by the cumulative solved CPU weight of
//! its compiled subgraph (see `rceda::cost`), with the root-node rate,
//! probe, and buffer estimates.
//!
//! JSON output carries a `"schema"` stamp (currently `rceda-lint/v1`) so
//! downstream consumers can detect format changes.
//!
//! Exit status: 0 clean, 1 findings at the failing level, 2 usage/IO/parse
//! errors. Note-level findings (`N001`, `N002`, `N003`) are informational —
//! they report bounds, costs and shared state the analyzer *proved or
//! estimated* — and never
//! affect the exit status, even under `--deny-warnings`.

use std::fmt::Write as _;
use std::process::ExitCode;

use rceda::analyze::{DiagCode, Diagnostic};
use rfid_events::Catalog;
use rfid_rules::lint::{cost_report, lint_script, CostRow, LintReport};
use rfid_simulator::{SimConfig, SupplyChain};

/// Version stamp on every JSON document this binary emits. Bump when the
/// shape of the output changes incompatibly.
const SCHEMA: &str = "rceda-lint/v1";

struct Target {
    label: String,
    script: String,
    catalog: Option<Catalog>,
}

struct Options {
    json: bool,
    deny_warnings: bool,
    cost: bool,
    top: usize,
    targets: Vec<Target>,
}

fn usage() -> &'static str {
    "usage: rceda-lint [--json] [--deny-warnings] [--sim default|benchmark|paper-scale]... [FILE]...\n\
     \x20      rceda-lint cost [--json] [--top N] [--sim PRESET]... [FILE]..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        cost: false,
        top: 20,
        targets: Vec::new(),
    };
    let mut iter = args.iter();
    let mut first = true;
    while let Some(arg) = iter.next() {
        let lead = std::mem::take(&mut first);
        match arg.as_str() {
            "cost" if lead => opts.cost = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--top" => {
                let n = iter
                    .next()
                    .ok_or_else(|| format!("--top needs a count\n{}", usage()))?;
                opts.top = n
                    .parse()
                    .map_err(|_| format!("--top needs a number, got `{n}`\n{}", usage()))?;
            }
            "--sim" => {
                let preset = iter
                    .next()
                    .ok_or_else(|| format!("--sim needs a preset\n{}", usage()))?;
                let cfg = match preset.as_str() {
                    "default" => SimConfig::default(),
                    "benchmark" => SimConfig::benchmark(),
                    "paper-scale" => SimConfig::paper_scale(),
                    other => {
                        return Err(format!("unknown --sim preset `{other}`\n{}", usage()));
                    }
                };
                let chain = SupplyChain::build(cfg);
                opts.targets.push(Target {
                    label: format!("sim:{preset}"),
                    script: chain.rule_set(),
                    catalog: Some(chain.catalog),
                });
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{}", usage()));
            }
            path => {
                let script = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                opts.targets.push(Target {
                    label: path.to_owned(),
                    script,
                    catalog: None,
                });
            }
        }
    }
    if opts.targets.is_empty() {
        return Err(format!("nothing to lint\n{}", usage()));
    }
    Ok(opts)
}

/// Human-readable report for one target. W004 findings are folded into the
/// shardability report at the bottom instead of being listed one per rule —
/// a 512-rule containment workload is *expected* to be residual, and a
/// finding per rule would bury real problems.
fn render_human(label: &str, report: &LintReport) -> String {
    let mut out = String::new();
    let residual: Vec<&Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::ResidualRule)
        .collect();
    let listed: Vec<&Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.code != DiagCode::ResidualRule)
        .collect();

    let _ = writeln!(
        out,
        "{label}: {} rules, {} error(s), {} warning(s), {} note(s)",
        report.rules,
        report.errors(),
        report.warnings(),
        report.notes()
    );
    for d in &listed {
        let _ = writeln!(out, "  {d}");
    }

    let shardable = report.rules.saturating_sub(residual.len());
    let _ = writeln!(
        out,
        "  shardability: {shardable} of {} rules object-shardable",
        report.rules
    );
    for (needle, legend) in [
        ("SEQ+", "aperiodic runs (W004/GlobalRun)"),
        ("object EPC", "keyless joins (W004/KeylessJoin)"),
    ] {
        let ids: Vec<&str> = residual
            .iter()
            .filter(|d| d.message.contains(needle))
            .map(|d| d.rule_id.as_str())
            .collect();
        if ids.is_empty() {
            continue;
        }
        let shown = ids.iter().take(8).copied().collect::<Vec<_>>().join(", ");
        let more = if ids.len() > 8 {
            format!(", … and {} more", ids.len() - 8)
        } else {
            String::new()
        };
        let _ = writeln!(out, "    residual via {legend}: {shown}{more}");
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Human-readable static cost table for one target: rules ranked by
/// cumulative solved CPU weight, `top` rows shown.
fn render_cost_human(label: &str, rows: &[CostRow], top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{label}: static cost ranking, {} rules", rows.len());
    let _ = writeln!(
        out,
        "  {:>4} {:>12} {:>10} {:>12} {:>12} rule",
        "rank", "weight", "rate/s", "probes/s", "buffered"
    );
    for (i, row) in rows.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "  {:>4} {:>12.1} {:>10.3} {:>12.1} {:>12.1} {} ({})",
            i + 1,
            row.weight,
            row.rate,
            row.probes_per_sec,
            row.buffered,
            row.rule_id,
            row.rule_name
        );
    }
    if rows.len() > top {
        let _ = writeln!(out, "  … and {} more (use --top)", rows.len() - top);
    }
    out
}

/// Machine-readable cost tables; always complete, regardless of `--top`.
fn render_cost_json(targets: &[(String, Vec<CostRow>)]) -> String {
    let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"command\":\"cost\",\"targets\":[");
    for (i, (label, rows)) in targets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"rules\":{},\"rows\":[",
            json_escape(label),
            rows.len()
        );
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule_id\":\"{}\",\"rule_name\":\"{}\",\"weight\":{:.3},\"rate\":{:.6},\
                 \"probes_per_sec\":{:.3},\"buffered\":{:.3}}}",
                json_escape(&row.rule_id),
                json_escape(&row.rule_name),
                row.weight,
                row.rate,
                row.probes_per_sec,
                row.buffered
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn render_json(targets: &[(String, LintReport)]) -> String {
    let mut out = format!("{{\"schema\":\"{SCHEMA}\",\"command\":\"lint\",\"targets\":[");
    for (i, (label, report)) in targets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"rules\":{},\"errors\":{},\"warnings\":{},\"notes\":{},\
             \"diagnostics\":[",
            json_escape(label),
            report.rules,
            report.errors(),
            report.warnings(),
            report.notes()
        );
        for (j, d) in report.diagnostics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"rule_id\":\"{}\",\"rule_name\":\"{}\",\
                 \"path\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"}}",
                d.code,
                d.severity(),
                json_escape(&d.rule_id),
                json_escape(&d.rule_name),
                json_escape(&d.path),
                json_escape(&d.message),
                json_escape(&d.hint)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
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

    if opts.cost {
        let mut tables = Vec::new();
        for target in &opts.targets {
            match cost_report(&target.script, target.catalog.as_ref()) {
                Ok(rows) => tables.push((target.label.clone(), rows)),
                Err(err) => {
                    eprintln!("{}: parse error: {err}", target.label);
                    return ExitCode::from(2);
                }
            }
        }
        if opts.json {
            println!("{}", render_cost_json(&tables));
        } else {
            for (label, rows) in &tables {
                print!("{}", render_cost_human(label, rows, opts.top));
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut reports = Vec::new();
    for target in &opts.targets {
        match lint_script(&target.script, target.catalog.as_ref()) {
            Ok(report) => reports.push((target.label.clone(), report)),
            Err(err) => {
                eprintln!("{}: parse error: {err}", target.label);
                return ExitCode::from(2);
            }
        }
    }

    if opts.json {
        println!("{}", render_json(&reports));
    } else {
        for (label, report) in &reports {
            print!("{}", render_human(label, report));
        }
    }

    let errors: usize = reports.iter().map(|(_, r)| r.errors()).sum();
    let warnings: usize = reports.iter().map(|(_, r)| r.warnings()).sum();
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "CREATE RULE dup, duplicate_detection \
         ON WITHIN(observation(r, o, t1) ; observation(r, o, t2), 5 sec) \
         IF true DO send_duplicate_msg(r, o, t1)";

    #[test]
    fn lint_json_carries_schema_stamp() {
        let report = lint_script(SCRIPT, None).unwrap();
        let json = render_json(&[("t".to_owned(), report)]);
        assert_eq!(
            json,
            "{\"schema\":\"rceda-lint/v1\",\"command\":\"lint\",\"targets\":[\
             {\"name\":\"t\",\"rules\":1,\"errors\":0,\"warnings\":0,\"notes\":0,\
             \"diagnostics\":[]}]}",
        );
    }

    #[test]
    fn cost_json_carries_schema_stamp() {
        let rows = cost_report(SCRIPT, None).unwrap();
        let json = render_cost_json(&[("t".to_owned(), rows)]);
        assert!(
            json.starts_with("{\"schema\":\"rceda-lint/v1\",\"command\":\"cost\",\"targets\":["),
            "{json}"
        );
        assert!(json.contains("\"rule_id\":\"dup\""), "{json}");
        for field in [
            "\"weight\":",
            "\"rate\":",
            "\"probes_per_sec\":",
            "\"buffered\":",
        ] {
            assert!(json.contains(field), "{json}");
        }
    }

    #[test]
    fn cost_subcommand_parses() {
        let args: Vec<String> = ["cost", "--json", "--top", "5", "--sim", "default"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let opts = parse_args(&args).unwrap();
        assert!(opts.cost && opts.json);
        assert_eq!(opts.top, 5);
        assert_eq!(opts.targets.len(), 1);
        // `cost` is only a subcommand in leading position: elsewhere it is
        // a file path.
        let err = match parse_args(&["--json".to_owned(), "cost".to_owned()]) {
            Err(err) => err,
            Ok(_) => panic!("`cost` after a flag must be treated as a file path"),
        };
        assert!(err.contains("cannot read"), "{err}");
    }
}
