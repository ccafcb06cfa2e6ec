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
//!
//!   FILE            a rule-language script to lint (no deployment catalog:
//!                   the dead-leaf pass W003 is skipped)
//!   --sim PRESET    lint a simulator workload against its own catalog;
//!                   PRESET is default, benchmark, or paper-scale
//!   --json          machine-readable output
//!   --deny-warnings exit nonzero on warnings too, not just errors
//! ```
//!
//! JSON output carries a `"schema"` stamp (currently `rceda-lint/v1`) so
//! downstream consumers can detect format changes.
//!
//! Exit status: 0 clean, 1 findings at the failing level, 2 usage/IO/parse
//! errors. Note-level findings (`N001`, `N003`) are informational — they
//! report bounds and shared state the analyzer *proved* — and never affect
//! the exit status, even under `--deny-warnings`.

use std::fmt::Write as _;
use std::process::ExitCode;

use rceda::analyze::{DiagCode, Diagnostic};
use rfid_events::Catalog;
use rfid_rules::lint::{lint_script, LintReport};
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
    targets: Vec<Target>,
}

fn usage() -> &'static str {
    "usage: rceda-lint [--json] [--deny-warnings] [--sim default|benchmark|paper-scale]... [FILE]..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_warnings: false,
        targets: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
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
}
