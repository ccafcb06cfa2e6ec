//! `ledger compare A B`: two sets of end-to-end runs, metric by metric.
//!
//! A set is a file of JSON lines as `--append` writes them, several seeds
//! per workload. Direction and bound of each metric come from
//! `BENCHMARK.json`, so the verdicts use the benchmark's own limits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::quant::{median, quartiles};

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Limit {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The `end_to_end` list of `BENCHMARK.json`, in file order.
pub fn limits(spec: &Json) -> Result<Vec<Limit>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Limit {
                name: field("name")?
                    .as_str()
                    .ok_or("`name` is not a string")?
                    .to_owned(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("`better` is neither `higher` nor `lower`".to_owned()),
                },
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) → values`, one per end-to-end run in the set.
pub type Set = BTreeMap<(String, String), Vec<f64>>;

/// Reads a set. Traced runs and incorrect runs carry no end-to-end values
/// and are skipped; an incorrect run is reported.
pub fn read_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or(format!("line {}: no `{k}`", i + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("`workload` is not a string")?;
        let result = field("result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("line {}: an incorrect run of `{workload}`", i + 1));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: `{name}` has no value", i + 1))?;
            set.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// What a comparison concluded for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side differ among themselves by more than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartiles and quartile spread (as a share of the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let m = median(values);
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    Summary {
        n: values.len(),
        median: m,
        q1,
        q3,
        spread: if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() },
    }
}

/// B against A under `limit`. The change is `(B − A) ÷ A`, signed so that
/// positive is worse.
pub fn judge(a: &Summary, b: &Summary, limit: &Limit) -> (Verdict, f64) {
    let raw = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if limit.higher_is_better { -raw } else { raw };
    let verdict = if a.spread.max(b.spread) > limit.bound {
        Verdict::Unresolved
    } else if worse_by > limit.bound {
        Verdict::Worse
    } else if -worse_by > limit.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// The comparison table, and whether any pair was worse or unresolved.
pub fn report(a: &Set, b: &Set, limits: &[Limit]) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:>13} {:>32} {:>13} {:>32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] spread (n)",
        "B median",
        "B [q1, q3] spread (n)",
        "B vs A",
        "bound"
    );
    for workload in workloads {
        for limit in limits {
            let key = (workload.clone(), limit.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                let _ = writeln!(out, "{workload:<10} {:<18} missing from a set", limit.name);
                clean = false;
                continue;
            };
            let (sa, sb) = (summarize(va), summarize(vb));
            let (verdict, worse_by) = judge(&sa, &sb, limit);
            clean &= matches!(verdict, Verdict::Same | Verdict::Better);
            let range = |s: &Summary| {
                format!(
                    "[{:.4}, {:.4}] {:.1}% ({})",
                    s.q1,
                    s.q3,
                    s.spread * 100.0,
                    s.n
                )
            };
            let _ = writeln!(
                out,
                "{workload:<10} {:<18} {:>13.4} {:>32} {:>13.4} {:>32} {:>+7.2}% {:>5.0}%  {}",
                limit.name,
                sa.median,
                range(&sa),
                sb.median,
                range(&sb),
                // As measured: (B − A) ÷ A median, whatever the direction.
                if limit.higher_is_better {
                    -worse_by
                } else {
                    worse_by
                } * 100.0,
                limit.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    let _ = writeln!(
        out,
        "B vs A is (B median − A median) ÷ A median; spread is (q3 − q1) ÷ median of a side's own \
         runs; unresolved means a spread exceeds the bound."
    );
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limit(higher: bool, bound: f64) -> Limit {
        Limit {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = summarize(&[100.0, 101.0, 99.0, 100.0]);
        let up = summarize(&[120.0, 121.0, 119.0, 120.0]);
        let near = summarize(&[103.0, 104.0, 102.0, 103.0]);
        let noisy = summarize(&[60.0, 140.0, 100.0, 90.0]);
        assert_eq!(judge(&a, &up, &limit(true, 0.07)).0, Verdict::Better);
        assert_eq!(judge(&a, &up, &limit(false, 0.07)).0, Verdict::Worse);
        assert_eq!(judge(&a, &near, &limit(false, 0.07)).0, Verdict::Same);
        assert_eq!(
            judge(&a, &noisy, &limit(false, 0.07)).0,
            Verdict::Unresolved
        );
        let (_, worse_by) = judge(&a, &up, &limit(false, 0.07));
        assert!((worse_by - 0.2).abs() < 1e-9, "base is A's median");
    }

    #[test]
    fn sets_are_read_from_appended_lines() {
        let line = |w: &str, trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": {trace}, \"result\": \
                 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"m\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}}}\n"
            )
        };
        let text = line("detect", 0, 1.0) + &line("detect", 0, 2.0) + &line("detect", 1, 9.0);
        let set = read_set(&text).unwrap();
        assert_eq!(set[&("detect".to_owned(), "m".to_owned())], vec![1.0, 2.0]);
        let bad = text.replace("\"correct\": true", "\"correct\": false");
        assert!(read_set(&bad).is_err());

        let spec = Json::parse(
            "{\"end_to_end\": [{\"name\": \"m\", \"unit\": \"s\", \"better\": \"lower\", \
             \"bound\": 0.1}]}",
        )
        .unwrap();
        let limits = limits(&spec).unwrap();
        assert_eq!(limits, vec![limit(false, 0.1)]);
        let (table, clean) = report(&set, &set, &limits);
        assert!(!clean, "a 1.0-vs-2.0 spread is unresolved at a 10% bound");
        assert!(table.contains("unresolved"), "{table}");
    }
}
