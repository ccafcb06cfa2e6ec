//! Machine-readable result writing shared by the harness binaries.
//!
//! Every `results/BENCH_*.json` writer used to hand-roll its own comma
//! management, provenance-free header, and `results/` plumbing; this
//! module centralizes all three. Results are still hand-rolled JSON (no
//! serde in the release path), but through one builder with scope-tracked
//! separators, and every file now opens with the same provenance stamp
//! (`schema`, `host`, `commit`, `profile`, `config`) so a checked-in
//! reference records where its numbers came from.
//!
//! Parsing contract: `scripts/bench_gate.sh` reads these files with
//! first-match/single-line `awk`. Writers are responsible for field
//! order (headline metrics before repeated per-row fields) and for
//! keeping sweep rows on one line (see [`JsonBuf::elem`]); the stamp
//! introduces no keys that collide with any gate's patterns.

use std::fmt::Write as _;

/// Schema tag stamped into every result file. Bump when a writer changes
/// a field's meaning, not merely adds one.
pub const SCHEMA: &str = "rfid-bench/v1";

/// A pretty-printed JSON object builder: two-space indentation and
/// per-scope comma tracking, so writers state *what* goes in the file and
/// never count trailing commas.
pub struct JsonBuf {
    out: String,
    /// One flag per open scope: whether an entry was already emitted at
    /// that depth (and the next one therefore needs a `,` separator).
    comma: Vec<bool>,
}

impl JsonBuf {
    /// Opens the root object and writes the common provenance stamp:
    /// benchmark name, [`SCHEMA`], best-effort host and commit, the build
    /// profile, and the run's effective configuration line.
    pub fn begin(benchmark: &str, config: &str) -> Self {
        let mut buf = Self {
            out: String::from("{"),
            comma: vec![false],
        };
        buf.str_field("benchmark", benchmark);
        buf.str_field("schema", SCHEMA);
        buf.str_field("host", &host());
        buf.str_field("commit", &commit());
        buf.str_field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        buf.str_field("config", config);
        buf
    }

    /// Separator + indentation for the next entry in the current scope.
    fn pre(&mut self) {
        if let Some(started) = self.comma.last_mut() {
            if *started {
                self.out.push(',');
            }
            *started = true;
        }
        self.out.push('\n');
        for _ in 0..self.comma.len() {
            self.out.push_str("  ");
        }
    }

    /// A field with pre-rendered JSON as its value.
    pub fn raw_field(&mut self, key: &str, value: &str) {
        self.pre();
        let _ = write!(self.out, "\"{key}\": {value}");
    }

    /// A string field (value JSON-escaped).
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.pre();
        let _ = write!(self.out, "\"{key}\": \"{}\"", escape(value));
    }

    /// An integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.raw_field(key, &value.to_string());
    }

    /// A float field with fixed decimals.
    pub fn f64_field(&mut self, key: &str, value: f64, decimals: usize) {
        self.pre();
        let _ = write!(self.out, "\"{key}\": {value:.decimals$}");
    }

    /// A bool field.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.raw_field(key, if value { "true" } else { "false" });
    }

    /// An integer-or-null field (best-effort measurements).
    pub fn opt_u64_field(&mut self, key: &str, value: Option<u64>) {
        match value {
            Some(v) => self.u64_field(key, v),
            None => self.raw_field(key, "null"),
        }
    }

    /// Opens a nested object: keyed as a field, or anonymous (`None`) as
    /// an array element.
    pub fn begin_obj(&mut self, key: Option<&str>) {
        self.pre();
        if let Some(key) = key {
            let _ = write!(self.out, "\"{key}\": {{");
        } else {
            self.out.push('{');
        }
        self.comma.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// Opens an array field.
    pub fn begin_arr(&mut self, key: &str) {
        self.pre();
        let _ = write!(self.out, "\"{key}\": [");
        self.comma.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.close(']');
    }

    /// One pre-rendered array element on its own single line (sweep rows).
    pub fn elem(&mut self, rendered: &str) {
        self.pre();
        self.out.push_str(rendered);
    }

    fn close(&mut self, bracket: char) {
        self.comma.pop().expect("scope underflow");
        self.out.push('\n');
        for _ in 0..self.comma.len() {
            self.out.push_str("  ");
        }
        self.out.push(bracket);
    }

    /// Closes the root object and returns the document.
    pub fn finish(mut self) -> String {
        assert_eq!(self.comma.len(), 1, "unclosed scope at finish");
        self.out.push_str("\n}\n");
        self.out
    }
}

/// Events per wall-clock second (0 when the timer read as empty).
pub fn eps(events: usize, elapsed_ms: f64) -> f64 {
    if elapsed_ms <= 0.0 {
        return 0.0;
    }
    events as f64 / (elapsed_ms / 1000.0)
}

/// Writes a result document under `results/` and logs the path.
pub fn write_results(filename: &str, json: &str) {
    std::fs::create_dir_all("results").expect("results dir");
    let path = format!("results/{filename}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("  wrote {path}");
}

/// Hostname, best effort: `$HOSTNAME`, then the kernel's, else `unknown`.
fn host() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_owned();
        }
    }
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_owned())
        .ok()
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Short commit hash, best effort: `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_shape_with_stamp_first() {
        let mut buf = JsonBuf::begin("demo", "events=10");
        buf.u64_field("events", 10);
        buf.f64_field("events_per_sec", 1234.56, 1);
        buf.begin_arr("sweep");
        buf.elem("{ \"shards\": 1, \"events_per_sec\": 99.0 }");
        buf.elem("{ \"shards\": 2, \"events_per_sec\": 180.0 }");
        buf.end_arr();
        buf.begin_obj(Some("nested"));
        buf.bool_field("ok", true);
        buf.opt_u64_field("rss", None);
        buf.end_obj();
        let json = buf.finish();

        assert!(json.starts_with("{\n  \"benchmark\": \"demo\""));
        assert!(json.contains("\"schema\": \"rfid-bench/v1\""));
        assert!(json.contains("\"config\": \"events=10\""));
        // The stamp must not introduce the gate's headline key before the
        // writer's own field: first match is the headline, not a sweep row.
        let first = json.find("events_per_sec").expect("headline present");
        let sweep = json.find("\"sweep\"").expect("sweep present");
        assert!(first < sweep, "headline figure precedes the sweep rows");
        assert!(json.contains("\"events_per_sec\": 1234.6"));
        // Sweep rows stay on one line each (awk contract).
        assert!(json.contains("\n    { \"shards\": 1, \"events_per_sec\": 99.0 },\n"));
        assert!(json.contains("\"rss\": null"));
        assert!(json.ends_with("\n}\n"));
        // Balanced separators: no ",]"/",}" artifacts.
        assert!(!json.contains(",\n  ]") && !json.contains(",\n  }"));
    }

    #[test]
    fn eps_handles_degenerate_timers() {
        assert_eq!(eps(100, 0.0), 0.0);
        assert!((eps(1000, 500.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
