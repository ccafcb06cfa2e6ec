//! The little JSON this benchmark writes and reads back: result lines,
//! result sets for `compare`, and `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep key order out of the picture
/// (`BTreeMap`), since nothing here depends on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.src.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(self.err("expected `:`"));
                    }
                    map.insert(key, self.value()?);
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("expected a value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("bad UTF-8")),
                b'\\' => {
                    let Some(&e) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'u' => {
                            let hex = self.src.get(self.pos..self.pos + 4);
                            let ch = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
    }
}

/// Writes `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a number with all the digits it was measured to. JSON has no
/// NaN or infinity: those become `null`, which a reader rejects.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 prints the shortest text that round-trips.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result object a run prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::with_capacity(128 + metrics.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, m.name);
        out.push_str(": {\"value\": ");
        write_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        write_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let metrics = [
            Metric {
                name: "throughput_eps",
                unit: "events/s",
                value: 3_012_345.678_901_2,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.812_734_559,
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'), "one line");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), 2);
        let t = m.get("throughput_eps").unwrap();
        assert_eq!(
            t.get("value").and_then(Json::as_f64),
            Some(3_012_345.678_901_2)
        );
        assert_eq!(t.get("unit").and_then(Json::as_str), Some("events/s"));
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(
            Json::parse(&out).unwrap().as_str(),
            Some("a\"b\\c\nd\u{1}é")
        );
    }

    #[test]
    fn non_finite_numbers_do_not_produce_invalid_json() {
        let mut out = String::new();
        write_num(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v =
            Json::parse(" {\"a\": [1, -2.5e3, true, null, {\"b\": \"x\"}], \"c\": {}} ").unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[4].get("b").and_then(Json::as_str), Some("x"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"abc").is_err());
    }
}
