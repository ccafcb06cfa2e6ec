//! Timestamps and spans.
//!
//! RFID observations are stamped by the middleware clock; temporal
//! constraints (the τ of `TSEQ` and `WITHIN`) are spans over that clock. The
//! paper's workloads need sub-second resolution (`0.1 sec` conveyor gaps), so
//! both types count **milliseconds**. Timestamps are opaque offsets from an
//! arbitrary epoch — the simulator starts at 0; a live deployment would use
//! Unix time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A point on the middleware clock, in milliseconds since an arbitrary epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

/// A length of time, in milliseconds — the τ of temporal constraints.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Span(u64);

impl Timestamp {
    /// The epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The far future; used as the initial horizon of unbounded windows.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// From milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// From whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1000)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of a span (clamps at the epoch).
    pub const fn saturating_sub(self, span: Span) -> Self {
        Self(self.0.saturating_sub(span.0))
    }

    /// Saturating addition of a span (clamps at [`Timestamp::MAX`]).
    pub const fn saturating_add(self, span: Span) -> Self {
        Self(self.0.saturating_add(span.0))
    }

    /// Signed difference `self - other` in milliseconds.
    pub const fn signed_delta(self, other: Timestamp) -> i64 {
        self.0 as i64 - other.0 as i64
    }
}

impl Span {
    /// The empty span.
    pub const ZERO: Span = Span(0);
    /// An effectively infinite span; the neutral upper bound.
    pub const MAX: Span = Span(u64::MAX);

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1000)
    }

    /// From fractional seconds (e.g. `0.1` for the paper's conveyor gap).
    /// Rounds to the nearest millisecond; negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return Self::ZERO;
        }
        Self((s * 1000.0).round() as u64)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Self(m * 60_000)
    }

    /// Milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The smaller of two spans — used when interval constraints are
    /// propagated down the event graph (`min(own, parent)`).
    pub fn min(self, other: Span) -> Span {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Sub for Timestamp {
    type Output = Span;

    /// `a - b` as a span. Panics in debug builds if `b > a`; event code uses
    /// [`Timestamp::signed_delta`] where order is not guaranteed.
    fn sub(self, rhs: Timestamp) -> Span {
        debug_assert!(rhs <= self, "negative span: {rhs} > {self}");
        Span(self.0 - rhs.0)
    }
}

/// Saturates at [`Timestamp::MAX`], like `Span + Span`: a window closing
/// `Span::MAX` after an instant (an unbounded `τu`) closes at the far
/// future, never in the past.
impl Add<Span> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Span) -> Timestamp {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Span> for Timestamp {
    fn add_assign(&mut self, rhs: Span) {
        *self = self.saturating_add(rhs);
    }
}

impl Add for Span {
    type Output = Span;

    fn add(self, rhs: Span) -> Span {
        Span(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_millis(self.0))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_millis(self.0))
    }
}

fn format_millis(ms: u64) -> String {
    if ms == u64::MAX {
        return "inf".to_owned();
    }
    if ms.is_multiple_of(60_000) && ms > 0 {
        format!("{}min", ms / 60_000)
    } else if ms.is_multiple_of(1000) {
        format!("{}sec", ms / 1000)
    } else {
        format!("{}.{:03}sec", ms / 1000, ms % 1000)
    }
}

/// Error parsing a span from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanParseError(String);

impl fmt::Display for SpanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse span `{}` (expected e.g. `5sec`, `0.1 sec`, `10 min`)",
            self.0
        )
    }
}

impl std::error::Error for SpanParseError {}

impl FromStr for Span {
    type Err = SpanParseError;

    /// Parses the duration literals of the rule language: `5sec`, `0.1 sec`,
    /// `10min`, `250msec`, `2h`. Whitespace between number and unit is
    /// optional.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let text = s.trim();
        let split = text
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit() && *c != '.')
            .map(|(i, _)| i)
            .ok_or_else(|| SpanParseError(s.to_owned()))?;
        let (num, unit) = text.split_at(split);
        let value: f64 = num.parse().map_err(|_| SpanParseError(s.to_owned()))?;
        let factor = match unit.trim() {
            "ms" | "msec" | "millisecond" | "milliseconds" => 1.0,
            "s" | "sec" | "secs" | "second" | "seconds" => 1000.0,
            "m" | "min" | "mins" | "minute" | "minutes" => 60_000.0,
            "h" | "hr" | "hour" | "hours" => 3_600_000.0,
            _ => return Err(SpanParseError(s.to_owned())),
        };
        let ms = value * factor;
        if !ms.is_finite() || ms < 0.0 {
            return Err(SpanParseError(s.to_owned()));
        }
        Ok(Span((ms).round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t + Span::from_secs(5), Timestamp::from_secs(15));
        assert_eq!(Timestamp::from_secs(15) - t, Span::from_secs(5));
        assert_eq!(t.saturating_sub(Span::from_secs(20)), Timestamp::ZERO);
        assert_eq!(
            Timestamp::MAX.saturating_add(Span::from_secs(1)),
            Timestamp::MAX
        );
        assert_eq!(t.signed_delta(Timestamp::from_secs(12)), -2000);
    }

    #[test]
    fn adding_a_span_saturates_at_the_far_future() {
        assert_eq!(Timestamp::MAX + Span::from_millis(1), Timestamp::MAX);
        assert_eq!(Timestamp::from_secs(3) + Span::MAX, Timestamp::MAX);
        let mut t = Timestamp::MAX;
        t += Span::MAX;
        assert_eq!(t, Timestamp::MAX);
        let mut t = Timestamp::from_millis(u64::MAX - 1);
        t += Span::from_millis(1);
        assert_eq!(t, Timestamp::MAX);
    }

    #[test]
    fn span_constructors() {
        assert_eq!(Span::from_secs_f64(0.1), Span::from_millis(100));
        assert_eq!(Span::from_secs_f64(-1.0), Span::ZERO);
        assert_eq!(Span::from_secs_f64(f64::NAN), Span::ZERO);
        assert_eq!(Span::from_mins(10), Span::from_secs(600));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Span::from_secs(5).to_string(), "5sec");
        assert_eq!(Span::from_millis(100).to_string(), "0.100sec");
        assert_eq!(Span::from_mins(10).to_string(), "10min");
        assert_eq!(Span::MAX.to_string(), "inf");
        assert_eq!(Timestamp::from_secs(3).to_string(), "t=3sec");
    }

    #[test]
    fn parse_literals() {
        assert_eq!("5sec".parse::<Span>().unwrap(), Span::from_secs(5));
        assert_eq!("0.1 sec".parse::<Span>().unwrap(), Span::from_millis(100));
        assert_eq!("10 min".parse::<Span>().unwrap(), Span::from_mins(10));
        assert_eq!("250msec".parse::<Span>().unwrap(), Span::from_millis(250));
        assert_eq!("2h".parse::<Span>().unwrap(), Span::from_mins(120));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "sec", "5", "5 lightyears", "-3 sec", "1e999 sec"] {
            assert!(bad.parse::<Span>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn span_min() {
        assert_eq!(
            Span::from_secs(5).min(Span::from_secs(3)),
            Span::from_secs(3)
        );
        assert_eq!(Span::MAX.min(Span::from_secs(3)), Span::from_secs(3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative span")]
    fn negative_span_panics_in_debug() {
        let _ = Timestamp::from_secs(1) - Timestamp::from_secs(2);
    }
}
