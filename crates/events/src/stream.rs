//! Stream assembly: repairing bounded disorder.
//!
//! The detection engine consumes one globally time-ordered stream, but a
//! deployment has many readers, each delivering its own feed with its own
//! latency. [`Reorderer`] is the piece middleware needs in front of the
//! engine: a slack buffer that repairs *bounded* disorder. An observation
//! may arrive up to `slack` later than a younger observation and still be
//! emitted in correct order. Anything later than that is reported as a
//! late arrival instead of silently corrupting engine state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::observation::Observation;
use crate::time::{Span, Timestamp};

/// Repairs bounded disorder with a time-slack buffer.
///
/// Observations are held until the high-water mark (the newest timestamp
/// seen) exceeds their time by `slack`; then they are released in order.
/// An observation older than the watermark that has already been passed is
/// *late*: it is returned separately rather than emitted out of order.
#[derive(Debug)]
pub struct Reorderer {
    slack: Span,
    pending: BinaryHeap<Reverse<Observation>>,
    /// Everything at or before this time has already been released.
    released_through: Option<Timestamp>,
    high_water: Timestamp,
    late: u64,
}

impl Reorderer {
    /// Creates a reorderer tolerating up to `slack` of disorder.
    pub fn new(slack: Span) -> Self {
        Self {
            slack,
            pending: BinaryHeap::new(),
            released_through: None,
            high_water: Timestamp::ZERO,
            late: 0,
        }
    }

    /// Offers one observation; returns the observations that became safe to
    /// release, in order. A `None` in the first slot of the result means
    /// the offered observation itself was too late and was dropped.
    pub fn offer(&mut self, obs: Observation) -> Result<Vec<Observation>, Observation> {
        if let Some(through) = self.released_through {
            if obs.at < through {
                self.late += 1;
                return Err(obs);
            }
        }
        self.high_water = self.high_water.max(obs.at);
        self.pending.push(Reverse(obs));
        Ok(self.release())
    }

    /// Releases everything whose time is at least `slack` behind the
    /// high-water mark.
    fn release(&mut self) -> Vec<Observation> {
        let safe_through = self.high_water.saturating_sub(self.slack);
        let mut out = Vec::new();
        while let Some(Reverse(front)) = self.pending.peek() {
            if front.at <= safe_through {
                let obs = self.pending.pop().expect("peeked").0;
                self.released_through =
                    Some(self.released_through.map_or(obs.at, |t| t.max(obs.at)));
                out.push(obs);
            } else {
                break;
            }
        }
        out
    }

    /// Flushes every pending observation (end of stream), in order.
    pub fn flush(&mut self) -> Vec<Observation> {
        let mut out = Vec::with_capacity(self.pending.len());
        while let Some(Reverse(obs)) = self.pending.pop() {
            out.push(obs);
        }
        if let Some(&last) = out.last() {
            self.released_through = Some(self.released_through.map_or(last.at, |t| t.max(last.at)));
        }
        out
    }

    /// Observations rejected as too late so far.
    pub fn late_count(&self) -> u64 {
        self.late
    }

    /// Observations currently held back.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_epc::{Gid96, ReaderId};

    fn obs(reader: u32, ms: u64) -> Observation {
        Observation::new(
            ReaderId(reader),
            Gid96::new(1, 1, ms).unwrap().into(),
            Timestamp::from_millis(ms),
        )
    }

    #[test]
    fn reorderer_orders_and_reports_late() {
        let mut r = Reorderer::new(Span::from_millis(100));
        let mut out = Vec::new();
        // 50 and 30 arrive swapped; 200 advances the watermark far enough to
        // release both in order.
        out.extend(r.offer(obs(0, 50)).unwrap());
        out.extend(r.offer(obs(0, 30)).unwrap());
        assert!(out.is_empty(), "slack holds them back");
        out.extend(r.offer(obs(0, 200)).unwrap());
        let times: Vec<u64> = out.iter().map(|o| o.at.as_millis()).collect();
        assert_eq!(times, vec![30, 50]);

        // An arrival older than what was already released is rejected.
        let late = r.offer(obs(0, 10)).unwrap_err();
        assert_eq!(late.at.as_millis(), 10);
        assert_eq!(r.late_count(), 1);

        // Flush drains the rest in order.
        out.extend(r.offer(obs(0, 150)).unwrap());
        let tail: Vec<u64> = r.flush().iter().map(|o| o.at.as_millis()).collect();
        assert_eq!(tail, vec![150, 200]);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reorderer_output_feeds_engine_ordered() {
        // Whatever the input disorder (within slack), the concatenated
        // output is non-decreasing.
        let mut r = Reorderer::new(Span::from_millis(500));
        let input = [5u64, 3, 9, 1, 20, 15, 40, 33, 60, 55];
        let mut out = Vec::new();
        for &ms in &input {
            if let Ok(batch) = r.offer(obs(0, ms)) {
                out.extend(batch);
            }
        }
        out.extend(r.flush());
        assert!(out.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(out.len() as u64 + r.late_count(), input.len() as u64);
    }
}
