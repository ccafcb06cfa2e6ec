//! The engine's one event timeline (§4.5): the clock, the sequence counter
//! and one min-queue of the pseudo events that close `NOT` and `TSEQ+`
//! windows, ordered by `(at, seq)`. The paper's time rule is "consume
//! whichever comes first, the next observation or the next due pseudo
//! event"; the queue caches its head's time, so asking whether anything is
//! due before an observation is one comparison. Nothing else waits on the
//! clock: a store drops its dead entries when it admits (DESIGN.md §16).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rfid_events::Timestamp;

use crate::graph::NodeId;

/// What comes due at a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Due {
    /// Close `node`'s open `TSEQ+` run, if `(at, seq)` is still its
    /// recorded closure (a newer element re-arms a later one instead).
    CloseRun { node: NodeId },
    /// Resolve `node`'s negation wait anchored at `seq`.
    ResolveWait { node: NodeId },
}

/// A queue entry; pseudo events due at one instant fire FIFO by `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Deadline {
    pub at: Timestamp,
    pub seq: u64,
    pub due: Due,
}

#[derive(Debug, Default)]
pub(crate) struct Timeline {
    /// Timestamp of the last consumed event; never moves back.
    clock: Timestamp,
    /// The last sequence number handed out.
    seq: u64,
    queue: BinaryHeap<Reverse<Deadline>>,
    /// `at` of the queue's head.
    head: Option<Timestamp>,
    /// Pseudo events scheduled, re-arms included (stats).
    scheduled: u64,
}

impl Timeline {
    #[inline]
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Whether a read at `at` is behind the clock; one at the clock is not.
    #[inline]
    pub fn is_late(&self, at: Timestamp) -> bool {
        at < self.clock
    }

    /// Moves the clock to `now` unless it is already past it.
    #[inline]
    pub fn advance(&mut self, now: Timestamp) {
        self.clock = self.clock.max(now);
    }

    #[inline]
    pub fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedules a pseudo event at `(at, seq)`.
    pub fn schedule(&mut self, at: Timestamp, seq: u64, due: Due) {
        self.scheduled += 1;
        self.head = Some(self.head.map_or(at, |h| h.min(at)));
        self.queue.push(Reverse(Deadline { at, seq, due }));
    }

    /// Pops the next pseudo event due strictly before `before` (at all when
    /// `None`: end of stream) and moves the clock to it. Observations at the
    /// instant a window closes come first, so inclusive windows see them
    /// and a `TSEQ+` extension at exactly `last + τu` keeps its run alive.
    #[inline]
    pub fn pop_due(&mut self, before: Option<Timestamp>) -> Option<Deadline> {
        let head = self.head?;
        if before.is_some_and(|t| head >= t) {
            return None;
        }
        let Reverse(next) = self.queue.pop().expect("a cached head is queued");
        self.head = self.queue.peek().map(|Reverse(d)| d.at);
        self.advance(next.at);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn close(tl: &mut Timeline, at: u64, seq: u64) {
        tl.schedule(ms(at), seq, Due::CloseRun { node: NodeId(0) });
    }

    fn drain(tl: &mut Timeline) -> Vec<u64> {
        std::iter::from_fn(|| tl.pop_due(None))
            .map(|d| d.seq)
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut tl = Timeline::default();
        close(&mut tl, 300, 1);
        close(&mut tl, 100, 2);
        close(&mut tl, 200, 3);
        assert_eq!(drain(&mut tl), vec![2, 3, 1]);
        assert_eq!(tl.clock(), ms(300), "the clock followed the pops");
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut tl = Timeline::default();
        close(&mut tl, 100, 5);
        close(&mut tl, 100, 2);
        assert_eq!(drain(&mut tl), vec![2, 5]);
    }

    #[test]
    fn pop_due_is_strictly_before() {
        let mut tl = Timeline::default();
        close(&mut tl, 100, 1);
        assert!(tl.pop_due(Some(ms(99))).is_none());
        assert!(
            tl.pop_due(Some(ms(100))).is_none(),
            "same-instant observations run before the pseudo event"
        );
        assert!(tl.pop_due(Some(ms(101))).is_some());
        assert!(tl.pop_due(None).is_none());
        assert_eq!(tl.scheduled(), 1);
    }
}
