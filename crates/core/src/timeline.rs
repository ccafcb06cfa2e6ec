//! The engine's one event timeline (§4.5): the clock, the sequence counter
//! and one min-queue of every deadline — pseudo events and the sweep's
//! prune deadlines — ordered by `(at, seq)`. The paper's time rule is
//! "consume whichever comes first, the next observation or the next due
//! pseudo event"; the queue caches its head's time, so asking whether
//! anything is due before an observation is one comparison. A prune
//! deadline never runs where it is popped: it waits in a deferred list for
//! the batch boundary (DESIGN.md §16).

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
    /// Something buffered on `node` can die: prune it at the first batch
    /// boundary whose watermark has passed `at`. Carries no sequence.
    Prune { node: NodeId },
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
    /// Prune deadlines popped ahead of the batch boundary that runs them.
    deferred: Vec<(Timestamp, NodeId)>,
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
        self.push(Deadline { at, seq, due });
    }

    /// Arms `node`'s prune deadline; one already behind the clock is
    /// deferred at once, as if popped.
    pub fn arm_prune(&mut self, at: Timestamp, node: NodeId) {
        if at < self.clock {
            self.deferred.push((at, node));
        } else {
            self.push(Deadline {
                at,
                seq: 0,
                due: Due::Prune { node },
            });
        }
    }

    fn push(&mut self, deadline: Deadline) {
        self.head = Some(self.head.map_or(deadline.at, |h| h.min(deadline.at)));
        self.queue.push(Reverse(deadline));
    }

    /// Pops the next pseudo event due strictly before `before` (at all when
    /// `None`: end of stream) and moves the clock to it. Observations at the
    /// instant a window closes come first, so inclusive windows see them
    /// and a `TSEQ+` extension at exactly `last + τu` keeps its run alive.
    /// Prune deadlines popped on the way are deferred.
    #[inline]
    pub fn pop_due(&mut self, before: Option<Timestamp>) -> Option<Deadline> {
        match (before, self.head) {
            (_, None) => None,
            (Some(t), Some(head)) if head >= t => None,
            _ => self.pop_due_slow(before),
        }
    }

    fn pop_due_slow(&mut self, before: Option<Timestamp>) -> Option<Deadline> {
        while let Some(&Reverse(next)) = self.queue.peek() {
            if before.is_some_and(|t| next.at >= t) {
                return None;
            }
            self.queue.pop();
            self.head = self.queue.peek().map(|Reverse(d)| d.at);
            if let Due::Prune { node } = next.due {
                self.deferred.push((next.at, node));
            } else {
                self.advance(next.at);
                return Some(next);
            }
        }
        None
    }

    /// Lends the batch boundary the deferred prunes below the clock, its
    /// watermark, and re-queues the others (popped early by `finish`). Hand
    /// the list back through [`Timeline::end_sweep`].
    pub fn begin_sweep(&mut self) -> Vec<(Timestamp, NodeId)> {
        let mut due = std::mem::take(&mut self.deferred);
        due.retain(|&(at, node)| {
            let keep = at < self.clock;
            if !keep {
                self.arm_prune(at, node);
            }
            keep
        });
        due
    }

    /// Takes back the list [`Timeline::begin_sweep`] lent, keeping its
    /// capacity and whatever was deferred meanwhile.
    pub fn end_sweep(&mut self, mut due: Vec<(Timestamp, NodeId)>) {
        due.clear();
        due.append(&mut self.deferred);
        self.deferred = due;
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

    #[test]
    fn a_prune_due_mid_batch_is_deferred_not_run() {
        let mut tl = Timeline::default();
        tl.arm_prune(ms(50), NodeId(7));
        close(&mut tl, 80, 1);
        // An observation at 100: both deadlines are due, only the pseudo
        // event comes out.
        let fired = tl.pop_due(Some(ms(100))).expect("the closure is due");
        assert_eq!(fired.at, ms(80));
        assert!(tl.pop_due(Some(ms(100))).is_none());
        assert_eq!(tl.clock(), ms(80), "a prune does not move the clock");
        tl.advance(ms(100));
        assert_eq!(tl.begin_sweep(), vec![(ms(50), NodeId(7))]);
        assert_eq!(tl.scheduled(), 1, "a prune is not a pseudo event");
    }

    #[test]
    fn a_prune_popped_by_finish_waits_for_the_watermark() {
        let mut tl = Timeline::default();
        tl.advance(ms(100));
        tl.arm_prune(ms(500), NodeId(3));
        assert!(
            tl.pop_due(None).is_none(),
            "the drain fires pseudo events only"
        );
        // The boundary after the drain: the watermark has not passed 500,
        // so the deadline goes back into the queue.
        let due = tl.begin_sweep();
        assert!(due.is_empty());
        tl.end_sweep(due);
        assert!(tl.pop_due(Some(ms(500))).is_none());
        tl.advance(ms(500));
        assert!(tl.begin_sweep().is_empty(), "not below the watermark yet");
        // An observation at 501 pops it, and the next boundary prunes it.
        assert!(tl.pop_due(Some(ms(501))).is_none());
        tl.advance(ms(501));
        assert_eq!(tl.begin_sweep(), vec![(ms(500), NodeId(3))]);
    }

    #[test]
    fn a_prune_behind_the_clock_is_deferred_at_once() {
        let mut tl = Timeline::default();
        tl.advance(ms(100));
        tl.arm_prune(ms(40), NodeId(1));
        tl.arm_prune(ms(100), NodeId(2));
        assert_eq!(tl.begin_sweep(), vec![(ms(40), NodeId(1))]);
    }
}
