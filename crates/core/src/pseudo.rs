//! Pseudo events and their sorted queue (§4.5).
//!
//! A pseudo event is "a special artificial event used for querying the
//! occurrences of non-spontaneous events during a specific period, and is
//! scheduled to happen at an event node's expiration time". The engine keeps
//! them in a min-heap ordered by execution time and always consumes the
//! earlier of (incoming observation, due pseudo event) — the paper's
//! two-queue fetch discipline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rfid_events::Timestamp;

use crate::graph::NodeId;

/// What a pseudo event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PseudoAction {
    /// Close the open `TSEQ+` run of `node`, if the event's `(exec, seq)` is
    /// still the run's recorded closure (a newer element re-arms a later
    /// closure instead).
    CloseRun {
        /// The `TSEQ+` node.
        node: NodeId,
    },
    /// Resolve a waiting negation anchor on `node`: query the negated child
    /// over the recorded window and emit or drop the waiting instance.
    ResolveWait {
        /// The waiting binary node.
        node: NodeId,
        /// Anchor of the waiting entry.
        anchor: u64,
    },
}

/// A scheduled pseudo event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PseudoEvent {
    /// Execution time.
    pub exec: Timestamp,
    /// Scheduling order tie-break, so simultaneous pseudo events fire FIFO.
    pub seq: u64,
    /// The action to perform.
    pub action: PseudoAction,
}

/// Min-heap of pseudo events by `(exec, seq)`.
#[derive(Debug, Default)]
pub struct PseudoQueue {
    heap: BinaryHeap<Reverse<PseudoEvent>>,
    /// Total events ever scheduled (stats).
    pub scheduled: u64,
}

impl PseudoQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a pseudo event.
    pub fn schedule(&mut self, ev: PseudoEvent) {
        self.scheduled += 1;
        self.heap.push(Reverse(ev));
    }

    /// Execution time of the next due event, if any.
    pub fn next_exec(&self) -> Option<Timestamp> {
        self.heap.peek().map(|Reverse(ev)| ev.exec)
    }

    /// Pops the next event if it is due strictly before `now`. Observations
    /// at the same instant as a window boundary are processed first, so
    /// inclusive windows see them and an extension arriving exactly at
    /// `last + τu` keeps its `TSEQ+` run alive.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<PseudoEvent> {
        match self.heap.peek() {
            Some(Reverse(ev)) if ev.exec < now => self.heap.pop().map(|Reverse(ev)| ev),
            _ => None,
        }
    }

    /// Pops the next event unconditionally (end-of-stream drain).
    pub fn pop_any(&mut self) -> Option<PseudoEvent> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(exec_ms: u64, seq: u64) -> PseudoEvent {
        PseudoEvent {
            exec: Timestamp::from_millis(exec_ms),
            seq,
            action: PseudoAction::CloseRun { node: NodeId(0) },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = PseudoQueue::new();
        q.schedule(ev(300, 1));
        q.schedule(ev(100, 2));
        q.schedule(ev(200, 3));
        assert_eq!(q.next_exec(), Some(Timestamp::from_millis(100)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_any()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = PseudoQueue::new();
        q.schedule(ev(100, 5));
        q.schedule(ev(100, 2));
        assert_eq!(q.pop_any().unwrap().seq, 2);
        assert_eq!(q.pop_any().unwrap().seq, 5);
    }

    #[test]
    fn pop_due_respects_clock() {
        let mut q = PseudoQueue::new();
        q.schedule(ev(100, 1));
        assert!(q.pop_due(Timestamp::from_millis(99)).is_none());
        assert!(
            q.pop_due(Timestamp::from_millis(100)).is_none(),
            "same-instant observations run before the pseudo event"
        );
        assert!(q.pop_due(Timestamp::from_millis(101)).is_some());
        assert!(q.is_empty());
        assert_eq!(q.scheduled, 1);
    }
}
