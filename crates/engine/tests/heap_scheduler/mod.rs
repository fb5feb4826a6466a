//! The original binary-heap scheduler, kept as a test-only differential
//! oracle.
//!
//! [`HeapScheduler`] is the `Scheduler` implementation the engine shipped
//! before the calendar-queue rewrite: one global `BinaryHeap` ordered by
//! `(cycle, seq)`. It is retained verbatim — same API, same panic contract —
//! so `differential.rs` can replay arbitrary schedule/pop interleavings
//! against both implementations and assert identical `(cycle, event)` pop
//! sequences.

use dvs_engine::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-calendar-queue scheduler: a single `(cycle, seq)` binary heap.
///
/// Semantically identical to [`dvs_engine::Scheduler`]; kept only as the oracle
/// for differential testing.
#[derive(Debug, Clone)]
pub struct HeapScheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Cycle,
    seq: u64,
    scheduled: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Reverse<(Cycle, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapScheduler<E> {
    /// Creates an empty scheduler at cycle 0.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            scheduled: 0,
        }
    }

    /// The current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total number of events scheduled over the lifetime of this scheduler.
    pub fn scheduled_events(&self) -> u64 {
        self.scheduled
    }

    /// Schedules `event` at absolute cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`).
    pub fn schedule_at(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        self.seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry {
            key: Reverse((at, self.seq)),
            event,
        });
    }

    /// Schedules `event` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the next event, advancing `now` to its cycle.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let entry = self.heap.pop()?;
        let Reverse((cycle, _)) = entry.key;
        debug_assert!(cycle >= self.now);
        self.now = cycle;
        Some((cycle, entry.event))
    }

    /// The cycle of the next pending event, if any.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.key.0 .0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}
