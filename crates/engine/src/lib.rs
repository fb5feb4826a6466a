//! Discrete-event simulation kernel for the DeNovoSync reproduction.
//!
//! This crate is the lowest layer of the simulator stack. It knows nothing
//! about caches, protocols, or networks; it provides exactly five things:
//!
//! * [`Cycle`] — the simulated time base (one cycle of the 2 GHz clock in the
//!   paper's Table 1),
//! * [`Scheduler`] — a deterministic event queue: events scheduled for the
//!   same cycle are delivered in the order they were scheduled, so a run is a
//!   pure function of its inputs and seed,
//! * [`DetRng`] — a small, dependency-free, splittable pseudo-random number
//!   generator used for workload randomization (dummy-compute lengths,
//!   software backoff, application models),
//! * [`parallel_indexed`] — the deterministic worker pool every batch
//!   engine above the simulator (campaigns, fuzz batches, the job service,
//!   swarm verification) runs on: results come back in index order at any
//!   worker count,
//! * [`write_durable`] — the one crash-safe file replacement (temp file,
//!   fsync, rename, directory fsync) behind every file those engines
//!   persist.
//!
//! # Examples
//!
//! ```
//! use dvs_engine::Scheduler;
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(5, "world");
//! sched.schedule_in(1, "hello");
//! assert_eq!(sched.pop(), Some((1, "hello")));
//! assert_eq!(sched.pop(), Some((5, "world")));
//! assert_eq!(sched.now(), 5);
//! ```

pub mod durable;
pub mod pool;
pub mod rng;

pub use durable::write_durable;
pub use pool::parallel_indexed;
pub use rng::DetRng;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time, in core clock cycles.
pub type Cycle = u64;

/// The FNV-1a 64-bit offset basis — the starting value for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: folds `byte` into `hash`. The one hash behind the
/// workspace's determinism digests and checksums (campaign reports, fuzz
/// batches, checkpoints, the serve store and journal), so their values
/// stay comparable across tools.
pub fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds every byte of `s` into `hash` with [`fnv1a`].
pub fn fnv1a_str(hash: u64, s: &str) -> u64 {
    s.bytes().fold(hash, fnv1a)
}

/// Width of the calendar ring: events within this many cycles of `now` live
/// in O(1) per-cycle lists; everything further out sits in the overflow
/// heap. 256 covers every single-hop latency in the simulated machine
/// (DRAM at 150 cycles is the largest — see `dvs-core`'s `LatencyConfig`),
/// so the heap only sees pathological far-future events.
const RING: usize = 256;
/// Words in the ring's occupancy bitmap.
const WORDS: usize = RING / 64;
/// The end of a node list.
const NIL: u32 = u32::MAX;

/// A deterministic discrete-event scheduler.
///
/// Events are ordered by `(cycle, sequence)`: ties on the cycle are broken by
/// scheduling order, which makes simulations exactly reproducible. The
/// scheduler tracks the current simulated time ([`Scheduler::now`]), which
/// advances monotonically as events are popped.
///
/// # Implementation
///
/// A two-tier calendar queue. Near-future events (within [`RING`] cycles of
/// `now`) live in one node slab, threaded into a FIFO list per ring slot
/// (head and tail index per slot, plus a free list), and a 256-bit
/// occupancy bitmap marks the non-empty slots, so a pop finds the next
/// non-empty cycle with `trailing_zeros` instead of probing cycle by cycle.
/// Scheduling and popping allocate nothing once the slab has grown to the
/// run's peak. Far-future events go into a conventional `(cycle, seq)`
/// binary heap and are popped from there directly. The pop order is
/// identical to a single global `(cycle, seq)` priority queue
/// (property-tested against the retired binary-heap scheduler in
/// `tests/differential.rs`): within a cycle, overflow events always
/// precede ring events because an event can only have entered the
/// overflow tier at a strictly earlier scheduling time — `now` is
/// monotone, so its sequence number is strictly smaller.
///
/// # Examples
///
/// ```
/// use dvs_engine::Scheduler;
///
/// let mut sched: Scheduler<u32> = Scheduler::new();
/// sched.schedule_at(10, 1);
/// sched.schedule_at(10, 2); // same cycle: FIFO order preserved
/// assert_eq!(sched.pop(), Some((10, 1)));
/// assert_eq!(sched.pop(), Some((10, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    /// Ring events and recycled nodes. A live node holds its event and the
    /// index of the next node in its slot's list; a free node holds `None`
    /// and the next free node.
    nodes: Vec<Node<E>>,
    /// `slots[c % RING]` is the `(head, tail)` of the FIFO list for
    /// absolute cycle `c`, valid for `c` in `[now, now + RING)`. Slots
    /// below `now` are always empty (a cycle is fully drained before `now`
    /// moves past it), so each slot is unambiguous.
    slots: Vec<(u32, u32)>,
    /// Bit `s` is set ⇔ `slots[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Head of the free-node list.
    free: u32,
    /// Number of events currently in the ring (so pops skip the bitmap
    /// entirely when only the overflow tier is populated).
    ring_len: usize,
    /// Far-future events, ordered by `(cycle, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    now: Cycle,
    seq: u64,
    scheduled: u64,
}

#[derive(Debug, Clone)]
struct Node<E> {
    event: Option<E>,
    next: u32,
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

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at cycle 0.
    pub fn new() -> Self {
        Scheduler {
            nodes: Vec::new(),
            slots: vec![(NIL, NIL); RING],
            occupied: [0; WORDS],
            free: NIL,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            now: 0,
            seq: 0,
            scheduled: 0,
        }
    }

    /// The current simulated cycle (the cycle of the most recently popped
    /// event, or 0 if none has been popped yet).
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
    #[inline]
    pub fn schedule_at(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        self.seq += 1;
        self.scheduled += 1;
        if at - self.now >= RING as Cycle {
            self.overflow.push(Entry {
                key: Reverse((at, self.seq)),
                event,
            });
            return;
        }
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let n = match self.free {
            NIL => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            n => {
                let slot = &mut self.nodes[n as usize];
                self.free = slot.next;
                *slot = node;
                n
            }
        };
        let s = (at % RING as Cycle) as usize;
        match self.slots[s] {
            (NIL, _) => {
                self.slots[s] = (n, n);
                self.occupied[s / 64] |= 1 << (s % 64);
            }
            (_, tail) => {
                self.nodes[tail as usize].next = n;
                self.slots[s].1 = n;
            }
        }
        self.ring_len += 1;
    }

    /// Schedules `event` `delay` cycles from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The earliest non-empty ring cycle and its slot, if the ring holds
    /// any event: the first set bit of the occupancy bitmap at or after
    /// `now`'s slot, wrapping once around the ring.
    #[inline]
    fn next_ring(&self) -> Option<(Cycle, usize)> {
        if self.ring_len == 0 {
            return None;
        }
        let from = (self.now % RING as Cycle) as usize;
        let (w0, bit) = (from / 64, from % 64);
        let mut s = match self.occupied[w0] & (!0u64 << bit) {
            0 => (1..=WORDS)
                .map(|k| (w0 + k) % WORDS)
                .find_map(|w| match self.occupied[w] {
                    0 => None,
                    bits => Some(w * 64 + bits.trailing_zeros() as usize),
                })
                .expect("a non-empty ring has an occupied slot"),
            bits => w0 * 64 + bits.trailing_zeros() as usize,
        };
        if s < from {
            s += RING;
        }
        Some((self.now + (s - from) as Cycle, s % RING))
    }

    /// Removes and returns the next event, advancing [`Scheduler::now`] to
    /// its cycle. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if let Some((cycle, s)) = self.next_ring() {
            // The overflow tier can undercut the ring (its events may have
            // fallen inside the window as `now` advanced), and at an equal
            // cycle it wins: overflow entries always carry smaller seqs.
            if self.overflow.peek().is_none_or(|e| e.key.0 .0 > cycle) {
                let n = self.slots[s].0;
                let node = &mut self.nodes[n as usize];
                let event = node.event.take().expect("a live node holds its event");
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = n;
                self.slots[s].0 = next;
                if next == NIL {
                    self.slots[s].1 = NIL;
                    self.occupied[s / 64] &= !(1 << (s % 64));
                }
                self.ring_len -= 1;
                self.now = cycle;
                return Some((cycle, event));
            }
        }
        let entry = self.overflow.pop()?;
        let Reverse((cycle, _)) = entry.key;
        debug_assert!(cycle >= self.now);
        self.now = cycle;
        Some((cycle, entry.event))
    }

    /// The cycle of the next pending event, if any.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        let horizon = self.overflow.peek().map(|e| e.key.0 .0);
        match (self.next_ring(), horizon) {
            (Some((ring, _)), Some(h)) => Some(ring.min(h)),
            (ring, h) => ring.map(|r| r.0).or(h),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(30, 'c');
        s.schedule_at(10, 'a');
        s.schedule_at(20, 'b');
        assert_eq!(s.pop(), Some((10, 'a')));
        assert_eq!(s.pop(), Some((20, 'b')));
        assert_eq!(s.pop(), Some((30, 'c')));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut s = Scheduler::new();
        for i in 0..100u32 {
            s.schedule_at(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(s.pop(), Some((7, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut s = Scheduler::new();
        assert_eq!(s.now(), 0);
        s.schedule_at(5, ());
        s.pop();
        assert_eq!(s.now(), 5);
        s.schedule_in(3, ());
        assert_eq!(s.peek_cycle(), Some(8));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(10, ());
        s.pop();
        s.schedule_at(9, ());
    }

    #[test]
    fn len_and_counters() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_at(1, ());
        s.schedule_at(2, ());
        assert_eq!(s.len(), 2);
        assert_eq!(s.scheduled_events(), 2);
        s.pop();
        assert_eq!(s.len(), 1);
        assert_eq!(s.scheduled_events(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut s = Scheduler::new();
        s.schedule_at(1, 1u32);
        s.schedule_at(4, 4u32);
        assert_eq!(s.pop(), Some((1, 1)));
        s.schedule_at(2, 2u32);
        s.schedule_at(3, 3u32);
        assert_eq!(s.pop(), Some((2, 2)));
        assert_eq!(s.pop(), Some((3, 3)));
        assert_eq!(s.pop(), Some((4, 4)));
    }
}
