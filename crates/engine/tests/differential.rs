//! Differential property test: the calendar-queue [`Scheduler`] against the
//! retired binary-heap implementation ([`heap_scheduler::HeapScheduler`]).
//!
//! The determinism contract the whole simulator rests on is that the pop
//! sequence is a pure function of the schedule sequence: events come out in
//! `(cycle, scheduling-order)` order. The heap implementation satisfied it
//! by construction; the calendar queue must reproduce it exactly, including
//! across the ring/overflow boundary. These tests drive both schedulers
//! through identical randomized schedule/pop interleavings and assert the
//! `(cycle, event)` streams never diverge.

mod heap_scheduler;

use dvs_engine::{Cycle, DetRng, Scheduler};
use heap_scheduler::HeapScheduler;

/// Drives both schedulers through one seeded random interleaving of
/// schedules and pops, checking every pop and counter along the way.
fn differential_run(seed: u64, ops: usize, max_delay: Cycle, burst: u64) {
    let mut rng = DetRng::new(seed);
    let mut new: Scheduler<u64> = Scheduler::new();
    let mut old: HeapScheduler<u64> = HeapScheduler::new();
    let mut next_tag: u64 = 0;

    for op in 0..ops {
        // Weighted coin: schedule bursts build the queue up; pops drain it.
        if rng.range(0, 100) < 55 || old.is_empty() {
            for _ in 0..rng.range(1, burst + 1) {
                let delay = rng.range(0, max_delay + 1);
                new.schedule_in(delay, next_tag);
                old.schedule_in(delay, next_tag);
                next_tag += 1;
            }
        } else {
            let a = new.pop();
            let b = old.pop();
            assert_eq!(a, b, "seed {seed}: pop diverged at op {op}");
        }
        assert_eq!(new.len(), old.len(), "seed {seed}: len diverged at op {op}");
        assert_eq!(new.now(), old.now(), "seed {seed}: now diverged at op {op}");
        assert_eq!(
            new.peek_cycle(),
            old.peek_cycle(),
            "seed {seed}: peek diverged at op {op}"
        );
        assert_eq!(new.scheduled_events(), old.scheduled_events());
    }

    // Drain both to the end: the tails must match too.
    loop {
        let a = new.pop();
        let b = old.pop();
        assert_eq!(a, b, "seed {seed}: drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn near_future_delays_match_heap() {
    // Delays within the calendar ring: the pure ring path.
    for seed in 0..8 {
        differential_run(seed, 4000, 200, 4);
    }
}

#[test]
fn far_future_delays_match_heap() {
    // Delays far beyond the ring: the pure overflow path.
    for seed in 8..16 {
        differential_run(seed, 2000, 20_000, 4);
    }
}

#[test]
fn mixed_delays_cross_the_ring_boundary() {
    // Delays straddling the ring width, including the exact boundary, so
    // overflow events land on cycles that also hold ring events and the
    // overflow-first tie-break is exercised.
    for seed in 16..32 {
        differential_run(seed, 4000, 600, 6);
    }
}

#[test]
fn same_cycle_bursts_keep_fifo_across_tiers() {
    // Tiny delay range: huge same-cycle bursts, maximal FIFO pressure.
    for seed in 32..40 {
        differential_run(seed, 3000, 2, 16);
    }
}

#[test]
fn zero_delay_self_scheduling_matches() {
    // A core that keeps rescheduling itself at the current cycle (the
    // spin-retry pattern) must interleave identically.
    let mut new: Scheduler<u32> = Scheduler::new();
    let mut old: HeapScheduler<u32> = HeapScheduler::new();
    for i in 0..4 {
        new.schedule_at(5, i);
        old.schedule_at(5, i);
    }
    for round in 0..100u32 {
        let a = new.pop();
        let b = old.pop();
        assert_eq!(a, b, "round {round}");
        let (cycle, tag) = a.expect("queue never drains in this loop");
        assert_eq!(cycle, 5);
        new.schedule_at(5, tag + 100);
        old.schedule_at(5, tag + 100);
    }
}

#[test]
fn overflow_events_precede_ring_events_on_the_same_cycle() {
    // Construct the tie directly: one event scheduled while its cycle was
    // out of window (overflow, smaller seq), one scheduled after `now`
    // advanced enough to bring the same cycle in window (ring, larger seq).
    let mut new: Scheduler<&str> = Scheduler::new();
    let mut old: HeapScheduler<&str> = HeapScheduler::new();
    for s in [&mut new as &mut dyn FnSched, &mut old as &mut dyn FnSched] {
        s.sched(1000, "early-scheduled");
        s.sched(900, "stepping-stone");
    }
    assert_eq!(new.pop(), old.pop()); // now = 900; 1000 is in window now.
    new.schedule_at(1000, "late-scheduled");
    old.schedule_at(1000, "late-scheduled");
    assert_eq!(new.pop(), Some((1000, "early-scheduled")));
    assert_eq!(old.pop(), Some((1000, "early-scheduled")));
    assert_eq!(new.pop(), Some((1000, "late-scheduled")));
    assert_eq!(old.pop(), Some((1000, "late-scheduled")));
}

/// Object-safe shim so the tie-break test can drive both schedulers through
/// one loop despite their distinct types.
trait FnSched {
    fn sched(&mut self, at: Cycle, tag: &'static str);
}
impl FnSched for Scheduler<&'static str> {
    fn sched(&mut self, at: Cycle, tag: &'static str) {
        self.schedule_at(at, tag);
    }
}
impl FnSched for HeapScheduler<&'static str> {
    fn sched(&mut self, at: Cycle, tag: &'static str) {
        self.schedule_at(at, tag);
    }
}
