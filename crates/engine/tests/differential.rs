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

#[test]
fn bitmap_word_and_ring_edges_match_heap() {
    // Delays on each side of a 64-slot bitmap word and of the ring width,
    // scheduled from `now` values on and off a word boundary, so the
    // next-slot search starts mid-word, on a word's first bit, and wraps.
    let mut new: Scheduler<u64> = Scheduler::new();
    let mut old: HeapScheduler<u64> = HeapScheduler::new();
    let mut tag = 0;
    for residue in [0, 1, 63, 64, 191, 255, 0, 128] {
        // Step `now` to the next cycle in slot `residue`.
        let start = new.now() + (residue + 256 - new.now() % 256) % 256;
        new.schedule_at(start, tag);
        old.schedule_at(start, tag);
        tag += 1;
        assert_eq!(new.pop(), old.pop(), "residue {residue}");
        assert_eq!(new.now() % 256, residue);
        for delay in [0, 63, 64, 65, 127, 128, 255, 256, 257, 1] {
            new.schedule_in(delay, tag);
            old.schedule_in(delay, tag);
            tag += 1;
        }
        assert_eq!(new.peek_cycle(), old.peek_cycle());
        while !old.is_empty() {
            assert_eq!(new.pop(), old.pop(), "residue {residue}");
            assert_eq!(new.peek_cycle(), old.peek_cycle());
        }
        assert_eq!(new.pop(), None);
    }
}

#[test]
fn ring_wraps_as_now_crosses_multiples_of_the_width() {
    // A self-rescheduling chain of events that steps `now` past many
    // multiples of 256, with every event scheduling one more at a delay
    // that lands it in the slot just behind `now`'s (a full wrap) or a few
    // slots ahead, so slots are reused round after round.
    let mut new: Scheduler<u64> = Scheduler::new();
    let mut old: HeapScheduler<u64> = HeapScheduler::new();
    for i in 0..4 {
        new.schedule_at(i, i);
        old.schedule_at(i, i);
    }
    for round in 0..20_000u64 {
        let a = new.pop();
        assert_eq!(a, old.pop(), "round {round}");
        let (_, tag) = a.expect("the chain never drains");
        let delay = [255, 3, 250, 64, 0, 129][(tag % 6) as usize];
        new.schedule_in(delay, tag + 7);
        old.schedule_in(delay, tag + 7);
        assert_eq!(new.len(), old.len());
        assert_eq!(new.peek_cycle(), old.peek_cycle());
    }
    assert!(new.now() > 100 * 256, "now only reached {}", new.now());
}

#[test]
fn long_seeded_mix_of_ring_and_overflow_traffic() {
    // One long interleaving whose delays mix ring-width and overflow
    // distances, so overflow entries fall into the window while ring
    // slots are being reused.
    differential_run(0x5eed, 60_000, 1_000, 8);
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
