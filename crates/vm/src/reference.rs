//! An untimed, sequentially consistent reference executor.
//!
//! [`RefMachine`] runs a set of thread programs by round-robin interleaving,
//! applying each memory operation atomically against a flat memory image.
//! The resulting execution is sequentially consistent by construction, which
//! makes the machine useful two ways:
//!
//! * as a **functional testbed** for the synchronization kernels (does the
//!   Michael–Scott queue preserve FIFO order? does the barrier hold threads
//!   back?) independent of protocol timing, and
//! * as the **oracle** in differential tests: the timed simulator's final
//!   memory image for a data-race-free program must match the reference's
//!   for at least the single-threaded and deterministic cases.

use crate::isa::Program;
use crate::thread::{Effect, MemRequest, Thread};
use dvs_engine::DetRng;
use dvs_mem::{AccessKind, Addr, MainMemory};
use std::sync::Arc;

/// An error terminating a reference run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// A thread's `Assert` failed.
    AssertFailed {
        /// The failing thread.
        thread: usize,
        /// Program counter of the assertion.
        pc: usize,
        /// Assertion message.
        msg: &'static str,
    },
    /// The step budget ran out before all threads halted (livelock/deadlock
    /// or simply too small a budget).
    StepBudgetExhausted,
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefError::AssertFailed { thread, pc, msg } => {
                write!(f, "thread {thread} assertion failed at pc {pc}: {msg}")
            }
            RefError::StepBudgetExhausted => f.write_str("step budget exhausted"),
        }
    }
}

impl std::error::Error for RefError {}

/// Per-thread bump-allocator pool size used by [`RefMachine::new`], in bytes.
pub const DEFAULT_POOL_BYTES: u64 = 1 << 20;

/// Base address of the first thread-private pool. Pools live far above any
/// layout the workloads build.
pub const POOL_BASE: u64 = 1 << 40;

/// Computes the base address of thread `id`'s private allocation pool.
pub fn pool_base(id: usize) -> Addr {
    Addr::new(POOL_BASE + id as u64 * DEFAULT_POOL_BYTES)
}

/// The untimed SC executor. See the [module docs](self).
#[derive(Debug)]
pub struct RefMachine {
    threads: Vec<Thread>,
    blocked: Vec<Option<MemRequest>>, // spinning requests waiting to succeed
    memory: MainMemory,
    marks: Vec<Vec<u32>>,
}

impl RefMachine {
    /// Creates a machine with one thread per program, seeded deterministically.
    ///
    /// Accepts plain [`Program`]s or shared `Arc<Program>`s (workloads store
    /// the latter so simulators can be materialized without deep clones).
    pub fn new(programs: impl IntoIterator<Item = impl Into<Arc<Program>>>) -> Self {
        Self::with_seed(programs, 0xD15C)
    }

    /// Creates a machine with an explicit seed for the threads' random
    /// streams.
    pub fn with_seed(
        programs: impl IntoIterator<Item = impl Into<Arc<Program>>>,
        seed: u64,
    ) -> Self {
        let programs: Vec<Arc<Program>> = programs.into_iter().map(Into::into).collect();
        let n = programs.len();
        let root = DetRng::new(seed);
        let threads: Vec<Thread> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut t = Thread::new(i, n, p, root.split(i as u64));
                t.set_alloc_pool(pool_base(i), DEFAULT_POOL_BYTES);
                t
            })
            .collect();
        RefMachine {
            blocked: vec![None; threads.len()],
            marks: vec![Vec::new(); threads.len()],
            threads,
            memory: MainMemory::new(),
        }
    }

    /// The memory image (writable, e.g. to pre-initialize workload data).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// The memory image.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The trace markers each thread emitted, in program order.
    pub fn marks(&self, thread: usize) -> &[u32] {
        &self.marks[thread]
    }

    /// A thread's architectural state (for assertions in tests).
    pub fn thread(&self, i: usize) -> &Thread {
        &self.threads[i]
    }

    /// Overrides a thread's private bump-allocation pool.
    pub fn set_thread_pool(&mut self, i: usize, base: Addr, bytes: u64) {
        self.threads[i].set_alloc_pool(base, bytes);
    }

    fn apply(&mut self, thread: usize, req: MemRequest) {
        let w = req.addr.word();
        match req.kind {
            AccessKind::DataLoad | AccessKind::SyncLoad => {
                let v = self.memory.read_word(w);
                self.threads[thread].complete_load(req.dst, v);
            }
            AccessKind::DataStore { value } | AccessKind::SyncStore { value } => {
                self.memory.write_word(w, value);
            }
            AccessKind::SyncRmw(op) => {
                let old = self.memory.read_word(w);
                self.memory.write_word(w, op.apply(old));
                self.threads[thread].complete_load(req.dst, old);
            }
        }
    }

    /// Runs until every thread halts or `max_steps` instructions have
    /// executed in total.
    ///
    /// # Errors
    ///
    /// [`RefError::AssertFailed`] if a kernel assertion fails;
    /// [`RefError::StepBudgetExhausted`] if the budget runs out first.
    pub fn run(&mut self, max_steps: u64) -> Result<(), RefError> {
        let mut steps = 0u64;
        loop {
            let mut all_halted = true;
            let mut progressed = false;
            for i in 0..self.threads.len() {
                // A thread blocked in a spin re-checks memory this round.
                if let Some(req) = self.blocked[i] {
                    let v = self.memory.read_word(req.addr.word());
                    let spin = req.spin.expect("blocked thread must be spinning");
                    if spin.satisfied(v) {
                        self.threads[i].complete_load(req.dst, v);
                        self.blocked[i] = None;
                        progressed = true;
                    } else {
                        all_halted = false;
                        continue;
                    }
                }
                if self.threads[i].is_halted() {
                    continue;
                }
                all_halted = false;
                progressed = true;
                steps += 1;
                match self.threads[i].step() {
                    None | Some(Effect::Delay { .. } | Effect::Fence) => {}
                    Some(Effect::SelfInvalidate(_) | Effect::Halted) => {}
                    Some(Effect::Mark(m)) => self.marks[i].push(m),
                    Some(Effect::Failed { pc, msg }) => {
                        return Err(RefError::AssertFailed { thread: i, pc, msg })
                    }
                    Some(Effect::Mem(req)) => {
                        if let Some(spin) = req.spin {
                            let v = self.memory.read_word(req.addr.word());
                            if spin.satisfied(v) {
                                self.threads[i].complete_load(req.dst, v);
                            } else {
                                self.blocked[i] = Some(req);
                            }
                        } else {
                            self.apply(i, req);
                        }
                    }
                }
                if steps >= max_steps {
                    return Err(RefError::StepBudgetExhausted);
                }
            }
            if all_halted {
                return Ok(());
            }
            if !progressed {
                // Every live thread is spinning on a condition nothing can
                // change any more.
                return Err(RefError::StepBudgetExhausted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::{Cond, Reg};

    #[test]
    fn single_thread_computes_and_stores() {
        let mut a = Asm::new("calc");
        a.movi(Reg(1), 21)
            .movi(Reg(2), 2)
            .mul(Reg(3), Reg(1), Reg(2))
            .movi(Reg(4), 0x800)
            .store(Reg(3), Reg(4), 0)
            .halt();
        let mut m = RefMachine::new(vec![a.build()]);
        m.run(100).unwrap();
        assert_eq!(m.memory().read_word(Addr::new(0x800).word()), 42);
    }

    #[test]
    fn two_threads_increment_atomically() {
        let make = |_: usize| {
            let mut a = Asm::new("fai");
            a.movi(Reg(1), 0x100).movi(Reg(2), 1);
            for _ in 0..50 {
                a.fai(Reg(3), Reg(1), 0, Reg(2));
            }
            a.halt();
            a.build()
        };
        let mut m = RefMachine::new(vec![make(0), make(1)]);
        m.run(10_000).unwrap();
        assert_eq!(m.memory().read_word(Addr::new(0x100).word()), 100);
    }

    #[test]
    fn producer_consumer_via_spin() {
        // Thread 0 writes data then sets a flag; thread 1 spins on the flag
        // and must observe the data.
        let mut p0 = Asm::new("producer");
        p0.movi(Reg(1), 0x100) // data
            .movi(Reg(2), 0x140) // flag
            .movi(Reg(3), 777)
            .store(Reg(3), Reg(1), 0)
            .movi(Reg(4), 1)
            .stores(Reg(4), Reg(2), 0)
            .halt();
        let mut p1 = Asm::new("consumer");
        p1.movi(Reg(2), 0x140)
            .movi(Reg(4), 1)
            .spin_until(Reg(5), Reg(2), 0, Cond::Eq, Reg(4))
            .movi(Reg(1), 0x100)
            .load(Reg(6), Reg(1), 0)
            .movi(Reg(7), 777)
            .assert_cond(Cond::Eq, Reg(6), Reg(7), "consumer saw stale data")
            .halt();
        let mut m = RefMachine::new(vec![p0.build(), p1.build()]);
        m.run(10_000).unwrap();
        assert_eq!(m.thread(1).reg(Reg(6)), 777);
    }

    #[test]
    fn failed_assert_is_reported() {
        let mut a = Asm::new("bad");
        a.movi(Reg(1), 1)
            .movi(Reg(2), 2)
            .assert_cond(Cond::Eq, Reg(1), Reg(2), "nope")
            .halt();
        let mut m = RefMachine::new(vec![a.build()]);
        match m.run(100) {
            Err(RefError::AssertFailed {
                thread: 0,
                msg: "nope",
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn livelock_hits_budget() {
        let mut a = Asm::new("spin-forever");
        a.movi(Reg(1), 0x100)
            .movi(Reg(2), 1)
            .spin_until(Reg(3), Reg(1), 0, Cond::Eq, Reg(2))
            .halt();
        let mut m = RefMachine::new(vec![a.build()]);
        assert_eq!(m.run(1_000), Err(RefError::StepBudgetExhausted));
    }

    #[test]
    fn marks_are_recorded_per_thread() {
        let mut a = Asm::new("marks");
        a.mark(1).mark(2).halt();
        let mut b = Asm::new("marks2");
        b.mark(9).halt();
        let mut m = RefMachine::new(vec![a.build(), b.build()]);
        m.run(100).unwrap();
        assert_eq!(m.marks(0), &[1, 2]);
        assert_eq!(m.marks(1), &[9]);
    }

    #[test]
    fn alloc_pools_do_not_collide() {
        let make = || {
            let mut a = Asm::new("alloc");
            a.alloc(Reg(1), 4)
                .movi(Reg(2), 5)
                .store(Reg(2), Reg(1), 0)
                .halt();
            a.build()
        };
        let mut m = RefMachine::new(vec![make(), make()]);
        m.run(100).unwrap();
        let a0 = m.thread(0).reg(Reg(1));
        let a1 = m.thread(1).reg(Reg(1));
        assert_ne!(a0, a1);
        assert_eq!(m.memory().read_word(Addr::new(a0).word()), 5);
        assert_eq!(m.memory().read_word(Addr::new(a1).word()), 5);
    }
}
