//! Per-thread architectural state and the stepping interpreter.
//!
//! A [`Thread`] executes one instruction per [`Thread::step`] call (the
//! paper's 1-CPI in-order core), or a run of them per [`Thread::run`]
//! call. An instruction either just retires (ALU, branch) or yields an
//! [`Effect`] describing what the surrounding system must do: issue a
//! memory request, stall for a delay, fence, self-invalidate, or stop.
//! Timing is entirely the system's concern; the thread only sequences
//! architectural state.

use crate::isa::{Cond, DelayLen, Instr, PhaseChange, Program, Reg, NUM_REGS};
use dvs_engine::DetRng;
use dvs_mem::{AccessKind, Addr, RmwOp};
use dvs_stats::TimeComponent;
use std::sync::Arc;

/// Execution-phase attribution override (alias of the ISA-level
/// [`PhaseChange`]).
pub type ExecPhase = PhaseChange;

/// The exit condition of a spinning load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpinCond {
    /// Condition on `(loaded value, rhs)`.
    pub cond: Cond,
    /// Right-hand side, captured at issue time.
    pub rhs: u64,
}

impl SpinCond {
    /// Whether `value` satisfies the spin's exit condition.
    pub fn satisfied(&self, value: u64) -> bool {
        self.cond.eval(value, self.rhs)
    }
}

/// A memory request issued by a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Word-aligned effective address.
    pub addr: Addr,
    /// What to do there.
    pub kind: AccessKind,
    /// Register to receive the result (loads and RMWs).
    pub dst: Option<Reg>,
    /// If set, the request is a spin: it must be re-issued until the loaded
    /// value satisfies the condition.
    pub spin: Option<SpinCond>,
}

/// What the system must do for an instruction that does more than retire
/// (see [`Thread::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Issue a memory request. The thread blocks if
    /// [`AccessKind::blocks_core`]; completion is reported via
    /// [`Thread::complete_load`] for value-returning requests.
    Mem(MemRequest),
    /// Stall for `cycles`, attributed to `comp` (plus the 1-cycle retire).
    Delay {
        /// Stall length in cycles.
        cycles: u64,
        /// Time component the stall is attributed to.
        comp: TimeComponent,
    },
    /// Drain outstanding stores before continuing.
    Fence,
    /// Self-invalidate all non-registered cached words of the region.
    SelfInvalidate(dvs_mem::layout::Region),
    /// A trace marker was executed.
    Mark(u32),
    /// The thread halted (idempotent: further steps return this).
    Halted,
    /// An assertion failed; the thread is dead.
    Failed {
        /// Program counter of the failed assertion.
        pc: usize,
        /// The assertion's message.
        msg: &'static str,
    },
}

/// One hardware thread: registers, program counter, private allocation pool
/// and private random stream.
#[derive(Debug, Clone)]
pub struct Thread {
    id: usize,
    nthreads: usize,
    program: Arc<Program>,
    regs: [u64; NUM_REGS],
    pc: usize,
    rng: DetRng,
    alloc_cursor: u64,
    alloc_limit: u64,
    phase: ExecPhase,
    halted: bool,
    failed: Option<(usize, &'static str)>,
}

impl Thread {
    /// Creates a thread with all registers zero and no allocation pool.
    pub fn new(id: usize, nthreads: usize, program: Arc<Program>, rng: DetRng) -> Self {
        assert!(id < nthreads, "thread id {id} out of {nthreads}");
        Thread {
            id,
            nthreads,
            program,
            regs: [0; NUM_REGS],
            pc: 0,
            rng,
            alloc_cursor: 0,
            alloc_limit: 0,
            phase: ExecPhase::Normal,
            halted: false,
            failed: None,
        }
    }

    /// Assigns the thread's private bump-allocation pool.
    pub fn set_alloc_pool(&mut self, base: Addr, bytes: u64) {
        self.alloc_cursor = base.raw();
        self.alloc_limit = base.raw() + bytes;
    }

    /// The thread's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Reads a register (for tests and diagnostics).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// The current attribution phase.
    pub fn phase(&self) -> ExecPhase {
        self.phase
    }

    /// Whether the thread halted normally.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The failure, if an assertion failed.
    pub fn failure(&self) -> Option<(usize, &'static str)> {
        self.failed
    }

    /// The program this thread runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Delivers the result of a value-returning memory request.
    pub fn complete_load(&mut self, dst: Option<Reg>, value: u64) {
        if let Some(r) = dst {
            self.regs[r.index()] = value;
        }
    }

    fn ea(&self, base: Reg, off: i64) -> Addr {
        let a = Addr::new(self.regs[base.index()].wrapping_add(off as u64));
        assert!(
            a.is_word_aligned(),
            "{}: thread {} unaligned access {a} at pc {}",
            self.program.name(),
            self.id,
            self.pc
        );
        a
    }

    /// Runs instructions until one needs the system, or until `budget`
    /// instructions have retired: returns how many retired and the effect
    /// it stopped on (`None` when the budget ran out). ALU, branch and
    /// bookkeeping instructions retire here without leaving the thread;
    /// they cannot interact with other cores, so the system charges the
    /// whole run at once.
    #[inline]
    pub fn run(&mut self, budget: u64) -> (u64, Option<Effect>) {
        let mut retired = 0;
        while retired < budget {
            match self.step() {
                None => retired += 1,
                eff => return (retired, eff),
            }
        }
        (retired, None)
    }

    /// Executes the instruction at the current pc: `None` if it retired
    /// with nothing for the system to do, else its effect.
    ///
    /// The pc advances *before* the effect is returned (branches set it to
    /// their target), so a blocking memory request resumes at the right
    /// place once [`Thread::complete_load`] is called.
    #[inline]
    pub fn step(&mut self) -> Option<Effect> {
        if self.halted {
            return Some(Effect::Halted);
        }
        if let Some((pc, msg)) = self.failed {
            return Some(Effect::Failed { pc, msg });
        }
        let instr = *self.program.fetch(self.pc).unwrap_or_else(|| {
            panic!(
                "{}: pc {} fell off program end",
                self.program.name(),
                self.pc
            )
        });
        let at = self.pc;
        self.pc += 1;
        let eff = match instr {
            Instr::Movi(d, imm) => {
                self.regs[d.index()] = imm;
                return None;
            }
            Instr::Mov(d, s) => {
                self.regs[d.index()] = self.regs[s.index()];
                return None;
            }
            Instr::Add(d, a, b) => return self.alu(d, a, b, u64::wrapping_add),
            Instr::Sub(d, a, b) => return self.alu(d, a, b, u64::wrapping_sub),
            Instr::Mul(d, a, b) => return self.alu(d, a, b, u64::wrapping_mul),
            Instr::Div(d, a, b) => return self.alu(d, a, b, |x, y| x.checked_div(y).unwrap_or(0)),
            Instr::Rem(d, a, b) => return self.alu(d, a, b, |x, y| x.checked_rem(y).unwrap_or(0)),
            Instr::And(d, a, b) => return self.alu(d, a, b, |x, y| x & y),
            Instr::Or(d, a, b) => return self.alu(d, a, b, |x, y| x | y),
            Instr::Xor(d, a, b) => return self.alu(d, a, b, |x, y| x ^ y),
            Instr::Addi(d, a, imm) => {
                self.regs[d.index()] = self.regs[a.index()].wrapping_add(imm as u64);
                return None;
            }
            Instr::Shl(d, a, sh) => {
                self.regs[d.index()] = self.regs[a.index()] << (sh & 63);
                return None;
            }
            Instr::Shr(d, a, sh) => {
                self.regs[d.index()] = self.regs[a.index()] >> (sh & 63);
                return None;
            }
            Instr::Set(c, d, a, b) => {
                self.regs[d.index()] = c.eval(self.regs[a.index()], self.regs[b.index()]) as u64;
                return None;
            }
            Instr::Branch(c, a, b, target) => {
                if c.eval(self.regs[a.index()], self.regs[b.index()]) {
                    self.pc = target;
                }
                return None;
            }
            Instr::Jmp(target) => {
                self.pc = target;
                return None;
            }
            Instr::Load {
                dst,
                base,
                off,
                sync,
            } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: if sync {
                    AccessKind::SyncLoad
                } else {
                    AccessKind::DataLoad
                },
                dst: Some(dst),
                spin: None,
            }),
            Instr::Store {
                src,
                base,
                off,
                sync,
            } => {
                let value = self.regs[src.index()];
                Effect::Mem(MemRequest {
                    addr: self.ea(base, off),
                    kind: if sync {
                        AccessKind::SyncStore { value }
                    } else {
                        AccessKind::DataStore { value }
                    },
                    dst: None,
                    spin: None,
                })
            }
            Instr::Cas {
                dst,
                base,
                off,
                expected,
                new,
            } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: AccessKind::SyncRmw(RmwOp::Cas {
                    expected: self.regs[expected.index()],
                    new: self.regs[new.index()],
                }),
                dst: Some(dst),
                spin: None,
            }),
            Instr::Fai {
                dst,
                base,
                off,
                delta,
            } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: AccessKind::SyncRmw(RmwOp::Fai {
                    delta: self.regs[delta.index()],
                }),
                dst: Some(dst),
                spin: None,
            }),
            Instr::Swap {
                dst,
                base,
                off,
                new,
            } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: AccessKind::SyncRmw(RmwOp::Swap {
                    new: self.regs[new.index()],
                }),
                dst: Some(dst),
                spin: None,
            }),
            Instr::Tas { dst, base, off } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: AccessKind::SyncRmw(RmwOp::Tas),
                dst: Some(dst),
                spin: None,
            }),
            Instr::SpinLoad {
                dst,
                base,
                off,
                cond,
                rhs,
                sync,
            } => Effect::Mem(MemRequest {
                addr: self.ea(base, off),
                kind: if sync {
                    AccessKind::SyncLoad
                } else {
                    AccessKind::DataLoad
                },
                dst: Some(dst),
                spin: Some(SpinCond {
                    cond,
                    rhs: self.regs[rhs.index()],
                }),
            }),
            Instr::Fence => Effect::Fence,
            Instr::SelfInv(region) => Effect::SelfInvalidate(region),
            Instr::Delay(len, comp) => {
                let cycles = match len {
                    DelayLen::Fixed(c) => c,
                    DelayLen::FromReg(r) => self.regs[r.index()],
                    DelayLen::Uniform(lo, hi) => self.rng.range(lo, hi),
                };
                Effect::Delay { cycles, comp }
            }
            Instr::Phase(p) => {
                self.phase = p;
                return None;
            }
            Instr::Tid(d) => {
                self.regs[d.index()] = self.id as u64;
                return None;
            }
            Instr::NThreads(d) => {
                self.regs[d.index()] = self.nthreads as u64;
                return None;
            }
            Instr::Alloc { dst, words } => {
                // Allocations are padded to whole cache lines (as concurrent
                // allocators do), so no two allocations share a line: a line
                // fill of one object can never cache a neighbour's
                // not-yet-written words.
                let bytes = (words as u64 * dvs_mem::WORD_BYTES).div_ceil(dvs_mem::LINE_BYTES)
                    * dvs_mem::LINE_BYTES;
                if self.alloc_cursor + bytes > self.alloc_limit {
                    self.failed = Some((at, "allocation pool exhausted"));
                    return Some(Effect::Failed {
                        pc: at,
                        msg: "allocation pool exhausted",
                    });
                }
                self.regs[dst.index()] = self.alloc_cursor;
                self.alloc_cursor += bytes;
                return None;
            }
            Instr::Mark(id) => Effect::Mark(id),
            Instr::Assert(c, a, b, msg) => {
                if c.eval(self.regs[a.index()], self.regs[b.index()]) {
                    return None;
                } else {
                    self.failed = Some((at, msg));
                    Effect::Failed { pc: at, msg }
                }
            }
            Instr::Halt => {
                self.halted = true;
                Effect::Halted
            }
            Instr::Nop => return None,
        };
        Some(eff)
    }

    fn alu(&mut self, d: Reg, a: Reg, b: Reg, f: impl Fn(u64, u64) -> u64) -> Option<Effect> {
        self.regs[d.index()] = f(self.regs[a.index()], self.regs[b.index()]);
        None
    }
}

/// Canonical hash of the architectural state. The program is excluded: it is
/// immutable for the lifetime of the thread, so two snapshots of the same
/// run always share it.
impl std::hash::Hash for Thread {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.nthreads.hash(state);
        self.regs.hash(state);
        self.pc.hash(state);
        self.rng.hash(state);
        self.alloc_cursor.hash(state);
        self.alloc_limit.hash(state);
        self.phase.hash(state);
        self.halted.hash(state);
        self.failed.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn thread_for(a: Asm) -> Thread {
        Thread::new(0, 1, Arc::new(a.build()), DetRng::new(1))
    }

    #[test]
    fn alu_semantics() {
        let mut a = Asm::new("alu");
        let (r1, r2, r3) = (Reg(1), Reg(2), Reg(3));
        a.movi(r1, 10)
            .movi(r2, 3)
            .add(r3, r1, r2) // 13
            .sub(r3, r3, r2) // 10
            .mul(r3, r3, r2) // 30
            .div(r3, r3, r2) // 10
            .rem(r3, r3, r2) // 1
            .halt();
        let mut t = thread_for(a);
        for _ in 0..8 {
            t.step();
        }
        assert_eq!(t.reg(Reg(3)), 1);
        assert!(t.is_halted());
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut a = Asm::new("div0");
        a.movi(Reg(1), 5)
            .movi(Reg(2), 0)
            .div(Reg(3), Reg(1), Reg(2))
            .rem(Reg(4), Reg(1), Reg(2))
            .halt();
        let mut t = thread_for(a);
        for _ in 0..5 {
            t.step();
        }
        assert_eq!(t.reg(Reg(3)), 0);
        assert_eq!(t.reg(Reg(4)), 0);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut a = Asm::new("br");
        let skip = a.label();
        a.movi(Reg(1), 1)
            .movi(Reg(2), 1)
            .beq(Reg(1), Reg(2), skip)
            .movi(Reg(3), 99); // skipped
        a.bind(skip);
        a.movi(Reg(4), 7).halt();
        let mut t = thread_for(a);
        while !t.is_halted() {
            t.step();
        }
        assert_eq!(t.reg(Reg(3)), 0);
        assert_eq!(t.reg(Reg(4)), 7);
    }

    #[test]
    fn run_retires_up_to_its_budget_then_stops_on_an_effect() {
        let mut a = Asm::new("run");
        a.movi(Reg(1), 0x40)
            .addi(Reg(2), Reg(1), 1)
            .addi(Reg(2), Reg(2), 1)
            .addi(Reg(2), Reg(2), 1)
            .load(Reg(3), Reg(1), 0)
            .halt();
        let mut t = thread_for(a);
        // The budget cuts the run short, and the next run resumes it.
        assert_eq!(t.run(3), (3, None));
        assert_eq!(t.reg(Reg(2)), 0x42);
        let (retired, eff) = t.run(100);
        assert_eq!(retired, 1);
        assert!(matches!(eff, Some(Effect::Mem(r)) if r.addr.raw() == 0x40));
        // An effect with nothing retired before it, and a halt that sticks.
        assert_eq!(t.run(100), (0, Some(Effect::Halted)));
        assert_eq!(t.run(100), (0, Some(Effect::Halted)));
        assert_eq!(t.reg(Reg(2)), 0x43);
    }

    #[test]
    fn load_issues_request_and_completion_writes_reg() {
        let mut a = Asm::new("ld");
        a.movi(Reg(1), 0x200).load(Reg(2), Reg(1), 8).halt();
        let mut t = thread_for(a);
        t.step();
        match t.step().expect("an effect") {
            Effect::Mem(req) => {
                assert_eq!(req.addr, Addr::new(0x208));
                assert_eq!(req.kind, AccessKind::DataLoad);
                assert_eq!(req.dst, Some(Reg(2)));
                t.complete_load(req.dst, 1234);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.reg(Reg(2)), 1234);
    }

    #[test]
    fn store_carries_value() {
        let mut a = Asm::new("st");
        a.movi(Reg(1), 0x100)
            .movi(Reg(2), 55)
            .stores(Reg(2), Reg(1), 0)
            .halt();
        let mut t = thread_for(a);
        t.step();
        t.step();
        match t.step().expect("an effect") {
            Effect::Mem(req) => {
                assert_eq!(req.kind, AccessKind::SyncStore { value: 55 });
                assert!(req.kind.is_sync());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cas_captures_operands_at_issue() {
        let mut a = Asm::new("cas");
        a.movi(Reg(1), 0x300)
            .movi(Reg(2), 7)
            .movi(Reg(3), 9)
            .cas(Reg(4), Reg(1), 0, Reg(2), Reg(3))
            .halt();
        let mut t = thread_for(a);
        for _ in 0..3 {
            t.step();
        }
        match t.step().expect("an effect") {
            Effect::Mem(req) => {
                assert_eq!(
                    req.kind,
                    AccessKind::SyncRmw(RmwOp::Cas {
                        expected: 7,
                        new: 9
                    })
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spin_load_captures_rhs() {
        let mut a = Asm::new("spin");
        a.movi(Reg(1), 0x400)
            .movi(Reg(2), 1)
            .spin_until(Reg(3), Reg(1), 0, Cond::Eq, Reg(2))
            .halt();
        let mut t = thread_for(a);
        t.step();
        t.step();
        match t.step().expect("an effect") {
            Effect::Mem(req) => {
                let spin = req.spin.expect("spin condition");
                assert!(!spin.satisfied(0));
                assert!(spin.satisfied(1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delay_uniform_is_in_range_and_deterministic() {
        let mk = || {
            let mut a = Asm::new("delay");
            a.rand_delay(128, 2048, TimeComponent::SwBackoff).halt();
            thread_for(a)
        };
        let (mut t1, mut t2) = (mk(), mk());
        match (t1.step().expect("a delay"), t2.step().expect("a delay")) {
            (Effect::Delay { cycles: c1, comp }, Effect::Delay { cycles: c2, .. }) => {
                assert!((128..2048).contains(&c1));
                assert_eq!(c1, c2);
                assert_eq!(comp, TimeComponent::SwBackoff);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alloc_bumps_and_exhausts() {
        let mut a = Asm::new("alloc");
        a.alloc(Reg(1), 2).alloc(Reg(2), 2).alloc(Reg(3), 2).halt();
        let mut t = thread_for(a);
        t.set_alloc_pool(Addr::new(0x1000), 128);
        t.step();
        t.step();
        assert_eq!(t.reg(Reg(1)), 0x1000);
        assert_eq!(t.reg(Reg(2)), 0x1040, "allocations are line-padded");
        match t.step().expect("an effect") {
            Effect::Failed { msg, .. } => assert_eq!(msg, "allocation pool exhausted"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assert_failure_sticks() {
        let mut a = Asm::new("assert");
        a.movi(Reg(1), 1)
            .movi(Reg(2), 2)
            .assert_cond(Cond::Eq, Reg(1), Reg(2), "boom")
            .halt();
        let mut t = thread_for(a);
        t.step();
        t.step();
        assert!(matches!(t.step(), Some(Effect::Failed { msg: "boom", .. })));
        assert!(matches!(t.step(), Some(Effect::Failed { msg: "boom", .. })));
        assert_eq!(t.failure(), Some((2, "boom")));
    }

    #[test]
    fn halt_is_idempotent() {
        let mut a = Asm::new("halt");
        a.halt();
        let mut t = thread_for(a);
        assert_eq!(t.step(), Some(Effect::Halted));
        assert_eq!(t.step(), Some(Effect::Halted));
        assert!(t.is_halted());
    }

    #[test]
    fn tid_and_nthreads() {
        let mut a = Asm::new("ids");
        a.tid(Reg(1)).nthreads(Reg(2)).halt();
        let mut t = Thread::new(3, 8, Arc::new(a.build()), DetRng::new(0));
        t.step();
        t.step();
        assert_eq!(t.reg(Reg(1)), 3);
        assert_eq!(t.reg(Reg(2)), 8);
    }

    #[test]
    #[should_panic(expected = "unaligned access")]
    fn unaligned_access_panics() {
        let mut a = Asm::new("unaligned");
        a.movi(Reg(1), 0x101).load(Reg(2), Reg(1), 0).halt();
        let mut t = thread_for(a);
        t.step();
        t.step();
    }

    #[test]
    fn set_instruction_materializes_conditions() {
        let mut a = Asm::new("set");
        a.movi(Reg(1), 5)
            .movi(Reg(2), 9)
            .set(Cond::Lt, Reg(3), Reg(1), Reg(2))
            .set(Cond::Eq, Reg(4), Reg(1), Reg(2))
            .halt();
        let mut t = thread_for(a);
        for _ in 0..5 {
            t.step();
        }
        assert_eq!(t.reg(Reg(3)), 1);
        assert_eq!(t.reg(Reg(4)), 0);
    }

    #[test]
    fn swap_issues_exchange_rmw() {
        let mut a = Asm::new("swap");
        a.movi(Reg(1), 0x100)
            .movi(Reg(2), 77)
            .swap(Reg(3), Reg(1), 0, Reg(2))
            .halt();
        let mut t = thread_for(a);
        t.step();
        t.step();
        match t.step().expect("an effect") {
            Effect::Mem(req) => {
                assert_eq!(req.kind, AccessKind::SyncRmw(RmwOp::Swap { new: 77 }));
                t.complete_load(req.dst, 11);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(t.reg(Reg(3)), 11);
    }

    #[test]
    fn phase_changes_are_tracked() {
        let mut a = Asm::new("phase");
        a.phase(PhaseChange::BarrierWait)
            .phase(PhaseChange::Normal)
            .halt();
        let mut t = thread_for(a);
        assert_eq!(t.phase(), ExecPhase::Normal);
        t.step();
        assert_eq!(t.phase(), ExecPhase::BarrierWait);
        t.step();
        assert_eq!(t.phase(), ExecPhase::Normal);
    }
}
