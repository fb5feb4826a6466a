//! Randomized tests over the whole stack, driven by the in-house [`DetRng`]
//! so the workspace builds with no external dependencies.
//!
//! * random ALU programs agree with a direct Rust evaluation (VM semantics);
//! * random data-race-free phase programs produce identical results on
//!   MESI, DeNovoSync0, DeNovoSync, and the untimed SC reference machine
//!   (the data-consistency guarantee self-invalidation must provide);
//! * random racy synchronization-only programs preserve counter totals on
//!   every protocol (write serialization + atomicity of the registration
//!   path).
//!
//! Every case derives from a fixed seed via `DetRng::split`, so a failure
//! message's case index is enough to reproduce it exactly.

use denovosync_suite::core::config::{Protocol, SystemConfig};
use denovosync_suite::core::System;
use dvs_engine::DetRng;
use dvs_kernels::sync::{emit_prologue, TreeBarrier, ITER, ITERS};
use dvs_mem::{Addr, LayoutBuilder, MemoryLayout, LINE_BYTES};
use dvs_vm::isa::{Cond, Reg};
use dvs_vm::reference::RefMachine;
use dvs_vm::{Asm, Program};

/// Root seed for every randomized test in this file.
const SEED: u64 = 0xDE40_505C;

// ---------------------------------------------------------------------------
// 1. VM ALU semantics vs a direct evaluator.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum AluOp {
    Movi(u8, u64),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
    Rem(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    Addi(u8, u8, i32),
}

fn random_alu_op(rng: &mut DetRng) -> AluOp {
    let d = rng.below(12) as u8;
    let a = rng.below(12) as u8;
    let b = rng.below(12) as u8;
    match rng.below(12) {
        0 => AluOp::Movi(d, rng.next_u64()),
        1 => AluOp::Add(d, a, b),
        2 => AluOp::Sub(d, a, b),
        3 => AluOp::Mul(d, a, b),
        4 => AluOp::Div(d, a, b),
        5 => AluOp::Rem(d, a, b),
        6 => AluOp::And(d, a, b),
        7 => AluOp::Or(d, a, b),
        8 => AluOp::Xor(d, a, b),
        9 => AluOp::Shl(d, a, rng.below(64) as u8),
        10 => AluOp::Shr(d, a, rng.below(64) as u8),
        _ => AluOp::Addi(d, a, rng.next_u64() as i32),
    }
}

fn eval_alu(ops: &[AluOp]) -> [u64; 12] {
    let mut r = [0u64; 12];
    for &op in ops {
        match op {
            AluOp::Movi(d, v) => r[d as usize] = v,
            AluOp::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            AluOp::Sub(d, a, b) => r[d as usize] = r[a as usize].wrapping_sub(r[b as usize]),
            AluOp::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]),
            AluOp::Div(d, a, b) => {
                r[d as usize] = r[a as usize].checked_div(r[b as usize]).unwrap_or(0)
            }
            AluOp::Rem(d, a, b) => {
                r[d as usize] = r[a as usize].checked_rem(r[b as usize]).unwrap_or(0)
            }
            AluOp::And(d, a, b) => r[d as usize] = r[a as usize] & r[b as usize],
            AluOp::Or(d, a, b) => r[d as usize] = r[a as usize] | r[b as usize],
            AluOp::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
            AluOp::Shl(d, a, s) => r[d as usize] = r[a as usize] << (s & 63),
            AluOp::Shr(d, a, s) => r[d as usize] = r[a as usize] >> (s & 63),
            AluOp::Addi(d, a, i) => r[d as usize] = r[a as usize].wrapping_add(i as i64 as u64),
        }
    }
    r
}

fn assemble_alu(ops: &[AluOp]) -> Program {
    let mut a = Asm::new("prop-alu");
    for &op in ops {
        match op {
            AluOp::Movi(d, v) => a.movi(Reg(d), v),
            AluOp::Add(d, x, y) => a.add(Reg(d), Reg(x), Reg(y)),
            AluOp::Sub(d, x, y) => a.sub(Reg(d), Reg(x), Reg(y)),
            AluOp::Mul(d, x, y) => a.mul(Reg(d), Reg(x), Reg(y)),
            AluOp::Div(d, x, y) => a.div(Reg(d), Reg(x), Reg(y)),
            AluOp::Rem(d, x, y) => a.rem(Reg(d), Reg(x), Reg(y)),
            AluOp::And(d, x, y) => a.and(Reg(d), Reg(x), Reg(y)),
            AluOp::Or(d, x, y) => a.or(Reg(d), Reg(x), Reg(y)),
            AluOp::Xor(d, x, y) => a.xor(Reg(d), Reg(x), Reg(y)),
            AluOp::Shl(d, x, s) => a.shl(Reg(d), Reg(x), s),
            AluOp::Shr(d, x, s) => a.shr(Reg(d), Reg(x), s),
            AluOp::Addi(d, x, i) => a.addi(Reg(d), Reg(x), i as i64),
        };
    }
    a.halt();
    a.build()
}

#[test]
fn vm_alu_matches_direct_evaluation() {
    let root = DetRng::new(SEED);
    for case in 0..64u64 {
        let mut rng = root.split(case);
        let len = rng.range(1, 60) as usize;
        let ops: Vec<AluOp> = (0..len).map(|_| random_alu_op(&mut rng)).collect();
        let mut m = RefMachine::new(vec![assemble_alu(&ops)]);
        m.run(1_000).expect("alu program halts");
        let expected = eval_alu(&ops);
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(
                m.thread(0).reg(Reg(i as u8)),
                want,
                "case {case}: r{i} ops {ops:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Random DRF phase programs agree across protocols and with the SC
//    reference.
// ---------------------------------------------------------------------------

const DRF_THREADS: usize = 4;

#[derive(Debug, Clone)]
struct DrfCase {
    phases: u64,
    slice_words: u64,
    /// For each (phase, reader): which thread's slice and which word to read.
    reads: Vec<(usize, u64)>,
}

fn random_drf_case(rng: &mut DetRng) -> DrfCase {
    let phases = rng.range(1, 4);
    let slice_words = rng.range(1, 6);
    let reads = (0..phases as usize * DRF_THREADS)
        .map(|_| (rng.below(DRF_THREADS), rng.range(0, slice_words)))
        .collect();
    DrfCase {
        phases,
        slice_words,
        reads,
    }
}

/// Builds: each phase, thread t writes `phase*4096 + t*97 + j` to its own
/// slice words, barrier, then reads an arbitrary slice word (data-race-free
/// by construction) and folds it into a checksum published at the end.
fn build_drf(case: &DrfCase) -> (MemoryLayout, Vec<Program>, Addr) {
    let mut lb = LayoutBuilder::new();
    let sync = lb.region("sync");
    let data = lb.region("data");
    let results = lb.segment("results", DRF_THREADS as u64 * LINE_BYTES, data);
    let slices = lb.segment("slices", DRF_THREADS as u64 * case.slice_words * 8, data);
    let barrier = TreeBarrier {
        arrive: lb.segment("arrive", DRF_THREADS as u64 * LINE_BYTES, sync),
        go: lb.segment("go", DRF_THREADS as u64 * LINE_BYTES, sync),
        fan_in: 2,
        fan_out: 2,
        n: DRF_THREADS,
        data_region: Some(data),
    };
    let programs = (0..DRF_THREADS)
        .map(|tid| {
            let mut a = Asm::new("prop-drf");
            emit_prologue(&mut a, case.phases);
            let my_base = slices.raw() + tid as u64 * case.slice_words * 8;
            let top = a.here();
            // value base = phase*4096 + tid*97
            a.movi(Reg(4), 4096);
            a.mul(Reg(4), ITER, Reg(4));
            a.addi(Reg(4), Reg(4), (tid * 97) as i64);
            for j in 0..case.slice_words {
                a.addi(Reg(5), Reg(4), j as i64);
                a.movi(Reg(10), my_base + j * 8);
                a.store(Reg(5), Reg(10), 0);
            }
            a.fence();
            barrier.emit(&mut a, tid);
            // One read per (phase, tid) position, folded into r16. The read
            // target is fixed at generation time, but the *phase* is the
            // loop counter, so emit a read for each phase guarded by ITER.
            let after = a.label();
            for phase in 0..case.phases {
                let (src, word) = case.reads[phase as usize * DRF_THREADS + tid];
                let skip = a.label();
                a.movi(Reg(6), phase);
                a.bne(ITER, Reg(6), skip);
                let addr = slices.raw() + src as u64 * case.slice_words * 8 + word * 8;
                a.movi(Reg(10), addr);
                a.load(Reg(7), Reg(10), 0);
                a.add(Reg(16), Reg(16), Reg(7));
                a.jmp(after);
                a.bind(skip);
            }
            a.bind(after);
            barrier.emit(&mut a, tid);
            a.addi(ITER, ITER, 1);
            a.blt(ITER, ITERS, top);
            a.movi(Reg(10), results.raw() + tid as u64 * LINE_BYTES);
            a.store(Reg(16), Reg(10), 0);
            a.fence();
            barrier.emit(&mut a, tid);
            a.halt();
            a.build()
        })
        .collect();
    (lb.build(), programs, results)
}

fn expected_drf(case: &DrfCase) -> Vec<u64> {
    (0..DRF_THREADS)
        .map(|tid| {
            (0..case.phases)
                .map(|phase| {
                    let (src, word) = case.reads[phase as usize * DRF_THREADS + tid];
                    phase * 4096 + src as u64 * 97 + word
                })
                .sum()
        })
        .collect()
}

#[test]
fn drf_programs_agree_on_every_protocol() {
    let root = DetRng::new(SEED ^ 0xD2F);
    for case_i in 0..12u64 {
        let mut rng = root.split(case_i);
        let case = random_drf_case(&mut rng);
        let expected = expected_drf(&case);
        // Untimed SC reference.
        let (_, programs, results) = build_drf(&case);
        let mut m = RefMachine::new(programs);
        m.run(10_000_000).expect("reference");
        for (tid, &want) in expected.iter().enumerate() {
            let got = m
                .memory()
                .read_word(Addr::new(results.raw() + tid as u64 * LINE_BYTES).word());
            assert_eq!(got, want, "case {case_i}: reference tid {tid}");
        }
        // Timed protocols.
        for proto in Protocol::ALL {
            let (layout, programs, results) = build_drf(&case);
            let mut sys = System::new(SystemConfig::small(DRF_THREADS, proto), layout, programs);
            sys.run()
                .unwrap_or_else(|e| panic!("case {case_i} {proto:?}: {e}"));
            for (tid, &want) in expected.iter().enumerate() {
                let got = sys.read_word(Addr::new(results.raw() + tid as u64 * LINE_BYTES));
                assert_eq!(
                    got, want,
                    "case {case_i} {proto:?} tid {tid} (stale data visible?)"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Racy synchronization-only programs: totals survive on every protocol.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RacyCase {
    /// Per (thread, step): which of 3 counters to hit and with which
    /// operation (0 = FAI +1, 1 = FAI +2, 2 = CAS-increment loop).
    ops: Vec<(u8, u8)>,
    threads: usize,
}

fn random_racy_case(rng: &mut DetRng) -> RacyCase {
    let threads = rng.range(2, 5) as usize;
    let steps = rng.range(1, 12) as usize;
    let ops = (0..threads * steps)
        .map(|_| (rng.below(3) as u8, rng.below(3) as u8))
        .collect();
    RacyCase { ops, threads }
}

#[test]
fn racy_sync_totals_are_exact_on_every_protocol() {
    let root = DetRng::new(SEED ^ 0x4AC7);
    for case_i in 0..12u64 {
        let mut rng = root.split(case_i);
        let case = random_racy_case(&mut rng);
        let steps = case.ops.len() / case.threads;
        // Expected per-counter totals.
        let mut expected = [0u64; 3];
        for &(c, op) in &case.ops {
            expected[c as usize] += match op {
                0 => 1,
                1 => 2,
                _ => 1,
            };
        }
        let build = || {
            let mut lb = LayoutBuilder::new();
            let sync = lb.region("sync");
            let counters: Vec<Addr> = (0..3)
                .map(|i| lb.sync_var(&format!("c{i}"), sync, true))
                .collect();
            let programs: Vec<Program> = (0..case.threads)
                .map(|tid| {
                    let mut a = Asm::new("prop-racy");
                    emit_prologue(&mut a, 1);
                    for s in 0..steps {
                        let (c, op) = case.ops[tid * steps + s];
                        let addr = counters[c as usize];
                        a.movi(Reg(10), addr.raw());
                        match op {
                            0 => {
                                a.fai(Reg(4), Reg(10), 0, Reg(26));
                            }
                            1 => {
                                a.movi(Reg(5), 2);
                                a.fai(Reg(4), Reg(10), 0, Reg(5));
                            }
                            _ => {
                                // CAS-increment retry loop.
                                let retry = a.here();
                                let done = a.label();
                                a.loads(Reg(4), Reg(10), 0);
                                a.addi(Reg(5), Reg(4), 1);
                                a.cas(Reg(6), Reg(10), 0, Reg(4), Reg(5));
                                a.beq(Reg(6), Reg(4), done);
                                a.jmp(retry);
                                a.bind(done);
                            }
                        }
                    }
                    a.halt();
                    a.build()
                })
                .collect();
            (lb.build(), programs, counters.clone())
        };
        for proto in Protocol::ALL {
            let (layout, programs, counters) = build();
            let n = match case.threads {
                2 | 3 => 4,
                n => n,
            }; // square mesh; System::new idles the spare cores
            let mut sys = System::new(SystemConfig::small(n, proto), layout, programs);
            sys.run()
                .unwrap_or_else(|e| panic!("case {case_i} {proto:?}: {e}"));
            for (i, &want) in expected.iter().enumerate() {
                let got = sys.read_word(counters[i]);
                assert_eq!(
                    got, want,
                    "case {case_i} {proto:?} counter {i} (lost update?)"
                );
            }
        }
    }
}

#[test]
fn final_sync_value_is_some_threads_write() {
    let root = DetRng::new(SEED ^ 0x5EA1);
    for case_i in 0..12u64 {
        let mut rng = root.split(case_i);
        let writes: Vec<u64> = (0..rng.range(2, 6)).map(|_| rng.range(1, 100)).collect();
        // Every thread sync-stores its value once; the final value must be
        // one of them (write serialization: no blends, no losses).
        for proto in Protocol::ALL {
            let mut lb = LayoutBuilder::new();
            let sync = lb.region("sync");
            let var = lb.sync_var("var", sync, true);
            let n = 4usize;
            let programs: Vec<Program> = (0..n)
                .map(|tid| {
                    let mut a = Asm::new("prop-ws");
                    if tid < writes.len() {
                        a.movi(Reg(1), var.raw());
                        a.movi(Reg(2), writes[tid]);
                        a.stores(Reg(2), Reg(1), 0);
                    }
                    a.halt();
                    a.build()
                })
                .collect();
            let mut sys = System::new(SystemConfig::small(n, proto), lb.build(), programs);
            sys.run()
                .unwrap_or_else(|e| panic!("case {case_i} {proto:?}: {e}"));
            let got = sys.read_word(var);
            assert!(
                writes.contains(&got),
                "case {case_i} {proto:?}: final {got} not among writes {writes:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Spin/watch robustness: a waiter always observes a flag write.
// ---------------------------------------------------------------------------

#[test]
fn flag_handoff_never_loses_the_wakeup() {
    let root = DetRng::new(SEED ^ 0xF1A6);
    for case_i in 0..16u64 {
        let delay = root.split(case_i).range(0, 400);
        // One producer sets a flag after a random delay; three consumers
        // spin. Lost-wakeup bugs in the watch mechanism deadlock this.
        for proto in Protocol::ALL {
            let mut lb = LayoutBuilder::new();
            let sync = lb.region("sync");
            let flag = lb.sync_var("flag", sync, true);
            let programs: Vec<Program> = (0..4)
                .map(|tid| {
                    let mut a = Asm::new("prop-flag");
                    a.movi(Reg(1), flag.raw());
                    a.movi(Reg(2), 1);
                    if tid == 0 {
                        a.delay(delay + 1, dvs_stats::TimeComponent::Compute);
                        a.stores(Reg(2), Reg(1), 0);
                    } else {
                        a.spin_until(Reg(3), Reg(1), 0, Cond::Eq, Reg(2));
                        a.assert_cond(Cond::Eq, Reg(3), Reg(2), "spin returned wrong value");
                    }
                    a.halt();
                    a.build()
                })
                .collect();
            let mut sys = System::new(SystemConfig::small(4, proto), lb.build(), programs);
            sys.run()
                .unwrap_or_else(|e| panic!("{proto:?} delay {delay}: {e}"));
            assert_eq!(sys.read_word(flag), 1);
        }
    }
}

#[test]
fn tid_values_flow_through_registers() {
    let root = DetRng::new(SEED ^ 0x71D);
    for case_i in 0..16u64 {
        let seed = root.split(case_i).next_u64();
        // Register writes never bleed across threads.
        let n = 4;
        let programs: Vec<Program> = (0..n)
            .map(|_| {
                let mut a = Asm::new("prop-tid");
                a.tid(Reg(1));
                a.movi(Reg(2), seed % 1000);
                a.add(Reg(3), Reg(1), Reg(2));
                a.halt();
                a.build()
            })
            .collect();
        let mut m = RefMachine::new(programs);
        m.run(1_000).expect("halts");
        for t in 0..n {
            assert_eq!(m.thread(t).reg(Reg(3)), t as u64 + seed % 1000);
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Oracle-mode channel scheduling: a seeded random walk over
//    `oracle_channels` is reproducible from the seed alone.
// ---------------------------------------------------------------------------

/// One random walk over the oracle-mode delivery channels: at every step
/// pick a uniformly random enabled channel (the canonical `ChannelKey`
/// order makes the index → channel mapping deterministic), fire it, and
/// record the pick plus the post-delivery state fingerprint.
fn oracle_walk(proto: Protocol, seed: u64) -> (Vec<(String, u64)>, bool) {
    let lit = denovosync_suite::vm::litmus::tatas();
    let mut sys = dvs_check::litmus_root(&lit, proto, None);
    let mut rng = DetRng::new(seed);
    let mut trace = Vec::new();
    for step in 0.. {
        assert!(step < 100_000, "{proto:?}: walk did not terminate");
        let enabled = sys.oracle_channels();
        if enabled.is_empty() {
            break;
        }
        let pick = enabled[rng.below(enabled.len())];
        assert!(
            sys.oracle_deliver(pick),
            "{proto:?}: enabled channel was empty"
        );
        assert!(
            sys.error().is_none(),
            "{proto:?} step {step}: {:?}",
            sys.error()
        );
        trace.push((pick.to_string(), sys.fingerprint()));
    }
    (trace, sys.all_halted())
}

#[test]
fn oracle_walks_reproduce_from_the_seed_alone_on_all_protocols() {
    let root = DetRng::new(SEED ^ 0x04AC);
    for proto in Protocol::EXTENDED {
        for case_i in 0..3u64 {
            let seed = root.split(case_i).next_u64();
            let (a, a_halted) = oracle_walk(proto, seed);
            let (b, b_halted) = oracle_walk(proto, seed);
            assert!(!a.is_empty(), "{proto:?}: the walk must deliver something");
            assert_eq!(a, b, "{proto:?} seed {seed:#x}: same seed, different walk");
            assert!(a_halted && b_halted, "{proto:?}: walk must end cleanly");
        }
    }
}

/// Different seeds must actually explore different schedules — otherwise
/// the reproducibility test above is vacuous.
#[test]
fn oracle_walks_with_different_seeds_diverge() {
    let (a, _) = oracle_walk(Protocol::Gcs, 1);
    let (b, _) = oracle_walk(Protocol::Gcs, 2);
    let picks = |t: &[(String, u64)]| t.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>();
    assert_ne!(picks(&a), picks(&b), "two seeds picked identical schedules");
}
