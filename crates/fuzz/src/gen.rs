//! The seeded program generator.
//!
//! `generate(seed, cfg)` is a pure function: the same seed and
//! configuration produce the same [`FuzzCase`] on every host and worker.
//! Construction keeps cases valid (and hence deadlock-free under SC) by
//! design: every flag's `MsgSend` is placed in its owner thread before any
//! waiter is allowed to reference it, and waiters only ever look *down*
//! the thread order. The litmus shapes from `dvs_vm::litmus` seed the
//! idiom pool — message-passing chains, CoRR probes, and IRIW quads are
//! injected as whole groups before random filler ops are layered on top.

use crate::case::{FuzzCase, Op, Shape, MAX_THREADS};
use dvs_engine::DetRng;

/// Bounds for the generator. Fields bound the *maximum* a case may draw;
/// each case picks its actual shape from these ranges.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Inclusive thread-count range (clamped to `1..=4`).
    pub threads: (u8, u8),
    /// Inclusive filler-op count per thread (idiom ops come on top).
    pub ops: (u8, u8),
    /// Maximum shared-location counts per class.
    pub shape: Shape,
}

impl GenConfig {
    /// The default fuzzing pool: up to 4 threads, a handful of contended
    /// locations of every class.
    pub fn default_pool() -> Self {
        GenConfig {
            threads: (2, 4),
            ops: (3, 9),
            shape: Shape {
                fai: 2,
                locks: 2,
                tas: 1,
                swaps: 1,
                flags: 2,
                rf: 2,
                priv_slots: 3,
            },
        }
    }

    /// A smaller pool for shrink-heavy work (negative controls, CI smoke):
    /// fewer threads and ops means fewer shrink candidates.
    pub fn small() -> Self {
        GenConfig {
            threads: (2, 3),
            ops: (2, 5),
            shape: Shape {
                fai: 1,
                locks: 1,
                tas: 1,
                swaps: 1,
                flags: 1,
                rf: 2,
                priv_slots: 2,
            },
        }
    }
}

/// Generates one case from a seed. Deterministic; the result always
/// passes [`FuzzCase::validate`].
pub fn generate(seed: u64, cfg: &GenConfig) -> FuzzCase {
    let mut rng = DetRng::new(seed ^ 0xF0_77_2E_5E);
    let lo = cfg.threads.0.clamp(1, MAX_THREADS as u8);
    let hi = cfg.threads.1.clamp(lo, MAX_THREADS as u8);
    let nthreads = rng.range(u64::from(lo), u64::from(hi) + 1) as usize;

    let max = cfg.shape;
    let draw = |rng: &mut DetRng, m: u8| -> u8 {
        if m == 0 {
            0
        } else {
            rng.range(0, u64::from(m) + 1) as u8
        }
    };
    let mut shape = Shape {
        fai: draw(&mut rng, max.fai),
        locks: draw(&mut rng, max.locks),
        tas: draw(&mut rng, max.tas),
        swaps: draw(&mut rng, max.swaps),
        // Flags need a waiter below the owner, so they need >= 2 threads.
        flags: if nthreads >= 2 {
            draw(&mut rng, max.flags)
        } else {
            0
        },
        rf: draw(&mut rng, max.rf),
        priv_slots: max.priv_slots.max(1),
    };
    if shape.fai + shape.locks + shape.tas + shape.swaps + shape.flags + shape.rf == 0 {
        // Guarantee some contention — an all-private program tests nothing.
        if max.rf > 0 {
            shape.rf = 1;
        } else if max.fai > 0 {
            shape.fai = 1;
        }
    }

    let mut threads: Vec<Vec<Op>> = vec![Vec::new(); nthreads];

    // Flag plumbing: owner thread per flag, sends placed up front so any
    // later thread may wait.
    let mut waitable: Vec<(u8, usize)> = Vec::new(); // (flag, owner)
    for f in 0..shape.flags {
        let owner = rng.below(nthreads - 1); // leave at least one waiter id
        threads[owner].push(Op::MsgSend {
            flag: f,
            value: rng.range(1, 1 << 12) as u16,
        });
        waitable.push((f, owner));
        // Each flag gets at least one waiter; more join by coin flip.
        let forced = rng.range(owner as u64 + 1, nthreads as u64) as usize;
        for (t, ops) in threads.iter_mut().enumerate().skip(owner + 1) {
            if t == forced || rng.chance(1, 2) {
                ops.push(Op::MsgWait { flag: f });
            }
        }
    }

    // Idiom injections: whole litmus-shaped groups from the shared pool.
    // CoRR probe: one writer, one reader probing the same word twice.
    if shape.rf >= 1 && nthreads >= 2 && rng.chance(1, 2) {
        let word = rng.below(shape.rf as usize) as u8;
        let writer = rng.below(nthreads);
        let reader = (writer + 1 + rng.below(nthreads - 1)) % nthreads;
        threads[writer].push(Op::RfStore { word });
        threads[reader].push(Op::RfLoad2 {
            a: word,
            b: word,
            witness: true,
        });
    }
    // IRIW quad: two writers, two readers probing in opposite orders.
    if shape.rf >= 2 && nthreads >= 4 && rng.chance(1, 2) {
        let (x, y) = (0u8, 1u8);
        threads[0].push(Op::RfStore { word: x });
        threads[1].push(Op::RfStore { word: y });
        threads[2].push(Op::RfLoad2 {
            a: x,
            b: y,
            witness: true,
        });
        threads[3].push(Op::RfLoad2 {
            a: y,
            b: x,
            witness: true,
        });
    }
    // Lock convoy: every thread increments the same guarded counter
    // (the tatas litmus generalized).
    if shape.locks >= 1 && rng.chance(1, 2) {
        let lock = rng.below(shape.locks as usize) as u8;
        for ops in threads.iter_mut() {
            ops.push(Op::LockedAdd {
                lock,
                witness: rng.chance(1, 2),
            });
        }
    }

    // Random filler.
    for (t, ops) in threads.iter_mut().enumerate() {
        let n = rng.range(u64::from(cfg.ops.0), u64::from(cfg.ops.1) + 1);
        for _ in 0..n {
            let op = random_op(&mut rng, &shape, &waitable, t);
            ops.push(op);
        }
    }

    // Shuffle each thread: op semantics are position-independent by
    // construction (see module docs), and shuffling decorrelates the
    // mandatory prefix from the filler.
    for ops in threads.iter_mut() {
        rng.shuffle(ops);
    }

    let case = FuzzCase {
        name: format!("gen-{seed:#x}"),
        seed,
        shape,
        threads,
    };
    debug_assert_eq!(case.validate(), Ok(()));
    case
}

/// Draws one filler op available to thread `t`.
fn random_op(rng: &mut DetRng, shape: &Shape, waitable: &[(u8, usize)], t: usize) -> Op {
    for _ in 0..16 {
        let kind = rng.below(14);
        let op = match kind {
            0 | 1 => Some(Op::PrivStore {
                slot: rng.below(shape.priv_slots as usize) as u8,
                value: rng.range(0, 1 << 12) as u16,
            }),
            2 | 3 => Some(Op::PrivLoad {
                slot: rng.below(shape.priv_slots as usize) as u8,
            }),
            4 | 5 if shape.fai > 0 => Some(Op::Fai {
                ctr: rng.below(shape.fai as usize) as u8,
                witness: rng.chance(1, 2),
            }),
            6 if shape.tas > 0 => Some(Op::Tas {
                word: rng.below(shape.tas as usize) as u8,
                witness: rng.chance(1, 2),
            }),
            7 if shape.swaps > 0 => Some(Op::Swap {
                word: rng.below(shape.swaps as usize) as u8,
                witness: rng.chance(1, 2),
            }),
            8 if shape.locks > 0 => Some(Op::LockedAdd {
                lock: rng.below(shape.locks as usize) as u8,
                witness: rng.chance(1, 2),
            }),
            9 if shape.rf > 0 => Some(Op::RfStore {
                word: rng.below(shape.rf as usize) as u8,
            }),
            10 if shape.rf > 0 => Some(Op::RfLoad2 {
                a: rng.below(shape.rf as usize) as u8,
                b: rng.below(shape.rf as usize) as u8,
                witness: rng.chance(1, 2),
            }),
            11 => {
                let candidates: Vec<u8> = waitable
                    .iter()
                    .filter(|&&(_, owner)| owner < t)
                    .map(|&(f, _)| f)
                    .collect();
                if candidates.is_empty() {
                    None
                } else {
                    Some(Op::MsgWait {
                        flag: candidates[rng.below(candidates.len())],
                    })
                }
            }
            12 => Some(Op::Fence),
            13 => Some(Op::SelfInv),
            _ => None,
        };
        if let Some(op) = op {
            return op;
        }
    }
    Op::Nop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_valid_and_deterministic() {
        for cfg in [GenConfig::default_pool(), GenConfig::small()] {
            for seed in 0..200u64 {
                let a = generate(seed, &cfg);
                let b = generate(seed, &cfg);
                assert_eq!(a, b, "seed {seed} must be reproducible");
                a.validate()
                    .unwrap_or_else(|e| panic!("seed {seed}: invalid case: {e}"));
                assert!(a.threads.len() <= MAX_THREADS);
            }
        }
    }

    #[test]
    fn pool_exercises_every_op_kind() {
        let cfg = GenConfig::default_pool();
        let mut seen = [false; 13];
        for seed in 0..400u64 {
            for ops in &generate(seed, &cfg).threads {
                for op in ops {
                    let k = match op {
                        Op::PrivStore { .. } => 0,
                        Op::PrivLoad { .. } => 1,
                        Op::Fai { .. } => 2,
                        Op::Tas { .. } => 3,
                        Op::Swap { .. } => 4,
                        Op::LockedAdd { .. } => 5,
                        Op::MsgSend { .. } => 6,
                        Op::MsgWait { .. } => 7,
                        Op::RfStore { .. } => 8,
                        Op::RfLoad2 { .. } => 9,
                        Op::Fence => 10,
                        Op::SelfInv => 11,
                        Op::Nop => 12,
                    };
                    seen[k] = true;
                }
            }
        }
        // Nop is a fallback and may legitimately never fire.
        for (k, &s) in seen.iter().enumerate().take(12) {
            assert!(s, "op kind {k} never generated in 400 seeds");
        }
    }
}
