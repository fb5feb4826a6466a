//! The differential harness: runs one [`FuzzCase`] nine ways and
//! cross-checks them.
//!
//! The oracle stack, cheapest first:
//!
//! 1. **`RefMachine`** — the sequential SC reference. It defines the
//!    expected final value of every *stable* word (a case's stable words
//!    have the same final value in every SC execution, see
//!    [`crate::case`]). A case the reference cannot finish is *sick*
//!    (an invalid program, not a protocol bug) — shrink candidates that
//!    break program validity land here and are rejected cheaply.
//! 2. **Timed systems** — `System::new` under MESI, DeNovoSync0,
//!    DeNovoSync, and GCS with the PR-1 runtime invariant checkers armed;
//!    the simulator's own error taxonomy (deadlock, cycle-limit, protocol
//!    violation, kernel assert) all count as divergences.
//! 3. **Untimed oracle systems** — the same machine after
//!    `System::start_oracle`, driven by `System::oracle_walk`'s seeded
//!    random walk over the enabled message channels, sampling delivery
//!    interleavings no timed schedule would produce.
//!
//! After every system run: quiescent coherence verification, stable-word
//! comparison against the reference, witness-multiset predicates, and the
//! relational CoRR/IRIW checks over witnessed probes.

use crate::case::{FuzzCase, Lowered, WitnessKind};
use dvs_core::config::{Protocol, ProtocolMutation, SystemConfig};
use dvs_core::system::{RunError, System};
use dvs_engine::{fnv1a, fnv1a_str, FNV_OFFSET};
use dvs_mem::Addr;
use dvs_vm::reference::RefMachine;
use std::sync::Arc;

/// Differential-harness knobs. Defaults are sized for fuzz batches: small
/// budgets that no healthy generated case comes near, so exhausting one is
/// itself a divergence.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// A seeded protocol bug to plant in every system run (negative
    /// controls); `None` fuzzes the stock protocols.
    pub mutation: Option<ProtocolMutation>,
    /// Step budget for the sequential reference.
    pub ref_steps: u64,
    /// Cycle budget for each timed run.
    pub max_cycles: u64,
    /// Delivery budget for each oracle random walk.
    pub oracle_deliveries: u64,
    /// Seed for the oracle walks (mixed with the protocol).
    pub walk_seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            mutation: None,
            ref_steps: 200_000,
            max_cycles: 400_000,
            oracle_deliveries: 120_000,
            walk_seed: 0xD1FF,
        }
    }
}

/// Where and how a case diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which run observed it: `"timed/M"`, `"oracle/DS"`, …
    pub stage: String,
    /// What went wrong (simulator error, mismatched word, violated
    /// predicate).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

/// The outcome of one differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseVerdict {
    /// All seven runs agreed. `ref_fnv` fingerprints the reference's
    /// stable memory image (worker-count independent); `instrs` is the
    /// lowered size.
    Pass { ref_fnv: u64, instrs: usize },
    /// The case itself is invalid (the reference could not run it) — not
    /// a protocol divergence.
    Sick { reason: String },
    /// A protocol run disagreed with the oracle stack.
    Diverged {
        /// Lowered size of the diverging case.
        instrs: usize,
        /// First divergence found (stages run in a fixed order).
        divergence: Divergence,
    },
}

impl CaseVerdict {
    /// Whether this is [`CaseVerdict::Diverged`].
    pub fn is_divergent(&self) -> bool {
        matches!(self, CaseVerdict::Diverged { .. })
    }
}

/// The harness core count (2×2 mesh; cases have at most 4 threads).
pub const CORES: usize = 4;

/// Runs the full differential stack on one case.
pub fn run_case(case: &FuzzCase, h: &HarnessConfig) -> CaseVerdict {
    if let Err(reason) = case.validate() {
        return CaseVerdict::Sick { reason };
    }
    let low = case.lower();

    // Stage 1: the sequential SC reference defines the stable image.
    let mut rm = RefMachine::new(low.programs.clone());
    if let Err(e) = rm.run(h.ref_steps) {
        return CaseVerdict::Sick {
            reason: format!("reference: {e}"),
        };
    }
    let ref_read = |a: Addr| rm.memory().read_word(a.word());
    let ref_vals: Vec<u64> = low.stable.iter().map(|&(_, a)| ref_read(a)).collect();
    // The reference is one SC execution, so the schedule-independent
    // predicates must hold there too — a violation means the case's static
    // expectations are wrong (a generator bug), not a protocol bug.
    if let Some(d) = check_predicates(&low, &ref_read) {
        return CaseVerdict::Sick {
            reason: format!("reference violates case predicates: {}", d.detail),
        };
    }
    let mut ref_fnv = FNV_OFFSET;
    for ((name, _), v) in low.stable.iter().zip(&ref_vals) {
        ref_fnv = fnv1a_str(ref_fnv, name);
        for b in v.to_le_bytes() {
            ref_fnv = fnv1a(ref_fnv, b);
        }
    }

    // Stages 2–9: each protocol, timed then untimed.
    for proto in Protocol::EXTENDED {
        for timed in [true, false] {
            let stage = format!(
                "{}/{}",
                if timed { "timed" } else { "oracle" },
                proto.label()
            );
            if let Some(divergence) = run_one(h, &low, &ref_vals, proto, timed, stage) {
                return CaseVerdict::Diverged {
                    instrs: low.instr_count,
                    divergence,
                };
            }
        }
    }
    CaseVerdict::Pass {
        ref_fnv,
        instrs: low.instr_count,
    }
}

/// One system run plus all post-run checks. Returns the first divergence.
fn run_one(
    h: &HarnessConfig,
    low: &Lowered,
    ref_vals: &[u64],
    proto: Protocol,
    timed: bool,
    stage: String,
) -> Option<Divergence> {
    let mut cfg = SystemConfig::small(CORES, proto);
    cfg.check_invariants = true;
    cfg.max_cycles = h.max_cycles;
    cfg.mutation = h.mutation;
    let diverge = |detail: String| {
        Some(Divergence {
            stage: stage.clone(),
            detail,
        })
    };

    let mut sys = System::new(cfg, Arc::clone(&low.layout), low.programs.clone());
    let run = if timed {
        sys.run().map(drop).map_err(RunError::Sim)
    } else {
        sys.start_oracle();
        let seed = h.walk_seed ^ fnv1a_str(FNV_OFFSET, proto.label());
        sys.oracle_walk(seed, h.oracle_deliveries).map(drop)
    };
    match run {
        Err(RunError::Sim(e)) => return diverge(format!("simulator error: {e}")),
        Err(RunError::Check(m)) => return diverge(m),
        Ok(()) => {}
    }
    if let Err(e) = sys.verify_coherence() {
        return diverge(format!("coherence: {e}"));
    }
    let read = |a: Addr| sys.read_word(a);
    for ((name, addr), &want) in low.stable.iter().zip(ref_vals.iter()) {
        let got = read(*addr);
        if got != want {
            return diverge(format!("stable word {name} = {got}, reference says {want}"));
        }
    }
    if let Some(mut d) = check_predicates(low, &read) {
        d.stage = stage;
        return Some(d);
    }
    None
}

/// The schedule-independent predicates: witness multisets and the
/// relational CoRR/IRIW checks. `stage` is filled in by the caller.
fn check_predicates(low: &Lowered, read: &dyn Fn(Addr) -> u64) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            stage: String::new(),
            detail,
        })
    };
    for check in &low.witness_checks {
        let vals: Vec<u64> = check.slots.iter().map(|&a| read(a)).collect();
        match check.kind {
            WitnessKind::DistinctBelow { total } => {
                let mut sorted = vals.clone();
                sorted.sort_unstable();
                let distinct = sorted.windows(2).all(|w| w[0] != w[1]);
                let below = sorted.last().is_none_or(|&v| v < total);
                if !distinct || !below {
                    return diverge(format!(
                        "witnesses of {} must be distinct values below {total}, saw {vals:?} \
                         (an atomicity violation or lost update)",
                        check.what
                    ));
                }
            }
            WitnessKind::ZeroThen { rest } => {
                let zeros = vals.iter().filter(|&&v| v == 0).count();
                let legal = vals.iter().all(|&v| v == 0 || v == rest);
                if zeros > 1 || !legal {
                    return diverge(format!(
                        "witnesses of {} allow at most one 0 and otherwise {rest}, saw {vals:?}",
                        check.what
                    ));
                }
            }
        }
    }
    // CoRR: a same-word probe must not read backwards (1 then 0 on a
    // word that only ever goes 0 -> 1).
    for p in &low.rf_probes {
        if p.a == p.b && read(p.slot_a) == 1 && read(p.slot_b) == 0 {
            return diverge(format!(
                "CoRR violation: thread {} read rf{} as 1 then 0",
                p.thread, p.a
            ));
        }
    }
    // IRIW: two probes over the same unordered pair in opposite orders
    // must not both see "my first word set, my second not yet" — that
    // orders the two writes both ways.
    for (i, p) in low.rf_probes.iter().enumerate() {
        for q in &low.rf_probes[i + 1..] {
            let opposite = p.a == q.b && p.b == q.a && p.a != p.b;
            if opposite
                && read(p.slot_a) == 1
                && read(p.slot_b) == 0
                && read(q.slot_a) == 1
                && read(q.slot_b) == 0
            {
                return diverge(format!(
                    "IRIW violation: threads {} and {} observed rf{}/rf{} in \
                     contradictory orders",
                    p.thread, q.thread, p.a, p.b
                ));
            }
        }
    }
    None
}
