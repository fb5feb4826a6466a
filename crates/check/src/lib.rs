//! `dvs-check`: a bounded explicit-state model checker for the MESI and
//! DeNovoSync protocol implementations.
//!
//! Timed simulation — even chaos-perturbed ([`dvs_core::chaos`]) — samples
//! message interleavings; this crate *enumerates* them. The system runs in
//! oracle mode ([`dvs_core::oracle`]): protocol messages queue in
//! per-channel FIFOs and the checker picks which channel delivers next,
//! exploring every choice. Between deliveries the machine runs core-local
//! events to quiescence, so deliveries are the only branch points. The
//! driven protocol controllers are the *production* implementations,
//! unchanged — the checker exercises the same code the simulator runs.
//!
//! Checked properties, at every explored state:
//!
//! * the runtime coherence invariants (single-writer, registry/owner
//!   agreement, MSHR conservation — `check_invariants`),
//! * VM assertions and absence of deadlock,
//! * and at each cleanly-halted final state, the litmus test's
//!   sequential-consistency verdict ([`dvs_vm::litmus`]).
//!
//! The state space is reduced by canonical-fingerprint deduplication and
//! sleep-set partial-order reduction (see [`explore`]), explored in
//! parallel by a configurable number of worker threads, and any violation
//! is reported as a deterministic, shortest delivery schedule that the full
//! simulator can replay via [`dvs_core::oracle::SchedulePlan`].
//! `dvs check explore|deepen|swarm` (the root package's `dvs` binary) runs
//! the checker from the command line.
//!
//! # Example
//!
//! Verify store-buffering under MESI, then confirm a seeded protocol bug
//! (a skipped invalidation, observable under lock contention) is caught:
//!
//! ```
//! use dvs_check::{check_litmus, CheckConfig, Verdict};
//! use dvs_core::{Protocol, ProtocolMutation};
//! use dvs_vm::litmus;
//!
//! let cfg = CheckConfig::default();
//! let ok = check_litmus(&litmus::sb(), Protocol::Mesi, None, &cfg);
//! assert_eq!(ok.verdict, Verdict::Verified);
//! assert!(ok.stats.complete());
//!
//! let buggy = check_litmus(
//!     &litmus::tatas(),
//!     Protocol::Mesi,
//!     Some(ProtocolMutation::MesiSkipInvalidate),
//!     &cfg,
//! );
//! assert!(matches!(buggy.verdict, Verdict::Violated(_)));
//! ```

pub mod checkpoint;
pub mod explore;
pub mod swarm;
pub mod visited;

pub use checkpoint::{deepen, Checkpoint, DeepenConfig, DeepenOutcome};
pub use explore::{
    explore, explore_seeds, failure_of, finish, minimize, CheckConfig, CheckReport, CheckStats,
    Counterexample, Failure, FinalCheck, RawExploration, Seed, Verdict,
};
pub use swarm::{swarm_litmus, SwarmConfig};
pub use visited::{BitstateFilter, VisitedMode};

use dvs_core::config::{MeshShape, Protocol, ProtocolMutation, SystemConfig};
use dvs_core::oracle::SchedulePlan;
use dvs_core::system::System;
use dvs_vm::litmus::Litmus;

/// The system configuration the checker drives: the standard small test
/// config with runtime invariant checking forced on, plus an optional
/// seeded protocol mutation for negative testing.
pub fn checker_config(
    cores: usize,
    protocol: Protocol,
    mutation: Option<ProtocolMutation>,
) -> SystemConfig {
    let mut cfg = SystemConfig::small(cores, protocol);
    cfg.check_invariants = true;
    cfg.mutation = mutation;
    cfg
}

/// Builds the oracle-mode root state for a litmus test.
///
/// The litmus threads run on a machine of at least 4 cores, with any spare
/// cores given a trivial program that halts immediately — they quiesce
/// during the initial drain and add no interleavings. Square core counts
/// keep the default square mesh (preserving historical fingerprints);
/// non-square counts (the `tatas_n` scaling shapes: 8 threads → 2×4) get
/// an explicit near-square [`MeshShape`].
pub fn litmus_root(lit: &Litmus, protocol: Protocol, mutation: Option<ProtocolMutation>) -> System {
    let cores = lit.nthreads().max(4);
    let mut programs = lit.programs.clone();
    while programs.len() < cores {
        let mut a = dvs_vm::Asm::new("idle");
        a.halt();
        programs.push(a.build());
    }
    let mut cfg = checker_config(cores, protocol, mutation);
    let side = (cores as f64).sqrt() as usize;
    if side * side != cores {
        let rows = (1..=side)
            .rev()
            .find(|&r| cores.is_multiple_of(r))
            .unwrap_or(1);
        let shape = MeshShape::new(rows as u32, (cores / rows) as u32)
            .expect("near-square factorization is a valid mesh");
        cfg.mesh = Some(shape);
    }
    System::new_oracle(cfg, lit.layout.clone(), programs)
}

/// Model-checks one litmus test under one protocol: explores all delivery
/// interleavings within `cfg`'s bounds, checking the runtime coherence
/// invariants at every delivery and the litmus SC verdict at every
/// cleanly-halted final state.
pub fn check_litmus(
    lit: &Litmus,
    protocol: Protocol,
    mutation: Option<ProtocolMutation>,
    cfg: &CheckConfig,
) -> CheckReport {
    let root = litmus_root(lit, protocol, mutation);
    let final_ok = |sys: &System| litmus_final_ok(lit, sys);
    explore(&root, &final_ok, cfg)
}

/// Iteratively deepens one litmus test under one protocol, resuming from
/// `cfg`'s checkpoint file if it exists — the deepening counterpart of
/// [`check_litmus`]. Returns `Err` (exploring nothing) if an existing
/// checkpoint is corrupt or belongs to a different model.
pub fn deepen_litmus(
    lit: &Litmus,
    protocol: Protocol,
    mutation: Option<ProtocolMutation>,
    cfg: &DeepenConfig,
) -> Result<DeepenOutcome, checkpoint::CheckpointError> {
    let root = litmus_root(lit, protocol, mutation);
    let final_ok = |sys: &System| litmus_final_ok(lit, sys);
    deepen(&root, &final_ok, cfg)
}

/// The litmus verdict as an explorer predicate, with one canonical failure
/// message — `check_litmus` and `replay_litmus` must produce byte-identical
/// [`Failure::FinalState`] values or replay verification reports spurious
/// divergence.
pub(crate) fn litmus_final_ok(lit: &Litmus, sys: &System) -> Result<(), String> {
    lit.check(|a| sys.read_word(a)).map_err(|vals| {
        let vals: Vec<String> = vals.iter().map(|(n, v)| format!("{n}={v}")).collect();
        format!("{} (observed {})", lit.property, vals.join(", "))
    })
}

/// Replays a counterexample from [`check_litmus`] on a fresh system and
/// classifies what the replayed machine shows: the recorded error, the
/// deadlock report, or the violating final state. Returns `Err` with a
/// description if the replay does *not* reproduce the counterexample's
/// failure — which would indicate checker/simulator divergence.
pub fn replay_litmus(
    lit: &Litmus,
    protocol: Protocol,
    mutation: Option<ProtocolMutation>,
    ce: &Counterexample,
) -> Result<Failure, String> {
    let plan = SchedulePlan::new(ce.picks.clone());
    let sys = plan.replay(litmus_root(lit, protocol, mutation));
    let final_ok = |s: &System| litmus_final_ok(lit, s);
    match failure_of(&sys, &final_ok) {
        Some(f) => Ok(f),
        None => Err(format!(
            "replay of {} picks reached a healthy state (delivered {} messages)",
            ce.picks.len(),
            plan.len()
        )),
    }
}
