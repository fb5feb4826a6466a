//! The litmus suite on the timed simulator: every litmus program, under
//! every protocol, must complete and satisfy its sequential-consistency
//! verdict — in the stock timing and under chaos-perturbed schedules.
//!
//! This is the cheap, sampled counterpart of the `dvs-check` model checker
//! (which *enumerates* delivery interleavings of the same programs): it
//! validates that the litmus programs themselves are well-formed workloads
//! for the full machine, and catches SC regressions in ordinary timed runs.

use denovosync_suite::core::chaos::FaultPlan;
use denovosync_suite::core::config::Protocol;
use denovosync_suite::core::system::System;
use denovosync_suite::vm::litmus::Litmus;
use dvs_check::litmus_config;

/// Runs a litmus test on the timed simulator, on the model checker's
/// machine for it, and applies its verdict. `chaos` optionally perturbs
/// the delivery schedule.
fn run_timed(lit: &Litmus, proto: Protocol, chaos: Option<FaultPlan>) {
    let mut cfg = litmus_config(lit, proto, None);
    cfg.fault_plan = chaos;
    let mut sys = System::new(cfg, lit.layout.clone(), lit.programs.clone());
    sys.run()
        .unwrap_or_else(|e| panic!("{} ({:?}): {e}", lit.name, cfg.protocol));
    lit.check(|a| sys.read_word(a)).unwrap_or_else(|vals| {
        panic!(
            "{} ({:?}): {} — observed {:?}",
            lit.name, cfg.protocol, lit.property, vals
        )
    });
}

/// The checker-sized suite plus the extended shapes (IRIW, MP chains) — the
/// timed simulator is cheap enough to cover both.
fn full_suite() -> Vec<Litmus> {
    Litmus::all()
        .into_iter()
        .chain(Litmus::extended())
        .collect()
}

#[test]
fn all_litmus_sc_on_all_protocols() {
    for lit in full_suite() {
        for proto in Protocol::EXTENDED {
            run_timed(&lit, proto, None);
        }
    }
}

#[test]
fn all_litmus_sc_under_chaos() {
    for lit in full_suite() {
        for proto in Protocol::EXTENDED {
            for seed in [1, 0xC0FFEE, 0xDE40_5EED] {
                run_timed(&lit, proto, Some(FaultPlan::from_seed(seed)));
            }
        }
    }
}
