//! End-to-end model-checker tests: every litmus test verifies clean under
//! every protocol, every seeded protocol mutation is caught with a
//! minimized, deterministically replayable counterexample, and results do
//! not depend on the worker count.

use dvs_check::{
    check_litmus, replay_litmus, swarm_litmus, CheckConfig, Failure, SwarmConfig, Verdict,
    VisitedMode,
};
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_core::system::SimError;
use dvs_vm::litmus::{self, Litmus};
use dvs_vm::{Asm, Reg};

fn cfg(workers: usize) -> CheckConfig {
    CheckConfig {
        workers,
        ..CheckConfig::default()
    }
}

/// Every litmus test, under every protocol, explores its complete state
/// space without finding an invariant violation, deadlock, or SC failure.
#[test]
fn all_litmus_verified_under_all_protocols() {
    for lit in Litmus::all() {
        for proto in Protocol::EXTENDED {
            let report = check_litmus(&lit, proto, None, &cfg(2));
            match &report.verdict {
                Verdict::Verified => {}
                Verdict::Violated(ce) => panic!(
                    "{} under {proto:?}: unexpected violation after {} picks: {}\n  picks: {:?}",
                    lit.name,
                    ce.picks.len(),
                    ce.failure,
                    ce.picks
                ),
            }
            assert!(
                report.stats.complete(),
                "{} under {proto:?}: exploration truncated ({:?})",
                lit.name,
                report.stats
            );
            assert!(report.stats.unique_states > 1);
        }
    }
}

/// The mutations each litmus test is expected to catch, and the protocol
/// they apply to. A mutation is only observable if some interleaving makes
/// a core rely on the dropped action. Under MESI, real `Inv`/`InvAck`
/// traffic needs a line in S at one core while another upgrades to M —
/// single-reader lines ride the E-state ownership-transfer path instead —
/// which is exactly the TATAS contended-lock shape: the spin loser holds an
/// S copy (downgrading the winner via FwdGetS) that the winner's release
/// must invalidate. The DeNovo registry mutations need two cores contending
/// for registration of one word, which SB's and MP's sync variables give.
/// The GCS mutations need a word to get *classified* first (a sync access
/// hitting a registration held by another core): FAI's contended counter
/// classifies and then loses the skipped bank-side increment (the observed
/// old values collide), and MP's spun-on flag classifies, parks the
/// consumer in the waiter set, and deadlocks when the wakeup notification
/// is suppressed.
fn mutation_cases() -> Vec<(&'static str, Protocol, ProtocolMutation)> {
    vec![
        (
            "tatas",
            Protocol::Mesi,
            ProtocolMutation::MesiSkipInvalidate,
        ),
        ("tatas", Protocol::Mesi, ProtocolMutation::MesiDropAck),
        (
            "sb",
            Protocol::DeNovoSync0,
            ProtocolMutation::DnvSkipRepoint,
        ),
        ("mp", Protocol::DeNovoSync, ProtocolMutation::DnvDropXfer),
        ("fai", Protocol::Gcs, ProtocolMutation::GcsSkipUpdate),
        ("mp", Protocol::Gcs, ProtocolMutation::GcsDropNotify),
    ]
}

/// Every seeded protocol bug is detected within the default bounds, and the
/// counterexample is the minimizer's (shortest, canonical) schedule.
#[test]
fn mutations_are_caught_with_minimized_counterexamples() {
    for (name, proto, mutation) in mutation_cases() {
        let lit = Litmus::by_name(name).unwrap();
        let report = check_litmus(&lit, proto, Some(mutation), &cfg(2));
        let Verdict::Violated(ce) = &report.verdict else {
            panic!("{name} under {proto:?} with {mutation:?}: bug not caught ({report:?})");
        };
        assert!(
            ce.minimized,
            "{name}/{mutation:?}: counterexample not minimized"
        );
        assert!(
            !ce.picks.is_empty(),
            "{name}/{mutation:?}: empty counterexample"
        );
    }
}

/// Replaying an exported counterexample schedule on a fresh system
/// reproduces the same failure, deterministically (twice).
#[test]
fn counterexamples_replay_deterministically() {
    for (name, proto, mutation) in mutation_cases() {
        let lit = Litmus::by_name(name).unwrap();
        let report = check_litmus(&lit, proto, Some(mutation), &cfg(2));
        let Verdict::Violated(ce) = report.verdict else {
            panic!("{name} under {proto:?} with {mutation:?}: bug not caught");
        };
        let first = replay_litmus(&lit, proto, Some(mutation), &ce)
            .unwrap_or_else(|e| panic!("{name}/{mutation:?}: {e}"));
        let second = replay_litmus(&lit, proto, Some(mutation), &ce)
            .unwrap_or_else(|e| panic!("{name}/{mutation:?}: {e}"));
        assert_eq!(
            first, second,
            "{name}/{mutation:?}: replay not deterministic"
        );
        assert_eq!(
            first, ce.failure,
            "{name}/{mutation:?}: replay shows a different failure than the checker"
        );
        // A replayed simulator failure carries forensics: the violation
        // detail is stamped with the delivery ordinal, and deadlocks carry
        // a stall report.
        if let Failure::Sim(e) = &first {
            match e {
                SimError::ProtocolViolation { detail, .. } => {
                    assert!(
                        detail.contains("[delivery #"),
                        "violation detail lacks delivery ordinal: {detail}"
                    );
                }
                SimError::Deadlock { report, .. } => {
                    assert!(!report.cores.is_empty(), "empty stall report");
                }
                _ => {}
            }
        }
    }
}

/// A cleanly halted state must pass the quiescent coherence check, not only
/// the litmus verdict. Two readers share `res1`'s line; a third thread
/// data-stores to it and halts without a fence. Under `mesi-drop-ack` the
/// writer's upgrade never collects its invalidation acks, so its MSHR entry
/// is stranded behind halted cores while every observable stays SC-legal:
/// only the terminal check sees it. The stock protocol verifies.
#[test]
fn halted_state_with_a_stranded_transaction_is_a_violation() {
    let mut lit = litmus::sb();
    let (res0, shared) = (lit.observables[0].1, lit.observables[1].1);
    let (v, p) = (Reg(1), Reg(2));
    let reader = |publish: bool| {
        let mut a = Asm::new("reader");
        a.movi(p, shared.raw()).load(v, p, 0);
        if publish {
            // res0 := 1 keeps the SB verdict satisfied on every path.
            a.movi(v, 1).movi(p, res0.raw()).store(v, p, 0).fence();
        }
        a.halt();
        a.build()
    };
    let mut writer = Asm::new("writer");
    writer
        .movi(v, 7)
        .movi(p, shared.raw())
        .store(v, p, 0)
        .halt();
    lit.programs = vec![reader(true), reader(false), writer.build()];

    let clean = check_litmus(&lit, Protocol::Mesi, None, &cfg(2));
    assert_eq!(clean.verdict, Verdict::Verified, "stock MESI must verify");
    let mutation = ProtocolMutation::MesiDropAck;
    let report = check_litmus(&lit, Protocol::Mesi, Some(mutation), &cfg(2));
    let Verdict::Violated(ce) = &report.verdict else {
        panic!("stranded transaction not reported ({report:?})");
    };
    match &ce.failure {
        Failure::Sim(SimError::ProtocolViolation { detail }) => {
            assert!(detail.contains("MSHR entries at quiescence"), "{detail}");
        }
        other => panic!("expected a coherence violation, got {other}"),
    }
    let replayed = replay_litmus(&lit, Protocol::Mesi, Some(mutation), ce).expect("replays");
    assert_eq!(replayed, ce.failure);
}

/// Both MESI mutations need an S copy that an upgrade invalidates, and two
/// threads give one: T1 loads x; T0 loads x, then stores it. When T1's GetS
/// is served first, T1 is granted E, T0's GetS downgrades both to S, and
/// T0's store upgrades from S and invalidates T1. Skipping the
/// invalidation leaves a stale S copy beside the new owner; dropping the
/// ack strands T0's upgrade at its fence. Not in `Litmus::all()`.
#[test]
fn mesi_mutations_are_caught_on_a_two_thread_upgrade() {
    let mut lit = litmus::sb();
    let (res0, x) = (lit.observables[0].1, lit.observables[1].1);
    let (v, p) = (Reg(1), Reg(2));
    let mut upgrader = Asm::new("upgrader");
    upgrader
        .movi(p, x.raw())
        .load(v, p, 0)
        .movi(v, 7)
        .store(v, p, 0);
    // res0 := 1 keeps the SB verdict satisfied on every path.
    upgrader
        .movi(v, 1)
        .movi(p, res0.raw())
        .store(v, p, 0)
        .fence()
        .halt();
    let mut reader = Asm::new("reader");
    reader.movi(p, x.raw()).load(v, p, 0).halt();
    lit.programs = vec![upgrader.build(), reader.build()];

    let clean = check_litmus(&lit, Protocol::Mesi, None, &cfg(2));
    assert_eq!(clean.verdict, Verdict::Verified, "stock MESI must verify");
    for mutation in [
        ProtocolMutation::MesiSkipInvalidate,
        ProtocolMutation::MesiDropAck,
    ] {
        let report = check_litmus(&lit, Protocol::Mesi, Some(mutation), &cfg(2));
        let Verdict::Violated(ce) = &report.verdict else {
            panic!("{mutation:?} not caught ({report:?})");
        };
        assert!(ce.minimized, "{mutation:?}: counterexample not minimized");
        assert!(!ce.picks.is_empty(), "{mutation:?}: empty counterexample");
        let replayed = replay_litmus(&lit, Protocol::Mesi, Some(mutation), ce).expect("replays");
        assert_eq!(replayed, ce.failure, "{mutation:?}: replay differs");
    }
}

/// Verdict, minimized counterexample, and the deterministic statistics are
/// identical for 1, 2, and 4 workers.
#[test]
fn results_do_not_depend_on_worker_count() {
    // A clean case: the full deterministic fixpoint is reached, so the
    // unique-state count must match exactly.
    let lit = litmus::sb();
    let base = check_litmus(&lit, Protocol::DeNovoSync0, None, &cfg(1));
    assert_eq!(base.verdict, Verdict::Verified);
    for workers in [2, 4] {
        let r = check_litmus(&lit, Protocol::DeNovoSync0, None, &cfg(workers));
        assert_eq!(
            r.verdict, base.verdict,
            "{workers} workers: verdict differs"
        );
        assert_eq!(
            r.stats.unique_states, base.stats.unique_states,
            "{workers} workers: explored a different state set"
        );
    }
    // A violating case: the minimized counterexample must be bit-identical.
    let (name, proto, mutation) = (
        "tatas",
        Protocol::Mesi,
        ProtocolMutation::MesiSkipInvalidate,
    );
    let lit = Litmus::by_name(name).unwrap();
    let base = check_litmus(&lit, proto, Some(mutation), &cfg(1));
    let Verdict::Violated(base_ce) = base.verdict else {
        panic!("bug not caught at 1 worker");
    };
    for workers in [2, 4] {
        let r = check_litmus(&lit, proto, Some(mutation), &cfg(workers));
        let Verdict::Violated(ce) = r.verdict else {
            panic!("bug not caught at {workers} workers");
        };
        assert_eq!(ce, base_ce, "{workers} workers: different counterexample");
    }
}

/// Soundness cross-check: on every small litmus × protocol cell, bitstate
/// mode at a generous filter size reaches the same verdict as exact mode,
/// and its (lossy) unique-state count never exceeds the exact one — the
/// filter can only under-explore, never fabricate states or violations.
///
/// Bitstate runs reduction-free here: a bitstate revisit is pruned
/// unconditionally (the filter stores no sleep set to weaken), so composing
/// it with sleep sets can prune states POR would otherwise recover — fine
/// for a lossy deep run, but this test wants guaranteed full coverage, and
/// POR preserves the reachable state *set* (see `por_preserves_the_state_
/// set`), so the exact-mode count is directly comparable.
#[test]
fn bitstate_agrees_with_exact_on_clean_cells() {
    // Single-worker: the bitstate new-insert counter is exact only without
    // concurrent inserts (two workers racing one fingerprint across the
    // filter's words can double-count it).
    let bitstate = CheckConfig {
        visited: VisitedMode::Bitstate { bits: 1 << 22 },
        workers: 1,
        por: false,
        ..CheckConfig::default()
    };
    for lit in Litmus::all() {
        for proto in Protocol::EXTENDED {
            let exact = check_litmus(&lit, proto, None, &cfg(2));
            let lossy = check_litmus(&lit, proto, None, &bitstate);
            assert_eq!(
                exact.verdict, lossy.verdict,
                "{} under {proto:?}: bitstate verdict differs from exact",
                lit.name
            );
            assert!(
                lossy.stats.unique_states <= exact.stats.unique_states,
                "{} under {proto:?}: bitstate claims more states ({}) than exist ({})",
                lit.name,
                lossy.stats.unique_states,
                exact.stats.unique_states
            );
            assert!(lossy.stats.filter_bits >= 1 << 22);
            assert!(lossy.stats.filter_fill_ratio() < 0.01);
        }
    }
}

/// All six seeded protocol mutations are still caught — with the same
/// minimized counterexamples exact mode produces — when the visited set is
/// a lossy bitstate filter. (Minimization runs from the true root without
/// the filter, so a catch is a catch regardless of mode.)
#[test]
fn mutations_are_caught_in_bitstate_mode() {
    let bitstate = CheckConfig {
        visited: VisitedMode::Bitstate { bits: 1 << 22 },
        workers: 2,
        por: false,
        ..CheckConfig::default()
    };
    for (name, proto, mutation) in mutation_cases() {
        let lit = Litmus::by_name(name).unwrap();
        let exact = check_litmus(&lit, proto, Some(mutation), &cfg(2));
        let lossy = check_litmus(&lit, proto, Some(mutation), &bitstate);
        let Verdict::Violated(ce) = &lossy.verdict else {
            panic!("{name}/{mutation:?}: bug not caught in bitstate mode");
        };
        assert!(ce.minimized, "{name}/{mutation:?}: not minimized");
        assert_eq!(
            lossy.verdict, exact.verdict,
            "{name}/{mutation:?}: bitstate found a different counterexample than exact"
        );
    }
}

/// All six seeded protocol mutations are caught by a swarm of randomized
/// probes, with the standard minimized counterexample on every hit.
#[test]
fn mutations_are_caught_in_swarm_mode() {
    let swarm = SwarmConfig {
        probes: 256,
        workers: 2,
        probe_depth: 2_000,
        probe_states: 50_000,
        filter_bits: 1 << 22,
        seed: 0xDE40,
    };
    for (name, proto, mutation) in mutation_cases() {
        let lit = Litmus::by_name(name).unwrap();
        let report = swarm_litmus(&lit, proto, Some(mutation), &swarm);
        let Verdict::Violated(ce) = &report.verdict else {
            panic!("{name}/{mutation:?}: bug not caught by the swarm");
        };
        assert!(ce.minimized, "{name}/{mutation:?}: not minimized");
        assert!(
            !ce.picks.is_empty(),
            "{name}/{mutation:?}: empty counterexample"
        );
        // The swarm's minimizer runs the same sequential pass as exact
        // mode, so the counterexample must match exact mode's exactly.
        let exact = check_litmus(&lit, proto, Some(mutation), &cfg(2));
        assert_eq!(
            report.verdict, exact.verdict,
            "{name}/{mutation:?}: swarm counterexample differs from exact"
        );
    }
}

/// A clean cell stays clean under the swarm, and the report is explicit
/// that swarm coverage is bounded (never claims completeness).
#[test]
fn swarm_never_claims_completeness() {
    let swarm = SwarmConfig {
        probes: 32,
        workers: 2,
        seed: 7,
        ..SwarmConfig::default()
    };
    let report = swarm_litmus(&litmus::sb(), Protocol::Mesi, None, &swarm);
    assert_eq!(report.verdict, Verdict::Verified);
    assert!(
        !report.stats.complete(),
        "a lossy swarm run must not claim a complete exploration"
    );
    assert!(report.stats.unique_states > 1);
}

/// Partial-order reduction does not change the verdict or the reachable
/// state set — it only prunes redundant paths into the same states.
#[test]
fn por_preserves_the_state_set() {
    let lit = litmus::corr();
    for proto in Protocol::EXTENDED {
        let with = check_litmus(&lit, proto, None, &cfg(1));
        let without = check_litmus(
            &lit,
            proto,
            None,
            &CheckConfig {
                por: false,
                workers: 1,
                ..CheckConfig::default()
            },
        );
        assert_eq!(with.verdict, Verdict::Verified);
        assert_eq!(without.verdict, Verdict::Verified);
        assert_eq!(
            with.stats.unique_states, without.stats.unique_states,
            "{proto:?}: POR changed the reachable state set"
        );
        assert!(
            with.stats.transitions_fired <= without.stats.transitions_fired,
            "{proto:?}: POR fired more transitions than full exploration"
        );
    }
}
