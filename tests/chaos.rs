//! Chaos matrix: every synchronization kernel, on every protocol, under
//! deterministic fault injection with the runtime coherence invariant
//! checkers enabled.
//!
//! The fault injector only applies *legal* perturbations — bounded extra
//! delivery delay and reordering of concurrently in-flight messages between
//! independent endpoint pairs; per-channel FIFO order is preserved and no
//! message is ever dropped or duplicated — so every run must still complete,
//! stay invariant-clean at each message-delivery boundary, and satisfy the
//! kernel's semantic post-condition. A protocol that only worked because of
//! lucky timing fails here.

use denovosync_suite::core::chaos::FaultPlan;
use denovosync_suite::core::config::{Protocol, SystemConfig};
use denovosync_suite::core::system::{RunError, SimError};
use dvs_bench::run_kernel;
use dvs_kernels::{BarrierKind, KernelId, KernelParams, LockKind, LockedStruct, NonBlocking};

/// Fixed fault seeds; `scripts/ci.sh` runs exactly this matrix.
const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_CAFE];

fn chaos_cfg(threads: usize, proto: Protocol, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small(threads, proto);
    cfg.check_invariants = true;
    cfg.fault_plan = Some(FaultPlan::from_seed(seed));
    cfg
}

fn check_kernel_under_chaos(kernel: KernelId, threads: usize) {
    let params = KernelParams::smoke(threads);
    for proto in Protocol::EXTENDED {
        for seed in SEEDS {
            run_kernel(kernel, chaos_cfg(threads, proto, seed), &params).unwrap_or_else(|e| {
                panic!(
                    "{} on {proto:?} with fault seed {seed:#x}: {e}",
                    kernel.name()
                )
            });
        }
    }
}

macro_rules! chaos_tests {
    ($($name:ident => $kernel:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check_kernel_under_chaos($kernel, 4);
            }
        )*
    };
}

chaos_tests! {
    chaos_tatas_single_queue => KernelId::Locked(LockedStruct::SingleQueue, LockKind::Tatas);
    chaos_tatas_double_queue => KernelId::Locked(LockedStruct::DoubleQueue, LockKind::Tatas);
    chaos_tatas_stack => KernelId::Locked(LockedStruct::Stack, LockKind::Tatas);
    chaos_tatas_heap => KernelId::Locked(LockedStruct::Heap, LockKind::Tatas);
    chaos_tatas_counter => KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    chaos_tatas_large_cs => KernelId::Locked(LockedStruct::LargeCs, LockKind::Tatas);
    chaos_array_single_queue => KernelId::Locked(LockedStruct::SingleQueue, LockKind::Array);
    chaos_array_double_queue => KernelId::Locked(LockedStruct::DoubleQueue, LockKind::Array);
    chaos_array_stack => KernelId::Locked(LockedStruct::Stack, LockKind::Array);
    chaos_array_heap => KernelId::Locked(LockedStruct::Heap, LockKind::Array);
    chaos_array_counter => KernelId::Locked(LockedStruct::Counter, LockKind::Array);
    chaos_array_large_cs => KernelId::Locked(LockedStruct::LargeCs, LockKind::Array);
    chaos_nb_ms_queue => KernelId::NonBlocking(NonBlocking::MsQueue);
    chaos_nb_plj_queue => KernelId::NonBlocking(NonBlocking::PljQueue);
    chaos_nb_treiber_stack => KernelId::NonBlocking(NonBlocking::TreiberStack);
    chaos_nb_herlihy_stack => KernelId::NonBlocking(NonBlocking::HerlihyStack);
    chaos_nb_herlihy_heap => KernelId::NonBlocking(NonBlocking::HerlihyHeap);
    chaos_nb_fai_counter => KernelId::NonBlocking(NonBlocking::FaiCounter);
    chaos_barrier_tree => KernelId::Barrier(BarrierKind::Tree, false);
    chaos_barrier_nary => KernelId::Barrier(BarrierKind::Nary, false);
    chaos_barrier_central => KernelId::Barrier(BarrierKind::Central, false);
    chaos_barrier_tree_unbalanced => KernelId::Barrier(BarrierKind::Tree, true);
    chaos_barrier_nary_unbalanced => KernelId::Barrier(BarrierKind::Nary, true);
    chaos_barrier_central_unbalanced => KernelId::Barrier(BarrierKind::Central, true);
}

/// The macro list above must cover every kernel exactly once.
#[test]
fn chaos_matrix_covers_all_24_kernels() {
    assert_eq!(KernelId::all().len(), 24);
}

/// The same fault seed must reproduce the exact same run — the whole point
/// of *deterministic* fault injection is that a chaos failure can be
/// replayed from its seed.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let params = KernelParams::smoke(4);
    for proto in Protocol::EXTENDED {
        let a = run_kernel(kernel, chaos_cfg(4, proto, 7), &params)
            .unwrap_or_else(|e| panic!("{proto:?} first run: {e}"));
        let b = run_kernel(kernel, chaos_cfg(4, proto, 7), &params)
            .unwrap_or_else(|e| panic!("{proto:?} second run: {e}"));
        assert_eq!(a.cycles, b.cycles, "{proto:?}: same seed, different run");
        assert_eq!(
            a.traffic.total(),
            b.traffic.total(),
            "{proto:?}: same seed, different traffic"
        );
    }
}

/// Different fault seeds must actually change message timing — otherwise the
/// matrix is testing the same schedule 4 times.
#[test]
fn fault_seeds_actually_perturb_timing() {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let params = KernelParams::smoke(4);
    let mut cycles = std::collections::BTreeSet::new();
    let base = run_kernel(
        kernel,
        SystemConfig::small(4, Protocol::DeNovoSync),
        &params,
    )
    .expect("baseline run");
    cycles.insert(base.cycles);
    for seed in SEEDS {
        let stats = run_kernel(kernel, chaos_cfg(4, Protocol::DeNovoSync, seed), &params)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        cycles.insert(stats.cycles);
    }
    assert!(
        cycles.len() >= 2,
        "baseline and all {} fault seeds produced identical cycle counts",
        SEEDS.len()
    );
}

/// The stall report a tatas counter under fault seed 1 renders when its
/// 300-cycle budget runs out, per protocol.
fn golden_stall_report(proto: Protocol) -> &'static str {
    match proto {
        Protocol::Mesi => include_str!("golden/stall_report_m.txt"),
        Protocol::DeNovoSync0 => include_str!("golden/stall_report_ds0.txt"),
        Protocol::DeNovoSync => include_str!("golden/stall_report_ds.txt"),
        Protocol::Gcs => include_str!("golden/stall_report_gcs.txt"),
    }
}

/// A run that hits the cycle limit under chaos must surface the stall
/// forensics — per-core status lines, pending transactions, L2 state and
/// the recent-message ring — and render them byte-for-byte as pinned.
#[test]
fn cycle_limit_under_chaos_reports_stall_forensics() {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let params = KernelParams::smoke(4);
    for proto in Protocol::EXTENDED {
        let mut cfg = chaos_cfg(4, proto, 1);
        cfg.max_cycles = 300; // far below what the kernel needs
        let err = run_kernel(kernel, cfg, &params).expect_err("must hit the cycle limit");
        match err {
            RunError::Sim(SimError::CycleLimit { limit, report }) => {
                assert_eq!(limit, 300);
                assert!(
                    !report.recent_messages.is_empty(),
                    "{proto:?}: report must include the recent-message ring: {report}"
                );
                assert_eq!(
                    report.to_string(),
                    golden_stall_report(proto),
                    "{proto:?}: stall report drifted from its golden text"
                );
            }
            other => panic!("{proto:?}: expected CycleLimit, got: {other}"),
        }
    }
}
