//! Cross-cutting invariants of the statistics machinery and determinism
//! guarantees, exercised through full kernel runs.

use denovosync_suite::core::config::{Protocol, SystemConfig};
use dvs_bench::run_kernel;
use dvs_kernels::{BarrierKind, KernelId, KernelParams, LockKind, LockedStruct, NonBlocking};
use dvs_stats::{TimeComponent, TrafficClass};

fn smoke_run(kernel: KernelId, proto: Protocol) -> dvs_stats::RunStats {
    run_kernel(
        kernel,
        SystemConfig::small(4, proto),
        &KernelParams::smoke(4),
    )
    .expect("kernel runs")
}

/// Identical configuration + seed ⇒ identical statistics, for every
/// protocol and a representative kernel from each group.
#[test]
fn repeated_runs_are_bit_identical() {
    let kernels = [
        KernelId::Locked(LockedStruct::SingleQueue, LockKind::Tatas),
        KernelId::Locked(LockedStruct::Counter, LockKind::Array),
        KernelId::NonBlocking(NonBlocking::TreiberStack),
        KernelId::Barrier(BarrierKind::Central, false),
    ];
    for kernel in kernels {
        for proto in Protocol::ALL {
            let a = smoke_run(kernel, proto);
            let b = smoke_run(kernel, proto);
            assert_eq!(a, b, "{} on {proto:?} must be deterministic", kernel.name());
        }
    }
}

/// Different seeds change timing (the dummy-compute randomization is
/// actually live) but never correctness.
#[test]
fn seeds_change_timing_not_results() {
    let kernel = KernelId::Locked(LockedStruct::Stack, LockKind::Tatas);
    let params = KernelParams::smoke(4);
    let mut cycles = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = SystemConfig::small(4, Protocol::DeNovoSync);
        cfg.seed = seed;
        let stats = run_kernel(kernel, cfg, &params).expect("runs under any seed");
        cycles.push(stats.cycles);
    }
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "different seeds should perturb timing: {cycles:?}"
    );
}

/// Per-core time breakdowns must be internally consistent: no component
/// exceeds the run length, and each core's total is within the run length
/// plus scheduling slack.
#[test]
fn time_breakdowns_are_bounded_by_run_length() {
    for proto in Protocol::ALL {
        let stats = smoke_run(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            proto,
        );
        for (core, b) in stats.per_core.iter().enumerate() {
            assert!(
                b.total() <= stats.cycles + 16,
                "{proto:?} core {core}: breakdown {} exceeds run {}",
                b.total(),
                stats.cycles
            );
            for comp in TimeComponent::ALL {
                assert!(b.get(comp) <= b.total());
            }
        }
    }
}

/// The non-synch component reflects the dummy compute: with iterations and
/// a known range, it must land within [iters*lo, iters*hi] per core.
#[test]
fn nonsynch_component_matches_dummy_compute() {
    let kernel = KernelId::NonBlocking(NonBlocking::FaiCounter);
    let mut params = KernelParams::smoke(4);
    params.iters = 10;
    params.nonsynch = (100, 200);
    let stats = run_kernel(kernel, SystemConfig::small(4, Protocol::Mesi), &params).unwrap();
    for (core, b) in stats.per_core.iter().enumerate() {
        let ns = b.get(TimeComponent::NonSynch);
        assert!(
            (1000..2000).contains(&ns),
            "core {core}: non-synch {ns} outside [1000, 2000)"
        );
    }
}

/// DeNovoSync (and only DeNovoSync) accrues hardware-backoff time under
/// read-sharing contention.
#[test]
fn hw_backoff_only_appears_on_denovosync() {
    // The TATAS large-CS kernel has long critical sections with many
    // waiters — the paper's worst case for read registration ping-pong.
    let kernel = KernelId::Locked(LockedStruct::LargeCs, LockKind::Tatas);
    let mut params = KernelParams::smoke(4);
    params.iters = 12;
    for proto in Protocol::ALL {
        let stats = run_kernel(kernel, SystemConfig::small(4, proto), &params).unwrap();
        let hw = stats.breakdown().get(TimeComponent::HwBackoff);
        match proto {
            Protocol::DeNovoSync => {
                assert!(hw > 0, "DeNovoSync should back off under contention")
            }
            _ => assert_eq!(hw, 0, "{proto:?} must never accrue hw backoff"),
        }
    }
}

/// MESI never emits SYNCH-class traffic (it does not distinguish
/// synchronization messages — paper footnote 3); DeNovo never emits
/// invalidations.
#[test]
fn traffic_classes_respect_protocol_structure() {
    for kernel in [
        KernelId::Locked(LockedStruct::DoubleQueue, LockKind::Array),
        KernelId::NonBlocking(NonBlocking::MsQueue),
        KernelId::Barrier(BarrierKind::Tree, false),
    ] {
        for proto in Protocol::ALL {
            let stats = smoke_run(kernel, proto);
            if proto.is_denovo() {
                assert_eq!(
                    stats.traffic.get(TrafficClass::Invalidation),
                    0,
                    "{} on {proto:?}",
                    kernel.name()
                );
            } else {
                assert_eq!(
                    stats.traffic.get(TrafficClass::Sync),
                    0,
                    "{} on {proto:?}",
                    kernel.name()
                );
            }
        }
    }
}

/// Sync variables ping-pong at word granularity on DeNovo: its total
/// traffic for a contended-counter kernel must be well below MESI's
/// (which moves whole lines and invalidations).
#[test]
fn denovo_moves_less_data_for_contended_sync() {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let mesi = smoke_run(kernel, Protocol::Mesi).traffic.total();
    let ds = smoke_run(kernel, Protocol::DeNovoSync).traffic.total();
    assert!(
        ds < mesi,
        "DeNovoSync traffic {ds} should undercut MESI {mesi} on a TATAS counter"
    );
}

/// The cache statistics see DeNovoSync0's defining behaviour: sync reads
/// miss unless the word is registered, so its sync-read miss count is far
/// higher than MESI's for spin-heavy kernels.
#[test]
fn ds0_sync_reads_register() {
    let kernel = KernelId::Barrier(BarrierKind::Central, false);
    let mut params = KernelParams::smoke(4);
    params.iters = 10;
    let mesi = run_kernel(kernel, SystemConfig::small(4, Protocol::Mesi), &params).unwrap();
    let ds0 = run_kernel(
        kernel,
        SystemConfig::small(4, Protocol::DeNovoSync0),
        &params,
    )
    .unwrap();
    assert!(
        ds0.cache.sync_read_misses > mesi.cache.sync_read_misses,
        "DS0 {} vs MESI {}: read registration must show up as misses",
        ds0.cache.sync_read_misses,
        mesi.cache.sync_read_misses
    );
}

/// `RunStats.cache` per access kind, as hits/misses, for one small kernel
/// on every protocol. `System` counts each L1 answer with the one
/// hit/miss rule it shares with the observer, so these move only when an
/// L1 answers an access differently.
#[test]
fn cache_stats_are_pinned_per_access_kind() {
    let kernel = KernelId::Locked(LockedStruct::SingleQueue, LockKind::Tatas);
    let got: Vec<String> = Protocol::EXTENDED
        .into_iter()
        .map(|proto| {
            let c = smoke_run(kernel, proto).cache;
            format!(
                "{}: data read {}/{}, data write {}/{}, sync read {}/{}, sync write {}/{}",
                proto.label(),
                c.data_read_hits,
                c.data_read_misses,
                c.data_write_hits,
                c.data_write_misses,
                c.sync_read_hits,
                c.sync_read_misses,
                c.sync_write_hits,
                c.sync_write_misses,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            "M: data read 78/18, data write 47/89, sync read 43/61, sync write 59/62",
            "DS0: data read 42/54, data write 15/121, sync read 19/164, sync write 56/74",
            "DS: data read 30/66, data write 11/125, sync read 19/202, sync write 49/89",
            "GCS: data read 48/48, data write 0/136, sync read 46/87, sync write 0/130",
        ]
    );
}
