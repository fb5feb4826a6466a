//! The campaign engine: data-driven, parallel, fault-isolated orchestration
//! of full-system simulations.
//!
//! The paper's evaluation is a large grid — 24 synchronization kernels plus
//! 13 application models × 3 protocols × {16, 64} cores plus five ablations.
//! This crate turns that grid into *data*: an [`ExperimentSpec`] names one
//! run (workload id × parameters × protocol × configuration overrides), a
//! [`Campaign`] is an ordered list of specs, and [`Campaign::run`] executes
//! them on a self-scheduling worker pool of `std` threads, one full
//! [`System`](dvs_core::System) simulation per run.
//!
//! Three properties the bench drivers rely on:
//!
//! * **Determinism.** Results are stored by spec index and contain only
//!   simulated quantities, so [`CampaignReport::results_digest`] is
//!   byte-identical no matter how many workers ran the campaign or how the
//!   OS scheduled them. Host wall-times are kept *next to* the results
//!   ([`RunRecord::wall_nanos`]) and never enter the digest.
//! * **Fault isolation.** A run that panics, deadlocks, fails its semantic
//!   check, or hits the cycle limit becomes a per-run [`CampaignError`];
//!   sibling runs proceed and the campaign completes.
//! * **Observability.** Each run records its wall-time, workers emit live
//!   progress lines to stderr, and the `campaign` bench target writes
//!   `BENCH_campaign.json` with total wall-clock and multi-worker speedups.
//!
//! The experiment entry points [`run_workload`] and [`run_kernel`] live here
//! (moved from `dvs-bench`, which re-exports them): a workload's layout and
//! programs are `Arc`-shared, so materializing a [`System`] on any worker
//! costs reference-count bumps, not deep clones. They fail with
//! `dvs-core`'s [`RunError`], which [`CampaignError`] absorbs via `From`.

pub mod grids;
pub mod runner;
pub mod spec;

pub use grids::{figure_core_counts, kernel_grid, quick_mode, workers_from_env};
pub use runner::{run_recorded, Campaign, CampaignError, CampaignReport, RunRecord};
pub use spec::{ConfigOverrides, ExperimentSpec, WorkloadSpec};

use dvs_core::config::SystemConfig;
use dvs_core::{RunError, System};
use dvs_kernels::{KernelId, KernelParams, Workload};
use dvs_stats::RunStats;
use dvs_telemetry::{MetricsRegistry, Telemetry};

/// Instantiates `workload` on a system, runs it to completion, verifies its
/// semantic post-condition, and returns the run statistics.
///
/// The workload's layout and programs are shared into the system by
/// reference count, so calling this many times (or from many threads) does
/// not re-clone the program text.
///
/// # Errors
///
/// [`RunError::Sim`] if the simulation fails; [`RunError::Check`] if the
/// final memory image violates the workload's post-condition.
pub fn run_workload(cfg: SystemConfig, workload: &Workload) -> Result<RunStats, RunError> {
    run_workload_with(cfg, workload, Telemetry::off()).map(|(stats, _)| stats)
}

/// [`run_workload`] with an explicit telemetry handle: a recorder observes
/// the whole run, and the system's hierarchical metrics tree is returned
/// alongside the statistics. Passing [`Telemetry::off`] makes this
/// identical to [`run_workload`] (the metrics tree — stall accounting, cache
/// and traffic counters — is collected either way; it is built from
/// simulated quantities, not from the event stream).
///
/// # Errors
///
/// Same contract as [`run_workload`].
pub fn run_workload_with(
    cfg: SystemConfig,
    workload: &Workload,
    tel: Telemetry,
) -> Result<(RunStats, MetricsRegistry), RunError> {
    let mut sys = System::new(cfg, workload.layout.clone(), workload.programs.clone());
    for &(addr, value) in &workload.init {
        sys.preload(addr, value);
    }
    for (i, &(base, bytes)) in workload.pools.iter().enumerate() {
        sys.set_thread_pool(i, base, bytes);
    }
    sys.set_telemetry(tel);
    let stats = sys.run()?;
    sys.verify_coherence().map_err(RunError::Check)?;
    let read = |a| sys.read_word(a);
    (workload.check)(&read).map_err(RunError::Check)?;
    Ok((stats, sys.metrics()))
}

/// Builds and runs one kernel.
///
/// # Errors
///
/// Propagates [`run_workload`] failures.
pub fn run_kernel(
    kernel: KernelId,
    cfg: SystemConfig,
    params: &KernelParams,
) -> Result<RunStats, RunError> {
    let workload = dvs_kernels::build(kernel, params);
    run_workload(cfg, &workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_core::config::Protocol;
    use dvs_kernels::{LockKind, LockedStruct};

    #[test]
    fn run_kernel_returns_stats_and_checks() {
        let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
        let params = KernelParams::smoke(4);
        let stats = run_kernel(
            kernel,
            SystemConfig::small(4, Protocol::DeNovoSync),
            &params,
        )
        .expect("kernel runs");
        assert!(stats.cycles > 0);
        assert!(stats.traffic.total() > 0);
    }
}
