//! The experiment harness: campaign-driven figure drivers plus the
//! table/figure targets under `benches/` (run with `cargo bench`).
//!
//! Every evaluation grid is expanded into [`dvs_campaign::ExperimentSpec`]
//! lists and executed by the parallel [`dvs_campaign::Campaign`] runner;
//! this crate contributes only the paper-shaped grid definitions and the
//! table rendering ([`figures`]). The single-run entry points
//! ([`run_workload`], [`run_kernel`]) live in `dvs-campaign` and are
//! re-exported here for the tests and examples that predate the campaign
//! layer.

pub mod figures;
pub mod trace;

pub use dvs_campaign::{run_kernel, run_workload};

use dvs_apps::AppSpec;
use dvs_campaign::grids::{app_grid, kernel_grid};
use dvs_campaign::{figure_core_counts, workers_from_env, Campaign};
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams};

/// Runs one kernel grid (the shape of Figures 3–6) through the campaign
/// runner and prints the normalized tables per core count. `tweak` adjusts
/// the paper parameters (ablations).
///
/// # Panics
///
/// Panics if any cell fails — a figure with holes is a regression.
pub fn kernel_figure(figure: &str, kernels: &[KernelId], tweak: impl Fn(&mut KernelParams)) {
    for &cores in &figure_core_counts() {
        let specs = kernel_grid(kernels, cores, &Protocol::ALL, &tweak);
        let report = Campaign::from_specs(specs).run(workers_from_env());
        report.expect_all_ok(figure);
        figures::render_report_tables(
            &format!("{figure}: execution time, {cores} cores (normalized to MESI)"),
            &format!("{figure}: network traffic, {cores} cores (normalized to MESI)"),
            &report,
        );
        println!();
    }
}

/// Runs the application grid (Figure 7: MESI vs DeNovoSync) through the
/// campaign runner and prints the normalized tables.
///
/// # Panics
///
/// Panics if any cell fails.
pub fn app_figure(figure: &str, apps: &[AppSpec]) {
    let specs = app_grid(apps, &[Protocol::Mesi, Protocol::DeNovoSync]);
    let report = Campaign::from_specs(specs).run(workers_from_env());
    report.expect_all_ok(figure);
    figures::render_report_tables(
        &format!("{figure}: execution time (normalized to MESI)"),
        &format!("{figure}: network traffic (normalized to MESI)"),
        &report,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_core::config::SystemConfig;
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
