//! Campaign determinism and scaling artifact.
//!
//! Runs one evaluation grid — the full-scale Figure 3 grid, or a reduced
//! fig3+fig7 grid under `DVS_QUICK=1` — through the campaign runner at 1, 2,
//! and 4 workers, asserts the three reports serialize to byte-identical
//! results, and writes `BENCH_campaign.json` with per-worker-count
//! wall-clock and speedup. In quick mode the digest must also equal the
//! committed contract value. The ≥ 1.6× 4-worker speedup target is *recorded*,
//! not asserted, when `host_parallelism < 4` (a single-core host cannot
//! show it).

use dvs_campaign::grids::{app_grid, kernel_grid};
use dvs_campaign::{quick_mode, Campaign, ExperimentSpec};
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, LockKind, LockedStruct};
use dvs_stats::report::{host_parallelism, BenchArtifact, JsonObject, ParamTable};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// The committed results digest of the quick grid — part of the
/// behavioural contract: a change that moves it changed simulated results.
const QUICK_DIGEST: &str = "4d5df26dca1b09bc";

fn grid() -> Vec<ExperimentSpec> {
    let tatas: Vec<KernelId> = LockedStruct::ALL
        .iter()
        .map(|&s| KernelId::Locked(s, LockKind::Tatas))
        .collect();
    let mut specs = Vec::new();
    if quick_mode() {
        // CI smoke: fig3 at 16 cores plus the fig7 apps at 16 threads.
        specs.extend(kernel_grid(&tatas, 16, &Protocol::ALL, |_| {}));
        specs.extend(app_grid(
            &dvs_apps::all_apps(),
            &[Protocol::Mesi, Protocol::DeNovoSync],
        ));
    } else {
        for cores in [16, 64] {
            specs.extend(kernel_grid(&tatas, cores, &Protocol::ALL, |_| {}));
        }
    }
    specs
}

fn main() {
    let specs = grid();
    let grid_name = if quick_mode() {
        "fig3@16 + fig7@16 (quick)"
    } else {
        "fig3 @16+64 (full)"
    };
    println!(
        "campaign bench: {grid_name}, {} specs, workers {WORKER_COUNTS:?}",
        specs.len()
    );

    let mut digests = Vec::new();
    let mut walls = Vec::new();
    for &workers in &WORKER_COUNTS {
        let report = Campaign::from_specs(specs.clone()).run(workers);
        report.expect_all_ok("campaign grid");
        digests.push(report.results_digest());
        walls.push(report.wall_seconds());
    }
    assert!(
        digests.iter().all(|d| d == &digests[0]),
        "campaign results must be byte-identical across worker counts: {digests:?}"
    );
    if quick_mode() {
        assert_eq!(
            digests[0], QUICK_DIGEST,
            "quick-grid results digest drifted from the committed contract"
        );
    }

    let host = host_parallelism();
    let mut summary = ParamTable::new("Campaign scaling");
    summary
        .row("grid", grid_name)
        .row("specs", specs.len())
        .row("results digest", &digests[0])
        .row("host CPUs", host);
    let mut runs = Vec::new();
    for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
        let speedup = walls[0] / walls[i];
        summary.row(
            &format!("{workers} worker(s)"),
            format!("{:.2}s wall, {speedup:.2}x vs 1", walls[i]),
        );
        let mut row = JsonObject::new();
        row.u64("workers", workers as u64)
            .f64("wall_s", walls[i])
            .f64_opt("speedup_vs_1", speedup);
        runs.push(row);
    }
    if host < 4 {
        summary.row(
            "speedup target",
            format!("recorded only: host has {host} CPU(s), <4"),
        );
    }
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("campaign", "");
    artifact
        .body()
        .str("grid", grid_name)
        .u64("specs", specs.len() as u64)
        .str("results_digest", &digests[0])
        .bool("digests_identical", true)
        .f64_opt("speedup_4_workers", walls[0] / walls[2])
        .bool("speedup_target_meaningful", host >= 4)
        .array("scaling", runs);
    // Anchor to the workspace root regardless of the bench binary's cwd.
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_campaign.json"
    ));
}
