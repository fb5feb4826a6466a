//! Differential fuzzing artifact.
//!
//! Three measurements, written to `BENCH_fuzz.json`:
//!
//! 1. **Throughput + determinism** — a stock-protocol batch at 1, 2, and 4
//!    workers: cases/second, wall-clock per worker count, and the
//!    assertion that all three result digests are byte-identical.
//! 2. **Mutation catch rates** — each seeded [`ProtocolMutation`] over a
//!    fixed seed range: how many cases the differential harness flags.
//! 3. **Shrink ratios** — the first diverging case per mutation is
//!    delta-debugged; initial/final instruction counts are recorded.
//!
//! `DVS_QUICK=1` shrinks the seed ranges for CI smoke.

use dvs_campaign::quick_mode;
use dvs_core::config::ProtocolMutation;
use dvs_fuzz::{generate, run_batch, run_case, shrink, BatchConfig, GenConfig, HarnessConfig};
use dvs_stats::report::{BenchArtifact, JsonObject, ParamTable};
use std::time::Instant;

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

const MUTATIONS: [ProtocolMutation; 4] = [
    ProtocolMutation::DnvSkipRepoint,
    ProtocolMutation::DnvDropXfer,
    ProtocolMutation::MesiSkipInvalidate,
    ProtocolMutation::MesiDropAck,
];

fn main() {
    let quick = quick_mode();
    let stock_count = if quick { 120 } else { 500 };
    let control_count = if quick { 30 } else { 60 };

    // 1. Stock-protocol throughput and worker-count determinism.
    let mut digests = Vec::new();
    let mut scaling = Vec::new();
    let mut summary = ParamTable::new("Differential fuzz matrix");
    summary.row("stock batch", format!("{stock_count} cases"));
    let mut throughput_1w = 0.0;
    for &workers in &WORKER_COUNTS {
        let cfg = BatchConfig {
            seed_start: 0,
            count: stock_count,
            gen: GenConfig::default_pool(),
            harness: HarnessConfig::default(),
            workers,
        };
        let t0 = Instant::now();
        let report = run_batch(&cfg);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.passed, report.total,
            "stock protocols diverged: {:#?}",
            report.diverged
        );
        assert_eq!(report.sick + report.panicked, 0);
        let rate = report.total as f64 / wall;
        if workers == 1 {
            throughput_1w = rate;
        }
        summary.row(
            &format!("{workers} worker(s)"),
            format!("{wall:.2}s wall, {rate:.0} cases/s"),
        );
        digests.push(report.digest);
        let mut row = JsonObject::new();
        row.u64("workers", workers as u64)
            .f64("wall_s", wall)
            .f64("cases_per_s", rate)
            .u64("instrs_total", report.instrs_total as u64)
            .str("digest", &format!("{:016x}", report.digest));
        scaling.push(row);
    }
    assert!(
        digests.iter().all(|d| d == &digests[0]),
        "fuzz digests must be worker-count independent: {digests:?}"
    );
    summary.row(
        "digest",
        format!("{:016x} (identical at 1/2/4)", digests[0]),
    );

    // 2 + 3. Catch rates and shrink ratios per mutation.
    let mut mutation_rows = Vec::new();
    for mutation in MUTATIONS {
        let tok = mutation.token();
        let harness = HarnessConfig {
            mutation: Some(mutation),
            ..Default::default()
        };
        let cfg = BatchConfig {
            seed_start: 0,
            count: control_count,
            gen: GenConfig::small(),
            harness,
            workers: 4,
        };
        let report = run_batch(&cfg);
        assert!(
            !report.diverged.is_empty(),
            "{tok}: mutation was never caught in {control_count} seeds"
        );
        let first_seed = report.diverged[0].seed;
        let case = generate(first_seed, &cfg.gen);
        let out = shrink(&case, |c| run_case(c, &cfg.harness).is_divergent());
        summary.row(
            tok,
            format!(
                "caught {}/{}, shrink {} -> {} instrs ({:.0}%)",
                report.diverged.len(),
                report.total,
                out.initial_instrs,
                out.final_instrs,
                100.0 * out.ratio()
            ),
        );
        let mut row = JsonObject::new();
        row.str("mutation", tok)
            .u64("cases", report.total as u64)
            .u64("caught", report.diverged.len() as u64)
            .u64("first_divergent_seed", first_seed)
            .u64("shrink_initial_instrs", out.initial_instrs as u64)
            .u64("shrink_final_instrs", out.final_instrs as u64)
            .f64("shrink_ratio", out.ratio())
            .u64("shrink_attempts", out.attempts as u64);
        mutation_rows.push(row);
    }
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("fuzz", "");
    artifact
        .body()
        .u64("stock_cases", stock_count as u64)
        .bool("digests_identical", true)
        .str("digest", &format!("{:016x}", digests[0]))
        .f64("cases_per_s_1_worker", throughput_1w)
        .array("scaling", scaling)
        .array("mutations", mutation_rows);
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fuzz.json"
    ));
}
