//! Parallel fuzz batches on the shared `dvs-engine` worker pool.
//!
//! A batch generates `count` cases from consecutive seeds, runs the
//! differential harness on each, and folds every per-case summary line
//! into a single FNV-1a digest **in seed order**. Workers race over the
//! seeds, results land in index-ordered slots, and nothing about a
//! summary line depends on wall-clock or worker identity — so the digest
//! is byte-identical at any worker count, which is the property the
//! acceptance test pins.
//!
//! Each case runs under `catch_unwind`: a panic anywhere in the stack
//! (generator, lowering, simulator) is captured as that case's summary
//! line instead of poisoning the pool, so one pathological seed cannot
//! take down a batch.

use crate::case::FuzzCase;
use crate::diff::{run_case, CaseVerdict, HarnessConfig};
use crate::gen::{generate, GenConfig};
use dvs_engine::parallel_indexed;
use dvs_engine::{fnv1a_str, FNV_OFFSET};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A fuzz batch: which seeds, which generator pool, which harness, how
/// many workers.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// First generator seed; case `i` uses `seed_start + i`.
    pub seed_start: u64,
    /// Number of cases.
    pub count: usize,
    /// Generator pool.
    pub gen: GenConfig,
    /// Differential-harness budgets and (for negative controls) mutation.
    pub harness: HarnessConfig,
    /// Worker threads (`0` means one).
    pub workers: usize,
}

/// One diverging case out of a batch.
#[derive(Debug, Clone)]
pub struct DivergentCase {
    /// Generator seed (regenerate with the batch's [`GenConfig`]).
    pub seed: u64,
    /// The case's summary line (stage and detail included).
    pub line: String,
}

/// Aggregate outcome of a batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Cases run.
    pub total: usize,
    /// Cases where all seven runs agreed.
    pub passed: usize,
    /// Invalid cases (generator bugs — always 0 in a healthy build).
    pub sick: usize,
    /// Cases that panicked somewhere in the stack (also 0 when healthy).
    pub panicked: usize,
    /// Every diverging case, in seed order.
    pub diverged: Vec<DivergentCase>,
    /// Summed lowered instruction count across all cases (throughput
    /// denominators for the bench).
    pub instrs_total: usize,
    /// FNV-1a over all summary lines in seed order — worker-count
    /// independent by construction.
    pub digest: u64,
}

/// Runs one batch. See the module docs for the determinism contract.
pub fn run_batch(cfg: &BatchConfig) -> BatchReport {
    let results: Vec<(String, CaseOutcome)> = parallel_indexed(cfg.count, cfg.workers, |i| {
        let seed = cfg.seed_start + i as u64;
        run_one(seed, &cfg.gen, &cfg.harness)
    });

    let mut report = BatchReport {
        total: cfg.count,
        passed: 0,
        sick: 0,
        panicked: 0,
        diverged: Vec::new(),
        instrs_total: 0,
        digest: FNV_OFFSET,
    };
    for (i, (line, outcome)) in results.iter().enumerate() {
        report.digest = fnv1a_str(report.digest, line);
        report.digest = fnv1a_str(report.digest, "\n");
        match outcome {
            CaseOutcome::Pass { instrs } => {
                report.passed += 1;
                report.instrs_total += instrs;
            }
            CaseOutcome::Sick => report.sick += 1,
            CaseOutcome::Panicked => report.panicked += 1,
            CaseOutcome::Diverged { instrs } => {
                report.instrs_total += instrs;
                report.diverged.push(DivergentCase {
                    seed: cfg.seed_start + i as u64,
                    line: line.clone(),
                });
            }
        }
    }
    report
}

/// Worker-side classification (the line carries the human detail).
enum CaseOutcome {
    Pass { instrs: usize },
    Sick,
    Diverged { instrs: usize },
    Panicked,
}

/// Generates, runs, and summarizes one seed. Never unwinds.
fn run_one(seed: u64, gen_cfg: &GenConfig, h: &HarnessConfig) -> (String, CaseOutcome) {
    let verdict = catch_unwind(AssertUnwindSafe(|| {
        let case: FuzzCase = generate(seed, gen_cfg);
        run_case(&case, h)
    }));
    match verdict {
        Ok(CaseVerdict::Pass { ref_fnv, instrs }) => (
            format!("seed={seed:#x} pass ref={ref_fnv:016x} instrs={instrs}"),
            CaseOutcome::Pass { instrs },
        ),
        Ok(CaseVerdict::Sick { reason }) => {
            (format!("seed={seed:#x} sick: {reason}"), CaseOutcome::Sick)
        }
        Ok(CaseVerdict::Diverged { instrs, divergence }) => (
            format!("seed={seed:#x} diverged {divergence} instrs={instrs}"),
            CaseOutcome::Diverged { instrs },
        ),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            (
                format!("seed={seed:#x} panicked: {msg}"),
                CaseOutcome::Panicked,
            )
        }
    }
}
