//! Replay: drive a [`Trace`] through the timed or oracle protocol stack
//! and validate the replayed stable state against the recording.

use crate::format::Trace;
use dvs_core::config::DataInvalidation;
use dvs_core::replay::{compress_ops, TraceOp};
use dvs_core::{RunError, System, SystemConfig};
use dvs_stats::RunStats;
use std::sync::Arc;

/// How faithfully to reproduce recorded think-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Reproduce recorded `Exec` gaps exactly: replayed cycle counts are
    /// comparable across protocols.
    Faithful,
    /// Cap `Exec` gaps at [`COMPRESS_CAP`] cycles: same op order, same
    /// final image, protocol-bound throughput. Use for raw-speed work.
    Compressed,
}

/// `Exec` cap used by [`ReplayMode::Compressed`].
pub const COMPRESS_CAP: u64 = 8;

/// Default delivery budget for oracle-mode replay walks.
pub const ORACLE_DELIVERY_BUDGET: u64 = 2_000_000;

fn streams(trace: &Trace, mode: ReplayMode) -> Vec<Arc<[TraceOp]>> {
    match mode {
        ReplayMode::Faithful => trace.ops.clone(),
        ReplayMode::Compressed => trace
            .ops
            .iter()
            .map(|s| compress_ops(s, COMPRESS_CAP))
            .collect(),
    }
}

/// Builds the replay machine: one stream per core, the recorded memory
/// image preloaded.
fn replay_system(trace: &Trace, cfg: SystemConfig, mode: ReplayMode) -> Result<System, RunError> {
    if trace.cores() != cfg.cores {
        return Err(RunError::Check(format!(
            "replay validation: trace drives {} cores but the config has {}",
            trace.cores(),
            cfg.cores
        )));
    }
    let mut sys = System::new_replay(cfg, Arc::clone(&trace.layout), streams(trace, mode));
    for &(addr, value) in &trace.init {
        sys.preload(addr, value);
    }
    Ok(sys)
}

/// Checks coherence and the full final image against the recording.
fn validate(sys: &System, trace: &Trace) -> Result<(), RunError> {
    sys.verify_coherence().map_err(RunError::Check)?;
    for &(w, want) in &trace.finals {
        let got = sys.read_word(w.base());
        if got != want {
            return Err(RunError::Check(format!(
                "replay validation: final state diverged at {:#x}: replay has {got:#x}, \
                 recording pinned {want:#x}",
                w.base().raw()
            )));
        }
    }
    Ok(())
}

/// Replays `trace` on the timed simulator under `cfg`, validating every
/// sync value in flight (in-system) and the full final image afterwards.
///
/// # Errors
///
/// [`RunError::Sim`] on simulator failures (including in-flight value
/// divergence, surfaced as protocol violations), [`RunError::Check`] on
/// incoherence, final-state divergence or a core-count mismatch.
pub fn replay_timed(
    trace: &Trace,
    cfg: SystemConfig,
    mode: ReplayMode,
) -> Result<RunStats, RunError> {
    let mut sys = replay_system(trace, cfg, mode)?;
    let stats = sys.run()?;
    validate(&sys, trace)?;
    Ok(stats)
}

/// Replays `trace` through the untimed oracle stack:
/// [`System::oracle_walk`]'s seeded random walk over the enabled channels
/// picks delivery orders no timed schedule would produce. Returns the
/// number of deliveries consumed.
///
/// `cfg.data_inv` is forced to static regions (the oracle-mode
/// requirement).
///
/// # Errors
///
/// As [`replay_timed`], plus [`RunError::Check`] when the walk exceeds
/// `budget` deliveries or quiesces without halting every core.
pub fn replay_oracle(
    trace: &Trace,
    mut cfg: SystemConfig,
    walk_seed: u64,
    budget: u64,
) -> Result<u64, RunError> {
    cfg.data_inv = DataInvalidation::StaticRegions;
    let mut sys = replay_system(trace, cfg, ReplayMode::Compressed)?;
    sys.start_oracle();
    let delivered = sys.oracle_walk(walk_seed, budget)?;
    validate(&sys, trace)?;
    Ok(delivered)
}
