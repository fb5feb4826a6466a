//! Recording: run a VM workload once with the in-system recorder attached
//! and seal the result as a [`Trace`].

use crate::format::Trace;
use dvs_core::{RunError, System, SystemConfig};
use dvs_kernels::Workload;
use dvs_stats::RunStats;
use std::sync::Arc;

/// Records `workload` under `cfg` and seals the trace. The recorded run's
/// own stats ride along so callers can price the recording overhead.
///
/// The workload's check runs against the recording system before sealing,
/// so a broken run can never become a corpus trace.
///
/// # Errors
///
/// [`RunError::Sim`] if the run fails, [`RunError::Check`] if the
/// workload's invariants or coherence checks reject it.
pub fn record(
    name: &str,
    workload: &Workload,
    cfg: SystemConfig,
) -> Result<(Trace, RunStats), RunError> {
    let mut sys = System::new(cfg, Arc::clone(&workload.layout), workload.programs.clone());
    for &(addr, value) in &workload.init {
        sys.preload(addr, value);
    }
    for (i, &(base, bytes)) in workload.pools.iter().enumerate() {
        sys.set_thread_pool(i, base, bytes);
    }
    sys.start_recording();
    let stats = sys.run()?;
    sys.verify_coherence().map_err(RunError::Check)?;
    let read = |a| sys.read_word(a);
    (workload.check)(&read).map_err(RunError::Check)?;
    let rec = sys
        .take_recording(&workload.init)
        .expect("recording was started");
    let trace = Trace {
        name: name.to_owned(),
        recorded_on: cfg.protocol.label().to_owned(),
        layout: Arc::clone(&workload.layout),
        init: workload.init.clone(),
        finals: rec.finals,
        ops: rec.ops,
    };
    Ok((trace, stats))
}
