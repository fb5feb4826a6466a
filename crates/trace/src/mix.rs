//! The seeded workload-mix generator: server-like churn stitched from
//! kernels and composite apps, recorded once per phase and composed into
//! one long trace.
//!
//! Everything is a pure function of the [`MixSpec`]: recording is
//! deterministic (seeded simulator), the menu walk is deterministic
//! (seeded [`DetRng`]), so two builds of the same spec yield byte-equal
//! traces — which is what lets `dvs-campaign` address mixes by token and
//! `dvs-serve` cache them content-addressed.

use crate::compose::compose;
use crate::composite::composite;
use crate::format::Trace;
use crate::record::record;
use dvs_core::{Protocol, RunError, SystemConfig};
use dvs_engine::DetRng;
use dvs_kernels::{
    build, BarrierKind, KernelId, KernelParams, LockKind, LockedStruct, NonBlocking,
};

/// A workload mix, addressable as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MixSpec {
    /// Seed for the menu walk and parameter jitter.
    pub seed: u64,
    /// Number of phases stitched together.
    pub phases: u8,
    /// Cores (must be a perfect square ≥ 4 for the mesh).
    pub threads: usize,
}

impl MixSpec {
    /// Display name, also used as the trace name (`mix_s7_p3x16`).
    pub fn name(&self) -> String {
        format!("mix_s{}_p{}x{}", self.seed, self.phases, self.threads)
    }
}

/// The phase menu: pattern-diverse, small enough to record quickly.
const MENU: usize = 6;

fn menu_phase(pick: usize, rng: &mut DetRng, threads: usize) -> (String, dvs_kernels::Workload) {
    let mut params = KernelParams::smoke(threads);
    params.iters = rng.range(2, 7);
    params.nonsynch = (20, 20 + rng.range(20, 60));
    let kernel = |k: KernelId, params: &KernelParams| (k.token(), build(k, params));
    match pick {
        0 => kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            &params,
        ),
        1 => kernel(KernelId::NonBlocking(NonBlocking::FaiCounter), &params),
        2 => kernel(KernelId::Barrier(BarrierKind::Central, false), &params),
        3 => kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Array),
            &params,
        ),
        4 => kernel(KernelId::Barrier(BarrierKind::Tree, false), &params),
        _ => {
            let items = rng.range(2, 5);
            let work = rng.range(16, 64);
            (
                format!("composite:{items}:{work}"),
                composite(threads, items, work),
            )
        }
    }
}

/// Builds the mix: records each phase on the canonical config
/// (DeNovoSync, static regions) and composes the recordings.
///
/// # Errors
///
/// [`RunError`] if a phase recording fails its run or checks, or
/// [`RunError::Check`] for an invalid spec.
pub fn build_mix(spec: MixSpec) -> Result<Trace, RunError> {
    let side = (spec.threads as f64).sqrt() as usize;
    if spec.threads < 4 || side * side != spec.threads {
        return Err(RunError::Check(format!(
            "mix threads must be a perfect square >= 4, got {}",
            spec.threads
        )));
    }
    if spec.phases == 0 {
        return Err(RunError::Check("mix needs at least one phase".into()));
    }
    let mut rng = DetRng::new(spec.seed);
    let cfg = SystemConfig::small(spec.threads, Protocol::DeNovoSync);
    let mut traces = Vec::new();
    for p in 0..spec.phases {
        let (pname, workload) = menu_phase(rng.below(MENU), &mut rng, spec.threads);
        let (trace, _) = record(&format!("p{p}.{pname}"), &workload, cfg)?;
        traces.push(trace);
    }
    let refs: Vec<&Trace> = traces.iter().collect();
    compose(&spec.name(), &refs).map_err(RunError::Check)
}
