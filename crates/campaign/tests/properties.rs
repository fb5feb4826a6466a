//! Property tests for the campaign's determinism machinery:
//! worker-count-independent digests.

use dvs_campaign::{Campaign, ExperimentSpec};
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};

/// The campaign digest must be byte-identical across worker counts even
/// when the grid contains failing runs (the fuzzer relies on this: a
/// divergent program is a *result*, not a scheduling accident).
#[test]
fn digest_is_stable_across_workers_with_failures() {
    let counter = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let specs: Vec<ExperimentSpec> = (0..6)
        .map(|i| {
            let proto = Protocol::ALL[i % 3];
            let mut spec = ExperimentSpec::kernel(counter, KernelParams::smoke(4), proto);
            if i % 2 == 1 {
                // Every other spec hits the cycle limit — a per-run failure.
                spec.overrides.max_cycles = Some(1_000);
            }
            spec
        })
        .collect();
    let digests: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| Campaign::from_specs(specs.clone()).run(w).results_digest())
        .collect();
    for d in &digests[1..] {
        assert_eq!(d, &digests[0]);
    }
}
