//! Property tests for the campaign's determinism machinery: the shared
//! FNV-1a digest helpers and worker-count-independent digests.

use dvs_campaign::{fnv1a, fnv1a_str, Campaign, ExperimentSpec, FNV_OFFSET};
use dvs_core::config::Protocol;
use dvs_engine::DetRng;
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};

/// Known-answer vectors for 64-bit FNV-1a (from the reference
/// specification): the empty string hashes to the offset basis, and "a" /
/// "foobar" to their published values.
#[test]
fn fnv1a_known_answers() {
    assert_eq!(fnv1a_str(FNV_OFFSET, ""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_str(FNV_OFFSET, "a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_str(FNV_OFFSET, "foobar"), 0x85944171f73967e8);
}

/// Folding a string byte-by-byte and via `fnv1a_str` must agree, and the
/// hash must compose: `H(xy) = fold(H(x), y)`.
#[test]
fn fnv1a_composes() {
    let mut rng = DetRng::new(0xF02B);
    for _ in 0..200 {
        let len = rng.below(24);
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let split = rng.below(len + 1);
        let whole = bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a(h, b));
        let prefix = bytes[..split].iter().fold(FNV_OFFSET, |h, &b| fnv1a(h, b));
        let resumed = bytes[split..].iter().fold(prefix, |h, &b| fnv1a(h, b));
        assert_eq!(whole, resumed);
    }
}

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
