//! Property test: `ExperimentSpec::token()` / `from_token()` are inverses
//! over the full spec space — every workload variant (kernels, apps,
//! traces), every protocol, and randomized override combinations — and
//! `from_token()` rejects, by name, fields a spec cannot mean: unknown,
//! repeated, or out of range.

use dvs_campaign::{ConfigOverrides, ExperimentSpec, WorkloadSpec};
use dvs_core::config::{DataInvalidation, MeshShape, Protocol, ProtocolMutation};
use dvs_engine::DetRng;
use dvs_kernels::{KernelId, KernelParams};
use dvs_trace::MixSpec;

fn random_kernel(rng: &mut DetRng) -> WorkloadSpec {
    let all = KernelId::all();
    let kernel = all[rng.below(all.len())];
    let lo = rng.range(0, 100);
    let params = KernelParams {
        threads: [1, 4, 16, 64][rng.below(4)],
        iters: rng.range(1, 1000),
        nonsynch: (lo, lo + rng.range(1, 100)),
        sw_backoff: rng.chance(1, 2),
        padded_locks: rng.chance(1, 2),
        reduced_checks: rng.chance(1, 2),
    };
    WorkloadSpec::Kernel { kernel, params }
}

fn random_app(rng: &mut DetRng) -> WorkloadSpec {
    let apps = dvs_apps::all_apps();
    let app = &apps[rng.below(apps.len())];
    WorkloadSpec::App {
        name: app.name,
        threads: [4, 16, 64][rng.below(3)],
    }
}

fn random_trace(rng: &mut DetRng) -> WorkloadSpec {
    WorkloadSpec::Trace {
        mix: MixSpec {
            seed: rng.next_u64(),
            phases: rng.range(1, 9) as u8,
            threads: [4, 16, 64][rng.below(3)],
        },
    }
}

fn random_overrides(rng: &mut DetRng) -> ConfigOverrides {
    ConfigOverrides {
        data_inv: match rng.below(3) {
            0 => None,
            1 => Some(DataInvalidation::StaticRegions),
            _ => Some(DataInvalidation::Signatures),
        },
        backoff_bits: rng.chance(1, 2).then(|| rng.range(1, 64) as u32),
        backoff_increment: rng.chance(1, 2).then(|| rng.range(1, 4096)),
        check_invariants: rng.chance(1, 2),
        fault_seed: rng.chance(1, 2).then(|| rng.next_u64()),
        mutation: match rng.below(7) {
            0 => Some(ProtocolMutation::DnvSkipRepoint),
            1 => Some(ProtocolMutation::DnvDropXfer),
            2 => Some(ProtocolMutation::MesiSkipInvalidate),
            3 => Some(ProtocolMutation::MesiDropAck),
            4 => Some(ProtocolMutation::GcsDropNotify),
            5 => Some(ProtocolMutation::GcsSkipUpdate),
            _ => None,
        },
        max_cycles: rng.chance(1, 2).then(|| rng.range(1, 1 << 40)),
        mesh: rng.chance(1, 3).then(|| MeshShape {
            rows: rng.range(1, 16) as u32,
            cols: rng.range(1, 16) as u32,
        }),
    }
}

fn random_spec(rng: &mut DetRng) -> ExperimentSpec {
    let workload = match rng.below(3) {
        0 => random_kernel(rng),
        1 => random_app(rng),
        _ => random_trace(rng),
    };
    ExperimentSpec {
        workload,
        protocol: Protocol::EXTENDED[rng.below(Protocol::EXTENDED.len())],
        overrides: random_overrides(rng),
    }
}

#[test]
fn tokens_round_trip_over_randomized_specs() {
    let mut rng = DetRng::new(0x70CE_57EC);
    let mut saw = [false; 3];
    for i in 0..2000 {
        let spec = random_spec(&mut rng);
        saw[match spec.workload {
            WorkloadSpec::Kernel { .. } => 0,
            WorkloadSpec::App { .. } => 1,
            WorkloadSpec::Trace { .. } => 2,
        }] = true;
        let token = spec.token();
        let parsed = ExperimentSpec::from_token(&token)
            .unwrap_or_else(|e| panic!("case {i}: token {token:?} failed to parse: {e}"));
        assert_eq!(
            parsed, spec,
            "case {i}: token {token:?} round-tripped wrong"
        );
        // The token is the caching identity: re-rendering must be stable.
        assert_eq!(parsed.token(), token, "case {i}");
    }
    assert!(
        saw.iter().all(|&s| s),
        "generator must cover kernels, apps, and traces"
    );
}

#[test]
fn equal_tokens_imply_equal_specs() {
    let mut rng = DetRng::new(0xD157_1AC7);
    let mut seen = std::collections::HashMap::new();
    for _ in 0..500 {
        let spec = random_spec(&mut rng);
        if let Some(prev) = seen.insert(spec.token(), spec) {
            assert_eq!(prev, spec, "token collision between distinct specs");
        }
    }
}

#[test]
fn trace_specs_run_through_the_campaign_runner() {
    use dvs_campaign::Campaign;
    let specs: Vec<ExperimentSpec> = Protocol::ALL
        .into_iter()
        .map(|protocol| ExperimentSpec {
            workload: WorkloadSpec::Trace {
                mix: MixSpec {
                    seed: 3,
                    phases: 2,
                    threads: 4,
                },
            },
            protocol,
            overrides: ConfigOverrides::default(),
        })
        .collect();
    let a = Campaign::from_specs(specs.clone()).run(1);
    assert_eq!(a.ok_count(), 3, "all trace cells must replay cleanly");
    // Same digest at a different worker count: replay is deterministic.
    let b = Campaign::from_specs(specs).run(3);
    assert_eq!(a.results_digest(), b.results_digest());
}

#[test]
fn trace_tokens_look_right_and_keep_seed_fields_apart() {
    let mut spec = ExperimentSpec {
        workload: WorkloadSpec::Trace {
            mix: MixSpec {
                seed: 7,
                phases: 3,
                threads: 16,
            },
        },
        protocol: Protocol::DeNovoSync,
        overrides: ConfigOverrides::default(),
    };
    assert_eq!(spec.token(), "trace=mix:7:3;threads=16;proto=DS");
    // A fault-seed override must not be confused with the mix seed.
    spec.overrides.fault_seed = Some(99);
    assert_eq!(spec.token(), "trace=mix:7:3;threads=16;proto=DS;seed=99");
    assert_eq!(ExperimentSpec::from_token(&spec.token()), Ok(spec));
}

/// A valid kernel token; the rejection tests append one field to it.
const BASE: &str = "kernel=tatas:counter;threads=4;iters=6;ns=40-80;swb=1;pad=1;rc=0;proto=DS";

fn rejection(suffix: &str) -> String {
    let token = format!("{BASE}{suffix}");
    ExperimentSpec::from_token(&token).expect_err(&token)
}

#[test]
fn unknown_fields_are_rejected_by_name() {
    assert!(ExperimentSpec::from_token(BASE).is_ok());
    let err = rejection(";zzz=1");
    assert!(err.contains("zzz"), "{err}");
    // A key only another workload kind reads is unknown here too.
    let err = ExperimentSpec::from_token("app=FFT;threads=4;iters=6;proto=M").expect_err("iters");
    assert!(err.contains("iters"), "{err}");
}

#[test]
fn repeated_fields_are_rejected_by_name() {
    let err = rejection(";proto=M");
    assert!(err.contains("proto"), "{err}");
}

#[test]
fn backoff_bits_beyond_u32_are_rejected_not_truncated() {
    let err = rejection(";bb=4294967297");
    assert!(err.contains("bb"), "{err}");
}

#[test]
fn backoff_bits_must_fit_the_counter() {
    for bad in [";bb=0", ";bb=64"] {
        let err = rejection(bad);
        assert!(err.contains("bb"), "{bad}: {err}");
    }
    let spec = ExperimentSpec::from_token(&format!("{BASE};bb=63")).expect("bb=63");
    assert_eq!(spec.config().backoff.counter_max(), u64::MAX >> 1);
}
