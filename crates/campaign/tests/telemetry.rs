//! Telemetry determinism guarantees (the observability subsystem's
//! acceptance tests).
//!
//! * The recorded event stream of a run is a pure function of the spec:
//!   re-running the same workload reproduces the stream event-for-event, on
//!   every protocol.
//! * Attaching a recorder never perturbs simulated results: statistics and
//!   the metrics tree are identical with telemetry off and on.
//! * A campaign's results digest is byte-identical at every worker count,
//!   and every successful run keeps its metrics tree.
//! * The Perfetto export of a real run's stream validates structurally.

use dvs_campaign::{run_workload_with, Campaign, ExperimentSpec};
use dvs_core::config::{Protocol, SystemConfig};
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct, Workload};
use dvs_telemetry::{perfetto, Event, Telemetry};

const THREADS: usize = 4;

fn counter_workload() -> Workload {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    dvs_kernels::build(kernel, &KernelParams::smoke(THREADS))
}

fn record(proto: Protocol, workload: &Workload) -> Vec<Event> {
    let tel = Telemetry::recorder();
    run_workload_with(SystemConfig::small(THREADS, proto), workload, tel.clone())
        .expect("recorded run succeeds");
    tel.take_events().expect("recorder drains")
}

#[test]
fn event_stream_is_deterministic_on_every_protocol() {
    let workload = counter_workload();
    for proto in Protocol::EXTENDED {
        let first = record(proto, &workload);
        let second = record(proto, &workload);
        assert!(!first.is_empty(), "{proto}: run emits events");
        assert_eq!(
            first.len(),
            second.len(),
            "{proto}: event counts must match across runs"
        );
        assert_eq!(first, second, "{proto}: event streams must be identical");
    }
}

#[test]
fn attaching_a_sink_never_perturbs_results() {
    let workload = counter_workload();
    for proto in Protocol::EXTENDED {
        let cfg = SystemConfig::small(THREADS, proto);
        let (off_stats, off_metrics) =
            run_workload_with(cfg, &workload, Telemetry::off()).expect("off run");
        let (rec_stats, rec_metrics) =
            run_workload_with(cfg, &workload, Telemetry::recorder()).expect("recorded run");
        assert_eq!(off_stats, rec_stats, "{proto}: stats must be sink-blind");
        assert_eq!(
            off_metrics.to_json().render(),
            rec_metrics.to_json().render(),
            "{proto}: metrics tree must be sink-blind"
        );
    }
}

#[test]
fn perfetto_export_of_a_real_run_validates() {
    let workload = counter_workload();
    let events = record(Protocol::DeNovoSync, &workload);
    let json = perfetto::export("tatas counter — DS", &events);
    let exported = perfetto::validate(&json).expect("exported trace is well-formed");
    assert!(exported > 0, "trace contains events");
}

#[test]
fn campaign_digest_is_worker_invariant_and_runs_keep_metrics() {
    let counter = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let specs: Vec<ExperimentSpec> = Protocol::ALL
        .iter()
        .map(|&p| ExperimentSpec::kernel(counter, KernelParams::smoke(THREADS), p))
        .collect();

    let mut digests = Vec::new();
    for workers in [1usize, 2, 4] {
        let report = Campaign::from_specs(specs.clone()).run(workers);
        report.expect_all_ok("worker grid");
        for record in &report.records {
            assert!(
                record.metrics.is_some(),
                "{}: a successful run keeps its metrics tree",
                record.spec.label()
            );
        }
        digests.push((workers, report.results_digest()));
    }
    let reference = &digests[0].1;
    for (workers, digest) in &digests {
        assert_eq!(
            digest, reference,
            "digest must not depend on workers ({workers})"
        );
    }
}
