//! GCS comparison artifact: every kernel on all four protocols (MESI,
//! DeNovoSync0, DeNovoSync, GCS), comparing execution time, network traffic
//! by class, and the two wakeup mechanisms — MESI's writer-initiated
//! invalidations versus GCS's targeted sync notifications (plus the recalls
//! that move a word onto the classified path).
//!
//! Writes `BENCH_gcs.json` (machine-readable) and prints a summary table.
//! The whole matrix runs as one campaign twice, at one worker and at the
//! environment's worker count, and asserts the results digest is
//! byte-identical — the comparison is scheduling-independent — and equal to
//! the committed contract value, as are the per-protocol notify and recall
//! totals.

use dvs_campaign::{workers_from_env, Campaign, CampaignReport, ExperimentSpec};
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams};
use dvs_stats::report::{BenchArtifact, JsonObject, ParamTable};
use dvs_stats::TrafficClass;

const THREADS: usize = 4;

/// The committed results digest of the comparison grid — part of the
/// behavioural contract: a change that moves it changed simulated results.
const DIGEST: &str = "93aa24a924a743e6";

/// The committed `(sync_notifies, registration_recalls)` totals per
/// protocol, in `Protocol::EXTENDED` order. They come from the runs'
/// metrics trees, which the digest does not cover, so they are pinned here.
const WAKEUPS: [(u64, u64); 4] = [(0, 0), (0, 0), (0, 0), (697, 253)];

/// The comparison matrix: protocol-major, kernel-minor. Each record
/// carries its metrics tree, where the GCS banks count notifies and
/// recalls.
fn matrix_specs() -> Vec<ExperimentSpec> {
    let params = KernelParams::smoke(THREADS);
    let mut specs = Vec::new();
    for proto in Protocol::EXTENDED {
        for kernel in KernelId::all() {
            specs.push(ExperimentSpec::kernel(kernel, params, proto));
        }
    }
    specs
}

/// Aggregates the records back into one JSON object per protocol, plus
/// per-kernel cycle rows for side-by-side comparison.
fn protocol_json(report: &CampaignReport) -> (Vec<JsonObject>, Vec<JsonObject>) {
    let kernels = KernelId::all();
    let mut protocols = Vec::new();
    let mut per_kernel: Vec<JsonObject> = kernels
        .iter()
        .map(|k| {
            let mut o = JsonObject::new();
            o.str("kernel", &k.name());
            o
        })
        .collect();
    let mut chunks = report.records.chunks(kernels.len());
    for (proto, pinned) in Protocol::EXTENDED.into_iter().zip(WAKEUPS) {
        let records = chunks.next().expect("protocol records");
        let mut cycles = 0u64;
        let mut traffic = [0u64; TrafficClass::ALL.len()];
        let mut notifies = 0u64;
        let mut recalls = 0u64;
        for (row, r) in per_kernel.iter_mut().zip(records) {
            let stats = r.outcome.as_ref().expect("matrix run succeeded");
            cycles += stats.cycles;
            row.u64(&format!("cycles_{}", proto.label()), stats.cycles);
            for (slot, &class) in traffic.iter_mut().zip(TrafficClass::ALL.iter()) {
                *slot += stats.traffic.get(class);
            }
            let metrics = r.metrics.as_ref().expect("successful runs keep metrics");
            notifies += metrics.counter_total("notifies");
            recalls += metrics.counter_total("recalls");
        }
        assert_eq!(
            (notifies, recalls),
            pinned,
            "{proto}: (sync_notifies, registration_recalls) drifted from the committed contract"
        );
        let mut obj = JsonObject::new();
        obj.str("protocol", proto.label())
            .u64("runs", records.len() as u64)
            .u64("total_cycles", cycles)
            .u64("sync_notifies", notifies)
            .u64("registration_recalls", recalls);
        for (slot, &class) in traffic.iter().zip(TrafficClass::ALL.iter()) {
            obj.u64(&format!("traffic_{}", class.label()), *slot);
        }
        obj.u64("traffic_total", traffic.iter().sum());
        protocols.push(obj);
    }
    (protocols, per_kernel)
}

fn main() {
    let specs = matrix_specs();
    let report = Campaign::from_specs(specs.clone()).run(workers_from_env());
    report.expect_all_ok("gcs comparison matrix");
    // The artifact must not depend on how the campaign was scheduled.
    let single = Campaign::from_specs(specs).run(1);
    assert_eq!(
        report.results_digest(),
        single.results_digest(),
        "gcs comparison digest must be worker-count independent"
    );
    assert_eq!(
        report.results_digest(),
        DIGEST,
        "gcs comparison digest drifted from the committed contract"
    );

    let (protocols, per_kernel) = protocol_json(&report);

    let mut summary = ParamTable::new("GCS vs MESI/DS0/DS");
    summary
        .row("kernels", KernelId::all().len())
        .row("protocols", Protocol::EXTENDED.len())
        .row("threads", THREADS)
        .row("results digest", report.results_digest())
        .row("campaign wall", format!("{:.1}s", report.wall_seconds()));
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("gcs_compare", "");
    artifact
        .body()
        .u64("threads", THREADS as u64)
        .str("results_digest", &report.results_digest())
        .array("protocols", protocols)
        .array("per_kernel_cycles", per_kernel);
    artifact.write(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gcs.json"));
}
