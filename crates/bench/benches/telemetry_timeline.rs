//! Telemetry timeline artifact: one annotated tatas-lock run on each of the
//! four backends (M, DS0, DS, GCS).
//!
//! For each protocol this bench runs the tatas counter kernel twice — once
//! with telemetry off, once with a recorder sink — and asserts the two runs
//! produce identical statistics (the zero-perturbation guarantee). The
//! recorded event stream is exported as a Chrome trace-event / Perfetto
//! timeline (`TRACE_telemetry_<label>.json`, loadable at ui.perfetto.dev),
//! structurally validated, and summarized — together with each run's
//! hierarchical metrics tree — in `BENCH_telemetry.json`.

use dvs_campaign::run_workload_with;
use dvs_core::config::{Protocol, SystemConfig};
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};
use dvs_stats::report::{BenchArtifact, JsonObject, ParamTable};
use dvs_telemetry::{perfetto, Telemetry};

const THREADS: usize = 4;

fn trace_path(label: &str) -> String {
    format!(
        "{}/../../TRACE_telemetry_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        label.to_ascii_lowercase()
    )
}

fn main() {
    let kernel = KernelId::Locked(LockedStruct::Counter, LockKind::Tatas);
    let params = KernelParams::smoke(THREADS);
    let workload = dvs_kernels::build(kernel, &params);

    let mut summary = ParamTable::new("Telemetry timeline (tatas counter)");
    summary
        .row("kernel", kernel.token())
        .row("threads", THREADS);
    let mut rows = Vec::new();
    let mut metrics_tree = JsonObject::new();

    for proto in Protocol::EXTENDED {
        let cfg = SystemConfig::small(THREADS, proto);

        // Baseline: telemetry off (each emit site is one untaken branch, and
        // controllers' observation actions are skipped unread).
        let (base_stats, base_metrics) = run_workload_with(cfg, &workload, Telemetry::off())
            .unwrap_or_else(|e| panic!("{proto} baseline run: {e}"));

        // Instrumented: record every event, then export the timeline.
        let tel = Telemetry::recorder();
        let (stats, metrics) = run_workload_with(cfg, &workload, tel.clone())
            .unwrap_or_else(|e| panic!("{proto} recorded run: {e}"));
        assert_eq!(
            stats, base_stats,
            "{proto}: telemetry must not perturb simulated results"
        );
        assert_eq!(
            metrics.to_json().render(),
            base_metrics.to_json().render(),
            "{proto}: metrics tree must not depend on the event sink"
        );

        let events = tel.take_events().expect("recorder sink drains");
        assert!(!events.is_empty(), "{proto}: instrumented run emits events");
        let title = format!("tatas counter @{THREADS} — {proto}");
        let json = perfetto::export(&title, &events);
        let exported = perfetto::validate(&json)
            .unwrap_or_else(|e| panic!("{proto}: exported trace is malformed: {e}"));
        assert!(exported > 0, "{proto}: trace exports at least one event");

        let path = trace_path(proto.label());
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");

        summary.row(
            proto.label(),
            format!(
                "{} cycles, {} events recorded, {exported} trace events",
                stats.cycles,
                events.len()
            ),
        );
        let mut row = JsonObject::new();
        row.str("protocol", proto.label())
            .u64("cycles", stats.cycles)
            .u64("events_recorded", events.len() as u64)
            .u64("trace_events", exported)
            .bool("stats_match_baseline", true);
        rows.push(row);
        metrics_tree.object(proto.label(), metrics.to_json());
    }
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("telemetry_timeline", "");
    artifact
        .body()
        .str("kernel", &kernel.token())
        .u64("threads", THREADS as u64)
        .array("protocols", rows);
    artifact.telemetry(metrics_tree);
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_telemetry.json"
    ));
}
