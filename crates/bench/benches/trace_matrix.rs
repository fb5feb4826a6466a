//! Record-once/replay-many artifact.
//!
//! Prices the trace subsystem end to end: record a compute-dense composite
//! app once, then (a) replay it compressed and compare host wall-clock
//! against VM-driven execution — the replay front-end skips instruction
//! decode, so it must be substantially faster; (b) replay it faithfully on
//! all three protocols and report the simulated cycles (the cross-protocol
//! comparison recording exists for); (c) replay a seeded workload mix
//! through the campaign runner at two worker counts and demand identical
//! digests. Writes `BENCH_trace.json`.
//!
//! `DVS_QUICK=1` shrinks the workload and relaxes the speedup gate from
//! 5x to 2x (debug/loaded-host runs pay fixed overheads the full-size
//! workload amortizes).

use dvs_campaign::{quick_mode, Campaign, ConfigOverrides, ExperimentSpec, WorkloadSpec};
use dvs_core::{Protocol, SystemConfig};
use dvs_kernels::Workload;
use dvs_stats::report::{host_parallelism, BenchArtifact, ParamTable};
use dvs_stats::RunStats;
use dvs_trace::{composite, record, replay_timed, MixSpec, ReplayMode, Trace};
use std::time::Instant;

/// Medians host wall-clock over `reps` runs of `f` (odd `reps`).
fn median_nanos<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let _ = f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn run_vm(workload: &Workload, cfg: SystemConfig) -> RunStats {
    dvs_campaign::run_workload(cfg, workload).expect("VM run")
}

fn main() {
    let quick = quick_mode();
    let threads = 16;
    let (items, work, reps) = if quick { (4, 200, 3) } else { (8, 600, 5) };
    let gate = if quick { 2.0 } else { 5.0 };
    println!(
        "trace bench: composite {items}x{work} @{threads}{}",
        if quick { " (quick)" } else { "" }
    );

    // Record once, on the paper's protocol.
    let workload = composite(threads, items, work);
    let cfg = SystemConfig::small(threads, Protocol::DeNovoSync);
    let record_start = Instant::now();
    let (trace, recorded_stats) = record("composite", &workload, cfg).expect("record");
    let record_nanos = record_start.elapsed().as_nanos() as u64;

    // Baseline: the plain (recorder-free) VM run of the same workload.
    let vm_nanos = median_nanos(reps, || run_vm(&workload, cfg));
    let record_overhead = record_nanos as f64 / vm_nanos as f64;

    // Replay-vs-VM throughput: compressed replay of the same trace.
    let replay_nanos = median_nanos(reps, || {
        replay_timed(&trace, cfg, ReplayMode::Compressed).expect("compressed replay")
    });
    let speedup = vm_nanos as f64 / replay_nanos as f64;
    println!(
        "  VM {:.2} ms, replay {:.2} ms -> {speedup:.1}x (gate {gate}x)",
        vm_nanos as f64 / 1e6,
        replay_nanos as f64 / 1e6
    );
    assert!(
        speedup >= gate,
        "replay speedup {speedup:.2}x below the {gate}x gate"
    );

    // Faithful per-protocol cycles: the comparison recording exists for.
    let fingerprint = trace.fingerprint();
    let per_proto: Vec<(Protocol, RunStats)> = Protocol::ALL
        .into_iter()
        .map(|p| {
            let stats = replay_timed(
                &trace,
                SystemConfig::small(threads, p),
                ReplayMode::Faithful,
            )
            .unwrap_or_else(|e| panic!("faithful replay on {p}: {e}"));
            (p, stats)
        })
        .collect();

    // Mix determinism through the campaign runner at two worker counts.
    let mix_specs: Vec<ExperimentSpec> = Protocol::ALL
        .into_iter()
        .map(|protocol| ExperimentSpec {
            workload: WorkloadSpec::Trace {
                mix: MixSpec {
                    seed: 7,
                    phases: if quick { 2 } else { 3 },
                    threads: 4,
                },
            },
            protocol,
            overrides: ConfigOverrides::default(),
        })
        .collect();
    let serial = Campaign::from_specs(mix_specs.clone()).run(1);
    assert_eq!(serial.ok_count(), mix_specs.len(), "mix cells must replay");
    let parallel = Campaign::from_specs(mix_specs).run(4);
    let digest = serial.results_digest();
    assert_eq!(
        digest,
        parallel.results_digest(),
        "digests must be identical across worker counts"
    );

    let mut summary = ParamTable::new("Record/replay");
    summary
        .row("trace ops", trace.total_ops())
        .row("trace op bytes", trace.op_bytes())
        .row("fingerprint", format!("{fingerprint:016x}"))
        .row("record overhead", format!("{record_overhead:.2}x VM run"))
        .row("replay speedup", format!("{speedup:.1}x (gate {gate}x)"))
        .row("mix digest", digest.clone())
        .row("host CPUs", host_parallelism());
    for (p, stats) in &per_proto {
        summary.row(
            &format!("{p} faithful cycles"),
            format!("{} (recorded {})", stats.cycles, recorded_stats.cycles),
        );
    }
    print!("{}", summary.render());

    let mut artifact = BenchArtifact::new("trace", "");
    artifact
        .body()
        .bool("quick", quick)
        .u64("threads", threads as u64)
        .u64("trace_ops", trace.total_ops() as u64)
        .u64("trace_op_bytes", trace.op_bytes() as u64)
        .str("fingerprint", &format!("{fingerprint:016x}"))
        .u64("record_wall_nanos", record_nanos)
        .u64("vm_wall_nanos", vm_nanos)
        .u64("replay_wall_nanos", replay_nanos)
        .f64("record_overhead", record_overhead)
        .f64("replay_speedup", speedup)
        .f64("speedup_gate", gate)
        .str("mix_digest", &digest)
        .bool("mix_digest_worker_independent", true);
    for (p, stats) in &per_proto {
        artifact
            .body()
            .u64(&format!("cycles_{}", p.label()), stats.cycles);
    }
    artifact.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace.json"
    ));

    // Keep the compiler from discarding the parsed trace round trip: the
    // artifact's fingerprint must survive render/parse.
    let reparsed = Trace::parse(&trace.render()).expect("round trip");
    assert_eq!(reparsed.fingerprint(), fingerprint);
}
