//! End-to-end and per-layer performance benchmark for the DeNovoSync
//! simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels|apps> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run makes the workload's inputs from `--seed`, runs one unmeasured
//! reference pass, then repeats measured passes for `--seconds`, timing
//! a short burst of set-ups after each pass until the set-up budget is
//! spent. Before each pass the thread moves to the next allowed CPU (see
//! [`affinity`]). A pass runs every input of the
//! workload on all four backends (MESI, DS0, DS, GCS) through
//! construct → simulate → verify → metrics: a closed loop on one thread,
//! one job at a time, like a single-worker figure campaign. Every job must
//! pass its coherence and semantic checks, and every measured pass must
//! reproduce the reference pass's simulated statistics exactly (the
//! simulator is deterministic for a fixed seed).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones:
//!
//! * `pass_ms` — host time of one pass, summed over its jobs from each
//!   job's fastest repetition. Repetitions do identical deterministic
//!   work, so the slower ones measure interference from other tenants of a
//!   shared host (10–40% swings, and phases of seconds to minutes in
//!   which one CPU or both run up to 1.8× slower), not the simulator. A
//!   run reads slow only if such a phase covers all of it on every CPU, so
//!   runs are long;
//! * `ds_cycles_vs_mesi`, `ds_traffic_vs_mesi` — the simulated results:
//!   DeNovoSync's execution time and network traffic relative to MESI,
//!   geomean over the workload's inputs (the paper's headline numbers);
//! * `peak_rss_mb` — the process's peak resident memory;
//! * `setup_s` — time to make the workload's inputs: the median over the
//!   run's set-up bursts of each burst's fastest set-up.
//!
//! With `--trace 1` spans are recorded around each layer call and the
//! metrics are per-layer:
//!
//! * host self time per layer in a pass, by the same fastest-repetition
//!   rule: `construct_ms` (`System::new`/`new_replay`, preload),
//!   `simulate_ms` (`System::run`: VM or replay front end, scheduler, NoC
//!   and protocol controllers) and its split by backend
//!   (`simulate_{m,ds0,ds,gcs}_ms`), `verify_ms` (coherence invariants and
//!   the semantic check), `metrics_ms` (`System::metrics`), and
//!   `harness_ms` (the rest of a job, mostly dropping the finished system);
//! * `build_ms` — time spent building workloads in one set-up;
//! * `traced_pass_ms` — `pass_ms` with spans on; the difference from an
//!   untraced run's `pass_ms` is the tracing overhead;
//! * `sim_ns_per_event` — simulation host time per simulated event;
//! * the simulated work of a pass: `events`, `messages`, `flit_crossings`,
//!   `l1_hits`, `l1_misses`, `sim_cycles` and `spin_stalls` (replayed
//!   inputs add none: their cores replay recorded accesses instead of
//!   spinning).

mod affinity;
mod spans;
mod workloads;

use affinity::Rotation;
use dvs_stats::report::{peak_rss_bytes, JsonObject};
use spans::Spans;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_job, setup, Bench, JobStats, NAMES, SIMULATE_SPANS};

/// A burst of `SETUP_BURST` set-ups is timed after each measured pass until
/// `MAX_SETUPS` bursts or `SETUP_BUDGET_S` of set-up time, so `setup_s` is
/// a median of many samples, spread over much of the run, even for cheap
/// set-ups.
const MAX_SETUPS: usize = 201;
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_BURST: usize = 5;
/// Measured passes run for `--seconds`, but never fewer than this.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {NAMES:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs every job once, each in a span named `root`. Yields each job's
/// simulated statistics (`None` if it failed) and its host time in ns.
fn run_pass(bench: &Bench, root: &'static str, spans: &mut Spans) -> Vec<(Option<JobStats>, u64)> {
    bench
        .jobs
        .iter()
        .map(|job| {
            let t0 = Instant::now();
            let stats = spans.span(root, |spans| {
                run_job(job, &bench.inputs[job.input], spans)
                    .map_err(|e| eprintln!("job {} on {}: {e}", job.input, job.cfg.protocol))
                    .ok()
            });
            (stats, t0.elapsed().as_nanos() as u64)
        })
        .collect()
}

/// DeNovoSync's simulated cycles and network traffic relative to MESI:
/// geomeans over the workload's inputs of the per-input ratios.
fn ds_vs_mesi(bench: &Bench, reference: &[Option<JobStats>]) -> Option<(f64, f64)> {
    let mut cycles = Vec::new();
    let mut traffic = Vec::new();
    for input in 0..bench.inputs.len() {
        let stats_on = |protocol| {
            bench
                .jobs
                .iter()
                .zip(reference)
                .find(|(j, _)| j.input == input && j.cfg.protocol == protocol)
                .and_then(|(_, s)| *s)
        };
        let m = stats_on(dvs_core::Protocol::Mesi)?;
        let ds = stats_on(dvs_core::Protocol::DeNovoSync)?;
        cycles.push(ds.cycles as f64 / m.cycles as f64);
        traffic.push(ds.flit_crossings as f64 / m.flit_crossings as f64);
    }
    Some((geomean(&cycles), geomean(&traffic)))
}

/// Metrics as the result line reports them: `{"<name>": {"value", "unit"}}`.
struct Metrics(JsonObject);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &str) {
        let mut metric = JsonObject::new();
        metric.f64("value", value).str("unit", unit);
        self.0.object(name, metric);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sums, over the jobs of a pass, each job's fastest repetition of
/// `time`. `reps` holds one entry per measured job run, pass after pass, in
/// job order. Every repetition of a job does the same deterministic work,
/// so its slower repetitions measure interference from other tenants of the
/// host, not the simulator.
fn fastest<T>(reps: &[T], jobs: usize, time: impl Fn(&T) -> u64) -> u64 {
    (0..jobs)
        .map(|j| {
            reps.iter()
                .skip(j)
                .step_by(jobs)
                .map(&time)
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Per-layer metrics from the recorded spans: the self time of workload building
/// (median over set-ups), each layer's self time in a pass (per job, its
/// fastest repetition), and the simulated work of one pass.
fn layer_metrics(spans: &Spans, reference: &[Option<JobStats>], out: &mut Metrics) {
    let jobs = reference.len();
    let setups = spans.trees("setup");
    let runs = spans.trees("job");
    let self_ns = |by_name: &BTreeMap<&'static str, u64>, names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| by_name.get(n).copied().unwrap_or(0))
            .sum()
    };
    let layer = |names: &[&str]| ms(fastest(&runs, jobs, |(_, by_name)| self_ns(by_name, names)));
    let builds: Vec<f64> = setups
        .iter()
        .map(|(_, by_name)| ms(self_ns(by_name, &["build"])))
        .collect();
    let sum = |f: fn(&JobStats) -> u64| reference.iter().flatten().map(f).sum::<u64>();
    let events = sum(|s| s.events);
    let simulate_ns = fastest(&runs, jobs, |(_, by_name)| {
        self_ns(by_name, &SIMULATE_SPANS)
    });

    out.add("build_ms", median(&builds), "ms");
    out.add("construct_ms", layer(&["construct"]), "ms");
    out.add("simulate_ms", ms(simulate_ns), "ms");
    out.add("simulate_m_ms", layer(&SIMULATE_SPANS[..1]), "ms");
    out.add("simulate_ds0_ms", layer(&SIMULATE_SPANS[1..2]), "ms");
    out.add("simulate_ds_ms", layer(&SIMULATE_SPANS[2..3]), "ms");
    out.add("simulate_gcs_ms", layer(&SIMULATE_SPANS[3..]), "ms");
    out.add("verify_ms", layer(&["verify"]), "ms");
    out.add("metrics_ms", layer(&["metrics"]), "ms");
    out.add("harness_ms", layer(&["job"]), "ms");
    out.add(
        "traced_pass_ms",
        ms(fastest(&runs, jobs, |(total, _)| *total)),
        "ms",
    );
    out.add("sim_ns_per_event", simulate_ns as f64 / events as f64, "ns");
    out.add("events", events as f64, "count");
    out.add("messages", sum(|s| s.messages) as f64, "count");
    out.add("flit_crossings", sum(|s| s.flit_crossings) as f64, "count");
    out.add("l1_hits", sum(|s| s.l1_hits) as f64, "count");
    out.add("l1_misses", sum(|s| s.l1_misses) as f64, "count");
    out.add("sim_cycles", sum(|s| s.cycles) as f64, "count");
    out.add("spin_stalls", sum(|s| s.spin_stalls) as f64, "count");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: dvs-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);

    let bench = match setup(&args.workload, args.seed, &mut Spans::new(false)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The reference pass warms caches and the allocator and pins the
    // simulated statistics every measured pass must reproduce.
    let reference: Vec<Option<JobStats>> = run_pass(&bench, "reference", &mut spans)
        .into_iter()
        .map(|(stats, _)| stats)
        .collect();
    let mut attempted = reference.len();
    let mut failed = reference.iter().filter(|s| s.is_none()).count();

    // Set-up is timed again after each measured pass, on that pass's CPU,
    // until its budget is spent: a sub-millisecond set-up timed in one
    // long burst reads up to twice as slow in some processes, so short
    // bursts are spread over the run. Each burst yields its fastest set-up,
    // which skips momentary interference as `pass_ms` does.
    let mut setup_s = Vec::new();
    let mut setup_spent = 0.0;
    let mut job_ns = Vec::new();
    let mut pass_ms = Vec::new();
    let mut cpus = Rotation::new();
    let start = Instant::now();
    while pass_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        cpus.advance();
        let pass = run_pass(&bench, "job", &mut spans);
        pass_ms.push(ms(pass.iter().map(|(_, ns)| ns).sum()));
        if setup_s.len() < MAX_SETUPS && setup_spent < SETUP_BUDGET_S {
            let mut fastest = f64::INFINITY;
            for _ in 0..SETUP_BURST {
                let t0 = Instant::now();
                let again = spans.span("setup", |s| setup(&args.workload, args.seed, s));
                let t = t0.elapsed().as_secs_f64();
                setup_spent += t;
                fastest = fastest.min(t);
                failed += usize::from(again.is_err());
            }
            setup_s.push(fastest);
        }
        attempted += pass.len();
        for (job, ((got, ns), want)) in pass.into_iter().zip(&reference).enumerate() {
            if got.is_none() || got != *want {
                failed += 1;
                if got.is_some() {
                    eprintln!("job {job}: simulated statistics differ from the reference pass");
                }
            }
            job_ns.push(ns);
        }
    }

    let mut metrics = Metrics(JsonObject::new());
    let ratios = ds_vs_mesi(&bench, &reference);
    if args.trace {
        layer_metrics(&spans, &reference, &mut metrics);
    } else {
        let (cycles, traffic) = ratios.unwrap_or((0.0, 0.0));
        let rss_mb = peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6);
        metrics.add(
            "pass_ms",
            ms(fastest(&job_ns, reference.len(), |ns| *ns)),
            "ms",
        );
        metrics.add("ds_cycles_vs_mesi", cycles, "ratio");
        metrics.add("ds_traffic_vs_mesi", traffic, "ratio");
        metrics.add("peak_rss_mb", rss_mb, "MB");
        metrics.add("setup_s", median(&setup_s), "s");
    }
    eprintln!(
        "{}: seed {}, {} jobs/pass, {} set-up bursts of {SETUP_BURST} (median {:.5} s), {} measured passes (median {:.1} ms)",
        args.workload,
        args.seed,
        bench.jobs.len(),
        setup_s.len(),
        median(&setup_s),
        pass_ms.len(),
        median(&pass_ms)
    );
    let mut result = JsonObject::new();
    result
        .bool("correct", failed == 0 && ratios.is_some())
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .object("metrics", metrics.0);
    let line: String = result.render().lines().map(str::trim).collect();
    println!("{line}");
    ExitCode::SUCCESS
}
