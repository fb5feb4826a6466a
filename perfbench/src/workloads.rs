//! The benchmark's workloads: what each one simulates, how its inputs are
//! made from the seed (set-up), and how one simulation job runs through
//! the simulator's layers (construct → simulate → verify → metrics).
//!
//! Every workload runs its inputs on all four coherence backends, so each
//! pass yields the paper's headline comparison (DeNovoSync vs MESI) beside
//! the host time it took to compute it. A workload is made of parts, each
//! stressing different layers:
//!
//! * `kernels` — the synchronization kernels, in three parts:
//!   - the 12 lock-based and 6 lock-free kernels at 16 cores: contended
//!     synchronization, registry transfers, hardware backoff and MESI
//!     invalidation storms (the protocol controllers);
//!   - the 6 barrier kernels on the 64-core 8×8 mesh: long routes and many
//!     spinning waiters (the NoC, and construction of 64 L1s and banks per
//!     system);
//!   - six kernels recorded once per set-up and replayed on every backend:
//!     the same protocol stack with the VM front end bypassed, and the only
//!     part whose set-up simulates (recording);
//! * `apps` — 11 application models at 16 cores: data traffic, region
//!   self-invalidation and writebacks (the L1 data path).
//!
//! Kernel iteration counts are cut from the paper's 100 so a pass takes
//! 0.2–0.5 s, and each seed varies only the randomized compute intervals,
//! so the simulated results move by about 1% between seeds.

use crate::spans::Spans;
use dvs_apps::{all_apps, build_app, AppClass};
use dvs_core::{Protocol, System, SystemConfig};
use dvs_kernels::{
    build, BarrierKind, KernelId, KernelParams, LockKind, LockedStruct, NonBlocking, Workload,
};
use dvs_trace::{record, Trace};

/// Workload names, as `--workload` accepts them.
pub const NAMES: [&str; 2] = ["kernels", "apps"];

/// One prepared input: a VM workload, or a recorded trace whose replay
/// bypasses the VM front end.
pub enum Input {
    Vm(Workload),
    Replay(Trace),
}

/// One simulation: an input on one backend.
pub struct Job {
    pub input: usize,
    pub cfg: SystemConfig,
}

/// The inputs of one pass and the jobs that run them.
pub struct Bench {
    pub inputs: Vec<Input>,
    pub jobs: Vec<Job>,
}

/// What one job's simulation produced (simulated quantities only, so two
/// passes over the same inputs must agree exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStats {
    pub cycles: u64,
    pub events: u64,
    pub messages: u64,
    pub flit_crossings: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    /// Completed spin-waits on synchronization words, over all cores.
    pub spin_stalls: u64,
}

/// The system seed for a benchmark seed: spreads small seeds over the
/// generator's space. It drives every thread's randomized compute
/// intervals, so each seed is a different run of the same experiment.
fn system_seed(seed: u64) -> u64 {
    seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDE40
}

/// Builds `kernels` with the paper's parameters for `cores`, except for
/// `iters` iterations per thread (the paper's 100 would make one pass take
/// seconds).
fn kernel_workloads(
    kernels: &[KernelId],
    cores: usize,
    iters: u64,
    spans: &mut Spans,
) -> Vec<Workload> {
    kernels
        .iter()
        .map(|&k| {
            let mut params = KernelParams::paper(k, cores);
            params.iters = iters;
            spans.span("build", |_| build(k, &params))
        })
        .collect()
}

/// The twelve lock-based kernels (TATAS and array locks) and the six
/// lock-free ones.
fn sync_kernels() -> Vec<KernelId> {
    let locked = [LockKind::Tatas, LockKind::Array]
        .into_iter()
        .flat_map(|kind| LockedStruct::ALL.map(|s| KernelId::Locked(s, kind)));
    locked
        .chain(NonBlocking::ALL.map(KernelId::NonBlocking))
        .collect()
}

/// The six barrier kernels: three shapes, balanced and unbalanced.
fn barrier_kernels() -> Vec<KernelId> {
    [BarrierKind::Tree, BarrierKind::Nary, BarrierKind::Central]
        .into_iter()
        .flat_map(|kind| [false, true].map(|unbalanced| KernelId::Barrier(kind, unbalanced)))
        .collect()
}

/// Kernels recorded once and replayed on every backend: one of each
/// synchronization pattern (TATAS lock, array lock, lock-free stack and
/// queue, centralized and tree barriers).
fn replay_kernels() -> Vec<KernelId> {
    vec![
        KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
        KernelId::Locked(LockedStruct::Heap, LockKind::Array),
        KernelId::NonBlocking(NonBlocking::TreiberStack),
        KernelId::NonBlocking(NonBlocking::MsQueue),
        KernelId::Barrier(BarrierKind::Central, false),
        KernelId::Barrier(BarrierKind::Tree, true),
    ]
}

/// Every job here finishes in well under a million simulated cycles; a
/// run that reaches this limit is livelocked and fails in a fraction of a
/// second instead of spinning to the paper configuration's two billion.
const MAX_CYCLES: u64 = 100_000_000;

fn config(cores: usize, protocol: Protocol, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper(cores, protocol);
    cfg.seed = system_seed(seed);
    cfg.max_cycles = MAX_CYCLES;
    cfg
}

fn vm_inputs(workloads: Vec<Workload>) -> Vec<Input> {
    workloads.into_iter().map(Input::Vm).collect()
}

/// The replay part: each of [`replay_kernels`] recorded on DeNovoSync at 16
/// cores, in a `record` span.
fn replay_inputs(seed: u64, spans: &mut Spans) -> Result<Vec<Input>, String> {
    let kernels = replay_kernels();
    let workloads = kernel_workloads(&kernels, 16, 12, spans);
    let cfg = config(16, Protocol::DeNovoSync, seed);
    kernels
        .iter()
        .zip(&workloads)
        .map(|(k, w)| {
            let (trace, _) = spans
                .span("record", |_| record(&k.token(), w, cfg))
                .map_err(|e| format!("recording {}: {e}", k.token()))?;
            Ok(Input::Replay(trace))
        })
        .collect()
}

/// The application models at 16 cores. The two pipeline models (ferret,
/// x264) are left out: under DS0 their single-lock handoff livelocks for
/// some seeds.
fn app_inputs(spans: &mut Spans) -> Vec<Input> {
    all_apps()
        .iter()
        .filter(|app| !matches!(app.class, AppClass::Pipeline { .. }))
        .map(|app| Input::Vm(spans.span("build", |_| build_app(app, 16))))
        .collect()
}

/// Builds the inputs of workload `name` for `seed`, recording `build` spans
/// around workload building and `record` spans around trace recording.
///
/// # Errors
///
/// An unknown workload name, or a recording that fails its checks.
pub fn setup(name: &str, seed: u64, spans: &mut Spans) -> Result<Bench, String> {
    // Each part: the core count its inputs run at, and the inputs.
    let parts: Vec<(usize, Vec<Input>)> = match name {
        "kernels" => vec![
            (
                16,
                vm_inputs(kernel_workloads(&sync_kernels(), 16, 8, spans)),
            ),
            (
                64,
                vm_inputs(kernel_workloads(&barrier_kernels(), 64, 12, spans)),
            ),
            (16, replay_inputs(seed, spans)?),
        ],
        "apps" => vec![(16, app_inputs(spans))],
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    };
    let mut bench = Bench {
        inputs: Vec::new(),
        jobs: Vec::new(),
    };
    for (cores, inputs) in parts {
        for input in inputs {
            let i = bench.inputs.len();
            bench.jobs.extend(Protocol::EXTENDED.map(|p| Job {
                input: i,
                cfg: config(cores, p, seed),
            }));
            bench.inputs.push(input);
        }
    }
    Ok(bench)
}

/// Span names of a simulation on each backend, in `Protocol::EXTENDED`
/// order, so the traced run splits simulation time by backend.
pub const SIMULATE_SPANS: [&str; 4] = ["simulate.M", "simulate.DS0", "simulate.DS", "simulate.GCS"];

fn simulate_span(protocol: Protocol) -> &'static str {
    let i = Protocol::EXTENDED
        .iter()
        .position(|&p| p == protocol)
        .expect("EXTENDED lists every backend");
    SIMULATE_SPANS[i]
}

fn construct(cfg: SystemConfig, input: &Input) -> System {
    match input {
        Input::Vm(w) => {
            let mut sys = System::new(cfg, w.layout.clone(), w.programs.clone());
            for &(addr, value) in &w.init {
                sys.preload(addr, value);
            }
            for (i, &(base, bytes)) in w.pools.iter().enumerate() {
                sys.set_thread_pool(i, base, bytes);
            }
            sys
        }
        Input::Replay(t) => {
            let mut sys = System::new_replay(cfg, t.layout.clone(), t.ops.clone());
            for &(addr, value) in &t.init {
                sys.preload(addr, value);
            }
            sys
        }
    }
}

/// The run's correctness checks: the coherence invariants of the final
/// state, then the workload's semantic post-condition (VM inputs) or the
/// recording's pinned final image (replayed inputs).
fn verify(sys: &System, input: &Input) -> Result<(), String> {
    sys.verify_coherence()?;
    match input {
        Input::Vm(w) => (w.check)(&|a| sys.read_word(a)),
        Input::Replay(t) => {
            for &(w, want) in &t.finals {
                let got = sys.read_word(w.base());
                if got != want {
                    return Err(format!(
                        "replayed {:#x} holds {got:#x}, the recording pinned {want:#x}",
                        w.base().raw()
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Runs one job through construct → simulate → verify → metrics, each in
/// its own span.
///
/// # Errors
///
/// A simulation error or a failed check, described.
pub fn run_job(job: &Job, input: &Input, spans: &mut Spans) -> Result<JobStats, String> {
    let mut sys = spans.span("construct", |_| construct(job.cfg, input));
    let stats = spans
        .span(simulate_span(job.cfg.protocol), |_| sys.run())
        .map_err(|e| e.to_string())?;
    spans.span("verify", |_| verify(&sys, input))?;
    let metrics = spans.span("metrics", |_| sys.metrics());
    Ok(JobStats {
        cycles: stats.cycles,
        events: stats.events,
        messages: stats.traffic.messages(),
        flit_crossings: stats.traffic.total(),
        l1_hits: stats.cache.hits(),
        l1_misses: stats.cache.misses(),
        spin_stalls: metrics.counter_total("stall_spin_count"),
    })
}
