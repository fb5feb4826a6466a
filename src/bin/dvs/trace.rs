//! `dvs trace` — record/replay workload traces.
//!
//! ```text
//! dvs trace record <kernel-token> [--threads N] [--iters N] [--proto P] [-o file]
//!                                                record a kernel trace
//! dvs trace compose <out.dvst> <a.dvst> <b.dvst>..  stitch phases into one trace
//! dvs trace mix <seed> <phases> <threads> [-o file] build a seeded workload mix
//! dvs trace replay <file.dvst> [--proto P] [--compressed] [--oracle] [--seed N]
//!                                                replay and validate a trace
//! dvs trace show <file.dvst>                     summarize a trace
//! ```
//!
//! `--proto` takes `M`, `DS0`, `DS`, or `GCS` (default `DS`). Kernel tokens are
//! the `dvs-kernels` ones (`tatas:counter`, `nb:fai_counter`, `barrier:tree`,
//! …), plus `composite:<items>:<work>` for the three-phase composite app.
//! `--threads` is the core count of a square mesh: 1, 4, 9, … up to 256.
//!
//! Exit codes: 0 clean, 1 replay divergence or failed run, 2 usage.

use crate::{parse, Args};
use dvs_core::coreset::CoreSet;
use dvs_core::{Protocol, SystemConfig};
use dvs_kernels::{build, KernelId, KernelParams, Workload};
use dvs_trace::{
    build_mix, compose, composite, record, replay_oracle, replay_timed, MixSpec, ReplayMode, Trace,
    ORACLE_DELIVERY_BUDGET,
};
use std::process::ExitCode;

const USAGE: &str =
    "usage: dvs trace record <kernel-token> [--threads N] [--iters N] [--proto P] [-o file]
       dvs trace replay <file.dvst> [--proto P] [--compressed] [--oracle] [--seed N]
       dvs trace compose <out.dvst> <phase.dvst>...
       dvs trace mix <seed> <phases> <threads> [-o file]
       dvs trace show <file.dvst>";

fn proto(args: &mut Args) -> Result<Protocol, String> {
    match args.value("--proto")? {
        Some(label) => Protocol::from_label(&label),
        None => Ok(Protocol::DeNovoSync),
    }
}

fn out_path(args: &mut Args) -> Result<Option<String>, String> {
    Ok(args.value("--out")?.or(args.value("-o")?))
}

/// Resolves a workload token: a `dvs-kernels` kernel token or
/// `composite:<items>:<work>`.
fn workload_for(token: &str, threads: usize, iters: u64) -> Result<Workload, String> {
    if let Some(rest) = token.strip_prefix("composite:") {
        let (items, work) = rest
            .split_once(':')
            .ok_or("composite token is composite:<items>:<work>")?;
        let (items, work) = (
            parse("composite items", items)?,
            parse("composite work", work)?,
        );
        return Ok(composite(threads, items, work));
    }
    let id = KernelId::from_token(token).ok_or_else(|| format!("unknown kernel {token:?}"))?;
    let mut params = KernelParams::smoke(threads);
    if iters > 0 {
        params.iters = iters;
    }
    Ok(build(id, &params))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn emit(trace: &Trace, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, trace.render()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} cores, {} ops, fingerprint {:016x}",
                trace.cores(),
                trace.total_ops(),
                trace.fingerprint()
            );
        }
        None => print!("{}", trace.render()),
    }
    Ok(())
}

/// Prints `ok` on success; reports `what failed: e` and exits 1 otherwise.
fn outcome<T, E: std::fmt::Display>(
    what: &str,
    result: Result<T, E>,
    ok: impl FnOnce(T) -> Result<(), String>,
) -> Result<ExitCode, String> {
    match result {
        Ok(v) => ok(v).map(|()| ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("{what} failed: {e}");
            Ok(ExitCode::from(1))
        }
    }
}

pub fn run(cmd: &str, mut args: Args) -> Result<ExitCode, String> {
    match cmd {
        "record" => {
            let threads = args.num("--threads", 16usize)?;
            let side = (threads as f64).sqrt() as usize;
            if threads == 0 || side * side != threads || threads > CoreSet::CAPACITY {
                return Err(format!(
                    "--threads must be a square mesh size (1, 4, 9, ... up to {}), got {threads}",
                    CoreSet::CAPACITY
                ));
            }
            let (iters, proto, out) = (
                args.num("--iters", 0)?,
                proto(&mut args)?,
                out_path(&mut args)?,
            );
            let [token] = args.finish(USAGE)?;
            let workload = workload_for(&token, threads, iters)?;
            outcome(
                "record",
                record(&token, &workload, SystemConfig::small(threads, proto)),
                |(trace, stats)| {
                    emit(&trace, out.as_deref())?;
                    eprintln!("recorded in {} cycles", stats.cycles);
                    Ok(())
                },
            )
        }
        "replay" => {
            let (proto, compressed) = (proto(&mut args)?, args.switch("--compressed")?);
            let (oracle, seed) = (args.switch("--oracle")?, args.num("--seed", 1)?);
            let [path] = args.finish(USAGE)?;
            let trace = load_trace(&path)?;
            let cfg = SystemConfig::small(trace.cores(), proto);
            let fingerprint = trace.fingerprint();
            if oracle {
                let result = replay_oracle(&trace, cfg, seed, ORACLE_DELIVERY_BUDGET);
                return outcome("oracle replay", result, |delivered| {
                    println!(
                        "oracle replay ok: {delivered} deliveries, fingerprint {fingerprint:016x}"
                    );
                    Ok(())
                });
            }
            let mode = if compressed {
                ReplayMode::Compressed
            } else {
                ReplayMode::Faithful
            };
            outcome("replay", replay_timed(&trace, cfg, mode), |stats| {
                println!(
                    "replay ok on {proto}: {} cycles, fingerprint {fingerprint:016x}",
                    stats.cycles
                );
                Ok(())
            })
        }
        "compose" => {
            let files = args.rest()?;
            let [out, phases @ ..] = files.as_slice() else {
                return Err(USAGE.into());
            };
            if phases.is_empty() {
                return Err("compose needs at least one phase".into());
            }
            let loaded: Vec<Trace> = phases
                .iter()
                .map(|p| load_trace(p))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Trace> = loaded.iter().collect();
            let composed = compose(out.trim_end_matches(".dvst"), &refs)?;
            emit(&composed, Some(out))?;
            Ok(ExitCode::SUCCESS)
        }
        "mix" => {
            let out = out_path(&mut args)?;
            let [seed, phases, threads] = args.finish(USAGE)?;
            let spec = MixSpec {
                seed: parse("seed", &seed)?,
                phases: parse("phases", &phases)?,
                threads: parse("threads", &threads)?,
            };
            outcome("mix", build_mix(spec), |trace| emit(&trace, out.as_deref()))
        }
        "show" => {
            let [path] = args.finish(USAGE)?;
            let trace = load_trace(&path)?;
            println!("name        {}", trace.name);
            println!("recorded on {}", trace.recorded_on);
            println!("cores       {}", trace.cores());
            println!("ops         {}", trace.total_ops());
            println!("op bytes    {}", trace.op_bytes());
            println!("init words  {}", trace.init.len());
            println!("final words {}", trace.finals.len());
            println!("fingerprint {:016x}", trace.fingerprint());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}
