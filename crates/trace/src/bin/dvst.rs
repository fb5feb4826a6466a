//! `dvst` — trace record/replay command-line front end.
//!
//! ```text
//! dvst record <kernel-token> [--threads N] [--iters N] [--proto P] [-o file]
//!                                              record a kernel trace
//! dvst compose <out.dvst> <a.dvst> <b.dvst>..  stitch phases into one trace
//! dvst mix <seed> <phases> <threads> [-o file] build a seeded workload mix
//! dvst replay <file.dvst> [--proto P] [--compressed] [--oracle] [--seed N]
//!                                              replay and validate a trace
//! dvst show <file.dvst>                        summarize a trace
//! ```
//!
//! `--proto` takes `M`, `DS0`, `DS`, or `GCS` (default `DS`). Kernel tokens are
//! the `dvs-kernels` ones (`tatas:counter`, `nb:fai_counter`, `barrier:tree`,
//! …), plus `composite:<items>:<work>` for the three-phase composite app.
//!
//! Exit codes: 0 clean, 1 replay divergence or failed run, 2 usage.

use dvs_core::{Protocol, SystemConfig};
use dvs_kernels::{build, KernelId, KernelParams, Workload};
use dvs_trace::{
    build_mix, compose, composite, record, replay_oracle, replay_timed, MixSpec, ReplayMode, Trace,
    ORACLE_DELIVERY_BUDGET,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dvst: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls `--flag value` / bare `--flag` options out of `args`.
struct Opts {
    positional: Vec<String>,
    threads: usize,
    iters: u64,
    proto: Protocol,
    out: Option<String>,
    compressed: bool,
    oracle: bool,
    seed: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        threads: 16,
        iters: 0,
        proto: Protocol::DeNovoSync,
        out: None,
        compressed: false,
        oracle: false,
        seed: 1,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                o.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "--threads needs a number")?;
            }
            "--iters" => {
                o.iters = it
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|_| "--iters needs a number")?;
            }
            "--proto" => o.proto = Protocol::from_label(it.next().ok_or("--proto needs a value")?)?,
            "--seed" => {
                o.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?;
            }
            "-o" | "--out" => o.out = Some(it.next().ok_or("-o needs a path")?.clone()),
            "--compressed" => o.compressed = true,
            "--oracle" => o.oracle = true,
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

/// Resolves a workload token: a `dvs-kernels` kernel token or
/// `composite:<items>:<work>`.
fn workload_for(token: &str, o: &Opts) -> Result<Workload, String> {
    if let Some(rest) = token.strip_prefix("composite:") {
        let (items, work) = rest
            .split_once(':')
            .ok_or("composite token is composite:<items>:<work>")?;
        let items: u64 = items.parse().map_err(|_| "bad composite item count")?;
        let work: u64 = work.parse().map_err(|_| "bad composite work count")?;
        return Ok(composite(o.threads, items, work));
    }
    let id = KernelId::from_token(token).ok_or_else(|| format!("unknown kernel {token:?}"))?;
    let mut params = KernelParams::smoke(o.threads);
    if o.iters > 0 {
        params.iters = o.iters;
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

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("usage: dvst <record|replay|compose|mix|show> ...".into());
    };
    let o = parse_opts(rest)?;
    match cmd.as_str() {
        "record" => {
            let [token] = o.positional.as_slice() else {
                return Err(
                    "usage: dvst record <kernel-token> [--threads N] [--iters N] [--proto P] [-o file]"
                        .into(),
                );
            };
            let workload = workload_for(token, &o)?;
            let cfg = SystemConfig::small(o.threads, o.proto);
            match record(token, &workload, cfg) {
                Ok((trace, stats)) => {
                    emit(&trace, o.out.as_deref())?;
                    eprintln!("recorded in {} cycles", stats.cycles);
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => {
                    eprintln!("record failed: {e}");
                    Ok(ExitCode::from(1))
                }
            }
        }
        "replay" => {
            let [path] = o.positional.as_slice() else {
                return Err(
                    "usage: dvst replay <file.dvst> [--proto P] [--compressed] [--oracle] [--seed N]"
                        .into(),
                );
            };
            let trace = load_trace(path)?;
            let cfg = SystemConfig::small(trace.cores(), o.proto);
            if o.oracle {
                match replay_oracle(&trace, cfg, o.seed, ORACLE_DELIVERY_BUDGET) {
                    Ok(delivered) => {
                        println!(
                            "oracle replay ok: {delivered} deliveries, fingerprint {:016x}",
                            trace.fingerprint()
                        );
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(e) => {
                        eprintln!("oracle replay failed: {e}");
                        Ok(ExitCode::from(1))
                    }
                }
            } else {
                let mode = if o.compressed {
                    ReplayMode::Compressed
                } else {
                    ReplayMode::Faithful
                };
                match replay_timed(&trace, cfg, mode) {
                    Ok(stats) => {
                        println!(
                            "replay ok on {}: {} cycles, fingerprint {:016x}",
                            o.proto,
                            stats.cycles,
                            trace.fingerprint()
                        );
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(e) => {
                        eprintln!("replay failed: {e}");
                        Ok(ExitCode::from(1))
                    }
                }
            }
        }
        "compose" => {
            let [out, phases @ ..] = o.positional.as_slice() else {
                return Err("usage: dvst compose <out.dvst> <phase.dvst>...".into());
            };
            if phases.is_empty() {
                return Err("compose needs at least one phase".into());
            }
            let loaded: Vec<Trace> = phases
                .iter()
                .map(|p| load_trace(p))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Trace> = loaded.iter().collect();
            let name = out.trim_end_matches(".dvst").to_owned();
            let composed = compose(&name, &refs)?;
            emit(&composed, Some(out))?;
            Ok(ExitCode::SUCCESS)
        }
        "mix" => {
            let [seed, phases, threads] = o.positional.as_slice() else {
                return Err("usage: dvst mix <seed> <phases> <threads> [-o file]".into());
            };
            let spec = MixSpec {
                seed: seed.parse().map_err(|_| "bad seed")?,
                phases: phases.parse().map_err(|_| "bad phase count")?,
                threads: threads.parse().map_err(|_| "bad thread count")?,
            };
            match build_mix(spec) {
                Ok(trace) => {
                    emit(&trace, o.out.as_deref())?;
                    Ok(ExitCode::SUCCESS)
                }
                Err(e) => {
                    eprintln!("mix failed: {e}");
                    Ok(ExitCode::from(1))
                }
            }
        }
        "show" => {
            let [path] = o.positional.as_slice() else {
                return Err("usage: dvst show <file.dvst>".into());
            };
            let trace = load_trace(path)?;
            println!("name        {}", trace.name);
            println!("recorded on {}", trace.recorded_on);
            println!("cores       {}", trace.cores());
            println!("ops         {}", trace.total_ops());
            println!("init words  {}", trace.init.len());
            println!("final words {}", trace.finals.len());
            println!("fingerprint {:016x}", trace.fingerprint());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
