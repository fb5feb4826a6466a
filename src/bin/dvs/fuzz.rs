//! `dvs fuzz` — the differential fuzzer.
//!
//! ```text
//! dvs fuzz gen <seed> [--small]                      print the generated .dvsf
//! dvs fuzz run <file> [--mutation <tok>]             replay one case
//! dvs fuzz shrink <file> [--mutation <tok>]          minimize a diverging case
//! dvs fuzz hunt <start> <count> [--small] [--workers N] [--mutation <tok>]
//!                                                    fuzz a seed range
//! ```
//!
//! Exit codes: 0 clean, 1 divergence found (`run`/`hunt`), 2 usage or
//! sick case. `shrink` exits 0 on success (the divergence is the point)
//! and 2 if the input does not diverge. Mutation tokens are
//! [`ProtocolMutation::token`]s.

use crate::{exit_code, parse, Args};
use dvs_core::config::ProtocolMutation;
use dvs_fuzz::{
    generate, run_batch, run_case, shrink, BatchConfig, CaseVerdict, FuzzCase, GenConfig,
    HarnessConfig,
};
use std::process::ExitCode;

fn usage() -> String {
    let tokens = ProtocolMutation::ALL.map(ProtocolMutation::token);
    format!(
        "usage: dvs fuzz gen <seed> [--small]\n\
         \x20      dvs fuzz run|shrink <file.dvsf> [--mutation <tok>]\n\
         \x20      dvs fuzz hunt <start-seed> <count> [--small] [--workers N] [--mutation <tok>]\n\
         mutation tokens: {}",
        tokens.join(", ")
    )
}

fn gen_config(args: &mut Args) -> Result<GenConfig, String> {
    Ok(if args.switch("--small")? {
        GenConfig::small()
    } else {
        GenConfig::default_pool()
    })
}

fn harness(args: &mut Args) -> Result<HarnessConfig, String> {
    let mut h = HarnessConfig::default();
    if let Some(tok) = args.value("--mutation")? {
        h.mutation = Some(ProtocolMutation::from_token(&tok)?);
    }
    Ok(h)
}

fn parse_seed(tok: &str) -> Result<u64, String> {
    match tok.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).map_err(|_| format!("bad seed {tok:?}")),
        None => parse("seed", tok),
    }
}

fn load_case(path: &str) -> Result<FuzzCase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    FuzzCase::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(cmd: &str, mut args: Args) -> Result<ExitCode, String> {
    match cmd {
        "gen" => {
            let gen = gen_config(&mut args)?;
            let [seed] = args.finish(&usage())?;
            print!("{}", generate(parse_seed(&seed)?, &gen).render());
            Ok(ExitCode::SUCCESS)
        }
        "run" | "shrink" => {
            let h = harness(&mut args)?;
            let [path] = args.finish(&usage())?;
            let case = load_case(&path)?;
            if cmd == "shrink" {
                if !run_case(&case, &h).is_divergent() {
                    return Err("input case does not diverge; nothing to shrink".into());
                }
                let out = shrink(&case, |c| run_case(c, &h).is_divergent());
                eprintln!(
                    "shrunk {} -> {} instrs ({} attempts, {} accepted)",
                    out.initial_instrs, out.final_instrs, out.attempts, out.accepted
                );
                print!("{}", out.case.render());
                return Ok(ExitCode::SUCCESS);
            }
            match run_case(&case, &h) {
                CaseVerdict::Pass { ref_fnv, instrs } => {
                    println!("pass ref={ref_fnv:016x} instrs={instrs}");
                    Ok(ExitCode::SUCCESS)
                }
                CaseVerdict::Sick { reason } => Err(format!("sick case: {reason}")),
                CaseVerdict::Diverged { instrs, divergence } => {
                    println!("diverged {divergence} instrs={instrs}");
                    Ok(ExitCode::from(1))
                }
            }
        }
        "hunt" => {
            let (gen, harness, workers) = (
                gen_config(&mut args)?,
                harness(&mut args)?,
                args.num("--workers", 1)?,
            );
            let [start, count] = args.finish(&usage())?;
            let report = run_batch(&BatchConfig {
                seed_start: parse_seed(&start)?,
                count: parse("count", &count)?,
                gen,
                harness,
                workers,
            });
            println!(
                "total={} passed={} sick={} panicked={} diverged={} digest={:016x}",
                report.total,
                report.passed,
                report.sick,
                report.panicked,
                report.diverged.len(),
                report.digest
            );
            for d in &report.diverged {
                println!("  {}", d.line);
            }
            let clean = report.diverged.is_empty() && report.sick == 0 && report.panicked == 0;
            Ok(exit_code(clean))
        }
        _ => Err(usage()),
    }
}
