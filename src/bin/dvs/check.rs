//! `dvs check` — the model checker's deep-exploration modes against the
//! litmus suite: exhaustive (exact or bitstate visited tier, optional spill
//! budget), iterative deepening with a resumable frontier checkpoint, and
//! swarm probing. One result line goes to stdout as stable `key=value`
//! tokens so shell drills (`scripts/ci.sh --stage check-scale`) and tests
//! can parse it; the exit code is 0 for a verified run, 3 for a violation,
//! 2 for usage errors.

use crate::Args;
use dvs_check::{
    check_litmus, deepen_litmus, swarm_litmus, CheckConfig, CheckReport, DeepenConfig, SwarmConfig,
    Verdict, VisitedMode,
};
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_stats::report::peak_rss_bytes;
use dvs_vm::litmus::Litmus;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: dvs check <explore|deepen|swarm> --litmus <name> --proto <M|DS0|DS|GCS> [options]
  common:  --mutation <tok> --workers N
  explore: --max-depth N --max-states N --bitstate BITS --spill-budget BYTES --no-por
  deepen:  --start N --step N --max-depth N --round-states N --checkpoint FILE
           --round-delay-ms N --bitstate BITS --spill-budget BYTES --no-por
  swarm:   --probes N --probe-depth N --probe-states N --bits N --seed N";

/// The exact/bitstate visited tier, shared by `explore` and `deepen`.
fn base_config(args: &mut Args, workers: usize) -> Result<CheckConfig, String> {
    Ok(CheckConfig {
        workers,
        por: !args.switch("--no-por")?,
        visited: match args.num("--bitstate", 0u64)? {
            0 => VisitedMode::Exact,
            bits => VisitedMode::Bitstate { bits },
        },
        spill_budget_bytes: args.opt_num("--spill-budget")?,
        ..CheckConfig::default()
    })
}

fn print_report(mode: &str, report: &CheckReport, elapsed: Duration, extra: &str) -> ExitCode {
    let s = &report.stats;
    let verdict = match &report.verdict {
        Verdict::Verified => "verified".to_string(),
        Verdict::Violated(ce) => format!(
            "violated picks={} minimized={}",
            ce.picks.len(),
            ce.minimized
        ),
    };
    let states_per_s = s.unique_states as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "{mode} verdict={verdict} unique={} expansions={} replays={} budget={} max_depth={} \
         states_per_s={:.0} spilled_runs={} spilled_entries={} visited_peak_bytes={} \
         fill={:.6} peak_rss={}{extra}",
        s.unique_states,
        s.expansions,
        s.replay_fires,
        s.budget_fired(),
        s.max_depth_seen,
        states_per_s,
        s.spilled_runs,
        s.spilled_entries,
        s.visited_peak_bytes,
        s.filter_fill_ratio(),
        peak_rss_bytes().unwrap_or(0),
    );
    match report.verdict {
        Verdict::Verified => ExitCode::SUCCESS,
        Verdict::Violated(_) => ExitCode::from(3),
    }
}

pub fn run(cmd: &str, mut args: Args) -> Result<ExitCode, String> {
    if !["explore", "deepen", "swarm"].contains(&cmd) {
        return Err(USAGE.into());
    }
    let name = args.value("--litmus")?.ok_or("--litmus is required")?;
    let lit = Litmus::by_name(&name).ok_or_else(|| format!("unknown litmus test {name:?}"))?;
    let proto = Protocol::from_label(&args.value("--proto")?.ok_or("--proto is required")?)?;
    let mutation = match args.value("--mutation")? {
        Some(tok) => Some(ProtocolMutation::from_token(&tok)?),
        None => None,
    };
    let workers = args.num_min("--workers", 1usize, 1)?;
    let started = Instant::now();
    let (report, extra) = match cmd {
        "explore" => {
            let cfg = CheckConfig {
                max_depth: args.num("--max-depth", 100_000)?,
                max_states: args.num("--max-states", 2_000_000)?,
                ..base_config(&mut args, workers)?
            };
            let [] = args.finish(USAGE)?;
            (check_litmus(&lit, proto, mutation, &cfg), String::new())
        }
        "deepen" => {
            let cfg = DeepenConfig {
                base: base_config(&mut args, workers)?,
                start_depth: args.num("--start", 64)?,
                step: args.num_min("--step", 64, 1)?,
                max_depth: args.num("--max-depth", 4096)?,
                round_states: args.num("--round-states", 2_000_000)?,
                checkpoint: args.value("--checkpoint")?.map(Into::into),
                round_delay: match args.num("--round-delay-ms", 0u64)? {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                },
            };
            let [] = args.finish(USAGE)?;
            let outcome = deepen_litmus(&lit, proto, mutation, &cfg).map_err(|e| e.to_string())?;
            let extra = format!(" rounds={} resumed={}", outcome.rounds, outcome.resumed);
            (outcome.report, extra)
        }
        _ => {
            let cfg = SwarmConfig {
                probes: args.num_min("--probes", 64, 1)?,
                workers,
                probe_depth: args.num("--probe-depth", 4_000)?,
                probe_states: args.num("--probe-states", 20_000)?,
                filter_bits: args.num("--bits", 1 << 22)?,
                seed: args.num("--seed", 0u64)?,
            };
            let [] = args.finish(USAGE)?;
            (swarm_litmus(&lit, proto, mutation, &cfg), String::new())
        }
    };
    Ok(print_report(cmd, &report, started.elapsed(), &extra))
}
