//! `dvs-check`: the model checker's command line.
//!
//! Drives the deep-exploration modes against the litmus suite — exhaustive
//! (exact or bitstate visited tier, optional spill budget), iterative
//! deepening with a resumable frontier checkpoint, and swarm probing. One
//! result line goes to stdout as stable `key=value` tokens so shell drills
//! (`scripts/ci.sh --stage check-scale`) and tests can parse it; the exit
//! code is 0 for a verified run, 3 for a violation, 2 for usage errors.
//!
//! ```text
//! dvs-check explore --litmus tatas4 --proto M [--bitstate BITS] [--spill-budget BYTES]
//! dvs-check deepen  --litmus tatas8 --proto DS --checkpoint f.ckpt [--round-delay-ms 200]
//! dvs-check swarm   --litmus tatas  --proto M --mutation mesi-skip-invalidate
//! ```

use dvs_check::{
    check_litmus, deepen_litmus, swarm_litmus, CheckConfig, CheckReport, DeepenConfig, SwarmConfig,
    Verdict, VisitedMode,
};
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_stats::report::peak_rss_bytes;
use dvs_vm::litmus::Litmus;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const MUTATIONS: [(&str, ProtocolMutation); 6] = [
    ("dnv-skip-repoint", ProtocolMutation::DnvSkipRepoint),
    ("dnv-drop-xfer", ProtocolMutation::DnvDropXfer),
    ("mesi-skip-invalidate", ProtocolMutation::MesiSkipInvalidate),
    ("mesi-drop-ack", ProtocolMutation::MesiDropAck),
    ("gcs-drop-notify", ProtocolMutation::GcsDropNotify),
    ("gcs-skip-update", ProtocolMutation::GcsSkipUpdate),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: dvs-check <explore|deepen|swarm> --litmus <name> --proto <M|DS0|DS|GCS> [options]\n\
         common: --mutation <tok> --workers N\n\
         explore: --max-depth N --max-states N --bitstate BITS --spill-budget BYTES --no-por\n\
         deepen:  --start N --step N --max-depth N --round-states N --checkpoint FILE\n\
                  --round-delay-ms N --bitstate BITS --spill-budget BYTES\n\
         swarm:   --probes N --probe-depth N --probe-states N --bits N --seed N"
    );
    ExitCode::from(2)
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            if name == "no-por" {
                flags.push((name.to_string(), String::new()));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} {v:?}")),
        }
    }
}

fn model(args: &Args) -> Result<(Litmus, Protocol, Option<ProtocolMutation>), String> {
    let name = args.get("litmus").ok_or("--litmus is required")?;
    let lit = Litmus::by_name(name).ok_or_else(|| format!("unknown litmus test {name:?}"))?;
    let ptok = args.get("proto").ok_or("--proto is required")?;
    let proto = Protocol::from_label(ptok)?;
    let mutation = match args.get("mutation") {
        None => None,
        Some(tok) => Some(
            MUTATIONS
                .iter()
                .find(|(n, _)| *n == tok)
                .map(|(_, m)| *m)
                .ok_or_else(|| format!("unknown mutation {tok:?}"))?,
        ),
    };
    Ok((lit, proto, mutation))
}

fn visited_mode(args: &Args) -> Result<VisitedMode, String> {
    Ok(match args.num("bitstate", 0u64)? {
        0 => VisitedMode::Exact,
        bits => VisitedMode::Bitstate { bits },
    })
}

fn print_report(mode: &str, report: &CheckReport, elapsed: Duration, extra: &str) -> ExitCode {
    let s = &report.stats;
    let verdict = match &report.verdict {
        Verdict::Verified => "verified".to_string(),
        Verdict::Violated(ce) => {
            format!(
                "violated picks={} minimized={}",
                ce.picks.len(),
                ce.minimized
            )
        }
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

fn run(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    let (lit, proto, mutation) = model(args)?;
    let workers = args.num("workers", 1usize)?;
    let started = Instant::now();
    match cmd {
        "explore" => {
            let cfg = CheckConfig {
                workers,
                max_depth: args.num("max-depth", 100_000)?,
                max_states: args.num("max-states", 2_000_000)?,
                por: args.get("no-por").is_none(),
                visited: visited_mode(args)?,
                spill_budget_bytes: match args.get("spill-budget") {
                    None => None,
                    Some(_) => Some(args.num("spill-budget", 0u64)?),
                },
                collect_frontier: false,
            };
            let report = check_litmus(&lit, proto, mutation, &cfg);
            Ok(print_report("explore", &report, started.elapsed(), ""))
        }
        "deepen" => {
            let cfg = DeepenConfig {
                base: CheckConfig {
                    workers,
                    por: args.get("no-por").is_none(),
                    visited: visited_mode(args)?,
                    spill_budget_bytes: match args.get("spill-budget") {
                        None => None,
                        Some(_) => Some(args.num("spill-budget", 0u64)?),
                    },
                    ..CheckConfig::default()
                },
                start_depth: args.num("start", 64)?,
                step: args.num("step", 64)?,
                max_depth: args.num("max-depth", 4096)?,
                round_states: args.num("round-states", 2_000_000)?,
                checkpoint: args.get("checkpoint").map(PathBuf::from),
                round_delay: match args.num("round-delay-ms", 0u64)? {
                    0 => None,
                    ms => Some(Duration::from_millis(ms)),
                },
            };
            let outcome = deepen_litmus(&lit, proto, mutation, &cfg).map_err(|e| e.to_string())?;
            let extra = format!(" rounds={} resumed={}", outcome.rounds, outcome.resumed);
            Ok(print_report(
                "deepen",
                &outcome.report,
                started.elapsed(),
                &extra,
            ))
        }
        "swarm" => {
            let cfg = SwarmConfig {
                probes: args.num("probes", 64)?,
                workers,
                probe_depth: args.num("probe-depth", 4_000)?,
                probe_states: args.num("probe-states", 20_000)?,
                filter_bits: args.num("bits", 1 << 22)?,
                seed: args.num("seed", 0u64)?,
            };
            let report = swarm_litmus(&lit, proto, mutation, &cfg);
            Ok(print_report("swarm", &report, started.elapsed(), ""))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvs-check: {e}");
            return usage();
        }
    };
    match run(cmd, &args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dvs-check: {e}");
            usage()
        }
    }
}
