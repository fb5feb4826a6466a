//! `dvs serve` — the simulation job service.
//!
//! ```text
//! dvs serve submit --dir D --grid smoke [--no-run] [flags]   campaign grid job
//! dvs serve submit --dir D --fuzz <start> <count> [--small]  fuzz-hunt job
//! dvs serve submit --dir D --litmus all                      litmus-sweep job
//! dvs serve submit --dir D --deep-check <name|all>           model-check job
//!   [--check-mode exact|bits:N|swarm:N] [--check-depth N] [--check-states N]
//! dvs serve resume --dir D [flags]                           finish unfinished jobs
//! dvs serve status --dir D                                   one line per job
//! dvs serve status --dir D --follow [--poll-ms N]            tail the journal live
//! dvs serve verify-store --dir D                             integrity-check the cache
//! dvs serve gc --dir D [--budget-bytes N]                    evict stale/over-budget
//! ```
//!
//! Shared flags: `--workers N`, `--deadline-ms N`, `--retries N`,
//! `--budget-bytes N`, `--cell-delay-ms N` (debug: slows each cell so crash
//! tests can land a `kill -9` mid-job), `--no-sync` (skip per-append
//! fsync — faster, crash-unsafe).
//!
//! Each finished job prints one machine-parseable line:
//!
//! ```text
//! job=3 cells=18 hits=18 computed=0 failed=0 retries=0 digest=84d1c8a3b4e5f607
//! ```
//!
//! Exit codes: 0 clean, 1 a cell failed terminally (or `verify-store`
//! quarantined entries), 2 usage or I/O error.

use crate::{exit_code, parse, Args};
use dvs_campaign::kernel_grid;
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};
use dvs_serve::{
    DeepCheckMode, JobReport, JobSpec, JournalEvent, JournalTail, RetryPolicy, Serve, ServeConfig,
};
use dvs_vm::litmus::Litmus;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: dvs serve <submit|resume|status|verify-store|gc> --dir D [flags]
  submit: exactly one of --grid smoke | --fuzz <start> <count> [--small] | --litmus <name|all>
          | --deep-check <name|all> [--check-mode exact|bits:N|swarm:N] [--check-depth N]
          [--check-states N]; plus --no-run
  status: --follow [--poll-ms N]
  shared: --workers N --deadline-ms N --retries N --budget-bytes N --cell-delay-ms N --no-sync";

/// The shared flags every command accepts.
fn config(args: &mut Args) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::new(args.value("--dir")?.ok_or("--dir is required")?);
    if let Some(w) = args.opt_num::<usize>("--workers")? {
        cfg.workers = w.max(1);
    }
    cfg.deadline = args.opt_num("--deadline-ms")?.map(Duration::from_millis);
    if let Some(r) = args.opt_num::<u32>("--retries")? {
        cfg.retry = RetryPolicy {
            max_attempts: r.max(1),
            ..RetryPolicy::default()
        };
    }
    cfg.store_budget = args.opt_num("--budget-bytes")?;
    cfg.sync_journal = !args.switch("--no-sync")?;
    cfg.cell_delay = args.opt_num("--cell-delay-ms")?.map(Duration::from_millis);
    Ok(cfg)
}

/// The `--grid smoke` job: the six TATAS locked kernels × every protocol at
/// four cores with smoke parameters — 18 quick cells.
fn smoke_grid() -> JobSpec {
    let kernels: Vec<KernelId> = LockedStruct::ALL
        .iter()
        .map(|&s| KernelId::Locked(s, LockKind::Tatas))
        .collect();
    JobSpec::Campaign(kernel_grid(&kernels, 4, &Protocol::ALL, |p| {
        *p = KernelParams::smoke(4);
    }))
}

/// Resolves a `--litmus`/`--deep-check` selector to concrete litmus names.
fn litmus_names(which: &str) -> Result<Vec<String>, String> {
    match which {
        "all" => Ok(Litmus::all().iter().map(|l| l.name.to_owned()).collect()),
        name => {
            Litmus::by_name(name).ok_or_else(|| format!("unknown litmus {name:?}"))?;
            Ok(vec![name.to_owned()])
        }
    }
}

/// The job `submit` describes.
fn job_for(args: &mut Args) -> Result<JobSpec, String> {
    let (grid, fuzz) = (args.value("--grid")?, args.take("--fuzz", 2)?);
    let (litmus, deep) = (args.value("--litmus")?, args.value("--deep-check")?);
    let (small, mode) = (args.switch("--small")?, args.value("--check-mode")?);
    let depth = args.num("--check-depth", 1_000)?;
    let states = args.num("--check-states", 200_000)?;
    match (grid, fuzz, litmus, deep) {
        (Some(grid), None, None, None) => match grid.as_str() {
            "smoke" => Ok(smoke_grid()),
            other => Err(format!("unknown grid {other:?} (try: smoke)")),
        },
        (None, Some(range), None, None) => Ok(JobSpec::FuzzHunt {
            seed_start: parse("--fuzz", &range[0])?,
            count: parse("--fuzz", &range[1])?,
            small,
        }),
        (None, None, Some(which), None) => Ok(JobSpec::Litmus {
            names: litmus_names(&which)?,
            protocols: Protocol::ALL.to_vec(),
        }),
        (None, None, None, Some(which)) => Ok(JobSpec::DeepCheck {
            names: litmus_names(&which)?,
            protocols: Protocol::ALL.to_vec(),
            mode: match mode {
                None => DeepCheckMode::Exact,
                Some(tok) => DeepCheckMode::from_token(&tok)?,
            },
            depth,
            states,
        }),
        _ => Err("submit needs exactly one of --grid, --fuzz, --litmus, --deep-check".into()),
    }
}

fn print_report(r: &JobReport) {
    println!(
        "job={} cells={} hits={} computed={} failed={} retries={} digest={:016x}",
        r.id, r.cells, r.hits, r.computed, r.failed, r.retries, r.digest
    );
}

fn print_metrics(serve: &Serve) {
    for ((node, component, name), value) in serve.metrics().counters() {
        eprintln!("  {node}/{component}/{name} = {value}");
    }
}

/// One human-readable line per journal event, `key=value` like the job
/// summary lines so the output stays machine-parseable.
fn render_event(e: &JournalEvent) -> String {
    match e {
        JournalEvent::Job { id, cells, kind } => {
            format!("job={id} kind={kind} cells={cells} submitted")
        }
        JournalEvent::CellOk {
            job,
            index,
            payload_fnv,
            wall_nanos,
        } => format!(
            "job={job} cell={index} ok payload={payload_fnv:016x} wall={}ms",
            wall_nanos / 1_000_000
        ),
        JournalEvent::CellErr { job, index, class } => {
            format!("job={job} cell={index} err class={class}")
        }
        JournalEvent::Retry {
            job,
            index,
            attempt,
        } => format!("job={job} cell={index} retry attempt={attempt}"),
        JournalEvent::Done { job, digest } => format!("job={job} done digest={digest:016x}"),
    }
}

/// `status --follow`: replays the journal from the start, then tails it,
/// printing one line per durable event as it lands — live progress for a
/// job another process is running. Exits once every journaled job has
/// sealed with `done`; until a first job appears (or while one is still
/// running) it keeps polling, so Ctrl-C is the way out of an idle follow.
fn follow_status(dir: &Path, poll: Duration) -> Result<ExitCode, String> {
    let mut tail = JournalTail::new(dir.join("journal.log"));
    let mut open_jobs = std::collections::BTreeSet::new();
    let mut saw_a_job = false;
    loop {
        for event in tail.poll().map_err(|e| e.to_string())? {
            match event {
                Ok(e) => {
                    println!("{}", render_event(&e));
                    match e {
                        JournalEvent::Job { id, .. } => {
                            saw_a_job = true;
                            open_jobs.insert(id);
                        }
                        JournalEvent::Done { job, .. } => {
                            open_jobs.remove(&job);
                        }
                        _ => {}
                    }
                }
                Err(why) => eprintln!("dvs: journal: {why}"),
            }
        }
        if saw_a_job && open_jobs.is_empty() {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(poll);
    }
}

pub fn run(cmd: &str, mut args: Args) -> Result<ExitCode, String> {
    if !["submit", "resume", "status", "verify-store", "gc"].contains(&cmd) {
        return Err(USAGE.into());
    }
    let cfg = config(&mut args)?;
    let open = |cfg: ServeConfig| Serve::open(cfg).map_err(|e| e.to_string());
    match cmd {
        "submit" => {
            let (job, no_run) = (job_for(&mut args)?, args.switch("--no-run")?);
            let [] = args.finish(USAGE)?;
            let mut serve = open(cfg)?;
            let id = serve.submit(&job).map_err(|e| e.to_string())?;
            if no_run {
                println!("job={id} cells={} submitted", job.cells().len());
                return Ok(ExitCode::SUCCESS);
            }
            let report = serve.run_job(id).map_err(|e| e.to_string())?;
            print_report(&report);
            print_metrics(&serve);
            Ok(exit_code(report.failed == 0))
        }
        "resume" => {
            let [] = args.finish(USAGE)?;
            let mut serve = open(cfg)?;
            let reports = serve.resume_all().map_err(|e| e.to_string())?;
            if reports.is_empty() {
                println!("nothing to resume");
            }
            reports.iter().for_each(print_report);
            print_metrics(&serve);
            Ok(exit_code(reports.iter().all(|r| r.failed == 0)))
        }
        "status" => {
            let (follow, poll_ms) = (args.switch("--follow")?, args.num("--poll-ms", 200)?);
            let [] = args.finish(USAGE)?;
            if follow {
                return follow_status(&cfg.dir, Duration::from_millis(poll_ms.max(1)));
            }
            let jobs = open(cfg)?.status();
            if jobs.is_empty() {
                println!("no jobs");
            }
            for j in jobs {
                let state = match j.digest {
                    Some(d) => format!("done digest={d:016x}"),
                    None => format!("pending={}", j.pending),
                };
                println!(
                    "job={} kind={} cells={}/{} failed={} retries={} wall={}ms {state}",
                    j.id,
                    j.kind,
                    j.completed,
                    j.cells,
                    j.failed,
                    j.retries,
                    j.wall_nanos / 1_000_000
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify-store" => {
            let [] = args.finish(USAGE)?;
            let report = open(cfg)?.verify_store();
            println!(
                "checked={} ok={} quarantined={}",
                report.checked,
                report.ok,
                report.quarantined.len()
            );
            for (name, reason) in &report.quarantined {
                eprintln!("  {name}: {reason}");
            }
            Ok(exit_code(report.quarantined.is_empty()))
        }
        _ => {
            let [] = args.finish(USAGE)?;
            let report = open(cfg)?.gc_store();
            println!(
                "removed_stale={} removed_budget={} remaining_bytes={}",
                report.removed_stale, report.removed_budget, report.remaining_bytes
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}
