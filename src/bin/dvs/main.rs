//! `dvs` — the suite's one command-line front door.
//!
//! ```text
//! dvs check explore|deepen|swarm ...          bounded model checking (dvs-check)
//! dvs fuzz  gen|run|shrink|hunt ...           differential fuzzing (dvs-fuzz)
//! dvs trace record|replay|compose|mix|show    workload traces (dvs-trace)
//! dvs serve submit|resume|status|verify-store|gc   job service (dvs-serve)
//! dvs tables [--proto m|ds0|ds|gcs]           controller transition tables
//! ```
//!
//! Every subcommand parses its arguments with the same [`Args`]: it takes
//! the flags it knows, and anything flag-shaped left over is a usage error.
//! Usage errors print `dvs: <why>` and exit 2. `check` exits 0 verified /
//! 3 violated; the other tools exit 0 clean / 1 on a divergence, failed
//! cell or failed run. Each tool's module documents its flags.

mod check;
mod fuzz;
mod serve;
mod trace;

use dvs_core::Protocol;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str =
    "usage: dvs <check|fuzz|trace|serve> <command> [args] | dvs tables [--proto m|ds0|ds|gcs]";

/// The arguments after `dvs <tool> <command>`, consumed by taking: each
/// flag a subcommand knows is removed as it is read, and [`Args::finish`]
/// rejects whatever flag is left, so a typo never runs with defaults.
pub struct Args(Vec<String>);

impl Args {
    /// Takes every `name v1 .. vn` occurrence; the last one wins.
    pub fn take(&mut self, name: &str, n: usize) -> Result<Option<Vec<String>>, String> {
        let mut found = None;
        while let Some(i) = self.0.iter().position(|a| a == name) {
            if i + n >= self.0.len() {
                return Err(format!("missing value for {name}"));
            }
            found = Some(self.0.drain(i..=i + n).skip(1).collect());
        }
        Ok(found)
    }

    /// Takes a bare `name` switch.
    pub fn switch(&mut self, name: &str) -> Result<bool, String> {
        Ok(self.take(name, 0)?.is_some())
    }

    /// Takes `name <value>`.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        Ok(self.take(name, 1)?.and_then(|mut v| v.pop()))
    }

    /// Takes `name <number>`, if present.
    pub fn opt_num<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?.map(|v| parse(name, &v)).transpose()
    }

    /// Takes `name <number>`, or `default` when absent.
    pub fn num<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// Takes `name <number>`, rejecting values below `min`.
    pub fn num_min<T: FromStr + PartialOrd + std::fmt::Display>(
        &mut self,
        name: &str,
        default: T,
        min: T,
    ) -> Result<T, String> {
        let v = self.num(name, default)?;
        if v < min {
            return Err(format!("{name} must be at least {min}, got {v}"));
        }
        Ok(v)
    }

    /// Ends parsing: every argument not taken must be a positional, and
    /// there must be exactly `N` of them (`usage` explains otherwise).
    pub fn finish<const N: usize>(self, usage: &str) -> Result<[String; N], String> {
        self.rest()?.try_into().map_err(|_| usage.to_owned())
    }

    /// Ends parsing like [`Args::finish`], for a variable positional count.
    pub fn rest(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.len() > 1 && a.starts_with('-')) {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(self.0),
        }
    }
}

/// Parses one numeric argument, naming the flag or field on failure.
pub fn parse<T: FromStr>(what: &str, tok: &str) -> Result<T, String> {
    tok.parse()
        .map_err(|_| format!("{what} needs a number, got {tok:?}"))
}

/// 0 for a clean run, 1 when it found a failure.
pub fn exit_code(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `dvs tables [--proto P]`: prints each controller's transition table as
/// Markdown — every protocol's, or P's (`m`, `ds0`, `ds`, `gcs`).
fn tables(mut args: Args) -> Result<ExitCode, String> {
    let proto = args.value("--proto")?;
    args.finish::<0>("usage: dvs tables [--proto m|ds0|ds|gcs]")?;
    let protocols = match proto {
        Some(p) => vec![Protocol::from_label(&p.to_uppercase())?],
        None => Protocol::EXTENDED.to_vec(),
    };
    for p in protocols {
        print!("{}", dvs_core::table::markdown(p));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let tool = argv.next();
    if tool.as_deref() == Some("tables") {
        return run(tables(Args(argv.collect())));
    }
    let cmd = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    run(match tool.as_deref() {
        Some("check") => check::run(&cmd, args),
        Some("fuzz") => fuzz::run(&cmd, args),
        Some("trace") => trace::run(&cmd, args),
        Some("serve") => serve::run(&cmd, args),
        _ => Err(USAGE.to_owned()),
    })
}

/// A tool's exit code, or exit 2 with `dvs: <why>` for a usage error.
fn run(result: Result<ExitCode, String>) -> ExitCode {
    result.unwrap_or_else(|e| {
        eprintln!("dvs: {e}");
        ExitCode::from(2)
    })
}
