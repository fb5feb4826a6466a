//! The `dvs` front door rejects bad input with a usage error: exit 2 and a
//! `dvs: ...` line naming the problem — never a panic, and never a silent
//! run with defaults.

use std::process::Command;

/// Runs `dvs args...`, asserts a clean usage error, and returns stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .args(args)
        .output()
        .expect("spawn dvs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "dvs {args:?}: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "dvs {args:?} panicked: {stderr}"
    );
    assert!(stderr.starts_with("dvs: "), "dvs {args:?}: {stderr}");
    stderr
}

const CORR_M: [&str; 4] = ["--litmus", "corr", "--proto", "M"];

#[test]
fn swarm_with_zero_workers_is_a_usage_error() {
    let err = usage_error(&[&["check", "swarm"][..], &CORR_M, &["--workers", "0"]].concat());
    assert!(err.contains("--workers must be at least 1"), "{err}");
}

#[test]
fn explore_with_zero_workers_is_a_usage_error() {
    let err = usage_error(&[&["check", "explore"][..], &CORR_M, &["--workers", "0"]].concat());
    assert!(err.contains("--workers must be at least 1"), "{err}");
}

#[test]
fn deepen_with_zero_step_is_a_usage_error() {
    let err = usage_error(&[&["check", "deepen"][..], &CORR_M, &["--step", "0"]].concat());
    assert!(err.contains("--step must be at least 1"), "{err}");
}

#[test]
fn record_with_zero_threads_is_a_usage_error() {
    let err = usage_error(&["trace", "record", "tatas:counter", "--threads", "0"]);
    assert!(
        err.contains("--threads must be a square mesh size"),
        "{err}"
    );
}

#[test]
fn record_with_a_non_square_thread_count_is_a_usage_error() {
    let err = usage_error(&["trace", "record", "tatas:counter", "--threads", "3"]);
    assert!(
        err.contains("--threads must be a square mesh size"),
        "{err}"
    );
}

#[test]
fn check_rejects_unknown_flags() {
    // A misspelt `--max-states` must not run the full exploration.
    let err = usage_error(&[&["check", "explore"][..], &CORR_M, &["--max-state", "10"]].concat());
    assert!(err.contains("unknown flag --max-state"), "{err}");
}

#[test]
fn fuzz_rejects_unknown_flags() {
    let err = usage_error(&["fuzz", "hunt", "0", "1", "--worker", "2"]);
    assert!(err.contains("unknown flag --worker"), "{err}");
}

#[test]
fn trace_rejects_unknown_flags() {
    let err = usage_error(&["trace", "record", "tatas:counter", "--thread", "4"]);
    assert!(err.contains("unknown flag --thread"), "{err}");
}

#[test]
fn serve_rejects_unknown_flags() {
    let dir = std::env::temp_dir().join(format!("dvs-cli-serve-{}", std::process::id()));
    let dir = dir.to_string_lossy();
    let err = usage_error(&["serve", "status", "--dir", &dir, "--folow"]);
    assert!(err.contains("unknown flag --folow"), "{err}");
}
