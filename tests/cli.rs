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

/// A `.dvst` whose `ex` overflows replay's clock is a parse error naming
/// the bound, not a scheduler panic (exit 101).
#[test]
fn trace_replay_rejects_an_overflowing_exec() {
    let path = std::env::temp_dir().join(format!("dvs-cli-ex-{}.dvst", std::process::id()));
    std::fs::write(
        &path,
        "dvst 1\ncores 1\ncore 0 1\nex 18446744073709551615\n",
    )
    .expect("write mutant");
    let out = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .args(["trace", "replay", &path.to_string_lossy(), "--proto", "DS"])
        .output()
        .expect("spawn dvs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("2000000000-cycle bound"), "{stderr}");
}

/// A `.dvst` whose segments overlap is a usage error, not a layout panic
/// (exit 101).
#[test]
fn trace_replay_rejects_overlapping_segments() {
    let corpus = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/trace/corpus/tatas-counter.dvst"
    );
    let text = std::fs::read_to_string(corpus).expect("read corpus trace");
    let mutant = text.replace("seg 140 256 0 eb_arrive", "seg 100 256 0 eb_arrive");
    assert_ne!(mutant, text, "corpus trace lost its eb_arrive segment");
    let path = std::env::temp_dir().join(format!("dvs-cli-seg-{}.dvst", std::process::id()));
    std::fs::write(&path, mutant).expect("write mutant");
    let file = path.to_string_lossy().into_owned();
    let stderr = usage_error(&["trace", "replay", &file, "--proto", "DS"]);
    std::fs::remove_file(&path).ok();
    assert!(stderr.contains("overlapping segments"), "{stderr}");
}

/// Composing a `.dvst` whose `inv` names an undeclared region is a usage
/// error naming the region, not an overflow panic in the region shift.
#[test]
fn trace_compose_rejects_an_undeclared_inv_region() {
    let corpus = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/trace/corpus/tatas-counter.dvst"
    );
    let text = std::fs::read_to_string(corpus).expect("read corpus trace");
    let mutant = text.replacen("\ninv 1\n", "\ninv 65535\n", 1);
    assert_ne!(mutant, text, "corpus trace lost its `inv 1`");
    let tmp = std::env::temp_dir();
    let path = tmp.join(format!("dvs-cli-inv-{}.dvst", std::process::id()));
    let out = tmp.join(format!("dvs-cli-inv-out-{}.dvst", std::process::id()));
    std::fs::write(&path, mutant).expect("write mutant");
    let (file, out_file) = (path.to_string_lossy(), out.to_string_lossy());
    let stderr = usage_error(&["trace", "compose", &out_file, corpus, &file]);
    std::fs::remove_file(&path).ok();
    assert!(!out.exists(), "a rejected compose must write nothing");
    assert!(
        stderr.contains("`inv 65535` names undeclared region 65535"),
        "{stderr}"
    );
}

/// A `.dvst` with a second `cores` record is a usage error naming both
/// lines: it used to drop every op parsed before it, so `trace show`
/// printed `ops 0` and a replay "passed" in 0 cycles.
#[test]
fn trace_show_rejects_a_second_cores_record() {
    let path = std::env::temp_dir().join(format!("dvs-cli-cores-{}.dvst", std::process::id()));
    std::fs::write(&path, "dvst 1\ncores 1\ncore 0 2\nex 5\nhalt\ncores 1\n")
        .expect("write mutant");
    let stderr = usage_error(&["trace", "show", &path.to_string_lossy()]);
    std::fs::remove_file(&path).ok();
    assert!(
        stderr.contains("line 6: second `cores` record (first on line 2)"),
        "{stderr}"
    );
}

#[test]
fn tables_rejects_an_unknown_protocol_or_argument() {
    let err = usage_error(&["tables", "--proto", "mosi"]);
    assert!(err.contains("unknown protocol"), "{err}");
    let err = usage_error(&["tables", "extra"]);
    assert!(err.contains("usage: dvs tables"), "{err}");
}

#[test]
fn tables_prints_one_protocols_controllers() {
    let out = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .args(["tables", "--proto", "ds0"])
        .output()
        .expect("spawn dvs");
    assert!(out.status.success());
    let md = String::from_utf8_lossy(&out.stdout);
    assert!(md.contains("#### DeNovo L1 (DS0)") && md.contains("#### DeNovo registry (DS0)"));
    // DeNovoSync0 runs the base rows only: no backoff override, no sync path.
    assert!(
        !md.contains("DS override") && !md.contains("| GCS |"),
        "{md}"
    );
    assert!(md.contains("mutation `dnv-drop-xfer`"), "{md}");
}
