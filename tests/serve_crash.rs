//! The headline robustness test: `kill -9` a service mid-campaign, restart
//! it, and demand the resumed job's final digest be byte-identical to an
//! uninterrupted run — then re-run warm and demand the cache serve it.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs-serve-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("serve")
        .args(args)
        .output()
        .expect("spawn dvs serve")
}

/// Pulls `digest=<16 hex>` off a `job=...` summary line.
fn digest_of(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if let Some((_, d)) = line.split_once("digest=") {
            return d.trim().to_owned();
        }
    }
    panic!(
        "no digest line in output:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn field_of(output: &Output, key: &str) -> u64 {
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if let Some((_, rest)) = line.split_once(&format!("{key}=")) {
            let tok: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            return tok
                .parse()
                .unwrap_or_else(|_| panic!("bad {key} in {line:?}"));
        }
    }
    panic!("no {key} in output: {stdout}");
}

fn dir_arg(dir: &Path) -> String {
    dir.to_string_lossy().into_owned()
}

#[test]
fn sigkill_mid_job_resumes_to_the_uninterrupted_digest() {
    // Reference: an uninterrupted cold run of the same grid elsewhere.
    let ref_dir = tmp_dir("ref");
    let reference = serve(&[
        "submit",
        "--dir",
        &dir_arg(&ref_dir),
        "--grid",
        "smoke",
        "--workers",
        "2",
    ]);
    assert!(
        reference.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let want = digest_of(&reference);

    // Victim: same grid, slowed down so the kill lands mid-job, then
    // SIGKILLed while cells are still pending.
    let dir = tmp_dir("victim");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("serve")
        .args([
            "submit",
            "--dir",
            &dir_arg(&dir),
            "--grid",
            "smoke",
            "--workers",
            "2",
            "--cell-delay-ms",
            "200",
        ])
        .spawn()
        .expect("spawn victim");
    // Kill as soon as the journal shows the first completed cell: the
    // 200ms-per-cell delay floors the remaining work at well over a
    // second, so the SIGKILL reliably lands with cells still pending.
    let journal = dir.join("journal.log");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "victim never completed a first cell"
        );
        assert!(
            child.try_wait().expect("poll victim").is_none(),
            "the victim finished before it could be killed; raise --cell-delay-ms"
        );
        let done_cells = std::fs::read_to_string(&journal)
            .map(|j| j.lines().filter(|l| l.starts_with("cell ")).count())
            .unwrap_or(0);
        if done_cells >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    child.kill().expect("SIGKILL"); // Child::kill is SIGKILL on unix
    let status = child.wait().expect("reap");
    assert!(
        !status.success(),
        "the victim must not have finished cleanly"
    );

    // Restart and resume: some cells replay from the journal, the rest
    // compute, and the digest matches the uninterrupted run exactly.
    let resumed = serve(&["resume", "--dir", &dir_arg(&dir), "--workers", "2"]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        digest_of(&resumed),
        want,
        "resumed digest must be byte-identical to the uninterrupted run"
    );
    let computed = field_of(&resumed, "computed");
    let cells = field_of(&resumed, "cells");
    assert!(
        computed < cells,
        "the kill should have landed after some cells completed \
         (computed {computed} of {cells}); if this flakes, raise the delay"
    );

    // Warm re-run on the reference directory: >= 90% served from cache.
    let warm = serve(&[
        "submit",
        "--dir",
        &dir_arg(&ref_dir),
        "--grid",
        "smoke",
        "--workers",
        "2",
    ]);
    assert!(warm.status.success());
    assert_eq!(digest_of(&warm), want);
    let hits = field_of(&warm, "hits");
    assert!(
        hits * 10 >= cells * 9,
        "warm re-run must hit >= 90% ({hits}/{cells})"
    );

    // And the store verifies clean end to end.
    let verify = serve(&["verify-store", "--dir", &dir_arg(&ref_dir)]);
    assert!(verify.status.success());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
