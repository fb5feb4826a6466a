//! The `kill -9` checkpoint drill for `dvs check deepen`: a deepening run
//! killed between rounds resumes from its checkpoint file and reports the
//! same verdict and cumulative unique-state count as an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// A per-test scratch path in the system temp dir, removed on drop.
struct TmpPath(PathBuf);

impl TmpPath {
    fn new(name: &str) -> TmpPath {
        TmpPath(std::env::temp_dir().join(format!("dvs-ckpt-test-{}-{name}", std::process::id())))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn token<'o>(line: &'o str, key: &str) -> &'o str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= token in {line:?}"))
}

fn run_bin(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("check")
        .args(args)
        .output()
        .expect("dvs check runs");
    assert!(
        out.status.success(),
        "dvs check {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// SIGKILL variant: `dvs check deepen` is killed with signal 9 mid-
/// deepening (round delays widen the window), then relaunched on the same
/// checkpoint file. The resumed process reports `resumed=true` and the
/// same verdict and unique-state count as an uninterrupted invocation.
#[test]
fn sigkill_mid_run_resumes_to_the_uninterrupted_result() {
    let model = ["--litmus", "tatas", "--proto", "M"];
    let bounds = ["--start", "6", "--step", "2", "--max-depth", "40"];
    let uninterrupted = run_bin(&[&["deepen"][..], &model[..], &bounds[..]].concat());
    assert_eq!(token(&uninterrupted, "verdict"), "verified");

    let ckpt = TmpPath::new("sigkill");
    let ckpt_str = ckpt.path().to_str().expect("utf8 temp path").to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("check")
        .args([&["deepen"][..], &model[..], &bounds[..]].concat())
        .args(["--checkpoint", &ckpt_str, "--round-delay-ms", "500"])
        .spawn()
        .expect("dvs check spawns");
    // Wait for the first checkpoint to land, then kill -9 — mid-run, with
    // no chance for cleanup.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt.path().exists() {
        assert!(
            Instant::now() < deadline,
            "no checkpoint file appeared within 60s"
        );
        assert!(
            child.try_wait().expect("child wait").is_none(),
            "dvs check finished before it could be killed; widen the delay"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill -9");
    let status = child.wait().expect("child reaped");
    assert!(!status.success(), "killed process cannot exit cleanly");
    assert!(ckpt.path().exists(), "kill must not remove the checkpoint");

    let resumed = run_bin(
        &[
            &["deepen"][..],
            &model[..],
            &bounds[..],
            &["--checkpoint", &ckpt_str][..],
        ]
        .concat(),
    );
    assert_eq!(token(&resumed, "resumed"), "true");
    assert_eq!(token(&resumed, "verdict"), "verified");
    assert_eq!(
        token(&resumed, "unique"),
        token(&uninterrupted, "unique"),
        "resumed unique-state count diverged\n  uninterrupted: {uninterrupted}  resumed: {resumed}"
    );
    assert!(
        !ckpt.path().exists(),
        "completed run must remove its checkpoint"
    );
}
