//! `status --follow`: tail a live journal from a separate process and see
//! every durable event — submission, per-cell completions, the final seal —
//! then exit cleanly once the job is done.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs-serve-follow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_arg(dir: &Path) -> String {
    dir.to_string_lossy().into_owned()
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("serve")
        .args(args)
        .output()
        .expect("spawn dvs serve")
}

/// The follower and the runner race from opposite ends: the follower starts
/// before the journal even exists, the runner is slowed so cells land while
/// the follower is polling, and the follower must exit on its own once the
/// job seals.
#[test]
fn follow_streams_a_live_job_and_exits_when_it_seals() {
    let dir = tmp_dir("live");
    let follower = Command::new(env!("CARGO_BIN_EXE_dvs"))
        .arg("serve")
        .args([
            "status",
            "--dir",
            &dir_arg(&dir),
            "--follow",
            "--poll-ms",
            "10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn follower");

    let run = serve(&[
        "submit",
        "--dir",
        &dir_arg(&dir),
        "--grid",
        "smoke",
        "--workers",
        "2",
        "--cell-delay-ms",
        "20",
    ]);
    assert!(
        run.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let out = follower.wait_with_output().expect("follower finishes");
    assert!(
        out.status.success(),
        "follower must exit 0 once the job seals: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let submitted = stdout
        .lines()
        .find(|l| l.ends_with("submitted"))
        .unwrap_or_else(|| panic!("no submission line in:\n{stdout}"));
    assert!(submitted.contains("cells=18"), "smoke grid is 18 cells");
    let oks = stdout
        .lines()
        .filter(|l| l.contains(" ok payload="))
        .count();
    assert_eq!(oks, 18, "every cell completion streams:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.contains("done digest=")),
        "the final seal streams:\n{stdout}"
    );

    // A second follow over the now-complete journal replays the same
    // events and exits immediately.
    let replay = serve(&["status", "--dir", &dir_arg(&dir), "--follow"]);
    assert!(replay.status.success());
    assert_eq!(
        String::from_utf8_lossy(&replay.stdout),
        stdout,
        "a follow of a sealed journal replays the identical stream"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
