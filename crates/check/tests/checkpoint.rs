//! Checkpoint/resume drills for the iterative-deepening driver: a run
//! interrupted by a fired round budget resumes from its checkpoint file and
//! reports the *same* verdict and the same cumulative exact-mode
//! `unique_states` as an uninterrupted run. A checkpoint that cannot be
//! trusted (bit flip, truncation, wrong model) is rejected with a hard
//! error before anything is explored — never silently skipped. The
//! `kill -9` variant drives the `dvs` binary, so it lives in the root
//! package's `tests/check_sigkill.rs`.

use dvs_check::checkpoint::CheckpointError;
use dvs_check::{
    deepen_litmus, explore, litmus_root, CheckConfig, Checkpoint, DeepenConfig, Verdict,
};
use dvs_core::config::Protocol;
use dvs_core::system::System;
use dvs_vm::litmus;
use std::path::{Path, PathBuf};

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

fn deepen_cfg(checkpoint: Option<PathBuf>, round_states: u64) -> DeepenConfig {
    DeepenConfig {
        base: CheckConfig::default(),
        start_depth: 6,
        step: 6,
        max_depth: 60,
        round_states,
        checkpoint,
        round_delay: None,
    }
}

/// Budget-truncation variant: a run whose round budget fires mid-deepening
/// leaves the previous round's checkpoint on disk; resuming it with the
/// budget lifted reproduces the uninterrupted run's verdict and cumulative
/// unique-state count exactly.
#[test]
fn budget_truncated_run_resumes_to_the_uninterrupted_result() {
    let lit = litmus::tatas();
    let uninterrupted = deepen_litmus(&lit, Protocol::Mesi, None, &deepen_cfg(None, u64::MAX))
        .expect("no checkpoint file involved");
    assert!(matches!(uninterrupted.report.verdict, Verdict::Verified));
    assert!(!uninterrupted.resumed);

    // Self-calibrate the interrupting budget: walk a ladder until some
    // round *after* the first completed one exhausts it — that leaves a
    // checkpoint on disk and a state-truncated report.
    let ckpt = TmpPath::new("budget");
    let mut budget = 10u64;
    let interrupted = loop {
        assert!(budget < 1_000_000, "no budget interrupts mid-deepening");
        let out = deepen_litmus(
            &lit,
            Protocol::Mesi,
            None,
            &deepen_cfg(Some(ckpt.path().to_path_buf()), budget),
        )
        .expect("a fresh checkpoint path never fails to load");
        if out.report.stats.state_truncated && ckpt.path().exists() {
            break out;
        }
        // Budget too small (round 1 itself truncated: nothing saved) or
        // too large (run completed: checkpoint deleted) — step up.
        assert!(!ckpt.path().exists());
        budget = budget * 3 / 2 + 1;
    };
    assert!(matches!(interrupted.report.verdict, Verdict::Verified));

    let resumed = deepen_litmus(
        &lit,
        Protocol::Mesi,
        None,
        &deepen_cfg(Some(ckpt.path().to_path_buf()), u64::MAX),
    )
    .expect("checkpoint written by deepen loads");
    assert!(resumed.resumed, "run did not pick up the checkpoint");
    assert!(matches!(resumed.report.verdict, Verdict::Verified));
    assert_eq!(
        resumed.report.stats.unique_states, uninterrupted.report.stats.unique_states,
        "resumed cumulative unique-state count diverged from the uninterrupted run"
    );
    assert!(
        resumed.rounds < uninterrupted.rounds,
        "resume re-ran rounds the checkpoint had already completed"
    );
    assert!(
        !ckpt.path().exists(),
        "completed run must remove its checkpoint"
    );
}

/// A genuine checkpoint for the tatas/MESI model: explore to a shallow
/// depth bound with frontier collection on, and wrap the result.
fn genuine_checkpoint() -> Checkpoint {
    let root = litmus_root(&litmus::tatas(), Protocol::Mesi, None);
    let cfg = CheckConfig {
        max_depth: 6,
        collect_frontier: true,
        ..CheckConfig::default()
    };
    let report = explore(&root, &|_: &System| Ok(()), &cfg);
    assert!(!report.frontier.is_empty(), "depth 6 must truncate tatas");
    Checkpoint {
        root_fp: root.fingerprint(),
        depth: 6,
        round: 1,
        stats: report.stats,
        frontier: report.frontier,
    }
}

/// Save/load is lossless for everything a resume consumes.
#[test]
fn checkpoint_round_trips_through_its_file() {
    let ck = genuine_checkpoint();
    let path = TmpPath::new("roundtrip");
    ck.save(path.path()).expect("save");
    let loaded = Checkpoint::load(path.path()).expect("load");
    assert_eq!(loaded, ck);
}

/// Every way a checkpoint file can lie — a flipped bit anywhere, a torn
/// (truncated) tail, garbage content — is a hard `Corrupt` rejection, and
/// [`deepen_litmus`] propagates it without exploring or deleting the file.
#[test]
fn corrupt_checkpoints_are_rejected_not_skipped() {
    let ck = genuine_checkpoint();
    let path = TmpPath::new("corrupt");
    ck.save(path.path()).expect("save");
    let pristine = std::fs::read(path.path()).expect("read back");

    let expect_corrupt = |bytes: &[u8], what: &str| {
        std::fs::write(path.path(), bytes).expect("write corrupted");
        match Checkpoint::load(path.path()) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what}: want Corrupt, got {other:?}"),
        }
        // The deepening driver refuses the same way, before exploring.
        let cfg = deepen_cfg(Some(path.path().to_path_buf()), u64::MAX);
        match deepen_litmus(&litmus::tatas(), Protocol::Mesi, None, &cfg) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("{what}: deepen must reject, got {other:?}"),
        }
        assert!(
            path.path().exists(),
            "{what}: rejection must never delete the file"
        );
    };

    // A flipped bit at several offsets: magic, header, frontier, checksum.
    for &offset in &[0, 9, 40, pristine.len() / 2, pristine.len() - 1] {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x10;
        expect_corrupt(&bytes, &format!("bit flip at byte {offset}"));
    }
    // Torn writes: every truncation point is rejected.
    for &cut in &[0, 7, 30, pristine.len() / 2, pristine.len() - 1] {
        expect_corrupt(&pristine[..cut], &format!("truncated to {cut} bytes"));
    }
    // Trailing garbage after a valid image.
    let mut padded = pristine.clone();
    padded.extend_from_slice(&[0xAB; 3]);
    expect_corrupt(&padded, "trailing bytes");
}

/// A well-formed checkpoint for a *different* model (root fingerprint
/// mismatch) is a `ModelMismatch` rejection: resuming tatas's frontier
/// into sb's state space would silently explore the wrong model.
#[test]
fn checkpoints_are_bound_to_their_model() {
    let ck = genuine_checkpoint(); // tatas under MESI
    let path = TmpPath::new("mismatch");
    ck.save(path.path()).expect("save");
    let cfg = deepen_cfg(Some(path.path().to_path_buf()), u64::MAX);
    match deepen_litmus(&litmus::sb(), Protocol::Mesi, None, &cfg) {
        Err(CheckpointError::ModelMismatch { expected, found }) => {
            assert_eq!(found, ck.root_fp);
            assert_ne!(expected, found);
        }
        other => panic!("want ModelMismatch, got {other:?}"),
    }
    assert!(path.path().exists(), "rejection must never delete the file");
}
