//! Service-level robustness tests: warm caching, the corruption trio,
//! admission control, deadlines, retry exhaustion, and degradation.

use dvs_campaign::ExperimentSpec;
use dvs_core::config::Protocol;
use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};
use dvs_serve::{AdmissionError, JobSpec, RetryPolicy, Serve, ServeConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

const FPR: u64 = 0xabcd_1234;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dvs-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.workers = 2;
    cfg.fingerprint = FPR;
    cfg.sync_journal = false; // tests don't need fsync latency
    cfg.retry = RetryPolicy {
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        ..RetryPolicy::default()
    };
    cfg
}

/// A three-cell campaign job: the TATAS counter on every protocol.
fn counter_job() -> JobSpec {
    let specs = Protocol::ALL
        .iter()
        .map(|&proto| {
            ExperimentSpec::kernel(
                KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
                KernelParams::smoke(4),
                proto,
            )
        })
        .collect();
    JobSpec::Campaign(specs)
}

fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join("store/entries"))
        .expect("entries dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    files
}

/// Litmus cells run on the checker's machine for the test, so an 8-thread
/// litmus gets 8 cores rather than a hard-coded 4.
#[test]
fn eight_thread_litmus_cells_compute_on_every_protocol() {
    let dir = tmp_dir("tatas8");
    let mut serve = Serve::open(config(&dir)).expect("open");
    let job = JobSpec::Litmus {
        names: vec!["tatas8".to_owned()],
        protocols: Protocol::ALL.to_vec(),
    };
    let id = serve.submit(&job).expect("submit");
    let report = serve.run_job(id).expect("run");
    assert_eq!(report.computed, 3);
    assert_eq!(report.failed, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_rerun_serves_everything_from_cache_with_identical_digest() {
    let dir = tmp_dir("warm");
    let mut serve = Serve::open(config(&dir)).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    let cold = serve.run_job(id).expect("run");
    assert_eq!(cold.computed, 3);
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.failed, 0);
    assert!(cold.wall_nanos > 0, "compute time is accounted");

    // A fresh service process, same directory: all hits, same digest, no
    // compute wall-clock.
    let mut serve = Serve::open(config(&dir)).expect("reopen");
    let id = serve.submit(&counter_job()).expect("submit");
    let warm = serve.run_job(id).expect("run");
    assert_eq!(warm.hits, 3);
    assert_eq!(warm.computed, 0);
    assert_eq!(warm.wall_nanos, 0);
    assert_eq!(warm.digest, cold.digest, "cache cannot change results");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corruption_trio_is_quarantined_and_recomputed_byte_identically() {
    let dir = tmp_dir("trio");
    let mut serve = Serve::open(config(&dir)).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    let cold = serve.run_job(id).expect("run");
    drop(serve);

    let files = entry_files(&dir);
    assert_eq!(files.len(), 3);
    let originals: Vec<Vec<u8>> = files
        .iter()
        .map(|p| fs::read(p).expect("read entry"))
        .collect();

    // Corrupt each entry a different way.
    // 1) Truncation: chop into the payload.
    fs::write(&files[0], &originals[0][..originals[0].len() - 3]).expect("truncate");
    // 2) Bit flip inside the payload (the payload is the trailing section).
    let mut flipped = originals[1].clone();
    let n = flipped.len();
    flipped[n - 2] ^= 0x40;
    fs::write(&files[1], &flipped).expect("bit-flip");
    // 3) Stale code fingerprint: rewrite the fpr= line in place, as if the
    //    entry had been written by older code at the same key.
    let text = String::from_utf8(originals[2].clone()).expect("utf8 entry");
    let stale = text.replace(&format!("fpr={FPR:016x}"), "fpr=0000000000000001");
    assert_ne!(stale, text, "fpr line must be present to rewrite");
    fs::write(&files[2], stale).expect("stale");

    // Re-run: every entry is detected, quarantined, and recomputed; the
    // digest is byte-identical to the cold run's.
    let mut serve = Serve::open(config(&dir)).expect("reopen");
    let id = serve.submit(&counter_job()).expect("submit");
    let warm = serve.run_job(id).expect("run");
    assert_eq!(warm.hits, 0);
    assert_eq!(warm.computed, 3);
    assert_eq!(warm.digest, cold.digest, "corruption cannot change results");
    assert_eq!(serve.counters().quarantine, 3);

    // The recomputed entries match the originals byte for byte.
    let recomputed = entry_files(&dir);
    assert_eq!(recomputed.len(), 3);
    for (path, original) in recomputed.iter().zip(&originals) {
        assert_eq!(
            &fs::read(path).expect("read recomputed"),
            original,
            "{path:?} must be rewritten byte-identically"
        );
    }

    // The bad entries were preserved for forensics, with their reasons.
    let mut reasons: Vec<String> = fs::read_dir(dir.join("store/quarantine"))
        .expect("quarantine dir")
        .map(|e| {
            let name = e.expect("entry").file_name().into_string().expect("name");
            name.rsplit('.').next().expect("reason suffix").to_owned()
        })
        .collect();
    reasons.sort();
    assert_eq!(reasons, ["corrupt", "stale", "truncated"]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_control_refuses_jobs_over_the_pending_limit() {
    let dir = tmp_dir("admission");
    let mut cfg = config(&dir);
    cfg.max_pending_jobs = 1;
    let mut serve = Serve::open(cfg).expect("open");
    serve.submit(&counter_job()).expect("first job fits");
    assert_eq!(
        serve.submit(&counter_job()),
        Err(AdmissionError::Busy {
            pending: 1,
            limit: 1
        })
    );
    assert_eq!(
        serve.submit(&JobSpec::Campaign(Vec::new())),
        Err(AdmissionError::Empty)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadline_fails_cells_terminally_without_compute() {
    let dir = tmp_dir("deadline");
    let mut cfg = config(&dir);
    cfg.deadline = Some(Duration::ZERO);
    let mut serve = Serve::open(cfg).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    let report = serve.run_job(id).expect("run");
    assert_eq!(report.failed, 3);
    assert_eq!(report.computed, 0);
    assert_eq!(serve.counters().deadline, 3);
    let journal = fs::read_to_string(dir.join("journal.log")).expect("journal");
    assert!(journal.contains(" err deadline "), "{journal}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transient_failures_retry_with_backoff_then_exhaust() {
    let dir = tmp_dir("retry");
    let mut serve = Serve::open(config(&dir)).expect("open");
    // threads = 0 panics in the workload builder on every attempt: a
    // transient classification that never recovers.
    let mut params = KernelParams::smoke(4);
    params.threads = 0;
    let spec = ExperimentSpec::kernel(
        KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
        params,
        Protocol::Mesi,
    );
    let id = serve
        .submit(&JobSpec::Campaign(vec![spec]))
        .expect("submit");
    let report = serve.run_job(id).expect("run");
    assert_eq!(report.failed, 1);
    assert_eq!(report.retries, 2, "3 attempts = 2 retries");
    let journal = fs::read_to_string(dir.join("journal.log")).expect("journal");
    assert!(journal.contains(" err exhausted "), "{journal}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn over_budget_store_sheds_writes_but_keeps_serving() {
    let dir = tmp_dir("budget");
    let mut cfg = config(&dir);
    cfg.store_budget = Some(10); // smaller than any entry
    let mut serve = Serve::open(cfg.clone()).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    let first = serve.run_job(id).expect("run");
    assert_eq!(first.computed, 3);
    assert_eq!(first.failed, 0);
    assert_eq!(serve.counters().shed, 3);

    // Nothing was cached, so a re-run recomputes — to the same digest.
    let mut serve = Serve::open(cfg).expect("reopen");
    let id = serve.submit(&counter_job()).expect("submit");
    let second = serve.run_job(id).expect("run");
    assert_eq!(second.hits, 0);
    assert_eq!(second.computed, 3);
    assert_eq!(second.digest, first.digest);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unavailable_store_degrades_to_compute_only() {
    let reference = tmp_dir("degraded-ref");
    let mut serve = Serve::open(config(&reference)).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    let want = serve.run_job(id).expect("run").digest;
    drop(serve);

    let dir = tmp_dir("degraded");
    fs::create_dir_all(&dir).expect("mkdir");
    // A *file* where the store directory belongs: Store::open fails, the
    // service degrades to compute-only instead of refusing to start.
    fs::write(dir.join("store"), "not a directory").expect("block store");
    let mut serve = Serve::open(config(&dir)).expect("open degraded");
    let id = serve.submit(&counter_job()).expect("submit");
    let report = serve.run_job(id).expect("run");
    assert_eq!(report.computed, 3);
    assert_eq!(report.failed, 0);
    assert_eq!(report.digest, want, "degradation cannot change results");
    assert_eq!(serve.counters().shed, 3);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn submitted_but_unrun_job_survives_restart_and_resumes() {
    let dir = tmp_dir("resume");
    let mut serve = Serve::open(config(&dir)).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    drop(serve); // "crash" before any cell ran

    let reference = tmp_dir("resume-ref");
    let mut refserve = Serve::open(config(&reference)).expect("open ref");
    let rid = refserve.submit(&counter_job()).expect("submit ref");
    let want = refserve.run_job(rid).expect("run ref").digest;
    drop(refserve);

    let mut serve = Serve::open(config(&dir)).expect("reopen");
    let status = serve.status();
    assert_eq!(status.len(), 1);
    assert_eq!(status[0].pending, 3);
    assert_eq!(status[0].digest, None);
    let reports = serve.resume_all().expect("resume");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].id, id);
    assert_eq!(reports[0].computed, 3);
    assert_eq!(reports[0].digest, want);
    assert!(serve.status()[0].digest.is_some());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn metrics_registry_exports_the_counters() {
    let dir = tmp_dir("metrics");
    let mut serve = Serve::open(config(&dir)).expect("open");
    let id = serve.submit(&counter_job()).expect("submit");
    serve.run_job(id).expect("run");
    let m = serve.metrics();
    assert_eq!(m.counter("serve", "cell", "computed"), 3);
    assert_eq!(m.counter("serve", "cache", "miss"), 3);
    assert_eq!(m.counter("serve", "cache", "hit"), 0);
    let _ = fs::remove_dir_all(&dir);
}
