//! The job service: admission, execution, durability, degradation.
//!
//! [`Serve`] owns one *service directory* containing the write-ahead
//! [`Journal`], the content-addressed [`Store`], and one `job-<id>.cells`
//! file per admitted job (the job's ordered cell-token list, written
//! durably *before* the journal admits the job, so recovery can always
//! re-expand a recovered job into the exact cells it was admitted with).
//!
//! Execution discipline per cell, in order:
//!
//! 1. **Cache lookup.** A clean store hit is journaled as completed with
//!    zero compute wall-clock; a quarantined entry is counted and falls
//!    through to recompute; a miss falls through.
//! 2. **Compute with retry.** Transient failures (panics, cycle limits)
//!    retry up to the [`RetryPolicy`] budget with jittered exponential
//!    backoff; deterministic failures fail immediately. A job deadline
//!    turns not-yet-started attempts into terminal `deadline` failures.
//! 3. **Journal, then cache.** The cell's terminal fact (payload digest or
//!    failure class) is appended to the journal; the payload itself goes to
//!    the store, where a failed or shed write degrades the cache, never the
//!    job.
//!
//! The job digest folds per-cell payload digests *from the journal*, in
//! cell order — so a resumed job reproduces the uninterrupted digest even
//! if every cache write was shed.

use crate::job::{CellSpec, FailureClass, JobSpec};
use crate::journal::{CellOutcome, Journal, JournalEvent, RecoveredJob};
use crate::retry::RetryPolicy;
use crate::store::{self, GcReport, Lookup, PutOutcome, Store, VerifyReport};
use dvs_engine::{fnv1a, fnv1a_str, parallel_indexed, write_durable, FNV_OFFSET};
use dvs_telemetry::MetricsRegistry;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the service runs: directory, concurrency, and policies.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The service directory (journal, store, cell lists).
    pub dir: PathBuf,
    /// Worker threads per job.
    pub workers: usize,
    /// Admission limit: unfinished jobs allowed in the directory.
    pub max_pending_jobs: usize,
    /// Per-job compute deadline; cells not started by then fail `deadline`.
    pub deadline: Option<Duration>,
    /// Retry budget for transient cell failures.
    pub retry: RetryPolicy,
    /// Store size budget in bytes (`None` = unbounded).
    pub store_budget: Option<u64>,
    /// Code fingerprint folded into every cache key.
    pub fingerprint: u64,
    /// fsync the journal on every append (crash-safe; the default).
    pub sync_journal: bool,
    /// Debug: sleep this long before each cell compute. Lets crash tests
    /// reliably land a `kill -9` mid-job.
    pub cell_delay: Option<Duration>,
}

impl ServeConfig {
    /// A crash-safe default configuration rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_pending_jobs: 8,
            deadline: None,
            retry: RetryPolicy::default(),
            store_budget: None,
            fingerprint: crate::code_fingerprint(),
            sync_journal: true,
            cell_delay: None,
        }
    }
}

/// Why a job was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The unfinished-job limit is reached; finish or resume first.
    Busy {
        /// Unfinished jobs currently in the directory.
        pending: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The job expands to zero cells.
    Empty,
    /// The durable cell list or journal record could not be written —
    /// without it the job would not survive a crash, so it is refused.
    Io(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Busy { pending, limit } => {
                write!(
                    f,
                    "{pending} unfinished jobs (limit {limit}); resume or gc first"
                )
            }
            AdmissionError::Empty => write!(f, "job expands to zero cells"),
            AdmissionError::Io(e) => write!(f, "could not persist job: {e}"),
        }
    }
}

/// What one `run_job` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// The job.
    pub id: u64,
    /// Total cells in the job.
    pub cells: usize,
    /// Cells served from the store this call.
    pub hits: usize,
    /// Cells computed (fresh or recomputed) this call.
    pub computed: usize,
    /// Cells that ended in a terminal failure this call.
    pub failed: usize,
    /// Retry attempts spent this call.
    pub retries: usize,
    /// The job's final results digest (worker-count independent).
    pub digest: u64,
    /// Total compute wall-clock this call, in nanoseconds (cache hits
    /// contribute zero). Never part of the digest.
    pub wall_nanos: u64,
}

/// One job's standing, for `status` — recovered entirely from the journal,
/// so it is accurate even for jobs another (crashed) process ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job.
    pub id: u64,
    /// Kind label as journaled.
    pub kind: String,
    /// Total cells.
    pub cells: usize,
    /// Cells with a terminal outcome.
    pub completed: usize,
    /// Cells with no terminal outcome yet.
    pub pending: usize,
    /// Cells that ended in a terminal failure.
    pub failed: usize,
    /// Retry attempts journaled across all the job's cells and runs.
    pub retries: u64,
    /// Compute wall-clock journaled for completed cells, in nanoseconds.
    pub wall_nanos: u64,
    /// Final digest once finished.
    pub digest: Option<u64>,
}

/// Monotonic service counters (shared across jobs and worker threads).
#[derive(Debug, Default)]
struct Counters {
    hit: AtomicU64,
    miss: AtomicU64,
    quarantine: AtomicU64,
    shed: AtomicU64,
    retry: AtomicU64,
    computed: AtomicU64,
    failed: AtomicU64,
    deadline: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Cache hits.
    pub hit: u64,
    /// Cache misses (clean absences, not quarantines).
    pub miss: u64,
    /// Entries quarantined on read.
    pub quarantine: u64,
    /// Cache writes shed (store unavailable, over budget, or I/O error).
    pub shed: u64,
    /// Retry attempts after transient failures.
    pub retry: u64,
    /// Cells computed.
    pub computed: u64,
    /// Cells terminally failed.
    pub failed: u64,
    /// Cells that missed the job deadline.
    pub deadline: u64,
}

impl Counters {
    fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            hit: self.hit.load(Ordering::Relaxed),
            miss: self.miss.load(Ordering::Relaxed),
            quarantine: self.quarantine.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retry: self.retry.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline: self.deadline.load(Ordering::Relaxed),
        }
    }
}

/// The open service.
#[derive(Debug)]
pub struct Serve {
    config: ServeConfig,
    journal: Mutex<Journal>,
    store: Mutex<Store>,
    jobs: Vec<RecoveredJob>,
    counters: Counters,
}

impl Serve {
    /// Opens the service directory, replaying the journal into job state.
    /// A store that cannot be opened degrades the service to compute-only
    /// (every read misses, every write sheds) rather than failing.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or opening the journal — the
    /// journal is the one component the service will not run without.
    pub fn open(config: ServeConfig) -> io::Result<Serve> {
        fs::create_dir_all(&config.dir)?;
        let (journal, jobs) = Journal::open(&config.dir.join("journal.log"), config.sync_journal)?;
        let store = match Store::open(
            &config.dir.join("store"),
            config.fingerprint,
            config.store_budget,
        ) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("dvs serve: store unavailable ({e}); degrading to compute-only");
                Store::disabled()
            }
        };
        Ok(Serve {
            config,
            journal: Mutex::new(journal),
            store: Mutex::new(store),
            jobs,
            counters: Counters::default(),
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Current counter values.
    pub fn counters(&self) -> ServeCounters {
        self.counters.snapshot()
    }

    fn cells_path(&self, id: u64) -> PathBuf {
        self.config.dir.join(format!("job-{id}.cells"))
    }

    /// Admits a job: the expanded cell-token list is written durably, then
    /// the journal records the admission. Returns the new job id.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Busy`] over the unfinished-job limit,
    /// [`AdmissionError::Empty`] for zero-cell jobs, and
    /// [`AdmissionError::Io`] when the durable records cannot be written.
    pub fn submit(&mut self, job: &JobSpec) -> Result<u64, AdmissionError> {
        let cells = job.cells();
        if cells.is_empty() {
            return Err(AdmissionError::Empty);
        }
        let pending = self.jobs.iter().filter(|j| j.done.is_none()).count();
        if pending >= self.config.max_pending_jobs {
            return Err(AdmissionError::Busy {
                pending,
                limit: self.config.max_pending_jobs,
            });
        }
        let id = self.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
        let body: String = cells.iter().map(|c| c.token() + "\n").collect();
        write_durable(&self.cells_path(id), body.as_bytes())
            .map_err(|e| AdmissionError::Io(e.to_string()))?;
        let kind = job.kind().to_owned();
        self.journal
            .get_mut()
            .expect("journal lock")
            .append(&JournalEvent::Job {
                id,
                cells: cells.len(),
                kind: kind.clone(),
            })
            .map_err(|e| AdmissionError::Io(e.to_string()))?;
        self.jobs.push(RecoveredJob {
            id,
            kind,
            outcomes: vec![None; cells.len()],
            retries: 0,
            done: None,
        });
        Ok(id)
    }

    /// Runs a job's pending cells to terminal state on the worker pool,
    /// journaling each, then seals the job with its final digest. Already-
    /// terminal cells (from a previous run or a crash-interrupted one) are
    /// never re-executed — this is both the warm-cache path and the
    /// crash-resume path.
    ///
    /// # Errors
    ///
    /// Unknown job id, unreadable/garbled cell list, or a cell-list length
    /// that disagrees with the journaled admission.
    pub fn run_job(&mut self, id: u64) -> io::Result<JobReport> {
        let pos = self
            .jobs
            .iter()
            .position(|j| j.id == id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no job {id}")))?;
        let text = fs::read_to_string(self.cells_path(id))?;
        let cells: Vec<CellSpec> = text
            .lines()
            .map(CellSpec::from_token)
            .collect::<Result<_, _>>()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if cells.len() != self.jobs[pos].outcomes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "job {id}: cell list has {} cells, journal admitted {}",
                    cells.len(),
                    self.jobs[pos].outcomes.len()
                ),
            ));
        }
        let pending = self.jobs[pos].pending();
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        let before = self.counters.snapshot();
        let wall = AtomicU64::new(0);

        let this = &*self;
        let fresh: Vec<(usize, CellOutcome)> =
            parallel_indexed(pending.len(), self.config.workers, |slot| {
                let index = pending[slot];
                let outcome = this.run_cell(id, index, &cells[index], deadline, &wall);
                (index, outcome)
            });

        for (index, outcome) in fresh {
            self.jobs[pos].outcomes[index] = Some(outcome);
        }
        let after_retries = self.counters.snapshot().retry;
        self.jobs[pos].retries += after_retries - before.retry;
        let digest = fold_digest(&self.jobs[pos].outcomes);
        if self.jobs[pos].done != Some(digest) {
            if let Err(e) = self
                .journal
                .get_mut()
                .expect("journal lock")
                .append(&JournalEvent::Done { job: id, digest })
            {
                eprintln!("dvs serve: job {id} done record lost ({e}); next open will re-seal");
            }
            self.jobs[pos].done = Some(digest);
        }
        let after = self.counters.snapshot();
        Ok(JobReport {
            id,
            cells: cells.len(),
            hits: (after.hit - before.hit) as usize,
            computed: (after.computed - before.computed) as usize,
            failed: (after.failed - before.failed) as usize,
            retries: (after.retry - before.retry) as usize,
            digest,
            wall_nanos: wall.load(Ordering::Relaxed),
        })
    }

    /// Drives one cell to a terminal outcome: cache, compute-with-retry,
    /// journal. Runs on worker threads — everything shared is behind a
    /// mutex or atomic.
    fn run_cell(
        &self,
        job: u64,
        index: usize,
        cell: &CellSpec,
        deadline: Option<Instant>,
        wall: &AtomicU64,
    ) -> CellOutcome {
        let token = cell.token();
        match self.store.lock().expect("store lock").get(&token) {
            Lookup::Hit(payload) => {
                self.counters.hit.fetch_add(1, Ordering::Relaxed);
                let outcome = CellOutcome::Ok {
                    payload_fnv: store::payload_fnv(&payload),
                    wall_nanos: 0,
                };
                self.journal_cell(job, index, &outcome);
                return outcome;
            }
            Lookup::Quarantined(reason) => {
                self.counters.quarantine.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "dvs serve: job {job} cell {index}: entry quarantined ({reason}); recomputing"
                );
            }
            Lookup::Miss => {
                self.counters.miss.fetch_add(1, Ordering::Relaxed);
            }
        }

        let key = store::cell_key(&token, self.config.fingerprint);
        let mut attempt = 1u32;
        let outcome = loop {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    self.counters.deadline.fetch_add(1, Ordering::Relaxed);
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                    break CellOutcome::Err {
                        class: "deadline".to_owned(),
                    };
                }
            }
            if let Some(delay) = self.config.cell_delay {
                std::thread::sleep(delay);
            }
            let result = cell.execute();
            wall.fetch_add(result.wall_nanos, Ordering::Relaxed);
            match result.outcome {
                Ok(payload) => {
                    self.counters.computed.fetch_add(1, Ordering::Relaxed);
                    if let PutOutcome::Shed(reason) =
                        self.store.lock().expect("store lock").put(&token, &payload)
                    {
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("dvs serve: cache write shed ({reason}) for {token}");
                    }
                    break CellOutcome::Ok {
                        payload_fnv: store::payload_fnv(&payload),
                        wall_nanos: result.wall_nanos,
                    };
                }
                Err(failure) => {
                    if failure.class == FailureClass::Transient
                        && attempt < self.config.retry.max_attempts
                    {
                        self.counters.retry.fetch_add(1, Ordering::Relaxed);
                        // Progress-only fact: lost appends degrade status
                        // accuracy, never the digest.
                        if let Err(e) = self.journal.lock().expect("journal lock").append(
                            &JournalEvent::Retry {
                                job,
                                index,
                                attempt,
                            },
                        ) {
                            eprintln!("dvs serve: retry record lost ({e})");
                        }
                        std::thread::sleep(self.config.retry.delay(attempt, key));
                        attempt += 1;
                        continue;
                    }
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                    let class = match failure.class {
                        FailureClass::Deterministic => "deterministic",
                        FailureClass::Transient => "exhausted",
                    };
                    eprintln!(
                        "dvs serve: job {job} cell {index} failed ({class}): {}",
                        failure.detail
                    );
                    break CellOutcome::Err {
                        class: class.to_owned(),
                    };
                }
            }
        };
        self.journal_cell(job, index, &outcome);
        outcome
    }

    /// Appends a cell's terminal fact. A journal write failure degrades
    /// durability (this cell recomputes after a crash), never the job.
    fn journal_cell(&self, job: u64, index: usize, outcome: &CellOutcome) {
        let event = match outcome {
            CellOutcome::Ok {
                payload_fnv,
                wall_nanos,
            } => JournalEvent::CellOk {
                job,
                index,
                payload_fnv: *payload_fnv,
                wall_nanos: *wall_nanos,
            },
            CellOutcome::Err { class } => JournalEvent::CellErr {
                job,
                index,
                class: class.clone(),
            },
        };
        if let Err(e) = self.journal.lock().expect("journal lock").append(&event) {
            eprintln!("dvs serve: journal append failed ({e}); cell {job}/{index} not durable");
        }
    }

    /// Runs every unfinished job to completion, oldest first — the
    /// crash-recovery entry point.
    ///
    /// # Errors
    ///
    /// The first failing [`Serve::run_job`] error.
    pub fn resume_all(&mut self) -> io::Result<Vec<JobReport>> {
        let unfinished: Vec<u64> = self
            .jobs
            .iter()
            .filter(|j| j.done.is_none())
            .map(|j| j.id)
            .collect();
        unfinished.into_iter().map(|id| self.run_job(id)).collect()
    }

    /// Every job's standing, in admission order.
    pub fn status(&self) -> Vec<JobStatus> {
        self.jobs
            .iter()
            .map(|j| {
                let pending = j.pending().len();
                let failed = j
                    .outcomes
                    .iter()
                    .filter(|o| matches!(o, Some(CellOutcome::Err { .. })))
                    .count();
                JobStatus {
                    id: j.id,
                    kind: j.kind.clone(),
                    cells: j.outcomes.len(),
                    completed: j.outcomes.len() - pending,
                    pending,
                    failed,
                    retries: j.retries,
                    wall_nanos: j.wall_nanos(),
                    digest: j.done,
                }
            })
            .collect()
    }

    /// Integrity-checks every store entry, quarantining failures.
    pub fn verify_store(&mut self) -> VerifyReport {
        self.store.get_mut().expect("store lock").verify_all()
    }

    /// Evicts stale and over-budget store entries.
    pub fn gc_store(&mut self) -> GcReport {
        self.store.get_mut().expect("store lock").gc()
    }

    /// The service counters as a `dvs-telemetry` metrics tree, under
    /// `serve/cache/*`, `serve/retry/*`, and `serve/cell/*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let c = self.counters.snapshot();
        let mut m = MetricsRegistry::new();
        m.add("serve", "cache", "hit", c.hit);
        m.add("serve", "cache", "miss", c.miss);
        m.add("serve", "cache", "quarantine", c.quarantine);
        m.add("serve", "cache", "shed", c.shed);
        m.add("serve", "retry", "attempts", c.retry);
        m.add("serve", "cell", "computed", c.computed);
        m.add("serve", "cell", "failed", c.failed);
        m.add("serve", "cell", "deadline", c.deadline);
        m
    }
}

/// The job digest: cell order, then per-cell payload digest or failure
/// class. Worker-count independent, wall-clock free, and computable from
/// the journal alone.
fn fold_digest(outcomes: &[Option<CellOutcome>]) -> u64 {
    let mut h = FNV_OFFSET;
    for (index, outcome) in outcomes.iter().enumerate() {
        for byte in (index as u64).to_le_bytes() {
            h = fnv1a(h, byte);
        }
        match outcome {
            Some(CellOutcome::Ok { payload_fnv, .. }) => {
                h = fnv1a_str(h, "ok");
                for byte in payload_fnv.to_le_bytes() {
                    h = fnv1a(h, byte);
                }
            }
            Some(CellOutcome::Err { class }) => {
                h = fnv1a_str(h, "err:");
                h = fnv1a_str(h, class);
            }
            None => h = fnv1a_str(h, "pending"),
        }
    }
    h
}
