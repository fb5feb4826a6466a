//! The parallel campaign runner.
//!
//! Work distribution is [`dvs_engine::parallel_indexed`]: a shared atomic
//! cursor over the spec list, self-scheduling worker threads, results
//! written into per-spec slots. Workers never exchange results, so the
//! report is independent of scheduling; a worker that hits a panic records
//! it in its slot and moves on to the next spec.

use crate::spec::ExperimentSpec;
use dvs_core::system::{RunError, SimError};
use dvs_engine::{fnv1a, parallel_indexed, FNV_OFFSET};
use dvs_stats::report::JsonObject;
use dvs_stats::{RunStats, TimeComponent, TrafficClass};
use dvs_telemetry::{MetricsRegistry, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Why one campaign run failed. Failures are per-run records, never
/// campaign-fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The workload id did not resolve to a buildable workload.
    Build(String),
    /// The simulator reported an error (deadlock, assertion, cycle limit).
    Sim(SimError),
    /// Post-run verification failed (coherence or the semantic check).
    Check(String),
    /// The run panicked (e.g. a builder rejected the configuration); the
    /// payload is the panic message.
    Panic(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Build(e) => write!(f, "build failed: {e}"),
            CampaignError::Sim(e) => write!(f, "simulation failed: {e}"),
            CampaignError::Check(e) => write!(f, "check failed: {e}"),
            CampaignError::Panic(e) => write!(f, "run panicked: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<RunError> for CampaignError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Sim(e) => CampaignError::Sim(e),
            RunError::Check(m) => CampaignError::Check(m),
        }
    }
}

/// The outcome of one spec: its identity, result, and how long the run took
/// on the host. `wall_nanos` and `metrics` are observability only — neither
/// ever enters [`CampaignReport::results_json`] or the digest.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position in the campaign's spec list.
    pub index: usize,
    /// The spec that ran.
    pub spec: ExperimentSpec,
    /// Simulation statistics, or why the run failed.
    pub outcome: Result<RunStats, CampaignError>,
    /// Host wall-clock time of this run, in nanoseconds.
    pub wall_nanos: u64,
    /// The run's hierarchical metrics tree: present for every successful
    /// VM run, absent for failures and trace-mix replays. Excluded from the
    /// results digest.
    pub metrics: Option<MetricsRegistry>,
}

impl RunRecord {
    /// The run's host wall-clock time as a [`Duration`](std::time::Duration)
    /// — the typed view of [`RunRecord::wall_nanos`]. Digest-excluded, like
    /// the raw field.
    pub fn wall(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.wall_nanos)
    }
}

/// Everything a [`Campaign::run`] produced, ordered by spec index.
#[derive(Debug)]
pub struct CampaignReport {
    /// One record per spec, in spec order regardless of execution order.
    pub records: Vec<RunRecord>,
    /// How many worker threads executed the campaign.
    pub workers: usize,
    /// Total host wall-clock for the whole campaign, in nanoseconds.
    pub wall_nanos: u64,
}

/// An ordered list of [`ExperimentSpec`]s to execute.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    specs: Vec<ExperimentSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Wraps an existing run list.
    pub fn from_specs(specs: Vec<ExperimentSpec>) -> Self {
        Campaign { specs }
    }

    /// Appends one spec.
    pub fn push(&mut self, spec: ExperimentSpec) {
        self.specs.push(spec);
    }

    /// The run list, in execution-index order.
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// Runs every spec on `workers` self-scheduling threads (clamped to at
    /// least 1) and returns the per-spec records in spec order.
    ///
    /// Each worker claims the next unclaimed spec, materializes its workload
    /// locally, runs the simulation, and stores the outcome in that spec's
    /// slot. Panics inside a run are caught and recorded as
    /// [`CampaignError::Panic`]; the worker then continues with the next
    /// spec. Progress lines go to stderr.
    pub fn run(&self, workers: usize) -> CampaignReport {
        let n = self.specs.len();
        let workers = workers.max(1).min(n.max(1));
        let started = Instant::now();
        let done = AtomicUsize::new(0);

        let records = parallel_indexed(n, workers, |index| {
            let record = run_recorded(&self.specs[index], index);
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            let status = match &record.outcome {
                Ok(stats) => format!("ok, {} cycles", stats.cycles),
                Err(e) => format!("FAILED: {e}"),
            };
            eprintln!(
                "[{finished}/{n}] {} — {status} ({:.1} ms)",
                record.spec.label(),
                record.wall_nanos as f64 / 1e6
            );
            record
        });
        CampaignReport {
            records,
            workers,
            wall_nanos: started.elapsed().as_nanos() as u64,
        }
    }

    /// Runs only the specs at `indices` (a resumable cursor: callers that
    /// already hold results for some specs — a journal, a cache — pass the
    /// remainder) and returns their records in the order of `indices`.
    /// Each record's `index` is the spec's position in the full campaign,
    /// so results can be merged back into a complete report.
    pub fn run_subset(&self, workers: usize, indices: &[usize]) -> Vec<RunRecord> {
        parallel_indexed(indices.len(), workers, |i| {
            let index = indices[i];
            run_recorded(&self.specs[index], index)
        })
    }
}

/// Runs one spec with fault isolation and wall-clock accounting — the
/// single timing source shared by [`Campaign::run`], the resumable
/// [`Campaign::run_subset`] cursor, and the `dvs-serve` job service, so
/// retry/deadline policies and BENCH artifacts all see the same numbers.
pub fn run_recorded(spec: &ExperimentSpec, index: usize) -> RunRecord {
    let t0 = Instant::now();
    let (outcome, metrics) = run_isolated(spec);
    RunRecord {
        index,
        spec: *spec,
        outcome,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        metrics,
    }
}

/// Runs one spec with panic isolation. The metrics tree comes back next to
/// the outcome so it can never contaminate the digest-bearing result.
fn run_isolated(
    spec: &ExperimentSpec,
) -> (Result<RunStats, CampaignError>, Option<MetricsRegistry>) {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if let crate::spec::WorkloadSpec::Trace { mix } = spec.workload {
            let trace =
                dvs_trace::build_mix(mix).map_err(|e| CampaignError::Build(e.to_string()))?;
            let stats =
                dvs_trace::replay_timed(&trace, spec.config(), dvs_trace::ReplayMode::Faithful)?;
            return Ok((stats, None));
        }
        let workload = spec.build().map_err(CampaignError::Build)?;
        let (stats, metrics) =
            crate::run_workload_with(spec.config(), &workload, Telemetry::off())?;
        Ok((stats, Some(metrics)))
    }));
    match attempt {
        Ok(Ok((stats, metrics))) => (Ok(stats), metrics),
        Ok(Err(e)) => (Err(e), None),
        Err(payload) => (Err(CampaignError::Panic(panic_message(payload))), None),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl CampaignReport {
    /// Number of successful runs.
    pub fn ok_count(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// The failed runs, in spec order.
    pub fn failures(&self) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| r.outcome.is_err()).collect()
    }

    /// Panics with a list of every failure unless all runs succeeded — the
    /// figure drivers treat any failed cell as fatal.
    pub fn expect_all_ok(&self, what: &str) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        let mut msg = format!(
            "{what}: {} of {} runs failed:",
            failures.len(),
            self.records.len()
        );
        for r in failures {
            let err = r.outcome.as_ref().expect_err("failure record");
            msg.push_str(&format!("\n  {} — {err}", r.spec.label()));
        }
        panic!("{msg}");
    }

    /// The per-run results as JSON objects, in spec order. Contains only
    /// spec identities and simulated quantities — no wall-times, worker
    /// counts, thread ids, or host properties — so the rendering is
    /// byte-identical for any worker count.
    pub fn results_json(&self) -> Vec<JsonObject> {
        self.records.iter().map(record_json).collect()
    }

    /// FNV-1a hash (hex) of the rendered [`CampaignReport::results_json`] —
    /// the campaign's determinism fingerprint.
    pub fn results_digest(&self) -> String {
        let mut hash = FNV_OFFSET;
        for obj in self.results_json() {
            for byte in obj.render().bytes() {
                hash = fnv1a(hash, byte);
            }
        }
        format!("{hash:016x}")
    }

    /// Total host wall-clock in seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_nanos as f64 / 1e9
    }

    /// Sum of the per-run wall-clocks ([`RunRecord::wall_nanos`]) — the
    /// aggregate compute time, as opposed to the campaign's elapsed
    /// [`CampaignReport::wall_nanos`] which divides it by parallelism.
    pub fn run_wall_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.wall_nanos).sum()
    }

    /// The slowest single run's wall-clock in nanoseconds (0 when empty).
    /// Deadline policies size per-job budgets from this.
    pub fn max_run_wall_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.wall_nanos).max().unwrap_or(0)
    }
}

fn record_json(record: &RunRecord) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.u64("index", record.index as u64)
        .str("spec", &record.spec.label())
        .str("protocol", record.spec.protocol.label())
        .u64("cores", record.spec.workload.cores() as u64);
    match &record.outcome {
        Ok(stats) => {
            obj.bool("ok", true);
            obj.u64("cycles", stats.cycles).u64("events", stats.events);
            let mut time = JsonObject::new();
            let breakdown = stats.breakdown();
            for &c in &TimeComponent::ALL {
                time.u64(c.label(), breakdown.get(c));
            }
            obj.object("time", time);
            let mut traffic = JsonObject::new();
            for &c in &TrafficClass::ALL {
                traffic.u64(c.label(), stats.traffic.get(c));
            }
            traffic.u64("messages", stats.traffic.messages());
            obj.object("traffic", traffic);
            let mut cache = JsonObject::new();
            cache
                .u64("hits", stats.cache.hits())
                .u64("misses", stats.cache.misses());
            obj.object("cache", cache);
            // Per-core breakdowns folded to a hash: enough to detect any
            // cross-worker nondeterminism without bloating the artifact.
            obj.str("per_core_fnv", &per_core_fnv(stats));
        }
        Err(e) => {
            obj.bool("ok", false);
            obj.str("error", &e.to_string());
        }
    }
    obj
}

fn per_core_fnv(stats: &RunStats) -> String {
    let mut hash = FNV_OFFSET;
    for core in &stats.per_core {
        for (_, cycles) in core.iter() {
            for byte in cycles.to_le_bytes() {
                hash = fnv1a(hash, byte);
            }
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_core::config::Protocol;
    use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};

    fn smoke_spec(threads: usize, protocol: Protocol) -> ExperimentSpec {
        ExperimentSpec::kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            KernelParams::smoke(threads),
            protocol,
        )
    }

    #[test]
    fn empty_campaign_runs() {
        let report = Campaign::new().run(4);
        assert!(report.records.is_empty());
        assert_eq!(report.ok_count(), 0);
        report.expect_all_ok("empty");
    }

    #[test]
    fn records_come_back_in_spec_order() {
        let campaign = Campaign::from_specs(vec![
            smoke_spec(4, Protocol::Mesi),
            smoke_spec(4, Protocol::DeNovoSync0),
            smoke_spec(4, Protocol::DeNovoSync),
        ]);
        let report = campaign.run(2);
        assert_eq!(report.records.len(), 3);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.spec, campaign.specs()[i]);
            assert!(r.outcome.is_ok(), "{}: {:?}", r.spec.label(), r.outcome);
        }
    }

    #[test]
    fn digest_ignores_wall_times() {
        let campaign = Campaign::from_specs(vec![smoke_spec(4, Protocol::Mesi)]);
        let mut report = campaign.run(1);
        let digest = report.results_digest();
        report.records[0].wall_nanos = 123_456_789;
        report.wall_nanos = 1;
        assert_eq!(report.results_digest(), digest);
    }

    #[test]
    fn run_subset_resumes_with_original_indices() {
        let campaign = Campaign::from_specs(vec![
            smoke_spec(4, Protocol::Mesi),
            smoke_spec(4, Protocol::DeNovoSync0),
            smoke_spec(4, Protocol::DeNovoSync),
        ]);
        // Simulate a crash after spec 0 completed: resume the remainder.
        let records = campaign.run_subset(2, &[2, 1]);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].index, 2);
        assert_eq!(records[1].index, 1);
        for r in &records {
            assert_eq!(r.spec, campaign.specs()[r.index]);
            assert!(r.outcome.is_ok(), "{}: {:?}", r.spec.label(), r.outcome);
        }
    }

    #[test]
    fn wall_accessors_agree_with_raw_nanos() {
        let campaign = Campaign::from_specs(vec![smoke_spec(4, Protocol::Mesi)]);
        let mut report = campaign.run(1);
        report.records[0].wall_nanos = 1_500_000;
        assert_eq!(report.records[0].wall().as_micros(), 1_500);
        assert_eq!(report.run_wall_nanos(), 1_500_000);
        assert_eq!(report.max_run_wall_nanos(), 1_500_000);
    }

    #[test]
    #[should_panic(expected = "of 1 runs failed")]
    fn expect_all_ok_reports_failures() {
        let mut spec = smoke_spec(4, Protocol::Mesi);
        spec.overrides.max_cycles = Some(10);
        Campaign::from_specs(vec![spec])
            .run(1)
            .expect_all_ok("smoke");
    }
}
