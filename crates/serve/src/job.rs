//! Jobs and cells: the service's unit of work.
//!
//! A [`JobSpec`] names a whole workload — a campaign grid, a fuzz hunt, a
//! litmus sweep, or a deep model-checking sweep — and expands into an
//! ordered list of [`CellSpec`]s, one independent simulation each. Cells are the granularity of everything the
//! service does: content-addressed caching (a cell's canonical text token
//! is the cache key), journaling, retries, and deadlines.
//!
//! A cell's *payload* is a deterministic JSON rendering of its simulated
//! results — no wall-clock, worker identity, or host properties — so a
//! recomputed cell is byte-identical to its cached copy and job digests
//! survive any mix of cache hits and recomputes.

use dvs_campaign::{run_recorded, CampaignError, ExperimentSpec};
use dvs_check::{
    check_litmus, litmus_config, swarm_litmus, CheckConfig, SwarmConfig, Verdict, VisitedMode,
};
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_core::system::SimError;
use dvs_core::System;
use dvs_fuzz::{generate, run_case, CaseVerdict, GenConfig, HarnessConfig};
use dvs_stats::report::JsonObject;
use dvs_stats::{RunStats, TrafficClass};
use dvs_vm::litmus::Litmus;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Whether a failed cell is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A panic or a cycle-limit trip — the classes the retry policy deems
    /// possibly environmental and retries with backoff.
    Transient,
    /// A semantic failure (check/build/deadlock/divergence) that will
    /// reproduce identically; retrying is waste.
    Deterministic,
}

impl FailureClass {
    /// The class's journal token.
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Transient => "transient",
            FailureClass::Deterministic => "deterministic",
        }
    }
}

/// Why a cell attempt failed.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Retry-or-not classification.
    pub class: FailureClass,
    /// Human-readable explanation.
    pub detail: String,
}

/// One attempt's outcome: the payload (deterministic JSON text) or a
/// classified failure, plus the attempt's compute wall-clock.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Payload or failure.
    pub outcome: Result<String, CellFailure>,
    /// Host wall-clock of this attempt, in nanoseconds.
    pub wall_nanos: u64,
}

/// A whole workload submitted as one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// An ordered campaign grid.
    Campaign(Vec<ExperimentSpec>),
    /// A consecutive-seed differential fuzz hunt.
    FuzzHunt {
        /// First generator seed.
        seed_start: u64,
        /// Number of cases.
        count: usize,
        /// Use the small generator pool.
        small: bool,
    },
    /// A litmus sweep: every named test × every protocol.
    Litmus {
        /// Litmus names (see `dvs_vm::litmus::Litmus::by_name`).
        names: Vec<String>,
        /// Protocols to sweep.
        protocols: Vec<Protocol>,
    },
    /// A deep model-checking sweep: every named litmus × every protocol,
    /// explored by the model checker under one budget/mode.
    DeepCheck {
        /// Litmus names.
        names: Vec<String>,
        /// Protocols to sweep.
        protocols: Vec<Protocol>,
        /// Exploration strategy and visited tier.
        mode: DeepCheckMode,
        /// Depth bound (exhaustive modes) or per-probe depth (swarm).
        depth: usize,
        /// Expansion budget (exhaustive) or per-probe claim budget (swarm).
        states: u64,
    },
}

/// How a deep-check cell explores. Serialized inside the cell token, so
/// every variant field is part of the content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeepCheckMode {
    /// Exhaustive exploration over the exact visited tier, with sleep-set
    /// partial-order reduction.
    Exact,
    /// Exhaustive exploration over a lossy bitstate filter of `bits` bits
    /// (POR off — it composes unsoundly with a weakening-free store).
    Bitstate {
        /// Filter size in bits.
        bits: u64,
    },
    /// Swarm verification: `probes` seeded randomized probes sharing one
    /// bitstate filter.
    Swarm {
        /// Number of probes.
        probes: u64,
    },
}

impl DeepCheckMode {
    /// The mode's token field value (`exact`, `bits:N`, `swarm:N`).
    pub fn token(self) -> String {
        match self {
            DeepCheckMode::Exact => "exact".to_owned(),
            DeepCheckMode::Bitstate { bits } => format!("bits:{bits}"),
            DeepCheckMode::Swarm { probes } => format!("swarm:{probes}"),
        }
    }

    /// Parses a token produced by [`DeepCheckMode::token`].
    ///
    /// # Errors
    ///
    /// Explains what failed to parse.
    pub fn from_token(tok: &str) -> Result<DeepCheckMode, String> {
        if tok == "exact" {
            return Ok(DeepCheckMode::Exact);
        }
        if let Some(bits) = tok.strip_prefix("bits:") {
            let bits = bits.parse().map_err(|_| format!("bad bits {bits:?}"))?;
            return Ok(DeepCheckMode::Bitstate { bits });
        }
        if let Some(probes) = tok.strip_prefix("swarm:") {
            let probes = probes
                .parse()
                .map_err(|_| format!("bad probes {probes:?}"))?;
            return Ok(DeepCheckMode::Swarm { probes });
        }
        Err(format!(
            "unknown check mode {tok:?} (want exact, bits:N, or swarm:N)"
        ))
    }
}

impl JobSpec {
    /// Human-readable kind label (journaled for `status`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "campaign",
            JobSpec::FuzzHunt { .. } => "fuzz-hunt",
            JobSpec::Litmus { .. } => "litmus",
            JobSpec::DeepCheck { .. } => "deep-check",
        }
    }

    /// Expands the job into its ordered cell list.
    pub fn cells(&self) -> Vec<CellSpec> {
        match self {
            JobSpec::Campaign(specs) => specs.iter().map(|&s| CellSpec::Run(s)).collect(),
            JobSpec::FuzzHunt {
                seed_start,
                count,
                small,
            } => (0..*count as u64)
                .map(|i| CellSpec::Fuzz {
                    seed: seed_start + i,
                    small: *small,
                })
                .collect(),
            JobSpec::Litmus { names, protocols } => names
                .iter()
                .flat_map(|name| {
                    protocols.iter().map(move |&protocol| CellSpec::Litmus {
                        name: name.clone(),
                        protocol,
                    })
                })
                .collect(),
            JobSpec::DeepCheck {
                names,
                protocols,
                mode,
                depth,
                states,
            } => names
                .iter()
                .flat_map(|name| {
                    protocols.iter().map(move |&protocol| CellSpec::DeepCheck {
                        name: name.clone(),
                        protocol,
                        mode: *mode,
                        depth: *depth,
                        states: *states,
                        mutation: None,
                    })
                })
                .collect(),
        }
    }
}

/// One independent simulation within a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellSpec {
    /// A campaign experiment.
    Run(ExperimentSpec),
    /// One differential fuzz case.
    Fuzz {
        /// Generator seed.
        seed: u64,
        /// Use the small generator pool.
        small: bool,
    },
    /// One litmus test on one protocol (timed simulator, SC verdict).
    Litmus {
        /// The litmus name.
        name: String,
        /// The protocol under test.
        protocol: Protocol,
    },
    /// One deep model-checking run: a litmus test's full interleaving
    /// space explored by `dvs-check` under an explicit budget. Executed
    /// with one worker so the payload — verdict, unique states, which
    /// budget fired — is byte-identical on recompute.
    DeepCheck {
        /// The litmus name.
        name: String,
        /// The protocol under test.
        protocol: Protocol,
        /// Exploration strategy and visited tier.
        mode: DeepCheckMode,
        /// Depth bound (exhaustive modes) or per-probe depth (swarm).
        depth: usize,
        /// Expansion budget (exhaustive) or per-probe claims (swarm).
        states: u64,
        /// Optional seeded protocol bug — a mutation cell *expects* a
        /// violation and records the verdict either way; a clean cell
        /// fails deterministically if one is found.
        mutation: Option<ProtocolMutation>,
    },
}

impl CellSpec {
    /// The cell's canonical token — the content-address input. Equal cells
    /// have equal tokens; anything that can change the result is in here.
    pub fn token(&self) -> String {
        match self {
            CellSpec::Run(spec) => format!("run;{}", spec.token()),
            CellSpec::Fuzz { seed, small } => format!(
                "fuzz;seed={seed};pool={}",
                if *small { "small" } else { "default" }
            ),
            CellSpec::Litmus { name, protocol } => {
                format!("litmus;name={name};proto={}", protocol.label())
            }
            CellSpec::DeepCheck {
                name,
                protocol,
                mode,
                depth,
                states,
                mutation,
            } => {
                let mut t = format!(
                    "check;name={name};proto={};mode={};depth={depth};states={states}",
                    protocol.label(),
                    mode.token()
                );
                if let Some(m) = mutation {
                    t.push_str(&format!(";mut={}", m.token()));
                }
                t
            }
        }
    }

    /// Parses a token produced by [`CellSpec::token`].
    ///
    /// # Errors
    ///
    /// Explains what failed to parse.
    pub fn from_token(token: &str) -> Result<CellSpec, String> {
        if let Some(rest) = token.strip_prefix("run;") {
            return Ok(CellSpec::Run(ExperimentSpec::from_token(rest)?));
        }
        if let Some(rest) = token.strip_prefix("fuzz;") {
            let mut seed = None;
            let mut small = false;
            for part in rest.split(';') {
                match part.split_once('=') {
                    Some(("seed", v)) => {
                        seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
                    }
                    Some(("pool", "small")) => small = true,
                    Some(("pool", "default")) => small = false,
                    _ => return Err(format!("bad fuzz field {part:?}")),
                }
            }
            return Ok(CellSpec::Fuzz {
                seed: seed.ok_or("missing seed")?,
                small,
            });
        }
        if let Some(rest) = token.strip_prefix("litmus;") {
            let mut name = None;
            let mut protocol = None;
            for part in rest.split(';') {
                match part.split_once('=') {
                    Some(("name", v)) => name = Some(v.to_owned()),
                    Some(("proto", v)) => protocol = Some(Protocol::from_label(v)?),
                    _ => return Err(format!("bad litmus field {part:?}")),
                }
            }
            return Ok(CellSpec::Litmus {
                name: name.ok_or("missing name")?,
                protocol: protocol.ok_or("missing proto")?,
            });
        }
        if let Some(rest) = token.strip_prefix("check;") {
            let (mut name, mut protocol, mut mode) = (None, None, None);
            let (mut depth, mut states, mut mutation) = (None, None, None);
            for part in rest.split(';') {
                match part.split_once('=') {
                    Some(("name", v)) => name = Some(v.to_owned()),
                    Some(("proto", v)) => protocol = Some(Protocol::from_label(v)?),
                    Some(("mode", v)) => mode = Some(DeepCheckMode::from_token(v)?),
                    Some(("depth", v)) => {
                        depth = Some(v.parse().map_err(|_| format!("bad depth {v:?}"))?);
                    }
                    Some(("states", v)) => {
                        states = Some(v.parse().map_err(|_| format!("bad states {v:?}"))?);
                    }
                    Some(("mut", v)) => mutation = Some(ProtocolMutation::from_token(v)?),
                    _ => return Err(format!("bad check field {part:?}")),
                }
            }
            return Ok(CellSpec::DeepCheck {
                name: name.ok_or("missing name")?,
                protocol: protocol.ok_or("missing proto")?,
                mode: mode.ok_or("missing mode")?,
                depth: depth.ok_or("missing depth")?,
                states: states.ok_or("missing states")?,
                mutation,
            });
        }
        Err(format!("unknown cell token {token:?}"))
    }

    /// Executes one attempt of this cell. Panics anywhere in the stack are
    /// caught and classified [`FailureClass::Transient`]; the attempt's
    /// wall-clock comes from the same accounting the campaign runner uses
    /// (`RunRecord::wall_nanos` for run cells).
    pub fn execute(&self) -> CellResult {
        match self {
            CellSpec::Run(spec) => {
                // run_recorded already catch_unwinds and times the run —
                // the shared timing source.
                let record = run_recorded(spec, 0);
                CellResult {
                    outcome: match record.outcome {
                        Ok(stats) => Ok(run_payload(spec, &stats)),
                        Err(e) => Err(classify_campaign(&e)),
                    },
                    wall_nanos: record.wall_nanos,
                }
            }
            CellSpec::Fuzz { seed, small } => timed_catch(|| {
                let pool = if *small {
                    GenConfig::small()
                } else {
                    GenConfig::default_pool()
                };
                let case = generate(*seed, &pool);
                match run_case(&case, &HarnessConfig::default()) {
                    CaseVerdict::Pass { ref_fnv, instrs } => {
                        let mut obj = JsonObject::new();
                        obj.str("kind", "fuzz")
                            .u64("seed", *seed)
                            .bool("ok", true)
                            .str("ref_fnv", &format!("{ref_fnv:016x}"))
                            .u64("instrs", instrs as u64);
                        Ok(obj.render())
                    }
                    CaseVerdict::Sick { reason } => Err(CellFailure {
                        class: FailureClass::Deterministic,
                        detail: format!("sick case: {reason}"),
                    }),
                    CaseVerdict::Diverged { divergence, .. } => Err(CellFailure {
                        class: FailureClass::Deterministic,
                        detail: format!("diverged: {divergence}"),
                    }),
                }
            }),
            CellSpec::Litmus { name, protocol } => timed_catch(|| {
                let lit = Litmus::by_name(name).ok_or_else(|| CellFailure {
                    class: FailureClass::Deterministic,
                    detail: format!("unknown litmus {name:?}"),
                })?;
                let cfg = litmus_config(&lit, *protocol, None);
                let mut sys = System::new(cfg, lit.layout.clone(), lit.programs.clone());
                let stats = sys.run().map_err(|e| classify_sim(&e))?;
                lit.check(|a| sys.read_word(a))
                    .map_err(|vals| CellFailure {
                        class: FailureClass::Deterministic,
                        detail: format!("{}: {} — observed {vals:?}", lit.name, lit.property),
                    })?;
                let mut obj = JsonObject::new();
                obj.str("kind", "litmus")
                    .str("name", name)
                    .str("protocol", protocol.label())
                    .bool("ok", true)
                    .u64("cycles", stats.cycles);
                Ok(obj.render())
            }),
            CellSpec::DeepCheck {
                name,
                protocol,
                mode,
                depth,
                states,
                mutation,
            } => timed_catch(|| {
                let lit = Litmus::by_name(name).ok_or_else(|| CellFailure {
                    class: FailureClass::Deterministic,
                    detail: format!("unknown litmus {name:?}"),
                })?;
                let report = match mode {
                    DeepCheckMode::Swarm { probes } => swarm_litmus(
                        &lit,
                        *protocol,
                        *mutation,
                        &SwarmConfig {
                            probes: *probes,
                            workers: 1,
                            probe_depth: *depth,
                            probe_states: *states,
                            ..SwarmConfig::default()
                        },
                    ),
                    exhaustive => {
                        let (visited, por) = match exhaustive {
                            DeepCheckMode::Bitstate { bits } => {
                                // POR's subset-prune needs the exact tier's
                                // weakening; with a lossy store it would
                                // under-explore unsoundly.
                                (VisitedMode::Bitstate { bits: *bits }, false)
                            }
                            _ => (VisitedMode::Exact, true),
                        };
                        let cfg = CheckConfig {
                            workers: 1,
                            max_depth: *depth,
                            max_states: *states,
                            por,
                            visited,
                            ..CheckConfig::default()
                        };
                        check_litmus(&lit, *protocol, *mutation, &cfg)
                    }
                };
                let s = &report.stats;
                let mut obj = JsonObject::new();
                obj.str("kind", "check")
                    .str("name", name)
                    .str("protocol", protocol.label())
                    .str("mode", &mode.token());
                if let Some(m) = mutation {
                    obj.str("mutation", m.token());
                }
                match &report.verdict {
                    Verdict::Verified => {
                        obj.str("verdict", "verified");
                    }
                    Verdict::Violated(ce) => {
                        if mutation.is_none() {
                            return Err(CellFailure {
                                class: FailureClass::Deterministic,
                                detail: format!(
                                    "{name} under {} violated after {} picks: {}",
                                    protocol.label(),
                                    ce.picks.len(),
                                    ce.failure
                                ),
                            });
                        }
                        obj.str("verdict", "violated")
                            .u64("picks", ce.picks.len() as u64)
                            .bool("minimized", ce.minimized);
                    }
                }
                obj.u64("unique_states", s.unique_states)
                    .u64("expansions", s.expansions)
                    .str("budget", s.budget_fired())
                    .bool("depth_truncated", s.depth_truncated)
                    .bool("state_truncated", s.state_truncated)
                    .u64("max_depth_seen", s.max_depth_seen as u64);
                Ok(obj.render())
            }),
        }
    }
}

/// Runs `f` under `catch_unwind` with wall-clock accounting.
fn timed_catch(f: impl FnOnce() -> Result<String, CellFailure>) -> CellResult {
    let t0 = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(CellFailure {
                class: FailureClass::Transient,
                detail: format!("panicked: {msg}"),
            })
        }
    };
    CellResult {
        outcome,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    }
}

/// The deterministic result payload of a run cell: spec identity plus
/// simulated quantities only.
fn run_payload(spec: &ExperimentSpec, stats: &RunStats) -> String {
    let mut obj = JsonObject::new();
    obj.str("kind", "run")
        .str("spec", &spec.label())
        .str("protocol", spec.protocol.label())
        .u64("cores", spec.workload.cores() as u64)
        .u64("cycles", stats.cycles)
        .u64("events", stats.events);
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
    obj.render()
}

/// Maps a campaign run failure onto the retry taxonomy.
fn classify_campaign(e: &CampaignError) -> CellFailure {
    let class = match e {
        CampaignError::Panic(_) => FailureClass::Transient,
        CampaignError::Sim(SimError::CycleLimit { .. }) => FailureClass::Transient,
        _ => FailureClass::Deterministic,
    };
    CellFailure {
        class,
        detail: e.to_string(),
    }
}

/// Maps a raw simulator failure onto the retry taxonomy.
fn classify_sim(e: &SimError) -> CellFailure {
    CellFailure {
        class: match e {
            SimError::CycleLimit { .. } => FailureClass::Transient,
            _ => FailureClass::Deterministic,
        },
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_kernels::{KernelId, KernelParams, LockKind, LockedStruct};

    fn counter_spec() -> ExperimentSpec {
        ExperimentSpec::kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            KernelParams::smoke(4),
            Protocol::DeNovoSync,
        )
    }

    #[test]
    fn cell_tokens_round_trip() {
        let cells = vec![
            CellSpec::Run(counter_spec()),
            CellSpec::Fuzz {
                seed: 0x2a,
                small: true,
            },
            CellSpec::Fuzz {
                seed: 7,
                small: false,
            },
            CellSpec::Litmus {
                name: "mp".to_owned(),
                protocol: Protocol::Mesi,
            },
            CellSpec::DeepCheck {
                name: "tatas".to_owned(),
                protocol: Protocol::DeNovoSync,
                mode: DeepCheckMode::Exact,
                depth: 500,
                states: 100_000,
                mutation: None,
            },
            CellSpec::DeepCheck {
                name: "sb".to_owned(),
                protocol: Protocol::Mesi,
                mode: DeepCheckMode::Bitstate { bits: 1 << 20 },
                depth: 400,
                states: 50_000,
                mutation: Some(dvs_core::config::ProtocolMutation::MesiSkipInvalidate),
            },
            CellSpec::DeepCheck {
                name: "mp".to_owned(),
                protocol: Protocol::Gcs,
                mode: DeepCheckMode::Swarm { probes: 32 },
                depth: 2_000,
                states: 10_000,
                mutation: None,
            },
        ];
        for cell in cells {
            let token = cell.token();
            assert_eq!(CellSpec::from_token(&token), Ok(cell), "{token}");
        }
        assert!(CellSpec::from_token("bogus;x=1").is_err());
        assert!(CellSpec::from_token("check;name=sb;proto=M;mode=maybe;depth=1;states=1").is_err());
        assert!(CellSpec::from_token("check;name=sb;proto=M;depth=1;states=1").is_err());
    }

    /// A deep-check cell's payload is deterministic on recompute, carries
    /// the split budget flags, and a mutation cell records its expected
    /// violation instead of failing.
    #[test]
    fn deep_check_cells_execute_with_budget_flags() {
        let clean = CellSpec::DeepCheck {
            name: "sb".to_owned(),
            protocol: Protocol::Mesi,
            mode: DeepCheckMode::Exact,
            depth: 1_000,
            states: 100_000,
            mutation: None,
        };
        let a = clean.execute().outcome.expect("sb verifies");
        let b = clean.execute().outcome.expect("sb verifies");
        assert_eq!(a, b, "recompute must be byte-identical");
        assert!(a.contains("\"kind\": \"check\""));
        assert!(a.contains("\"verdict\": \"verified\""));
        assert!(a.contains("\"budget\": \"none\""));
        assert!(a.contains("\"depth_truncated\": false"));
        assert!(a.contains("\"state_truncated\": false"));

        let mutated = CellSpec::DeepCheck {
            name: "tatas".to_owned(),
            protocol: Protocol::Mesi,
            mode: DeepCheckMode::Exact,
            depth: 1_000,
            states: 200_000,
            mutation: Some(dvs_core::config::ProtocolMutation::MesiSkipInvalidate),
        };
        let payload = mutated
            .execute()
            .outcome
            .expect("expected violation is a result");
        assert!(payload.contains("\"verdict\": \"violated\""));
        assert!(payload.contains("\"minimized\": true"));
        assert!(payload.contains("\"mutation\": \"mesi-skip-invalidate\""));
    }

    #[test]
    fn job_cells_expand_in_order() {
        let job = JobSpec::FuzzHunt {
            seed_start: 10,
            count: 3,
            small: true,
        };
        assert_eq!(job.kind(), "fuzz-hunt");
        let cells = job.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[2],
            CellSpec::Fuzz {
                seed: 12,
                small: true
            }
        );

        let job = JobSpec::Litmus {
            names: vec!["sb".to_owned(), "mp".to_owned()],
            protocols: vec![Protocol::Mesi, Protocol::DeNovoSync],
        };
        assert_eq!(job.cells().len(), 4);
    }

    #[test]
    fn run_cell_payload_is_deterministic() {
        let cell = CellSpec::Run(counter_spec());
        let a = cell.execute();
        let b = cell.execute();
        assert_eq!(
            a.outcome.as_ref().expect("runs"),
            b.outcome.as_ref().expect("runs")
        );
        assert!(a.outcome.expect("runs").contains("\"kind\": \"run\""));
        assert!(a.wall_nanos > 0);
    }

    #[test]
    fn litmus_and_fuzz_cells_execute() {
        let lit = CellSpec::Litmus {
            name: "mp".to_owned(),
            protocol: Protocol::DeNovoSync,
        }
        .execute();
        assert!(lit
            .outcome
            .expect("sc holds")
            .contains("\"kind\": \"litmus\""));

        let fuzz = CellSpec::Fuzz {
            seed: 0,
            small: true,
        }
        .execute();
        assert!(fuzz
            .outcome
            .expect("stock protocols pass")
            .contains("\"ok\": true"));
    }

    #[test]
    fn panics_classify_transient_and_checks_deterministic() {
        // threads=0 panics inside the workload builder.
        let mut params = KernelParams::smoke(4);
        params.threads = 0;
        let spec = ExperimentSpec::kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            params,
            Protocol::Mesi,
        );
        let result = CellSpec::Run(spec).execute();
        let failure = result.outcome.expect_err("panics");
        assert_eq!(failure.class, FailureClass::Transient);

        let unknown = CellSpec::Litmus {
            name: "nope".to_owned(),
            protocol: Protocol::Mesi,
        }
        .execute();
        let failure = unknown.outcome.expect_err("unknown litmus");
        assert_eq!(failure.class, FailureClass::Deterministic);
    }

    #[test]
    fn cycle_limit_classifies_transient() {
        let mut spec = counter_spec();
        spec.overrides.max_cycles = Some(10);
        let result = CellSpec::Run(spec).execute();
        let failure = result.outcome.expect_err("trips the limit");
        assert_eq!(failure.class, FailureClass::Transient);
    }
}
