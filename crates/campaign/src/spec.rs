//! Experiment specifications: one run described entirely as data.
//!
//! A spec carries no closures and no pre-built workload — just identifiers
//! and plain-old-data parameters — so a campaign is a serializable value
//! that any worker thread can materialize independently.

use dvs_core::chaos::FaultPlan;
use dvs_core::config::{DataInvalidation, MeshShape, Protocol, ProtocolMutation, SystemConfig};
use dvs_kernels::{KernelId, KernelParams, Workload};
use dvs_trace::MixSpec;

/// Which workload a spec runs, addressed by serializable id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// A synchronization kernel (Figures 3–6) with explicit parameters.
    Kernel {
        /// Which kernel; `KernelId::token()` is its serialized form.
        kernel: KernelId,
        /// Iteration/thread parameters (`params.threads` = core count).
        params: KernelParams,
    },
    /// An application model (Figure 7), addressed by its Table 2 name.
    App {
        /// The app's name as listed by `dvs_apps::all_apps()`.
        name: &'static str,
        /// Thread count (= core count) to build the model at.
        threads: usize,
    },
    /// A recorded workload mix, replayed through the timed stack. The
    /// [`MixSpec`] is pure data; the worker materializes the trace
    /// (deterministic record + compose) and replays it faithfully.
    Trace {
        /// The mix to build and replay.
        mix: MixSpec,
    },
}

impl WorkloadSpec {
    /// The workload's display name (kernel token or app name).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Kernel { kernel, .. } => kernel.token(),
            WorkloadSpec::App { name, .. } => (*name).to_owned(),
            WorkloadSpec::Trace { mix } => mix.name(),
        }
    }

    /// The core count this workload wants (one core per thread).
    pub fn cores(&self) -> usize {
        match self {
            WorkloadSpec::Kernel { params, .. } => params.threads,
            WorkloadSpec::App { threads, .. } => *threads,
            WorkloadSpec::Trace { mix } => mix.threads,
        }
    }
}

/// Pure-data overrides applied on top of the base [`SystemConfig`] for a
/// spec. `Default` leaves the base configuration untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ConfigOverrides {
    /// Data self-invalidation mechanism (ablation: signatures).
    pub data_inv: Option<DataInvalidation>,
    /// Hardware-backoff counter width (ablation: backoff parameters).
    pub backoff_bits: Option<u32>,
    /// Hardware-backoff default increment (ablation: backoff parameters).
    pub backoff_increment: Option<u64>,
    /// Run the runtime coherence-invariant checkers (chaos matrix).
    pub check_invariants: bool,
    /// Deterministic fault injection seed (chaos matrix).
    pub fault_seed: Option<u64>,
    /// A seeded protocol bug for negative testing.
    pub mutation: Option<ProtocolMutation>,
    /// Cycle-limit safety valve override.
    pub max_cycles: Option<u64>,
    /// Mesh topology override (`rows x cols`; tiles must equal the core
    /// count). `None` keeps the default square mesh.
    pub mesh: Option<MeshShape>,
}

impl ConfigOverrides {
    /// Applies the overrides to `cfg` in place.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(di) = self.data_inv {
            cfg.data_inv = di;
        }
        if let Some(bits) = self.backoff_bits {
            cfg.backoff.counter_bits = bits;
        }
        if let Some(inc) = self.backoff_increment {
            cfg.backoff.default_increment = inc;
        }
        if self.check_invariants {
            cfg.check_invariants = true;
        }
        if let Some(seed) = self.fault_seed {
            cfg.fault_plan = Some(FaultPlan::from_seed(seed));
        }
        if let Some(m) = self.mutation {
            cfg.mutation = Some(m);
        }
        if let Some(mc) = self.max_cycles {
            cfg.max_cycles = mc;
        }
        if let Some(shape) = self.mesh {
            cfg.mesh = Some(shape);
        }
    }
}

/// One cell of an evaluation grid: workload × protocol × config overrides.
///
/// Specs are `Copy` values; the expensive parts (program text, layouts) are
/// built on the worker that executes the spec, then dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// What to run.
    pub workload: WorkloadSpec,
    /// Which protocol to run it on.
    pub protocol: Protocol,
    /// Configuration adjustments over the base (paper/small) config.
    pub overrides: ConfigOverrides,
}

impl ExperimentSpec {
    /// A kernel spec with no overrides.
    pub fn kernel(kernel: KernelId, params: KernelParams, protocol: Protocol) -> Self {
        ExperimentSpec {
            workload: WorkloadSpec::Kernel { kernel, params },
            protocol,
            overrides: ConfigOverrides::default(),
        }
    }

    /// An app spec with no overrides.
    pub fn app(name: &'static str, threads: usize, protocol: Protocol) -> Self {
        ExperimentSpec {
            workload: WorkloadSpec::App { name, threads },
            protocol,
            overrides: ConfigOverrides::default(),
        }
    }

    /// Human-readable one-line identity, e.g. `tatas:counter DS @16`.
    pub fn label(&self) -> String {
        format!(
            "{} {} @{}",
            self.workload.name(),
            self.protocol.label(),
            self.workload.cores()
        )
    }

    /// The full system configuration for this spec: the paper's Table 1
    /// config at 16/64 cores, the small test config elsewhere, plus
    /// [`ConfigOverrides`].
    pub fn config(&self) -> SystemConfig {
        let cores = self.workload.cores();
        let mut cfg = match cores {
            16 | 64 => SystemConfig::paper(cores, self.protocol),
            other => SystemConfig::small(other, self.protocol),
        };
        self.overrides.apply(&mut cfg);
        cfg
    }

    /// Materializes the workload this spec names.
    ///
    /// # Errors
    ///
    /// An explanation when the workload id does not resolve (unknown app
    /// name). Builder panics (e.g. invalid thread counts) are *not* caught
    /// here — the campaign runner isolates them per run.
    pub fn build(&self) -> Result<Workload, String> {
        match self.workload {
            WorkloadSpec::Kernel { kernel, ref params } => Ok(dvs_kernels::build(kernel, params)),
            WorkloadSpec::App { name, threads } => {
                let app =
                    dvs_apps::app_by_name(name).ok_or_else(|| format!("unknown app {name:?}"))?;
                Ok(dvs_apps::build_app(&app, threads))
            }
            WorkloadSpec::Trace { mix } => Err(format!(
                "trace spec {} is replayed, not built as a VM workload",
                mix.name()
            )),
        }
    }

    /// A canonical, serializable identity for this spec: `;`-separated
    /// `key=value` fields in a fixed order, with override fields appended
    /// only when they differ from the default. Two specs are equal iff their
    /// tokens are equal, which makes the token the right input for
    /// content-addressed result caching (`dvs-serve` keys its store on it).
    /// [`ExperimentSpec::from_token`] inverts it.
    pub fn token(&self) -> String {
        let mut out = match self.workload {
            WorkloadSpec::Kernel { kernel, params } => format!(
                "kernel={};threads={};iters={};ns={}-{};swb={};pad={};rc={}",
                kernel.token(),
                params.threads,
                params.iters,
                params.nonsynch.0,
                params.nonsynch.1,
                u8::from(params.sw_backoff),
                u8::from(params.padded_locks),
                u8::from(params.reduced_checks),
            ),
            WorkloadSpec::App { name, threads } => format!("app={name};threads={threads}"),
            // `seed=` is taken by the fault-seed override, so the mix
            // parameters ride inside the trace value itself.
            WorkloadSpec::Trace { mix } => format!(
                "trace=mix:{}:{};threads={}",
                mix.seed, mix.phases, mix.threads
            ),
        };
        out.push_str(&format!(";proto={}", self.protocol.label()));
        let o = &self.overrides;
        if let Some(di) = o.data_inv {
            out.push_str(match di {
                DataInvalidation::StaticRegions => ";di=static",
                DataInvalidation::Signatures => ";di=sig",
            });
        }
        if let Some(bits) = o.backoff_bits {
            out.push_str(&format!(";bb={bits}"));
        }
        if let Some(inc) = o.backoff_increment {
            out.push_str(&format!(";bi={inc}"));
        }
        if o.check_invariants {
            out.push_str(";inv=1");
        }
        if let Some(seed) = o.fault_seed {
            out.push_str(&format!(";seed={seed}"));
        }
        if let Some(m) = o.mutation {
            out.push_str(&format!(";mut={}", m.token()));
        }
        if let Some(mc) = o.max_cycles {
            out.push_str(&format!(";maxc={mc}"));
        }
        if let Some(shape) = o.mesh {
            out.push_str(&format!(";mesh={}", shape.token()));
        }
        out
    }

    /// Parses a token produced by [`ExperimentSpec::token`].
    ///
    /// # Errors
    ///
    /// Explains which field is missing, malformed, repeated, or unknown to
    /// the token's workload kind.
    pub fn from_token(token: &str) -> Result<ExperimentSpec, String> {
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for part in token.split(';') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("field {part:?} is not key=value"))?;
            if fields.iter().any(|&(seen, _)| seen == k) {
                return Err(format!("field {k}= appears more than once"));
            }
            fields.push((k, v));
        }
        let get = |key: &str| fields.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
            get(key)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{key}={v:?} is not a number"))
                })
                .transpose()
        };
        let parse_bool = |key: &str| -> Result<bool, String> {
            match get(key) {
                Some("0") | None => Ok(false),
                Some("1") => Ok(true),
                Some(v) => Err(format!("{key}={v:?} is not 0/1")),
            }
        };

        let workload = match (get("kernel"), get("app"), get("trace")) {
            (Some(ktok), None, None) => {
                let kernel = KernelId::from_token(ktok)
                    .ok_or_else(|| format!("unknown kernel token {ktok:?}"))?;
                let ns = get("ns").ok_or("missing ns=lo-hi")?;
                let (lo, hi) = ns.split_once('-').ok_or_else(|| format!("ns={ns:?}"))?;
                let params = KernelParams {
                    threads: parse_u64("threads")?.ok_or("missing threads")? as usize,
                    iters: parse_u64("iters")?.ok_or("missing iters")?,
                    nonsynch: (
                        lo.parse().map_err(|_| format!("ns lo {lo:?}"))?,
                        hi.parse().map_err(|_| format!("ns hi {hi:?}"))?,
                    ),
                    sw_backoff: parse_bool("swb")?,
                    padded_locks: parse_bool("pad")?,
                    reduced_checks: parse_bool("rc")?,
                };
                WorkloadSpec::Kernel { kernel, params }
            }
            (None, Some(name), None) => {
                // Resolve through the app table to recover the 'static name.
                let app =
                    dvs_apps::app_by_name(name).ok_or_else(|| format!("unknown app {name:?}"))?;
                WorkloadSpec::App {
                    name: app.name,
                    threads: parse_u64("threads")?.ok_or("missing threads")? as usize,
                }
            }
            (None, None, Some(val)) => {
                let mut it = val.split(':');
                if it.next() != Some("mix") {
                    return Err(format!(
                        "unknown trace kind {val:?} (want mix:<seed>:<phases>)"
                    ));
                }
                let seed: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("trace={val:?}: bad mix seed"))?;
                let phases: u8 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("trace={val:?}: bad mix phase count"))?;
                if it.next().is_some() {
                    return Err(format!("trace={val:?}: trailing fields"));
                }
                WorkloadSpec::Trace {
                    mix: MixSpec {
                        seed,
                        phases,
                        threads: parse_u64("threads")?.ok_or("missing threads")? as usize,
                    },
                }
            }
            _ => return Err("token must name exactly one of kernel=, app=, or trace=".to_owned()),
        };
        let workload_keys: &[&str] = match workload {
            WorkloadSpec::Kernel { .. } => &["kernel", "iters", "ns", "swb", "pad", "rc"],
            WorkloadSpec::App { .. } => &["app"],
            WorkloadSpec::Trace { .. } => &["trace"],
        };
        const SHARED_KEYS: [&str; 10] = [
            "threads", "proto", "di", "bb", "bi", "inv", "seed", "mut", "maxc", "mesh",
        ];
        if let Some((k, _)) = fields
            .iter()
            .find(|(k, _)| !workload_keys.contains(k) && !SHARED_KEYS.contains(k))
        {
            return Err(format!(
                "unknown field {k}= in a {} token",
                workload_keys[0]
            ));
        }

        let proto = get("proto").ok_or("missing proto")?;
        let protocol = Protocol::from_label(proto)?;
        let overrides = ConfigOverrides {
            data_inv: match get("di") {
                None => None,
                Some("static") => Some(DataInvalidation::StaticRegions),
                Some("sig") => Some(DataInvalidation::Signatures),
                Some(v) => return Err(format!("di={v:?} is not static/sig")),
            },
            backoff_bits: parse_u64("bb")?
                .map(|v| match v {
                    1..=63 => Ok(v as u32),
                    _ => Err(format!("bb={v} is outside 1..=63")),
                })
                .transpose()?,
            backoff_increment: parse_u64("bi")?,
            check_invariants: parse_bool("inv")?,
            fault_seed: parse_u64("seed")?,
            mutation: get("mut").map(ProtocolMutation::from_token).transpose()?,
            max_cycles: parse_u64("maxc")?,
            mesh: get("mesh").map(MeshShape::from_token).transpose()?,
        };
        Ok(ExperimentSpec {
            workload,
            protocol,
            overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_kernels::{LockKind, LockedStruct};

    fn counter_spec(threads: usize) -> ExperimentSpec {
        ExperimentSpec::kernel(
            KernelId::Locked(LockedStruct::Counter, LockKind::Tatas),
            KernelParams::smoke(threads),
            Protocol::DeNovoSync,
        )
    }

    #[test]
    fn labels_identify_workload_protocol_cores() {
        assert_eq!(counter_spec(4).label(), "tatas:counter DS @4");
        assert_eq!(
            ExperimentSpec::app("FFT", 16, Protocol::Mesi).label(),
            "FFT M @16"
        );
    }

    #[test]
    fn config_uses_paper_presets_only_at_16_and_64() {
        assert_eq!(counter_spec(16).config().max_cycles, 2_000_000_000);
        assert_eq!(counter_spec(4).config().max_cycles, 500_000_000);
    }

    #[test]
    fn overrides_apply_on_top_of_base() {
        let mut spec = counter_spec(16);
        spec.overrides.backoff_bits = Some(6);
        spec.overrides.backoff_increment = Some(256);
        spec.overrides.max_cycles = Some(1_000);
        spec.overrides.check_invariants = true;
        let cfg = spec.config();
        assert_eq!(cfg.backoff.counter_bits, 6);
        assert_eq!(cfg.backoff.default_increment, 256);
        assert_eq!(cfg.max_cycles, 1_000);
        assert!(cfg.check_invariants);
    }

    #[test]
    fn unknown_app_is_a_build_error() {
        let spec = ExperimentSpec::app("doom", 4, Protocol::Mesi);
        assert!(spec.build().is_err());
    }

    #[test]
    fn tokens_round_trip_for_kernels_apps_and_overrides() {
        let mut spec = counter_spec(16);
        assert_eq!(
            spec.token(),
            "kernel=tatas:counter;threads=16;iters=6;ns=40-80;swb=1;pad=1;rc=0;proto=DS"
        );
        assert_eq!(ExperimentSpec::from_token(&spec.token()), Ok(spec));

        spec.overrides = ConfigOverrides {
            data_inv: Some(DataInvalidation::Signatures),
            backoff_bits: Some(6),
            backoff_increment: Some(256),
            check_invariants: true,
            fault_seed: Some(0xC0FFEE),
            mutation: Some(ProtocolMutation::DnvDropXfer),
            max_cycles: Some(1_000),
            mesh: None,
        };
        assert_eq!(ExperimentSpec::from_token(&spec.token()), Ok(spec));

        for app in dvs_apps::all_apps() {
            let spec = ExperimentSpec::app(app.name, 16, Protocol::Mesi);
            assert_eq!(ExperimentSpec::from_token(&spec.token()), Ok(spec));
        }
    }

    #[test]
    fn gcs_and_mesh_tokens_round_trip() {
        let mut spec = counter_spec(16);
        spec.protocol = Protocol::Gcs;
        spec.overrides.mesh = Some(MeshShape { rows: 2, cols: 8 });
        spec.overrides.mutation = Some(ProtocolMutation::GcsDropNotify);
        let tok = spec.token();
        assert!(tok.contains(";proto=GCS"), "{tok}");
        assert!(tok.contains(";mesh=2x8"), "{tok}");
        assert!(tok.contains(";mut=gcs-drop-notify"), "{tok}");
        assert_eq!(ExperimentSpec::from_token(&tok), Ok(spec));

        spec.overrides.mutation = Some(ProtocolMutation::GcsSkipUpdate);
        assert_eq!(ExperimentSpec::from_token(&spec.token()), Ok(spec));

        // The mesh override lands in the materialized system config.
        assert_eq!(spec.config().mesh, Some(MeshShape { rows: 2, cols: 8 }));
        assert_eq!(Protocol::from_label("GCS"), Ok(Protocol::Gcs));
    }

    #[test]
    fn token_parsing_rejects_garbage_with_reasons() {
        for (bad, needle) in [
            ("", "key=value"),
            ("kernel=tatas:counter", "missing"),
            ("app=doom;threads=4;proto=M", "unknown app"),
            (
                "kernel=bogus;threads=4;iters=6;ns=1-2;proto=M",
                "kernel token",
            ),
            (
                "kernel=tatas:counter;threads=x;iters=6;ns=1-2;proto=M",
                "not a number",
            ),
            (
                "kernel=tatas:counter;threads=4;iters=6;ns=1-2;proto=Z",
                "unknown protocol",
            ),
            (
                "kernel=tatas:counter;threads=4;iters=6;ns=1-2;proto=M;mut=nope",
                "unknown mutation",
            ),
            (
                "kernel=tatas:counter;threads=4;iters=6;ns=1-2;proto=M;mesh=0x8",
                "zero",
            ),
            (
                "kernel=tatas:counter;threads=4;iters=6;ns=1-2;proto=M;mesh=8",
                "<rows>x<cols>",
            ),
        ] {
            let err = ExperimentSpec::from_token(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn equal_specs_have_equal_tokens_and_distinct_specs_do_not() {
        let a = counter_spec(4);
        let mut b = a;
        assert_eq!(a.token(), b.token());
        b.protocol = Protocol::Mesi;
        assert_ne!(a.token(), b.token());
        b = a;
        b.overrides.max_cycles = Some(10);
        assert_ne!(a.token(), b.token());
    }
}
