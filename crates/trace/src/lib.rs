//! dvs-trace: record-once / replay-many workload traces.
//!
//! The record/replay subsystem on top of `dvs-core`'s
//! [`replay`](dvs_core::replay) machinery:
//!
//! * [`format`] — the versioned, line-oriented `.dvst` trace format
//!   (render/parse round-trip, pinned final-state fingerprints).
//! * [`record`] — run a VM workload once with the in-system recorder and
//!   seal a [`Trace`].
//! * [`replay`] — drive a trace through MESI/DS0/DS, timed or oracle,
//!   bypassing the VM front-end, with in-flight sync-value validation and
//!   a final-image comparison against the recording.
//! * [`composite`] — multi-phase VM programs (pipeline → barrier →
//!   lock-free handoff) with tunable ALU think-time.
//! * [`compose`] — stitch recorded phases into one trace with synthetic
//!   join barriers.
//! * [`mix`] — the seeded workload-mix generator: deterministic
//!   server-like churn addressable by `(seed, phases, threads)`.
//!
//! Every failure is a [`dvs_core::RunError`]: `Sim` when the simulator
//! fails, `Check` when a workload check, coherence, the oracle walk, or
//! replay validation against the recording does.
//!
//! `dvs trace record|replay|compose|mix|show` (the root package's `dvs`
//! binary) exposes all of it on the command line.

pub mod compose;
pub mod composite;
pub mod format;
pub mod mix;
pub mod record;
pub mod replay;

pub use compose::compose;
pub use composite::composite;
pub use dvs_core::replay::MAX_EXEC_CYCLES;
pub use format::{Trace, DVST_VERSION};
pub use mix::{build_mix, MixSpec};
pub use record::record;
pub use replay::{replay_oracle, replay_timed, ReplayMode, COMPRESS_CAP, ORACLE_DELIVERY_BUDGET};
