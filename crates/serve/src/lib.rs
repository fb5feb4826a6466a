//! # dvs-serve — a crash-safe, long-lived simulation job service
//!
//! Every other workload in the workspace is a batch CLI: a campaign grid, a
//! fuzz hunt, or a litmus sweep that loses all state when the process dies
//! and recomputes everything on the next invocation. This crate turns those
//! workloads into *jobs* against a persistent service directory:
//!
//! * **Jobs and cells.** A [`JobSpec`] (campaign grid, fuzz hunt, litmus
//!   sweep, or deep model-checking sweep) expands into an ordered list of
//!   [`CellSpec`]s — one simulation each, addressed by a canonical text
//!   token. Cells execute on a bounded
//!   worker pool ([`dvs_campaign::parallel_indexed`]) with per-job
//!   admission control and deadlines.
//! * **Content-addressed caching.** Every completed cell's result payload
//!   is stored in a [`Store`] keyed by the FNV-1a digest of
//!   `(cell token, code fingerprint)`. Re-running the same cell on the same
//!   code serves the stored payload byte-identically; changing either the
//!   spec or the code misses and recomputes.
//! * **Crash safety.** A write-ahead [`Journal`] records every submitted
//!   job and every completed cell before the result is considered durable.
//!   A `kill -9` mid-job loses at most the cells in flight; reopening the
//!   service resumes from the last completed cell, and the final job digest
//!   is byte-identical to an uninterrupted run.
//! * **Integrity.** Stored payloads carry their own digest, re-checked on
//!   every read. Truncated, bit-flipped, or stale-fingerprint entries are
//!   quarantined (moved aside for forensics) and transparently recomputed.
//! * **Graceful degradation.** When the store directory is unavailable or
//!   the size budget is exhausted, the service sheds cache *writes* and
//!   keeps serving compute. Hit/miss/quarantine/shed/retry counters are
//!   exported as a `dvs-telemetry` [`MetricsRegistry`](dvs_telemetry::MetricsRegistry).
//!
//! `dvs serve` (the root package's `dvs` binary) wires it together:
//! `submit` / `resume` / `status` / `verify-store` / `gc`.

pub mod job;
pub mod journal;
pub mod retry;
pub mod service;
pub mod store;

pub use job::{CellFailure, CellResult, CellSpec, DeepCheckMode, FailureClass, JobSpec};
pub use journal::{CellOutcome, Journal, JournalEvent, JournalTail, RecoveredJob};
pub use retry::RetryPolicy;
pub use service::{AdmissionError, JobReport, JobStatus, Serve, ServeConfig, ServeCounters};
pub use store::{GcReport, Lookup, PutOutcome, Store, VerifyReport};

use dvs_campaign::{fnv1a_str, FNV_OFFSET};

/// Bumped whenever simulated results may change shape or value — protocol
/// semantics, statistics accounting, payload layout. Entries written by a
/// different revision are *stale*: quarantined on contact and recomputed.
pub const STORE_REVISION: u64 = 1;

/// The code fingerprint baked into every store key: a digest of the crate
/// version and [`STORE_REVISION`]. Cheap and deterministic; bumping the
/// revision (or releasing a new version) invalidates the whole store, which
/// is exactly the conservative behavior a result cache wants.
pub fn code_fingerprint() -> u64 {
    let mut h = fnv1a_str(FNV_OFFSET, env!("CARGO_PKG_VERSION"));
    for byte in STORE_REVISION.to_le_bytes() {
        h = dvs_campaign::fnv1a(h, byte);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_ne!(code_fingerprint(), 0);
    }
}
