//! The DeNovo protocol family: DeNovoSync0, DeNovoSync, and GCS.
//!
//! DeNovo keeps coherence state at *word* granularity with exactly three
//! stable states — Invalid, Valid, Registered — and no writer-initiated
//! invalidations: readers self-invalidate stale data at synchronization
//! acquires, and the shared L2 doubles as a *registry* that tracks one
//! up-to-date copy per word (data, or a pointer to the registered core)
//! instead of a sharer list.
//!
//! The paper's extension for arbitrary synchronization:
//!
//! * **DeNovoSync0** (§4.1): synchronization reads *register*, just like
//!   writes — the single-reader rule. The registry is non-blocking: a
//!   registration request for an already-registered word immediately
//!   re-points the registry and forwards the request to the previous
//!   registrant; racing registrations chain through the L1s' MSHRs,
//!   forming a distributed queue (module [`l1`]).
//! * **DeNovoSync** (§4.2): adds a per-core hardware [`backoff`] that delays
//!   synchronization read misses to Valid-state words, adaptively backing
//!   off under contention. The Valid state doubles as the "recently lost my
//!   registration to a remote sync reader" marker.
//! * **GCS** (generalized coherence, after the GCS/Soul design): the
//!   DeNovoSync0 data path plus a *sync path*. Words the home bank
//!   observes being fought over with synchronization accesses (RMW
//!   targets, spin flags) are classified as sync variables — permanently —
//!   and move onto a dedicated bank-mediated path: sync operations execute
//!   atomically at the bank, spinners park in a per-word waiter set and
//!   are woken by a targeted notification carrying the new value. Each L1
//!   learns classifications in a bounded [`predictor`]; a capacity miss
//!   costs one optimistic registration round trip, never correctness.
//!
//! [`l1`] is the private-cache controller and [`registry`] the L2-side word
//! registry. Each is one interpreter over transition tables
//! ([`crate::table`]), one per protocol: DeNovoSync0's rows are the base,
//! DeNovoSync overrides the cells its backoff changes, and GCS adds the
//! sync-path rows (`dvs tables` prints them). Constructing a controller for
//! a protocol picks its table; nothing else distinguishes the three.
//! `family` holds the whole-machine invariant checks over all of a
//! system's DeNovo controllers.

pub mod backoff;
pub(crate) mod family;
pub mod l1;
pub mod predictor;
pub mod registry;

pub use backoff::BackoffUnit;
pub use l1::DnvL1;
pub use predictor::SyncPredictor;
pub use registry::DnvRegistry;
