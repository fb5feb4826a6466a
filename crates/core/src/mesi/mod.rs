//! The MESI baseline: a directory protocol with writer-initiated
//! invalidations.
//!
//! This is the comparison point of the paper's evaluation — "the GEMS
//! implementation of the MESI protocol, modified to support non-blocking
//! writes for a fair comparison with DeNovo". Structure:
//!
//! * [`l1`] — the private-cache controller: stable states I/S/E/M plus the
//!   transient transaction states tracked in MSHRs (`IS_D`, `IM_AD`, `IM_A`,
//!   `SM_AD`, `MI_A`, ... in primer nomenclature).
//! * [`dir`] — the directory, embedded in the shared L2 banks: full sharer
//!   bit-vectors, owner tracking, and *blocking* semantics (a line with an
//!   in-flight transaction queues later requests until the requestor's
//!   `Unblock`), exactly the behaviour the paper contrasts with DeNovo's
//!   non-blocking registry.
//! * `family` — the whole-machine invariant checks over all of a
//!   system's MESI controllers.
//!
//! The invalidation/acknowledgment traffic and the directory's sharer-list
//! storage are precisely the overheads DeNovoSync eliminates.

pub mod dir;
pub(crate) mod family;
pub mod l1;

pub use dir::MesiDir;
pub use l1::MesiL1;
