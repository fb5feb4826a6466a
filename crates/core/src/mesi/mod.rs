//! The MESI baseline: a directory protocol with writer-initiated
//! invalidations, the comparison point of the paper's evaluation — "the GEMS
//! implementation of the MESI protocol, modified to support non-blocking
//! writes for a fair comparison with DeNovo". The invalidation/ack traffic
//! and the directory's sharer-list storage are precisely the overheads
//! DeNovoSync eliminates.
//!
//! Both controllers, [`l1`] and [`dir`], are the Sorin et al. primer's
//! transition tables ([`crate::table`]). Each classifies an input into an
//! event against the line's state (derived from what it stores, never stored
//! itself) and runs the const row at `(state, event)`: the actions, and the
//! state they reach. A cell with no row is a protocol violation; a seeded
//! mutation swaps rows. `family` holds the whole-machine invariant checks.

pub mod dir;
pub(crate) mod family;
pub mod l1;

pub use dir::MesiDir;
pub use l1::MesiL1;
