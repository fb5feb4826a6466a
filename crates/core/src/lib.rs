//! The DeNovoSync protocols and the simulated multicore system.
//!
//! This crate is the paper's primary contribution plus its baseline:
//!
//! * [`mesi`] — the MESI directory protocol the paper compares against:
//!   full sharer lists, writer-initiated invalidations, a blocking directory,
//!   and the paper's modification of non-blocking writes.
//! * [`denovo`] — the DeNovo word-granularity protocol with its three stable
//!   states (Invalid / Valid / Registered), extended per the paper:
//!   **DeNovoSync0** registers every synchronization read (single-reader
//!   serialization through a non-blocking registry with a distributed MSHR
//!   queue), and **DeNovoSync** adds the adaptive hardware backoff
//!   ([`denovo::backoff`]). **GCS** (generalized coherence) is the same
//!   controllers running a table with a sync path: dynamic sync-variable
//!   classification and a dedicated bank-mediated update/notify path for
//!   classified words. Every controller is a transition table
//!   ([`table`]).
//! * [`config`] — Table 1's system configurations (16 and 64 cores).
//! * [`msg`] — the protocol message vocabulary, with per-message wire sizes
//!   and traffic classes; [`coreset`] — the core sets banks track (MESI
//!   sharers, sync-path waiters).
//! * [`system`] — the full simulated machine: in-order cores (run by VM
//!   threads or trace-replay cores), private L1s, a banked shared L2
//!   (registry/directory), memory controllers, and the 2D-mesh
//!   interconnect, driven by a deterministic event loop. The protocol-specific half lives behind one backend enum
//!   (MESI or DeNovo family), so the machine itself holds no protocol
//!   logic. Attach a [`dvs_telemetry::Telemetry`] recorder via
//!   [`System::set_telemetry`](system::System::set_telemetry) to observe
//!   per-access outcomes, protocol transitions, and stalls; the
//!   controllers report theirs as actions, stamped by the system. Every engine
//!   builds the machine one way — `System::new` (which idles cores beyond
//!   the programs given) or `System::new_replay`, then optional preloads —
//!   and either runs it timed (`System::run`) or calls
//!   [`System::start_oracle`](system::System::start_oracle) and steps it
//!   by hand or with the seeded `System::oracle_walk`. A failed run is a
//!   [`RunError`]: the simulator failed, or a check of its result did.
//!
//! # Examples
//!
//! Run a four-thread fetch-and-increment program under DeNovoSync:
//!
//! ```
//! use dvs_core::config::{Protocol, SystemConfig};
//! use dvs_core::system::System;
//! use dvs_vm::{Asm, Reg};
//! use dvs_mem::LayoutBuilder;
//!
//! let mut lb = LayoutBuilder::new();
//! let region = lb.region("sync");
//! let counter = lb.sync_var("counter", region, true);
//!
//! let prog = |_: usize| {
//!     let mut a = Asm::new("incr");
//!     a.movi(Reg(1), counter.raw());
//!     a.movi(Reg(2), 1);
//!     a.fai(Reg(3), Reg(1), 0, Reg(2));
//!     a.halt();
//!     a.build()
//! };
//!
//! let cfg = SystemConfig::small(4, Protocol::DeNovoSync);
//! let mut sys = System::new(cfg, lb.build(), (0..4).map(prog).collect::<Vec<_>>());
//! let stats = sys.run().expect("simulation completes");
//! assert_eq!(sys.read_word(counter), 4);
//! assert!(stats.cycles > 0);
//! ```

// First: the controllers use `transition_table!`, and a macro is in scope
// only after its definition.
#[macro_use]
pub mod table;

mod backend;
pub mod chaos;
pub mod config;
pub mod coreset;
pub mod denovo;
mod front;
pub mod mesi;
pub mod msg;
mod observe;
pub mod oracle;
pub mod proto;
pub mod replay;
pub mod system;

pub use config::{Protocol, ProtocolMutation, SystemConfig};
pub use replay::{compress_ops, Recording, TraceOp, TraceRecorder};
pub use system::{RunError, System};
