//! # dvs-fuzz — differential concurrent-program fuzzing
//!
//! Generates small concurrent programs over the `dvs-vm` assembler DSL and
//! runs each one seven ways: the sequential SC reference machine, and
//! MESI / DeNovoSync0 / DeNovoSync each in timed (`System::new`) and
//! untimed oracle (`System::new_oracle`) modes. Final memory is
//! cross-checked word by word, schedule-dependent observations are judged
//! by interleaving-independent witness predicates, and witnessed probe
//! loads feed relational CoRR/IRIW checks — see [`case`] for why that
//! split makes differential checking of racy programs sound.
//!
//! On divergence, [`shrink`] delta-debugs the case down to a minimal
//! reproducer, serialized as a replayable `.dvsf` text file; the committed
//! corpus under `corpus/` is replayed by `tests/corpus.rs`. [`batch`] runs
//! seed ranges on the `dvs-campaign` thread pool with a worker-count
//! independent result digest. `dvs fuzz` (the root package's `dvs` binary)
//! wires it all together (`gen` / `run` / `shrink` / `hunt`).

pub mod batch;
pub mod case;
pub mod diff;
pub mod gen;
pub mod shrink;

pub use batch::{run_batch, BatchConfig, BatchReport, DivergentCase};
pub use case::{FuzzCase, Lowered, Op, RfProbe, Shape, WitnessCheck, WitnessKind, MAX_THREADS};
pub use diff::{run_case, CaseVerdict, Divergence, HarnessConfig};
pub use gen::{generate, GenConfig};
pub use shrink::{shrink, ShrinkOutcome};
