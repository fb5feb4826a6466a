//! The functional core model, kept apart from memory timing as in the
//! paper. A core runs a VM [`Thread`] or replays a recorded stream through a
//! [`TraceCore`] ([`crate::replay`]); [`Fronts`] is the only code that knows
//! which. The system asks it for each core's next effect (after a run of
//! retired instructions) and attribution phase, and hands it every
//! completed blocking access.

use crate::msg::CoreId;
use crate::replay::{ReplayBoard, TraceCore};
use dvs_mem::Addr;
use dvs_vm::isa::PhaseChange;
use dvs_vm::{Effect, MemRequest, Thread};
use std::hash::{Hash, Hasher};

/// Where a core's run of retired instructions ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stop {
    /// An instruction the system must act on.
    Effect(Effect),
    /// The run retired its whole budget.
    Budget,
    /// A replay core's next op is parked on the recorded sync order.
    Parked,
}

/// The per-core front ends of a [`System`](crate::System): VM threads, or
/// trace-replay cores sharing one ordering board.
#[derive(Debug, Clone)]
pub(crate) enum Fronts {
    Vm(Vec<Thread>),
    Trace {
        cores: Vec<TraceCore>,
        board: ReplayBoard,
    },
}

impl From<Vec<Thread>> for Fronts {
    fn from(threads: Vec<Thread>) -> Self {
        Fronts::Vm(threads)
    }
}

impl From<Vec<TraceCore>> for Fronts {
    fn from(cores: Vec<TraceCore>) -> Self {
        Fronts::Trace {
            cores,
            board: ReplayBoard::default(),
        }
    }
}

impl Fronts {
    /// Runs core `i` until it needs the system or `budget` instructions
    /// have retired: how many retired, and where it stopped. A replay
    /// core's recorded compute is an `Exec` delay, so it retires none.
    #[inline]
    pub(crate) fn step(&mut self, i: CoreId, budget: u64) -> (u64, Stop) {
        match self {
            Fronts::Vm(ts) => match ts[i].run(budget) {
                (retired, Some(eff)) => (retired, Stop::Effect(eff)),
                (retired, None) => (retired, Stop::Budget),
            },
            Fronts::Trace { cores, board } => match cores[i].step(board) {
                Some(eff) => (0, Stop::Effect(eff)),
                None => (0, Stop::Parked),
            },
        }
    }

    /// Core `i`'s attribution phase. Replay carries no phase annotations:
    /// everything local is compute (per-component breakdowns belong to the
    /// recording).
    pub(crate) fn phase(&self, i: CoreId) -> PhaseChange {
        match self {
            Fronts::Vm(ts) => ts[i].phase(),
            Fronts::Trace { .. } => PhaseChange::Normal,
        }
    }

    /// Hands core `i` the value its blocking access `req` returned. A VM
    /// thread takes it into a register; a replay core validates it against
    /// the recording and advances the ordering board. `Ok(true)` when the
    /// board advanced (parked cores should be re-examined), `Err` on
    /// divergence from the recording.
    pub(crate) fn complete(
        &mut self,
        i: CoreId,
        req: &MemRequest,
        value: u64,
    ) -> Result<bool, String> {
        match self {
            Fronts::Vm(ts) => {
                ts[i].complete_load(req.dst, value);
                Ok(false)
            }
            Fronts::Trace { cores, board } => cores[i].complete(value, board),
        }
    }

    /// Index of replay core `i`'s next op (0 for a VM thread), for stall
    /// reports.
    pub(crate) fn position(&self, i: CoreId) -> usize {
        match self {
            Fronts::Vm(_) => 0,
            Fronts::Trace { cores, .. } => cores[i].position(),
        }
    }

    /// Overrides core `i`'s bump-allocation pool. Replay cores carry no
    /// allocator: recorded `alloc` results are baked into the op stream's
    /// addresses. Accepting (and ignoring) the call lets one workload driver
    /// serve both modes.
    pub(crate) fn set_alloc_pool(&mut self, i: CoreId, base: Addr, bytes: u64) {
        if let Fronts::Vm(ts) = self {
            ts[i].set_alloc_pool(base, bytes);
        }
    }

    /// The VM threads, or `None` for trace replay.
    pub(crate) fn threads(&self) -> Option<&[Thread]> {
        match self {
            Fronts::Vm(ts) => Some(ts),
            Fronts::Trace { .. } => None,
        }
    }

    /// Feeds every front end, then the replay board, into a state hash.
    pub(crate) fn hash_into<H: Hasher>(&self, h: &mut H) {
        match self {
            Fronts::Vm(ts) => ts.iter().for_each(|t| t.hash(h)),
            Fronts::Trace { cores, board } => {
                cores.iter().for_each(|c| c.position().hash(h));
                board.hash_into(h);
            }
        }
    }
}
