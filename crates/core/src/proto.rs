//! The controller ↔ system interface.
//!
//! Protocol controllers (MESI L1/directory, DeNovo L1/registry — GCS being
//! the DeNovo pair running GCS's tables) are written as
//! message-in / actions-out state machines: they never touch the network,
//! the scheduler or the telemetry handle. Each entry point returns a list of
//! [`Action`]s the surrounding [`System`](crate::system::System) applies —
//! this keeps the controllers independently unit-testable, exactly the
//! property the paper exploits when it argues DeNovo's three-state protocol
//! is easy to verify. What a controller observes (a state transition, an
//! MSHR allocation) is an action too, [`Action::Observe`], pushed through
//! its [`Actions`] buffer, which keeps it only while telemetry records: the
//! system stamps it with the cycle and the controller's node and hands it
//! to its observer.
//! The system reaches the controllers only through one backend enum with a
//! MESI and a DeNovo variant, which dispatches core requests, deliveries,
//! spin watches, invariant checks, fingerprint hashing and metrics. Every
//! controller takes its messages through one `on_msg`, and a core request's
//! [`IssueResult`] is the L1's whole answer: the controllers count no
//! accesses, the system does ([`IssueResult::hit`]).

use crate::msg::{Endpoint, Msg};
use dvs_engine::Cycle;
use dvs_mem::{AccessKind, LineAddr, Mshr};
use dvs_stats::CacheStats;
use dvs_telemetry::EventKind;

/// A side effect requested by a protocol controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a message on the interconnect.
    Send {
        /// Destination endpoint.
        to: Endpoint,
        /// The message.
        msg: Msg,
    },
    /// The core's blocking memory operation completed (loads and RMWs carry
    /// the returned value).
    CoreDone {
        /// Value delivered to the destination register, if any.
        value: Option<u64>,
    },
    /// `count` outstanding non-blocking data stores completed.
    StoresDone {
        /// Number of stores retired.
        count: usize,
    },
    /// The word/line the core is spin-watching changed state; the spin must
    /// re-examine memory.
    SpinWake,
    /// Re-deliver `msg` to this same controller after `delay` cycles,
    /// without touching the network (used to retry installs blocked on a
    /// structural hazard). Generates no traffic.
    Local {
        /// Delay before re-delivery.
        delay: Cycle,
        /// The message to re-process.
        msg: Msg,
    },
    /// The controller received a message its current state cannot legally
    /// handle — a protocol bug (or injected corruption). The system aborts
    /// the run with [`SimError::ProtocolViolation`]
    /// (`crate::system::SimError::ProtocolViolation`) instead of panicking
    /// mid-event-loop, so the offending state is reported with endpoint and
    /// address context.
    Violation {
        /// Human-readable description of the illegal state/message pair.
        detail: String,
    },
    /// Something the controller saw, for telemetry only: never read back
    /// into simulated behaviour. The system reports every observation in a
    /// buffer before applying the buffer's other actions, so a controller's
    /// events precede the network events of the messages it sends.
    Observe {
        /// Byte address the observation concerns (a word's or line's
        /// first byte).
        addr: u64,
        /// What was observed.
        kind: EventKind,
    },
}

impl Action {
    /// Shorthand for a [`Action::Violation`] with a formatted detail string.
    pub fn violation(detail: impl Into<String>) -> Action {
        Action::Violation {
            detail: detail.into(),
        }
    }
}

/// A controller's output: the actions one call asks for, in order. Its
/// observations ([`Action::Observe`]) are kept only when the buffer
/// observes: the system's buffers observe exactly while telemetry records,
/// so a run without telemetry never builds one. Reads and pushes go
/// straight to the list (`Deref` to `Vec<Action>`).
#[derive(Debug, Clone, Default)]
pub struct Actions {
    list: Vec<Action>,
    observing: bool,
}

impl Actions {
    /// An empty buffer that keeps observations iff `observing`.
    pub fn new(observing: bool) -> Self {
        Actions {
            list: Vec::new(),
            observing,
        }
    }

    /// Whether observations are kept (see [`Actions::new`]).
    pub(crate) fn set_observing(&mut self, observing: bool) {
        self.observing = observing;
    }

    /// Observes `kind` at `addr` (dropped unless the buffer observes).
    #[inline]
    pub fn observe(&mut self, addr: u64, kind: EventKind) {
        if self.observing {
            self.list.push(Action::Observe { addr, kind });
        }
    }

    /// Observes a state transition at `addr`.
    #[inline]
    pub fn transition(
        &mut self,
        addr: u64,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        self.observe(addr, EventKind::Transition { from, to, cause });
    }
}

impl std::ops::Deref for Actions {
    type Target = Vec<Action>;
    fn deref(&self) -> &Vec<Action> {
        &self.list
    }
}

impl std::ops::DerefMut for Actions {
    fn deref_mut(&mut self) -> &mut Vec<Action> {
        &mut self.list
    }
}

/// The immediate outcome of a core request presented to its L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueResult {
    /// The access completed in the cache (1-cycle hit).
    Hit {
        /// Value returned to the core, if the access returns one.
        value: Option<u64>,
    },
    /// The access missed; an MSHR was allocated and a
    /// [`Action::CoreDone`] will follow. Blocking accesses stall the core.
    Miss,
    /// A non-blocking data store was accepted. If `completed`, it finished
    /// locally; otherwise the store is outstanding until a
    /// [`Action::StoresDone`].
    StoreAccepted {
        /// Whether the store already completed.
        completed: bool,
    },
    /// DeNovoSync hardware backoff: delay this synchronization read for
    /// `cycles`, then re-issue it (which will then miss).
    Backoff {
        /// Stall length.
        cycles: Cycle,
    },
    /// A structural hazard (way full of pinned lines, writeback in
    /// progress); retry the access after a short delay.
    Blocked,
}

impl IssueResult {
    /// The access in the paper's hit/miss breakdown: a hit when the cache
    /// completed it, a miss when it went to the network, `None` when it was
    /// not performed (a backoff or a blocked access is re-issued and
    /// counted then). The one hit/miss rule: the system's counters and the
    /// observer's access events both read it.
    pub fn hit(&self) -> Option<bool> {
        match *self {
            IssueResult::Hit { .. } | IssueResult::StoreAccepted { completed: true } => Some(true),
            IssueResult::Miss | IssueResult::StoreAccepted { completed: false } => Some(false),
            IssueResult::Backoff { .. } | IssueResult::Blocked => None,
        }
    }
}

/// The L2 bank homing `line` among `banks` banks: lines interleave across
/// banks by line address. Every controller routes requests by this rule,
/// the whole-machine checks find a line's directory entry by it, and each
/// bank's dense line table (`configure_span`) is laid out at its stride.
pub(crate) fn home_bank(line: LineAddr, banks: usize) -> usize {
    (line.raw() % banks as u64) as usize
}

/// Opens `key`'s entry in an L1's MSHR file and observes the allocation at
/// `addr`, the key's first byte.
pub(crate) fn mshr_alloc<K: Ord, V>(
    mshr: &mut Mshr<K, V>,
    key: K,
    value: V,
    addr: u64,
    actions: &mut Actions,
) {
    mshr.try_insert(key, value)
        .expect("one MSHR entry per address");
    let occupancy = mshr.len() as u32;
    actions.observe(addr, EventKind::MshrAlloc { occupancy });
}

/// Closes `key`'s MSHR entry, if one is open, and observes the release at
/// `addr`.
pub(crate) fn mshr_free<K: Ord, V>(
    mshr: &mut Mshr<K, V>,
    key: &K,
    addr: u64,
    actions: &mut Actions,
) -> Option<V> {
    let value = mshr.remove(key)?;
    let occupancy = mshr.len() as u32;
    actions.observe(addr, EventKind::MshrFree { occupancy });
    Some(value)
}

/// Counts one L1 access, by kind, in the paper's hit/miss breakdown.
pub(crate) fn count_access(stats: &mut CacheStats, kind: AccessKind, hit: bool) {
    let (hits, misses) = match kind {
        AccessKind::DataLoad => (&mut stats.data_read_hits, &mut stats.data_read_misses),
        AccessKind::DataStore { .. } => (&mut stats.data_write_hits, &mut stats.data_write_misses),
        AccessKind::SyncLoad => (&mut stats.sync_read_hits, &mut stats.sync_read_misses),
        AccessKind::SyncStore { .. } | AccessKind::SyncRmw(_) => {
            (&mut stats.sync_write_hits, &mut stats.sync_write_misses)
        }
    };
    *if hit { hits } else { misses } += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_result_is_inspectable() {
        assert_eq!(
            IssueResult::Hit { value: Some(3) },
            IssueResult::Hit { value: Some(3) }
        );
        assert_ne!(IssueResult::Miss, IssueResult::Blocked);
    }

    #[test]
    fn actions_compare() {
        assert_eq!(
            Action::StoresDone { count: 1 },
            Action::StoresDone { count: 1 }
        );
        assert_ne!(Action::SpinWake, Action::CoreDone { value: None });
    }
}
