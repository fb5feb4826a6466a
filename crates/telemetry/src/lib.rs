//! Zero-cost structured observability for the DeNovoSync reproduction.
//!
//! The simulator's end-of-run aggregates say *what* a run cost; this crate
//! records *why*. It provides three cooperating pieces:
//!
//! * **A typed event stream** ([`Event`] / [`EventKind`]): protocol
//!   transitions, registrations and invalidations, NoC enqueue/hop/dequeue,
//!   MSHR alloc/free, per-core stall begin/end, access outcomes, and
//!   delivered protocol messages, all stamped with the simulated cycle and
//!   the emitting `(node, component)`. Events flow through a [`Telemetry`]
//!   handle, which is either off or an in-memory recorder.
//! * **A hierarchical metrics registry** ([`MetricsRegistry`]): counters and
//!   log2 histograms keyed by `node/component/name` paths, stored in ordered
//!   maps so aggregation (and JSON rendering) is deterministic regardless of
//!   worker count or merge order.
//! * **A Chrome trace-event exporter** ([`perfetto`]): renders an event
//!   stream as per-core / per-directory lanes in the JSON trace-event
//!   format, so a whole kernel run opens in `ui.perfetto.dev`.
//!
//! # The zero-cost guarantee
//!
//! A default [`Telemetry`] handle is *off*: it holds no recorder, and
//! [`Telemetry::emit`] takes a closure, so when telemetry is disabled the
//! cost at every instrumentation site is one branch on an `Option` — the
//! event value is never even constructed. Nothing in this crate feeds back
//! into simulated state: handles hash as nothing, compare as nothing, and
//! are excluded from every architectural `Hash` in the stack, so simulated
//! results (and campaign digests) are byte-identical with telemetry on or
//! off.
//!
//! # Examples
//!
//! ```
//! use dvs_telemetry::{Component, Event, EventKind, Telemetry};
//!
//! let tel = Telemetry::recorder();
//! tel.emit(|| Event {
//!     cycle: 42,
//!     node: 3,
//!     component: Component::L1,
//!     addr: 0x100,
//!     kind: EventKind::Access { hit: true, sync: false, write: false },
//! });
//! let events = tel.take_events().expect("recorder drains");
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].cycle, 42);
//!
//! let off = Telemetry::default();
//! off.emit(|| unreachable!("never constructed when telemetry is off"));
//! ```

pub mod metrics;
pub mod perfetto;

pub use metrics::{Log2Histogram, MetricsRegistry};

use std::sync::{Arc, Mutex};

/// Which simulated component emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A core / its VM thread.
    Core,
    /// A private L1 controller (MESI or DeNovo).
    L1,
    /// A shared-L2 bank: MESI directory or DeNovo registry.
    Dir,
    /// The mesh interconnect.
    Noc,
    /// A miss-status holding register file.
    Mshr,
    /// The system event loop itself (message deliveries, marks).
    Sys,
}

impl Component {
    /// Stable lowercase label used in stall reports' recent-message lines.
    pub fn label(self) -> &'static str {
        match self {
            Component::Core => "core",
            Component::L1 => "l1",
            Component::Dir => "dir",
            Component::Noc => "noc",
            Component::Mshr => "mshr",
            Component::Sys => "sys",
        }
    }
}

/// Why a core is not retiring instructions (the stall taxonomy mirrored by
/// the paper's stacked-bar breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallClass {
    /// Blocked on the memory system (a miss outstanding).
    Memory,
    /// Parked in the spin-watch waiting for a sync location to change.
    Spin,
    /// Serving a hardware-backoff penalty before reissuing a sync access.
    Backoff,
    /// Waiting on a fence for outstanding stores to drain.
    Fence,
}

impl StallClass {
    /// Every stall class, in reporting order.
    pub const ALL: [StallClass; 4] = [
        StallClass::Memory,
        StallClass::Spin,
        StallClass::Backoff,
        StallClass::Fence,
    ];

    /// Stable lowercase label used in metric paths and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            StallClass::Memory => "memory",
            StallClass::Spin => "spin",
            StallClass::Backoff => "backoff",
            StallClass::Fence => "fence",
        }
    }

    /// The metric names of this class's stall count and duration
    /// histogram: `stall_<label>_count` and `stall_<label>_cycles`.
    pub fn metric_names(self) -> (&'static str, &'static str) {
        match self {
            StallClass::Memory => ("stall_memory_count", "stall_memory_cycles"),
            StallClass::Spin => ("stall_spin_count", "stall_spin_cycles"),
            StallClass::Backoff => ("stall_backoff_count", "stall_backoff_cycles"),
            StallClass::Fence => ("stall_fence_count", "stall_fence_cycles"),
        }
    }

    /// Dense index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            StallClass::Memory => 0,
            StallClass::Spin => 1,
            StallClass::Backoff => 2,
            StallClass::Fence => 3,
        }
    }
}

/// What happened. Variants carry only plain numbers and `&'static str`
/// labels so an [`Event`] is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A core access completed at the L1 with this outcome.
    Access {
        /// Serviced without leaving the L1.
        hit: bool,
        /// The access was a synchronization access.
        sync: bool,
        /// The access may write.
        write: bool,
    },
    /// A synchronization access was penalized by hardware backoff.
    Backoff {
        /// Penalty length in cycles.
        cycles: u64,
    },
    /// A program-inserted phase marker (kernel iteration boundaries).
    Mark(u32),
    /// A protocol controller moved a line/word between states.
    Transition {
        /// State before the message/request was applied.
        from: &'static str,
        /// State after.
        to: &'static str,
        /// What caused the move (message or request name).
        cause: &'static str,
    },
    /// A DeNovo registry (or L1) re-pointed a word's registration.
    Registration {
        /// Core that now owns the word's registered copy.
        owner: u32,
        /// Previous owner, or `u32::MAX` when the word was unregistered.
        prev: u32,
    },
    /// A MESI invalidation was sent to (or acted on by) a sharer.
    Invalidation {
        /// The core whose request triggered the invalidation.
        requester: u32,
        /// Sharers invalidated (fan-out at the directory, 1 at an L1).
        sharers: u32,
    },
    /// A message entered the mesh at its source tile.
    NocEnqueue {
        /// Destination tile.
        dst: u32,
        /// Message size in flits.
        flits: u32,
    },
    /// A message's head flit claimed one link of its route.
    NocHop {
        /// Link id along the XY route.
        link: u32,
        /// Cycle until which the link stays busy serializing the message.
        busy_until: u64,
    },
    /// A message fully arrived at its destination tile.
    NocDequeue {
        /// Source tile.
        src: u32,
        /// End-to-end latency in cycles, including queuing.
        latency: u64,
    },
    /// An MSHR entry was allocated.
    MshrAlloc {
        /// Entries in use after the allocation.
        occupancy: u32,
    },
    /// An MSHR entry was released.
    MshrFree {
        /// Entries in use after the release.
        occupancy: u32,
    },
    /// A core stopped retiring instructions.
    StallBegin {
        /// Why.
        class: StallClass,
    },
    /// A core resumed after a stall.
    StallEnd {
        /// Why it was stalled.
        class: StallClass,
        /// Stall length in cycles.
        cycles: u64,
    },
    /// A GCS directory pushed a targeted update notification to the waiter
    /// set of a sync-classified word.
    Notify {
        /// The core whose update triggered the notification.
        writer: u32,
        /// Waiters notified (fan-out at the directory).
        waiters: u32,
    },
    /// The event loop delivered a protocol message to an endpoint.
    Delivery {
        /// The message's wire name (e.g. `GetM`, `RegReq`).
        msg: &'static str,
        /// Delivery ordinal (1-based count of deliveries so far).
        ordinal: u64,
    },
}

/// One observation: *when*, *where*, *about which address*, *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Simulated cycle the event happened at.
    pub cycle: u64,
    /// Emitting node: core/tile index, or bank index for directories.
    pub node: u32,
    /// Emitting component class.
    pub component: Component,
    /// Byte address the event concerns, or 0 when not address-shaped.
    pub addr: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A cheap, cloneable handle to an in-memory event recorder — or to
/// nothing.
///
/// `Telemetry::default()` is the *off* handle: no allocation, no lock, and
/// [`Telemetry::emit`]'s closure is never called, so instrumentation sites
/// cost one `Option` branch when observability is disabled. Clones share
/// one recording. Inside a
/// [`System`](../dvs_core/system/struct.System.html) the observer holds the
/// handle (the network a clone, for its per-hop events); the protocol
/// controllers and MSHRs hold none and report what they see as actions.
///
/// A handle keeps no clock: every event arrives stamped by its emitter,
/// from the cycle of the event loop it runs in. Handles are deliberately
/// invisible to simulated state: they carry no `Hash`/`PartialEq`, and
/// every architectural container that stores one excludes it from its own
/// `Hash`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    events: Option<Arc<Mutex<Vec<Event>>>>,
}

impl Telemetry {
    /// The off handle (same as `Telemetry::default()`).
    pub fn off() -> Self {
        Telemetry::default()
    }

    /// A handle that records every event in memory, in emission order.
    pub fn recorder() -> Self {
        Telemetry {
            events: Some(Arc::default()),
        }
    }

    /// Whether the handle records. Instrumentation that must loop to build
    /// several events (e.g. per-hop NoC records) guards on this first.
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records the event built by `f` — or does nothing, without calling
    /// `f`, when the handle is off.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(events) = &self.events {
            record(events, f());
        }
    }

    /// Drains the events recorded so far, oldest first; `None` for the off
    /// handle.
    pub fn take_events(&self) -> Option<Vec<Event>> {
        let events = self.events.as_ref()?;
        Some(std::mem::take(
            &mut *events.lock().expect("telemetry recorder lock"),
        ))
    }
}

/// The recording half of [`Telemetry::emit`], kept out of line so an
/// instrumentation site inlines only its `Option` branch and the call.
#[inline(never)]
fn record(events: &Mutex<Vec<Event>>, event: Event) {
    events.lock().expect("telemetry recorder lock").push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_metric_names_carry_the_label() {
        for class in StallClass::ALL {
            let label = class.label();
            let want = (
                format!("stall_{label}_count"),
                format!("stall_{label}_cycles"),
            );
            let (count, cycles) = class.metric_names();
            assert_eq!((count.to_owned(), cycles.to_owned()), want);
        }
    }

    fn ev(cycle: u64, node: u32) -> Event {
        Event {
            cycle,
            node,
            component: Component::L1,
            addr: 0x40,
            kind: EventKind::Access {
                hit: false,
                sync: true,
                write: false,
            },
        }
    }

    #[test]
    fn off_handle_never_builds_the_event() {
        let off = Telemetry::off();
        assert!(!off.enabled());
        off.emit(|| unreachable!("closure must not run"));
        assert!(off.take_events().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let tel = Telemetry::recorder();
        let alias = tel.clone();
        tel.emit(|| ev(1, 0));
        alias.emit(|| ev(2, 1));
        let events = tel.take_events().expect("recorder");
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].cycle, events[1].cycle), (1, 2));
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Telemetry>();
        assert_send::<Event>();
    }
}
