//! Oracle (untimed) stepping interface for the model checker.
//!
//! In oracle mode the system does not schedule timed `Deliver` events.
//! Instead every protocol message enqueues into a per-channel FIFO keyed by
//! [`ChannelKey`], and an external driver — `dvs-check` — picks which
//! channel's head message to deliver next. Between deliveries the system
//! runs all core-local events to quiescence, so the *only* branch points in
//! the state space are delivery picks: [`System::oracle_channels`] lists
//! them and [`System::oracle_deliver`] fires one.
//!
//! Channels mirror the guarantees of the timed network: point-to-point FIFO
//! order between a (source node, destination endpoint) pair is preserved
//! (the same invariant [`FaultInjector`](crate::chaos::FaultInjector)
//! enforces when perturbing timed runs), and `Action::Local` self-messages
//! get their own lane per endpoint so a controller's install-retry loop
//! cannot starve or be starved by network traffic.

use crate::msg::{CoreId, Endpoint, Msg};
use crate::system::System;
use dvs_noc::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// One FIFO message channel of the oracle-mode system.
///
/// `Ord` gives the channels a canonical enumeration order, which makes
/// enabled-transition lists deterministic across runs and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelKey {
    /// Network traffic from a source tile to a destination endpoint.
    /// Keying by source keeps cross-source reordering available to the
    /// checker while preserving each source's FIFO order.
    Net(NodeId, Endpoint),
    /// An endpoint's deferred self-messages (`Action::Local`): retry loops
    /// a controller schedules against itself, e.g. a MESI fill waiting for
    /// an evictable way.
    Local(Endpoint),
}

impl ChannelKey {
    /// The endpoint a delivery on this channel mutates.
    pub fn dst(self) -> Endpoint {
        match self {
            ChannelKey::Net(_, dst) => dst,
            ChannelKey::Local(ep) => ep,
        }
    }

    /// The mesh node hosting an endpoint — mirrors the system's endpoint
    /// placement (tile `i` hosts both `L1(i)` and `Bank(i)`; memory
    /// controller `n` sits on node `n`). Sends are FIFO per (source *node*,
    /// destination), so co-located endpoints share outbound channels.
    fn node(ep: Endpoint) -> usize {
        match ep {
            Endpoint::L1(i) => i,
            Endpoint::Bank(b) => b,
            Endpoint::Mem(n) => n,
        }
    }

    /// The partial-order-reduction dependence relation: whether deliveries
    /// on `self` and `other` can influence each other's effect, i.e.
    /// whether firing them in either order may reach different states.
    ///
    /// A delivery to endpoint `E` mutates `E`'s controller (plus `E`'s core
    /// for an L1, plus main memory for a memory controller) and *appends*
    /// to outbound channels keyed by `E`'s node. Two deliveries commute
    /// when those footprints are disjoint, so they are dependent iff their
    /// destinations share a node (same controller, or co-located
    /// controllers whose responses race into one outbound FIFO — e.g.
    /// `L1(0)` forwarding data and `Bank(0)` sending an Inv to the same
    /// requester), or both destinations are memory controllers (which share
    /// the one main-memory image). Parked-core re-issues triggered by an
    /// unrelated delivery re-block without side effects, so they do not
    /// widen the footprint.
    pub fn depends(self, other: ChannelKey) -> bool {
        let (a, b) = (self.dst(), other.dst());
        Self::node(a) == Self::node(b)
            || (matches!(a, Endpoint::Mem(_)) && matches!(b, Endpoint::Mem(_)))
    }
}

impl fmt::Display for ChannelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ep(f: &mut fmt::Formatter<'_>, e: Endpoint) -> fmt::Result {
            match e {
                Endpoint::L1(i) => write!(f, "l1:{i}"),
                Endpoint::Bank(i) => write!(f, "bank:{i}"),
                Endpoint::Mem(i) => write!(f, "mem:{i}"),
            }
        }
        match self {
            ChannelKey::Net(src, dst) => {
                write!(f, "net({src}->")?;
                ep(f, *dst)?;
                write!(f, ")")
            }
            ChannelKey::Local(e) => {
                write!(f, "local(")?;
                ep(f, *e)?;
                write!(f, ")")
            }
        }
    }
}

/// The oracle-mode runtime state carried by [`System`]: the undelivered
/// message channels and the cores parked on `IssueResult::Blocked` (they
/// re-issue after the next delivery instead of on a timer).
#[derive(Debug, Clone, Default)]
pub(crate) struct OracleState {
    /// Undelivered messages, FIFO per channel. A `BTreeMap` so enumeration
    /// order (and hence the checker's transition order) is canonical; empty
    /// queues are removed eagerly to keep the map canonical too.
    pub(crate) channels: BTreeMap<ChannelKey, VecDeque<Msg>>,
    /// Cores whose last issue returned `Blocked`; woken by the next
    /// delivery.
    pub(crate) parked: Vec<CoreId>,
}

/// An explicit delivery schedule: the counterexample form the checker
/// exports. Where a [`FaultPlan`](crate::chaos::FaultPlan) describes a
/// *distribution* over legal schedules (seed + bounds), a `SchedulePlan`
/// pins one exact schedule — the sequence of channel picks from the initial
/// state — so a violation found by the checker replays deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SchedulePlan {
    /// The channel picked at each delivery step, in order.
    pub picks: Vec<ChannelKey>,
}

impl SchedulePlan {
    /// A plan delivering `picks` in order.
    pub fn new(picks: Vec<ChannelKey>) -> Self {
        SchedulePlan { picks }
    }

    /// Number of deliveries in the schedule.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// Whether the schedule delivers nothing.
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// Replays the schedule against a fresh oracle-mode machine, returning
    /// the machine in its final state for inspection (its [`System::error`],
    /// stall report, and memory contents).
    ///
    /// Stops early if a pick is invalid (its channel is empty — the plan
    /// does not match the machine) or an error is recorded before the plan
    /// runs out; in both cases the returned system shows how far it got via
    /// its delivery ordinal.
    pub fn replay(&self, mut sys: System) -> System {
        for &pick in &self.picks {
            if sys.error().is_some() || !sys.oracle_deliver(pick) {
                break;
            }
        }
        sys
    }
}

impl fmt::Display for SchedulePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule[{}]:", self.picks.len())?;
        for p in &self.picks {
            write!(f, " {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_key_dependence_and_order() {
        let a = ChannelKey::Net(0, Endpoint::Bank(1));
        let b = ChannelKey::Net(3, Endpoint::Bank(1));
        let c = ChannelKey::Net(0, Endpoint::L1(2));
        let m0 = ChannelKey::Net(1, Endpoint::Mem(0));
        let m1 = ChannelKey::Local(Endpoint::Mem(3));
        assert!(a.depends(b), "same destination bank");
        assert!(!a.depends(c), "distinct nodes commute");
        assert!(
            a.depends(ChannelKey::Net(2, Endpoint::L1(1))),
            "co-located L1/bank share outbound channels"
        );
        assert!(m0.depends(m1), "memory controllers share the memory image");
        assert!(a.depends(a));
        // Ord is total and agrees with Eq — needed for canonical maps.
        let mut v = vec![c, b, a, m1, m0];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn schedule_plan_displays_picks() {
        let plan = SchedulePlan::new(vec![
            ChannelKey::Net(0, Endpoint::Bank(0)),
            ChannelKey::Local(Endpoint::L1(1)),
        ]);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        let s = plan.to_string();
        assert!(s.contains("net(0->bank:0)"), "{s}");
        assert!(s.contains("local(l1:1)"), "{s}");
    }
}
