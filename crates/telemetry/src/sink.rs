//! The forensic ring: a bounded per-node history of recent events.
//!
//! A [`RingSink`] sits beside a system's telemetry handle, not behind it:
//! the system pushes every delivered message into it whether or not
//! telemetry records, and a deadlock or cycle-limit report reads it back
//! with [`RingSink::snapshot`] to show the last few events of every node
//! without unbounded memory growth.

use crate::Event;
use std::collections::VecDeque;

/// Keeps the last `per_node` events of every `(component, node)` pair.
///
/// Bounded, allocation-light after warm-up, and organized so a stall
/// report can show each node's recent history rather than one interleaved
/// tail dominated by the busiest node. It also sits on the simulator's
/// always-hot delivery path, so [`RingSink::push`] is two array indexes —
/// per-node rings live in dense component-indexed tables (grown on first
/// sight of a node), not in a search tree.
#[derive(Debug, Clone)]
pub struct RingSink {
    per_node: usize,
    /// `rings[component as usize][node]`; nodes never seen hold empty rings.
    rings: [Vec<VecDeque<Event>>; 6],
}

impl RingSink {
    /// A ring keeping at most `per_node` events per `(component, node)`;
    /// a capacity of zero keeps one.
    pub fn new(per_node: usize) -> Self {
        RingSink {
            per_node: per_node.max(1),
            rings: Default::default(),
        }
    }

    /// Accepts one event.
    pub fn push(&mut self, event: &Event) {
        let nodes = &mut self.rings[event.component as usize];
        let node = event.node as usize;
        if node >= nodes.len() {
            nodes.resize_with(node + 1, VecDeque::new);
        }
        let ring = &mut nodes[node];
        if ring.len() == self.per_node {
            ring.pop_front();
        }
        ring.push_back(*event);
    }

    /// All buffered events in one list: per-node rings concatenated in
    /// `(component, node)` order, oldest-first within each ring.
    pub fn snapshot(&self) -> Vec<Event> {
        self.rings.iter().flatten().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, EventKind};

    fn ev(cycle: u64, node: u32, component: Component, kind: EventKind) -> Event {
        Event {
            cycle,
            node,
            component,
            addr: 0x80,
            kind,
        }
    }

    #[test]
    fn ring_keeps_last_n_per_node_in_order() {
        let mut ring = RingSink::new(2);
        for cycle in 0..5 {
            ring.push(&ev(cycle, 0, Component::L1, EventKind::Mark(0)));
        }
        ring.push(&ev(99, 1, Component::Dir, EventKind::Mark(1)));
        let all = ring.snapshot();
        assert_eq!(all.len(), 3);
        // L1 sorts before Dir in the component order; within the L1 ring
        // the two newest survive, oldest first.
        assert_eq!((all[0].cycle, all[1].cycle), (3, 4));
        assert_eq!(all[2].cycle, 99);
    }
}
