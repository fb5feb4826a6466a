//! The one seam through which a [`System`](crate::System) is observed.
//!
//! Every observation the machine makes — the telemetry stream, the
//! always-on forensic message ring, per-core stall accounting and the
//! optional trace recorder — goes through [`Observer`]'s handful of hooks:
//! [`retired`](Observer::retired) per run of retired instructions,
//! [`effect`](Observer::effect) per core effect, [`issue`](Observer::issue)
//! and [`complete`](Observer::complete) per memory access,
//! [`deliver`](Observer::deliver) per message,
//! [`controller`](Observer::controller) per buffer of controller actions
//! (its [`Action::Observe`]s), and
//! [`stall_begin`](Observer::stall_begin)/[`stall_end`](Observer::stall_end)
//! per stall interval. The observer holds the machine's telemetry handle
//! (the network a clone, for its per-hop events), and every event carries
//! the scheduler's cycle the system passes in. The observer never feeds
//! back into simulated behaviour; results the run digests (`RunStats`,
//! traffic, time attribution) stay in the system. An access event's hit
//! or miss is [`IssueResult::hit`], the rule the system counts
//! `RunStats.cache` with.
//!
//! It is one concrete struct, not a trait: every channel is present in
//! every run, switched at runtime with one branch (the telemetry handle's
//! `Option`, the recorder's `Option`).

use crate::msg::{CoreId, Endpoint, Msg};
use crate::proto::{Action, IssueResult};
use crate::replay::{Recording, TraceRecorder};
use dvs_engine::Cycle;
use dvs_mem::Addr;
use dvs_telemetry::{Component, Event, EventKind, MetricsRegistry, StallClass, Telemetry};
use dvs_vm::{Effect, MemRequest, StallTracker};

/// How many deliveries the forensic ring remembers per destination
/// `(component, node)`.
const FORENSICS_PER_NODE: usize = 16;

/// One remembered delivery: what a stall report's line shows of it.
#[derive(Debug, Clone, Copy)]
struct Delivered {
    cycle: Cycle,
    ordinal: u64,
    line: u64,
    msg: &'static str,
}

/// The always-on forensic ring: every destination's last
/// [`FORENSICS_PER_NODE`] deliveries in fixed arrays, sized when the system
/// is built, so recording a delivery is one index and one store. A
/// destination's `n`-th delivery (0-based) lands in slot
/// `n % FORENSICS_PER_NODE` of its array.
#[derive(Debug, Clone)]
struct MessageRing {
    nodes: usize,
    /// `recs[c * nodes + node]` for destination component `c` (L1, bank,
    /// memory controller) of [`PLACES`].
    recs: Vec<[Delivered; FORENSICS_PER_NODE]>,
    /// Deliveries so far to each destination, indexed like `recs`; kept
    /// apart so the counters stay in a few hot cache lines.
    pushed: Vec<u64>,
}

/// The components messages are delivered to, in ring order.
const PLACES: [Component; 3] = [Component::L1, Component::Dir, Component::Sys];

impl MessageRing {
    fn new(nodes: usize) -> Self {
        let empty = Delivered {
            cycle: 0,
            ordinal: 0,
            line: 0,
            msg: "",
        };
        MessageRing {
            nodes,
            recs: vec![[empty; FORENSICS_PER_NODE]; PLACES.len() * nodes],
            pushed: vec![0; PLACES.len() * nodes],
        }
    }

    #[inline]
    fn push(&mut self, ep: Endpoint, rec: Delivered) {
        let (place, node) = match ep {
            Endpoint::L1(i) => (0, i),
            Endpoint::Bank(b) => (1, b),
            Endpoint::Mem(n) => (2, n),
        };
        let at = place * self.nodes + node;
        let n = self.pushed[at];
        self.recs[at][(n % FORENSICS_PER_NODE as u64) as usize] = rec;
        self.pushed[at] = n + 1;
    }

    /// Every remembered delivery with its destination, in delivery order.
    fn snapshot(&self) -> Vec<(Component, usize, Delivered)> {
        let mut all: Vec<_> = self
            .recs
            .iter()
            .zip(&self.pushed)
            .enumerate()
            .flat_map(|(i, (recs, &pushed))| {
                let kept = pushed.min(FORENSICS_PER_NODE as u64) as usize;
                let place = (PLACES[i / self.nodes], i % self.nodes);
                recs[..kept].iter().map(move |&r| (place.0, place.1, r))
            })
            .collect();
        all.sort_by_key(|&(.., r)| r.ordinal);
        all
    }
}

/// Telemetry, forensic ring, stall accounting and trace recording for one
/// system.
#[derive(Debug, Clone)]
pub(crate) struct Observer {
    /// The telemetry handle; the off handle makes every emit a no-op.
    tel: Telemetry,
    /// Always-on per-node ring of recent deliveries, for stall reports.
    /// Fed directly (no handle) so it works with telemetry off.
    ring: MessageRing,
    /// Always-on stall duration accounting, exported into the metrics
    /// tree after a run.
    stalls: StallTracker,
    /// Live trace recording; boxed to keep the machine small when not
    /// recording.
    recorder: Option<Box<TraceRecorder>>,
}

impl Observer {
    pub(crate) fn new(cores: usize) -> Self {
        Observer {
            tel: Telemetry::off(),
            ring: MessageRing::new(cores),
            stalls: StallTracker::new(cores),
            recorder: None,
        }
    }

    pub(crate) fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Whether telemetry records (controllers' observations are kept).
    pub(crate) fn recording(&self) -> bool {
        self.tel.enabled()
    }

    pub(crate) fn start_recording(&mut self, cores: usize) {
        self.recorder = Some(Box::new(TraceRecorder::new(cores)));
    }

    pub(crate) fn take_recording(&mut self, init: &[(Addr, u64)]) -> Option<Recording> {
        self.recorder.take().map(|r| r.finish(init))
    }

    /// Exports core `core`'s stall counts and duration histograms into
    /// `reg` under `node`.
    pub(crate) fn export_core(&self, core: CoreId, node: &str, reg: &mut MetricsRegistry) {
        self.stalls.export_core(core, node, reg);
    }

    /// Emits a core-level event stamped `cycle`.
    fn core_event(&self, core: CoreId, cycle: Cycle, addr: u64, kind: EventKind) {
        self.tel.emit(|| Event {
            cycle,
            node: core as u32,
            component: Component::Core,
            addr,
            kind,
        });
    }

    /// `core` retired `n` instructions that had no effect (ALU, branch).
    #[inline]
    pub(crate) fn retired(&mut self, core: CoreId, n: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.retired(core, n);
        }
    }

    /// One effect of a core step, `at` the core-local cycle it happens.
    #[inline]
    pub(crate) fn effect(&mut self, core: CoreId, eff: &Effect, at: Cycle) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.effect(core, eff);
        }
        if let Effect::Mark(m) = *eff {
            self.core_event(core, at, 0, EventKind::Mark(m));
        }
    }

    /// The L1's answer to a core's memory request: the access outcome, the
    /// stall a miss opens, a backoff penalty's whole stall, and a recorded
    /// accepted store.
    pub(crate) fn issue(&mut self, core: CoreId, req: &MemRequest, res: &IssueResult, at: Cycle) {
        let addr = req.addr.raw();
        if let Some(hit) = res.hit() {
            let (sync, write) = (req.kind.is_sync(), req.kind.may_write());
            self.core_event(core, at, addr, EventKind::Access { hit, sync, write });
        }
        match *res {
            IssueResult::Miss => self.stall_begin(core, StallClass::Memory, at),
            IssueResult::StoreAccepted { .. } => {
                if let Some(r) = self.recorder.as_deref_mut() {
                    r.store_accepted(core, req);
                }
            }
            IssueResult::Backoff { cycles } => {
                let class = StallClass::Backoff;
                self.stall_begin(core, class, at);
                self.stall_end(core, class, at, at + cycles);
                self.core_event(core, at, addr, EventKind::Backoff { cycles });
            }
            IssueResult::Hit { .. } | IssueResult::Blocked => {}
        }
    }

    /// A blocking access completed with `value` (0 for sync stores).
    pub(crate) fn complete(&mut self, core: CoreId, req: &MemRequest, value: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.mem_complete(core, req, value);
        }
    }

    /// Message number `ordinal` was delivered to `ep` at `at`.
    #[inline]
    pub(crate) fn deliver(&mut self, at: Cycle, ep: Endpoint, msg: &Msg, ordinal: u64) {
        let line = msg.line().base().raw();
        let name = msg.kind_name();
        self.ring.push(
            ep,
            Delivered {
                cycle: at,
                ordinal,
                line,
                msg: name,
            },
        );
        if self.tel.enabled() {
            let (component, node) = placed(ep);
            self.tel.emit(|| Event {
                cycle: at,
                node,
                component,
                addr: line,
                kind: EventKind::Delivery { msg: name, ordinal },
            });
        }
    }

    /// What `from`'s controller observed while filling `actions`, stamped
    /// `at`: every [`Action::Observe`], in order, attributed to the
    /// endpoint's node and component (the MSHR for MSHR events).
    #[inline]
    pub(crate) fn controller(&self, from: Endpoint, at: Cycle, actions: &[Action]) {
        if !self.tel.enabled() {
            return;
        }
        let (component, node) = placed(from);
        for a in actions {
            if let Action::Observe { addr, kind } = *a {
                let component = match kind {
                    EventKind::MshrAlloc { .. } | EventKind::MshrFree { .. } => Component::Mshr,
                    _ => component,
                };
                self.tel.emit(|| Event {
                    cycle: at,
                    node,
                    component,
                    addr,
                    kind,
                });
            }
        }
    }

    /// `core` stopped retiring at `at` (a miss, a spin watch, a fence).
    pub(crate) fn stall_begin(&self, core: CoreId, class: StallClass, at: Cycle) {
        self.core_event(core, at, 0, EventKind::StallBegin { class });
    }

    /// `core`'s stall that began at `since` ended at `at`.
    pub(crate) fn stall_end(&mut self, core: CoreId, class: StallClass, since: Cycle, at: Cycle) {
        let cycles = at.saturating_sub(since);
        self.stalls.record(core, class, cycles);
        self.core_event(core, at, 0, EventKind::StallEnd { class, cycles });
    }

    /// The forensic ring's deliveries, oldest first, one line each.
    pub(crate) fn recent_messages(&self) -> Vec<String> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|(component, node, r)| {
                format!(
                    "cycle {}: to {}[{node}]: {} on line {:#x} (delivery #{})",
                    r.cycle,
                    component.label(),
                    r.msg,
                    r.line,
                    r.ordinal
                )
            })
            .collect()
    }
}

/// The node and component an endpoint's events are attributed to.
fn placed(ep: Endpoint) -> (Component, u32) {
    match ep {
        Endpoint::L1(i) => (Component::L1, i as u32),
        Endpoint::Bank(b) => (Component::Dir, b as u32),
        Endpoint::Mem(n) => (Component::Sys, n as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_mem::AccessKind;
    use dvs_stats::TrafficClass;

    fn recording() -> (Observer, Telemetry) {
        let mut obs = Observer::new(2);
        let tel = Telemetry::recorder();
        obs.set_telemetry(tel.clone());
        (obs, tel)
    }

    fn load(addr: u64) -> MemRequest {
        MemRequest {
            addr: Addr::new(addr),
            kind: AccessKind::SyncLoad,
            dst: None,
            spin: None,
        }
    }

    #[test]
    fn issue_orders_access_then_stall_and_backoff_as_one_span() {
        let (mut obs, tel) = recording();
        obs.issue(0, &load(0x40), &IssueResult::Miss, 10);
        obs.stall_end(0, StallClass::Memory, 10, 50);
        obs.issue(1, &load(0x80), &IssueResult::Backoff { cycles: 8 }, 20);
        obs.issue(1, &load(0x80), &IssueResult::Blocked, 30);
        let got: Vec<(u64, u32, EventKind)> = tel
            .take_events()
            .expect("recorder")
            .into_iter()
            .map(|e| (e.cycle, e.node, e.kind))
            .collect();
        let memory = StallClass::Memory;
        let backoff = StallClass::Backoff;
        let access = EventKind::Access {
            hit: false,
            sync: true,
            write: false,
        };
        assert_eq!(
            got,
            [
                (10, 0, access),
                (10, 0, EventKind::StallBegin { class: memory }),
                (
                    50,
                    0,
                    EventKind::StallEnd {
                        class: memory,
                        cycles: 40
                    }
                ),
                (20, 1, EventKind::StallBegin { class: backoff }),
                (
                    28,
                    1,
                    EventKind::StallEnd {
                        class: backoff,
                        cycles: 8
                    }
                ),
                (20, 1, EventKind::Backoff { cycles: 8 }),
            ]
        );
        assert_eq!(obs.stalls.count(0, memory), 1);
        assert_eq!(obs.stalls.count(1, backoff), 1);
    }

    #[test]
    fn ring_keeps_each_nodes_last_sixteen_in_delivery_order() {
        let mut obs = Observer::new(4);
        let read = |line| Msg::MemRead {
            line: dvs_mem::LineAddr::new(line),
            bank: 0,
            class: TrafficClass::Load,
        };
        for n in 1..=40u64 {
            obs.deliver(100 + n, Endpoint::Bank(2), &read(n), 2 * n);
        }
        obs.deliver(7, Endpoint::L1(3), &read(99), 3);
        let lines = obs.recent_messages();
        assert_eq!(lines.len(), FORENSICS_PER_NODE + 1, "{lines:#?}");
        // The L1's one delivery sorts by ordinal among the bank's.
        assert_eq!(
            lines[0],
            "cycle 7: to l1[3]: MemRead on line 0x18c0 (delivery #3)"
        );
        let bank: Vec<u64> = lines[1..]
            .iter()
            .map(|l| {
                l.rsplit('#')
                    .next()
                    .unwrap()
                    .trim_end_matches(')')
                    .parse()
                    .unwrap()
            })
            .collect();
        let want: Vec<u64> = (25..=40).map(|n| 2 * n).collect();
        assert_eq!(bank, want);
        assert!(lines[1..].iter().all(|l| l.contains("to dir[2]")));
        // Nodes that received nothing show nothing.
        assert!(Observer::new(4).recent_messages().is_empty());
    }

    #[test]
    fn recent_messages_render_in_delivery_order() {
        let mut obs = Observer::new(2);
        let read = |line| Msg::MemRead {
            line: dvs_mem::LineAddr::new(line),
            bank: 0,
            class: TrafficClass::Load,
        };
        obs.deliver(7, Endpoint::Mem(1), &read(2), 2);
        obs.deliver(5, Endpoint::Bank(0), &read(1), 1);
        assert_eq!(
            obs.recent_messages(),
            [
                "cycle 5: to dir[0]: MemRead on line 0x40 (delivery #1)",
                "cycle 7: to sys[1]: MemRead on line 0x80 (delivery #2)",
            ]
        );
    }
}
