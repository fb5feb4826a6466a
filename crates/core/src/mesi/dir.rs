//! The MESI directory, embedded in an L2 bank.
//!
//! Each line's directory entry tracks a full sharer bit-vector or an owner —
//! exactly the storage DeNovo's registry eliminates — and the bank is a
//! *blocking* directory: a line with an in-flight transaction queues later
//! requests until the requestor's `Unblock` (and, for owner downgrades, the
//! owner's data copy) arrives. The paper's §4.1 contrasts this with DeNovo's
//! non-blocking registry.
//!
//! The L2 keeps a tag for every line touched during a run (no capacity
//! evictions; see DESIGN.md §"deviations"): workload footprints are far
//! below the 4–8 MB capacity of Table 1, so directory/L2 conflict evictions
//! and their recalls would only add noise.

use crate::coreset::CoreSet;
use crate::msg::{BankId, CoreId, Endpoint, LineData, MesiMsg, Msg};
use crate::proto::Action;
use dvs_mem::{LineAddr, MemoryLayout, SpanMap, LINE_BYTES};
use dvs_stats::TrafficClass;
use dvs_telemetry::{Component, EventKind, Telemetry, TelemetryKey};
use std::collections::VecDeque;

/// Directory state for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum DirState {
    /// No L1 holds the line.
    Uncached,
    /// Read-shared by the cores in the set.
    Shared(CoreSet),
    /// Exclusively owned (E or M at the L1).
    Owned(CoreId),
}

impl DirState {
    /// Short state label for telemetry transitions.
    fn label(self) -> &'static str {
        match self {
            DirState::Uncached => "U",
            DirState::Shared(_) => "S",
            DirState::Owned(_) => "O",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Busy {
    /// A coherence transaction is in flight: waiting for the requestor's
    /// `Unblock`, and possibly the former owner's data copy.
    Txn {
        need_unblock: bool,
        need_owner_wb: bool,
    },
    /// The line is being fetched from memory.
    MemFetch,
}

#[derive(Debug, Clone, Hash)]
struct DirLine {
    data: LineData,
    has_data: bool,
    state: DirState,
    busy: Option<Busy>,
    queue: VecDeque<MesiMsg>,
}

impl DirLine {
    fn new() -> Self {
        DirLine {
            data: [0; dvs_mem::WORDS_PER_LINE],
            has_data: false,
            state: DirState::Uncached,
            busy: None,
            queue: VecDeque::new(),
        }
    }
}

/// One L2 bank with its slice of the directory.
#[derive(Debug, Clone)]
pub struct MesiDir {
    bank: BankId,
    mem: Endpoint,
    lines: SpanMap<DirLine>,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    tel: Telemetry,
}

impl MesiDir {
    /// Creates an empty bank. `mem` is the memory-controller endpoint this
    /// bank fetches lines through.
    pub fn new(bank: BankId, mem: Endpoint) -> Self {
        MesiDir {
            bank,
            mem,
            lines: SpanMap::sparse_only(),
            tel: Telemetry::off(),
        }
    }

    /// Sizes the dense line table from the workload layout. This bank homes
    /// exactly the lines `l` with `home_bank(l, banks) == bank`, so the table
    /// covers the layout span at stride `banks` with no unreachable slots;
    /// out-of-layout lines (thread-private pools) spill to the sparse tier.
    /// Call before any traffic arrives.
    pub fn configure_span(&mut self, layout: &MemoryLayout, banks: usize) {
        debug_assert!(self.lines.is_empty(), "span configured after traffic");
        let top_line = layout.top().div_ceil(LINE_BYTES);
        let slots = top_line.div_ceil(banks as u64) as usize;
        self.lines = SpanMap::with_span(self.bank as u64, banks as u64, slots);
    }

    /// Attaches a telemetry handle (directory state transitions and
    /// invalidation fan-outs).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The line's current data as known to the L2 (stale while owned).
    pub fn peek_line(&self, line: LineAddr) -> Option<&LineData> {
        self.lines
            .get(line.raw())
            .filter(|l| l.has_data)
            .map(|l| &l.data)
    }

    /// Iterates every owned line (for invariant checking).
    pub fn owned_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines
            .iter()
            .filter(|(_, e)| matches!(e.state, DirState::Owned(_)))
            .map(|(raw, _)| LineAddr::new(raw))
    }

    /// Whether any line is mid-transaction (for quiescence checks).
    pub fn any_busy(&self) -> bool {
        self.lines
            .iter()
            .any(|(_, l)| l.busy.is_some() || !l.queue.is_empty())
    }

    /// The current owner, if the line is in an owned state.
    pub fn owner(&self, line: LineAddr) -> Option<CoreId> {
        match self.lines.get(line.raw())?.state {
            DirState::Owned(o) => Some(o),
            _ => None,
        }
    }

    /// The line's sharer set (empty unless the line is read-shared).
    pub fn sharers(&self, line: LineAddr) -> CoreSet {
        match self.lines.get(line.raw()).map(|l| l.state) {
            Some(DirState::Shared(mask)) => mask,
            _ => CoreSet::default(),
        }
    }

    /// Whether the line's entry is mid-transaction, fetching memory, or
    /// holding queued requests — the transient exemption for the runtime
    /// invariant checker.
    pub fn busy_or_queued(&self, line: LineAddr) -> bool {
        self.lines
            .get(line.raw())
            .is_some_and(|l| l.busy.is_some() || !l.queue.is_empty())
    }

    /// A one-line human-readable description of the line's directory entry
    /// (stall diagnostics).
    pub fn describe_line(&self, line: LineAddr) -> String {
        match self.lines.get(line.raw()) {
            None => format!("bank {}: {line} untracked", self.bank),
            Some(e) => format!(
                "bank {}: {line} {:?} busy={:?} queued={} has_data={}",
                self.bank,
                e.state,
                e.busy,
                e.queue.len(),
                e.has_data
            ),
        }
    }

    /// Handles one incoming message.
    pub fn on_msg(&mut self, msg: MesiMsg, actions: &mut Vec<Action>) {
        match msg {
            MesiMsg::GetS { .. } | MesiMsg::GetM { .. } => self.request(msg, actions),
            MesiMsg::PutS { line, req }
            | MesiMsg::PutM { line, req, .. }
            | MesiMsg::PutE { line, req } => {
                let entry = self.lines.or_insert_with(line.raw(), DirLine::new);
                match (msg, entry.state) {
                    (MesiMsg::PutS { .. }, DirState::Shared(mut sharers)) => {
                        sharers.remove(req);
                        entry.state = if sharers.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(sharers)
                        };
                    }
                    (MesiMsg::PutM { data, .. }, DirState::Owned(o)) if o == req => {
                        entry.data = data;
                        entry.has_data = true;
                        entry.state = DirState::Uncached;
                    }
                    // E is clean by construction: the L2 data is current.
                    (MesiMsg::PutE { .. }, DirState::Owned(o)) if o == req => {
                        entry.state = DirState::Uncached;
                    }
                    // Otherwise the Put is stale (ownership already moved
                    // via a forward served from the evictor's MSHR): ack
                    // only.
                    _ => {}
                }
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Mesi(MesiMsg::PutAck { line }),
                });
            }
            MesiMsg::OwnerWb { line, data, .. } => {
                let Some(entry) = self.lines.get_mut(line.raw()) else {
                    actions.push(Action::violation(format!(
                        "bank {}: OwnerWb for unknown line {line}",
                        self.bank
                    )));
                    return;
                };
                entry.data = data;
                entry.has_data = true;
                if let Some(Busy::Txn {
                    ref mut need_owner_wb,
                    ..
                }) = entry.busy
                {
                    *need_owner_wb = false;
                }
                self.maybe_unblock(line, actions);
            }
            MesiMsg::Unblock { line, .. } => {
                let Some(entry) = self.lines.get_mut(line.raw()) else {
                    actions.push(Action::violation(format!(
                        "bank {}: Unblock for unknown line {line}",
                        self.bank
                    )));
                    return;
                };
                if let Some(Busy::Txn {
                    ref mut need_unblock,
                    ..
                }) = entry.busy
                {
                    *need_unblock = false;
                }
                self.maybe_unblock(line, actions);
            }
            other => actions.push(Action::violation(format!(
                "directory bank {} cannot handle {other:?}",
                self.bank
            ))),
        }
    }

    /// Memory returned a line this bank was fetching.
    pub fn on_mem_data(&mut self, line: LineAddr, data: LineData, actions: &mut Vec<Action>) {
        let Some(entry) = self.lines.get_mut(line.raw()) else {
            actions.push(Action::violation(format!(
                "bank {}: MemData for unknown line {line}",
                self.bank
            )));
            return;
        };
        if entry.busy != Some(Busy::MemFetch) {
            let busy = entry.busy;
            actions.push(Action::violation(format!(
                "bank {}: MemData for {line} while busy={busy:?}",
                self.bank
            )));
            return;
        }
        entry.data = data;
        entry.has_data = true;
        entry.busy = None;
        self.drain(line, actions);
    }

    fn maybe_unblock(&mut self, line: LineAddr, actions: &mut Vec<Action>) {
        let entry = self.lines.get_mut(line.raw()).expect("line exists");
        if let Some(Busy::Txn {
            need_unblock: false,
            need_owner_wb: false,
        }) = entry.busy
        {
            entry.busy = None;
            self.drain(line, actions);
        }
    }

    fn drain(&mut self, line: LineAddr, actions: &mut Vec<Action>) {
        loop {
            let entry = self.lines.get_mut(line.raw()).expect("line exists");
            if entry.busy.is_some() {
                return;
            }
            let Some(next) = entry.queue.pop_front() else {
                return;
            };
            self.request(next, actions);
        }
    }

    fn request(&mut self, msg: MesiMsg, actions: &mut Vec<Action>) {
        let line = msg.line();
        let cause = match msg {
            MesiMsg::GetS { .. } => "GetS",
            _ => "GetM",
        };
        let entry = self.lines.or_insert_with(line.raw(), DirLine::new);
        if entry.busy.is_some() {
            entry.queue.push_back(msg);
            return;
        }
        let before = entry.state;
        let mut inv_fanout = None;
        if !entry.has_data && entry.state == DirState::Uncached {
            // Cold line: fetch from memory first.
            entry.busy = Some(Busy::MemFetch);
            entry.queue.push_front(msg);
            let class = match msg {
                MesiMsg::GetS { .. } => TrafficClass::Load,
                _ => TrafficClass::Store,
            };
            actions.push(Action::Send {
                to: self.mem,
                msg: Msg::MemRead {
                    line,
                    bank: self.bank,
                    class,
                },
            });
            return;
        }
        // Every request is answered with data (or forwarded to the owner),
        // moves the line to its next state, and blocks the line until the
        // requestor's `Unblock` — and, when an owner is downgraded to a
        // sharer, until its data copy arrives.
        let data = entry.data;
        let grant = |acks, exclusive, class| {
            Msg::Mesi(MesiMsg::Data {
                line,
                data,
                acks,
                exclusive,
                class,
            })
        };
        let (MesiMsg::GetS { req, .. } | MesiMsg::GetM { req, .. }) = msg else {
            unreachable!("request() only takes GetS/GetM: {msg:?}")
        };
        let mut invalidate = CoreSet::default();
        let (to, reply, state, need_owner_wb) = match (msg, entry.state) {
            (_, DirState::Owned(owner)) if owner == req => {
                actions.push(Action::violation(format!(
                    "bank {}: owner core {req} re-requesting {cause} for {line}",
                    self.bank
                )));
                return;
            }
            (MesiMsg::GetS { .. }, DirState::Uncached) => (
                req,
                grant(0, true, TrafficClass::Load),
                DirState::Owned(req),
                false,
            ),
            (MesiMsg::GetS { .. }, DirState::Shared(mut sharers)) => {
                sharers.insert(req);
                let reply = grant(0, false, TrafficClass::Load);
                (req, reply, DirState::Shared(sharers), false)
            }
            (MesiMsg::GetS { .. }, DirState::Owned(owner)) => {
                let mut sharers = CoreSet::of(owner);
                sharers.insert(req);
                let fwd = Msg::Mesi(MesiMsg::FwdGetS { line, req });
                (owner, fwd, DirState::Shared(sharers), true)
            }
            (_, DirState::Uncached) => (
                req,
                grant(0, false, TrafficClass::Store),
                DirState::Owned(req),
                false,
            ),
            (_, DirState::Shared(sharers)) => {
                invalidate = sharers.difference(&CoreSet::of(req));
                let acks = invalidate.len() as u32;
                if acks > 0 {
                    inv_fanout = Some((req, acks));
                }
                let reply = grant(acks, false, TrafficClass::Store);
                (req, reply, DirState::Owned(req), false)
            }
            (_, DirState::Owned(owner)) => {
                let fwd = Msg::Mesi(MesiMsg::FwdGetM { line, req });
                (owner, fwd, DirState::Owned(req), false)
            }
        };
        actions.push(Action::Send {
            to: Endpoint::L1(to),
            msg: reply,
        });
        for core in invalidate.iter() {
            actions.push(Action::Send {
                to: Endpoint::L1(core),
                msg: Msg::Mesi(MesiMsg::Inv { line, req }),
            });
        }
        entry.state = state;
        entry.busy = Some(Busy::Txn {
            need_unblock: true,
            need_owner_wb,
        });
        let after = self.lines.get(line.raw()).expect("entry exists").state;
        if after != before {
            let kind = EventKind::Transition {
                from: before.label(),
                to: after.label(),
                cause,
            };
            self.tel
                .emit_now(self.bank as u32, Component::Dir, line.telemetry_key(), kind);
        }
        if let Some((req, sharers)) = inv_fanout {
            let kind = EventKind::Invalidation {
                requester: req as u32,
                sharers,
            };
            self.tel
                .emit_now(self.bank as u32, Component::Dir, line.telemetry_key(), kind);
        }
    }
}

/// Canonical hash for model checking: lines sorted by address. Queued
/// messages hash in FIFO order — their order is architecturally visible.
impl std::hash::Hash for MesiDir {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bank.hash(state);
        self.mem.hash(state);
        // SpanMap hashes entries sorted by key, length-prefixed; `LineAddr`
        // hashes as its raw `u64`, so the stream is unchanged from the
        // HashMap-backed version of this bank.
        self.lines.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> MesiDir {
        MesiDir::new(0, Endpoint::Mem(0))
    }

    fn line() -> LineAddr {
        LineAddr::new(16)
    }

    fn warm(d: &mut MesiDir, l: LineAddr) {
        // First touch triggers a memory fetch; complete it with known data.
        let mut acts = Vec::new();
        d.on_msg(MesiMsg::GetS { line: l, req: 0 }, &mut acts);
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::MemRead { .. },
                ..
            }
        ));
        acts.clear();
        let mut data = [0u64; 8];
        data[0] = 11;
        d.on_mem_data(l, data, &mut acts);
        // GetS is now serviced exclusively.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::Data {
                    exclusive: true,
                    acks: 0,
                    ..
                })
            }
        )));
        acts.clear();
        d.on_msg(
            MesiMsg::Unblock {
                line: l,
                from: 0,
                class: TrafficClass::Load,
            },
            &mut acts,
        );
    }

    #[test]
    fn cold_gets_fetches_memory_then_grants_exclusive() {
        let mut d = dir();
        warm(&mut d, line());
        assert_eq!(d.owner(line()), Some(0));
    }

    #[test]
    fn second_gets_forwards_to_owner_and_needs_both_completions() {
        let mut d = dir();
        warm(&mut d, line());
        let mut acts = Vec::new();
        d.on_msg(
            MesiMsg::GetS {
                line: line(),
                req: 1,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::FwdGetS { req: 1, .. })
            }
        )));
        // A third GetS queues while busy.
        acts.clear();
        d.on_msg(
            MesiMsg::GetS {
                line: line(),
                req: 2,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        // Unblock alone is not enough: the owner's data is still due.
        d.on_msg(
            MesiMsg::Unblock {
                line: line(),
                from: 1,
                class: TrafficClass::Load,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        let mut data = [0u64; 8];
        data[0] = 99;
        d.on_msg(
            MesiMsg::OwnerWb {
                line: line(),
                data,
                from: 0,
            },
            &mut acts,
        );
        // Queue drains: core 2 gets fresh data.
        let got = acts.iter().any(|a| {
            matches!(a, Action::Send { to: Endpoint::L1(2), msg: Msg::Mesi(MesiMsg::Data { data, .. }) } if data[0] == 99)
        });
        assert!(got, "{acts:?}");
    }

    #[test]
    fn getm_on_shared_invalidates_all_other_sharers() {
        let mut d = dir();
        let l = line();
        warm(&mut d, l);
        // Downgrade to shared by a second reader.
        let mut acts = Vec::new();
        d.on_msg(MesiMsg::GetS { line: l, req: 1 }, &mut acts);
        acts.clear();
        d.on_msg(
            MesiMsg::OwnerWb {
                line: l,
                data: [0; 8],
                from: 0,
            },
            &mut acts,
        );
        d.on_msg(
            MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Load,
            },
            &mut acts,
        );
        acts.clear();
        // Core 2 wants M: cores 0 and 1 must be invalidated, 2 acks expected.
        d.on_msg(MesiMsg::GetM { line: l, req: 2 }, &mut acts);
        let invs: Vec<usize> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: Endpoint::L1(c),
                    msg: Msg::Mesi(MesiMsg::Inv { .. }),
                } => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(invs, vec![0, 1]);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Mesi(MesiMsg::Data { acks: 2, .. })
            }
        )));
        assert_eq!(d.owner(l), Some(2));
    }

    #[test]
    fn getm_on_owned_forwards() {
        let mut d = dir();
        let l = line();
        warm(&mut d, l);
        let mut acts = Vec::new();
        d.on_msg(MesiMsg::GetM { line: l, req: 3 }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::FwdGetM { req: 3, .. })
            }
        )));
        assert_eq!(d.owner(l), Some(3));
    }

    #[test]
    fn puts_removes_sharer_and_acks() {
        let mut d = dir();
        let l = line();
        warm(&mut d, l);
        let mut acts = Vec::new();
        // Make shared {0,1}.
        d.on_msg(MesiMsg::GetS { line: l, req: 1 }, &mut acts);
        d.on_msg(
            MesiMsg::OwnerWb {
                line: l,
                data: [0; 8],
                from: 0,
            },
            &mut acts,
        );
        d.on_msg(
            MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Load,
            },
            &mut acts,
        );
        acts.clear();
        d.on_msg(MesiMsg::PutS { line: l, req: 0 }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::PutAck { .. })
            }
        )));
        // Core 1 remains the only sharer; a GetM from 1 needs 0 acks.
        acts.clear();
        d.on_msg(MesiMsg::GetM { line: l, req: 1 }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Mesi(MesiMsg::Data { acks: 0, .. })
            }
        )));
    }

    #[test]
    fn stale_putm_is_acked_but_data_rejected() {
        let mut d = dir();
        let l = line();
        warm(&mut d, l);
        // Ownership moves 0 → 3 via FwdGetM.
        let mut acts = Vec::new();
        d.on_msg(MesiMsg::GetM { line: l, req: 3 }, &mut acts);
        acts.clear();
        // Core 0's racing PutM arrives afterwards: stale.
        d.on_msg(
            MesiMsg::PutM {
                line: l,
                req: 0,
                data: [5; 8],
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::PutAck { .. })
            }
        )));
        assert_eq!(d.owner(l), Some(3), "stale PutM must not clear ownership");
    }

    #[test]
    fn queued_requests_drain_in_order() {
        let mut d = dir();
        let l = line();
        warm(&mut d, l);
        let mut acts = Vec::new();
        // Owner is 0. Three queued requests while busy.
        d.on_msg(MesiMsg::GetM { line: l, req: 1 }, &mut acts);
        acts.clear();
        d.on_msg(MesiMsg::GetM { line: l, req: 2 }, &mut acts);
        d.on_msg(MesiMsg::GetS { line: l, req: 3 }, &mut acts);
        assert!(acts.is_empty());
        // Unblock from 1: queue head (GetM from 2) is serviced — forwarded
        // to owner 1.
        d.on_msg(
            MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Store,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Mesi(MesiMsg::FwdGetM { req: 2, .. })
            }
        )));
        assert_eq!(d.owner(l), Some(2));
        // The GetS from 3 is still queued.
        acts.clear();
        d.on_msg(
            MesiMsg::Unblock {
                line: l,
                from: 2,
                class: TrafficClass::Store,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Mesi(MesiMsg::FwdGetS { req: 3, .. })
            }
        )));
    }
}
