//! The MESI directory, embedded in an L2 bank: a full sharer bit-vector or
//! an owner per line — exactly the storage DeNovo's registry eliminates —
//! and *blocking* semantics: a line with an in-flight transaction queues
//! later requests, which fire their rows once the requestor's `Unblock`
//! (and, for owner downgrades, the owner's data copy) has arrived. The
//! paper's §4.1 contrasts this with DeNovo's non-blocking registry.
//!
//! The L2 keeps a tag for every line touched during a run (no capacity
//! evictions; see DESIGN.md §"deviations"): workload footprints are far
//! below the 4–8 MB capacity of Table 1, so directory/L2 conflict evictions
//! and their recalls would only add noise.

use crate::config::{Protocol, ProtocolMutation};
use crate::coreset::CoreSet;
use crate::msg::{BankId, CoreId, Endpoint, LineData, MesiMsg, Msg};
use crate::proto::{Action, Actions};
use dvs_mem::{LineAddr, MemoryLayout, SpanMap, LINE_BYTES};
use dvs_stats::TrafficClass;
use dvs_telemetry::EventKind;
use std::collections::VecDeque;

/// Directory state for one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum DirState {
    /// No L1 holds the line.
    #[default]
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

#[derive(Debug, Clone, Default, Hash)]
struct DirLine {
    data: LineData,
    has_data: bool,
    state: DirState,
    busy: Option<Busy>,
    queue: VecDeque<MesiMsg>,
}

/// An entry's state: `Uncached | Shared | Owned`, each idle or `Busy`
/// (mid-transaction), plus `Cold` (never fetched: a request fetches memory
/// first) and `Fetching`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum State {
    Cold,
    Fetching,
    Uncached,
    Shared,
    Owned,
    UncachedBusy,
    SharedBusy,
    OwnedBusy,
}

impl State {
    fn of(e: &DirLine) -> State {
        match (e.busy, e.state) {
            (Some(Busy::MemFetch), _) => State::Fetching,
            (None, DirState::Uncached) if !e.has_data => State::Cold,
            (None, DirState::Uncached) => State::Uncached,
            (None, DirState::Shared(_)) => State::Shared,
            (None, DirState::Owned(_)) => State::Owned,
            (Some(_), DirState::Uncached) => State::UncachedBusy,
            (Some(_), DirState::Shared(_)) => State::SharedBusy,
            (Some(_), DirState::Owned(_)) => State::OwnedBusy,
        }
    }
}

/// What fires a row. `OwnerReq`: a GetS or GetM from the current owner.
/// `LastPutS` comes from the last sharer; `PutE`/`PutM` from the owner;
/// `StalePut` from a core whose copy already moved on via a forward served
/// from its MSHR. `LastUnblock` and `LastOwnerWb` complete the transaction;
/// `Unblock` and `OwnerWb` leave the other still due.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Event {
    GetS,
    GetM,
    OwnerReq,
    PutS,
    LastPutS,
    PutE,
    PutM,
    StalePut,
    Unblock,
    LastUnblock,
    OwnerWb,
    LastOwnerWb,
    MemData,
}

/// One step of a row; see `MesiDir::act`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    FetchMem,
    Queue,
    GrantE,
    GrantM,
    GrantS,
    GrantInv,
    FwdS,
    FwdM,
    DropSharer,
    Uncache,
    Absorb,
    Unblocked,
    WbArrived,
    Retire,
    PutAck,
}

transition_table!(State::OwnedBusy, Event::MemData);

#[rustfmt::skip]
const ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const BUSY: &[State] = &[Fetching, UncachedBusy, SharedBusy, OwnedBusy];
    const ALL: &[State] =
        &[Cold, Fetching, Uncached, Shared, Owned, UncachedBusy, SharedBusy, OwnedBusy];
    const WAITING: &[State] = &[UncachedBusy, SharedBusy];
    &[
        // Requests: fetch a cold line, queue while busy, serve when idle.
        Row { id: 1, from: &[Cold], on: &[GetS, GetM], acts: &[FetchMem], to: Some(Fetching) },
        Row { id: 2, from: BUSY, on: &[GetS, GetM], acts: &[Queue], to: None },
        Row { id: 3, from: &[OwnedBusy], on: &[OwnerReq], acts: &[Queue], to: None },
        Row { id: 4, from: &[Uncached], on: &[GetS], acts: &[GrantE], to: Some(OwnedBusy) },
        Row { id: 5, from: &[Uncached], on: &[GetM], acts: &[GrantM], to: Some(OwnedBusy) },
        Row { id: 6, from: &[Shared], on: &[GetS], acts: &[GrantS], to: Some(SharedBusy) },
        Row { id: 7, from: &[Shared], on: &[GetM], acts: &[GrantInv], to: Some(OwnedBusy) },
        Row { id: 8, from: &[Owned], on: &[GetS], acts: &[FwdS], to: Some(SharedBusy) },
        Row { id: 9, from: &[Owned], on: &[GetM], acts: &[FwdM], to: Some(OwnedBusy) },
        // Evictions, acked whether or not they still count.
        Row { id: 10, from: &[Shared, SharedBusy], on: &[PutS], acts: &[DropSharer, PutAck], to: None },
        Row { id: 11, from: &[Shared], on: &[LastPutS], acts: &[Uncache, PutAck], to: Some(Uncached) },
        Row { id: 12, from: &[SharedBusy], on: &[LastPutS], acts: &[Uncache, PutAck], to: Some(UncachedBusy) },
        Row { id: 13, from: &[Owned], on: &[PutE], acts: &[Uncache, PutAck], to: Some(Uncached) },
        Row { id: 14, from: &[OwnedBusy], on: &[PutE], acts: &[Uncache, PutAck], to: Some(UncachedBusy) },
        Row { id: 15, from: &[Owned], on: &[PutM], acts: &[Absorb, Uncache, PutAck], to: Some(Uncached) },
        Row { id: 16, from: &[OwnedBusy], on: &[PutM], acts: &[Absorb, Uncache, PutAck], to: Some(UncachedBusy) },
        Row { id: 17, from: ALL, on: &[StalePut], acts: &[PutAck], to: None },
        // Completions.
        Row { id: 18, from: WAITING, on: &[Unblock], acts: &[Unblocked], to: None },
        Row { id: 19, from: &[UncachedBusy], on: &[LastUnblock], acts: &[Retire], to: Some(Uncached) },
        Row { id: 20, from: &[SharedBusy], on: &[LastUnblock], acts: &[Retire], to: Some(Shared) },
        Row { id: 21, from: &[OwnedBusy], on: &[LastUnblock], acts: &[Retire], to: Some(Owned) },
        Row { id: 22, from: WAITING, on: &[OwnerWb], acts: &[Absorb, WbArrived], to: None },
        Row { id: 23, from: &[UncachedBusy], on: &[LastOwnerWb], acts: &[Absorb, Retire], to: Some(Uncached) },
        Row { id: 24, from: &[SharedBusy], on: &[LastOwnerWb], acts: &[Absorb, Retire], to: Some(Shared) },
        Row { id: 25, from: &[Fetching], on: &[MemData], acts: &[Absorb, Retire], to: Some(Uncached) },
    ]
};

static SPECS: [Spec; 1] = [Spec::new(&[Protocol::Mesi], None, &[("MESI", ROWS, false)])];

/// Every row by id, for the compiled dispatch.
const BY_ID: [Option<&Row>; crate::table::MAX_ROW_ID + 1] = rows_by_id(&[ROWS]);

/// Appends the directory's table `protocol` runs to `out` (`dvs tables`).
pub(crate) fn markdown(protocol: Protocol, out: &mut String) {
    Spec::markdown(&SPECS, "MESI directory", protocol, out);
}

/// One L2 bank with its slice of the directory.
#[derive(Debug, Clone)]
pub struct MesiDir {
    lines: SpanMap<DirLine>,
    port: Port,
}

/// What a row's steps act through besides the line's entry: the bank and
/// its memory controller.
#[derive(Debug, Clone)]
struct Port {
    bank: BankId,
    mem: Endpoint,
}

impl MesiDir {
    /// Creates an empty bank. `mem` is the memory-controller endpoint this
    /// bank fetches lines through.
    pub fn new(bank: BankId, mem: Endpoint) -> Self {
        MesiDir {
            lines: SpanMap::sparse_only(),
            port: Port { bank, mem },
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
        self.lines = SpanMap::with_span(self.port.bank as u64, banks as u64, slots);
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
        let bank = self.port.bank;
        let Some(e) = self.lines.get(line.raw()) else {
            return format!("bank {bank}: {line} untracked");
        };
        let (state, busy, queued, has_data) = (e.state, e.busy, e.queue.len(), e.has_data);
        format!("bank {bank}: {line} {state:?} busy={busy:?} queued={queued} has_data={has_data}")
    }

    /// Handles one incoming message: a request or answer from an L1, or
    /// memory returning a line this bank was fetching.
    pub fn on_msg(&mut self, msg: Msg, actions: &mut Actions) {
        self.fire(msg.line(), msg, actions);
        self.drain(msg.line(), actions);
    }

    /// Serves queued requests while the line is idle.
    fn drain(&mut self, line: LineAddr, actions: &mut Actions) {
        while let Some(entry) = self.lines.get_mut(line.raw()) {
            if entry.busy.is_some() {
                return;
            }
            let Some(next) = entry.queue.pop_front() else {
                return;
            };
            self.fire(line, Msg::Mesi(next), actions);
        }
    }

    /// Classifies `msg` and runs its row. A cell with no row is the one
    /// unexpected-event path: a violation naming the line, state and event.
    /// The line's entry is looked up once (every message tracks its line)
    /// and handed to each step.
    fn fire(&mut self, line: LineAddr, msg: Msg, actions: &mut Actions) {
        let entry = self.lines.or_insert_with(line.raw(), DirLine::default);
        let (state, event) = classify(entry, msg);
        let Some(row) = event.and_then(|e| SPECS[0].table[state as usize][e as usize]) else {
            let who = format_args!("MESI dir bank {}", self.port.bank);
            return actions.push(crate::table::unexpected(who, line, state, event, msg));
        };
        let port = &self.port;
        dispatch_row!(row.id, port.run(entry, line, msg, actions));
        let to = row.to.unwrap_or(state);
        debug_assert_eq!(State::of(entry), to, "dir row {} on {line}", row.id);
    }
}

/// The state `msg` meets at the line's `entry` and the event it is there
/// (`None`: a message no directory takes).
fn classify(entry: &DirLine, msg: Msg) -> (State, Option<Event>) {
    let (state, dir) = (State::of(entry), entry.state);
    let (unblock_due, wb_due) = match entry.busy {
        Some(Busy::Txn {
            need_unblock: u,
            need_owner_wb: w,
        }) => (u, w),
        _ => (false, false),
    };
    let owner = |req| dir == DirState::Owned(req);
    let Msg::Mesi(msg) = msg else {
        let event = matches!(msg, Msg::MemData { .. }).then_some(Event::MemData);
        return (state, event);
    };
    let event = match msg {
        MesiMsg::GetS { req, .. } | MesiMsg::GetM { req, .. } if owner(req) => Event::OwnerReq,
        MesiMsg::GetS { .. } => Event::GetS,
        MesiMsg::GetM { .. } => Event::GetM,
        MesiMsg::PutS { req, .. } => match dir {
            DirState::Shared(s) if s == CoreSet::of(req) => Event::LastPutS,
            DirState::Shared(s) if s.difference(&CoreSet::of(req)) != s => Event::PutS,
            _ => Event::StalePut,
        },
        MesiMsg::PutE { req, .. } if owner(req) => Event::PutE,
        MesiMsg::PutM { req, .. } if owner(req) => Event::PutM,
        MesiMsg::PutE { .. } | MesiMsg::PutM { .. } => Event::StalePut,
        MesiMsg::Unblock { .. } if wb_due => Event::Unblock,
        MesiMsg::Unblock { .. } => Event::LastUnblock,
        MesiMsg::OwnerWb { .. } if unblock_due => Event::OwnerWb,
        MesiMsg::OwnerWb { .. } => Event::LastOwnerWb,
        _ => return (state, None),
    };
    (state, Some(event))
}

impl Port {
    /// Runs row `ID`'s steps in order (see [`dispatch_row!`]).
    fn run<const ID: usize>(
        &self,
        entry: &mut DirLine,
        line: LineAddr,
        msg: Msg,
        actions: &mut Actions,
    ) {
        for &act in Compiled::<ID>::ACTS {
            self.act(act, entry, line, msg, actions);
        }
    }

    /// Runs one step of a fired row on the line's `entry`.
    #[inline(always)]
    fn act(&self, act: Act, entry: &mut DirLine, line: LineAddr, msg: Msg, actions: &mut Actions) {
        match (act, msg) {
            (Act::FetchMem, Msg::Mesi(msg)) => {
                entry.busy = Some(Busy::MemFetch);
                entry.queue.push_front(msg);
                let (bank, to, class) = (self.bank, self.mem, msg.class());
                let msg = Msg::MemRead { line, bank, class };
                actions.push(Action::Send { to, msg });
            }
            (Act::Queue, Msg::Mesi(msg)) => entry.queue.push_back(msg),
            (Act::DropSharer, Msg::Mesi(MesiMsg::PutS { req, .. })) => {
                if let DirState::Shared(mut sharers) = entry.state {
                    sharers.remove(req);
                    entry.state = DirState::Shared(sharers);
                }
            }
            (Act::Uncache, _) => entry.state = DirState::Uncached,
            (Act::Absorb, _) => {
                entry.data = match msg {
                    Msg::Mesi(MesiMsg::PutM { data, .. } | MesiMsg::OwnerWb { data, .. })
                    | Msg::MemData { data, .. } => data,
                    _ => unreachable!("no data in {msg:?}"),
                };
                entry.has_data = true;
            }
            (Act::Unblocked, _) => {
                if let Some(Busy::Txn { need_unblock, .. }) = &mut entry.busy {
                    *need_unblock = false;
                }
            }
            (Act::WbArrived, _) => {
                if let Some(Busy::Txn { need_owner_wb, .. }) = &mut entry.busy {
                    *need_owner_wb = false;
                }
            }
            (Act::Retire, _) => entry.busy = None,
            (Act::PutAck, Msg::Mesi(msg)) => {
                let to = match msg {
                    MesiMsg::PutS { req, .. } | MesiMsg::PutE { req, .. } => Endpoint::L1(req),
                    MesiMsg::PutM { req, .. } => Endpoint::L1(req),
                    _ => unreachable!("PutAck for {msg:?}"),
                };
                let msg = Msg::Mesi(MesiMsg::PutAck { line });
                actions.push(Action::Send { to, msg });
            }
            (_, Msg::Mesi(msg)) => self.serve(act, entry, line, msg, actions),
            _ => unreachable!("directory step {act:?} fired by {msg:?}"),
        }
    }

    /// The grant and forward steps: answers a request at an idle line with
    /// data (or forwards it to the owner), moves the entry to its next
    /// state, and blocks the line until the requestor's `Unblock` — and,
    /// when an owner is downgraded to a sharer, until its data copy arrives.
    fn serve(
        &self,
        act: Act,
        entry: &mut DirLine,
        line: LineAddr,
        msg: MesiMsg,
        actions: &mut Actions,
    ) {
        use DirState::{Owned, Shared};
        use TrafficClass::{Load, Store};
        let (cause, req) = match msg {
            MesiMsg::GetS { req, .. } => ("GetS", req),
            MesiMsg::GetM { req, .. } => ("GetM", req),
            _ => unreachable!("{act:?} for {msg:?}"),
        };
        let (before, data) = (entry.state, entry.data);
        let grant = |acks, exclusive, class| {
            Msg::Mesi(MesiMsg::Data {
                line,
                data,
                acks,
                exclusive,
                class,
            })
        };
        let mut invalidate = CoreSet::default();
        let (to, reply, state, need_owner_wb) = match (act, before) {
            (Act::GrantE, _) => (req, grant(0, true, Load), Owned(req), false),
            (Act::GrantM, _) => (req, grant(0, false, Store), Owned(req), false),
            (Act::GrantS, Shared(mut sharers)) => {
                sharers.insert(req);
                (req, grant(0, false, Load), Shared(sharers), false)
            }
            (Act::GrantInv, Shared(sharers)) => {
                invalidate = sharers.difference(&CoreSet::of(req));
                let acks = invalidate.len() as u32;
                (req, grant(acks, false, Store), Owned(req), false)
            }
            (Act::FwdS, Owned(owner)) => {
                let fwd = Msg::Mesi(MesiMsg::FwdGetS { line, req });
                (owner, fwd, Shared([owner, req].into_iter().collect()), true)
            }
            (Act::FwdM, Owned(owner)) => {
                let fwd = Msg::Mesi(MesiMsg::FwdGetM { line, req });
                (owner, fwd, Owned(req), false)
            }
            _ => unreachable!("{act:?} on {before:?}"),
        };
        let (to, msg) = (Endpoint::L1(to), reply);
        actions.push(Action::Send { to, msg });
        for core in invalidate.iter() {
            let (to, msg) = (Endpoint::L1(core), Msg::Mesi(MesiMsg::Inv { line, req }));
            actions.push(Action::Send { to, msg });
        }
        entry.state = state;
        entry.busy = Some(Busy::Txn {
            need_unblock: true,
            need_owner_wb,
        });
        let addr = line.base().raw();
        if state != before {
            let (from, to) = (before.label(), state.label());
            actions.transition(addr, from, to, cause);
        }
        if !invalidate.is_empty() {
            let (requester, sharers) = (req as u32, invalidate.len() as u32);
            let kind = EventKind::Invalidation { requester, sharers };
            actions.observe(addr, kind);
        }
    }
}

/// Canonical hash for model checking: lines sorted by address. Queued
/// messages hash in FIFO order — their order is architecturally visible.
impl std::hash::Hash for MesiDir {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.port.bank.hash(state);
        self.port.mem.hash(state);
        // SpanMap hashes entries sorted by key, length-prefixed; `LineAddr`
        // hashes as its raw `u64`, so the stream is unchanged from the
        // HashMap-backed version of this bank.
        self.lines.hash(state);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn view() -> crate::table::tests::View {
        let specs = SPECS
            .iter()
            .map(|s| (s.protocols, s.mutation, s.lists, &s.table));
        let index = |r: &Row| crate::table::tests::RowView {
            id: r.id,
            from: r.from.iter().map(|&s| s as usize).collect(),
            on: r.on.iter().map(|&e| e as usize).collect(),
            to: r.to.map(|s| s as usize),
        };
        let gcs_only = Vec::new();
        crate::table::tests::View::new("MESI directory", specs, index, gcs_only)
    }

    fn dir() -> MesiDir {
        MesiDir::new(0, Endpoint::Mem(0))
    }

    fn line() -> LineAddr {
        LineAddr::new(16)
    }

    fn warm(d: &mut MesiDir, l: LineAddr) {
        // First touch triggers a memory fetch; complete it with known data.
        let mut acts = Actions::new(true);
        d.on_msg(Msg::Mesi(MesiMsg::GetS { line: l, req: 0 }), &mut acts);
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
        let (line, class) = (l, TrafficClass::Load);
        d.on_msg(Msg::MemData { line, data, class }, &mut acts);
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
            Msg::Mesi(MesiMsg::Unblock {
                line: l,
                from: 0,
                class: TrafficClass::Load,
            }),
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
        let mut acts = Actions::new(true);
        d.on_msg(
            Msg::Mesi(MesiMsg::GetS {
                line: line(),
                req: 1,
            }),
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
            Msg::Mesi(MesiMsg::GetS {
                line: line(),
                req: 2,
            }),
            &mut acts,
        );
        assert!(acts.is_empty());
        // Unblock alone is not enough: the owner's data is still due.
        d.on_msg(
            Msg::Mesi(MesiMsg::Unblock {
                line: line(),
                from: 1,
                class: TrafficClass::Load,
            }),
            &mut acts,
        );
        assert!(acts.is_empty());
        let mut data = [0u64; 8];
        data[0] = 99;
        d.on_msg(
            Msg::Mesi(MesiMsg::OwnerWb {
                line: line(),
                data,
                from: 0,
            }),
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
        let mut acts = Actions::new(true);
        d.on_msg(Msg::Mesi(MesiMsg::GetS { line: l, req: 1 }), &mut acts);
        acts.clear();
        d.on_msg(
            Msg::Mesi(MesiMsg::OwnerWb {
                line: l,
                data: [0; 8],
                from: 0,
            }),
            &mut acts,
        );
        d.on_msg(
            Msg::Mesi(MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Load,
            }),
            &mut acts,
        );
        acts.clear();
        // Core 2 wants M: cores 0 and 1 must be invalidated, 2 acks expected.
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 2 }), &mut acts);
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
        let mut acts = Actions::new(true);
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 3 }), &mut acts);
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
        let mut acts = Actions::new(true);
        // Make shared {0,1}.
        d.on_msg(Msg::Mesi(MesiMsg::GetS { line: l, req: 1 }), &mut acts);
        d.on_msg(
            Msg::Mesi(MesiMsg::OwnerWb {
                line: l,
                data: [0; 8],
                from: 0,
            }),
            &mut acts,
        );
        d.on_msg(
            Msg::Mesi(MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Load,
            }),
            &mut acts,
        );
        acts.clear();
        d.on_msg(Msg::Mesi(MesiMsg::PutS { line: l, req: 0 }), &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(0),
                msg: Msg::Mesi(MesiMsg::PutAck { .. })
            }
        )));
        // Core 1 remains the only sharer; a GetM from 1 needs 0 acks.
        acts.clear();
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 1 }), &mut acts);
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
        let mut acts = Actions::new(true);
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 3 }), &mut acts);
        acts.clear();
        // Core 0's racing PutM arrives afterwards: stale.
        d.on_msg(
            Msg::Mesi(MesiMsg::PutM {
                line: l,
                req: 0,
                data: [5; 8],
            }),
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
        let mut acts = Actions::new(true);
        // Owner is 0. Three queued requests while busy.
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 1 }), &mut acts);
        acts.clear();
        d.on_msg(Msg::Mesi(MesiMsg::GetM { line: l, req: 2 }), &mut acts);
        d.on_msg(Msg::Mesi(MesiMsg::GetS { line: l, req: 3 }), &mut acts);
        assert!(acts.is_empty());
        // Unblock from 1: queue head (GetM from 2) is serviced — forwarded
        // to owner 1.
        d.on_msg(
            Msg::Mesi(MesiMsg::Unblock {
                line: l,
                from: 1,
                class: TrafficClass::Store,
            }),
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
            Msg::Mesi(MesiMsg::Unblock {
                line: l,
                from: 2,
                class: TrafficClass::Store,
            }),
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

    /// An L1-bound message is the directory's one unexpected event: a single
    /// violation naming the bank, the line, its state and the message.
    #[test]
    fn an_l1_bound_message_is_a_violation() {
        let mut d = dir();
        let mut acts = Actions::new(true);
        d.on_msg(
            Msg::Mesi(MesiMsg::Inv {
                line: line(),
                req: 1,
            }),
            &mut acts,
        );
        let detail = "MESI dir bank 0: unexpected Mesi(Inv { line: LineAddr(16), req: 1 }) for l0x400 in Cold";
        assert_eq!(*acts, [Action::violation(detail)]);
    }
}
