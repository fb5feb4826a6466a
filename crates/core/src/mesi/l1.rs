//! The MESI private-cache (L1) controller. Stable states live in the cache
//! array (`S`, `E`, `M`; absence is `I`), transient ones in MSHR
//! transactions. The datapath stays in the actions: merged stores,
//! store-to-load forwarding, the acks balance, the install retry and an
//! eviction's retained data. Writes are non-blocking (the paper's
//! modification): data stores merge into the line's ownership transaction,
//! [`Action::StoresDone`] reports them, and fences drain them.

use crate::config::{Protocol, ProtocolMutation};
use crate::msg::{CoreId, Endpoint, LineData, MesiMsg, Msg};
use crate::proto::{home_bank, mshr_alloc, mshr_free, Action, Actions, IssueResult};
use dvs_mem::array::InsertOutcome;
use dvs_mem::{AccessKind, CacheArray, CacheGeometry, LineAddr, Mshr, RmwOp, WordAddr};
use dvs_stats::TrafficClass;
use dvs_telemetry::EventKind;
use dvs_vm::MemRequest;

/// A resident line's stable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stable {
    /// Shared, clean.
    S,
    /// Exclusive, clean.
    E,
    /// Modified, dirty.
    M,
}

impl Stable {
    /// Short state label for telemetry transitions.
    pub fn label(self) -> &'static str {
        ["S", "E", "M"][self as usize]
    }

    fn state(self) -> State {
        [State::S, State::E, State::M][self as usize]
    }
}

/// A resident cache line.
#[derive(Debug, Clone, Copy, Hash)]
pub struct MesiLine {
    /// Coherence state.
    pub state: Stable,
    /// Line contents.
    pub data: LineData,
}

/// The blocking core operation a transaction completes on word `w`: a data
/// or sync load, a sync store of `value`, or an RMW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockingOp {
    Load { w: usize },
    SyncStore { w: usize, value: u64 },
    Rmw { w: usize, op: RmwOp },
}

impl BlockingOp {
    /// The operation a load, sync store or RMW on word `w` blocks on.
    fn of(w: usize, kind: AccessKind) -> Self {
        match kind {
            AccessKind::SyncStore { value } => BlockingOp::SyncStore { w, value },
            AccessKind::SyncRmw(op) => BlockingOp::Rmw { w, op },
            // Loads; data stores merge and never block.
            _ => BlockingOp::Load { w },
        }
    }

    /// Performs the operation on `data`, returning the core's result.
    fn apply(self, data: &mut LineData) -> Option<u64> {
        match self {
            BlockingOp::Load { w } => Some(data[w]),
            BlockingOp::SyncStore { w, value } => {
                data[w] = value;
                None
            }
            BlockingOp::Rmw { w, op } => {
                let old = data[w];
                data[w] = op.apply(old);
                Some(old)
            }
        }
    }
}

/// What a transaction is for: a GetS (`IS_D`), a GetM (`IM_*`, `SM_*`) or
/// a Put (`MI_A`, `SI_A`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Goal {
    Fetch,
    Own,
    Evict,
}

/// One in-flight transaction (the transient-state record).
#[derive(Debug, Clone, Hash)]
struct Txn {
    goal: Goal,
    /// The core's blocking operation, if this transaction carries one.
    blocking: Option<BlockingOp>,
    /// Merged non-blocking data stores `(word, value)`, in program order.
    pending_stores: Vec<(usize, u64)>,
    /// Data received so far (Own transactions).
    data: Option<LineData>,
    /// Invalidation acks still expected minus acks already received.
    acks_balance: i64,
    /// Whether the data response has arrived.
    have_data: bool,
    /// IS_D_I: an invalidation hit the fetch; deliver the value once and end
    /// Invalid.
    deliver_only: bool,
    /// Evict transactions: retained dirty data for servicing forwards.
    evict_data: Option<LineData>,
}

impl Txn {
    fn new(goal: Goal) -> Self {
        Txn {
            goal,
            blocking: None,
            pending_stores: Vec::new(),
            data: None,
            acks_balance: 0,
            have_data: false,
            deliver_only: false,
            evict_data: None,
        }
    }

    /// Adds a core request: a data store merges into the pending stores,
    /// anything else becomes the blocking operation.
    fn stage(&mut self, w: usize, kind: AccessKind) -> IssueResult {
        if let AccessKind::DataStore { value } = kind {
            self.pending_stores.push((w, value));
            return IssueResult::StoreAccepted { completed: false };
        }
        assert!(self.blocking.is_none(), "second blocking op on line");
        self.blocking = Some(BlockingOp::of(w, kind));
        IssueResult::Miss
    }

    /// The newest merged store to word `w` (store-to-load forwarding).
    fn forward(&self, w: usize) -> Option<u64> {
        let newest = self.pending_stores.iter().rev().find(|(i, _)| *i == w);
        newest.map(|&(_, v)| v)
    }
}

/// A line's primer state. `IS_D_I`: an Inv overtook the fetch, so the data
/// is delivered once and the line ends I. `MI_A` evicts with retained data
/// (the primer's MI_A and EI_A), `SI_A` without (SI_A, and II_A once a
/// forward took the data).
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum State {
    I,
    S,
    E,
    M,
    IS_D,
    IS_D_I,
    IM_AD,
    IM_A,
    SM_AD,
    SM_A,
    MI_A,
    SI_A,
}

/// What fires a row. `Own` is a sync store or RMW. `Data` is a fetch's
/// shared data or ownership data with acks outstanding; `LastData` and
/// `LastInvAck` complete an ownership transaction (the primer's "Data,
/// ack=0" and "Last-Inv-Ack"). `Replacement`: an install chose the line as
/// its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Event {
    Load,
    Store,
    Own,
    Data,
    ExclData,
    LastData,
    InvAck,
    LastInvAck,
    Inv,
    FwdGetS,
    FwdGetM,
    PutAck,
    Replacement,
}

/// One step of a row; see `MesiL1::act`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Hit,
    Modify,
    Stage,
    GetS,
    GetM,
    Upgrade,
    Retry,
    InstallS,
    InstallE,
    Deliver,
    TakeData,
    CountAck,
    Finish,
    Unblock,
    Invalidate,
    DeliverOnce,
    AckInv,
    Wake,
    Downgrade,
    SendData,
    OwnerWb,
    Surrender,
    Release,
    Retire,
    PutS,
    PutE,
    PutM,
}

transition_table!(State::SI_A, Event::Replacement);

/// The stock table.
#[rustfmt::skip]
const ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const OWNING: &[State] = &[IM_AD, IM_A, SM_AD, SM_A];
    const BUSY: &[State] = &[IS_D, IS_D_I, MI_A, SI_A];
    const M_OPS: &[Event] = &[Store, Own];
    // An Inv reaching E or M is from a stale epoch (the line was
    // re-acquired since): ack only.
    const ACK_ONLY: &[State] = &[I, E, M, IS_D_I, IM_AD, IM_A, MI_A, SI_A];
    &[
        Row { id: 1, from: &[I], on: &[Load], acts: &[GetS], to: Some(IS_D) },
        Row { id: 2, from: &[S, E, M, SM_AD, SM_A], on: &[Load], acts: &[Hit], to: None },
        Row { id: 3, from: &[IM_AD, IM_A], on: &[Load], acts: &[Stage], to: None },
        Row { id: 4, from: &[MI_A, SI_A], on: &[Load], acts: &[Retry], to: None },
        Row { id: 5, from: &[I], on: M_OPS, acts: &[GetM], to: Some(IM_AD) },
        Row { id: 6, from: &[S], on: M_OPS, acts: &[Upgrade], to: Some(SM_AD) },
        Row { id: 7, from: &[E, M], on: M_OPS, acts: &[Modify], to: Some(M) },
        Row { id: 8, from: OWNING, on: M_OPS, acts: &[Stage], to: None },
        Row { id: 9, from: BUSY, on: M_OPS, acts: &[Retry], to: None },
        Row { id: 10, from: &[IS_D], on: &[Data], acts: &[InstallS, Deliver, Unblock], to: Some(S) },
        Row { id: 11, from: &[IS_D], on: &[ExclData], acts: &[InstallE, Deliver, Unblock], to: Some(E) },
        Row { id: 12, from: &[IS_D_I], on: &[Data, ExclData], acts: &[Deliver, Unblock], to: Some(I) },
        Row { id: 13, from: &[IM_AD], on: &[Data], acts: &[TakeData], to: Some(IM_A) },
        Row { id: 14, from: &[SM_AD], on: &[Data], acts: &[TakeData], to: Some(SM_A) },
        Row { id: 15, from: &[IM_AD, SM_AD], on: &[LastData], acts: &[TakeData, Finish, Unblock], to: Some(M) },
        Row { id: 16, from: OWNING, on: &[InvAck], acts: &[CountAck], to: None },
        Row { id: 17, from: &[IM_A, SM_A], on: &[LastInvAck], acts: &[CountAck, Finish, Unblock], to: Some(M) },
        Row { id: 18, from: &[S], on: &[Inv], acts: &[Invalidate, AckInv, Wake], to: Some(I) },
        Row { id: 19, from: &[SM_AD], on: &[Inv], acts: &[Invalidate, AckInv, Wake], to: Some(IM_AD) },
        Row { id: 20, from: &[SM_A], on: &[Inv], acts: &[Invalidate, AckInv, Wake], to: Some(IM_A) },
        Row { id: 21, from: &[IS_D], on: &[Inv], acts: &[DeliverOnce, AckInv], to: Some(IS_D_I) },
        Row { id: 22, from: ACK_ONLY, on: &[Inv], acts: &[AckInv], to: None },
        Row { id: 23, from: &[E, M], on: &[FwdGetS], acts: &[Downgrade, SendData, OwnerWb], to: Some(S) },
        Row { id: 24, from: &[MI_A], on: &[FwdGetS], acts: &[SendData, OwnerWb], to: None },
        Row { id: 25, from: &[E, M], on: &[FwdGetM], acts: &[SendData, Surrender, Wake], to: Some(I) },
        Row { id: 26, from: &[MI_A], on: &[FwdGetM], acts: &[SendData, Release, Wake], to: Some(SI_A) },
        Row { id: 27, from: &[MI_A, SI_A], on: &[PutAck], acts: &[Retire], to: Some(I) },
        Row { id: 28, from: &[S], on: &[Replacement], acts: &[PutS], to: Some(SI_A) },
        Row { id: 29, from: &[E], on: &[Replacement], acts: &[PutE], to: Some(MI_A) },
        Row { id: 30, from: &[M], on: &[Replacement], acts: &[PutM], to: Some(MI_A) },
    ]
};

/// `mesi-skip-invalidate`: an Inv to an S copy is acked, the copy kept.
#[rustfmt::skip]
const SKIP_INVALIDATE_ROWS: &[Row] = {
    use State::*;
    &[Row { id: 31, from: &[S, SM_AD, SM_A], on: &[Event::Inv], acts: &[Act::AckInv], to: None }]
};

/// `mesi-drop-ack`: invalidation acks are never counted.
#[rustfmt::skip]
const DROP_ACK_ROWS: &[Row] = {
    use Event::*;
    use State::*;
    &[
        Row { id: 32, from: &[IM_AD, IM_A, SM_AD, SM_A], on: &[InvAck], acts: &[], to: None },
        Row { id: 33, from: &[IM_A, SM_A], on: &[LastInvAck], acts: &[], to: None },
    ]
};

/// Every row by id, for the compiled dispatch.
const BY_ID: [Option<&Row>; crate::table::MAX_ROW_ID + 1] =
    rows_by_id(&[ROWS, SKIP_INVALIDATE_ROWS, DROP_ACK_ROWS]);

/// The stock table and the two seeded mutations' tables.
static SPECS: [Spec; 3] = {
    use ProtocolMutation::{MesiDropAck, MesiSkipInvalidate};
    const M: &[Protocol] = &[Protocol::Mesi];
    const STOCK: List = ("MESI", ROWS, false);
    const SKIP: List = (MesiSkipInvalidate.token(), SKIP_INVALIDATE_ROWS, true);
    const DROP: List = (MesiDropAck.token(), DROP_ACK_ROWS, true);
    [
        Spec::new(M, None, &[STOCK]),
        Spec::new(M, Some(MesiSkipInvalidate), &[STOCK, SKIP]),
        Spec::new(M, Some(MesiDropAck), &[STOCK, DROP]),
    ]
};

/// Appends the L1's tables `protocol` runs to `out` (`dvs tables`).
pub(crate) fn markdown(protocol: Protocol, out: &mut String) {
    Spec::markdown(&SPECS, "MESI L1", protocol, out);
}

/// What fired a row: a core request on word `w`, a message, or the payload
/// an install just evicted.
#[derive(Debug, Clone, Copy)]
enum Input {
    Core { w: usize, kind: AccessKind },
    Msg(MesiMsg),
    Victim(MesiLine),
}

/// What classification found on the line, handed to every step of the row
/// so none looks the line up again to read it: the resident copy, an
/// eviction's retained data, and the newest merged store to a core
/// request's word.
#[derive(Debug, Clone, Copy, Default)]
struct Found {
    resident: Option<MesiLine>,
    retained: Option<LineData>,
    forward: Option<u64>,
}

impl Found {
    /// The data an owner holds: the resident copy, else the eviction's.
    fn held(&self) -> LineData {
        let resident = self.resident.map(|l| l.data);
        resident.or(self.retained).expect("held data")
    }
}

/// The MESI L1 controller for one core.
#[derive(Debug, Clone)]
pub struct MesiL1 {
    id: CoreId,
    banks: usize,
    cache: CacheArray<MesiLine>,
    mshr: Mshr<LineAddr, Txn>,
    watch: Option<WordAddr>,
    /// The transition table: stock, or a seeded mutation's.
    table: &'static Table,
}

impl MesiL1 {
    /// Creates an empty L1 for core `id` in a system with `banks` L2 banks.
    pub fn new(id: CoreId, geometry: CacheGeometry, banks: usize) -> Self {
        MesiL1 {
            id,
            banks,
            cache: CacheArray::new(geometry),
            mshr: Mshr::unbounded(),
            watch: None,
            table: &SPECS[0].table,
        }
    }

    /// Arms a seeded protocol bug (negative testing; see
    /// [`ProtocolMutation`]) by swapping in its transition table.
    pub fn set_mutation(&mut self, mutation: Option<ProtocolMutation>) {
        let spec = Spec::find(&SPECS, Protocol::Mesi, mutation);
        self.table = &spec.expect("MESI's stock table").table;
    }

    /// Peak simultaneous MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshr.high_water()
    }

    /// Watches `word` for a failed spin if its line is resident (readable):
    /// losing the line wakes the core. Returns whether it did. At most one
    /// word is watched; the core is blocking.
    pub fn watch(&mut self, word: WordAddr) -> bool {
        let readable = self.cache.get(word.line()).is_some();
        if readable {
            self.watch = Some(word);
        }
        readable
    }

    /// Clears the spin watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// Number of data stores currently outstanding (for fence draining this
    /// is tracked by the system; exposed for assertions).
    pub fn outstanding_txns(&self) -> usize {
        self.mshr.len()
    }

    /// Reads a word's value if the line is resident (diagnostics / final
    /// state reconstruction).
    pub fn peek_word(&self, word: WordAddr) -> Option<u64> {
        self.cache
            .get(word.line())
            .map(|l| l.data[word.index_in_line()])
    }

    /// Iterates resident lines as `(address, state)` (diagnostics and
    /// invariant checking).
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, Stable)> + '_ {
        self.cache.iter().map(|(a, l)| (a, l.state))
    }

    /// Whether this L1 has an in-flight transaction on `line`.
    pub fn has_txn(&self, line: LineAddr) -> bool {
        self.mshr.contains(&line)
    }

    /// The line's stable state, if resident.
    pub fn line_state(&self, line: LineAddr) -> Option<Stable> {
        self.cache.get(line).map(|l| l.state)
    }

    /// One `(line, description)` pair per in-flight transaction (stall
    /// diagnostics and conservation checking).
    pub fn pending_summaries(&self) -> Vec<(LineAddr, String)> {
        let describe = |t: &Txn| {
            let (goal, have, acks) = (t.goal, t.have_data, t.acks_balance);
            let (blocking, merged) = (t.blocking.is_some(), t.pending_stores.len());
            format!("{goal:?} (have_data={have}, acks_balance={acks}, blocking={blocking}, merged_stores={merged})")
        };
        self.mshr.iter().map(|(l, t)| (*l, describe(t))).collect()
    }

    /// Presents a core memory request.
    pub fn core_request(&mut self, req: &MemRequest, actions: &mut Actions) -> IssueResult {
        let (line, w) = (req.addr.word().line(), req.addr.word().index_in_line());
        self.fire(line, Input::Core { w, kind: req.kind }, actions)
    }

    /// Handles an incoming protocol message.
    pub fn on_msg(&mut self, msg: MesiMsg, actions: &mut Actions) {
        self.fire(msg.line(), Input::Msg(msg), actions);
    }

    /// A line's primer state: its stable state (absence is I), refined by
    /// its MSHR transaction `txn`.
    fn state(txn: Option<&Txn>, resident: Option<&MesiLine>) -> State {
        let Some(t) = txn else {
            return resident.map_or(State::I, |l| l.state.state());
        };
        match (t.goal, t.have_data) {
            (Goal::Fetch, _) if t.deliver_only => State::IS_D_I,
            (Goal::Fetch, _) => State::IS_D,
            (Goal::Evict, _) if t.evict_data.is_some() => State::MI_A,
            (Goal::Evict, _) => State::SI_A,
            (Goal::Own, have) => match (resident.is_some(), have) {
                (false, false) => State::IM_AD,
                (false, true) => State::IM_A,
                (true, false) => State::SM_AD,
                (true, true) => State::SM_A,
            },
        }
    }

    /// The state `input` meets on `line`, the event it is there (`None`: a
    /// message no L1 takes), and what the one MSHR and cache lookup found.
    fn classify(&self, line: LineAddr, input: &Input) -> (State, Option<Event>, Found) {
        if let Input::Victim(old) = *input {
            let found = Found::default();
            return (old.state.state(), Some(Event::Replacement), found);
        }
        let (txn, resident) = (self.mshr.get(&line), self.cache.get(line));
        let state = Self::state(txn, resident);
        let found = Found {
            resident: resident.copied(),
            retained: txn.and_then(|t| t.evict_data),
            forward: match *input {
                Input::Core { w, .. } => txn.and_then(|t| t.forward(w)),
                _ => None,
            },
        };
        let own = txn.filter(|t| t.goal == Goal::Own);
        let event = match *input {
            Input::Core { kind, .. } if !kind.may_write() => Event::Load,
            Input::Core { kind, .. } if kind.is_sync() => Event::Own,
            Input::Core { .. } => Event::Store,
            Input::Msg(MesiMsg::Data {
                acks, exclusive, ..
            }) => match own {
                _ if exclusive => Event::ExclData,
                Some(t) if t.acks_balance + i64::from(acks) == 0 => Event::LastData,
                _ => Event::Data,
            },
            Input::Msg(MesiMsg::InvAck { .. }) => match own {
                Some(t) if t.have_data && t.acks_balance == 1 => Event::LastInvAck,
                _ => Event::InvAck,
            },
            Input::Msg(MesiMsg::Inv { .. }) => Event::Inv,
            Input::Msg(MesiMsg::FwdGetS { .. }) => Event::FwdGetS,
            Input::Msg(MesiMsg::FwdGetM { .. }) => Event::FwdGetM,
            Input::Msg(MesiMsg::PutAck { .. }) => Event::PutAck,
            Input::Msg(_) | Input::Victim(_) => return (state, None, found),
        };
        (state, Some(event), found)
    }

    /// Classifies `input` and runs its row. A cell with no row is the one
    /// unexpected-event path: a violation naming the line, state and event.
    /// Returns a core request's outcome.
    fn fire(&mut self, line: LineAddr, input: Input, actions: &mut Actions) -> IssueResult {
        let (state, event, found) = self.classify(line, &input);
        let Some(row) = event.and_then(|e| self.table[state as usize][e as usize]) else {
            let who = format_args!("MESI L1 {}", self.id);
            actions.push(crate::table::unexpected(who, line, state, event, input));
            return IssueResult::Blocked;
        };
        let mut result = IssueResult::Blocked;
        if !dispatch_row!(row.id, self.run(line, &input, &found, &mut result, actions)) {
            // An install retry is scheduled; the transaction stays open.
            return result;
        }
        debug_assert_eq!(
            Self::state(self.mshr.get(&line), self.cache.get(line)),
            row.to.unwrap_or(state),
            "L1 row {}",
            row.id
        );
        result
    }

    /// Runs row `ID`'s steps in order (see [`dispatch_row!`]). Returns
    /// false when a step stops the row.
    fn run<const ID: usize>(
        &mut self,
        line: LineAddr,
        input: &Input,
        found: &Found,
        result: &mut IssueResult,
        actions: &mut Actions,
    ) -> bool {
        for &act in Compiled::<ID>::ACTS {
            if !self.act(act, line, input, found, result, actions) {
                return false;
            }
        }
        true
    }

    /// Runs one step of a fired row on what classification `found`. Returns
    /// false when an install found no victim: its retry is scheduled and the
    /// row stops.
    #[inline(always)]
    fn act(
        &mut self,
        act: Act,
        line: LineAddr,
        input: &Input,
        found: &Found,
        result: &mut IssueResult,
        actions: &mut Actions,
    ) -> bool {
        // This L1 as a request's `req` and a reply's `from`, its bank, and
        // the line's address as observed.
        let (req, from, banks) = (self.id, self.id, self.banks);
        let key = line.base().raw();
        let home = || Endpoint::Bank(home_bank(line, banks));
        let mut send = |to, msg| {
            let msg = Msg::Mesi(msg);
            actions.push(Action::Send { to, msg });
        };
        match (act, input) {
            // Core requests.
            (Act::Hit, &Input::Core { w, .. }) => {
                // A forwarded value leaves the line's recency alone.
                let value = found.forward.unwrap_or_else(|| {
                    self.cache.touch(line);
                    found.resident.expect("resident").data[w]
                });
                *result = IssueResult::Hit { value: Some(value) };
            }
            (Act::Modify, &Input::Core { w, kind }) => {
                let l = self.cache.get_mut(line).expect("owned line");
                l.state = Stable::M;
                *result = match kind {
                    AccessKind::DataStore { value } => {
                        l.data[w] = value;
                        IssueResult::StoreAccepted { completed: true }
                    }
                    _ => {
                        let value = BlockingOp::of(w, kind).apply(&mut l.data);
                        IssueResult::Hit { value }
                    }
                };
            }
            (Act::Stage, &Input::Core { w, kind }) => {
                if let Some(value) = found.forward.filter(|_| !kind.may_write()) {
                    *result = IssueResult::Hit { value: Some(value) };
                    return true;
                }
                let txn = self.mshr.get_mut(&line).expect("open transaction");
                *result = txn.stage(w, kind);
                self.cache.touch(line);
            }
            (Act::GetS | Act::GetM | Act::Upgrade, &Input::Core { w, kind }) => {
                let (goal, msg) = match act {
                    Act::GetS => (Goal::Fetch, MesiMsg::GetS { line, req }),
                    _ => (Goal::Own, MesiMsg::GetM { line, req }),
                };
                let mut txn = Txn::new(goal);
                *result = txn.stage(w, kind);
                if act == Act::Upgrade {
                    self.cache.touch(line);
                }
                send(home(), msg);
                mshr_alloc(&mut self.mshr, line, txn, key, actions);
            }
            (Act::Retry, &Input::Core { .. }) => *result = IssueResult::Blocked,
            // Responses.
            (Act::InstallS | Act::InstallE, &Input::Msg(msg @ MesiMsg::Data { data, .. })) => {
                let state = if act == Act::InstallE {
                    Stable::E
                } else {
                    Stable::S
                };
                actions.transition(key, "I", state.label(), "Data");
                return self.try_install(line, MesiLine { state, data }, msg, actions);
            }
            (Act::Deliver, &Input::Msg(MesiMsg::Data { mut data, .. })) => {
                let load = mshr_free(&mut self.mshr, &line, key, actions).and_then(|t| t.blocking);
                let value = load.expect("a fetch carries its load").apply(&mut data);
                actions.push(Action::CoreDone { value });
            }
            (Act::TakeData, &Input::Msg(MesiMsg::Data { data, acks, .. })) => {
                let txn = self.mshr.get_mut(&line).expect("own transaction");
                txn.have_data = true;
                txn.data = Some(data);
                txn.acks_balance += i64::from(acks);
            }
            (Act::CountAck, _) => self.mshr.get_mut(&line).expect("own txn").acks_balance -= 1,
            (Act::Finish, _) => return self.finish_own(line, found, actions),
            (Act::Unblock, _) => {
                let class = match input {
                    &Input::Msg(MesiMsg::Data { class, .. }) => class,
                    _ => TrafficClass::Store,
                };
                send(home(), MesiMsg::Unblock { line, from, class });
            }
            // Invalidations and forwarded requests.
            (Act::Invalidate, &Input::Msg(MesiMsg::Inv { req, .. })) => {
                self.cache.remove(line);
                actions.transition(key, "S", "I", "Inv");
                let (requester, sharers) = (req as u32, 1);
                let kind = EventKind::Invalidation { requester, sharers };
                actions.observe(key, kind);
            }
            (Act::DeliverOnce, _) => self.mshr.get_mut(&line).expect("fetch").deliver_only = true,
            (Act::AckInv, &Input::Msg(MesiMsg::Inv { req, .. })) => {
                send(Endpoint::L1(req), MesiMsg::InvAck { line, from });
            }
            (Act::Wake, _) => {
                if self.watch.is_some_and(|w| w.line() == line) {
                    actions.push(Action::SpinWake);
                }
            }
            (Act::Downgrade, _) => {
                self.cache.get_mut(line).expect("owned line").state = Stable::S;
                let was = found.resident.expect("owned line").state.label();
                actions.transition(key, was, "S", "FwdGetS");
            }
            (Act::SendData, &Input::Msg(msg)) => {
                let (MesiMsg::FwdGetS { req, .. } | MesiMsg::FwdGetM { req, .. }) = msg else {
                    unreachable!("data for {msg:?}")
                };
                // A forwarded GetS is answered as a load, a GetM as a store.
                let (data, class) = (found.held(), msg.class());
                let reply = MesiMsg::Data {
                    line,
                    data,
                    acks: 0,
                    exclusive: false,
                    class,
                };
                send(Endpoint::L1(req), reply);
            }
            (Act::OwnerWb, _) => {
                let data = found.held();
                send(home(), MesiMsg::OwnerWb { line, data, from });
            }
            (Act::Surrender, _) => {
                let l = self.cache.remove(line).expect("owned line");
                actions.transition(key, l.state.label(), "I", "FwdGetM");
            }
            (Act::Release, _) => self.mshr.get_mut(&line).expect("eviction").evict_data = None,
            (Act::Retire, _) => drop(mshr_free(&mut self.mshr, &line, key, actions)),
            // A victim's replacement.
            (Act::PutS | Act::PutE | Act::PutM, &Input::Victim(old)) => {
                let data = old.data;
                let msg = match act {
                    Act::PutS => MesiMsg::PutS { line, req },
                    Act::PutE => MesiMsg::PutE { line, req },
                    _ => MesiMsg::PutM { line, req, data },
                };
                send(home(), msg);
                actions.transition(key, old.state.label(), "I", "evict");
                let mut txn = Txn::new(Goal::Evict);
                txn.evict_data = (act != Act::PutS).then_some(data);
                mshr_alloc(&mut self.mshr, line, txn, key, actions);
            }
            _ => unreachable!("L1 step {act:?} fired by {input:?}"),
        }
        true
    }

    /// Completes an Own transaction: installs M, applies the merged stores
    /// and runs the blocking op. Returns false if the install must retry.
    fn finish_own(&mut self, line: LineAddr, found: &Found, actions: &mut Actions) -> bool {
        let txn = self.mshr.get_mut(&line).expect("own transaction");
        // If the line was resident (upgrade from S that raced no Inv), the
        // directory's data is equally fresh; either copy works.
        let fetched = txn.data.expect("own transaction completed without data");
        let mut data = fetched;
        for &(w, v) in &txn.pending_stores {
            data[w] = v;
        }
        let core_done = txn.blocking.map(|op| op.apply(&mut data));
        // The retry carries the line as fetched: the stores and the blocking
        // op stay in the transaction and are applied once, when it installs.
        let retry = MesiMsg::Data {
            line,
            data: fetched,
            acks: 0,
            exclusive: false,
            class: TrafficClass::Store,
        };
        let state = Stable::M;
        if !self.try_install(line, MesiLine { state, data }, retry, actions) {
            // The retried data is counted again on arrival.
            self.mshr.get_mut(&line).expect("own transaction").have_data = false;
            return false;
        }
        let was = found.resident.map_or("I", |l| l.state.label());
        let key = line.base().raw();
        actions.transition(key, was, "M", "Data");
        let txn = mshr_free(&mut self.mshr, &line, key, actions).expect("own transaction");
        let count = txn.pending_stores.len();
        if count > 0 {
            actions.push(Action::StoresDone { count });
        }
        if let Some(value) = core_done {
            actions.push(Action::CoreDone { value });
        }
        true
    }

    /// Installs a line; a victim's eviction fires its `Replacement` row. If
    /// no victim is evictable, `retry` comes back as a local message after
    /// 8 cycles and this returns false.
    fn try_install(
        &mut self,
        line: LineAddr,
        payload: MesiLine,
        retry: MesiMsg,
        actions: &mut Actions,
    ) -> bool {
        let watch_line = self.watch.map(WordAddr::line);
        let mshr = &self.mshr;
        let outcome = self.cache.insert_filtered(line, payload, |addr, _| {
            !mshr.contains(&addr) && Some(addr) != watch_line
        });
        match outcome {
            // A same-address replace upgrades in place: nothing to evict.
            InsertOutcome::Inserted => true,
            InsertOutcome::Evicted(victim, _) if victim == line => true,
            InsertOutcome::Evicted(victim, old) => {
                self.fire(victim, Input::Victim(old), actions);
                true
            }
            InsertOutcome::NoVictim(_) => {
                let msg = Msg::Mesi(retry);
                actions.push(Action::Local { delay: 8, msg });
                false
            }
        }
    }
}

/// Canonical hash for model checking: every field that influences future
/// protocol behaviour. `table` is fixed per run.
impl std::hash::Hash for MesiL1 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.banks.hash(state);
        self.cache.hash(state);
        self.mshr.hash(state);
        self.watch.hash(state);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dvs_mem::Addr;

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
        crate::table::tests::View::new("MESI L1", specs, index, gcs_only)
    }

    fn l1() -> MesiL1 {
        MesiL1::new(0, CacheGeometry::new(1024, 2), 4)
    }

    fn load(addr: u64) -> MemRequest {
        MemRequest {
            addr: Addr::new(addr),
            kind: AccessKind::DataLoad,
            dst: None,
            spin: None,
        }
    }

    fn store(addr: u64, value: u64) -> MemRequest {
        MemRequest {
            addr: Addr::new(addr),
            kind: AccessKind::DataStore { value },
            dst: None,
            spin: None,
        }
    }

    fn data_msg(line: LineAddr, data: LineData, acks: u32, exclusive: bool) -> MesiMsg {
        MesiMsg::Data {
            line,
            data,
            acks,
            exclusive,
            class: TrafficClass::Load,
        }
    }

    #[test]
    fn cold_load_misses_then_hits() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        assert_eq!(l1.core_request(&load(0x100), &mut acts), IssueResult::Miss);
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Mesi(MesiMsg::GetS { .. }),
                ..
            }
        ));
        // Directory responds.
        let mut data = [0u64; 8];
        data[0] = 42;
        acts.clear();
        l1.on_msg(data_msg(Addr::new(0x100).line(), data, 0, false), &mut acts);
        assert!(acts.contains(&Action::CoreDone { value: Some(42) }));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Mesi(MesiMsg::Unblock { .. }),
                ..
            }
        )));
        // Now it hits.
        acts.clear();
        assert_eq!(
            l1.core_request(&load(0x100), &mut acts),
            IssueResult::Hit { value: Some(42) }
        );
    }

    #[test]
    fn exclusive_grant_makes_store_hit_silently() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&load(0x100), &mut acts);
        acts.clear();
        l1.on_msg(
            data_msg(Addr::new(0x100).line(), [0; 8], 0, true),
            &mut acts,
        );
        acts.clear();
        // E state: store hits without a GetM.
        assert_eq!(
            l1.core_request(&store(0x100, 9), &mut acts),
            IssueResult::StoreAccepted { completed: true }
        );
        assert!(acts.is_empty());
        assert_eq!(l1.peek_word(Addr::new(0x100).word()), Some(9));
    }

    #[test]
    fn store_miss_gathers_acks_before_completing() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        assert_eq!(
            l1.core_request(&store(0x100, 5), &mut acts),
            IssueResult::StoreAccepted { completed: false }
        );
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(data_msg(line, [0; 8], 2, false), &mut acts);
        assert!(acts.is_empty(), "must wait for acks: {acts:?}");
        l1.on_msg(MesiMsg::InvAck { line, from: 3 }, &mut acts);
        assert!(acts.is_empty());
        l1.on_msg(MesiMsg::InvAck { line, from: 5 }, &mut acts);
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
        assert_eq!(l1.peek_word(Addr::new(0x100).word()), Some(5));
    }

    #[test]
    fn acks_arriving_before_data_still_complete() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&store(0x100, 5), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(MesiMsg::InvAck { line, from: 3 }, &mut acts);
        assert!(acts.is_empty());
        l1.on_msg(data_msg(line, [0; 8], 1, false), &mut acts);
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
    }

    #[test]
    fn rmw_executes_at_ownership() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        let req = MemRequest {
            addr: Addr::new(0x100),
            kind: AccessKind::SyncRmw(RmwOp::Tas),
            dst: None,
            spin: None,
        };
        assert_eq!(l1.core_request(&req, &mut acts), IssueResult::Miss);
        acts.clear();
        let line = Addr::new(0x100).line();
        l1.on_msg(data_msg(line, [0; 8], 0, false), &mut acts);
        assert!(acts.contains(&Action::CoreDone { value: Some(0) }));
        assert_eq!(l1.peek_word(Addr::new(0x100).word()), Some(1));
        // Second TAS hits in M and returns 1.
        acts.clear();
        assert_eq!(
            l1.core_request(&req, &mut acts),
            IssueResult::Hit { value: Some(1) }
        );
    }

    #[test]
    fn inv_on_shared_line_invalidates_and_acks() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&load(0x100), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(data_msg(line, [7; 8], 0, false), &mut acts);
        acts.clear();
        l1.on_msg(MesiMsg::Inv { line, req: 2 }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Mesi(MesiMsg::InvAck { .. })
            }
        )));
        acts.clear();
        assert_eq!(l1.core_request(&load(0x100), &mut acts), IssueResult::Miss);
    }

    #[test]
    fn inv_during_fetch_delivers_once_without_installing() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&load(0x100), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(MesiMsg::Inv { line, req: 1 }, &mut acts);
        acts.clear();
        let mut data = [0u64; 8];
        data[0] = 77;
        l1.on_msg(data_msg(line, data, 0, false), &mut acts);
        assert!(acts.contains(&Action::CoreDone { value: Some(77) }));
        acts.clear();
        // Not installed: next load misses again.
        assert_eq!(l1.core_request(&load(0x100), &mut acts), IssueResult::Miss);
    }

    #[test]
    fn fwd_gets_downgrades_owner_and_copies_to_dir() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        // Become M via a store.
        l1.core_request(&store(0x100, 5), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(data_msg(line, [0; 8], 0, false), &mut acts);
        acts.clear();
        l1.on_msg(MesiMsg::FwdGetS { line, req: 3 }, &mut acts);
        let to_req = acts.iter().any(|a| {
            matches!(a, Action::Send { to: Endpoint::L1(3), msg: Msg::Mesi(MesiMsg::Data { data, .. }) } if data[0] == 5)
        });
        let to_dir = acts.iter().any(|a| {
            matches!(
                a,
                Action::Send {
                    msg: Msg::Mesi(MesiMsg::OwnerWb { .. }),
                    ..
                }
            )
        });
        assert!(to_req && to_dir, "{acts:?}");
        // Now S: a store needs an upgrade.
        acts.clear();
        assert_eq!(
            l1.core_request(&store(0x100, 6), &mut acts),
            IssueResult::StoreAccepted { completed: false }
        );
    }

    #[test]
    fn fwd_getm_removes_line_and_wakes_watcher() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&store(0x100, 5), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(data_msg(line, [0; 8], 0, false), &mut acts);
        assert!(l1.watch(Addr::new(0x100).word()));
        acts.clear();
        l1.on_msg(MesiMsg::FwdGetM { line, req: 3 }, &mut acts);
        assert!(acts.contains(&Action::SpinWake));
        assert!(l1.peek_word(Addr::new(0x100).word()).is_none());
    }

    #[test]
    fn eviction_sends_putm_and_serves_forwards_from_mshr() {
        // 2-way cache: lines 0x100, 0x300, 0x500 map to the same set
        // (sets = 8 for 1KB 2-way; stride 8 lines = 0x200 bytes).
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        for (a, v) in [(0x100, 1), (0x300, 2)] {
            l1.core_request(&store(a, v), &mut acts);
            acts.clear();
            l1.on_msg(data_msg(Addr::new(a).line(), [0; 8], 0, false), &mut acts);
            acts.clear();
        }
        // Third line forces an eviction of LRU 0x100.
        l1.core_request(&store(0x500, 3), &mut acts);
        acts.clear();
        l1.on_msg(
            data_msg(Addr::new(0x500).line(), [0; 8], 0, false),
            &mut acts,
        );
        let evicted = acts.iter().find_map(|a| match a {
            Action::Send {
                msg: Msg::Mesi(MesiMsg::PutM { line, data, .. }),
                ..
            } => Some((*line, *data)),
            _ => None,
        });
        let (vline, vdata) = evicted.expect("PutM for the victim");
        assert_eq!(vline, Addr::new(0x100).line());
        assert_eq!(vdata[0], 1);
        // A FwdGetS before the PutAck is served from the eviction record.
        acts.clear();
        l1.on_msg(
            MesiMsg::FwdGetS {
                line: vline,
                req: 7,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(7),
                msg: Msg::Mesi(MesiMsg::Data { .. })
            }
        )));
        // PutAck retires the eviction.
        acts.clear();
        l1.on_msg(MesiMsg::PutAck { line: vline }, &mut acts);
        assert_eq!(l1.outstanding_txns(), 0);
    }

    #[test]
    fn load_parks_behind_pending_store_txn_and_forwards_value() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        l1.core_request(&store(0x100, 5), &mut acts);
        acts.clear();
        // Load to the same word forwards the merged store value.
        assert_eq!(
            l1.core_request(&load(0x100), &mut acts),
            IssueResult::Hit { value: Some(5) }
        );
        // Load to another word of the line parks (Miss).
        assert_eq!(l1.core_request(&load(0x108), &mut acts), IssueResult::Miss);
        acts.clear();
        let line = Addr::new(0x100).line();
        let mut data = [0u64; 8];
        data[1] = 66;
        l1.on_msg(data_msg(line, data, 0, false), &mut acts);
        assert!(acts.contains(&Action::CoreDone { value: Some(66) }));
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
        assert_eq!(l1.peek_word(Addr::new(0x100).word()), Some(5));
    }

    /// A no-victim install retry applies the blocking RMW once. Two S-line
    /// upgrades pin both ways of a 2-way set; a FAI to a third line of the
    /// set completes with nowhere to go and retries after 8 cycles. Once an
    /// upgrade completes and frees a way, the retried install returns the
    /// fetched value and leaves it incremented once.
    #[test]
    fn rmw_install_retry_applies_the_rmw_once() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        let (a, b, c) = (0x100, 0x300, 0x500);
        for addr in [a, b] {
            let line = Addr::new(addr).line();
            l1.core_request(&load(addr), &mut acts);
            l1.on_msg(data_msg(line, [0; 8], 0, false), &mut acts);
            l1.core_request(&store(addr, 1), &mut acts);
            assert_eq!(l1.line_state(line), Some(Stable::S), "{line} upgrading");
        }
        let fai = MemRequest {
            addr: Addr::new(c),
            kind: AccessKind::SyncRmw(RmwOp::Fai { delta: 1 }),
            dst: None,
            spin: None,
        };
        acts.clear();
        assert_eq!(l1.core_request(&fai, &mut acts), IssueResult::Miss);
        let mut fetched = [0u64; 8];
        fetched[0] = 10;
        acts.clear();
        l1.on_msg(data_msg(Addr::new(c).line(), fetched, 0, false), &mut acts);
        let retry = acts.iter().find_map(|act| match act {
            Action::Local {
                delay: 8,
                msg: Msg::Mesi(m),
            } => Some(*m),
            _ => None,
        });
        let retry = retry.expect("no victim: the install retries");
        assert!(!acts.iter().any(|a| matches!(a, Action::CoreDone { .. })));
        // Completing one upgrade leaves its line M and evictable.
        l1.on_msg(data_msg(Addr::new(a).line(), [0; 8], 0, false), &mut acts);
        acts.clear();
        l1.on_msg(retry, &mut acts);
        assert!(
            acts.contains(&Action::CoreDone { value: Some(10) }),
            "{acts:?}"
        );
        assert_eq!(l1.peek_word(Addr::new(c).word()), Some(11));
    }

    /// A directory-bound message is the L1's one unexpected event: a single
    /// violation naming the L1, the line, its state and the message.
    #[test]
    fn a_directory_bound_message_is_a_violation() {
        let mut l1 = l1();
        let mut acts = Actions::new(true);
        let line = Addr::new(0x100).line();
        l1.on_msg(MesiMsg::GetS { line, req: 1 }, &mut acts);
        let detail =
            "MESI L1 0: unexpected Msg(GetS { line: LineAddr(4), req: 1 }) for l0x100 in I";
        assert_eq!(*acts, [Action::violation(detail)]);
    }
}
