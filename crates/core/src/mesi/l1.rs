//! The MESI private-cache (L1) controller.
//!
//! Stable states live in the cache array (`S`, `E`, `M`; absence is `I`).
//! Transient states live in MSHR transactions: a `Fetch` transaction is the
//! primer's `IS_D` (with the `IS_D_I` deliver-once race flag), an `Own`
//! transaction is `IM_AD`/`IM_A`/`SM_AD`/`SM_A` depending on whether the
//! line is resident and which of {data, acks} are still outstanding, and an
//! `Evict` transaction is `MI_A`/`EI_A`/`SI_A`/`II_A`.
//!
//! Writes are non-blocking (the paper's modification): data stores merge
//! into the line's `Own` transaction and the core is notified with
//! [`Action::StoresDone`] when the transaction completes; fences drain them.

use crate::config::ProtocolMutation;
use crate::msg::{CoreId, Endpoint, LineData, MesiMsg, Msg};
use crate::proto::{count_access, home_bank, Action, IssueResult};
use dvs_mem::array::InsertOutcome;
use dvs_mem::{AccessKind, CacheArray, CacheGeometry, LineAddr, Mshr, RmwOp, WordAddr};
use dvs_stats::{CacheStats, TrafficClass};
use dvs_telemetry::{Component, EventKind, Telemetry, TelemetryKey};
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
        match self {
            Stable::S => "S",
            Stable::E => "E",
            Stable::M => "M",
        }
    }
}

/// A resident cache line.
#[derive(Debug, Clone, Hash)]
pub struct MesiLine {
    /// Coherence state.
    pub state: Stable,
    /// Line contents.
    pub data: LineData,
}

/// The blocking core operation a transaction will complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockingOp {
    /// A (data or sync) load of word `w`.
    Load { w: usize },
    /// A synchronization store of `value` to word `w`.
    SyncStore { w: usize, value: u64 },
    /// An atomic RMW on word `w`.
    Rmw { w: usize, op: RmwOp },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Goal {
    /// GetS in flight (IS_D).
    Fetch,
    /// GetM in flight (IM_AD / SM_AD / IM_A / SM_A).
    Own,
    /// Put(S|E|M) in flight (xI_A), holding evicted dirty data if any.
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

    fn own_complete(&self) -> bool {
        self.have_data && self.acks_balance == 0
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
    mutation: Option<ProtocolMutation>,
    stats: CacheStats,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    tel: Telemetry,
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
            mutation: None,
            stats: CacheStats::new(),
            tel: Telemetry::off(),
        }
    }

    /// Arms a seeded protocol bug (negative testing; see
    /// [`ProtocolMutation`]).
    pub fn set_mutation(&mut self, mutation: Option<ProtocolMutation>) {
        self.mutation = mutation;
    }

    /// Attaches a telemetry handle (state transitions, invalidations, MSHR
    /// occupancy).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.mshr.set_telemetry(tel.clone(), self.id as u32);
        self.tel = tel;
    }

    /// Peak simultaneous MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshr.high_water()
    }

    fn emit_transition(
        &self,
        line: LineAddr,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        let kind = EventKind::Transition { from, to, cause };
        self.tel
            .emit_now(self.id as u32, Component::L1, line.telemetry_key(), kind);
    }

    /// Cache-access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Sets the spin-watched word (at most one; the core is blocking).
    pub fn set_watch(&mut self, word: WordAddr) {
        self.watch = Some(word);
    }

    /// Clears the spin watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// Whether the line holding `word` is resident in a readable state.
    pub fn word_readable(&self, word: WordAddr) -> bool {
        self.cache.get(word.line()).is_some()
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
        self.mshr
            .iter()
            .map(|(l, t)| {
                (
                    *l,
                    format!(
                        "{:?} (have_data={}, acks_balance={}, blocking={}, merged_stores={})",
                        t.goal,
                        t.have_data,
                        t.acks_balance,
                        t.blocking.is_some(),
                        t.pending_stores.len()
                    ),
                )
            })
            .collect()
    }

    fn wake_if_watched(&self, line: LineAddr, actions: &mut Vec<Action>) {
        if let Some(w) = self.watch {
            if w.line() == line {
                actions.push(Action::SpinWake);
            }
        }
    }

    /// Presents a core memory request.
    pub fn core_request(&mut self, req: &MemRequest, actions: &mut Vec<Action>) -> IssueResult {
        let word = req.addr.word();
        let line = word.line();
        let w = word.index_in_line();
        let home = Endpoint::Bank(home_bank(line, self.banks));

        match req.kind {
            AccessKind::DataLoad | AccessKind::SyncLoad => {
                if self.cache.contains(line) {
                    // Store→load forwarding: a pending merged store to this
                    // word (upgrade in flight, SM_AD) supersedes the resident
                    // line's (pre-upgrade) copy.
                    if let Some(txn) = self.mshr.get(&line) {
                        if let Some((_, v)) = txn.pending_stores.iter().rev().find(|(i, _)| *i == w)
                        {
                            let value = *v;
                            self.note_hit(req.kind);
                            return IssueResult::Hit { value: Some(value) };
                        }
                    }
                    let l = self.cache.get_mut(line).expect("line resident");
                    let value = l.data[w];
                    self.note_hit(req.kind);
                    return IssueResult::Hit { value: Some(value) };
                }
                if let Some(txn) = self.mshr.get_mut(&line) {
                    match txn.goal {
                        Goal::Fetch | Goal::Own => {
                            // Park behind the transaction; the core blocks.
                            if let Some((_, v)) =
                                txn.pending_stores.iter().rev().find(|(i, _)| *i == w)
                            {
                                // Store-to-load forwarding from a merged store.
                                let value = *v;
                                self.note_hit(req.kind);
                                return IssueResult::Hit { value: Some(value) };
                            }
                            assert!(txn.blocking.is_none(), "second blocking op on line");
                            txn.blocking = Some(BlockingOp::Load { w });
                            self.note_miss(req.kind);
                            return IssueResult::Miss;
                        }
                        Goal::Evict => return IssueResult::Blocked,
                    }
                }
                self.note_miss(req.kind);
                let mut txn = Txn::new(Goal::Fetch);
                txn.blocking = Some(BlockingOp::Load { w });
                self.open_txn(line, txn, home, actions);
                IssueResult::Miss
            }
            AccessKind::DataStore { value } => {
                if let Some(l) = self.cache.get_mut(line) {
                    match l.state {
                        Stable::M => {
                            l.data[w] = value;
                            self.note_hit(req.kind);
                            return IssueResult::StoreAccepted { completed: true };
                        }
                        Stable::E => {
                            l.data[w] = value;
                            l.state = Stable::M;
                            self.note_hit(req.kind);
                            return IssueResult::StoreAccepted { completed: true };
                        }
                        Stable::S => {
                            // Upgrade (SM_AD).
                            self.note_miss(req.kind);
                            if let Some(txn) = self.mshr.get_mut(&line) {
                                txn.pending_stores.push((w, value));
                                return IssueResult::StoreAccepted { completed: false };
                            }
                            let mut txn = Txn::new(Goal::Own);
                            txn.pending_stores.push((w, value));
                            self.open_txn(line, txn, home, actions);
                            return IssueResult::StoreAccepted { completed: false };
                        }
                    }
                }
                if let Some(txn) = self.mshr.get_mut(&line) {
                    match txn.goal {
                        Goal::Own => {
                            txn.pending_stores.push((w, value));
                            self.note_miss(req.kind);
                            return IssueResult::StoreAccepted { completed: false };
                        }
                        Goal::Fetch => {
                            // A load is in flight; upgrading mid-fetch would
                            // need a second transaction on the line. Retry.
                            return IssueResult::Blocked;
                        }
                        Goal::Evict => return IssueResult::Blocked,
                    }
                }
                self.note_miss(req.kind);
                let mut txn = Txn::new(Goal::Own);
                txn.pending_stores.push((w, value));
                self.open_txn(line, txn, home, actions);
                IssueResult::StoreAccepted { completed: false }
            }
            AccessKind::SyncStore { value } => self.ownership_op(
                line,
                w,
                home,
                BlockingOp::SyncStore { w, value },
                req.kind,
                actions,
            ),
            AccessKind::SyncRmw(op) => {
                self.ownership_op(line, w, home, BlockingOp::Rmw { w, op }, req.kind, actions)
            }
        }
    }

    /// Opens a transaction on `line` and sends its request to the home bank:
    /// GetS to fetch the line, GetM to own it.
    fn open_txn(&mut self, line: LineAddr, txn: Txn, home: Endpoint, actions: &mut Vec<Action>) {
        let req = self.id;
        let msg = if txn.goal == Goal::Fetch {
            MesiMsg::GetS { line, req }
        } else {
            MesiMsg::GetM { line, req }
        };
        self.mshr.try_insert(line, txn).expect("fresh mshr");
        actions.push(Action::Send {
            to: home,
            msg: Msg::Mesi(msg),
        });
    }

    /// Common path for blocking operations that need M: sync stores & RMWs.
    fn ownership_op(
        &mut self,
        line: LineAddr,
        w: usize,
        home: Endpoint,
        op: BlockingOp,
        kind: AccessKind,
        actions: &mut Vec<Action>,
    ) -> IssueResult {
        if let Some(l) = self.cache.get_mut(line) {
            match l.state {
                Stable::M | Stable::E => {
                    l.state = Stable::M;
                    let old = l.data[w];
                    let value = match op {
                        BlockingOp::SyncStore { value, .. } => {
                            l.data[w] = value;
                            None
                        }
                        BlockingOp::Rmw { op, .. } => {
                            l.data[w] = op.apply(old);
                            Some(old)
                        }
                        BlockingOp::Load { .. } => unreachable!("loads use core_request"),
                    };
                    self.note_hit(kind);
                    return IssueResult::Hit { value };
                }
                Stable::S => {
                    self.note_miss(kind);
                    if let Some(txn) = self.mshr.get_mut(&line) {
                        assert!(txn.blocking.is_none(), "second blocking op on line");
                        txn.blocking = Some(op);
                        return IssueResult::Miss;
                    }
                    let mut txn = Txn::new(Goal::Own);
                    txn.blocking = Some(op);
                    self.open_txn(line, txn, home, actions);
                    return IssueResult::Miss;
                }
            }
        }
        if let Some(txn) = self.mshr.get_mut(&line) {
            match txn.goal {
                Goal::Own => {
                    assert!(txn.blocking.is_none(), "second blocking op on line");
                    txn.blocking = Some(op);
                    self.note_miss(kind);
                    return IssueResult::Miss;
                }
                Goal::Fetch | Goal::Evict => return IssueResult::Blocked,
            }
        }
        self.note_miss(kind);
        let mut txn = Txn::new(Goal::Own);
        txn.blocking = Some(op);
        self.open_txn(line, txn, home, actions);
        IssueResult::Miss
    }

    /// Handles an incoming protocol message.
    pub fn on_msg(&mut self, msg: MesiMsg, actions: &mut Vec<Action>) {
        let line = msg.line();
        let home = Endpoint::Bank(home_bank(line, self.banks));
        match msg {
            MesiMsg::Data {
                data,
                acks,
                exclusive,
                class,
                ..
            } => self.on_data(line, data, acks, exclusive, class, home, actions),
            MesiMsg::InvAck { .. } => {
                let Some(txn) = self.mshr.get_mut(&line) else {
                    actions.push(Action::violation(format!(
                        "L1: InvAck without transaction for {line}"
                    )));
                    return;
                };
                if txn.goal != Goal::Own {
                    let goal = txn.goal;
                    actions.push(Action::violation(format!(
                        "L1: InvAck for {line} during {goal:?} transaction"
                    )));
                    return;
                }
                if self.mutation != Some(ProtocolMutation::MesiDropAck) {
                    txn.acks_balance -= 1;
                }
                if txn.own_complete() {
                    self.finish_own(line, home, actions);
                }
            }
            MesiMsg::Inv { req, .. } => {
                // Always acknowledge; invalidate only states the Inv can
                // legitimately target (see module docs).
                let mut invalidated = false;
                if let Some(l) = self.cache.get(line) {
                    if l.state == Stable::S
                        && self.mutation != Some(ProtocolMutation::MesiSkipInvalidate)
                    {
                        self.cache.remove(line);
                        invalidated = true;
                        self.emit_transition(line, "S", "I", "Inv");
                        let kind = EventKind::Invalidation {
                            requester: req as u32,
                            sharers: 1,
                        };
                        self.tel.emit_now(
                            self.id as u32,
                            Component::L1,
                            line.telemetry_key(),
                            kind,
                        );
                    }
                    // E/M: the Inv is from a stale epoch (we have since
                    // re-acquired the line); ack without invalidating.
                }
                if let Some(txn) = self.mshr.get_mut(&line) {
                    match txn.goal {
                        Goal::Fetch => txn.deliver_only = true,
                        Goal::Own | Goal::Evict => {}
                    }
                }
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Mesi(MesiMsg::InvAck {
                        line,
                        from: self.id,
                    }),
                });
                if invalidated {
                    self.wake_if_watched(line, actions);
                }
            }
            MesiMsg::FwdGetS { req, .. } => {
                // We are the (former) owner: send data to the requestor and a
                // copy to the directory; downgrade to S.
                let data = if let Some(l) = self.cache.get_mut(line) {
                    if !matches!(l.state, Stable::E | Stable::M) {
                        let state = l.state;
                        actions.push(Action::violation(format!(
                            "L1: FwdGetS for {line} held in {state:?}"
                        )));
                        return;
                    }
                    let from = l.state.label();
                    l.state = Stable::S;
                    let data = l.data;
                    self.emit_transition(line, from, "S", "FwdGetS");
                    data
                } else if let Some(txn) = self.mshr.get_mut(&line) {
                    // The eviction now acts as a PutS; the directory will
                    // still PutAck it.
                    let retained = (txn.goal == Goal::Evict)
                        .then_some(txn.evict_data)
                        .flatten();
                    let Some(data) = retained else {
                        let goal = txn.goal;
                        actions.push(Action::violation(format!(
                            "L1: FwdGetS for {line} with {goal:?} transaction and no retained data"
                        )));
                        return;
                    };
                    data
                } else {
                    actions.push(Action::violation(format!(
                        "L1 {}: FwdGetS for {line} held nowhere",
                        self.id
                    )));
                    return;
                };
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Mesi(MesiMsg::Data {
                        line,
                        data,
                        acks: 0,
                        exclusive: false,
                        class: TrafficClass::Load,
                    }),
                });
                actions.push(Action::Send {
                    to: home,
                    msg: Msg::Mesi(MesiMsg::OwnerWb {
                        line,
                        data,
                        from: self.id,
                    }),
                });
            }
            MesiMsg::FwdGetM { req, .. } => {
                let data = if let Some(l) = self.cache.get(line) {
                    if !matches!(l.state, Stable::E | Stable::M) {
                        let state = l.state;
                        actions.push(Action::violation(format!(
                            "L1: FwdGetM for {line} held in {state:?}"
                        )));
                        return;
                    }
                    let from = l.state.label();
                    let d = l.data;
                    self.cache.remove(line);
                    self.emit_transition(line, from, "I", "FwdGetM");
                    d
                } else if let Some(txn) = self.mshr.get_mut(&line) {
                    let retained = (txn.goal == Goal::Evict)
                        .then(|| txn.evict_data.take())
                        .flatten();
                    let Some(data) = retained else {
                        let goal = txn.goal;
                        actions.push(Action::violation(format!(
                            "L1: FwdGetM for {line} with {goal:?} transaction and no retained data"
                        )));
                        return;
                    };
                    data
                } else {
                    actions.push(Action::violation(format!(
                        "L1 {}: FwdGetM for {line} held nowhere",
                        self.id
                    )));
                    return;
                };
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Mesi(MesiMsg::Data {
                        line,
                        data,
                        acks: 0,
                        exclusive: false,
                        class: TrafficClass::Store,
                    }),
                });
                self.wake_if_watched(line, actions);
            }
            MesiMsg::PutAck { .. } => {
                let Some(txn) = self.mshr.remove(&line) else {
                    actions.push(Action::violation(format!(
                        "L1: PutAck without eviction for {line}"
                    )));
                    return;
                };
                if txn.goal != Goal::Evict {
                    actions.push(Action::violation(format!(
                        "L1: PutAck for {line} during {:?} transaction",
                        txn.goal
                    )));
                }
            }
            other => actions.push(Action::violation(format!(
                "L1 {} cannot handle {other:?}",
                self.id
            ))),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        line: LineAddr,
        data: LineData,
        acks: u32,
        exclusive: bool,
        class: TrafficClass,
        home: Endpoint,
        actions: &mut Vec<Action>,
    ) {
        let Some(txn) = self.mshr.get_mut(&line) else {
            actions.push(Action::violation(format!(
                "L1: Data without transaction for {line}"
            )));
            return;
        };
        match txn.goal {
            Goal::Fetch => {
                let deliver_only = txn.deliver_only;
                let blocking = txn.blocking;
                // Install S (or E when granted exclusively) — unless an Inv
                // overtook the data (IS_D_I): then use the value once and
                // end Invalid.
                if !deliver_only {
                    let state = if exclusive { Stable::E } else { Stable::S };
                    self.emit_transition(line, "I", state.label(), "Data");
                    if !self.try_install(line, MesiLine { state, data }, actions) {
                        // Structural hazard: retry the install shortly.
                        actions.push(Action::Local {
                            delay: 8,
                            msg: Msg::Mesi(MesiMsg::Data {
                                line,
                                data,
                                acks: 0,
                                exclusive,
                                class,
                            }),
                        });
                        return;
                    }
                }
                self.mshr.remove(&line);
                let Some(BlockingOp::Load { w }) = blocking else {
                    panic!("fetch transaction with {blocking:?}")
                };
                actions.push(Action::CoreDone {
                    value: Some(data[w]),
                });
                actions.push(Action::Send {
                    to: home,
                    msg: Msg::Mesi(MesiMsg::Unblock {
                        line,
                        from: self.id,
                        class,
                    }),
                });
            }
            Goal::Own => {
                if txn.have_data {
                    actions.push(Action::violation(format!(
                        "L1: duplicate Data for Own transaction on {line}"
                    )));
                    return;
                }
                txn.have_data = true;
                txn.data = Some(data);
                txn.acks_balance += i64::from(acks);
                if txn.own_complete() {
                    self.finish_own(line, home, actions);
                }
            }
            Goal::Evict => actions.push(Action::violation(format!(
                "L1: Data for {line} during eviction"
            ))),
        }
    }

    /// Completes an Own transaction: install M, apply merged stores, run the
    /// blocking op, unblock the directory.
    fn finish_own(&mut self, line: LineAddr, home: Endpoint, actions: &mut Vec<Action>) {
        let txn = self.mshr.get_mut(&line).expect("own transaction");
        let mut data = txn.data.expect("own transaction completed without data");
        // If the line was resident (upgrade from S that raced no Inv), the
        // directory's data is equally fresh; either copy works.
        let pending = std::mem::take(&mut txn.pending_stores);
        let blocking = txn.blocking.take();
        for (w, v) in &pending {
            data[*w] = *v;
        }
        let mut core_done: Option<Option<u64>> = None;
        match blocking {
            None => {}
            Some(BlockingOp::SyncStore { w, value }) => {
                data[w] = value;
                core_done = Some(None);
            }
            Some(BlockingOp::Rmw { w, op }) => {
                let old = data[w];
                data[w] = op.apply(old);
                core_done = Some(Some(old));
            }
            Some(BlockingOp::Load { w }) => {
                core_done = Some(Some(data[w]));
            }
        }
        let from = self.cache.get(line).map_or("I", |l| l.state.label());
        self.emit_transition(line, from, "M", "Data");
        if !self.try_install(
            line,
            MesiLine {
                state: Stable::M,
                data,
            },
            actions,
        ) {
            // Could not make room: put the work back and retry shortly.
            let txn = self.mshr.get_mut(&line).expect("own transaction");
            txn.pending_stores = pending;
            txn.blocking = blocking;
            txn.data = Some(data);
            actions.push(Action::Local {
                delay: 8,
                msg: Msg::Mesi(MesiMsg::Data {
                    line,
                    data,
                    acks: 0,
                    exclusive: false,
                    class: TrafficClass::Store,
                }),
            });
            // Undo the duplicate-data bookkeeping the retry will redo.
            let txn = self.mshr.get_mut(&line).expect("own transaction");
            txn.have_data = false;
            return;
        }
        self.mshr.remove(&line);
        if !pending.is_empty() {
            actions.push(Action::StoresDone {
                count: pending.len(),
            });
        }
        if let Some(value) = core_done {
            actions.push(Action::CoreDone { value });
        }
        actions.push(Action::Send {
            to: home,
            msg: Msg::Mesi(MesiMsg::Unblock {
                line,
                from: self.id,
                class: TrafficClass::Store,
            }),
        });
    }

    /// Installs a line, evicting a victim if needed. Returns false if no
    /// victim was evictable (caller retries).
    fn try_install(
        &mut self,
        line: LineAddr,
        payload: MesiLine,
        actions: &mut Vec<Action>,
    ) -> bool {
        let watch_line = self.watch.map(WordAddr::line);
        let mshr = &self.mshr;
        let outcome = self.cache.insert_filtered(line, payload, |addr, _| {
            !mshr.contains(&addr) && Some(addr) != watch_line
        });
        match outcome {
            InsertOutcome::Inserted => true,
            InsertOutcome::Evicted(victim, old) => {
                if victim == line {
                    // Same-address replace: upgrade in place, nothing to evict.
                    return true;
                }
                let victim_home = Endpoint::Bank(home_bank(victim, self.banks));
                let (msg, keep_data) = match old.state {
                    Stable::S => (
                        MesiMsg::PutS {
                            line: victim,
                            req: self.id,
                        },
                        None,
                    ),
                    Stable::E => (
                        MesiMsg::PutE {
                            line: victim,
                            req: self.id,
                        },
                        Some(old.data),
                    ),
                    Stable::M => (
                        MesiMsg::PutM {
                            line: victim,
                            req: self.id,
                            data: old.data,
                        },
                        Some(old.data),
                    ),
                };
                self.emit_transition(victim, old.state.label(), "I", "evict");
                let mut txn = Txn::new(Goal::Evict);
                txn.evict_data = keep_data;
                self.mshr
                    .try_insert(victim, txn)
                    .expect("victim had no mshr");
                actions.push(Action::Send {
                    to: victim_home,
                    msg: Msg::Mesi(msg),
                });
                true
            }
            InsertOutcome::NoVictim(_) => false,
        }
    }

    fn note_hit(&mut self, kind: AccessKind) {
        count_access(&mut self.stats, kind, true);
    }

    fn note_miss(&mut self, kind: AccessKind) {
        count_access(&mut self.stats, kind, false);
    }
}

/// Canonical hash for model checking: every field that influences future
/// protocol behaviour. `stats` (counters) is excluded; `mutation` is fixed
/// per run and hashing it is harmless.
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
mod tests {
    use super::*;
    use dvs_mem::Addr;

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
        let mut acts = Vec::new();
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
        assert_eq!(l1.stats().data_read_hits, 1);
        assert_eq!(l1.stats().data_read_misses, 1);
    }

    #[test]
    fn exclusive_grant_makes_store_hit_silently() {
        let mut l1 = l1();
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
        l1.core_request(&store(0x100, 5), &mut acts);
        let line = Addr::new(0x100).line();
        acts.clear();
        l1.on_msg(data_msg(line, [0; 8], 0, false), &mut acts);
        l1.set_watch(Addr::new(0x100).word());
        acts.clear();
        l1.on_msg(MesiMsg::FwdGetM { line, req: 3 }, &mut acts);
        assert!(acts.contains(&Action::SpinWake));
        assert!(!l1.word_readable(Addr::new(0x100).word()));
    }

    #[test]
    fn eviction_sends_putm_and_serves_forwards_from_mshr() {
        // 2-way cache: lines 0x100, 0x300, 0x500 map to the same set
        // (sets = 8 for 1KB 2-way; stride 8 lines = 0x200 bytes).
        let mut l1 = l1();
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
}
