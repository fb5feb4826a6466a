//! The DeNovo registry: the L2 bank's word-granularity ownership tracker,
//! one transition table per protocol family, run by one interpreter.
//!
//! Each word is either `Valid(data)` — the L2 holds the up-to-date value —
//! or `Registered(core)` — a pointer to the L1 holding it. There are no
//! sharer lists and, crucially, the registry is **non-blocking**: a
//! registration request for a word registered elsewhere immediately
//! re-points the registry at the new requestor and forwards the request to
//! the previous registrant; it never buffers waiting for the transfer to
//! finish. Racing registrations therefore serialize through the L1s' MSHRs
//! (the paper's distributed queue, §4.1 "Handling races").
//!
//! DeNovoSync0 and DeNovoSync share the base table. GCS's adds a
//! **sync-path directory**: when two cores contend for a word with
//! synchronization accesses (a sync-class registration hits a word
//! registered elsewhere — the one base cell GCS overrides — or a
//! `SyncOp`/`SyncWatch` arrives), the bank *classifies* the word as a sync
//! variable, permanently. Classified words always live at the bank
//! (`Valid`) and refuse registrations; sync operations execute here
//! atomically ([`DnvMsg::SyncOp`]), spinners park in a per-word waiter set
//! ([`DnvMsg::SyncWatch`]), and every value change pushes targeted
//! [`DnvMsg::SyncNotify`] wakeups — no writer-initiated invalidations, no
//! broadcast. Unclassified words take the base rows.
//!
//! Classifying a currently-registered word runs a recall handshake: the
//! bank sends [`DnvMsg::Recall`], parks everything that arrives for the
//! word, and settles when the value comes back (via [`DnvMsg::RecallAck`]
//! or a crossing writeback, whichever wins the race). The seeded registry
//! mutations are tables too, each replacing the cells it breaks.

use crate::config::{Protocol, ProtocolMutation};
use crate::coreset::CoreSet;
use crate::msg::{BankId, CoreId, DnvMsg, Endpoint, GcsOpKind, Msg, XferClass};
use crate::proto::{Action, Actions};
use dvs_mem::{LineAddr, MemoryLayout, SpanMap, WordAddr, LINE_BYTES, WORDS_PER_LINE};
use dvs_telemetry::EventKind;
use std::collections::{BTreeMap, VecDeque};

/// One word's registry state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegWord {
    /// The L2 holds the current value.
    Valid(u64),
    /// The named core's L1 holds the current value.
    Registered(CoreId),
}

#[derive(Debug, Clone, Hash)]
struct RegLine {
    words: [RegWord; WORDS_PER_LINE],
    has_data: bool,
    fetching: bool,
    queue: VecDeque<Msg>,
}

impl RegLine {
    fn new() -> Self {
        RegLine {
            words: [RegWord::Valid(0); WORDS_PER_LINE],
            has_data: false,
            fetching: false,
            queue: VecDeque::new(),
        }
    }
}

/// Sync-path directory state for one classified word. Presence in the
/// bank's sync map *is* the classification — entries are never removed.
#[derive(Debug, Clone, Default, Hash)]
struct SyncEntry {
    /// Cores to wake on the next value change.
    waiters: CoreSet,
    /// A recall handshake is reclaiming the word from its registrant.
    recalling: bool,
    /// Messages parked while recalling; drained FIFO once settled.
    pending: VecDeque<Msg>,
}

/// A word's state. `Cold`: its line has no data yet (a request fetches
/// memory first); `Fetching`. Unclassified: `Valid` or `Registered`. GCS's
/// classified words: `Recalling` their registrant's value, then
/// `Classified` (settled at the bank); `ClassifiedAway`, a classified word
/// registered to an L1, has no rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Cold,
    Fetching,
    Valid,
    Registered,
    Recalling,
    Classified,
    ClassifiedAway,
}

/// What fires a row. `Read`; `Reg` and `SyncReg` (a data-write and a
/// sync-class registration); `Wb` (a writeback from the word's registrant)
/// and `StaleWb` (from a core ownership already left); `MemData`. GCS only:
/// `SyncOp` (a load or store) and `SyncRmw`; `SyncWatch` and `StaleWatch`
/// (a watch on a value the settled word no longer holds); `RecallAck` (the
/// registrant's value) and `StaleRecallAck` (an empty answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Read,
    Reg,
    SyncReg,
    Wb,
    StaleWb,
    MemData,
    SyncOp,
    SyncRmw,
    SyncWatch,
    StaleWatch,
    RecallAck,
    StaleRecallAck,
}

/// One step of a row; see `Port::act`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Fetch,
    Queue,
    Fill,
    ServeRead,
    ForwardRead,
    Point,
    Grant,
    SendXfer,
    Registration,
    AcceptWb,
    Nack,
    Classify,
    Redispatch,
    Recall,
    Park,
    Reject,
    TakeRecall,
    Settle,
    Apply,
    Respond,
    Wake,
    Forget,
    Wait,
    Notify,
}

transition_table!(State::ClassifiedAway, Event::StaleRecallAck);

/// The base table: DeNovoSync0 and DeNovoSync.
#[rustfmt::skip]
const ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const REQUESTS: &[Event] = &[Read, Reg, SyncReg];
    const REGS: &[Event] = &[Reg, SyncReg];
    &[
        Row { id: 1, from: &[Cold], on: REQUESTS, acts: &[Fetch], to: Some(Fetching) },
        Row { id: 2, from: &[Fetching], on: REQUESTS, acts: &[Queue], to: None },
        Row { id: 3, from: &[Fetching], on: &[MemData], acts: &[Fill], to: Some(Valid) },
        Row { id: 4, from: &[Valid], on: &[Read], acts: &[ServeRead], to: None },
        Row { id: 5, from: &[Registered], on: &[Read], acts: &[ForwardRead], to: None },
        Row { id: 6, from: &[Valid], on: REGS, acts: &[Point, Grant, Registration], to: Some(Registered) },
        Row { id: 7, from: &[Registered], on: REGS, acts: &[Point, SendXfer, Registration], to: Some(Registered) },
        Row { id: 8, from: &[Registered], on: &[Wb], acts: &[AcceptWb], to: Some(Valid) },
        Row { id: 9, from: &[Registered], on: &[StaleWb], acts: &[Nack], to: None },
    ]
};

/// GCS's sync-path directory, in cells the base leaves empty.
#[rustfmt::skip]
const GCS_ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const SYNC: &[Event] = &[SyncOp, SyncRmw, SyncWatch];
    &[
        Row { id: 10, from: &[Cold], on: SYNC, acts: &[Fetch], to: Some(Fetching) },
        Row { id: 11, from: &[Fetching], on: SYNC, acts: &[Queue], to: None },
        Row { id: 12, from: &[Valid], on: SYNC, acts: &[Classify, Redispatch], to: Some(Classified) },
        Row { id: 13, from: &[Registered], on: SYNC, acts: &[Recall, Park], to: Some(Recalling) },
        Row { id: 14, from: &[Recalling], on: &[Read, SyncOp, SyncRmw, SyncWatch], acts: &[Park], to: None },
        Row { id: 15, from: &[Recalling, Classified], on: &[Reg, SyncReg], acts: &[Reject], to: None },
        Row { id: 16, from: &[Recalling], on: &[Wb], acts: &[AcceptWb, Settle], to: Some(Classified) },
        Row { id: 17, from: &[Recalling], on: &[StaleWb], acts: &[Nack], to: None },
        Row { id: 18, from: &[Recalling], on: &[RecallAck], acts: &[TakeRecall, Settle], to: Some(Classified) },
        Row { id: 19, from: &[Classified], on: &[Read], acts: &[ServeRead], to: None },
        Row { id: 20, from: &[Classified], on: &[SyncOp, SyncRmw], acts: &[Apply, Respond, Wake], to: None },
        Row { id: 21, from: &[Classified], on: &[SyncWatch], acts: &[Wait], to: None },
        Row { id: 22, from: &[Classified], on: &[StaleWatch], acts: &[Notify], to: None },
        Row { id: 23, from: &[Classified], on: &[StaleRecallAck], acts: &[], to: None },
    ]
};

/// GCS's one base-cell change — sync-on-sync contention for a registered
/// word is what marks it a synchronization variable — and the seeded
/// mutations, each replacing the cells it breaks.
#[rustfmt::skip]
const OVERRIDES: [&[Row]; 5] = {
    use Act::*;
    use Event::*;
    use State::*;
    [
        &[Row { id: 24, from: &[Registered], on: &[SyncReg], acts: &[Recall, Reject], to: Some(Recalling) }],
        // `dnv-skip-repoint`: the transfer goes out, the pointer stays.
        &[Row { id: 25, from: &[Registered], on: &[Reg, SyncReg], acts: &[SendXfer, Registration], to: Some(Registered) }],
        // `dnv-drop-xfer`: the pointer moves, the transfer is lost.
        &[Row { id: 26, from: &[Registered], on: &[Reg, SyncReg], acts: &[Point, Registration], to: Some(Registered) }],
        // `gcs-skip-update`: an RMW answers its old value and stores nothing.
        &[Row { id: 27, from: &[Classified], on: &[SyncRmw], acts: &[Respond], to: None }],
        // `gcs-drop-notify`: waiters are forgotten, never woken.
        &[
            Row { id: 28, from: &[Classified], on: &[SyncOp, SyncRmw], acts: &[Apply, Respond, Forget], to: None },
            Row { id: 29, from: &[Classified], on: &[StaleWatch], acts: &[], to: None },
        ],
    ]
};

/// Every row by id, for the compiled dispatch.
const BY_ID: [Option<&Row>; crate::table::MAX_ROW_ID + 1] = rows_by_id(&[
    ROWS,
    GCS_ROWS,
    OVERRIDES[0],
    OVERRIDES[1],
    OVERRIDES[2],
    OVERRIDES[3],
    OVERRIDES[4],
]);

/// One family table for DeNovoSync0 and DeNovoSync and one for GCS, each
/// stock and armed with the mutations that reach it. On GCS a mutation
/// goes under GCS's override, so `dnv-*` leave the classifying cell alone.
static SPECS: [Spec; 8] = {
    use ProtocolMutation::{DnvDropXfer, DnvSkipRepoint, GcsDropNotify, GcsSkipUpdate};
    const DNV: &[Protocol] = &[Protocol::DeNovoSync0, Protocol::DeNovoSync];
    const GCS: &[Protocol] = &[Protocol::Gcs];
    const BASE: List = ("DeNovo", ROWS, false);
    const SYNC: List = ("GCS", GCS_ROWS, false);
    const OVER: List = ("GCS override", OVERRIDES[0], true);
    const fn armed(m: ProtocolMutation, i: usize) -> List {
        (m.token(), OVERRIDES[i], true)
    }
    [
        Spec::new(DNV, None, &[BASE]),
        Spec::new(DNV, Some(DnvSkipRepoint), &[BASE, armed(DnvSkipRepoint, 1)]),
        Spec::new(DNV, Some(DnvDropXfer), &[BASE, armed(DnvDropXfer, 2)]),
        Spec::new(GCS, None, &[BASE, SYNC, OVER]),
        Spec::new(
            GCS,
            Some(DnvSkipRepoint),
            &[BASE, SYNC, armed(DnvSkipRepoint, 1), OVER],
        ),
        Spec::new(
            GCS,
            Some(DnvDropXfer),
            &[BASE, SYNC, armed(DnvDropXfer, 2), OVER],
        ),
        Spec::new(
            GCS,
            Some(GcsSkipUpdate),
            &[BASE, SYNC, OVER, armed(GcsSkipUpdate, 3)],
        ),
        Spec::new(
            GCS,
            Some(GcsDropNotify),
            &[BASE, SYNC, OVER, armed(GcsDropNotify, 4)],
        ),
    ]
};

/// Appends the registry's tables `protocol` runs to `out` (`dvs tables`).
pub(crate) fn markdown(protocol: Protocol, out: &mut String) {
    Spec::markdown(&SPECS, "DeNovo registry", protocol, out);
}

/// One L2 bank's slice of the registry: its word lines, its protocol's
/// table, and the rest of the bank its rows act through.
#[derive(Debug, Clone)]
pub struct DnvRegistry {
    lines: SpanMap<RegLine>,
    table: &'static Table,
    port: Port,
}

/// What a row's steps act through besides the word's line.
#[derive(Debug, Clone)]
struct Port {
    bank: BankId,
    mem: Endpoint,
    /// The GCS sync-path directory: sync-classified words homed here
    /// (sticky; sorted for the canonical hash). Only GCS's rows fill it.
    sync: BTreeMap<WordAddr, SyncEntry>,
    /// Targeted wakeup notifications sent (metric).
    notifies: u64,
    /// Recall handshakes started (metric).
    recalls: u64,
    /// What the running row hands on: an applied sync op's new value, and
    /// the messages to dispatch once the row is done.
    changed: Option<u64>,
    then: Vec<Msg>,
}

impl DnvRegistry {
    /// Creates an empty bank running `protocol`'s table armed with
    /// `mutation` (one that breaks another controller leaves it stock).
    /// `mem` is the memory-controller endpoint this bank fetches lines
    /// through.
    ///
    /// # Panics
    ///
    /// If `protocol` is MESI, which has no DeNovo registry.
    pub fn new(
        bank: BankId,
        mem: Endpoint,
        protocol: Protocol,
        mutation: Option<ProtocolMutation>,
    ) -> Self {
        let spec = Spec::find(&SPECS, protocol, mutation).expect("a DeNovo protocol");
        let (sync, then) = (BTreeMap::new(), Vec::new());
        DnvRegistry {
            lines: SpanMap::sparse_only(),
            table: &spec.table,
            port: Port {
                bank,
                mem,
                sync,
                notifies: 0,
                recalls: 0,
                changed: None,
                then,
            },
        }
    }

    /// Whether the bank's table has the sync-path directory (GCS).
    pub fn has_sync_path(&self) -> bool {
        self.table[State::Classified as usize][Event::SyncOp as usize].is_some()
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

    /// Targeted wakeup notifications sent so far.
    pub fn notifies(&self) -> u64 {
        self.port.notifies
    }

    /// Recall handshakes started so far.
    pub fn recalls(&self) -> u64 {
        self.port.recalls
    }

    /// The registry state of a word, if its line has been touched.
    pub fn word(&self, word: WordAddr) -> Option<RegWord> {
        let line = self.lines.get(word.line().raw())?;
        line.has_data.then_some(line.words[word.index_in_line()])
    }

    /// Whether `word` is sync-classified at this bank.
    pub fn classified(&self, word: WordAddr) -> bool {
        self.port.sync.contains_key(&word)
    }

    /// Iterates every sync-classified word homed here.
    pub fn classified_words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        self.port.sync.keys().copied()
    }

    /// Whether a recall handshake is in flight for `word`.
    pub fn recalling(&self, word: WordAddr) -> bool {
        self.port.sync.get(&word).is_some_and(|e| e.recalling)
    }

    /// The cores currently parked in `word`'s waiter set.
    pub fn waiters_of(&self, word: WordAddr) -> Vec<CoreId> {
        self.port
            .sync
            .get(&word)
            .map_or_else(Vec::new, |e| e.waiters.iter().collect())
    }

    /// Total parked waiters across all classified words.
    pub fn waiter_count(&self) -> usize {
        self.port.sync.values().map(|e| e.waiters.len()).sum()
    }

    /// Iterates every word currently registered to some core (for invariant
    /// checking).
    pub fn registrations(&self) -> impl Iterator<Item = (WordAddr, CoreId)> + '_ {
        self.lines.iter().flat_map(|(raw, e)| {
            let line = LineAddr::new(raw);
            e.words
                .iter()
                .enumerate()
                .filter_map(move |(i, w)| match w {
                    RegWord::Registered(c) => Some((line.word(i), *c)),
                    RegWord::Valid(_) => None,
                })
        })
    }

    /// Whether any line is still waiting on a memory fetch (for quiescence
    /// checks).
    pub fn any_fetching(&self) -> bool {
        self.lines
            .iter()
            .any(|(_, l)| l.fetching || !l.queue.is_empty())
    }

    /// Whether any sync entry is mid-recall or holds parked messages (for
    /// quiescence checks).
    pub fn sync_busy(&self) -> bool {
        self.port
            .sync
            .values()
            .any(|e| e.recalling || !e.pending.is_empty())
    }

    /// Whether the line is still being resolved — fetching from memory,
    /// holding queued requests, not yet filled, or mid-recall on one of its
    /// words. The transient exemption for the runtime conservation checker.
    pub fn line_busy(&self, line: LineAddr) -> bool {
        self.lines
            .get(line.raw())
            .is_some_and(|l| l.fetching || !l.queue.is_empty() || !l.has_data)
            || line.words().any(|w| {
                self.port
                    .sync
                    .get(&w)
                    .is_some_and(|e| e.recalling || !e.pending.is_empty())
            })
    }

    /// A one-line human-readable description of a word's registry state, if
    /// its line has been touched (stall diagnostics).
    pub fn describe_word(&self, word: WordAddr) -> Option<String> {
        let e = self.lines.get(word.line().raw())?;
        let mut s = format!(
            "bank {}: {word} {:?} has_data={} fetching={} queued={}",
            self.port.bank,
            e.words[word.index_in_line()],
            e.has_data,
            e.fetching,
            e.queue.len()
        );
        if let Some(sync) = self.port.sync.get(&word) {
            s.push_str(&format!(
                " sync[recalling={} waiters={} parked={}]",
                sync.recalling,
                sync.waiters.len(),
                sync.pending.len()
            ));
        }
        Some(s)
    }

    /// Handles one incoming message: a request or answer from an L1, data
    /// path or sync path alike, or memory returning a line this bank was
    /// fetching.
    pub fn on_msg(&mut self, msg: Msg, actions: &mut Actions) {
        self.fire(msg, actions);
    }

    /// Overwrites a word's registry state behind the protocol's back, so
    /// checker tests can corrupt a bank deliberately.
    #[cfg(test)]
    pub(crate) fn force_word(&mut self, word: WordAddr, state: RegWord) {
        let line = self.lines.get_mut(word.line().raw()).expect("line fetched");
        line.words[word.index_in_line()] = state;
    }

    /// Classifies `msg` and runs its row, then dispatches what the row
    /// released — a fetched line's queue, a settled recall's parked
    /// messages, or the message itself once it classified its word. A cell
    /// with no row is the one unexpected-event path: a violation naming the
    /// word, state and event. The word's line is looked up once (every
    /// message tracks its line; memory data is about its first word) and
    /// handed to each step.
    fn fire(&mut self, msg: Msg, actions: &mut Actions) {
        let word = match msg {
            Msg::Dnv(m) => m.word(),
            m => m.line().word(0),
        };
        let port = &mut self.port;
        let entry = self.lines.or_insert_with(word.line().raw(), RegLine::new);
        let state = word_state(entry, port.sync.get(&word), word);
        let event = classify(entry, state, word, &msg);
        let slot = entry.words[word.index_in_line()];
        let Some(row) = event.and_then(|e| self.table[state as usize][e as usize]) else {
            let who = format_args!("registry bank {}", port.bank);
            return actions.push(crate::table::unexpected(who, word, state, event, msg));
        };
        dispatch_row!(row.id, port.run(entry, word, slot, &msg, actions));
        if let Some(to) = row.to {
            let now = || word_state(entry, port.sync.get(&word), word);
            debug_assert_eq!(now(), to, "registry row {}", row.id);
        }
        for msg in std::mem::take(&mut port.then) {
            self.fire(msg, actions);
        }
    }
}

/// A word's state from its line's `entry` and its sync entry.
fn word_state(entry: &RegLine, sync: Option<&SyncEntry>, word: WordAddr) -> State {
    let slot = entry.words[word.index_in_line()];
    match (
        entry.fetching,
        entry.has_data,
        sync.map(|e| e.recalling),
        slot,
    ) {
        (true, ..) => State::Fetching,
        (_, false, ..) => State::Cold,
        (_, _, None, RegWord::Valid(_)) => State::Valid,
        (_, _, None, RegWord::Registered(_)) => State::Registered,
        (_, _, Some(true), _) => State::Recalling,
        (_, _, Some(false), RegWord::Valid(_)) => State::Classified,
        (_, _, Some(false), RegWord::Registered(_)) => State::ClassifiedAway,
    }
}

/// The event `msg` is on `word`, in `state`. `None`: a message no bank
/// takes, a request from the registrant of an unclassified word
/// (mid-recall, the registrant's next request may overtake its answer), or
/// a recall answer carrying a value from any other core.
fn classify(entry: &RegLine, state: State, word: WordAddr, msg: &Msg) -> Option<Event> {
    let slot = entry.words[word.index_in_line()];
    let registrant = |c| slot == RegWord::Registered(c);
    let own = |c| state == State::Registered && registrant(c);
    let Msg::Dnv(msg) = *msg else {
        return matches!(msg, Msg::MemData { .. }).then_some(Event::MemData);
    };
    Some(match msg {
        DnvMsg::ReadReq { req, .. } | DnvMsg::RegReq { req, .. } if own(req) => return None,
        DnvMsg::ReadReq { .. } => Event::Read,
        DnvMsg::RegReq {
            class: XferClass::Write,
            ..
        } => Event::Reg,
        DnvMsg::RegReq { .. } => Event::SyncReg,
        DnvMsg::WbReq { from, .. } if registrant(from) => Event::Wb,
        DnvMsg::WbReq { .. } => Event::StaleWb,
        DnvMsg::SyncOp { req, .. } | DnvMsg::SyncWatch { req, .. } if own(req) => return None,
        DnvMsg::SyncOp {
            op: GcsOpKind::Rmw(_),
            ..
        } => Event::SyncRmw,
        DnvMsg::SyncOp { .. } => Event::SyncOp,
        DnvMsg::SyncWatch { seen, .. }
            if state == State::Classified && slot != RegWord::Valid(seen) =>
        {
            Event::StaleWatch
        }
        DnvMsg::SyncWatch { .. } => Event::SyncWatch,
        DnvMsg::RecallAck { value: None, .. } => Event::StaleRecallAck,
        DnvMsg::RecallAck { from, .. } if registrant(from) => Event::RecallAck,
        _ => return None,
    })
}

impl Port {
    /// Runs row `ID`'s steps in order (see [`dispatch_row!`]).
    fn run<const ID: usize>(
        &mut self,
        entry: &mut RegLine,
        word: WordAddr,
        slot: RegWord,
        msg: &Msg,
        actions: &mut Actions,
    ) {
        for &act in Compiled::<ID>::ACTS {
            self.act(act, entry, word, slot, msg, actions);
        }
    }

    /// Runs one step of a fired row on the word's line `entry`; `slot` is
    /// the word as classification found it: bank-held, or registered.
    #[inline(always)]
    fn act(
        &mut self,
        act: Act,
        entry: &mut RegLine,
        word: WordAddr,
        slot: RegWord,
        msg: &Msg,
        actions: &mut Actions,
    ) {
        let (idx, addr) = (word.index_in_line(), word.base().raw());
        let (held, owner) = match slot {
            RegWord::Valid(v) => (Some(v), None),
            RegWord::Registered(c) => (None, Some(c)),
        };
        let mut send = |to: CoreId, msg| {
            let (to, msg) = (Endpoint::L1(to), Msg::Dnv(msg));
            actions.push(Action::Send { to, msg })
        };
        match (act, msg) {
            (Act::Fetch, _) => {
                entry.queue.push_back(*msg);
                entry.fetching = true;
                let (line, bank, class) = (word.line(), self.bank, msg.class());
                let msg = Msg::MemRead { line, bank, class };
                actions.push(Action::Send { to: self.mem, msg });
            }
            (Act::Queue, _) => entry.queue.push_back(*msg),
            // Memory data fills the line. The registry is non-blocking:
            // everything queued behind the fetch dispatches.
            (Act::Fill, &Msg::MemData { data, .. }) => {
                for (w, &value) in entry.words.iter_mut().zip(&data) {
                    *w = RegWord::Valid(value);
                }
                entry.has_data = true;
                entry.fetching = false;
                self.then.extend(entry.queue.drain(..));
            }
            // Only valid parts travel — DeNovo's traffic advantage.
            (Act::ServeRead, &Msg::Dnv(DnvMsg::ReadReq { req, .. })) => {
                let value = held.expect("a bank-held word");
                let (mut mask, mut data) = (0u8, [0u64; WORDS_PER_LINE]);
                for (i, w) in entry.words.iter().enumerate() {
                    if let (true, RegWord::Valid(v)) = (i != idx, *w) {
                        mask |= 1 << i;
                        data[i] = v;
                    }
                }
                let fill = Some((mask, data));
                send(req, DnvMsg::ReadResp { word, value, fill });
            }
            (Act::ForwardRead, &Msg::Dnv(DnvMsg::ReadReq { req, .. })) => {
                send(owner.expect("a registrant"), DnvMsg::ReadReq { word, req });
            }
            (Act::Point, &Msg::Dnv(DnvMsg::RegReq { req, .. })) => {
                entry.words[idx] = RegWord::Registered(req);
            }
            (Act::Grant, &Msg::Dnv(DnvMsg::RegReq { req, class, .. })) => {
                let value = held.expect("a bank-held word");
                send(req, DnvMsg::RegAck { word, value, class });
            }
            (Act::SendXfer, &Msg::Dnv(DnvMsg::RegReq { req, class, .. })) => {
                let new_owner = req;
                let xfer = DnvMsg::Xfer {
                    word,
                    new_owner,
                    class,
                };
                send(owner.expect("a registrant"), xfer);
            }
            // The registry pointer for `word` moved to `req` (from the
            // previous registrant, or `u32::MAX` when the bank held it).
            (Act::Registration, &Msg::Dnv(DnvMsg::RegReq { req, .. })) => {
                let prev = owner.map_or(u32::MAX, |p| p as u32);
                let kind = EventKind::Registration {
                    owner: req as u32,
                    prev,
                };
                actions.observe(addr, kind);
            }
            // The writeback handshake: accepted from the registrant;
            // refused otherwise — ownership already moved, and a transfer is
            // on its way to the writer.
            (Act::AcceptWb, &Msg::Dnv(DnvMsg::WbReq { value, from, .. })) => {
                entry.words[idx] = RegWord::Valid(value);
                send(from, DnvMsg::WbAck { word });
            }
            (Act::Nack, &Msg::Dnv(DnvMsg::WbReq { from, .. })) => {
                send(from, DnvMsg::WbNack { word });
            }
            // The sync path.
            (Act::Classify, _) => self.mark_classified(word, false, actions),
            (Act::Redispatch, _) => self.then.push(*msg),
            (Act::Recall, _) => {
                self.recalls += 1;
                send(owner.expect("a registrant"), DnvMsg::Recall { word });
                self.mark_classified(word, true, actions);
            }
            (Act::Park, _) => self.entry(word).pending.push_back(*msg),
            (Act::Reject, &Msg::Dnv(DnvMsg::RegReq { req, .. })) => {
                send(req, DnvMsg::Classified { word });
            }
            (Act::TakeRecall, &Msg::Dnv(DnvMsg::RecallAck { value, .. })) => {
                entry.words[idx] = RegWord::Valid(value.expect("a recalled value"));
            }
            (Act::Settle, _) => {
                let e = self.entry(word);
                e.recalling = false;
                let parked: Vec<Msg> = e.pending.drain(..).collect();
                self.then.extend(parked);
            }
            // Executes a sync operation atomically at the bank on the
            // word's current value.
            (Act::Apply, &Msg::Dnv(DnvMsg::SyncOp { op, .. })) => {
                let old = held.expect("a settled word");
                let stored = match op {
                    GcsOpKind::Load => old,
                    GcsOpKind::Store { value } => value,
                    GcsOpKind::Rmw(rmw) => rmw.apply(old),
                };
                entry.words[idx] = RegWord::Valid(stored);
                self.changed = (stored != old).then_some(stored);
            }
            (Act::Respond, &Msg::Dnv(DnvMsg::SyncOp { req, op, .. })) => {
                let value = match op {
                    GcsOpKind::Store { value } => value,
                    GcsOpKind::Load | GcsOpKind::Rmw(_) => held.expect("a settled word"),
                };
                send(req, DnvMsg::SyncResp { word, value });
            }
            // Pushes the new value to every parked waiter. The waiter set
            // always clears — a half-cleared set would desynchronize the
            // directory even when the wakeups are forgotten.
            (Act::Wake | Act::Forget, &Msg::Dnv(DnvMsg::SyncOp { req, .. })) => {
                let Some(value) = self.changed else {
                    return;
                };
                let waiters = std::mem::take(&mut self.entry(word).waiters);
                if waiters.is_empty() {
                    return;
                }
                if act == Act::Wake {
                    for c in waiters.iter() {
                        self.notifies += 1;
                        send(c, DnvMsg::SyncNotify { word, value });
                    }
                }
                let (writer, waiters) = (req as u32, waiters.len() as u32);
                let kind = EventKind::Notify { writer, waiters };
                actions.observe(addr, kind);
            }
            // A level-triggered watch: parked on the value the spinner saw,
            // notified at once if the word has already moved past it.
            (Act::Wait, &Msg::Dnv(DnvMsg::SyncWatch { req, .. })) => {
                self.entry(word).waiters.insert(req);
            }
            (Act::Notify, &Msg::Dnv(DnvMsg::SyncWatch { req, .. })) => {
                self.notifies += 1;
                let value = held.expect("a settled word");
                send(req, DnvMsg::SyncNotify { word, value });
            }
            _ => unreachable!("registry step {act:?} fired by {msg:?}"),
        }
    }

    /// Adds `word` to the sync map and observes the data→sync transition.
    fn mark_classified(&mut self, word: WordAddr, recalling: bool, actions: &mut Actions) {
        let entry = SyncEntry {
            recalling,
            ..SyncEntry::default()
        };
        self.sync.insert(word, entry);
        let addr = word.base().raw();
        actions.transition(addr, "data", "sync", "classify");
    }

    fn entry(&mut self, word: WordAddr) -> &mut SyncEntry {
        self.sync.get_mut(&word).expect("classified word")
    }
}

/// Canonical hash for model checking: lines and sync entries sorted by
/// address; queued and parked messages hash in FIFO order — their order is
/// architecturally visible. The notify and recall counters are metrics and
/// excluded; `table` is fixed per run.
impl std::hash::Hash for DnvRegistry {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.port.bank.hash(state);
        self.port.mem.hash(state);
        // SpanMap hashes entries sorted by key, length-prefixed.
        self.lines.hash(state);
        self.port.sync.hash(state);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::msg::{LineData, XferClass};

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
        use Event::*;
        let gcs_only = [
            SyncOp,
            SyncRmw,
            SyncWatch,
            StaleWatch,
            RecallAck,
            StaleRecallAck,
        ];
        let gcs_only = gcs_only.map(|e| e as usize).to_vec();
        crate::table::tests::View::new("DeNovo registry", specs, index, gcs_only)
    }

    fn word(i: u64) -> WordAddr {
        WordAddr::new(64 + i)
    }

    /// Memory's answer to a bank's fetch of `line`.
    pub(crate) fn mem_data(line: LineAddr, data: LineData) -> Msg {
        let class = dvs_stats::TrafficClass::Load;
        Msg::MemData { line, data, class }
    }

    /// A cold bank running `protocol`'s table, armed with `mutation`.
    fn bank(protocol: Protocol, mutation: Option<ProtocolMutation>) -> DnvRegistry {
        DnvRegistry::new(0, Endpoint::Mem(0), protocol, mutation)
    }

    fn warmed() -> DnvRegistry {
        let mut r = bank(Protocol::DeNovoSync0, None);
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::ReadReq {
                word: word(0),
                req: 9,
            }),
            &mut acts,
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::MemRead { .. },
                ..
            }
        ));
        acts.clear();
        let mut data = [0u64; 8];
        data[0] = 100;
        data[1] = 101;
        r.on_msg(mem_data(word(0).line(), data), &mut acts);
        // The queued read is now served with a fill of the other words.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(9),
                msg: Msg::Dnv(DnvMsg::ReadResp {
                    value: 100,
                    fill: Some((0xFE, _)),
                    ..
                })
            }
        )));
        r
    }

    #[test]
    fn cold_line_fetches_memory_once_and_drains_queue() {
        let mut r = bank(Protocol::DeNovoSync0, None);
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::ReadReq {
                word: word(0),
                req: 1,
            }),
            &mut acts,
        );
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(1),
                req: 2,
                class: XferClass::SyncRead,
            }),
            &mut acts,
        );
        // Only one memory fetch despite two queued requests.
        let fetches = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Msg::MemRead { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(fetches, 1);
        acts.clear();
        r.on_msg(mem_data(word(0).line(), [7; 8]), &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::ReadResp { value: 7, .. })
            }
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 7, .. })
            }
        )));
        assert_eq!(r.word(word(1)), Some(RegWord::Registered(2)));
    }

    #[test]
    fn registration_of_valid_word_acks_with_value() {
        let mut r = warmed();
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(1),
                req: 3,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Dnv(DnvMsg::RegAck {
                    value: 101,
                    class: XferClass::Write,
                    ..
                })
            }
        )));
        assert_eq!(r.word(word(1)), Some(RegWord::Registered(3)));
    }

    #[test]
    fn registration_race_repoints_immediately_and_forwards() {
        // The non-blocking registry: A registers, then B and C race; the
        // registry re-points on each request without waiting.
        let mut r = warmed();
        let mut acts = Actions::new(true);
        for core in [4usize, 5, 6] {
            r.on_msg(
                Msg::Dnv(DnvMsg::RegReq {
                    word: word(2),
                    req: core,
                    class: XferClass::SyncRead,
                }),
                &mut acts,
            );
        }
        assert_eq!(r.word(word(2)), Some(RegWord::Registered(6)));
        // B's request forwarded to A, C's to B: a chain.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 5, .. })
            }
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 6, .. })
            }
        )));
    }

    #[test]
    fn forwarded_data_read_goes_to_registrant() {
        let mut r = warmed();
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(3),
                req: 2,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        acts.clear();
        r.on_msg(
            Msg::Dnv(DnvMsg::ReadReq {
                word: word(3),
                req: 7,
            }),
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::ReadReq { req: 7, .. })
            }
        )));
        // Registry still points at 2: data reads take no ownership.
        assert_eq!(r.word(word(3)), Some(RegWord::Registered(2)));
    }

    #[test]
    fn writeback_ack_and_nack() {
        let mut r = warmed();
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(4),
                req: 2,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        acts.clear();
        // Owner writes back: accepted, value stored.
        r.on_msg(
            Msg::Dnv(DnvMsg::WbReq {
                word: word(4),
                value: 77,
                from: 2,
            }),
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::WbAck { .. })
            }
        )));
        assert_eq!(r.word(word(4)), Some(RegWord::Valid(77)));
        // Now 3 registers; a stale writeback from 2 is nacked.
        acts.clear();
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(4),
                req: 3,
                class: XferClass::SyncWrite,
            }),
            &mut acts,
        );
        r.on_msg(
            Msg::Dnv(DnvMsg::WbReq {
                word: word(4),
                value: 1,
                from: 2,
            }),
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::WbNack { .. })
            }
        )));
        assert_eq!(r.word(word(4)), Some(RegWord::Registered(3)));
    }

    #[test]
    fn registered_word_count_tracks_pointers() {
        let mut r = warmed();
        assert_eq!(r.registrations().count(), 0);
        let mut acts = Actions::new(true);
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(1),
                req: 1,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        r.on_msg(
            Msg::Dnv(DnvMsg::RegReq {
                word: word(2),
                req: 1,
                class: XferClass::Write,
            }),
            &mut acts,
        );
        assert_eq!(r.registrations().count(), 2);
    }

    /// The sync-path directory (GCS).
    mod sync_path {
        use super::super::*;
        use super::mem_data;
        use dvs_mem::RmwOp;

        fn word(i: u64) -> WordAddr {
            WordAddr::new(64 + i)
        }

        fn warmed() -> DnvRegistry {
            armed(None)
        }

        /// A GCS bank armed with `mutation`, its line of words 0..8 fetched.
        fn armed(mutation: Option<ProtocolMutation>) -> DnvRegistry {
            let mut b = super::bank(Protocol::Gcs, mutation);
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::ReadReq {
                    word: word(0),
                    req: 9,
                }),
                &mut acts,
            );
            let mut data = [0u64; 8];
            data[0] = 100;
            data[1] = 101;
            b.on_msg(mem_data(word(0).line(), data), &mut acts);
            b
        }

        fn reg(b: &mut DnvRegistry, w: WordAddr, core: CoreId, class: XferClass) {
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::RegReq {
                    word: w,
                    req: core,
                    class,
                }),
                &mut acts,
            );
            assert_eq!(b.word(w), Some(RegWord::Registered(core)));
        }

        #[test]
        fn sync_contention_classifies_and_recalls() {
            let mut b = warmed();
            reg(&mut b, word(2), 1, XferClass::SyncWrite);
            let mut acts = Actions::new(true);
            // Core 4's sync read contends: the word becomes a sync variable.
            b.on_msg(
                Msg::Dnv(DnvMsg::RegReq {
                    word: word(2),
                    req: 4,
                    class: XferClass::SyncRead,
                }),
                &mut acts,
            );
            assert!(b.classified(word(2)) && b.recalling(word(2)));
            assert_eq!(b.recalls(), 1);
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::Recall { word: word(2) }),
            }));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::Classified { word: word(2) }),
            }));
            acts.clear();
            // A read parks behind the recall.
            b.on_msg(
                Msg::Dnv(DnvMsg::ReadReq {
                    word: word(2),
                    req: 6,
                }),
                &mut acts,
            );
            assert!(acts.is_empty());
            // The registrant returns the value; parked traffic drains.
            b.on_msg(
                Msg::Dnv(DnvMsg::RecallAck {
                    word: word(2),
                    from: 1,
                    value: Some(55),
                }),
                &mut acts,
            );
            assert!(!b.recalling(word(2)));
            assert_eq!(b.word(word(2)), Some(RegWord::Valid(55)));
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::L1(6),
                    msg: Msg::Dnv(DnvMsg::ReadResp { value: 55, .. }),
                }
            )));
        }

        #[test]
        fn data_write_contention_repoints_without_classifying() {
            let mut b = warmed();
            reg(&mut b, word(3), 1, XferClass::Write);
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::RegReq {
                    word: word(3),
                    req: 2,
                    class: XferClass::Write,
                }),
                &mut acts,
            );
            assert!(!b.classified(word(3)));
            assert_eq!(b.word(word(3)), Some(RegWord::Registered(2)));
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::L1(1),
                    msg: Msg::Dnv(DnvMsg::Xfer { new_owner: 2, .. }),
                }
            )));
        }

        #[test]
        fn sync_op_executes_at_bank_and_notifies_waiters() {
            let mut b = warmed();
            let mut acts = Actions::new(true);
            // RMW on a bank-held word classifies on demand and executes.
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                }),
                &mut acts,
            );
            assert!(b.classified(word(1)));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Dnv(DnvMsg::SyncResp {
                    word: word(1),
                    value: 101,
                }),
            }));
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(102)));
            acts.clear();
            // Core 5 watches the value it just saw: parked, no notify yet.
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 102,
                }),
                &mut acts,
            );
            assert!(acts.is_empty());
            assert_eq!(b.waiters_of(word(1)), vec![5]);
            // A store changes the value: targeted notify, set cleared.
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 3,
                    op: GcsOpKind::Store { value: 7 },
                }),
                &mut acts,
            );
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::SyncNotify {
                    word: word(1),
                    value: 7,
                }),
            }));
            assert!(b.waiters_of(word(1)).is_empty());
            assert_eq!(b.notifies(), 1);
        }

        #[test]
        fn stale_watch_notifies_immediately() {
            let mut b = warmed();
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                }),
                &mut acts,
            );
            acts.clear();
            // The spinner saw 0 but the word is 101: immediate wakeup, no bit.
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 0,
                }),
                &mut acts,
            );
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::SyncNotify {
                    word: word(1),
                    value: 101,
                }),
            }));
            assert!(b.waiters_of(word(1)).is_empty());
        }

        #[test]
        fn crossing_writeback_settles_the_recall() {
            let mut b = warmed();
            reg(&mut b, word(2), 1, XferClass::Write);
            let mut acts = Actions::new(true);
            // A sync op from core 3 starts the recall of core 1's registration.
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(2),
                    req: 3,
                    op: GcsOpKind::Load,
                }),
                &mut acts,
            );
            assert!(b.recalling(word(2)));
            acts.clear();
            // Core 1's eviction writeback crossed the recall in flight: the
            // bank accepts it as the recall return and serves the parked op.
            b.on_msg(
                Msg::Dnv(DnvMsg::WbReq {
                    word: word(2),
                    value: 88,
                    from: 1,
                }),
                &mut acts,
            );
            assert!(!b.recalling(word(2)));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::WbAck { word: word(2) }),
            }));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Dnv(DnvMsg::SyncResp {
                    word: word(2),
                    value: 88,
                }),
            }));
        }

        #[test]
        fn registration_of_classified_word_is_rejected() {
            let mut b = warmed();
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                }),
                &mut acts,
            );
            acts.clear();
            b.on_msg(
                Msg::Dnv(DnvMsg::RegReq {
                    word: word(1),
                    req: 7,
                    class: XferClass::Write,
                }),
                &mut acts,
            );
            assert_eq!(
                *acts,
                vec![Action::Send {
                    to: Endpoint::L1(7),
                    msg: Msg::Dnv(DnvMsg::Classified { word: word(1) }),
                }]
            );
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
        }

        #[test]
        fn skip_update_mutation_loses_the_rmw() {
            let mut b = armed(Some(ProtocolMutation::GcsSkipUpdate));
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                }),
                &mut acts,
            );
            // The old value comes back but the increment is lost.
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
        }

        #[test]
        fn drop_notify_mutation_strands_waiters() {
            let mut b = armed(Some(ProtocolMutation::GcsDropNotify));
            let mut acts = Actions::new(true);
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                }),
                &mut acts,
            );
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 101,
                }),
                &mut acts,
            );
            acts.clear();
            b.on_msg(
                Msg::Dnv(DnvMsg::SyncOp {
                    word: word(1),
                    req: 3,
                    op: GcsOpKind::Store { value: 9 },
                }),
                &mut acts,
            );
            // The store completes but the wakeup never leaves the bank.
            assert!(!acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::Dnv(DnvMsg::SyncNotify { .. }),
                    ..
                }
            )));
            assert_eq!(b.notifies(), 0);
            assert!(b.waiters_of(word(1)).is_empty());
        }

        /// An L1-bound message is the bank's one unexpected event: a single
        /// violation naming the bank, the word, its state and the message.
        #[test]
        fn an_l1_bound_message_is_a_violation() {
            let mut b = warmed();
            let mut acts = Actions::new(true);
            let (word, value) = (word(0), 5);
            b.on_msg(Msg::Dnv(DnvMsg::SyncResp { word, value }), &mut acts);
            let detail = "registry bank 0: unexpected Dnv(SyncResp { word: WordAddr(64), value: 5 }) for w0x200 in Valid";
            assert_eq!(*acts, [Action::violation(detail)]);
        }
    }
}
