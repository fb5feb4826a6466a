//! The DeNovo private-cache (L1) controller: one transition table per
//! protocol, run by one interpreter.
//!
//! Per-word states Invalid / Valid / Registered live in the cache array;
//! in-flight work lives in word-granularity MSHRs. A word's table state is
//! derived from the two, never stored: I, V or R when nothing is pending,
//! else what its MSHR entry waits for ([`State`]). Key behaviours from the
//! paper, each a row:
//!
//! * data writes transition to Registered **immediately** (no stall) and
//!   send a registration request;
//! * synchronization reads to anything but Registered state always miss and
//!   register (DeNovoSync0's single-reader rule);
//! * a transfer forwarded while the word's own registration is pending parks
//!   in the MSHR — the distributed registration queue — and fires its own
//!   row once the registration completes;
//! * evicting a Registered word uses a writeback *handshake* (`WbReq` /
//!   `WbAck` / `WbNack`): the registry may have already re-pointed the word
//!   at a new registrant, in which case the in-flight transfer must still be
//!   served from the held value.
//!
//! The three protocols are three tables. DeNovoSync0's is the base.
//! DeNovoSync's overrides two cells: a remote synchronization-read transfer
//! downgrades Registered → Valid and bumps the [`BackoffUnit`], and a local
//! synchronization read to Valid state stalls for the counter value before
//! issuing its miss. GCS's adds the sync-path rows to the base, in cells the
//! base leaves empty:
//!
//! * when the home bank classifies a word as a synchronization variable it
//!   answers registrations with `Classified`; the L1 converts the pending
//!   access into a [`DnvMsg::SyncOp`] executed *at the bank* and records
//!   the word in its bounded [`SyncPredictor`];
//! * predicted-sync accesses skip the optimistic registration and go
//!   straight down the sync path;
//! * a failed spin on a classified word arms a level-triggered remote
//!   watch ([`DnvMsg::SyncWatch`]); the bank's targeted [`DnvMsg::SyncNotify`]
//!   lands in a one-entry notify buffer that the re-issued spin load hits;
//! * `Recall` surrenders a just-classified word's registered copy back to
//!   the bank (the value rides on [`DnvMsg::RecallAck`]).
//!
//! Without those rows the sync-path events reach the one unexpected-event
//! path, and the predictor, watch and buffer stay empty.

use crate::config::{BackoffConfig, Protocol, ProtocolMutation};
use crate::denovo::backoff::BackoffUnit;
use crate::denovo::predictor::SyncPredictor;
use crate::msg::{CoreId, DnvMsg, Endpoint, GcsOpKind, Msg, XferClass};
use crate::proto::{home_bank, mshr_alloc, mshr_free, Action, Actions, IssueResult};
use dvs_mem::array::InsertOutcome;
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{
    AccessKind, CacheArray, CacheGeometry, LineAddr, Mshr, Region, RmwOp, WordAddr, WORDS_PER_LINE,
};
use dvs_vm::MemRequest;
use std::sync::Arc;

/// Per-word coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WState {
    /// No usable copy.
    Invalid,
    /// A (possibly stale) copy; usable by data reads, never by
    /// synchronization reads. Under DeNovoSync also the backoff trigger.
    Valid,
    /// The registered (single up-to-date) copy; readable and writable.
    Registered,
}

impl WState {
    /// Short state label for telemetry transitions.
    pub fn label(self) -> &'static str {
        match self {
            WState::Invalid => "I",
            WState::Valid => "V",
            WState::Registered => "R",
        }
    }
}

/// One cached word.
#[derive(Debug, Clone, Copy, Hash)]
pub struct DnvWord {
    /// Coherence state.
    pub state: WState,
    /// The word's value (meaningful unless Invalid).
    pub value: u64,
}

impl DnvWord {
    const INVALID: DnvWord = DnvWord {
        state: WState::Invalid,
        value: 0,
    };
}

/// A cached line: eight independently-tracked words.
#[derive(Debug, Clone, Hash)]
pub struct DnvLine {
    /// The line's words.
    pub words: [DnvWord; WORDS_PER_LINE],
}

impl DnvLine {
    pub(crate) fn empty() -> Self {
        DnvLine {
            words: [DnvWord::INVALID; WORDS_PER_LINE],
        }
    }

    pub(crate) fn has_registered(&self) -> bool {
        self.words.iter().any(|w| w.state == WState::Registered)
    }
}

/// What an MSHR entry is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PendKind {
    /// Non-ownership data read.
    Read,
    /// Synchronization-read registration.
    SyncRead,
    /// Data-write registration (the word is already Registered locally).
    Write,
    /// Synchronization-write registration; holds the value to store.
    SyncWrite { value: u64 },
    /// RMW registration; executes on arrival of the current value.
    Rmw { op: RmwOp },
    /// Writeback handshake in flight; holds the evicted value. `nacked`
    /// means the registry refused (ownership moved) and we are waiting for
    /// the in-flight transfer.
    Wb { value: u64, nacked: bool },
    /// Sync path: `op` is executing at the home bank. `data_store` marks a
    /// converted non-blocking data store, which retires via `StoresDone`
    /// instead of completing a blocked core.
    SyncWait { op: GcsOpKind, data_store: bool },
}

impl PendKind {
    /// The entry a core access that misses allocates.
    fn of(kind: AccessKind) -> PendKind {
        match kind {
            AccessKind::DataLoad => PendKind::Read,
            AccessKind::DataStore { .. } => PendKind::Write,
            AccessKind::SyncLoad => PendKind::SyncRead,
            AccessKind::SyncStore { value } => PendKind::SyncWrite { value },
            AccessKind::SyncRmw(op) => PendKind::Rmw { op },
        }
    }

    /// The registration class this pending access requests.
    fn reg_class(self) -> XferClass {
        match self {
            PendKind::SyncRead => XferClass::SyncRead,
            PendKind::Write => XferClass::Write,
            _ => XferClass::SyncWrite,
        }
    }

    /// The operation the bank executes for a pending synchronization
    /// access converted to the sync path.
    fn sync_op(self) -> Option<GcsOpKind> {
        match self {
            PendKind::SyncRead => Some(GcsOpKind::Load),
            PendKind::SyncWrite { value } => Some(GcsOpKind::Store { value }),
            PendKind::Rmw { op } => Some(GcsOpKind::Rmw(op)),
            _ => None,
        }
    }
}

/// One outstanding word-granularity transaction.
#[derive(Debug, Clone, Hash)]
struct Pend {
    kind: PendKind,
    /// Forwarded data reads that arrived while we were pending.
    parked_reads: Vec<CoreId>,
    /// The successor that arrived while we were pending, fired once we are
    /// done (at most one: the registry serializes, each registrant has
    /// exactly one successor, and the bank stops re-pointing a word the
    /// moment it classifies it).
    parked: Option<Successor>,
}

/// A successor parked behind a pending registration: the next registrant's
/// transfer, or — sync path — a bank recall.
#[derive(Debug, Clone, Copy, Hash)]
enum Successor {
    Xfer(CoreId, XferClass),
    Recall,
}

impl Successor {
    /// The message it arrived as, for its own row.
    fn input(self, word: WordAddr) -> Input {
        match self {
            Successor::Xfer(new_owner, class) => Input::Msg(DnvMsg::Xfer {
                word,
                new_owner,
                class,
            }),
            Successor::Recall => Input::Msg(DnvMsg::Recall { word }),
        }
    }
}

impl Pend {
    fn new(kind: PendKind) -> Self {
        Pend {
            kind,
            parked_reads: Vec::new(),
            parked: None,
        }
    }
}

/// The GCS sync-path state of one L1. Only GCS's rows fill it; under
/// DeNovoSync0 and DeNovoSync it stays empty.
#[derive(Debug, Clone, Hash)]
struct SyncPath {
    /// Words learned to be sync-classified at their home bank.
    predictor: SyncPredictor,
    /// Remote spin watch: `(word, seen)` sent to the bank as `SyncWatch`.
    remote_watch: Option<(WordAddr, u64)>,
    /// The last targeted notification `(word, value)`; consumed by the
    /// re-issued spin load.
    notify_buf: Option<(WordAddr, u64)>,
}

/// A word's state. I, V and R: the array's, with nothing pending. Else the
/// MSHR entry's: `Read`, a data read; `RegW`, a data store's registration
/// (the word is already R locally); `RegS`, a synchronization access's;
/// `Wb`, the writeback handshake; `WbN`, a refused writeback awaiting its
/// transfer; `SyncWait`, a sync-path operation at the bank. A `P` suffix: a
/// successor — the next registrant's transfer, or a bank recall — is parked
/// behind the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    I,
    V,
    R,
    Read,
    RegW,
    RegWP,
    RegS,
    RegSP,
    Wb,
    WbP,
    WbN,
    SyncWait,
}

/// What fires a row. Core requests: `Load`, `Store` (data), `SyncLoad` and
/// `SyncWrite` (a sync store or RMW). Registry messages: `FwdRead` (a
/// forwarded data read), `Xfer` and `SyncReadXfer` (a transfer to a data or
/// sync-write registrant, and to a sync reader), `ReadResp`, `RegAck`,
/// `WbAck`, `WbNack`. GCS only: `Notified` (a spin load the notify buffer
/// answers), `SyncOp` (an access to a word predicted classified),
/// `Classified`, `SyncResp`, `SyncWatch` (arming a remote watch),
/// `SyncNotify` (for the armed watch) and `Recall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Load,
    Store,
    SyncLoad,
    SyncWrite,
    FwdRead,
    Xfer,
    SyncReadXfer,
    ReadResp,
    RegAck,
    WbAck,
    WbNack,
    Notified,
    SyncOp,
    Classified,
    SyncResp,
    SyncWatch,
    SyncNotify,
    Recall,
}

/// One step of a row; see `DnvL1::act`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Act {
    Hit,
    Write,
    SyncHit,
    Retry,
    Allocate,
    Claim,
    Request,
    Backoff,
    ServeRead,
    ParkRead,
    Park,
    Invalidate,
    Demote,
    PassOn,
    Fill,
    Complete,
    Retire,
    Refuse,
    FinishWb,
    NotifyHit,
    Issue,
    Learn,
    Unwrite,
    Convert,
    SyncDone,
    Touch,
    AnswerRecall,
    Arm,
    Buffer,
}

transition_table!(State::SyncWait, Event::Recall);

/// The base table: DeNovoSync0.
#[rustfmt::skip]
const ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const PENDING: &[State] = &[Read, RegW, RegWP, RegS, RegSP, Wb, WbP, WbN, SyncWait];
    const BUSY: &[State] = &[Wb, WbP, WbN, SyncWait];
    const OWNED: &[State] = &[R, RegW, RegWP];
    const SYNC: &[Event] = &[SyncLoad, SyncWrite];
    const XFERS: &[Event] = &[Xfer, SyncReadXfer];
    &[
        Row { id: 1, from: &[I], on: &[Load], acts: &[Request], to: Some(Read) },
        Row { id: 2, from: &[V, R, RegW, RegWP], on: &[Load], acts: &[Hit], to: None },
        Row { id: 3, from: BUSY, on: &[Load, Store], acts: &[Retry], to: None },
        Row { id: 4, from: OWNED, on: &[Store], acts: &[Write], to: None },
        Row { id: 5, from: &[I, V], on: &[Store], acts: &[Allocate, Claim, Request], to: Some(RegW) },
        Row { id: 6, from: &[R], on: SYNC, acts: &[SyncHit], to: None },
        Row { id: 7, from: &[I, V], on: SYNC, acts: &[Request], to: Some(RegS) },
        Row { id: 8, from: PENDING, on: SYNC, acts: &[Retry], to: None },
        Row { id: 9, from: OWNED, on: &[FwdRead], acts: &[ServeRead], to: None },
        Row { id: 10, from: &[Read, RegS, RegSP, Wb, WbP, WbN, SyncWait], on: &[FwdRead], acts: &[ParkRead], to: None },
        Row { id: 11, from: &[R], on: XFERS, acts: &[Invalidate, PassOn], to: Some(I) },
        Row { id: 12, from: &[RegW], on: XFERS, acts: &[Park], to: Some(RegWP) },
        Row { id: 13, from: &[RegS], on: XFERS, acts: &[Park], to: Some(RegSP) },
        Row { id: 14, from: &[Wb], on: XFERS, acts: &[Park], to: Some(WbP) },
        Row { id: 15, from: &[WbN], on: XFERS, acts: &[FinishWb], to: Some(I) },
        Row { id: 16, from: &[Read], on: &[ReadResp], acts: &[Fill], to: Some(V) },
        Row { id: 17, from: &[RegW, RegWP, RegS, RegSP], on: &[RegAck], acts: &[Complete], to: Some(R) },
        Row { id: 18, from: &[Wb], on: &[WbAck], acts: &[Retire], to: Some(I) },
        Row { id: 19, from: &[Wb], on: &[WbNack], acts: &[Refuse], to: Some(WbN) },
        Row { id: 20, from: &[WbP], on: &[WbNack], acts: &[FinishWb], to: Some(I) },
    ]
};

/// DeNovoSync's hardware backoff, as overrides of two base cells.
#[rustfmt::skip]
const DS_ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    &[
        Row { id: 21, from: &[V], on: &[SyncLoad], acts: &[Backoff, Request], to: Some(RegS) },
        Row { id: 22, from: &[R], on: &[SyncReadXfer], acts: &[Demote, PassOn], to: Some(V) },
    ]
};

/// GCS's sync path, in cells the base leaves empty.
#[rustfmt::skip]
const GCS_ROWS: &[Row] = {
    use Act::*;
    use Event::*;
    use State::*;
    const ANY: &[State] = &[I, V, R, Read, RegW, RegWP, RegS, RegSP, Wb, WbP, WbN, SyncWait];
    &[
        Row { id: 23, from: ANY, on: &[Notified], acts: &[NotifyHit], to: None },
        Row { id: 24, from: &[I, V], on: &[SyncOp], acts: &[Issue], to: Some(SyncWait) },
        Row { id: 25, from: &[RegS], on: &[Classified], acts: &[Learn, Convert], to: Some(SyncWait) },
        Row { id: 26, from: &[RegW], on: &[Classified], acts: &[Learn, Unwrite, Convert], to: Some(SyncWait) },
        Row { id: 27, from: &[SyncWait], on: &[SyncResp], acts: &[SyncDone], to: None },
        Row { id: 28, from: &[R], on: &[Recall], acts: &[Learn, Invalidate, AnswerRecall], to: Some(I) },
        Row { id: 29, from: &[I, V], on: &[Recall], acts: &[Learn, Touch, AnswerRecall], to: None },
        Row { id: 30, from: &[RegW], on: &[Recall], acts: &[Learn, Park], to: Some(RegWP) },
        Row { id: 31, from: &[RegS], on: &[Recall], acts: &[Learn, Park], to: Some(RegSP) },
        Row { id: 32, from: &[Wb, WbP, WbN], on: &[Recall], acts: &[Learn], to: None },
        Row { id: 33, from: ANY, on: &[SyncWatch], acts: &[Arm], to: None },
        Row { id: 34, from: ANY, on: &[SyncNotify], acts: &[Learn, Buffer], to: None },
    ]
};

/// Every row by id, for the compiled dispatch.
const BY_ID: [Option<&Row>; crate::table::MAX_ROW_ID + 1] = rows_by_id(&[ROWS, DS_ROWS, GCS_ROWS]);

/// One table per protocol.
static SPECS: [Spec; 3] = {
    use Protocol::{DeNovoSync, DeNovoSync0, Gcs};
    const BASE: List = ("DeNovo", ROWS, false);
    [
        Spec::new(&[DeNovoSync0], None, &[BASE]),
        Spec::new(&[DeNovoSync], None, &[BASE, ("DS override", DS_ROWS, true)]),
        Spec::new(&[Gcs], None, &[BASE, ("GCS", GCS_ROWS, false)]),
    ]
};

/// Appends the L1's table `protocol` runs to `out` (`dvs tables`).
pub(crate) fn markdown(protocol: Protocol, out: &mut String) {
    Spec::markdown(&SPECS, "DeNovo L1", protocol, out);
}

/// What fired a row on a word: a core request (`after_backoff`: the
/// re-issue of a synchronization read whose backoff expired), a registry
/// or sync-path message, or arming a remote watch on the value `seen`.
#[derive(Debug, Clone, Copy)]
enum Input {
    Core {
        kind: AccessKind,
        after_backoff: bool,
    },
    Msg(DnvMsg),
    Watch {
        seen: u64,
    },
}

/// What classification found on the word, handed to every step of the row
/// so none looks it up again to read it: the MSHR entry's kind and, when
/// nothing is pending, the array's copy (Invalid when the line is absent).
/// A pending word's state is its entry's, so its copy is read only by the
/// step that needs it.
#[derive(Debug, Clone, Copy)]
struct Found {
    word: DnvWord,
    kind: Option<PendKind>,
}

impl Found {
    /// A writeback's held value.
    fn held(&self) -> u64 {
        match self.kind {
            Some(PendKind::Wb { value, .. }) => value,
            other => unreachable!("no writeback value in {other:?}"),
        }
    }
}

/// The DeNovo L1 controller for one core.
#[derive(Debug, Clone)]
pub struct DnvL1 {
    id: CoreId,
    banks: usize,
    cache: CacheArray<DnvLine>,
    mshr: Mshr<WordAddr, Pend>,
    backoff: BackoffUnit,
    watch: Option<WordAddr>,
    sync: SyncPath,
    /// The protocol's transition table.
    table: &'static Table,
    layout: Arc<MemoryLayout>,
}

impl DnvL1 {
    /// Creates an empty L1 for core `id` running `protocol`'s table.
    ///
    /// # Panics
    ///
    /// If `protocol` is MESI, which has no DeNovo L1.
    pub fn new(
        id: CoreId,
        geometry: CacheGeometry,
        banks: usize,
        backoff: BackoffConfig,
        layout: Arc<MemoryLayout>,
        protocol: Protocol,
    ) -> Self {
        let spec = Spec::find(&SPECS, protocol, None).expect("a DeNovo protocol");
        DnvL1 {
            id,
            banks,
            cache: CacheArray::new(geometry),
            mshr: Mshr::unbounded(),
            backoff: BackoffUnit::new(backoff),
            watch: None,
            sync: SyncPath {
                predictor: SyncPredictor::new(SyncPredictor::DEFAULT_SLOTS),
                remote_watch: None,
                notify_buf: None,
            },
            table: &spec.table,
            layout,
        }
    }

    /// Peak simultaneous MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshr.high_water()
    }

    /// Parks a failed spin on `word`, which just read `seen`. A Registered
    /// word is watched in place: losing the registration wakes the core. A
    /// word this L1 has learned is sync-classified (only GCS's table
    /// learns) gets a level-triggered remote watch: the `SyncWatch` to its
    /// home bank carries `seen`, and the bank notifies at once if the word
    /// already differs. Returns whether either was armed.
    pub fn watch(&mut self, word: WordAddr, seen: u64, actions: &mut Actions) -> bool {
        if self.word_registered(word) {
            self.watch = Some(word);
        } else if self.sync.predictor.contains(word) {
            self.fire(word, Input::Watch { seen }, actions);
        } else {
            return false;
        }
        true
    }

    /// Clears the spin watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// The word this L1 is remote-watching, if any (invariant checking).
    pub fn remote_watch_word(&self) -> Option<WordAddr> {
        self.sync.remote_watch.map(|(w, _)| w)
    }

    /// Whether a synchronization read of `word` would hit right now (the
    /// word is Registered with no writeback pending).
    pub fn word_registered(&self, word: WordAddr) -> bool {
        !self.mshr.contains(&word) && self.word_state(word) == WState::Registered
    }

    /// The word's current state (Invalid if the line is absent).
    pub fn word_state(&self, word: WordAddr) -> WState {
        self.cache
            .get(word.line())
            .map_or(WState::Invalid, |l| l.words[word.index_in_line()].state)
    }

    /// The value of a word this core is responsible for (Registered in the
    /// array, or held by a writeback handshake), if any.
    pub fn peek_registered(&self, word: WordAddr) -> Option<u64> {
        if let Some(Pend {
            kind: PendKind::Wb { value, .. },
            ..
        }) = self.mshr.get(&word)
        {
            return Some(*value);
        }
        let line = self.cache.get(word.line())?;
        let w = line.words[word.index_in_line()];
        (w.state == WState::Registered).then_some(w.value)
    }

    /// Iterates every word this L1 holds in Registered state (for invariant
    /// checking).
    pub fn registered_words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        self.cache.iter().flat_map(|(line, payload)| {
            payload
                .words
                .iter()
                .enumerate()
                .filter(|(_, w)| w.state == WState::Registered)
                .map(move |(i, _)| line.word(i))
        })
    }

    /// Number of outstanding MSHR transactions.
    pub fn outstanding_txns(&self) -> usize {
        self.mshr.len()
    }

    /// Whether this L1 has an outstanding MSHR transaction on `word`.
    pub fn has_pending(&self, word: WordAddr) -> bool {
        self.mshr.contains(&word)
    }

    /// Whether a forwarded registration transfer — the in-L1 link of the
    /// distributed registration queue — or a bank recall is parked on
    /// `word`'s MSHR entry.
    pub fn has_parked(&self, word: WordAddr) -> bool {
        self.mshr.get(&word).is_some_and(|p| p.parked.is_some())
    }

    /// One `(word, description)` pair per outstanding MSHR entry (stall
    /// diagnostics and conservation checking).
    pub fn pending_summaries(&self) -> Vec<(WordAddr, String)> {
        self.mshr
            .iter()
            .map(|(w, p)| {
                let mut desc = format!("{:?}", p.kind);
                if !p.parked_reads.is_empty() {
                    desc.push_str(&format!(", {} parked read(s)", p.parked_reads.len()));
                }
                match p.parked {
                    Some(Successor::Xfer(c, class)) => {
                        desc.push_str(&format!(", parked xfer to core {c} ({class:?})"))
                    }
                    Some(Successor::Recall) => desc.push_str(", parked recall"),
                    None => {}
                }
                (*w, desc)
            })
            .collect()
    }

    /// Self-invalidates every Valid word belonging to `region` (Registered
    /// words are untouched — "registered data stays in the cache across
    /// synchronization boundaries").
    pub fn self_invalidate(&mut self, region: Region) {
        let layout = Arc::clone(&self.layout);
        for (line, payload) in self.cache.iter_mut() {
            for i in 0..WORDS_PER_LINE {
                if payload.words[i].state == WState::Valid
                    && layout.region_of_word(line.word(i)) == Some(region)
                {
                    payload.words[i].state = WState::Invalid;
                }
            }
        }
    }

    /// Self-invalidates exactly the given words (signature mode): each one
    /// that is cached Valid becomes Invalid; Registered words are untouched.
    pub fn self_invalidate_words(&mut self, words: &[WordAddr]) {
        for &word in words {
            if let Some(line) = self.cache.get_mut(word.line()) {
                let w = &mut line.words[word.index_in_line()];
                if w.state == WState::Valid {
                    w.state = WState::Invalid;
                }
            }
        }
    }

    /// Presents a core memory request. `after_backoff` marks the re-issue of
    /// a synchronization read whose hardware backoff has expired (it must
    /// not be delayed again).
    pub fn core_request(
        &mut self,
        req: &MemRequest,
        after_backoff: bool,
        actions: &mut Actions,
    ) -> IssueResult {
        let input = Input::Core {
            kind: req.kind,
            after_backoff,
        };
        self.fire(req.addr.word(), input, actions)
    }

    /// Handles an incoming message, data path or sync path alike.
    pub fn on_msg(&mut self, msg: DnvMsg, actions: &mut Actions) {
        self.fire(msg.word(), Input::Msg(msg), actions);
    }

    /// A word's state from its MSHR entry and its array state.
    fn state(pend: Option<&Pend>, word: WState) -> State {
        use PendKind::*;
        let Some(p) = pend else {
            return [State::I, State::V, State::R][word as usize];
        };
        match (p.kind, p.parked.is_some()) {
            (Read, _) => State::Read,
            (Write, false) => State::RegW,
            (Write, true) => State::RegWP,
            (SyncRead | SyncWrite { .. } | Rmw { .. }, false) => State::RegS,
            (SyncRead | SyncWrite { .. } | Rmw { .. }, true) => State::RegSP,
            (Wb { nacked: true, .. }, _) => State::WbN,
            (Wb { .. }, false) => State::Wb,
            (Wb { .. }, true) => State::WbP,
            (SyncWait { .. }, _) => State::SyncWait,
        }
    }

    /// The state `input` meets on `word`, the event it is there (`None`: a
    /// message no L1 takes, or a notification for a word not watched), and
    /// what the one MSHR and cache lookup found. An access to a stable
    /// non-Registered word this L1 predicts classified is a `SyncOp`.
    fn classify(&self, word: WordAddr, input: &Input) -> (State, Option<Event>, Found) {
        let pend = self.mshr.get(&word);
        let cached = || self.cache.get(word.line());
        let w = match pend {
            Some(_) => DnvWord::INVALID,
            None => cached().map_or(DnvWord::INVALID, |l| l.words[word.index_in_line()]),
        };
        let state = Self::state(pend, w.state);
        let found = Found {
            word: w,
            kind: pend.map(|p| p.kind),
        };
        let stable = matches!(state, State::I | State::V);
        let is = |slot: Option<(WordAddr, u64)>| slot.is_some_and(|(w, _)| w == word);
        let event = match *input {
            Input::Core { kind, .. } => match kind {
                AccessKind::SyncLoad if is(self.sync.notify_buf) => Event::Notified,
                AccessKind::DataLoad => Event::Load,
                _ if stable && self.sync.predictor.contains(word) => Event::SyncOp,
                AccessKind::DataStore { .. } => Event::Store,
                AccessKind::SyncLoad => Event::SyncLoad,
                AccessKind::SyncStore { .. } | AccessKind::SyncRmw(_) => Event::SyncWrite,
            },
            Input::Msg(DnvMsg::ReadReq { .. }) => Event::FwdRead,
            Input::Msg(DnvMsg::Xfer {
                class: XferClass::SyncRead,
                ..
            }) => Event::SyncReadXfer,
            Input::Msg(DnvMsg::Xfer { .. }) => Event::Xfer,
            Input::Msg(DnvMsg::ReadResp { .. }) => Event::ReadResp,
            Input::Msg(DnvMsg::RegAck { .. }) => Event::RegAck,
            Input::Msg(DnvMsg::WbAck { .. }) => Event::WbAck,
            Input::Msg(DnvMsg::WbNack { .. }) => Event::WbNack,
            Input::Msg(DnvMsg::Classified { .. }) => Event::Classified,
            Input::Msg(DnvMsg::SyncResp { .. }) => Event::SyncResp,
            Input::Msg(DnvMsg::SyncNotify { .. }) if is(self.sync.remote_watch) => {
                Event::SyncNotify
            }
            Input::Msg(DnvMsg::Recall { .. }) => Event::Recall,
            Input::Watch { .. } => Event::SyncWatch,
            Input::Msg(_) => return (state, None, found),
        };
        (state, Some(event), found)
    }

    /// Classifies `input` and runs its row, then fires the successor a
    /// completed registration releases. A cell with no row is the one
    /// unexpected-event path: a violation naming the word, state and event.
    /// Returns a core request's outcome.
    fn fire(&mut self, word: WordAddr, input: Input, actions: &mut Actions) -> IssueResult {
        let (state, event, found) = self.classify(word, &input);
        let Some(row) = event.and_then(|e| self.table[state as usize][e as usize]) else {
            let who = format_args!("DeNovo L1 {}", self.id);
            actions.push(crate::table::unexpected(who, word, state, event, input));
            return IssueResult::Blocked;
        };
        let mut step = (IssueResult::Blocked, None);
        if !dispatch_row!(row.id, self.run(word, &input, &found, &mut step, actions)) {
            // No way for the line, or a backoff: the datapath decided.
            return step.0;
        }
        if let Some(to) = row.to {
            let now = || Self::state(self.mshr.get(&word), self.word_state(word));
            debug_assert_eq!(now(), to, "L1 row {}", row.id);
        }
        if let Some(next) = step.1 {
            self.fire(word, next.input(word), actions);
        }
        step.0
    }

    /// Runs row `ID`'s steps in order (see [`dispatch_row!`]). Returns
    /// false when a step stops the row early.
    fn run<const ID: usize>(
        &mut self,
        word: WordAddr,
        input: &Input,
        found: &Found,
        step: &mut (IssueResult, Option<Successor>),
        actions: &mut Actions,
    ) -> bool {
        for &act in Compiled::<ID>::ACTS {
            if !self.act(act, word, input, found, step, actions) {
                return false;
            }
        }
        true
    }

    /// Runs one step of a fired row on what classification `found`, setting
    /// `step`'s core-request outcome and the successor to fire after the
    /// row. Returns false when the row stops early: no way could be freed
    /// for the line, or the access backs off.
    #[inline(always)]
    fn act(
        &mut self,
        act: Act,
        word: WordAddr,
        input: &Input,
        found: &Found,
        step: &mut (IssueResult, Option<Successor>),
        actions: &mut Actions,
    ) -> bool {
        let (req, from, banks, key) = (self.id, self.id, self.banks, word.base().raw());
        let home = || Endpoint::Bank(home_bank(word.line(), banks));
        let mut send = |to, msg| {
            let msg = Msg::Dnv(msg);
            actions.push(Action::Send { to, msg });
        };
        match (act, input) {
            // Core requests.
            (Act::Hit, &Input::Core { .. }) => {
                let value = Some(self.word_mut(word).expect("resident").value);
                step.0 = IssueResult::Hit { value };
            }
            (Act::Write | Act::Claim, &Input::Core { kind, .. }) => {
                let AccessKind::DataStore { value } = kind else {
                    unreachable!("a store step for {kind:?}")
                };
                let w = self.word_mut(word).expect("line resident");
                let was = w.state.label();
                *w = DnvWord {
                    state: WState::Registered,
                    value,
                };
                if act == Act::Claim {
                    // The paper's write path: Registered at once, no
                    // transient state.
                    actions.transition(key, was, "R", "store");
                } else {
                    step.0 = IssueResult::StoreAccepted { completed: true };
                }
            }
            (Act::SyncHit, &Input::Core { kind, .. }) => {
                let w = self.word_mut(word).expect("registered word");
                let old = w.value;
                let (new, result) = match kind {
                    AccessKind::SyncStore { value } => (value, None),
                    AccessKind::SyncRmw(op) => (op.apply(old), Some(old)),
                    _ => (old, Some(old)),
                };
                w.value = new;
                match result {
                    Some(_) => self.backoff.on_sync_hit(),
                    None => self.backoff.on_release(),
                }
                step.0 = IssueResult::Hit { value: result };
            }
            (Act::Retry, _) => step.0 = IssueResult::Blocked,
            (Act::Allocate, _) => return self.ensure_line(word.line(), actions),
            (Act::Request, &Input::Core { kind, .. }) => {
                let pend = PendKind::of(kind);
                let class = pend.reg_class();
                let msg = match pend {
                    PendKind::Read => DnvMsg::ReadReq { word, req },
                    _ => DnvMsg::RegReq { word, req, class },
                };
                send(home(), msg);
                mshr_alloc(&mut self.mshr, word, Pend::new(pend), key, actions);
                step.0 = match pend {
                    PendKind::Write => IssueResult::StoreAccepted { completed: false },
                    _ => IssueResult::Miss,
                };
            }
            (Act::Backoff, &Input::Core { after_backoff, .. }) => {
                let cycles = self.backoff.current();
                if !after_backoff && cycles > 0 {
                    step.0 = IssueResult::Backoff { cycles };
                    return false;
                }
            }
            // Forwarded reads and transfers.
            (Act::ServeRead, &Input::Msg(DnvMsg::ReadReq { req, .. })) => {
                // DeNovo transfers data at line granularity: piggy-back the
                // line's other words registered here (they are equally
                // current), cutting the forwarded-read count for data that
                // was written together (original DeNovo [10]).
                let line = self.cache.get(word.line()).expect("registered word");
                let (idx, mut mask, mut data) = (word.index_in_line(), 0u8, [0; WORDS_PER_LINE]);
                for (i, w) in line.words.iter().enumerate() {
                    if i != idx && w.state == WState::Registered {
                        mask |= 1 << i;
                        data[i] = w.value;
                    }
                }
                let (value, fill) = (line.words[idx].value, (mask != 0).then_some((mask, data)));
                send(Endpoint::L1(req), DnvMsg::ReadResp { word, value, fill });
            }
            (Act::ParkRead, &Input::Msg(DnvMsg::ReadReq { req, .. })) => {
                self.pend_mut(word).parked_reads.push(req);
            }
            (Act::Park, _) => {
                self.pend_mut(word).parked = Some(match *input {
                    Input::Msg(DnvMsg::Xfer {
                        new_owner, class, ..
                    }) => Successor::Xfer(new_owner, class),
                    _ => Successor::Recall,
                });
            }
            (Act::Invalidate | Act::Demote, _) => {
                let (to, cause) = match (act, input) {
                    (Act::Demote, _) => (WState::Valid, "Xfer"),
                    (_, Input::Msg(DnvMsg::Recall { .. })) => (WState::Invalid, "Recall"),
                    _ => (WState::Invalid, "Xfer"),
                };
                if act == Act::Demote {
                    self.backoff.on_remote_sync_read();
                }
                self.word_mut(word).expect("registered word").state = to;
                actions.transition(key, "R", to.label(), cause);
                if self.watch == Some(word) {
                    actions.push(Action::SpinWake);
                }
            }
            (
                Act::PassOn,
                &Input::Msg(DnvMsg::Xfer {
                    new_owner, class, ..
                }),
            ) => {
                let value = found.word.value;
                send(
                    Endpoint::L1(new_owner),
                    DnvMsg::RegAck { word, value, class },
                );
            }
            // Responses.
            (Act::Fill, &Input::Msg(DnvMsg::ReadResp { value, fill, .. })) => {
                mshr_free(&mut self.mshr, &word, key, actions);
                let cached = self.ensure_line(word.line(), actions);
                if cached {
                    let w = self.word_mut(word).expect("line ensured");
                    if w.state == WState::Invalid {
                        *w = DnvWord {
                            state: WState::Valid,
                            value,
                        };
                    }
                    if let Some((mask, data)) = fill {
                        self.fill_line(word.line(), mask, &data);
                    }
                }
                // (If no way could be freed, deliver uncached — reads take
                // no ownership, so nothing else is required.)
                actions.push(Action::CoreDone { value: Some(value) });
                return cached;
            }
            (Act::Complete, &Input::Msg(DnvMsg::RegAck { value, .. })) => {
                return self.complete(word, value, step, actions);
            }
            (Act::Retire, _) => {
                let pend =
                    mshr_free(&mut self.mshr, &word, key, actions).expect("writeback pending");
                self.serve_reads(word, found.held(), &pend.parked_reads, actions);
            }
            (Act::Refuse, _) => {
                let value = found.held();
                self.pend_mut(word).kind = PendKind::Wb {
                    value,
                    nacked: true,
                };
            }
            // A refused writeback meets its transfer, arriving or parked:
            // serve the parked reads and the new registrant from the held
            // value, and drop the word.
            (Act::FinishWb, _) => {
                let pend =
                    mshr_free(&mut self.mshr, &word, key, actions).expect("writeback pending");
                let (new_owner, class) = match (pend.parked, input) {
                    (Some(Successor::Xfer(c, class)), _) => (c, class),
                    (
                        _,
                        &Input::Msg(DnvMsg::Xfer {
                            new_owner, class, ..
                        }),
                    ) => (new_owner, class),
                    other => unreachable!("a refused writeback finishing on {other:?}"),
                };
                let value = found.held();
                self.serve_reads(word, value, &pend.parked_reads, actions);
                let msg = Msg::Dnv(DnvMsg::RegAck { word, value, class });
                actions.push(Action::Send {
                    to: Endpoint::L1(new_owner),
                    msg,
                });
            }
            // The sync path.
            (Act::NotifyHit, &Input::Core { .. }) => {
                let (_, value) = self.sync.notify_buf.take().expect("notified word");
                step.0 = IssueResult::Hit { value: Some(value) };
            }
            (Act::Issue, &Input::Core { kind, .. }) => {
                let (op, data_store) = match kind {
                    AccessKind::DataStore { value } => (GcsOpKind::Store { value }, true),
                    _ => (PendKind::of(kind).sync_op().expect("a sync access"), false),
                };
                send(home(), DnvMsg::SyncOp { word, req, op });
                let pend = Pend::new(PendKind::SyncWait { op, data_store });
                mshr_alloc(&mut self.mshr, word, pend, key, actions);
                step.0 = match data_store {
                    true => IssueResult::StoreAccepted { completed: false },
                    false => IssueResult::Miss,
                };
            }
            (Act::Learn, &Input::Msg(msg)) => self.learn(word, msg.kind_name(), actions),
            // The optimistic store set the word Registered locally; the bank
            // owns classified words, so undo and re-execute there.
            (Act::Unwrite, _) => {
                self.word_mut(word).expect("write-registered word").state = WState::Invalid;
                actions.transition(key, "R", "I", "Classified");
            }
            (Act::Convert, _) => {
                let kind = found.kind.expect("a pending registration");
                let value = self
                    .cache
                    .get(word.line())
                    .map_or(0, |l| l.words[word.index_in_line()].value);
                let (op, data_store) = match kind.sync_op() {
                    Some(op) => (op, false),
                    None => (GcsOpKind::Store { value }, true),
                };
                self.pend_mut(word).kind = PendKind::SyncWait { op, data_store };
                send(home(), DnvMsg::SyncOp { word, req, op });
            }
            (Act::SyncDone, &Input::Msg(DnvMsg::SyncResp { value, .. })) => {
                let pend = mshr_free(&mut self.mshr, &word, key, actions).expect("sync op pending");
                let PendKind::SyncWait { op, data_store } = pend.kind else {
                    unreachable!("a sync response for {:?}", pend.kind)
                };
                // `value` is the loaded value, the RMW's old value (the new
                // one is recomputed locally for parked readers), or the
                // stored value.
                let (stored, done) = match op {
                    GcsOpKind::Load => (value, Action::CoreDone { value: Some(value) }),
                    GcsOpKind::Store { value } if data_store => {
                        (value, Action::StoresDone { count: 1 })
                    }
                    GcsOpKind::Store { value } => (value, Action::CoreDone { value: None }),
                    GcsOpKind::Rmw(op) => {
                        (op.apply(value), Action::CoreDone { value: Some(value) })
                    }
                };
                actions.push(done);
                // Keep any stale Valid copy program-order consistent with our
                // own completed operation.
                if let Some(w) = self.word_mut(word).filter(|w| w.state == WState::Valid) {
                    w.value = stored;
                }
                self.serve_reads(word, stored, &pend.parked_reads, actions);
            }
            (Act::Touch, _) => self.cache.touch(word.line()),
            // Answered empty when ownership had already moved on (our
            // writeback raced ahead); the bank ignores stale answers.
            (Act::AnswerRecall, _) => {
                let registered = found.word.state == WState::Registered;
                let value = registered.then_some(found.word.value);
                send(home(), DnvMsg::RecallAck { word, from, value });
            }
            (Act::Arm, &Input::Watch { seen }) => {
                self.sync.remote_watch = Some((word, seen));
                send(home(), DnvMsg::SyncWatch { word, req, seen });
            }
            (Act::Buffer, &Input::Msg(DnvMsg::SyncNotify { value, .. })) => {
                self.sync.remote_watch = None;
                self.sync.notify_buf = Some((word, value));
                actions.push(Action::SpinWake);
            }
            _ => unreachable!("L1 step {act:?} fired by {input:?}"),
        }
        true
    }

    /// Our own registration was acknowledged with the word's `ack` value:
    /// perform the operation, serve the reads parked behind us, and hand a
    /// parked successor (the next registrant's transfer, or a bank recall)
    /// to the next row. Returns false when no way could be freed for the
    /// line: the value then goes straight on — to the successor, or back to
    /// the registry.
    fn complete(
        &mut self,
        word: WordAddr,
        ack: u64,
        step: &mut (IssueResult, Option<Successor>),
        actions: &mut Actions,
    ) -> bool {
        let key = word.base().raw();
        let pend = mshr_free(&mut self.mshr, &word, key, actions).expect("registration pending");
        let cached = self.ensure_line(word.line(), actions);
        // The value this core now owns, and how the access completes. A data
        // store's word was already Registered locally with its value.
        let (value, done) = match pend.kind {
            PendKind::Write => {
                let w = self.word_mut(word).expect("write-registered word");
                (w.value, Action::StoresDone { count: 1 })
            }
            PendKind::SyncWrite { value } => {
                self.backoff.on_release();
                (value, Action::CoreDone { value: None })
            }
            PendKind::Rmw { op } => (op.apply(ack), Action::CoreDone { value: Some(ack) }),
            _ => (ack, Action::CoreDone { value: Some(ack) }),
        };
        if cached && pend.kind != PendKind::Write {
            let w = self.word_mut(word).expect("line ensured");
            let was = w.state.label();
            *w = DnvWord {
                state: WState::Registered,
                value,
            };
            actions.transition(key, was, "R", "RegAck");
        }
        actions.push(done);
        // Parked forwarded reads see the post-operation value (they were
        // serialized after our registration).
        self.serve_reads(word, value, &pend.parked_reads, actions);
        if cached {
            step.1 = pend.parked;
            return true;
        }
        let (to, msg) = match pend.parked {
            None => {
                self.start_writeback(word, value, actions);
                return false;
            }
            Some(Successor::Xfer(new_owner, class)) => (
                Endpoint::L1(new_owner),
                Msg::Dnv(DnvMsg::RegAck { word, value, class }),
            ),
            Some(Successor::Recall) => {
                self.learn(word, "Recall", actions);
                let (from, value) = (self.id, Some(value));
                (
                    self.home(word),
                    Msg::Dnv(DnvMsg::RecallAck { word, from, value }),
                )
            }
        };
        actions.push(Action::Send { to, msg });
        false
    }

    /// Records `word` as sync-classified (idempotent) and emits the
    /// data→sync classification transition the first time.
    fn learn(&mut self, word: WordAddr, cause: &'static str, actions: &mut Actions) {
        let known = self.sync.predictor.contains(word);
        self.sync.predictor.insert(word);
        if !known {
            actions.transition(word.base().raw(), "data", "sync", cause);
        }
    }

    fn home(&self, word: WordAddr) -> Endpoint {
        Endpoint::Bank(home_bank(word.line(), self.banks))
    }

    fn word_mut(&mut self, word: WordAddr) -> Option<&mut DnvWord> {
        self.cache
            .get_mut(word.line())
            .map(|l| &mut l.words[word.index_in_line()])
    }

    fn pend_mut(&mut self, word: WordAddr) -> &mut Pend {
        self.mshr.get_mut(&word).expect("pending word")
    }

    /// Starts the writeback handshake for a registered word this L1 is
    /// giving up, holding its value until the registry answers.
    fn start_writeback(&mut self, word: WordAddr, value: u64, actions: &mut Actions) {
        let pend = Pend::new(PendKind::Wb {
            value,
            nacked: false,
        });
        mshr_alloc(&mut self.mshr, word, pend, word.base().raw(), actions);
        let (to, from) = (self.home(word), self.id);
        let msg = Msg::Dnv(DnvMsg::WbReq { word, value, from });
        actions.push(Action::Send { to, msg });
    }

    fn serve_reads(&self, word: WordAddr, value: u64, readers: &[CoreId], actions: &mut Actions) {
        for &r in readers {
            let (to, fill) = (Endpoint::L1(r), None);
            let msg = Msg::Dnv(DnvMsg::ReadResp { word, value, fill });
            actions.push(Action::Send { to, msg });
        }
    }

    /// Copies the registry's valid sibling words into Invalid slots.
    fn fill_line(&mut self, line: LineAddr, mask: u8, data: &[u64; WORDS_PER_LINE]) {
        let payload = self.cache.get_mut(line).expect("line resident");
        for (i, (slot, &value)) in payload.words.iter_mut().zip(data).enumerate() {
            if mask & (1 << i) != 0
                && slot.state == WState::Invalid
                // Skip words with their own pending transactions.
                && !self.mshr.contains(&line.word(i))
            {
                *slot = DnvWord {
                    state: WState::Valid,
                    value,
                };
            }
        }
    }

    /// Makes `line` resident, evicting if necessary. Returns false if no way
    /// could be freed.
    fn ensure_line(&mut self, line: LineAddr, actions: &mut Actions) -> bool {
        if self.cache.contains(line) {
            self.cache.touch(line);
            return true;
        }
        let watch_line = self.watch.map(WordAddr::line);
        // First preference: a victim with nothing pinned (clean Valid-only
        // lines drop silently — Valid words are always clean copies).
        let mshr = &self.mshr;
        let clean = self
            .cache
            .insert_filtered(line, DnvLine::empty(), |addr, l| {
                Some(addr) != watch_line
                    && !l.has_registered()
                    && addr.words().all(|w| !mshr.contains(&w))
            });
        match clean {
            InsertOutcome::Inserted | InsertOutcome::Evicted(..) => return true,
            InsertOutcome::NoVictim(_) => {}
        }
        // Fall back to evicting a line with Registered words via the
        // writeback handshake.
        let mshr = &self.mshr;
        let outcome = self
            .cache
            .insert_filtered(line, DnvLine::empty(), |addr, _| {
                Some(addr) != watch_line && addr.words().all(|w| !mshr.contains(&w))
            });
        match outcome {
            InsertOutcome::Inserted => true,
            InsertOutcome::Evicted(victim, old) => {
                for (i, w) in old.words.iter().enumerate() {
                    if w.state == WState::Registered {
                        self.start_writeback(victim.word(i), w.value, actions);
                    }
                }
                true
            }
            InsertOutcome::NoVictim(_) => false,
        }
    }
}

/// Canonical hash for model checking: every field that influences future
/// protocol behaviour. `layout` (immutable, shared) is excluded; `table` is
/// fixed per run.
impl std::hash::Hash for DnvL1 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.banks.hash(state);
        self.cache.hash(state);
        self.mshr.hash(state);
        self.backoff.hash(state);
        self.watch.hash(state);
        self.sync.hash(state);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dvs_mem::{Addr, LayoutBuilder};

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
            Notified, SyncOp, Classified, SyncResp, SyncWatch, SyncNotify, Recall,
        ];
        let gcs_only = gcs_only.map(|e| e as usize).to_vec();
        crate::table::tests::View::new("DeNovo L1", specs, index, gcs_only)
    }

    fn layout() -> Arc<MemoryLayout> {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 16, r);
        Arc::new(b.build())
    }

    fn with_table(protocol: Protocol) -> DnvL1 {
        let geometry = CacheGeometry::new(1024, 2);
        DnvL1::new(0, geometry, 4, BackoffConfig::cores16(), layout(), protocol)
    }

    /// A DeNovoSync L1 (`backoff`) or a DeNovoSync0 one.
    fn l1(backoff: bool) -> DnvL1 {
        with_table(match backoff {
            true => Protocol::DeNovoSync,
            false => Protocol::DeNovoSync0,
        })
    }

    fn req(addr: u64, kind: AccessKind) -> MemRequest {
        MemRequest {
            addr: Addr::new(addr),
            kind,
            dst: None,
            spin: None,
        }
    }

    fn word(addr: u64) -> WordAddr {
        Addr::new(addr).word()
    }

    fn gcs_l1() -> DnvL1 {
        with_table(Protocol::Gcs)
    }

    #[test]
    fn sync_read_always_misses_unless_registered() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Miss
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Dnv(DnvMsg::RegReq {
                    class: XferClass::SyncRead,
                    ..
                }),
                ..
            }
        ));
        acts.clear();
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 7,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(7) }));
        assert!(l1.word_registered(word(0x100)));
        // Now a sync read hits.
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Hit { value: Some(7) }
        );
    }

    #[test]
    fn data_write_registers_immediately_without_stalling() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 5 }),
                false,
                &mut acts
            ),
            IssueResult::StoreAccepted { completed: false }
        );
        // The word is already Registered locally: reads hit and see 5.
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts),
            IssueResult::Hit { value: Some(5) }
        );
        // The ack retires the outstanding store.
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
        assert_eq!(l1.peek_registered(word(0x100)), Some(5));
    }

    #[test]
    fn transfer_downgrades_to_invalid_on_ds0_and_valid_on_ds() {
        for (enabled, expect) in [(false, WState::Invalid), (true, WState::Valid)] {
            let mut l1 = l1(enabled);
            let mut acts = Actions::new(true);
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 9 }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(0x100),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
            acts.clear();
            l1.on_msg(
                DnvMsg::Xfer {
                    word: word(0x100),
                    new_owner: 2,
                    class: XferClass::SyncRead,
                },
                &mut acts,
            );
            // Value 9 travels to the new owner.
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: Endpoint::L1(2),
                    msg: Msg::Dnv(DnvMsg::RegAck { value: 9, .. })
                }
            )));
            assert_eq!(l1.word_state(word(0x100)), expect, "enabled={enabled}");
            // Only DeNovoSync's transfer row bumps the backoff counter.
            assert_eq!(l1.backoff.current() > 0, enabled, "enabled={enabled}");
        }
    }

    #[test]
    fn sync_read_to_valid_backs_off_then_misses() {
        let mut l1 = l1(true);
        let mut acts = Actions::new(true);
        // Register then lose to a remote sync read → Valid + backoff > 0.
        l1.core_request(
            &req(0x100, AccessKind::DataStore { value: 1 }),
            false,
            &mut acts,
        );
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::Write,
            },
            &mut acts,
        );
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 1,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        acts.clear();
        let res = l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        let IssueResult::Backoff { cycles } = res else {
            panic!("expected backoff, got {res:?}");
        };
        assert!(cycles > 0);
        assert!(acts.is_empty(), "no messages during backoff");
        // After the backoff expires the re-issue must miss (ignoring the
        // Valid copy).
        let res = l1.core_request(&req(0x100, AccessKind::SyncLoad), true, &mut acts);
        assert_eq!(res, IssueResult::Miss);
    }

    #[test]
    fn racing_transfer_parks_in_mshr_until_own_ack() {
        // The distributed queue: our sync read is pending; the next
        // registrant's transfer arrives first and must wait for our ack.
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        acts.clear();
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 3,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.is_empty(), "transfer must park: {acts:?}");
        // Our ack arrives: we complete, then immediately pass ownership on.
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 42,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(42) }));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 42, .. })
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
    }

    #[test]
    fn rmw_applies_at_ownership_and_serves_parked_reads_with_new_value() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        // A forwarded data read parks behind our pending registration.
        l1.on_msg(
            DnvMsg::ReadReq {
                word: word(0x100),
                req: 5,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 10,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        // The parked read sees the post-RMW value 11.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Dnv(DnvMsg::ReadResp { value: 11, .. })
            }
        )));
        assert_eq!(l1.peek_registered(word(0x100)), Some(11));
    }

    #[test]
    fn self_invalidation_clears_valid_but_not_registered() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        // Valid word via data read.
        l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::ReadResp {
                word: word(0x100),
                value: 3,
                fill: None,
            },
            &mut acts,
        );
        // Registered word via store.
        l1.core_request(
            &req(0x140, AccessKind::DataStore { value: 4 }),
            false,
            &mut acts,
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Valid);
        assert_eq!(l1.word_state(word(0x140)), WState::Registered);
        let region = l1.layout.region_of(Addr::new(0x100)).unwrap();
        l1.self_invalidate(region);
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert_eq!(l1.word_state(word(0x140)), WState::Registered);
    }

    #[test]
    fn read_resp_fill_installs_only_invalid_words() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        // Make word 1 of the line Registered first.
        l1.core_request(
            &req(0x108, AccessKind::DataStore { value: 99 }),
            false,
            &mut acts,
        );
        acts.clear();
        l1.core_request(&req(0x100, AccessKind::DataLoad), false, &mut acts);
        let mut data = [0u64; 8];
        data[2] = 22;
        data[1] = 11; // must NOT overwrite the registered 99
        l1.on_msg(
            DnvMsg::ReadResp {
                word: word(0x100),
                value: 5,
                fill: Some((0b0000_0110, data)),
            },
            &mut acts,
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Valid);
        assert_eq!(l1.word_state(word(0x110)), WState::Valid);
        assert_eq!(l1.peek_registered(word(0x108)), Some(99));
    }

    #[test]
    fn writeback_handshake_ack_path() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        // Fill both ways of set 0 with registered words, then force a third
        // line into the set (2-way, 8 sets ⇒ stride 8 lines = 0x200).
        for (a, v) in [(0x200u64, 1u64), (0x400, 2)] {
            l1.core_request(
                &req(a, AccessKind::DataStore { value: v }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(a),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
        }
        acts.clear();
        let res = l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        assert_eq!(res, IssueResult::StoreAccepted { completed: false });
        let wb = acts.iter().find_map(|a| match a {
            Action::Send {
                msg: Msg::Dnv(DnvMsg::WbReq { word, value, .. }),
                ..
            } => Some((*word, *value)),
            _ => None,
        });
        let (wb_word, wb_value) = wb.expect("writeback for the evicted registered word");
        assert_eq!(wb_word, word(0x200));
        assert_eq!(wb_value, 1);
        // Held value still answers peeks during the handshake.
        assert_eq!(l1.peek_registered(wb_word), Some(1));
        acts.clear();
        l1.on_msg(DnvMsg::WbAck { word: wb_word }, &mut acts);
        assert_eq!(l1.peek_registered(wb_word), None);
    }

    #[test]
    fn writeback_nack_then_transfer_serves_from_held_value() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        for (a, v) in [(0x200u64, 1u64), (0x400, 2)] {
            l1.core_request(
                &req(a, AccessKind::DataStore { value: v }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(a),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
        }
        acts.clear();
        l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        acts.clear();
        // Registry refuses: ownership already moved to core 4.
        l1.on_msg(DnvMsg::WbNack { word: word(0x200) }, &mut acts);
        assert!(acts.is_empty());
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x200),
                new_owner: 4,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 1, .. })
            }
        )));
        // Only the 0x600 store's own registration remains outstanding.
        assert_eq!(l1.outstanding_txns(), 1);
    }

    #[test]
    fn transfer_before_nack_also_resolves() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        for (a, v) in [(0x200u64, 1u64), (0x400, 2)] {
            l1.core_request(
                &req(a, AccessKind::DataStore { value: v }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(a),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
        }
        acts.clear();
        l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        acts.clear();
        // Transfer parks on the writeback entry, then the nack releases it.
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x200),
                new_owner: 4,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert!(acts.is_empty());
        l1.on_msg(DnvMsg::WbNack { word: word(0x200) }, &mut acts);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Dnv(DnvMsg::RegAck { value: 1, .. })
            }
        )));
    }

    #[test]
    fn spin_watch_wakes_on_transfer() {
        let mut l1 = l1(false);
        let mut acts = Actions::new(true);
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(l1.watch(word(0x100), 0, &mut acts));
        acts.clear();
        l1.on_msg(
            DnvMsg::Xfer {
                word: word(0x100),
                new_owner: 9,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::SpinWake));
    }

    // --- the sync path (GCS) -------------------------------------------

    #[test]
    fn unclassified_sync_access_registers_optimistically() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Miss
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Dnv(DnvMsg::RegReq {
                    class: XferClass::SyncRead,
                    ..
                }),
                ..
            }
        ));
        acts.clear();
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 7,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(7) }));
        assert!(l1.word_registered(word(0x100)));
    }

    #[test]
    fn classified_rejection_converts_to_sync_op() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_msg(DnvMsg::Classified { word: word(0x100) }, &mut acts);
        assert!(l1.sync.predictor.contains(word(0x100)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Dnv(DnvMsg::SyncOp {
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        // The bank executed the RMW on old value 10: core sees 10.
        l1.on_msg(
            DnvMsg::SyncResp {
                word: word(0x100),
                value: 10,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        assert_eq!(l1.outstanding_txns(), 0);
    }

    #[test]
    fn predicted_sync_access_skips_registration() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        acts.clear();
        l1.on_msg(DnvMsg::Classified { word: word(0x100) }, &mut acts);
        l1.on_msg(
            DnvMsg::SyncResp {
                word: word(0x100),
                value: 1,
            },
            &mut acts,
        );
        acts.clear();
        // Second access goes straight down the dedicated path.
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::SyncStore { value: 9 }),
                false,
                &mut acts
            ),
            IssueResult::Miss
        );
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Dnv(DnvMsg::SyncOp {
                    op: GcsOpKind::Store { value: 9 },
                    ..
                }),
                ..
            }
        ));
    }

    #[test]
    fn converted_data_store_invalidates_local_copy_and_retires() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        assert_eq!(
            l1.core_request(
                &req(0x100, AccessKind::DataStore { value: 5 }),
                false,
                &mut acts
            ),
            IssueResult::StoreAccepted { completed: false }
        );
        assert_eq!(l1.word_state(word(0x100)), WState::Registered);
        acts.clear();
        l1.on_msg(DnvMsg::Classified { word: word(0x100) }, &mut acts);
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Dnv(DnvMsg::SyncOp {
                    op: GcsOpKind::Store { value: 5 },
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        l1.on_msg(
            DnvMsg::SyncResp {
                word: word(0x100),
                value: 5,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::StoresDone { count: 1 }));
    }

    #[test]
    fn recall_of_settled_word_returns_value_and_wakes_spinner() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 3,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        assert!(l1.watch(word(0x100), 0, &mut acts));
        acts.clear();
        l1.on_msg(DnvMsg::Recall { word: word(0x100) }, &mut acts);
        assert!(acts.contains(&Action::SpinWake));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Dnv(DnvMsg::RecallAck { value: Some(3), .. }),
                ..
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(l1.sync.predictor.contains(word(0x100)));
    }

    #[test]
    fn recall_parks_on_inflight_registration_and_serves_after_ack() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_msg(DnvMsg::Recall { word: word(0x100) }, &mut acts);
        let observed = |a: &Action| matches!(a, Action::Observe { .. });
        assert!(acts.iter().all(observed), "recall must park: {acts:?}");
        assert!(l1.has_parked(word(0x100)));
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 10,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::CoreDone { value: Some(10) }));
        // The post-RMW value 11 is surrendered to the bank.
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Dnv(DnvMsg::RecallAck {
                    value: Some(11),
                    ..
                }),
                ..
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert_eq!(l1.outstanding_txns(), 0);
    }

    #[test]
    fn notify_buffer_serves_the_reissued_spin_load() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        // A recall that finds the word Invalid teaches the L1 it is
        // classified, so a failed spin on it watches remotely.
        l1.on_msg(DnvMsg::Recall { word: word(0x100) }, &mut acts);
        acts.clear();
        assert!(l1.watch(word(0x100), 0, &mut acts));
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Dnv(DnvMsg::SyncWatch { seen: 0, .. }),
                ..
            }
        ));
        acts.clear();
        l1.on_msg(
            DnvMsg::SyncNotify {
                word: word(0x100),
                value: 42,
            },
            &mut acts,
        );
        assert!(acts.contains(&Action::SpinWake));
        assert!(l1.remote_watch_word().is_none());
        acts.clear();
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Hit { value: Some(42) }
        );
        assert!(acts.is_empty(), "notify hit must not touch the network");
        // Consumed: the next spin load goes remote again.
        assert_eq!(
            l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts),
            IssueResult::Miss
        );
    }

    #[test]
    fn recall_with_writeback_in_flight_defers_to_the_writeback() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        for (a, v) in [(0x200u64, 1u64), (0x400, 2)] {
            l1.core_request(
                &req(a, AccessKind::DataStore { value: v }),
                false,
                &mut acts,
            );
            l1.on_msg(
                DnvMsg::RegAck {
                    word: word(a),
                    value: 0,
                    class: XferClass::Write,
                },
                &mut acts,
            );
        }
        acts.clear();
        l1.core_request(
            &req(0x600, AccessKind::DataStore { value: 3 }),
            false,
            &mut acts,
        );
        acts.clear();
        // The recall crosses our in-flight WbReq: the bank will accept the
        // writeback as the recall return, so the L1 stays silent.
        l1.on_msg(DnvMsg::Recall { word: word(0x200) }, &mut acts);
        let observed = |a: &Action| matches!(a, Action::Observe { .. });
        assert!(acts.iter().all(observed), "{acts:?}");
        l1.on_msg(DnvMsg::WbAck { word: word(0x200) }, &mut acts);
        assert_eq!(l1.peek_registered(word(0x200)), None);
    }

    /// A bank-bound message is the L1's one unexpected event: a single
    /// violation naming the L1, the word, its state and the message.
    #[test]
    fn a_bank_bound_message_is_a_violation() {
        let mut l1 = gcs_l1();
        let mut acts = Actions::new(true);
        let (word, op) = (word(0x100), GcsOpKind::Load);
        l1.on_msg(DnvMsg::SyncOp { word, req: 1, op }, &mut acts);
        let detail = "DeNovo L1 0: unexpected Msg(SyncOp { word: WordAddr(32), req: 1, op: Load }) for w0x100 in I";
        assert_eq!(*acts, [Action::violation(detail)]);
    }
}
