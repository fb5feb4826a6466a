//! The DeNovo private-cache (L1) controller.
//!
//! Per-word states Invalid / Valid / Registered; no transient states in the
//! array — in-flight work lives in word-granularity MSHRs. Key behaviours
//! from the paper:
//!
//! * data writes transition to Registered **immediately** (no stall) and
//!   send a registration request;
//! * synchronization reads to anything but Registered state always miss and
//!   register (DeNovoSync0's single-reader rule);
//! * a forwarded request arriving while the word's own registration is
//!   pending parks in the MSHR — the distributed registration queue;
//! * under DeNovoSync, a remote synchronization-read registration downgrades
//!   Registered → Valid and bumps the backoff counter; a later local
//!   synchronization read to Valid state stalls for the counter value
//!   before issuing its miss;
//! * evicting a Registered word uses a writeback *handshake* (`WbReq` /
//!   `WbAck` / `WbNack`): the registry may have already re-pointed the word
//!   at a new registrant, in which case the in-flight transfer must still be
//!   served from the held value.
//!
//! GCS is this controller with backoff disabled (the DS0 path) plus the
//! optional **sync-path policy** ([`DnvL1::with_sync_path`]):
//!
//! * when the home bank classifies a word as a synchronization variable it
//!   answers registrations with `Classified`; the L1 converts the pending
//!   access into a [`GcsMsg::SyncOp`] executed *at the bank* and records
//!   the word in its bounded [`SyncPredictor`];
//! * predicted-sync accesses skip the optimistic registration and go
//!   straight down the sync path;
//! * a failed spin on a classified word arms a level-triggered remote
//!   watch ([`GcsMsg::SyncWatch`]); the bank's targeted [`GcsMsg::SyncNotify`]
//!   lands in a one-entry notify buffer that the re-issued spin load hits;
//! * `Recall` surrenders a just-classified word's registered copy back to
//!   the bank (the value rides on [`GcsMsg::RecallAck`]).

use crate::config::BackoffConfig;
use crate::denovo::backoff::BackoffUnit;
use crate::denovo::predictor::SyncPredictor;
use crate::msg::{CoreId, DnvMsg, Endpoint, GcsMsg, GcsOpKind, Msg, XferClass};
use crate::proto::{count_access, home_bank, Action, IssueResult};
use dvs_mem::array::InsertOutcome;
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{
    AccessKind, CacheArray, CacheGeometry, LineAddr, Mshr, Region, RmwOp, WordAddr, WORDS_PER_LINE,
};
use dvs_stats::CacheStats;
use dvs_telemetry::{Component, EventKind, Telemetry, TelemetryKey};
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

/// A cached line: eight independently-tracked words.
#[derive(Debug, Clone, Hash)]
pub struct DnvLine {
    /// The line's words.
    pub words: [DnvWord; WORDS_PER_LINE],
}

impl DnvLine {
    pub(crate) fn empty() -> Self {
        DnvLine {
            words: [DnvWord {
                state: WState::Invalid,
                value: 0,
            }; WORDS_PER_LINE],
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
    /// A forwarded registration transfer that arrived while we were pending
    /// (at most one: the registry serializes, and each registrant has
    /// exactly one successor).
    parked_xfer: Option<(CoreId, XferClass)>,
    /// Sync path: a `Recall` that arrived while our own registration was
    /// still in flight; served right after the operation completes.
    /// Mutually exclusive with `parked_xfer` (the bank stops re-pointing a
    /// word the moment it classifies it).
    parked_recall: bool,
}

impl Pend {
    fn new(kind: PendKind) -> Self {
        Pend {
            kind,
            parked_reads: Vec::new(),
            parked_xfer: None,
            parked_recall: false,
        }
    }

    fn has_parked_successor(&self) -> bool {
        self.parked_xfer.is_some() || self.parked_recall
    }
}

/// The GCS sync-path state of one L1: what GCS has and DeNovo lacks.
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

/// The DeNovo L1 controller for one core.
#[derive(Debug, Clone)]
pub struct DnvL1 {
    id: CoreId,
    banks: usize,
    cache: CacheArray<DnvLine>,
    mshr: Mshr<WordAddr, Pend>,
    backoff: BackoffUnit,
    watch: Option<WordAddr>,
    /// The GCS sync-path policy (`None` for DeNovoSync0 / DeNovoSync).
    sync: Option<SyncPath>,
    layout: Arc<MemoryLayout>,
    stats: CacheStats,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    tel: Telemetry,
}

impl DnvL1 {
    /// Creates an empty L1 for core `id`. `backoff_enabled` selects
    /// DeNovoSync (true) vs DeNovoSync0 (false).
    pub fn new(
        id: CoreId,
        geometry: CacheGeometry,
        banks: usize,
        backoff_cfg: BackoffConfig,
        backoff_enabled: bool,
        layout: Arc<MemoryLayout>,
    ) -> Self {
        DnvL1 {
            id,
            banks,
            cache: CacheArray::new(geometry),
            mshr: Mshr::unbounded(),
            backoff: BackoffUnit::new(backoff_cfg, backoff_enabled),
            watch: None,
            sync: None,
            layout,
            stats: CacheStats::new(),
            tel: Telemetry::off(),
        }
    }

    /// Enables the GCS sync-path policy: sync-classification handling, the
    /// predictor, remote watches and the notify buffer.
    pub fn with_sync_path(mut self) -> Self {
        self.sync = Some(SyncPath {
            predictor: SyncPredictor::new(SyncPredictor::DEFAULT_SLOTS),
            remote_watch: None,
            notify_buf: None,
        });
        self
    }

    /// Attaches a telemetry handle (word-state transitions, registrations,
    /// MSHR occupancy).
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
        word: WordAddr,
        from: &'static str,
        to: &'static str,
        cause: &'static str,
    ) {
        let kind = EventKind::Transition { from, to, cause };
        self.tel
            .emit_now(self.id as u32, Component::L1, word.telemetry_key(), kind);
    }

    /// Cache-access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The backoff unit (diagnostics / ablation reporting).
    pub fn backoff(&self) -> &BackoffUnit {
        &self.backoff
    }

    /// Sets the spin-watched word.
    pub fn set_watch(&mut self, word: WordAddr) {
        self.watch = Some(word);
    }

    /// Clears the spin watch.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// Whether the sync-path policy predicts `word` is sync-classified at
    /// its bank (always false without the policy).
    pub fn predicts_sync(&self, word: WordAddr) -> bool {
        self.sync
            .as_ref()
            .is_some_and(|s| s.predictor.contains(word))
    }

    /// Records `word` as sync-classified (idempotent) and emits the
    /// data→sync classification transition the first time.
    fn learn(&mut self, word: WordAddr, cause: &'static str) {
        let Some(sync) = self.sync.as_mut() else {
            return;
        };
        let known = sync.predictor.contains(word);
        sync.predictor.insert(word);
        if !known {
            self.emit_transition(word, "data", "sync", cause);
        }
    }

    /// Arms a level-triggered remote watch for a classified word and sends
    /// the `SyncWatch` to the home bank. `seen` is the value the failed
    /// spin observed — the bank notifies immediately if it already differs.
    /// A no-op without the sync-path policy.
    pub fn start_remote_watch(&mut self, word: WordAddr, seen: u64, actions: &mut Vec<Action>) {
        let Some(sync) = self.sync.as_mut() else {
            return;
        };
        sync.remote_watch = Some((word, seen));
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::SyncWatch {
                word,
                req: self.id,
                seen,
            }),
        });
    }

    /// The word this L1 is remote-watching, if any (invariant checking).
    pub fn remote_watch_word(&self) -> Option<WordAddr> {
        self.sync.as_ref()?.remote_watch.map(|(w, _)| w)
    }

    /// Whether a synchronization read of `word` would hit right now (the
    /// word is Registered with no writeback pending) — used by the system to
    /// decide between watching and re-issuing a failed spin.
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

    /// Whether a forwarded registration transfer is parked on `word`'s MSHR
    /// entry — the in-L1 link of the distributed registration queue.
    pub fn has_parked_xfer(&self, word: WordAddr) -> bool {
        self.mshr
            .get(&word)
            .is_some_and(|p| p.parked_xfer.is_some())
    }

    /// Whether a bank recall is parked on `word`'s MSHR entry.
    pub fn has_parked_recall(&self, word: WordAddr) -> bool {
        self.mshr.get(&word).is_some_and(|p| p.parked_recall)
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
                if let Some((c, class)) = p.parked_xfer {
                    desc.push_str(&format!(", parked xfer to core {c} ({class:?})"));
                }
                if p.parked_recall {
                    desc.push_str(", parked recall");
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

    fn home(&self, word: WordAddr) -> Endpoint {
        Endpoint::Bank(home_bank(word.line(), self.banks))
    }

    fn word_mut(&mut self, word: WordAddr) -> Option<&mut DnvWord> {
        self.cache
            .get_mut(word.line())
            .map(|l| &mut l.words[word.index_in_line()])
    }

    /// Allocates the MSHR entry for a sync-path operation and sends it.
    fn start_sync_op(
        &mut self,
        word: WordAddr,
        op: GcsOpKind,
        data_store: bool,
        actions: &mut Vec<Action>,
    ) {
        let pend = Pend::new(PendKind::SyncWait { op, data_store });
        self.mshr.try_insert(word, pend).expect("fresh mshr");
        self.send_sync_op(word, op, actions);
    }

    fn send_sync_op(&self, word: WordAddr, op: GcsOpKind, actions: &mut Vec<Action>) {
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::SyncOp {
                word,
                req: self.id,
                op,
            }),
        });
    }

    /// Allocates the MSHR entry for a registering miss and sends its
    /// request: a `SyncOp` down the sync path when a synchronization access
    /// targets a word predicted classified, otherwise a registration.
    fn issue_registration(&mut self, word: WordAddr, kind: PendKind, actions: &mut Vec<Action>) {
        match kind.sync_op().filter(|_| self.predicts_sync(word)) {
            Some(op) => self.start_sync_op(word, op, false, actions),
            None => {
                self.mshr
                    .try_insert(word, Pend::new(kind))
                    .expect("fresh mshr");
                actions.push(Action::Send {
                    to: self.home(word),
                    msg: Msg::Dnv(DnvMsg::RegReq {
                        word,
                        req: self.id,
                        class: kind.reg_class(),
                    }),
                });
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
        actions: &mut Vec<Action>,
    ) -> IssueResult {
        let word = req.addr.word();
        match req.kind {
            AccessKind::DataLoad => {
                if let Some(Pend { kind, .. }) = self.mshr.get(&word) {
                    match kind {
                        PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                            return IssueResult::Blocked
                        }
                        PendKind::Write => { /* word is Registered locally: falls through to hit */
                        }
                        other => unreachable!("data load with own {other:?} pending"),
                    }
                }
                match self.word_state(word) {
                    WState::Valid | WState::Registered => {
                        let value = self.word_mut(word).expect("resident").value;
                        self.note_hit(req.kind);
                        IssueResult::Hit { value: Some(value) }
                    }
                    WState::Invalid => {
                        self.note_miss(req.kind);
                        self.mshr
                            .try_insert(word, Pend::new(PendKind::Read))
                            .expect("fresh mshr");
                        actions.push(Action::Send {
                            to: self.home(word),
                            msg: Msg::Dnv(DnvMsg::ReadReq { word, req: self.id }),
                        });
                        IssueResult::Miss
                    }
                }
            }
            AccessKind::DataStore { value } => {
                if let Some(Pend { kind, .. }) = self.mshr.get(&word) {
                    match kind {
                        PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                            return IssueResult::Blocked
                        }
                        PendKind::Write => {
                            // Previous store's registration still in flight;
                            // the word is Registered locally — just update.
                            self.word_mut(word).expect("registered word").value = value;
                            self.note_hit(req.kind);
                            return IssueResult::StoreAccepted { completed: true };
                        }
                        other => unreachable!("data store with own {other:?} pending"),
                    }
                }
                if self.word_state(word) == WState::Registered {
                    self.word_mut(word).expect("resident").value = value;
                    self.note_hit(req.kind);
                    return IssueResult::StoreAccepted { completed: true };
                }
                if self.predicts_sync(word) {
                    // Classified words cannot be registered here: execute
                    // the store at the bank.
                    self.note_miss(req.kind);
                    self.start_sync_op(word, GcsOpKind::Store { value }, true, actions);
                    return IssueResult::StoreAccepted { completed: false };
                }
                // Immediate transition to Registered + registration request
                // (no transient state — the paper's write path).
                if !self.ensure_line(word.line(), actions) {
                    return IssueResult::Blocked;
                }
                self.note_miss(req.kind);
                let w = self.word_mut(word).expect("line just ensured");
                let from = w.state.label();
                w.state = WState::Registered;
                w.value = value;
                self.emit_transition(word, from, "R", "store");
                self.issue_registration(word, PendKind::Write, actions);
                IssueResult::StoreAccepted { completed: false }
            }
            // Synchronization accesses complete locally on a Registered
            // word; otherwise they register (or, predicted classified,
            // execute at the bank).
            kind => {
                let pend = match kind {
                    AccessKind::SyncStore { value } => PendKind::SyncWrite { value },
                    AccessKind::SyncRmw(op) => PendKind::Rmw { op },
                    _ => PendKind::SyncRead,
                };
                // A targeted notification answers the re-issued spin load
                // without touching the network.
                let notified = self
                    .sync
                    .as_mut()
                    .filter(|_| pend == PendKind::SyncRead)
                    .and_then(|s| s.notify_buf.take_if(|&mut (w, _)| w == word));
                if let Some((_, v)) = notified {
                    self.note_hit(kind);
                    return IssueResult::Hit { value: Some(v) };
                }
                if self.mshr.contains(&word) {
                    return IssueResult::Blocked; // writeback handshake in flight
                }
                let state = self.word_state(word);
                if state == WState::Registered {
                    let w = self.word_mut(word).expect("resident");
                    let old = w.value;
                    let (new, result) = match pend {
                        PendKind::SyncWrite { value } => (value, None),
                        PendKind::Rmw { op } => (op.apply(old), Some(old)),
                        _ => (old, Some(old)),
                    };
                    w.value = new;
                    if result.is_some() {
                        self.backoff.on_sync_hit();
                    } else {
                        self.backoff.on_release();
                    }
                    self.note_hit(kind);
                    return IssueResult::Hit { value: result };
                }
                // DeNovoSync: a sync read to Valid state triggers backoff.
                let delay = self.backoff.current();
                if pend == PendKind::SyncRead
                    && state == WState::Valid
                    && !after_backoff
                    && delay > 0
                {
                    return IssueResult::Backoff { cycles: delay };
                }
                self.note_miss(kind);
                self.issue_registration(word, pend, actions);
                IssueResult::Miss
            }
        }
    }

    /// Handles an incoming data-path (DeNovo) message.
    pub fn on_msg(&mut self, msg: DnvMsg, actions: &mut Vec<Action>) {
        match msg {
            DnvMsg::ReadReq { word, req } => {
                // A data read forwarded by the registry: we are (or were
                // about to become) the registrant.
                if let Some(pend) = self.mshr.get_mut(&word) {
                    if !matches!(pend.kind, PendKind::Write) {
                        pend.parked_reads.push(req);
                        return;
                    }
                }
                if self.word_state(word) != WState::Registered {
                    actions.push(Action::violation(format!(
                        "L1 {}: forwarded read for unregistered word {word}",
                        self.id
                    )));
                    return;
                }
                // DeNovo transfers data at line granularity: piggy-back the
                // line's other words registered here (they are equally
                // current), cutting the forwarded-read count for data that
                // was written together (original DeNovo [10]).
                let line = self
                    .cache
                    .get(word.line())
                    .expect("registered word resident");
                let idx = word.index_in_line();
                let value = line.words[idx].value;
                let mut mask = 0u8;
                let mut data = [0u64; WORDS_PER_LINE];
                for (i, w) in line.words.iter().enumerate() {
                    if i != idx && w.state == WState::Registered {
                        mask |= 1 << i;
                        data[i] = w.value;
                    }
                }
                let fill = (mask != 0).then_some((mask, data));
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Dnv(DnvMsg::ReadResp { word, value, fill }),
                });
            }
            DnvMsg::Xfer {
                word,
                new_owner,
                class,
            } => {
                if let Some(pend) = self.mshr.get_mut(&word) {
                    if matches!(pend.kind, PendKind::SyncWait { .. }) {
                        // The bank never re-points a classified word.
                        actions.push(Action::violation(format!(
                            "L1 {}: transfer for classified word {word}",
                            self.id
                        )));
                        return;
                    }
                    if let PendKind::Wb {
                        value,
                        nacked: true,
                    } = pend.kind
                    {
                        // The registry refused our writeback because this
                        // transfer was already on its way: serve and drop.
                        self.finish_refused_writeback(word, value, new_owner, class, actions);
                        return;
                    }
                    if pend.has_parked_successor() {
                        actions.push(Action::violation(format!(
                            "L1: second transfer parked on one registration for {word}"
                        )));
                        return;
                    }
                    pend.parked_xfer = Some((new_owner, class));
                    return;
                }
                match self.downgrade(word, Some(class), actions) {
                    Some(value) => Self::send_reg_ack(word, value, new_owner, class, actions),
                    None => actions.push(Action::violation(format!(
                        "L1 {}: transfer for unregistered word {word}",
                        self.id
                    ))),
                }
            }
            DnvMsg::ReadResp { word, value, fill } => {
                let Some(pend) = self.mshr.remove(&word) else {
                    actions.push(Action::violation(format!(
                        "L1 {}: ReadResp without pending read for {word}",
                        self.id
                    )));
                    return;
                };
                if !matches!(pend.kind, PendKind::Read) {
                    actions.push(Action::violation(format!(
                        "L1 {}: ReadResp for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                    return;
                }
                if self.ensure_line(word.line(), actions) {
                    let w = self.word_mut(word).expect("line ensured");
                    if w.state == WState::Invalid {
                        w.state = WState::Valid;
                        w.value = value;
                    }
                    if let Some((mask, data)) = fill {
                        self.fill_line(word.line(), mask, &data);
                    }
                }
                // (If no way could be freed, deliver uncached — reads take
                // no ownership, so nothing else is required.)
                actions.push(Action::CoreDone { value: Some(value) });
            }
            DnvMsg::RegAck { word, value, .. } => self.on_reg_ack(word, value, actions),
            DnvMsg::WbAck { word } => {
                let Some(pend) = self.mshr.remove(&word) else {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck without writeback for {word}",
                        self.id
                    )));
                    return;
                };
                let PendKind::Wb { value, nacked } = pend.kind else {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                    return;
                };
                if nacked {
                    actions.push(Action::violation(format!(
                        "L1 {}: WbAck for {word} after WbNack",
                        self.id
                    )));
                    return;
                }
                if pend.parked_xfer.is_some() {
                    actions.push(Action::violation(format!(
                        "L1 {}: registry acked a writeback of {word} with a transfer outstanding",
                        self.id
                    )));
                    return;
                }
                self.serve_reads(word, value, &pend.parked_reads, actions);
            }
            DnvMsg::WbNack { word } => {
                let Some(pend) = self.mshr.get_mut(&word) else {
                    actions.push(Action::violation(format!(
                        "L1: WbNack without writeback for {word}"
                    )));
                    return;
                };
                let PendKind::Wb { value, .. } = pend.kind else {
                    let kind = pend.kind;
                    actions.push(Action::violation(format!(
                        "L1: WbNack for {word} with {kind:?} pending"
                    )));
                    return;
                };
                if let Some((new_owner, class)) = pend.parked_xfer {
                    self.finish_refused_writeback(word, value, new_owner, class, actions);
                } else {
                    pend.kind = PendKind::Wb {
                        value,
                        nacked: true,
                    };
                }
            }
            other => actions.push(Action::violation(format!(
                "L1 {} cannot handle {other:?}",
                self.id
            ))),
        }
    }

    /// Handles an incoming sync-path (GCS) message. Without the sync-path
    /// policy every such message is a protocol violation.
    pub fn on_gcs(&mut self, msg: GcsMsg, actions: &mut Vec<Action>) {
        match msg {
            GcsMsg::Classified { word } if self.sync.is_some() => self.on_classified(word, actions),
            GcsMsg::SyncResp { word, value } if self.sync.is_some() => {
                self.on_sync_resp(word, value, actions)
            }
            GcsMsg::SyncNotify { word, value } if self.sync.is_some() => {
                self.learn(word, "SyncNotify");
                let sync = self.sync.as_mut().expect("guarded above");
                if sync.remote_watch.map(|(w, _)| w) == Some(word) {
                    sync.remote_watch = None;
                    sync.notify_buf = Some((word, value));
                    actions.push(Action::SpinWake);
                } else {
                    actions.push(Action::violation(format!(
                        "L1 {}: SyncNotify for {word} without a remote watch",
                        self.id
                    )));
                }
            }
            GcsMsg::Recall { word } if self.sync.is_some() => self.on_recall(word, actions),
            other => actions.push(Action::violation(format!(
                "L1 {} cannot handle {other:?}",
                self.id
            ))),
        }
    }

    /// The bank rejected our optimistic registration: the word is
    /// sync-classified. Convert the pending access to the sync path.
    fn on_classified(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        self.learn(word, "Classified");
        let Some(pend) = self.mshr.get(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: Classified without pending registration for {word}",
                self.id
            )));
            return;
        };
        if pend.has_parked_successor() {
            actions.push(Action::violation(format!(
                "L1 {}: Classified for {word} with a parked transfer or recall",
                self.id
            )));
            return;
        }
        let (op, data_store) = match (pend.kind, pend.kind.sync_op()) {
            (_, Some(op)) => (op, false),
            (PendKind::Write, None) => {
                // The optimistic store set the word Registered locally; the
                // bank owns classified words, so undo and re-execute there.
                let value = self
                    .word_mut(word)
                    .filter(|w| w.state == WState::Registered)
                    .map(|w| {
                        w.state = WState::Invalid;
                        w.value
                    })
                    .expect("write-registered word resident");
                self.emit_transition(word, "R", "I", "Classified");
                (GcsOpKind::Store { value }, true)
            }
            (other, None) => {
                actions.push(Action::violation(format!(
                    "L1 {}: Classified for {word} with {other:?} pending",
                    self.id
                )));
                return;
            }
        };
        let pend = self.mshr.get_mut(&word).expect("checked above");
        pend.kind = PendKind::SyncWait { op, data_store };
        self.send_sync_op(word, op, actions);
    }

    /// The bank executed our `SyncOp`.
    fn on_sync_resp(&mut self, word: WordAddr, value: u64, actions: &mut Vec<Action>) {
        let Some(pend) = self.mshr.remove(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: SyncResp without pending sync op for {word}",
                self.id
            )));
            return;
        };
        let PendKind::SyncWait { op, data_store } = pend.kind else {
            actions.push(Action::violation(format!(
                "L1 {}: SyncResp for {word} with {:?} pending",
                self.id, pend.kind
            )));
            return;
        };
        // (Nothing parks on a sync-path entry: transfers and recalls for it
        // are violations, and conversion requires an empty successor slot.)
        // `value` is the loaded value, the RMW's old value (the new one is
        // recomputed locally for parked readers), or the stored value.
        let (stored, done) = match op {
            GcsOpKind::Load => (value, Action::CoreDone { value: Some(value) }),
            GcsOpKind::Store { value: v } if data_store => (v, Action::StoresDone { count: 1 }),
            GcsOpKind::Store { value: v } => (v, Action::CoreDone { value: None }),
            GcsOpKind::Rmw(rmw) => (rmw.apply(value), Action::CoreDone { value: Some(value) }),
        };
        actions.push(done);
        // Keep any stale Valid copy program-order consistent with our own
        // completed operation.
        if let Some(w) = self.word_mut(word) {
            if w.state == WState::Valid {
                w.value = stored;
            }
        }
        self.serve_reads(word, stored, &pend.parked_reads, actions);
    }

    /// The bank reclaims a newly classified word we are registered for.
    fn on_recall(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        self.learn(word, "Recall");
        if let Some(pend) = self.mshr.get_mut(&word) {
            match pend.kind {
                // Our writeback is already in flight; the bank accepts it
                // as the recall return.
                PendKind::Wb { .. } => {}
                PendKind::SyncRead
                | PendKind::SyncWrite { .. }
                | PendKind::Rmw { .. }
                | PendKind::Write => {
                    if pend.has_parked_successor() {
                        actions.push(Action::violation(format!(
                            "L1 {}: second recall/transfer parked for {word}",
                            self.id
                        )));
                        return;
                    }
                    pend.parked_recall = true;
                }
                PendKind::Read | PendKind::SyncWait { .. } => {
                    actions.push(Action::violation(format!(
                        "L1 {}: Recall for {word} with {:?} pending",
                        self.id, pend.kind
                    )));
                }
            }
            return;
        }
        // `None` when ownership had already moved on (our writeback raced
        // ahead): answer empty; the bank ignores stale acks.
        let value = self.downgrade(word, None, actions);
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Gcs(GcsMsg::RecallAck {
                word,
                from: self.id,
                value,
            }),
        });
    }

    /// Our own registration was acknowledged: perform the operation, then
    /// serve anything that parked behind us in the distributed queue.
    fn on_reg_ack(&mut self, word: WordAddr, ack_value: u64, actions: &mut Vec<Action>) {
        let Some(pend) = self.mshr.remove(&word) else {
            actions.push(Action::violation(format!(
                "L1 {}: RegAck without registration for {word}",
                self.id
            )));
            return;
        };
        let cached = self.ensure_line(word.line(), actions);
        // The value this core now owns, and how the access completes.
        let (owned_value, done) = match pend.kind {
            // The word was already Registered locally with our value; the
            // ack just retires the store.
            PendKind::Write => (
                self.word_mut(word)
                    .map(|w| w.value)
                    .expect("write-registered word resident"),
                Action::StoresDone { count: 1 },
            ),
            PendKind::SyncRead => (
                ack_value,
                Action::CoreDone {
                    value: Some(ack_value),
                },
            ),
            PendKind::SyncWrite { value } => {
                self.backoff.on_release();
                (value, Action::CoreDone { value: None })
            }
            PendKind::Rmw { op } => (
                op.apply(ack_value),
                Action::CoreDone {
                    value: Some(ack_value),
                },
            ),
            PendKind::Read | PendKind::Wb { .. } | PendKind::SyncWait { .. } => {
                actions.push(Action::violation(format!(
                    "L1 {}: RegAck for {word} with {:?} pending",
                    self.id, pend.kind
                )));
                return;
            }
        };
        if cached && pend.kind != PendKind::Write {
            let w = self.word_mut(word).expect("line ensured");
            let from = w.state.label();
            *w = DnvWord {
                state: WState::Registered,
                value: owned_value,
            };
            self.emit_transition(word, from, "R", "RegAck");
        }
        actions.push(done);
        // Serve parked forwarded reads with the post-operation value (they
        // were serialized after our registration).
        self.serve_reads(word, owned_value, &pend.parked_reads, actions);
        if !pend.has_parked_successor() {
            if !cached {
                // We are the registrant but could not cache the word: hand
                // the value straight back to the registry.
                self.start_writeback(word, owned_value, actions);
            }
            return;
        }
        // Then the parked successor: ownership moves on to the next
        // registrant, or — the word was classified while our registration
        // was in flight — surrenders to the bank.
        let xfer = pend.parked_xfer.filter(|_| !pend.parked_recall);
        let value = if cached {
            // The ack just (re-)registered the word here, so the downgrade
            // cannot miss.
            self.downgrade(word, xfer.map(|(_, class)| class), actions)
                .expect("word registered by this ack")
        } else {
            owned_value
        };
        match xfer {
            Some((new_owner, class)) => Self::send_reg_ack(word, value, new_owner, class, actions),
            None => {
                self.learn(word, "Recall");
                actions.push(Action::Send {
                    to: self.home(word),
                    msg: Msg::Gcs(GcsMsg::RecallAck {
                        word,
                        from: self.id,
                        value: Some(value),
                    }),
                });
            }
        }
    }

    /// Hands a registered word's value to the next registrant.
    fn send_reg_ack(
        word: WordAddr,
        value: u64,
        new_owner: CoreId,
        class: XferClass,
        actions: &mut Vec<Action>,
    ) {
        actions.push(Action::Send {
            to: Endpoint::L1(new_owner),
            msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
        });
    }

    /// Starts the writeback handshake for a registered word this L1 is
    /// giving up, holding its value until the registry answers.
    fn start_writeback(&mut self, word: WordAddr, value: u64, actions: &mut Vec<Action>) {
        let pend = Pend::new(PendKind::Wb {
            value,
            nacked: false,
        });
        self.mshr.try_insert(word, pend).expect("word unpinned");
        actions.push(Action::Send {
            to: self.home(word),
            msg: Msg::Dnv(DnvMsg::WbReq {
                word,
                value,
                from: self.id,
            }),
        });
    }

    /// A refused writeback met its in-flight transfer: serve the parked
    /// reads and the new registrant from the held value, then drop the word.
    fn finish_refused_writeback(
        &mut self,
        word: WordAddr,
        value: u64,
        new_owner: CoreId,
        class: XferClass,
        actions: &mut Vec<Action>,
    ) {
        let pend = self.mshr.remove(&word).expect("writeback pending");
        self.serve_reads(word, value, &pend.parked_reads, actions);
        Self::send_reg_ack(word, value, new_owner, class, actions);
    }

    /// Downgrades a Registered word for an outgoing transfer (`class`) or a
    /// bank recall (`None`), returning its value (`None` if the word is not
    /// actually Registered here). Synchronization reads under DeNovoSync
    /// leave a Valid copy (the backoff trigger) and bump the counter;
    /// everything else invalidates.
    fn downgrade(
        &mut self,
        word: WordAddr,
        class: Option<XferClass>,
        actions: &mut Vec<Action>,
    ) -> Option<u64> {
        let sync_read = class == Some(XferClass::SyncRead);
        let keep_valid = sync_read && self.backoff.is_enabled();
        if sync_read {
            self.backoff.on_remote_sync_read();
        }
        let w = self
            .word_mut(word)
            .filter(|w| w.state == WState::Registered)?;
        let value = w.value;
        w.state = if keep_valid {
            WState::Valid
        } else {
            WState::Invalid
        };
        let cause = if class.is_some() { "Xfer" } else { "Recall" };
        self.emit_transition(word, "R", if keep_valid { "V" } else { "I" }, cause);
        if self.watch == Some(word) {
            actions.push(Action::SpinWake);
        }
        Some(value)
    }

    fn serve_reads(
        &self,
        word: WordAddr,
        value: u64,
        readers: &[CoreId],
        actions: &mut Vec<Action>,
    ) {
        for &r in readers {
            actions.push(Action::Send {
                to: Endpoint::L1(r),
                msg: Msg::Dnv(DnvMsg::ReadResp {
                    word,
                    value,
                    fill: None,
                }),
            });
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
    fn ensure_line(&mut self, line: LineAddr, actions: &mut Vec<Action>) -> bool {
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

    fn note_hit(&mut self, kind: AccessKind) {
        count_access(&mut self.stats, kind, true);
    }

    fn note_miss(&mut self, kind: AccessKind) {
        count_access(&mut self.stats, kind, false);
    }
}

/// Canonical hash for model checking: every field that influences future
/// protocol behaviour. `stats` (counters) and `layout` (immutable, shared)
/// are excluded.
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
mod tests {
    use super::*;
    use dvs_mem::{Addr, LayoutBuilder};

    fn layout() -> Arc<MemoryLayout> {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 16, r);
        Arc::new(b.build())
    }

    fn l1(enabled: bool) -> DnvL1 {
        DnvL1::new(
            0,
            CacheGeometry::new(1024, 2),
            4,
            BackoffConfig::cores16(),
            enabled,
            layout(),
        )
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
        l1(false).with_sync_path()
    }

    #[test]
    fn sync_read_always_misses_unless_registered() {
        let mut l1 = l1(false);
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
            let mut acts = Vec::new();
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
            if enabled {
                assert!(l1.backoff().current() > 0, "backoff must have grown");
            }
        }
    }

    #[test]
    fn sync_read_to_valid_backs_off_then_misses() {
        let mut l1 = l1(true);
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 0,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        l1.set_watch(word(0x100));
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

    // --- sync-path policy (GCS) ----------------------------------------

    #[test]
    fn unclassified_sync_access_registers_optimistically() {
        let mut l1 = gcs_l1();
        let mut acts = Vec::new();
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
        let mut acts = Vec::new();
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        assert!(l1.predicts_sync(word(0x100)));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncOp {
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        // The bank executed the RMW on old value 10: core sees 10.
        l1.on_gcs(
            GcsMsg::SyncResp {
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
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        acts.clear();
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        l1.on_gcs(
            GcsMsg::SyncResp {
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
                msg: Msg::Gcs(GcsMsg::SyncOp {
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
        let mut acts = Vec::new();
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
        l1.on_gcs(GcsMsg::Classified { word: word(0x100) }, &mut acts);
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncOp {
                    op: GcsOpKind::Store { value: 5 },
                    ..
                }),
                ..
            }
        )));
        acts.clear();
        l1.on_gcs(
            GcsMsg::SyncResp {
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
        let mut acts = Vec::new();
        l1.core_request(&req(0x100, AccessKind::SyncLoad), false, &mut acts);
        l1.on_msg(
            DnvMsg::RegAck {
                word: word(0x100),
                value: 3,
                class: XferClass::SyncRead,
            },
            &mut acts,
        );
        l1.set_watch(word(0x100));
        acts.clear();
        l1.on_gcs(GcsMsg::Recall { word: word(0x100) }, &mut acts);
        assert!(acts.contains(&Action::SpinWake));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Msg::Gcs(GcsMsg::RecallAck { value: Some(3), .. }),
                ..
            }
        )));
        assert_eq!(l1.word_state(word(0x100)), WState::Invalid);
        assert!(l1.predicts_sync(word(0x100)));
    }

    #[test]
    fn recall_parks_on_inflight_registration_and_serves_after_ack() {
        let mut l1 = gcs_l1();
        let mut acts = Vec::new();
        l1.core_request(
            &req(0x100, AccessKind::SyncRmw(RmwOp::Fai { delta: 1 })),
            false,
            &mut acts,
        );
        acts.clear();
        l1.on_gcs(GcsMsg::Recall { word: word(0x100) }, &mut acts);
        assert!(acts.is_empty(), "recall must park: {acts:?}");
        assert!(l1.has_parked_recall(word(0x100)));
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
                msg: Msg::Gcs(GcsMsg::RecallAck {
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
        let mut acts = Vec::new();
        l1.start_remote_watch(word(0x100), 0, &mut acts);
        assert!(matches!(
            acts[0],
            Action::Send {
                msg: Msg::Gcs(GcsMsg::SyncWatch { seen: 0, .. }),
                ..
            }
        ));
        acts.clear();
        l1.on_gcs(
            GcsMsg::SyncNotify {
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
        let mut acts = Vec::new();
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
        l1.on_gcs(GcsMsg::Recall { word: word(0x200) }, &mut acts);
        assert!(acts.is_empty(), "{acts:?}");
        l1.on_msg(DnvMsg::WbAck { word: word(0x200) }, &mut acts);
        assert_eq!(l1.peek_registered(word(0x200)), None);
    }
}
