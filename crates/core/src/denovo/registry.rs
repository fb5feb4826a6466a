//! The DeNovo registry: the L2 bank's word-granularity ownership tracker.
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
//! GCS adds a **sync-path directory** ([`DnvRegistry::with_sync_path`]):
//! when two cores contend for a word with synchronization accesses (a
//! sync-class registration hits a word registered elsewhere, or a
//! `SyncOp`/`SyncWatch` arrives), the bank *classifies* the word as a sync
//! variable — permanently. Classified words always live at the bank
//! (`Valid`); sync operations execute here atomically ([`GcsMsg::SyncOp`]),
//! spinners park in a per-word waiter set ([`GcsMsg::SyncWatch`]), and every
//! value change pushes targeted [`GcsMsg::SyncNotify`] wakeups — no
//! writer-initiated invalidations, no broadcast. Unclassified words take the
//! ordinary registry path.
//!
//! Classifying a currently-registered word runs a recall handshake: the
//! bank sends [`GcsMsg::Recall`], parks everything that arrives for the
//! word, and settles when the value comes back (via [`GcsMsg::RecallAck`]
//! or a crossing writeback, whichever wins the race).

use crate::config::ProtocolMutation;
use crate::coreset::CoreSet;
use crate::msg::{BankId, CoreId, DnvMsg, Endpoint, GcsMsg, GcsOpKind, LineData, Msg, XferClass};
use crate::proto::Action;
use dvs_mem::{LineAddr, MemoryLayout, SpanMap, WordAddr, LINE_BYTES, WORDS_PER_LINE};
use dvs_stats::TrafficClass;
use dvs_telemetry::{Component, EventKind, Telemetry, TelemetryKey};
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
#[derive(Debug, Clone, Hash)]
struct SyncEntry {
    /// Cores to wake on the next value change.
    waiters: CoreSet,
    /// A recall handshake is reclaiming the word from its registrant.
    recalling: bool,
    /// Messages parked while recalling; drained FIFO once settled.
    pending: VecDeque<Msg>,
}

impl SyncEntry {
    fn new(recalling: bool) -> Self {
        SyncEntry {
            waiters: CoreSet::default(),
            recalling,
            pending: VecDeque::new(),
        }
    }
}

/// One L2 bank's slice of the registry.
#[derive(Debug, Clone)]
pub struct DnvRegistry {
    bank: BankId,
    mem: Endpoint,
    lines: SpanMap<RegLine>,
    /// The GCS sync-path directory: sync-classified words homed here
    /// (sticky; sorted for the canonical hash). `None` for DeNovoSync0 /
    /// DeNovoSync.
    sync: Option<BTreeMap<WordAddr, SyncEntry>>,
    mutation: Option<ProtocolMutation>,
    /// Targeted wakeup notifications sent (metric).
    notifies: u64,
    /// Recall handshakes started (metric).
    recalls: u64,
    /// Observability only — excluded from `Hash`, never affects behaviour.
    tel: Telemetry,
}

impl DnvRegistry {
    /// Creates an empty bank. `mem` is the memory-controller endpoint this
    /// bank fetches lines through.
    pub fn new(bank: BankId, mem: Endpoint) -> Self {
        DnvRegistry {
            bank,
            mem,
            lines: SpanMap::sparse_only(),
            sync: None,
            mutation: None,
            notifies: 0,
            recalls: 0,
            tel: Telemetry::off(),
        }
    }

    /// Enables the GCS sync-path directory (classification, bank-side sync
    /// operations, waiter sets and notification).
    pub fn with_sync_path(mut self) -> Self {
        self.sync = Some(BTreeMap::new());
        self
    }

    /// Whether the sync-path directory is enabled (GCS).
    pub fn has_sync_path(&self) -> bool {
        self.sync.is_some()
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

    /// Attaches a telemetry handle (registration re-points).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Emits a [`EventKind::Registration`]: the registry pointer for `word`
    /// moved to `owner` (from `prev`, or `u32::MAX` when the registry itself
    /// held the value).
    fn emit_registration(&self, word: WordAddr, owner: CoreId, prev: Option<CoreId>) {
        let kind = EventKind::Registration {
            owner: owner as u32,
            prev: prev.map_or(u32::MAX, |p| p as u32),
        };
        self.tel
            .emit_now(self.bank as u32, Component::Dir, word.telemetry_key(), kind);
    }

    /// Arms a seeded protocol bug (negative testing; see
    /// [`ProtocolMutation`]).
    pub fn set_mutation(&mut self, mutation: Option<ProtocolMutation>) {
        self.mutation = mutation;
    }

    /// Targeted wakeup notifications sent so far.
    pub fn notifies(&self) -> u64 {
        self.notifies
    }

    /// Recall handshakes started so far.
    pub fn recalls(&self) -> u64 {
        self.recalls
    }

    /// The registry state of a word, if its line has been touched.
    pub fn word(&self, word: WordAddr) -> Option<RegWord> {
        let line = self.lines.get(word.line().raw())?;
        line.has_data.then_some(line.words[word.index_in_line()])
    }

    fn sync_entry(&self, word: WordAddr) -> Option<&SyncEntry> {
        self.sync.as_ref()?.get(&word)
    }

    fn sync_entry_mut(&mut self, word: WordAddr) -> &mut SyncEntry {
        self.sync
            .as_mut()
            .and_then(|s| s.get_mut(&word))
            .expect("classified entry")
    }

    /// Whether `word` is sync-classified at this bank.
    pub fn classified(&self, word: WordAddr) -> bool {
        self.sync_entry(word).is_some()
    }

    /// Iterates every sync-classified word homed here.
    pub fn classified_words(&self) -> impl Iterator<Item = WordAddr> + '_ {
        self.sync.iter().flat_map(|s| s.keys().copied())
    }

    /// Whether a recall handshake is in flight for `word`.
    pub fn recalling(&self, word: WordAddr) -> bool {
        self.sync_entry(word).is_some_and(|e| e.recalling)
    }

    /// The cores currently parked in `word`'s waiter set.
    pub fn waiters_of(&self, word: WordAddr) -> Vec<CoreId> {
        self.sync_entry(word)
            .map_or_else(Vec::new, |e| e.waiters.iter().collect())
    }

    /// Total parked waiters across all classified words.
    pub fn waiter_count(&self) -> usize {
        self.sync
            .iter()
            .flat_map(|s| s.values())
            .map(|e| e.waiters.len())
            .sum()
    }

    /// Number of words currently registered to some L1 (diagnostics; the
    /// registry's entire "sharer state" is this one pointer per word).
    pub fn registered_words(&self) -> usize {
        self.registrations().count()
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
        self.sync
            .iter()
            .flat_map(|s| s.values())
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
                self.sync_entry(w)
                    .is_some_and(|e| e.recalling || !e.pending.is_empty())
            })
    }

    /// A one-line human-readable description of a word's registry state, if
    /// its line has been touched (stall diagnostics).
    pub fn describe_word(&self, word: WordAddr) -> Option<String> {
        let e = self.lines.get(word.line().raw())?;
        let mut s = format!(
            "bank {}: {word} {:?} has_data={} fetching={} queued={}",
            self.bank,
            e.words[word.index_in_line()],
            e.has_data,
            e.fetching,
            e.queue.len()
        );
        if let Some(sync) = self.sync_entry(word) {
            s.push_str(&format!(
                " sync[recalling={} waiters={} parked={}]",
                sync.recalling,
                sync.waiters.len(),
                sync.pending.len()
            ));
        }
        Some(s)
    }

    /// Handles one incoming data-path message.
    pub fn on_msg(&mut self, msg: DnvMsg, actions: &mut Vec<Action>) {
        self.arrive(Msg::Dnv(msg), msg.word(), msg.class(), actions);
    }

    /// Handles one incoming sync-path message. Without the sync-path
    /// directory every such message is a protocol violation.
    pub fn on_gcs(&mut self, msg: GcsMsg, actions: &mut Vec<Action>) {
        if self.sync.is_none() {
            actions.push(Action::violation(format!(
                "registry bank {} cannot handle {msg:?}",
                self.bank
            )));
            return;
        }
        self.arrive(Msg::Gcs(msg), msg.word(), msg.class(), actions);
    }

    /// Queues `msg` behind a memory fetch of its line if the line has no
    /// data yet, otherwise handles it now.
    fn arrive(&mut self, msg: Msg, word: WordAddr, class: TrafficClass, actions: &mut Vec<Action>) {
        let line = word.line();
        let entry = self.lines.or_insert_with(line.raw(), RegLine::new);
        if !entry.has_data {
            entry.queue.push_back(msg);
            if !entry.fetching {
                entry.fetching = true;
                actions.push(Action::Send {
                    to: self.mem,
                    msg: Msg::MemRead {
                        line,
                        bank: self.bank,
                        class,
                    },
                });
            }
            return;
        }
        self.dispatch(msg, actions);
    }

    /// Memory returned a line this bank was fetching.
    pub fn on_mem_data(&mut self, line: LineAddr, data: LineData, actions: &mut Vec<Action>) {
        let Some(entry) = self.lines.get_mut(line.raw()) else {
            actions.push(Action::violation(format!(
                "registry bank {}: MemData for unknown line {line}",
                self.bank
            )));
            return;
        };
        if !entry.fetching {
            actions.push(Action::violation(format!(
                "registry bank {}: MemData for {line} that was not being fetched",
                self.bank
            )));
            return;
        }
        for (i, w) in entry.words.iter_mut().enumerate() {
            *w = RegWord::Valid(data[i]);
        }
        entry.has_data = true;
        entry.fetching = false;
        // The registry is non-blocking: drain everything that queued.
        let queued: Vec<Msg> = entry.queue.drain(..).collect();
        for m in queued {
            self.dispatch(m, actions);
        }
    }

    /// Routes a message for a fetched line by its word's classification.
    fn dispatch(&mut self, msg: Msg, actions: &mut Vec<Action>) {
        let word = match msg {
            Msg::Dnv(m) => m.word(),
            Msg::Gcs(m) => m.word(),
            other => {
                actions.push(Action::violation(format!(
                    "registry bank {} cannot handle {other:?}",
                    self.bank
                )));
                return;
            }
        };
        match (self.sync_entry(word).map(|e| e.recalling), msg) {
            // The word is classified; any registration attempt converts.
            (Some(_), Msg::Dnv(DnvMsg::RegReq { req, .. })) => actions.push(Action::Send {
                to: Endpoint::L1(req),
                msg: Msg::Gcs(GcsMsg::Classified { word }),
            }),
            (Some(true), msg) => self.on_recalling(word, msg, actions),
            (Some(false), msg) => self.on_classified(word, msg, actions),
            (None, msg) => self.on_unclassified(word, msg, actions),
        }
    }

    /// Overwrites a word's registry state behind the protocol's back, so
    /// checker tests can corrupt a bank deliberately.
    #[cfg(test)]
    pub(crate) fn force_word(&mut self, word: WordAddr, state: RegWord) {
        *self.word_slot(word) = state;
    }

    fn word_slot(&mut self, word: WordAddr) -> &mut RegWord {
        let entry = self
            .lines
            .get_mut(word.line().raw())
            .expect("line fetched before dispatch");
        &mut entry.words[word.index_in_line()]
    }

    /// The ordinary registry path (every word under DeNovoSync0 /
    /// DeNovoSync; not-yet-classified words under GCS, which classifies on
    /// synchronization contention).
    fn on_unclassified(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        match msg {
            Msg::Dnv(DnvMsg::ReadReq { req, .. }) => match *self.word_slot(word) {
                RegWord::Valid(value) => self.serve_read(word, req, value, actions),
                RegWord::Registered(owner) => {
                    if owner == req {
                        actions.push(Action::violation(format!(
                            "registry bank {}: registrant core {req} data-reading its own \
                             word {word} remotely",
                            self.bank
                        )));
                        return;
                    }
                    actions.push(Action::Send {
                        to: Endpoint::L1(owner),
                        msg: Msg::Dnv(DnvMsg::ReadReq { word, req }),
                    });
                }
            },
            Msg::Dnv(DnvMsg::RegReq { req, class, .. }) => match *self.word_slot(word) {
                RegWord::Valid(value) => {
                    *self.word_slot(word) = RegWord::Registered(req);
                    actions.push(Action::Send {
                        to: Endpoint::L1(req),
                        msg: Msg::Dnv(DnvMsg::RegAck { word, value, class }),
                    });
                    self.emit_registration(word, req, None);
                }
                RegWord::Registered(prev) => {
                    if prev == req {
                        actions.push(Action::violation(format!(
                            "registry bank {}: re-registration of {word} by current \
                             registrant core {req}",
                            self.bank
                        )));
                        return;
                    }
                    if self.sync.is_some()
                        && matches!(class, XferClass::SyncRead | XferClass::SyncWrite)
                    {
                        // Sync-on-sync contention: this is what marks a
                        // word as a synchronization variable.
                        self.classify(word, prev, actions);
                        actions.push(Action::Send {
                            to: Endpoint::L1(req),
                            msg: Msg::Gcs(GcsMsg::Classified { word }),
                        });
                        return;
                    }
                    if self.mutation != Some(ProtocolMutation::DnvSkipRepoint) {
                        *self.word_slot(word) = RegWord::Registered(req);
                    }
                    if self.mutation != Some(ProtocolMutation::DnvDropXfer) {
                        actions.push(Action::Send {
                            to: Endpoint::L1(prev),
                            msg: Msg::Dnv(DnvMsg::Xfer {
                                word,
                                new_owner: req,
                                class,
                            }),
                        });
                    }
                    self.emit_registration(word, req, Some(prev));
                }
            },
            Msg::Dnv(DnvMsg::WbReq { value, from, .. }) => {
                self.writeback(word, value, from, actions);
            }
            // A sync op can only reach an unclassified word when the
            // sender's predictor outlives knowledge this bank never had
            // (fresh bank state in unit tests); classify on demand.
            Msg::Gcs(GcsMsg::SyncOp { req, .. } | GcsMsg::SyncWatch { req, .. }) => {
                match *self.word_slot(word) {
                    RegWord::Registered(owner) => {
                        if owner == req {
                            actions.push(Action::violation(format!(
                                "registry bank {}: sync op for {word} from its own \
                                 registrant core {req}",
                                self.bank
                            )));
                            return;
                        }
                        self.classify(word, owner, actions);
                        self.sync_entry_mut(word).pending.push_back(msg);
                    }
                    RegWord::Valid(_) => {
                        self.insert_classified(word, false);
                        self.on_classified(word, msg, actions);
                    }
                }
            }
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?}",
                self.bank
            ))),
        }
    }

    /// The writeback handshake: accepts the value (returning true) if `from`
    /// is still the registrant; otherwise ownership already moved, a
    /// transfer is on its way to `from`, and the writeback is refused.
    fn writeback(
        &mut self,
        word: WordAddr,
        value: u64,
        from: CoreId,
        actions: &mut Vec<Action>,
    ) -> bool {
        let (reply, accepted) = match *self.word_slot(word) {
            RegWord::Registered(owner) if owner == from => {
                *self.word_slot(word) = RegWord::Valid(value);
                (DnvMsg::WbAck { word }, true)
            }
            RegWord::Registered(_) => (DnvMsg::WbNack { word }, false),
            RegWord::Valid(_) => {
                actions.push(Action::violation(format!(
                    "registry bank {}: writeback for {word}, which the registry already holds",
                    self.bank
                )));
                return false;
            }
        };
        actions.push(Action::Send {
            to: Endpoint::L1(from),
            msg: Msg::Dnv(reply),
        });
        accepted
    }

    /// Serves a data read from the bank, piggy-backing the line's other
    /// valid words (only valid parts travel — DeNovo's traffic advantage).
    fn serve_read(&self, word: WordAddr, req: CoreId, value: u64, actions: &mut Vec<Action>) {
        let entry = self
            .lines
            .get(word.line().raw())
            .expect("line fetched before dispatch");
        let idx = word.index_in_line();
        let mut mask = 0u8;
        let mut data = [0u64; WORDS_PER_LINE];
        for (i, w) in entry.words.iter().enumerate() {
            if i != idx {
                if let RegWord::Valid(v) = *w {
                    mask |= 1 << i;
                    data[i] = v;
                }
            }
        }
        actions.push(Action::Send {
            to: Endpoint::L1(req),
            msg: Msg::Dnv(DnvMsg::ReadResp {
                word,
                value,
                fill: Some((mask, data)),
            }),
        });
    }

    /// Adds `word` to the sync map and emits the data→sync transition.
    fn insert_classified(&mut self, word: WordAddr, recalling: bool) {
        self.sync
            .as_mut()
            .expect("sync path enabled")
            .insert(word, SyncEntry::new(recalling));
        let kind = EventKind::Transition {
            from: "data",
            to: "sync",
            cause: "classify",
        };
        self.tel
            .emit_now(self.bank as u32, Component::Dir, word.telemetry_key(), kind);
    }

    /// Classifies `word` and starts recalling it from its current
    /// registrant.
    fn classify(&mut self, word: WordAddr, registrant: CoreId, actions: &mut Vec<Action>) {
        self.insert_classified(word, true);
        self.recalls += 1;
        actions.push(Action::Send {
            to: Endpoint::L1(registrant),
            msg: Msg::Gcs(GcsMsg::Recall { word }),
        });
    }

    /// A recall handshake is in flight: accept the returning value (a
    /// `RecallAck`, or the registrant's crossing writeback) and park sync
    /// and read traffic. (Registrations are turned away in `dispatch`.)
    fn on_recalling(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        match msg {
            Msg::Dnv(DnvMsg::WbReq { value, from, .. }) => {
                // The registrant's eviction writeback crossed our recall:
                // accept it as the recall return (its L1 drops the recall).
                if self.writeback(word, value, from, actions) {
                    self.settle_recall(word, actions);
                }
            }
            // Only the registrant's answer carrying the value settles it.
            Msg::Gcs(GcsMsg::RecallAck { from, value, .. }) => match (*self.word_slot(word), value)
            {
                (RegWord::Registered(owner), Some(value)) if owner == from => {
                    *self.word_slot(word) = RegWord::Valid(value);
                    self.settle_recall(word, actions);
                }
                (state, value) => actions.push(Action::violation(format!(
                    "registry bank {}: RecallAck {value:?} for {word} from core {from} while \
                     the bank holds it {state:?}",
                    self.bank
                ))),
            },
            Msg::Dnv(DnvMsg::ReadReq { .. })
            | Msg::Gcs(GcsMsg::SyncOp { .. })
            | Msg::Gcs(GcsMsg::SyncWatch { .. }) => {
                self.sync_entry_mut(word).pending.push_back(msg);
            }
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?} while recalling {word}",
                self.bank
            ))),
        }
    }

    fn settle_recall(&mut self, word: WordAddr, actions: &mut Vec<Action>) {
        let entry = self.sync_entry_mut(word);
        entry.recalling = false;
        let pending: Vec<Msg> = entry.pending.drain(..).collect();
        for m in pending {
            self.dispatch(m, actions);
        }
    }

    /// The word is classified and settled at the bank.
    fn on_classified(&mut self, word: WordAddr, msg: Msg, actions: &mut Vec<Action>) {
        let RegWord::Valid(value) = *self.word_slot(word) else {
            actions.push(Action::violation(format!(
                "registry bank {}: classified word {word} registered away",
                self.bank
            )));
            return;
        };
        match msg {
            Msg::Gcs(GcsMsg::SyncOp { req, op, .. }) => {
                self.exec_sync(word, value, req, op, actions)
            }
            Msg::Gcs(GcsMsg::SyncWatch { req, seen, .. }) => {
                self.watch(word, value, req, seen, actions)
            }
            Msg::Dnv(DnvMsg::ReadReq { req, .. }) => self.serve_read(word, req, value, actions),
            // A stale recall answer from a registrant whose writeback had
            // already returned the word; the handshake is long settled.
            Msg::Gcs(GcsMsg::RecallAck { value: None, .. }) => {}
            other => actions.push(Action::violation(format!(
                "registry bank {} cannot handle {other:?} for classified word {word}",
                self.bank
            ))),
        }
    }

    /// Executes a sync operation atomically at the bank on the word's
    /// current value `old`, and notifies the waiter set if it changed.
    fn exec_sync(
        &mut self,
        word: WordAddr,
        old: u64,
        req: CoreId,
        op: GcsOpKind,
        actions: &mut Vec<Action>,
    ) {
        let (stored, resp) = match op {
            GcsOpKind::Load => (old, old),
            GcsOpKind::Store { value } => (value, value),
            GcsOpKind::Rmw(o) => {
                let new = if self.mutation == Some(ProtocolMutation::GcsSkipUpdate) {
                    old
                } else {
                    o.apply(old)
                };
                (new, old)
            }
        };
        *self.word_slot(word) = RegWord::Valid(stored);
        actions.push(Action::Send {
            to: Endpoint::L1(req),
            msg: Msg::Gcs(GcsMsg::SyncResp { word, value: resp }),
        });
        if stored != old {
            self.notify_waiters(word, stored, req, actions);
        }
    }

    /// Arms a level-triggered watch: notify immediately if the current
    /// value `cur` has already moved past what the spinner saw, otherwise
    /// park it.
    fn watch(
        &mut self,
        word: WordAddr,
        cur: u64,
        req: CoreId,
        seen: u64,
        actions: &mut Vec<Action>,
    ) {
        if cur != seen {
            if self.mutation != Some(ProtocolMutation::GcsDropNotify) {
                self.notifies += 1;
                actions.push(Action::Send {
                    to: Endpoint::L1(req),
                    msg: Msg::Gcs(GcsMsg::SyncNotify { word, value: cur }),
                });
            }
            return;
        }
        self.sync_entry_mut(word).waiters.insert(req);
    }

    /// Pushes the new value to every parked waiter. The waiter set always
    /// clears — a half-cleared set would desynchronize the directory even
    /// under the drop-notify mutation.
    fn notify_waiters(
        &mut self,
        word: WordAddr,
        value: u64,
        writer: CoreId,
        actions: &mut Vec<Action>,
    ) {
        let waiters = std::mem::take(&mut self.sync_entry_mut(word).waiters);
        if waiters.is_empty() {
            return;
        }
        if self.mutation != Some(ProtocolMutation::GcsDropNotify) {
            for c in waiters.iter() {
                self.notifies += 1;
                actions.push(Action::Send {
                    to: Endpoint::L1(c),
                    msg: Msg::Gcs(GcsMsg::SyncNotify { word, value }),
                });
            }
        }
        let kind = EventKind::Notify {
            writer: writer as u32,
            waiters: waiters.len() as u32,
        };
        self.tel
            .emit_now(self.bank as u32, Component::Dir, word.telemetry_key(), kind);
    }
}

/// Canonical hash for model checking: lines and sync entries sorted by
/// address; queued and parked messages hash in FIFO order — their order is
/// architecturally visible. The notify and recall counters are metrics and
/// excluded.
impl std::hash::Hash for DnvRegistry {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bank.hash(state);
        self.mem.hash(state);
        // SpanMap hashes entries sorted by key, length-prefixed.
        self.lines.hash(state);
        self.sync.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::XferClass;

    fn word(i: u64) -> WordAddr {
        WordAddr::new(64 + i)
    }

    fn warmed() -> DnvRegistry {
        let mut r = DnvRegistry::new(0, Endpoint::Mem(0));
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(0),
                req: 9,
            },
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
        r.on_mem_data(word(0).line(), data, &mut acts);
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
        let mut r = DnvRegistry::new(0, Endpoint::Mem(0));
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(0),
                req: 1,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 2,
                class: XferClass::SyncRead,
            },
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
        r.on_mem_data(word(0).line(), [7; 8], &mut acts);
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
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 3,
                class: XferClass::Write,
            },
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
        let mut acts = Vec::new();
        for core in [4usize, 5, 6] {
            r.on_msg(
                DnvMsg::RegReq {
                    word: word(2),
                    req: core,
                    class: XferClass::SyncRead,
                },
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
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(3),
                req: 2,
                class: XferClass::Write,
            },
            &mut acts,
        );
        acts.clear();
        r.on_msg(
            DnvMsg::ReadReq {
                word: word(3),
                req: 7,
            },
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
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(4),
                req: 2,
                class: XferClass::Write,
            },
            &mut acts,
        );
        acts.clear();
        // Owner writes back: accepted, value stored.
        r.on_msg(
            DnvMsg::WbReq {
                word: word(4),
                value: 77,
                from: 2,
            },
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
            DnvMsg::RegReq {
                word: word(4),
                req: 3,
                class: XferClass::SyncWrite,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::WbReq {
                word: word(4),
                value: 1,
                from: 2,
            },
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
        assert_eq!(r.registered_words(), 0);
        let mut acts = Vec::new();
        r.on_msg(
            DnvMsg::RegReq {
                word: word(1),
                req: 1,
                class: XferClass::Write,
            },
            &mut acts,
        );
        r.on_msg(
            DnvMsg::RegReq {
                word: word(2),
                req: 1,
                class: XferClass::Write,
            },
            &mut acts,
        );
        assert_eq!(r.registered_words(), 2);
    }

    /// The sync-path directory (GCS).
    mod sync_path {
        use super::super::*;
        use dvs_mem::RmwOp;

        fn word(i: u64) -> WordAddr {
            WordAddr::new(64 + i)
        }

        fn warmed() -> DnvRegistry {
            let mut b = DnvRegistry::new(0, Endpoint::Mem(0)).with_sync_path();
            let mut acts = Vec::new();
            b.on_msg(
                DnvMsg::ReadReq {
                    word: word(0),
                    req: 9,
                },
                &mut acts,
            );
            let mut data = [0u64; 8];
            data[0] = 100;
            data[1] = 101;
            b.on_mem_data(word(0).line(), data, &mut acts);
            b
        }

        fn reg(b: &mut DnvRegistry, w: WordAddr, core: CoreId, class: XferClass) {
            let mut acts = Vec::new();
            b.on_msg(
                DnvMsg::RegReq {
                    word: w,
                    req: core,
                    class,
                },
                &mut acts,
            );
            assert_eq!(b.word(w), Some(RegWord::Registered(core)));
        }

        #[test]
        fn sync_contention_classifies_and_recalls() {
            let mut b = warmed();
            reg(&mut b, word(2), 1, XferClass::SyncWrite);
            let mut acts = Vec::new();
            // Core 4's sync read contends: the word becomes a sync variable.
            b.on_msg(
                DnvMsg::RegReq {
                    word: word(2),
                    req: 4,
                    class: XferClass::SyncRead,
                },
                &mut acts,
            );
            assert!(b.classified(word(2)) && b.recalling(word(2)));
            assert_eq!(b.recalls(), 1);
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Gcs(GcsMsg::Recall { word: word(2) }),
            }));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(4),
                msg: Msg::Gcs(GcsMsg::Classified { word: word(2) }),
            }));
            acts.clear();
            // A read parks behind the recall.
            b.on_msg(
                DnvMsg::ReadReq {
                    word: word(2),
                    req: 6,
                },
                &mut acts,
            );
            assert!(acts.is_empty());
            // The registrant returns the value; parked traffic drains.
            b.on_gcs(
                GcsMsg::RecallAck {
                    word: word(2),
                    from: 1,
                    value: Some(55),
                },
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
            let mut acts = Vec::new();
            b.on_msg(
                DnvMsg::RegReq {
                    word: word(3),
                    req: 2,
                    class: XferClass::Write,
                },
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
            let mut acts = Vec::new();
            // RMW on a bank-held word classifies on demand and executes.
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                },
                &mut acts,
            );
            assert!(b.classified(word(1)));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(2),
                msg: Msg::Gcs(GcsMsg::SyncResp {
                    word: word(1),
                    value: 101,
                }),
            }));
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(102)));
            acts.clear();
            // Core 5 watches the value it just saw: parked, no notify yet.
            b.on_gcs(
                GcsMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 102,
                },
                &mut acts,
            );
            assert!(acts.is_empty());
            assert_eq!(b.waiters_of(word(1)), vec![5]);
            // A store changes the value: targeted notify, set cleared.
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 3,
                    op: GcsOpKind::Store { value: 7 },
                },
                &mut acts,
            );
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Gcs(GcsMsg::SyncNotify {
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
            let mut acts = Vec::new();
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                },
                &mut acts,
            );
            acts.clear();
            // The spinner saw 0 but the word is 101: immediate wakeup, no bit.
            b.on_gcs(
                GcsMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 0,
                },
                &mut acts,
            );
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(5),
                msg: Msg::Gcs(GcsMsg::SyncNotify {
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
            let mut acts = Vec::new();
            // A sync op from core 3 starts the recall of core 1's registration.
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(2),
                    req: 3,
                    op: GcsOpKind::Load,
                },
                &mut acts,
            );
            assert!(b.recalling(word(2)));
            acts.clear();
            // Core 1's eviction writeback crossed the recall in flight: the
            // bank accepts it as the recall return and serves the parked op.
            b.on_msg(
                DnvMsg::WbReq {
                    word: word(2),
                    value: 88,
                    from: 1,
                },
                &mut acts,
            );
            assert!(!b.recalling(word(2)));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(1),
                msg: Msg::Dnv(DnvMsg::WbAck { word: word(2) }),
            }));
            assert!(acts.contains(&Action::Send {
                to: Endpoint::L1(3),
                msg: Msg::Gcs(GcsMsg::SyncResp {
                    word: word(2),
                    value: 88,
                }),
            }));
        }

        #[test]
        fn registration_of_classified_word_is_rejected() {
            let mut b = warmed();
            let mut acts = Vec::new();
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                },
                &mut acts,
            );
            acts.clear();
            b.on_msg(
                DnvMsg::RegReq {
                    word: word(1),
                    req: 7,
                    class: XferClass::Write,
                },
                &mut acts,
            );
            assert_eq!(
                acts,
                vec![Action::Send {
                    to: Endpoint::L1(7),
                    msg: Msg::Gcs(GcsMsg::Classified { word: word(1) }),
                }]
            );
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
        }

        #[test]
        fn skip_update_mutation_loses_the_rmw() {
            let mut b = warmed();
            b.set_mutation(Some(ProtocolMutation::GcsSkipUpdate));
            let mut acts = Vec::new();
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Rmw(RmwOp::Fai { delta: 1 }),
                },
                &mut acts,
            );
            // The old value comes back but the increment is lost.
            assert_eq!(b.word(word(1)), Some(RegWord::Valid(101)));
        }

        #[test]
        fn drop_notify_mutation_strands_waiters() {
            let mut b = warmed();
            b.set_mutation(Some(ProtocolMutation::GcsDropNotify));
            let mut acts = Vec::new();
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 2,
                    op: GcsOpKind::Load,
                },
                &mut acts,
            );
            b.on_gcs(
                GcsMsg::SyncWatch {
                    word: word(1),
                    req: 5,
                    seen: 101,
                },
                &mut acts,
            );
            acts.clear();
            b.on_gcs(
                GcsMsg::SyncOp {
                    word: word(1),
                    req: 3,
                    op: GcsOpKind::Store { value: 9 },
                },
                &mut acts,
            );
            // The store completes but the wakeup never leaves the bank.
            assert!(!acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Msg::Gcs(GcsMsg::SyncNotify { .. }),
                    ..
                }
            )));
            assert_eq!(b.notifies(), 0);
            assert!(b.waiters_of(word(1)).is_empty());
        }
    }
}
