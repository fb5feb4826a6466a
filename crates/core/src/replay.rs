//! Trace record/replay: the core-side fast path behind `dvs-trace`.
//!
//! A [`TraceRecorder`], driven by the system's observer (its `effect`,
//! `issue` and `complete` hooks), captures each core's stream
//! of *completed* memory/sync operations — plus per-word ordering
//! information — while a normal VM-driven run executes. Replay builds the
//! system's per-core front ends (`front.rs`) from [`TraceCore`]s instead of
//! [`Thread`](dvs_vm::Thread)s: they feed the recorded operations straight
//! into the L1s, bypassing instruction decode and register files. The
//! system and the protocol layers (MESI / DS0 / DS / GCS, timed or oracle)
//! are untouched and cannot tell the difference.
//!
//! # Ordering model (per-word CREW replay)
//!
//! For every word, the recorder numbers completed *sync writes* (sync
//! stores and RMWs) `0, 1, 2, …` and tags each completed sync access:
//!
//! * a sync **read** carries `dep` = the number of sync writes to its word
//!   that completed before it;
//! * a sync **write** carries `dep` = its own ordinal and `rwait` = the
//!   number of sync reads that completed at level `dep` before it (all
//!   dep-`dep` readers, by construction).
//!
//! Replay enforces exactly that schedule with a [`ReplayBoard`]: a read
//! issues only when its word's write level equals `dep`; a write issues
//! only when the level equals `dep` *and* all `rwait` readers of that
//! level have completed. The recorded completion order is a topological
//! order of this wait-for relation, so replay is deadlock-free, every
//! sync access observes the recorded value (spin conditions are satisfied
//! on first issue — the watch machinery never engages), and data accesses
//! need no gating at all for data-race-free programs. Replayed RMW and
//! sync-load results are validated against the recording; any divergence
//! is reported as a protocol violation rather than silently ignored.
//!
//! # In-memory ops
//!
//! A [`TraceOp`] has one variant per `.dvst` line kind (`ex`, `ld`, `st`,
//! `lds`, `sp`, `sts`, `rmw`, `fence`, `inv`, `halt`) holding only what
//! that line renders, flat, so an op is 48 bytes (asserted at compile
//! time). Every stream is an `Arc<[TraceOp]>`, exactly as long as its
//! ops: recording, parsing, composition and [`compress_ops`] all seal
//! streams that way, and replays share them without copying.
//!
//! The `.dvst` on-disk format, the record/replay drivers, composition,
//! and the workload-mix generator live in the `dvs-trace` crate; this
//! module owns only what must sit inside the machine.

use dvs_engine::Cycle;
use dvs_mem::{AccessKind, Addr, Region, RmwOp, WordAddr};
use dvs_stats::TimeComponent;
use dvs_vm::isa::Cond;
use dvs_vm::{Effect, MemRequest, SpinCond};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Largest `Exec` cycle count one op carries. The recorder splits a
/// longer gap into several `Exec`s (each consumes its own `cycles`, so
/// replay time is unchanged) and the `.dvst` parser rejects larger ones.
/// The bound is the paper configuration's `max_cycles`, 2·10⁹; it keeps
/// replay's `now + cycles` far from overflow.
pub const MAX_EXEC_CYCLES: Cycle = 2_000_000_000;

/// One recorded core-side operation: a variant per `.dvst` line kind,
/// each holding only the fields its line renders.
///
/// `Exec` coalesces an arbitrary run of retired ALU/branch instructions
/// and `Delay` think-time into a single cycle count — this is where
/// replay's speedup over VM-driven execution comes from.
///
/// Ops are kept small because a trace holds tens of thousands of them:
/// fields are flat (an RMW is a [`RmwKind`] plus two operands, a recorded
/// result a `u64` plus a presence flag) so no nested tag pads a variant,
/// and an op is 48 bytes. Replay builds the [`MemRequest`] each access
/// issues from the op ([`TraceOp::request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// `ex`: `cycles` of local execution with no memory traffic.
    Exec {
        /// Core-local cycles consumed (retires + delays).
        cycles: Cycle,
    },
    /// `ld`: a data load.
    Load {
        /// Word address.
        addr: Addr,
    },
    /// `st`: a data store (the only access that does not block the core).
    Store {
        /// Word address.
        addr: Addr,
        /// Value stored.
        value: u64,
    },
    /// `lds`: a sync load.
    SyncLoad {
        /// Word address.
        addr: Addr,
        /// Sync ordering: write level this read belongs to.
        dep: u32,
        /// Recorded result, validated on replay when `has_result`.
        result: u64,
        /// Whether `result` was recorded (`-` in the text when not).
        has_result: bool,
    },
    /// `sp`: a spinning sync load (the recorded, satisfying iteration).
    Spin {
        /// Word address.
        addr: Addr,
        /// Spin exit condition on `(loaded value, rhs)`.
        cond: Cond,
        /// Right-hand side of the condition.
        rhs: u64,
        /// Sync ordering: write level this read belongs to.
        dep: u32,
        /// Recorded result, validated on replay when `has_result`.
        result: u64,
        /// Whether `result` was recorded.
        has_result: bool,
    },
    /// `sts`: a sync store.
    SyncStore {
        /// Word address.
        addr: Addr,
        /// Value stored.
        value: u64,
        /// Sync ordering: this write's ordinal on its word.
        dep: u32,
        /// Readers of level `dep` to wait for.
        rwait: u32,
    },
    /// `rmw`: an atomic read-modify-write.
    Rmw {
        /// Word address.
        addr: Addr,
        /// Which RMW; `a` and `b` are its operands (see [`RmwKind`]).
        kind: RmwKind,
        /// First operand.
        a: u64,
        /// Second operand.
        b: u64,
        /// Sync ordering: this write's ordinal on its word.
        dep: u32,
        /// Readers of level `dep` to wait for.
        rwait: u32,
        /// Recorded result, validated on replay when `has_result`.
        result: u64,
        /// Whether `result` was recorded.
        has_result: bool,
    },
    /// `fence`: a full fence (drains outstanding stores).
    Fence,
    /// `inv`: a self-invalidation of one region's unregistered words.
    SelfInv(Region),
    /// `halt`: end of this core's stream.
    Halt,
}

const _: () = assert!(std::mem::size_of::<TraceOp>() <= 48);

/// The operation of a [`TraceOp::Rmw`], whose operands ride flat in the
/// op: `Cas` compares with `a` and stores `b`, `Fai` adds `a`, `Swap`
/// stores `a`; unused operands are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwKind {
    /// Compare-and-swap.
    Cas,
    /// Fetch-and-add.
    Fai,
    /// Unconditional exchange.
    Swap,
    /// Test-and-set.
    Tas,
}

impl RmwKind {
    /// The memory-side operation with operands `a` and `b`.
    pub fn op(self, a: u64, b: u64) -> RmwOp {
        match self {
            RmwKind::Cas => RmwOp::Cas {
                expected: a,
                new: b,
            },
            RmwKind::Fai => RmwOp::Fai { delta: a },
            RmwKind::Swap => RmwOp::Swap { new: a },
            RmwKind::Tas => RmwOp::Tas,
        }
    }

    /// `(kind, a, b)` of a memory-side operation; inverts [`RmwKind::op`].
    pub fn of(op: RmwOp) -> (Self, u64, u64) {
        match op {
            RmwOp::Cas { expected, new } => (RmwKind::Cas, expected, new),
            RmwOp::Fai { delta } => (RmwKind::Fai, delta, 0),
            RmwOp::Swap { new } => (RmwKind::Swap, new, 0),
            RmwOp::Tas => (RmwKind::Tas, 0, 0),
        }
    }
}

impl TraceOp {
    /// The op recorded for a completed `req` (its `dst` is dropped: replay
    /// has no register file). `dep`, `rwait` and `result` are kept where
    /// the op's line kind renders them.
    pub fn access(req: &MemRequest, dep: u32, rwait: u32, result: Option<u64>) -> Self {
        let addr = req.addr;
        let (result, has_result) = (result.unwrap_or(0), result.is_some());
        match (req.kind, req.spin) {
            (AccessKind::DataLoad, _) => TraceOp::Load { addr },
            (AccessKind::DataStore { value }, _) => TraceOp::Store { addr, value },
            (AccessKind::SyncLoad, None) => TraceOp::SyncLoad {
                addr,
                dep,
                result,
                has_result,
            },
            (AccessKind::SyncLoad, Some(SpinCond { cond, rhs })) => TraceOp::Spin {
                addr,
                cond,
                rhs,
                dep,
                result,
                has_result,
            },
            (AccessKind::SyncStore { value }, _) => TraceOp::SyncStore {
                addr,
                value,
                dep,
                rwait,
            },
            (AccessKind::SyncRmw(op), _) => {
                let (kind, a, b) = RmwKind::of(op);
                TraceOp::Rmw {
                    addr,
                    kind,
                    a,
                    b,
                    dep,
                    rwait,
                    result,
                    has_result,
                }
            }
        }
    }

    /// The request a memory op issues (`dst: None`; `spin` set only for
    /// `Spin`), or `None` for `Exec`, `Fence`, `SelfInv` and `Halt`.
    pub fn request(&self) -> Option<MemRequest> {
        let (addr, kind, spin) = match *self {
            TraceOp::Load { addr } => (addr, AccessKind::DataLoad, None),
            TraceOp::Store { addr, value } => (addr, AccessKind::DataStore { value }, None),
            TraceOp::SyncLoad { addr, .. } => (addr, AccessKind::SyncLoad, None),
            TraceOp::Spin {
                addr, cond, rhs, ..
            } => (addr, AccessKind::SyncLoad, Some(SpinCond { cond, rhs })),
            TraceOp::SyncStore { addr, value, .. } => (addr, AccessKind::SyncStore { value }, None),
            TraceOp::Rmw {
                addr, kind, a, b, ..
            } => (addr, AccessKind::SyncRmw(kind.op(a, b)), None),
            TraceOp::Exec { .. } | TraceOp::Fence | TraceOp::SelfInv(_) | TraceOp::Halt => {
                return None
            }
        };
        Some(MemRequest {
            addr,
            kind,
            dst: None,
            spin,
        })
    }

    /// The address of a memory op, mutably (trace composition shifts it).
    pub fn addr_mut(&mut self) -> Option<&mut Addr> {
        match self {
            TraceOp::Load { addr }
            | TraceOp::Store { addr, .. }
            | TraceOp::SyncLoad { addr, .. }
            | TraceOp::Spin { addr, .. }
            | TraceOp::SyncStore { addr, .. }
            | TraceOp::Rmw { addr, .. } => Some(addr),
            TraceOp::Exec { .. } | TraceOp::Fence | TraceOp::SelfInv(_) | TraceOp::Halt => None,
        }
    }

    /// The recorded result replay validates against, if any.
    pub fn result(&self) -> Option<u64> {
        match *self {
            TraceOp::SyncLoad {
                result, has_result, ..
            }
            | TraceOp::Spin {
                result, has_result, ..
            }
            | TraceOp::Rmw {
                result, has_result, ..
            } => has_result.then_some(result),
            _ => None,
        }
    }

    /// `(dep, rwait)` of a sync access: the write level it belongs to and,
    /// for writes, the readers of that level it waits for. `(0, 0)` for
    /// everything else.
    fn order(&self) -> (u32, u32) {
        match *self {
            TraceOp::SyncLoad { dep, .. } | TraceOp::Spin { dep, .. } => (dep, 0),
            TraceOp::SyncStore { dep, rwait, .. } | TraceOp::Rmw { dep, rwait, .. } => (dep, rwait),
            _ => (0, 0),
        }
    }

    /// Whether the op is a sync access, gated by the [`ReplayBoard`].
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            TraceOp::SyncLoad { .. }
                | TraceOp::Spin { .. }
                | TraceOp::SyncStore { .. }
                | TraceOp::Rmw { .. }
        )
    }

    /// Whether the op is an access that may write memory.
    pub fn may_write(&self) -> bool {
        matches!(
            self,
            TraceOp::Store { .. } | TraceOp::SyncStore { .. } | TraceOp::Rmw { .. }
        )
    }

    /// Whether the op is an access that holds the core until it completes:
    /// every access but a data store.
    pub fn blocks_core(&self) -> bool {
        matches!(
            self,
            TraceOp::Load { .. }
                | TraceOp::SyncLoad { .. }
                | TraceOp::Spin { .. }
                | TraceOp::SyncStore { .. }
                | TraceOp::Rmw { .. }
        )
    }
}

/// Per-word sync progress shared by all [`TraceCore`]s of a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayBoard {
    words: HashMap<WordAddr, WordOrder>,
}

#[derive(Debug, Clone, Copy, Default)]
struct WordOrder {
    /// Completed sync writes (the word's current level).
    writes_done: u32,
    /// Completed sync reads at the current level.
    reads_done: u32,
}

impl ReplayBoard {
    fn level(&self, w: WordAddr) -> WordOrder {
        self.words.get(&w).copied().unwrap_or_default()
    }

    fn read_done(&mut self, w: WordAddr) {
        self.words.entry(w).or_default().reads_done += 1;
    }

    fn write_done(&mut self, w: WordAddr) {
        let e = self.words.entry(w).or_default();
        e.writes_done += 1;
        e.reads_done = 0;
    }

    /// Order-independent hash of the board for state fingerprints.
    pub(crate) fn hash_into<H: Hasher>(&self, h: &mut H) {
        let mut entries: Vec<_> = self
            .words
            .iter()
            .map(|(w, o)| (w.base().raw(), o.writes_done, o.reads_done))
            .collect();
        entries.sort_unstable();
        entries.hash(h);
    }
}

/// Replay front-end for one core: serves recorded ops in order, gated by
/// the [`ReplayBoard`]. Implements the same driving contract as
/// [`Thread`](dvs_vm::Thread): `step` yields effects, blocking accesses
/// stay current until `complete` is called with the loaded value. A `None`
/// step means the next op is sync-order-gated: park until the board
/// advances.
#[derive(Debug, Clone)]
pub struct TraceCore {
    ops: Arc<[TraceOp]>,
    cursor: usize,
}

impl TraceCore {
    /// A fresh front-end over one recorded per-core stream.
    pub fn new(ops: Arc<[TraceOp]>) -> Self {
        Self { ops, cursor: 0 }
    }

    /// Index of the next op to issue (diagnostics and state fingerprints).
    pub fn position(&self) -> usize {
        self.cursor
    }

    pub(crate) fn step(&mut self, board: &ReplayBoard) -> Option<Effect> {
        let Some(&op) = self.ops.get(self.cursor) else {
            return Some(Effect::Halted);
        };
        let eff = match op {
            // Delay consumes `cycles + 1` core cycles; the recorder
            // accounts for the +1 when coalescing.
            TraceOp::Exec { cycles } => Effect::Delay {
                cycles: cycles.saturating_sub(1),
                comp: TimeComponent::Compute,
            },
            TraceOp::Fence => Effect::Fence,
            TraceOp::SelfInv(region) => Effect::SelfInvalidate(region),
            TraceOp::Halt => Effect::Halted,
            _ => return self.issue(op, board),
        };
        self.cursor += 1;
        Some(eff)
    }

    /// Issues memory op `op` once the board reaches its recorded sync
    /// level; a blocking op stays current until `complete`.
    fn issue(&mut self, op: TraceOp, board: &ReplayBoard) -> Option<Effect> {
        let req = op.request()?;
        if op.is_sync() {
            let (dep, rwait) = op.order();
            let at = board.level(req.addr.word());
            if at.writes_done > dep
                || (at.writes_done == dep && op.may_write() && at.reads_done > rwait)
            {
                return Some(Effect::Failed {
                    pc: self.cursor,
                    msg: "trace replay overshot the recorded per-word sync order",
                });
            }
            let ready = if op.may_write() {
                at.writes_done == dep && at.reads_done == rwait
            } else {
                at.writes_done == dep
            };
            if !ready {
                return None;
            }
        }
        if !op.blocks_core() {
            self.cursor += 1;
        }
        Some(Effect::Mem(req))
    }

    /// Completion of the outstanding blocking access. Returns `Ok(true)`
    /// when the board advanced (parked cores should be re-examined), and
    /// `Err` on value divergence from the recording.
    pub(crate) fn complete(&mut self, value: u64, board: &mut ReplayBoard) -> Result<bool, String> {
        let Some((op, addr)) = self
            .ops
            .get(self.cursor)
            .and_then(|op| Some((op, op.request()?.addr)))
        else {
            return Err("trace replay: completion with no blocking op outstanding".into());
        };
        self.cursor += 1;
        if let Some(want) = op.result() {
            if value != want {
                return Err(format!(
                    "trace replay: op {} at {:#x} returned {value:#x}, recording has {want:#x}",
                    self.cursor - 1,
                    addr.raw()
                ));
            }
        }
        if op.is_sync() {
            let w = addr.word();
            if op.may_write() {
                board.write_done(w);
            } else {
                board.read_done(w);
            }
            return Ok(true);
        }
        Ok(false)
    }
}

/// Live recording state, attached to a VM-driven [`System`](crate::System)
/// via `start_recording`.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    per_core: Vec<Vec<TraceOp>>,
    pending_exec: Vec<Cycle>,
    words: HashMap<WordAddr, WordRec>,
    image: HashMap<WordAddr, u64>,
    touched: BTreeSet<WordAddr>,
    halted: Vec<bool>,
}

#[derive(Debug, Clone, Copy, Default)]
struct WordRec {
    writes: u32,
    reads_since: u32,
}

impl TraceRecorder {
    pub(crate) fn new(cores: usize) -> Self {
        Self {
            per_core: vec![Vec::new(); cores],
            pending_exec: vec![0; cores],
            words: HashMap::new(),
            image: HashMap::new(),
            touched: BTreeSet::new(),
            halted: vec![false; cores],
        }
    }

    /// Emits core `i`'s pending local time, in `Exec`s of at most
    /// [`MAX_EXEC_CYCLES`] each.
    fn flush(&mut self, i: usize) {
        let mut left = std::mem::take(&mut self.pending_exec[i]);
        while left > 0 {
            let cycles = left.min(MAX_EXEC_CYCLES);
            self.per_core[i].push(TraceOp::Exec { cycles });
            left -= cycles;
        }
    }

    /// Appends `op` to core `i`'s stream after its pending local time.
    fn push(&mut self, i: usize, op: TraceOp) {
        self.flush(i);
        self.per_core[i].push(op);
    }

    /// Core `i` retired `n` instructions with no effect: `n` compute cycles.
    pub(crate) fn retired(&mut self, i: usize, n: u64) {
        self.pending_exec[i] += n;
    }

    /// One effect of a core step. Memory effects are recorded when they
    /// are accepted or complete, not when they issue.
    pub(crate) fn effect(&mut self, i: usize, eff: &Effect) {
        match *eff {
            // A Delay effect consumes `cycles + 1` core cycles (issue + sleep).
            Effect::Delay { cycles, .. } => self.pending_exec[i] += cycles + 1,
            Effect::Fence => self.push(i, TraceOp::Fence),
            Effect::SelfInvalidate(region) => self.push(i, TraceOp::SelfInv(region)),
            Effect::Halted if !self.halted[i] => {
                self.halted[i] = true;
                self.push(i, TraceOp::Halt);
            }
            Effect::Halted | Effect::Mem(_) | Effect::Mark(_) | Effect::Failed { .. } => {}
        }
    }

    /// A non-blocking data store was accepted by the L1 (program order on
    /// its core, which is all the ordering a data store needs).
    pub(crate) fn store_accepted(&mut self, i: usize, req: &MemRequest) {
        self.flush(i);
        let w = req.addr.word();
        self.touched.insert(w);
        if let AccessKind::DataStore { value } = req.kind {
            self.image.insert(w, value);
        }
        self.per_core[i].push(TraceOp::access(req, 0, 0, None));
    }

    /// A blocking access completed with `value` (0 for sync stores).
    pub(crate) fn mem_complete(&mut self, i: usize, req: &MemRequest, value: u64) {
        self.flush(i);
        let w = req.addr.word();
        self.touched.insert(w);
        let mut dep = 0;
        let mut rwait = 0;
        let mut result = None;
        match req.kind {
            AccessKind::DataLoad | AccessKind::DataStore { .. } => {}
            AccessKind::SyncLoad => {
                let rec = self.words.entry(w).or_default();
                dep = rec.writes;
                rec.reads_since += 1;
                result = Some(value);
            }
            AccessKind::SyncStore { value: stored } => {
                let rec = self.words.entry(w).or_default();
                dep = rec.writes;
                rwait = rec.reads_since;
                rec.writes += 1;
                rec.reads_since = 0;
                self.image.insert(w, stored);
            }
            AccessKind::SyncRmw(op) => {
                let rec = self.words.entry(w).or_default();
                dep = rec.writes;
                rwait = rec.reads_since;
                rec.writes += 1;
                rec.reads_since = 0;
                result = Some(value);
                self.image.insert(w, op.apply(value));
            }
        }
        self.per_core[i].push(TraceOp::access(req, dep, rwait, result));
    }

    /// Seal the recording. `init` is the workload's preloaded image, used
    /// to pin final values for words that were read but never written.
    pub fn finish(mut self, init: &[(Addr, u64)]) -> Recording {
        for i in 0..self.per_core.len() {
            self.flush(i);
        }
        let init_map: HashMap<WordAddr, u64> = init.iter().map(|&(a, v)| (a.word(), v)).collect();
        let finals = self
            .touched
            .iter()
            .map(|w| {
                let v = self
                    .image
                    .get(w)
                    .or_else(|| init_map.get(w))
                    .copied()
                    .unwrap_or(0);
                (*w, v)
            })
            .collect();
        Recording {
            ops: self.per_core.into_iter().map(Arc::from).collect(),
            finals,
        }
    }
}

/// A sealed recording: per-core op streams plus the pinned final image of
/// every word the run touched (sorted by address).
#[derive(Debug, Clone)]
pub struct Recording {
    /// One ordered op stream per core, exactly as long as its ops.
    pub ops: Vec<Arc<[TraceOp]>>,
    /// `(word, architecturally-final value)`, sorted by word address.
    pub finals: Vec<(WordAddr, u64)>,
}

/// Cap `Exec` gaps at `cap` cycles. Order and sync semantics are
/// untouched — only modeled think-time shrinks — so compressed replay is
/// bounded by the protocol layer, not by recorded pacing. Compressed
/// replays reach the same final image but different cycle counts.
pub fn compress_ops(ops: &[TraceOp], cap: Cycle) -> Arc<[TraceOp]> {
    ops.iter()
        .map(|op| match *op {
            TraceOp::Exec { cycles } => TraceOp::Exec {
                cycles: cycles.min(cap),
            },
            other => other,
        })
        .collect()
}
