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
//! The `.dvst` on-disk format, the record/replay drivers, composition,
//! and the workload-mix generator live in the `dvs-trace` crate; this
//! module owns only what must sit inside the machine.

use dvs_engine::Cycle;
use dvs_mem::{AccessKind, Addr, Region, WordAddr};
use dvs_stats::TimeComponent;
use dvs_vm::{Effect, MemRequest};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One recorded core-side operation.
///
/// `Exec` coalesces an arbitrary run of retired ALU/branch instructions
/// and `Delay` think-time into a single cycle count — this is where
/// replay's speedup over VM-driven execution comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// `cycles` of local execution with no memory traffic.
    Exec {
        /// Core-local cycles consumed (retires + delays).
        cycles: Cycle,
    },
    /// A memory access, replayed through the real protocol stack.
    Mem {
        /// The access as issued (destination register cleared).
        req: MemRequest,
        /// Sync ordering: write level this access belongs to.
        dep: u32,
        /// Sync writes only: readers of level `dep` to wait for.
        rwait: u32,
        /// Recorded result for value validation (sync loads and RMWs).
        result: Option<u64>,
    },
    /// A full fence (drains outstanding stores).
    Fence,
    /// A self-invalidation of one region's unregistered words.
    SelfInv(Region),
    /// End of this core's stream.
    Halt,
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
    ops: Arc<Vec<TraceOp>>,
    cursor: usize,
}

impl TraceCore {
    /// A fresh front-end over one recorded per-core stream.
    pub fn new(ops: Arc<Vec<TraceOp>>) -> Self {
        Self { ops, cursor: 0 }
    }

    /// Index of the next op to issue (diagnostics and state fingerprints).
    pub fn position(&self) -> usize {
        self.cursor
    }

    pub(crate) fn step(&mut self, board: &ReplayBoard) -> Option<Effect> {
        let Some(op) = self.ops.get(self.cursor) else {
            return Some(Effect::Halted);
        };
        match *op {
            TraceOp::Exec { cycles } => {
                self.cursor += 1;
                // Delay consumes `cycles + 1` core cycles; the recorder
                // accounts for the +1 when coalescing.
                Some(Effect::Delay {
                    cycles: cycles.saturating_sub(1),
                    comp: TimeComponent::Compute,
                })
            }
            TraceOp::Mem {
                req, dep, rwait, ..
            } => {
                if req.kind.is_sync() {
                    let at = board.level(req.addr.word());
                    if at.writes_done > dep
                        || (at.writes_done == dep && req.kind.may_write() && at.reads_done > rwait)
                    {
                        return Some(Effect::Failed {
                            pc: self.cursor,
                            msg: "trace replay overshot the recorded per-word sync order",
                        });
                    }
                    let ready = if req.kind.may_write() {
                        at.writes_done == dep && at.reads_done == rwait
                    } else {
                        at.writes_done == dep
                    };
                    if !ready {
                        return None;
                    }
                }
                if !req.kind.blocks_core() {
                    self.cursor += 1;
                }
                Some(Effect::Mem(req))
            }
            TraceOp::Fence => {
                self.cursor += 1;
                Some(Effect::Fence)
            }
            TraceOp::SelfInv(region) => {
                self.cursor += 1;
                Some(Effect::SelfInvalidate(region))
            }
            TraceOp::Halt => {
                self.cursor += 1;
                Some(Effect::Halted)
            }
        }
    }

    /// Completion of the outstanding blocking access. Returns `Ok(true)`
    /// when the board advanced (parked cores should be re-examined), and
    /// `Err` on value divergence from the recording.
    pub(crate) fn complete(&mut self, value: u64, board: &mut ReplayBoard) -> Result<bool, String> {
        let Some(&TraceOp::Mem { req, result, .. }) = self.ops.get(self.cursor) else {
            return Err("trace replay: completion with no blocking op outstanding".into());
        };
        self.cursor += 1;
        if let Some(want) = result {
            if value != want {
                return Err(format!(
                    "trace replay: op {} at {:#x} returned {value:#x}, recording has {want:#x}",
                    self.cursor - 1,
                    req.addr.raw()
                ));
            }
        }
        if req.kind.is_sync() {
            let w = req.addr.word();
            if req.kind.may_write() {
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

/// Strip the destination register: replay has no register file.
fn canon(req: &MemRequest) -> MemRequest {
    MemRequest { dst: None, ..*req }
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

    fn flush(&mut self, i: usize) {
        let cycles = std::mem::take(&mut self.pending_exec[i]);
        if cycles > 0 {
            self.per_core[i].push(TraceOp::Exec { cycles });
        }
    }

    /// Appends `op` to core `i`'s stream after its pending local time.
    fn push(&mut self, i: usize, op: TraceOp) {
        self.flush(i);
        self.per_core[i].push(op);
    }

    /// One effect of a core step. Memory effects are recorded when they
    /// are accepted or complete, not when they issue.
    pub(crate) fn effect(&mut self, i: usize, eff: &Effect) {
        match *eff {
            Effect::Retired => self.pending_exec[i] += 1,
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
        self.per_core[i].push(TraceOp::Mem {
            req: canon(req),
            dep: 0,
            rwait: 0,
            result: None,
        });
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
        self.per_core[i].push(TraceOp::Mem {
            req: canon(req),
            dep,
            rwait,
            result,
        });
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
            ops: self.per_core,
            finals,
        }
    }
}

/// A sealed recording: per-core op streams plus the pinned final image of
/// every word the run touched (sorted by address).
#[derive(Debug, Clone)]
pub struct Recording {
    /// One ordered op stream per core.
    pub ops: Vec<Vec<TraceOp>>,
    /// `(word, architecturally-final value)`, sorted by word address.
    pub finals: Vec<(WordAddr, u64)>,
}

/// Cap `Exec` gaps at `cap` cycles. Order and sync semantics are
/// untouched — only modeled think-time shrinks — so compressed replay is
/// bounded by the protocol layer, not by recorded pacing. Compressed
/// replays reach the same final image but different cycle counts.
pub fn compress_ops(ops: &[TraceOp], cap: Cycle) -> Vec<TraceOp> {
    ops.iter()
        .map(|op| match *op {
            TraceOp::Exec { cycles } => TraceOp::Exec {
                cycles: cycles.min(cap),
            },
            other => other,
        })
        .collect()
}
