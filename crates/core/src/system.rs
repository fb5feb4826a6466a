//! The simulated multicore machine.
//!
//! A [`System`] wires one front end per core (a VM thread or a trace-replay
//! core, behind the one seam in `front.rs`) to private L1s, a banked shared
//! L2 (MESI directory or DeNovo registry, one bank per tile), four corner
//! memory controllers, and the 2D-mesh network, and drives everything from
//! a deterministic event loop.
//!
//! The system holds no protocol-specific logic and does not know which
//! kind of front end it drives: the L1s and banks live in one backend enum
//! (the MESI family, or the DeNovo family — DeNovoSync0, DeNovoSync, and
//! GCS, which is DeNovo plus a sync path), and each family's module owns
//! its invariant checks, stall forensics, spin watches and architectural
//! reads. The system routes core effects to the backend and applies the
//! [`Action`]s that come back.
//!
//! # Core execution model
//!
//! The paper's core: in-order, 1 CPI, blocking loads, non-blocking stores.
//! ALU/branch runs execute as a batch inside the front end (they cannot
//! interact with other cores), which reports how many retired with the
//! effect that ended the run; every memory access is issued at its exact
//! cycle. Spin loops use the VM's `SpinLoad`: a failed spin on a
//! locally-usable copy *watches* the word and re-issues when the copy is
//! invalidated or stolen — this models MESI's spin-on-cached-copy and
//! DeNovo's spin-on-registered-word without simulating each poll iteration
//! (spinning time is attributed to compute, as in the paper's breakdowns). Under GCS a spin on a classified word
//! parks at its home bank instead; the backend decides which.
//!
//! # Cycle attribution
//!
//! Each core's cycles are attributed to the paper's Figure 3–7 components:
//! instruction retires → compute; blocking-miss latency → memory stall;
//! `Delay` instructions → their tagged component (non-synch dummy work,
//! software backoff); hardware-backoff stalls → hw backoff; and everything
//! executed in the `BarrierWait` phase → barrier stall.

use crate::backend::Backend;
use crate::chaos::{FaultInjector, FaultPlan};
use crate::config::{DataInvalidation, SystemConfig};
use crate::front::{Fronts, Stop};
use crate::msg::{CoreId, Endpoint, Msg};
use crate::observe::Observer;
use crate::oracle::{ChannelKey, OracleState};
use crate::proto::{count_access, Action, Actions, IssueResult};
use crate::replay::{Recording, TraceCore, TraceOp};
use dvs_engine::{Cycle, DetRng, Scheduler};
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{Addr, MainMemory, WordAddr};
use dvs_noc::{Mesh, Network, NodeId};
use dvs_stats::{CacheStats, RunStats, TimeComponent, TrafficClass, TrafficStats};
use dvs_telemetry::{MetricsRegistry, StallClass, Telemetry};
use dvs_vm::isa::PhaseChange;
use dvs_vm::reference::{pool_base, DEFAULT_POOL_BYTES};
use dvs_vm::{Effect, MemRequest, Program, Thread};
use std::sync::Arc;

/// Retry delay for structurally-blocked accesses.
const RETRY_CYCLES: Cycle = 4;
/// Safety valve on uninterrupted ALU batches.
const MAX_BATCH: Cycle = 100_000;
/// Period (in delivered messages) of the full conservation scan when
/// invariant checking is enabled; targeted per-address checks run at every
/// delivery.
const FULL_SCAN_PERIOD: u64 = 4096;

/// Forensic snapshot of a stalled machine, attached to
/// [`SimError::Deadlock`] and [`SimError::CycleLimit`].
///
/// Everything is pre-rendered to strings so the report stays `Eq`/`Clone`
/// and needs no lifetime into the dead system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StallReport {
    /// One line per non-halted core: its status and, where applicable, the
    /// blocked address and the cycle it got stuck.
    pub cores: Vec<String>,
    /// One line per outstanding L1 MSHR entry (the transient states).
    pub l1_pending: Vec<String>,
    /// Registry/directory state for every address involved in a stuck core
    /// or pending MSHR entry.
    pub l2_state: Vec<String>,
    /// The last delivered messages (per destination node), in delivery
    /// order, sourced from the observer's forensic ring.
    pub recent_messages: Vec<String>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "stalled cores:")?;
        for line in &self.cores {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "pending L1 transactions:")?;
        for line in &self.l1_pending {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "L2 state for stuck addresses:")?;
        for line in &self.l2_state {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "last {} delivered messages:", self.recent_messages.len())?;
        for line in &self.recent_messages {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel `Assert` failed on some core.
    KernelAssert {
        /// The failing core.
        core: CoreId,
        /// Program counter of the assertion.
        pc: usize,
        /// The assertion message.
        msg: &'static str,
    },
    /// The event queue drained before every thread halted (a lost wakeup or
    /// protocol deadlock).
    Deadlock {
        /// Threads still running.
        stuck: Vec<CoreId>,
        /// Why they are stuck: statuses, transient states, L2 entries, and
        /// the last delivered messages.
        report: Box<StallReport>,
    },
    /// The configured cycle limit was exceeded (livelock, or a genuinely
    /// too-small budget).
    CycleLimit {
        /// The configured limit.
        limit: Cycle,
        /// What the machine was doing when the budget ran out.
        report: Box<StallReport>,
    },
    /// A protocol controller reached a state/message combination the
    /// protocol specification does not allow, or a runtime coherence
    /// invariant failed. Always a simulator/protocol bug (or injected
    /// corruption), never a workload error.
    ProtocolViolation {
        /// Description of the violated rule, with endpoint and address.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::KernelAssert { core, pc, msg } => {
                write!(f, "core {core} assertion failed at pc {pc}: {msg}")
            }
            SimError::Deadlock { stuck, report } => {
                writeln!(f, "simulation deadlocked; stuck cores {stuck:?}")?;
                write!(f, "{report}")
            }
            SimError::CycleLimit { limit, report } => {
                writeln!(f, "cycle limit {limit} exceeded")?;
                write!(f, "{report}")
            }
            SimError::ProtocolViolation { detail } => {
                write!(f, "protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A failed run: the simulator failed, or a check of what it produced did.
/// Every run path — campaign cells, trace recording and replay, the oracle
/// random walk — reports through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The simulator reported an error.
    Sim(SimError),
    /// A post-run check failed: coherence, the workload's post-condition,
    /// a replay diverging from its recording, or an oracle walk that did
    /// not quiesce cleanly.
    Check(String),
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Check(m) => write!(f, "check failed: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Execute instructions on a core.
    Step(CoreId),
    /// Act on the core's parked status (re-issue, wake from delay, ...).
    Resume(CoreId),
    /// Deliver a message to a component.
    Deliver(Endpoint, MsgSlot),
}

/// Messages are boxed out-of-line to keep the event small.
type MsgSlot = usize;

#[derive(Debug, Clone)]
pub(crate) enum Status {
    /// A `Step` event is scheduled.
    Ready,
    /// Blocked on a memory access.
    BlockedMem { req: MemRequest, issued: Cycle },
    /// Spin-watching a word.
    Watching { req: MemRequest, since: Cycle },
    /// A `Resume` is scheduled to (re-)issue this request.
    Reissue {
        req: MemRequest,
        after_backoff: bool,
    },
    /// A `Resume` is scheduled after a `Delay`.
    DelaySleep,
    /// A `Resume` is scheduled to re-check a fence.
    PendingFence,
    /// Waiting for outstanding stores to drain.
    FenceWait { since: Cycle },
    /// The thread halted.
    Halted,
    /// The thread died on a failed assertion.
    Dead,
    /// Trace replay: parked until a sync completion advances the per-word
    /// ordering board past this core's next op's dependency.
    DepWait {
        /// A `Resume` is already scheduled (dedups wake-ups).
        woken: bool,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct CoreState {
    pub(crate) status: Status,
    outstanding_stores: usize,
    breakdown: dvs_stats::TimeBreakdown,
    /// L1 hits and misses by access kind.
    cache: CacheStats,
    /// Signature mode: data words written since this core's last release.
    cs_writes: Vec<WordAddr>,
    /// Signature mode: how much of the global publication log this core has
    /// already self-invalidated.
    sig_cursor: usize,
}

/// The simulated machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct System {
    cfg: SystemConfig,
    layout: Arc<MemoryLayout>,
    sched: Scheduler<Ev>,
    /// In-flight message storage. Slots are recycled through `free_slots`
    /// the moment their `Deliver` event fires, so the pool's length tracks
    /// the *peak* number of simultaneously in-flight messages (a few dozen)
    /// instead of growing by every message ever sent.
    msg_pool: Vec<Msg>,
    /// Recycled `msg_pool` indexes, ready for the next `stash`.
    free_slots: Vec<MsgSlot>,
    /// `slot_live[s]` ⇔ slot `s` holds a scheduled-but-undelivered message.
    /// Maintained unconditionally — stash sets it, delivery clears it, in
    /// both invariant modes — so slot recycling has exactly one owner and
    /// the conservation checker can enumerate in-flight messages without a
    /// separate (and previously asymmetric) tracking set.
    slot_live: Vec<bool>,
    /// Recycled [`Action`] buffers for the deliver/issue hot path. A stack
    /// (not a single buffer) because `apply_actions` can re-enter through
    /// `core_done → issue_mem`; depth tracks the re-entrancy, which is
    /// shallow, so steady state allocates nothing per event.
    action_scratch: Vec<Actions>,
    net: Network,
    /// Per-core front ends: VM threads, or trace-replay cores sharing a
    /// sync-ordering board. The only code that knows which.
    fronts: Fronts,
    cores: Vec<CoreState>,
    /// Every L1 and L2 bank, by protocol family.
    backend: Backend,
    memory: MainMemory,
    traffic: TrafficStats,
    /// Signature mode: the global publication log. Every release (sync
    /// store or RMW) appends the releasing core's writes; an acquire-side
    /// `SelfInv` invalidates the suffix the core has not seen yet. This is
    /// the DeNovoND-style dynamic alternative to static regions — monotone,
    /// so safely over-approximate, but it touches only words actually
    /// written (not whole regions).
    sig_log: Vec<WordAddr>,
    finished: usize,
    finish_time: Cycle,
    /// Every observation of the run — telemetry, the forensic message
    /// ring, stall accounting, trace recording. Never read back into
    /// simulated behaviour.
    obs: Observer,
    error: Option<SimError>,
    /// Delivery-path fault injection (None unless the config carries a
    /// [`FaultPlan`](crate::chaos::FaultPlan)).
    injector: Option<FaultInjector>,
    /// Deliveries processed: the *delivery ordinal* stamped on traces, the
    /// message ring, and protocol-violation reports. Also paces the periodic
    /// full invariant scan.
    deliveries: u64,
    /// Untimed "oracle" mode for the model checker (`dvs-check`): sends
    /// enqueue into per-channel FIFO queues instead of timed `Deliver`
    /// events, and structurally-blocked cores park until the checker
    /// delivers a message. `None` for normal timed simulation.
    oracle: Option<OracleState>,
}

// The campaign layer (`dvs-campaign`) materializes and runs full systems on
// worker threads, so the whole machine — and everything a run produces —
// must be `Send`. Asserted at compile time so a non-`Send` field added later
// fails here rather than in a downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<SystemConfig>();
    assert_send::<SimError>();
    assert_send::<RunStats>();
};

impl System {
    /// Builds a system running one program per core; cores beyond the
    /// programs given run an idle program that halts at once (a litmus
    /// test's two threads on a four-tile mesh, say). Idle cores quiesce at
    /// their first step and add no interleavings.
    ///
    /// Layout and programs are reference-counted so a workload built once
    /// can be materialized into many systems (e.g. by a parallel experiment
    /// campaign) without deep-cloning its programs: pass `Arc`s to share,
    /// or plain values to have them wrapped on entry.
    ///
    /// # Panics
    ///
    /// Panics if there are more programs than configured cores, or the
    /// core count does not fit the mesh.
    pub fn new(
        cfg: SystemConfig,
        layout: impl Into<Arc<MemoryLayout>>,
        programs: impl IntoIterator<Item = impl Into<Arc<Program>>>,
    ) -> Self {
        let mut programs: Vec<Arc<Program>> = programs.into_iter().map(Into::into).collect();
        let n = cfg.cores;
        assert!(
            programs.len() <= n,
            "{} programs for {n} cores",
            programs.len()
        );
        if programs.len() < n {
            let mut idle = dvs_vm::Asm::new("idle");
            idle.halt();
            programs.resize(n, Arc::new(idle.build()));
        }
        let root = DetRng::new(cfg.seed);
        let threads: Vec<Thread> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut t = Thread::new(i, n, p, root.split(i as u64));
                t.set_alloc_pool(pool_base(i), DEFAULT_POOL_BYTES);
                t
            })
            .collect();
        Self::assemble(cfg, layout.into(), threads.into())
    }

    /// Builds a system whose cores replay recorded op streams instead of
    /// executing programs — the `dvs-trace` fast path (see
    /// [`crate::replay`]). The protocol stack is identical to
    /// [`System::new`]'s; only the core front-ends differ.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams differs from the configured core
    /// count.
    pub fn new_replay(
        cfg: SystemConfig,
        layout: impl Into<Arc<MemoryLayout>>,
        streams: Vec<Arc<[TraceOp]>>,
    ) -> Self {
        assert_eq!(
            streams.len(),
            cfg.cores,
            "need exactly one trace stream per core"
        );
        let cores: Vec<TraceCore> = streams.into_iter().map(TraceCore::new).collect();
        Self::assemble(cfg, layout.into(), cores.into())
    }

    fn assemble(cfg: SystemConfig, layout: Arc<MemoryLayout>, fronts: Fronts) -> Self {
        let mesh = match cfg.mesh {
            Some(shape) => {
                assert_eq!(
                    shape.tiles(),
                    cfg.cores,
                    "mesh {} has {} tiles for {} cores",
                    shape.token(),
                    shape.tiles(),
                    cfg.cores
                );
                Mesh::new(shape.cols as usize, shape.rows as usize)
            }
            None => Mesh::square(cfg.cores),
        };
        let n = cfg.cores;
        let backend = Backend::new(&cfg, &layout, &mesh);
        let mut net = Network::new(mesh, cfg.noc);
        if let Some(plan) = cfg.fault_plan {
            net.enable_jitter(plan.link_seed(), FaultPlan::LINK_JITTER);
        }
        let memory = MainMemory::with_layout(&layout);
        let mut sys = System {
            cfg,
            layout,
            sched: Scheduler::new(),
            msg_pool: Vec::new(),
            free_slots: Vec::new(),
            slot_live: Vec::new(),
            action_scratch: Vec::new(),
            net,
            fronts,
            cores: (0..n)
                .map(|_| CoreState {
                    status: Status::Ready,
                    outstanding_stores: 0,
                    breakdown: dvs_stats::TimeBreakdown::new(),
                    cache: CacheStats::new(),
                    cs_writes: Vec::new(),
                    sig_cursor: 0,
                })
                .collect(),
            backend,
            memory,
            traffic: TrafficStats::new(),
            sig_log: Vec::new(),
            finished: 0,
            finish_time: 0,
            obs: Observer::new(n),
            error: None,
            injector: cfg.fault_plan.map(FaultInjector::new),
            deliveries: 0,
            oracle: None,
        };
        for i in 0..n {
            sys.sched.schedule_at(0, Ev::Step(i));
        }
        sys
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory layout the workload was built against.
    pub fn layout(&self) -> &Arc<MemoryLayout> {
        &self.layout
    }

    /// Pre-initializes a word of main memory before running.
    pub fn preload(&mut self, addr: Addr, value: u64) {
        self.memory.write_word(addr.word(), value);
    }

    /// Overrides a thread's private bump-allocation pool (by default each
    /// thread gets a pool far above any layout; workloads that want nodes to
    /// participate in region self-invalidation place pools inside the
    /// layout). A no-op for trace replay.
    pub fn set_thread_pool(&mut self, core: CoreId, base: Addr, bytes: u64) {
        self.fronts.set_alloc_pool(core, base, bytes);
    }

    /// Attaches a trace recorder capturing this run's per-core op streams
    /// and final memory image (see [`crate::replay`]). Call before
    /// [`System::run`]; seal with [`System::take_recording`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics on a trace-replay system (recording a replay is meaningless).
    pub fn start_recording(&mut self) {
        assert!(
            self.fronts.threads().is_some(),
            "recording requires a VM-driven system"
        );
        self.obs.start_recording(self.cfg.cores);
    }

    /// Detaches and seals the recording started by
    /// [`System::start_recording`]. `init` is the workload's preloaded
    /// image, used to pin final values for words read but never written.
    pub fn take_recording(&mut self, init: &[(Addr, u64)]) -> Option<Recording> {
        self.obs.take_recording(init)
    }

    /// Attaches a telemetry handle. The observer holds the handle and the
    /// network a clone; the controllers and MSHRs hold none — what they
    /// observe comes back as [`Action::Observe`]s, which the system stamps
    /// with the scheduler's cycle and the controller's node and hands to
    /// the observer. The default handle is [`Telemetry::off`], under which
    /// every instrumentation site costs one branch and builds no event.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.net.set_telemetry(tel.clone());
        self.obs.set_telemetry(tel);
    }

    /// Builds the hierarchical metrics tree for this system: per-core stall
    /// counts and duration histograms, L1 hit/miss counters, MSHR high-water
    /// marks, and system-level delivery/traffic totals. Every value is a
    /// simulated quantity, so the tree is identical across hosts, worker
    /// counts, and telemetry handles.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (i, c) in self.cores.iter().enumerate() {
            let node = format!("core{i}");
            self.obs.export_core(i, &node, &mut reg);
            let high_water = self.backend.mshr_high_water(i) as u64;
            reg.add(&node, "mshr", "high_water", high_water);
            reg.add(&node, "l1", "hits", c.cache.hits());
            reg.add(&node, "l1", "misses", c.cache.misses());
        }
        self.backend.export_metrics(&mut reg);
        reg.add("sys", "sched", "deliveries", self.deliveries);
        reg.add("sys", "sched", "finish_cycle", self.finish_time);
        for class in TrafficClass::ALL {
            reg.add("sys", "noc", class.flits_metric(), self.traffic.get(class));
        }
        reg
    }

    /// A thread's architectural state (for test assertions after a run).
    ///
    /// # Panics
    ///
    /// Panics on a trace-replay system (replay cores have no registers).
    pub fn thread(&self, i: CoreId) -> &Thread {
        &self
            .fronts
            .threads()
            .expect("trace-replay systems have no VM threads")[i]
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::KernelAssert`] if a program assertion fails,
    /// [`SimError::Deadlock`] if the event queue drains with threads still
    /// running, [`SimError::CycleLimit`] if the configured limit is hit.
    pub fn run(&mut self) -> Result<RunStats, SimError> {
        // The event loop is monomorphized over invariant checking, so the
        // common configuration (off) dispatches events with no per-event
        // branch on it.
        let result = match self.cfg.check_invariants {
            false => self.run_loop::<false>(),
            true => self.run_loop::<true>(),
        };
        result?;
        if !self.all_halted() {
            return Err(self.deadlock_error());
        }
        Ok(self.collect_stats())
    }

    /// The monomorphized event loop behind [`System::run`]. `INV` runs the
    /// delivery-boundary invariant checkers.
    fn run_loop<const INV: bool>(&mut self) -> Result<(), SimError> {
        while let Some((now, ev)) = self.sched.pop() {
            if now > self.cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.cfg.max_cycles,
                    report: self.stall_report(),
                });
            }
            match ev {
                Ev::Step(i) => self.step_core(i),
                Ev::Resume(i) => self.resume_core(i),
                Ev::Deliver(ep, slot) => {
                    let msg = self.msg_pool[slot];
                    self.release_slot(slot);
                    self.deliver(now, ep, msg, INV);
                }
            }
            if let Some(err) = self.error.take() {
                return Err(err);
            }
        }
        Ok(())
    }

    fn collect_stats(&self) -> RunStats {
        let mut cache = CacheStats::new();
        self.cores.iter().for_each(|c| cache += c.cache);
        RunStats {
            cycles: self.finish_time,
            per_core: self.cores.iter().map(|c| c.breakdown).collect(),
            traffic: self.traffic,
            cache,
            events: self.sched.scheduled_events(),
        }
    }

    /// Verifies the quiescent-state coherence invariants after a completed
    /// run (no in-flight messages): nothing is pending — no MSHR entry, no
    /// busy, queued or fetching bank line and, under GCS, no recall, waiter
    /// bit or remote watch — and the protocol family's one per-line rule
    /// set, the same rules [`System::verify_invariants`] checks at delivery
    /// boundaries, holds for every address. With nothing in flight those
    /// rules are exactly the properties the protocols exist to maintain:
    ///
    /// * **DeNovo single-registrant rule**: every word the registry marks
    ///   `Registered(c)` is held Registered by core `c`, and — the converse
    ///   — every L1-registered word is the one its registry points at, so no
    ///   word ever has two registrants. Under GCS a sync-classified word is
    ///   Valid at its home bank with no silent sharer.
    /// * **MESI owner/sharer agreement**: every directory-owned line is in
    ///   E/M at exactly its owner, and every resident S line is covered by
    ///   the directory's sharer set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn verify_coherence(&self) -> Result<(), String> {
        self.backend.verify()
    }

    // --- runtime invariant checking ---------------------------------------

    /// Runs the delivery-boundary invariant checks after one message: a
    /// targeted check of the delivered message's line, plus a periodic full
    /// scan (settled-state invariants over every tracked address and
    /// MSHR/in-flight conservation). Any failure is converted to
    /// [`SimError::ProtocolViolation`] via `self.error`.
    ///
    /// Unlike [`System::verify_coherence`] (which requires quiescence),
    /// these invariants hold at *every* message-delivery boundary. The key
    /// notion is a **settled** copy: state the L1 holds with no outstanding
    /// MSHR entry for the address — transient states are exempted, settled
    /// state must already obey the protocol's stable-state rules.
    fn check_delivery_invariants(&mut self, msg: &Msg) {
        if let Err(detail) = self.backend.check_line(msg.line()) {
            self.violation(detail);
            return;
        }
        if self.deliveries.is_multiple_of(FULL_SCAN_PERIOD) {
            if let Err(detail) = self.verify_invariants() {
                self.violation(detail);
            }
        }
    }

    /// Full scan of the delivery-boundary invariants: every address any L1
    /// or bank tracks passes its per-line check, and — **conservation** —
    /// every outstanding L1 MSHR entry has something that can resolve it:
    /// an in-flight message for its line, a busy/fetching/queued home-bank
    /// entry, or (DeNovo) a transfer or recall parked on its word. An MSHR
    /// entry with none of those can never complete; that is a lost-message
    /// or lost-wakeup bug caught long before the cycle limit.
    ///
    /// Runs periodically during chaos runs; also public so tests can point
    /// it at a deliberately corrupted machine.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_invariants(&self) -> Result<(), String> {
        // In-flight messages come from the slot pool's liveness flags, which
        // the stash/release pair maintains in every mode; in oracle mode
        // they live in the checker's channel queues instead.
        let live_lines: std::collections::HashSet<dvs_mem::LineAddr> = match &self.oracle {
            Some(o) => o.channels.values().flatten().map(Msg::line).collect(),
            None => self
                .msg_pool
                .iter()
                .zip(&self.slot_live)
                .filter(|(_, &live)| live)
                .map(|(msg, _)| msg.line())
                .collect(),
        };
        self.backend.verify_invariants(&live_lines)
    }

    // --- stall forensics ---------------------------------------------------

    /// Snapshots the machine for a [`SimError::Deadlock`] /
    /// [`SimError::CycleLimit`] report.
    fn stall_report(&self) -> Box<StallReport> {
        let mut report = StallReport::default();
        let mut addrs: std::collections::BTreeSet<dvs_mem::LineAddr> =
            std::collections::BTreeSet::new();
        for (i, core) in self.cores.iter().enumerate() {
            let line = match &core.status {
                Status::Halted => continue,
                Status::Ready => format!("core {i}: ready (event pending)"),
                Status::BlockedMem { req, issued } => {
                    addrs.insert(req.addr.word().line());
                    format!(
                        "core {i}: blocked on memory at {} since cycle {issued}",
                        req.addr
                    )
                }
                Status::Watching { req, since } => {
                    addrs.insert(req.addr.word().line());
                    format!("core {i}: spin-watching {} since cycle {since}", req.addr)
                }
                Status::Reissue { req, after_backoff } => {
                    addrs.insert(req.addr.word().line());
                    format!(
                        "core {i}: waiting to re-issue {} (after_backoff={after_backoff})",
                        req.addr
                    )
                }
                Status::DelaySleep => format!("core {i}: in a timed delay"),
                Status::PendingFence => format!("core {i}: re-checking a fence"),
                Status::FenceWait { since } => format!(
                    "core {i}: fence-waiting on {} outstanding stores since cycle {since}",
                    core.outstanding_stores
                ),
                Status::Dead => format!("core {i}: dead (failed assertion)"),
                Status::DepWait { woken } => format!(
                    "core {i}: trace replay parked on recorded sync order \
                     (op {}, woken={woken})",
                    self.fronts.position(i)
                ),
            };
            report.cores.push(line);
        }
        self.backend.describe_stall(&mut addrs, &mut report);
        report.recent_messages = self.obs.recent_messages();
        report.into()
    }

    /// Reads the architecturally-current value of a word after a run,
    /// resolving through registry/directory state and L1 copies.
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.backend.read_word(&self.memory, addr.word())
    }

    // --- event handlers ----------------------------------------------------

    /// Delivers one message, timed or oracle-picked: counts it (its count
    /// is the delivery ordinal), shows it to the observer, hands it to its
    /// endpoint and, when `check` is set, runs the delivery-boundary
    /// invariant checks.
    fn deliver(&mut self, now: Cycle, ep: Endpoint, msg: Msg, check: bool) {
        self.deliveries += 1;
        self.obs.deliver(now, ep, &msg, self.deliveries);
        self.dispatch(ep, msg);
        if check && self.error.is_none() {
            self.check_delivery_invariants(&msg);
        }
    }

    fn dispatch(&mut self, ep: Endpoint, msg: Msg) {
        match ep {
            Endpoint::L1(_) | Endpoint::Bank(_) => {
                let mut actions = self.take_actions();
                if !self.backend.deliver(ep, msg, &mut actions) {
                    self.action_scratch.push(actions);
                    self.violation(format!("{ep:?} got a foreign message {msg:?}"));
                    return;
                }
                let latency = match ep {
                    Endpoint::L1(_) => self.cfg.latency.remote_l1,
                    _ => self.cfg.latency.l2_access,
                };
                self.apply_actions(ep, latency, actions);
            }
            Endpoint::Mem(node) => match msg {
                Msg::MemRead { line, bank, class } => {
                    let data = self.memory.read_line(line);
                    self.send_msg(
                        node,
                        Endpoint::Bank(bank),
                        Msg::MemData { line, data, class },
                        self.cfg.latency.dram,
                    );
                }
                Msg::MemWrite { line, data, mask } => {
                    self.memory.write_line_masked(line, &data, mask);
                }
                other => {
                    self.violation(format!("memory controller {node} got {other:?}"));
                }
            },
        }
    }

    /// Records a protocol violation; the event loop aborts the run with
    /// [`SimError::ProtocolViolation`] after the current event. The detail
    /// is stamped with the delivery ordinal so a violation can be lined up
    /// against the message ring and trace streams.
    fn violation(&mut self, detail: String) {
        // Keep the first violation: later ones are usually fallout.
        if self.error.is_none() {
            self.error = Some(SimError::ProtocolViolation {
                detail: format!("[delivery #{}] {detail}", self.deliveries),
            });
        }
    }

    fn node_of(&self, ep: Endpoint) -> NodeId {
        match ep {
            Endpoint::L1(i) => i,
            Endpoint::Bank(b) => b,
            Endpoint::Mem(n) => n,
        }
    }

    /// Pops a recycled action buffer (or allocates the pool's next one),
    /// keeping observations only while telemetry records.
    fn take_actions(&mut self) -> Actions {
        let mut actions = self.action_scratch.pop().unwrap_or_default();
        actions.set_observing(self.obs.recording());
        actions
    }

    /// Applies a controller's actions in order, after reporting its
    /// observations: they happened during the controller's call, before any
    /// of its messages reach the network.
    fn apply_actions(&mut self, from: Endpoint, send_delay: Cycle, mut actions: Actions) {
        self.obs.controller(from, self.sched.now(), &actions);
        let src = self.node_of(from);
        'apply: for a in actions.drain(..) {
            match a {
                Action::Observe { .. } => {}
                Action::Send { to, msg } => self.send_msg(src, to, msg, send_delay),
                Action::Local { delay, msg } => {
                    if let Some(o) = &mut self.oracle {
                        // Retries get their own checker-chosen lane: draining
                        // them eagerly could livelock an install-retry loop.
                        o.channels
                            .entry(ChannelKey::Local(from))
                            .or_default()
                            .push_back(msg);
                        continue;
                    }
                    let slot = self.stash(msg);
                    self.sched.schedule_in(delay, Ev::Deliver(from, slot));
                }
                Action::CoreDone { value } => {
                    let Endpoint::L1(i) = from else {
                        self.violation(format!("CoreDone from non-L1 endpoint {from:?}"));
                        break 'apply;
                    };
                    self.core_done(i, value);
                }
                Action::StoresDone { count } => {
                    let Endpoint::L1(i) = from else {
                        self.violation(format!("StoresDone from non-L1 endpoint {from:?}"));
                        break 'apply;
                    };
                    self.stores_done(i, count);
                }
                Action::SpinWake => {
                    let Endpoint::L1(i) = from else {
                        self.violation(format!("SpinWake from non-L1 endpoint {from:?}"));
                        break 'apply;
                    };
                    self.spin_wake(i);
                }
                Action::Violation { detail } => {
                    self.violation(format!("{from:?}: {detail}"));
                    break 'apply;
                }
            }
        }
        // Violations above stop processing (remaining actions are dropped,
        // matching the pre-pool early returns); the buffer is recycled
        // either way.
        actions.clear();
        self.action_scratch.push(actions);
    }

    /// Parks an outbound message in the slot pool until its `Deliver` event
    /// fires. Slots are recycled through the free list, and liveness is
    /// tracked unconditionally: [`System::release_slot`] is the single
    /// other owner of a slot's lifecycle.
    fn stash(&mut self, msg: Msg) -> MsgSlot {
        match self.free_slots.pop() {
            Some(slot) => {
                self.msg_pool[slot] = msg;
                self.slot_live[slot] = true;
                slot
            }
            None => {
                self.msg_pool.push(msg);
                self.slot_live.push(true);
                self.msg_pool.len() - 1
            }
        }
    }

    /// Returns a delivered message's slot to the free list.
    fn release_slot(&mut self, slot: MsgSlot) {
        debug_assert!(self.slot_live[slot], "slot {slot} delivered twice");
        self.slot_live[slot] = false;
        self.free_slots.push(slot);
    }

    fn send_msg(&mut self, src: NodeId, to: Endpoint, msg: Msg, extra_delay: Cycle) {
        if let Some(o) = &mut self.oracle {
            // Oracle mode: no network timing; the checker picks delivery
            // order, constrained only by per-channel FIFO.
            o.channels
                .entry(ChannelKey::Net(src, to))
                .or_default()
                .push_back(msg);
            return;
        }
        let dst = self.node_of(to);
        let inject = self.sched.now() + extra_delay;
        let d = self.net.send(inject, src, dst, msg.flits());
        self.traffic.record(msg.class(), d.crossings);
        let arrive = match &mut self.injector {
            Some(inj) => inj.perturb(src, to, d.arrive),
            None => d.arrive,
        };
        let slot = self.stash(msg);
        self.sched.schedule_at(arrive, Ev::Deliver(to, slot));
    }

    // --- core scheduling -----------------------------------------------------

    fn attr(&mut self, i: CoreId, comp: TimeComponent, cycles: Cycle) {
        if cycles > 0 {
            self.cores[i].breakdown.add_cycles(comp, cycles);
        }
    }

    fn exec_comp(&self, i: CoreId) -> TimeComponent {
        match self.fronts.phase(i) {
            PhaseChange::Normal => TimeComponent::Compute,
            PhaseChange::NonSynch => TimeComponent::NonSynch,
            PhaseChange::BarrierWait => TimeComponent::BarrierStall,
        }
    }

    fn stall_comp(&self, i: CoreId) -> TimeComponent {
        match self.fronts.phase(i) {
            PhaseChange::BarrierWait => TimeComponent::BarrierStall,
            _ => TimeComponent::MemoryStall,
        }
    }

    fn step_core(&mut self, i: CoreId) {
        debug_assert!(matches!(self.cores[i].status, Status::Ready));
        let mut local: Cycle = 0;
        loop {
            // A batch ends once it has retired `MAX_BATCH` cycles' worth;
            // one more instruction may always retire.
            let budget = MAX_BATCH.saturating_sub(local).max(1);
            let (retired, stop) = self.fronts.step(i, budget);
            local += retired;
            self.obs.retired(i, retired);
            let eff = match stop {
                Stop::Effect(eff) => eff,
                Stop::Budget => {
                    let comp = self.exec_comp(i);
                    self.attr(i, comp, local);
                    self.sched.schedule_in(local, Ev::Step(i));
                    return;
                }
                Stop::Parked => {
                    // Replay: the next op is gated on the recorded sync
                    // order. Park; a sync completion on the gating word
                    // wakes every parked core (wake-on-increment, so the
                    // oracle drain terminates without polling).
                    let comp = self.exec_comp(i);
                    self.attr(i, comp, local);
                    self.cores[i].status = Status::DepWait { woken: false };
                    return;
                }
            };
            self.obs.effect(i, &eff, self.sched.now() + local);
            match eff {
                Effect::Mem(req) => {
                    if local > 0 {
                        let comp = self.exec_comp(i);
                        self.attr(i, comp, local);
                        self.cores[i].status = Status::Reissue {
                            req,
                            after_backoff: false,
                        };
                        self.sched.schedule_in(local, Ev::Resume(i));
                        return;
                    }
                    self.issue_mem(i, req, false);
                    return;
                }
                Effect::Delay { cycles, comp } => {
                    let exec = self.exec_comp(i);
                    self.attr(i, exec, local + 1);
                    // Inside an attribution phase the whole delay belongs to
                    // the phase (dummy compute, barrier wait); otherwise to
                    // the delay's own component (sw backoff, modelled work).
                    let delay_comp = match self.fronts.phase(i) {
                        PhaseChange::Normal => comp,
                        _ => exec,
                    };
                    self.attr(i, delay_comp, cycles);
                    self.cores[i].status = Status::DelaySleep;
                    self.sched.schedule_in(local + 1 + cycles, Ev::Resume(i));
                    return;
                }
                Effect::Fence => {
                    if self.cores[i].outstanding_stores == 0 {
                        local += 1;
                        continue;
                    }
                    let comp = self.exec_comp(i);
                    self.attr(i, comp, local + 1);
                    self.cores[i].status = Status::PendingFence;
                    self.sched.schedule_in(local + 1, Ev::Resume(i));
                    return;
                }
                Effect::SelfInvalidate(region) => {
                    local += 1;
                    if self.signatures() {
                        // Invalidate every word published since this core's
                        // previous acquire-side invalidation.
                        let cursor = self.cores[i].sig_cursor;
                        self.backend
                            .self_invalidate_words(i, &self.sig_log[cursor..]);
                        self.cores[i].sig_cursor = self.sig_log.len();
                    } else {
                        self.backend.self_invalidate(i, region);
                    }
                }
                // A trace marker only shows in telemetry (see `effect`).
                Effect::Mark(_) => {}
                Effect::Halted => {
                    let comp = self.exec_comp(i);
                    self.attr(i, comp, local);
                    self.cores[i].status = Status::Halted;
                    self.finished += 1;
                    self.finish_time = self.finish_time.max(self.sched.now() + local);
                    return;
                }
                Effect::Failed { pc, msg } => {
                    self.cores[i].status = Status::Dead;
                    self.error = Some(SimError::KernelAssert { core: i, pc, msg });
                    return;
                }
            }
        }
    }

    fn resume_core(&mut self, i: CoreId) {
        let status = std::mem::replace(&mut self.cores[i].status, Status::Ready);
        match status {
            Status::Reissue { req, after_backoff } => self.issue_mem(i, req, after_backoff),
            // Replay: a parked core re-examines its gated op and re-parks
            // if the board still blocks it.
            Status::DelaySleep | Status::DepWait { .. } => self.step_core(i),
            Status::PendingFence => {
                if self.cores[i].outstanding_stores == 0 {
                    self.step_core(i);
                } else {
                    let now = self.sched.now();
                    self.obs.stall_begin(i, StallClass::Fence, now);
                    self.cores[i].status = Status::FenceWait { since: now };
                }
            }
            other => {
                self.violation(format!("core {i} resumed in state {other:?}"));
            }
        }
    }

    /// Whether data self-invalidation uses the signature log. Only the
    /// DeNovo variants use it (GCS and MESI never do).
    fn signatures(&self) -> bool {
        self.cfg.data_inv == DataInvalidation::Signatures && self.cfg.protocol.is_denovo()
    }

    /// Replay: schedule a re-examination of every core parked on the
    /// sync-ordering board. Parked cores that are still gated re-park, so
    /// spurious wakes are harmless; `woken` dedups the scheduling.
    fn wake_dep_waiters(&mut self) {
        for i in 0..self.cores.len() {
            if let Status::DepWait { woken } = &mut self.cores[i].status {
                if !*woken {
                    *woken = true;
                    self.sched.schedule_in(1, Ev::Resume(i));
                }
            }
        }
    }

    /// Issues a memory request to the core's L1 and schedules whatever the
    /// core does next.
    fn issue_mem(&mut self, i: CoreId, req: MemRequest, after_backoff: bool) {
        let mut actions = self.take_actions();
        let res = self
            .backend
            .core_request(i, &req, after_backoff, &mut actions);
        self.apply_actions(Endpoint::L1(i), 0, actions);
        self.obs.issue(i, &req, &res, self.sched.now());
        if let Some(hit) = res.hit() {
            count_access(&mut self.cores[i].cache, req.kind, hit);
        }
        if self.signatures()
            && matches!(req.kind, dvs_mem::AccessKind::DataStore { .. })
            && !matches!(res, IssueResult::Blocked)
        {
            self.cores[i].cs_writes.push(req.addr.word());
        }
        match res {
            IssueResult::Hit { value } => {
                let hit = self.cfg.latency.l1_hit;
                if self.finish_access(i, req, value, hit) {
                    let comp = self.exec_comp(i);
                    self.attr(i, comp, hit);
                }
            }
            IssueResult::Miss => {
                let issued = self.sched.now();
                self.cores[i].status = Status::BlockedMem { req, issued };
            }
            IssueResult::StoreAccepted { completed } => {
                if !completed {
                    self.cores[i].outstanding_stores += 1;
                }
                let comp = self.exec_comp(i);
                self.attr(i, comp, self.cfg.latency.l1_hit);
                self.cores[i].status = Status::Ready;
                self.sched.schedule_in(self.cfg.latency.l1_hit, Ev::Step(i));
            }
            IssueResult::Backoff { cycles } => {
                self.attr(i, TimeComponent::HwBackoff, cycles);
                self.cores[i].status = Status::Reissue {
                    req,
                    after_backoff: true,
                };
                self.sched.schedule_in(cycles.max(1), Ev::Resume(i));
            }
            IssueResult::Blocked => {
                self.cores[i].status = Status::Reissue { req, after_backoff };
                if let Some(o) = &mut self.oracle {
                    // Park instead of polling: a blocked access can only
                    // unblock after some delivery, so the checker re-issues
                    // parked cores after each one.
                    o.parked.push(i);
                    return;
                }
                let comp = self.stall_comp(i);
                self.attr(i, comp, RETRY_CYCLES);
                self.sched.schedule_in(RETRY_CYCLES, Ev::Resume(i));
            }
        }
    }

    /// The tail of a blocking access that returned `value` (an L1 hit, or a
    /// miss's completion). A spin that saw an unsatisfying value starts a
    /// watch and this returns false. Otherwise the completion reaches the
    /// signature log and the front end (a replay core's board advancing
    /// wakes the cores parked on it), and the core steps again after
    /// `delay`.
    fn finish_access(
        &mut self,
        i: CoreId,
        req: MemRequest,
        value: Option<u64>,
        delay: Cycle,
    ) -> bool {
        if let Some(spin) = req.spin {
            let v = value.expect("spin loads return values");
            if !spin.satisfied(v) {
                self.start_watch(i, req, v);
                return false;
            }
        }
        // Signature mode: a release (sync store or RMW — an RMW is both
        // acquire and release) publishes the core's accumulated writes to
        // the global log, visible to every later acquire-side invalidation.
        if self.signatures() && req.kind.is_sync() && req.kind.may_write() {
            let writes = std::mem::take(&mut self.cores[i].cs_writes);
            self.sig_log.extend(writes);
        }
        let value = value.unwrap_or(0);
        self.obs.complete(i, &req, value);
        match self.fronts.complete(i, &req, value) {
            Ok(true) => self.wake_dep_waiters(),
            Ok(false) => {}
            Err(msg) => self.violation(format!("core {i}: {msg}")),
        }
        self.cores[i].status = Status::Ready;
        self.sched.schedule_in(delay, Ev::Step(i));
        true
    }

    /// Parks a failed spin on a watch if the backend takes one. `seen` is
    /// the value the spin just observed.
    fn start_watch(&mut self, i: CoreId, req: MemRequest, seen: u64) {
        let mut actions = self.take_actions();
        let watching = self.backend.watch(i, req.addr.word(), seen, &mut actions);
        self.apply_actions(Endpoint::L1(i), 0, actions);
        if watching {
            let now = self.sched.now();
            self.obs.stall_begin(i, StallClass::Spin, now);
            self.cores[i].status = Status::Watching { req, since: now };
            return;
        }
        // The copy is already gone (or was never installed).
        self.recheck_spin(i, req);
    }

    /// Re-issues a spin load after the spin-loop overhead.
    fn recheck_spin(&mut self, i: CoreId, req: MemRequest) {
        let comp = self.exec_comp(i);
        self.attr(i, comp, self.cfg.latency.spin_recheck);
        self.cores[i].status = Status::Reissue {
            req,
            after_backoff: false,
        };
        self.sched
            .schedule_in(self.cfg.latency.spin_recheck, Ev::Resume(i));
    }

    fn core_done(&mut self, i: CoreId, value: Option<u64>) {
        let status = std::mem::replace(&mut self.cores[i].status, Status::Ready);
        let Status::BlockedMem { req, issued } = status else {
            self.violation(format!("core {i} memory completion in state {status:?}"));
            self.cores[i].status = status;
            return;
        };
        let comp = self.stall_comp(i);
        let now = self.sched.now();
        self.obs.stall_end(i, StallClass::Memory, issued, now);
        self.attr(i, comp, now - issued);
        self.finish_access(i, req, value, 1);
    }

    fn stores_done(&mut self, i: CoreId, count: usize) {
        if self.cores[i].outstanding_stores < count {
            self.violation(format!(
                "core {i}: {count} store completions with only {} outstanding",
                self.cores[i].outstanding_stores
            ));
            return;
        }
        self.cores[i].outstanding_stores -= count;
        if self.cores[i].outstanding_stores == 0 {
            if let Status::FenceWait { since } = self.cores[i].status {
                let comp = self.stall_comp(i);
                let now = self.sched.now();
                self.obs.stall_end(i, StallClass::Fence, since, now);
                self.attr(i, comp, now - since);
                self.cores[i].status = Status::Ready;
                self.sched.schedule_in(1, Ev::Step(i));
            }
        }
    }

    fn spin_wake(&mut self, i: CoreId) {
        self.backend.clear_watch(i);
        let status = std::mem::replace(&mut self.cores[i].status, Status::Ready);
        let Status::Watching { req, since } = status else {
            // A wake can race a transition we already made; ignore.
            self.cores[i].status = status;
            return;
        };
        // Spinning on the cached copy counts as compute (the paper: "a large
        // part of compute time is from spinning synchronization read
        // accesses (cache hits)").
        let comp = self.exec_comp(i);
        let now = self.sched.now();
        self.obs.stall_end(i, StallClass::Spin, since, now);
        self.attr(i, comp, now - since);
        self.recheck_spin(i, req);
    }

    // --- oracle (model-checking) mode ---------------------------------------

    /// Switches a freshly built system (from [`System::new`] or
    /// [`System::new_replay`], after any preloading) into **oracle mode**
    /// for the model checker and the oracle walks: protocol messages
    /// enqueue into per-channel FIFO queues instead of timed deliveries,
    /// and the caller picks which channel's head message to deliver next
    /// via [`System::oracle_deliver`]. Runs the initial core steps to
    /// quiescence; from then on every delivery drains again (local core
    /// steps of different cores commute, so their interleaving is never a
    /// branch point).
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.data_inv` is
    /// [`DataInvalidation::StaticRegions`]: the signature log is global
    /// state shared by all cores, which breaks the delivery-commutativity
    /// argument the checker's partial-order reduction relies on.
    pub fn start_oracle(&mut self) {
        assert_eq!(
            self.cfg.data_inv,
            DataInvalidation::StaticRegions,
            "oracle mode requires static-region self-invalidation"
        );
        self.oracle = Some(OracleState::default());
        self.oracle_drain();
    }

    /// Oracle mode: runs every scheduled core event (steps, resumes,
    /// delays) to quiescence. No `Deliver` events exist in oracle mode, so
    /// this always terminates: every chain of core events ends in a halt, a
    /// park, a watch, or a memory block.
    fn oracle_drain(&mut self) {
        while let Some((_, ev)) = self.sched.pop() {
            if self.error.is_some() {
                continue; // discard the rest; the error is terminal
            }
            match ev {
                Ev::Step(i) => self.step_core(i),
                Ev::Resume(i) => self.resume_core(i),
                Ev::Deliver(..) => unreachable!("oracle mode schedules no Deliver events"),
            }
        }
    }

    /// Oracle mode: the channels currently holding at least one undelivered
    /// message — the enabled transitions of the current state, in canonical
    /// (sorted) order.
    pub fn oracle_channels(&self) -> Vec<ChannelKey> {
        match &self.oracle {
            Some(o) => o.channels.keys().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Oracle mode: delivers the head message of `key`, re-issues parked
    /// cores, and runs the machine back to quiescence. Returns `false` if
    /// the channel holds no message (the pick was invalid).
    pub fn oracle_deliver(&mut self, key: ChannelKey) -> bool {
        let msg = {
            let Some(o) = &mut self.oracle else {
                return false;
            };
            let Some(q) = o.channels.get_mut(&key) else {
                return false;
            };
            let Some(msg) = q.pop_front() else {
                return false;
            };
            if q.is_empty() {
                // Keep the channel map canonical: no empty queues.
                o.channels.remove(&key);
            }
            msg
        };
        self.deliver(self.sched.now(), key.dst(), msg, self.cfg.check_invariants);
        // A delivery is the only thing that can unblock a parked core:
        // re-issue them all (a still-blocked one just re-parks).
        let parked = std::mem::take(&mut self.oracle.as_mut().expect("oracle mode").parked);
        for i in parked {
            if self.error.is_none() {
                self.sched.schedule_in(0, Ev::Resume(i));
            }
        }
        self.oracle_drain();
        true
    }

    /// Oracle mode: a seeded random walk to quiescence. Each step delivers
    /// the head of `channels[rng.below(len)]` — the canonical channel order
    /// makes the walk a function of `seed` alone — sampling delivery orders
    /// no timed schedule would produce. Returns the number of deliveries.
    ///
    /// # Errors
    ///
    /// [`RunError::Sim`] when the machine records an error;
    /// [`RunError::Check`] when the walk needs more than `budget`
    /// deliveries, or the channels drain with a core still running.
    pub fn oracle_walk(&mut self, seed: u64, budget: u64) -> Result<u64, RunError> {
        let mut rng = DetRng::new(seed);
        let mut delivered = 0;
        loop {
            if let Some(e) = &self.error {
                return Err(RunError::Sim(e.clone()));
            }
            let channels = self.oracle_channels();
            if channels.is_empty() {
                break;
            }
            if delivered == budget {
                return Err(RunError::Check(format!(
                    "oracle walk exceeded {budget} deliveries without quiescing"
                )));
            }
            self.oracle_deliver(channels[rng.below(channels.len())]);
            delivered += 1;
        }
        if !self.all_halted() {
            return Err(RunError::Check(format!(
                "channels drained with threads running: {}",
                self.deadlock_error()
            )));
        }
        Ok(delivered)
    }

    /// Whether every thread has halted.
    pub fn all_halted(&self) -> bool {
        self.cores
            .iter()
            .all(|c| matches!(c.status, Status::Halted))
    }

    /// The recorded error (assertion failure or protocol violation), if any.
    pub fn error(&self) -> Option<&SimError> {
        self.error.as_ref()
    }

    /// Builds the deadlock error for the current state — used by the model
    /// checker when the channels drain with threads still running (it
    /// drives deliveries itself instead of calling [`System::run`]).
    pub fn deadlock_error(&self) -> SimError {
        let stuck = (0..self.cores.len())
            .filter(|&i| !matches!(self.cores[i].status, Status::Halted))
            .collect();
        SimError::Deadlock {
            stuck,
            report: self.stall_report(),
        }
    }

    /// Canonical fingerprint of the architectural state, for the model
    /// checker's visited set. Includes everything that influences future
    /// behaviour: threads, core statuses (minus timestamps), L1s, banks,
    /// main memory, and undelivered channel contents. Excludes timing,
    /// statistics, and diagnostics, so two states reached by different
    /// schedules compare equal iff their futures are identical.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.fronts.hash_into(&mut h);
        for c in &self.cores {
            match &c.status {
                Status::Ready => h.write_u8(0),
                Status::BlockedMem { req, .. } => {
                    h.write_u8(1);
                    req.hash(&mut h);
                }
                Status::Watching { req, .. } => {
                    h.write_u8(2);
                    req.hash(&mut h);
                }
                Status::Reissue { req, after_backoff } => {
                    h.write_u8(3);
                    req.hash(&mut h);
                    after_backoff.hash(&mut h);
                }
                Status::DelaySleep => h.write_u8(4),
                Status::PendingFence => h.write_u8(5),
                Status::FenceWait { .. } => h.write_u8(6),
                Status::Halted => h.write_u8(7),
                Status::Dead => h.write_u8(8),
                Status::DepWait { woken } => {
                    h.write_u8(9);
                    woken.hash(&mut h);
                }
            }
            c.outstanding_stores.hash(&mut h);
            c.cs_writes.hash(&mut h);
            c.sig_cursor.hash(&mut h);
        }
        self.backend.hash_into(&mut h);
        self.memory.hash(&mut h);
        self.sig_log.hash(&mut h);
        if let Some(o) = &self.oracle {
            for (k, q) in &o.channels {
                k.hash(&mut h);
                h.write_usize(q.len());
                for m in q {
                    m.hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::denovo::DnvRegistry;
    use dvs_mem::LayoutBuilder;
    use dvs_stats::TrafficClass;
    use dvs_telemetry::{Component, EventKind};
    use dvs_vm::isa::{Cond, Reg};
    use dvs_vm::Asm;

    /// The registry banks of a DeNovo-family (DS0 / DS / GCS) system.
    fn regs(sys: &mut System) -> &mut [DnvRegistry] {
        match &mut sys.backend {
            Backend::DeNovo { regs, .. } => regs,
            Backend::Mesi { .. } => panic!("not a DeNovo-family system"),
        }
    }

    fn counter_layout() -> (MemoryLayout, Addr) {
        let mut b = LayoutBuilder::new();
        let r = b.region("sync");
        let c = b.sync_var("counter", r, true);
        (b.build(), c)
    }

    fn run_all_protocols(
        make: impl Fn(usize, usize) -> Program,
        cores: usize,
        check: impl Fn(&System, &RunStats, Protocol),
    ) {
        for proto in Protocol::ALL {
            let (layout, _) = counter_layout();
            let programs = (0..cores).map(|i| make(i, cores)).collect::<Vec<_>>();
            let mut sys = System::new(SystemConfig::small(cores, proto), layout, programs);
            let stats = sys.run().unwrap_or_else(|e| panic!("{proto:?}: {e}"));
            check(&sys, &stats, proto);
        }
    }

    #[test]
    fn single_core_compute_and_store() {
        let (_, counter) = counter_layout();
        for proto in Protocol::ALL {
            let mut a = Asm::new("calc");
            a.movi(Reg(1), counter.raw())
                .movi(Reg(2), 123)
                .store(Reg(2), Reg(1), 0)
                .fence()
                .halt();
            let (l2, _) = counter_layout();
            let mut sys = System::new(SystemConfig::small(1, proto), l2, vec![a.build()]);
            let stats = sys.run().unwrap();
            assert_eq!(sys.read_word(counter), 123, "{proto:?}");
            assert!(stats.cycles > 0);
            assert!(
                stats.traffic.total() == 0,
                "single tile: all same-node traffic"
            );
        }
    }

    #[test]
    fn four_cores_atomic_increment_all_protocols() {
        let (_, counter) = counter_layout();
        run_all_protocols(
            |_i, _n| {
                let mut a = Asm::new("fai");
                a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
                for _ in 0..25 {
                    a.fai(Reg(3), Reg(1), 0, Reg(2));
                }
                a.halt();
                a.build()
            },
            4,
            |sys, stats, proto| {
                assert_eq!(sys.read_word(counter), 100, "{proto:?}");
                assert!(stats.cycles > 0);
                assert!(stats.traffic.total() > 0);
            },
        );
    }

    #[test]
    fn producer_consumer_spin_all_protocols() {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        let flag = b.sync_var("flag", r, true);
        let data = b.segment("data", 64, r);
        let region = r;
        let make = move |i: usize, _n: usize| {
            if i == 0 {
                let mut a = Asm::new("producer");
                a.movi(Reg(1), data.raw())
                    .movi(Reg(2), 4242)
                    .store(Reg(2), Reg(1), 0)
                    .fence()
                    .movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .stores(Reg(4), Reg(3), 0)
                    .halt();
                a.build()
            } else {
                let mut a = Asm::new("consumer");
                a.movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .spin_until(Reg(5), Reg(3), 0, Cond::Eq, Reg(4))
                    .self_inv(region)
                    .movi(Reg(1), data.raw())
                    .load(Reg(6), Reg(1), 0)
                    .movi(Reg(7), 4242)
                    .assert_cond(Cond::Eq, Reg(6), Reg(7), "consumer read stale data")
                    .halt();
                a.build()
            }
        };
        for proto in Protocol::ALL {
            let mut lb = LayoutBuilder::new();
            let r2 = lb.region("shared");
            lb.sync_var("flag", r2, true);
            lb.segment("data", 64, r2);
            let programs = (0..4).map(|i| make(i, 4)).collect::<Vec<_>>();
            let mut sys = System::new(SystemConfig::small(4, proto), lb.build(), programs);
            sys.run().unwrap_or_else(|e| panic!("{proto:?}: {e}"));
            for c in 1..4 {
                assert_eq!(sys.thread(c).reg(Reg(6)), 4242, "{proto:?} core {c}");
            }
        }
    }

    #[test]
    fn mesi_has_invalidation_traffic_denovo_does_not() {
        let (_, counter) = counter_layout();
        let make = |_i: usize, _n: usize| {
            let mut a = Asm::new("contend");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            for _ in 0..10 {
                // Read-share, then write: classic invalidation pattern.
                a.loads(Reg(3), Reg(1), 0);
                a.fai(Reg(3), Reg(1), 0, Reg(2));
            }
            a.halt();
            a.build()
        };
        let mut inv_by_proto = Vec::new();
        for proto in Protocol::ALL {
            let (layout, _) = counter_layout();
            let programs = (0..4).map(|i| make(i, 4)).collect::<Vec<_>>();
            let mut sys = System::new(SystemConfig::small(4, proto), layout, programs);
            let stats = sys.run().unwrap();
            inv_by_proto.push((proto, stats.traffic.get(TrafficClass::Invalidation)));
            if proto.is_denovo() {
                assert_eq!(
                    stats.traffic.get(TrafficClass::Invalidation),
                    0,
                    "DeNovo must have zero invalidation traffic"
                );
                assert!(
                    stats.traffic.get(TrafficClass::Sync) > 0,
                    "DeNovo sync accesses travel as SYNCH"
                );
            }
        }
        assert!(
            inv_by_proto[0].1 > 0,
            "MESI read-share-then-write must invalidate: {inv_by_proto:?}"
        );
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        // One core spins forever on a flag nobody sets.
        let mut lb = LayoutBuilder::new();
        let r = lb.region("sync");
        let flag = lb.sync_var("flag", r, true);
        let mut a = Asm::new("waiter");
        a.movi(Reg(1), flag.raw())
            .movi(Reg(2), 1)
            .spin_until(Reg(3), Reg(1), 0, Cond::Eq, Reg(2))
            .halt();
        let mut sys = System::new(
            SystemConfig::small(1, Protocol::DeNovoSync0),
            lb.build(),
            vec![a.build()],
        );
        match sys.run() {
            Err(SimError::Deadlock { stuck, report }) => {
                assert_eq!(stuck, vec![0]);
                assert!(
                    report.cores.iter().any(|l| l.starts_with("core 0:")),
                    "report must name the stuck core: {report}"
                );
                assert!(
                    report
                        .cores
                        .iter()
                        .any(|l| l.contains(&format!("{}", flag))),
                    "report must name the watched flag address: {report}"
                );
                assert!(
                    !report.recent_messages.is_empty(),
                    "report must include recent message history"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn replay_parked_on_the_sync_order_is_reported() {
        // Core 0's sync load waits for a first write to its word that no
        // stream ever makes.
        let mut lb = LayoutBuilder::new();
        let r = lb.region("sync");
        let flag = lb.sync_var("flag", r, true);
        let load = TraceOp::SyncLoad {
            addr: flag,
            dep: 1,
            result: 0,
            has_result: false,
        };
        let mut sys = System::new_replay(
            SystemConfig::small(1, Protocol::DeNovoSync),
            lb.build(),
            vec![Arc::from([load, TraceOp::Halt])],
        );
        match sys.run() {
            Err(SimError::Deadlock { stuck, report }) => {
                assert_eq!(stuck, vec![0]);
                let want = "core 0: trace replay parked on recorded sync order (op 0, woken=false)";
                assert!(report.cores.iter().any(|l| l == want), "{report}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn kernel_assert_surfaces_as_error() {
        let (layout, _) = counter_layout();
        let mut a = Asm::new("bad");
        a.movi(Reg(1), 1)
            .movi(Reg(2), 2)
            .assert_cond(Cond::Eq, Reg(1), Reg(2), "intentional")
            .halt();
        let mut sys = System::new(
            SystemConfig::small(1, Protocol::Mesi),
            layout,
            vec![a.build()],
        );
        match sys.run() {
            Err(SimError::KernelAssert {
                core: 0,
                msg: "intentional",
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn time_breakdown_attributes_nonsynch_delay() {
        let (layout, counter) = counter_layout();
        let mut a = Asm::new("delayed");
        a.movi(Reg(1), counter.raw())
            .rand_delay(1400, 1800, TimeComponent::NonSynch)
            .movi(Reg(2), 7)
            .stores(Reg(2), Reg(1), 0)
            .halt();
        let mut sys = System::new(
            SystemConfig::small(1, Protocol::DeNovoSync),
            layout,
            vec![a.build()],
        );
        let stats = sys.run().unwrap();
        let b = stats.breakdown();
        assert!(b.get(TimeComponent::NonSynch) >= 1400);
        assert!(b.get(TimeComponent::Compute) > 0);
    }

    #[test]
    fn verify_coherence_passes_after_clean_runs() {
        for proto in Protocol::ALL {
            let (layout, counter) = counter_layout();
            let make = || {
                let mut a = Asm::new("inc");
                a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
                for _ in 0..10 {
                    a.fai(Reg(3), Reg(1), 0, Reg(2));
                }
                a.halt();
                a.build()
            };
            let programs = (0..4).map(|_| make()).collect::<Vec<_>>();
            let mut sys = System::new(SystemConfig::small(4, proto), layout, programs);
            sys.run().unwrap();
            sys.verify_coherence()
                .unwrap_or_else(|e| panic!("{proto:?}: {e}"));
        }
    }

    #[test]
    fn verify_coherence_catches_injected_violations() {
        // DeNovo: re-point a registry word at a core that does not hold it.
        let (layout, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("inc");
            a.movi(Reg(1), counter.raw())
                .movi(Reg(2), 1)
                .fai(Reg(3), Reg(1), 0, Reg(2))
                .halt();
            a.build()
        };
        let mut sys = System::new(
            SystemConfig::small(4, Protocol::DeNovoSync0),
            layout,
            (0..4).map(|_| make()).collect::<Vec<_>>(),
        );
        sys.run().unwrap();
        sys.verify_coherence().expect("clean before corruption");
        // Corrupt: force a bogus registration through the public message
        // interface of a bank that saw the counter's line.
        let word = counter.word();
        let bank = crate::proto::home_bank(word.line(), 4);
        let reg = &mut regs(&mut sys)[bank];
        let mut scratch = Actions::new(true);
        // Whoever is registered, re-register to a different core without
        // telling any L1.
        let current = match reg.word(word) {
            Some(crate::denovo::registry::RegWord::Registered(c)) => c,
            _ => {
                // Counter ended Valid at L2; registering core 2 without its
                // L1 knowing is equally inconsistent.
                3
            }
        };
        let thief = (current + 1) % 4;
        reg.on_msg(
            crate::msg::Msg::Dnv(crate::msg::DnvMsg::RegReq {
                word,
                req: thief,
                class: crate::msg::XferClass::SyncRead,
            }),
            &mut scratch,
        );
        assert!(
            sys.verify_coherence().is_err(),
            "verifier must flag a registry pointer with no holder"
        );
    }

    #[test]
    fn runtime_invariant_checker_catches_corrupted_registry() {
        // Same corruption as above, but caught by the delivery-boundary
        // invariant checker — which needs no quiescence and returns a
        // description instead of panicking, so chaos runs can abort with a
        // ProtocolViolation naming the bad state.
        let (layout, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("inc");
            a.movi(Reg(1), counter.raw())
                .movi(Reg(2), 1)
                .fai(Reg(3), Reg(1), 0, Reg(2))
                .halt();
            a.build()
        };
        let mut sys = System::new(
            SystemConfig::small(4, Protocol::DeNovoSync0),
            layout,
            (0..4).map(|_| make()).collect::<Vec<_>>(),
        );
        sys.run().unwrap();
        sys.verify_invariants().expect("clean after a clean run");
        let word = counter.word();
        let bank = crate::proto::home_bank(word.line(), 4);
        let reg = &mut regs(&mut sys)[bank];
        let current = match reg.word(word) {
            Some(crate::denovo::registry::RegWord::Registered(c)) => c,
            _ => 3,
        };
        let thief = (current + 1) % 4;
        let mut scratch = Actions::new(true);
        reg.on_msg(
            crate::msg::Msg::Dnv(crate::msg::DnvMsg::RegReq {
                word,
                req: thief,
                class: crate::msg::XferClass::SyncRead,
            }),
            &mut scratch,
        );
        let err = sys
            .verify_invariants()
            .expect_err("checker must flag a registry pointer with no holder");
        assert!(
            err.contains("registry points"),
            "unexpected violation detail: {err}"
        );
    }

    #[test]
    fn runtime_invariant_checker_catches_a_dropped_sharer() {
        // MESI: every core read-shares the counter's line; the home
        // directory then drops core 0 from its sharer set (a stale PutS)
        // while core 0 keeps its settled S copy — one a later writer's
        // invalidations would never reach.
        let (layout, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("read");
            a.movi(Reg(1), counter.raw()).load(Reg(2), Reg(1), 0).halt();
            a.build()
        };
        let mut sys = System::new(
            SystemConfig::small(4, Protocol::Mesi),
            layout,
            (0..4).map(|_| make()).collect::<Vec<_>>(),
        );
        sys.run().unwrap();
        sys.verify_invariants().expect("clean after a clean run");
        let line = counter.word().line();
        let Backend::Mesi { dirs, .. } = &mut sys.backend else {
            panic!("not a MESI system");
        };
        let put = crate::msg::MesiMsg::PutS { line, req: 0 };
        dirs[crate::proto::home_bank(line, 4)].on_msg(Msg::Mesi(put), &mut Actions::new(true));
        let err = sys
            .verify_invariants()
            .expect_err("checker must flag an S copy outside the sharer set");
        assert!(err.contains("cores [0] hold S copies outside"), "{err}");
        assert!(sys.verify_coherence().is_err());
    }

    #[test]
    fn runs_are_deterministic() {
        let (_, counter) = counter_layout();
        let make = |_: usize| {
            let mut a = Asm::new("det");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            for _ in 0..20 {
                a.fai(Reg(3), Reg(1), 0, Reg(2));
                a.rand_delay(10, 50, TimeComponent::NonSynch);
            }
            a.halt();
            a.build()
        };
        let run = || {
            let (layout, _) = counter_layout();
            let mut sys = System::new(
                SystemConfig::small(4, Protocol::DeNovoSync),
                layout,
                (0..4).map(make).collect::<Vec<_>>(),
            );
            sys.run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.events, b.events);
    }

    // --- GCS end-to-end ----------------------------------------------------

    #[test]
    fn gcs_contended_counter_classifies_and_stays_coherent() {
        let (layout, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("fai");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            for _ in 0..25 {
                a.fai(Reg(3), Reg(1), 0, Reg(2));
            }
            a.halt();
            a.build()
        };
        let mut cfg = SystemConfig::small(4, Protocol::Gcs);
        cfg.check_invariants = true;
        let mut sys = System::new(cfg, layout, (0..4).map(|_| make()).collect::<Vec<_>>());
        let stats = sys.run().unwrap();
        assert_eq!(sys.read_word(counter), 100);
        sys.verify_coherence().unwrap();
        sys.verify_invariants().unwrap();
        // Contended sync RMWs must have classified the counter and moved it
        // onto the bank-side update path.
        let word = counter.word();
        let bank = &regs(&mut sys)[crate::proto::home_bank(word.line(), 4)];
        assert!(bank.classified(word), "contended RMW target classifies");
        assert!(bank.recalls() >= 1, "classification recalls the registrant");
        assert_eq!(
            stats.traffic.get(TrafficClass::Invalidation),
            0,
            "GCS sends no invalidations"
        );
        assert!(stats.traffic.get(TrafficClass::Sync) > 0);
    }

    #[test]
    fn gcs_spinners_park_at_the_bank_and_are_notified() {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        let flag = b.sync_var("flag", r, true);
        let data = b.segment("data", 64, r);
        let make = move |i: usize| {
            if i == 0 {
                let mut a = Asm::new("producer");
                a.movi(Reg(1), data.raw())
                    .movi(Reg(2), 777)
                    .store(Reg(2), Reg(1), 0)
                    .fence()
                    .rand_delay(200, 400, TimeComponent::NonSynch)
                    .movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .stores(Reg(4), Reg(3), 0)
                    .halt();
                a.build()
            } else {
                let mut a = Asm::new("consumer");
                a.movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .spin_until(Reg(5), Reg(3), 0, Cond::Eq, Reg(4))
                    .self_inv(r)
                    .movi(Reg(1), data.raw())
                    .load(Reg(6), Reg(1), 0)
                    .movi(Reg(7), 777)
                    .assert_cond(Cond::Eq, Reg(6), Reg(7), "consumer read stale data")
                    .halt();
                a.build()
            }
        };
        let mut cfg = SystemConfig::small(4, Protocol::Gcs);
        cfg.check_invariants = true;
        let mut sys = System::new(cfg, b.build(), (0..4).map(make).collect::<Vec<_>>());
        sys.run().unwrap();
        sys.verify_coherence().unwrap();
        for c in 1..4 {
            assert_eq!(sys.thread(c).reg(Reg(6)), 777, "core {c}");
        }
        let notifies: u64 = regs(&mut sys).iter().map(|b| b.notifies()).sum();
        assert!(
            notifies >= 1,
            "spinning consumers must be woken by targeted notification"
        );
    }

    #[test]
    fn gcs_skip_update_mutation_loses_increments() {
        let (_, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("fai");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            for _ in 0..10 {
                a.fai(Reg(3), Reg(1), 0, Reg(2));
            }
            a.halt();
            a.build()
        };
        let run = |mutation| {
            let (layout, _) = counter_layout();
            let mut cfg = SystemConfig::small(4, Protocol::Gcs);
            cfg.mutation = mutation;
            let mut sys = System::new(cfg, layout, (0..4).map(|_| make()).collect::<Vec<_>>());
            sys.run().unwrap();
            sys.read_word(counter)
        };
        assert_eq!(run(None), 40, "stock protocol counts correctly");
        assert!(
            run(Some(crate::config::ProtocolMutation::GcsSkipUpdate)) < 40,
            "skip-update must lose increments once the counter classifies"
        );
    }

    #[test]
    fn gcs_drop_notify_mutation_deadlocks_the_spinners() {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        let flag = b.sync_var("flag", r, true);
        let make = move |i: usize| {
            if i == 0 {
                let mut a = Asm::new("producer");
                a.rand_delay(300, 500, TimeComponent::NonSynch)
                    .movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .stores(Reg(4), Reg(3), 0)
                    .halt();
                a.build()
            } else {
                let mut a = Asm::new("consumer");
                a.movi(Reg(3), flag.raw())
                    .movi(Reg(4), 1)
                    .spin_until(Reg(5), Reg(3), 0, Cond::Eq, Reg(4))
                    .halt();
                a.build()
            }
        };
        let mut cfg = SystemConfig::small(4, Protocol::Gcs);
        cfg.mutation = Some(crate::config::ProtocolMutation::GcsDropNotify);
        let mut sys = System::new(cfg, b.build(), (0..4).map(make).collect::<Vec<_>>());
        match sys.run() {
            Err(SimError::Deadlock { stuck, .. }) => {
                assert!(!stuck.is_empty(), "some spinner must be stranded");
            }
            other => panic!("dropped notifies must strand the waiters, got {other:?}"),
        }
    }

    #[test]
    fn mesi_sharers_beyond_64_cores_are_invalidated() {
        // Cores 64..128 read-share the counter's line, then core 0 writes
        // it: every sharer must be invalidated, including those whose ids
        // do not fit a 64-bit sharer mask.
        use crate::config::MeshShape;
        let (layout, counter) = counter_layout();
        let make = |i: usize| {
            let mut a = Asm::new("share");
            a.movi(Reg(1), counter.raw());
            if i == 0 {
                a.delay(3000, TimeComponent::NonSynch)
                    .movi(Reg(2), 7)
                    .store(Reg(2), Reg(1), 0)
                    .fence();
            } else if i >= 64 {
                a.load(Reg(3), Reg(1), 0);
            }
            a.halt();
            a.build()
        };
        let mut cfg = SystemConfig::meshed(MeshShape::new(16, 8).unwrap(), Protocol::Mesi);
        cfg.check_invariants = true;
        let mut sys = System::new(cfg, layout, (0..128).map(make).collect::<Vec<_>>());
        sys.run().unwrap();
        sys.verify_coherence().unwrap();
        assert_eq!(sys.read_word(counter), 7);
    }

    #[test]
    fn runtime_checker_catches_corrupted_gcs_waiter_set() {
        // Set a waiter bit for a core that is not remote-watching: the
        // notify-fanout-matches-waiter-set invariant must flag it.
        let mut b = LayoutBuilder::new();
        let r = b.region("sync");
        let flag = b.sync_var("flag", r, true);
        let make = || {
            let mut a = Asm::new("inc");
            a.movi(Reg(1), flag.raw())
                .movi(Reg(2), 1)
                .fai(Reg(3), Reg(1), 0, Reg(2))
                .halt();
            a.build()
        };
        let mut sys = System::new(
            SystemConfig::small(4, Protocol::Gcs),
            b.build(),
            (0..4).map(|_| make()).collect::<Vec<_>>(),
        );
        sys.run().unwrap();
        sys.verify_invariants().expect("clean after a clean run");
        let word = flag.word();
        let seen = sys.read_word(flag);
        let bank = crate::proto::home_bank(word.line(), 4);
        let g = &mut regs(&mut sys)[bank];
        assert!(g.classified(word), "contended RMW target classifies");
        // Corrupt through the public interface: park a watch for core 2
        // with a stale `seen`, without core 2's L1 arming a remote watch.
        let mut scratch = Actions::new(true);
        g.on_msg(
            crate::msg::Msg::Dnv(crate::msg::DnvMsg::SyncWatch { word, req: 2, seen }),
            &mut scratch,
        );
        let err = sys
            .verify_invariants()
            .expect_err("checker must flag a waiter bit with no watcher");
        assert!(err.contains("waiter bit"), "unexpected detail: {err}");
    }

    #[test]
    fn gcs_runs_on_non_square_and_large_meshes() {
        use crate::config::MeshShape;
        let (_, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("fai");
            a.movi(Reg(1), counter.raw())
                .movi(Reg(2), 1)
                .fai(Reg(3), Reg(1), 0, Reg(2))
                .halt();
            a.build()
        };
        for (rows, cols) in [(2u32, 8u32), (16, 8)] {
            let shape = MeshShape::new(rows, cols).unwrap();
            let n = shape.tiles();
            let mut cfg = SystemConfig::meshed(shape, Protocol::Gcs);
            cfg.check_invariants = true;
            let (layout, _) = counter_layout();
            let mut sys = System::new(cfg, layout, (0..n).map(|_| make()).collect::<Vec<_>>());
            sys.run().unwrap_or_else(|e| panic!("{rows}x{cols}: {e}"));
            assert_eq!(sys.read_word(counter), n as u64, "{rows}x{cols}");
            sys.verify_coherence().unwrap();
        }
    }

    #[test]
    fn mismatched_mesh_shape_is_rejected() {
        use crate::config::MeshShape;
        let (layout, _) = counter_layout();
        let mut cfg = SystemConfig::small(4, Protocol::Gcs);
        cfg.mesh = Some(MeshShape::new(2, 8).unwrap());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let programs = (0..4)
                .map(|_| {
                    let mut a = Asm::new("nop");
                    a.halt();
                    a.build()
                })
                .collect::<Vec<_>>();
            System::new(cfg, layout, programs)
        }));
        assert!(result.is_err(), "16-tile mesh on 4 cores must panic");
    }

    #[test]
    fn spare_cores_are_padded_with_the_idle_program() {
        let (_, counter) = counter_layout();
        let fai = || {
            let mut a = Asm::new("fai");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            a.fai(Reg(3), Reg(1), 0, Reg(2)).halt();
            a.build()
        };
        let idle = || {
            let mut a = Asm::new("idle");
            a.halt();
            a.build()
        };
        for proto in Protocol::EXTENDED {
            let run = |programs: Vec<Program>| {
                let (layout, _) = counter_layout();
                let mut sys = System::new(SystemConfig::small(4, proto), layout, programs);
                let stats = sys.run().unwrap();
                (sys.fingerprint(), stats)
            };
            let padded = run(vec![fai(), fai()]);
            let explicit = run(vec![fai(), fai(), idle(), idle()]);
            assert_eq!(padded, explicit, "{proto:?}");
        }
        let too_many = std::panic::catch_unwind(|| {
            let (layout, _) = counter_layout();
            System::new(
                SystemConfig::small(4, Protocol::Mesi),
                layout,
                (0..5).map(|_| fai()).collect::<Vec<_>>(),
            )
        });
        assert!(too_many.is_err(), "5 programs on 4 cores must panic");
    }

    #[test]
    #[should_panic(expected = "oracle mode requires static-region self-invalidation")]
    fn start_oracle_rejects_signature_invalidation() {
        let (layout, _) = counter_layout();
        let mut cfg = SystemConfig::small(4, Protocol::DeNovoSync);
        cfg.data_inv = DataInvalidation::Signatures;
        let mut sys = System::new(cfg, layout, Vec::<Program>::new());
        sys.start_oracle();
    }

    #[test]
    fn oracle_random_walk_is_reproducible_from_the_seed_alone() {
        // Satellite property: for every protocol, a seeded random walk over
        // `oracle_channels` — deliveries picked purely by the seed — visits
        // the identical fingerprint sequence on every rebuild.
        let (_, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("inc");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            for _ in 0..3 {
                a.fai(Reg(3), Reg(1), 0, Reg(2));
            }
            a.halt();
            a.build()
        };
        for proto in Protocol::EXTENDED {
            let walk = |seed: u64| {
                let (layout, _) = counter_layout();
                let mut sys = System::new(
                    SystemConfig::small(4, proto),
                    layout,
                    (0..4).map(|_| make()).collect::<Vec<_>>(),
                );
                sys.start_oracle();
                let mut rng = dvs_engine::DetRng::new(seed);
                let mut trail = vec![sys.fingerprint()];
                for _ in 0..10_000 {
                    let channels = sys.oracle_channels();
                    if channels.is_empty() {
                        break;
                    }
                    let pick = channels[rng.range(0, channels.len() as u64) as usize];
                    assert!(sys.oracle_deliver(pick));
                    trail.push(sys.fingerprint());
                }
                assert!(sys.all_halted(), "{proto:?}: walk must finish the run");
                assert_eq!(sys.read_word(counter), 12, "{proto:?}");
                trail
            };
            assert_eq!(walk(42), walk(42), "{proto:?}: same seed, same walk");
            // A different seed explores a different interleaving for at
            // least one protocol state (overwhelmingly likely here), but
            // both must converge to the same final answer — checked above.
            let _ = walk(43);
        }
    }

    #[test]
    fn oracle_walk_stamps_controller_events_with_the_scheduler_cycle() {
        // An oracle walk advances the scheduler only through core events:
        // each MSHR allocation a miss makes must carry the cycle of the
        // access event the system reports right after it.
        let (_, counter) = counter_layout();
        let make = || {
            let mut a = Asm::new("inc");
            a.movi(Reg(1), counter.raw()).movi(Reg(2), 1);
            a.fai(Reg(3), Reg(1), 0, Reg(2)).halt();
            a.build()
        };
        for proto in Protocol::EXTENDED {
            let (layout, _) = counter_layout();
            let programs = (0..4).map(|_| make()).collect::<Vec<_>>();
            let mut sys = System::new(SystemConfig::small(4, proto), layout, programs);
            let tel = Telemetry::recorder();
            sys.set_telemetry(tel.clone());
            sys.start_oracle();
            sys.oracle_walk(7, 10_000).expect("walk quiesces");
            let events: Vec<_> = tel
                .take_events()
                .expect("recorder")
                .into_iter()
                .filter(|e| e.component != Component::Noc)
                .collect();
            let mut allocs = 0;
            for pair in events.windows(2) {
                if let EventKind::MshrAlloc { .. } = pair[0].kind {
                    allocs += 1;
                    let access = pair[1];
                    assert!(
                        matches!(access.kind, EventKind::Access { .. }),
                        "{proto:?}: {access:?} follows an allocation"
                    );
                    assert_eq!(pair[0].cycle, access.cycle, "{proto:?}: {pair:?}");
                }
            }
            assert!(allocs >= 4, "{proto:?}: every core misses at least once");
        }
    }
}
