//! The parallel sleep-set explorer.
//!
//! Explores every message-delivery interleaving of an oracle-mode
//! [`System`] from its initial state, up to configurable depth/state
//! budgets, checking for recorded protocol errors, deadlocks, incoherent
//! halted states, and final-state property violations.
//!
//! # State space
//!
//! A *state* is a quiesced machine: every core-local event has run, so the
//! only enabled transitions are channel deliveries ([`System::oracle_channels`]).
//! Two states are identified iff their canonical fingerprints
//! ([`System::fingerprint`]) match — a 64-bit hash, so the visited set
//! is sound up to hash collisions (≈ `n²/2⁶⁴` for `n` states; ~10⁻⁷ even at
//! the 10⁶-state spaces the deep modes target, and any collision only
//! *under*-explores, it cannot fabricate a violation).
//!
//! # Partial-order reduction
//!
//! Classic sleep sets (Godefroid) over the delivery-dependence relation
//! [`ChannelKey::depends`]: deliveries to distinct endpoints commute (each
//! mutates only its destination controller; memory controllers are mutually
//! dependent through the shared memory image), so of the `k!` orders of `k`
//! pairwise-independent deliveries only one is explored. Sleep sets compose
//! with the visited set via the *subset-prune* rule: the visited entry for a
//! fingerprint stores the sleep set (and depth) it was last expanded with,
//! and a revisit is pruned only if its sleep set is a superset (nothing new
//! would be explored) **and** it is not shallower (nothing new fits in the
//! depth budget). Otherwise the entry is weakened to the intersection /
//! minimum and the state re-expanded. Expansion is therefore monotone and
//! converges to a least fixpoint, making the final visited *set*
//! deterministic across runs and worker counts even though scheduling
//! racing makes the expansion *count* vary. (In
//! [`VisitedMode::Bitstate`] the store keeps no per-state entry, so a
//! revisit is pruned unconditionally — sound but possibly under-exploring;
//! see the `visited` module.)
//!
//! # Paths
//!
//! Each node remembers how it was reached as a persistent
//! parent-pointer chain ([`PathLink`]), so extending a path costs one small
//! allocation and an `Arc` bump instead of cloning a `Vec` per child — at
//! depth *d* that turns O(d²) bytes of path copying per branch into O(d).
//! Paths are materialized to `Vec<ChannelKey>` only when reported (a
//! violation or a frontier entry).
//!
//! # Parallelism and memory
//!
//! Plain OS threads over a shared injector deque. Each worker pops one
//! work item (a live node or a seed prefix replayed on pickup), then runs
//! depth-first over an explicit frame stack, deriving children on demand;
//! when the deque starves, pending picks are peeled off the *shallowest*
//! frames — the biggest unexplored subtrees — and donated. Termination is
//! the classic "queue empty and no worker active" condition under one
//! mutex.
//!
//! Worker memory is bounded even on models whose state chains run to the
//! depth bound: machine residency on the frame stack is windowed (top
//! frames plus periodic milestones, see [`Frame`]), evicted frames are
//! rebuilt by replaying their own picks from the nearest resident
//! ancestor, and the visited set can spill to disk under a byte budget
//! ([`CheckConfig::spill_budget_bytes`]).

use crate::visited::{Visited, VisitedMode};
use dvs_core::oracle::ChannelKey;
use dvs_core::system::{SimError, System};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Exploration budgets and strategy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Worker threads. 1 = sequential.
    pub workers: usize,
    /// Maximum deliveries along any one path. Paths that reach the bound
    /// without terminating mark the run depth-truncated. The default is
    /// high enough that the visited set, not the depth, bounds exploration.
    pub max_depth: usize,
    /// Maximum node expansions (including sleep-set re-expansions) before
    /// the run gives up and marks itself state-truncated.
    pub max_states: u64,
    /// Enable sleep-set partial-order reduction. Disabling explores the
    /// full interleaving tree (modulo the visited set) — used to measure
    /// the reduction factor and by soundness cross-checks.
    pub por: bool,
    /// Which visited tier deduplicates states (exact map or lossy bitstate
    /// filter).
    pub visited: VisitedMode,
    /// Peak in-memory budget for the exact visited tier, in bytes. When the
    /// hot-map estimate crosses it, cold shards spill to sorted runs in a
    /// temp directory (removed when the run ends). `None` keeps everything
    /// in memory; ignored in bitstate mode.
    pub spill_budget_bytes: Option<u64>,
    /// Collect the frontier — the schedule prefixes of every node truncated
    /// at `max_depth` — into the report, for checkpointing and iterative
    /// deepening. Off by default: frontier paths cost memory.
    pub collect_frontier: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            workers: 1,
            max_depth: 100_000,
            max_states: 2_000_000,
            por: true,
            visited: VisitedMode::Exact,
            spill_budget_bytes: None,
            collect_frontier: false,
        }
    }
}

/// Counters describing one exploration run.
///
/// `unique_states` is deterministic for a given model and config in exact
/// mode (see the module docs); the other counters depend on scheduling and
/// are reported for diagnostics and benchmarking only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct canonical fingerprints visited. In bitstate mode this is
    /// the count of inserts that found a clear filter bit — an estimate: a
    /// filter collision can only lower it, a concurrent-insert race can
    /// only raise it (exact at one worker modulo collisions). Neither
    /// affects soundness, only the reported coverage.
    pub unique_states: u64,
    /// Node expansions, including sleep-set/depth re-expansions.
    pub expansions: u64,
    /// Deliveries actually performed (edges walked).
    pub transitions_fired: u64,
    /// Sum of enabled-transition counts over all expansions — what a
    /// reduction-free explorer would have fired from the same states.
    pub transitions_enabled: u64,
    /// Transitions skipped because they were in the sleep set.
    pub sleep_skips: u64,
    /// Revisits pruned by the visited set.
    pub dedup_hits: u64,
    /// Deliveries re-fired to rebuild machine state — replaying a seed
    /// prefix on pickup or repaging an evicted stack frame. Paging
    /// overhead, not new edges: excluded from `transitions_fired`.
    pub replay_fires: u64,
    /// Deepest path expanded.
    pub max_depth_seen: usize,
    /// Some path hit [`CheckConfig::max_depth`]; "no violation" is only a
    /// bounded claim. The truncated prefixes are the frontier.
    pub depth_truncated: bool,
    /// The expansion budget [`CheckConfig::max_states`] ran out; "no
    /// violation" is only a bounded claim.
    pub state_truncated: bool,
    /// Bitstate tier: size of the filter's bit array (0 in exact mode).
    pub filter_bits: u64,
    /// Bitstate tier: ground-truth set bits at the end of the run.
    pub filter_bits_set: u64,
    /// Exact tier: frozen runs the spill tier wrote.
    pub spilled_runs: u64,
    /// Exact tier: entries frozen to disk (an entry re-weakened after
    /// spilling counts again).
    pub spilled_entries: u64,
    /// Exact tier: high-water mark of the in-memory hot-map estimate — the
    /// quantity [`CheckConfig::spill_budget_bytes`] bounds.
    pub visited_peak_bytes: u64,
}

impl CheckStats {
    /// Whether every within-budget state was fully expanded: neither the
    /// depth nor the state budget fired. (A run stopped early by a found
    /// violation reports whatever budgets fired before the stop.)
    pub fn complete(&self) -> bool {
        !self.depth_truncated && !self.state_truncated
    }

    /// Which budget fired, as a stable label for artifacts and journals:
    /// `"none"`, `"depth"`, `"states"`, or `"depth+states"`.
    pub fn budget_fired(&self) -> &'static str {
        match (self.depth_truncated, self.state_truncated) {
            (false, false) => "none",
            (true, false) => "depth",
            (false, true) => "states",
            (true, true) => "depth+states",
        }
    }

    /// Bitstate fill ratio (set bits over total bits); 0 in exact mode.
    pub fn filter_fill_ratio(&self) -> f64 {
        if self.filter_bits == 0 {
            0.0
        } else {
            self.filter_bits_set as f64 / self.filter_bits as f64
        }
    }

    /// Estimated probability that a bitstate query for a new state answered
    /// "seen" (`fill^k`); 0 in exact mode.
    pub fn filter_collision_probability(&self) -> f64 {
        self.filter_fill_ratio()
            .powi(crate::visited::BITSTATE_PROBES as i32)
    }

    /// Folds another run's counters into this one (used by the deepening
    /// driver and the swarm harness). Budget flags OR; unique states add —
    /// callers that re-explore overlapping regions document what the sum
    /// means for them.
    pub fn absorb(&mut self, other: &CheckStats) {
        self.unique_states += other.unique_states;
        self.expansions += other.expansions;
        self.transitions_fired += other.transitions_fired;
        self.transitions_enabled += other.transitions_enabled;
        self.sleep_skips += other.sleep_skips;
        self.dedup_hits += other.dedup_hits;
        self.replay_fires += other.replay_fires;
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.depth_truncated |= other.depth_truncated;
        self.state_truncated |= other.state_truncated;
        self.filter_bits = self.filter_bits.max(other.filter_bits);
        self.filter_bits_set = self.filter_bits_set.max(other.filter_bits_set);
        self.spilled_runs += other.spilled_runs;
        self.spilled_entries += other.spilled_entries;
        self.visited_peak_bytes = self.visited_peak_bytes.max(other.visited_peak_bytes);
    }
}

/// What went wrong in a violating execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The machine recorded an error (a runtime coherence-invariant
    /// violation or a VM assertion), deadlocked (empty channels with
    /// threads still running), or halted in a state that fails the
    /// quiescent coherence check.
    Sim(SimError),
    /// All threads halted cleanly but the final memory state violated the
    /// model's property (e.g. a litmus test's SC verdict).
    FinalState(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Sim(e) => write!(f, "{e}"),
            Failure::FinalState(msg) => write!(f, "final state violates property: {msg}"),
        }
    }
}

/// A violating execution: the delivery schedule from the initial state and
/// the failure it ends in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The channel picked at each delivery, in order. Feed to
    /// [`SchedulePlan`](dvs_core::oracle::SchedulePlan) for replay on the
    /// real system.
    pub picks: Vec<ChannelKey>,
    /// How the execution fails after the last pick.
    pub failure: Failure,
    /// Whether `picks` is the minimizer's shortest deterministic schedule
    /// (`true`) or a raw parallel-search artifact (`false`, only if the
    /// minimizer's budget ran out — not expected in practice).
    pub minimized: bool,
}

/// The checker's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No reachable violation within the explored bounds
    /// ([`CheckStats::complete`] says whether the bounds truncated
    /// anything).
    Verified,
    /// A violating execution exists.
    Violated(Counterexample),
}

/// Verdict plus run statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The answer.
    pub verdict: Verdict,
    /// How much work it took.
    pub stats: CheckStats,
    /// When [`CheckConfig::collect_frontier`] was set: the schedule prefix
    /// of every state truncated at the depth bound, deduplicated by
    /// fingerprint (lexicographically least path per state) and sorted.
    /// Replaying a prefix rebuilds the truncated state, which is how
    /// iterative deepening resumes.
    pub frontier: Vec<Vec<ChannelKey>>,
}

/// The model's terminal-state property: `Err(description)` when a cleanly
/// halted final state is wrong.
pub type FinalCheck<'a> = dyn Fn(&System) -> Result<(), String> + Sync + 'a;

/// Classifies a quiesced state: `Some` if it is a violation (recorded
/// error, deadlock, or — when no transition remains and every thread has
/// halted — a failed coherence check or final-state property). A cleanly
/// halted state must pass [`System::verify_coherence`], the same rule set
/// the runtime checker applies at every delivery, before the model's own
/// property is consulted.
pub fn failure_of(sys: &System, final_ok: &FinalCheck<'_>) -> Option<Failure> {
    if let Some(e) = sys.error() {
        return Some(Failure::Sim(e.clone()));
    }
    if !sys.oracle_channels().is_empty() {
        return None;
    }
    if !sys.all_halted() {
        return Some(Failure::Sim(sys.deadlock_error()));
    }
    if let Err(detail) = sys.verify_coherence() {
        return Some(Failure::Sim(SimError::ProtocolViolation { detail }));
    }
    final_ok(sys).err().map(Failure::FinalState)
}

/// One link of a persistent path: the pick that produced this node plus the
/// parent chain. Children share their parent's chain, so branching does not
/// copy paths.
struct PathLink {
    pick: ChannelKey,
    parent: Option<Arc<PathLink>>,
}

impl Drop for PathLink {
    fn drop(&mut self) {
        // Chains reach 10⁵ links on deep models; the derived recursive drop
        // would overflow the thread stack, so unlink iteratively, stopping
        // at the first link something else still holds.
        let mut next = self.parent.take();
        while let Some(arc) = next {
            match Arc::try_unwrap(arc) {
                Ok(mut link) => next = link.parent.take(),
                Err(_) => break,
            }
        }
    }
}

/// Materializes a parent-pointer chain into the explicit schedule prefix.
fn materialize(link: &Option<Arc<PathLink>>) -> Vec<ChannelKey> {
    let mut out = Vec::new();
    let mut cur = link;
    while let Some(l) = cur {
        out.push(l.pick);
        cur = &l.parent;
    }
    out.reverse();
    out
}

struct Node {
    sys: System,
    depth: usize,
    sleep: Vec<ChannelKey>,
    path: Option<Arc<PathLink>>,
}

/// An in-progress expansion on a worker's depth-first stack: the machine
/// (possibly evicted, see below), its admitted sleep set, the transitions
/// already handed out (`explored` — locally walked or donated), and those
/// still pending (consumed back-to-front).
///
/// On deep models the stack reaches the depth bound — 10⁵ frames — and a
/// resident machine per frame is gigabytes. So residency is *windowed*:
/// the top [`RESIDENT_WINDOW`] frames and every [`MILESTONE`]-th frame
/// keep their machine, the rest drop it (`sys: None`) and are rebuilt on
/// demand by replaying the stack's own picks from the nearest resident
/// ancestor ([`Shared::ensure_resident`]). Worker memory is then
/// O(depth/MILESTONE + window) machines instead of O(depth).
struct Frame {
    sys: Option<System>,
    depth: usize,
    sleep: Vec<ChannelKey>,
    explored: Vec<ChannelKey>,
    pending: Vec<ChannelKey>,
    path: Option<Arc<PathLink>>,
}

/// Frames within this distance of the stack top always keep their machine
/// resident — the hot region of the depth-first walk.
const RESIDENT_WINDOW: usize = 64;

/// Every `MILESTONE`-th stack frame stays resident even below the window,
/// bounding any single rebuild replay to `MILESTONE` fires. Frame 0 is
/// always a milestone, so a resident ancestor always exists.
const MILESTONE: usize = 64;

/// A root to explore from, described by the schedule prefix that reaches
/// it (empty for the initial state). The machine state is *not* stored —
/// a worker replays the prefix when it picks the seed up, so a large
/// frontier costs memory proportional to its schedules, not to thousands
/// of resident machine clones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// The schedule prefix reaching the seed state; its length is the
    /// seed's depth.
    pub prefix: Vec<ChannelKey>,
}

impl Seed {
    /// The initial-state seed.
    pub fn root() -> Self {
        Seed { prefix: Vec::new() }
    }
}

/// A queued unit of work: an unexpanded seed (replayed on pickup) or a
/// live node.
enum Work {
    Seed(Seed),
    Node(Box<Node>),
}

struct QState {
    items: VecDeque<Work>,
    active: usize,
    stopped: bool,
}

struct Shared<'m> {
    cfg: CheckConfig,
    root: &'m System,
    final_ok: &'m FinalCheck<'m>,
    queue: Mutex<QState>,
    /// Approximate queue length, readable without the lock — the donation
    /// heuristic's only input, so staleness just means a slightly early or
    /// late donation.
    queue_len: AtomicUsize,
    /// Raised by `record_violation`; checked lock-free on the hot path.
    stop: AtomicBool,
    available: Condvar,
    visited: Visited,
    expansions: AtomicU64,
    depth_truncated: AtomicBool,
    state_truncated: AtomicBool,
    /// Depth-truncated nodes recorded for the frontier (when
    /// `collect_frontier` is on): fingerprint plus path chain (shared with
    /// the exploration tree — materialized only for survivors).
    frontier: Mutex<Vec<(u64, Option<Arc<PathLink>>)>>,
    /// Best (shortest, then lexicographically least) violating path found
    /// so far — an upper bound for the minimizer, not the final answer.
    found: Mutex<Option<(Vec<ChannelKey>, Failure)>>,
}

impl Shared<'_> {
    fn pop(&self, stats: &mut CheckStats) -> Option<Node> {
        let work = {
            let mut g = self.queue.lock().unwrap();
            loop {
                if g.stopped {
                    return None;
                }
                if let Some(w) = g.items.pop_front() {
                    g.active += 1;
                    self.queue_len.fetch_sub(1, Ordering::Relaxed);
                    break w;
                }
                if g.active == 0 {
                    return None;
                }
                g = self.available.wait(g).unwrap();
            }
        };
        Some(match work {
            Work::Node(n) => *n,
            Work::Seed(seed) => self.replay_seed(seed, stats),
        })
    }

    /// Rebuilds a seed's state by replaying its prefix from the root —
    /// outside the queue lock, since a deep prefix is real work.
    fn replay_seed(&self, seed: Seed, stats: &mut CheckStats) -> Node {
        let mut sys = self.root.clone();
        let mut path = None;
        for &pick in &seed.prefix {
            let fired = sys.oracle_deliver(pick);
            assert!(
                fired,
                "seed prefix does not replay (pick {pick} not enabled): \
                 checkpoint stale against a changed model?"
            );
            stats.replay_fires += 1;
            path = Some(Arc::new(PathLink { pick, parent: path }));
        }
        Node {
            depth: seed.prefix.len(),
            sys,
            sleep: Vec::new(),
            path,
        }
    }

    fn donate(&self, nodes: Vec<Node>) {
        if nodes.is_empty() {
            return;
        }
        self.queue_len.fetch_add(nodes.len(), Ordering::Relaxed);
        let mut g = self.queue.lock().unwrap();
        g.items
            .extend(nodes.into_iter().map(|n| Work::Node(Box::new(n))));
        drop(g);
        self.available.notify_all();
    }

    fn chain_done(&self) {
        let mut g = self.queue.lock().unwrap();
        g.active -= 1;
        if g.active == 0 && g.items.is_empty() {
            drop(g);
            self.available.notify_all();
        }
    }

    fn record_violation(&self, path: Vec<ChannelKey>, failure: Failure) {
        let mut best = self.found.lock().unwrap();
        let better = match &*best {
            None => true,
            Some((p, _)) => (path.len(), &path) < (p.len(), p),
        };
        if better {
            *best = Some((path, failure));
        }
        drop(best);
        self.stop.store(true, Ordering::Relaxed);
        let mut g = self.queue.lock().unwrap();
        g.stopped = true;
        drop(g);
        self.available.notify_all();
    }

    /// Enters one node: classify, gate through the visited set, apply the
    /// budgets. Returns the expansion frame to walk, or `None` if the node
    /// is a leaf (violating, pruned, or truncated).
    fn enter(&self, node: Node, stats: &mut CheckStats) -> Option<Frame> {
        if let Some(f) = failure_of(&node.sys, self.final_ok) {
            self.record_violation(materialize(&node.path), f);
            return None;
        }
        let fp = node.sys.fingerprint();
        let Some(sleep) = self.visited.admit(fp, &node.sleep, node.depth) else {
            stats.dedup_hits += 1;
            return None;
        };
        if node.depth >= self.cfg.max_depth {
            self.depth_truncated.store(true, Ordering::Relaxed);
            if self.cfg.collect_frontier {
                let mut f = self.frontier.lock().unwrap();
                f.push((fp, node.path.clone()));
            }
            return None;
        }
        if self.expansions.fetch_add(1, Ordering::Relaxed) >= self.cfg.max_states {
            self.state_truncated.store(true, Ordering::Relaxed);
            return None;
        }
        stats.expansions += 1;
        stats.max_depth_seen = stats.max_depth_seen.max(node.depth);
        let mut pending = node.sys.oracle_channels();
        stats.transitions_enabled += pending.len() as u64;
        if self.cfg.por {
            pending.retain(|t| {
                let asleep = sleep.contains(t);
                stats.sleep_skips += asleep as u64;
                !asleep
            });
        }
        // `pending` is consumed back-to-front; reverse so local descent
        // takes transitions in canonical order.
        pending.reverse();
        Some(Frame {
            sys: Some(node.sys),
            depth: node.depth,
            sleep,
            explored: Vec::new(),
            pending,
            path: node.path,
        })
    }

    /// Rebuilds an evicted frame's machine by replaying the stack's own
    /// picks from the nearest resident ancestor (at most [`MILESTONE`]
    /// fires away), refilling every frame along the span so an imminent
    /// backtrack cascade pops already-resident frames at O(1) each.
    fn ensure_resident(&self, frames: &mut [Frame], i: usize, stats: &mut CheckStats) {
        if frames[i].sys.is_some() {
            return;
        }
        let j = (0..i)
            .rev()
            .find(|&k| frames[k].sys.is_some())
            .expect("frame 0 is a milestone and stays resident");
        let mut sys = frames[j].sys.as_ref().unwrap().clone();
        let span = &mut frames[j + 1..=i];
        let last = span.len() - 1;
        for (k, frame) in span.iter_mut().enumerate() {
            let pick = frame
                .path
                .as_ref()
                .expect("non-root frames record their pick")
                .pick;
            let fired = sys.oracle_deliver(pick);
            debug_assert!(fired, "stack pick must replay");
            stats.replay_fires += 1;
            if k < last {
                frame.sys = Some(sys.clone());
            }
        }
        frames[i].sys = Some(sys);
    }

    /// Called after a push: the frame that just left the resident window
    /// drops its machine, unless it is a milestone.
    fn evict(frames: &mut [Frame]) {
        if frames.len() > RESIDENT_WINDOW {
            let i = frames.len() - 1 - RESIDENT_WINDOW;
            if !i.is_multiple_of(MILESTONE) {
                frames[i].sys = None;
            }
        }
    }

    /// Derives the child of `frame` for pick `t`: clone, fire, compute the
    /// child sleep set, and mark `t` explored (so later siblings sleep on
    /// it — whether the child is walked locally or donated).
    fn child_of(&self, frame: &mut Frame, t: ChannelKey, stats: &mut CheckStats) -> Node {
        let mut sys = frame
            .sys
            .as_ref()
            .expect("caller ensured residency")
            .clone();
        let fired = sys.oracle_deliver(t);
        debug_assert!(fired, "enabled transition must fire");
        stats.transitions_fired += 1;
        let child_sleep = if self.cfg.por {
            let mut cs: Vec<ChannelKey> = frame
                .sleep
                .iter()
                .chain(frame.explored.iter())
                .filter(|u| !u.depends(t))
                .copied()
                .collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        } else {
            Vec::new()
        };
        frame.explored.push(t);
        Node {
            sys,
            depth: frame.depth + 1,
            sleep: child_sleep,
            path: Some(Arc::new(PathLink {
                pick: t,
                parent: frame.path.clone(),
            })),
        }
    }

    /// When the shared queue is starved, peel pending picks off the
    /// *shallowest* frames (the biggest unexplored subtrees) and donate
    /// them as nodes, so idle workers get substantial work.
    fn share(&self, frames: &mut [Frame], stats: &mut CheckStats) {
        if self.cfg.workers == 1 || self.queue_len.load(Ordering::Relaxed) >= self.cfg.workers {
            return;
        }
        let mut donated = Vec::new();
        'peel: for i in 0..frames.len() {
            while !frames[i].pending.is_empty() {
                let want =
                    self.cfg.workers - self.queue_len.load(Ordering::Relaxed).min(self.cfg.workers);
                if donated.len() >= want {
                    break 'peel;
                }
                // The far end from local descent's `pop`, so stealing
                // does not perturb the local walk order.
                self.ensure_resident(frames, i, stats);
                let t = frames[i].pending.remove(0);
                donated.push(self.child_of(&mut frames[i], t, stats));
            }
        }
        self.donate(donated);
    }

    fn worker(&self) -> CheckStats {
        let mut stats = CheckStats::default();
        while let Some(node) = self.pop(&mut stats) {
            // Depth-first over an explicit frame stack: children derived
            // on demand, machine residency windowed (see [`Frame`]) — the
            // worker's memory is O(depth/MILESTONE + window) machines.
            let mut frames: Vec<Frame> = Vec::new();
            if let Some(f) = self.enter(node, &mut stats) {
                frames.push(f);
            }
            while !frames.is_empty() {
                if self.stop.load(Ordering::Relaxed) {
                    break;
                }
                self.share(&mut frames, &mut stats);
                let i = frames.len() - 1;
                if frames[i].pending.is_empty() {
                    frames.pop();
                    continue;
                }
                self.ensure_resident(&mut frames, i, &mut stats);
                let t = frames[i].pending.pop().expect("pending is non-empty");
                let child = self.child_of(&mut frames[i], t, &mut stats);
                if let Some(f) = self.enter(child, &mut stats) {
                    frames.push(f);
                    Self::evict(&mut frames);
                }
            }
            self.chain_done();
        }
        stats
    }
}

/// Explores the full bounded state space of `root` and reports.
///
/// If a violation is found, the reported counterexample is re-derived by the
/// sequential [`minimize`] pass, so it is the shortest schedule (ties broken
/// by canonical channel order) regardless of worker count or scheduling —
/// the parallel phase only answers *whether* a violation exists and bounds
/// the minimizer's search depth.
pub fn explore(root: &System, final_ok: &FinalCheck<'_>, cfg: &CheckConfig) -> CheckReport {
    let raw = explore_seeds(root, vec![Seed::root()], final_ok, cfg);
    finish(root, final_ok, raw)
}

/// The outcome of the parallel phase, before minimization: the raw found
/// path (if any), the run counters, and the frontier.
pub struct RawExploration {
    /// The best violating path the parallel phase saw (not minimized).
    pub found: Option<(Vec<ChannelKey>, Failure)>,
    /// Run counters.
    pub stats: CheckStats,
    /// Deduplicated, sorted frontier prefixes (empty unless
    /// [`CheckConfig::collect_frontier`]).
    pub frontier: Vec<Vec<ChannelKey>>,
}

/// Runs the parallel exploration phase from an explicit seed set — the
/// initial state, or a checkpointed frontier being resumed. Seeds are
/// schedule prefixes replayed from `root` on pickup, so violations and
/// frontiers report full paths from the true initial state;
/// `cfg.max_depth` remains an *absolute* depth bound. No counterexample
/// minimization happens here (the caller owns the true root); most callers
/// want [`explore`].
pub fn explore_seeds(
    root: &System,
    seeds: Vec<Seed>,
    final_ok: &FinalCheck<'_>,
    cfg: &CheckConfig,
) -> RawExploration {
    assert!(cfg.workers >= 1, "need at least one worker");
    let items: VecDeque<Work> = seeds.into_iter().map(Work::Seed).collect();
    let shared = Shared {
        cfg: *cfg,
        root,
        final_ok,
        queue_len: AtomicUsize::new(items.len()),
        stop: AtomicBool::new(false),
        queue: Mutex::new(QState {
            items,
            active: 0,
            stopped: false,
        }),
        available: Condvar::new(),
        visited: Visited::new(cfg.visited, cfg.spill_budget_bytes),
        expansions: AtomicU64::new(0),
        depth_truncated: AtomicBool::new(false),
        state_truncated: AtomicBool::new(false),
        frontier: Mutex::new(Vec::new()),
        found: Mutex::new(None),
    };
    let mut stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|_| scope.spawn(|| shared.worker()))
            .collect();
        let mut total = CheckStats::default();
        for h in handles {
            let s = h.join().expect("checker worker panicked");
            total.expansions += s.expansions;
            total.transitions_fired += s.transitions_fired;
            total.transitions_enabled += s.transitions_enabled;
            total.sleep_skips += s.sleep_skips;
            total.dedup_hits += s.dedup_hits;
            total.replay_fires += s.replay_fires;
            total.max_depth_seen = total.max_depth_seen.max(s.max_depth_seen);
        }
        total
    });
    stats.unique_states = shared.visited.unique_states();
    stats.depth_truncated = shared.depth_truncated.load(Ordering::Relaxed);
    stats.state_truncated = shared.state_truncated.load(Ordering::Relaxed);
    if let Visited::Bitstate(filter) = &shared.visited {
        stats.filter_bits = filter.bits();
        stats.filter_bits_set = filter.bits_set();
    }
    if let Visited::Exact(store) = &shared.visited {
        let (runs, entries) = store.spill_counters();
        stats.spilled_runs = runs;
        stats.spilled_entries = entries;
        stats.visited_peak_bytes = store.peak_hot_bytes();
    }
    // Frontier: keep only nodes whose *final* stored depth is the bound
    // (anything re-reached shallower was expanded this round and is not
    // frontier), then canonicalize to the lexicographically least path per
    // fingerprint. In exact mode that makes the frontier *state set*
    // deterministic across schedules and worker counts.
    let mut frontier: Vec<Vec<ChannelKey>> = Vec::new();
    let recorded = shared.frontier.lock().unwrap();
    if !recorded.is_empty() {
        let mut best: HashMap<u64, Vec<ChannelKey>> = HashMap::new();
        for (fp, chain) in recorded.iter() {
            if !shared.visited.at_frontier(*fp, cfg.max_depth) {
                continue;
            }
            let path = materialize(chain);
            match best.get(fp) {
                Some(prev) if *prev <= path => {}
                _ => {
                    best.insert(*fp, path);
                }
            }
        }
        frontier = best.into_values().collect();
        frontier.sort_unstable();
    }
    drop(recorded);
    RawExploration {
        found: shared.found.into_inner().unwrap(),
        stats,
        frontier,
    }
}

/// Turns a raw exploration into the reported verdict, minimizing any found
/// violation from the true initial state.
pub fn finish(root: &System, final_ok: &FinalCheck<'_>, raw: RawExploration) -> CheckReport {
    let mut stats = raw.stats;
    let verdict = match raw.found {
        None => Verdict::Verified,
        Some((path, failure)) => {
            let ce = minimize(root, final_ok, path.len()).unwrap_or(Counterexample {
                picks: path,
                failure,
                minimized: false,
            });
            // A violation stops exploration early; whatever the budget
            // flags say, the set of explored states is not the fixpoint.
            stats.state_truncated = true;
            Verdict::Violated(ce)
        }
    };
    CheckReport {
        verdict,
        stats,
        frontier: raw.frontier,
    }
}

/// Finds the shortest violating schedule of length ≤ `max_len`, determin-
/// istically: iterative-deepening depth-first search in canonical channel
/// order, *without* partial-order reduction (reduction preserves the
/// existence of violations but not their minimal length), deduplicating
/// states by (fingerprint, depth) within each deepening round.
pub fn minimize(
    root: &System,
    final_ok: &FinalCheck<'_>,
    max_len: usize,
) -> Option<Counterexample> {
    if let Some(f) = failure_of(root, final_ok) {
        return Some(Counterexample {
            picks: Vec::new(),
            failure: f,
            minimized: true,
        });
    }
    for target in 1..=max_len {
        let mut visited: HashMap<u64, usize> = HashMap::new();
        let mut path = Vec::new();
        if let Some(ce) = dfs_to(root, final_ok, target, &mut path, &mut visited) {
            return Some(ce);
        }
    }
    None
}

fn dfs_to(
    sys: &System,
    final_ok: &FinalCheck<'_>,
    target: usize,
    path: &mut Vec<ChannelKey>,
    visited: &mut HashMap<u64, usize>,
) -> Option<Counterexample> {
    let depth = path.len();
    let fp = sys.fingerprint();
    match visited.get(&fp) {
        Some(&d) if d <= depth => return None,
        _ => {
            visited.insert(fp, depth);
        }
    }
    for t in sys.oracle_channels() {
        let mut child = sys.clone();
        if !child.oracle_deliver(t) {
            continue;
        }
        path.push(t);
        if let Some(f) = failure_of(&child, final_ok) {
            return Some(Counterexample {
                picks: path.clone(),
                failure: f,
                minimized: true,
            });
        }
        if path.len() < target {
            if let Some(ce) = dfs_to(&child, final_ok, target, path, visited) {
                return Some(ce);
            }
        }
        path.pop();
    }
    None
}
