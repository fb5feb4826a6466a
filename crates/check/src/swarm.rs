//! Swarm verification: many cheap seeded probes sharing one lossy filter.
//!
//! Holzmann's swarm idea, adapted to the delivery-oracle state space: when a
//! model is too large to exhaust, run *many small* searches with diversified
//! schedules instead of one big one. Each probe is a randomized depth-first
//! walk (transition order shuffled by a per-probe [`DetRng`] stream) under
//! tight per-probe depth/state budgets; all probes share a single
//! [`BitstateFilter`], so a state one probe has claimed prunes every other
//! probe away from it and the swarm spreads across the space instead of
//! piling onto the canonical prefix.
//!
//! Soundness: a swarm run is *lossy in one direction only*. The filter can
//! mistake a new state for a seen one (a hash collision or another probe's
//! claim), so coverage is probabilistic and `Verified` means only "no
//! violation found" — but every reported violation comes from an actually
//! executed schedule, re-derived through the same sequential
//! [`minimize`](crate::explore::minimize) pass as the exhaustive explorer,
//! so a `Violated` verdict is as trustworthy as an exact-mode one.

use crate::explore::{
    failure_of, finish, CheckReport, CheckStats, FinalCheck, RawExploration, Verdict,
};
use crate::visited::BitstateFilter;
use dvs_core::config::{Protocol, ProtocolMutation};
use dvs_core::oracle::ChannelKey;
use dvs_core::system::System;
use dvs_engine::{parallel_indexed, DetRng};
use dvs_vm::litmus::Litmus;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Swarm shape: how many probes, how big each one is, and how big the
/// shared filter is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwarmConfig {
    /// Probes to launch. More probes = more coverage, linearly in time.
    pub probes: u64,
    /// Worker threads running probes (probe `i` is job `i` of the shared
    /// [`parallel_indexed`] pool).
    pub workers: usize,
    /// Per-probe depth budget (deliveries along one walk).
    pub probe_depth: usize,
    /// Per-probe budget of *newly claimed* states; the probe retires when
    /// it runs out, making probe cost predictable even in dense regions.
    pub probe_states: u64,
    /// Size of the shared bitstate filter, in bits (rounded up to a
    /// multiple of 64).
    pub filter_bits: u64,
    /// Master seed; probe `i` walks with the independent stream
    /// `DetRng::new(seed).split(i)`, so a swarm is reproducible
    /// (single-worker) and its probe set is reproducible at any worker
    /// count.
    pub seed: u64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            probes: 64,
            workers: 1,
            probe_depth: 4_000,
            probe_states: 20_000,
            filter_bits: 1 << 22,
            seed: 0,
        }
    }
}

struct SwarmShared<'m> {
    cfg: SwarmConfig,
    final_ok: &'m FinalCheck<'m>,
    root: &'m System,
    filter: BitstateFilter,
    stop: AtomicBool,
    depth_truncated: AtomicBool,
    state_truncated: AtomicBool,
    found: Mutex<Option<(Vec<ChannelKey>, crate::explore::Failure)>>,
}

struct Frame {
    sys: System,
    /// Transitions still to try from this state, pre-shuffled; popped from
    /// the back.
    order: Vec<ChannelKey>,
}

impl SwarmShared<'_> {
    fn record(&self, path: Vec<ChannelKey>, failure: crate::explore::Failure) {
        let mut best = self.found.lock().unwrap();
        let better = match &*best {
            None => true,
            Some((p, _)) => (path.len(), &path) < (p.len(), p),
        };
        if better {
            *best = Some((path, failure));
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// One randomized bounded DFS walk. Returns early on violation (already
    /// recorded) or when the probe's budgets run out.
    fn probe(&self, rng: &mut DetRng, stats: &mut CheckStats) {
        let shuffle = |rng: &mut DetRng, mut ts: Vec<ChannelKey>| {
            for i in (1..ts.len()).rev() {
                let j = rng.range(0, i as u64 + 1) as usize;
                ts.swap(i, j);
            }
            ts
        };
        if let Some(f) = failure_of(self.root, self.final_ok) {
            self.record(Vec::new(), f);
            return;
        }
        // The root is in every probe's walk; claiming it in the filter
        // would kill all probes after the first, so it is exempt.
        let mut claimed: u64 = 0;
        let mut path: Vec<ChannelKey> = Vec::new();
        let mut stack = vec![Frame {
            sys: self.root.clone(),
            order: shuffle(rng, self.root.oracle_channels()),
        }];
        stats.expansions += 1;
        while let Some(frame) = stack.last_mut() {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let Some(t) = frame.order.pop() else {
                stack.pop();
                path.pop();
                continue;
            };
            let mut child = frame.sys.clone();
            let fired = child.oracle_deliver(t);
            debug_assert!(fired, "enabled transition must fire");
            stats.transitions_fired += 1;
            path.push(t);
            if let Some(f) = failure_of(&child, self.final_ok) {
                self.record(path, f);
                return;
            }
            if !self.filter.insert(child.fingerprint()) {
                stats.dedup_hits += 1;
                path.pop();
                continue;
            }
            claimed += 1;
            stats.max_depth_seen = stats.max_depth_seen.max(path.len());
            if claimed >= self.cfg.probe_states {
                self.state_truncated.store(true, Ordering::Relaxed);
                return;
            }
            if path.len() >= self.cfg.probe_depth {
                self.depth_truncated.store(true, Ordering::Relaxed);
                path.pop();
                continue;
            }
            let order = shuffle(rng, child.oracle_channels());
            stats.expansions += 1;
            stats.transitions_enabled += order.len() as u64;
            stack.push(Frame { sys: child, order });
        }
    }
}

/// Runs a swarm over `root` and reports. `Violated` verdicts carry the
/// usual minimized counterexample; `Verified` means "no probe found a
/// violation" — consult [`CheckStats::filter_fill_ratio`] and the probe
/// budget flags to judge how much was covered.
pub fn swarm(root: &System, final_ok: &FinalCheck<'_>, cfg: &SwarmConfig) -> CheckReport {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.probes >= 1, "need at least one probe");
    let shared = SwarmShared {
        cfg: *cfg,
        final_ok,
        root,
        filter: BitstateFilter::new(cfg.filter_bits),
        stop: AtomicBool::new(false),
        depth_truncated: AtomicBool::new(false),
        state_truncated: AtomicBool::new(false),
        found: Mutex::new(None),
    };
    let master = DetRng::new(cfg.seed);
    // Probes launched after a violation stops the swarm return empty stats.
    let per_probe = parallel_indexed(cfg.probes as usize, cfg.workers, |i| {
        let mut stats = CheckStats::default();
        if !shared.stop.load(Ordering::Relaxed) {
            shared.probe(&mut master.split(i as u64), &mut stats);
        }
        stats
    });
    let mut stats = CheckStats::default();
    for s in &per_probe {
        stats.absorb(s);
    }
    // absorb() summed per-probe zeros for these; take the authoritative
    // values from the shared structures.
    stats.unique_states = shared.filter.unique_inserts();
    stats.depth_truncated = shared.depth_truncated.load(Ordering::Relaxed);
    stats.state_truncated = shared.state_truncated.load(Ordering::Relaxed);
    stats.filter_bits = shared.filter.bits();
    stats.filter_bits_set = shared.filter.bits_set();
    let raw = RawExploration {
        found: shared.found.into_inner().unwrap(),
        stats,
        frontier: Vec::new(),
    };
    let report = finish(root, final_ok, raw);
    // A swarm never proves exhaustion; even a quiet run is a bounded claim.
    if matches!(report.verdict, Verdict::Verified) && report.stats.complete() {
        let mut r = report;
        r.stats.state_truncated = true;
        return r;
    }
    report
}

/// Swarm-checks one litmus test under one protocol — the swarm counterpart
/// of [`check_litmus`](crate::check_litmus).
pub fn swarm_litmus(
    lit: &Litmus,
    protocol: Protocol,
    mutation: Option<ProtocolMutation>,
    cfg: &SwarmConfig,
) -> CheckReport {
    let root = crate::litmus_root(lit, protocol, mutation);
    let final_ok = |sys: &System| crate::litmus_final_ok(lit, sys);
    swarm(&root, &final_ok, cfg)
}
