//! The protocol backend: one family's private L1s and shared L2 banks.
//!
//! [`System`](crate::system::System) drives cores, the network and the
//! scheduler; everything protocol-specific sits behind this two-variant
//! enum. Each variant holds one family's controllers together, so a MESI L1
//! paired with a DeNovo bank cannot be represented. DeNovoSync0,
//! DeNovoSync and GCS share the DeNovo variant: they differ only in the
//! transition tables their controllers run, and GCS's sync-path messages are
//! DeNovo messages. Every controller has one message entry, so delivery is
//! one arm per controller kind: an L1 takes its family's message, a bank
//! the whole `Msg` (memory's `MemData` included). The family modules
//! ([`crate::mesi::family`], [`crate::denovo::family`]) own the
//! whole-machine checks.

use crate::config::{Protocol, SystemConfig};
use crate::denovo::{self, DnvL1, DnvRegistry};
use crate::mesi::{self, MesiDir, MesiL1};
use crate::msg::{CoreId, Endpoint, Msg};
use crate::proto::{Actions, IssueResult};
use crate::system::StallReport;
use dvs_mem::layout::MemoryLayout;
use dvs_mem::{LineAddr, MainMemory, Region, WordAddr};
use dvs_noc::Mesh;
use dvs_telemetry::MetricsRegistry;
use dvs_vm::MemRequest;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Every L1 and L2 bank of the machine, by protocol family.
#[derive(Debug, Clone)]
pub(crate) enum Backend {
    /// Directory MESI.
    Mesi {
        l1s: Vec<MesiL1>,
        dirs: Vec<MesiDir>,
    },
    /// DeNovoSync0, DeNovoSync, and GCS (DeNovo plus the sync path): one
    /// family, three tables.
    DeNovo {
        l1s: Vec<DnvL1>,
        regs: Vec<DnvRegistry>,
    },
}

impl Backend {
    /// Builds one L1 and one L2 bank per core, each running the table
    /// `cfg.protocol` and `cfg.mutation` choose. Dense per-line bank tables
    /// are sized from the layout span; out-of-layout lines (thread pools)
    /// spill to a sparse tier.
    pub(crate) fn new(cfg: &SystemConfig, layout: &Arc<MemoryLayout>, mesh: &Mesh) -> Self {
        let n = cfg.cores;
        let mem = |b: usize| Endpoint::Mem(mesh.nearest_corner(b));
        match cfg.protocol {
            Protocol::Mesi => Backend::Mesi {
                l1s: (0..n)
                    .map(|i| {
                        let mut l1 = MesiL1::new(i, cfg.l1, n);
                        l1.set_mutation(cfg.mutation);
                        l1
                    })
                    .collect(),
                dirs: (0..n)
                    .map(|b| {
                        let mut d = MesiDir::new(b, mem(b));
                        d.configure_span(layout, n);
                        d
                    })
                    .collect(),
            },
            protocol => Backend::DeNovo {
                l1s: (0..n)
                    .map(|i| DnvL1::new(i, cfg.l1, n, cfg.backoff, Arc::clone(layout), protocol))
                    .collect(),
                regs: (0..n)
                    .map(|b| {
                        let mut r = DnvRegistry::new(b, mem(b), protocol, cfg.mutation);
                        r.configure_span(layout, n);
                        r
                    })
                    .collect(),
            },
        }
    }

    /// Presents core `i`'s memory request to its L1.
    pub(crate) fn core_request(
        &mut self,
        i: CoreId,
        req: &MemRequest,
        after_backoff: bool,
        actions: &mut Actions,
    ) -> IssueResult {
        match self {
            Backend::Mesi { l1s, .. } => l1s[i].core_request(req, actions),
            Backend::DeNovo { l1s, .. } => l1s[i].core_request(req, after_backoff, actions),
        }
    }

    /// Delivers a message to an L1 or L2 bank. Returns false (touching
    /// nothing) if the endpoint's controller does not speak the message's
    /// protocol.
    pub(crate) fn deliver(&mut self, ep: Endpoint, msg: Msg, actions: &mut Actions) -> bool {
        match (self, ep, msg) {
            (Backend::Mesi { l1s, .. }, Endpoint::L1(i), Msg::Mesi(m)) => l1s[i].on_msg(m, actions),
            (
                Backend::Mesi { dirs, .. },
                Endpoint::Bank(b),
                m @ (Msg::Mesi(_) | Msg::MemData { .. }),
            ) => dirs[b].on_msg(m, actions),
            (Backend::DeNovo { l1s, .. }, Endpoint::L1(i), Msg::Dnv(m)) => {
                l1s[i].on_msg(m, actions)
            }
            (
                Backend::DeNovo { regs, .. },
                Endpoint::Bank(b),
                m @ (Msg::Dnv(_) | Msg::MemData { .. }),
            ) => regs[b].on_msg(m, actions),
            _ => return false,
        }
        true
    }

    /// Parks core `i`'s failed spin on `word`, which just read `seen`, if
    /// its L1 can watch it: in place on a usable local copy, or (GCS, on a
    /// word the L1 knows is classified) in the home bank's waiter set.
    /// Returns whether it did.
    pub(crate) fn watch(
        &mut self,
        i: CoreId,
        word: WordAddr,
        seen: u64,
        actions: &mut Actions,
    ) -> bool {
        match self {
            Backend::Mesi { l1s, .. } => l1s[i].watch(word),
            Backend::DeNovo { l1s, .. } => l1s[i].watch(word, seen, actions),
        }
    }

    /// Clears core `i`'s local spin watch.
    pub(crate) fn clear_watch(&mut self, i: CoreId) {
        match self {
            Backend::Mesi { l1s, .. } => l1s[i].clear_watch(),
            Backend::DeNovo { l1s, .. } => l1s[i].clear_watch(),
        }
    }

    /// Acquire-side self-invalidation of `region` at core `i` (a no-op
    /// under MESI, whose writers invalidate).
    pub(crate) fn self_invalidate(&mut self, i: CoreId, region: Region) {
        if let Backend::DeNovo { l1s, .. } = self {
            l1s[i].self_invalidate(region);
        }
    }

    /// Signature-mode self-invalidation of exactly `words` at core `i`.
    pub(crate) fn self_invalidate_words(&mut self, i: CoreId, words: &[WordAddr]) {
        if let Backend::DeNovo { l1s, .. } = self {
            l1s[i].self_invalidate_words(words);
        }
    }

    /// The sync-path banks' notify and recall counts.
    pub(crate) fn export_metrics(&self, reg: &mut MetricsRegistry) {
        if let Backend::DeNovo { regs, .. } = self {
            for (b, r) in regs.iter().enumerate().filter(|(_, r)| r.has_sync_path()) {
                let node = format!("bank{b}");
                reg.add(&node, "gcs", "notifies", r.notifies());
                reg.add(&node, "gcs", "recalls", r.recalls());
            }
        }
    }

    /// Core `i`'s L1's peak simultaneous MSHR occupancy.
    pub(crate) fn mshr_high_water(&self, i: CoreId) -> usize {
        match self {
            Backend::Mesi { l1s, .. } => l1s[i].mshr_high_water(),
            Backend::DeNovo { l1s, .. } => l1s[i].mshr_high_water(),
        }
    }

    /// Feeds every L1, then every bank, into a canonical state hash.
    pub(crate) fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        match self {
            Backend::Mesi { l1s, dirs } => {
                l1s.iter().for_each(|l| l.hash(h));
                dirs.iter().for_each(|d| d.hash(h));
            }
            Backend::DeNovo { l1s, regs } => {
                l1s.iter().for_each(|l| l.hash(h));
                regs.iter().for_each(|r| r.hash(h));
            }
        }
    }

    /// The quiescent-state coherence invariants.
    pub(crate) fn verify(&self) -> Result<(), String> {
        match self {
            Backend::Mesi { l1s, dirs } => mesi::family::verify(l1s, dirs),
            Backend::DeNovo { l1s, regs } => denovo::family::verify(l1s, regs),
        }
    }

    /// The delivery-boundary invariants for one line.
    pub(crate) fn check_line(&self, line: LineAddr) -> Result<(), String> {
        match self {
            Backend::Mesi { l1s, dirs } => mesi::family::check_line(l1s, dirs, line),
            Backend::DeNovo { l1s, regs } => denovo::family::check_line(l1s, regs, line),
        }
    }

    /// The full delivery-boundary scan: every tracked line, then MSHR
    /// conservation against the lines with in-flight messages.
    pub(crate) fn verify_invariants(&self, live_lines: &HashSet<LineAddr>) -> Result<(), String> {
        match self {
            Backend::Mesi { l1s, dirs } => mesi::family::verify_invariants(l1s, dirs, live_lines),
            Backend::DeNovo { l1s, regs } => {
                denovo::family::verify_invariants(l1s, regs, live_lines)
            }
        }
    }

    /// Adds pending transactions and stuck lines' L2 state to a report.
    pub(crate) fn describe_stall(&self, addrs: &mut BTreeSet<LineAddr>, report: &mut StallReport) {
        match self {
            Backend::Mesi { l1s, dirs } => mesi::family::describe_stall(l1s, dirs, addrs, report),
            Backend::DeNovo { l1s, regs } => {
                denovo::family::describe_stall(l1s, regs, addrs, report)
            }
        }
    }

    /// The architecturally-current value of a word.
    pub(crate) fn read_word(&self, memory: &MainMemory, word: WordAddr) -> u64 {
        match self {
            Backend::Mesi { l1s, dirs } => mesi::family::read_word(l1s, dirs, memory, word),
            Backend::DeNovo { l1s, regs } => denovo::family::read_word(l1s, regs, memory, word),
        }
    }
}
