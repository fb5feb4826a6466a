//! Iterative deepening with resumable frontier checkpoints.
//!
//! A deepening run explores in *rounds*: round `k` explores up to an
//! absolute depth bound, collecting the frontier — the schedule prefixes of
//! the states truncated exactly at the bound — and round `k+1` re-seeds
//! from those prefixes with the bound raised. Because a schedule prefix
//! rebuilds its state by replay, the frontier is a complete, *portable*
//! description of where exploration stopped: a few kilobytes of channel
//! picks instead of gigabytes of machine states.
//!
//! Between rounds the frontier is serialized to a checkpoint file, so a
//! long run can be killed — by a budget, a deadline, or `kill -9` — and
//! resumed. Rounds are the atomic unit of progress: a kill mid-round loses
//! at most that round's work, and resuming re-runs it from the last saved
//! frontier. In exact visited mode each round's explored set is a
//! deterministic function of (seeds, depth bound) — see the fixpoint
//! argument in [`explore`](crate::explore) — so an interrupted-and-resumed
//! run reports the same verdict and the same cumulative `unique_states` as
//! an uninterrupted one.
//!
//! # Checkpoint format (`DVSCKPT1`)
//!
//! Little-endian, append-only within a file, written atomically
//! (temp file + rename) so a reader never sees a torn write:
//!
//! ```text
//! magic    "DVSCKPT1"                      8 bytes
//! root_fp  canonical fingerprint of depth-0 state   u64
//! depth    bound the frontier is truncated at       u64
//! round    completed rounds                         u32
//! stats    cumulative counters                      10×u64,u64(depth seen),2×u8 flags,2 pad
//! count    frontier prefixes                        u64
//! prefix*  len u32, then len picks × 8 bytes
//!          pick: chan kind u8, endpoint kind u8, node u16, ep id u16, pad u16
//! checksum FNV-1a over everything above             u64
//! ```
//!
//! Loading verifies magic, version, checksum, and structural bounds, and
//! [`deepen`] additionally verifies `root_fp` against the model it was
//! given. Every failure is a hard error — a checkpoint that cannot be
//! trusted is *rejected*, never silently skipped, because starting over
//! from depth 0 behind the caller's back would silently change what
//! "resume" means.

use crate::explore::{
    explore_seeds, finish, CheckConfig, CheckReport, CheckStats, FinalCheck, RawExploration, Seed,
    Verdict,
};
use dvs_core::msg::Endpoint;
use dvs_core::oracle::ChannelKey;
use dvs_core::system::System;
use dvs_engine::{fnv1a, write_durable, FNV_OFFSET};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"DVSCKPT1";
const PICK_SIZE: usize = 8;

fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().copied().fold(FNV_OFFSET, fnv1a)
}

/// Why a checkpoint could not be used. All variants are terminal: the
/// caller decides whether to delete the file and start over — the library
/// never does that on its own.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing.
    Io(io::Error),
    /// The file is not a well-formed `DVSCKPT1` checkpoint: bad magic,
    /// failed checksum, truncation, or an out-of-range field.
    Corrupt(String),
    /// The checkpoint is well-formed but belongs to a different model
    /// (root fingerprint mismatch).
    ModelMismatch { expected: u64, found: u64 },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint rejected: {why}"),
            CheckpointError::ModelMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different model (root fp {found:#x}, expected {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn encode_pick(buf: &mut Vec<u8>, pick: ChannelKey) {
    let (chan_kind, node, ep) = match pick {
        ChannelKey::Net(node, ep) => (0u8, node as u64, ep),
        ChannelKey::Local(ep) => (1u8, 0, ep),
    };
    let (ep_kind, ep_id) = match ep {
        Endpoint::L1(i) => (0u8, i as u64),
        Endpoint::Bank(b) => (1u8, b as u64),
        Endpoint::Mem(n) => (2u8, n as u64),
    };
    assert!(node <= u16::MAX as u64 && ep_id <= u16::MAX as u64);
    buf.push(chan_kind);
    buf.push(ep_kind);
    buf.extend_from_slice(&(node as u16).to_le_bytes());
    buf.extend_from_slice(&(ep_id as u16).to_le_bytes());
    buf.extend_from_slice(&[0, 0]);
}

fn decode_pick(rec: &[u8]) -> Result<ChannelKey, CheckpointError> {
    let node = u16::from_le_bytes([rec[2], rec[3]]) as usize;
    let ep_id = u16::from_le_bytes([rec[4], rec[5]]) as usize;
    let ep = match rec[1] {
        0 => Endpoint::L1(ep_id),
        1 => Endpoint::Bank(ep_id),
        2 => Endpoint::Mem(ep_id),
        k => return Err(CheckpointError::Corrupt(format!("endpoint kind {k}"))),
    };
    match rec[0] {
        0 => Ok(ChannelKey::Net(node, ep)),
        1 if node == 0 => Ok(ChannelKey::Local(ep)),
        k => Err(CheckpointError::Corrupt(format!("channel kind {k}"))),
    }
}

/// A saved deepening position: everything round `k+1` needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fingerprint of the depth-0 state — binds the file to one model.
    pub root_fp: u64,
    /// The depth bound the frontier is truncated at; the next round
    /// explores beyond it.
    pub depth: usize,
    /// Completed rounds.
    pub round: u32,
    /// Counters accumulated over completed rounds.
    pub stats: CheckStats,
    /// Frontier schedule prefixes (each of length `depth`), sorted.
    pub frontier: Vec<Vec<ChannelKey>>,
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.frontier.len() * 16);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.root_fp.to_le_bytes());
        buf.extend_from_slice(&(self.depth as u64).to_le_bytes());
        buf.extend_from_slice(&self.round.to_le_bytes());
        let s = &self.stats;
        for v in [
            s.unique_states,
            s.expansions,
            s.transitions_fired,
            s.transitions_enabled,
            s.sleep_skips,
            s.dedup_hits,
            s.spilled_runs,
            s.spilled_entries,
            s.visited_peak_bytes,
            s.replay_fires,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&(s.max_depth_seen as u64).to_le_bytes());
        buf.push(s.depth_truncated as u8);
        buf.push(s.state_truncated as u8);
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&(self.frontier.len() as u64).to_le_bytes());
        for prefix in &self.frontier {
            buf.extend_from_slice(&(prefix.len() as u32).to_le_bytes());
            for &pick in prefix {
                encode_pick(&mut buf, pick);
            }
        }
        let sum = checksum(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Writes the checkpoint with [`write_durable`]: a crash mid-save
    /// leaves either the old checkpoint or the new one, never a torn mix.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_durable(path, &self.encode())
    }

    /// Loads and verifies a checkpoint. Any structural problem — bad magic,
    /// bad checksum, truncation, out-of-range fields — is a
    /// [`CheckpointError::Corrupt`] rejection.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Self::decode(&buf)
    }

    fn decode(buf: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let corrupt = |why: &str| CheckpointError::Corrupt(why.to_string());
        // magic(8) fp(8) depth(8) round(4) stats(10*8+8+4) count(8) sum(8)
        const FIXED: usize = 8 + 8 + 8 + 4 + (10 * 8 + 8 + 4) + 8 + 8;
        if buf.len() < FIXED {
            return Err(corrupt("truncated header"));
        }
        let (body, sum_bytes) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if checksum(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if &body[..8] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let u64_at = |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().unwrap());
        let root_fp = u64_at(8);
        let depth = u64_at(16) as usize;
        let round = u32::from_le_bytes(body[24..28].try_into().unwrap());
        let mut off = 28;
        let mut counters = [0u64; 10];
        for c in counters.iter_mut() {
            *c = u64_at(off);
            off += 8;
        }
        let max_depth_seen = u64_at(off) as usize;
        off += 8;
        let flags = &body[off..off + 4];
        if flags[0] > 1 || flags[1] > 1 || flags[2] != 0 || flags[3] != 0 {
            return Err(corrupt("bad flag bytes"));
        }
        off += 4;
        let stats = CheckStats {
            unique_states: counters[0],
            expansions: counters[1],
            transitions_fired: counters[2],
            transitions_enabled: counters[3],
            sleep_skips: counters[4],
            dedup_hits: counters[5],
            spilled_runs: counters[6],
            spilled_entries: counters[7],
            visited_peak_bytes: counters[8],
            replay_fires: counters[9],
            max_depth_seen,
            depth_truncated: flags[0] == 1,
            state_truncated: flags[1] == 1,
            filter_bits: 0,
            filter_bits_set: 0,
        };
        let count = u64_at(off);
        off += 8;
        let mut frontier = Vec::new();
        for _ in 0..count {
            if off + 4 > body.len() {
                return Err(corrupt("truncated prefix length"));
            }
            let len = u32::from_le_bytes(body[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            if len != depth {
                return Err(corrupt("prefix length disagrees with frontier depth"));
            }
            if off + len * PICK_SIZE > body.len() {
                return Err(corrupt("truncated prefix"));
            }
            let mut prefix = Vec::with_capacity(len);
            for _ in 0..len {
                prefix.push(decode_pick(&body[off..off + PICK_SIZE])?);
                off += PICK_SIZE;
            }
            frontier.push(prefix);
        }
        if off != body.len() {
            return Err(corrupt("trailing bytes after frontier"));
        }
        Ok(Checkpoint {
            root_fp,
            depth,
            round,
            stats,
            frontier,
        })
    }
}

/// Shape of a deepening run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepenConfig {
    /// Per-round explorer settings. `max_depth`/`max_states`/
    /// `collect_frontier` are overridden per round; `workers`, `por`,
    /// `visited`, and the spill budget are honored.
    pub base: CheckConfig,
    /// Depth bound of round 0.
    pub start_depth: usize,
    /// How much the bound rises per round.
    pub step: usize,
    /// Final bound: the run stops (possibly still truncated) when a
    /// round's bound reaches it.
    pub max_depth: usize,
    /// Per-round expansion budget. A round that exhausts it gives up with
    /// `state_truncated` — its frontier is incomplete, so deepening stops
    /// there rather than resume from a lie.
    pub round_states: u64,
    /// Where to save the frontier between rounds; `None` disables
    /// checkpointing (and resuming).
    pub checkpoint: Option<PathBuf>,
    /// Sleep inserted after each completed round — widens the window for
    /// kill-drill tests; `None` for production.
    pub round_delay: Option<Duration>,
}

impl Default for DeepenConfig {
    fn default() -> Self {
        DeepenConfig {
            base: CheckConfig::default(),
            start_depth: 64,
            step: 64,
            max_depth: 4096,
            round_states: 2_000_000,
            checkpoint: None,
            round_delay: None,
        }
    }
}

/// A finished deepening run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepenOutcome {
    /// Verdict plus *cumulative* stats: `unique_states` sums the per-round
    /// unique counts (a state spanning a round boundary is counted in each
    /// round that expands it), which is scheduling-independent in exact
    /// mode and therefore comparable between interrupted and uninterrupted
    /// runs.
    pub report: CheckReport,
    /// Rounds executed in *this* process (a resumed run counts only its
    /// own).
    pub rounds: u32,
    /// Whether the run started from a loaded checkpoint.
    pub resumed: bool,
}

/// Runs iterative deepening from `root`, checkpointing the frontier
/// between rounds and resuming from `cfg.checkpoint` if it exists.
///
/// Returns `Err` — without exploring anything — if an existing checkpoint
/// is corrupt or belongs to a different model.
pub fn deepen(
    root: &System,
    final_ok: &FinalCheck<'_>,
    cfg: &DeepenConfig,
) -> Result<DeepenOutcome, CheckpointError> {
    assert!(cfg.step > 0, "deepening step must be positive");
    let root_fp = root.fingerprint();
    let mut resumed = false;
    let (mut bound, mut round, mut total, mut seeds) = match &cfg.checkpoint {
        Some(path) if path.exists() => {
            let ck = Checkpoint::load(path)?;
            if ck.root_fp != root_fp {
                return Err(CheckpointError::ModelMismatch {
                    expected: root_fp,
                    found: ck.root_fp,
                });
            }
            resumed = true;
            let seeds = ck
                .frontier
                .iter()
                .map(|prefix| Seed {
                    prefix: prefix.clone(),
                })
                .collect();
            (ck.depth + cfg.step, ck.round, ck.stats, seeds)
        }
        _ => (
            cfg.start_depth,
            0,
            CheckStats::default(),
            vec![Seed::root()],
        ),
    };
    let mut rounds_here = 0;
    loop {
        bound = bound.min(cfg.max_depth);
        let round_cfg = CheckConfig {
            max_depth: bound,
            max_states: cfg.round_states,
            collect_frontier: true,
            ..cfg.base
        };
        let raw = explore_seeds(root, seeds, final_ok, &round_cfg);
        rounds_here += 1;
        round += 1;
        let mut cumulative = total;
        cumulative.absorb(&raw.stats);
        if raw.found.is_some() || raw.stats.state_truncated {
            // Violated, or the round budget fired (frontier incomplete):
            // either way this is the end of the line, not a resume point.
            let report = finish(
                root,
                final_ok,
                RawExploration {
                    found: raw.found,
                    stats: cumulative,
                    frontier: raw.frontier,
                },
            );
            if matches!(report.verdict, Verdict::Violated(_)) {
                if let Some(path) = &cfg.checkpoint {
                    let _ = fs::remove_file(path);
                }
            }
            return Ok(DeepenOutcome {
                report,
                rounds: rounds_here,
                resumed,
            });
        }
        let frontier = raw.frontier;
        total = cumulative;
        // The per-round depth flag only says "this round truncated"; the
        // run as a whole is depth-truncated only if the *final* frontier
        // is nonempty.
        total.depth_truncated = false;
        if frontier.is_empty() || bound >= cfg.max_depth {
            total.depth_truncated = !frontier.is_empty();
            if let Some(path) = &cfg.checkpoint {
                let _ = fs::remove_file(path);
            }
            return Ok(DeepenOutcome {
                report: CheckReport {
                    verdict: Verdict::Verified,
                    stats: total,
                    frontier,
                },
                rounds: rounds_here,
                resumed,
            });
        }
        if let Some(path) = &cfg.checkpoint {
            Checkpoint {
                root_fp,
                depth: bound,
                round,
                stats: total,
                frontier: frontier.clone(),
            }
            .save(path)?;
        }
        if let Some(delay) = cfg.round_delay {
            std::thread::sleep(delay);
        }
        seeds = frontier
            .iter()
            .map(|prefix| Seed {
                prefix: prefix.clone(),
            })
            .collect();
        bound += cfg.step;
    }
}
