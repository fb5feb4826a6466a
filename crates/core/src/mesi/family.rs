//! Whole-machine views over every MESI L1 and directory bank: the one
//! per-line coherence rule set (checked at delivery boundaries, by the full
//! scan and by the quiescent verifier), MSHR conservation, stall forensics
//! and architectural reads.

use super::l1::Stable;
use super::{MesiDir, MesiL1};
use crate::coreset::CoreSet;
use crate::msg::CoreId;
use crate::proto::home_bank;
use crate::system::StallReport;
use dvs_mem::{LineAddr, MainMemory, WordAddr};
use std::collections::{BTreeSet, HashSet};

/// One line's **settled** L1 copies: state an L1 holds with no MSHR
/// transaction on the line. Transient copies are exempt from the rules.
#[derive(Debug, Clone, Copy, Default)]
struct Settled {
    /// Cores holding the line in E or M.
    owners: CoreSet,
    /// Cores holding the line in S.
    sharers: CoreSet,
}

impl Settled {
    fn add(&mut self, core: CoreId, state: Stable) {
        match state {
            Stable::E | Stable::M => self.owners.insert(core),
            Stable::S => self.sharers.insert(core),
        }
    }
}

/// The quiescent verifier: nothing is pending — no L1 transaction, no busy
/// or queued directory line — and the full [`verify_invariants`] scan
/// passes. With nothing in flight, its per-line rules pin every owner and
/// every S copy to the directory exactly.
pub(crate) fn verify(l1s: &[MesiL1], dirs: &[MesiDir]) -> Result<(), String> {
    for (c, l1) in l1s.iter().enumerate() {
        if l1.outstanding_txns() != 0 {
            return Err(format!(
                "core {c}: {} MSHR entries at quiescence",
                l1.outstanding_txns()
            ));
        }
    }
    if dirs.iter().any(MesiDir::any_busy) {
        return Err("directory line busy at quiescence".into());
    }
    verify_invariants(l1s, dirs, &HashSet::new())
}

/// The delivery-boundary check of one line: gathers its settled copies by
/// asking each L1, then applies [`line_rules`].
pub(crate) fn check_line(l1s: &[MesiL1], dirs: &[MesiDir], line: LineAddr) -> Result<(), String> {
    let mut settled = Settled::default();
    for (c, l1) in l1s.iter().enumerate() {
        if let Some(state) = l1.line_state(line).filter(|_| !l1.has_txn(line)) {
            settled.add(c, state);
        }
    }
    line_rules(l1s, dirs, line, settled)
}

/// The MESI rules for one line, given its settled copies: (1) at most one
/// settled owner (E/M). The rest hold while the home directory entry is
/// idle (not busy, nothing queued — otherwise ownership or sharing is
/// mid-transfer): (2) a settled owner is the entry's owner; (3) a settled
/// owner coexists with no settled S copy (single-writer/multiple-reader);
/// (4) the entry's owner pointer targets a settled owner or a core
/// mid-transaction (eviction in flight); (5) the entry's sharer set covers
/// every settled S copy.
fn line_rules(
    l1s: &[MesiL1],
    dirs: &[MesiDir],
    line: LineAddr,
    settled: Settled,
) -> Result<(), String> {
    let mut owners = settled.owners.iter();
    let owner = owners.next();
    if let (Some(a), Some(b)) = (owner, owners.next()) {
        return Err(format!(
            "line {line}: settled owners at both core {a} and core {b}"
        ));
    }
    let bank = home_bank(line, dirs.len());
    let dir = &dirs[bank];
    if dir.busy_or_queued(line) {
        return Ok(());
    }
    let dir_owner = dir.owner(line);
    if let Some(o) = owner {
        if dir_owner != Some(o) {
            return Err(format!(
                "line {line}: core {o} is settled owner but idle directory bank \
                 {bank} says owner {dir_owner:?}"
            ));
        }
        if !settled.sharers.is_empty() {
            return Err(format!(
                "line {line}: settled owner {o} coexists with settled S copies at \
                 cores {:?}",
                settled.sharers.iter().collect::<Vec<_>>()
            ));
        }
    }
    if let Some(o) = dir_owner {
        if owner != Some(o) && !l1s[o].has_txn(line) {
            return Err(format!(
                "line {line}: idle directory bank {bank} says core {o} owns it, but \
                 core {o} neither holds E/M nor has a transaction"
            ));
        }
    }
    let mask = dir.sharers(line);
    let outside = settled.sharers.difference(&mask);
    if !outside.is_empty() {
        return Err(format!(
            "line {line}: cores {:?} hold S copies outside idle directory bank {bank}'s \
             sharer set {:?}",
            outside.iter().collect::<Vec<_>>(),
            mask.iter().collect::<Vec<_>>()
        ));
    }
    Ok(())
}

/// The full delivery-boundary scan: [`line_rules`] over every line with a
/// settled copy or a directory owner — gathered in one pass over the L1s'
/// resident lines, checked in address order — then conservation: every
/// outstanding L1 transaction has an in-flight message for its line
/// (`live_lines`) or a busy/queued home directory entry to resolve it.
pub(crate) fn verify_invariants(
    l1s: &[MesiL1],
    dirs: &[MesiDir],
    live_lines: &HashSet<LineAddr>,
) -> Result<(), String> {
    let mut copies: Vec<(LineAddr, Option<(CoreId, Stable)>)> = Vec::new();
    for (c, l1) in l1s.iter().enumerate() {
        let settled = l1.resident_lines().filter(|&(line, _)| !l1.has_txn(line));
        copies.extend(settled.map(|(line, state)| (line, Some((c, state)))));
    }
    for dir in dirs {
        copies.extend(dir.owned_lines().map(|line| (line, None)));
    }
    copies.sort_unstable_by_key(|&(line, _)| line);
    for group in copies.chunk_by(|a, b| a.0 == b.0) {
        let mut settled = Settled::default();
        for &(c, state) in group.iter().filter_map(|(_, copy)| copy.as_ref()) {
            settled.add(c, state);
        }
        line_rules(l1s, dirs, group[0].0, settled)?;
    }
    for (c, l1) in l1s.iter().enumerate() {
        for (line, state) in l1.pending_summaries() {
            if !live_lines.contains(&line)
                && !dirs[home_bank(line, dirs.len())].busy_or_queued(line)
            {
                return Err(format!(
                    "conservation: core {c} transaction on {line} ({state}) has \
                     no in-flight message and an idle directory entry"
                ));
            }
        }
    }
    Ok(())
}

/// Adds the pending L1 transactions, and the directory entries of every
/// stuck line (`addrs` arrives holding the stalled cores' lines), to a
/// stall report.
pub(crate) fn describe_stall(
    l1s: &[MesiL1],
    dirs: &[MesiDir],
    addrs: &mut BTreeSet<LineAddr>,
    report: &mut StallReport,
) {
    for (c, l1) in l1s.iter().enumerate() {
        for (line, state) in l1.pending_summaries() {
            addrs.insert(line);
            report.l1_pending.push(format!("core {c}: {line} {state}"));
        }
    }
    for &line in addrs.iter() {
        report
            .l2_state
            .push(dirs[home_bank(line, dirs.len())].describe_line(line));
    }
}

/// The architecturally-current value of a word: the owner's copy, else the
/// directory's, else memory.
pub(crate) fn read_word(
    l1s: &[MesiL1],
    dirs: &[MesiDir],
    memory: &MainMemory,
    word: WordAddr,
) -> u64 {
    let dir = &dirs[home_bank(word.line(), dirs.len())];
    if let Some(v) = dir.owner(word.line()).and_then(|o| l1s[o].peek_word(word)) {
        return v;
    }
    match dir.peek_line(word.line()) {
        Some(data) => data[word.index_in_line()],
        None => memory.read_word(word),
    }
}
