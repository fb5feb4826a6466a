//! Whole-machine views over every MESI L1 and directory bank: the quiescent
//! verifier, the per-line delivery-boundary invariants, MSHR conservation,
//! stall forensics and architectural reads.

use super::l1::Stable;
use super::{MesiDir, MesiL1};
use crate::coreset::CoreSet;
use crate::msg::CoreId;
use crate::system::StallReport;
use dvs_mem::{LineAddr, MainMemory, WordAddr};
use std::collections::{BTreeSet, HashMap, HashSet};

fn home(dirs: &[MesiDir], line: LineAddr) -> usize {
    (line.raw() % dirs.len() as u64) as usize
}

/// Quiescent owner/sharer agreement: every directory-owned line is in E/M
/// at exactly its owner; every resident S line is covered by the
/// directory's sharer set; no L1 transactions or directory busy states
/// remain.
pub(crate) fn verify(l1s: &[MesiL1], dirs: &[MesiDir]) -> Result<(), String> {
    let mut owners: HashMap<LineAddr, CoreId> = HashMap::new();
    let mut sharers: HashMap<LineAddr, CoreSet> = HashMap::new();
    for (c, l1) in l1s.iter().enumerate() {
        if l1.outstanding_txns() != 0 {
            return Err(format!(
                "core {c}: {} MSHR entries at quiescence",
                l1.outstanding_txns()
            ));
        }
        for (line, state) in l1.resident_lines() {
            match state {
                Stable::E | Stable::M => {
                    if let Some(prev) = owners.insert(line, c) {
                        return Err(format!("line {line} owned by both {prev} and {c}"));
                    }
                }
                Stable::S => sharers.entry(line).or_default().insert(c),
            }
        }
    }
    for dir in dirs {
        if dir.any_busy() {
            return Err("directory line busy at quiescence".into());
        }
        for (line, mask, owner) in dir.entries() {
            if let Some(o) = owner {
                if owners.get(&line) != Some(&o) {
                    return Err(format!("directory says {line} owned by {o}, L1s disagree"));
                }
            }
            let outside = sharers
                .get(&line)
                .copied()
                .unwrap_or_default()
                .difference(&mask);
            if !outside.is_empty() {
                return Err(format!(
                    "line {line}: cores {:?} hold S copies outside the sharer set {:?}",
                    outside.iter().collect::<Vec<_>>(),
                    mask.iter().collect::<Vec<_>>()
                ));
            }
            if owner.is_none() && owners.contains_key(&line) {
                return Err(format!(
                    "line {line} owned by core {} but directory has no owner",
                    owners[&line]
                ));
            }
        }
    }
    Ok(())
}

/// Per line: (1) at most one settled owner (E/M with no MSHR transaction);
/// (2) a settled owner is known to the directory — the entry is
/// busy/queued (ownership mid-transfer) or points at that owner; (3) an
/// idle directory entry's owner pointer targets a core that is a settled
/// owner or mid-transaction (eviction in flight); (4) an idle owned line
/// has no settled S copy at another core (single-writer/multiple-reader).
pub(crate) fn check_line(l1s: &[MesiL1], dirs: &[MesiDir], line: LineAddr) -> Result<(), String> {
    let mut settled_owner: Option<CoreId> = None;
    let mut settled_sharers: Vec<CoreId> = Vec::new();
    for (c, l1) in l1s.iter().enumerate() {
        if l1.has_txn(line) {
            continue; // transient: exempt
        }
        match l1.line_state(line) {
            Some(Stable::E) | Some(Stable::M) => {
                if let Some(prev) = settled_owner {
                    return Err(format!(
                        "line {line}: settled owners at both core {prev} and core {c}"
                    ));
                }
                settled_owner = Some(c);
            }
            Some(Stable::S) => settled_sharers.push(c),
            None => {}
        }
    }
    let bank = home(dirs, line);
    let dir = &dirs[bank];
    let busy = dir.busy_or_queued(line);
    if let Some(owner) = settled_owner {
        if !busy && dir.owner(line) != Some(owner) {
            return Err(format!(
                "line {line}: core {owner} is settled owner but idle directory bank \
                 {bank} says owner {:?}",
                dir.owner(line)
            ));
        }
        if !busy && !settled_sharers.is_empty() {
            return Err(format!(
                "line {line}: settled owner {owner} coexists with settled S copies at \
                 cores {settled_sharers:?}"
            ));
        }
    }
    if !busy {
        if let Some(o) = dir.owner(line) {
            let l1 = &l1s[o];
            let owns = matches!(l1.line_state(line), Some(Stable::E) | Some(Stable::M));
            if !owns && !l1.has_txn(line) {
                return Err(format!(
                    "line {line}: idle directory bank {bank} says core {o} owns it, but \
                     core {o} neither holds E/M nor has a transaction"
                ));
            }
        }
    }
    Ok(())
}

/// The full delivery-boundary scan: [`check_line`] over every line any L1
/// or directory bank tracks, then conservation — every outstanding L1
/// transaction has an in-flight message for its line (`live_lines`) or a
/// busy/queued home directory entry to resolve it.
pub(crate) fn verify_invariants(
    l1s: &[MesiL1],
    dirs: &[MesiDir],
    live_lines: &HashSet<LineAddr>,
) -> Result<(), String> {
    let mut lines = BTreeSet::new();
    for l1 in l1s {
        lines.extend(l1.resident_lines().map(|(l, _)| l));
        lines.extend(l1.pending_summaries().iter().map(|(l, _)| *l));
    }
    for dir in dirs {
        lines.extend(dir.entries().map(|(l, _, _)| l));
    }
    for line in lines {
        check_line(l1s, dirs, line)?;
    }
    for (c, l1) in l1s.iter().enumerate() {
        for (line, state) in l1.pending_summaries() {
            if !live_lines.contains(&line) && !dirs[home(dirs, line)].busy_or_queued(line) {
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
            .push(dirs[home(dirs, line)].describe_line(line));
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
    let dir = &dirs[home(dirs, word.line())];
    if let Some(v) = dir.owner(word.line()).and_then(|o| l1s[o].peek_word(word)) {
        return v;
    }
    match dir.peek_line(word.line()) {
        Some(data) => data[word.index_in_line()],
        None => memory.read_word(word),
    }
}
