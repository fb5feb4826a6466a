//! Whole-machine views over every DeNovo L1 and registry bank: the
//! quiescent verifier, the per-word delivery-boundary invariants, MSHR
//! conservation, stall forensics and architectural reads. Under GCS,
//! sync-classified words are one more branch of each check.

use super::registry::RegWord;
use super::{DnvL1, DnvRegistry};
use crate::msg::CoreId;
use crate::system::StallReport;
use dvs_mem::{LineAddr, MainMemory, WordAddr};
use std::collections::{BTreeSet, HashMap, HashSet};

fn home(regs: &[DnvRegistry], line: LineAddr) -> usize {
    (line.raw() % regs.len() as u64) as usize
}

/// Quiescent invariants.
///
/// * **Single-registrant rule**: every word the registry marks
///   `Registered(c)` is actually held Registered by core `c`, and — the
///   converse — every L1-registered word is the one the registry points at,
///   so no word ever has two registrants.
/// * **Classified words** (GCS): Valid at their home bank with **no silent
///   sharer** (no L1 holds one Registered), and the whole sync tier idle —
///   no recall in flight, no parked requests, no waiter bits, no armed
///   remote watches.
pub(crate) fn verify(l1s: &[DnvL1], regs: &[DnvRegistry]) -> Result<(), String> {
    let mut holders: HashMap<WordAddr, CoreId> = HashMap::new();
    for (c, l1) in l1s.iter().enumerate() {
        if l1.outstanding_txns() != 0 {
            return Err(format!(
                "core {c}: {} MSHR entries at quiescence",
                l1.outstanding_txns()
            ));
        }
        if let Some(w) = l1.remote_watch_word() {
            return Err(format!("core {c}: remote watch on {w} at quiescence"));
        }
        for w in l1.registered_words() {
            if let Some(prev) = holders.insert(w, c) {
                return Err(format!(
                    "word {w} registered at both core {prev} and core {c}"
                ));
            }
        }
    }
    // Registry pointers must agree with the holders, in both directions.
    let mut pointed = 0usize;
    for (b, reg) in regs.iter().enumerate() {
        if reg.any_fetching() {
            return Err(format!("bank {b}: line still fetching at quiescence"));
        }
        if reg.sync_busy() {
            return Err(format!(
                "bank {b}: sync entry mid-recall or holding parked requests at quiescence"
            ));
        }
        if reg.waiter_count() != 0 {
            return Err(format!(
                "bank {b}: {} waiter bits set at quiescence",
                reg.waiter_count()
            ));
        }
        for w in reg.classified_words() {
            if let Some(&c) = holders.get(&w) {
                return Err(format!(
                    "classified word {w} has a silent sharer: core {c} holds it Registered"
                ));
            }
            match reg.word(w) {
                Some(RegWord::Valid(_)) => {}
                other => {
                    return Err(format!(
                        "classified word {w} is {other:?} at bank {b}, not Valid"
                    ))
                }
            }
        }
        for (w, c) in reg.registrations() {
            pointed += 1;
            match holders.get(&w) {
                Some(&h) if h == c => {}
                Some(&h) => {
                    return Err(format!(
                        "registry points {w} at core {c}, but core {h} holds it"
                    ))
                }
                None => return Err(format!("registry points {w} at core {c}, which lacks it")),
            }
        }
    }
    if pointed != holders.len() {
        return Err(format!(
            "{} words registered in L1s but only {pointed} registry pointers",
            holders.len()
        ));
    }
    Ok(())
}

/// The delivery-boundary invariants for every word of `line`.
pub(crate) fn check_line(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    line: LineAddr,
) -> Result<(), String> {
    line.words()
        .try_for_each(|word| check_word(l1s, regs, word))
}

/// Per word: (1) at most one settled registrant anywhere; (2) a registry
/// pointer `Registered(c)` means core `c` either holds the word registered
/// or has an MSHR transaction on it (the pointer is re-pointed eagerly, so
/// the target may still be mid-registration); (3) a registry `Valid` word
/// has no settled registrant at all. A classified word instead obeys the
/// sync-path rules: once its recall settles it is **Valid at its home bank
/// with no silent sharer**, and every set waiter bit targets a core whose
/// L1 has a remote watch armed on exactly that word — so a notify's fan-out
/// always matches the true waiter set.
fn check_word(l1s: &[DnvL1], regs: &[DnvRegistry], word: WordAddr) -> Result<(), String> {
    let mut settled: Option<CoreId> = None;
    for (c, l1) in l1s.iter().enumerate() {
        if l1.word_registered(word) {
            if let Some(prev) = settled {
                return Err(format!(
                    "word {word}: settled registrants at both core {prev} and core {c}"
                ));
            }
            settled = Some(c);
        }
    }
    let bank = home(regs, word.line());
    let reg = &regs[bank];
    if reg.classified(word) {
        // Mid-recall the previous registrant may legitimately still hold
        // the word; only the waiter-set direction is checkable.
        if !reg.recalling(word) {
            if let Some(c) = settled {
                return Err(format!(
                    "bank {bank}: classified word {word} has a silent sharer at core {c}"
                ));
            }
            match reg.word(word) {
                Some(RegWord::Valid(_)) => {}
                other => {
                    return Err(format!(
                        "bank {bank}: classified word {word} is {other:?}, not Valid"
                    ))
                }
            }
        }
        for c in reg.waiters_of(word) {
            let watching = l1s[c].remote_watch_word();
            if watching != Some(word) {
                return Err(format!(
                    "bank {bank}: waiter bit for core {c} on {word}, but that core is \
                     remote-watching {watching:?}"
                ));
            }
        }
        return Ok(());
    }
    match (reg.word(word), settled) {
        (Some(RegWord::Registered(c)), _)
            if !l1s[c].word_registered(word) && !l1s[c].has_pending(word) =>
        {
            Err(format!(
                "bank {bank}: registry points {word} at core {c}, which neither holds \
                 it nor has a transaction on it"
            ))
        }
        (Some(RegWord::Valid(_)), Some(c)) => Err(format!(
            "bank {bank}: registry holds {word} Valid while core {c} has it \
             settled-Registered"
        )),
        _ => Ok(()),
    }
}

/// The full delivery-boundary scan: [`check_line`] over every line any L1
/// or registry bank tracks, then conservation — every outstanding L1
/// transaction has an in-flight message for its line (`live_lines`), a busy
/// home-bank line, or a transfer or recall parked on its word somewhere,
/// which keeps the distributed registration queue (or the recall handshake)
/// moving once that local transaction completes.
pub(crate) fn verify_invariants(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    live_lines: &HashSet<LineAddr>,
) -> Result<(), String> {
    let mut lines = BTreeSet::new();
    for l1 in l1s {
        lines.extend(l1.registered_words().map(|w| w.line()));
        lines.extend(l1.pending_summaries().iter().map(|(w, _)| w.line()));
    }
    for reg in regs {
        lines.extend(reg.registrations().map(|(w, _)| w.line()));
        lines.extend(reg.classified_words().map(|w| w.line()));
    }
    for line in lines {
        check_line(l1s, regs, line)?;
    }
    for (c, l1) in l1s.iter().enumerate() {
        for (word, state) in l1.pending_summaries() {
            let line = word.line();
            if live_lines.contains(&line) || regs[home(regs, line)].line_busy(line) {
                continue;
            }
            let parked = l1s
                .iter()
                .any(|o| o.has_parked_xfer(word) || o.has_parked_recall(word));
            if !parked {
                return Err(format!(
                    "conservation: core {c} transaction on {word} ({state}) has no \
                     in-flight message, an idle bank line, and no parked transfer or recall"
                ));
            }
        }
    }
    Ok(())
}

/// Adds the pending L1 transactions, and the registry state of every word
/// on a stuck line (`addrs` arrives holding the stalled cores' lines), to a
/// stall report.
pub(crate) fn describe_stall(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    addrs: &mut BTreeSet<LineAddr>,
    report: &mut StallReport,
) {
    for (c, l1) in l1s.iter().enumerate() {
        for (word, state) in l1.pending_summaries() {
            addrs.insert(word.line());
            report.l1_pending.push(format!("core {c}: {word} {state}"));
        }
        if let Some(word) = l1.remote_watch_word() {
            addrs.insert(word.line());
        }
    }
    for &line in addrs.iter() {
        let reg = &regs[home(regs, line)];
        report
            .l2_state
            .extend(line.words().filter_map(|w| reg.describe_word(w)));
    }
}

/// The architecturally-current value of a word: the registry's, or the
/// registrant's copy, else memory.
pub(crate) fn read_word(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    memory: &MainMemory,
    word: WordAddr,
) -> u64 {
    match regs[home(regs, word.line())].word(word) {
        Some(RegWord::Valid(v)) => v,
        Some(RegWord::Registered(c)) => l1s[c]
            .peek_registered(word)
            .expect("registry points at a core that holds the word"),
        None => memory.read_word(word),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackoffConfig;
    use crate::msg::{DnvMsg, Endpoint, GcsMsg, GcsOpKind, XferClass};
    use dvs_mem::{AccessKind, Addr, CacheGeometry, LayoutBuilder};
    use dvs_vm::MemRequest;
    use std::sync::Arc;

    /// A settled two-core GCS machine whose word 0x100 (homed at bank 0) is
    /// sync-classified and Valid at the bank.
    fn classified_machine() -> (Vec<DnvL1>, Vec<DnvRegistry>, WordAddr) {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 12, r);
        let layout = Arc::new(b.build());
        let l1s: Vec<DnvL1> = (0..2)
            .map(|i| {
                let geometry = CacheGeometry::new(1024, 2);
                let l1 = DnvL1::new(
                    i,
                    geometry,
                    2,
                    BackoffConfig::cores16(),
                    false,
                    layout.clone(),
                );
                l1.with_sync_path()
            })
            .collect();
        let mut regs: Vec<DnvRegistry> = (0..2)
            .map(|b| DnvRegistry::new(b, Endpoint::Mem(0)).with_sync_path())
            .collect();
        let word = Addr::new(0x100).word();
        let mut acts = Vec::new();
        // A bank-side sync load classifies the word on demand once the cold
        // line arrives.
        let op = GcsOpKind::Load;
        regs[0].on_gcs(GcsMsg::SyncOp { word, req: 1, op }, &mut acts);
        regs[0].on_mem_data(word.line(), [0; 8], &mut acts);
        assert!(regs[0].classified(word) && !regs[0].recalling(word));
        check_line(&l1s, &regs, word.line()).expect("clean classified word");
        verify(&l1s, &regs).expect("clean classified word");
        (l1s, regs, word)
    }

    #[test]
    fn classified_word_with_a_silent_registrant_is_flagged() {
        let (mut l1s, regs, word) = classified_machine();
        // Core 0 registers the word without the bank knowing.
        let mut acts = Vec::new();
        let store = MemRequest {
            addr: Addr::new(0x100),
            kind: AccessKind::DataStore { value: 5 },
            dst: None,
            spin: None,
        };
        l1s[0].core_request(&store, false, &mut acts);
        let ack = DnvMsg::RegAck {
            word,
            value: 0,
            class: XferClass::Write,
        };
        l1s[0].on_msg(ack, &mut acts);
        assert!(l1s[0].word_registered(word));
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("silent sharer at core 0"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("silent sharer: core 0"), "{err}");
    }

    #[test]
    fn classified_word_not_valid_at_the_bank_is_flagged() {
        let (l1s, mut regs, word) = classified_machine();
        regs[0].force_word(word, RegWord::Registered(1));
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("not Valid"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("not Valid"), "{err}");
    }

    #[test]
    fn waiter_bit_without_a_remote_watch_is_flagged() {
        let (mut l1s, mut regs, word) = classified_machine();
        // Core 0 parks in the waiter set without arming its remote watch.
        let mut acts = Vec::new();
        let watch = GcsMsg::SyncWatch {
            word,
            req: 0,
            seen: 0,
        };
        regs[0].on_gcs(watch, &mut acts);
        assert_eq!(regs[0].waiters_of(word), vec![0]);
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("waiter bit for core 0"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("1 waiter bits set at quiescence"), "{err}");
        // The matching remote watch makes the waiter bit legitimate.
        l1s[0].start_remote_watch(word, 0, &mut acts);
        check_line(&l1s, &regs, word.line()).expect("watch matches the waiter bit");
    }
}
