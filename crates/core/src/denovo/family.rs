//! Whole-machine views over every DeNovo L1 and registry bank: the one
//! per-word coherence rule set (checked at delivery boundaries, by the full
//! scan and by the quiescent verifier), MSHR conservation, stall forensics
//! and architectural reads. Under GCS, sync-classified words are one more
//! branch of the rules.

use super::registry::RegWord;
use super::{DnvL1, DnvRegistry};
use crate::coreset::CoreSet;
use crate::msg::CoreId;
use crate::proto::home_bank;
use crate::system::StallReport;
use dvs_mem::{LineAddr, MainMemory, WordAddr};
use std::collections::{BTreeSet, HashSet};

/// The quiescent verifier: nothing is pending — no MSHR entry or armed
/// remote watch at any L1; no fetching or queued bank line, mid-recall or
/// parked sync entry, or waiter bit at any bank — and the full
/// [`verify_invariants`] scan passes. With nothing in flight, its per-word
/// rules are the **single-registrant rule** in both directions: every
/// registry pointer names the one core holding the word Registered, and
/// every L1-registered word is the one its registry points at.
pub(crate) fn verify(l1s: &[DnvL1], regs: &[DnvRegistry]) -> Result<(), String> {
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
    }
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
    }
    verify_invariants(l1s, regs, &HashSet::new())
}

/// The delivery-boundary check of every word of `line`: gathers each word's
/// settled registrants by asking each L1, then applies [`word_rules`].
pub(crate) fn check_line(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    line: LineAddr,
) -> Result<(), String> {
    line.words().try_for_each(|word| {
        let settled = (0..l1s.len()).filter(|&c| l1s[c].word_registered(word));
        word_rules(l1s, regs, word, settled.collect())
    })
}

/// The DeNovo rules for one word, given its **settled** registrants (cores
/// holding it Registered with no MSHR transaction on it): (1) at most one
/// settled registrant; (2) a registry pointer `Registered(c)` means core `c`
/// either holds the word registered or has an MSHR transaction on it (the
/// pointer is re-pointed eagerly, so the target may still be
/// mid-registration); (3) a registry `Valid` word has no settled registrant;
/// (4) a settled registrant's word is tracked by its home registry. A
/// classified word instead obeys the sync-path rules: once its recall
/// settles it is **Valid at its home bank with no silent sharer**, and every
/// set waiter bit targets a core whose L1 has a remote watch armed on
/// exactly that word — so a notify's fan-out always matches the true waiter
/// set.
fn word_rules(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    word: WordAddr,
    settled: CoreSet,
) -> Result<(), String> {
    let mut registrants = settled.iter();
    let registrant = registrants.next();
    if let (Some(a), Some(b)) = (registrant, registrants.next()) {
        return Err(format!(
            "word {word}: settled registrants at both core {a} and core {b}"
        ));
    }
    let bank = home_bank(word.line(), regs.len());
    let reg = &regs[bank];
    if reg.classified(word) {
        // Mid-recall the previous registrant may legitimately still hold
        // the word; only the waiter-set direction is checkable.
        if !reg.recalling(word) {
            if let Some(c) = registrant {
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
    match (reg.word(word), registrant) {
        (Some(RegWord::Registered(c)), _) if registrant != Some(c) && !l1s[c].has_pending(word) => {
            Err(format!(
                "bank {bank}: registry points {word} at core {c}, which neither holds \
                 it nor has a transaction on it"
            ))
        }
        (Some(RegWord::Valid(_)), Some(c)) => Err(format!(
            "bank {bank}: registry holds {word} Valid while core {c} has it \
             settled-Registered"
        )),
        (None, Some(c)) => Err(format!(
            "bank {bank}: core {c} has {word} settled-Registered, but the registry \
             does not track it"
        )),
        _ => Ok(()),
    }
}

/// The full delivery-boundary scan: [`word_rules`] over every word that
/// carries state — a settled registrant, a registry pointer or a
/// classification — gathered in one pass over the L1s' registered words and
/// the banks, checked in address order; then conservation: every
/// outstanding L1 transaction has an in-flight message for its line
/// (`live_lines`), a busy home-bank line, or a transfer or recall parked on
/// its word somewhere, which keeps the distributed registration queue (or
/// the recall handshake) moving once that local transaction completes.
pub(crate) fn verify_invariants(
    l1s: &[DnvL1],
    regs: &[DnvRegistry],
    live_lines: &HashSet<LineAddr>,
) -> Result<(), String> {
    let mut copies: Vec<(WordAddr, Option<CoreId>)> = Vec::new();
    for (c, l1) in l1s.iter().enumerate() {
        let settled = l1.registered_words().filter(|&w| !l1.has_pending(w));
        copies.extend(settled.map(|w| (w, Some(c))));
    }
    for reg in regs {
        copies.extend(reg.registrations().map(|(w, _)| (w, None)));
        copies.extend(reg.classified_words().map(|w| (w, None)));
    }
    copies.sort_unstable_by_key(|&(word, _)| word);
    for group in copies.chunk_by(|a, b| a.0 == b.0) {
        let settled = group.iter().filter_map(|&(_, c)| c).collect();
        word_rules(l1s, regs, group[0].0, settled)?;
    }
    for (c, l1) in l1s.iter().enumerate() {
        for (word, state) in l1.pending_summaries() {
            let line = word.line();
            if live_lines.contains(&line) || regs[home_bank(line, regs.len())].line_busy(line) {
                continue;
            }
            if !l1s.iter().any(|o| o.has_parked(word)) {
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
        let reg = &regs[home_bank(line, regs.len())];
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
    match regs[home_bank(word.line(), regs.len())].word(word) {
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
    use crate::config::{BackoffConfig, Protocol};
    use crate::denovo::registry::tests::mem_data;
    use crate::msg::{DnvMsg, Endpoint, GcsOpKind, Msg, XferClass};
    use crate::proto::Actions;
    use dvs_mem::{AccessKind, Addr, CacheGeometry, LayoutBuilder};
    use dvs_vm::MemRequest;
    use std::sync::Arc;

    /// A cold two-core machine with two banks, running `protocol`'s tables.
    fn machine(protocol: Protocol) -> (Vec<DnvL1>, Vec<DnvRegistry>) {
        let mut b = LayoutBuilder::new();
        let r = b.region("shared");
        b.segment("arena", 1 << 12, r);
        let layout = Arc::new(b.build());
        let l1s = (0..2)
            .map(|i| {
                let geometry = CacheGeometry::new(1024, 2);
                let backoff = BackoffConfig::cores16();
                DnvL1::new(i, geometry, 2, backoff, layout.clone(), protocol)
            })
            .collect();
        let regs = (0..2)
            .map(|b| DnvRegistry::new(b, Endpoint::Mem(0), protocol, None))
            .collect();
        (l1s, regs)
    }

    /// A settled two-core GCS machine whose word 0x100 (homed at bank 0) is
    /// sync-classified and Valid at the bank.
    fn classified_machine() -> (Vec<DnvL1>, Vec<DnvRegistry>, WordAddr) {
        let (l1s, mut regs) = machine(Protocol::Gcs);
        let word = Addr::new(0x100).word();
        let mut acts = Actions::new(true);
        // A bank-side sync load classifies the word on demand once the cold
        // line arrives.
        let op = GcsOpKind::Load;
        regs[0].on_msg(Msg::Dnv(DnvMsg::SyncOp { word, req: 1, op }), &mut acts);
        regs[0].on_msg(mem_data(word.line(), [0; 8]), &mut acts);
        assert!(regs[0].classified(word) && !regs[0].recalling(word));
        check_line(&l1s, &regs, word.line()).expect("clean classified word");
        verify(&l1s, &regs).expect("clean classified word");
        (l1s, regs, word)
    }

    /// `l1` stores to `word` and registers it on an ack its home bank never
    /// sent.
    fn register_behind_the_bank(l1: &mut DnvL1, word: WordAddr) {
        let mut acts = Actions::new(true);
        let store = MemRequest {
            addr: word.base(),
            kind: AccessKind::DataStore { value: 5 },
            dst: None,
            spin: None,
        };
        l1.core_request(&store, false, &mut acts);
        let ack = DnvMsg::RegAck {
            word,
            value: 0,
            class: XferClass::Write,
        };
        l1.on_msg(ack, &mut acts);
        assert!(l1.word_registered(word));
    }

    #[test]
    fn classified_word_with_a_silent_registrant_is_flagged() {
        let (mut l1s, regs, word) = classified_machine();
        register_behind_the_bank(&mut l1s[0], word);
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("silent sharer at core 0"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("silent sharer at core 0"), "{err}");
    }

    #[test]
    fn registrant_the_registry_does_not_track_is_flagged() {
        let (mut l1s, regs) = machine(Protocol::DeNovoSync0);
        let word = Addr::new(0x100).word();
        register_behind_the_bank(&mut l1s[0], word);
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("the registry does not track it"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("the registry does not track it"), "{err}");
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
        let mut acts = Actions::new(true);
        let watch = DnvMsg::SyncWatch {
            word,
            req: 0,
            seen: 0,
        };
        regs[0].on_msg(Msg::Dnv(watch), &mut acts);
        assert_eq!(regs[0].waiters_of(word), vec![0]);
        let err = check_line(&l1s, &regs, word.line()).unwrap_err();
        assert!(err.contains("waiter bit for core 0"), "{err}");
        let err = verify(&l1s, &regs).unwrap_err();
        assert!(err.contains("1 waiter bits set at quiescence"), "{err}");
        // The matching remote watch makes the waiter bit legitimate (a
        // recall that finds the word Invalid teaches core 0 it is
        // classified, so its spin watches remotely).
        l1s[0].on_msg(DnvMsg::Recall { word }, &mut acts);
        assert!(l1s[0].watch(word, 0, &mut acts));
        check_line(&l1s, &regs, word.line()).expect("watch matches the waiter bit");
    }
}
